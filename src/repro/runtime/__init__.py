"""repro.runtime — sharded streaming ingestion runtime.

Production-shaped serving layer over the StoryPivot core: per-source
sharding with bounded, backpressured queues; worker supervision with
capped-backoff restarts; WAL + checkpoint durability with exact
kill/resume recovery; and a built-in metrics registry instrumented into
every hot path.  See :mod:`repro.runtime.runtime` for the architecture
notes and ``storypivot-serve`` for the CLI.
"""

from repro.runtime.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_table,
)
from repro.runtime.queues import (
    BACKPRESSURE_POLICIES,
    BoundedQueue,
    Empty,
    QueueClosed,
)
from repro.runtime.runtime import (
    EXECUTORS,
    RuntimeOptions,
    ShardedRuntime,
    shard_of,
)
from repro.runtime.shard import Shard
from repro.runtime.supervisor import BackoffPolicy, Supervisor
from repro.runtime.wal import CheckpointStore, ShardWal

__all__ = [
    "BACKPRESSURE_POLICIES",
    "BackoffPolicy",
    "BoundedQueue",
    "CheckpointStore",
    "Counter",
    "EXECUTORS",
    "Empty",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QueueClosed",
    "RuntimeOptions",
    "Shard",
    "ShardWal",
    "ShardedRuntime",
    "Supervisor",
    "render_table",
    "shard_of",
]
