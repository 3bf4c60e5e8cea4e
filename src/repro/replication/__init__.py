"""``repro.replication`` — read-replica scale-out via WAL shipping.

A **leader** (the sharded ingestion runtime) owns the write path; any
number of **followers** bootstrap from a leader checkpoint snapshot,
then tail the leader's per-shard WAL segments over a localhost HTTP
replication protocol and materialize the same
:class:`~repro.core.pipeline.StoryPivot` state (recovery replay is
byte-identical, so replaying the same records yields the same stories).
Followers serve the existing read path from their own
:class:`~repro.server.views.ReadView` snapshots — read throughput scales
with follower count while the leader touches only the write path.

* :class:`~repro.replication.leader.ReplicationServer` — the leader-side
  HTTP endpoint shipping manifest, snapshots and WAL records;
* :class:`~repro.replication.follower.ReplicaRuntime` — the follower:
  bootstrap, tailing, apply through the runtime's own shards (its
  ``state_dir`` is a runtime WAL directory), and the runtime read
  surface (``merged_pivot``/``accepted``/``health``) the server stack
  expects;
* ``storypivot-replica`` (:mod:`repro.replication.cli`) — serve the API
  from a follower.
"""

from repro.replication.follower import ReplicaRuntime, ReplicationClient
from repro.replication.leader import ReplicationServer

__all__ = ["ReplicaRuntime", "ReplicationClient", "ReplicationServer"]
