"""Wire format of the WAL-shipping replication protocol.

Everything is JSON over HTTP on a localhost-friendly port, pulled by the
follower (see DESIGN.md for the pull-vs-push rationale).  Three
endpoints, all GET:

``/replication/v1/manifest``
    Leader identity and topology: shard count, pipeline config, dataset
    name, source metadata, and per-shard WAL positions.  A follower
    refuses to tail a leader whose shard count or config differs from
    the one it bootstrapped against.

``/replication/v1/snapshot/<shard>``
    The shard's serialized pivot state plus the WAL ``position`` the
    snapshot covers, taken atomically under the shard lock.  This is the
    cold-follower bootstrap: adopt the state as a checkpoint at
    ``position``, set the cursor there, start tailing.

``/replication/v1/wal/<shard>?from=<seq>&max=<n>``
    Framed WAL records with ``seq >= from``, oldest first, plus the
    leader's current ``position``.  When ``from`` predates the oldest
    retained segment the response says ``reset: true`` and carries no
    records — the follower re-bootstraps from a fresh snapshot instead
    of silently skipping a gap.

Record integrity: every shipped record carries the CRC32 frame stamped
by :func:`repro.runtime.wal.frame_record`; the follower re-verifies on
receipt, so corruption in transit is detected and the batch re-fetched.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.persistence import load_state
from repro.core.pipeline import StoryPivot
from repro.errors import DataFormatError

PROTOCOL_VERSION = 1

MANIFEST_PATH = "/replication/v1/manifest"
SNAPSHOT_PATH = "/replication/v1/snapshot"
WAL_PATH = "/replication/v1/wal"

MANIFEST_KIND = "storypivot-replication-manifest"
SNAPSHOT_KIND = "storypivot-replication-snapshot"
WAL_KIND = "storypivot-replication-wal"

#: default records per WAL fetch — small enough to keep per-poll apply
#: latency bounded, large enough to amortize the HTTP round trip
DEFAULT_BATCH_RECORDS = 512


def check_payload(payload: Dict[str, object], kind: str) -> Dict[str, object]:
    """Validate a protocol payload's kind/version envelope."""
    if not isinstance(payload, dict) or payload.get("kind") != kind:
        raise DataFormatError(
            f"replication payload is not a {kind!r} "
            f"(got {payload.get('kind') if isinstance(payload, dict) else payload!r})"
        )
    version = payload.get("version")
    if version != PROTOCOL_VERSION:
        raise DataFormatError(
            f"unsupported replication protocol version {version!r} "
            f"(this node speaks {PROTOCOL_VERSION})"
        )
    return payload


def snapshot_state(payload: Dict[str, object]) -> Tuple[StoryPivot, int]:
    """The (pivot, WAL position) a snapshot payload carries."""
    return load_state(payload["state"]), int(payload["position"])


def snapshot_url(base: str, shard_id: int) -> str:
    return f"{base.rstrip('/')}{SNAPSHOT_PATH}/{shard_id}"


def manifest_url(base: str) -> str:
    return f"{base.rstrip('/')}{MANIFEST_PATH}"


def wal_url(
    base: str, shard_id: int, from_seq: int,
    max_records: Optional[int] = None,
) -> str:
    url = f"{base.rstrip('/')}{WAL_PATH}/{shard_id}?from={from_seq}"
    if max_records is not None:
        url += f"&max={max_records}"
    return url
