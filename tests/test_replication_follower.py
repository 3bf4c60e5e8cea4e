"""Follower correctness: bootstrap determinism and delivery hazards.

The replication contract is the recovery contract over a wire: a
follower that bootstraps from a snapshot and applies the leader's WAL
records materializes *byte-identical* StoryPivot state (canonical
serialized form).  That must hold through kills mid-stream, duplicated
and reordered delivery, corrupted records, and leader-side segment
pruning — the hazards are injected deterministically via the ``chaos``
fixture's seeded RNG.
"""

import json
import os
import time

import pytest

from repro.core.config import StoryPivotConfig
from repro.replication import (
    ReplicaRuntime,
    ReplicationClient,
    ReplicationServer,
)
from repro.replication.follower import _http_transport
from repro.runtime import ShardedRuntime

CONFIG = StoryPivotConfig.temporal()

SURFACE_FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "follower_surface.json"
)

#: fast tail cadence so convergence tests finish quickly
POLL = 0.02


@pytest.fixture
def stream(small_synthetic):
    return list(small_synthetic.snippets_by_publication())


@pytest.fixture
def leader(tmp_path):
    runtime = ShardedRuntime(
        CONFIG, num_shards=2, wal_dir=str(tmp_path / "wal"),
        checkpoint_every=25,
    )
    ship = ReplicationServer(runtime).start()
    yield runtime, ship
    ship.close()
    runtime.stop()


def wait_converged(leader_runtime, replica, timeout=30.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if (
            replica.accepted == leader_runtime.accepted
            and replica.lag_records() == 0
        ):
            return True
        time.sleep(POLL)
    return False


class TestBootstrap:
    def test_snapshot_bootstrap_is_byte_identical(self, leader, stream):
        runtime, ship = leader
        runtime.consume(stream)
        runtime.drain()
        replica = ReplicaRuntime(ship.address, poll_interval=POLL).start()
        try:
            assert wait_converged(runtime, replica)
            assert replica.dumps_state() == runtime.dumps_state()
            assert replica.accepted == runtime.accepted
        finally:
            replica.stop()

    def test_tailing_while_leader_ingests(self, leader, stream):
        runtime, ship = leader
        cut = len(stream) // 3
        runtime.consume(stream[:cut])
        runtime.drain()
        replica = ReplicaRuntime(ship.address, poll_interval=POLL).start()
        try:
            runtime.consume(stream[cut:])
            runtime.drain()
            assert wait_converged(runtime, replica)
            assert replica.dumps_state() == runtime.dumps_state()
        finally:
            replica.stop()

    def test_kill_mid_stream_and_restart_converges(self, leader, stream):
        runtime, ship = leader
        cut = len(stream) // 2
        runtime.consume(stream[:cut])
        runtime.drain()
        first = ReplicaRuntime(ship.address, poll_interval=POLL).start()
        first.stop()  # killed mid-segment: cursors live only in memory
        runtime.consume(stream[cut:])
        runtime.drain()
        second = ReplicaRuntime(ship.address, poll_interval=POLL).start()
        try:
            assert wait_converged(runtime, second)
            assert second.dumps_state() == runtime.dumps_state()
        finally:
            second.stop()

    def test_pruned_leader_forces_rebootstrap(self, leader, stream):
        runtime, ship = leader
        cut = len(stream) // 2
        runtime.consume(stream[:cut])
        runtime.drain()
        replica = ReplicaRuntime(ship.address, poll_interval=POLL).start()
        try:
            assert wait_converged(runtime, replica)
            # prune first: rewound before that, the poll thread could
            # bridge the gap from segments the leader still had
            for shard_id in range(runtime.options.num_shards):
                wal = runtime.shard_wal(shard_id)
                wal.keep_segments = 0
                runtime._checkpoint_shard(runtime._shards[shard_id])
            # wind the follower's cursors far behind the leader's
            # retention window: tailing cannot bridge that gap.  Under the
            # shard's lock, or an apply in flight writes its cursor back
            for wal_shard in replica._shards:
                with wal_shard.lock:
                    wal_shard.cursor = 0
            runtime.consume(stream[cut:])
            runtime.drain()
            assert wait_converged(runtime, replica)
            assert replica.dumps_state() == runtime.dumps_state()
            assert replica.stats()["resets"] >= 1
        finally:
            replica.stop()


class ManglingTransport:
    """Deterministically reorder/duplicate/corrupt WAL responses.

    Drives the follower's apply-discipline paths regardless of how the
    poll loop's timing slices the stream into batches: every
    multi-record batch is shuffled (out-of-order delivery), every third
    WAL fetch replays the previous response verbatim (duplicate
    delivery), and — when enabled — the first non-empty batch gets a
    broken CRC (corruption in transit).  The shuffle order comes from
    the ``chaos`` fixture's seeded RNG, so every run mangles
    identically.
    """

    def __init__(self, injector, corrupt=False):
        self._fetch = _http_transport(10.0)
        self._rng = injector._rng("replication.transport")
        self._corrupt_pending = corrupt
        self._last = None
        self._calls = 0
        self.mangled = 0

    def __call__(self, url, headers):
        raw = self._fetch(url, headers)
        if "/wal/" not in url:
            return raw
        self._calls += 1
        if self._calls % 3 == 0 and self._last is not None:
            self.mangled += 1
            return self._last  # replay a stale batch verbatim
        payload = json.loads(raw)
        records = payload.get("records")
        if records:
            if self._corrupt_pending:
                self._corrupt_pending = False
                self.mangled += 1
                records[0]["crc"] = 1  # frame mismatch
            elif len(records) > 1:
                self.mangled += 1
                self._rng.shuffle(records)
        raw = json.dumps(payload).encode("utf-8")
        self._last = raw
        return raw


class TestDeliveryHazards:
    def test_out_of_order_and_duplicate_delivery(
        self, leader, stream, chaos
    ):
        runtime, ship = leader
        transport = ManglingTransport(chaos(seed=7, profile="off"))
        replica = ReplicaRuntime(
            ship.address, poll_interval=POLL,
            client=ReplicationClient(ship.address, transport=transport),
        ).start()
        try:
            runtime.consume(stream)
            runtime.drain()
            assert wait_converged(runtime, replica)
            assert transport.mangled > 0  # the hazard actually fired
            assert replica.dumps_state() == runtime.dumps_state()
        finally:
            replica.stop()

    def test_corrupted_records_are_refetched_not_applied(
        self, leader, stream, chaos
    ):
        runtime, ship = leader
        transport = ManglingTransport(
            chaos(seed=11, profile="off"), corrupt=True
        )
        replica = ReplicaRuntime(
            ship.address, poll_interval=POLL,
            client=ReplicationClient(ship.address, transport=transport),
        ).start()
        try:
            runtime.consume(stream)
            runtime.drain()
            assert wait_converged(runtime, replica)
            assert replica.stats()["crc_failures"] >= 1
            # corruption cost retries, never correctness
            assert replica.dumps_state() == runtime.dumps_state()
        finally:
            replica.stop()

    def test_dead_leader_degrades_not_crashes(self, leader, stream):
        runtime, ship = leader
        runtime.consume(stream[: len(stream) // 2])
        runtime.drain()
        replica = ReplicaRuntime(
            ship.address, poll_interval=POLL,
            client=ReplicationClient(ship.address, timeout=0.5),
        ).start()
        try:
            assert wait_converged(runtime, replica)
            before = replica.accepted
            ship.close()  # the leader goes away mid-tail
            deadline = time.time() + 10
            while time.time() < deadline:
                health = replica.health()
                if health["status"] == "degraded":
                    break
                time.sleep(POLL)
            health = replica.health()
            assert health["status"] == "degraded"
            # the tail thread survived and the replicated state still serves
            assert replica.accepted == before
            assert replica.merged_pivot().num_snippets == before
        finally:
            replica.stop()


def counter(replica, name):
    return int(replica.metrics.snapshot().get(name, {}).get("value", 0))


def halve_every_file(directory):
    """Truncate every regular file under ``directory`` to half its length."""
    for root, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "r+b") as handle:
                handle.truncate(os.path.getsize(path) // 2)


class TestWarmStart:
    """``state_dir``: a restarted follower resumes from its own disk."""

    def test_restart_warm_starts_every_shard(self, leader, stream, tmp_path):
        runtime, ship = leader
        state_dir = str(tmp_path / "replica")
        cut = len(stream) // 2
        runtime.consume(stream[:cut])
        runtime.drain()
        first = ReplicaRuntime(
            ship.address, poll_interval=POLL, state_dir=state_dir
        ).start()
        try:
            assert wait_converged(runtime, first)
        finally:
            first.stop()
        runtime.consume(stream[cut:cut + 20])
        runtime.drain()
        second = ReplicaRuntime(
            ship.address, poll_interval=POLL, state_dir=state_dir
        ).start()
        try:
            assert counter(second, "replication.warm_starts") == 2
            assert counter(second, "replication.bootstraps") == 0
            assert wait_converged(runtime, second)
            assert second.dumps_state() == runtime.dumps_state()
        finally:
            second.stop()

    def test_reconfigured_leader_discards_local_state(
        self, leader, stream, tmp_path
    ):
        runtime, ship = leader
        state_dir = str(tmp_path / "replica")
        runtime.consume(stream[: len(stream) // 2])
        runtime.drain()
        first = ReplicaRuntime(
            ship.address, poll_interval=POLL, state_dir=state_dir
        ).start()
        try:
            assert wait_converged(runtime, first)
        finally:
            first.stop()
        # the leader comes back with another shard count: local state
        # describes a topology that no longer exists
        other = ShardedRuntime(
            CONFIG, num_shards=3, wal_dir=str(tmp_path / "wal3"),
            checkpoint_every=25,
        )
        other_ship = ReplicationServer(other).start()
        try:
            other.consume(stream)
            other.drain()
            second = ReplicaRuntime(
                other_ship.address, poll_interval=POLL, state_dir=state_dir
            ).start()
            try:
                assert counter(second, "replication.warm_starts") == 0
                assert counter(second, "replication.bootstraps") == 3
                assert wait_converged(other, second)
                assert second.dumps_state() == other.dumps_state()
            finally:
                second.stop()
        finally:
            other_ship.close()
            other.stop()

    def test_torn_state_dir_still_starts_and_converges(
        self, leader, stream, tmp_path
    ):
        runtime, ship = leader
        state_dir = str(tmp_path / "replica")
        cut = len(stream) // 2
        runtime.consume(stream[:cut])
        runtime.drain()
        first = ReplicaRuntime(
            ship.address, poll_interval=POLL, state_dir=state_dir
        ).start()
        try:
            assert wait_converged(runtime, first)
        finally:
            first.stop()
        halve_every_file(state_dir)
        runtime.consume(stream[cut:])
        runtime.drain()
        second = ReplicaRuntime(
            ship.address, poll_interval=POLL, state_dir=state_dir
        ).start()
        try:
            assert wait_converged(runtime, second)
            assert second.dumps_state() == runtime.dumps_state()
        finally:
            second.stop()


class TestStateDirIsARuntimeDirectory:
    def test_sharded_runtime_resumes_a_follower_directory(
        self, leader, stream, tmp_path
    ):
        runtime, ship = leader
        state_dir = str(tmp_path / "replica")
        runtime.consume(stream)
        runtime.drain()
        replica = ReplicaRuntime(
            ship.address, poll_interval=POLL, state_dir=state_dir
        ).start()
        try:
            assert wait_converged(runtime, replica)
        finally:
            replica.stop()
        resumed = ShardedRuntime.resume(state_dir)
        try:
            assert resumed.accepted == runtime.accepted
            assert resumed.wal_positions() == runtime.wal_positions()
            assert resumed.dumps_state() == runtime.dumps_state()
        finally:
            resumed.stop()


def observed_surface(replica):
    """Metric names, ``health()`` keys and ``stats()`` keys of a follower."""
    health = replica.health()
    return {
        "metrics": sorted(replica.metrics.names()),
        "health": sorted(health),
        "health_shard": sorted(health["shards"][0]),
        "stats": sorted(replica.stats()),
    }


def converged_surface(leader_runtime, ship, stream):
    leader_runtime.consume(stream)
    leader_runtime.drain()
    replica = ReplicaRuntime(ship.address, poll_interval=POLL).start()
    try:
        assert wait_converged(leader_runtime, replica)
        return observed_surface(replica)
    finally:
        replica.stop()


class TestObservableSurface:
    def test_recorded_names_and_keys_are_still_present(self, leader, stream):
        with open(SURFACE_FIXTURE, "r", encoding="utf-8") as handle:
            recorded = json.load(handle)
        observed = converged_surface(*leader, stream)
        for part, names in recorded.items():
            missing = sorted(set(names) - set(observed[part]))
            assert not missing, f"{part}: {missing} no longer present"


if __name__ == "__main__":
    # re-record the follower's observable surface (only when a name or
    # key is meant to go away): python tests/test_replication_follower.py
    import tempfile

    from repro.eventdata.sourcegen import synthetic_corpus

    corpus = synthetic_corpus(total_events=120, num_sources=4, seed=7)
    with tempfile.TemporaryDirectory() as scratch:
        runtime = ShardedRuntime(
            CONFIG, num_shards=2, wal_dir=scratch, checkpoint_every=25
        )
        ship = ReplicationServer(runtime).start()
        try:
            surface = converged_surface(
                runtime, ship, list(corpus.snippets_by_publication())
            )
        finally:
            ship.close()
            runtime.stop()
    with open(SURFACE_FIXTURE, "w", encoding="utf-8") as out:
        json.dump(surface, out, indent=1, sort_keys=True)
        out.write("\n")
    print(f"recorded {SURFACE_FIXTURE}")
