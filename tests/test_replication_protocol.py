"""The leader's replication endpoints over live HTTP.

A real ShardedRuntime behind a real ReplicationServer: manifest
topology, atomic snapshot+position pairs, WAL windows, reset signalling
for pruned cursors, and error envelopes for bad requests.
"""

import http.client
import json
import time
import urllib.error
import urllib.request

import pytest

from repro.core.config import StoryPivotConfig
from repro.core.persistence import load_state
from repro.errors import ConfigurationError, DataFormatError
from repro.replication import ReplicationServer
from repro.replication.protocol import (
    PROTOCOL_VERSION,
    check_payload,
    manifest_url,
    snapshot_url,
    wal_url,
)
from repro.runtime import RuntimeOptions, ShardedRuntime
from repro.server import StoryPivotAPI, ViewStore

CONFIG = StoryPivotConfig.temporal()


def fetch(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read())


@pytest.fixture
def leader(tmp_path, small_synthetic):
    runtime = ShardedRuntime(
        CONFIG, num_shards=2, wal_dir=str(tmp_path / "wal"),
        checkpoint_every=10_000,
    )
    runtime.consume_corpus(small_synthetic)
    runtime.drain()
    with ReplicationServer(runtime, dataset=small_synthetic.name) as ship:
        yield runtime, ship
    runtime.stop()


class TestManifest:
    def test_topology_and_positions(self, leader):
        runtime, ship = leader
        manifest = fetch(manifest_url(ship.address))
        check_payload(manifest, "storypivot-replication-manifest")
        assert manifest["role"] == "leader"
        assert manifest["num_shards"] == 2
        assert manifest["positions"] == runtime.wal_positions()
        assert sum(manifest["positions"]) == runtime.accepted
        # the shipped config must reconstruct the leader's config exactly
        assert StoryPivotConfig(**manifest["config"]) == runtime.config

    def test_check_payload_rejects_wrong_kind_and_version(self):
        with pytest.raises(DataFormatError):
            check_payload({"kind": "nope", "version": PROTOCOL_VERSION},
                          "storypivot-replication-manifest")
        with pytest.raises(DataFormatError):
            check_payload(
                {"kind": "storypivot-replication-manifest", "version": 99},
                "storypivot-replication-manifest",
            )


class TestSnapshot:
    def test_snapshot_state_loads_and_covers_position(self, leader):
        runtime, ship = leader
        shard_id = busiest_shard(runtime)
        payload = fetch(snapshot_url(ship.address, shard_id))
        check_payload(payload, "storypivot-replication-snapshot")
        assert payload["shard"] == shard_id
        assert payload["position"] == runtime.shard_wal(shard_id).position
        pivot = load_state(payload["state"])
        # the snapshot holds exactly the records its position covers
        assert pivot.num_snippets == payload["position"]

    def test_out_of_range_shard_is_an_error(self, leader):
        _, ship = leader
        with pytest.raises(urllib.error.HTTPError) as err:
            fetch(snapshot_url(ship.address, 7))
        err.value.close()  # the error holds the response body open
        assert err.value.code == 404


def busiest_shard(runtime):
    """Sharding is by source hash, so load is uneven — test the busy one."""
    positions = runtime.wal_positions()
    shard_id = positions.index(max(positions))
    assert positions[shard_id] >= 10
    return shard_id


class TestWal:
    def test_window_from_zero_covers_everything(self, leader):
        runtime, ship = leader
        shard_id = busiest_shard(runtime)
        payload = fetch(wal_url(ship.address, shard_id, 0))
        check_payload(payload, "storypivot-replication-wal")
        assert payload["reset"] is False
        assert payload["position"] == runtime.shard_wal(shard_id).position
        seqs = [r["seq"] for r in payload["records"]]
        assert seqs == list(range(payload["position"]))

    def test_window_respects_from_and_max(self, leader):
        runtime, ship = leader
        shard_id = busiest_shard(runtime)
        payload = fetch(wal_url(ship.address, shard_id, 3, max_records=4))
        seqs = [r["seq"] for r in payload["records"]]
        assert seqs == [3, 4, 5, 6]

    def test_pruned_cursor_demands_reset(self, leader):
        runtime, ship = leader
        shard_id = busiest_shard(runtime)
        wal = runtime.shard_wal(shard_id)
        wal.keep_segments = 0  # rotate seals, then immediately prunes
        wal.rotate()
        assert wal.earliest_available_seq() > 0
        payload = fetch(wal_url(ship.address, shard_id, 0))
        assert payload["reset"] is True
        assert payload["records"] == []
        assert payload["earliest"] == wal.earliest_available_seq()

    def test_unknown_path_is_404(self, leader):
        _, ship = leader
        with pytest.raises(urllib.error.HTTPError) as err:
            fetch(ship.address + "/replication/v1/nope")
        err.value.close()  # the error holds the response body open
        assert err.value.code == 404


class TestMisuse:
    """The replication listener refuses misuse the way the read API does."""

    def test_non_get_method_is_405_and_closes(self, leader):
        _, ship = leader
        for method in ("POST", "HEAD", "DELETE"):
            connection = http.client.HTTPConnection(
                "127.0.0.1", ship.port, timeout=10
            )
            try:
                connection.request(method, "/replication/v1/manifest")
                response = connection.getresponse()
                response.read()
                assert response.status == 405
                assert response.getheader("Connection") == "close"
            finally:
                connection.close()

    @pytest.mark.parametrize("query", ["from=abc", "from=0&max=many"])
    def test_malformed_wal_parameter_is_400(self, leader, query):
        runtime, ship = leader
        shard_id = busiest_shard(runtime)
        url = f"{ship.address}/replication/v1/wal/{shard_id}?{query}"
        with pytest.raises(urllib.error.HTTPError) as err:
            fetch(url)
        err.value.close()  # the error holds the response body open
        assert err.value.code == 400

    def test_out_of_range_wal_shard_is_404(self, leader):
        _, ship = leader
        with pytest.raises(urllib.error.HTTPError) as err:
            fetch(wal_url(ship.address, 7, 0))
        err.value.close()  # the error holds the response body open
        assert err.value.code == 404


class TestListenersKeepTheirMetrics:
    def test_replication_moves_only_replication_metrics(self, leader):
        """The SLO engine's read objectives read ``http.*``: replication
        traffic on its own listener must not count as reads."""
        runtime, ship = leader
        metrics = runtime.metrics
        fetches = 5

        def shipped():
            return metrics.counter("replication.ship.requests").value

        def http_metrics():
            return {
                name: value for name, value in metrics.snapshot().items()
                if name.startswith("http.")
            }

        with StoryPivotAPI(
            ViewStore(), port=0, metrics=metrics, replication=ship
        ):
            before, http_before = shipped(), http_metrics()
            assert "http.requests" in http_before
            for _ in range(fetches):
                fetch(manifest_url(ship.address))
            # the request is counted once its response is written
            deadline = time.monotonic() + 5.0
            while shipped() < before + fetches and time.monotonic() < deadline:
                time.sleep(0.01)
            assert shipped() == before + fetches
            assert http_metrics() == http_before


class TestConstruction:
    def test_runtime_without_wal_cannot_lead(self):
        runtime = ShardedRuntime(CONFIG, num_shards=2)  # no wal_dir
        try:
            with pytest.raises(ConfigurationError):
                ReplicationServer(runtime)
        finally:
            runtime.stop()
