"""Tests for the per-shard WAL and checkpoint store."""

import json
import os

import pytest

from repro.core.config import StoryPivotConfig
from repro.core.pipeline import StoryPivot
from repro.errors import DataFormatError
from repro.runtime.wal import CheckpointStore, ShardWal, atomic_write

from tests.conftest import make_snippet


def wal_snippets(n, source="s1"):
    return [
        make_snippet(f"{source}:{i}", source, f"2014-07-{1 + i:02d}")
        for i in range(n)
    ]


class TestShardWal:
    def test_append_replay_roundtrip(self, tmp_path):
        wal = ShardWal(str(tmp_path / "shard.wal"))
        originals = wal_snippets(5)
        for snippet in originals:
            assert wal.append(snippet) > 0
        wal.close()
        replayed = ShardWal(str(tmp_path / "shard.wal")).replay()
        assert [s.snippet_id for s in replayed] == [
            s.snippet_id for s in originals
        ]
        assert [s.timestamp for s in replayed] == [
            s.timestamp for s in originals
        ]

    def test_replay_missing_file_is_empty(self, tmp_path):
        assert ShardWal(str(tmp_path / "absent.wal")).replay() == []

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "shard.wal"
        wal = ShardWal(str(path))
        for snippet in wal_snippets(3):
            wal.append(snippet)
        wal.close()
        # simulate a kill mid-append: the final line is half-written
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "wal-entry", "snippet_id": "tor')
        replayed = ShardWal(str(path)).replay()
        assert [s.snippet_id for s in replayed] == ["s1:0", "s1:1", "s1:2"]

    def test_foreign_line_stops_replay(self, tmp_path):
        path = tmp_path / "shard.wal"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"kind": "something-else"}) + "\n")
        assert ShardWal(str(path)).replay() == []

    def test_reset_truncates(self, tmp_path):
        wal = ShardWal(str(tmp_path / "shard.wal"))
        for snippet in wal_snippets(3):
            wal.append(snippet)
        assert wal.size_bytes() > 0
        wal.reset()
        assert wal.size_bytes() == 0
        assert wal.replay() == []


class TestAtomicWrite:
    def test_writer_raising_mid_write_leaves_previous_file(self, tmp_path):
        path = str(tmp_path / "state.json")
        atomic_write(path, lambda handle: handle.write("old"))

        def torn(handle):
            handle.write("half of the new")
            raise OSError("disk full")

        with pytest.raises(OSError):
            atomic_write(path, torn)
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == "old"

    def test_returns_bytes_written(self, tmp_path):
        path = str(tmp_path / "state.json")
        assert atomic_write(path, lambda handle: handle.write("12345")) == 5

    @pytest.mark.parametrize("write", [
        lambda store: store.write_manifest(2, StoryPivotConfig()),
        lambda store: store.save(0, StoryPivot(StoryPivotConfig())),
    ], ids=["manifest", "checkpoint"])
    def test_checkpoint_store_fsyncs_before_rename(
        self, tmp_path, monkeypatch, write
    ):
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            calls.append("fsync")
            real_fsync(fd)

        def replace(src, dst):
            calls.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        write(CheckpointStore(str(tmp_path)))
        assert calls == ["fsync", "replace"]


class TestCheckpointStore:
    def test_manifest_roundtrip(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        config = StoryPivotConfig.temporal()
        store.write_manifest(4, config)
        manifest = store.read_manifest()
        assert manifest["num_shards"] == 4
        assert (
            manifest["config"]["identification_mode"]
            == config.identification_mode
        )

    def test_missing_manifest_is_none(self, tmp_path):
        assert CheckpointStore(str(tmp_path)).read_manifest() is None

    def test_bad_manifest_raises(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        with open(os.path.join(str(tmp_path), "manifest.json"), "w") as handle:
            json.dump({"kind": "nonsense"}, handle)
        with pytest.raises(DataFormatError):
            store.read_manifest()

    def test_save_load_roundtrip(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        pivot = StoryPivot(StoryPivotConfig())
        for snippet in wal_snippets(4):
            pivot.add_snippet(snippet)
        assert store.save(0, pivot) > 0
        restored = store.load(0)
        assert restored.num_snippets == pivot.num_snippets
        assert {
            frozenset(c)
            for c in restored.story_sets()["s1"].as_clusters().values()
        } == {
            frozenset(c)
            for c in pivot.story_sets()["s1"].as_clusters().values()
        }

    def test_load_missing_checkpoint_is_none(self, tmp_path):
        assert CheckpointStore(str(tmp_path)).load(7) is None

    def test_recover_checkpoint_plus_wal_tail(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        config = StoryPivotConfig()
        snippets = wal_snippets(6)
        # uninterrupted reference
        reference = StoryPivot(config)
        for snippet in snippets:
            reference.add_snippet(snippet)
        # checkpoint after 3, WAL holds the rest
        pivot = StoryPivot(config)
        wal = store.wal(0)
        for snippet in snippets[:3]:
            pivot.add_snippet(snippet)
        store.save(0, pivot)
        for snippet in snippets[3:]:
            wal.append(snippet)
        wal.close()
        recovered, replayed = store.recover_shard(0, config)
        assert replayed == 3
        assert recovered.num_snippets == reference.num_snippets
        assert {
            frozenset(c)
            for c in recovered.story_sets()["s1"].as_clusters().values()
        } == {
            frozenset(c)
            for c in reference.story_sets()["s1"].as_clusters().values()
        }

    def test_recover_skips_records_already_checkpointed(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        config = StoryPivotConfig()
        snippets = wal_snippets(4)
        pivot = StoryPivot(config)
        wal = store.wal(0)
        for snippet in snippets:
            pivot.add_snippet(snippet)
            wal.append(snippet)
        # crash between checkpoint-write and WAL-truncate: both are full
        store.save(0, pivot)
        wal.close()
        recovered, replayed = store.recover_shard(0, config)
        assert replayed == 0
        assert recovered.num_snippets == 4

    def test_recover_without_checkpoint_replays_full_wal(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        config = StoryPivotConfig()
        wal = store.wal(2)
        for snippet in wal_snippets(5):
            wal.append(snippet)
        wal.close()
        recovered, replayed = store.recover_shard(2, config)
        assert replayed == 5
        assert recovered.num_snippets == 5
