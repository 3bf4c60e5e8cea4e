"""WAL segment rotation, cumulative sequences, and CRC32 framing.

The replication-facing half of :mod:`repro.runtime.wal`: sequence
numbers must survive rotation and reopen, sealed segments must be
immutable and prunable, and the CRC frame must catch corruption while
staying backward-compatible with unframed seed-era WALs.
"""

import json
import os

import pytest

from repro.runtime.wal import (
    ShardWal,
    frame_record,
    record_crc,
    verify_record,
)

from tests.conftest import make_snippet


@pytest.fixture
def wal(tmp_path):
    wal = ShardWal(str(tmp_path / "shard.wal.jsonl"))
    yield wal
    wal.close()


def fill(wal, count, start=0):
    for i in range(start, start + count):
        wal.append(make_snippet(f"s1:v{i:03d}"))


class TestFraming:
    def test_appended_records_carry_seq_and_crc(self, wal):
        fill(wal, 3)
        with open(wal.path) as handle:
            records = [json.loads(line) for line in handle]
        assert [r["seq"] for r in records] == [0, 1, 2]
        assert all(verify_record(r) for r in records)
        assert all(r["crc"] == record_crc(r) for r in records)

    def test_crc_is_canonical_not_positional(self):
        record = frame_record({"kind": "wal-entry", "seq": 5, "a": 1})
        reordered = {"a": 1, "seq": 5, "kind": "wal-entry",
                     "crc": record["crc"]}
        assert verify_record(reordered)

    def test_unframed_records_are_accepted(self):
        # seed-era WALs have no crc field: framing is opt-in per record
        assert verify_record({"kind": "wal-entry", "seq": 0})

    def test_corrupted_record_fails_verification(self, wal):
        fill(wal, 1)
        with open(wal.path) as handle:
            record = json.loads(handle.read())
        record["description"] = "tampered"
        assert not verify_record(record)

    def test_corruption_detected_on_replay_and_counted(self, wal):
        fill(wal, 3)
        wal.close()
        with open(wal.path) as handle:
            lines = handle.readlines()
        middle = json.loads(lines[1])
        middle["description"] = "flipped bits"  # crc now stale
        lines[1] = json.dumps(middle) + "\n"
        with open(wal.path, "w") as handle:
            handle.writelines(lines)
        replayed = ShardWal(wal.path)
        snippets = replayed.replay()
        assert [s.snippet_id for s in snippets] == ["s1:v000", "s1:v002"]
        assert replayed.torn_records == 1

    def test_unframed_seed_wal_replays_cleanly(self, tmp_path):
        # a WAL written before framing: no seq, no crc
        path = str(tmp_path / "seed.wal.jsonl")
        legacy = ShardWal(path)
        with open(path, "w") as handle:
            for i in range(4):
                record = {
                    "snippet_id": f"s1:v{i:03d}", "source_id": "s1",
                    "timestamp": 1405551600.0, "description": "plane crash",
                    "entities": ["UKR"], "keywords": ["crash"],
                    "text": "", "event_type": "", "document_id": "",
                    "url": "", "kind": "wal-entry",
                }
                handle.write(json.dumps(record) + "\n")
        snippets = legacy.replay()
        assert len(snippets) == 4
        assert legacy.torn_records == 0
        # the cursor lands after the unframed records, so new appends
        # get fresh sequence numbers
        assert legacy.position == 4


class TestSequences:
    def test_position_advances_per_append(self, wal):
        assert wal.position == 0
        fill(wal, 5)
        assert wal.position == 5

    def test_sequences_survive_reopen(self, wal):
        fill(wal, 4)
        wal.close()
        reopened = ShardWal(wal.path)
        assert reopened.position == 4
        fill(reopened, 2)
        seqs = [r["seq"] for r in reopened.iter_records()]
        reopened.close()
        assert seqs == [0, 1, 2, 3, 4, 5]

    def test_bootstrap_sees_past_a_torn_middle_record(self, wal):
        # a torn write mid-file must not hide later records' sequence
        # numbers from the reopen scan — reusing them would give two
        # different records the same seq
        fill(wal, 5)
        wal.close()
        with open(wal.path) as handle:
            lines = handle.readlines()
        lines[2] = lines[2][: len(lines[2]) // 2] + "\n"  # torn mid-file
        with open(wal.path, "w") as handle:
            handle.writelines(lines)
        reopened = ShardWal(wal.path)
        assert reopened.position == 5


class TestRotation:
    def test_rotate_seals_and_numbering_continues(self, wal):
        fill(wal, 3)
        segment = wal.rotate()
        assert segment is not None and segment.endswith(
            ".00000000-00000002.seg"
        )
        assert os.path.exists(segment)
        fill(wal, 2, start=3)
        assert wal.position == 5
        assert wal.segments() == [(0, 2, segment)]
        # replay is active-file-only: sealed records are checkpoint-covered
        assert [s.snippet_id for s in wal.replay()] == [
            "s1:v003", "s1:v004"
        ]

    def test_rotate_empty_active_is_a_noop(self, wal):
        fill(wal, 2)
        assert wal.rotate() is not None
        assert wal.rotate() is None
        assert len(wal.segments()) == 1

    def test_iter_records_spans_segments_and_active(self, wal):
        fill(wal, 3)
        wal.rotate()
        fill(wal, 3, start=3)
        wal.rotate()
        fill(wal, 2, start=6)
        seqs = [r["seq"] for r in wal.iter_records()]
        assert seqs == list(range(8))
        assert [r["seq"] for r in wal.iter_records(from_seq=4)] == [
            4, 5, 6, 7
        ]
        assert [
            r["seq"] for r in wal.iter_records(from_seq=2, max_records=3)
        ] == [2, 3, 4]

    def test_prune_respects_keep_segments(self, tmp_path):
        wal = ShardWal(str(tmp_path / "w.jsonl"), keep_segments=2)
        for round_no in range(4):
            fill(wal, 2, start=round_no * 2)
            wal.rotate()
        retained = wal.segments()
        assert len(retained) == 2
        assert wal.earliest_available_seq() == retained[0][0] == 4
        # records before the prune horizon are gone; from_seq past it works
        assert [r["seq"] for r in wal.iter_records(from_seq=4)] == [
            4, 5, 6, 7
        ]
        wal.close()

    def test_earliest_without_segments_is_active_base(self, wal):
        fill(wal, 3)
        assert wal.earliest_available_seq() == 0
        wal.rotate()
        fill(wal, 1, start=3)
        # segment still retained: tailing can reach back to 0
        assert wal.earliest_available_seq() == 0

    def test_reset_discards_everything(self, wal):
        fill(wal, 3)
        wal.rotate()
        fill(wal, 2, start=3)
        wal.reset()
        assert wal.position == 0
        assert wal.segments() == []
        assert wal.replay() == []


class TestRotationReaderRace:
    def test_rotation_never_hides_records_from_a_tailing_reader(
        self, tmp_path
    ):
        """A checkpoint rotating mid-fetch must not fake a sequence gap.

        The hazard: a reader lists the sealed segments, then rotation
        renames the active file into a new segment and replaces it with
        an empty one — the reader sees neither, and the batch skips
        those seqs.  A replication follower is entitled to treat a gap
        as "pruned on the leader" and jump its cursor, silently losing
        up to a checkpoint's worth of records while its cursor-derived
        accepted count still matches the leader's.  So: tail with
        follower semantics while a writer appends and rotates, and
        require every sequence to surface exactly once.
        """
        import sys
        import threading

        wal = ShardWal(
            str(tmp_path / "shard.wal.jsonl"), keep_segments=-1
        )
        total, every = 1500, 25
        done = threading.Event()
        failure = []

        def writer():
            try:
                for i in range(total):
                    wal.append(make_snippet(f"s1:v{i:05d}"))
                    if (i + 1) % every == 0:
                        wal.rotate()
            except Exception as exc:  # surfaced by the main thread
                failure.append(exc)
            finally:
                done.set()

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force frequent thread switches
        try:
            seen = []
            cursor = 0
            thread = threading.Thread(target=writer)
            thread.start()
            while True:
                batch = list(wal.iter_records(cursor, 64))
                if batch:
                    seqs = [r["seq"] for r in batch]
                    seen.extend(seqs)
                    cursor = seqs[-1] + 1
                elif done.is_set():
                    break
            thread.join()
        finally:
            sys.setswitchinterval(old_interval)
            wal.close()
        assert not failure
        assert sorted(seen) == list(range(total))
