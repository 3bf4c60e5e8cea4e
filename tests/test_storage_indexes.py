"""Tests for the temporal index and the inverted index."""

import pytest

from repro.storage.inverted_index import InvertedIndex
from repro.storage.temporal_index import TemporalIndex


class TestTemporalIndex:
    def test_insert_and_window(self):
        index = TemporalIndex()
        for i in range(10):
            index.insert(f"v{i}", float(i))
        assert index.window(3.0, 6.0) == ["v3", "v4", "v5", "v6"]

    def test_window_inclusive_bounds(self):
        index = TemporalIndex()
        index.insert("a", 1.0)
        assert index.window(1.0, 1.0) == ["a"]
        # ids that sort after any one-character sentinel: the bounds must
        # not depend on the ids' characters
        index.insert("\U0001F600-a", 10.0)
        index.insert("\uffffx", 5.0)
        assert index.window(0.0, 10.0) == ["a", "\uffffx", "\U0001F600-a"]
        assert index.window(5.0, 5.0) == ["\uffffx"]
        assert index.window(10.0, 10.0) == ["\U0001F600-a"]

    def test_window_empty_range(self):
        index = TemporalIndex()
        index.insert("a", 1.0)
        assert index.window(5.0, 2.0) == []

    def test_around(self):
        index = TemporalIndex()
        for i in range(10):
            index.insert(f"v{i}", float(i))
        assert index.around(5.0, 1.0) == ["v4", "v5", "v6"]

    def test_duplicate_id_rejected(self):
        index = TemporalIndex()
        index.insert("a", 1.0)
        with pytest.raises(ValueError):
            index.insert("a", 2.0)

    def test_same_timestamp_different_ids(self):
        index = TemporalIndex()
        index.insert("b", 1.0)
        index.insert("a", 1.0)
        assert index.window(1.0, 1.0) == ["a", "b"]  # id-ordered within ties

    def test_remove(self):
        index = TemporalIndex()
        index.insert("a", 1.0)
        index.insert("b", 2.0)
        index.remove("a")
        assert "a" not in index
        assert index.window(0.0, 5.0) == ["b"]

    def test_remove_absent(self):
        with pytest.raises(KeyError):
            TemporalIndex().remove("nope")


class TestInvertedIndex:
    def test_insert_and_candidates(self):
        index = InvertedIndex()
        index.insert("v1", ["UKR", "crash"])
        index.insert("v2", ["UKR", "vote"])
        index.insert("v3", ["FRA", "vote"])
        assert index.candidates(["UKR"]) == {"v1", "v2"}
        assert index.candidates(["vote", "crash"]) == {"v1", "v2", "v3"}

    def test_duplicate_rejected(self):
        index = InvertedIndex()
        index.insert("v1", ["a"])
        with pytest.raises(ValueError):
            index.insert("v1", ["b"])

    def test_duplicate_features_deduplicated(self):
        index = InvertedIndex()
        index.insert("v1", ["a", "a"])
        assert index.candidates(["a"]) == {"v1"}
        index.remove("v1")
        assert index.candidates(["a"]) == set()

    def test_remove_prunes_postings(self):
        index = InvertedIndex()
        index.insert("v1", ["a", "b"])
        index.remove("v1")
        assert len(index) == 0 and "v1" not in index
        assert index.candidates(["a", "b"]) == set()

    def test_remove_absent(self):
        with pytest.raises(KeyError):
            InvertedIndex().remove("nope")

    def test_len_counts_items(self):
        index = InvertedIndex()
        index.insert("v1", ["a", "b", "c"])
        assert len(index) == 1
        assert index.candidates(["a"]) == index.candidates(["c"]) == {"v1"}
