"""Tests for the Bloom filter."""

import pytest

from repro.sketch.bloom import BloomFilter


class TestBloom:
    def test_no_false_negatives(self):
        bloom = BloomFilter(capacity=1000, error_rate=0.01)
        items = [f"item{i}" for i in range(500)]
        for item in items:
            bloom.add(item)
        assert all(item in bloom for item in items)

    def test_false_positive_rate_bounded(self):
        bloom = BloomFilter(capacity=2000, error_rate=0.01)
        for i in range(2000):
            bloom.add(f"member{i}")
        false_positives = sum(
            1 for i in range(5000) if f"nonmember{i}" in bloom
        )
        assert false_positives / 5000 < 0.05  # generous bound over nominal 1%

    def test_len_counts_adds(self):
        bloom = BloomFilter()
        bloom.add("a")
        bloom.add("a")
        assert len(bloom) == 2

    def test_estimated_error_rate_grows(self):
        bloom = BloomFilter(capacity=100)
        empty_rate = bloom.estimated_error_rate()
        for i in range(100):
            bloom.add(i)
        assert bloom.estimated_error_rate() > empty_rate

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BloomFilter(capacity=0)
        with pytest.raises(ValueError):
            BloomFilter(error_rate=1.5)

    def test_absent_on_empty(self):
        assert "x" not in BloomFilter()
