"""Tests for MinHash."""

import pytest

from repro.sketch.minhash import MinHash, MinHashSignature
from repro.text.similarity import jaccard_similarity


class TestMinHash:
    def test_identical_sets_estimate_one(self):
        minhash = MinHash(num_perm=64)
        s = minhash.signature({"a", "b", "c"})
        assert s.similarity(s) == 1.0

    def test_disjoint_sets_estimate_near_zero(self):
        minhash = MinHash(num_perm=128)
        a = minhash.signature({f"a{i}" for i in range(50)})
        b = minhash.signature({f"b{i}" for i in range(50)})
        assert a.similarity(b) < 0.1

    def test_estimate_tracks_jaccard(self):
        minhash = MinHash(num_perm=256, seed=3)
        base = {f"x{i}" for i in range(100)}
        other = {f"x{i}" for i in range(50)} | {f"y{i}" for i in range(50)}
        truth = jaccard_similarity(base, other)
        estimate = minhash.signature(base).similarity(minhash.signature(other))
        assert abs(estimate - truth) < 0.12

    def test_deterministic_across_instances(self):
        a = MinHash(num_perm=32, seed=7).signature({"a", "b"})
        b = MinHash(num_perm=32, seed=7).signature({"a", "b"})
        assert a == b

    def test_different_seeds_give_different_permutations(self):
        a = MinHash(num_perm=32, seed=1).signature({"a", "b"})
        b = MinHash(num_perm=32, seed=2).signature({"a", "b"})
        assert a != b

    def test_merge_equals_union_signature(self):
        minhash = MinHash(num_perm=64)
        a = {"a", "b", "c"}
        b = {"c", "d"}
        merged = minhash.merge(minhash.signature(a), minhash.signature(b))
        assert merged == minhash.signature(a | b)

    def test_merge_length_mismatch(self):
        m32, m64 = MinHash(32), MinHash(64)
        with pytest.raises(ValueError):
            m32.merge(m32.signature({"a"}), m64.signature({"a"}))

    def test_similarity_length_mismatch(self):
        a = MinHashSignature((1, 2))
        b = MinHashSignature((1, 2, 3))
        with pytest.raises(ValueError):
            a.similarity(b)

    def test_invalid_num_perm(self):
        with pytest.raises(ValueError):
            MinHash(0)

    def test_signature_length(self):
        assert len(MinHash(16).signature({"a"})) == 16
