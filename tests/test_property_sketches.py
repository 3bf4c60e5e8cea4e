"""Property-based tests (hypothesis) for the sketch substrate."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch.minhash import MinHash
from repro.text.similarity import jaccard_similarity

_elements = st.sets(st.text(min_size=1, max_size=8), min_size=1, max_size=40)
_minhash = MinHash(num_perm=128, seed=11)


class TestMinHashProperties:
    @given(_elements)
    @settings(max_examples=50, deadline=None)
    def test_self_similarity_is_one(self, elements):
        signature = _minhash.signature(elements)
        assert signature.similarity(signature) == 1.0

    @given(_elements, _elements)
    @settings(max_examples=50, deadline=None)
    def test_estimate_within_tolerance_of_jaccard(self, a, b):
        estimate = _minhash.signature(a).similarity(_minhash.signature(b))
        truth = jaccard_similarity(a, b)
        # 128 permutations: standard error sqrt(j(1-j)/128) <= 0.045
        assert abs(estimate - truth) <= 0.25

    @given(_elements, _elements)
    @settings(max_examples=50, deadline=None)
    def test_merge_is_union(self, a, b):
        merged = _minhash.merge(_minhash.signature(a), _minhash.signature(b))
        assert merged == _minhash.signature(a | b)

    @given(_elements, _elements)
    @settings(max_examples=30, deadline=None)
    def test_merge_commutative(self, a, b):
        sa, sb = _minhash.signature(a), _minhash.signature(b)
        assert _minhash.merge(sa, sb) == _minhash.merge(sb, sa)

    @given(_elements)
    @settings(max_examples=30, deadline=None)
    def test_superset_similarity_monotone(self, elements):
        subset = set(list(elements)[: max(1, len(elements) // 2)])
        sig_all = _minhash.signature(elements)
        sig_sub = _minhash.signature(subset)
        merged = _minhash.merge(sig_all, sig_sub)
        assert merged == sig_all  # subset adds nothing to the union
