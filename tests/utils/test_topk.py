"""Tests for the bounded top-k accumulator."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tests.oracles.topk import TopK


class TestTopK:
    def test_requires_positive_k(self):
        with pytest.raises(ValueError):
            TopK(0)

    def test_best_orders_by_score_descending(self):
        top = TopK(3)
        top.add("a", 1.0)
        top.add("b", 3.0)
        top.add("c", 2.0)
        assert top.best() == [("b", 3.0), ("c", 2.0), ("a", 1.0)]

    def test_add_accumulates(self):
        top = TopK(2)
        top.add("a", 1.0)
        top.add("a", 2.5)
        assert top.get("a") == pytest.approx(3.5)

    def test_set_overwrites(self):
        top = TopK(2)
        top.add("a", 1.0)
        top.set("a", 0.25)
        assert top.get("a") == 0.25

    def test_truncates_to_k(self):
        top = TopK(2)
        for index in range(10):
            top.add(index, float(index))
        assert [item for item, _ in top.best()] == [9, 8]

    def test_ties_break_by_item_ascending(self):
        top = TopK(3)
        for item in ("z", "a", "m"):
            top.add(item, 1.0)
        assert [item for item, _ in top.best()] == ["a", "m", "z"]

    def test_prune_drops_outside_top_k(self):
        top = TopK(2)
        for index in range(5):
            top.add(index, float(index))
        top.prune()
        assert len(top) == 2
        assert 0 not in top

    def test_contains_and_iter(self):
        top = TopK(2)
        top.add("x", 1.0)
        assert "x" in top
        assert list(top) == ["x"]

    @given(st.dictionaries(st.integers(), st.floats(allow_nan=False,
                                                    allow_infinity=False,
                                                    width=32),
                           max_size=40),
           st.integers(min_value=1, max_value=10))
    def test_best_matches_sorted_reference(self, scores, k):
        top = TopK(k)
        for item, score in scores.items():
            top.set(item, score)
        expected = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
        assert top.best() == expected
