"""Tests for the Lemma 4.3 subsequence extraction."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lowerbound.subsequence import select_subsequence


def verify_subsequence(xs, indices, c, d):
    """Assert the two postconditions of Lemma 4.3 (raises on violation)."""
    m = len(indices)
    bound = (xs[-1] - xs[0]) / (c - d) + 1.0
    if m > bound + 1e-9:
        raise AssertionError(f"subsequence length {m} exceeds bound {bound}")
    for j in range(m - 1):
        gap = abs(xs[indices[j + 1]] - xs[indices[j]])
        if not (c - d - 1e-9 <= gap <= c + 1e-9):
            raise AssertionError(
                f"gap {gap!r} between selected elements {j} and {j + 1} "
                f"outside [{c - d!r}, {c!r}]"
            )


class TestBasics:
    def test_monotone_ramp(self):
        xs = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        idx = select_subsequence(xs, c=2.5, d=1.0)
        verify_subsequence(xs, idx, 2.5, 1.0)
        assert idx[0] == 0
        # Gaps between selected values lie in [1.5, 2.5].
        for a, b in zip(idx, idx[1:]):
            assert 1.5 <= xs[b] - xs[a] <= 2.5

    @pytest.mark.parametrize(
        "indices,message",
        [([0, 1, 2, 3, 4, 5, 6], "exceeds bound"), ([0, 4], "between selected elements 0 and 1")],
    )
    def test_verify_refuses_what_breaks_the_lemma(self, indices, message):
        xs = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        with pytest.raises(AssertionError, match=message):
            verify_subsequence(xs, indices, 2.5, 1.0)

    def test_flat_sequence_selects_only_start(self):
        xs = [1.0] * 10
        idx = select_subsequence(xs, c=2.0, d=0.5)
        assert idx == [0]
        verify_subsequence(xs, idx, 2.0, 0.5)

    def test_two_elements(self):
        idx = select_subsequence([0.0, 0.5], c=2.0, d=1.0)
        assert idx == [0]

    def test_zigzag(self):
        xs = [0.0, 1.0, 0.5, 1.5, 1.0, 2.0, 1.5, 2.5, 2.0, 3.0]
        idx = select_subsequence(xs, c=1.4, d=1.0)
        verify_subsequence(xs, idx, 1.4, 1.0)

    def test_length_bound(self):
        xs = [0.1 * i for i in range(101)]  # spans 10.0
        idx = select_subsequence(xs, c=1.0, d=0.1)
        # m <= (x_n - x_1)/(c - d) + 1 = 10/0.9 + 1 ~ 12.1
        assert len(idx) <= 12

    def test_preconditions(self):
        with pytest.raises(ValueError):
            select_subsequence([1.0], 2.0, 1.0)
        with pytest.raises(ValueError):
            select_subsequence([2.0, 1.0], 2.0, 1.0)  # xs[0] > xs[-1]
        with pytest.raises(ValueError):
            select_subsequence([0.0, 1.0], 1.0, 1.0)  # c must exceed d
        with pytest.raises(ValueError):
            select_subsequence([0.0, 5.0], 10.0, 1.0)  # gap exceeds d

    def test_verify_catches_bad_gap(self):
        xs = [0.0, 1.0, 2.0, 3.0]
        with pytest.raises(AssertionError):
            verify_subsequence(xs, [0, 1], c=5.0, d=1.0)  # gap 1.0 < c-d=4.0


@st.composite
def bounded_walks(draw):
    """Sequences with |x_{i+1} - x_i| <= d and x_0 <= x_{n-1}."""
    d = draw(st.floats(min_value=0.1, max_value=2.0))
    n = draw(st.integers(min_value=2, max_value=60))
    steps = draw(
        st.lists(
            st.floats(min_value=-1.0, max_value=1.0),
            min_size=n - 1,
            max_size=n - 1,
        )
    )
    xs = [0.0]
    for s in steps:
        xs.append(xs[-1] + s * d)
    if xs[0] > xs[-1]:
        xs = list(reversed(xs))
    c = draw(st.floats(min_value=1.05, max_value=4.0)) * d
    return xs, c, d


@settings(max_examples=120)
@given(bounded_walks())
def test_property_lemma_4_3_postconditions(case):
    """Both postconditions of Lemma 4.3 hold on random bounded walks."""
    xs, c, d = case
    idx = select_subsequence(xs, c, d)
    verify_subsequence(xs, idx, c, d)
    # Selected indices are strictly increasing and start at 0.
    assert idx[0] == 0
    assert all(b > a for a, b in zip(idx, idx[1:]))
    # Selected values never exceed the last element (the proof's guard).
    assert all(xs[i] <= xs[-1] + 1e-12 for i in idx)
