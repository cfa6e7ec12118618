"""Tests for the alpha/beta execution pair of Lemma 4.2.

The key property-based test re-verifies Part II of the lemma numerically:
the disguised beta delays are always legal (in ``[0, T]``, and within the
mask's window on constrained edges) -- for random masks, layers and times.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SystemParams
from repro.lowerbound.executions import (
    BetaDelayPolicy,
    beta_clock,
    build_execution_pair,
)
from repro.lowerbound.mask import DelayMask, flexible_distances
from repro.network.topology import path_edges, two_chain_edges
from repro.sim.clocks import ConstantRateClock


def legal_window(mask, u, v, rho):
    """The M-constrained delay window ``[P(e)/(1+rho), P(e)]`` (Def 4.2)."""
    p = mask.pattern(u, v)
    return p / (1.0 + rho), p


class TestBetaDelayChecks:
    def _alpha(self):
        from repro.lowerbound.mask import AlphaDelayPolicy

        edges = path_edges(3)
        mask = DelayMask({}, 1.0)
        return AlphaDelayPolicy(mask, flexible_distances(range(3), edges, mask, 0), edges)

    def test_a_fallback_outside_the_bound_is_refused(self):
        with pytest.raises(ValueError, match="fallback delay must lie in"):
            BetaDelayPolicy(self._alpha(), {}, fallback=2.0)

    def test_clocks_that_break_lemma_4_2_are_caught(self):
        """Clocks that are not the beta clocks of the distances disguise
        alpha's delay as an illegal one, and the policy says so."""
        clocks = {0: ConstantRateClock(1.0), 1: ConstantRateClock(0.1), 2: ConstantRateClock(1.0)}
        with pytest.raises(AssertionError, match="disguised delay .* illegal for .0->1."):
            BetaDelayPolicy(self._alpha(), clocks).delay(0, 1, 1.0)


class TestBetaClock:
    def test_closed_form(self):
        rho, t_bound, d = 0.05, 1.0, 3
        c = beta_clock(rho, t_bound, d)
        for t in (0.0, 5.0, 59.9, 60.0, 100.0):
            assert c.value(t) == pytest.approx(t + min(rho * t, t_bound * d))

    def test_distance_zero_is_perfect(self):
        c = beta_clock(0.05, 1.0, 0)
        assert c.value(17.3) == 17.3

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            beta_clock(0.05, 1.0, -1)


class TestExecutionPair:
    def _pair(self, n=8, prefix=2, rho=0.05):
        params = SystemParams.for_network(n, rho=rho)
        edges = path_edges(n)
        mask = DelayMask(
            {edges[i]: params.max_delay for i in range(prefix)}, params.max_delay
        )
        return build_execution_pair(list(range(n)), edges, mask, 0, params), params

    def test_skew_targets(self):
        pair, params = self._pair()
        assert pair.skew_target(0) == 0.0
        assert pair.skew_target(7) == pytest.approx(params.max_delay * 5)

    def test_full_skew_time(self):
        pair, params = self._pair()
        d = pair.dists[7]
        expected = params.max_delay * d * (1 + 1 / params.rho)
        assert pair.full_skew_time(7, params.rho) == pytest.approx(expected)

    def test_beta_builds_exactly_target_skew(self):
        pair, params = self._pair()
        t = 2 * pair.full_skew_time(7, params.rho)
        h0 = pair.beta_clocks[0].value(t)
        h7 = pair.beta_clocks[7].value(t)
        assert h7 - h0 == pytest.approx(pair.skew_target(7))

    def test_beta_delays_legal_on_path(self):
        pair, params = self._pair()
        policy = pair.beta_policy
        for t in (0.0, 1.0, 10.0, 50.0, 120.0, 500.0):
            for u, v in path_edges(8):
                for a, b in ((u, v), (v, u)):
                    d = policy.delay(a, b, t)
                    assert -1e-9 <= d <= params.max_delay + 1e-9

    def test_beta_constrained_delays_in_mask_window(self):
        pair, params = self._pair(prefix=3)
        for t in (0.0, 5.0, 40.0, 200.0):
            for e in list(pair.mask.constrained):
                lo, hi = legal_window(pair.mask, *e, params.rho)
                for a, b in (e, (e[1], e[0])):
                    d = pair.beta_policy.delay(a, b, t)
                    assert lo - 1e-9 <= d <= hi + 1e-9

    def test_new_edge_fallback_delay(self):
        pair, params = self._pair()
        # Direction not in the static edge set -> constant fallback.
        d = pair.beta_policy.delay(0, 7, 3.0)
        assert d == pytest.approx(0.5 * params.max_delay)

    def test_bad_fallback_rejected(self):
        pair, params = self._pair()
        with pytest.raises(ValueError):
            BetaDelayPolicy(pair.alpha_policy, pair.beta_clocks, fallback=5.0)

    def test_disconnected_reference_rejected(self):
        params = SystemParams.for_network(4)
        mask = DelayMask({}, params.max_delay)
        with pytest.raises(ValueError, match="unreachable"):
            build_execution_pair([0, 1, 2, 3], [(0, 1)], mask, 0, params)


@settings(max_examples=40)
@given(
    n=st.integers(min_value=4, max_value=12),
    prefix=st.integers(min_value=0, max_value=4),
    rho=st.floats(min_value=0.01, max_value=0.3),
    t=st.floats(min_value=0.0, max_value=400.0),
)
def test_property_beta_delays_always_legal_path(n, prefix, rho, t):
    """Part II of Lemma 4.2, numerically, over random path masks/times."""
    prefix = min(prefix, n - 2)
    params = SystemParams.for_network(n, rho=rho)
    edges = path_edges(n)
    mask = DelayMask(
        {edges[i]: params.max_delay for i in range(prefix)}, params.max_delay
    )
    pair = build_execution_pair(list(range(n)), edges, mask, 0, params)
    for u, v in edges:
        for a, b in ((u, v), (v, u)):
            d = pair.beta_policy.delay(a, b, t)
            assert -1e-9 <= d <= params.max_delay + 1e-9
            if mask.is_constrained(a, b):
                lo, hi = legal_window(mask, a, b, params.rho)
                assert lo - 1e-9 <= d <= hi + 1e-9


@settings(max_examples=25)
@given(
    n=st.integers(min_value=8, max_value=20),
    k=st.integers(min_value=1, max_value=3),
    rho=st.floats(min_value=0.02, max_value=0.2),
    t=st.floats(min_value=0.0, max_value=300.0),
)
def test_property_beta_delays_always_legal_two_chain(n, k, rho, t):
    """Same legality property on the Figure 1 two-chain topology (which
    exercises the same-layer plateau edge)."""
    edges, chains = two_chain_edges(n)
    a = chains["A"]
    if k > (len(a) - 3) // 2:
        k = (len(a) - 3) // 2
    if k < 1:
        return
    params = SystemParams.for_network(n, rho=rho)
    blocked = {}
    for i in range(k):
        blocked[(a[i], a[i + 1])] = params.max_delay
        blocked[(a[-1 - i], a[-2 - i])] = params.max_delay
    mask = DelayMask(blocked, params.max_delay)
    pair = build_execution_pair(list(range(n)), edges, mask, a[k], params)
    for u, v in edges:
        for s, r in ((u, v), (v, u)):
            d = pair.beta_policy.delay(s, r, t)
            assert -1e-9 <= d <= params.max_delay + 1e-9
