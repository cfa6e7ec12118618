"""Tests for seeded random-stream management."""

from __future__ import annotations

import numpy as np

from repro.sim.rng import RngFactory


class TestRngFactory:
    def test_same_seed_same_streams(self):
        a = RngFactory(42)
        b = RngFactory(42)
        ra = a.spawn("x").random(8)
        rb = b.spawn("x").random(8)
        assert np.array_equal(ra, rb)

    def test_spawn_order_determines_streams(self):
        a = RngFactory(42)
        b = RngFactory(42)
        a1 = a.spawn("first").random(4)
        a2 = a.spawn("second").random(4)
        b1 = b.spawn("renamed").random(4)  # name is cosmetic
        b2 = b.spawn("other").random(4)
        assert np.array_equal(a1, b1)
        assert np.array_equal(a2, b2)

    def test_streams_are_independent(self):
        f = RngFactory(7)
        s1 = f.spawn().random(64)
        s2 = f.spawn().random(64)
        assert not np.array_equal(s1, s2)

    def test_different_seeds_differ(self):
        assert not np.array_equal(
            RngFactory(1).spawn().random(8), RngFactory(2).spawn().random(8)
        )

    def test_none_seed_allowed(self):
        f = RngFactory(None)
        assert f.spawn().random() >= 0.0
