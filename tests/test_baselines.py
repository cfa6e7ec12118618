"""Tests for the baseline algorithms (max-sync, static gradient, free)."""

from __future__ import annotations

import pytest
from fakes import FakeTransport

from repro import SystemParams
from repro.core import ClockSyncNode, FreeRunningCore, MaxSyncCore, StaticGradientCore
from repro.harness import configs, run_experiment
from repro.analysis import envelope_violations, max_global_skew
from repro.sim.clocks import ConstantRateClock
from repro.sim.simulator import Simulator


def make_node(core_cls, rate=1.0, transport=None):
    sim, params = Simulator(), SystemParams.for_network(4)
    tr = transport or FakeTransport()
    return ClockSyncNode(0, sim, ConstantRateClock(rate), tr, params, core=core_cls(0, params))


class TestMaxSyncUnit:
    def test_jumps_to_received_max(self):
        node = make_node(MaxSyncCore)
        node.on_message(1, (5.0, 30.0))
        assert node.logical_clock() == pytest.approx(30.0)

    def test_no_gradient_constraint(self):
        """Max-sync happily jumps arbitrarily far past a neighbour."""
        node = make_node(MaxSyncCore)
        node.on_message(1, (0.0, 1000.0))  # neighbour at 0, max huge
        assert node.logical_clock() == pytest.approx(1000.0)

    def test_tick_broadcasts(self):
        tr = FakeTransport()
        node = make_node(MaxSyncCore, transport=tr)
        node.on_discover_add(1)
        node.on_discover_add(2)
        assert node.core.upsilon == {1, 2}
        tr.sent.clear()
        node.start()
        node.sim.run_until(0.0)
        assert sorted(v for _u, v, _p in tr.sent) == [1, 2]


class TestStaticGradientUnit:
    def test_constant_tolerance(self):
        node = make_node(StaticGradientCore)
        node.on_message(1, (0.0, 100.0))
        # Jump capped at estimate + B0 immediately (no new-edge grace).
        assert node.logical_clock() == pytest.approx(node.params.b0)


class TestFreeRunningUnit:
    def test_logical_equals_hardware(self):
        node = make_node(FreeRunningCore, rate=1.03)
        node.start()
        node.sim.run_until(10.0)
        assert node.logical_clock() == pytest.approx(10.3)

    def test_ignores_everything(self):
        node = make_node(FreeRunningCore)
        node.on_message(1, (0.0, 99.0))
        node.on_discover_add(1)
        node.on_discover_remove(1)
        assert node.logical_clock() == pytest.approx(0.0)


class TestBaselineBehaviour:
    """Comparative behaviour on identical workloads (the paper's story)."""

    def test_free_running_drifts_linearly(self):
        cfg = configs.static_path(6, horizon=100.0, algorithm="free",
                                  clock_spec="split")
        res = run_experiment(cfg)
        # Split clocks diverge at exactly 2 rho t.
        expected = 2 * res.params.rho * 100.0
        assert res.max_global_skew == pytest.approx(expected, rel=0.05)

    def test_max_sync_bounds_global_skew(self):
        cfg = configs.static_path(10, horizon=150.0, algorithm="max",
                                  clock_spec="split")
        res = run_experiment(cfg)
        assert res.max_global_skew <= res.params.global_skew_bound

    def test_static_gradient_ok_on_static_network(self):
        """On a static network the [13] baseline honours the envelope."""
        cfg = configs.static_path(10, horizon=150.0, algorithm="static",
                                  clock_spec="split")
        res = run_experiment(cfg)
        chk = envelope_violations(res.record, res.params)
        assert chk.compliant

    def test_static_gradient_violates_contract_on_new_edge(self):
        """Under the adversarial beta execution, a long-range insertion
        carries skew ~ T * dist >> B0 + 2 rho W: the constant-B0 baseline's
        per-edge contract is violated instantly, while the DCSA's dynamic
        envelope (B(age) large for young edges) excuses exactly this case."""
        from repro.core import skew_bounds as sb
        from repro.lowerbound.executions import build_execution_pair
        from repro.lowerbound.mask import DelayMask
        from repro.lowerbound import masked_experiment
        from repro.network.topology import path_edges
        from repro.sim.events import PRIORITY_SAMPLE, PRIORITY_TOPOLOGY

        n = 24
        params = SystemParams.for_network(n, rho=0.05)
        edges = path_edges(n)
        mask = DelayMask({}, params.max_delay)
        pair = build_execution_pair(list(range(n)), edges, mask, 0, params)
        t_insert = 1.05 * pair.full_skew_time(n - 1, params.rho)
        readings = {}
        probe_t = t_insert + 1.0
        for algo in ("static", "dcsa"):
            run = masked_experiment(edges, mask, params, algo, probe_t)
            run.sim.schedule_at(
                t_insert,
                lambda run=run: run.graph.add_edge(0, n - 1, run.sim.now),
                priority=PRIORITY_TOPOLOGY,
            )

            def probe(run=run, algo=algo):
                readings[algo] = abs(
                    run.nodes[0].logical_clock(probe_t)
                    - run.nodes[n - 1].logical_clock(probe_t)
                )

            run.sim.schedule_at(probe_t, probe, priority=PRIORITY_SAMPLE)
            run.run()
        stable = sb.stable_local_skew(params)
        # Both algorithms carry the adversarial skew on the new edge...
        assert readings["static"] > stable
        # ...but only the DCSA has a contract covering it: its envelope at
        # age ~1 is far above the skew, while constant-B0 claims <= ~B0.
        assert readings["dcsa"] <= sb.dynamic_local_skew(params, 1.0)
        assert readings["static"] > params.b0 + 2 * params.rho * params.tau

    def test_dcsa_vs_max_local_skew_after_insertion(self):
        """Same dynamic workload: DCSA keeps the envelope, max-sync has no
        per-edge guarantee but both bound global skew."""
        n = 20
        for algo in ("dcsa", "max"):
            cfg = configs.edge_insertion(n, t_insert=80.0, algorithm=algo,
                                         horizon=160.0)
            res = run_experiment(cfg)
            assert res.max_global_skew <= res.params.global_skew_bound
            if algo == "dcsa":
                chk = envelope_violations(res.record, res.params)
                assert chk.compliant
