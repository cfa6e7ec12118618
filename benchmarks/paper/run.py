#!/usr/bin/env python3
"""The paper's results, measured: one table of experiments, one exact artifact.

``EXPERIMENTS`` holds one generator per result of the paper (Lemma 4.2,
Theorem 4.1 / Figure 1, Theorem 6.9, Lemma 6.8, Theorem 6.12 / Corollary
6.13, Corollary 6.14) and per comparison; each yields :class:`Entry` lines
-- a ``build`` that runs one simulation (or one matched group) and the
:class:`Check` s ``(claim, measure, bound)`` read off its result -- and every
check becomes one artifact row ``{claim, experiment, workload, n, seed,
bound, measured, ratio, held}``.  ``ratio = measured / bound`` is the
first-class quantity: how close each claim came.

Nothing is cached: the simulator is deterministic, so a cache could only
hide a change.  For the same reason ``--check`` compares the regenerated
rows with ``results/PAPER_results.json`` *exactly* (the ``sim_digest``
contract of ``benchmarks/perf``) and reports the first row that differs;
``--write`` rewrites the artifact and ``docs/reproduction.md`` from it.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from dataclasses import dataclass, replace
from functools import partial
from itertools import zip_longest
from pathlib import Path
from typing import Any, Callable, Iterator

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:  # runnable without PYTHONPATH
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np

import repro
from repro import SystemParams
from repro.core import skew_bounds as sb
from repro.harness import ExperimentConfig, OracleRef, configs, run_experiment
from repro.lowerbound import (
    DelayMask,
    build_execution_pair,
    masked_experiment,
    run_figure1_experiment,
    run_masking_experiment,
    settle_age,
)
from repro.network.topology import path_edges
from repro.sim.events import PRIORITY_SAMPLE, PRIORITY_TOPOLOGY
from repro.sweep import summarize_run

ARTIFACT = Path(__file__).resolve().parent / "results" / "PAPER_results.json"
DOC = ROOT / "docs" / "reproduction.md"
Result = dict[str, Any]

#: ``sense -> held(measured, bound, tol)``.
SENSES: dict[str, Callable[[float, float, float], bool]] = {
    "<=": lambda m, b, tol: m <= b + tol,
    ">=": lambda m, b, tol: m >= b - tol,
    "<": lambda m, b, tol: m < b,
    ">": lambda m, b, tol: m > b,
}


@dataclass(frozen=True)
class Check:
    """One claim read off a build's result: ``measure SENSE bound``."""

    claim: str
    measure: Callable[[Result], float | None]
    bound: Callable[[Result], float]
    sense: str = "<="
    tol: float = 1e-9


@dataclass(frozen=True)
class Entry:
    """One line of an experiment's table.  ``build`` is a config to
    :func:`simulate`, or a callable returning a result with at least ``n``."""

    workload: str
    build: ExperimentConfig | Callable[[], Result]
    checks: tuple[Check, ...]


def key(name: str) -> Callable[[Result], Any]:
    return lambda r: r[name]


def simulate(cfg: ExperimentConfig) -> Result:
    """Run ``cfg`` under the standard oracle: the sweep engine's metrics plus
    the estimate lag (the oracle's peak), ``n``, ``seed`` and ``params``."""
    res = run_experiment(replace(cfg, oracle=OracleRef("standard", {})))
    out = summarize_run(res)
    lag = res.oracle_report.monitors["estimate_lag"].worst_observed
    out.update(lag=lag, n=cfg.params.n, seed=cfg.seed, params=cfg.params)
    return out


def g_of_n(r: Result) -> float:
    return sb.global_skew_bound(r["params"])


GLOBAL = Check("Thm 6.9: global skew <= G(n)", key("max_global_skew"), g_of_n)
LAG = Check("Lemma 6.8: Lmax estimate lag <= G(n)", key("lag"), g_of_n)
STABLE = Check(
    "Thm 6.12: stable-edge skew <= s_bar(n)",
    key("stable_local_skew"), lambda r: sb.stable_local_skew(r["params"]),
)
ENVELOPE = Check(
    "Cor 6.13: worst edge skew / s(n, I, age) <= 1",
    key("envelope_worst_ratio"), lambda r: 1.0,
)
PEAK = Check(
    "Cor 6.13: peak edge skew <= s(n, I, 0), the envelope of a new edge",
    key("max_local_skew"), lambda r: sb.dynamic_local_skew(r["params"], 0.0),
)
CERTIFIED = Check(
    "Def 3.1: share of (T+D)-windows certified connected >= 1",
    lambda r: 1.0 - r["tic_violations"] / r["tic_windows"], lambda r: 1.0, ">=",
)
SETTLE = Check(
    "Cor 6.14: new-edge settle age <= stabilisation time",
    key("settle"), lambda r: sb.stabilization_time(r["params"]), tol=1e-6,
)


def reveal(
    params: SystemParams, algorithm: str, tail: float, step: float, old_edges: bool
) -> list[tuple[float, float]]:
    """The worst case the paper is about: the Lemma 4.2 beta execution builds
    ``T (n - 1)`` of hidden skew along a path, then the shortcut ``{0, n - 1}``
    appears.  Returns ``(age, max |L_u - L_v|)`` over the old path edges, or
    over the shortcut alone, from age 0.5 every ``step`` for ``tail``."""
    n = params.n
    edges = path_edges(n)
    mask = DelayMask({}, params.max_delay)
    pair = build_execution_pair(list(range(n)), edges, mask, 0, params)
    t_insert = 1.05 * pair.full_skew_time(n - 1, params.rho)
    horizon = t_insert + tail
    exp = masked_experiment(edges, mask, params, algorithm, horizon)
    sim = exp.sim
    shortcut = lambda: exp.graph.add_edge(0, n - 1, sim.now)
    sim.schedule_at(t_insert, shortcut, priority=PRIORITY_TOPOLOGY)
    watched = edges if old_edges else [(0, n - 1)]
    series: list[tuple[float, float]] = []

    def sample() -> None:
        t = sim.now
        skews = (
            abs(exp.nodes[u].logical_clock(t) - exp.nodes[v].logical_clock(t))
            for u, v in watched
        )
        series.append((t - t_insert, max(skews)))
        if t + step <= horizon:
            sim.schedule_at(t + step, sample, priority=PRIORITY_SAMPLE)

    sim.schedule_at(t_insert + 0.5, sample, priority=PRIORITY_SAMPLE)
    exp.run()
    return series


# The experiment table.


def masking() -> Iterator[Entry]:
    """Lemma 4.2, the Masking Lemma, executable."""
    params = SystemParams.for_network(12, rho=0.05)
    floor = Check(
        "Lemma 4.2: max(skew_alpha, skew_beta) >= T dist_M / 4",
        key("skew"), key("floor"), ">=",
    )
    blind = Check(
        "Lemma 4.2: indistinguishability, worst L_beta(t) - L_alpha(H_beta(t)) < 1e-9",
        key("indistinguishability_error"), lambda r: 1e-9, "<",
    )

    def build(**kwargs: Any) -> Result:
        res = run_masking_experiment(params, **kwargs)
        return {**vars(res), "skew": res.skew}

    for prefix in (0, 3, 6):
        yield Entry(
            f"chain, first {prefix} edges pinned at T (dist_M = {11 - prefix})",
            partial(build, constrained_prefix=prefix), (floor, blind),
        )
    yield Entry(
        "chain, no edge pinned, max-sync instead of DCSA",
        partial(build, algorithm="max", check_indistinguishability=False), (floor,),
    )


def fig1() -> Iterator[Entry]:
    """Theorem 4.1 / Figure 1, the two-chain lower-bound construction."""
    def build(params: SystemParams, **kwargs: Any) -> Result:
        res = run_figure1_experiment(params, k=1, sample_interval=1.0, **kwargs)
        initial = [e.initial_skew for e in res.new_edges]
        return {
            **vars(res), "params": params, "settle": res.max_reduction_time,
            "init_min": min(initial, default=None),
            "init_max": max(initial, default=None),
        }

    scale = Check(
        "Thm 4.1 vs Cor 6.14: DCSA stabilisation guarantee >= lambda n / s_bar(n)",
        key("theory_reduction_ceiling"), key("theory_reduction_floor"), ">=",
    )
    panels = (
        Check("Fig 1(a) / Thm 6.9: skew(u,v) at T2 <= G(n)", key("skew_uv_t2"), g_of_n),
        Check(
            "Fig 1(b) / Lemma 4.3: min new-edge initial skew >= I - S", key("init_min"),
            lambda r: r["requested_initial_skew"] - r["gap_slack"], ">=", 1e-6,
        ),
        Check(
            "Fig 1(b) / Lemma 4.3: max new-edge initial skew <= I",
            key("init_max"), key("requested_initial_skew"), tol=1e-6,
        ),
        SETTLE, scale,
    )
    for n in (12, 16, 24, 32):
        yield Entry(
            "two chains, rho=0.05, k=1, adaptive I",
            partial(build, SystemParams.for_network(n, rho=0.05)), panels,
        )
    # Low drift and a forced I = 0.8 T (n/2 - 2) > s_bar(n): the injected edge
    # has skew to work off, so the settle age is a real measurement.
    for n in (48, 64):
        params = SystemParams.for_network(
            n, rho=0.02, discovery_bound=1.2, tick_interval=0.4
        )
        yield Entry(
            "two chains, rho=0.02, k=1, I = 0.8 T (n/2 - 2)",
            partial(
                build, params,
                initial_skew=0.8 * params.max_delay * (n // 2 - 2),
                measure_horizon=1.5 * sb.stabilization_time(params),
            ),
            (SETTLE, scale),
        )


def global_skew() -> Iterator[Entry]:
    """Theorem 6.9, the global skew bound G(n)."""
    for n in (8, 16, 32, 48):
        for seed in (0, 1, 2):
            yield Entry(
                "static path, split clocks, max delays",
                configs.static_path(n, horizon=200.0, seed=seed, delay_spec="max"), (GLOBAL,),
            )
    yield Entry(
        "rotating backbone (no stable edge), window 30",
        configs.rotating_backbone(16, horizon=250.0, window=30.0, seed=5), (GLOBAL,),
    )

    def shifted(params: SystemParams) -> Result:
        res = run_masking_experiment(params, check_indistinguishability=False)
        return {"n": params.n, "params": params, "skew": res.skew}

    beta = Check("Thm 6.9: beta-execution skew <= G(n)", key("skew"), g_of_n)
    for n in (8, 16, 32):
        yield Entry(
            "Section 4 shifting adversary (masked chain, beta)",
            partial(shifted, SystemParams.for_network(n, rho=0.05)), (beta,),
        )


def max_propagation() -> Iterator[Entry]:
    """Lemma 6.8, max-estimate propagation."""
    regimes: dict[str, list[ExperimentConfig]] = {
        "static path, split clocks, max delays": [
            configs.static_path(n, horizon=150.0, seed=1, delay_spec="max")
            for n in (8, 16, 32)
        ],
        "backbone churn": [
            configs.backbone_churn(n, horizon=150.0, seed=2) for n in (8, 16)
        ],
        "rotating backbone, window 25": [
            configs.rotating_backbone(n, horizon=220.0, window=25.0, seed=3)
            for n in (8, 16)
        ],
    }
    for workload, cfgs in regimes.items():
        for cfg in cfgs:
            yield Entry(workload, cfg, (LAG,))


def local_skew() -> Iterator[Entry]:
    """Theorem 6.12 / Corollary 6.13, stable local skew and the dynamic envelope."""
    workloads = {
        "static path, split clocks": configs.static_path(16, horizon=250.0, seed=7),
        "backbone churn": configs.backbone_churn(16, horizon=250.0, seed=7),
        "edge insertion at t=80": configs.edge_insertion(
            16, t_insert=80.0, horizon=250.0, seed=7
        ),
        "flapping edges": configs.flapping_edges(16, horizon=250.0, seed=7),
    }
    for workload, cfg in workloads.items():
        yield Entry(workload, cfg, (STABLE, ENVELOPE))
    # The gradient property: s_bar(n) stays ~B0 while G(n) grows with n.
    for n in (8, 16, 32):
        yield Entry(
            "static path, split clocks", configs.static_path(n, horizon=250.0, seed=3), (STABLE,)
        )


def tradeoff() -> Iterator[Entry]:
    """Corollary 6.14, the B0 trade-off."""
    n = 24
    base = SystemParams.for_network(n, rho=0.05)
    floor = 2.0 * (1.0 + base.rho) * base.tau

    def build(params: SystemParams) -> Result:
        out = simulate(
            ExperimentConfig(
                params=params, initial_edges=path_edges(n), clock_spec="split",
                horizon=250.0, seed=2,
            )
        )
        series = reveal(params, "dcsa", 1.5 * sb.stabilization_time(params), 1.0, False)
        out["settle"] = settle_age(series, 0.0, sb.stable_local_skew(params))
        return out

    for factor in (1.05, 2.0, 4.0, 8.0):
        yield Entry(
            f"B0 = {factor:g} x validity floor: split path; beta-revealed shortcut",
            partial(build, base.with_b0(factor * floor)), (STABLE, SETTLE),
        )


def baselines() -> Iterator[Entry]:
    """What the gradient property buys: DCSA vs max-sync, [13], free-running."""
    horizon = 200.0
    drift = Check(
        "Sec 3.3: free-running skew <= 2 rho t",
        key("max_global_skew"), lambda r: 2.0 * r["params"].rho * horizon,
    )
    for algorithm in ("dcsa", "max", "static", "free"):
        yield Entry(
            f"mobile ad-hoc network, {algorithm}",
            configs.mobile_network(16, horizon=horizon, seed=3, algorithm=algorithm),
            (drift,) if algorithm == "free" else (GLOBAL, PEAK, ENVELOPE),
        )

    def revealed() -> Result:
        params = SystemParams.for_network(24, rho=0.05)
        out: Result = {"n": 24, "s_bar": sb.stable_local_skew(params)}
        for algorithm in ("dcsa", "max", "static"):
            series = reveal(params, algorithm, 40.0, 0.5, True)
            out[algorithm] = max(skew for _age, skew in series)
        return out

    yield Entry(
        "beta-revealed shortcut {0, 23}: peak skew on the old path edges",
        revealed,
        (
            Check("Thm 6.12: DCSA old-edge peak <= s_bar", key("dcsa"), key("s_bar")),
            Check(
                "gradient property: max-sync old-edge peak > 1.5 x DCSA's",
                key("max"), lambda r: 1.5 * r["dcsa"], ">",
            ),
            Check(
                "constant-B [13] baseline old-edge peak <= s_bar(n)",
                key("static"), key("s_bar"),
            ),
        ),
    )


def adversary() -> Iterator[Entry]:
    """Adaptive adversaries vs random churn, all within the model."""
    horizon = 200.0
    beats = Check(
        "greedy topology adversary: peak local skew > RandomRewirer's at equal seed",
        key("max_local_skew"), key("random_local_skew"), ">",
    )

    def matched(n: int, seed: int) -> Result:
        out = simulate(configs.greedy_topology(n, horizon=horizon, seed=seed))
        random = simulate(configs.backbone_churn(n, horizon=horizon, seed=seed))
        out["random_local_skew"] = random["max_local_skew"]
        return out

    for n in (12, 16):
        for seed in range(4):
            yield Entry(
                "greedy expose-and-retract vs RandomRewirer",
                partial(matched, n, seed), (beats, CERTIFIED),
            )
    yield Entry(
        "no adversary (static path, split clocks)",
        configs.static_path(16, horizon=horizon, seed=0), (GLOBAL, PEAK),
    )
    ladder = {
        "drift adversary": configs.adversarial_drift,
        "delay adversary": configs.adversarial_delay,
        "greedy topology adversary": configs.greedy_topology,
        "combined adversary": configs.combined_adversary,
    }
    for workload, make in ladder.items():
        cfg = make(16, horizon=horizon, seed=0)
        yield Entry(workload, cfg, (GLOBAL, PEAK, CERTIFIED))
    for strength in (0.0, 0.25, 0.5, 0.75):  # 1.0 is the ladder's row
        yield Entry(
            f"drift adversary, strength {strength:g}",
            configs.adversarial_drift(16, strength=strength, horizon=horizon, seed=0),
            (GLOBAL, PEAK),
        )


def ablations() -> Iterator[Entry]:
    """Ablations: tick interval, delay regime, tick staggering."""
    checks = (GLOBAL, PEAK, ENVELOPE)
    for tick in (0.25, 0.5, 1.0):
        yield Entry(
            f"backbone churn, split clocks, tick interval {tick:g}",
            configs.backbone_churn(16, horizon=150.0, seed=6, tick_interval=tick),
            checks,
        )
    for delay in ("zero", "half", "uniform", "max"):
        yield Entry(
            f"static path, split clocks, {delay} delays",
            configs.static_path(16, horizon=150.0, seed=6, delay_spec=delay), checks,
        )
    yield Entry(
        "static path, split clocks, uniform delays, unstaggered first ticks",
        configs.static_path(16, horizon=150.0, seed=6, stagger_ticks=False), checks,
    )


#: ``experiment -> its entries`` (the docstring says what it reproduces).
EXPERIMENTS: dict[str, Callable[[], Iterator[Entry]]] = {
    f.__name__: f
    for f in (masking, fig1, global_skew, max_propagation, local_skew, tradeoff,
              baselines, adversary, ablations)
}


def run_rows() -> list[dict[str, Any]]:
    """Build every entry of ``EXPERIMENTS`` and evaluate its checks."""
    rows: list[dict[str, Any]] = []
    for experiment, entries in EXPERIMENTS.items():
        for entry in entries():
            build = entry.build
            result = simulate(build) if isinstance(build, ExperimentConfig) else build()
            for check in entry.checks:
                measured, bound = check.measure(result), float(check.bound(result))
                if measured is not None:
                    measured = float(measured)
                rows.append(
                    {
                        "claim": check.claim,
                        "experiment": experiment,
                        "workload": entry.workload,
                        "n": int(result["n"]),
                        "seed": result.get("seed"),
                        "bound": bound,
                        "measured": measured,
                        "ratio": None if measured is None else measured / bound,
                        "held": measured is not None
                        and SENSES[check.sense](measured, bound, check.tol),
                    }
                )
    return rows


def host_fingerprint() -> dict[str, Any]:
    """What an exact float may depend on besides the code."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repro_version": repro.__version__,
    }


def fmt(x: Any) -> str:
    if isinstance(x, bool):
        return "yes" if x else "NO"
    if isinstance(x, float):
        return f"{x:.4g}"
    return "-" if x is None else str(x)


DOC_HEAD = """\
# Reproduction: the paper's claims, measured

<!-- Generated by `python benchmarks/paper/run.py --write`; do not edit: a
     tier-1 test compares this file with the generator's output. -->

Every number below is a row of `benchmarks/paper/results/PAPER_results.json`,
regenerated uncached and compared **exactly** by
`python benchmarks/paper/run.py --check` in CI: the simulator is
deterministic, so a float that moves is a behaviour change.  `ratio` is
`measured / bound` -- how close the claim came (cf. arXiv:2511.01420 on the
gap between worst-case bounds and measured skew).  Each claim states its
own direction (`<=`, `>=`, `>`, `<`); `held` applies it.
"""

DOC_TAIL = """\
## Scale note

The constants of Theorem 4.1's proof (`k = (T/128) n / s_bar`,
`I > 32 G s_bar / (T n)`) only bite at `n` far beyond what a simulation
reaches, so `repro.lowerbound.run_figure1_experiment` takes `k` and `I` as
parameters (`k = 1`; `I` adaptive -- the largest multiple of `s_bar` the
built-up B-chain skew supports -- or forced, as in the `rho=0.02` rows).
What is reproduced is the construction's *structure*: block edges with
pinned delays, skew linear in flexible distance, new-edge initial skews in
`[I - S, I]`, a settle age below the `Theta(n / B0)` guarantee.  At `n <= 32`
the adaptive `I` sits below `s_bar` and the settle age is 0; the lower bound
constrains the guarantee *function*, not each instance.

The masked executions are configs like every other row's: the one
`repro.lowerbound.masked_experiment` runs names the `masked` entries of the
`CLOCK` and `DELAY` tables, so it serialises, hashes and sweeps as data.

## Implementation interpretation

Algorithm 2 leaves two refresh rules implicit; `repro.core.protocol.DCSACore`
fixes them the way the proofs need.  `L^v_u` and `Lmax_u` are refreshed on
*every* message receipt (Lemma 6.5).  `C^v_u` is (re)set only when `v`
(re-)enters `Gamma_u`, never on a refresh (Lemma 6.10: the tolerance `B`
follows how long the edge has been *continuously* tracked).  The [13]
baseline (`StaticGradientCore`) is the same step with `B(age) = B0`.
"""


def render_doc(artifact: dict[str, Any]) -> str:
    """``docs/reproduction.md`` as a pure function of the artifact."""
    host = artifact["host"]
    groups: dict[str, list[dict[str, Any]]] = {}
    for row in artifact["rows"]:
        groups.setdefault(row["experiment"], []).append(row)
    out = [
        DOC_HEAD,
        f"Taken with repro {host['repro_version']}, python {host['python']}, "
        f"numpy {host['numpy']} on {host['platform']}.\n",
        "| experiment | reproduces | rows | held | largest ratio of a `<=` claim |",
        "|---|---|---|---|---|",
    ]
    for name, group in groups.items():
        upper = [r["ratio"] for r in group if "<=" in r["claim"] and r["held"]]
        out.append(
            f"| [`{name}`](#{name}) | {EXPERIMENTS[name].__doc__} | {len(group)} | "
            f"{sum(r['held'] for r in group)} | {fmt(max(upper, default=None))} |"
        )
    columns = ("workload", "n", "seed", "claim", "measured", "bound", "ratio", "held")
    for name, group in groups.items():
        out += [f"\n## {name}\n\n{EXPERIMENTS[name].__doc__}\n"]
        out += ["| " + " | ".join(columns) + " |", "|---" * len(columns) + "|"]
        out += ["| " + " | ".join(fmt(r[c]) for c in columns) + " |" for r in group]
    return "\n".join(out + ["", DOC_TAIL])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="rows == artifact, exactly")
    mode.add_argument("--write", action="store_true", help="rewrite artifact and doc")
    args = parser.parse_args(argv)
    rows = run_rows()
    if args.check:
        with open(ARTIFACT, encoding="utf-8") as fh:
            artifact = json.load(fh)
        # Compare what was run: every experiment, unless a test narrowed the table.
        expected = [r for r in artifact["rows"] if r["experiment"] in EXPERIMENTS]
        for i, (old, new) in enumerate(zip_longest(expected, rows)):
            if old != new:
                print(f"row {i} differs", file=sys.stderr)
                print(f"  artifact:    {json.dumps(old)}", file=sys.stderr)
                print(f"  regenerated: {json.dumps(new)}", file=sys.stderr)
                print(f"artifact host: {artifact['host']}", file=sys.stderr)
                print(f"this host:     {host_fingerprint()}", file=sys.stderr)
                return 1
        print(f"{len(rows)} rows equal {ARTIFACT.relative_to(ROOT)}")
    else:
        artifact = {"host": host_fingerprint(), "rows": rows}
        host = json.dumps(artifact["host"])
        lines = ",\n  ".join(json.dumps(row) for row in rows)  # one row a line
        ARTIFACT.write_text(
            f'{{"host": {host},\n "rows": [\n  {lines}\n ]}}\n', encoding="utf-8"
        )
        DOC.write_text(render_doc(artifact), encoding="utf-8")
        print(f"wrote {len(rows)} rows to {ARTIFACT} and {DOC}")
    broken = [row for row in rows if not row["held"]]
    for row in broken:
        print(f"NOT HELD: {json.dumps(row)}", file=sys.stderr)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
