#!/usr/bin/env python3
"""The repo's performance benchmark: one command, seven workloads.

Two ways to run it, same measurement underneath:

* ``python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S
  --trace 0|1`` -- one workload, repeated in fresh child processes until
  ``S`` seconds have passed; the last stdout line is one JSON object
  (``correct`` / ``attempted`` / ``failed`` / ``metrics``) holding the
  end-to-end metrics, each the median over the repetitions in calibrated
  host time (``--trace 0``), or the per-layer numbers of one extra traced
  repetition (``--trace 1``).
  Nothing is written to disk.
* ``python3 benchmarks/perf/run.py [--seed 0] [--reps 5] [--workload NAME
  ...]`` -- every workload ``--reps`` times, interleaved round-robin so
  slow host drift hits all alike, then one traced pass and the micro pass;
  prints every metric with its unit and writes ``BENCH_e2e.json`` and
  ``BENCH_layers.json`` (with the host fingerprint) under ``--out``.

Metric names, units and regression bounds come from ``BENCHMARK.json`` at
the repo root.  Exit status: 0 clean, 1 a check failed (``fail_share >
0``) or ``--compare`` found a regression, 2 unusable input.

This file imports neither numpy nor repro: a child's ``ru_maxrss`` starts
from its parent's, so the parent stays small.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
MANIFEST = ROOT / "BENCHMARK.json"
DEFAULT_PINS = HERE / "expected.json"
DEFAULT_OUT = HERE / "results"

#: Workload whose traced record carries the workload-independent micro pass.
MICRO_HOST = "scalar_drift_ring"
#: The driver allows a run 180 s in all; one repetition takes ~4 s.
CHILD_TIMEOUT_S = 60


class BenchError(RuntimeError):
    """A child process failed or produced no record."""


def read_json(path: Path) -> dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------- #
# Child processes
# ---------------------------------------------------------------------- #


def child_env() -> dict[str, str]:
    """The caller's environment with ``src`` importable, every ``REPRO_*``
    switch removed (no ambient setting may pick the kernel) and string
    hashing fixed (dict collisions are then the same in every child)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}{inherited}" if inherited else str(SRC)
    return env


def spawn(script: str, *args: str) -> dict[str, Any]:
    """Run ``script`` in a fresh interpreter; parse its last stdout line."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / script), *args],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{script} {' '.join(args)} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{script} {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def run_rep(workload: str, seed: int, *, trace: bool = False) -> dict[str, Any]:
    return spawn(
        "workloads.py", "--workload", workload, "--seed", str(seed),
        "--trace", str(int(trace)),
    )


def run_for(workload: str, seed: int, seconds: float) -> list[dict[str, Any]]:
    """Repeat ``workload`` until ``seconds`` have passed (at least once)."""
    reps: list[dict[str, Any]] = []
    start = time.monotonic()
    while not reps or time.monotonic() - start < seconds:
        reps.append(run_rep(workload, seed))
    return reps


# ---------------------------------------------------------------------- #
# Aggregation and checks
# ---------------------------------------------------------------------- #


def e2e_values(rep: dict[str, Any], *, calibrated: bool = True) -> dict[str, float]:
    """The end-to-end metrics of one repetition record.

    Times are in *calibrated* host time: divided by the host slowdown the
    child measured beside the repetition (``workloads.HostSpeed``), so a
    slow phase of a shared host moves them far less than it moves raw
    seconds.  A paced workload's wall clock is set by its own timers, not
    by host speed, and stays raw.  ``calibrated=False`` gives raw seconds.
    """
    slow = rep["host_slowdown"] if calibrated else 1.0
    wall_slow = 1.0 if rep["paced"] else slow
    return {
        "events_per_s": rep["events"] / (rep["run_wall_s"] / wall_slow),
        "total_wall_s": rep["total_wall_s"] / wall_slow,
        "cpu_us_per_event": rep["cpu_s"] / slow / rep["events"] * 1e6,
        "setup_s": rep["setup_s"] / slow,
        "peak_rss_mb": rep["peak_rss_mb"],
    }


def spread(values: list[float], better: str) -> dict[str, float]:
    """Median over the repetitions, with quartiles, best and n beside it."""
    median = statistics.median(values)
    q1, _, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    )
    best = max(values) if better == "higher" else min(values)
    return {"median": median, "p25": q1, "p75": q3, "best": best, "n": len(values)}


def load_pins(path: Path) -> dict[str, Any]:
    return read_json(path) if path.exists() else {}


def pin_fingerprint(versions: dict[str, str]) -> dict[str, str]:
    """What a digest may depend on besides the code: float formatting and
    numpy kernels."""
    return {k: versions[k] for k in ("python", "numpy", "machine")}


def summarize(
    manifest: dict[str, Any],
    workload: str,
    seed: int,
    reps: list[dict[str, Any]],
    traced: dict[str, Any] | None,
    pins: dict[str, Any],
) -> dict[str, Any]:
    """Median-of-``reps`` metrics plus the output checks that feed ``fail_share``.

    attempted = oracle checks + the assertions below; failed = oracle
    violations + failed assertions.
    """
    runs = reps + ([traced] if traced is not None else [])
    asserts = [a for run in runs for a in run["asserts"]]
    digests = {run["digest"] for run in runs}
    digest = reps[0]["digest"]
    pin_state = "n/a"
    if digest is not None:
        # Determinism across repetitions and wrapper neutrality of the
        # traced run, in one assertion.
        asserts.append(
            {"name": "digest.identical", "ok": len(digests) == 1,
             "detail": " ".join(sorted(map(str, digests)))}
        )
        pin_state = "unverified"
        if (
            seed == pins.get("seed")
            and pins.get("fingerprint") == pin_fingerprint(reps[0]["versions"])
            and workload in pins.get("digests", {})
        ):
            expected = pins["digests"][workload]
            pin_state = "ok" if digest == expected else "mismatch"
            asserts.append(
                {"name": "digest.pinned", "ok": digest == expected,
                 "detail": f"expected {expected} got {digest}"}
            )
    attempted = sum(run["oracle_checks"] for run in runs) + len(asserts)
    failed = sum(run["oracle_violations"] for run in runs) + sum(
        not a["ok"] for a in asserts
    )
    per_rep = [e2e_values(rep) for rep in reps]
    raw = [e2e_values(rep, calibrated=False) for rep in reps]
    return {
        "end_to_end": {
            m["name"]: {
                **spread([values[m["name"]] for values in per_rep], m["better"]),
                "raw_median": statistics.median(v[m["name"]] for v in raw),
                "unit": m["unit"],
            }
            for m in manifest["end_to_end"]
        },
        "host_slowdown": statistics.median(rep["host_slowdown"] for rep in reps),
        "events": reps[0]["events"],
        "digest": digest,
        "pin": pin_state,
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted,
        "failed_asserts": [a for a in asserts if not a["ok"]],
    }


def layer_values(
    reps: list[dict[str, Any]], traced: dict[str, Any], micro: dict[str, Any]
) -> dict[str, float]:
    """Per-layer numbers of the traced run, with its overhead and (on the
    micro host) the micro pass merged in."""
    untraced = statistics.median(
        rep["run_wall_s"] / rep["host_slowdown"] for rep in reps
    )
    return {
        **traced["layers"],
        "trace.overhead_ratio": traced["run_wall_s"]
        / traced["host_slowdown"]
        / untraced,
        **micro.get("metrics", {}),
    }


# ---------------------------------------------------------------------- #
# Driver mode: one workload, one JSON line
# ---------------------------------------------------------------------- #


def run_single(args: argparse.Namespace, manifest: dict[str, Any]) -> int:
    workload = args.workload[0]
    pins = load_pins(args.pins)
    if not args.trace:
        reps = run_for(workload, args.seed, args.seconds)
        summary = summarize(manifest, workload, args.seed, reps, None, pins)
        metrics = {
            name: {"value": entry["median"], "unit": entry["unit"]}
            for name, entry in summary["end_to_end"].items()
        }
    else:
        reps = run_for(workload, args.seed, args.seconds / 2)
        traced = run_rep(workload, args.seed, trace=True)
        micro = spawn("micro.py") if workload == MICRO_HOST else {}
        summary = summarize(manifest, workload, args.seed, reps, traced, pins)
        layers = layer_values(reps, traced, micro)
        metrics = {
            m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
            for m in manifest["per_layer"]
        }
    for name, metric in metrics.items():
        print(f"{workload:20s} {name:48s} {metric['value']:>16.6g} {metric['unit']}")
    for failure in summary["failed_asserts"]:
        print(f"FAILED {workload} {failure['name']}: {failure['detail']}")
    print(
        json.dumps(
            {
                "correct": summary["failed"] == 0,
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": metrics,
            }
        )
    )
    return 1 if summary["failed"] else 0


# ---------------------------------------------------------------------- #
# Full mode: all workloads, artifacts
# ---------------------------------------------------------------------- #


def host_fingerprint(versions: dict[str, str]) -> dict[str, Any]:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    git = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        capture_output=True, text=True, check=False,
    )
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": versions["python"],
        "numpy": versions["numpy"],
        "machine": versions["machine"],
        "repro_version": versions["repro_version"],
        "git_commit": git.stdout.strip() if git.returncode == 0 else "unknown",
    }


def write_json(path: Path, doc: dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_full(args: argparse.Namespace, manifest: dict[str, Any]) -> int:
    names = args.workload or [w["name"] for w in manifest["workloads"]]
    pins = {} if args.repin else load_pins(args.pins)
    reps: dict[str, list[dict[str, Any]]] = {name: [] for name in names}
    for r in range(args.reps):
        for name in names:
            reps[name].append(run_rep(name, args.seed))
            print(f"rep {r + 1}/{args.reps} {name}", file=sys.stderr)
    traced = {name: run_rep(name, args.seed, trace=True) for name in names}
    micro = spawn("micro.py")

    fingerprint = host_fingerprint(reps[names[0]][0]["versions"])
    why = {w["name"]: w["why"] for w in manifest["workloads"]}
    e2e: dict[str, Any] = {}
    layers: dict[str, Any] = {}
    failed = 0
    for name in names:
        summary = summarize(manifest, name, args.seed, reps[name], traced[name], pins)
        failed += summary["failed"]
        e2e[name] = {"why": why[name], **summary}
        layers[name] = {
            "layers": layer_values(
                reps[name], traced[name], micro if name == MICRO_HOST else {}
            ),
            "batch_gate_reasons": traced[name]["batch_gate_reasons"],
            "span_table": traced[name]["span_table"],
        }
        for metric, entry in summary["end_to_end"].items():
            print(
                f"{name:20s} {metric:18s} {entry['median']:>14.6g} {entry['unit']:9s}"
                f" p25 {entry['p25']:.6g} p75 {entry['p75']:.6g}"
                f" best {entry['best']:.6g} raw {entry['raw_median']:.6g}"
                f" n={entry['n']}"
            )
        print(
            f"{name:20s} {'fail_share':18s} {summary['fail_share']:>14.6g} ratio    "
            f" {summary['failed']}/{summary['attempted']} pin {summary['pin']}"
        )
        for failure in summary["failed_asserts"]:
            print(f"FAILED {name} {failure['name']}: {failure['detail']}")
    units = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    for name in names:
        for metric, value in sorted(layers[name]["layers"].items()):
            print(f"{name:20s} {metric:48s} {value:>16.6g} {units.get(metric, '')}")

    header = {"fingerprint": fingerprint, "seed": args.seed, "reps": args.reps}
    write_json(args.out / "BENCH_e2e.json", {**header, "workloads": e2e})
    write_json(
        args.out / "BENCH_layers.json",
        {**header, "workloads": layers, "micro": micro},
    )
    if args.repin:
        write_json(
            args.pins,
            {
                "fingerprint": pin_fingerprint(reps[names[0]][0]["versions"]),
                "seed": args.seed,
                "digests": {
                    name: e2e[name]["digest"]
                    for name in names
                    if e2e[name]["digest"] is not None
                },
            },
        )
    return 1 if failed else 0


# ---------------------------------------------------------------------- #
# Comparing two BENCH_e2e.json artifacts
# ---------------------------------------------------------------------- #


#: Below this set-up time a relative bound measures scheduler noise:
#: ``setup_s`` then may move by ``SETUP_FLOOR_S`` absolute instead.
SMALL_SETUP_S = 0.25
SETUP_FLOOR_S = 0.05


def worse_by(better: str, old: float, new: float) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    return (old - new) / old if better == "higher" else (new - old) / old


def regressed(metric: dict[str, Any], old: float, new: float) -> bool:
    """Whether ``new`` is worse than ``old`` by more than the metric's bound."""
    if metric["name"] == "setup_s" and old < SMALL_SETUP_S:
        return new - old > SETUP_FLOOR_S
    return worse_by(metric["better"], old, new) > metric["bound"]


def compare(old_path: Path, new_path: Path, manifest: dict[str, Any]) -> int:
    """Refuse different hosts (exit 2); else flag metrics past their bound."""
    old, new = read_json(old_path), read_json(new_path)
    host_keys = ("nproc", "cpu_model", "python", "numpy", "machine")
    differing = [
        k for k in host_keys if old["fingerprint"].get(k) != new["fingerprint"].get(k)
    ]
    if differing:
        print(
            "refusing to compare artifacts from different hosts: "
            + ", ".join(
                f"{k}: {old['fingerprint'].get(k)!r} vs {new['fingerprint'].get(k)!r}"
                for k in differing
            ),
            file=sys.stderr,
        )
        return 2
    regressions = 0
    for name in sorted(set(old["workloads"]) & set(new["workloads"])):
        for m in manifest["end_to_end"]:
            a = old["workloads"][name]["end_to_end"][m["name"]]["median"]
            b = new["workloads"][name]["end_to_end"][m["name"]]["median"]
            worse = worse_by(m["better"], a, b)
            flag = "REGRESSION" if regressed(m, a, b) else ""
            regressions += bool(flag)
            print(
                f"{name:20s} {m['name']:18s} {a:>14.6g} -> {b:>14.6g} "
                f"{-worse:+8.2%} (bound {m['bound']:.0%}) {flag}"
            )
    return 1 if regressions else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append", help="repeatable; default all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="driver mode: measure this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=5, help="full mode; odd")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--pins", type=Path, default=DEFAULT_PINS)
    parser.add_argument("--repin", action="store_true", help="rewrite --pins")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)

    if not MANIFEST.is_file():
        print(f"missing {MANIFEST}", file=sys.stderr)
        return 2
    manifest = read_json(MANIFEST)
    if args.compare:
        return compare(*args.compare, manifest)
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    known = {w["name"] for w in manifest["workloads"]}
    unknown = [name for name in args.workload or [] if name not in known]
    if unknown:
        print(f"unknown workload(s) {unknown}; choose from {sorted(known)}", file=sys.stderr)
        return 2
    try:
        if args.seconds is not None:
            if len(args.workload or []) != 1:
                print("--seconds needs exactly one --workload", file=sys.stderr)
                return 2
            return run_single(args, manifest)
        return run_full(args, manifest)
    except BenchError as exc:
        print(f"benchmark child failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
