#!/usr/bin/env python3
"""A/A check: the benchmark must agree with itself before it judges a PR.

Runs the default ``run.py`` invocation twice on the same commit (into
``results/repeat-a`` and ``results/repeat-b``) and fails unless

* every end-to-end metric on every workload agrees within that metric's
  regression bound, and
* every count-type layer metric (``*.calls``, ``sim.simulator.dispatched.*``,
  ``sim.queue.pushes``, ``oracle.checks``) and every ``sim_digest`` is
  *identical* -- simulated statistics repeat exactly or the program is not
  deterministic.  The wall-clock-paced live workload has no digest and is
  exempt from the count rule.

If this fails at the default ``--reps``, raise the reps (odd) or lengthen
the workloads; do not widen a bound.
"""

from __future__ import annotations

import argparse
import subprocess
import sys

from run import DEFAULT_OUT, HERE, MANIFEST, read_json, regressed, worse_by


def is_count(name: str) -> bool:
    return (
        name.endswith(".calls")
        or name.startswith("sim.simulator.dispatched.")
        or name in ("sim.queue.pushes", "oracle.checks")
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=None)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)

    passthrough = ["--seed", str(args.seed)]
    if args.reps is not None:
        passthrough += ["--reps", str(args.reps)]
    for name in args.workload or []:
        passthrough += ["--workload", name]
    outs = [DEFAULT_OUT / "repeat-a", DEFAULT_OUT / "repeat-b"]
    for out in outs:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--out", str(out), *passthrough],
            stdout=subprocess.DEVNULL,
            check=False,
        )
        if proc.returncode != 0:
            print(f"run.py exited {proc.returncode} writing {out}", file=sys.stderr)
            return 1

    manifest = read_json(MANIFEST)
    e2e_a, e2e_b = (read_json(out / "BENCH_e2e.json") for out in outs)
    layers_a, layers_b = (read_json(out / "BENCH_layers.json") for out in outs)
    failures = 0
    for name, a in e2e_a["workloads"].items():
        b = e2e_b["workloads"][name]
        for m in manifest["end_to_end"]:
            va = a["end_to_end"][m["name"]]["median"]
            vb = b["end_to_end"][m["name"]]["median"]
            bad = regressed(m, va, vb) or regressed(m, vb, va)
            failures += bad
            print(
                f"{name:20s} {m['name']:18s} {va:>14.6g} {vb:>14.6g} "
                f"{abs(worse_by(m['better'], va, vb)):7.2%} of {m['bound']:.0%}"
                f"{'  DISAGREE' if bad else ''}"
            )
        if a["digest"] is None:
            continue
        la = layers_a["workloads"][name]["layers"]
        lb = layers_b["workloads"][name]["layers"]
        moved = [k for k in sorted(set(la) | set(lb)) if is_count(k) and la.get(k) != lb.get(k)]
        if a["digest"] != b["digest"]:
            moved.append("sim_digest")
        failures += len(moved)
        print(
            f"{name:20s} counts and digest  "
            + ("identical" if not moved else "MOVED: " + ", ".join(moved))
        )
    print("A/A check " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
