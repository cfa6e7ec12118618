"""Command-line interface: ``python -m repro`` (or the ``repro`` script).

Eleven subcommands drive the sweep, conformance, live, telemetry,
tracing and observatory subsystems from the shell (plus ``--version``):

``run WORKLOAD``
    Execute one named workload once and print its summary (events,
    throughput, skews, oracle verdict).  ``--profile`` wraps the run in
    cProfile and prints the top cumulative entries -- the standard tool
    for kernel performance work (see docs/performance.md).  ``--metrics
    out.jsonl`` streams flight-recorder frames while the run executes,
    ``--stats`` prints the end-of-run telemetry table, ``--trace-out
    t.json`` exports the run's causal spans as Chrome-trace/Perfetto
    JSON, and ``--bundle DIR`` captures the skew timeline and writes a
    run bundle + ledger record (see docs/observability.md).

``sweep WORKLOAD``
    Expand a named workload from :data:`repro.harness.configs.WORKLOADS`
    over ``--grid`` / ``--zip`` / ``--seeds`` axes, execute it (optionally
    in parallel) against the content-addressed result store, and print a
    tidy metrics table (``--json`` emits a machine-readable summary
    instead).

``check WORKLOAD``
    Run one workload under the full streaming conformance oracle
    (:mod:`repro.oracle`) with the recorder disabled, print the verdict
    and exit nonzero on any violated theorem bound.  ``--fuzz N`` also
    checks ``N`` randomly generated workloads from
    :mod:`repro.testing.strategies`.

``explain WORKLOAD``
    Run one workload with causal tracing and the oracle armed, then walk
    the happens-before DAG backwards from each violation to a ranked
    causal chain (:mod:`repro.tracing.forensics`): the message flights
    that carried the stale estimate, adversary-masked delays along them,
    churn and jumps in the window.  ``--bound-scale 0.5`` tightens the
    bounds to provoke violations; ``--trace-out`` also exports the trace.

``live``
    Run a live workload (``runtime="live"``) as a real wall-clock asyncio
    session (:mod:`repro.live`): per-node turns on one loop, loopback or UDP
    channels, artificial drift, the streaming oracle attached online.
    ``--duration`` caps the session in seconds; exits 1 if any bound of
    the paper is violated; ``--json`` prints a summary with ``oracle_ok``
    and the session's ``"live"`` cost block.

``top PATH``
    Render a telemetry metrics file (``--metrics`` output) as a terminal
    dashboard: the final frame one-shot, or ``--follow`` to tail a file
    that an in-progress run is still appending to.  Pointing it at a
    ``sweep --metrics-dir`` directory renders a per-point table instead.

``report BUNDLE``
    Render a run bundle (``run``/``live``/``check --bundle DIR``) as a
    single self-contained HTML observatory: skew-field heatmap, observed
    local skew against the Cor. 6.13 envelope with violation markers
    linked to cause reports, telemetry sparklines (:mod:`repro.obs`).

``history``
    List the cross-run ledger that every bundled run appends to
    (``benchmarks/.ledger`` by default): verdicts, worst margins,
    throughput, wall time -- the repo's performance trajectory.

``diff RUN_A RUN_B``
    Direction-aware comparison of two ledger records; exits 1 on any
    regression (oracle flipping to violated, throughput or margins
    shrinking), which is what CI gates on.

``ls``
    List what the store already holds (``--json`` for scripts).

``show PREFIX``
    Dump one stored entry (config + metrics) as JSON, addressed by any
    unambiguous hash prefix.

Axis values are comma-separated and auto-typed (int -> float -> bool ->
string), so::

    python -m repro sweep static_path --set horizon=150 \\
        --grid n=8,16,32 --seeds 4 --processes 4

runs a 12-point sweep, and running it again completes from cache.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import ExitStack, contextmanager
from typing import Any, Iterator, Sequence

from ._version import __version__
from .harness.configs import WORKLOADS
from .sweep import (
    Axis,
    ResultStore,
    SweepEngine,
    SweepResult,
    SweepSpec,
    grid,
    seeds,
    sweep_csv,
    sweep_table,
    tidy_rows,
    zip_,
)

__all__ = ["main"]

#: Default store location (override with --store or REPRO_SWEEP_STORE).
DEFAULT_STORE = ".sweep-cache"
#: Violation records shown per `repro check` run (text and JSON output).
CHECK_MAX_VIOLATIONS = 20
#: Entries printed by `repro run --profile` (sorted by cumulative time).
PROFILE_TOP_N = 25

_TABLE_COLUMNS = [
    "name",
    "algorithm",
    "n",
    "seed",
    "max_global_skew",
    "global_skew_bound",
    "max_local_skew",
    "cached",
]


def _parse_value(text: str) -> Any:
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    return text


def _parse_assignment(item: str) -> tuple[str, list[Any]]:
    if "=" not in item:
        raise argparse.ArgumentTypeError(
            f"expected key=value[,value...]; got {item!r}"
        )
    key, _, values = item.partition("=")
    parsed = [_parse_value(v) for v in values.split(",") if v != ""]
    if not parsed:
        raise argparse.ArgumentTypeError(f"no values in {item!r}")
    return key, parsed


def _single_assignments(
    items: list[str] | None, *, sweep_hint: str = ""
) -> dict[str, Any]:
    """Parse ``--set`` items into single-valued kwargs (shared by commands)."""
    base = dict(_parse_assignment(item) for item in items or [])
    for key, values in base.items():
        if len(values) > 1:
            raise argparse.ArgumentTypeError(
                f"--set {key}= takes a single value{sweep_hint}"
            )
    return {k: v[0] for k, v in base.items()}


def _axes_from_args(args: argparse.Namespace) -> list[Axis]:
    axes: list[Axis] = []
    for group in args.grid or []:
        ranges = dict(_parse_assignment(item) for item in group)
        axes.append(grid(**ranges))
    for group in args.zip or []:
        ranges = dict(_parse_assignment(item) for item in group)
        axes.append(zip_(**ranges))
    if args.seeds is not None:
        _, values = _parse_assignment(f"seed={args.seeds}")
        if len(values) == 1 and isinstance(values[0], int):
            axes.append(seeds(values[0]))
        else:
            axes.append(seeds([int(v) for v in values]))
    return axes


def _store_from_args(args: argparse.Namespace) -> ResultStore:
    root = args.store or os.environ.get("REPRO_SWEEP_STORE") or DEFAULT_STORE
    return ResultStore(root)


def _progress_printer(quiet: bool):
    if quiet:
        return None

    def progress(done: int, total: int, row) -> None:
        origin = "cached" if row.cached else f"ran {row.elapsed:.2f}s"
        print(f"[{done}/{total}] {row.name}  ({origin})", file=sys.stderr)

    return progress


# --------------------------------------------------------------------- #
# Workload resolution and observer wiring (shared by the run commands)
# --------------------------------------------------------------------- #


def _resolve_workload(
    args: argparse.Namespace, *, choices: str | None = None, **overrides: Any
) -> Any:
    """Build ``args.workload`` with its ``--set`` arguments (+ ``overrides``).

    Returns the :class:`ExperimentConfig`, or ``None`` after printing the
    error (unknown name, bad arguments) -- callers exit 2.
    """
    factory = WORKLOADS.get(args.workload)
    if factory is None:
        choices = choices or f"choose from {sorted(WORKLOADS)}"
        print(f"error: unknown workload {args.workload!r}; {choices}", file=sys.stderr)
        return None
    try:
        return factory(**{**_single_assignments(args.set), **overrides})
    except (KeyError, TypeError, ValueError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _live_workloads() -> list[str]:
    """The workloads whose spec runs on the live runtime."""
    return sorted(k for k, w in WORKLOADS.items() if w.spec.get("runtime") == "live")


@contextmanager
def _observing(
    args: argparse.Namespace, source: str | None = None
) -> Iterator[tuple[Any, Any]]:
    """Activate the ambient observers the flags ask for, around one run.

    ``--trace-out`` opens a span-tracing session, ``--bundle`` a skew
    timeline, and -- when ``source`` labels the run (``run`` / ``live``;
    ``check`` samples no telemetry) -- ``--metrics`` / ``--stats`` /
    ``--bundle`` the telemetry registry with its sampler.  Yields
    ``(sampler, timeline)``, each ``None`` when off.  Everything is
    deactivated on exit, normal or not; the span table, timeline rows
    and sampler frames outlive it (reporting reads them afterwards, the
    sampler's final frame included).
    """
    bundling = bool(getattr(args, "bundle", None))
    with ExitStack() as stack:
        sampler = timeline = None
        if source is not None and (args.metrics or args.stats or bundling):
            from .telemetry import FlightRecorder, TelemetrySampler, get_registry

            registry = get_registry()
            # One run per registry epoch: drop stale instruments from any
            # earlier in-process run so polled readbacks can't outlive
            # their subsystems.
            registry.reset()
            registry.enable()
            stack.callback(registry.disable)
            recorder = None
            if args.metrics:
                recorder = FlightRecorder(args.metrics)
                stack.callback(recorder.close)
            sampler = TelemetrySampler(
                registry,
                interval=args.metrics_interval,
                sink=recorder,
                source=source,
                # A bundled run keeps its frames in memory so the bundle
                # can embed them (sparklines in `repro report`).
                keep_frames=bundling,
            )
            sampler.start()
            stack.callback(sampler.stop)
        if getattr(args, "trace_out", None):
            from .tracing import trace_session

            stack.enter_context(trace_session())
        if bundling:
            from .obs import timeline_session

            timeline = stack.enter_context(timeline_session())
        yield sampler, timeline


def _bundle_finish(
    args: argparse.Namespace,
    result: Any,
    *,
    kind: str,
    workload: str | None,
    elapsed: float | None,
    timeline: Any,
    sampler: Any,
) -> dict[str, Any] | None:
    """Assemble + write the run bundle and append its ledger record.

    Returns ``{"bundle": path, "run_id": id, "ledger": root}`` for the
    caller's summary output, or ``None`` when ``--bundle`` was not given.
    Must run after the :func:`_observing` block exits so the sampler's
    final frame is in ``sampler.frames``.
    """
    if not getattr(args, "bundle", None):
        return None
    from .obs import (
        append_record,
        assemble_bundle,
        default_ledger_root,
        ledger_record,
        write_bundle,
    )

    frames = None
    if sampler is not None and getattr(sampler, "frames", None):
        frames = list(sampler.frames)
    doc = assemble_bundle(
        result,
        kind=kind,
        workload=workload,
        elapsed_seconds=elapsed,
        timeline=timeline,
        frames=frames,
    )
    path = write_bundle(doc, args.bundle)
    ledger_root = getattr(args, "ledger", None) or default_ledger_root()
    record = ledger_record(doc, bundle_path=os.path.abspath(args.bundle))
    run_id = append_record(record, ledger_root)
    return {"bundle": path, "run_id": run_id, "ledger": ledger_root}


def _trace_export(args: argparse.Namespace, result: Any) -> dict[str, int] | None:
    """Write the Chrome-trace file for a traced run; returns its counts."""
    if not getattr(args, "trace_out", None) or result.spans is None:
        return None
    from .tracing import export_chrome_trace

    return export_chrome_trace(result.spans, args.trace_out)


def _print_stats(args: argparse.Namespace, sampler: Any, source: str) -> None:
    """Print the end-of-run --stats table (stderr in --json mode)."""
    if not args.stats or sampler is None or sampler.last_frame is None:
        return
    from .telemetry import render_snapshot

    # --json owns stdout (one parseable line), like --profile.
    dest = sys.stderr if getattr(args, "json", False) else sys.stdout
    print(file=dest)
    print(
        render_snapshot(
            sampler.last_frame,
            sampler.first_frame,
            title=f"telemetry {source}: end-of-run stats",
        ),
        end="",
        file=dest,
    )


# --------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------- #


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.json and args.csv == "-":
        # Validate before spending minutes simulating the sweep.
        print("error: --csv - and --json both claim stdout", file=sys.stderr)
        return 2
    try:
        base_kwargs = _single_assignments(
            args.set, sweep_hint="; to sweep over it use --grid or --zip"
        )
        spec = SweepSpec(args.workload, base=base_kwargs, axes=_axes_from_args(args))
    except (KeyError, TypeError, ValueError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    store = _store_from_args(args)
    engine = SweepEngine(
        processes=args.processes,
        store=store,
        progress=_progress_printer(args.quiet),
        metrics_dir=args.metrics_dir,
    )
    t0 = time.perf_counter()
    try:
        result: SweepResult = engine.run(spec, reuse_cache=not args.no_cache)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - t0
    if args.json:
        print(
            json.dumps(
                {
                    "sweep": spec.label,
                    "configs": len(result),
                    "executed": result.executed_count,
                    "cached": result.cached_count,
                    "elapsed": elapsed,
                    "store": str(store.root),
                    "rows": tidy_rows(result),
                },
                sort_keys=True,
            )
        )
    else:
        table = sweep_table(
            result,
            columns=args.columns or _TABLE_COLUMNS,
            title=f"sweep {spec.label} ({len(result)} configs)",
        )
        print(table.render(), end="")
        print(
            f"{len(result)} configs: {result.executed_count} executed, "
            f"{result.cached_count} cached, {elapsed:.2f}s wall, "
            f"store {store.root}"
        )
    if args.csv:
        text = sweep_csv(result, columns=args.columns)
        if args.csv == "-":
            print(text, end="")
        else:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(text)
            # Keep stdout pure JSON in --json mode.
            print(f"wrote {args.csv}", file=sys.stderr if args.json else sys.stdout)
    return 0


def _oracle_only(cfg: Any, args: argparse.Namespace) -> Any:
    """``cfg`` with the standard oracle armed as the flags ask and the
    recorder off: checking is the oracle's job and must stay
    memory-bounded at any horizon (``check`` and ``explain``)."""
    from dataclasses import replace

    from .harness.registry import OracleRef

    oracle_kwargs: dict[str, Any] = {"bound_scale": args.bound_scale}
    if getattr(args, "monitors", None):
        oracle_kwargs["monitors"] = list(args.monitors)
    if args.interval is not None:
        oracle_kwargs["interval"] = args.interval
    return replace(
        cfg, record=False, track_edges=False, track_max_estimates=False,
        oracle=OracleRef("standard", oracle_kwargs),
    )


def _check_one(
    cfg, args: argparse.Namespace
) -> tuple[bool, dict[str, Any], Any, float]:
    """Run one config under full monitoring.

    Returns ``(ok, summary dict, result, elapsed seconds)`` -- the result
    and timing feed bundle assembly when ``--bundle`` is given.
    """
    from .harness.runner import run_experiment

    cfg = _oracle_only(cfg, args)
    t0 = time.perf_counter()
    result = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    report = result.oracle_report
    shown = report.violations[:CHECK_MAX_VIOLATIONS]
    lines = [v.describe() for v in shown]
    hidden = report.violation_count - len(shown)
    if hidden > 0:
        lines.append(f"... and {hidden} more violations")
    summary = {
        "name": cfg.name or cfg.algorithm,
        "ok": report.ok,
        "checks": report.checks,
        "violations": report.violation_count,
        "worst_margin": report.worst_margin,
        "violation_records": [v.to_dict() for v in shown],
        "_lines": lines,
    }
    return report.ok, summary, result, elapsed


def _kernel_payload(result: Any) -> dict[str, Any]:
    """Which dispatch path ran (``None`` = no decline / not sharded) and
    every fast path that declined, so scripts can assert it instead of
    inferring it from the speed."""
    from dataclasses import asdict

    return {
        "batch_gate_reason": result.batch_gate_reason,
        "array_events": result.array_events,
        "array_lane_events": result.array_lane_events,
        "scalar_lane_events": result.scalar_lane_events,
        "blocked_rows": result.blocked_rows,
        "non_node_events": result.non_node_events,
        "par_fallback_reason": result.par_fallback_reason,
        "par_shards": result.par_shards,
        "plan_s": result.plan_s,
        "materialised_nodes": result.materialised_nodes,
        "declines": [asdict(d) for d in result.declines],
    }


def _observed_run(args: argparse.Namespace, cfg: Any, kind: str) -> int:
    """Run ``cfg`` under the requested observers and report it.

    The shared body of ``run`` and ``live`` (``kind``): the sim command
    adds ``--profile``, the throughput line and the ``"kernel"`` JSON
    block; ``live`` reports ``horizon`` as its wall-clock ``duration``.
    Exit 1 strictly means "a paper bound was violated"; infrastructure
    failures (socket binds, a wedged loop, bundle I/O) are exit 2.
    """
    from .harness.runner import run_experiment

    is_sim = kind == "run"
    profiler = None
    if is_sim and args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    with _observing(args, args.workload) as (sampler, timeline):
        t0 = time.perf_counter()
        try:
            result = run_experiment(cfg)
        except Exception as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        finally:
            if profiler is not None:
                profiler.disable()
        elapsed = time.perf_counter() - t0
    trace_counts = _trace_export(args, result)
    try:
        bundle_info = _bundle_finish(
            args, result, kind=kind, workload=args.workload,
            elapsed=elapsed, timeline=timeline, sampler=sampler,
        )
    except OSError as exc:
        print(f"error: bundle: {exc}", file=sys.stderr)
        return 2
    events_per_sec = result.events_dispatched / max(elapsed, 1e-9)
    # ``elapsed`` and the ledger's throughput over it contain set-up.
    setup_s = result.setup_s
    report = result.oracle_report
    if args.json:
        payload: dict[str, Any] = {
            "workload": args.workload,
            "name": cfg.name,
            "algorithm": cfg.algorithm,
            "nodes": cfg.params.n,
            "horizon" if is_sim else "duration": cfg.horizon,
            "elapsed": elapsed,
            "events": result.events_dispatched,
            "messages_sent": result.transport_stats["sent"],
            "messages_delivered": result.transport_stats["delivered"],
            "transport": result.transport_stats,
            "jumps": result.total_jumps(),
            "oracle_ok": report.ok if report is not None else None,
        }
        if is_sim:
            payload["events_per_sec"] = events_per_sec
            payload["setup_s"] = setup_s
            payload["run_s"] = None if setup_s is None else elapsed - setup_s
            payload["kernel"] = _kernel_payload(result)
        else:
            payload["live"] = result.live.cost()
        if report is not None:
            payload.update(report.to_metrics())
        if trace_counts is not None:
            payload["trace"] = {"path": args.trace_out, **trace_counts}
        if bundle_info is not None:
            payload["bundle"] = bundle_info
        print(json.dumps(payload, sort_keys=True))
    else:
        print(result.summary())
        if is_sim:
            setup = (
                ""
                if setup_s is None
                else f" (set-up {setup_s:.2f}s, plan {result.plan_s:.2f}s)"
            )
            print(
                f"  wall: {elapsed:.2f}s{setup}  "
                f"throughput: {events_per_sec:,.0f} events/s"
            )
        if trace_counts is not None:
            print(
                f"  trace: wrote {args.trace_out} ({trace_counts['spans']} "
                f"spans, {trace_counts['flows']} flow events)"
            )
        if bundle_info is not None:
            print(
                f"  bundle: wrote {bundle_info['bundle']} "
                f"(ledger {bundle_info['run_id']})"
            )
        if report is not None and not report.ok:
            print(report.render(max_lines=CHECK_MAX_VIOLATIONS))
    _print_stats(args, sampler, args.workload)
    if profiler is not None:
        _print_profile(args, profiler, result)
    return 0 if report is None or report.ok else 1


def _print_profile(args: argparse.Namespace, profiler: Any, result: Any) -> None:
    """Print the ``--profile`` report (stderr in --json mode)."""
    import pstats

    # --json owns stdout (one parseable line); the profile goes to
    # stderr there so piped consumers never see it.
    dest = sys.stderr if args.json else sys.stdout
    stats = pstats.Stats(profiler, stream=dest)
    stats.sort_stats("cumulative")
    # Profiling is the entry point for kernel perf work, so say up
    # front which dispatch path actually ran: a declined batch kernel
    # is the most common reason a profile looks scalar-heavy.
    print(file=dest)
    if result.batch_gate_reason is None:
        print("profile: batch kernel active", file=dest)
    for decline in result.declines:
        print(f"profile: {decline.describe()}", file=dest)
    print(
        f"profile: array step: {result.array_events:,} / "
        f"{result.events_dispatched:,} events "
        f"({result.array_lane_events:,} on the array lane, "
        f"{result.blocked_rows:,} blocked rows)",
        file=dest,
    )
    print(f"profile: top {PROFILE_TOP_N} by cumulative time", file=dest)
    stats.print_stats(PROFILE_TOP_N)


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _resolve_workload(args)
    if cfg is None:
        return 2
    if args.shards is not None:
        from dataclasses import replace

        from .harness.registry import RuntimeRef

        if args.shards < 1:
            print("error: --shards must be >= 1", file=sys.stderr)
            return 2
        cfg = replace(
            cfg, runtime=RuntimeRef("par", {"shards": args.shards})
        )
    return _observed_run(args, cfg, "run")


def _cmd_check(args: argparse.Namespace) -> int:
    cfg = _resolve_workload(args)
    if cfg is None:
        return 2
    summaries = []
    try:
        # Only the named (non-fuzz) run is bundled: fuzz configs are
        # throwaway regression probes, not runs worth a ledger entry.
        with _observing(args) as (_sampler, timeline):
            ok, summary, result, elapsed = _check_one(cfg, args)
        bundle_info = _bundle_finish(
            args, result, kind="check", workload=args.workload,
            elapsed=elapsed, timeline=timeline, sampler=None,
        )
        summaries.append(summary)
        all_ok = ok
        if args.fuzz:
            from .testing.strategies import fuzz_config

            for i in range(args.fuzz):
                fuzz_cfg = fuzz_config(args.fuzz_seed + i)
                ok, summary, _result, _elapsed = _check_one(fuzz_cfg, args)
                summaries.append(summary)
                all_ok = all_ok and ok
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        for summary in summaries:
            summary.pop("_lines")
        payload: dict[str, Any] = {"ok": all_ok, "runs": summaries}
        if bundle_info is not None:
            payload["bundle"] = bundle_info
        print(json.dumps(payload, sort_keys=True))
    else:
        for summary in summaries:
            verdict = "OK" if summary["ok"] else "VIOLATED"
            margin = summary["worst_margin"]
            margin_txt = f"{margin:.6g}" if margin is not None else "n/a"
            print(
                f"{verdict}  {summary['name']}: {summary['checks']} checks, "
                f"{summary['violations']} violations, worst margin {margin_txt}"
            )
            for line in summary["_lines"]:
                print(f"  {line}")
        if bundle_info is not None:
            print(
                f"bundle: wrote {bundle_info['bundle']} "
                f"(ledger {bundle_info['run_id']})"
            )
        verdict = "conformance OK" if all_ok else "conformance VIOLATED"
        print(f"{verdict} ({len(summaries)} run{'s' if len(summaries) != 1 else ''})")
    return 0 if all_ok else 1


def _cmd_live(args: argparse.Namespace) -> int:
    from .harness.registry import RuntimeRef

    live_names = _live_workloads()
    overrides = {} if args.duration is None else {"duration": args.duration}
    cfg = _resolve_workload(
        args, choices=f"live workloads: {live_names}", **overrides
    )
    if cfg is None:
        return 2
    runtime = cfg.runtime
    if not (isinstance(runtime, RuntimeRef) and runtime.name == "live"):
        print(
            f"error: workload {args.workload!r} does not use the live "
            f"runtime; pick one of {live_names}",
            file=sys.stderr,
        )
        return 2
    return _observed_run(args, cfg, "live")


def _cmd_explain(args: argparse.Namespace) -> int:
    """Run one workload traced + monitored, then explain its violations.

    Exit code 0 means the forensics ran (whether or not the oracle was
    violated -- unlike `check`, this command's job is the report, not the
    verdict); 2 means the run itself failed.
    """
    from .harness.runner import run_experiment
    from .tracing import explain_result, trace_session

    cfg = _resolve_workload(args)
    if cfg is None:
        return 2
    # Same memory-bounded stance as `check`; the span table is the only
    # history kept.
    cfg = _oracle_only(cfg, args)
    try:
        with trace_session():
            result = run_experiment(cfg)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _trace_export(args, result)
    report = result.oracle_report
    assert report is not None and result.spans is not None
    reports = explain_result(result, max_reports=args.max_reports)
    if args.json:
        payload: dict[str, Any] = {
            "workload": args.workload,
            "name": cfg.name,
            "bound_scale": args.bound_scale,
            "oracle_ok": report.ok,
            "checks": report.checks,
            "violations": report.violation_count,
            "spans": len(result.spans),
            "kernel": _kernel_payload(result),
            "reports": [rep.to_dict() for rep in reports],
        }
        if args.trace_out:
            payload["trace_out"] = args.trace_out
        print(json.dumps(payload, sort_keys=True))
    elif report.ok:
        print(
            f"oracle OK ({report.checks} checks, "
            f"{len(result.spans)} spans recorded); nothing to explain"
        )
    else:
        print(
            f"oracle VIOLATED: {report.violation_count} violation(s); "
            f"explaining the first {len(reports)} "
            f"against {len(result.spans)} spans"
        )
        for rep in reports:
            print()
            print(rep.describe())
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from .telemetry import FrameError, read_frames, render_snapshot
    from .telemetry.top import CLEAR_SCREEN, follow_frames, render_sweep_dir

    if os.path.isdir(args.path):
        # A `sweep --metrics-dir` directory: one single-frame recording
        # per executed point, rendered as a per-point table.
        if args.follow:
            print(
                "error: --follow tails a single metrics file, not a directory",
                file=sys.stderr,
            )
            return 2
        if not any(f.endswith(".jsonl") for f in os.listdir(args.path)):
            print(f"error: {args.path} holds no metrics files", file=sys.stderr)
            return 1
        try:
            print(render_sweep_dir(args.path), end="")
        except (OSError, FrameError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0
    if args.follow:
        # Tail mode: repaint whenever complete new frames appear.  The
        # flight recorder flushes per line, so partial tails are rare and
        # follow_frames leaves them buffered until whole.
        last = prev = None
        try:
            with open(args.path, "r", encoding="utf-8") as fh:
                while True:
                    updated = False
                    for frame in follow_frames(fh):
                        prev, last = last, frame
                        updated = True
                    if updated and last is not None:
                        sys.stdout.write(CLEAR_SCREEN)
                        sys.stdout.write(render_snapshot(last, prev))
                        sys.stdout.flush()
                    time.sleep(args.interval)
        except KeyboardInterrupt:
            print()
            return 0
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (FrameError, json.JSONDecodeError) as exc:
            print(f"error: {args.path}: {exc}", file=sys.stderr)
            return 2
    try:
        frames = read_frames(args.path)
    except (OSError, FrameError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not frames:
        print(f"error: {args.path} holds no frames", file=sys.stderr)
        return 1
    # One-shot: final snapshot, rates averaged over the whole stream.
    prev = frames[0] if len(frames) > 1 else None
    print(render_snapshot(frames[-1], prev), end="")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Render a run bundle as the single-file HTML observatory."""
    from .obs import BundleError, load_bundle, render_report

    try:
        doc = load_bundle(args.bundle)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BundleError, json.JSONDecodeError) as exc:
        print(f"error: {args.bundle}: {exc}", file=sys.stderr)
        return 2
    out = args.output
    if out is None:
        base = (
            args.bundle
            if os.path.isdir(args.bundle)
            else os.path.dirname(args.bundle) or "."
        )
        out = os.path.join(base, "report.html")
    text = render_report(doc)
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run = doc["run"]
    print(
        f"wrote {out} ({len(text):,} bytes): {run['name'] or run['algorithm']} "
        f"n={run['n']} seed={run['seed']}"
    )
    return 0


def _cmd_history(args: argparse.Namespace) -> int:
    """List the cross-run ledger, oldest first."""
    from .obs import LedgerError, default_ledger_root, read_ledger

    root = args.ledger or default_ledger_root()
    try:
        records = read_ledger(root)
    except LedgerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload:
        records = [r for r in records if r.get("workload") == args.workload]
    if args.limit is not None:
        records = records[-args.limit :] if args.limit > 0 else []
    if args.json:
        print(json.dumps({"ledger": root, "records": records}, sort_keys=True))
        return 0
    if not records:
        print(f"ledger {root}: no matching runs")
        return 0
    from .analysis.report import TextTable

    table = TextTable(
        ["run", "kind", "name", "n", "seed", "oracle", "margin", "events/s", "wall s"],
        title=f"ledger {root} ({len(records)} run{'s' if len(records) != 1 else ''})",
    )
    for rec in records:
        ok = rec.get("oracle_ok")
        margin = rec.get("oracle_worst_margin")
        ev_rate = rec.get("events_per_sec")
        wall = rec.get("wall_seconds")
        table.add_row(
            (
                str(rec.get("run_id", ""))[:12],
                str(rec.get("kind", "")),
                str(rec.get("name") or rec.get("workload") or ""),
                "" if rec.get("n") is None else str(rec["n"]),
                "" if rec.get("seed") is None else str(rec["seed"]),
                "-" if ok is None else ("OK" if ok else "VIOLATED"),
                f"{margin:.4g}" if margin is not None else "",
                f"{ev_rate:,.0f}" if ev_rate is not None else "",
                f"{wall:.2f}" if wall is not None else "",
            )
        )
    print(table.render(), end="")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    """Compare two ledger records (abbreviated run ids accepted).

    Exit 1 when any compared field regressed.
    """
    from .obs import LedgerError, diff_records, find_record

    try:
        rec_a = find_record(args.run_a, args.ledger)
        rec_b = find_record(args.run_b, args.ledger)
    except LedgerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = diff_records(rec_a, rec_b)
    regressions = sum(1 for r in rows if r["verdict"] == "regression")
    if args.json:
        print(
            json.dumps(
                {
                    "a": rec_a["run_id"],
                    "b": rec_b["run_id"],
                    "rows": rows,
                    "regressions": regressions,
                },
                sort_keys=True,
            )
        )
        return 1 if regressions else 0
    from .analysis.report import TextTable

    table = TextTable(
        ["field", "a", "b", "delta", "verdict"],
        title=f"ledger diff {rec_a['run_id'][:12]} -> {rec_b['run_id'][:12]}",
    )
    for row in rows:
        delta = row.get("delta")
        table.add_row(
            (
                str(row["field"]),
                _fmt_diff_value(row["a"]),
                _fmt_diff_value(row["b"]),
                f"{delta:+.4g}" if delta is not None else "",
                str(row["verdict"]),
            )
        )
    if rows:
        print(table.render(), end="")
    else:
        print("no differing fields")
    verdict = (
        f"{regressions} regression{'s' if regressions != 1 else ''}"
        if regressions
        else "no regressions"
    )
    print(verdict)
    return 1 if regressions else 0


def _fmt_diff_value(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _cmd_ls(args: argparse.Namespace) -> int:
    store = _store_from_args(args)
    entries = list(store.entries())
    if not entries:
        if args.json:
            print(json.dumps({"store": str(store.root), "entries": []}))
        else:
            print(f"store {store.root}: empty")
        return 0
    rows = []
    for entry in entries:
        cfg = entry.get("config", {})
        rows.append(
            {
                "hash": entry["hash"][:12],
                "name": cfg.get("name", ""),
                "algorithm": cfg.get("algorithm", ""),
                "n": cfg.get("params", {}).get("n"),
                "seed": cfg.get("seed"),
                "horizon": cfg.get("horizon"),
                "max_global_skew": entry.get("metrics", {}).get("max_global_skew"),
            }
        )
    if args.json:
        print(json.dumps({"store": str(store.root), "entries": rows}, sort_keys=True))
        return 0
    table = sweep_table(
        rows, title=f"store {store.root} ({len(entries)} entries)"
    )
    print(table.render(), end="")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    store = _store_from_args(args)
    matches = store.find(args.prefix)
    if not matches:
        print(f"error: no entry matches {args.prefix!r} in {store.root}", file=sys.stderr)
        return 1
    if len(matches) > 1:
        print(
            f"error: {args.prefix!r} is ambiguous ({len(matches)} matches):",
            file=sys.stderr,
        )
        for key in matches[:10]:
            print(f"  {key}", file=sys.stderr)
        return 1
    print(json.dumps(store.get(matches[0]), sort_keys=True, indent=2))
    return 0


# --------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------- #


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Gradient clock synchronization: experiment sweeps.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {__version__}",
        help="print the package version and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser(
        "sweep",
        help="expand and run a named workload sweep",
        description=(
            "Run a sweep over a named workload. Workloads: "
            + ", ".join(sorted(WORKLOADS))
        ),
    )
    p_sweep.add_argument("workload", help="workload name (see --help for the list)")
    p_sweep.add_argument(
        "--set",
        metavar="KEY=VALUE",
        nargs="+",
        action="extend",
        help="fixed workload arguments applied at every point",
    )
    p_sweep.add_argument(
        "--grid",
        metavar="KEY=V1,V2,...",
        nargs="+",
        action="append",
        help="cartesian-product axis (repeatable; one axis per occurrence)",
    )
    p_sweep.add_argument(
        "--zip",
        metavar="KEY=V1,V2,...",
        nargs="+",
        action="append",
        help="lockstep axis: all ranges advance together (repeatable)",
    )
    p_sweep.add_argument(
        "--seeds",
        metavar="N|S1,S2,...",
        help="seed axis: a count (0..N-1) or explicit comma-separated seeds",
    )
    p_sweep.add_argument(
        "--processes",
        type=int,
        default=None,
        metavar="P",
        help="worker processes (default: serial; results are identical)",
    )
    p_sweep.add_argument("--no-cache", action="store_true", help="force re-execution")
    p_sweep.add_argument(
        "--metrics-dir",
        metavar="DIR",
        default=None,
        help="write one flight-recorder JSONL per executed (non-cached) "
        "point into DIR (render with `repro top`; docs/observability.md)",
    )
    p_sweep.add_argument(
        "--csv", metavar="PATH", help="also write tidy rows as CSV ('-' for stdout)"
    )
    p_sweep.add_argument(
        "--columns", metavar="COL", nargs="+", help="table/CSV columns to print"
    )
    p_sweep.add_argument("--quiet", action="store_true", help="suppress progress lines")
    p_sweep.add_argument(
        "--json",
        action="store_true",
        help="print a machine-readable JSON summary instead of the table",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_run = sub.add_parser(
        "run",
        help="run one workload once and print its summary",
        description=(
            "Execute a single named workload through run_experiment and "
            "print the run summary (events, messages, skews, oracle "
            "verdict; exits 1 on an oracle violation). --profile wraps "
            "the run in cProfile and prints the top cumulative entries -- "
            "the standard tool for kernel performance work "
            "(docs/performance.md). Workloads: " + ", ".join(sorted(WORKLOADS))
        ),
    )
    p_run.add_argument("workload", help="workload name (see --help for the list)")
    p_run.add_argument(
        "--profile",
        action="store_true",
        help=f"profile the run with cProfile; print the top {PROFILE_TOP_N} "
        "entries by cumulative time",
    )
    p_run.add_argument(
        "--shards",
        type=int,
        metavar="K",
        help="run on the parallel shard backend with K workers "
        "(bit-identical to serial; see docs/performance.md)",
    )
    p_run.add_argument(
        "--json",
        action="store_true",
        help="print a machine-readable summary (includes events_per_sec)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_check = sub.add_parser(
        "check",
        help="run a workload under the streaming conformance oracle",
        description=(
            "Run one workload with every theorem monitor armed "
            "(repro.oracle) and the recorder disabled; exits 1 if any "
            "bound of the paper is violated. Workloads: "
            + ", ".join(sorted(WORKLOADS))
        ),
    )
    p_check.add_argument("workload", help="workload name (see --help for the list)")
    p_check.add_argument(
        "--monitors",
        metavar="NAME",
        nargs="+",
        help="monitor subset (default: all; see repro.oracle.MONITOR_FACTORIES)",
    )
    p_check.add_argument(
        "--fuzz",
        type=int,
        default=0,
        metavar="N",
        help="additionally check N random workloads from repro.testing.strategies",
    )
    p_check.add_argument(
        "--fuzz-seed",
        type=int,
        default=0,
        metavar="S",
        help="base seed for --fuzz workload generation",
    )
    p_check.add_argument(
        "--json", action="store_true", help="print the verdicts as JSON"
    )
    p_check.set_defaults(func=_cmd_check)

    p_explain = sub.add_parser(
        "explain",
        help="trace a workload and explain its oracle violations causally",
        description=(
            "Run one workload with causal tracing and the conformance "
            "oracle armed, then walk the happens-before DAG backwards from "
            "each violation to a ranked causal chain (repro.tracing): which "
            "message flights carried the stale estimate, whether an "
            "adversary masked delays along the way, what churned. Exits 0 "
            "whenever the forensics ran (use `check` for a pass/fail "
            "verdict). Workloads: " + ", ".join(sorted(WORKLOADS))
        ),
    )
    p_explain.add_argument("workload", help="workload name (see --help for the list)")
    p_explain.add_argument(
        "--max-reports",
        type=int,
        default=3,
        metavar="N",
        help="explain at most the first N violations (default: 3)",
    )
    p_explain.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="also export the span table as Chrome-trace/Perfetto JSON",
    )
    p_explain.add_argument(
        "--json", action="store_true", help="print the cause reports as JSON"
    )
    p_explain.set_defaults(func=_cmd_explain)

    live_workloads = _live_workloads()
    p_live = sub.add_parser(
        "live",
        help="run a wall-clock asyncio session with the oracle attached",
        description=(
            "Run a live workload in real time (repro.live): per-node turns on "
            "one asyncio loop over a loopback or UDP channel, monotonic wall "
            "clocks with artificial drift, and the streaming conformance "
            "oracle checking the paper's bounds online. Exits 1 on any "
            "violation. Live workloads: " + ", ".join(live_workloads)
        ),
    )
    p_live.add_argument(
        "--workload",
        default="live_ring",
        help="live workload name (default: live_ring)",
    )
    p_live.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock session length (overrides the workload default)",
    )
    p_live.add_argument(
        "--json",
        action="store_true",
        help="print a machine-readable summary (includes oracle_ok)",
    )
    p_live.set_defaults(func=_cmd_live)

    for p, example in (
        (p_run, "n=4096 horizon=30"),
        (p_check, "n=32 horizon=600"),
        (p_explain, "n=8 horizon=120"),
        (p_live, "n=16 channel=udp jitter=0.002"),
    ):
        p.add_argument(
            "--set",
            metavar="KEY=VALUE",
            nargs="+",
            action="extend",
            help=f"workload arguments (e.g. --set {example})",
        )

    # Oracle flags, shared by the two oracle-only commands.
    for p in (p_check, p_explain):
        p.add_argument(
            "--interval",
            type=float,
            default=None,
            metavar="T",
            help="oracle sampling interval (default: the workload's sample_interval)",
        )
        p.add_argument(
            "--bound-scale",
            type=float,
            default=1.0,
            metavar="S",
            help="scale every upper bound by S (S < 1 tightens; for testing)",
        )

    # Telemetry flags, shared by the two run-one-workload commands.
    for p in (p_run, p_live):
        p.add_argument(
            "--metrics",
            metavar="PATH",
            default=None,
            help="stream JSONL flight-recorder frames to PATH while running "
            "(render them with `repro top PATH`; docs/observability.md)",
        )
        p.add_argument(
            "--metrics-interval",
            type=float,
            default=0.5,
            metavar="SECONDS",
            help="telemetry sampling period (default: 0.5s wall clock)",
        )
        p.add_argument(
            "--stats",
            action="store_true",
            help="print the end-of-run telemetry table (stderr in --json mode)",
        )
        p.add_argument(
            "--trace-out",
            metavar="PATH",
            default=None,
            help="write a Chrome-trace/Perfetto JSON of the run's causal "
            "spans to PATH (open at ui.perfetto.dev; docs/observability.md)",
        )

    # Bundling is available wherever a full run happens (run/live/check).
    for p in (p_run, p_live, p_check):
        p.add_argument(
            "--bundle",
            metavar="DIR",
            default=None,
            help="write a versioned run bundle (timeline + telemetry + "
            "oracle report) to DIR and append its summary to the ledger; "
            "render with `repro report DIR` (docs/observability.md)",
        )
        p.add_argument(
            "--ledger",
            metavar="DIR",
            default=None,
            help="ledger directory for the --bundle record (default: "
            "$REPRO_LEDGER or benchmarks/.ledger)",
        )

    p_report = sub.add_parser(
        "report",
        help="render a run bundle as a single-file HTML observatory",
        description=(
            "Render a bundle written by `repro run/live/check --bundle DIR` "
            "as one dependency-free HTML page: skew-field heatmap, observed "
            "local skew vs the Cor. 6.13 envelope with violation markers "
            "deep-linked to cause reports, and telemetry sparklines. The "
            "bundle JSON is embedded verbatim, so the page is also the "
            "machine-readable artifact."
        ),
    )
    p_report.add_argument(
        "bundle", help="bundle directory (or its bundle.json) to render"
    )
    p_report.add_argument(
        "-o",
        "--output",
        metavar="PATH",
        default=None,
        help="output HTML path (default: report.html beside the bundle)",
    )
    p_report.set_defaults(func=_cmd_report)

    p_history = sub.add_parser(
        "history",
        help="list the cross-run ledger",
        description=(
            "List every bundled run recorded in the ledger, oldest first: "
            "run id, verdict, worst margin, throughput, wall time."
        ),
    )
    p_history.add_argument(
        "--ledger",
        metavar="DIR",
        default=None,
        help="ledger directory (default: $REPRO_LEDGER or benchmarks/.ledger)",
    )
    p_history.add_argument(
        "--workload",
        default=None,
        help="only show records for this workload",
    )
    p_history.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="show only the newest N records",
    )
    p_history.add_argument(
        "--json", action="store_true", help="print the records as JSON"
    )
    p_history.set_defaults(func=_cmd_history)

    p_diff = sub.add_parser(
        "diff",
        help="compare two ledger records (direction-aware)",
        description=(
            "Field-by-field comparison of two ledger records addressed by "
            "(abbreviated) run id. Exit 1 when any field regressed: "
            "oracle_ok flipping false, throughput or margins shrinking, "
            "violations or wall time growing."
        ),
    )
    p_diff.add_argument("run_a", help="baseline run id (prefix ok)")
    p_diff.add_argument("run_b", help="candidate run id (prefix ok)")
    p_diff.add_argument(
        "--ledger",
        metavar="DIR",
        default=None,
        help="ledger directory (default: $REPRO_LEDGER or benchmarks/.ledger)",
    )
    p_diff.add_argument(
        "--json", action="store_true", help="print the diff rows as JSON"
    )
    p_diff.set_defaults(func=_cmd_diff)

    p_top = sub.add_parser(
        "top",
        help="render a telemetry metrics file as a terminal dashboard",
        description=(
            "Render JSONL flight-recorder frames (written by `repro run/live "
            "--metrics PATH`). Default: validate every frame and print the "
            "final snapshot with whole-run counter rates. --follow tails the "
            "file and repaints as an in-progress run appends frames "
            "(Ctrl-C to stop). A directory (from `repro sweep "
            "--metrics-dir`) renders as a per-point table instead."
        ),
    )
    p_top.add_argument(
        "path",
        help="metrics file written by --metrics, or a --metrics-dir directory",
    )
    p_top.add_argument(
        "--follow",
        action="store_true",
        help="keep tailing the file and repaint on new frames",
    )
    p_top.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="--follow poll period (default: 1s)",
    )
    p_top.set_defaults(func=_cmd_top)

    p_ls = sub.add_parser("ls", help="list cached sweep results")
    p_ls.add_argument(
        "--json", action="store_true", help="print the entries as JSON"
    )
    p_ls.set_defaults(func=_cmd_ls)

    p_show = sub.add_parser("show", help="print one cached entry as JSON")
    p_show.add_argument("prefix", help="config-hash prefix (must be unambiguous)")
    p_show.set_defaults(func=_cmd_show)

    for p in (p_sweep, p_ls, p_show):
        p.add_argument(
            "--store",
            metavar="DIR",
            default=None,
            help=f"result store directory (default: $REPRO_SWEEP_STORE or {DEFAULT_STORE})",
        )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream (e.g. `| head`) closed the pipe; exit quietly.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
