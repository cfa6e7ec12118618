"""Sweep execution across processes with transparent result caching.

:class:`SweepEngine` takes a :class:`~repro.sweep.spec.SweepSpec` (or a
plain list of configs), consults its :class:`~repro.sweep.store.ResultStore`
for already-computed points, and executes the misses either serially or on a
``ProcessPoolExecutor`` -- through the *same* worker function, so the two
backends are bit-identical.  Each task re-derives its random streams from
the config's own seed (:class:`~repro.sim.rng.RngFactory`), so results do
not depend on scheduling order or worker count.

Results come back as a :class:`SweepResult`: one :class:`SweepRow` per
config, *in expansion order*, each carrying the summary-metrics dict that
was (or now is) in the store.  Only deterministic scalars go into metrics;
wall-clock time lives on the row (``elapsed``) and is never cached, which is
what makes serial/parallel parity checkable.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from ..adversary.connectivity import scan_interval_connectivity
from ..core import skew_bounds
from ..harness.runner import ExperimentConfig, RunResult, run_experiment
from ..telemetry.registry import Counter, Gauge, active_registry, get_registry
from .spec import SweepSpec
from .store import ResultStore, config_hash

__all__ = ["SweepEngine", "SweepResult", "SweepRow", "summarize_run"]

#: Progress callback: ``(done, total, row)`` after each resolved point.
ProgressFn = Callable[[int, int, "SweepRow"], None]


# --------------------------------------------------------------------- #
# Metric extraction (runs inside workers)
# --------------------------------------------------------------------- #


def summarize_run(result: RunResult) -> dict[str, Any]:
    """Reduce a :class:`RunResult` to the flat, deterministic metrics dict
    stored per config -- the one run row, which a bundle's ``run`` block
    also carries (:func:`repro.obs.bundle.assemble_bundle`).

    Everything here is a pure function of the simulation, so identical
    configs produce identical dicts on any backend.  ``max_local_skew`` is
    a recorder reading, ``None`` when the run did not track edges; the
    stable-edge skew and the envelope columns are the oracle's ``envelope``
    monitor's, ``None`` when the run had none.
    """
    params = result.params
    metrics: dict[str, Any] = {
        # None (not 0.0) when the recorder was disabled: the run has no
        # sampled history, only the streaming oracle's verdict.
        "max_global_skew": result.max_global_skew if result.config.record else None,
        "global_skew_bound": skew_bounds.global_skew_bound(params),
        "stable_local_skew_bound": skew_bounds.stable_local_skew(params),
        "events_dispatched": result.events_dispatched,
        "messages_sent": result.transport_stats.get("sent", 0),
        "messages_delivered": result.transport_stats.get("delivered", 0),
        "jumps": result.total_jumps(),
    }
    tracked = result.config.track_edges and result.config.record
    metrics["max_local_skew"] = result.max_local_skew if tracked else None
    oracle = result.oracle_report
    envelope = None if oracle is None else oracle.monitors.get("envelope")
    metrics.update(
        stable_local_skew=envelope and envelope.extras["stable_skew"],
        envelope_samples=envelope and envelope.checks,
        envelope_violations=envelope and envelope.violations,
        envelope_worst_ratio=envelope and envelope.extras["worst_ratio"],
        envelope_compliant=envelope and envelope.violations == 0,
    )
    if result.config.adversary is not None:
        # Adversary-generated schedules must stay within the model: certify
        # (T+D)-interval connectivity -- the premise of Theorem 6.9 -- over
        # the whole emitted topology schedule.
        interval = params.max_delay + params.discovery_bound
        report = scan_interval_connectivity(
            result.graph, interval, result.config.horizon
        )
        metrics.update(
            tic_interval=interval,
            tic_ok=report.ok,
            tic_windows=report.windows_checked,
            tic_violations=len(report.violations),
        )
    else:
        metrics.update(
            tic_interval=None, tic_ok=None, tic_windows=None, tic_violations=None
        )
    if oracle is not None:
        # Streaming conformance verdict (see repro.oracle): pass/fail plus
        # the worst slack against any theorem bound, per sweep point.
        metrics.update(oracle.to_metrics())
    else:
        metrics.update(
            oracle_ok=None,
            oracle_checks=None,
            oracle_violations=None,
            oracle_worst_margin=None,
        )
    return metrics


def _execute(
    config_dict: Mapping[str, Any], metrics_path: str | None = None
) -> dict[str, Any]:
    """Worker entry point: config dict in, ``{"metrics", "elapsed"}`` out.

    Module-level so it pickles for the process pool; the serial backend
    calls the very same function.  ``metrics_path`` (the ``--metrics-dir``
    feature) enables the process-wide telemetry registry around this one
    run and writes its end-of-run snapshot as a single flight-recorder
    frame -- only *executed* points ever reach this function, so cached
    points leave no metrics file behind.
    """
    cfg = ExperimentConfig.from_dict(config_dict)
    if metrics_path is None:
        t0 = time.perf_counter()
        result = run_experiment(cfg)
        elapsed = time.perf_counter() - t0
        return {"metrics": summarize_run(result), "elapsed": elapsed}
    from ..telemetry.flight import FlightRecorder, build_frame

    registry = get_registry()
    # Only take over the process registry if nobody else (a serial sweep
    # under an active sampler, say) is already using it; when borrowed,
    # the frame simply includes the ambient counters too.
    owned = not registry.enabled
    if owned:
        registry.reset()
        registry.enable()
    try:
        t0 = time.perf_counter()
        result = run_experiment(cfg)
        elapsed = time.perf_counter() - t0
        source = config_dict.get("name") or config_dict.get("algorithm") or "sweep"
        with FlightRecorder(metrics_path) as sink:
            sink(build_frame(registry, seq=0, t_wall=elapsed, source=str(source)))
    finally:
        if owned:
            registry.disable()
            registry.reset()
    return {"metrics": summarize_run(result), "elapsed": elapsed}


# --------------------------------------------------------------------- #
# Result containers
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class SweepRow:
    """One resolved sweep point.

    ``cached`` means the point was *not* simulated for this row: it was
    served from the store, or deduplicated against an identical config
    executed earlier in the same sweep.
    """

    index: int
    name: str
    key: str
    config: dict[str, Any]
    metrics: dict[str, Any]
    cached: bool
    elapsed: float | None = None


@dataclass
class SweepResult:
    """Ordered collection of resolved sweep points."""

    rows: list[SweepRow] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def cached_count(self) -> int:
        """Points not simulated: store hits plus within-sweep duplicates."""
        return sum(1 for r in self.rows if r.cached)

    @property
    def executed_count(self) -> int:
        """How many points were actually simulated."""
        return sum(1 for r in self.rows if not r.cached)


# --------------------------------------------------------------------- #
# Engine
# --------------------------------------------------------------------- #


def _pool_context():
    # fork keeps sys.path (and thus the repro import) without requiring an
    # installed package; fall back to the platform default elsewhere.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # a platform without fork
        return multiprocessing.get_context()


class SweepEngine:
    """Executes sweeps with caching and an optional process pool.

    Parameters
    ----------
    processes:
        ``None`` or ``<= 1`` runs every miss serially in-process; ``k > 1``
        fans misses out over ``k`` worker processes.  Results are identical
        either way.
    store:
        A :class:`~repro.sweep.store.ResultStore` for transparent caching,
        or ``None`` to always execute.
    progress:
        Optional ``(done, total, row)`` callback, invoked once per point as
        it resolves (cache hits first, then executions as they finish).
    metrics_dir:
        Optional directory for per-point flight-recorder frames: every
        *executed* (non-cached) point writes one JSONL file named by its
        config-hash prefix, renderable with ``repro top``.  Cache hits and
        within-sweep duplicates write nothing.
    """

    def __init__(
        self,
        *,
        processes: int | None = None,
        store: ResultStore | None = None,
        progress: ProgressFn | None = None,
        metrics_dir: str | None = None,
    ) -> None:
        if processes is not None and processes < 0:
            raise ValueError(f"processes must be >= 0; got {processes}")
        self.processes = processes
        self.store = store
        self.progress = progress
        self.metrics_dir = metrics_dir
        # Telemetry instruments (wired per run() when telemetry is on).
        self._tele_cache_hits: Counter | None = None
        self._tele_dedup_hits: Counter | None = None
        self._tele_executed: Counter | None = None
        self._tele_exec_seconds: Counter | None = None
        self._tele_done: Gauge | None = None

    # ------------------------------------------------------------------ #

    def run(
        self,
        sweep: SweepSpec | Sequence[ExperimentConfig],
        *,
        reuse_cache: bool = True,
    ) -> SweepResult:
        """Resolve every point of ``sweep`` and return ordered rows.

        ``reuse_cache=False`` forces re-execution (results still get stored).
        """
        configs = sweep.expand() if isinstance(sweep, SweepSpec) else list(sweep)
        config_dicts = [cfg.to_dict() for cfg in configs]
        keys = [config_hash(d) for d in config_dicts]
        total = len(configs)
        rows: list[SweepRow | None] = [None] * total
        done = 0

        # Telemetry (cache economics + worker utilization); pure observer.
        telemetry = active_registry()
        t_run0 = time.perf_counter()
        if telemetry is not None:
            self._tele_cache_hits = telemetry.counter("sweep.cache_hits")
            self._tele_dedup_hits = telemetry.counter("sweep.dedup_hits")
            self._tele_executed = telemetry.counter("sweep.points_executed")
            self._tele_exec_seconds = telemetry.counter("sweep.exec_seconds")
            self._tele_done = telemetry.gauge("sweep.points_done")
            telemetry.gauge("sweep.points_total").set(total)

        def resolve(i: int, metrics: dict, cached: bool, elapsed: float | None) -> None:
            nonlocal done
            rows[i] = SweepRow(
                index=i,
                name=config_dicts[i]["name"] or config_dicts[i]["algorithm"],
                key=keys[i],
                config=config_dicts[i],
                metrics=metrics,
                cached=cached,
                elapsed=elapsed,
            )
            done += 1
            if self._tele_done is not None:
                self._tele_done.set(done)
            if self.progress is not None:
                self.progress(done, total, rows[i])

        # Cache pass.
        pending: dict[str, list[int]] = {}
        for i, key in enumerate(keys):
            entry = (
                self.store.get(key)
                if (self.store is not None and reuse_cache)
                else None
            )
            if entry is not None:
                if self._tele_cache_hits is not None:
                    self._tele_cache_hits.inc()
                resolve(i, dict(entry["metrics"]), cached=True, elapsed=None)
            else:
                # Identical configs share one execution.
                pending.setdefault(key, []).append(i)

        # Execution pass.
        if pending:
            if self.metrics_dir is not None:
                os.makedirs(self.metrics_dir, exist_ok=True)
            order = sorted(pending.values(), key=lambda idxs: idxs[0])
            if self.processes is not None and self.processes > 1:
                self._run_pool(order, config_dicts, keys, resolve)
            else:
                self._run_serial(order, config_dicts, keys, resolve)

        if telemetry is not None and self._tele_exec_seconds is not None:
            # Busy-time over wall-time x workers: ~1.0 means the pool was
            # saturated, ~1/k means serial-shaped work on k workers.
            wall = time.perf_counter() - t_run0
            workers = max(1, self.processes or 1)
            telemetry.gauge("sweep.worker_utilization").set(
                self._tele_exec_seconds.value / max(wall * workers, 1e-9)
            )
        assert all(r is not None for r in rows)
        return SweepResult(rows=list(rows))  # type: ignore[arg-type]

    # ------------------------------------------------------------------ #

    def _finish(
        self,
        idxs: list[int],
        outcome: dict[str, Any],
        config_dicts: list[dict],
        keys: list[str],
        resolve: Callable[[int, dict, bool, float | None], None],
    ) -> None:
        first = idxs[0]
        if self.store is not None:
            self.store.put(keys[first], config_dicts[first], outcome["metrics"])
        if self._tele_executed is not None:
            self._tele_executed.inc()
            if self._tele_exec_seconds is not None:
                self._tele_exec_seconds.inc(float(outcome["elapsed"]))
            if self._tele_dedup_hits is not None and len(idxs) > 1:
                self._tele_dedup_hits.inc(len(idxs) - 1)
        for i in idxs:
            resolve(i, dict(outcome["metrics"]), cached=i != first,
                    elapsed=outcome["elapsed"] if i == first else None)

    def _metrics_path(self, key: str) -> str | None:
        """Frame file for one executed point (hash-prefix name), or None."""
        if self.metrics_dir is None:
            return None
        return os.path.join(self.metrics_dir, key[:16] + ".jsonl")

    def _run_serial(self, order, config_dicts, keys, resolve) -> None:
        for idxs in order:
            outcome = self._execute_checked(
                config_dicts[idxs[0]], self._metrics_path(keys[idxs[0]])
            )
            self._finish(idxs, outcome, config_dicts, keys, resolve)

    def _run_pool(self, order, config_dicts, keys, resolve) -> None:
        with ProcessPoolExecutor(
            max_workers=self.processes, mp_context=_pool_context()
        ) as pool:
            futures = {
                pool.submit(
                    _execute,
                    config_dicts[idxs[0]],
                    self._metrics_path(keys[idxs[0]]),
                ): idxs
                for idxs in order
            }
            remaining = set(futures)
            while remaining:
                finished, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for fut in finished:
                    idxs = futures[fut]
                    try:
                        outcome = fut.result()
                    except Exception as exc:
                        name = config_dicts[idxs[0]].get("name") or idxs[0]
                        raise RuntimeError(
                            f"sweep point {name!r} failed: {exc}"
                        ) from exc
                    self._finish(idxs, outcome, config_dicts, keys, resolve)

    @staticmethod
    def _execute_checked(
        config_dict: dict[str, Any], metrics_path: str | None = None
    ) -> dict[str, Any]:
        try:
            return _execute(config_dict, metrics_path)
        except Exception as exc:
            name = config_dict.get("name") or "<unnamed>"
            raise RuntimeError(f"sweep point {name!r} failed: {exc}") from exc
