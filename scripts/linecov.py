"""Unreached function-body lines of ``src/repro``, two ways.

As an opt-in pytest plugin, for what the tests reach (run it from the
repository root)::

    python -m pytest -p scripts.linecov tests/test_harness.py

As a script, for what the program's entry points reach outside the tests::

    python scripts/linecov.py

The script runs, in one traced process, every entry point listed in
``ENTRIES`` below -- the ``python -m repro`` forms that the CI workflow,
``scripts/smoke.sh`` and the docs use, each ``examples/*.py``, every row of
``benchmarks/paper/run.py``, one ``benchmarks/perf/workloads.py``
``measure`` per workload at seed 0, a traced ``paper_suite`` and
``micro.run_micro`` -- prints the same report, and then checks each
function none of them entered against the keep table in
``docs/testing.md``: it exits 1 when one outside ``sim/par.py`` is not
named there with one of the reasons in ``KEEP_REASONS``, or when the
table names a function that no longer exists.

A stdlib line tracer (``sys.settrace`` and ``threading.settrace``) records
the lines each ``src/repro`` function executes while the tests run; the
terminal summary lists, per file, the function-body lines no test reached,
then each function no test entered as ``file:line name``, then one
``total: U / N function-body lines unreached (P %)`` line, which CI parses.
Module and class bodies run at import, mostly before the plugin starts, so
only function bodies (lambdas and comprehensions included) count.  The
tracer starts before pytest loads the initial conftests, so a function the
program calls while it is imported (a property factory in a class body,
say) counts as reached.  Lines that run in forked worker processes are not
seen.

The tracer slows a run roughly fourfold, so CI runs each mode as a job of
its own (``linecov`` and ``entry-reach`` in ``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import _thread
import contextlib
import importlib.util
import io
import json
import os
import re
import runpy
import sys
import tempfile
import threading
from collections import defaultdict
from pathlib import Path
from types import CodeType, FrameType
from typing import Any, Callable, Iterator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
_FUNCTION = 0x01 | 0x02  # CO_OPTIMIZED | CO_NEWLOCALS: a function's own frame

#: ``filename -> lines executed`` while the plugin was installed.
reached: dict[str, set[int]] = defaultdict(set)
_in_scope: dict[CodeType, bool] = {}
#: ``filename -> source`` as it was when the tracer first saw the file's
#: code run (its import), so that a file edited during a run is reported
#: by the lines its traced code has.
_sources: dict[str, str] = {}


def _local(frame: FrameType, event: str, arg: Any) -> Callable[..., Any]:
    if event == "line":
        reached[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _trace(frame: FrameType, event: str, arg: Any) -> Callable[..., Any] | None:
    code = frame.f_code
    scope = _in_scope.get(code)
    if scope is None:
        scope = _in_scope[code] = code.co_filename.startswith(str(SRC))
        if scope and code.co_filename not in _sources:
            _sources[code.co_filename] = Path(code.co_filename).read_text(encoding="utf-8")
    return _local if scope else None


def _compiled(path: Path) -> CodeType:
    """``path`` compiled from the source its traced code ran (as on disk
    now when none of it ran)."""
    source = _sources.get(str(path))
    if source is None:
        source = path.read_text(encoding="utf-8")
    return compile(source, str(path), "exec")


def _functions(code: CodeType) -> Iterator[CodeType]:
    """Every function code object compiled from a module, nested ones too."""
    for const in code.co_consts:
        if isinstance(const, CodeType):
            if const.co_flags & _FUNCTION == _FUNCTION:
                yield const
            yield from _functions(const)


def body_lines(code: CodeType) -> set[int]:
    """The lines a function's body executes (its ``def`` line excluded)."""
    return {line for _, _, line in code.co_lines() if line is not None} - {code.co_firstlineno}


def unreached() -> dict[str, tuple[list[int], int, list[tuple[int, str]]]]:
    """``relative path -> (unreached lines, body lines, functions never
    entered as (def line, qualified name))`` for every file of
    ``src/repro``."""
    report = {}
    for path in sorted(SRC.rglob("*.py")):
        module = _compiled(path)
        hit = reached.get(str(path), set())
        body: set[int] = set()
        never = []
        for fn in _functions(module):
            lines = body_lines(fn)
            body |= lines
            if lines and not lines & hit:
                never.append((fn.co_firstlineno, fn.co_qualname))
        report[str(path.relative_to(SRC.parent))] = (sorted(body - hit), len(body), never)
    return report


def _ranges(lines: list[int]) -> str:
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def pytest_load_initial_conftests(early_config: Any, parser: Any, args: Any) -> None:
    threading.settrace(_trace)
    sys.settrace(_trace)


def pytest_unconfigure(config: Any) -> None:
    sys.settrace(None)
    threading.settrace(None)  # type: ignore[arg-type]


def write_report(report: dict[str, tuple[list[int], int, list[tuple[int, str]]]],
                 write: Callable[[str], Any]) -> None:
    for path, (lines, total, never) in sorted(report.items(), key=lambda kv: -len(kv[1][0])):
        if lines:
            write(f"{path}: {len(lines)} / {total} ({len(never)} functions never entered): "
                  f"{_ranges(lines)}")
    for path, (_, _, never) in sorted(report.items()):
        for line, name in sorted(never):
            write(f"never entered: {path}:{line} {name}")
    missed = sum(len(lines) for lines, _, _ in report.values())
    total = sum(total for _, total, _ in report.values())
    write(f"total: {missed} / {total} function-body lines unreached "
          f"({100.0 * missed / max(total, 1):.1f} %)")


def pytest_terminal_summary(terminalreporter: Any) -> None:
    sys.settrace(None)
    terminalreporter.section("unreached function-body lines (scripts.linecov)")
    write_report(unreached(), terminalreporter.write_line)


# ---------------------------------------------------------------------- #
# Entry-point mode
# ---------------------------------------------------------------------- #

#: Why a function no entry point enters may stay (``docs/testing.md``).
KEEP_REASONS = (
    "safety",          # input checks, error exits and error handling
    "reference",       # the handle() path the tests compare against (REPRO_BATCH=0)
    "benchmark",       # a name a file under benchmarks/perf/ uses
    "shard worker",    # runs only in a forked shard worker
    "repro.testing",   # the property-testing library
    "test seam",       # what tests observe or drive a core through
    "debug repr",      # a __repr__
)
#: Not checked against the keep table: the sharded backend, which runs in
#: forked workers the tracer does not follow.
UNCHECKED = ("repro/sim/par.py",)
KEEP_TABLE = ROOT / "docs" / "testing.md"


def _cli(tmp: str, *argv: str) -> str:
    """Run ``python -m repro ARGV`` in this process; return its stdout.
    ``{tmp}`` in an argument is the run's scratch directory."""
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            main([arg.format(tmp=tmp) for arg in argv])
        except SystemExit:
            pass
    return out.getvalue()


def _cli_forms(tmp: str) -> None:
    """The ``python -m repro`` forms of the CI workflow, ``scripts/smoke.sh``
    and the docs, at small sizes."""
    store = ("--store", "{tmp}/store")
    for argv in (
        # scripts/smoke.sh and docs/sweeps.md
        ("sweep", "static_ring", "--set", "n=6", "horizon=20", "--seeds", "2",
         "--processes", "2", *store, "--quiet", "--json"),
        ("sweep", "static_ring", "--set", "n=6", "horizon=20", "--seeds", "2", *store,
         "--quiet", "--json"),
        ("sweep", "static_path", "--set", "n=6", "horizon=20", "--grid",
         "delay_spec=max,half", *store, "--quiet", "--json"),
        ("sweep", "static_path", "--set", "n=6", "horizon=20", "adversary=drift",
         "--grid", "clock_spec=split,uniform", *store, "--quiet", "--json"),
        ("sweep", "large_ring", "--grid", "n=8,12", "--set", "horizon=30", *store),
        ("sweep", "static_ring", "--set", "horizon=20", "--zip", "n=6,8", "seed=1,2",
         "--csv", "{tmp}/rows.csv", *store),
        ("sweep", "greedy_topology", "--set", "n=8", "horizon=40", "--seeds", "2",
         "--metrics-dir", "{tmp}/metrics-dir", *store),
        ("top", "{tmp}/metrics-dir"),
        ("ls", *store),
        ("ls", *store, "--json"),
        ("live", "--workload", "live_ring", "--duration", "1", "--set",
         "sample_interval=0.2", "--json"),
        ("live", "--workload", "live_churn_ring", "--set", "n=16", "channel=udp",
         "--duration", "1"),
        ("live", "--workload", "live_ring", "--duration", "1", "--metrics",
         "{tmp}/live.jsonl", "--stats"),
        ("live", "--workload", "live_ring", "--set", "jitter=0.001", "--duration", "1"),
        ("live", "--workload", "live_churn_ring", "--set", "n=16", "--duration", "1",
         "--trace-out", "{tmp}/live-trace.json"),
        ("run", "large_ring", "--set", "n=16", "horizon=30", "--metrics",
         "{tmp}/m.jsonl", "--stats"),
        ("top", "{tmp}/m.jsonl"),
        ("run", "static_ring", "--set", "n=8", "horizon=60", "seed=3", "--trace-out",
         "{tmp}/trace.json", "--json"),
        ("run", "flapping_edges", "--set", "n=16", "horizon=30", "--trace-out",
         "{tmp}/trace-churn.json"),
        ("explain", "adversarial_delay", "--set", "n=8", "horizon=120", "seed=1",
         "--bound-scale", "0.3", "--max-reports", "1", "--json"),
        ("explain", "adversarial_delay", "--set", "n=8", "horizon=120", "seed=1",
         "--bound-scale", "0.3"),
        ("run", "large_ring", "--set", "n=16", "horizon=30", "--bundle", "{tmp}/bundle",
         *store, "--json"),
        ("run", "large_ring", "--set", "n=16", "horizon=30", "seed=1", "--bundle",
         "{tmp}/bundle-1", *store),
        ("report", "{tmp}/bundle", "-o", "{tmp}/report.html"),
        ("history", *store),
        ("run", "flapping_edges", "--set", "n=16", "horizon=30", "oracle=true",
         "--bundle", "{tmp}/bundle-churn", *store, "--json"),
        ("check", "static_ring", "--set", "n=6", "horizon=20"),
        ("check", "static_ring", "--set", "n=6", "horizon=20", "--bound-scale", "0.01"),
        ("check", "greedy_topology", "--set", "n=16", "horizon=300"),
        ("check", "large_ring", "--set", "n=64", "horizon=600", "--json"),
        ("check", "static_path", "--set", "n=6", "horizon=20", "--fuzz", "2"),
        # CI's kernel smokes, at small sizes
        ("run", "huge_ring", "--set", "n=512", "horizon=30", "sample_interval=5", "--json"),
        ("run", "huge_sync_ring", "--set", "n=4096", "horizon=6", "sample_interval=1",
         "--json"),
        ("run", "huge_sync_ring", "--set", "n=2048", "horizon=6", "sample_interval=1",
         "--trace-out", "{tmp}/t.json", "--json"),
        ("run", "huge_sync_ring", "--set", "n=4096", "horizon=6", "sample_interval=1",
         "--shards", "2", "--json"),
        ("run", "huge_sync_ring", "--set", "n=2048", "horizon=6", "sample_interval=1",
         "churn=edge_flapper", "n_flappers=128", "up=0.3", "down=0.3", "--json"),
        ("run", "mobile_network", "--set", "n=32", "horizon=100", "--json"),
        ("run", "adversarial_drift", "--set", "n=32", "horizon=100", "--json"),
        ("run", "static_path", "--set", "n=32", "horizon=100", "oracle=true", "--json"),
        # docs/performance.md
        ("run", "huge_ring", "--set", "n=512", "horizon=10", "--profile"),
        ("run", "huge_sync_ring", "--set", "n=4096", "horizon=3", "--shards", "2"),
    ):
        _cli(tmp, *argv)
    # `repro show` and `repro diff` take ids the commands above printed.
    (entry, *_) = json.loads(_cli(tmp, "ls", *store, "--json"))["entries"]
    _cli(tmp, "show", entry["hash"][:8], *store)
    records = json.loads(_cli(tmp, "history", *store, "--json"))
    run_a, run_b = (record["run_id"][:8] for record in records["records"][:2])
    _cli(tmp, "diff", run_a, run_b, *store)
    _cli(tmp, "diff", run_a, run_b, *store, "--json")
    # `repro top --follow` tails until interrupted: stop it after a second.
    timer = threading.Timer(1.0, _thread.interrupt_main)
    timer.start()
    _cli(tmp, "top", "{tmp}/m.jsonl", "--follow", "--interval", "0.2")
    timer.join()


def _examples(tmp: str) -> None:
    for path in sorted((ROOT / "examples").glob("*.py")):
        argv, sys.argv = sys.argv, [str(path)]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(path), run_name="__main__")
        finally:
            sys.argv = argv


def _load(path: Path, name: str) -> Any:
    spec = importlib.util.spec_from_file_location(name, path)
    assert spec is not None and spec.loader is not None
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _paper_rows(tmp: str) -> None:
    _load(ROOT / "benchmarks" / "paper" / "run.py", "paper_run").run_rows()


def _perf(tmp: str) -> None:
    perf = ROOT / "benchmarks" / "perf"
    sys.path.insert(0, str(perf))
    workloads = _load(perf / "workloads.py", "workloads")
    for workload in workloads.WORKLOADS.values():
        workloads.measure(workload, 0, trace=False)
    workloads.measure(workloads.WORKLOADS["paper_suite"], 0, trace=True)
    _load(perf / "micro.py", "micro").run_micro()


#: Every entry point the script traces, in the order it runs them.
ENTRIES: tuple[tuple[str, Callable[[str], None]], ...] = (
    ("python -m repro", _cli_forms),
    ("examples/*.py", _examples),
    ("benchmarks/paper/run.py rows", _paper_rows),
    ("benchmarks/perf measure, traced paper_suite, run_micro", _perf),
)


def keep_table(path: Path = KEEP_TABLE) -> dict[str, str]:
    """``"file qualname" -> reason`` from the keep table's rows, which read
    ``| `repro/…/file.py` | `Qualified.name` | reason |``."""
    row = re.compile(r"^\| `(repro/[\w/]+\.py)` \| `([\w.<>]+)` \| ([^|]+?) \|$", re.M)
    return {f"{file} {name}": reason for file, name, reason in
            row.findall(path.read_text(encoding="utf-8"))}


def check_keep(report: dict[str, tuple[list[int], int, list[tuple[int, str]]]],
               keep: dict[str, str]) -> list[str]:
    """The problems between the never-entered functions and the keep table."""
    problems = [f"bad reason: {key}: {reason!r}" for key, reason in sorted(keep.items())
                if reason not in KEEP_REASONS]
    functions = set()
    for path, (_, _, never) in sorted(report.items()):
        for line, name in sorted(never):
            key = f"{path} {name}"
            functions.add(key)
            if path not in UNCHECKED and key not in keep:
                problems.append(f"not kept: {path}:{line} {name}")
    for path in sorted(report):
        module = _compiled(SRC.parent / path)
        functions.update(f"{path} {fn.co_qualname}" for fn in _functions(module))
    problems += [f"no such function: {key}" for key in sorted(keep) if key not in functions]
    return problems


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(SRC.parent))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))
    threading.settrace(_trace)
    sys.settrace(_trace)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for label, entry in ENTRIES:
                print(f"== {label}", file=sys.stderr, flush=True)
                entry(tmp)
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]
    report = unreached()
    write_report(report, print)
    problems = check_keep(report, keep_table())
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
