"""Unreached function-body lines of ``src/repro``: an opt-in pytest plugin.

Run it from the repository root::

    python -m pytest -p scripts.linecov tests/test_harness.py

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

The tracer slows a run roughly fourfold, so CI runs it as a job of its
own (``linecov`` in ``.github/workflows/ci.yml``), which fails when the
total share rises above its level.
"""

from __future__ import annotations

import sys
import threading
from collections import defaultdict
from pathlib import Path
from types import CodeType, FrameType
from typing import Any, Callable, Iterator

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
_FUNCTION = 0x01 | 0x02  # CO_OPTIMIZED | CO_NEWLOCALS: a function's own frame

#: ``filename -> lines executed`` while the plugin was installed.
reached: dict[str, set[int]] = defaultdict(set)
_in_scope: dict[CodeType, bool] = {}


def _local(frame: FrameType, event: str, arg: Any) -> Callable[..., Any]:
    if event == "line":
        reached[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _trace(frame: FrameType, event: str, arg: Any) -> Callable[..., Any] | None:
    code = frame.f_code
    scope = _in_scope.get(code)
    if scope is None:
        scope = _in_scope[code] = code.co_filename.startswith(str(SRC))
    return _local if scope else None


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
        module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
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


def pytest_terminal_summary(terminalreporter: Any) -> None:
    sys.settrace(None)
    report = unreached()
    write = terminalreporter.write_line
    terminalreporter.section("unreached function-body lines (scripts.linecov)")
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
