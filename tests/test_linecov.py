"""``scripts/linecov.py`` reports a traced run by the source that ran."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    return spec, module


def test_a_file_edited_after_its_import_is_reported_by_the_code_that_ran(
    tmp_path, monkeypatch
):
    """A function entered before its file's lines shift (a docstring edit
    mid-run) still reads as entered, and the keep table check agrees."""
    spec, linecov = _load(ROOT / "scripts" / "linecov.py", "linecov_under_test")
    spec.loader.exec_module(linecov)  # its own reached / source tables
    src = tmp_path / "repro"
    src.mkdir()
    monkeypatch.setattr(linecov, "SRC", src)
    path = (src / "mod").with_suffix(".py")
    rel = path.relative_to(tmp_path).as_posix()
    path.write_text("def entered():\n    x = 1\n    return x\n\n\ndef idle():\n    return 2\n")
    spec, probe = _load(path, "linecov_probe")
    previous = sys.gettrace()
    sys.settrace(linecov._trace)
    try:
        spec.loader.exec_module(probe)
        probe.entered()
    finally:
        sys.settrace(previous)
    path.write_text('"""Five lines\nof docstring\nshift\nevery line."""\n\n' + path.read_text())

    report = linecov.unreached()
    lines, total, never = report[rel]
    assert [name for _, name in never] == ["idle"]
    assert (lines, total) == ([7], 3)
    assert linecov.check_keep(report, {f"{rel} idle": "safety"}) == []
