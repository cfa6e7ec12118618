"""No source file or doc may name a file that does not exist.

Docstrings and docs cite each other by path (``docs/reproduction.md``,
``core/batch.py``, ``tests/test_telemetry.py``); a deleted or never-written
target is a dangling citation nobody notices.  Exempt: the driver's own files
(ROADMAP / CHANGES / ISSUE, which narrate history), the retrieved reference
material (PAPERS / SNIPPETS cite other repositories) and the benchmark-owned
paths of ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXEMPT = {"ROADMAP.md", "CHANGES.md", "ISSUE.md", "PAPERS.md", "SNIPPETS.md"}
SKIP_DIRS = {".git", ".pytest_cache", ".hypothesis", "__pycache__"}
#: A path-like token ending in a source or doc extension, not preceded by
#: ``/`` (absolute paths such as ``/tmp/t.json`` are run-time outputs).
TOKEN = re.compile(
    r"(?<![\w/.-])((?:[\w.-]+/)*[\w-]+\.(py|md|sh|yml|toml|json))(?![\w/-])"
)


def _tracked_files() -> list[Path]:
    return [
        p
        for p in ROOT.rglob("*")
        if p.is_file() and not SKIP_DIRS.intersection(p.parts)
    ]


def _resolves(token: str, kind: str, source: Path, names: set[str]) -> bool:
    if "/" not in token:
        # A bare ``*.json`` is a run-time output (``trace.json``), not a citation.
        return kind == "json" or token in names
    if kind == "json" and not (ROOT / token.split("/", 1)[0]).is_dir():
        return True
    bases = (ROOT, ROOT / "src", ROOT / "src" / "repro", source.parent)
    return any((base / token).exists() for base in bases)


def test_every_named_file_exists():
    owned = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["paths"]
    files = _tracked_files()
    names = {p.name for p in files}
    dangling: dict[str, list[str]] = {}
    for path in files:
        rel = path.relative_to(ROOT).as_posix()
        if path.suffix not in (".py", ".md") or path.name in EXEMPT:
            continue
        if any(rel.startswith(prefix) for prefix in owned):
            continue
        for match in TOKEN.finditer(path.read_text(encoding="utf-8")):
            token, kind = match.groups()
            if not _resolves(token, kind, path, names):
                dangling.setdefault(token, []).append(rel)
    assert not dangling, dangling
