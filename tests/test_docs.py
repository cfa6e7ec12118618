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


def _tracked_files(root: Path) -> list[Path]:
    return [
        p
        for p in root.rglob("*")
        if p.is_file() and not SKIP_DIRS.intersection(p.relative_to(root).parts)
    ]


def _resolves(token: str, kind: str, source: Path, names: set[str], root: Path) -> bool:
    if "/" not in token:
        # A bare ``*.json`` is a run-time output (``trace.json``), not a
        # citation; the driver's files come and go between PRs.
        return kind == "json" or token in names or token in EXEMPT
    if kind == "json" and not (root / token.split("/", 1)[0]).is_dir():
        return True
    bases = (root, root / "src", root / "src" / "repro", source.parent)
    return any((base / token).exists() for base in bases)


def _dangling(root: Path) -> dict[str, list[str]]:
    """Every cited-but-missing file under ``root`` -> the files citing it."""
    owned = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))["paths"]
    files = _tracked_files(root)
    names = {p.name for p in files}
    dangling: dict[str, list[str]] = {}
    for path in files:
        rel = path.relative_to(root).as_posix()
        if path.suffix not in (".py", ".md") or path.name in EXEMPT:
            continue
        if any(rel.startswith(prefix) for prefix in owned):
            continue
        for match in TOKEN.finditer(path.read_text(encoding="utf-8")):
            token, kind = match.groups()
            if not _resolves(token, kind, path, names, root):
                dangling.setdefault(token, []).append(rel)
    return dangling


def test_every_named_file_exists():
    assert not _dangling(ROOT)


def test_exempt_names_resolve_in_a_tree_without_them(tmp_path):
    """Between PRs the driver-owned ``ISSUE.md`` is absent, while this file
    still names it: an exempt name is never a dangling citation."""
    gone = "docs/gone" + ".md"  # spelled so that this file cites nothing missing
    (tmp_path / "BENCHMARK.json").write_text('{"paths": []}', encoding="utf-8")
    (tmp_path / "conftest.py").write_text(f"EXEMPT = {sorted(EXEMPT)}\n", encoding="utf-8")
    (tmp_path / "README.md").write_text(
        f"See ISSUE.md, conftest.py and {gone}.", encoding="utf-8"
    )
    assert _dangling(tmp_path) == {gone: ["README.md"]}
