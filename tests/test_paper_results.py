"""Tests for ``benchmarks/paper/run.py`` and its checked-in artifact.

The artifact is the reproduction's result: every row a claim of the paper
with ``measured / bound``, regenerated and compared *exactly*.  Tier-1
pins its schema, that every claim held, that ``docs/reproduction.md`` is
the generator's output, and regenerates a fast subset of the table; the
full ``--check`` is slow-marked (CI runs it as its own step too).
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro import SystemParams

_RUN = Path(__file__).resolve().parents[1] / "benchmarks" / "paper" / "run.py"
_spec = importlib.util.spec_from_file_location("paper_run", _RUN)
assert _spec is not None and _spec.loader is not None
paper = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = paper  # dataclasses resolve annotations through it
_spec.loader.exec_module(paper)

#: Field -> admissible types, in artifact order.
ROW_SCHEMA = {
    "claim": (str,),
    "experiment": (str,),
    "workload": (str,),
    "n": (int,),
    "seed": (int, type(None)),
    "bound": (float,),
    "measured": (float,),
    "ratio": (float,),
    "held": (bool,),
}
#: About 3 s of the table's 30.
FAST = ("masking", "max_propagation", "local_skew", "ablations")


@pytest.fixture(scope="module")
def artifact() -> dict:
    return json.loads(paper.ARTIFACT.read_text(encoding="utf-8"))


def _narrow(monkeypatch, names):
    table = {name: paper.EXPERIMENTS[name] for name in names}
    monkeypatch.setattr(paper, "EXPERIMENTS", table)


def test_artifact_schema_and_every_claim_held(artifact):
    assert set(artifact) == {"host", "rows"}
    assert set(artifact["host"]) == set(paper.host_fingerprint())
    for row in artifact["rows"]:
        assert list(row) == list(ROW_SCHEMA), row
        for field, types in ROW_SCHEMA.items():
            assert type(row[field]) in types, (field, row)
        assert row["ratio"] == row["measured"] / row["bound"]
        assert row["held"] is True, row


def test_every_experiment_of_the_table_is_in_the_artifact(artifact):
    present = list(dict.fromkeys(row["experiment"] for row in artifact["rows"]))
    assert present == list(paper.EXPERIMENTS)
    assert all(fn.__doc__ for fn in paper.EXPERIMENTS.values())


def test_reproduction_doc_is_the_generators_output(artifact):
    assert paper.DOC.read_text(encoding="utf-8") == paper.render_doc(artifact)


def test_fast_subset_regenerates_exactly(artifact, monkeypatch):
    _narrow(monkeypatch, FAST)
    expected = [row for row in artifact["rows"] if row["experiment"] in FAST]
    assert paper.run_rows() == expected


def test_check_names_the_first_row_a_moved_constant_changes(monkeypatch, capsys):
    """B0 a quarter larger: Lemma 4.2's rows do not move, Theorem 6.12's
    first row does, and ``--check`` exits 1 naming it."""
    derive = SystemParams.for_network.__func__

    def widened(cls, n, **kwargs):
        params = derive(cls, n, **kwargs)
        if kwargs.get("b0") is not None:
            return params
        return params.with_b0(1.25 * params.b0)

    monkeypatch.setattr(SystemParams, "for_network", classmethod(widened))
    _narrow(monkeypatch, ("masking", "local_skew"))
    assert paper.main(["--check"]) == 1
    err = capsys.readouterr().err
    assert "row 7 differs" in err
    artifact_line, regenerated_line = err.splitlines()[1:3]
    old = json.loads(artifact_line.split(":", 1)[1])
    new = json.loads(regenerated_line.split(":", 1)[1])
    assert old["claim"] == new["claim"] == "Thm 6.12: stable-edge skew <= s_bar(n)"
    assert new["bound"] > old["bound"] and new["measured"] == old["measured"]


@pytest.mark.slow
def test_full_check_passes(capsys):
    assert paper.main(["--check"]) == 0
    assert "rows equal" in capsys.readouterr().out
