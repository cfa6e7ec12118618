"""Tests for the skew observatory (repro.obs): timeline, bundles, ledger.

The load-bearing guarantees:

* **Neutrality** -- activating timeline capture leaves every
  deterministic run metric bit-identical (``test_kernel_parity.py`` runs
  every case and drawn config with it on): the recorder is an ambient
  observer like the sampler and tracer, drawing no RNG and scheduling
  nothing.
* **Schema** -- every assembled bundle validates against the versioned
  bundle schema, and the JSON embedded in a rendered report round-trips
  through the same validator (the HTML page *is* the machine-readable
  artifact).
* **Ledger** -- records are content-addressed (bit-identical reruns
  dedupe), resolvable by abbreviated id, and diffed direction-aware.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest
from test_kernel_parity import holds

from repro.cli import main
from repro.core import skew_bounds
from repro.harness import OracleRef, configs, run_experiment
from repro.obs import (
    BundleError,
    LedgerError,
    TimelineRecorder,
    active_timeline,
    append_record,
    assemble_bundle,
    deactivate_timeline,
    diff_records,
    find_record,
    ledger_record,
    load_bundle,
    read_ledger,
    render_report,
    timeline_session,
    validate_bundle,
    write_bundle,
)
from repro.obs.ledger import record_id


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _armed_config():
    cfg = configs.backbone_churn(8, horizon=40.0, seed=5)
    cfg.oracle = OracleRef("standard", {})
    return cfg


@pytest.fixture(scope="module")
def armed_run():
    """One oracle-armed run captured under an ambient timeline."""
    cfg = _armed_config()
    with timeline_session() as tl:
        result = run_experiment(cfg)
    return result, tl


@pytest.fixture(scope="module")
def bundle_doc(armed_run):
    result, tl = armed_run
    return assemble_bundle(
        result,
        kind="run",
        workload="backbone_churn",
        elapsed_seconds=0.25,
        timeline=tl,
        frames=None,
    )


# --------------------------------------------------------------------- #
# Timeline capture
# --------------------------------------------------------------------- #


class TestTimeline:
    def test_capture_follows_oracle_cadence(self, armed_run):
        result, tl = armed_run
        assert tl.bound
        assert tl.rows > 0
        doc = tl.to_dict()
        assert doc["v"] == 1
        assert doc["rows"] == tl.rows
        assert len(doc["columns"]["t"]) == doc["rows"]
        # Churn workload: topology events were mirrored.
        assert doc["events"]
        assert doc["events_dropped"] == 0
        # The envelope columns are populated while edges are live.
        margins = [m for m in doc["columns"]["envelope_margin"] if m is not None]
        assert margins
        # No violations in the unscaled run: every margin is nonnegative.
        assert min(margins) >= 0.0
        assert all(v == 0 for v in doc["columns"]["violations"])

    def test_envelope_columns_equal_an_own_pass_over_an_own_edge_table(
        self, monkeypatch
    ):
        """The row takes the envelope monitor's pass.  Computing the three
        columns the way the recorder used to -- its own mirror of the live
        edges, its own bounds and ``|dL|`` at every sample -- gives the
        same values bit for bit on the bundled churned run."""
        cfg = _armed_config()
        live: dict[tuple[int, int], float] = {}
        own: list[tuple[float, float, float]] = []
        edge_event, record = TimelineRecorder.edge_event, TimelineRecorder.record
        seed_edges = TimelineRecorder.seed_edges

        def mirroring_edge_event(self, time, u, v, added):
            key = (u, v) if u <= v else (v, u)
            if added:
                live[key] = time
            else:
                live.pop(key, None)
            edge_event(self, time, u, v, added)

        def mirroring_seed_edges(self, edges):
            live.update(((min(u, v), max(u, v)), 0.0) for u, v in edges)
            seed_edges(self, edges)

        def own_pass_then_record(self, t, clocks, estimates, **kwargs):
            index = {nid: k for k, nid in enumerate(self._node_ids)}
            eu = np.array([index[u] for u, _v in live], dtype=np.intp)
            ev = np.array([index[v] for _u, v in live], dtype=np.intp)
            ages = t - np.array(list(live.values()), dtype=np.float64)
            bounds = skew_bounds.dynamic_local_skew_batch(cfg.params, ages)
            observed = np.abs(clocks[eu] - clocks[ev])
            margins = bounds - observed
            k = int(np.argmin(margins))
            own.append((float(observed.max()), float(bounds[k]), float(margins[k])))
            record(self, t, clocks, estimates, **kwargs)

        monkeypatch.setattr(TimelineRecorder, "edge_event", mirroring_edge_event)
        monkeypatch.setattr(TimelineRecorder, "seed_edges", mirroring_seed_edges)
        monkeypatch.setattr(TimelineRecorder, "record", own_pass_then_record)
        with timeline_session() as tl:
            result = run_experiment(cfg)
        assert result.graph.event_times()  # the run was churned
        assert tl.stride == 1 and tl.rows == len(own) > 0
        assert np.array_equal(tl._rows[: tl.rows, 3:6], np.array(own))

    def test_field_rows_are_skew_vs_min(self, armed_run):
        _result, tl = armed_run
        doc = tl.to_dict()
        assert doc["field_nodes"] == sorted(doc["field_nodes"])
        for row in doc["field"]:
            assert len(row) == len(doc["field_nodes"])
            assert min(row) == 0.0  # skew relative to the min clock

    def test_stride_doubles_at_row_budget(self):
        tl = TimelineRecorder(row_budget=4)
        tl.bind([0, 1, 2, 3])
        clocks = np.zeros(4)
        for tick in range(32):
            tl.record(float(tick), clocks, None)
        assert tl.rows <= 4
        assert tl.stride > 1
        doc = tl.to_dict()
        ts = doc["columns"]["t"]
        # Decimation keeps an evenly-strided prefix of the samples.
        assert ts == sorted(ts)
        deltas = {ts[i + 1] - ts[i] for i in range(len(ts) - 1)}
        assert len(deltas) == 1
        # lmax_spread had no estimates: NaN sanitized to None, not NaN.
        assert all(v is None for v in doc["columns"]["lmax_spread"])
        assert not any(
            isinstance(v, float) and math.isnan(v)
            for v in doc["columns"]["lmax_spread"]
        )

    def test_field_budget_decimates_wide_networks(self):
        tl = TimelineRecorder(field_budget=8)
        tl.bind(list(range(100)))
        tl.record(0.0, np.arange(100, dtype=float), None)
        doc = tl.to_dict()
        assert len(doc["field_nodes"]) == 8
        assert doc["field_nodes"][0] == 0
        assert doc["field_nodes"][-1] == 99

    def test_event_budget_counts_overflow(self):
        tl = TimelineRecorder(event_budget=2)
        tl.bind([0, 1, 2, 3])
        for k in range(5):
            tl.edge_event(float(k), 0, 1 + (k % 3), True)
        assert len(tl.events) == 2
        assert tl.events_dropped == 3

    def test_bad_budgets_rejected(self):
        with pytest.raises(ValueError):
            TimelineRecorder(row_budget=2)
        with pytest.raises(ValueError):
            TimelineRecorder(row_budget=7)
        with pytest.raises(ValueError):
            TimelineRecorder(field_budget=0)

    def test_session_scopes_the_ambient_recorder(self):
        assert active_timeline() is None
        with timeline_session() as tl:
            assert active_timeline() is tl
        assert active_timeline() is None
        deactivate_timeline()  # idempotent

    def test_cli_failed_run_leaves_no_observer_active(
        self, capsys, tmp_path, monkeypatch
    ):
        """A run that raises under every observer flag tears all three down."""
        from repro.harness import runner
        from repro.telemetry import active_registry
        from repro.tracing import active_tracer

        def ambient():
            return active_tracer(), active_timeline(), active_registry()

        seen = []

        def exploding_run(cfg):
            seen.append(ambient())
            raise RuntimeError("boom mid-run")

        monkeypatch.setattr(runner, "run_experiment", exploding_run)
        metrics = tmp_path / "m.jsonl"
        code, _out, err = run_cli(
            capsys,
            "run", "static_path", "--set", "n=4", "horizon=5",
            "--metrics", str(metrics),
            "--trace-out", str(tmp_path / "t.json"),
            "--bundle", str(tmp_path / "bundle"),
            "--ledger", str(tmp_path / "ledger"),
        )
        assert code == 2 and "boom mid-run" in err
        assert len(seen) == 1 and None not in seen[0]
        assert ambient() == (None, None, None)
        # The flight recorder was closed too: its final frame is on disk.
        assert metrics.read_text(encoding="utf-8").endswith("\n")
        assert not (tmp_path / "bundle").exists()


# --------------------------------------------------------------------- #
# Bundles
# --------------------------------------------------------------------- #


class TestNeutrality:
    """Rows of ``test_kernel_parity.CASES``: every run there has capture on."""

    @pytest.mark.parametrize("workload", ["static_path", "backbone_churn", "adversarial_drift"])
    def test_metrics_identical_with_capture_on(self, workload):
        holds(f"golden_{workload}")

    def test_armed_run_identical_with_capture_on(self):
        holds("armed_backbone_churn")


class TestBundle:
    def test_assemble_validates(self, bundle_doc):
        validate_bundle(bundle_doc)  # assembly already validated; re-check
        run = bundle_doc["run"]
        assert run["workload"] == "backbone_churn"
        assert run["runtime"] == "sim"
        assert run["events_per_sec"] > 0
        assert bundle_doc["timeline"]["rows"] > 0
        assert bundle_doc["oracle"]["ok"] is True

    def test_write_load_roundtrip(self, bundle_doc, tmp_path):
        path = write_bundle(bundle_doc, str(tmp_path / "b"))
        assert path.endswith("bundle.json")
        # Both the directory and the file itself are accepted addresses.
        assert load_bundle(str(tmp_path / "b")) == bundle_doc
        assert load_bundle(path) == bundle_doc

    @pytest.mark.parametrize(
        "mutate,message",
        [
            (lambda d: d.pop("kind"), "kind"),
            (lambda d: d["run"].pop("config_hash"), "config_hash"),
            (lambda d: d["run"].update(n="eight"), "run.n"),
            (lambda d: d["oracle"].update(ok="yes"), "oracle.ok"),
            (lambda d: d["timeline"]["columns"]["t"].pop(), "timeline"),
            (lambda d: d.update(kind="demo"), "kind"),
        ],
    )
    def test_validator_rejects_malformed_documents(
        self, bundle_doc, mutate, message
    ):
        doc = json.loads(json.dumps(bundle_doc))
        mutate(doc)
        with pytest.raises(BundleError, match=message):
            validate_bundle(doc)

    def test_run_without_timeline_bundles_null_timeline(self):
        cfg = _armed_config()
        result = run_experiment(cfg)  # no ambient recorder active
        doc = assemble_bundle(result, workload="backbone_churn")
        assert doc["timeline"] is None
        assert doc["telemetry"] is None
        validate_bundle(doc)


# --------------------------------------------------------------------- #
# HTML observatory
# --------------------------------------------------------------------- #

_EMBED_RE = re.compile(
    r'<script type="application/json" id="bundle-data">(.*?)</script>', re.S
)

_SECTIONS = ("overview", "heatmap", "envelope", "telemetry", "violations")


def _extract_embedded(html: str) -> dict:
    match = _EMBED_RE.search(html)
    assert match, "no embedded bundle JSON"
    return json.loads(match.group(1))


class TestReport:
    def test_report_is_selfcontained_and_roundtrips(self, bundle_doc):
        html = render_report(bundle_doc)
        # Single file: no external scripts, stylesheets or images.
        assert "src=" not in html.replace("srcdoc", "")
        assert '<link rel="stylesheet"' not in html
        for section in _SECTIONS:
            assert f'id="{section}"' in html
        embedded = _extract_embedded(html)
        validate_bundle(embedded)
        assert embedded == bundle_doc

    def test_cli_clean_run_report(self, capsys, tmp_path):
        bundle = str(tmp_path / "bundle")
        code, _out, _err = run_cli(
            capsys,
            "run", "static_path", "--set", "n=8", "horizon=40",
            "--bundle", bundle, "--ledger", str(tmp_path / "ledger"),
        )
        assert code == 0
        out_html = str(tmp_path / "report.html")
        code, out, _err = run_cli(capsys, "report", bundle, "-o", out_html)
        assert code == 0
        assert "wrote" in out
        html = open(out_html, encoding="utf-8").read()
        embedded = _extract_embedded(html)
        validate_bundle(embedded)
        assert embedded == load_bundle(bundle)
        assert embedded["oracle"] is None  # plain run: no oracle attached
        for section in _SECTIONS:
            assert f'id="{section}"' in html

    def test_cli_violating_run_report(self, capsys, tmp_path):
        bundle = str(tmp_path / "bundle")
        code, _out, _err = run_cli(
            capsys,
            "check", "adversarial_delay",
            "--set", "n=8", "horizon=120", "seed=1",
            "--bound-scale", "0.3",
            "--bundle", bundle, "--ledger", str(tmp_path / "ledger"),
        )
        assert code == 1  # seeded run violates the tightened bounds
        code, _out, _err = run_cli(capsys, "report", bundle)
        assert code == 0
        html = open(str(tmp_path / "bundle" / "report.html"), encoding="utf-8").read()
        embedded = _extract_embedded(html)
        validate_bundle(embedded)
        assert embedded["oracle"]["ok"] is False
        assert embedded["oracle"]["violations"]
        assert embedded["timeline"]["rows"] > 0
        # The inline JS builds the per-violation anchors the envelope
        # chart deep-links to (rendered client-side, so assert the code).
        assert "renderViolations" in html
        assert "'v-'" in html

    def test_cli_report_rejects_garbage(self, capsys, tmp_path):
        missing = str(tmp_path / "nope")
        code, _out, err = run_cli(capsys, "report", missing)
        assert code == 2
        assert "error" in err
        bad = tmp_path / "bad.json"
        bad.write_text('{"not": "a bundle"}\n', encoding="utf-8")
        code, _out, err = run_cli(capsys, "report", str(bad))
        assert code == 2
        assert "error" in err


# --------------------------------------------------------------------- #
# Ledger
# --------------------------------------------------------------------- #


class TestLedger:
    def test_record_is_content_addressed(self, bundle_doc, tmp_path):
        root = str(tmp_path / "ledger")
        rec = ledger_record(bundle_doc, bundle_path="/tmp/b")
        assert rec["run_id"] == record_id(rec)
        rid = append_record(rec, root)
        # A bit-identical rerun dedupes onto the same file.
        rec2 = ledger_record(bundle_doc, bundle_path="/tmp/b")
        assert append_record(rec2, root) == rid
        records = read_ledger(root)
        assert len(records) == 1
        assert records[0]["workload"] == "backbone_churn"
        assert records[0]["oracle_ok"] is True
        assert records[0]["margin_envelope"] is not None
        assert records[0]["margin_time_envelope"] is not None

    def test_find_record_prefix_resolution(self, bundle_doc, tmp_path):
        root = str(tmp_path / "ledger")
        rec = ledger_record(bundle_doc)
        rid = append_record(rec, root)
        assert find_record(rid[:6], root)["run_id"] == rid
        with pytest.raises(LedgerError, match="no ledger record"):
            find_record("zzzz", root)
        other = dict(rec, seed=999)
        other["run_id"] = record_id(other)
        append_record(other, root)
        with pytest.raises(LedgerError, match="ambiguous"):
            find_record("", root)

    def test_diff_is_direction_aware(self, bundle_doc):
        a = ledger_record(bundle_doc)
        b = dict(a)
        b["events_per_sec"] = a["events_per_sec"] / 2  # slower: regression
        b["wall_seconds"] = a["wall_seconds"] / 2  # faster: improvement
        b["oracle_ok"] = False
        b["oracle_violations"] = 3
        # A margin that shrinks regresses; *when* it was tightest is context.
        for field in ("oracle_worst_margin", "margin_envelope"):
            b[field] = a[field] - 1.0
        b["margin_time_envelope"] = a["margin_time_envelope"] + 1.0
        b["recorded_unix"] = a["recorded_unix"] + 60.0
        rows = {r["field"]: r for r in diff_records(a, b)}
        assert rows["events_per_sec"]["verdict"] == "regression"
        assert rows["wall_seconds"]["verdict"] == "improvement"
        assert rows["oracle_ok"]["verdict"] == "regression"
        assert rows["oracle_violations"]["verdict"] == "regression"
        assert rows["oracle_worst_margin"]["verdict"] == "regression"
        assert rows["margin_envelope"]["verdict"] == "regression"
        assert rows["margin_time_envelope"]["verdict"] == "neutral"
        assert "recorded_unix" not in rows and "run_id" not in rows
        # Regressions sort first for the human reader.
        verdicts = [r["verdict"] for r in diff_records(a, b)]
        assert verdicts == sorted(
            verdicts,
            key=["regression", "improvement", "neutral"].index,
        )

    def test_cli_history_and_diff(self, capsys, tmp_path):
        ledger = str(tmp_path / "ledger")
        for seed in ("1", "2"):
            code, _out, _err = run_cli(
                capsys,
                "run", "static_path", "--set", "n=8", "horizon=40",
                f"seed={seed}",
                "--bundle", str(tmp_path / f"b{seed}"), "--ledger", ledger,
            )
            assert code == 0
        code, out, _err = run_cli(capsys, "history", "--ledger", ledger, "--json")
        assert code == 0
        records = json.loads(out)["records"]
        assert len(records) == 2
        ids = [r["run_id"] for r in records]
        code, out, _err = run_cli(
            capsys, "diff", ids[0][:8], ids[1][:8], "--ledger", ledger, "--json"
        )
        payload = json.loads(out)
        assert payload["a"] == ids[0] and payload["b"] == ids[1]
        assert code == (1 if payload["regressions"] else 0)
        # Text mode renders a table and the regression verdict line.
        code, out, _err = run_cli(capsys, "diff", ids[0], ids[1], "--ledger", ledger)
        assert "regression" in out
        code, out, _err = run_cli(
            capsys, "history", "--ledger", ledger, "--workload", "nope"
        )
        assert code == 0 and "no matching runs" in out

    def test_cli_history_empty_and_bad_prefix(self, capsys, tmp_path):
        ledger = str(tmp_path / "ledger")
        code, out, _err = run_cli(capsys, "history", "--ledger", ledger)
        assert code == 0 and "no matching runs" in out
        code, _out, err = run_cli(capsys, "diff", "aa", "bb", "--ledger", ledger)
        assert code == 2 and "error" in err

    def test_env_override_sets_default_root(self, monkeypatch, tmp_path):
        from repro.obs import default_ledger_root

        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "env-ledger"))
        assert default_ledger_root() == str(tmp_path / "env-ledger")


# --------------------------------------------------------------------- #
# Satellites: top guards and per-monitor margin times
# --------------------------------------------------------------------- #


class TestTopGuards:
    def test_counter_going_backwards_blanks_the_rate(self):
        from repro.telemetry.top import _rate

        prev = {"t_wall": 1.0, "counters": {"x": 100}}
        frame = {"t_wall": 2.0, "counters": {"x": 50}}
        assert _rate("x", frame, prev) is None
        frame["counters"]["x"] = 150
        assert _rate("x", frame, prev) == 50.0
        # Non-monotonic t_wall also blanks instead of dividing badly.
        assert _rate("x", {"t_wall": 0.5, "counters": {"x": 150}}, prev) is None

    def test_cli_top_renders_sweep_metrics_dir(self, capsys, tmp_path):
        metrics_dir = str(tmp_path / "metrics")
        code, _out, _err = run_cli(
            capsys,
            "sweep", "static_path", "--set", "horizon=20",
            "--grid", "n=4,6", "--quiet",
            "--metrics-dir", metrics_dir, "--store", str(tmp_path / "store"),
        )
        assert code == 0
        code, out, _err = run_cli(capsys, "top", metrics_dir)
        assert code == 0
        assert "sweep telemetry" in out
        assert "2 points" in out
        assert "events/s" in out

    def test_cli_top_directory_errors(self, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _out, err = run_cli(capsys, "top", str(empty))
        assert code == 1 and "no metrics files" in err
        code, _out, err = run_cli(capsys, "top", str(empty), "--follow")
        assert code == 2 and "--follow" in err


class TestWorstMarginTime:
    def test_to_metrics_reports_when_margins_tightened(self, armed_run):
        result, _tl = armed_run
        report = result.oracle_report
        assert report is not None
        metrics = report.to_metrics()
        for name, summary in report.monitors.items():
            key = f"oracle_{name}_worst_margin_time"
            assert key in metrics
            assert metrics[key] == summary.worst_margin_time
            if summary.worst_margin is not None:
                assert summary.worst_margin_time is not None
                assert 0.0 <= summary.worst_margin_time <= 40.0
