"""Tests for the skew observatory (repro.obs): timeline, bundles, run rows.

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
* **Run rows** -- a bundled run keeps its ``run`` block in the one result
  store, content-addressed (bit-identical reruns dedupe, a timed row
  never serves a sweep point), resolvable by abbreviated id, and diffed
  direction-aware.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from graph_listeners import ListenerModel
from test_kernel_parity import holds

import repro
from repro.cli import main
from repro.core import skew_bounds
from repro.harness import OracleRef, configs, run_experiment
from repro.network.graph import DynamicGraph
from repro.obs import (
    BundleError,
    TimelineRecorder,
    active_timeline,
    assemble_bundle,
    deactivate_timeline,
    diff_records,
    load_bundle,
    render_report,
    timeline_session,
    validate_bundle,
    write_bundle,
)
from repro.tracing import trace_session
from repro.tracing.spans import SPAN_FLIGHT
from repro.oracle import MONITOR_FACTORIES, StreamingOracle
from repro.sweep import ResultStore, config_hash, summarize_run


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
        # Churn workload: the topology events are the graph's history.
        assert doc["events"] == [
            [t, u, v, int(added)] for t, u, v, added in result.graph.event_history()
        ]
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
        edges (a graph listener subscribed where the oracle takes the
        graph), its own bounds and ``|dL|`` at every sample -- gives the
        same values bit for bit on the bundled churned run."""
        cfg = _armed_config()
        mirror: list[ListenerModel] = []
        own: list[tuple[float, float, float]] = []
        attach_graph, record = StreamingOracle.attach_graph, TimelineRecorder.record

        def mirroring_attach_graph(self, graph):
            mirror.append(ListenerModel(graph))
            attach_graph(self, graph)

        def own_pass_then_record(self, t, clocks, estimates, **kwargs):
            index = {nid: k for k, nid in enumerate(self._node_ids)}
            live = mirror[0].live_edges()
            eu = np.array([index[u] for u, _v, _a in live], dtype=np.intp)
            ev = np.array([index[v] for _u, v, _a in live], dtype=np.intp)
            ages = t - np.array([a for *_, a in live], dtype=np.float64)
            bounds = skew_bounds.dynamic_local_skew_batch(cfg.params, ages)
            observed = np.abs(clocks[eu] - clocks[ev])
            margins = bounds - observed
            k = int(np.argmin(margins))
            own.append((float(observed.max()), float(bounds[k]), float(margins[k])))
            record(self, t, clocks, estimates, **kwargs)

        monkeypatch.setattr(StreamingOracle, "attach_graph", mirroring_attach_graph)
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

    @pytest.mark.parametrize(
        "n,budget", [(2, 1), (9, 8), (100, 8), (129, 128), (1000, 999), (4096, 128), (10**5, 77)]
    )
    def test_field_selection_is_np_unique_of_the_grid(self, n, budget):
        tl = TimelineRecorder(field_budget=budget)
        tl.bind(list(range(n)))
        grid = np.linspace(0, n - 1, budget).round().astype(np.intp)
        assert np.array_equal(tl._field_sel, np.unique(grid))

    def test_an_observed_run_leaves_numpy_ma_unimported(self):
        """``np.unique``'s first call imports ``numpy.ma`` (milliseconds
        inside a run); an observed wide run reaches none of it."""
        script = (
            "import sys\n"
            "from repro.harness import configs, run_experiment\n"
            "from repro.obs import timeline_session\n"
            "from repro.telemetry.registry import get_registry\n"
            "from repro.tracing import trace_session\n"
            "get_registry().enable()\n"
            "with trace_session(), timeline_session() as tl:\n"
            "    run_experiment(configs.huge_sync_ring(256, horizon=3.0, sample_interval=0.25))\n"
            "assert len(tl.to_dict()['field_nodes']) < 256\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            check=True,
        )
        assert out.stdout.split() == ["False"]

    def test_event_budget_counts_overflow(self):
        tl = TimelineRecorder(event_budget=2)
        g = DynamicGraph(range(4))
        tl.bind([0, 1, 2, 3], g)
        g.add_edge(3, 0, 0.0)
        g.add_edge(2, 0, 0.0)  # same instant: (u, v) order, not arrival
        g.add_edge(0, 1, 1.0)
        g.remove_edge(0, 3, 2.0)
        g.add_edge(3, 0, 3.0)
        doc = tl.to_dict()
        assert doc["events"] == [[0.0, 0, 2, 1], [0.0, 0, 3, 1]]
        assert doc["events_dropped"] == 3
        with pytest.raises(ValueError, match="event_budget"):
            TimelineRecorder(event_budget=-1)

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
            "--store", str(tmp_path / "store"),
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
            (lambda d: d.update(bundle_version=99), "bundle_version: expected 1"),
            (lambda d: d.update(version=1), "version: expected a string"),
            (lambda d: d.update(causes={}), "causes: expected a list"),
            (lambda d: d.update(run=[]), "run: expected an object"),
            (lambda d: d["run"].update(workload=5), "run.workload: expected a string or null"),
            (lambda d: d["run"].update(algorithm=5), "run.algorithm: expected a string"),
            (lambda d: d["run"].update(horizon="x"), "run.horizon: expected a number"),
            (lambda d: d["run"].update(transport=[]), "run.transport: expected an object"),
            (lambda d: d["run"]["transport"].update(sent="x"), "run.transport.'sent'.: expected"),
            (lambda d: d.update(oracle=[]), "oracle: expected an object or null"),
            (lambda d: d["oracle"].pop("checks"), "oracle: missing key 'checks'"),
            (lambda d: d["oracle"].update(checks="x"), "oracle.checks: expected an integer"),
            (lambda d: d["oracle"].update(monitors=[]), "oracle.monitors: expected an object"),
            (lambda d: d["oracle"].update(monitors={"m": []}), "monitors.'m'.: expected an object"),
            (
                lambda d: d["oracle"].update(monitors={"m": {"checks": "x", "violations": 0}}),
                "monitors.'m'..checks: expected an integer",
            ),
            (lambda d: d["oracle"].update(violations={}), "oracle.violations: expected a list"),
            (lambda d: d["oracle"].update(violations=[1]), "violations.0.: expected an object"),
            (lambda d: d["oracle"].update(violations=[{}]), "violations.0.: missing key 'monitor'"),
            (lambda d: d.update(timeline=[]), "timeline: expected an object or null"),
            (lambda d: d["timeline"].pop("stride"), "timeline: missing key 'stride'"),
            (lambda d: d["timeline"].update(rows="x"), "timeline.rows: expected an integer"),
            (lambda d: d["timeline"].update(columns={}), "timeline.columns: expected an object"),
            (lambda d: d["timeline"].update(field="x"), "timeline.field: expected"),
            (
                lambda d: d["timeline"].update(field=[[] for _ in d["timeline"]["field"]]),
                r"timeline.field.0.: expected",
            ),
            (lambda d: d["timeline"].update(events={}), "timeline.events: expected a list"),
            (lambda d: d.update(telemetry=[]), "telemetry: expected an object"),
            (lambda d: d.update(telemetry={"frames": {}}), "telemetry.frames: expected a list"),
            (lambda d: d.update(telemetry={"frames": [{}]}), r"telemetry.frames.0.: frame is missing"),
            (lambda d: d.update(trace=[]), "trace: expected an object or null"),
            (lambda d: d.update(trace={"spans": 1}), "trace: missing key 'dropped'"),
            (
                lambda d: d.update(trace={"spans": 1, "dropped": 0, "kinds": []}),
                "trace.kinds: expected an object",
            ),
            (
                lambda d: d.update(trace={"spans": 1, "dropped": 0, "kinds": {"flight": "x"}}),
                "trace.kinds.'flight'.: expected an integer",
            ),
        ],
    )
    def test_validator_rejects_malformed_documents(
        self, bundle_doc, mutate, message
    ):
        doc = json.loads(json.dumps(bundle_doc))
        mutate(doc)
        with pytest.raises(BundleError, match=message):
            validate_bundle(doc)

    def test_a_bundle_is_an_object(self):
        with pytest.raises(BundleError, match="bundle: expected an object, got list"):
            validate_bundle([])

    def test_traced_run_bundles_its_span_counts(self):
        with trace_session():
            result = run_experiment(configs.static_ring(6, horizon=10.0))
        trace = assemble_bundle(result, workload="static_ring")["trace"]
        assert trace["spans"] == len(result.spans) > 0
        assert trace["dropped"] == 0
        assert sum(trace["kinds"].values()) == trace["spans"]
        assert trace["kinds"]["flight"] == result.spans.kind_counts[SPAN_FLIGHT]

    def test_a_failed_write_leaves_no_temporary_file(self, tmp_path, bundle_doc):
        with pytest.raises(TypeError):
            write_bundle({"bad": object()}, str(tmp_path / "b"))
        assert list((tmp_path / "b").iterdir()) == []
        # A failed overwrite keeps the bundle that was there.
        path = write_bundle(bundle_doc, str(tmp_path / "b"))
        with pytest.raises(TypeError):
            write_bundle({"bad": object()}, str(tmp_path / "b"))
        assert list((tmp_path / "b").iterdir()) == [Path(path)]
        assert load_bundle(path) == bundle_doc

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
            "--bundle", bundle, "--store", str(tmp_path / "store"),
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
            "--bundle", bundle, "--store", str(tmp_path / "store"),
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

    def test_cli_report_paths(self, capsys, tmp_path, bundle_doc):
        path = write_bundle(bundle_doc, str(tmp_path / "b"))
        code, out, _err = run_cli(capsys, "report", path)  # the file, not its directory
        assert code == 0
        assert out.startswith(f"wrote {tmp_path / 'b' / 'report.html'} (")
        code, _out, err = run_cli(
            capsys, "report", path, "-o", str(tmp_path / "missing" / "r.html")
        )
        assert code == 2 and "error" in err


# --------------------------------------------------------------------- #
# Run rows in the one store
# --------------------------------------------------------------------- #


def _row(bundle_doc, **changes):
    return dict(bundle_doc["run"], bundle_path="/tmp/b", **changes)


class TestLedger:
    def test_record_is_content_addressed(self, bundle_doc, armed_run, tmp_path):
        store = ResultStore(tmp_path / "store")
        config = armed_run[0].config.to_dict()
        key = store.put_run(config, _row(bundle_doc))
        # A bit-identical rerun dedupes onto the same entry; the stamp is
        # not part of the address.
        assert store.put_run(config, _row(bundle_doc)) == key
        assert store.keys() == [key] and key != config_hash(config)
        (entry,) = store.runs()
        row = entry["metrics"]
        assert row["workload"] == "backbone_churn" and row["kind"] == "run"
        assert row["oracle_ok"] is True
        assert row["oracle_envelope_worst_margin"] is not None
        assert row["oracle_envelope_worst_margin_time"] is not None
        assert key == config_hash({k: v for k, v in row.items() if k != "recorded_unix"})
        # Any change in outcome mints a new entry.
        assert store.put_run(config, _row(bundle_doc, jumps=-1)) != key
        assert len(store.runs()) == 2

    def test_the_run_block_is_summarize_runs_row(self, bundle_doc, armed_run):
        result, _tl = armed_run
        row = summarize_run(result)
        assert {k: bundle_doc["run"][k] for k in row} == row
        assert set(bundle_doc["run"]) - set(row) == {
            "workload", "name", "algorithm", "runtime", "n", "seed", "horizon",
            "config_hash", "kind", "elapsed_seconds", "events_per_sec", "transport",
        }

    def test_a_timed_row_never_serves_a_sweep_point(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        sweep = (
            "sweep", "static_ring", "--set", "n=6", "horizon=20", "--seeds", "2",
            "--store", store, "--json",
        )
        code, out, _err = run_cli(capsys, *sweep)
        assert code == 0 and json.loads(out)["executed"] == 2
        code, _out, _err = run_cli(
            capsys, "run", "static_ring", "--set", "n=6", "horizon=20", "seed=0",
            "--bundle", str(tmp_path / "b"), "--store", store,
        )
        assert code == 0
        code, out, _err = run_cli(capsys, "history", "--store", store, "--json")
        (record,) = json.loads(out)["records"]
        assert record["kind"] == "run" and record["seed"] == 0
        assert record["bundle_path"] == str(tmp_path / "b")
        assert len(ResultStore(store).keys()) == 3
        code, out, _err = run_cli(capsys, *sweep)
        payload = json.loads(out)
        assert (payload["executed"], payload["cached"]) == (0, 2)
        assert all(row.get("elapsed_seconds") is None for row in payload["rows"])

    def test_diff_is_direction_aware(self, bundle_doc):
        a = _row(bundle_doc, recorded_unix=1.0)
        b = dict(a)
        b["events_per_sec"] = a["events_per_sec"] / 2  # slower: regression
        b["elapsed_seconds"] = a["elapsed_seconds"] / 2  # faster: improvement
        b["oracle_ok"] = False
        b["oracle_violations"] = 3
        b["recorded_unix"] = a["recorded_unix"] + 60.0
        b["bundle_path"] = "/elsewhere"
        b["transport"] = {}
        b["workload"] = "other"
        rows = {r["field"]: r for r in diff_records(a, b)}
        assert rows["events_per_sec"]["verdict"] == "regression"
        assert rows["elapsed_seconds"]["verdict"] == "improvement"
        assert rows["oracle_ok"]["verdict"] == "regression"
        assert rows["oracle_violations"]["verdict"] == "regression"
        assert rows["workload"]["verdict"] == "neutral"
        assert not {"recorded_unix", "bundle_path", "transport"} & set(rows)
        # Regressions sort first for the human reader.
        verdicts = [r["verdict"] for r in diff_records(a, b)]
        assert verdicts == sorted(
            verdicts,
            key=["regression", "improvement", "neutral"].index,
        )

    @pytest.mark.parametrize("monitor", [None, *MONITOR_FACTORIES])
    def test_a_shrinking_margin_regresses_and_its_time_is_context(
        self, bundle_doc, monitor
    ):
        """Every monitor of the ``standard`` oracle: a shrinking worst
        margin is a regression, *when* it was tightest is neutral."""
        field = "oracle_worst_margin" if monitor is None else f"oracle_{monitor}_worst_margin"
        a = _row(bundle_doc)
        assert a[field] is not None
        rows = {r["field"]: r for r in diff_records(a, dict(a, **{field: a[field] - 1.0}))}
        assert rows[field]["verdict"] == "regression"
        rows = {r["field"]: r for r in diff_records(a, dict(a, **{field: a[field] + 1.0}))}
        assert rows[field]["verdict"] == "improvement"
        if monitor is not None:
            when = f"{field}_time"
            (row,) = diff_records(a, dict(a, **{when: a[when] + 1.0}))
            assert row["field"] == when and row["verdict"] == "neutral"

    def test_cli_history_and_diff(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        for seed in ("1", "2"):
            code, _out, _err = run_cli(
                capsys,
                "run", "static_path", "--set", "n=8", "horizon=40",
                f"seed={seed}",
                "--bundle", str(tmp_path / f"b{seed}"), "--store", store,
            )
            assert code == 0
        code, out, _err = run_cli(capsys, "history", "--store", store, "--json")
        assert code == 0
        records = json.loads(out)["records"]
        assert len(records) == 2
        assert records[0]["recorded_unix"] <= records[1]["recorded_unix"]
        ids = [r["run_id"] for r in records]
        assert [r["seed"] for r in records] == [1, 2]
        code, out, _err = run_cli(
            capsys, "diff", ids[0][:8], ids[1][:8], "--store", store, "--json"
        )
        payload = json.loads(out)
        assert payload["a"] == ids[0] and payload["b"] == ids[1]
        assert code == (1 if payload["regressions"] else 0)
        # Text mode renders a table and the regression verdict line.
        code, out, _err = run_cli(capsys, "diff", ids[0], ids[1], "--store", store)
        assert "regression" in out
        code, out, _err = run_cli(
            capsys, "history", "--store", store, "--workload", "nope"
        )
        assert code == 0 and "no matching runs" in out
        code, out, _err = run_cli(capsys, "history", "--store", store)
        assert code == 0
        assert f"store {store} (2 runs)" in out
        assert ids[0][:12] in out and ids[1][:12] in out and "static_path(n=8, dcsa)" in out
        code, out, _err = run_cli(capsys, "history", "--store", store, "--limit", "1")
        assert "(1 run)" in out and ids[1][:12] in out and ids[0][:12] not in out
        code, out, _err = run_cli(capsys, "history", "--store", store, "--limit", "0")
        assert "no matching runs" in out
        code, out, _err = run_cli(capsys, "diff", ids[0], ids[0], "--store", store)
        assert code == 0 and out == "no differing fields\nno regressions\n"

    def test_diff_values_print_compactly(self):
        from repro.cli import _fmt_diff_value

        values = [None, True, False, 1.0 / 3.0, 7, "abc"]
        assert [_fmt_diff_value(v) for v in values] == [
            "-", "true", "false", "0.333333", "7", "abc"
        ]

    def test_a_flag_that_turns_true_improves(self, bundle_doc):
        a = _row(bundle_doc, oracle_ok=False)
        b = dict(a, oracle_ok=True)
        (row,) = diff_records(a, b)
        assert row["field"] == "oracle_ok" and row["verdict"] == "improvement"

    def test_reader_refuses_what_is_not_a_record(self, capsys, tmp_path, bundle_doc):
        """An unreadable entry is evicted and counted, never listed: the
        history still exits 0 and says on stderr what it dropped."""
        store = ResultStore(tmp_path / "store")
        kept = store.put_run({}, _row(bundle_doc))
        torn = store.put_run({}, _row(bundle_doc, seed=999))
        (store.root / "notes.txt").write_text("not an entry", encoding="utf-8")
        store.path_for(torn).write_text("{torn", encoding="utf-8")
        code, out, err = run_cli(capsys, "history", "--store", str(store.root), "--json")
        assert code == 0
        assert [r["run_id"] for r in json.loads(out)["records"]] == [kept]
        assert err == f"store {store.root}: evicted 1 unreadable entry\n"
        assert not store.path_for(torn).exists()
        code, _out, err = run_cli(capsys, "history", "--store", str(store.root))
        assert code == 0 and err == ""

    def test_a_failed_write_leaves_no_temporary_file(self, bundle_doc, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(TypeError):
            store.put_run({"bad": object()}, _row(bundle_doc))
        key = config_hash(_row(bundle_doc))
        assert list(store.path_for(key).parent.iterdir()) == []
        assert store.keys() == [] and store.writes == 0

    def test_cli_history_empty_and_bad_prefix(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        code, out, _err = run_cli(capsys, "history", "--store", store)
        assert code == 0 and "no matching runs" in out
        code, _out, err = run_cli(capsys, "diff", "aa", "bb", "--store", store)
        assert code == 2 and "error: no entry matches 'aa'" in err


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
        (empty / "x.jsonl").write_text("\n{not json\n", encoding="utf-8")
        code, _out, err = run_cli(capsys, "top", str(empty))
        assert code == 2 and "x.jsonl:2: not JSON" in err
        (empty / "x.jsonl").write_text("", encoding="utf-8")
        (empty / "y.jsonl").write_text("", encoding="utf-8")
        code, out, _err = run_cli(capsys, "top", str(empty))
        assert code == 0 and "(2 points)" in out

    def test_cli_top_follow_repaints_until_interrupted(
        self, capsys, monkeypatch, tmp_path
    ):
        from repro.telemetry.top import CLEAR_SCREEN

        path = str(tmp_path / "m.jsonl")
        code, _out, _err = run_cli(
            capsys, "run", "static_ring", "--set", "n=6", "horizon=10",
            "--metrics", path,
        )
        assert code == 0
        sleeps = []

        def sleep(seconds):
            sleeps.append(seconds)
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.cli.time.sleep", sleep)
        code, out, _err = run_cli(capsys, "top", path, "--follow", "--interval", "0.5")
        assert code == 0 and sleeps == [0.5]
        assert out.count(CLEAR_SCREEN) == 1
        assert "kernel.events_dispatched" in out

    def test_cli_top_follow_errors(self, capsys, tmp_path):
        code, _out, err = run_cli(capsys, "top", str(tmp_path / "nope"), "--follow")
        assert code == 2 and "error" in err
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"v": 1}\n', encoding="utf-8")
        code, _out, err = run_cli(capsys, "top", str(bad), "--follow")
        assert code == 2 and f"error: {bad}:" in err


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
