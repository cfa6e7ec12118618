"""Tests for the ``python -m repro`` CLI (run in-process via cli.main)."""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import main
from repro.sweep import ResultStore


@pytest.fixture
def store_dir(tmp_path):
    return str(tmp_path / "store")


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SWEEP_ARGS = (
    "sweep",
    "static_ring",
    "--set",
    "horizon=15",
    "--grid",
    "n=5,6",
    "--seeds",
    "2",
    "--quiet",
)


class TestSweep:
    def test_sweep_runs_and_prints_table(self, capsys, store_dir):
        code, out, _ = run_cli(capsys, *SWEEP_ARGS, "--store", store_dir)
        assert code == 0
        assert "4 configs: 4 executed, 0 cached" in out
        assert "max_global_skew" in out
        assert len(ResultStore(store_dir)) == 4

    def test_rerun_is_fully_cached(self, capsys, store_dir):
        run_cli(capsys, *SWEEP_ARGS, "--store", store_dir)
        code, out, _ = run_cli(capsys, *SWEEP_ARGS, "--store", store_dir)
        assert code == 0
        assert "0 executed, 4 cached" in out

    def test_parallel_matches_serial_output_rows(self, capsys, store_dir, tmp_path):
        _, out_serial, _ = run_cli(capsys, *SWEEP_ARGS, "--store", store_dir)
        _, out_par, _ = run_cli(
            capsys, *SWEEP_ARGS, "--store", str(tmp_path / "other"), "--processes", "2"
        )
        table = lambda text: [l for l in text.splitlines() if l.startswith("static_ring")]
        assert table(out_serial) == table(out_par)

    def test_csv_export(self, capsys, store_dir, tmp_path):
        csv_path = tmp_path / "rows.csv"
        code, _, _ = run_cli(
            capsys,
            *SWEEP_ARGS,
            "--store",
            store_dir,
            "--csv",
            str(csv_path),
            "--columns",
            "seed",
            "max_global_skew",
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "seed,max_global_skew"
        assert len(lines) == 5

    def test_unknown_workload_is_an_error(self, capsys, store_dir):
        code, _, err = run_cli(capsys, "sweep", "nope", "--store", store_dir)
        assert code == 2
        assert "unknown workload" in err

    def test_zip_axis(self, capsys, store_dir):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "static_ring",
            "--set",
            "horizon=15",
            "--zip",
            "n=5,6",
            "seed=0,1",
            "--quiet",
            "--store",
            store_dir,
        )
        assert code == 0
        assert "2 configs: 2 executed" in out


class TestSweepJson:
    def test_json_summary_replaces_table(self, capsys, store_dir):
        code, out, _ = run_cli(capsys, *SWEEP_ARGS, "--store", store_dir, "--json")
        assert code == 0
        summary = json.loads(out)
        assert summary["configs"] == 4
        assert summary["executed"] == 4 and summary["cached"] == 0
        assert len(summary["rows"]) == 4
        assert "max_global_skew" in summary["rows"][0]

    def test_json_reports_cache_hits_machine_readably(self, capsys, store_dir):
        run_cli(capsys, *SWEEP_ARGS, "--store", store_dir)
        code, out, _ = run_cli(capsys, *SWEEP_ARGS, "--store", store_dir, "--json")
        assert code == 0
        summary = json.loads(out)
        assert summary["executed"] == 0 and summary["cached"] == 4

    def test_json_still_writes_csv_file(self, capsys, store_dir, tmp_path):
        csv_path = tmp_path / "rows.csv"
        code, out, _ = run_cli(
            capsys, *SWEEP_ARGS, "--store", store_dir, "--json", "--csv", str(csv_path)
        )
        assert code == 0
        json.loads(out)  # stdout stays pure JSON
        assert len(csv_path.read_text().strip().splitlines()) == 5

    def test_json_and_csv_stdout_conflict(self, capsys, store_dir):
        code, _, err = run_cli(
            capsys, *SWEEP_ARGS, "--store", store_dir, "--json", "--csv", "-"
        )
        assert code == 2
        assert "stdout" in err


class TestCheck:
    CHECK_ARGS = ("check", "static_path", "--set", "n=6", "horizon=20")

    def test_conformant_workload_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, *self.CHECK_ARGS)
        assert code == 0
        assert "conformance OK" in out

    def test_broken_bound_exits_nonzero_with_structured_output(self, capsys):
        code, out, _ = run_cli(capsys, *self.CHECK_ARGS, "--bound-scale", "0.01")
        assert code == 1
        assert "conformance VIOLATED" in out
        assert "observed" in out and "bound" in out

    def test_json_verdicts(self, capsys):
        code, out, _ = run_cli(
            capsys, *self.CHECK_ARGS, "--bound-scale", "0.01", "--json"
        )
        assert code == 1
        verdict = json.loads(out)
        assert verdict["ok"] is False
        (run,) = verdict["runs"]
        assert run["violations"] > 0
        record = run["violation_records"][0]
        assert {"monitor", "time", "nodes", "bound", "observed"} <= set(record)

    def test_monitor_subset(self, capsys):
        code, out, _ = run_cli(
            capsys, *self.CHECK_ARGS, "--monitors", "global_skew", "--json"
        )
        assert code == 0
        (run,) = json.loads(out)["runs"]
        assert run["ok"] is True and run["checks"] > 0

    def test_fuzz_checks_generated_workloads(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check",
            "static_ring",
            "--set",
            "n=5",
            "horizon=10",
            "--fuzz",
            "2",
            "--json",
        )
        assert code == 0
        verdict = json.loads(out)
        assert len(verdict["runs"]) == 3
        assert all(r["ok"] for r in verdict["runs"])

    def test_unknown_workload_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "check", "nope")
        assert code == 2
        assert "unknown workload" in err

    def test_bad_set_value_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "check", "static_path", "--set", "bogus_kw=1")
        assert code == 2
        assert "error" in err


class TestLsShow:
    def test_ls_empty(self, capsys, store_dir):
        code, out, _ = run_cli(capsys, "ls", "--store", store_dir)
        assert code == 0
        assert "empty" in out

    def test_ls_lists_entries(self, capsys, store_dir):
        run_cli(capsys, *SWEEP_ARGS, "--store", store_dir)
        code, out, _ = run_cli(capsys, "ls", "--store", store_dir)
        assert code == 0
        assert "4 entries" in out

    def test_ls_json_empty_and_populated(self, capsys, store_dir):
        code, out, _ = run_cli(capsys, "ls", "--store", store_dir, "--json")
        assert code == 0
        assert json.loads(out)["entries"] == []
        run_cli(capsys, *SWEEP_ARGS, "--store", store_dir)
        code, out, _ = run_cli(capsys, "ls", "--store", store_dir, "--json")
        assert code == 0
        listing = json.loads(out)
        assert len(listing["entries"]) == 4
        assert {"hash", "name", "seed", "max_global_skew"} <= set(
            listing["entries"][0]
        )

    def test_show_by_unambiguous_prefix(self, capsys, store_dir):
        run_cli(capsys, *SWEEP_ARGS, "--store", store_dir)
        key = ResultStore(store_dir).keys()[0]
        code, out, _ = run_cli(capsys, "show", key[:16], "--store", store_dir)
        assert code == 0
        entry = json.loads(out)
        assert entry["hash"] == key
        assert "max_global_skew" in entry["metrics"]

    def test_show_missing_prefix_errors(self, capsys, store_dir):
        code, _, err = run_cli(capsys, "show", "ffff", "--store", store_dir)
        assert code == 1
        assert "no entry" in err

    def test_show_ambiguous_prefix_errors(self, capsys, store_dir):
        run_cli(capsys, *SWEEP_ARGS, "--store", store_dir)
        code, _, err = run_cli(capsys, "show", "", "--store", store_dir)
        assert code == 1
        assert "ambiguous" in err


class TestVersion:
    def test_version_flag_prints_package_version(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        out = capsys.readouterr().out
        assert out.strip() == f"repro {__version__}"


class TestLive:
    def test_live_help_lists_workloads_and_duration(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["live", "--help"])
        assert exc_info.value.code == 0
        out = capsys.readouterr().out
        assert "--duration" in out
        assert "live_ring" in out

    def test_live_session_reports_oracle_ok_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "live",
            "--workload",
            "live_ring",
            "--duration",
            "0.4",
            "--set",
            "sample_interval=0.1",
            "--json",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["oracle_ok"] is True
        assert summary["nodes"] == 8
        assert summary["oracle_checks"] > 0
        assert summary["messages_delivered"] > 0
        # What the session cost, beside the sim's "kernel" block.
        assert "kernel" not in summary
        cost = summary["live"]
        assert sorted(cost) == ["cpu_us_per_event", "queue_depth_max", "timer_lag_max_s"]
        assert 0.0 < cost["cpu_us_per_event"] < float("inf")
        assert 0.0 <= cost["timer_lag_max_s"] < 0.4
        assert cost["queue_depth_max"] >= 3  # Start + two E_0 discoveries

    def test_live_text_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "live", "--duration", "0.3", "--set", "n=8"
        )
        assert code == 0
        assert "live_ring" in out
        assert "oracle: OK" in out
        assert "cost: " in out and "CPU/event" in out and "= 100 ms" in out

    def test_unknown_workload_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "live", "--workload", "nope")
        assert code == 2
        assert "live workloads" in err

    def test_non_live_workload_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "live", "--workload", "static_ring", "--set", "n=6"
        )
        assert code == 2
        assert "does not use the live runtime" in err

    def test_bad_set_value_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "live", "--duration", "0.2", "--set", "bogus_kw=1"
        )
        assert code == 2
        assert "error" in err


class TestRunCommand:
    RUN_ARGS = ("run", "static_ring", "--set", "n=6", "horizon=15")

    def test_run_prints_summary_and_throughput(self, capsys):
        code, out, _ = run_cli(capsys, *self.RUN_ARGS)
        assert code == 0
        assert "static_ring(n=6" in out
        assert "events/s" in out

    def test_run_json_is_machine_readable(self, capsys):
        code, out, _ = run_cli(capsys, *self.RUN_ARGS, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["workload"] == "static_ring"
        assert payload["nodes"] == 6
        assert payload["events"] > 0
        assert payload["events_per_sec"] > 0
        assert payload["oracle_ok"] is None  # workload has no oracle attached

    def test_run_splits_elapsed_into_setup_and_run(self, capsys):
        """``elapsed`` (and the throughput over it) keeps containing set-up,
        for ledger comparability; ``setup_s`` / ``run_s`` say which phase
        took it.  A sharded run wires in its workers: both are null."""
        code, out, _ = run_cli(capsys, *self.RUN_ARGS, "--json")
        payload = json.loads(out)
        assert code == 0 and 0.0 < payload["setup_s"] < payload["elapsed"]
        assert payload["run_s"] == payload["elapsed"] - payload["setup_s"]
        assert payload["events_per_sec"] == pytest.approx(
            payload["events"] / payload["elapsed"]
        )
        code, out, _ = run_cli(capsys, *self.RUN_ARGS)
        assert code == 0 and re.search(
            r"wall: \d+\.\d\ds \(set-up \d+\.\d\ds, plan \d+\.\d\ds\)  ", out
        )
        code, out, _ = run_cli(
            capsys, "run", "huge_sync_ring", "--set", "n=64", "horizon=2",
            "--shards", "2", "--json",
        )
        payload = json.loads(out)
        assert code == 0 and payload["kernel"]["par_shards"] == 2
        assert payload["setup_s"] is None and payload["run_s"] is None

    def test_run_reports_its_plan_s(self, capsys):
        """``kernel.plan_s`` is what deciding the kernel plan took, inside
        ``run_s``; null where ``setup_s`` is (a sharded run)."""
        code, out, _ = run_cli(capsys, *self.RUN_ARGS, "--json")
        payload = json.loads(out)
        assert code == 0 and 0.0 < payload["kernel"]["plan_s"] < payload["run_s"]
        code, out, _ = run_cli(
            capsys, "run", "huge_sync_ring", "--set", "n=64", "horizon=2",
            "--shards", "2", "--json",
        )
        payload = json.loads(out)
        assert code == 0 and payload["kernel"]["par_shards"] == 2
        assert payload["kernel"]["plan_s"] is None and payload["setup_s"] is None

    def test_run_reports_the_nodes_it_built(self, capsys):
        """``kernel.materialised_nodes``: drivers built by the time the run
        returned -- none for an untouched column population, all of any
        other -- and the same count as one ``--stats`` line."""
        sync = ("run", "huge_sync_ring", "--set", "n=64", "horizon=2")
        code, out, _ = run_cli(capsys, *sync, "--json")
        assert code == 0 and json.loads(out)["kernel"]["materialised_nodes"] == 0
        code, out, _ = run_cli(capsys, *sync, "algorithm=max", "--json")
        assert code == 0 and json.loads(out)["kernel"]["materialised_nodes"] == 64
        code, out, _ = run_cli(capsys, *sync, "--stats")
        (line,) = [row for row in out.splitlines() if "kernel.materialised_nodes" in row]
        assert code == 0 and line.split("|")[1].strip() == "0", line

    def test_run_profile_prints_top_entries(self, capsys):
        code, out, _ = run_cli(capsys, *self.RUN_ARGS, "--profile")
        assert code == 0
        assert "profile: top 25 by cumulative time" in out
        # cProfile table landed on stdout, topped by the experiment runner.
        assert "cumtime" in out
        assert "run_experiment" in out

    def test_run_huge_workload_reports_oracle_verdict(self, capsys):
        # huge_ring attaches the standard oracle by default; a tiny
        # instance must run conformantly and surface the verdict.
        code, out, _ = run_cli(
            capsys, "run", "huge_ring", "--set", "n=6", "horizon=10", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["oracle_ok"] is True
        assert payload["oracle_checks"] > 0

    def test_run_json_names_the_kernel_that_ran(self, capsys, tmp_path):
        # A traced batch-eligible run stays on the array path, and the
        # JSON says so: scripts assert the path instead of guessing it.
        code, out, _ = run_cli(
            capsys, "run", "huge_sync_ring", "--set", "n=64", "horizon=5",
            "--trace-out", str(tmp_path / "t.json"), "--json",
        )
        assert code == 0
        payload = json.loads(out)
        # Every node event ran the array step (discoveries included); only
        # the oracle's sample records did not -- and the block says which
        # lane each event rode (n = 64: the bursts take the array lane).
        kernel = payload["kernel"]
        skipped = payload["transport"]["discoveries_skipped"]
        dropped = payload["transport"]["dropped_removed"]
        assert 0 < kernel["array_events"] < payload["events"]
        node_events = payload["events"] - kernel.pop("non_node_events")
        assert kernel["array_events"] == node_events - skipped - dropped
        assert kernel.pop("array_events") == (
            kernel["array_lane_events"] + kernel["scalar_lane_events"]
        )
        assert kernel.pop("array_lane_events") > kernel.pop("scalar_lane_events") > 0
        assert kernel.pop("blocked_rows") == 0
        assert kernel.pop("plan_s") > 0.0
        assert kernel.pop("materialised_nodes") == 0
        assert payload["kernel"] == {
            "batch_gate_reason": None,
            "par_fallback_reason": None,
            "par_shards": None,
            "declines": [],
        }
        assert payload["trace"]["flights"] == payload["messages_sent"]
        # A population the array path cannot serve declines, and says why.
        code, out, _ = run_cli(
            capsys, "run", "huge_sync_ring", "--set", "n=16", "horizon=5",
            "algorithm=max", "--json",
        )
        assert code == 0
        kernel = json.loads(out)["kernel"]
        assert "MaxSyncCore" in kernel["batch_gate_reason"]
        assert kernel["array_events"] == 0
        assert kernel["declines"] == [
            {
                "path": "array_step",
                "declined_by": "core",
                "reason": kernel["batch_gate_reason"],
            }
        ]

    def test_reference_run_is_not_reported_as_the_batch_kernel(
        self, capsys, monkeypatch
    ):
        """``REPRO_BATCH=0``: the banner and summary must name the reference
        kernel, never say "active" above ``array step: 0 / N``."""
        from repro.sim import simulator as simulator_mod

        monkeypatch.setattr(simulator_mod, "BATCH_DEFAULT", False)
        code, out, _ = run_cli(
            capsys, "run", "huge_sync_ring", "--set", "n=16", "horizon=5",
            "--profile",
        )
        assert code == 0
        assert "active" not in out
        assert out.count("batch kernel declined (reference)") == 2  # summary + banner
        assert "profile: array step: 0 / " in out

    def test_run_invalid_params_exit_two(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "huge_ring", "--set", "n=6", "horizon=10", "b0=0.4"
        )
        assert code == 2
        assert "b0 must exceed" in err

    def test_run_json_with_profile_keeps_stdout_parseable(self, capsys):
        code, out, err = run_cli(capsys, *self.RUN_ARGS, "--json", "--profile")
        assert code == 0
        payload = json.loads(out)  # stdout is exactly one JSON document
        assert payload["workload"] == "static_ring"
        assert "profile: top 25 by cumulative time" in err

    def test_run_unknown_workload_is_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "run", "nope")
        assert code == 2
        assert "unknown workload" in err

    def test_run_bad_argument_is_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "run", "static_ring", "--set", "bogus=1")
        assert code == 2
        assert "error" in err


class TestTelemetry:
    """`--metrics`/`--stats` on run, and the `top` viewer."""

    #: Oracle-attached workload so all three instrument families appear.
    RUN_ARGS = ("run", "large_ring", "--set", "n=16", "horizon=15")

    def _record(self, capsys, tmp_path, *extra: str) -> tuple[int, str, str, str]:
        path = str(tmp_path / "m.jsonl")
        code, out, err = run_cli(
            capsys, *self.RUN_ARGS, "--metrics", path, *extra
        )
        return code, out, err, path

    def test_metrics_file_has_valid_frames(self, capsys, tmp_path):
        from repro.telemetry import read_frames

        code, _, _, path = self._record(capsys, tmp_path)
        assert code == 0
        frames = read_frames(path)  # validates every frame
        assert len(frames) >= 2  # start frame + final frame
        last = frames[-1]
        names = last["counters"].keys() | last["gauges"].keys()
        for prefix in ("kernel.", "transport.", "oracle."):
            assert any(k.startswith(prefix) for k in names), prefix
        assert last["counters"]["kernel.events_dispatched"] > 0

    def test_stats_prints_end_of_run_table(self, capsys, tmp_path):
        code, out, _, _ = self._record(capsys, tmp_path, "--stats")
        assert code == 0
        assert "end-of-run stats" in out
        assert "kernel.events_dispatched" in out
        assert "events/sec:" in out

    def test_stats_without_metrics_file(self, capsys):
        code, out, _ = run_cli(capsys, *self.RUN_ARGS, "--stats")
        assert code == 0
        assert "end-of-run stats" in out

    def test_stats_under_json_keeps_stdout_parseable(self, capsys, tmp_path):
        code, out, err, _ = self._record(capsys, tmp_path, "--stats", "--json")
        assert code == 0
        payload = json.loads(out)  # stdout is exactly one JSON document
        assert payload["workload"] == "large_ring"
        assert "end-of-run stats" in err

    def test_top_renders_final_snapshot(self, capsys, tmp_path):
        _, _, _, path = self._record(capsys, tmp_path)
        code, out, _ = run_cli(capsys, "top", path)
        assert code == 0
        assert "kernel.events_dispatched" in out
        assert "events/sec:" in out  # whole-run rate vs first frame

    def test_top_empty_file_is_exit_one(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, _, err = run_cli(capsys, "top", str(empty))
        assert code == 1
        assert "no frames" in err

    def test_top_invalid_frame_is_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"v": 1}\n')
        code, _, err = run_cli(capsys, "top", str(bad))
        assert code == 2
        assert "error" in err

    def test_top_missing_file_is_exit_two(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "top", str(tmp_path / "nope.jsonl"))
        assert code == 2
        assert "error" in err
