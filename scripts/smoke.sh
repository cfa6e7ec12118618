#!/usr/bin/env bash
# Sweep + conformance + live smoke test: 4-config sweep on both backends,
# a CLI round trip against a throwaway store (verified via machine-readable
# JSON, not table scraping), a short deterministic `repro live` session,
# and one `repro check` run under the streaming oracle. Fast (~12 s); run
# after any change to src/repro/sweep, src/repro/oracle, src/repro/live,
# the harness serialization layer, or the CLI.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== backend parity (pytest) =="
python -m pytest tests/test_sweep_smoke.py -q

echo "== CLI round trip =="
store="$(mktemp -d)"
trap 'rm -rf "$store"' EXIT

assert_counts() {  # stdin: sweep --json output; argv: expected executed/cached
    python -c '
import json, sys
expected_executed, expected_cached = int(sys.argv[1]), int(sys.argv[2])
summary = json.load(sys.stdin)
executed, cached = summary["executed"], summary["cached"]
if (executed, cached) != (expected_executed, expected_cached):
    sys.exit(f"FAIL: expected {expected_executed} executed / "
             f"{expected_cached} cached, got {executed} / {cached}")
' "$@"
}

python -m repro sweep static_ring --set n=6 horizon=20 --seeds 2 \
    --processes 2 --store "$store" --quiet --json | assert_counts 2 0
python -m repro sweep static_ring --set n=6 horizon=20 --seeds 2 \
    --store "$store" --quiet --json | assert_counts 0 2

python -m repro ls --store "$store" --json | python -c '
import json, sys
entries = json.load(sys.stdin)["entries"]
if len(entries) != 2:
    sys.exit(f"FAIL: expected 2 store entries, got {len(entries)}")
'
# An ExperimentConfig field sweeps by workload name: every point is the
# workload's spec with the point's keys laid over it.
python -m repro sweep static_path --set n=6 horizon=20 --grid delay_spec=max,half \
    --store "$store" --quiet --json | python -c '
import json, sys
rows = json.load(sys.stdin)["rows"]
if len(rows) != 2:
    sys.exit(f"FAIL: expected 2 delay_spec rows, got {len(rows)}")
'
# An adversary and a clock spec sweep by their spec names through the
# ingredient tables; each row reports the adversary's serialised name.
python -m repro sweep static_path --set n=6 horizon=20 adversary=drift \
    --grid clock_spec=split,uniform --store "$store" --quiet --json | python -c '
import json, sys
rows = json.load(sys.stdin)["rows"]
if len(rows) != 2:
    sys.exit(f"FAIL: expected 2 clock_spec rows, got {len(rows)}")
bad = [row["adversary"] for row in rows if row["adversary"] != "adaptive_drift"]
if bad:
    sys.exit(f"FAIL: expected adversary adaptive_drift on every row, got {bad}")
'

echo "== live asyncio runtime =="
# A short deterministic in-process session (loopback channel, zero
# jitter); the verdict is asserted from the machine-readable summary.
python -m repro live --workload live_ring --duration 1 \
    --set sample_interval=0.2 --json | python -c '
import json, sys
summary = json.load(sys.stdin)
if summary["oracle_ok"] is not True:
    sys.exit(f"FAIL: live oracle not ok: {summary}")
if summary["messages_delivered"] <= 0:
    sys.exit(f"FAIL: live session moved no messages: {summary}")
'

echo "== telemetry flight recorder =="
# A flight-recorded run must produce schema-valid frames and a final
# snapshot that `repro top` can render (docs/observability.md).
python -m repro run large_ring --set n=16 horizon=30 \
    --metrics "$store/metrics.jsonl" --stats > /dev/null
python -c '
import sys
from repro.telemetry import read_frames
frames = read_frames(sys.argv[1])  # validates every frame against the schema
if not frames:
    sys.exit("FAIL: flight recorder wrote no frames")
last = frames[-1]
for prefix in ("kernel.", "transport.", "oracle."):
    names = last["counters"].keys() | last["gauges"].keys()
    if not any(k.startswith(prefix) for k in names):
        sys.exit(f"FAIL: no {prefix} metrics in final frame")
' "$store/metrics.jsonl"
python -m repro top "$store/metrics.jsonl" > /dev/null

echo "== causal tracing + forensics =="
# A traced run must export valid Perfetto/Chrome JSON with flow events,
# and `repro explain` must attribute a seeded broken-bound violation to
# the delay adversary (docs/observability.md).
python -m repro run static_ring --set n=8 horizon=60 seed=3 \
    --trace-out "$store/trace.json" --json > /dev/null
python -c '
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
if not events or not all("ph" in e and "ts" in e for e in events):
    sys.exit("FAIL: exported trace is not valid Chrome trace JSON")
if not any(e["ph"] == "s" for e in events):
    sys.exit("FAIL: no flow events in exported trace")
' "$store/trace.json"
python -m repro explain adversarial_delay --set n=8 horizon=120 seed=1 \
    --bound-scale 0.3 --max-reports 1 --json | python -c '
import json, sys
reports = json.load(sys.stdin)["reports"]
if not reports:
    sys.exit("FAIL: explain produced no cause reports")
top = reports[0]["causes"][0]
if top["kind"] != "causal_chain" or top["data"]["masked_count"] < 1:
    sys.exit(f"FAIL: adversary not attributed: {top}")
'

echo "== run bundle + observatory + run history =="
# A bundled run must leave a schema-valid bundle, its row in the result
# store, and a self-contained HTML report whose embedded JSON round-trips
# through the bundle validator (docs/observability.md).
python -m repro run large_ring --set n=16 horizon=30 \
    --bundle "$store/bundle" --store "$store/runs" --json > /dev/null
python -m repro report "$store/bundle" -o "$store/report.html" > /dev/null
python -c '
import json, re, sys
from repro.obs import load_bundle, validate_bundle
html = open(sys.argv[1], encoding="utf-8").read()
match = re.search(
    r"<script type=\"application/json\" id=\"bundle-data\">(.*?)</script>",
    html, re.S)
if not match:
    sys.exit("FAIL: no embedded bundle JSON in report")
embedded = json.loads(match.group(1))
validate_bundle(embedded)
if embedded != load_bundle(sys.argv[2]):
    sys.exit("FAIL: embedded JSON does not match the bundle on disk")
if embedded["timeline"]["rows"] <= 0:
    sys.exit("FAIL: bundled run captured no timeline rows")
' "$store/report.html" "$store/bundle"
python -m repro history --store "$store/runs" --json | python -c '
import json, sys
records = json.load(sys.stdin)["records"]
if len(records) != 1:
    sys.exit(f"FAIL: expected 1 bundled run, got {len(records)}")
if records[0]["oracle_ok"] is not True:
    sys.exit(f"FAIL: smoke run row not oracle_ok: {records[0]}")
'

echo "== streaming conformance oracle =="
python -m repro check static_ring --set n=6 horizon=20
# A deliberately broken bound must exit with exactly 1 (violation
# detected) -- not 2, which would mean the check itself errored out.
status=0
python -m repro check static_ring --set n=6 horizon=20 \
    --bound-scale 0.01 > /dev/null || status=$?
if [ "$status" -ne 1 ]; then
    echo "FAIL: broken bound not detected (exit $status, expected 1)" >&2
    exit 1
fi

echo "smoke OK"
