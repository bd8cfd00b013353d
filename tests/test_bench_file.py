"""scripts/bench_file.py reproduces a BENCH file's summary from its runs."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_file", ROOT / "scripts" / "bench_file.py")
bench_file = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_file)

BENCH_9 = ROOT / "BENCH_9.json"


def test_check_reproduces_bench_9_summary():
    assert bench_file.check(str(BENCH_9)) == []


def test_check_names_a_figure_its_runs_do_not_give(tmp_path):
    doc = json.loads(BENCH_9.read_text(encoding="utf-8"))
    doc["summary"]["weyl-enum"]["peak_rss_mb"]["change_q1_med_q3"][1] += 1
    path = tmp_path / "BENCH_x.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert bench_file.check(str(path)) == ["weyl-enum/peak_rss_mb"]


def test_written_file_summarises_the_jsonl_runs(tmp_path):
    doc = json.loads(BENCH_9.read_text(encoding="utf-8"))
    paths = {}
    for key in ("runs", "heldout_runs", "trace_runs"):
        for side in ("parent", "change"):
            paths[key, side] = tmp_path / f"{key}_{side}.jsonl"
            paths[key, side].write_text(
                "".join(json.dumps(r) + "\n" for r in doc[key][side]), encoding="utf-8")
    out = tmp_path / "BENCH_x.json"
    assert bench_file.main([
        "--runs", str(paths["runs", "parent"]), str(paths["runs", "change"]),
        "--heldout", str(paths["heldout_runs", "parent"]), str(paths["heldout_runs", "change"]),
        "--trace", str(paths["trace_runs", "parent"]), str(paths["trace_runs", "change"]),
        "--change", doc["change"], "--out", str(out)]) == 0
    written = json.loads(out.read_text(encoding="utf-8"))
    assert written["summary"] == doc["summary"]
    assert written["runs"] == doc["runs"] and written["heldout_seed"] == doc["heldout_seed"]
    assert written["command"] == doc["command"]
    assert written["trace_command"] == doc["trace_command"]
    assert written["environment"] == {"python": ["3.11.7"], "numpy": ["2.4.6"], "nproc": [2]}
    # that change cut the cli-small p50 from ~242 to ~147 ms in every pair
    assert written["pairs"]["cli-small"]["latency_p50_ms"] == {"change_better": 10, "pairs": 10}
    traced = written["per_layer"]["cli-small"]["characters.from_root_system.calls"]
    assert traced["parent"] > 0 and traced["change"] > 0
    assert bench_file.check(str(out)) == []
