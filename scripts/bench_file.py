#!/usr/bin/env python3
"""Write a BENCH file from the JSON-lines records of ``perfbench/run.py --out``.

    python3 scripts/bench_file.py --runs PARENT.jsonl CHANGE.jsonl \\
        [--heldout PARENT.jsonl CHANGE.jsonl] [--trace PARENT.jsonl CHANGE.jsonl] \\
        [--counts COUNTS.json] --parent-commit SHA --change TEXT [--protocol TEXT] \\
        --out BENCH_N.json
    python3 scripts/bench_file.py --check BENCH_N.json

``--runs`` holds one ``--trace 0`` run per seed and side, the seeds paired
across the two files, each run as long as BENCHMARK.json's ``run_seconds``.
The BENCH file keeps every record and adds:

* ``environment``: the interpreter, numpy and core count the runs saw;
* ``summary``: per workload and end-to-end metric, the first quartile,
  median and third quartile of each side over the paired seeds
  (``statistics.quantiles``, exclusive method);
* ``pairs``: per workload and metric, in how many seeds the change is
  better than the parent, in the direction BENCHMARK.json gives;
* ``per_layer``: the ``--trace 1`` metrics of each side, when given;
* ``counts``: the JSON object in ``--counts``, when given, for counts the
  runs do not take (say, the calls of a function the tracer does not wrap).

``--check`` recomputes the summary of an existing BENCH file from its runs
and exits 1 unless every figure comes out the same.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
COMMAND = ("python3 perfbench/run.py --workload all --seed {seed} --seconds {seconds:g} "
           "--trace {trace} --out FILE")


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _paired(runs: dict[str, list[dict]]):
    """Per workload: the seeds both sides ran, and each side's metrics by seed."""
    by_side = {side: {} for side in SIDES}
    for side in SIDES:
        for r in runs[side]:
            by_side[side].setdefault(r["workload"], {})[r["seed"]] = r["metrics"]
    parent, change = by_side["parent"], by_side["change"]
    for workload in sorted(parent.keys() & change.keys()):
        seeds = sorted(parent[workload].keys() & change[workload].keys())
        yield workload, seeds, parent[workload], change[workload]


def summary(runs: dict[str, list[dict]]) -> dict:
    """Quartiles and median of every metric per workload and side, over the
    seeds both sides ran."""
    out = {}
    for workload, seeds, parent, change in _paired(runs):
        out[workload] = {
            name: {
                "parent_q1_med_q3": _quartiles([parent[s][name]["value"] for s in seeds]),
                "change_q1_med_q3": _quartiles([change[s][name]["value"] for s in seeds]),
                "seeds": seeds,
                "unit": metric["unit"],
            }
            for name, metric in sorted(parent[seeds[0]].items())
        }
    return out


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def pairs(runs: dict[str, list[dict]], better: dict[str, str]) -> dict:
    """Per workload and metric, the seeds in which the change beats the parent."""
    out = {}
    for workload, seeds, parent, change in _paired(runs):
        out[workload] = {}
        for name in sorted(parent[seeds[0]]):
            sign = 1 if better[name] == "higher" else -1
            wins = sum(sign * (change[s][name]["value"] - parent[s][name]["value"]) > 0
                       for s in seeds)
            out[workload][name] = {"change_better": wins, "pairs": len(seeds)}
    return out


def per_layer(trace_runs: dict[str, list[dict]]) -> dict:
    """The traced metrics of each side, per workload: {metric: {side: value}}."""
    out: dict = {}
    for side in SIDES:
        for r in trace_runs[side]:
            for name, m in r["metrics"].items():
                out.setdefault(r["workload"], {}).setdefault(name, {})[side] = m["value"]
    return out


def environment(records: list[dict]) -> dict:
    """Each environment field with the values the records show."""
    return {key: sorted({r[key] for r in records}) for key in ("python", "numpy", "nproc")}


def write(args) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs = {side: read_jsonl(path) for side, path in zip(SIDES, args.runs)}
    doc = {
        "change": args.change,
        "parent_commit": args.parent_commit,
        "protocol": args.protocol,
        "command": COMMAND.format(seed="S", seconds=spec["run_seconds"], trace=0),
        "environment": environment(runs["parent"] + runs["change"]),
        "summary": summary(runs),
        "pairs": pairs(runs, better),
        "runs": runs,
    }
    if args.heldout:
        held = {side: read_jsonl(path) for side, path in zip(SIDES, args.heldout)}
        doc["heldout_seed"] = held["parent"][0]["seed"]
        doc["heldout_summary"] = summary(held)
        doc["heldout_runs"] = held
    if args.trace:
        traced = {side: read_jsonl(path) for side, path in zip(SIDES, args.trace)}
        doc["trace_command"] = COMMAND.format(seed=traced["parent"][0]["seed"],
                                              seconds=spec["run_seconds"], trace=1)
        doc["per_layer"] = per_layer(traced)
        doc["trace_runs"] = traced
    if args.counts:
        doc["counts"] = json.loads(Path(args.counts).read_text(encoding="utf-8"))
    return doc


def check(path: str) -> list[str]:
    """The summary figures of a BENCH file that its runs do not reproduce."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    got, stored = summary(doc["runs"]), doc["summary"]
    return [f"{w}/{name}" for w in sorted(got.keys() | stored.keys())
            for name in sorted(got.get(w, {}).keys() | stored.get(w, {}).keys())
            if got.get(w, {}).get(name) != stored.get(w, {}).get(name)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", metavar="BENCH", help="recompute a BENCH file's summary")
    ap.add_argument("--runs", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--heldout", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--trace", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--counts", metavar="JSON", help="counts the runs do not take")
    ap.add_argument("--parent-commit", default="unknown")
    ap.add_argument("--change", default="", help="one line on what the change does")
    ap.add_argument("--protocol", default="", help="how the runs were made")
    ap.add_argument("--out", help="the BENCH file to write")
    args = ap.parse_args(argv)
    if args.check:
        bad = check(args.check)
        print(f"{args.check}: " + (f"{len(bad)} figures differ: {', '.join(bad)}"
                                   if bad else "summary reproduced from its runs"))
        return 1 if bad else 0
    if not (args.runs and args.out):
        ap.error("--runs and --out are required unless --check is given")
    doc = write(args)
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
