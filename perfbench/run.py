#!/usr/bin/env python3
"""weylkit benchmark: drives the ``weylkit`` CLI and ``scripts/containment_scan.py``
from outside, one request at a time (a closed loop with one client, since
callers wait for each JSON reply), and checks every reply.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with nothing
traced. ``--trace 1`` alternates a plain round with a round run through
``tracer.py``, which times each module's public entry points, and reports
the per-layer metrics plus the tracing overhead. The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it (``# {...}``) records the run's environment, the fail
ratio and the plain wall-clock figures. ``--out`` appends both to a
JSON-lines file, which ``--compare`` reads.

End-to-end times are given on a nominal machine: a fixed pure-Python
reference program is timed before and after every request and set-up, and
each wall or CPU time is multiplied by ``NOMINAL_REF_S`` over the mean of
the two reference times around it. On a shared machine whose speed drifts
by tens of percent within a minute this repeats far better than the plain
times, CPU time included. Per-layer times are plain wall-clock milliseconds
inside the traced process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads
from workloads import FAILED, OK, WRONG, Context, Request

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5                    # set-ups per run; setup_s is their median
REQUEST_TIMEOUT_S = 150
TAIL_GRID = (75, 90, 95, 99, 99.9)
BARE_PYTHON_RUNS = 5
# The reference program and its run time on the nominal machine; it uses
# neither weylkit nor numpy, so no change to them moves it.
REFERENCE = "s = 0\nfor i in range(200_000):\n    s += i * i"
NOMINAL_REF_S = 0.05
IMPORTTIME_RUNS = 3


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_kb: int
    ops: int
    outcome: str
    trace: dict | None = None
    ref_s: float = 0.0        # the reference program's time around this request

    @property
    def nominal_s(self) -> float:
        """The request's wall time rescaled to the nominal machine."""
        return self.wall_s * NOMINAL_REF_S / self.ref_s


def run_request(req: Request, ctx: Context, env: dict, traced: bool) -> Sample:
    """Run one request as a child process and reap it with ``os.wait4``, so its
    own peak RSS is read rather than the running maximum of all children."""
    if req.script is not None:
        target = [str(HERE / "tracer.py"), "script", req.script] if traced else [req.script]
    else:
        target = [str(HERE / "tracer.py"), "cli"] if traced else ["-m", "weylkit.cli"]
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *target, *req.argv], cwd=ctx.work, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    chunks = {}
    readers = [threading.Thread(target=lambda s=s: chunks.__setitem__(s, s.read()))
               for s in (proc.stdout, proc.stderr)]
    for t in readers:
        t.start()
    timer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        try:
            if req.stdin:
                proc.stdin.write(req.stdin)
            proc.stdin.close()
        except BrokenPipeError:
            pass
        for t in readers:
            t.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    out, err = chunks[proc.stdout], chunks[proc.stderr]
    trace = None
    if traced:
        head, _, last = err.rstrip(b"\n").rpartition(b"\n")
        if last.startswith(tracer.MARK.encode()):
            trace = json.loads(last[len(tracer.MARK):])
            err = head
    outcome = req.check(proc.returncode, out, err)
    if traced and trace is None:
        outcome = FAILED
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                  req.ops, outcome, trace)


def reference(ctx: Context) -> float:
    """Wall time of the fixed reference program, in seconds."""
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-S", "-I", "-c", REFERENCE], cwd=ctx.work,
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    _, status, _ = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise RuntimeError("the reference program failed")
    return time.perf_counter() - started


def run_round(reqs, ctx, env, traced) -> list[Sample]:
    """Run the requests in order, timing the reference program before the
    first and after each; a request's reference time is the mean of the two
    around it."""
    samples = []
    before = reference(ctx)
    for r in reqs:
        sample = run_request(r, ctx, env, traced)
        after = reference(ctx)
        sample.ref_s = (before + after) / 2
        samples.append(sample)
        before = after
    return samples


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest grid percentile with at least ten samples beyond it
    (nearest rank), as (value, percentile, samples beyond); the maximum
    when there are too few samples."""
    xs = sorted(values)
    n = len(xs)
    best = (xs[-1], 100.0, 0)
    for p in TAIL_GRID:
        rank = -(-p * n // 100)            # ceil(p n / 100)
        if n - rank >= 10:
            best = (xs[int(rank) - 1], p, int(n - rank))
    return best


def round_tail(values: list[float], per_round: int) -> tuple[float, float, int]:
    """The median over rounds of each round's tail, so that the percentile
    depends on the round's size only, not on how many rounds a run fits."""
    tails = [tail(values[i:i + per_round]) for i in range(0, len(values), per_round)]
    return statistics.median(t[0] for t in tails), tails[0][1], tails[0][2]


def end_to_end(samples: list[Sample], rounds: int,
               setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    """The end-to-end metrics, with times on the nominal machine, and the
    record of the run with the same times on the wall clock."""
    attempted = sum(s.ops for s in samples)
    failed = sum(s.ops for s in samples if s.outcome != OK)

    def times(wall, cpu, setup):
        lat = [wall(s) * 1e3 for s in samples]
        tail_ms, tail_p, beyond = round_tail(lat, len(samples) // rounds)
        return {"setup_s": statistics.median(setup),
                "ops_per_s": attempted / sum(wall(s) for s in samples),
                "latency_p50_ms": statistics.median(lat),
                "latency_tail_ms": tail_ms,
                "cpu_s": sum(cpu(s) for s in samples) / rounds}, (tail_p, beyond)

    metrics, (tail_p, beyond) = times(lambda s: s.nominal_s,
                                      lambda s: s.cpu_s * NOMINAL_REF_S / s.ref_s,
                                      [wall * NOMINAL_REF_S / ref for wall, ref in setups])
    metrics["peak_rss_mb"] = max(s.rss_kb for s in samples) / 1024
    metrics["ok_ratio"] = 1 - failed / attempted
    info = {"tail_percentile": tail_p, "tail_samples_beyond_per_round": beyond,
            "latency_samples": len(samples), "rounds": rounds,
            "fail_ratio": failed / attempted,
            "reference_ms": statistics.median(s.ref_s * 1e3 for s in samples),
            "wall": times(lambda s: s.wall_s, lambda s: s.cpu_s,
                          [wall for wall, _ in setups])[0]}
    return metrics, info


def per_layer(samples: list[Sample]) -> dict:
    """Per-layer metrics of one traced round: sums over its requests, except
    the ``cli.*`` figures, which are medians per invocation."""
    traces = [s.trace for s in samples if s.trace]
    out = {
        "cli.import_ms": statistics.median(t["import_ms"] for t in traces),
        "cli.self_ms": statistics.median(t["self_ms"] for t in traces),
    }
    for mod, attr in tracer.TRACED:
        name = tracer.span_name(mod, attr)
        spans = [t["spans"].get(name, [0, 0, 0]) for t in traces]
        out[f"{name}.calls"] = sum(s[0] for s in spans)
        out[f"{name}.ms"] = sum(s[1] for s in spans)
        out[f"{name}.self_ms"] = sum(s[2] for s in spans)
    counters = {}
    for t in traces:
        for k, v in t["counters"].items():
            merge = max if k in ("weyl.max_layer_rows", "weyl.rss_delta_kb") else int.__add__
            counters[k] = merge(counters.get(k, 0), v)
    out["roots.generated"] = counters["roots.generated"]
    out["roots.per_s"] = _rate(counters["roots.generated"], out["roots.generate_roots.ms"])
    out["weyl.elements"] = counters["weyl.elements"]
    out["weyl.elements_per_s"] = _rate(counters["weyl.elements"], out["weyl.enumerate_weyl.ms"])
    out["weyl.layer_bytes"] = counters["weyl.layer_bytes"]
    out["weyl.max_layer_rows"] = counters["weyl.max_layer_rows"]
    out["weyl.rss_delta_mb"] = counters["weyl.rss_delta_kb"] / 1024
    out["pushforward.graded_entries"] = counters["pushforward.graded_entries"]
    calls = out["pushforward.pushforward_word.calls"]
    out["pushforward.unique_push_ratio"] = (
        sum(t["push_distinct"] for t in traces) / calls if calls else 0.0)
    return out


def _rate(count, ms):
    return count / (ms / 1e3) if ms else 0.0


def interpreter_figures(env: dict, ctx: Context) -> dict:
    """Bare interpreter start and numpy's share of ``import weylkit.cli``."""
    bare = []
    for _ in range(BARE_PYTHON_RUNS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ctx.work, env=env, check=True)
        bare.append((time.perf_counter() - t) * 1e3)
    numpy_us = []
    for _ in range(IMPORTTIME_RUNS):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import weylkit.cli"],
                             cwd=ctx.work, env=env, check=True, capture_output=True).stderr
        for line in err.decode().splitlines():
            fields = [f.strip() for f in line.split("|")]
            if len(fields) == 3 and fields[2] == "numpy":
                numpy_us.append(int(fields[1]))
    return {"cli.bare_python_ms": statistics.median(bare),
            "cli.import_numpy_ms": statistics.median(numpy_us) / 1e3 if numpy_us else 0.0}


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def setup(workload: str, seed: int, ctx: Context, env: dict) -> tuple[list[Request], tuple]:
    """Build the round's inputs and send one warm-up request; returns the
    inputs and (set-up wall time, reference time around it)."""
    before = reference(ctx)
    started = time.perf_counter()
    reqs = workloads.BUILDERS[workload](seed, ctx)
    warm = run_request(workloads.warmup(workload, seed, ctx), ctx, env, traced=False)
    if warm.outcome != OK:
        raise RuntimeError(f"{workload}: the warm-up request did not succeed")
    took = time.perf_counter() - started
    return reqs, (took, (before + reference(ctx)) / 2)


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 ctx: Context, env: dict) -> tuple[dict, dict]:
    setups = []
    for _ in range(SETUPS):
        reqs, took = setup(workload, seed, ctx, env)
        setups.append(took)
    started = time.perf_counter()
    measured, layers, overheads = [], [], []
    rounds = 0
    while rounds == 0 or time.perf_counter() - started < seconds:
        base = run_round(reqs, ctx, env, traced=False)
        measured += base
        rounds += 1
        if traced:
            samples = run_round(reqs, ctx, env, traced=True)
            plain = sum(s.nominal_s for s in base)
            overheads.append(100 * (sum(s.nominal_s for s in samples) - plain) / plain)
            layers.append((per_layer(samples), samples))
    e2e, info = end_to_end(measured, rounds, setups)
    checked = measured + [s for _, samples in layers for s in samples]
    result = {
        "correct": all(s.outcome != WRONG for s in checked),
        "attempted": sum(s.ops for s in checked),
        "failed": sum(s.ops for s in checked if s.outcome != OK),
    }
    if traced:
        metrics = {k: statistics.median(m[k] for m, _ in layers) for k in layers[0][0]}
        metrics.update(interpreter_figures(env, ctx))
        metrics["trace.overhead_pct"] = statistics.median(overheads)
        info["trace_overhead_pct"] = metrics["trace.overhead_pct"]
        info["trace_counts_repeat"] = all(
            m[k] == layers[0][0][k] for m, _ in layers for k in m if k.endswith(".calls"))
    else:
        metrics = e2e
    result["metrics"] = metrics
    return result, info


def environment(seed: int, workload: str, bench: dict) -> dict:
    import numpy
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or commit
    why = {w["name"]: w["why"] for w in bench["workloads"]}[workload]
    return {"workload": workload, "why": why, "seed": seed,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "commit": commit}


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def with_units(metrics: dict, names: list[dict]) -> dict:
    units = {m["name"]: m["unit"] for m in names}
    missing = set(units) ^ set(metrics)
    if missing:
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: {sorted(missing)}")
    return {k: {"value": metrics[k], "unit": units[k]} for k in units}


def prepare() -> tuple[Context, dict]:
    needed = [ROOT / "src" / "weylkit" / "cli.py", ROOT / "scripts" / "containment_scan.py",
              ROOT / "tests" / "cli_cases.py", ROOT / "tests" / "golden"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        sys.exit(f"perfbench: not a weylkit checkout, missing {', '.join(missing)}")
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    from weylkit.schemas import validate_document
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    work = HERE / "_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    return Context(ROOT, work, validate_document), env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*workloads.BUILDERS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append each run's record to this JSON-lines file")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args(argv)
    if args.compare:
        import compare
        return compare.main(*args.compare, spec())
    if not args.workload:
        ap.error("--workload or --compare is required")
    ctx, env = prepare()
    bench = spec()
    names = bench["per_layer" if args.trace else "end_to_end"]
    try:
        chosen = list(workloads.BUILDERS) if args.workload == "all" else [args.workload]
        results = []
        for workload in chosen:
            result, info = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                        ctx, env)
            result["metrics"] = with_units(result["metrics"], names)
            meta = environment(args.seed, workload, bench) | info
            print("# " + json.dumps(meta, sort_keys=True), flush=True)
            if args.out:
                with open(args.out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps({"trace": args.trace, **meta, **result}) + "\n")
            results.append((workload, result, info))
    finally:
        for f in ctx.work.iterdir():
            f.unlink()
        ctx.work.rmdir()
        try:
            ctx.work.parent.rmdir()
        except OSError:
            pass   # another run still uses it
    if args.workload == "all":
        for workload, result, info in results:
            print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} fail_ratio={info['fail_ratio']:.4f}")
            for name, m in result["metrics"].items():
                print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")
            if "wall" in info:
                print(f"  wall clock, reference {info['reference_ms']:.1f} ms: "
                      + ", ".join(f"{k} {v:.6g}" for k, v in info["wall"].items()))
        result = {
            "correct": all(r["correct"] for _, r, _ in results),
            "attempted": sum(r["attempted"] for _, r, _ in results),
            "failed": sum(r["failed"] for _, r, _ in results),
            "metrics": {f"{w}/{k}": v for w, r, _ in results for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
