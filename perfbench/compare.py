"""Compare two sets of benchmark runs, one row per (workload, metric).

Each side is a JSON-lines file written by ``run.py --out``, with runs of the
same seeds on both sides (a seed run twice on one side keeps its last run).
Alternate the two sides run by run, so that a drift of the machine's speed
does not read as a difference between them.
A row gives the median and quartiles of both sides, the metric's bound and a
verdict:

* ``worse``: the new median is worse than the old by more than the bound;
* ``unresolved``: otherwise, if either side's quartile spread, as a share of
  its median, exceeds the bound, unless every new run beats every old run
  (``better``);
* ``better``: the new median is better by more than the old spread, and the
  new run beats the old run of the same seed for at least 9 in 10 seeds;
* ``unchanged``: otherwise.

Per-layer metrics have no bound: they are ``worse`` by the mirror image of
the ``better`` rule. There is no combined score."""

from __future__ import annotations

import json
import math
import statistics


def load(path: str) -> dict:
    """(workload, metric) -> {seed: value}, over every run in the file."""
    out: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            for name, m in rec["metrics"].items():
                out.setdefault((rec["workload"], name), {})[rec["seed"]] = m["value"]
    return out


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def spread(q1, med, q3) -> float:
    return (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else math.inf)


def verdict(old: dict, new: dict, better: str, bound: float | None) -> str:
    sign = 1 if better == "higher" else -1
    oq, nq = quartiles(list(old.values())), quartiles(list(new.values()))
    gain = sign * (nq[1] - oq[1]) / abs(oq[1]) if oq[1] else 0.0
    if bound is not None and gain < -bound:
        return "worse"
    pairs = [(old[s], new[s]) for s in old.keys() & new.keys()]
    wins = sum(sign * (n - o) > 0 for o, n in pairs)
    losses = sum(sign * (n - o) < 0 for o, n in pairs)
    if bound is not None and max(spread(*oq), spread(*nq)) > bound:
        everywhere = all(sign * (n - o) > 0 for n in new.values() for o in old.values())
        return "better" if everywhere else "unresolved"
    if pairs and wins >= 0.9 * len(pairs) and gain > spread(*oq):
        return "better"
    if bound is None and pairs and losses >= 0.9 * len(pairs) and -gain > spread(*oq):
        return "worse"
    return "unchanged"


def main(old_path: str, new_path: str, bench: dict) -> int:
    old, new = load(old_path), load(new_path)
    metrics = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    print(f"{'workload':<18} {'metric':<46} {'old q1/med/q3':>34} {'new q1/med/q3':>34} "
          f"{'bound':>6}  verdict")
    for key in sorted(set(old) & set(new)):
        workload, name = key
        m = metrics.get(name)
        if m is None:
            continue
        bound = m.get("bound")
        oq, nq = quartiles(list(old[key].values())), quartiles(list(new[key].values()))
        print(f"{workload:<18} {name:<46} "
              f"{'/'.join(f'{x:.4g}' for x in oq):>34} {'/'.join(f'{x:.4g}' for x in nq):>34} "
              f"{bound if bound is not None else '-':>6}  "
              f"{verdict(old[key], new[key], m['better'], bound)}")
    return 0
