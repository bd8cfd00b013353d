#!/usr/bin/env python3
"""Time each subcommand at the edge of its bounds, one fresh process a row.

    python3 scripts/edge_table.py > edge.jsonl

Each row runs ``python -m weylkit.cli`` from this checkout's ``src`` in a
fresh interpreter that writes no bytecode, and reaps it with ``os.wait4``,
as ``perfbench/run.py`` does, so the peak resident set is the child's own
``ru_maxrss`` (KiB on Linux), not the running maximum of all children.
Linux spawns the child in this process's address space and carries that
space's peak into the child's at exec, so this process's own peak (about
17 MB) is a floor under every figure. One JSON line a row goes to stdout:

    {"row", "argv", "code", "wall_s", "stdout_bytes", "stdout_sha256", "peak_mb"}

``stdout_sha256`` lets two checkouts' tables show byte-identical documents.
A row still running after ``TIMEOUT`` seconds is killed, so its ``code`` is
-9. The figures are for sizing; none is a gate.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
import threading
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 600.0


def _workloads():
    """``perfbench.workloads``, whose matrices are built without weylkit."""
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from perfbench import workloads

    return workloads


def _nonfinite_triple_bond() -> str:
    """The rank-60 chain ending in a triple bond, relabelled: its 29th
    leading minor is the first zero one, where the finite-type verdict
    stops, so the row times a late refusal."""
    wl = _workloads()
    return json.dumps({"matrix": wl.relabel(wl._nonfinite(3, 60), random.Random(1))})


def _relabelled_catalog(family: str) -> str:
    """The family's rank-60 catalog matrix, relabelled with ``random.Random(7)``."""
    wl = _workloads()
    return json.dumps({"matrix": wl.relabel(wl.catalog(family, 60), random.Random(7))})


BS_WORD = "1,2,1,1,2,1,1,2,1"
# the largest prime below the Miller-Rabin bound, roots.PRIMALITY_BOUND
LARGE_PRIME = "3317044064679887385961813"

# (row name, CLI argv, stdin or a function giving it)
ROWS = [
    ("roots A60", ["roots", "--type", "A60"], None),
    ("roots B60", ["roots", "--type", "B60"], None),
    ("roots C60", ["roots", "--type", "C60"], None),
    ("roots D60", ["roots", "--type", "D60"], None),
    *((f"datum {family}60 {kind}", ["datum", "--type", f"{family}60", "--kind", kind], None)
      for family in "ABCD" for kind in ("adjoint", "sc")),
    *((f"isogeny enumerate {family}60 p2",
       ["isogeny", "enumerate", "--type", f"{family}60", "--p", "2"], None)
      for family in "ABCD"),
    # no special isogeny: B60's double bond has multiplicity 2, not p
    ("isogeny enumerate B60 large p", ["isogeny", "enumerate", "--type", "B60", "--p",
                                       LARGE_PRIME], None),
    ("weyl E7", ["weyl", "--type", "E7"], None),
    # past the default cap: refused with LayersTooLarge, not CapExceeded
    ("weyl E8 cap 700000000", ["weyl", "--type", "E8", "--cap", "700000000"], None),
    ("chevalley check C60 p2", ["chevalley", "check", "--type", "C60", "--p", "2"], None),
    ("chevalley check B20 p2", ["chevalley", "check", "--type", "B20", "--p", "2"], None),
    ("chevalley check B40 p2", ["chevalley", "check", "--type", "B40", "--p", "2"], None),
    ("chevalley check B60 p2", ["chevalley", "check", "--type", "B60", "--p", "2"], None),
    # as many long roots as short ones in all, but each component picks its
    # own partner rule: B30 looks partners up from its long roots
    ("chevalley check B30+C30 p2", ["chevalley", "check", "--type", "B30+C30", "--p", "2"],
     None),
    # refused as SimplyLaced after the root system is built
    *((f"chevalley check {family}60 p2", ["chevalley", "check", "--type", f"{family}60",
                                          "--p", "2"], None) for family in "AD"),
    ("selfcheck E8 10000", ["selfcheck", "--type", "E8", "--samples", "10000"], None),
    # at SELFCHECK_BUDGET: every sample checks its weights on a rank-60 path
    ("selfcheck A60 96", ["selfcheck", "--type", "A60", "--samples", "96"], None),
    # at the pushforward budgets: one step of exactly MAX_STEP_WEIGHTS, a word
    # under MAX_PUSH_WEIGHTS (4 361 entries), and that word four times, refused
    ("bs-weights A1 99999", ["bs-weights", "--type", "A1", "--word", "1", "--weight", "99999"],
     None),
    ("bs-weights A2 (121)x3 15,15",
     ["bs-weights", "--type", "A2", "--word", BS_WORD, "--weight", "15,15"], None),
    ("bs-weights A2 (121)x12 15,15",
     ["bs-weights", "--type", "A2", "--word", ",".join([BS_WORD] * 4), "--weight", "15,15"],
     None),
    ("classify nonfinite triple-bond 60", ["classify", "-"], _nonfinite_triple_bond),
    *((f"classify {family}60 relabelled", ["classify", "-"], partial(_relabelled_catalog, family))
      for family in "ABCD"),
]


def measure(row: str, argv: list[str], stdin: str | None = None) -> dict:
    """Run one CLI request in a fresh process and return its record."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    # files, not pipes: nothing has to be read while the child runs
    with tempfile.TemporaryFile() as src, tempfile.TemporaryFile() as out:
        src.write((stdin or "").encode())
        src.seek(0)
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "weylkit.cli", *argv], env=env,
                                stdin=src, stdout=out, stderr=subprocess.DEVNULL)
        timer = threading.Timer(TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        # hashed in chunks, so a large document does not raise this
        # process's peak, the floor under the next rows' figures
        digest = hashlib.sha256()
        out.seek(0)
        for chunk in iter(lambda: out.read(1 << 16), b""):
            digest.update(chunk)
        return {"row": row, "argv": argv, "code": proc.returncode,
                "wall_s": round(wall, 3), "stdout_bytes": os.fstat(out.fileno()).st_size,
                "stdout_sha256": digest.hexdigest(),
                "peak_mb": round(usage.ru_maxrss / 1024, 1)}


def main() -> None:
    for name, argv, stdin in ROWS:
        record = measure(name, argv, stdin() if callable(stdin) else stdin)
        print(json.dumps(record, sort_keys=True), flush=True)


if __name__ == "__main__":
    main()
