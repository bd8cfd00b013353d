"""scripts/edge_table.py measures a request in a fresh process; only the
record's fields are checked, never a figure."""

import importlib.util
from pathlib import Path

from weylkit.checks import PRIMALITY_BOUND, is_prime

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("edge_table", ROOT / "scripts" / "edge_table.py")
edge_table = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(edge_table)


def test_measure_records_the_child_request():
    record = edge_table.measure("roots A1", ["roots", "--type", "A1"])
    assert sorted(record) == ["argv", "code", "peak_mb", "row", "stdout_bytes", "stdout_sha256",
                              "wall_s"]
    assert record["row"] == "roots A1" and record["argv"] == ["roots", "--type", "A1"]
    assert record["code"] == 0
    assert record["stdout_bytes"] > 0 and record["wall_s"] > 0 and record["peak_mb"] > 0
    assert len(record["stdout_sha256"]) == 64


def test_large_prime_row_is_a_prime_under_the_bound():
    # the row times the Miller-Rabin test at its largest admitted prime
    p = int(edge_table.LARGE_PRIME)
    assert p < PRIMALITY_BOUND and is_prime(p)
    assert not any(is_prime(q) for q in range(p + 1, PRIMALITY_BOUND))
