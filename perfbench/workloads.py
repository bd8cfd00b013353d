"""Seeded requests and independent output checks for the four workloads.

A workload builds one *round*: a list of requests whose number and cost
class do not depend on the seed; the seed picks their parameters and order.
A run repeats whole rounds, so runs with different seeds measure the same mix.

Every check returns ``OK``, ``FAILED`` (no documented outcome: wrong exit
code, not exactly one schema-valid JSON document, a traceback, a timeout) or
``WRONG`` (a documented outcome with a wrong answer). Expected answers come
from the tables and formulas below, not from weylkit.
"""

from __future__ import annotations

import json
import random
import re
import runpy
from dataclasses import dataclass
from math import prod
from pathlib import Path
from typing import Callable

OK, FAILED, WRONG = "ok", "failed", "wrong"
DEFAULT_CAP = 3_000_000   # the CLI's default Weyl enumeration cap

# Degrees of the basic invariants. |W| = prod d, the number of positive
# roots is sum (d - 1) and the Poincare polynomial is prod [d]_q.
def degrees(family: str, n: int) -> list[int]:
    if family == "A":
        return list(range(2, n + 2))
    if family in "BC":
        return list(range(2, 2 * n + 1, 2))
    if family == "D":
        return sorted(list(range(2, 2 * n - 1, 2)) + [n])
    return {("E", 6): [2, 5, 6, 8, 9, 12], ("E", 7): [2, 6, 8, 10, 12, 14, 18],
            ("E", 8): [2, 8, 12, 14, 18, 20, 24, 30], ("F", 4): [2, 6, 8, 12],
            ("G", 2): [2, 6]}[family, n]


def weyl_order(family, n):
    return prod(degrees(family, n))


def positive_roots(family, n):
    return sum(d - 1 for d in degrees(family, n))


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poincare(family, n):
    poly = [1]
    for d in degrees(family, n):
        poly = poly_mul(poly, [1] * d)
    return poly


def fundamental_cyclic(family, n):
    """Orders of the cyclic factors of weight lattice / root lattice."""
    if family == "A":
        return [n + 1]
    if family in "BC":
        return [2]
    if family == "D":
        return [4] if n % 2 else [2, 2]
    return {"E": {6: [3], 7: [2], 8: []}, "F": {4: []}, "G": {2: []}}[family][n]


def invariant_factors(orders: list[int]) -> list[int]:
    """Invariant factors (> 1, ascending) of a sum of cyclic groups."""
    by_prime: dict[int, list[int]] = {}
    for m in orders:
        p = 2
        while m > 1:
            if m % p == 0:
                q = 1
                while m % p == 0:
                    m //= p
                    q *= p
                by_prime.setdefault(p, []).append(q)
            p += 1
    k = max((len(v) for v in by_prime.values()), default=0)
    out = [1] * k
    for powers in by_prime.values():
        for i, q in enumerate(sorted(powers, reverse=True)):
            out[k - 1 - i] *= q
    return out


def catalog(family: str, n: int) -> list[list[int]]:
    """Cartan matrix in Bourbaki numbering; row i is simple root i paired with the coroots."""
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def edge(i, j, cij=-1, cji=-1):
        m[i][j], m[j][i] = cij, cji

    if family in "ABCD":
        chain = {"A": n - 1, "B": n - 2, "C": n - 2, "D": n - 2}[family]
        for i in range(chain):
            edge(i, i + 1)
        if family == "B":
            edge(n - 2, n - 1, -1, -2)
        elif family == "C":
            edge(n - 2, n - 1, -2, -1)
        elif family == "D":
            edge(n - 3, n - 1)
    elif family == "E":
        edge(0, 2)
        edge(1, 3)
        for i in range(2, n - 1):
            edge(i, i + 1)
    elif family == "F":
        edge(0, 1)
        edge(1, 2, -2, -1)
        edge(2, 3)
    elif family == "G":
        edge(0, 1, -1, -3)
    return m


def block_sum(parts: list[list[list[int]]]) -> list[list[int]]:
    n = sum(len(p) for p in parts)
    m = [[0] * n for _ in range(n)]
    off = 0
    for p in parts:
        for i, row in enumerate(p):
            m[off + i][off:off + len(row)] = row
        off += len(p)
    return m


def relabel(m: list[list[int]], rng: random.Random) -> list[list[int]]:
    perm = list(range(len(m)))
    rng.shuffle(perm)
    return [[m[a][b] for b in perm] for a in perm]


def first_violation(m) -> tuple:
    """The first broken Cartan axiom in the documented order, or None."""
    n = len(m)
    if any(len(row) != n for row in m):
        return ("GCMError",)
    if any(not isinstance(x, int) or isinstance(x, bool) for row in m for x in row):
        return ("GCMError",)
    for i in range(n):
        for j in range(n):
            if i == j:
                if m[i][i] != 2:
                    return ("DiagonalNotTwo", i)
            elif m[i][j] > 0:
                return ("PositiveOffDiagonal", i, j)
            elif (m[i][j] == 0) != (m[j][i] == 0):
                return ("AsymmetricZero", i, j)
    return None


@dataclass
class Request:
    argv: list[str]                  # after ``python3 -m weylkit.cli``, or the script's
    check: Callable[[int, bytes, bytes], str]
    ops: int = 1
    stdin: bytes | None = None
    script: str | None = None        # run this script instead of the CLI


@dataclass
class Context:
    root: Path                       # the checkout
    work: Path                       # scratch directory inside the checkout
    validate: Callable[[object], None]   # weylkit.schemas.validate_document

    def doc(self, rc, out, err, codes) -> dict | None:
        """The reply's single schema-valid document, or None if it has none."""
        if rc not in codes or b"Traceback (most recent call last)" in err:
            return None
        if not out.endswith(b"\n") or out.count(b"\n") != 1:
            return None
        try:
            doc = json.loads(out)
            self.validate(doc)
        except ValueError:
            return None
        return doc

    def expect(self, codes, predicate) -> Callable[[int, bytes, bytes], str]:
        def check(rc, out, err):
            doc = self.doc(rc, out, err, codes)
            if doc is None:
                return FAILED
            try:
                return OK if predicate(doc) else WRONG
            except (KeyError, TypeError, IndexError):
                return WRONG
        return check


# ---------------------------------------------------------------------------
# classify reports
# ---------------------------------------------------------------------------

def finite_report_ok(matrix, comps: list[tuple[str, int]]) -> Callable[[dict], bool]:
    """Check a finite-type report against the components that built the matrix."""
    def ok(doc):
        if not (doc["gcm"] and doc["finite"] and doc["errors"] == []
                and doc["matrix"] == matrix):
            return False
        types = doc["type"]
        if sorted(tuple(t) for t in types) != sorted(comps):
            return False
        covered = sorted(i for nodes in doc["node_maps"] for i in nodes)
        if covered != list(range(len(matrix))) or len(doc["node_maps"]) != len(types):
            return False
        owner = {}
        for (f, r), nodes in zip(types, doc["node_maps"]):
            cat = catalog(f, r)
            if len(nodes) != r or any(cat[a][b] != matrix[nodes[a]][nodes[b]]
                                      for a in range(r) for b in range(r)):
                return False
            owner.update((i, id(nodes)) for i in nodes)
        if any(matrix[i][j] and owner[i] != owner[j]
               for i in range(len(matrix)) for j in range(len(matrix))):
            return False
        d = doc["symmetrizer"]
        if len(d) != len(matrix) or any(
                d[i] * matrix[i][j] != d[j] * matrix[j][i]
                for i in range(len(matrix)) for j in range(len(matrix))):
            return False
        npos = sum(positive_roots(f, r) for f, r in comps)
        order = prod(weyl_order(f, r) for f, r in comps)
        if order > DEFAULT_CAP:
            enumerated, poly = "skipped", "skipped"
        else:
            enumerated, poly = order, [1]
            for f, r in comps:
                poly = poly_mul(poly, poincare(f, r))
        return (doc["positive_roots"] == npos and doc["dimension"] == npos
                and doc["weyl_order"] == order
                and doc["weyl_order_enumerated"] == enumerated and doc["poincare"] == poly
                and doc["fundamental_group"] == invariant_factors(
                    [m for f, r in comps for m in fundamental_cyclic(f, r)]))
    return ok


def nonfinite_report_ok(matrix):
    return lambda doc: (doc["gcm"] is True and doc["finite"] is False
                        and doc["errors"] == [] and doc["matrix"] == matrix)


def invalid_report_ok(violation):
    def ok(doc):
        if doc["gcm"] is not False or len(doc["errors"]) != 1:
            return False
        err = doc["errors"][0]
        return (err["code"], *(err[k] for k in ("i", "j") if k in err)) == violation
    return ok


# ---------------------------------------------------------------------------
# cli-small
# ---------------------------------------------------------------------------

SMALL_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
               ("C", 3), ("C", 4), ("D", 4), ("F", 4), ("G", 2)]


def _label(f, n):
    return f"{f}{n}"


def cli_small(seed: int, ctx: Context) -> list[Request]:
    """The 12 pinned golden invocations plus 29 seeded requests on rank <= 4."""
    rng = random.Random(seed)
    cases = runpy.run_path(str(ctx.root / "tests" / "cli_cases.py"))["ALL_CASES"]
    golden_dir = ctx.root / "tests" / "golden"
    reqs = []
    for name, argv, stdin, code in cases:
        golden = (golden_dir / f"{name}.golden").read_bytes()
        reqs.append(Request(list(argv), _golden_check(ctx, golden, code),
                            stdin=stdin.encode() if stdin is not None else None))

    def pick():
        return rng.choice(SMALL_TYPES)

    def typed(cmd, f, n, *extra):
        return [*cmd, "--type", _label(f, n), *extra]

    for _ in range(3):   # weyl
        f, n = pick()
        reqs.append(Request(typed(["weyl"], f, n), ctx.expect({0}, lambda d, f=f, n=n: (
            d["order"] == d["enumerated"] == weyl_order(f, n)
            and d["poincare"] == poincare(f, n)
            and d["longest_length"] == positive_roots(f, n)))))
    for _ in range(3):   # roots
        f, n = pick()
        reqs.append(Request(typed(["roots"], f, n), ctx.expect({0}, lambda d, f=f, n=n: (
            len(d["roots"]) == 2 * positive_roots(f, n)
            and sum(r["positive"] for r in d["roots"]) == positive_roots(f, n)))))
    for _ in range(3):   # dim: the highest weight 0 gives the trivial module
        f, n = pick()
        w = [rng.randint(0, 3) for _ in range(n)]
        reqs.append(Request(typed(["dim"], f, n, "--weight", ",".join(map(str, w))),
                            ctx.expect({0}, lambda d, w=w: (
                                d["weight"] == w and d["value"] >= 1
                                and (d["value"] == 1) == (not any(w))))))
    for _ in range(2):   # vol
        f, n = pick()
        w = [rng.randint(-3, 3) for _ in range(n)]
        reqs.append(Request(typed(["vol"], f, n, "--weight", ",".join(map(str, w))),
                            ctx.expect({0}, lambda d, w=w: d["weight"] == w)))
    for _ in range(2):   # selfcheck
        f, n = pick()
        reqs.append(Request(typed(["selfcheck"], f, n, "--seed", str(rng.randrange(1000)),
                                  "--samples", "50"),
                            ctx.expect({0}, lambda d: d["antisymmetry"] and d["equivariance"])))
    for _ in range(3):   # datum
        f, n = pick()
        kind = rng.choice(["adjoint", "sc"])
        reqs.append(Request(typed(["datum"], f, n, "--kind", kind),
                            ctx.expect({0}, lambda d, f=f, n=n: (
                                d["rank"] == n and len(d["roots"]) == len(d["coroots"])
                                == 2 * positive_roots(f, n)))))
    for _ in range(3):   # isogeny enumerate
        f, n = pick()
        reqs.append(Request(["isogeny", "enumerate", "--type", _label(f, n),
                             "--p", str(rng.choice([2, 3]))],
                            ctx.expect({0}, lambda d: isinstance(d["isogenies"], list))))
    for _ in range(2):   # chevalley: simply-laced types are refused by design
        f, n = rng.choice([t for t in SMALL_TYPES if t[0] in "BCFG"])
        reqs.append(Request(["chevalley", "check", "--type", _label(f, n),
                             "--p", str(rng.choice([2, 3]))],
                            ctx.expect({0}, lambda d: isinstance(d["passed"], bool))))
    for _ in range(3):   # bs-weights with a short word
        f, n = pick()
        word = [rng.randint(1, n) for _ in range(rng.randint(1, 4))]
        w = [rng.randint(-3, 3) for _ in range(n)]
        reqs.append(Request(typed(["bs-weights"], f, n, "--word", ",".join(map(str, word)),
                                  "--weight", ",".join(map(str, w))),
                            ctx.expect({0}, lambda d, word=word, w=w: (
                                d["word"] == word and d["weight"] == w))))
    for _ in range(2):   # classify of a relabelled matrix of total rank <= 4
        parts = [pick()]
        room = 4 - parts[0][1]
        if room and rng.random() < 0.5:
            parts.append(rng.choice([t for t in SMALL_TYPES if t[1] <= room]))
        matrix = relabel(block_sum([catalog(f, n) for f, n in parts]), rng)
        reqs.append(Request(["classify"], ctx.expect({0}, finite_report_ok(matrix, parts)),
                            stdin=json.dumps({"matrix": matrix}).encode()))
    # isogeny validate: a Frobenius morphism p^k on a pinned datum, one
    # pinned special isogeny, and a Frobenius with a broken q entry
    special = json.loads((golden_dir / "isogeny_g2_p3.golden").read_bytes())["isogenies"][0]
    datum = {k: special["source"][k] for k in ("rank", "roots", "coroots", "simple")}
    for i in range(2):
        p, k = rng.choice([2, 3, 5, 7]), rng.randint(1, 3)
        scale, rank = p ** k, datum["rank"]
        phi = {"source": datum, "target": datum, "p": p,
               "f": [[scale * (a == b) for b in range(rank)] for a in range(rank)],
               "u": list(range(rank)), "q": [scale] * rank}
        if i:
            phi["q"][rng.randrange(rank)] += 1
        path = ctx.work / f"frobenius{i}.json"
        path.write_text(json.dumps(phi))
        if i:
            check = ctx.expect({1}, lambda d: d["valid"] is False
                               and d["error"]["code"] == "QNotPowerOfP")
        else:
            check = ctx.expect({0}, lambda d, k=k: d["valid"] and d["constant"]
                               and not d["primitive"] and d["frobenius_exponent"] == k)
        reqs.append(Request(["isogeny", "validate", "--file", str(path)], check))
    path = ctx.work / "special.json"
    path.write_text(json.dumps(special))
    reqs.append(Request(["isogeny", "validate", "--file", str(path)],
                        ctx.expect({0}, lambda d: d["valid"] and d["primitive"]
                                   and not d["constant"] and d["frobenius_exponent"] == 0)))
    rng.shuffle(reqs)
    return reqs


def _golden_check(ctx: Context, golden: bytes, code: int):
    def check(rc, out, err):
        if ctx.doc(rc, out, err, {code}) is None:
            return FAILED
        return OK if out == golden else WRONG
    return check


# ---------------------------------------------------------------------------
# classify-highrank
# ---------------------------------------------------------------------------

# (families to pick from, smallest rank); the rank is that or one more.
# Costs grow steeply with rank, so the families of a slot cost alike. Finite
# inputs stop at rank 39 (about 1.7 s): a single A59 request (6.5 s) per
# round made the run-to-run spread several times larger. The cheap
# non-finite, invalid and malformed inputs still reach rank 60.
FINITE_SLOTS = [("A", 9), ("BC", 10), ("D", 11), ("A", 12), ("BC", 13), ("D", 14),
                ("A", 16), ("BC", 18), ("D", 20), ("A", 23), ("BC", 26), ("D", 30),
                ("A", 38)]
SMALL_EXTRA = [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3)]
RANK_BANDS = [(9, 15), (16, 25), (26, 35), (36, 45), (46, 60)]


def _nonfinite(kind: int, n: int) -> list[list[int]]:
    """A valid generalized Cartan matrix of rank n that is not of finite type."""
    if kind == 0:        # affine A: a cycle
        m = catalog("A", n)
        m[0][n - 1] = m[n - 1][0] = -1
    elif kind == 1:      # T(2,3,n-3) tree, the E_n diagram: affine E9, indefinite beyond
        m = catalog("E", n)
    elif kind == 2:      # chain with a double bond at each end
        m = catalog("C", n)
        m[0][1], m[1][0] = -1, -2
    else:                # chain ending in a triple bond
        m = catalog("A", n)
        m[n - 2][n - 1], m[n - 1][n - 2] = -1, -3
    return m


def classify_highrank(seed: int, ctx: Context) -> list[Request]:
    """13 finite, 9 non-finite, 9 invalid, 7 malformed and 2 boundary inputs."""
    rng = random.Random(seed)
    reqs = []

    def send(payload, check):
        text = payload if isinstance(payload, str) else json.dumps(payload)
        reqs.append(Request(["classify"], check, stdin=text.encode()))

    def band(i):
        lo, hi = RANK_BANDS[i % len(RANK_BANDS)]
        return rng.randint(lo, hi)

    def base(n):
        return relabel(catalog(rng.choice("ABCD"), n), rng)

    for families, low in FINITE_SLOTS:
        n = low + rng.randrange(2)
        comps = [(rng.choice(families), n)]
        if rng.random() < 0.5:
            comps.append(rng.choice(SMALL_EXTRA))
        matrix = relabel(block_sum([catalog(f, r) for f, r in comps]), rng)
        send({"matrix": matrix}, ctx.expect({0}, finite_report_ok(matrix, comps)))
    for i in range(9):
        n = band(i)
        matrix = relabel(_nonfinite(i % 4, n), rng)
        send({"matrix": matrix}, ctx.expect({2}, nonfinite_report_ok(matrix)))
    for i in range(9):
        matrix = base(band(i))
        n = len(matrix)
        a, b = rng.sample(range(n), 2)
        kind = i % 5
        if kind == 0:
            matrix[a][a] = rng.choice([0, 1, 3])
        elif kind == 1:
            zeros = [(x, y) for x in range(n) for y in range(n) if x != y and not matrix[x][y]]
            x, y = rng.choice(zeros)
            matrix[x][y] = matrix[y][x] = 1
        elif kind == 2:
            edges = [(x, y) for x in range(n) for y in range(n) if x != y and matrix[x][y]]
            x, y = rng.choice(edges)
            matrix[x][y] = 0
        elif kind == 3:
            matrix[a].pop()
        else:
            matrix[a][b] = rng.choice([-1.5, "-1", True])
        violation = first_violation(matrix)
        send({"matrix": matrix}, ctx.expect({3}, invalid_report_ok(violation)))
    # malformed documents, each at a band rank
    for i in range(7):
        matrix = base(band(i))
        text = json.dumps({"matrix": matrix})
        malformed = [
            (text[:rng.randint(1, len(text) - 2)], 4),
            (json.dumps({"mat": matrix}), 4),
            (json.dumps([matrix]), 4),
            (json.dumps({"matrix": text}), 4),
            ("", 4),
            (json.dumps({"matrix": matrix[:-1]}), 3),
            (json.dumps({"matrix": {"rows": matrix}}), 4),
        ][i]
        send(malformed[0], ctx.expect({malformed[1]}, lambda d: True))
    # input-boundary cases with known defects: the documented outcome is
    # exit 3 for a flat list and any documented code for the empty matrix
    send('{"matrix": [1, 2]}', ctx.expect({3}, lambda d: d.get("gcm") is False))
    send('{"matrix": []}', ctx.expect({0, 2, 3, 4}, lambda d: True))
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# weyl-enum
# ---------------------------------------------------------------------------

# E7 (10 s, 114 MB) is left out: one such request per run varied by up to a
# quarter between runs on a shared machine. Each group runs three times a
# round, so that D7 sets the tail and most of the element count.
WEYL_TYPES = [("D", 7), ("E", 6), ("B", 6), ("A", 7), ("F", 4)] * 3


def weyl_enum(seed: int, ctx: Context) -> list[Request]:
    """``weyl --type`` for each entry of WEYL_TYPES; one op per enumerated element."""
    rng = random.Random(seed)
    reqs = []
    for f, n in WEYL_TYPES:
        order = weyl_order(f, n)

        def ok(d, f=f, n=n, order=order):
            hist = d["poincare"]
            return (d["order"] == d["enumerated"] == order == sum(hist)
                    and hist == hist[::-1] and hist == poincare(f, n)
                    and d["longest_length"] == d["reflections"] == positive_roots(f, n))
        reqs.append(Request(["weyl", "--type", _label(f, n)], ctx.expect({0}, ok), ops=order))
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# pushforward-scan
# ---------------------------------------------------------------------------

# Length 5 (about 9 000 pushforwards, 0.5 s) gives some twenty scans per
# run; at length 6 or 7 a run holds too few scans to repeat within bounds.
SCAN_LENGTH = 5
SCAN_TYPES = [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3)]
_SCAN_LINE = re.compile(rb"^\s*(\w+): +(\d+) words, +(\d+) pushforwards, +(\d+) graded entries, "
                        rb"all contained$")


def scan_counts(length: int) -> dict[str, tuple[int, int]]:
    """Words of length <= L and pushes per type: one per positive root per word."""
    out = {}
    for f, n in SCAN_TYPES:
        words = sum(n ** k for k in range(length + 1))
        out[_label(f, n)] = (words, words * positive_roots(f, n))
    return out


def pushforward_scan(seed: int, ctx: Context, length: int = SCAN_LENGTH) -> list[Request]:
    """``scripts/containment_scan.py`` at a fixed length; the seed has no inputs to pick."""
    expected = scan_counts(length)
    total = sum(p for _, p in expected.values())

    def check(rc, out, err):
        if rc != 0 or b"Traceback (most recent call last)" in err:
            return FAILED
        lines = out.decode(errors="replace").splitlines()
        if len(lines) != len(expected) + 1 or not re.match(
                rf"^total {total} pushforwards, zero violations, ", lines[-1]):
            return FAILED
        seen = {}
        for line in lines[:-1]:
            m = _SCAN_LINE.match(line.encode())
            if not m:
                return FAILED
            seen[m[1].decode()] = (int(m[2]), int(m[3]))
        return OK if seen == expected else WRONG

    script = str(ctx.root / "scripts" / "containment_scan.py")
    return [Request([str(length)], check, ops=total, script=script)]


BUILDERS = {
    "cli-small": cli_small,
    "classify-highrank": classify_highrank,
    "weyl-enum": weyl_enum,
    "pushforward-scan": pushforward_scan,
}


def warmup(workload: str, seed: int, ctx: Context) -> Request:
    """One cheap request through the workload's entry point."""
    if workload == "pushforward-scan":
        return pushforward_scan(seed, ctx, length=1)[0]
    matrix = catalog("G", 2)
    if workload == "classify-highrank":
        return Request(["classify"], ctx.expect({0}, finite_report_ok(matrix, [("G", 2)])),
                       stdin=json.dumps({"matrix": matrix}).encode())
    return Request(["weyl", "--type", "G2"],
                   ctx.expect({0}, lambda d: d["poincare"] == poincare("G", 2)))
