"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. Every check is exact
(integer or rational equality); the only tolerances are the wall-clock
budgets, asserted at the end of each criterion.
"""

import io
import json
import random
import sys
import time
from contextlib import redirect_stdout
from itertools import product
from pathlib import Path

from weylkit import axioms, cartan, gcm
from weylkit.cartan import fundamental_group
from weylkit.characters import EulerData, shifted_euler_characteristic, volume, weyl_dim
from weylkit.chevalley import (HypothesesNotMet, bracket_constant,
                               short_root_ideal_check, steinberg_check)
from weylkit.isogeny import (compose, enumerate_special,
                             factor_primitive_constant, frobenius,
                             is_constant, is_primitive, validate_pmorphism)
from weylkit.pushforward import h0_rank, occurs, pushforward_word
from weylkit.rootdata import (adjoint_datum, intermediate_lattices, pinned_isomorphism,
                              simply_connected_datum)
from weylkit.roots import generate_roots, nonsimple_positives
from weylkit.cosets import weyl_order
from weylkit.schemas import validate_document
from weylkit.weyl import enumerate_weyl, poincare_polynomial, simple_reflections

from cli_cases import CLASSIFY_CASES, SUBCOMMAND_CASES
from oracles import brute_bracket_m, freudenthal_dim, rebased

ALL_TYPES = cartan.catalog_types(max_rank=8)
RANK3_IRREDUCIBLE = [("A", 1), ("A", 2), ("B", 2), ("G", 2),
                     ("A", 3), ("B", 3), ("C", 3)]
RANK4_TYPES = cartan.catalog_types(max_rank=4)

_RS_CACHE: dict = {}


def _rs(family, rank):
    key = (family, rank)
    if key not in _RS_CACHE:
        _RS_CACHE[key] = generate_roots(gcm.catalog(family, rank))
    return _RS_CACHE[key]


def _report(cid, message, started, budget):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {cid} took {elapsed:.2f}s, budget {budget}s"
    print(f"ACCEPTANCE {cid} {message}: PASS ({elapsed:.2f}s < {budget:.0f}s)")


def test_c1_classification_round_trip():
    started = time.monotonic()
    rng = random.Random(1)
    for family, rank in ALL_TYPES:
        g = gcm.catalog(family, rank)
        dtype = cartan.classify(g)
        assert dtype.components == ((family, rank, tuple(range(rank))),)
        for _ in range(20):
            perm = list(range(rank))
            rng.shuffle(perm)
            rows = [[g[perm[i]][perm[j]] for j in range(rank)] for i in range(rank)]
            relabeled = axioms.validate_gcm(rows)
            got = cartan.classify(relabeled)
            assert got.multiset() == ((family, rank),)
            ((_, _, nodes),) = got.components
            for i in range(rank):
                for j in range(rank):
                    assert rows[nodes[i]][nodes[j]] == g[i][j]
    _report("C1", "classification round-trip, 31 types x 20 relabelings", started, 1.0)


def test_c2_positive_root_counts():
    started = time.monotonic()
    table = {"A": lambda n: n * (n + 1) // 2, "B": lambda n: n * n,
             "C": lambda n: n * n, "D": lambda n: n * (n - 1),
             "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
             "F": lambda n: 24, "G": lambda n: 6}
    for family, rank in ALL_TYPES:
        rs = _rs(family, rank)
        assert rs.num_positive == table[family](rank), (family, rank)
    _report("C2", "positive-root counts match the closed forms", started, 5.0)


def test_c3_weyl_groups():
    started = time.monotonic()
    cap = 3_000_000
    enumerated = 0
    for family, rank in ALL_TYPES:
        order = weyl_order(_rs(family, rank))
        if order > cap:
            continue
        rs = _rs(family, rank)
        group = enumerate_weyl(rs, cap=cap)
        assert group.order == order, (family, rank)
        poly = poincare_polynomial(group)
        assert sum(poly) == order
        assert poly == poly[::-1]
        assert poly[0] == poly[-1] == 1
        refl = group.reflections()
        assert len(refl) == rs.num_positive
        mirrors = set()
        for t in refl:
            negated = [i for i in range(rs.num_positive)
                       if t.perm[i] == rs.negative_of(i)]
            assert len(negated) == 1
            mirrors.add(negated[0])
        assert mirrors == set(range(rs.num_positive))
        enumerated += 1
    assert enumerated == 27   # every catalog type of rank <= 8 with |W| <= 3e6
    m_table = {0: 2, 1: 3, 2: 4, 3: 6}
    for family, rank in RANK4_TYPES:
        rs = _rs(family, rank)
        gens = simple_reflections(rs)
        for i in range(rank):
            for j in range(i + 1, rank):
                prod, order = gens[i] * gens[j], 1
                cur = prod
                while not cur.is_identity():
                    cur, order = cur * prod, order + 1
                assert order == m_table[rs.gcm[i][j] * rs.gcm[j][i]]
    _report("C3", "Weyl orders, T-bijection, Poincare, braid orders", started, 60.0)


def test_c4_pushforward_containment_suite():
    started = time.monotonic()
    checked = 0
    for family, rank in RANK3_IRREDUCIBLE:
        rs = _rs(family, rank)
        zero = tuple(0 for _ in range(rank))
        minus_npp = {tuple(-x for x in r.weight) for r in nonsimple_positives(rs)}
        betas = [tuple(-x for x in r.weight) for r in nonsimple_positives(rs)]
        simples = [tuple(-x for x in rs.simple_weight(i)) for i in range(rank)]
        for n in range(7):
            for word in product(range(rank), repeat=n):
                for lam in betas:
                    gw = pushforward_word(rs, word, lam)
                    assert set(w for (w, _) in gw) <= minus_npp
                    checked += 1
                for i in range(rank):
                    gw = pushforward_word(rs, word, simples[i])
                    gamma0 = zero if occurs(word, i) else simples[i]
                    assert set(w for (w, _) in gw) <= minus_npp | {gamma0}
                    mult = sum(m for (w, d), m in gw.items() if w == gamma0)
                    assert mult == 1
                    if gamma0 == zero:
                        assert all(d == 1 for (w, d) in gw if w == zero)
                    assert h0_rank(rs, word, i) == (1 if occurs(word, i) else 0)
                    checked += 1
    # sum over the 7 types of (words of length <= 6) x (starting weights)
    assert checked == 27_890
    _report("C4", f"pushforward containments over {checked} words-times-weights", started, 60.0)


def test_c5_character_formulas():
    started = time.monotonic()
    rng = random.Random(5)
    for family, rank in RANK4_TYPES:
        rs = _rs(family, rank)
        ed = EulerData.from_root_system(rs)
        assert shifted_euler_characteristic(ed, ed.rho) == 1
        elements = enumerate_weyl(rs).elements()
        for _ in range(1000):
            d = tuple(rng.randint(-9, 9) for _ in range(rank))
            i = rng.randrange(rank)
            refl = tuple(x - d[i] * a for x, a in zip(d, rs.simple_weight(i)))
            assert shifted_euler_characteristic(ed, refl) == \
                -shifted_euler_characteristic(ed, d)
            w = rng.choice(elements)
            assert volume(ed, w.act_weight(d)) == w.det() * volume(ed, d)
    for family, rank in RANK3_IRREDUCIBLE:
        rs = _rs(family, rank)
        ed = EulerData.from_root_system(rs)
        for lam in product(range(4), repeat=rank):
            assert weyl_dim(ed, lam) == freudenthal_dim(rs, lam), (family, rank, lam)
    a2 = EulerData.from_root_system(_rs("A", 2))
    assert volume(a2, (2, 2)) == 48
    _report("C5", "chi symmetries, 12000 samples; dims vs Freudenthal", started, 30.0)


def test_c6_root_data():
    started = time.monotonic()
    classical = {"A": lambda n: (n + 1,), "B": lambda n: (2,), "C": lambda n: (2,),
                 "D": lambda n: (2, 2) if n % 2 == 0 else (4,),
                 "E": lambda n: {6: (3,), 7: (2,), 8: ()}[n],
                 "F": lambda n: (), "G": lambda n: ()}
    for family, rank in ALL_TYPES:
        g = gcm.catalog(family, rank)
        got = tuple(sorted(fundamental_group(g)))
        expected = tuple(sorted(x for x in classical[family](rank) if x > 1))
        assert got == expected, (family, rank)
    bases = {2: [[1, 1], [0, 1]], 3: [[1, 0, 1], [0, 1, 1], [0, 0, 1]]}
    for label in ["A2", "B2", "G2", "A3", "B3"]:
        g = gcm.parse_type(label)
        datum = adjoint_datum(g)
        assert pinned_isomorphism(datum, datum) == tuple(
            tuple(int(i == j) for j in range(g.n)) for i in range(g.n))
        basis = bases[g.n]
        moved = rebased(datum, basis)
        f = pinned_isomorphism(datum, moved)
        assert f == tuple(tuple(row) for row in basis)
        back = pinned_isomorphism(moved, datum)
        from weylkit.intmat import identity, matmul
        assert matmul([list(r) for r in f], [list(r) for r in back]) == identity(g.n)
        if fundamental_group(g):
            sc = simply_connected_datum(g)
            assert pinned_isomorphism(datum, sc) is None
            assert pinned_isomorphism(sc, datum) is None
        lattices = intermediate_lattices(g)
        for a in range(len(lattices)):
            for b in range(a + 1, len(lattices)):
                assert pinned_isomorphism(lattices[a], lattices[b]) is None
    _report("C6", "fundamental groups (SNF) and pinned rigidity", started, 5.0)


def test_c7_special_isogenies():
    started = time.monotonic()
    expected = {(("B", 2), 2), (("B", 3), 2), (("C", 3), 2),
                (("B", 4), 2), (("C", 4), 2), (("F", 4), 2), (("G", 2), 3)}
    for p in (2, 3, 5):
        for family, rank in RANK4_TYPES:
            found = enumerate_special(family, rank, p)
            assert bool(found) == (((family, rank), p) in expected), (family, rank, p)
            for phi in found:
                validate_pmorphism(phi)
                assert is_primitive(phi) and not is_constant(phi)
                prim, k = factor_primitive_constant(phi)
                assert k == 0 and prim is phi
                rebuilt = compose(frobenius(phi.target, p, 2), phi)
                validate_pmorphism(rebuilt)
                prim2, k2 = factor_primitive_constant(rebuilt)
                assert k2 == 2 and prim2.q == phi.q and prim2.f == phi.f
    _report("C7", "special-isogeny table for p in {2,3,5}, rank <= 4", started, 10.0)


def test_c8_chevalley_suite():
    started = time.monotonic()
    for family, rank in RANK4_TYPES:
        rs = _rs(family, rank)
        for a in rs.roots:
            for b in rs.roots:
                total = tuple(x + y for x, y in zip(a.coords, b.coords))
                if not rs.is_root(total):
                    continue
                assert bracket_constant(rs, a.coords, b.coords).m == \
                    brute_bracket_m(rs.is_root, a.coords, b.coords)
    for label in ["B2", "B3", "C3", "F4", "G2"]:
        rs = generate_roots(gcm.parse_type(label))
        checked = 0
        for a in rs.roots:
            for b in rs.roots:
                try:
                    rep = steinberg_check(rs, a.coords, b.coords)
                except HypothesesNotMet:
                    continue
                assert rep.holds, (label, a.coords, b.coords)
                checked += 1
        assert checked > 0
    for label, p in [("B2", 2), ("B3", 2), ("C3", 2), ("F4", 2), ("G2", 3)]:
        report = short_root_ideal_check(generate_roots(gcm.parse_type(label)), p)
        assert report.passed and not report.violations, (label, p)
    _report("C8", "bracket constants, string identity, short-root ideal", started, 30.0)


def test_c9_cli_determinism():
    started = time.monotonic()
    golden_dir = Path(__file__).parent / "golden"

    def run(argv, payload):
        buf = io.StringIO()
        old = sys.stdin
        try:
            if payload is not None:
                sys.stdin = io.StringIO(payload)
            with redirect_stdout(buf):
                code = __import__("weylkit.cli", fromlist=["main"]).main(argv)
        finally:
            sys.stdin = old
        return code, buf.getvalue()

    for name, argv, payload, expected_code in CLASSIFY_CASES + SUBCOMMAND_CASES:
        code, out = run(argv, payload)
        assert code == expected_code, name
        assert out == (golden_dir / f"{name}.golden").read_text(encoding="utf-8"), name
        validate_document(json.loads(out))
    _report("C9", "golden bytes and schemas for 3+9 CLI invocations", started, 5.0)
