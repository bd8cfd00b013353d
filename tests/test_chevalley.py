import pytest

from weylkit import cartan, gcm
from weylkit.chevalley import (ChevalleyError, HypothesesNotMet, SimplyLaced,
                               SumNotARoot, bracket_constant,
                               short_root_ideal_check, steinberg_check)
from weylkit.roots import generate_roots

from oracles import all_pairs_ideal_check, brute_bracket_m

DOUBLY_LACED = [("B2", 2), ("B3", 2), ("C3", 2), ("B4", 2), ("C4", 2),
                ("F4", 2), ("G2", 3)]


def _rs(label):
    return generate_roots(gcm.parse_type(label))


def test_bracket_constant_a2():
    rs = _rs("A2")
    assert bracket_constant(rs, (1, 0), (0, 1)).m == 1


def test_bracket_constant_b2():
    rs = _rs("B2")
    short = next(r for r in rs.simples if r.length == 1)
    long_ = next(r for r in rs.simples if r.length == 2)
    # short simple against long simple: the string starts at beta
    assert bracket_constant(rs, short.coords, long_.coords).m == 1
    # short simple against the mixed short root: the divisibility witness
    mixed = tuple(a + b for a, b in zip(short.coords, long_.coords))
    assert bracket_constant(rs, short.coords, mixed).m == 2


def test_bracket_requires_root_sum():
    rs = _rs("A2")
    with pytest.raises(SumNotARoot):
        bracket_constant(rs, (1, 0), (1, 0))
    with pytest.raises(SumNotARoot):
        bracket_constant(rs, (1, 1), (1, 0))


def test_bracket_matches_brute_force_exhaustively():
    for family, rank in cartan.catalog_types(max_rank=4):
        rs = generate_roots(gcm.catalog(family, rank))
        for a in rs.roots:
            for b in rs.roots:
                total = tuple(x + y for x, y in zip(a.coords, b.coords))
                if not rs.is_root(total):
                    continue
                m = bracket_constant(rs, a.coords, b.coords).m
                assert m == brute_bracket_m(rs.is_root, a.coords, b.coords)
                assert m in (1, 2, 3)


def test_steinberg_b2_witness():
    rs = _rs("B2")
    short = next(r for r in rs.simples if r.length == 1)
    long_ = next(r for r in rs.simples if r.length == 2)
    mixed = tuple(a + b for a, b in zip(short.coords, long_.coords))
    rep = steinberg_check(rs, short.coords, mixed)
    assert (rep.down, rep.up, rep.length_ratio) == (1, 1, 2)
    assert rep.holds   # 2 = 1 * 2


def test_steinberg_simply_laced_raises():
    rs = _rs("A2")
    for a in rs.roots:
        for b in rs.roots:
            with pytest.raises(HypothesesNotMet):
                steinberg_check(rs, a.coords, b.coords)


def test_steinberg_g2_ratio_three():
    rs = _rs("G2")
    seen = 0
    for a in rs.roots:
        if a.length != 1:
            continue
        for b in rs.roots:
            try:
                rep = steinberg_check(rs, a.coords, b.coords)
            except HypothesesNotMet:
                continue
            assert rep.length_ratio == 3
            assert rep.holds
            seen += 1
    assert seen > 0


def test_steinberg_holds_on_all_hypothesis_pairs():
    for label in ["B2", "B3", "C3", "F4", "G2"]:
        rs = _rs(label)
        checked = 0
        for a in rs.roots:
            for b in rs.roots:
                try:
                    rep = steinberg_check(rs, a.coords, b.coords)
                except HypothesesNotMet:
                    continue
                assert rep.holds, (label, a.coords, b.coords)
                checked += 1
        assert checked > 0, label


def test_short_ideal_passes_on_table():
    for label, p in DOUBLY_LACED:
        report = short_root_ideal_check(_rs(label), p)
        assert report.passed, (label, p)
        assert report.bracket_triples, label


def test_short_ideal_rejects_non_prime():
    for p in (0, 1, 4):
        with pytest.raises(ChevalleyError, match="not prime"):
            short_root_ideal_check(_rs("B2"), p)


def test_short_ideal_rejects_simply_laced():
    with pytest.raises(SimplyLaced):
        short_root_ideal_check(_rs("A3"), 2)


def test_short_ideal_wrong_prime_reports_violations():
    report = short_root_ideal_check(_rs("B2"), 3)
    assert not report.passed
    assert all(v[0] == "bracket" for v in report.violations)


def test_g2_square_triples_all_long():
    report = short_root_ideal_check(_rs("G2"), 3)
    assert len(report.square_triples) == 12
    rs = _rs("G2")
    for _, _, double in report.square_triples:
        assert rs.root(double).length == 3


def test_counts_frozen():
    # counts frozen from an independent pair scan over the root sets
    assert len(short_root_ideal_check(_rs("B2"), 2).bracket_triples) == 8
    assert len(short_root_ideal_check(_rs("G2"), 3).bracket_triples) == 12
    assert len(short_root_ideal_check(_rs("B3"), 2).bracket_triples) == 24
    f4 = short_root_ideal_check(_rs("F4"), 2)
    assert f4.passed and len(f4.bracket_triples) == 144


@pytest.mark.parametrize("label", [
    f"{family}{rank}" for family, rank in cartan.catalog_types(max_rank=6)
    if family in "BCFG"
] + ["A1+B2", "G2+C3", "C8", "C9", "F4+B2", "G2+G2+A1", "B4+G2", "B8", "G2+B6", "B8+C8",
     "B4+C4+G2"])
def test_ideal_check_matches_all_pairs_oracle(label):
    rs = _rs(label)
    for p in (2, 3, 5):
        report = short_root_ideal_check(rs, p)
        brackets, squares, violations, steinberg = all_pairs_ideal_check(rs, p)
        # the oracle still checks every 2a + b; finite type keeps each long
        assert all(v[0] != "square" for v in violations), (label, p)
        assert report.bracket_triples == brackets, (label, p)
        assert report.square_triples == squares, (label, p)
        assert report.violations == violations, (label, p)
        assert report.steinberg == steinberg, (label, p)


def _checked_with_counted_adds(rs, monkeypatch):
    """short_root_ideal_check(rs, 2) and the number of ``rs.add`` calls it made."""
    calls = 0
    add = rs.add

    def counting(r, s, k=1):
        nonlocal calls
        calls += 1
        return add(r, s, k)

    monkeypatch.setattr(rs, "add", counting)
    report = short_root_ideal_check(rs, 2)
    return report, calls


@pytest.mark.parametrize("label", ["C10", "G2+C3"])
def test_ideal_check_looks_up_short_pairs_only(label, monkeypatch):
    # a short root plus a long one is never long, so the scan pairs short
    # roots only: one sum lookup per short pair, one per square landing
    rs = _rs(label)
    short = [r for r in rs.roots if r.length == 1]
    report, calls = _checked_with_counted_adds(rs, monkeypatch)
    assert 0 < calls <= len(short) ** 2 + len(report.square_triples)


@pytest.mark.parametrize("label", ["B8", "B12"])
def test_ideal_check_looks_up_partners_from_the_fewer_long_roots(label, monkeypatch):
    # B_n has 2n long roots and 2n(n - 1) short ones: each short a looks up
    # t - a and t - 2a for every long t, well under one lookup per short pair
    rs = _rs(label)
    short = sum(r.length == 1 for r in rs.roots)
    long = len(rs.roots) - short
    report, calls = _checked_with_counted_adds(rs, monkeypatch)
    assert report.bracket_triples
    assert 0 < calls <= 4 * short * long < short ** 2


@pytest.mark.parametrize("label", ["B8+C8", "B12+C12"])
def test_ideal_check_chooses_the_partner_rule_per_component(label, monkeypatch):
    # the whole system has as many long roots as short ones, but each
    # component pays only for its own rule: its short pairs, or four
    # lookups per short root and long root of the component
    rs = _rs(label)
    bound = 0
    for nodes in rs.gcm.components():
        part = [r for r in rs.roots if any(r.coords[k] for k in nodes)]
        short = sum(r.length == 1 for r in part)
        bound += short * min(short, 4 * (len(part) - short))
    report, calls = _checked_with_counted_adds(rs, monkeypatch)
    assert report.bracket_triples and not report.square_triples
    assert 0 < calls <= bound
