import importlib.util
import re
import subprocess
import sys
from collections import Counter
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from weylkit import gcm, pushforward
from weylkit.isogeny import (enumerate_special, frobenius, pmorphism_chi_factors,
                             translated_word)
from weylkit.pushforward import (MAX_PUSH_WEIGHTS, MAX_STEP_WEIGHTS, KeyLemmaViolation,
                                 PushforwardTooLarge, chi_restriction, h0_rank,
                                 last_occurrence, occurs,
                                 pushforward_multiset, pushforward_states,
                                 pushforward_step, pushforward_word,
                                 sorted_entries, zero_weight_rank)
from weylkit.rootdata import adjoint_datum
from weylkit.checks import IndexOutOfRange, NotAWeight
from weylkit.roots import generate_roots, nonsimple_positives

from oracles import pushforward_states_per_length, pushforward_suffixes

IRREDUCIBLE_RANK3 = ["A1", "A2", "B2", "G2", "A3", "B3", "C3"]
ROOT = Path(__file__).resolve().parents[1]


def _rs(label):
    return generate_roots(gcm.parse_type(label))


def _neg(w):
    return tuple(-x for x in w)


# -- occurs ---------------------------------------------------------------

def test_occurs():
    assert not occurs((), 1)
    assert occurs((0, 1, 0), 1)
    assert not occurs((0, 0), 1)


# -- one step -------------------------------------------------------------

def test_step_zero_weight_survives_in_degree_zero():
    rs = _rs("A1")
    assert pushforward_step(rs, (0,), 0) == (0, [(0,)])


def test_step_minus_simple_gives_degree_one_zero_weight():
    # the weight of the relative canonical class: one copy of zero in
    # degree 1, the rank-one higher cohomology of O(-2) on the line
    rs = _rs("A1")
    deg, weights = pushforward_step(rs, (-2,), 0)
    assert deg == 1 and weights == [(0,)]


def test_step_a2_pairing_one():
    rs = _rs("A2")
    deg, weights = pushforward_step(rs, _neg(rs.simple_weight(1)), 0)
    alpha1, alpha2 = rs.simple_weight(0), rs.simple_weight(1)
    assert deg == 0
    assert weights == [_neg(alpha2), _neg(tuple(a + b for a, b in zip(alpha1, alpha2)))]


def test_step_counts_degenerate_correctly():
    rs = _rs("G2")
    for l in range(-6, 7):
        weight = (l, 0)
        deg, weights = pushforward_step(rs, weight, 0)
        if l >= 0:
            assert (deg, len(weights)) == (0, l + 1)
        elif l == -1:
            assert weights == []
        else:
            assert (deg, len(weights)) == (1, -l - 1)


def test_step_reflected_input_duality_counts():
    # the degree-0 list at weight w and the degree-1 list at s(w) - alpha
    # have the same cardinality
    for label in IRREDUCIBLE_RANK3:
        rs = _rs(label)
        for i in range(rs.rank):
            alpha = rs.simple_weight(i)
            for l in range(0, 7):
                w = tuple(l if k == i else 3 for k in range(rs.rank))
                refl = tuple(x - w[i] * a for x, a in zip(w, alpha))
                dual = tuple(x - a for x, a in zip(refl, alpha))
                assert dual[i] == -l - 2
                _, up = pushforward_step(rs, w, i)
                _, down = pushforward_step(rs, dual, i)
                assert len(up) == len(down) == l + 1


def test_mutating_a_step_result_changes_no_later_result():
    rs = _rs("A2")
    _, weights = pushforward_step(rs, (1, 0), 0)
    weights.clear()
    assert pushforward_step(rs, (1, 0), 0) == (0, [(1, 0), (-1, 1)])
    assert pushforward_word(rs, (0,), (1, 0)) == Counter(
        {((1, 0), 0): 1, ((-1, 1), 0): 1})


def test_step_size_bound_is_checked_before_the_step():
    rs = _rs("A1")
    assert len(pushforward_word(rs, (0,), (MAX_STEP_WEIGHTS - 1,))) == MAX_STEP_WEIGHTS
    for weight in [(MAX_STEP_WEIGHTS,), (-MAX_STEP_WEIGHTS - 2,), (10 ** 18,)]:
        with pytest.raises(PushforwardTooLarge):
            pushforward_word(rs, (0,), weight)


def test_whole_pushforward_budget_is_checked_before_the_step_past_it(monkeypatch):
    # from (1,) each A1 step produces two weights, (1,) and (-1,), and (-1,)
    # produces none, so k letters produce 2k weights over the call
    monkeypatch.setattr(pushforward, "MAX_PUSH_WEIGHTS", 10)
    rs = _rs("A1")
    assert pushforward_word(rs, (0,) * 5, (1,)) == Counter({((1,), 0): 1, ((-1,), 0): 1})
    with pytest.raises(PushforwardTooLarge, match="produce 12 weights"):
        pushforward_word(rs, (0,) * 6, (1,))


def test_each_refusal_names_the_bound_it_hit():
    rs = _rs("A2")
    with pytest.raises(PushforwardTooLarge, match=f"^a pushforward step .* {MAX_STEP_WEIGHTS}$"):
        pushforward_word(rs, (0,), (MAX_STEP_WEIGHTS, 0))
    with pytest.raises(PushforwardTooLarge, match=f"^the whole pushforward .* {MAX_PUSH_WEIGHTS}$"):
        pushforward_word(rs, (0, 1, 0) * 20, (15, 15))


def test_step_index_range():
    rs = _rs("A2")
    with pytest.raises(IndexOutOfRange):
        pushforward_step(rs, (0, 0), 5)


def test_a_bad_letter_is_refused_before_any_step():
    # the first step (letter 0) alone would pass MAX_STEP_WEIGHTS
    rs = _rs("A2")
    with pytest.raises(IndexOutOfRange, match="^simple index 5 out of range for rank 2$"):
        pushforward_word(rs, (5, 0), (1_000_000, 0))


def test_multiset_entries_are_checked_at_entry():
    # the empty word reaches no step, so nothing else would look at the entry
    rs = _rs("A2")
    with pytest.raises(NotAWeight):
        pushforward_multiset(rs, (), Counter({((1,), 0): 1}))


# -- whole words ----------------------------------------------------------

def test_empty_word_is_identity():
    rs = _rs("A2")
    lam = (4, -7)
    assert pushforward_word(rs, (), lam) == Counter({(lam, 0): 1})


def test_word_example_a2():
    rs = _rs("A2")
    lam = _neg(rs.simple_weight(0))
    gw = pushforward_word(rs, (0, 1), lam)
    assert gw == Counter({((0, 0), 1): 1})


def test_word_example_b2_degree_zero():
    rs = _rs("B2")
    lam = _neg(tuple(a + b for a, b in zip(rs.simple_weight(0), rs.simple_weight(1))))
    assert lam[0] == 0
    gw = pushforward_word(rs, (0,), lam)
    assert gw == Counter({(lam, 0): 1})
    minus_nonsimple = {_neg(r.weight) for r in nonsimple_positives(rs)}
    assert set(w for (w, _) in gw) <= minus_nonsimple


def test_fold_splits_over_concatenation():
    rs = _rs("B2")
    lam = _neg(rs.simple_weight(0))
    for first, second in [((0, 1), (1, 0)), ((1,), (0, 0, 1)), ((), (0, 1))]:
        direct = pushforward_word(rs, first + second, lam)
        staged = pushforward_multiset(rs, first,
                                      pushforward_word(rs, second, lam))
        assert direct == staged


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_fold_splits_property(data):
    label = data.draw(st.sampled_from(["A2", "B2", "G2"]))
    rs = _rs(label)
    word = tuple(data.draw(st.lists(st.integers(0, rs.rank - 1), max_size=8)))
    cut = data.draw(st.integers(0, len(word)))
    lam = tuple(data.draw(st.integers(-4, 4)) for _ in range(rs.rank))
    direct = pushforward_word(rs, word, lam)
    staged = pushforward_multiset(rs, word[:cut],
                                  pushforward_word(rs, word[cut:], lam))
    assert direct == staged


def _words_up_to(rank, max_len):
    for n in range(max_len + 1):
        yield from product(range(rank), repeat=n)


def test_containment_for_nonsimple_positives_short_words():
    # every weight of the pushforward of minus a nonsimple positive root
    # stays among minus the nonsimple positives (exhaustive to length 4
    # here; the acceptance suite pushes to length 6)
    for label in ["A2", "B2", "G2"]:
        rs = _rs(label)
        minus_npp = {_neg(r.weight) for r in nonsimple_positives(rs)}
        for word in _words_up_to(rs.rank, 4):
            for beta in nonsimple_positives(rs):
                gw = pushforward_word(rs, word, _neg(beta.weight))
                assert set(w for (w, _) in gw) <= minus_npp


def test_containment_holds_for_reducible_types_too():
    # the one-step operators act componentwise, so products behave the same
    for label in ["A1+A1", "A1+A2"]:
        rs = _rs(label)
        minus_npp = {_neg(r.weight) for r in nonsimple_positives(rs)}
        zero = tuple(0 for _ in range(rs.rank))
        for word in _words_up_to(rs.rank, 3):
            for beta in nonsimple_positives(rs):
                gw = pushforward_word(rs, word, _neg(beta.weight))
                assert set(w for (w, _) in gw) <= minus_npp
            for i in range(rs.rank):
                gamma0 = zero if occurs(word, i) else _neg(rs.simple_weight(i))
                gw = pushforward_word(rs, word, _neg(rs.simple_weight(i)))
                assert set(w for (w, _) in gw) <= minus_npp | {gamma0}


def test_simple_root_containment_and_multiplicity_short_words():
    for label in ["A2", "B2", "G2"]:
        rs = _rs(label)
        minus_npp = {_neg(r.weight) for r in nonsimple_positives(rs)}
        zero = tuple(0 for _ in range(rs.rank))
        for word in _words_up_to(rs.rank, 4):
            for i in range(rs.rank):
                alpha = rs.simple_weight(i)
                gw = pushforward_word(rs, word, _neg(alpha))
                gamma0 = zero if occurs(word, i) else _neg(alpha)
                allowed = minus_npp | {gamma0}
                assert set(w for (w, _) in gw) <= allowed
                mult = sum(m for (w, _), m in gw.items() if w == gamma0)
                assert mult == 1


# -- the suffix-trie walk -------------------------------------------------

@pytest.mark.parametrize("label", IRREDUCIBLE_RANK3)
def test_suffix_walk_matches_per_word_pushforward(label):
    # minus every simple and every non-simple positive root, as the scan
    # pushes them, and the roots themselves; each word comes once, with the
    # multiset the per-word pushforward gives, even if the caller clears
    # every multiset it is handed
    rs = _rs(label)
    words = set(_words_up_to(rs.rank, 4))
    for r in rs.positives:
        for lam in (_neg(r.weight), r.weight):
            seen = []
            for word, gw in pushforward_suffixes(rs, lam, 4):
                seen.append(word)
                assert gw == pushforward_word(rs, word, lam), (word, lam)
                gw.clear()
            assert len(seen) == len(words) and set(seen) == words
    assert list(pushforward_suffixes(rs, rs.simple_weight(0), -1)) == []


# -- the state walk -------------------------------------------------------

def _walk_pushes(monkeypatch):
    # counts each budgeted push by (multiset pushed, word)
    push, calls = pushforward._push, Counter()

    def counted(rs_, word, cur, memo):
        calls[frozenset(cur.items()), word] += 1
        return push(rs_, word, cur, memo)

    monkeypatch.setattr(pushforward, "_push", counted)
    return calls


def _steps(monkeypatch):
    # counts each one-step image computed, by (weight, letter)
    step, calls = pushforward._step, Counter()

    def counted(alpha, w, i):
        calls[w, i] += 1
        return step(alpha, w, i)

    monkeypatch.setattr(pushforward, "_step", counted)
    return calls


@pytest.mark.parametrize("label", IRREDUCIBLE_RANK3)
def test_state_walk_counts_the_per_word_states(label):
    # minus every positive root, tracking every letter and no letter: each
    # (multiset, letter occurs) comes once, with the number of words of
    # length <= 4 whose per-word pushforward gives it, and the word it names
    # is a shortest one of them, though every multiset handed out is cleared
    rs = _rs(label)
    words = list(_words_up_to(rs.rank, 4))
    for r in rs.positives:
        lam = _neg(r.weight)
        pushed = {word: frozenset(pushforward_word(rs, word, lam).items())
                  for word in words}
        for letter in [None, *range(rs.rank)]:
            expected = Counter((pushed[word], occurs(word, letter)) for word in words)
            shortest = {}
            for word in words:
                shortest.setdefault((pushed[word], occurs(word, letter)), len(word))
            seen = Counter()
            for word, gw, hit, count in pushforward_states(rs, lam, 4, letter):
                key = (frozenset(gw.items()), hit)
                assert key not in seen and key == (pushed[word], occurs(word, letter))
                assert len(word) == shortest[key], (lam, letter, word)
                seen[key] = count
                gw.clear()
            assert seen == expected, (lam, letter)
    assert list(pushforward_states(rs, rs.simple_weight(0), -1, 0)) == []


@pytest.mark.parametrize("label", IRREDUCIBLE_RANK3)
def test_state_walk_totals_match_the_suffix_walk(label):
    # words and graded entries over all lengths, as the containment scan
    # sums them
    rs = _rs(label)
    for r in rs.positives:
        lam = _neg(r.weight)
        trie = Counter()
        for word, gw in pushforward_suffixes(rs, lam, 6):
            trie["words"] += 1
            trie["entries"] += sum(gw.values())
        states = Counter()
        for word, gw, _, count in pushforward_states(rs, lam, 6, None):
            states["words"] += count
            states["entries"] += count * sum(gw.values())
        assert states == trie, lam


@pytest.mark.parametrize("label", IRREDUCIBLE_RANK3)
def test_state_walk_matches_the_per_length_walk(label, monkeypatch):
    # minus every positive root, every letter and none, lengths 0-6: the
    # per-length walk's counts summed over lengths, each word a shortest one
    # that reaches its state, each multiset a fresh Counter, and one push
    # per distinct (multiset, letter) below the last length
    rs = _rs(label)
    calls = _walk_pushes(monkeypatch)
    for r in rs.positives:
        lam = _neg(r.weight)
        for letter in [None, *range(rs.rank)]:
            # (multiset, letter occurs) -> words reaching it by length
            per_length: dict = {}
            for w, gw, hit, n in pushforward_states_per_length(rs, lam, 6, letter):
                per_length.setdefault((frozenset(gw.items()), hit), Counter())[len(w)] = n
            for max_len in range(7):
                calls.clear()
                states = list(pushforward_states(rs, lam, max_len, letter))
                pushed = dict(calls)
                want = {key: sum(n for length, n in by_length.items() if length <= max_len)
                        for key, by_length in per_length.items()
                        if min(by_length) <= max_len}
                got, pairs = {}, set()
                for word, gw, hit, count in states:
                    key = (frozenset(gw.items()), hit)
                    assert len(word) == min(per_length[key]), (lam, letter, word)
                    assert pushforward_word(rs, word, lam) == gw and occurs(word, letter) == hit
                    if len(word) < max_len:
                        pairs.update((key[0], (i,)) for i in range(rs.rank))
                    got[key] = count
                assert got == want and len(got) == len(states), (lam, letter, max_len)
                assert all(type(gw) is Counter for _, gw, _, _ in states)
                assert len({id(gw) for _, gw, _, _ in states}) == len(states)
                assert set(pushed) == pairs and set(pushed.values()) <= {1}, (lam, max_len)


@pytest.mark.parametrize("label", IRREDUCIBLE_RANK3)
def test_state_walk_pushes_each_state_and_letter_once(label, monkeypatch):
    # one budgeted push per distinct (multiset, letter) below the last
    # length, however often the state comes back, and one step per distinct
    # (weight, letter) over the whole walk, even if the caller clears what
    # it is handed
    rs = _rs(label)
    calls, steps = _walk_pushes(monkeypatch), _steps(monkeypatch)
    for r in rs.positives:
        calls.clear()
        steps.clear()
        pairs = set()
        for word, gw, _, _ in pushforward_states(rs, _neg(r.weight), 5, 0):
            if len(word) < 5:
                pairs.update((frozenset(gw.items()), (i,)) for i in range(rs.rank))
            gw.clear()
        assert set(calls) == pairs and set(calls.values()) == {1}, r.weight
        assert set(steps.values()) == {1}, r.weight
        assert set(steps) == {(w, i) for cur, (i,) in pairs for w, _ in dict(cur)}


def test_a_word_pushforward_steps_with_a_memo_of_its_own(monkeypatch):
    # within one call each (weight, letter) is stepped once; the next call
    # steps afresh
    steps = _steps(monkeypatch)
    rs = _rs("A1")
    # (2,) -> (2,), (0,), (-2,); then (2,) and (0,) come back, and (-2,) -> (0,)
    word = (0, 0, 0)
    gw = pushforward_word(rs, word, (2,))
    assert steps == {((2,), 0): 1, ((0,), 0): 1, ((-2,), 0): 1}
    assert pushforward_word(rs, word, (2,)) == gw
    assert set(steps.values()) == {2}
    assert pushforward_multiset(rs, word, Counter({((2,), 0): 1})) == gw
    assert set(steps.values()) == {3}


def test_zero_weight_rank_rejects_broken_multisets():
    assert zero_weight_rank(Counter({((0, 0), 1): 1, ((-1, 2), 0): 3}), True) == 1
    assert zero_weight_rank(Counter({((-1, 2), 0): 1}), False) == 0
    for gw, hit in [(Counter({((0, 0), 0): 1}), False),
                    (Counter({((0, 0), 1): 1}), False),
                    (Counter({((0, 0), 1): 2}), True),
                    (Counter(), True)]:
        with pytest.raises(KeyLemmaViolation):
            zero_weight_rank(gw, hit)


def test_zero_weight_rank_raises_under_optimized_python():
    # the key-lemma checks are not asserts, so ``python -O`` keeps them
    code = ("import sys\n"
            "from collections import Counter\n"
            "from weylkit.pushforward import KeyLemmaViolation, zero_weight_rank\n"
            "try:\n"
            "    zero_weight_rank(Counter({((0, 0), 0): 1}), False)\n"
            "except KeyLemmaViolation as exc:\n"
            "    print(sys.flags.optimize, exc)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1 zero weight at degree 0\n"


def test_containment_scan_script_short_words():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "containment_scan.py"), "3"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0 and "Traceback" not in proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(IRREDUCIBLE_RANK3) + 1
    total = 0
    for label, line in zip(IRREDUCIBLE_RANK3, lines):
        rs = _rs(label)
        m = re.fullmatch(r" *(\w+): +(\d+) words, +(\d+) pushforwards, "
                         r"+(\d+) graded entries, all contained", line)
        assert m and m[1] == label, line
        words = sum(rs.rank ** k for k in range(4))
        assert (int(m[2]), int(m[3])) == (words, words * rs.num_positive)
        entries = sum(sum(pushforward_word(rs, word, _neg(r.weight)).values())
                      for word in _words_up_to(rs.rank, 3) for r in rs.positives)
        assert int(m[4]) == entries, line
        total += int(m[3])
    assert re.fullmatch(rf"total {total} pushforwards, zero violations, \d+\.\ds",
                        lines[-1])


def test_containment_scan_names_the_failing_state(monkeypatch):
    # a check that fails still reports the type, the weight and the word
    spec = importlib.util.spec_from_file_location(
        "containment_scan", ROOT / "scripts" / "containment_scan.py")
    scan = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scan)
    states = scan.pushforward_states
    broke = []

    def broken(rs, lam, max_len, letter):
        # A1's words (0,) and (0, 0) reach one state, named by (0,)
        for word, gw, hit, count in states(rs, lam, max_len, letter):
            if len(word) == 1:
                assert gw == pushforward_word(rs, word, lam) and count == 2
                broke.append((lam, word))
                gw[(1,) * rs.rank, 0] += 1
            yield word, gw, hit, count

    monkeypatch.setattr(scan, "pushforward_states", broken)
    with pytest.raises(KeyLemmaViolation) as err:
        scan.scan(2)
    assert broke == [((-2,), (0,))]
    assert str(err.value) == "weight outside the containment for A1 weight (-2,) word (0,)"

    def unranked(gw, hit, where=""):
        raise KeyLemmaViolation(f"zero weight at degree 0{where}")

    monkeypatch.setattr(scan, "pushforward_states", states)
    monkeypatch.setattr(scan, "zero_weight_rank", unranked)
    with pytest.raises(KeyLemmaViolation) as err:
        scan.scan(1)
    assert str(err.value) == "zero weight at degree 0 for A1 weight (-2,) word ()"


# -- ranks ----------------------------------------------------------------

def test_h0_rank_examples():
    rs1 = _rs("A1")
    assert h0_rank(rs1, (0,), 0) == 1
    rs = _rs("A2")
    assert h0_rank(rs, (1,), 0) == 0
    assert h0_rank(rs, (0, 1, 0), 0) == 1


def test_h0_rank_reads_its_word_once():
    assert h0_rank(_rs("A2"), iter([0, 1]), 0) == 1


def test_h0_rank_dichotomy_short_words():
    for label in ["A2", "B2", "G2"]:
        rs = _rs(label)
        for word in _words_up_to(rs.rank, 4):
            for i in range(rs.rank):
                assert h0_rank(rs, word, i) == (1 if occurs(word, i) else 0)


def test_sorted_entries_deterministic():
    rs = _rs("B2")
    gw = pushforward_word(rs, (0, 1, 0), (3, 1))
    assert sorted_entries(gw) == sorted_entries(Counter(dict(gw)))


# -- chi bookkeeping ------------------------------------------------------

def test_last_occurrence():
    assert last_occurrence((0, 1, 0), 0) == 3
    assert last_occurrence((0, 1, 0), 1) == 2
    assert last_occurrence((1,), 0) is None


def test_chi_restriction_examples():
    rs = _rs("A2")
    assert chi_restriction(rs, (0, 1, 0), (1, 1)) == [(3, 1), (2, 1)]
    assert chi_restriction(rs, (), (5, 7)) == []
    # the letter s2 occurs but omega1 restricts to nothing through it
    assert chi_restriction(rs, (1,), (1, 0)) == []
    assert chi_restriction(rs, (1,), (0, 1)) == [(1, 1)]


def test_chi_factors_frobenius_and_identity():
    from weylkit.isogeny import PMorphism

    datum = adjoint_datum(gcm.parse_type("B2"))
    frob = frobenius(datum, 3)
    assert pmorphism_chi_factors(frob, (0, 1, 0)) == [3, 3, 3]
    assert translated_word(frob, (0, 1, 0)) == (0, 1, 0)
    ident = PMorphism(datum, datum, ((1, 0), (0, 1)), (0, 1), (1, 1), 2)
    assert pmorphism_chi_factors(ident, (0, 1, 0, 1)) == [1, 1, 1, 1]


def test_chi_factors_g2_special_isogeny():
    phi = enumerate_special("G", 2, 3)[0]
    # letters: the short simple then the long simple
    rs = _rs("G2")
    short = next(i for i in range(2) if rs.sym.lengths[i] == 1)
    long_ = 1 - short
    factors = pmorphism_chi_factors(phi, (short, long_))
    assert sorted(factors) == [1, 3]
    assert factors[0] == 3   # q is 3 on the short simple root
    assert translated_word(phi, (short, long_)) == (phi.u[short], phi.u[long_])


@pytest.mark.parametrize("word", [(-1, 0), (0, 2)])
def test_letters_outside_the_source_simples_are_refused(word):
    # indexing u or q with -1 would wrap to the last simple, and with 2 would
    # be a bare IndexError
    phi = enumerate_special("G", 2, 3)[0]
    for call in (pmorphism_chi_factors, translated_word):
        with pytest.raises(IndexOutOfRange, match="out of range for rank 2$"):
            call(phi, word)
