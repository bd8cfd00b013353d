#!/usr/bin/env python3
"""Exhaustive scan of the word pushforward containments.

For every irreducible type of rank <= 3 and every word up to a chosen
length, push minus each positive non-simple root and minus each simple
root down the word and tally where the surviving weights land. The
containment counts printed at the end are the combinatorial content of the
one-step cohomology case analysis; any violation raises KeyLemmaViolation.

Every check depends only on a word's graded multiset and on whether the
simple root's letter occurs in it, so the scan walks the distinct states:
each comes once, with the number of words up to the length that reach it
(the totals are taken from these counts) and one shortest such word. The
walk pushes each distinct (multiset, letter) once per weight. The weights
a state may hold are built once per weight and letter answer, and one pass
over a state's entries tests the containment and the gamma0 multiplicity
and sums its graded entries. A failing check names the type, the weight
and that word; the context is formatted only when a check fails.

Usage: python scripts/containment_scan.py [max_word_length]
"""

import gc
import sys
import time

from weylkit.gcm import parse_type
from weylkit.pushforward import KeyLemmaViolation, pushforward_states, zero_weight_rank
from weylkit.roots import generate_roots, nonsimple_positives

TYPES = ["A1", "A2", "B2", "G2", "A3", "B3", "C3"]


def scan(max_len: int) -> None:
    grand = 0
    started = time.time()
    for label in TYPES:
        rs = generate_roots(parse_type(label))
        zero = tuple(0 for _ in range(rs.rank))
        minus_npp = {tuple(-x for x in r.weight) for r in nonsimple_positives(rs)}
        # (minus a positive root, its simple index or None if non-simple)
        weights = [(tuple(-x for x in r.weight), None) for r in nonsimple_positives(rs)]
        weights += [(tuple(-x for x in rs.simple_weight(i)), i) for i in range(rs.rank)]
        pushes = 0
        entries = 0
        for lam, i in weights:
            # letter occurs -> (the weights a state may hold, gamma0: the one
            # weight it must hold once, None for minus a non-simple root)
            allowed = {False: (minus_npp, None)} if i is None else {
                hit: (minus_npp | {gamma0}, gamma0) for hit, gamma0 in [(False, lam), (True, zero)]}
            words = 0
            for word, gw, hit, count in pushforward_states(rs, lam, max_len, i):
                words += count
                contained, gamma0 = allowed[hit]
                size = mult = 0
                try:
                    for (w, _), m in gw.items():
                        if w not in contained:
                            raise KeyLemmaViolation("weight outside the containment")
                        size += m
                        if w == gamma0:
                            mult += m
                    if gamma0 is not None and mult != 1:
                        raise KeyLemmaViolation("gamma0 multiplicity not 1")
                    # the degree-zero invariants: zero weight only in degree 1,
                    # once if the letter occurs and not at all otherwise
                    zero_weight_rank(gw, hit)
                except KeyLemmaViolation as exc:
                    # the context is formatted only for a failing state
                    raise KeyLemmaViolation(
                        f"{exc} for {label} weight {lam} word {word}") from None
                entries += count * size
            pushes += words
        grand += pushes
        print(f"{label:>3}: {words:5d} words, {pushes:6d} pushforwards, "
              f"{entries:8d} graded entries, all contained")
    print(f"total {grand} pushforwards, zero violations, "
          f"{time.time() - started:.1f}s")


if __name__ == "__main__":
    # one scan per process, as the CLI's own launch: no cyclic collection while
    # it runs or at exit; an importer of scan() keeps the default collector
    gc.disable()
    scan(int(sys.argv[1]) if len(sys.argv) > 1 else 6)
    gc.freeze()
