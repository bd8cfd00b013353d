#!/usr/bin/env python3
"""Exhaustive scan of the word pushforward containments.

For every irreducible type of rank <= 3 and every word up to a chosen
length, push minus each positive non-simple root and minus each simple
root down the word and tally where the surviving weights land. The
containment counts printed at the end are the combinatorial content of the
one-step cohomology case analysis; any violation raises KeyLemmaViolation.

Every check depends only on a word's graded multiset and on whether the
simple root's letter occurs in it, so the scan walks distinct states per
length and takes its totals from the number of words reaching each; the
walk pushes each distinct (state, letter) once per weight. A failing check
names the type, the weight and one word reaching the state; that context
is formatted only when a check fails.

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
            words = 0
            for word, gw, hit, count in pushforward_states(rs, lam, max_len, i):
                words += count
                pushes += count
                entries += count * sum(gw.values())
                gamma0 = set() if i is None else {zero if hit else lam}
                try:
                    if not {w for (w, _) in gw} <= minus_npp | gamma0:
                        raise KeyLemmaViolation("weight outside the containment")
                    if sum(m for (w, _), m in gw.items() if w in gamma0) != len(gamma0):
                        raise KeyLemmaViolation("gamma0 multiplicity not 1")
                    # the degree-zero invariants: zero weight only in degree 1,
                    # once if the letter occurs and not at all otherwise
                    zero_weight_rank(gw, hit)
                except KeyLemmaViolation as exc:
                    # the context is formatted only for a failing state
                    raise KeyLemmaViolation(
                        f"{exc} for {label} weight {lam} word {word}") from None
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
