#!/usr/bin/env python3
"""Exhaustive scan of the word pushforward containments.

For every irreducible type of rank <= 3 and every word up to a chosen
length, push minus each positive non-simple root and minus each simple
root down the word and tally where the surviving weights land. The
containment counts printed at the end are the combinatorial content of the
one-step cohomology case analysis; the run aborts loudly on any violation.

Words are walked per weight over the suffix trie, so each word's state is
computed once, from its parent (the word without its first letter).

Usage: python scripts/containment_scan.py [max_word_length]
"""

import sys
import time

from weylkit import cartan
from weylkit.pushforward import occurs, pushforward_suffixes
from weylkit.roots import generate_roots, nonsimple_positives

TYPES = ["A1", "A2", "B2", "G2", "A3", "B3", "C3"]


def scan(max_len: int) -> None:
    grand = 0
    started = time.time()
    for label in TYPES:
        rs = generate_roots(cartan.parse_type(label))
        rank = rs.rank
        zero = tuple(0 for _ in range(rank))
        minus_npp = {tuple(-x for x in r.weight) for r in nonsimple_positives(rs)}
        # (minus a positive root, its simple index or None if non-simple)
        weights = [(tuple(-x for x in r.weight), None) for r in nonsimple_positives(rs)]
        weights += [(tuple(-x for x in rs.simple_weight(i)), i) for i in range(rank)]
        pushes = 0
        entries = 0
        for lam, i in weights:
            words = 0
            for word, gw in pushforward_suffixes(rs, lam, max_len):
                words += 1
                pushes += 1
                entries += sum(gw.values())
                if i is None:
                    assert set(w for (w, _) in gw) <= minus_npp, (label, word)
                    continue
                hit = occurs(word, i)
                gamma0 = zero if hit else lam
                assert set(w for (w, _) in gw) <= minus_npp | {gamma0}
                assert sum(m for (w, _), m in gw.items() if w == gamma0) == 1
                # the degree-zero invariants: zero weight only in degree 1,
                # once if the letter occurs and not at all otherwise
                assert all(d == 1 for (w, d) in gw if w == zero), (label, word)
                assert sum(m for (w, _), m in gw.items() if w == zero) == (1 if hit else 0)
        grand += pushes
        print(f"{label:>3}: {words:5d} words, {pushes:6d} pushforwards, "
              f"{entries:8d} graded entries, all contained")
    print(f"total {grand} pushforwards, zero violations, "
          f"{time.time() - started:.1f}s")


if __name__ == "__main__":
    scan(int(sys.argv[1]) if len(sys.argv) > 1 else 6)
