"""Independent oracles used to freeze expected values in the tests.

Everything here is implemented from first principles, separately from the
library code paths it checks: cofactor determinants and a Gauss-Jordan
solve over the rationals instead of the one fraction-free (Bareiss)
elimination behind ``intmat.det``, ``leading_principal_minors`` and
``solve``, a Freudenthal multiplicity recursion instead of the product
formula, the shifted Euler characteristic as a product of fractions with
each coroot paired by a generator over zip instead of one integer product
of ``map(mul, ...)`` pairings, brute scans instead of string arithmetic, symmetric-group
inversion counts instead of root permutations, the reflection closure of
the simple roots by a frontier of coordinate tuples reflected both ways
and the height-by-height string rule instead of the raising reflections
on root keys, the per-family closed forms of |W| instead of invariant
degrees, W(q) as a product of fundamental-weight orbit layer sizes instead
of the product of q-integers over the invariant degrees, a breadth-first
search over sets of tuples instead of canonical-parent generation of the
rho-orbit, the canonical-parent walk on tuples instead of the numpy walk,
trial division instead of Miller-Rabin, a loop over all bijections and q
values instead of the isomorphism search along Dynkin edges between nodes
of one degree with q read off the symmetrizer, a walk over every word of
the suffix trie and a per-length walk that pushes every state afresh
instead of the walk over distinct word states that sums word counts over
lengths and pushes each (state, letter) once, root data written out root by root (coordinates, C times the
coroot, a fraction solve per root) instead of a root system carried onto a
pinning, the short-root ideal check as an all-pairs bracket loop, a short x
short square loop and a Steinberg check per triple instead of one string
walk per pair, a pinned isomorphism checked on every root and coroot
instead of the two defining equations on the simples, and subgroups closed
under the whole subgroup as generators, lifted by a Smith transform and
re-based by a Hermite form of unbounded gcd steps, instead of a walk over
Hermite bases modulo the determinant, the reflection permutations and
root strings built and looked up as coordinate tuples instead of walked on
the linear root keys, and the command line read by argparse instead of by
the one-table reader in ``cli``.
"""

from __future__ import annotations

import argparse
import re
from array import array
from collections import Counter
from fractions import Fraction
from itertools import chain, permutations, product
from math import factorial, gcd, isqrt, lcm
from operator import sub

from weylkit import cli, core, intmat
from weylkit.chevalley import bracket_constant, steinberg_check
from weylkit.pushforward import pushforward_multiset


def symmetrizer_fractions(c) -> tuple[int, ...]:
    """The least positive integers d with d_i C_ij = d_j C_ji on each
    connected component of the matrix rows ``c``: ratios d_j = d_i C_ij / C_ji
    propagated as fractions, then denominators and common factors cleared."""
    n = len(c)
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        comp, stack = [start], [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if c[i][j] != 0 and d[j] is None:
                    d[j] = d[i] * Fraction(c[i][j], c[j][i])
                    comp.append(j)
                    stack.append(j)
        denom = lcm(*(d[i].denominator for i in comp))
        numer = gcd(*(d[i].numerator * (denom // d[i].denominator) for i in comp))
        for i in comp:
            d[i] = d[i] * denom / numer
    return tuple(int(x) for x in d)


def cofactor_det(m) -> int:
    """Determinant by direct cofactor expansion (exponential, tiny inputs)."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


def reflection_closure(gcm, lengths=None, cap=2000):
    """Close the simple roots under the simple reflections.

    Returns ``{coords: (coroot, length)}``: each coroot is reflected in the
    coroot lattice alongside its root, and each root keeps the squared
    length of the root it was reflected from (``lengths`` gives the simple
    ones, default all 1). Returns None once the orbit exceeds ``cap`` roots,
    which is how a matrix that is not of finite type shows.
    """
    n = gcm.n
    lengths = lengths or (1,) * n
    seen = {}
    for i in range(n):
        e = tuple(1 if k == i else 0 for k in range(n))
        seen[e] = (e, lengths[i])
    frontier = list(seen)
    while frontier:
        coords = frontier.pop()
        coroot, length = seen[coords]
        for i in range(n):
            pair = sum(a * gcm[k][i] for k, a in enumerate(coords))
            img = tuple(a - pair if k == i else a for k, a in enumerate(coords))
            if img not in seen:
                copair = sum(gcm[i][k] * b for k, b in enumerate(coroot))
                seen[img] = (tuple(b - copair if k == i else b
                                   for k, b in enumerate(coroot)), length)
                frontier.append(img)
                if len(seen) > cap:
                    return None
    return seen


def string_rule_roots(gcm, lengths):
    """The roots height by height by the string rule, as ``(roots, keys)``:
    each root a tuple (index, coords, coroot, weight, height, positive,
    length), in ``generate_roots``'s order, and each key sum(coords[k] *
    2**(8k)).

    For a positive root beta and a simple root alpha_i, let p be the number
    of steps the alpha_i-string through beta extends below beta. Then
    beta + alpha_i is a root exactly when p > <beta, alpha_i^vee>, the i-th
    weight coordinate of beta. Root strings are unbroken, so each edge
    beta -> beta + alpha_i gives the new root p + 1 steps below it along
    alpha_i; every root of height h is expanded before height h + 1, so
    each root's counts are complete when its turn comes. The new root's
    weight is ``weight + C[i]`` and its squared length is
    ``length + (weight[i] + 1) * length(alpha_i)``.
    """
    n = gcm.n
    # key -> (weight, length, steps of each alpha_i-string below the root)
    found = {}
    layer = []
    for i in range(n):
        found[1 << 8 * i] = (gcm[i], lengths[i], [0] * n)
        layer.append((tuple(1 if k == i else 0 for k in range(n)), 1 << 8 * i))
    positives = []
    while layer:
        layer.sort()
        positives.extend(layer)
        above = []
        for coords, key in layer:
            weight, length, below = found[key]
            for i in range(n):
                if below[i] <= weight[i]:
                    continue
                up = key + (1 << 8 * i)
                if up not in found:
                    found[up] = (tuple(w + a for w, a in zip(weight, gcm[i])),
                                 length + (weight[i] + 1) * lengths[i], [0] * n)
                    above.append((coords[:i] + (coords[i] + 1,) + coords[i + 1:], up))
                found[up][2][i] = below[i] + 1
        layer = above
    roots = []
    for idx, (coords, key) in enumerate(positives):
        weight, length, _ = found[key]
        coroot = tuple(a * lengths[k] // length for k, a in enumerate(coords))
        roots.append((idx, coords, coroot, weight, sum(coords), True, length))
    np_ = len(roots)
    for idx, coords, coroot, weight, height, _, length in roots[:np_]:
        roots.append((np_ + idx, tuple(-a for a in coords), tuple(-b for b in coroot),
                      tuple(-w for w in weight), -height, False, length))
    return roots, [k for _, k in positives] + [-k for _, k in positives]


def rho_orbit_layers(gcm) -> list[set[tuple[int, ...]]]:
    """Breadth-first layers of the orbit of rho = (1, ..., 1).

    s_i acts as v -> v - v[i] * C[i]; layer k is the set of vectors first
    reached after k reflections, which is the set of w(rho) with w of length
    k.
    """
    n = gcm.n
    rho = (1,) * n
    seen = {rho}
    layers = [{rho}]
    while True:
        nxt = set()
        for v in layers[-1]:
            for i in range(n):
                img = tuple(x - v[i] * c for x, c in zip(v, gcm[i]))
                if img not in seen:
                    nxt.add(img)
        if not nxt:
            return layers
        seen |= nxt
        layers.append(nxt)


def coset_chain(gcm) -> list[int]:
    """The reference for ``cosets``' W(q), the product of q-integers over
    the invariant degrees: W(q) as a product of the layer sizes of
    fundamental-weight orbits (Humphreys, Reflection Groups and Coxeter
    Groups, 1.10-1.11).

    W(q) = W_I(q) * W^I(q) for I = S minus a node j, and the minimal coset
    representatives W^I biject with the orbit of w_j, lengths included.
    Each step removes the smallest-index leaf j of the Dynkin graph on the
    nodes left, I, and walks the orbit of w_j under W_{I+j} in weight
    coordinates over I + j. As in the rho walk, a child s_i v of v with
    v[i] > 0 is kept only when no coordinate before i is negative, so each
    coset representative comes once from its smallest-descent parent; the
    coordinates may now be 0, where the rho walk's never are. A leaf keeps
    every orbit small: D_n's first node has 2n, its spin node 2**(n - 1).
    """
    live = list(range(gcm.n))
    poly = [1]
    while live:
        j = next(k for k in live if sum(1 for m in live if m != k and gcm[k][m]) <= 1)
        rows = [[gcm[i][m] for m in live] for i in live]
        layer = [tuple(int(m == j) for m in live)]
        sizes = []
        while layer:
            sizes.append(len(layer))
            layer = [child for i, row in enumerate(rows) for v in layer if v[i] > 0
                     for child in [tuple(x - v[i] * a for x, a in zip(v, row))]
                     if min(child[:i], default=0) >= 0]
        live.remove(j)
        product = [0] * (len(poly) + len(sizes) - 1)
        for a, x in enumerate(poly):
            for b, y in enumerate(sizes):
                product[a + b] += x * y
        poly = product
    return poly


def tuple_walk(rs) -> list[memoryview]:
    """The reference for ``weyl.enumerate_weyl``'s numpy walk: the layers
    walked on tuples in pure Python, children generated for i = 0..n-1 in
    turn, each over the parents in order, so the rows and their order are
    the same."""
    n = rs.rank
    c = rs.gcm.rows()
    # a coordinate of w(rho) is the height of a coroot, at most the number
    # of positive roots, so scaled[i][a] = a * C[i] covers every step
    scaled = [[tuple(a * x for x in row) for a in range(rs.num_positive + 1)] for row in c]
    cur = [(1,) * n]
    layers = []
    while cur:
        layers.append(memoryview(array("h", chain.from_iterable(cur)))
                      .cast("B").cast("h", [len(cur), n]))
        children = []
        for i in range(n):
            step = scaled[i]
            for v in cur:
                a = v[i]
                if a > 0:
                    child = tuple(map(sub, v, step[a]))
                    if i == 0 or min(child[:i]) > 0:
                        children.append(child)
        cur = children
    return layers


def weyl_order_closed_form(family: str, rank: int) -> int:
    """|W| of an irreducible type from the classical per-family formulas."""
    n = rank
    return {
        "A": lambda: factorial(n + 1),
        "B": lambda: 2 ** n * factorial(n),
        "C": lambda: 2 ** n * factorial(n),
        "D": lambda: 2 ** (n - 1) * factorial(n),
        "E": lambda: {6: 51_840, 7: 2_903_040, 8: 696_729_600}[n],
        "F": lambda: 1152,
        "G": lambda: 12,
    }[family]()


def reflect_coords(rs, i: int, coords) -> tuple[int, ...]:
    """Simple reflection s_i on root coordinates, through column i of C."""
    pair = sum(a * rs.gcm[k][i] for k, a in enumerate(coords))
    return tuple(a - pair if k == i else a for k, a in enumerate(coords))


def tuple_reflection_perms(rs) -> tuple[tuple[int, ...], ...]:
    """s_i as a permutation of the root indices, each image r less
    ``r.weight[i]`` times simple root i built as a coordinate tuple and
    looked up in a dict keyed by the coordinates."""
    index = {r.coords: r.index for r in rs.roots}
    return tuple(
        tuple(index[r.coords[:i] + (r.coords[i] - r.weight[i],) + r.coords[i + 1:]]
              for r in rs.roots)
        for i in range(rs.rank))


def tuple_root_strings(rs) -> dict:
    """(base, direction) -> (down, up) of the direction-string through base,
    for every root direction and every root or zero base, each step built
    as a coordinate tuple and looked up in the set of the roots and zero."""
    zero = (0,) * rs.rank
    inside = {r.coords for r in rs.roots} | {zero}
    strings = {}
    for base in inside:
        for direction in rs.roots:
            d = direction.coords
            down = 0
            while tuple(b - (down + 1) * a for b, a in zip(base, d)) in inside:
                down += 1
            up = 0
            while tuple(b + (up + 1) * a for b, a in zip(base, d)) in inside:
                up += 1
            strings[base, d] = down, up
    return strings


def brute_bracket_m(is_root, alpha, beta) -> int:
    """Smallest m > 0 with beta - m*alpha not a root, by direct scan."""
    m = 1
    while True:
        cand = tuple(b - m * a for a, b in zip(alpha, beta))
        if not is_root(cand):
            return m
        m += 1


def all_pairs_ideal_check(rs, p):
    """The short-root ideal check pair by pair: (bracket triples, square
    triples, violations, Steinberg rows), in the order the library reports
    them."""
    brackets, squares, violations, square_violations = [], [], [], []
    shorts = [r for r in rs.roots if r.length == 1]
    for a in shorts:
        for b in rs.roots:
            total = tuple(x + y for x, y in zip(a.coords, b.coords))
            if rs.is_root(total) and rs.root(total).length > 1:
                m = bracket_constant(rs, a.coords, b.coords).m
                brackets.append((a.coords, b.coords, total, m))
                if m % p != 0:
                    violations.append(("bracket", a.coords, b.coords, total, m))
    for a in shorts:
        for b in shorts:
            if b.coords == a.coords or b.coords == tuple(-x for x in a.coords):
                continue
            double = tuple(2 * x + y for x, y in zip(a.coords, b.coords))
            if rs.is_root(double):
                squares.append((a.coords, b.coords, double))
                if rs.root(double).length == 1:
                    square_violations.append(("square", a.coords, b.coords, double))
    steinberg = [steinberg_check(rs, a, b) for a, b, _, _ in brackets]
    return brackets, squares, violations + square_violations, steinberg


def symmetric_group_lengths(n: int) -> list[int]:
    """Histogram of inversion counts over all permutations of n letters."""
    top = n * (n - 1) // 2
    hist = [0] * (top + 1)
    for perm in permutations(range(n)):
        inv = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if perm[i] > perm[j]
        )
        hist[inv] += 1
    return hist


def dihedral_lengths(m: int) -> list[int]:
    """Length histogram of the order-2m dihedral group as a rank-2 Coxeter
    group: one element each of length 0 and m, two of every length between."""
    return [1] + [2] * (m - 1) + [1]


def solve_fractions(matrix, rhs) -> list[Fraction] | None:
    """The x with matrix x = rhs, by Gauss-Jordan over the rationals, or
    None when the square matrix is singular."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] + [Fraction(rhs[i])]
         for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = Fraction(1) / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


def freudenthal_dim(rs, highest_weight) -> int:
    """Dimension of the irreducible module by summing weight multiplicities.

    Freudenthal recursion over the dominant weights of the module, with
    orbit sizes from a direct reflection-orbit walk. The invariant form is
    normalized so that (alpha_i, alpha_i)/2 is the squared-length ratio of
    the i-th simple root, which keeps every quantity an integer:

        (w, alpha) = sum_i coords(alpha)_i * len_i * <w, coroot_i>.

    Weights are enumerated in the exact box 0 <= c <= rootcoords(lam -
    lowest weight), so every string walk is bounded by the box with no
    norm-based stopping rule.
    """
    n = rs.rank
    lam = tuple(highest_weight)
    assert all(x >= 0 for x in lam)
    gcm = rs.gcm.entries
    lengths = rs.sym.lengths
    pos_roots = [(r.coords, r.weight) for r in rs.positives]

    def reflect(i, w):
        return tuple(x - w[i] * a for x, a in zip(w, gcm[i]))

    def dominant_rep(w):
        w = tuple(w)
        while True:
            i = next((k for k in range(n) if w[k] < 0), None)
            if i is None:
                return w
            w = reflect(i, w)

    def orbit_size(w):
        seen = {tuple(w)}
        frontier = [tuple(w)]
        while frontier:
            v = frontier.pop()
            for i in range(n):
                img = reflect(i, v)
                if img not in seen:
                    seen.add(img)
                    frontier.append(img)
        return len(seen)

    def form_with_root(w_fw, root_coords):
        return sum(a * lengths[i] * w_fw[i] for i, a in enumerate(root_coords))

    lowest = tuple(-x for x in dominant_rep(tuple(-x for x in lam)))
    diff = [a - b for a, b in zip(lam, lowest)]
    ct = [[gcm[i][j] for i in range(n)] for j in range(n)]
    box_frac = solve_fractions(ct, diff)
    assert all(x.denominator == 1 and x >= 0 for x in box_frac)
    box = [int(x) for x in box_frac]

    buckets: list[list[tuple[int, ...]]] = [[] for _ in range(sum(box) + 1)]

    def fill(prefix, idx):
        if idx == n:
            buckets[sum(prefix)].append(tuple(prefix))
            return
        for v in range(box[idx] + 1):
            fill(prefix + [v], idx + 1)

    fill([], 0)

    lam_rho = tuple(x + 1 for x in lam)
    mults: dict[tuple[int, ...], int] = {lam: 1}
    dim = orbit_size(lam)
    for height in range(1, len(buckets)):
        for c in buckets[height]:
            mu = tuple(
                l - sum(c[i] * gcm[i][j] for i in range(n))
                for j, l in enumerate(lam)
            )
            if any(x < 0 for x in mu):
                continue   # store dominant representatives only
            numerator = 0
            for coords, weight in pos_roots:
                # largest k with lam - (mu + k alpha) still in the cone
                k_max = min(
                    c[i] // coords[i] for i in range(n) if coords[i] > 0
                )
                for k in range(1, k_max + 1):
                    shifted = tuple(m + k * w for m, w in zip(mu, weight))
                    mult = mults.get(dominant_rep(shifted), 0)
                    if mult:
                        numerator += 2 * mult * form_with_root(shifted, coords)
            mu_rho = tuple(x + 1 for x in mu)
            total = tuple(a + b for a, b in zip(lam_rho, mu_rho))
            # (lam+rho, lam+rho) - (mu+rho, mu+rho) = (total, sum c_i alpha_i)
            denom = sum(c[i] * lengths[i] * total[i] for i in range(n))
            assert denom != 0
            assert numerator % denom == 0
            mult = numerator // denom
            if mult:
                mults[mu] = mult
                dim += mult * orbit_size(mu)
    return dim


def euler_characteristic_by_generator(ed, weight) -> Fraction:
    """prod <D, cv> / <rho, cv> over the positive coroots as a product of
    Fractions, each pairing a generator over zip and <rho, cv> the coroot's
    height."""
    out = Fraction(1)
    for cv in ed.positive_coroots:
        out *= Fraction(sum(x * y for x, y in zip(weight, cv)), sum(cv))
    return out


def trial_division_is_prime(p: int) -> bool:
    """Trial division by every d up to isqrt(p)."""
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


def first_permutation_match(cat, c, nodes):
    """First map (catalog position -> node) in ``permutations(nodes)`` order
    under which the catalog matrix equals the input entries, or None."""
    r = len(cat)
    for perm in permutations(nodes):
        if all(cat[i][j] == c[perm[i]][perm[j]] for i in range(r) for j in range(r)):
            return perm
    return None


def brute_scaled_pairs(src, tgt, p):
    """Every (u, q) with q valued in {1, p} and
    q_i src[i][j] = q_j tgt[u(i)][u(j)], for a connected source diagram.

    Loops over all bijections u in ``permutations`` order; for each, the
    compatibility propagates q across the source diagram from a seed
    q_0 = 1, then q_0 = p, so at most two q exist per u.
    """
    n = len(src)
    out = []
    for u in permutations(range(n)):
        for seed in (1, p):
            q = _propagate_q(src, tgt, u, seed, p)
            if q is not None:
                out.append((u, q))
    return out


def _propagate_q(cg, ch, u, seed: int, p: int):
    """Solve q_i cg[i][j] = q_j ch[u(i)][u(j)] over the Dynkin graph.

    Returns the unique solution with q[0] = seed and values in {1, p}, or
    None if the equations are inconsistent or leave that range.
    """
    n = len(cg)
    q = [None] * n
    q[0] = seed
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(n):
            if i == j or cg[i][j] == 0:
                continue
            if ch[u[i]][u[j]] == 0:
                return None
            num = q[i] * cg[i][j]
            den = ch[u[i]][u[j]]
            if num % den:
                return None
            val = num // den
            if val not in (1, p):
                return None
            if q[j] is None:
                q[j] = val
                frontier.append(j)
            elif q[j] != val:
                return None
    if any(x is None for x in q):
        return None
    # full verification, including the non-edge pairs
    for i in range(n):
        for j in range(n):
            if q[i] * cg[i][j] != q[j] * ch[u[i]][u[j]]:
                return None
    return tuple(q)


def pushforward_suffixes(rs, weight, max_len: int):
    """Yield (word, graded multiset) for every word of length <= max_len, once each.

    The walk runs over the reversed-word (suffix) trie: the word (i,) + w
    pushes its last letters exactly as w does, so its multiset is w's pushed
    one more step along i. Each state is computed once, from its parent.
    Parents come before their children, and a word's children are pushed
    before the word is yielded, so the caller may change what it is handed.

    >>> from weylkit.gcm import parse_type
    >>> from weylkit.roots import generate_roots
    >>> rs = generate_roots(parse_type("A1"))
    >>> [(w, dict(gw)) for w, gw in pushforward_suffixes(rs, (-2,), 2)]
    [((), {((-2,), 0): 1}), ((0,), {((0,), 1): 1}), ((0, 0), {((0,), 1): 1})]
    """
    start = Counter({(tuple(weight), 0): 1})
    stack = [((), start)] if max_len >= 0 else []
    while stack:
        word, gw = stack.pop()
        if len(word) < max_len:
            for i in reversed(range(rs.rank)):
                stack.append(((i,) + word, pushforward_multiset(rs, (i,), gw)))
        yield word, gw


def pushforward_states_per_length(rs, weight, max_len: int, letter):
    """Yield (word, graded multiset, letter occurs, word count) per distinct
    state and length, pushing every state's children afresh.

    Each length keeps each (multiset, letter occurs) once, with the first
    word that reaches it and the number of words that do; a state met again
    at a later length is pushed again, one ``pushforward_multiset`` per
    state and letter. Children are pushed before their parent is yielded.
    """
    level = [[(), Counter({(tuple(weight), 0): 1}), False, 1]]
    for length in range(max_len + 1):
        nxt: dict = {}
        for word, gw, hit, count in level:
            for i in range(rs.rank if length < max_len else 0):
                child = pushforward_multiset(rs, (i,), gw)
                key = (frozenset(child.items()), hit or i == letter)
                nxt.setdefault(key, [(i,) + word, child, key[1], 0])[3] += count
            yield word, gw, hit, count
        level = nxt.values()


def hermite_rows(a) -> intmat.Matrix:
    """Canonical row Hermite normal form of the lattice spanned by the rows.

    Returns an echelon basis: pivots positive, entries above each pivot
    reduced into [0, pivot). Zero rows are dropped, so the result has one
    row per dimension of the row span.
    """
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    r = 0
    for c in range(cols):
        # clear column c below row r by gcd steps
        while True:
            nz = [i for i in range(r + 1, rows) if m[i][c] != 0]
            if not nz:
                break
            if m[r][c] == 0:
                m[r], m[nz[0]] = m[nz[0]], m[r]
                continue
            for i in nz:
                q = m[i][c] // m[r][c]
                m[i] = [x - q * y for x, y in zip(m[i], m[r])]
                if m[i][c] != 0:
                    m[r], m[i] = m[i], m[r]
        if r < rows and m[r][c] != 0:
            if m[r][c] < 0:
                m[r] = [-x for x in m[r]]
            for i in range(r):
                q = m[i][c] // m[r][c]
                if q:
                    m[i] = [x - q * y for x, y in zip(m[i], m[r])]
            r += 1
            if r == rows:
                break
    return [row for row in m[:r]]


def smith_normal_form(a) -> tuple[intmat.Matrix, intmat.Matrix, intmat.Matrix]:
    """Smith normal form with transforms: returns (u, d, v) with u a v = d.

    d is diagonal with nonnegative entries d1 | d2 | ..., and u, v are
    unimodular. Works for any rectangular integer matrix, but the entries of
    u and v swell on dense input: a random 7x7 with entries in [-6, 6] can
    give transforms with thousands of digits and take seconds, and the
    block itself swells on some relabelled Cartan matrices of rank 60.
    ``intmat.invariant_factors`` reads the diagonal alone without either.
    """
    m = intmat.copy(a)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    u = intmat.identity(rows)
    v = intmat.identity(cols)

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        m[dst] = [x + q * y for x, y in zip(m[dst], m[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for row in m:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(rows, cols):
        # find a pivot of least absolute value in the remaining block
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < best):
                    best = abs(m[i][j])
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    add_row(i, t, -(m[i][t] // m[t][t]))
                    if m[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    add_col(j, t, -(m[t][j] // m[t][t]))
                    if m[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
        if m[t][t] < 0:
            negate_row(t)
        # enforce divisibility of the rest of the block by the pivot
        stray = next(((i, j) for i in range(t + 1, rows) for j in range(t + 1, cols)
                      if m[i][j] % m[t][t] != 0), None)
        if stray is not None:
            add_row(t, stray[0], 1)
            continue
        t += 1
    return u, m, v


def subgroups_by_closure(moduli):
    """All subgroups of Z/m1 x ... x Z/mk, sorted by size and then by their
    sorted elements, each found by closing a subgroup and one more element
    under addition with every member as a generator."""
    elements = [tuple(x) for x in product(*(range(m) for m in moduli))]

    def close(gens):
        zero = tuple(0 for _ in moduli)
        seen = {zero}
        frontier = [zero]
        while frontier:
            g = frontier.pop()
            for h in gens:
                s = tuple((a + b) % m for a, b, m in zip(g, h, moduli))
                if s not in seen:
                    seen.add(s)
                    frontier.append(s)
        return frozenset(seen)

    subgroups = {close(frozenset())}
    frontier = list(subgroups)
    while frontier:
        sub = frontier.pop()
        for g in elements:
            if g not in sub:
                bigger = close(sub | {g})
                if bigger not in subgroups:
                    subgroups.add(bigger)
                    frontier.append(bigger)
    return [sorted(s) for s in sorted(subgroups, key=lambda s: (len(s), sorted(s)))]


def _per_root(rs, roots, coroots):
    """(roots, coroots, simples) with the simples found by their coordinates."""
    unit = [tuple(int(i == k) for i in range(rs.rank)) for k in range(rs.rank)]
    simples = tuple(next(r.index for r in rs.roots if r.coords == e) for e in unit)
    return tuple(roots), tuple(coroots), simples


def adjoint_per_root(rs):
    """The adjoint datum root by root: a root keeps its simple-root
    coordinates and a coroot with simple-coroot coordinates b becomes C b."""
    c, n = rs.gcm.entries, rs.rank
    return _per_root(rs, (r.coords for r in rs.roots),
                     (tuple(sum(c[i][j] * r.coroot[j] for j in range(n))
                            for i in range(n)) for r in rs.roots))


def simply_connected_per_root(rs):
    """The simply connected datum root by root: weights and coroots."""
    return _per_root(rs, (r.weight for r in rs.roots), (r.coroot for r in rs.roots))


def intermediate_per_root(rs):
    """One datum per lattice between the root and weight lattices, root by
    root, in the order and Hermite bases of ``intermediate_lattices``.

    The cosets are lifted by the inverse of the Smith transform u, found
    column by column with a fraction solve; each root's weight is solved
    in the lattice basis the same way (it must come out integral), and a
    coroot b becomes B b for the basis rows B.
    """
    n = rs.rank
    u, d, _ = smith_normal_form(intmat.transpose(rs.gcm.rows()))
    diag = [d[i][i] for i in range(n)]
    u_inv_cols = [solve_fractions(u, [int(i == k) for i in range(n)]) for k in range(n)]
    assert all(x.denominator == 1 for col in u_inv_cols for x in col)
    out = []
    for subgroup in subgroups_by_closure(tuple(diag)):
        gens = rs.gcm.rows()
        for e in subgroup:
            gens.append([int(sum(col[i] * x for col, x in zip(u_inv_cols, e)))
                         for i in range(n)])
        basis = hermite_rows(gens)
        basis_t = intmat.transpose(basis)
        roots = []
        for r in rs.roots:
            coords = solve_fractions(basis_t, r.weight)
            assert all(x.denominator == 1 for x in coords)
            roots.append(tuple(int(x) for x in coords))
        coroots = (tuple(sum(b * y for b, y in zip(row, r.coroot)) for row in basis)
                   for r in rs.roots)
        out.append((len(subgroup), basis, _per_root(rs, roots, coroots)))
    return [datum for *_, datum in sorted(out, key=lambda x: x[:2])]


def rebased(datum, basis):
    """The datum in a new basis of its lattice, the columns of ``basis``:
    each root solved in that basis with fractions, each coroot c sent to
    transpose(basis) c."""
    bt = intmat.transpose(basis)
    roots = tuple(tuple(int(x) for x in solve_fractions(basis, r)) for r in datum.roots)
    coroots = tuple(tuple(intmat.matvec(bt, list(c))) for c in datum.coroots)
    return type(datum)(datum.rank, roots, coroots, datum.simples)


def pinned_isomorphism_all_roots(r1, r2):
    """The lattice isomorphism M2 -> M1 respecting the pinnings, or None,
    with the Cartan matrices compared first and then every root of r2 sent
    to a root of r1 whose coroot transpose(f) sends back to its own."""
    if r1.rank != r2.rank or len(r1.roots) != len(r2.roots):
        return None
    if len(r1.simples) != len(r2.simples):
        return None
    if r1.cartan_matrix() != r2.cartan_matrix():
        return None
    n = r1.rank
    if len(r1.simples) != n:
        return None
    # row i of f solves (simple roots of r2) f[i] = (entry i of those of r1)
    s2_rows = [list(r2.simple_root(k)) for k in range(n)]
    f_rat = [solve_fractions(s2_rows, [r1.simple_root(k)[i] for k in range(n)])
             for i in range(n)]
    if None in f_rat or any(x.denominator != 1 for row in f_rat for x in row):
        return None
    f = [[int(x) for x in row] for row in f_rat]
    if not intmat.is_unimodular(f):
        return None
    index1 = {root: i for i, root in enumerate(r1.roots)}
    ft = intmat.transpose(f)
    for i, root in enumerate(r2.roots):
        j = index1.get(tuple(intmat.matvec(f, list(root))))
        if j is None:
            return None
        if tuple(intmat.matvec(ft, list(r1.coroots[j]))) != r2.coroots[i]:
            return None
    return tuple(tuple(row) for row in f)


class _ReferenceParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let values like "-2,1" pass as option arguments rather than flags
        self._negative_number_matcher = re.compile(cli._NEGATIVE_VECTOR)

    def error(self, message):
        raise core.ParseError(f"{self.prog}: {message}")


def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser ``weylkit.cli`` read its command line with before
    ``cli._parse`` read ``cli._COMMANDS``: every subcommand, each setting as
    defaults its handler, its schema name and any fixed value. ``parse_args``
    gives a namespace that also names the ``command`` and ``action`` words,
    raises ``ParseError`` on a usage error, and prints help and exits 0 on a
    ``-h`` it reaches first."""
    def common(p, type_arg=True):
        p.add_argument("--format", choices=("json", "text"), default="json")
        if type_arg:
            p.add_argument("--type", required=True)

    def weight_args(p):
        common(p)
        p.add_argument("--weight", required=True)
        p.add_argument("--basis", choices=("coroot", "root"), default="coroot")

    top = _ReferenceParser(prog="weylkit")
    sub = top.add_subparsers(dest="command", required=True, parser_class=_ReferenceParser)
    p = sub.add_parser("classify")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--transpose", action="store_true")
    p.add_argument("--cap", type=int)
    common(p, type_arg=False)
    p.set_defaults(func=cli._cmd_classify, schema="weylkit/report/1")
    p = sub.add_parser("roots")
    common(p)
    p.set_defaults(func=cli._cmd_roots, schema="weylkit/roots/1")
    p = sub.add_parser("weyl")
    common(p)
    p.add_argument("--cap", type=int)
    p.set_defaults(func=cli._cmd_weyl, schema="weylkit/weyl/1")
    p = sub.add_parser("bs-weights")
    weight_args(p)
    p.add_argument("--word", required=True)
    p.set_defaults(func=cli._cmd_bs_weights, schema="weylkit/bs-weights/1")
    for name, formula in (("dim", "weyl_dim"), ("vol", "volume")):
        p = sub.add_parser(name)
        weight_args(p)
        p.set_defaults(func=cli._cmd_character, schema=f"weylkit/{name}/1", formula=formula)
    act = sub.add_parser("isogeny").add_subparsers(dest="action", required=True)
    p = act.add_parser("enumerate")
    common(p)
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(func=cli._cmd_isogeny_enumerate, schema="weylkit/isogenies/1")
    p = act.add_parser("validate")
    common(p, type_arg=False)
    p.add_argument("--file", required=True)
    p.set_defaults(func=cli._cmd_isogeny_validate, schema="weylkit/isogeny-validation/1")
    p = sub.add_parser("chevalley").add_subparsers(dest="action", required=True) \
        .add_parser("check")
    common(p)
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(func=cli._cmd_chevalley, schema="weylkit/chevalley/1")
    p = sub.add_parser("datum")
    common(p)
    p.add_argument("--kind", choices=("adjoint", "sc"), default="adjoint")
    p.set_defaults(func=cli._cmd_datum, schema="weylkit/datum/1")
    p = sub.add_parser("selfcheck")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=cli._count, default=100)
    p.set_defaults(func=cli._cmd_selfcheck, schema="weylkit/selfcheck/1")
    return top
