"""Build the pinned input pools and their expected outputs: data/pool.json.

Run once, from the repository root:  python3 perfbench/make_data.py

The expected values come from an oracle that shares no code with pimsner:

* K-groups: the Smith diagonal of each integer matrix, from sympy's
  ``invariant_factors`` after unit pivots have been eliminated (quiver
  matrices are sparse and mostly unit entries; sympy on the full 200-vertex
  matrix does not finish).  Matrices of up to 100 rows are also run through
  sympy whole, as a check on the elimination.
* Group-word partitions: pimsner documents equality to depth D as "the
  same action on all words of length <= D, with freely trivial depth-D
  restrictions" of w1 w2^-1.  Two words are related exactly when they act
  alike on X^D and have the same freely reduced restriction at every
  u in X^D; that key is computed here from the wreath recursion.
* True equality of group elements, for the record: the permutation each
  word induces on the words of length 12 and of length 14 (the two must
  agree).  Depth-bounded equality splits some classes of it, for example
  b c d = 1 in the Grigorchuk group, whose restrictions cycle through the
  rotations of b c d and never reduce freely.

The benchmark itself never imports sympy; it only reads the pool.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys

from sympy import Matrix, ZZ, factorint
from sympy.matrices.normalforms import invariant_factors

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "data", "pool.json")

# Quiver classes for the kgroups workload: (name, vertex range, pool size).
# The single 150- and 200-vertex quivers are pinned: one sample of a class
# that heavy would swing a whole pass by itself.
QUIVER_CLASSES = [
    ("q20-40", (20, 40), 48),
    ("q64", (64, 64), 24),
    ("q110", (110, 110), 9),
    ("q150", (150, 150), 1),
    ("q200", (200, 200), 1),
]
EDGES_PER_VERTEX = 3
COEFFS = ["z", "fp:2", "fp:3", "fp:5"]

# pv classes: (name, size range, pool size).  Entries of alpha are sparse
# so that the torsion stays within trial division's reach; the "large"
# class is dense and kept only when it is far beyond that reach.
PV_CLASSES = [
    ("pv5-10", (5, 10), 72),
    ("pv11-16", (11, 16), 68),
    ("pv17-23", (17, 23), 68),
    ("pv24-30", (24, 30), 68),
]
PV_LARGE = ("pv-large", 30, 6)
REACH_OK = 2 ** 16        # trial-division steps that finish in milliseconds
REACH_BEYOND = 2 ** 30    # steps that take minutes

GROUPS = {
    # name: {generator: (swaps the two letters?, restriction at 0, at 1)}
    "grigorchuk": {"a": (True, "e", "e"), "b": (False, "a", "c"),
                   "c": (False, "a", "d"), "d": (False, "e", "b")},
    "basilica": {"a": (False, "e", "b"), "b": (True, "e", "a")},
    "odometer": {"a": (True, "e", "a")},
}
WORDS_PER_GROUP = 300
WORD_MAX_LETTERS = 10
EQUALITY_DEPTH = 8
ORACLE_LEVELS = (12, 14)


# ---------------------------------------------------------------------------
# Smith diagonal oracle
# ---------------------------------------------------------------------------

def _eliminate_unit_pivots(rows, ncols):
    """Drop unit pivots by unimodular row operations.

    Returns ``(core, removed)``: the remaining sparse rows (dicts) and the
    number of unit pivots removed; the cokernel of the input is the
    cokernel of ``core`` and the rank is ``removed + rank(core)``.
    """
    rows = [{j: v for j, v in enumerate(r) if v} for r in rows]
    alive_rows = set(range(len(rows)))
    alive_cols = set(range(ncols))
    removed = 0
    while True:
        col_count = {}
        for i in alive_rows:
            for j in rows[i]:
                col_count[j] = col_count.get(j, 0) + 1
        best = None
        for i in alive_rows:
            row = rows[i]
            for j, v in row.items():
                if v in (1, -1):
                    cost = (len(row) - 1) * (col_count[j] - 1)
                    if best is None or cost < best[0]:
                        best = (cost, i, j)
        if best is None:
            break
        _, r, c = best
        pivot = rows[r][c]
        for i in list(alive_rows):
            if i == r or c not in rows[i]:
                continue
            factor = rows[i][c] * pivot   # pivot is its own inverse
            row = rows[i]
            for j, v in rows[r].items():
                nv = row.get(j, 0) - factor * v
                if nv:
                    row[j] = nv
                else:
                    row.pop(j, None)
        alive_rows.discard(r)
        alive_cols.discard(c)
        removed += 1
    cols = sorted(alive_cols)
    core = [[rows[i].get(j, 0) for j in cols] for i in sorted(alive_rows)]
    return core, removed


def smith_diagonal(rows, ncols):
    """Nonzero Smith diagonal entries (all of them, 1s included) and rank."""
    core, removed = _eliminate_unit_pivots(rows, ncols)
    diag = [1] * removed
    if core and core[0]:
        diag += [int(d) for d in invariant_factors(Matrix(core), domain=ZZ)
                 if d != 0]
    diag = [abs(d) for d in diag]
    if len(rows) <= 100 and rows and ncols:
        whole = [abs(int(d)) for d in invariant_factors(Matrix(rows),
                                                        domain=ZZ) if d != 0]
        if sorted(whole) != sorted(diag):
            raise SystemExit("unit-pivot elimination disagrees with sympy")
    return diag, len(diag)


def group(free_rank, orders):
    """(free rank, sorted nontrivial cyclic orders) as pinned JSON."""
    return [free_rank, sorted(d for d in orders if d >= 2)]


def coeff_components(coeff):
    """Degree-1 coefficient components: cyclic orders of K1 of the ring."""
    if coeff == "z":
        return [2]
    p = int(coeff.split(":")[1])
    return [q ** e for q, e in sorted(factorint(p - 1).items())]


def expected_quiver(diag, rank, nrows, ncols, coeff):
    """K0 and K1 of the Leavitt path algebra from the Smith diagonal.

    K0 = coker M; K1 = (coker of M on each K1 component) + ker M, with
    coker(M on Z/m) = sum of Z/gcd(d_i, m) plus (Z/m)^(rows - rank).
    """
    k0 = group(nrows - rank, diag)
    orders = []
    for m in coeff_components(coeff):
        orders += [math.gcd(d, m) for d in diag]
        orders += [m] * (nrows - rank)
    k1 = group(ncols - rank, orders)
    return {"0": k0, "1": k1}


# ---------------------------------------------------------------------------
# Pools
# ---------------------------------------------------------------------------

def quiver_pool(rng):
    pool = []
    for name, (lo, hi), size in QUIVER_CLASSES:
        for _ in range(size):
            n = rng.randint(lo, hi)
            edges = [rng.randrange(n) for _ in range(2 * EDGES_PER_VERTEX * n)]
            counts = [[0] * n for _ in range(n)]
            for s, r in zip(edges[0::2], edges[1::2]):
                counts[s][r] += 1
            regular = [v for v in range(n) if any(counts[v])]
            mat = [[(1 if y == v else 0) - counts[v][y] for v in regular]
                   for y in range(n)]
            diag, rank = smith_diagonal(mat, len(regular))
            pool.append({
                "class": name, "vertices": n, "edges": edges,
                "expected": {c: expected_quiver(diag, rank, n, len(regular), c)
                             for c in COEFFS}})
        print(f"quiver class {name}: {size}", file=sys.stderr)
    return pool


def trial_division_steps(orders):
    """Iterations the seed's trial division spends on the worst order."""
    worst = 0
    for d in orders:
        primes = sorted(p for p, e in factorint(d).items() for _ in range(e))
        largest = primes[-1] if primes else 1
        second = primes[-2] if len(primes) > 1 else 1
        worst = max(worst, max(second, math.isqrt(largest)) // 2)
    return worst


def pv_entry(cls, n, alpha):
    one_minus = [[(1 if i == j else 0) - alpha[i][j] for j in range(n)]
                 for i in range(n)]
    diag, rank = smith_diagonal(one_minus, n)
    expected = group(2 * (n - rank), diag)
    text = "; ".join(" ".join(str(x) for x in row) for row in alpha)
    return {"class": cls, "size": n, "matrix": text,
            "expected": {"0": expected, "1": expected}}, diag


def pv_pool(rng):
    pool = []
    for name, (lo, hi), size in PV_CLASSES:
        kept = 0
        while kept < size:
            n = rng.randint(lo, hi)
            alpha = [[rng.choice((-2, -1, 1, 2)) if rng.random() < 0.25 else 0
                      for _ in range(n)] for _ in range(n)]
            entry, diag = pv_entry(name, n, alpha)
            if trial_division_steps(d for d in diag if d >= 2) < REACH_OK:
                pool.append(entry)
                kept += 1
        print(f"pv class {name}: {size}", file=sys.stderr)
    name, n, size = PV_LARGE
    kept = 0
    while kept < size:
        alpha = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        entry, diag = pv_entry(name, n, alpha)
        if trial_division_steps(d for d in diag if d >= 2) > REACH_BEYOND:
            entry["largest_torsion_bits"] = max(diag).bit_length()
            pool.append(entry)
            kept += 1
    print(f"pv class {name}: {size}", file=sys.stderr)
    return pool


def selfsim_text(gens):
    lines = ["alphabet: 0 1", f"depth: {EQUALITY_DEPTH}"]
    for gen, (swap, r0, r1) in gens.items():
        lines.append(f"{gen} = {'(perm 0 1)' if swap else ''}({r0}, {r1})")
    return "\n".join(lines) + "\n"


def level_perms(gens, level):
    """Permutation arrays of every generator on the words of one length.

    A word x_1 ... x_L is the integer with x_1 as its most significant bit.
    """
    perms = {g: [0] for g in gens}
    perms["e"] = [0]
    for lvl in range(1, level + 1):
        half = 1 << (lvl - 1)
        new = {"e": list(range(2 * half))}
        for g, (swap, r0, r1) in gens.items():
            arr = [0] * (2 * half)
            for x, restr in ((0, r0), (1, r1)):
                y = 1 - x if swap else x
                sub = perms[restr]
                for w in range(half):
                    arr[x * half + w] = y * half + sub[w]
            new[g] = arr
        perms = new
    return perms


def word_partition(gens, words, level):
    perms = level_perms(gens, level)
    inverse = {}
    for g, arr in perms.items():
        inv = [0] * len(arr)
        for i, j in enumerate(arr):
            inv[j] = i
        inverse[g] = inv
    labels, seen = [], {}
    for word in words:
        state = list(range(1 << level))
        # rightmost letter acts first: state = g_1 o g_2 o ... o g_k
        for ch in word:
            arr = perms[ch] if ch.islower() else inverse[ch.lower()]
            state = [arr[i] for i in state]
        key = tuple(state)
        labels.append(seen.setdefault(key, len(seen)))
    return labels


def depth_partition(gens, words, depth):
    """Labels by (action on X^depth, reduced restriction at each u)."""

    def step(word, x):
        # image of the letter x and restriction at x; rightmost acts first
        restr = ""
        for ch in reversed(word):
            swap, r0, r1 = gens[ch.lower()]
            if ch.islower():
                piece = (r0, r1)[x]
                x = 1 - x if swap else x
            else:
                y = 1 - x if swap else x
                piece = (r0, r1)[y].upper()
                x = y
            if piece not in ("e", "E"):
                restr = reduce_word(piece + restr)
        return x, restr

    labels, seen = [], {}
    for word in words:
        key = []
        level = [((), word)]
        for _ in range(depth):
            level = [(image + (y,), restr)
                     for image, w in level
                     for y, restr in (step(w, 0), step(w, 1))]
        for image, restr in level:
            key.append((image, restr))
        labels.append(seen.setdefault(tuple(key), len(seen)))
    return labels


def reduce_word(letters):
    out = []
    for ch in letters:
        if out and out[-1] != ch and out[-1].lower() == ch.lower():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def words_pool(rng):
    pool = {}
    for name, gens in GROUPS.items():
        alphabet = [g for g in gens] + [g.upper() for g in gens]
        words = [reduce_word(rng.choice(alphabet)
                             for _ in range(rng.randint(1, WORD_MAX_LETTERS)))
                 for _ in range(WORDS_PER_GROUP)]
        parts = [word_partition(gens, words, lvl) for lvl in ORACLE_LEVELS]
        if any(p != parts[0] for p in parts):
            raise SystemExit(f"{name}: partition not stable across levels")
        classes = depth_partition(gens, words, EQUALITY_DEPTH)
        split = sum(1 for i in range(len(words)) for j in range(i)
                    if parts[0][i] == parts[0][j] and classes[i] != classes[j])
        pool[name] = {"text": selfsim_text(gens), "words": words,
                      "classes": classes, "element_classes": parts[0],
                      "equal_pairs_split_at_depth": split}
        print(f"group {name}: {len(set(classes))} classes at depth "
              f"{EQUALITY_DEPTH}, {len(set(parts[0]))} elements, {split} "
              f"equal pairs split", file=sys.stderr)
    return pool


def main():
    rng = random.Random(20260326)
    data = {
        "note": "generated by perfbench/make_data.py; expected values from "
                "sympy and a wreath-recursion oracle, not from pimsner",
        "quivers": quiver_pool(rng),
        "pv": pv_pool(rng),
        "groups": words_pool(rng),
    }
    with open(OUT, "w", encoding="utf-8") as handle:
        json.dump(data, handle, separators=(",", ":"))
        handle.write("\n")
    print(f"wrote {OUT} ({os.path.getsize(OUT)} bytes)", file=sys.stderr)


if __name__ == "__main__":
    main()
