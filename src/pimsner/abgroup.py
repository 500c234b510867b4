"""Exact integer linear algebra and finitely generated abelian groups.

Everything here is computed over Z with Python's arbitrary-precision
integers; there is no floating point anywhere.  One elimination kernel,
``_smith``, diagonalizes an integer matrix by unimodular row and column
operations.  ``smith_normal_form`` runs it with the transforms ``U`` and
``V``, which integer kernels and solutions need: the linear solves of
``ringcore`` over Z, Q and Z/m, after clearing denominators or lifting
Z/m to ``[rows | m I]``.  ``IntMatrix.smith_diagonal`` needs no
transforms: it first takes unit pivots on sparse rows, each of which
splits off an invariant factor 1, then runs the kernel on what is left,
and keeps the invariant factors on the matrix.  The kernel and cokernel
of a map of free (or cyclic-coefficient) abelian groups, packaged as
``LesSegment`` values for the long-exact-sequence pipelines, are read
off that one diagonal, and so is the rank test of ``funcmod``.

Finitely generated abelian groups are stored as a free rank plus their
invariant factors ``d_1 | d_2 | ...``, merged by gcd and lcm; no integer
is factored except in ``FgAbelianGroup.primary_components``.

>>> S, U, V = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
>>> S.diagonal()
[2, 4]
>>> IntMatrix.from_rows([[2, 4], [6, 8]]).smith_diagonal()
(2, 4)
>>> seg = les_segment(IntMatrix.from_rows([[-2]]), FgAbelianGroup.free(1))
>>> print(seg.cokernel)
Z/2
"""

from __future__ import annotations

from collections import namedtuple
from itertools import compress
from math import gcd


class AbgroupError(ValueError):
    """Raised on malformed input (shape mismatches, bad coefficient groups)."""


# ---------------------------------------------------------------------------
# Integer matrices
# ---------------------------------------------------------------------------

class IntMatrix:
    """An immutable integer matrix, stored row-major.

    Every entry must be an ``int``; any other type, ``bool`` included,
    raises ``AbgroupError`` rather than being converted.

    Empty matrices (0 rows and/or 0 columns) are legal and show up
    naturally: the adjacency map of a quiver with no regular vertices has
    zero columns.  Being immutable, a matrix keeps its Smith diagonal once
    computed (``smith_diagonal``); that is its only cache.
    """

    __slots__ = ("rows", "cols", "entries", "_diagonal")

    def __init__(self, rows, cols, entries):
        if rows < 0 or cols < 0:
            raise AbgroupError("matrix dimensions must be nonnegative")
        entries = tuple(map(tuple, entries))
        if len(entries) != rows or not set(map(len, entries)) <= {cols}:
            raise AbgroupError("entry grid does not match declared shape")
        for row in entries:
            kinds = set(map(type, row))
            if not kinds <= {int}:
                # no silent int(): 1.5, "7" and True are refused
                bad = sorted(t.__name__ for t in kinds - {int})
                raise AbgroupError(
                    f"matrix entries must be int, got {', '.join(bad)}")
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self._diagonal = None

    @classmethod
    def from_rows(cls, rows):
        rows = list(map(tuple, rows))
        ncols = len(rows[0]) if rows else 0
        return cls(len(rows), ncols, rows)

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.entries == other.entries and self.cols == other.cols

    def __hash__(self):
        return hash((self.cols, self.entries))

    def __repr__(self):
        return f"IntMatrix({list(map(list, self.entries))!r})"

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def mul(self, other):
        if self.cols != other.rows:
            raise AbgroupError("shape mismatch in matrix product")
        out = []
        for i in range(self.rows):
            row = self.entries[i]
            out.append([sum(row[k] * other.entries[k][j] for k in range(self.cols))
                        for j in range(other.cols)])
        return IntMatrix(self.rows, other.cols, out)

    def diagonal(self):
        return [self.entries[i][i] for i in range(min(self.rows, self.cols))]

    def smith_diagonal(self):
        """The nonzero invariant factors ``d_1 | d_2 | ...``, as a tuple.

        Computed once, without unimodular transforms, and kept on the
        matrix.  Its length is the rank.  Unit pivots come first, on the
        sparse rows of ``_unit_pivots``, and add one factor 1 each; the
        one kernel ``_smith`` diagonalizes the block they leave.
        """
        if self._diagonal is None:
            units, rest = _unit_pivots(self)
            s, _, _ = _smith(rest, transforms=False)
            diag = (s[i][i] for i in range(min(rest.rows, rest.cols)))
            self._diagonal = (1,) * units + tuple(d for d in diag if d)
        return self._diagonal

    def det(self):
        """Determinant by fraction-free (Bareiss) elimination. Square only."""
        if self.rows != self.cols:
            raise AbgroupError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(r) for r in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def _smith(mat, transforms):
    """Diagonalize ``mat`` by unimodular row/column operations.

    Returns row lists ``(s, u, v)`` with ``u * mat * v == s`` when
    ``transforms`` is true; otherwise ``u`` and ``v`` are None and their
    bookkeeping is skipped.  ``s`` is diagonal with nonnegative entries
    ``d_1 | d_2 | ...`` and every entry after the first zero equal to zero.

    Pivots are chosen with minimal absolute value to keep intermediate
    entries small; correctness does not depend on the choice.  The rows
    and columns of placed pivots are zero off the diagonal, so operations
    on ``s`` touch only the trailing block from pivot ``t`` on; and the
    column operations that clear row ``t`` run once column ``t`` is clear,
    so each changes one entry of ``s``.
    """
    m, n = mat.rows, mat.cols
    s = [list(row) for row in mat.entries]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)] \
        if transforms else None
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)] \
        if transforms else None

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s[t:]:
            row[i], row[j] = row[j], row[i]
        if v is not None:
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q, cols):
        # row[dst] -= q * row[src]; ``cols`` holds every column from t on
        # where row[src] may be nonzero
        sd, ss = s[dst], s[src]
        for j in cols:
            x = ss[j]
            if x:
                sd[j] -= q * x
        if u is not None:
            ud, us = u[dst], u[src]
            for j in range(m):
                ud[j] -= q * us[j]

    def add_col(dst, src, q):
        # col[dst] -= q * col[src]; in s only row t has col[src] nonzero
        s[t][dst] -= q * s[t][src]
        if v is not None:
            for row in v:
                row[dst] -= q * row[src]

    t = 0
    while t < m and t < n:
        # Locate a pivot of minimal absolute value in the trailing block;
        # a unit is minimal, so the search stops at the first one.
        best = None
        for i in range(t, m):
            row = s[i]
            for j in range(t, n):
                e = row[j]
                if e and (best is None or abs(e) < best[0]):
                    best = (abs(e), i, j)
                    if best[0] == 1:
                        break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            if u is not None:
                u[t] = [-x for x in u[t]]

        while True:
            a = s[t][t]
            # Clear the pivot column.  Remainders stay in [0, a); a nonzero
            # remainder becomes the next (smaller) pivot.  Row t does not
            # change while it clears, so its nonzero columns are listed once.
            pivot_cols = [j for j in range(t, n) if s[t][j]]
            dirty = False
            for i in range(t + 1, m):
                x = s[i][t]
                if x:
                    add_row(i, t, x // a, pivot_cols)
                    if s[i][t]:
                        dirty = True
            if dirty:
                best = None
                for i in range(t + 1, m):
                    x = s[i][t]
                    if x and (best is None or x < best[0]):
                        best = (x, i)
                swap_rows(t, best[1])
                continue
            a = s[t][t]
            dirty = False
            for j in range(t + 1, n):
                x = s[t][j]
                if x:
                    add_col(j, t, x // a)
                    if s[t][j]:
                        dirty = True
            if dirty:
                best = None
                for j in range(t + 1, n):
                    x = s[t][j]
                    if x and (best is None or x < best[0]):
                        best = (x, j)
                swap_cols(t, best[1])
                continue
            if any(s[i][t] for i in range(t + 1, m)):
                continue
            # Pivot row/column clean.  Enforce divisibility of the rest of
            # the block: fold a non-multiple row into row t and redo.
            a = s[t][t]
            offender = None
            if a != 1:
                for i in range(t + 1, m):
                    row = s[i]
                    for j in range(t + 1, n):
                        if row[j] % a:
                            offender = i
                            break
                    if offender is not None:
                        break
            if offender is None:
                break
            add_row(t, offender, -1, range(t, n))
        t += 1

    return s, u, v


def _unit_pivots(mat):
    """Eliminate on ``+-1`` pivots of ``mat`` while any is left.

    Returns ``(count, rest)``: ``mat`` is equivalent to the identity of
    size ``count`` next to ``rest``, so its invariant factors are ``count``
    ones followed by those of ``rest``.  A unit pivot splits off a 1 and
    leaves its Schur complement, the other rows minus their multiple of
    the pivot row, with no division and no gcd step.  ``rest`` holds the
    rows and columns still nonzero, in their original order; it is
    ``mat`` itself when no entry is a unit.

    Rows are dicts of their nonzero entries, with an index of each
    column's nonzero rows.  Pivots are taken in sweeps over the rows,
    sparsest first, each on the row's unit in the sparsest column; that
    keeps the Markowitz cost ``(row nnz - 1)(col nnz - 1)``, the most
    fill-in a pivot can make, low.  A row that fill-in has grown since
    its sweep began waits for the next one, and the sweeps end when one
    takes no pivot.  The order depends on the entries alone.
    """
    if not any(1 in row or -1 in row for row in mat.entries):
        return 0, mat
    rows = {}
    for i, entries in enumerate(mat.entries):
        row = {j: entries[j] for j in compress(range(mat.cols), entries)}
        if row:
            rows[i] = row
    cols = {j: set(compress(range(mat.rows), col))
            for j, col in enumerate(zip(*mat.entries))}
    count = 0
    taken = True
    while taken:
        taken = False
        for size, i in sorted((len(row), i) for i, row in rows.items()):
            row = rows.get(i)
            if row is None or len(row) != size:
                continue
            best = None
            for j, x in row.items():
                if (x == 1 or x == -1) and (
                        best is None or len(cols[j]) < best[0]):
                    best = (len(cols[j]), j)
            if best is None:
                continue
            count += 1
            taken = True
            j = best[1]
            del rows[i]
            for jj in row:
                cols[jj].discard(i)
            p = row.pop(j)
            for k in cols.pop(j):
                # other -= f * row clears other[j], as p * p == 1
                other = rows[k]
                f = other.pop(j) * p
                for jj, x in row.items():
                    y = other.get(jj)
                    if y is None:
                        other[jj] = -f * x
                        cols[jj].add(k)
                    elif y == f * x:
                        del other[jj]
                        cols[jj].discard(k)
                    else:
                        other[jj] = y - f * x
                if not other:
                    del rows[k]
    keep = sorted(j for j, col in cols.items() if col)
    return count, IntMatrix(len(rows), len(keep), [
        [rows[i].get(j, 0) for j in keep] for i in sorted(rows)])


def smith_normal_form(mat):
    """Diagonalize ``mat`` by unimodular row/column operations.

    Returns ``(S, U, V)`` with ``U * mat * V == S``, ``det(U), det(V)`` in
    ``{1, -1}``, ``S`` diagonal with nonnegative entries ``d_1 | d_2 | ...``
    and every entry after the first zero equal to zero.  Only integer
    kernels and solutions need ``U`` and ``V``; everything else reads
    ``mat.smith_diagonal()``.
    """
    s, u, v = _smith(mat, transforms=True)
    m, n = mat.rows, mat.cols
    return IntMatrix(m, n, s), IntMatrix(m, m, u), IntMatrix(n, n, v)


def kernel_basis(mat):
    """An integer basis of ``{v : mat . v = 0}``, one basis vector per column.

    The basis is saturated (it spans the full kernel lattice, not a finite-
    index sublattice) because it consists of columns of a unimodular matrix.
    """
    s, _, v = smith_normal_form(mat)
    diag = s.diagonal()
    free_cols = [j for j in range(mat.cols)
                 if j >= len(diag) or diag[j] == 0]
    return IntMatrix(mat.cols, len(free_cols),
                     [[v.entries[i][j] for j in free_cols] for i in range(mat.cols)])


def solve_int(mat, rhs):
    """One integer solution ``x`` of ``mat . x = rhs``, or None.

    ``rhs`` is a list of length ``mat.rows``.
    """
    if len(rhs) != mat.rows:
        raise AbgroupError("right-hand side length mismatch")
    s, u, v = smith_normal_form(mat)
    ub = [sum(u.entries[i][k] * rhs[k] for k in range(mat.rows))
          for i in range(mat.rows)]
    y = [0] * mat.cols
    diag = s.diagonal()
    for i in range(mat.rows):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if ub[i] != 0:
                return None
        else:
            q, r = divmod(ub[i], d)
            if r:
                return None
            y[i] = q
    return [sum(v.entries[i][k] * y[k] for k in range(mat.cols))
            for i in range(mat.cols)]


# ---------------------------------------------------------------------------
# Finitely generated abelian groups
# ---------------------------------------------------------------------------

def _factorint(n):
    """Prime factorization by trial division, for ``primary_components``."""
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _invariant_factors(orders):
    """The chain ``d_1 | d_2 | ...`` (all >= 2) of a sum of cyclic groups.

    Each order is carried into the chain from the top by
    ``Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b)``; nothing is factored.
    """
    chain = []
    for c in sorted(orders):
        if c < 1:
            raise AbgroupError(f"cyclic order must be positive, got {c}")
        if c == 1:
            continue
        if not chain or c % chain[-1] == 0:
            chain.append(c)
            continue
        for i in range(len(chain) - 1, -1, -1):
            d = chain[i]
            g = gcd(d, c)
            chain[i] = d // g * c
            c = g
            if c == 1:
                break
        else:
            chain.insert(0, c)
    return tuple(chain)


class FgAbelianGroup:
    """A finitely generated abelian group in canonical form.

    Stored as a free rank plus the invariant factor chain
    ``d_1 | d_2 | ...`` with every ``d_i >= 2``; trivial factors are
    dropped and the free part lives only in ``free_rank``, so equal groups
    always compare equal.  ``torsion`` lists any finite cyclic orders
    (1s allowed) in any order; they are merged into the chain.

    >>> FgAbelianGroup.from_divisors(2, 3) == FgAbelianGroup.from_divisors(6)
    True
    >>> print(FgAbelianGroup.from_divisors(0, 4, 6))
    Z x Z/2 x Z/12
    """

    __slots__ = ("free_rank", "_torsion")

    def __init__(self, free_rank=0, torsion=()):
        self.free_rank = int(free_rank)
        self._torsion = _invariant_factors(int(d) for d in torsion)

    @classmethod
    def from_divisors(cls, *divisors):
        """Build from cyclic orders; 0 means an infinite cyclic summand."""
        orders = [abs(int(d)) for d in divisors]
        return cls(orders.count(0), [d for d in orders if d])

    @classmethod
    def trivial(cls):
        return cls()

    @classmethod
    def free(cls, rank):
        return cls(rank)

    @property
    def torsion(self):
        """Invariant factors d_1 | d_2 | ... in ascending divisibility order."""
        return list(self._torsion)

    def primary_components(self):
        """All cyclic summands: 0 repeated free_rank times, then each p^e.

        Prime powers come by ascending prime, then descending exponent.
        This is the one place that factors, so call it only on small
        torsion.
        """
        out = [0] * self.free_rank
        if not self._torsion:
            return out
        for p in sorted(_factorint(self._torsion[-1])):
            for d in reversed(self._torsion):
                q = 1
                while d % p == 0:
                    d //= p
                    q *= p
                if q == 1:
                    break
                out.append(q)
        return out

    def is_free(self):
        return not self._torsion

    def direct_sum(self, *others):
        groups = (self, *others)
        return FgAbelianGroup(sum(g.free_rank for g in groups),
                              [d for g in groups for d in g._torsion])

    def __eq__(self, other):
        if not isinstance(other, FgAbelianGroup):
            return NotImplemented
        return (self.free_rank == other.free_rank
                and self._torsion == other._torsion)

    def __hash__(self):
        return hash((self.free_rank, self._torsion))

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self._torsion)
        return " x ".join(parts) if parts else "0"

    def __repr__(self):
        divisors = [0] * self.free_rank + self.torsion
        return f"FgAbelianGroup.from_divisors({', '.join(map(str, divisors))})"


# ---------------------------------------------------------------------------
# Long-exact-sequence segments
# ---------------------------------------------------------------------------

LesSegment = namedtuple("LesSegment", "kernel cokernel map_matrix")
LesSegment.__doc__ = """Kernel and cokernel of one map in a long exact
sequence window, with the ``IntMatrix`` of the map."""


def les_segment(mat, coeff):
    """Kernel and cokernel of ``mat`` acting coordinatewise on ``coeff``.

    ``coeff`` must be free (Z^k) or cyclic torsion (Z/m); callers split
    mixed groups into primary components first.  Both are read from the
    Smith diagonal of ``mat``, whose r nonzero invariants ``d_i`` survive
    the unimodular change of basis on either side.  Over Z^k the kernel
    is free of rank ``(cols - r) k`` and the cokernel is
    ``(Z^(rows - r) + sum Z/d_i)^k``.  Over Z/m each ``d_i`` acts on one
    copy of Z/m with kernel and cokernel Z/gcd(d_i, m), and the zero
    diagonal adds ``(Z/m)^(cols - r)`` to the kernel and
    ``(Z/m)^(rows - r)`` to the cokernel.
    """
    if not isinstance(coeff, FgAbelianGroup):
        raise AbgroupError("coefficient must be an FgAbelianGroup")
    diag = mat.smith_diagonal()
    r = len(diag)
    if coeff.is_free():
        k = coeff.free_rank
        ker = FgAbelianGroup.free((mat.cols - r) * k)
        cok = FgAbelianGroup((mat.rows - r) * k, diag * k)
        return LesSegment(ker, cok, mat)
    if coeff.free_rank or len(coeff.torsion) != 1:
        raise AbgroupError(
            "mixed coefficient group; split into primary components first")
    m = coeff.torsion[0]
    cyclic = [gcd(d, m) for d in diag]
    ker = FgAbelianGroup(0, cyclic + [m] * (mat.cols - r))
    cok = FgAbelianGroup(0, cyclic + [m] * (mat.rows - r))
    return LesSegment(ker, cok, mat)
