"""Tests for exact integer linear algebra and f.g. abelian groups.

The Smith form is cross-checked against an independent oracle: the product
d_1 * ... * d_k of the first k invariant factors equals the gcd of all k x k
minors, computed here directly from determinants of submatrices.
"""

import doctest
import functools
import random
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest

import pimsner.abgroup

from pimsner.abgroup import (
    AbgroupError,
    FgAbelianGroup,
    IntMatrix,
    LesSegment,
    les_segment,
    smith_normal_form,
)
from pimsner.leavitt import AdjacencyData, Quiver, k_groups


def test_module_doctests():
    results = doctest.testmod(pimsner.abgroup)
    assert results.attempted > 0
    assert results.failed == 0


def minor_gcd_divisors(mat):
    """Invariant factors via gcds of k x k minors (independent oracle)."""
    r = min(mat.rows, mat.cols)
    divisors = []
    prev = 1
    for k in range(1, r + 1):
        g = 0
        for rows in combinations(range(mat.rows), k):
            for cols in combinations(range(mat.cols), k):
                sub = IntMatrix.from_rows(
                    [[mat.entries[i][j] for j in cols] for i in rows])
                g = gcd(g, sub.det())
        if g == 0:
            break
        divisors.append(g // prev)
        prev = g
    divisors += [0] * (r - len(divisors))
    return divisors


def cokernel_by_minors(mat):
    """``Z^rows / column-span(mat)`` from the minor-gcd divisors."""
    divisors = [d for d in minor_gcd_divisors(mat) if d]
    return FgAbelianGroup(mat.rows - len(divisors), divisors)


def free_cokernel(mat):
    return les_segment(mat, FgAbelianGroup.free(1)).cokernel


def identity(n):
    return IntMatrix(n, n, [[int(i == j) for j in range(n)] for i in range(n)])


def zero(rows, cols):
    return IntMatrix(rows, cols, [[0] * cols for _ in range(rows)])


def random_matrix(rng, max_dim=6, lo=-9, hi=9):
    r = rng.randint(0, max_dim)
    c = rng.randint(0, max_dim)
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)])


def test_entries_must_be_int():
    # no silent int(): a float, a numeral or a bool is refused, not
    # truncated or parsed, wherever it sits in the grid
    for rows in ([[1.5, 2.9]], [["7"]], [[True]], [[1, 2], [3, False]],
                 [[1, None]], [[Fraction(2)]]):
        with pytest.raises(AbgroupError, match="must be int"):
            IntMatrix.from_rows(rows)
        with pytest.raises(AbgroupError, match="must be int"):
            IntMatrix(len(rows), len(rows[0]), rows)


def test_int_entries_are_kept_as_given():
    m = IntMatrix(2, 2, [[10 ** 40, -3], (0, -7)])
    assert m.entries == ((10 ** 40, -3), (0, -7))
    assert {type(x) for row in m.entries for x in row} == {int}


@pytest.mark.parametrize("rows, cols, entries", [
    (2, 2, [[1, 2], [3]]), (2, 2, [[1], [2, 3]]), (2, 2, [[1, 2]]),
    (1, 2, [[1, 2], [3, 4]]), (1, 0, [[1]]), (0, 1, [[]]), (2, 1, [[], []]),
], ids=["short-last", "short-first", "missing-row", "extra-row",
        "entry-in-empty-row", "row-in-empty-matrix", "empty-rows"])
def test_entry_grid_must_match_the_shape(rows, cols, entries):
    with pytest.raises(AbgroupError, match="entry grid does not match"):
        IntMatrix(rows, cols, entries)


@pytest.mark.parametrize("rows, cols, entries", [
    (0, 0, []), (0, 3, []), (2, 0, [[], []]), (1, 3, [(1, 2, 3)]),
])
def test_empty_and_well_shaped_grids_are_legal(rows, cols, entries):
    m = IntMatrix(rows, cols, entries)
    assert (m.rows, m.cols) == (rows, cols)
    assert m.entries == tuple(tuple(r) for r in entries)


class TestSmithNormalForm:
    def test_identity(self):
        eye = identity(3)
        s, u, v = smith_normal_form(eye)
        assert s == eye and u == eye and v == eye

    def test_hand_reduced_2x2(self):
        # Row/column reduction by hand: gcd of entries is 2 and |det| = 8,
        # which forces the invariant factors (2, 4).
        a = IntMatrix.from_rows([[2, 4], [6, 8]])
        s, u, v = smith_normal_form(a)
        assert s.diagonal() == [2, 4]
        assert u.mul(a).mul(v) == s
        assert minor_gcd_divisors(a) == [2, 4]

    def test_zero_matrix(self):
        z = zero(2, 2)
        s, _, _ = smith_normal_form(z)
        assert s == z

    def test_empty_matrices(self):
        for shape in [(0, 0), (0, 3), (3, 0)]:
            a = zero(*shape)
            s, u, v = smith_normal_form(a)
            assert u.mul(a).mul(v) == s

    def test_property_suite(self):
        rng = random.Random(20260809)
        for _ in range(400):
            a = random_matrix(rng)
            s, u, v = smith_normal_form(a)
            assert u.mul(a).mul(v) == s
            assert abs(u.det()) == 1
            assert abs(v.det()) == 1
            diag = s.diagonal()
            for i in range(s.rows):
                for j in range(s.cols):
                    if i != j:
                        assert s.entries[i][j] == 0
            seen_zero = False
            for i, d in enumerate(diag):
                assert d >= 0
                if d == 0:
                    seen_zero = True
                else:
                    assert not seen_zero
                    if i + 1 < len(diag) and diag[i + 1]:
                        assert diag[i + 1] % d == 0

    def test_against_minor_gcd_oracle(self):
        rng = random.Random(5)
        for _ in range(60):
            a = random_matrix(rng, max_dim=4, lo=-6, hi=6)
            s, _, _ = smith_normal_form(a)
            assert s.diagonal() == minor_gcd_divisors(a)
            assert a.smith_diagonal() == \
                tuple(d for d in minor_gcd_divisors(a) if d)

    def test_diagonal_against_sympy(self):
        normalforms = pytest.importorskip("sympy.matrices.normalforms")
        sympy = pytest.importorskip("sympy")
        rng = random.Random(2026)
        for trial in range(12):
            if trial % 2:
                # rank 14 with nontrivial invariants: B * diag * C
                scale = [rng.choice([1, 1, 2, 3, 4, 6]) for _ in range(14)]
                b = [[rng.randint(-2, 2) for _ in range(14)]
                     for _ in range(20)]
                c = [[rng.randint(-2, 2) * scale[k] for _ in range(20)]
                     for k in range(14)]
                rows = [[sum(b[i][k] * c[k][j] for k in range(14))
                         for j in range(20)] for i in range(20)]
            else:
                rows = [[rng.choice([0, 0, 0, 1, -1, 2, -3])
                         for _ in range(20)] for _ in range(20)]
            s = normalforms.smith_normal_form(sympy.Matrix(rows),
                                              domain=sympy.ZZ)
            want = tuple(abs(int(s[i, i])) for i in range(20) if s[i, i])
            assert IntMatrix.from_rows(rows).smith_diagonal() == want


# -- the Smith kernel with a dense row step, kept as an oracle for the sparse
# one: the same pivots and operations, so the same s, u and v --

def _dense_step_smith(mat):
    """``_smith(mat, transforms=True)`` whose row step walks every column
    from the pivot on; also returns how many divisibility folds it made."""
    m, n = mat.rows, mat.cols
    s = [list(row) for row in mat.entries]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    folds = 0

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s[t:] + v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        for j in range(t, n):
            s[dst][j] -= q * s[src][j]
        for j in range(m):
            u[dst][j] -= q * u[src][j]

    def add_col(dst, src, q):
        s[t][dst] -= q * s[t][src]
        for row in v:
            row[dst] -= q * row[src]

    t = 0
    while t < m and t < n:
        best = None
        for i in range(t, m):
            for j in range(t, n):
                e = s[i][j]
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
            u[t] = [-x for x in u[t]]
        while True:
            a = s[t][t]
            rows = [i for i in range(t + 1, m) if s[i][t]]
            for i in rows:
                add_row(i, t, s[i][t] // a)
            if any(s[i][t] for i in rows):
                _, i = min((s[i][t], i) for i in range(t + 1, m) if s[i][t])
                swap_rows(t, i)
                continue
            cols = [j for j in range(t + 1, n) if s[t][j]]
            for j in cols:
                add_col(j, t, s[t][j] // a)
            if any(s[t][j] for j in cols):
                _, j = min((s[t][j], j) for j in range(t + 1, n) if s[t][j])
                swap_cols(t, j)
                continue
            if any(s[i][t] for i in range(t + 1, m)):
                continue
            a = s[t][t]
            offender = next((i for i in range(t + 1, m) if a != 1 and any(
                s[i][j] % a for j in range(t + 1, n))), None)
            if offender is None:
                break
            add_row(t, offender, -1)
            folds += 1
        t += 1
    return s, u, v, folds


class TestSparseRowStep:
    """``_smith``'s row step walks only the pivot row's nonzero columns."""

    @pytest.mark.parametrize("density, pick", [
        (0.15, [1, -1, 2, 3]), (0.9, [1, -1, 2, 3]), (0.3, [2, 4, 6, 9, 15]),
        (1.0, [2, 3, 4, -6, 10]),
    ], ids=["sparse", "dense", "sparse-non-unit", "dense-non-unit"])
    def test_matches_the_dense_step(self, density, pick):
        rng = random.Random(f"row-step:{density}:{pick}")
        folds = non_unit = 0
        for _ in range(60):
            r, c = rng.randint(1, 12), rng.randint(1, 12)
            rows = [[rng.choice(pick) if rng.random() < density else 0
                     for _ in range(c)] for _ in range(r)]
            mat = IntMatrix.from_rows(rows)
            s, u, v, n_folds = _dense_step_smith(mat)
            assert pimsner.abgroup._smith(mat, transforms=True) == (s, u, v)
            assert pimsner.abgroup._smith(mat, transforms=False)[0] == s
            folds += n_folds
            non_unit += any(d not in (0, 1) for d in mat.smith_diagonal())
        # pivots other than units are cleared, and the divisibility fold,
        # which keeps the general walk, is reached
        assert non_unit and folds

    def test_fold_case(self):
        # diag(2, 3) is not in Smith form: row 1 is folded into row 0
        mat = IntMatrix.from_rows([[2, 0], [0, 3]])
        s, u, v, folds = _dense_step_smith(mat)
        assert folds == 1 and [s[0][0], s[1][1]] == [1, 6]
        assert pimsner.abgroup._smith(mat, transforms=True) == (s, u, v)


# -- the unit-pivot pre-pass of ``smith_diagonal``, checked against the
# diagonal of ``_smith`` on the whole matrix --

def _dense_diagonal(mat):
    """The nonzero invariant factors of ``_smith`` run on all of ``mat``;
    kept per entry grid, as ``smith_diagonal`` keeps its own."""
    return _dense_diagonal_of(mat.rows, mat.cols, mat.entries)


@functools.cache
def _dense_diagonal_of(rows, cols, entries):
    s, _, _ = pimsner.abgroup._smith(IntMatrix(rows, cols, entries),
                                     transforms=False)
    diag = (s[i][i] for i in range(min(rows, cols)))
    return tuple(d for d in diag if d)


def quiver_map(rng, n):
    """``1 - A^t`` of a random quiver on n vertices, 1-4 out-edges each."""
    counts = [[0] * n for _ in range(n)]
    for v in range(n):
        for _ in range(rng.randint(1, 4)):
            counts[v][rng.randrange(n)] += 1
    return IntMatrix.from_rows(
        [[int(y == v) - counts[v][y] for v in range(n)] for y in range(n)])


def _pick_matrix(rng, pick, max_dim=9):
    r, c = rng.randint(1, max_dim), rng.randint(1, max_dim)
    return IntMatrix.from_rows(
        [[rng.choice(pick) for _ in range(c)] for _ in range(r)])


def _repeated_rows(rng):
    c = rng.randint(1, 8)
    base = [[rng.randint(-3, 3) for _ in range(c)]
            for _ in range(rng.randint(1, 5))]
    rows = base + [[k * x for x in rng.choice(base)]
                   for k in rng.choices([1, -1, 2], k=rng.randint(1, 4))]
    rng.shuffle(rows)
    return IntMatrix.from_rows(rows)


def unit_pivot_cases(kind):
    rng = random.Random(f"unit-pivots:{kind}")
    if kind == "quiver":
        return [quiver_map(rng, rng.randint(1, 40)) for _ in range(40)]
    if kind == "dense":
        return [_pick_matrix(rng, range(-5, 6)) for _ in range(60)]
    if kind == "repeated-rows":
        return [_repeated_rows(rng) for _ in range(60)]
    if kind == "no-unit":
        return [_pick_matrix(rng, [0, 0, 2, -2, 3, 4, -6, 9])
                for _ in range(60)]
    if kind == "zero-and-empty":
        return [zero(r, c) for r in (0, 1, 3) for c in (0, 1, 4)] \
            + [IntMatrix.from_rows([[1, -1], [-1, 1]])]
    # units that only fill-in makes: one unit, then entries u with
    # u - x * y = +-1 for some x, y among them
    return [IntMatrix.from_rows([[1, 2], [2, 5]])] + [
        IntMatrix.from_rows([[1] + [rng.choice([0, 2, 3, -3]) for _ in range(c)]]
                            + [[rng.choice([0, 2, 3, 5, -5, 7])
                                for _ in range(c + 1)] for _ in range(r)])
        for r, c in ((rng.randint(1, 6), rng.randint(1, 6))
                     for _ in range(60))]


LES_COEFFS = [FgAbelianGroup.free(1)] + [
    FgAbelianGroup.from_divisors(m) for m in (2, 4, 6)]


class TestUnitPivots:
    """``smith_diagonal`` takes unit pivots on sparse rows, then ``_smith``
    diagonalizes what is left."""

    @pytest.mark.parametrize("kind", [
        "quiver", "dense", "repeated-rows", "no-unit", "zero-and-empty",
        "fill-in"])
    def test_matches_the_dense_kernel(self, kind, monkeypatch):
        cases = unit_pivot_cases(kind)
        pivots = 0
        for mat in cases:
            count, rest = pimsner.abgroup._unit_pivots(mat)
            pivots += count
            if kind == "repeated-rows":
                assert len(mat.smith_diagonal()) < mat.rows
            if kind == "fill-in":
                assert sum(x in (1, -1) for row in mat.entries
                           for x in row) == 1
            if count == 0:
                assert rest is mat
            assert mat.smith_diagonal() == _dense_diagonal(mat)
        if kind == "no-unit":
            assert pivots == 0
        elif kind == "zero-and-empty":
            assert pivots == 1  # [[1, -1], [-1, 1]]
        else:
            # for fill-in, more pivots than the cases' unit entries
            assert pivots > len(cases)
        segments = [[les_segment(m, c) for c in LES_COEFFS] for m in cases]
        monkeypatch.setattr(IntMatrix, "smith_diagonal", _dense_diagonal)
        assert [[les_segment(m, c) for c in LES_COEFFS]
                for m in cases] == segments

    def test_fill_in_makes_the_second_pivot(self):
        # 5 - 2 * 2 = 1 after the first pivot
        count, rest = pimsner.abgroup._unit_pivots(
            IntMatrix.from_rows([[1, 2], [2, 5]]))
        assert count == 2 and (rest.rows, rest.cols) == (0, 0)

    def test_k_groups_of_a_400_vertex_quiver(self, monkeypatch):
        # a scale guard: the pre-pass leaves a block for _smith, and the
        # report matches the one read off the dense kernel's diagonal
        rng = random.Random(400)
        verts = [f"v{i}" for i in range(400)]
        quiver = Quiver(verts, [(f"e{i}_{k}", v, rng.choice(verts))
                                for i, v in enumerate(verts)
                                for k in range(3)])
        count, rest = pimsner.abgroup._unit_pivots(
            AdjacencyData(quiver).theorem_map)
        assert count > 300 and rest.rows > 10
        report, _ = k_groups(quiver)
        monkeypatch.setattr(IntMatrix, "smith_diagonal", _dense_diagonal)
        assert k_groups(quiver)[0] == report


class TestCokernel:
    """The cokernel over Z^1 coefficients, ``Z^rows / column-span``."""

    def test_rose3_column(self):
        # 1 - d for d = 3; the quotient matches K_0 of the Leavitt algebra
        # of the 3-petal rose computed later through the quiver pipeline.
        assert free_cokernel(IntMatrix.from_rows([[-2]])) == \
            FgAbelianGroup.from_divisors(2)

    def test_free_quotient(self):
        g = free_cokernel(IntMatrix.from_rows([[1], [-1]]))
        assert g == FgAbelianGroup.free(1)

    def test_zero_map(self):
        assert free_cokernel(IntMatrix.from_rows([[0]])) == \
            FgAbelianGroup.free(1)

    def test_permutation_invariance(self):
        rng = random.Random(23)
        for _ in range(60):
            a = random_matrix(rng, max_dim=5)
            if a.rows == 0 or a.cols == 0:
                continue
            rows = list(range(a.rows))
            cols = list(range(a.cols))
            rng.shuffle(rows)
            rng.shuffle(cols)
            b = IntMatrix.from_rows(
                [[a.entries[i][j] for j in cols] for i in rows])
            assert free_cokernel(a) == free_cokernel(b) == \
                cokernel_by_minors(a)


class TestFgAbelianGroup:
    def test_normal_form_drops_trivial_factors(self):
        g = FgAbelianGroup.from_divisors(1, 1, 0, 6)
        assert g.free_rank == 1
        assert g.torsion == [6]

    def test_divisibility_chain(self):
        g = FgAbelianGroup.from_divisors(4, 6)
        chain = g.torsion
        assert chain == [2, 12]
        for a, b in zip(chain, chain[1:]):
            assert b % a == 0

    def test_crt_equality(self):
        assert FgAbelianGroup.from_divisors(2, 3) == FgAbelianGroup.from_divisors(6)
        assert FgAbelianGroup.from_divisors(2, 4) != FgAbelianGroup.from_divisors(8)

    def test_direct_sum(self):
        g = FgAbelianGroup.from_divisors(0, 2).direct_sum(
            FgAbelianGroup.from_divisors(3))
        assert g == FgAbelianGroup.from_divisors(0, 6)

    def test_str(self):
        assert str(FgAbelianGroup.trivial()) == "0"
        assert str(FgAbelianGroup.free(2)) == "Z^2"
        assert str(FgAbelianGroup.from_divisors(0, 2, 4)) == "Z x Z/2 x Z/4"

    def test_primary_components(self):
        g = FgAbelianGroup.from_divisors(0, 12)
        assert sorted(g.primary_components()) == [0, 3, 4]
        g = FgAbelianGroup.from_divisors(8, 2, 9, 3, 5)
        assert g.torsion == [6, 360]
        assert g.primary_components() == [8, 2, 9, 3, 5]

    def test_invariant_factors_against_pairwise_merge(self):
        rng = random.Random(61)
        for _ in range(200):
            orders = [rng.randint(1, 40) for _ in range(rng.randint(0, 6))]
            chain = sorted(orders)
            for i in range(len(chain)):
                for j in range(i + 1, len(chain)):
                    g = gcd(chain[i], chain[j])
                    chain[i], chain[j] = g, chain[i] // g * chain[j]
            group = FgAbelianGroup.from_divisors(*orders)
            assert group.torsion == [d for d in chain if d >= 2]
            assert group == FgAbelianGroup.from_divisors(
                *group.primary_components())

    def test_large_prime_torsion_is_not_factored(self):
        g = FgAbelianGroup.from_divisors(2 ** 61 - 1, 0)
        assert g.torsion == [2 ** 61 - 1]
        assert g.direct_sum(g) == FgAbelianGroup.from_divisors(
            0, 0, 2 ** 61 - 1, 2 ** 61 - 1)


def brute_force_killed(mat, m, d):
    """Count x in (Z/m)^cols with mat . x = 0 and d x = 0."""
    from itertools import product

    return sum(
        1 for vec in product(range(m), repeat=mat.cols)
        if all(d * x % m == 0 for x in vec)
        and all(sum(row[j] * vec[j] for j in range(mat.cols)) % m == 0
                for row in mat.entries))


def d_torsion(group, d):
    """Number of elements of a finite group killed by d."""
    n = 1
    for t in group.torsion:
        n *= gcd(d, t)
    return n


def brute_force_mod_m_segment(mat, m):
    """Enumerate (Z/m)^cols to find kernel size and image size."""
    from itertools import product

    domain = list(product(range(m), repeat=mat.cols))
    images = set()
    kernel = 0
    for vec in domain:
        img = tuple(sum(mat.entries[i][j] * vec[j] for j in range(mat.cols)) % m
                    for i in range(mat.rows))
        images.add(img)
        if all(x == 0 for x in img):
            kernel += 1
    return kernel, (m ** mat.rows) // len(images)


class TestLesSegment:
    def test_segments_are_immutable_values(self):
        def segment():
            return les_segment(IntMatrix.from_rows([[2, 1], [4, 2]]),
                               FgAbelianGroup.free(1))

        a, b = segment(), segment()
        assert a is not b
        assert a == b
        assert a != les_segment(a.map_matrix, FgAbelianGroup.from_divisors(3))
        assert LesSegment.__match_args__ == ("kernel", "cokernel",
                                             "map_matrix")
        assert (a.kernel, a.cokernel, a.map_matrix) == (
            FgAbelianGroup.free(1), FgAbelianGroup.free(1),
            IntMatrix.from_rows([[2, 1], [4, 2]]))
        for name in LesSegment.__match_args__:
            with pytest.raises(AttributeError):
                setattr(a, name, FgAbelianGroup.trivial())
        assert a == b

    def test_zero_map_over_z(self):
        seg = les_segment(IntMatrix.from_rows([[0]]), FgAbelianGroup.free(1))
        assert seg.kernel == FgAbelianGroup.free(1)
        assert seg.cokernel == FgAbelianGroup.free(1)

    def test_unimodular_1x1(self):
        seg = les_segment(IntMatrix.from_rows([[-1]]), FgAbelianGroup.free(1))
        assert seg.kernel == FgAbelianGroup.trivial()
        assert seg.cokernel == FgAbelianGroup.trivial()

    def test_mod4_doubling(self):
        # Brute force over the 4-element domain: x -> 2x on Z/4 has kernel
        # {0, 2} and image {0, 2}.
        mat = IntMatrix.from_rows([[2]])
        kernel_size, cokernel_size = brute_force_mod_m_segment(mat, 4)
        assert (kernel_size, cokernel_size) == (2, 2)
        seg = les_segment(mat, FgAbelianGroup.from_divisors(4))
        assert seg.kernel == FgAbelianGroup.from_divisors(2)
        assert seg.cokernel == FgAbelianGroup.from_divisors(2)

    def test_mod_m_against_brute_force(self):
        # A finite group of exponent dividing m is determined by how many
        # elements each d | m kills.  The cokernel on Z/m is dual to the
        # kernel of the transpose, so it is counted there.
        rng = random.Random(97)
        for _ in range(60):
            m = rng.choice([2, 3, 4, 6, 8])
            mat = random_matrix(rng, max_dim=3, lo=-4, hi=4)
            if mat.rows == 0 or mat.cols == 0:
                continue
            seg = les_segment(mat, FgAbelianGroup.from_divisors(m))
            kernel_size, cokernel_size = brute_force_mod_m_segment(mat, m)
            assert prod(seg.kernel.torsion) == kernel_size
            assert prod(seg.cokernel.torsion) == cokernel_size
            transpose = IntMatrix.from_rows(
                [list(col) for col in zip(*mat.entries)])
            for d in range(1, m + 1):
                if m % d:
                    continue
                assert d_torsion(seg.kernel, d) == \
                    brute_force_killed(mat, m, d)
                assert d_torsion(seg.cokernel, d) == \
                    brute_force_killed(transpose, m, d)

    def test_free_coefficients_agree_with_kernel_cokernel(self):
        rng = random.Random(131)
        for _ in range(60):
            a = random_matrix(rng, max_dim=4)
            seg = les_segment(a, FgAbelianGroup.free(1))
            # rank-nullity, with the rank read off the minor gcds
            rank = sum(1 for d in minor_gcd_divisors(a) if d)
            assert seg.kernel == FgAbelianGroup.free(a.cols - rank)
            assert seg.cokernel == cokernel_by_minors(a)

    def test_rejects_mixed_coefficients(self):
        with pytest.raises(AbgroupError):
            les_segment(identity(1), FgAbelianGroup.from_divisors(0, 2))
