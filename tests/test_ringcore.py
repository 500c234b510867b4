"""Tests for coefficient rings and rings with local units."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pimsner.ringcore import (
    QQ,
    ZZ,
    CoefficientRing,
    DirectSumRing,
    Fp,
    LaurentRing,
    MatrixRing,
    RingError,
    Zmod,
    coefficient_ring,
    is_idempotent,
    local_unit_for,
    unit_ring,
)


class TestCoefficientRings:
    def test_zz_rejects_fractions(self):
        assert ZZ.coerce(Fraction(4, 2)) == 2
        with pytest.raises(RingError):
            ZZ.coerce(Fraction(1, 2))

    def test_qq_lowest_terms(self):
        assert QQ.coerce("2/4") == Fraction(1, 2)

    def test_zmod_reduction(self):
        k = Zmod(6)
        assert k.coerce(-1) == 5
        assert k.mul(4, 5) == 2
        assert k.invert(5) == 5
        assert k.invert(2) is None
        assert not k.is_field

    def test_fp_requires_prime(self):
        assert Fp(5).is_field
        with pytest.raises(RingError):
            Fp(6)

    def test_spec_parsing(self):
        assert coefficient_ring("z") is ZZ
        assert coefficient_ring("q") is QQ
        assert coefficient_ring("zmod:9").modulus == 9
        assert coefficient_ring("fp:7").modulus == 7
        with pytest.raises(RingError):
            coefficient_ring("nope")

    def test_malformed_modulus(self):
        for spec in ("zmod:x", "fp:", "zmod:1.5"):
            with pytest.raises(RingError):
                coefficient_ring(spec)

    def test_linear_solve(self):
        sol = QQ.solve([[2, 1], [1, 1]], [3, 2])
        assert sol == [Fraction(1), Fraction(1)]
        assert ZZ.solve([[2]], [1]) is None
        assert ZZ.solve([[2]], [4]) == [2]
        assert Zmod(4).solve([[2]], [2]) in ([1], [3])
        assert Zmod(4).solve([[2]], [1]) is None

    def test_modulus_is_bounded(self):
        assert Zmod(2 ** 40 - 1).modulus == 2 ** 40 - 1
        with pytest.raises(RingError, match="2\\*\\*40"):
            Zmod(2 ** 40)

    def test_prime_field_solve_against_brute_force(self):
        from itertools import product
        rng = random.Random(5)
        for p in (5, 7):
            k = Zmod(p)
            for _ in range(60):
                nrows, ncols = rng.randint(1, 3), rng.randint(1, 3)
                rows = [[rng.randrange(p) for _ in range(ncols)]
                        for _ in range(nrows)]
                rhs = [rng.randrange(p) for _ in range(nrows)]

                def solves(x):
                    return all(sum(a * b for a, b in zip(row, x)) % p == c
                               for row, c in zip(rows, rhs))

                exists = any(solves(x)
                             for x in product(range(p), repeat=ncols))
                sol = k.solve(rows, rhs)
                assert (sol is not None) == exists
                if sol is not None:
                    assert solves(sol)

    def test_rational_solve_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(8)
        for _ in range(60):
            nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
            rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                     for _ in range(ncols)] for _ in range(nrows)]
            if rng.random() < 0.5:
                # make a row a combination of the others
                rows[-1] = [sum(r[j] for r in rows[:-1]) for j in range(ncols)]
            rhs = [Fraction(rng.randint(-3, 3)) for _ in range(nrows)]
            a = sympy.Matrix(rows)
            exists = a.rank() == a.row_join(sympy.Matrix(rhs)).rank()
            sol = QQ.solve(rows, rhs)
            assert (sol is not None) == exists
            if sol is not None:
                assert all(sum(x * y for x, y in zip(row, sol)) == c
                           for row, c in zip(rows, rhs))


def laurent_zz():
    return LaurentRing(ZZ)


def reference_coerce(k, value):
    """Coercion through Fraction, independent of the rings' own code."""
    value = Fraction(value)
    if k is QQ:
        return value
    if k is ZZ:
        if value.denominator != 1:
            raise RingError(f"{value} is not an integer")
        return value.numerator
    inv = k.invert(value.denominator % k.modulus)
    if inv is None:
        raise RingError(f"denominator {value.denominator} not invertible")
    return value.numerator * inv % k.modulus


def outcome(fn, *args):
    """(type, value) of a call, or RingError if it raises that."""
    try:
        value = fn(*args)
    except RingError:
        return RingError
    return type(value), value


SCALARS = st.one_of(st.integers(-10**30, 10**30), st.booleans(),
                    st.fractions(max_denominator=12))
SCALAR_RINGS = [ZZ, QQ, Zmod(6), Zmod(7)]


class TestScalarParity:
    """The rings' fast scalar ops agree with the generic coerce(a op b)."""

    @pytest.mark.parametrize("k", SCALAR_RINGS, ids=str)
    @given(a=SCALARS, b=SCALARS)
    def test_ops_match_generic(self, k, a, b):
        generic = CoefficientRing
        assert outcome(k.coerce, a) == outcome(reference_coerce, k, a)
        assert outcome(k.add, a, b) == outcome(generic.add, k, a, b) \
            == outcome(reference_coerce, k, a + b)
        assert outcome(k.mul, a, b) == outcome(generic.mul, k, a, b) \
            == outcome(reference_coerce, k, a * b)
        assert outcome(k.neg, a) == outcome(generic.neg, k, a) \
            == outcome(reference_coerce, k, -a)
        expected = outcome(reference_coerce, k, a)
        assert outcome(k.is_zero, a) == (
            expected if expected is RingError else (bool, expected[1] == 0))

    @pytest.mark.parametrize("k", SCALAR_RINGS, ids=str)
    def test_constants_are_coerced(self, k):
        assert outcome(lambda: k.zero) == outcome(reference_coerce, k, 0)
        assert outcome(lambda: k.one) == outcome(reference_coerce, k, 1)

    @pytest.mark.parametrize("k, bad", [(ZZ, Fraction(1, 2)),
                                        (Zmod(6), Fraction(1, 2)),
                                        (Zmod(6), Fraction(5, 3))])
    def test_fraction_errors_survive(self, k, bad):
        for op in (lambda: k.coerce(bad), lambda: k.add(bad, 0),
                   lambda: k.mul(bad, 1), lambda: k.neg(bad),
                   lambda: k.is_zero(bad)):
            with pytest.raises(RingError):
                op()

    def test_invertible_denominator_mod_6(self):
        assert Zmod(6).coerce(Fraction(1, 5)) == 5
        assert Zmod(6).add(Fraction(1, 5), 1) == 0


class TestRingElements:
    def test_add_and_cancellation(self):
        r = DirectSumRing(ZZ, ["v", "w"])
        one_v = r.monomial("v")
        assert (one_v + one_v).terms == {"v": 2}
        assert (one_v + one_v.scale(-1)).is_zero()

    def test_laurent_add(self):
        r = laurent_zz()
        el = r.monomial(1) + r.monomial(-1)
        assert el.terms == {1: 1, -1: 1}

    def test_orthogonal_idempotents(self):
        r = DirectSumRing(ZZ, ["v", "w"])
        assert (r.monomial("v") * r.monomial("w")).is_zero()
        assert r.monomial("v") * r.monomial("v") == r.monomial("v")

    def test_matrix_units(self):
        m2 = MatrixRing(unit_ring(ZZ), [1, 2])
        e12 = m2.monomial((1, 2, "1"))
        e21 = m2.monomial((2, 1, "1"))
        assert e12 * e21 == m2.monomial((1, 1, "1"))
        assert (e12 * e12).is_zero()

    def test_laurent_inverse_powers(self):
        r = laurent_zz()
        assert r.monomial(2) * r.monomial(-2) == r.monomial(0)

    def test_ring_mismatch(self):
        r1 = DirectSumRing(ZZ, ["v"])
        r2 = DirectSumRing(ZZ, ["v"])
        with pytest.raises(RingError):
            r1.monomial("v") + r2.monomial("v")


class TestIdempotents:
    def test_basis_idempotent(self):
        r = DirectSumRing(ZZ, ["v"])
        assert is_idempotent(r.monomial("v"))
        assert not is_idempotent(r.monomial("v", 2))

    def test_matrix_sum_idempotent(self):
        m2 = MatrixRing(unit_ring(ZZ), [1, 2])
        e = m2.monomial((1, 1, "1")) + m2.monomial((2, 2, "1"))
        assert is_idempotent(e)

    def test_finite_vertex_sums(self):
        r = DirectSumRing(ZZ, list("abcde"))
        rng = random.Random(3)
        for _ in range(20):
            subset = [s for s in r.basis if rng.random() < 0.5]
            el = r.zero()
            for s in subset:
                el = el + r.monomial(s)
            assert is_idempotent(el)


class TestLocalUnits:
    def test_direct_sum(self):
        r = DirectSumRing(ZZ, ["v", "w", "u"])
        e = local_unit_for([r.monomial("v"), r.monomial("w")])
        assert e == r.monomial("v") + r.monomial("w")

    def test_empty_convention(self):
        r = DirectSumRing(ZZ, ["v"])
        assert local_unit_for([], ring=r).is_zero()

    def test_matrix_unit(self):
        m = MatrixRing(unit_ring(ZZ), [1, 2, 3])
        e = local_unit_for([m.monomial((1, 2, "1"))])
        assert e == m.monomial((1, 1, "1")) + m.monomial((2, 2, "1"))

    def test_random_subsets(self):
        rng = random.Random(17)
        rings = [DirectSumRing(ZZ, list("pqrs")),
                 MatrixRing(unit_ring(ZZ), [0, 1, 2]),
                 laurent_zz()]
        for ring in rings:
            for _ in range(30):
                els = []
                for _ in range(rng.randint(1, 3)):
                    if ring.basis is not None:
                        syms = rng.sample(ring.basis, k=min(2, len(ring.basis)))
                    else:
                        syms = [rng.randint(-3, 3) for _ in range(2)]
                    els.append(ring.element(
                        {s: rng.randint(-2, 2) for s in syms}))
                e = local_unit_for(els, ring=ring)
                assert is_idempotent(e)
                for el in els:
                    assert e * el == el
                    assert el * e == el


def random_element(ring, rng, size=3, coeff_hi=3):
    if ring.basis is not None:
        syms = [rng.choice(ring.basis) for _ in range(size)]
    else:
        syms = [rng.randint(-4, 4) for _ in range(size)]
    return ring.element({s: rng.randint(-coeff_hi, coeff_hi) for s in syms})


@pytest.mark.parametrize("make_ring", [
    lambda: DirectSumRing(ZZ, list("abcd")),
    lambda: DirectSumRing(Zmod(6), list("xy")),
    lambda: MatrixRing(unit_ring(ZZ), [0, 1, 2]),
    lambda: MatrixRing(DirectSumRing(QQ, ["v", "w"]), [0, 1]),
    lambda: LaurentRing(ZZ),
    lambda: LaurentRing(Fp(5)),
])
def test_ring_axioms(make_ring):
    """Associativity and distributivity on randomized triples, every kind."""
    ring = make_ring()
    rng = random.Random(hash(ring.label) & 0xFFFF)
    for _ in range(1000):
        a = random_element(ring, rng)
        b = random_element(ring, rng)
        c = random_element(ring, rng)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
