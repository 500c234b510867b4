"""Tests for coefficient rings and rings with local units."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pimsner.funcmod import CompactOperator, FunctionalHom, free_module
from pimsner.ringcore import (
    QQ,
    ZZ,
    CoefficientRing,
    DirectSumRing,
    Fp,
    MatrixRing,
    RingElement,
    RingError,
    Zmod,
    coefficient_ring,
    vadd,
    vapply,
    vclean,
    vdrop,
    vmul,
    vscale,
)
from pimsner.selfsim import odometer


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
        assert k.coerce(Fraction(1, 5)) == 5
        with pytest.raises(RingError):
            k.coerce(Fraction(1, 2))
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

    def test_modulus_is_bounded(self):
        assert Zmod(2 ** 40 - 1).modulus == 2 ** 40 - 1
        with pytest.raises(RingError, match="2\\*\\*40"):
            Zmod(2 ** 40)


def laurent(k=ZZ):
    """k[t, t^-1], a ring with no finite basis, as the group ring of the
    odometer, whose generator a has infinite order: t is a."""
    return odometer().group_ring(k)


def t(n):
    """The symbol of t^n in ``laurent(k)``: the reduced word a^n."""
    return (("a", 1 if n > 0 else -1),) * abs(n)


def degree(sym):
    """The n of the symbol t^n."""
    return sum(exp for _, exp in sym)


def reference_coerce(k, value):
    """Coercion through Fraction, independent of the rings' own code."""
    value = Fraction(value)
    if k is QQ:
        return value
    if k is ZZ:
        if value.denominator != 1:
            raise RingError(f"{value} is not an integer")
        return value.numerator
    try:
        inv = pow(value.denominator, -1, k.modulus)
    except ValueError:
        raise RingError(f"denominator {value.denominator} not invertible") \
            from None
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

    @pytest.mark.parametrize("k", SCALAR_RINGS, ids=str)
    def test_constants_are_coerced(self, k):
        assert outcome(lambda: k.zero) == outcome(reference_coerce, k, 0)
        assert outcome(lambda: k.one) == outcome(reference_coerce, k, 1)

    @pytest.mark.parametrize("k, bad", [(ZZ, Fraction(1, 2)),
                                        (Zmod(6), Fraction(1, 2)),
                                        (Zmod(6), Fraction(5, 3))])
    def test_fraction_errors_survive(self, k, bad):
        for op in (lambda: k.coerce(bad), lambda: k.add(bad, 0),
                   lambda: k.mul(bad, 1), lambda: k.neg(bad)):
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
        r = laurent()
        el = r.monomial(t(1)) + r.monomial(t(-1))
        assert el.terms == {t(1): 1, t(-1): 1}

    def test_orthogonal_idempotents(self):
        r = DirectSumRing(ZZ, ["v", "w"])
        assert (r.monomial("v") * r.monomial("w")).is_zero()
        assert r.monomial("v") * r.monomial("v") == r.monomial("v")

    def test_matrix_units(self):
        m2 = MatrixRing(DirectSumRing(ZZ, ["1"]), [1, 2])
        e12 = m2.monomial((1, 2, "1"))
        e21 = m2.monomial((2, 1, "1"))
        assert e12 * e21 == m2.monomial((1, 1, "1"))
        assert (e12 * e12).is_zero()

    def test_laurent_inverse_powers(self):
        r = laurent()
        assert r.monomial(t(2)) * r.monomial(t(-2)) == r.monomial(t(0))

    def test_ring_mismatch(self):
        r1 = DirectSumRing(ZZ, ["v"])
        r2 = DirectSumRing(ZZ, ["v"])
        with pytest.raises(RingError):
            r1.monomial("v") + r2.monomial("v")


def _assert_clean_vector(k, vec):
    """Every coefficient is nonzero and already in the ring's form."""
    for coeff in vec.values():
        assert k.coerce(coeff) != k.zero
        want = k.coerce(coeff)
        assert type(coeff) is type(want) and coeff == want


def _assert_clean(el):
    _assert_clean_vector(el.ring.k, el.terms)


def _random_vector(rng, size=4):
    """Symbols (i, t^n) of the free module over k[t, t^-1] on {0, 1}."""
    return {(rng.randint(0, 1), t(rng.randint(-2, 2))): rng.randint(-3, 3)
            for _ in range(size)}


class TestCleanArithmetic:
    """Arithmetic results are clean without a second coercion pass."""

    @pytest.mark.parametrize("k", [ZZ, QQ, Zmod(6)], ids=str)
    def test_results_hold_no_zero_and_only_coerced_values(self, k):
        ring = laurent(k)
        rng = random.Random(17)
        zeros = 0
        for _ in range(300):
            a = random_element(ring, rng)
            b = random_element(ring, rng)
            c = rng.randint(-7, 7)
            results = [a + b, a + b.scale(-1), a.scale(-1), a * b,
                       a.scale(c), a.scale(Fraction(c * 2, 2))]
            for el in results:
                _assert_clean(el)
            zeros += sum(not el.terms for el in results)
        assert zeros

    def test_zero_divisors_mod_6_drop_out(self):
        ring = DirectSumRing(Zmod(6), ["u", "v"])
        two = RingElement(ring, {"u": 2, "v": 1})
        three = ring.monomial("u").scale(3)
        assert (two * three).terms == {}
        assert three.scale(2).terms == {}
        assert (two + RingElement(ring, {"u": 4, "v": 5})).terms == {}
        assert (two * RingElement(ring, {"u": 3, "v": 4})).terms == {"v": 4}
        assert two.scale(-1).terms == {"u": 4, "v": 5}

    def test_public_constructor_still_coerces(self):
        ring = DirectSumRing(ZZ, ["u", "v"])
        el = RingElement(ring, {"u": Fraction(4, 2), "v": Fraction(0)})
        assert el.terms == {"u": 2}
        assert type(el.terms["u"]) is int
        assert RingElement(ring, {"u": Fraction(6, 3)}) \
            .scale(Fraction(3, 3)).terms == {"u": 2}
        z6 = DirectSumRing(Zmod(6), ["u"])
        assert RingElement(z6, {"u": -1}).terms == {"u": 5}
        assert RingElement(z6, {"u": 12}).terms == {}


    @pytest.mark.parametrize("k", [QQ, Zmod(6)], ids=str)
    def test_module_sums_are_clean(self, k):
        # multi-term pairings, hom images and operator actions equal the
        # sums of their one-term pieces, with every cancelled entry gone
        ring = laurent(k)
        mod = free_module(ring, [0, 1])
        hom = FunctionalHom(
            mod, mod,
            lambda b: {b: 2, (b[0], t(degree(b[1]) + 1)): -2,
                       (1 - b[0], b[1]): 3},
            lambda c: {c: 1})
        rng = random.Random(23)
        pair_drops = image_drops = 0
        for _ in range(200):
            pvec = vscale(k, _random_vector(rng), 1)
            xvec = vscale(k, _random_vector(rng), 1)
            paired = mod.pair(pvec, xvec)
            _assert_clean(paired)
            want = ring.zero()
            for c, cc in pvec.items():
                for b, cb in xvec.items():
                    want = want + mod.pair({c: cc}, {b: cb})
            assert paired == want
            touched = {degree(c[1]) + degree(b[1]) for c in pvec for b in xvec
                       if c[0] == b[0]}
            pair_drops += len(paired.terms) < len(touched)

            image = hom.u_of(xvec)
            _assert_clean_vector(k, image)
            want = {}
            for b, cb in xvec.items():
                want = vadd(k, want, vscale(k, hom._U(b), cb))
            assert image == want
            touched = {sym for b in xvec for sym in hom._U(b)}
            image_drops += len(image) < len(touched)

            op = CompactOperator(mod, [(_random_vector(rng, 2),
                                        _random_vector(rng, 2))
                                       for _ in range(3)])
            applied = op.apply(xvec)
            _assert_clean_vector(k, applied)
            want = {}
            for x, p in op.terms:
                want = vadd(k, want, mod.act_right(x, mod.pair(p, xvec)))
            assert applied == want
        assert pair_drops and image_drops

    def test_module_zero_divisor_terms_drop_out_mod_6(self):
        k = Zmod(6)
        mod = free_module(laurent(k), [0])
        # t^1 gets 2 * 3 = 0 and t^0 gets 1 * 3 + 2 * 5 = 1
        pvec = {(0, t(0)): 1, (0, t(1)): 2}
        xvec = {(0, t(0)): 3, (0, t(-1)): 5}
        assert mod.pair(pvec, xvec).terms == {t(0): 1, t(-1): 5}
        hom = FunctionalHom(mod, mod, lambda b: {b: 3, (0, t(9)): 2},
                            lambda c: {c: 1})
        # (0, t^9) gets 2 * 3 + 2 * 3 = 0, each image entry 3 * 3 = 3
        assert hom.u_of({(0, t(0)): 3, (0, t(1)): 3}) == \
            {(0, t(0)): 3, (0, t(1)): 3}
        op = CompactOperator(mod, [({(0, t(0)): 1}, {(0, t(0)): 2}),
                                   ({(0, t(0)): 1}, {(0, t(0)): 4})])
        # the two terms give 2 + 4 = 0
        assert op.apply({(0, t(0)): 1}) == {}


KERNEL_RINGS = [ZZ, QQ, Zmod(6), Fp(2)]
SMALL_VECTORS = st.dictionaries(st.integers(0, 4), st.integers(-7, 7),
                                max_size=5)


def _rule(k, x, y):
    """A clean vector on symbols 0..4 for the kernels to extend."""
    return vclean(k, {(x + y) % 5: x - y + 1, (x * y) % 5: 2 * x + 3})


def _plain_vmul(k, f, a, b):
    """The double loop in plain arithmetic, coerced once at the end."""
    out = {}
    for x, ca in a.items():
        for y, cb in b.items():
            for tgt, c in f(x, y).items():
                out[tgt] = out.get(tgt, 0) + ca * cb * c
    return vclean(k, out)


class TestKernels:
    """``vmul`` and ``vapply`` against the loops they replace."""

    @pytest.mark.parametrize("k", KERNEL_RINGS, ids=str)
    @given(a=SMALL_VECTORS, b=SMALL_VECTORS)
    def test_vmul_is_the_double_loop(self, k, a, b):
        a, b = vclean(k, a), vclean(k, b)
        f = lambda x, y: _rule(k, x, y)  # noqa: E731
        got = vmul(k, f, a, b)
        _assert_clean_vector(k, got)
        # the same entries, first reached in the same order: a outermost
        assert list(got.items()) == list(_plain_vmul(k, f, a, b).items())

    def test_vmul_drops_products_that_vanish_mod_6(self):
        k = Zmod(6)
        f = lambda x, y: _rule(k, x, y)  # noqa: E731
        # every product of an entry of a with one of b is 2 * 3 = 0
        assert vmul(k, f, {0: 2, 1: 4}, {2: 3, 3: 3}) == {}
        # the pair (0, 0) gives 2 * 3 = 0, the pairs (0, 2) and (1, 0)
        # each lose one entry to 2 * 3 = 0, and symbol 2 sums
        # 2 * -1 + 1 * 5 = 3
        got = vmul(k, f, {0: 2, 1: 1}, {0: 3, 2: 1})
        assert got == _plain_vmul(k, f, {0: 2, 1: 1}, {0: 3, 2: 1})
        assert got == {2: 3, 0: 3}

    @pytest.mark.parametrize("k", KERNEL_RINGS, ids=str)
    @given(vec=SMALL_VECTORS)
    def test_vapply_is_the_single_loop(self, k, vec):
        vec = vclean(k, vec)
        f = lambda x: _rule(k, x, 2)  # noqa: E731
        want = _plain_vmul(k, lambda x, _: f(x), vec, {None: 1})
        assert vapply(k, f, vec) == want

    @pytest.mark.parametrize("k", KERNEL_RINGS, ids=str)
    @given(vec=SMALL_VECTORS)
    def test_vdrop_is_the_copying_filter(self, k, vec):
        # coerced entries, some of them zero, as a kernel's sums leave them
        vec = {sym: k.coerce(c) for sym, c in vec.items()}
        want = {sym: c for sym, c in vec.items() if c != k.zero}
        got = vdrop(dict(vec))
        assert list(got.items()) == list(want.items())
        if len(want) == len(vec):
            assert vdrop(vec) is vec

    def test_vapply_hands_on_a_one_entry_image(self):
        # a one-entry vector of coefficient one gives f's value itself,
        # which may be a memo: no caller mutates a kernel's result
        memo = {"a": {"x": 2, "y": 1}}
        assert vapply(ZZ, memo.__getitem__, {"a": 1}) is memo["a"]
        assert vapply(ZZ, memo.__getitem__, {"a": 3}) == {"x": 6, "y": 3}
        assert vapply(Zmod(6), memo.__getitem__, {"a": 3}) == {"y": 3}

    def test_vmul_hands_on_a_one_entry_image(self):
        # two one-entry vectors of coefficient one give f's value itself,
        # which may be a memo; any other coefficient takes the double loop
        memo = {("a", "b"): {"x": 2, "y": 1}}
        f = lambda x, y: memo[x, y]  # noqa: E731
        assert vmul(ZZ, f, {"a": 1}, {"b": 1}) is memo["a", "b"]
        for k, a, b, want in [
                (ZZ, {"a": 3}, {"b": 1}, {"x": 6, "y": 3}),
                (ZZ, {"a": 1}, {"b": 3}, {"x": 6, "y": 3}),
                (Zmod(6), {"a": 3}, {"b": 1}, {"y": 3}),
                # 2 * 3 vanishes mod 6
                (Zmod(6), {"a": 2}, {"b": 3}, {})]:
            got = vmul(k, f, a, b)
            assert got == want == _plain_vmul(k, f, a, b)
            assert got is not memo["a", "b"]


class TestIdempotents:
    def test_basis_idempotent(self):
        r = DirectSumRing(ZZ, ["v"])
        v, v2 = r.monomial("v"), r.monomial("v").scale(2)
        assert v * v == v
        assert v2 * v2 != v2

    def test_matrix_sum_idempotent(self):
        m2 = MatrixRing(DirectSumRing(ZZ, ["1"]), [1, 2])
        e = m2.monomial((1, 1, "1")) + m2.monomial((2, 2, "1"))
        assert e * e == e

    def test_finite_vertex_sums(self):
        r = DirectSumRing(ZZ, list("abcde"))
        rng = random.Random(3)
        for _ in range(20):
            subset = [s for s in r.basis if rng.random() < 0.5]
            el = r.zero()
            for s in subset:
                el = el + r.monomial(s)
            assert el * el == el


def assert_local_unit(e, els):
    """``e`` is an idempotent that fixes every element of ``els`` on both
    sides."""
    assert e * e == e
    for el in els:
        assert e * el == el and el * e == el


class TestLocalUnits:
    """Every finite set of elements is fixed on both sides by an
    idempotent: the sum of the basis idempotents it is supported on in a
    direct sum, and t^0 in k[t, t^-1]."""

    def test_direct_sum(self):
        r = DirectSumRing(ZZ, ["v", "w", "u"])
        v, w, u = map(r.monomial, ["v", "w", "u"])
        assert_local_unit(v + w, [v, w, v.scale(2) + w.scale(-3)])
        assert ((v + w) * u).is_zero()

    def test_random_subsets(self):
        rng = random.Random(17)
        rings = [DirectSumRing(ZZ, list("pqrs")), laurent()]
        for ring in rings:
            for _ in range(30):
                els = []
                for _ in range(rng.randint(1, 3)):
                    if ring.basis is not None:
                        syms = rng.sample(ring.basis, k=min(2, len(ring.basis)))
                    else:
                        syms = [t(rng.randint(-3, 3)) for _ in range(2)]
                    els.append(RingElement(
                        ring, {s: rng.randint(-2, 2) for s in syms}))
                support = {s for el in els for s in el.terms}
                e = ring.monomial(t(0)) if ring.basis is None else \
                    RingElement(ring, dict.fromkeys(support, 1))
                assert_local_unit(e, els)


def random_element(ring, rng, size=3, coeff_hi=3):
    if ring.basis is not None:
        syms = [rng.choice(ring.basis) for _ in range(size)]
    else:
        syms = [t(rng.randint(-4, 4)) for _ in range(size)]
    return RingElement(ring, {s: rng.randint(-coeff_hi, coeff_hi)
                              for s in syms})


@pytest.mark.parametrize("make_ring", [
    lambda: DirectSumRing(ZZ, list("abcd")),
    lambda: DirectSumRing(Zmod(6), list("xy")),
    lambda: MatrixRing(DirectSumRing(ZZ, ["1"]), [0, 1, 2]),
    lambda: MatrixRing(DirectSumRing(QQ, ["v", "w"]), [0, 1]),
    lambda: laurent(ZZ),
    lambda: laurent(Fp(5)),
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
