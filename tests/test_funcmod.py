"""Tests for functional modules, compact operators, and correspondences."""

import json
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pimsner.funcmod import (
    CompactOperator,
    FunctionalHom,
    check_functional_hom,
    check_pairing_balance,
    direct_sum,
    free_correspondence,
    free_module,
    nondegenerate,
    tensor,
)
from pimsner.leavitt import parse_quiver, quiver_correspondence, rose
from pimsner.ringcore import (
    QQ,
    ZZ,
    DirectSumRing,
    LaurentRing,
    RingElement,
    RingError,
    Zmod,
    coefficient_ring,
    vadd,
    vclean,
    vdrop,
    vscale,
)
from pimsner.selfsim import nek_module, parse_selfsim

from test_acceptance import acceptance_quivers

A2 = parse_quiver("vertices: v w\nedges: e: v -> w")
POOL_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                         "data", "pool.json")


def leavitt_module(quiver=None):
    return quiver_correspondence(quiver or rose(2)).module


def normal_terms(op):
    """A compact operator as a canonical dict over reduced symbol pairs
    (b, c): each x (x) phi has the decoration of its X symbol moved into
    phi, so equal operators give equal dicts."""
    m, k = op.module, op.module.k
    out = {}
    for xvec, pvec in op.terms:
        for b, cb in xvec.items():
            b0, r = m.x_split(b)
            for c, cc in m.act_xp_left(r, pvec).items():
                out[(b0, c)] = k.add(out.get((b0, c), k.zero), k.mul(cb, cc))
    return vdrop(out)


def _one_vertex_tables(ring):
    """The action, split and support tables of a module over k^({v}) on
    which 1_v acts as the identity on every side."""
    v = ring.monomial("v")
    return dict(x_right=lambda b, r: {b: 1}, xp_left=lambda r, c: {c: 1},
                x_left=lambda r, b: {b: 1}, xp_right=lambda c, r: {c: 1},
                x_split=lambda b: (b, v), xp_split=lambda c: (v, c),
                x_left_support=lambda b: v, xp_left_support=lambda c: v,
                label="one vertex")


class TestVectors:
    def test_vscale_drops_zero_divisor_products(self):
        # 3 * 2 = 0 in Z/6: the product must not stay as an explicit zero
        assert vscale(Zmod(6), {"a": 2, "b": 1}, 3) == {"b": 3}
        assert vscale(Zmod(6), {"a": 2, "b": 4}, 3) == {}

    def test_helpers_return_clean_vectors(self):
        k = Zmod(6)
        assert vadd(k, {"a": 2, "b": 1}, {"a": 4, "c": 5}) == {"b": 1, "c": 5}
        assert vscale(k, {"a": 1}, 0) == {}
        assert vclean(k, {"a": 6, "b": 7, "c": Fraction(1, 5)}) == \
            {"b": 1, "c": 5}
        assert vclean(ZZ, {"a": 0, "b": True, "c": Fraction(4, 2)}) == \
            {"b": 1, "c": 2}


class TestPairing:
    def test_quiver_pairing_is_diagonal(self):
        m = leavitt_module()
        # <e*, f> = delta_{e,f} 1_{r(e)}
        assert m.pair({("e0", "*"): 1}, {"e0": 1}) == m.ring.monomial("v")
        assert m.pair({("e0", "*"): 1}, {"e1": 1}).is_zero()

    def test_zero_vector(self):
        m = leavitt_module()
        assert m.pair({}, {"e0": 1}).is_zero()

    def test_rank_one_identity_correspondence(self):
        ring = DirectSumRing(ZZ, ["v", "w"])
        corr = free_correspondence(ring, ["*"])
        assert check_functional_hom(corr.hom)
        rv = ring.monomial("v")
        op = corr.delta_compact(rv)
        for b in corr.module.x_basis:
            assert op.apply({b: 1}) == corr.module.act_left(rv, {b: 1})

    def test_free_module_pairing_sums_coordinates(self):
        ring = DirectSumRing(ZZ, ["p", "q"])
        m = free_module(ring, [0, 1])
        alpha = {(0, "p"): 2, (1, "q"): 3}
        beta = {(0, "p"): 5, (1, "q"): 7}
        assert m.pair(alpha, beta) == \
            ring.monomial("p").scale(10) + ring.monomial("q").scale(21)

    def test_pairing_is_a_bimodule_map(self):
        for m in [leavitt_module(), leavitt_module(A2),
                  free_module(DirectSumRing(ZZ, ["p", "q"]), [0, 1])]:
            assert check_pairing_balance(m)


class TestCompactOperators:
    def test_idempotent_elementary_tensor(self):
        m = leavitt_module()
        k1 = CompactOperator(m, [({"e0": 1}, {("e0", "*"): 1})])
        assert normal_terms(k1 * k1) == normal_terms(k1)

    def test_zero_annihilates(self):
        m = leavitt_module()
        k1 = CompactOperator(m, [({"e0": 1}, {("e0", "*"): 1})])
        assert normal_terms(k1 * CompactOperator(m, [])) == {}

    def test_matrix_unit_pattern(self):
        # in R^(I) with I = {1, 2}: (e1 (x) eps2)(e2 (x) eps1) = e1 (x) eps1
        ring = DirectSumRing(ZZ, ["u"])
        m = free_module(ring, [1, 2])
        e1_eps2 = CompactOperator(m, [({(1, "u"): 1}, {(2, "u"): 1})])
        e2_eps1 = CompactOperator(m, [({(2, "u"): 1}, {(1, "u"): 1})])
        prod = e1_eps2 * e2_eps1
        assert normal_terms(prod) == normal_terms(CompactOperator(
            m, [({(1, "u"): 1}, {(1, "u"): 1})]))

    def test_theta_apply(self):
        m = leavitt_module()
        k1 = CompactOperator(m, [({"e0": 1}, {("e0", "*"): 1})])
        assert k1.apply({"e0": 1}) == {"e0": 1}
        assert k1.apply({}) == {}
        # pairing zero implies zero image
        assert k1.apply({"e1": 1}) == {}

    def test_compact_mul_associative_random(self):
        rng = random.Random(42)
        bundles = [leavitt_module(rose(3)), leavitt_module(A2),
                   free_module(DirectSumRing(ZZ, ["p", "q"]), [0, 1])]
        for m in bundles:
            xs, cs = m.x_basis, m.xp_basis

            def rand_compact():
                terms = []
                for _ in range(rng.randint(1, 2)):
                    x = {rng.choice(xs): rng.randint(-2, 2)}
                    p = {rng.choice(cs): rng.randint(-2, 2)}
                    terms.append((x, p))
                return CompactOperator(m, terms)

            for _ in range(500):
                a, b, c = rand_compact(), rand_compact(), rand_compact()
                assert normal_terms((a * b) * c) == normal_terms(a * (b * c))

    def test_module_action_property(self):
        # theta(k1 k2, y) = theta(k1, theta(k2, y))
        rng = random.Random(7)
        m = leavitt_module(rose(2))
        edges = ["e0", "e1"]
        for _ in range(200):
            k1 = CompactOperator(m, [(
                {rng.choice(edges): rng.randint(-2, 2)},
                {(rng.choice(edges), "*"): rng.randint(-2, 2)})])
            k2 = CompactOperator(m, [(
                {rng.choice(edges): rng.randint(-2, 2)},
                {(rng.choice(edges), "*"): rng.randint(-2, 2)})])
            y = {rng.choice(edges): rng.randint(-2, 2)}
            assert (k1 * k2).apply(y) == k1.apply(k2.apply(y))


def adjoint_law_holds(corr):
    """phi(Delta(r) x) == (phi . Delta(r))(x) for every ring generator r
    and all basis pairs: the left action is adjointable."""
    m = corr.module
    one = m.k.one
    return all(
        m.pair({c: one}, m.act_left(r, {b: one}))
        == m.pair(m.act_xp_right({c: one}, r), {b: one})
        for r in map(corr.left_ring.monomial, corr.left_generator_symbols())
        for c in m.xp_basis for b in m.x_basis)


class TestAdjointable:
    def test_delta_is_adjointable(self):
        corr = quiver_correspondence(rose(2))
        assert adjoint_law_holds(corr)

    def test_action_nondegeneracy(self):
        for corr in [quiver_correspondence(rose(2)),
                     quiver_correspondence(A2),
                     free_correspondence(DirectSumRing(ZZ, ["p", "q"]), [0, 1])]:
            assert corr.check_nondegenerate_action()

    def test_theta_composition_laws(self):
        # f . theta_{x,phi} = theta_{f(x),phi} and
        # theta_{x,phi} . f = theta_{x,f*(phi)} for f = Delta(r)
        corr = quiver_correspondence(A2)
        m = corr.module
        r = m.ring.monomial("v")
        x, phi = {"e": 1}, {("e", "*"): 1}
        th = CompactOperator(m, [(x, phi)])
        lhs = CompactOperator(m, [(m.act_left(r, x), phi)])
        for y in m.x_basis:
            assert m.act_left(r, th.apply({y: 1})) == \
                lhs.apply({y: 1})
        rhs = CompactOperator(m, [(x, m.act_xp_right(phi, r))])
        for y in m.x_basis:
            assert th.apply(m.act_left(r, {y: 1})) == \
                rhs.apply({y: 1})


class TestFunctionalHom:
    def test_identity_hom(self):
        m = leavitt_module()
        assert check_functional_hom(FunctionalHom.identity(m))

    def test_quiver_hom_into_free_model(self):
        corr = quiver_correspondence(rose(2))
        assert check_functional_hom(corr.hom)

    def test_scaled_hom_fails(self):
        corr = quiver_correspondence(rose(2))
        hom = corr.hom
        bad = FunctionalHom(hom.source, hom.target,
                            lambda b: {k: 2 * c for k, c in hom._U(b).items()},
                            hom._V)
        assert not check_functional_hom(bad)


def frame_is_identity(m, frame):
    """sum_b theta_{b, b*} over the pairs (b, b*) of ``frame`` fixes every
    basis vector of X, and sum_b <c, b> . b* returns every basis
    functional c of X': the frame witnesses condition (FS)."""
    k, one = m.k, m.k.one
    theta = CompactOperator(m, [({b: one}, {bs: one}) for b, bs in frame])

    def right(c):
        out = {}
        for b, bs in frame:
            out = vadd(k, out, m.act_xp_left(m.pair({c: one}, {b: one}),
                                             {bs: one}))
        return out

    return (all(theta.apply({b: one}) == {b: one} for b in m.x_basis)
            and all(right(c) == {c: one} for c in m.xp_basis))


class TestFrame:
    """The modules the pipelines build list their bases as a frame."""

    @staticmethod
    def assert_frame(m):
        frame = list(zip(m.x_basis, m.xp_basis))
        assert frame_is_identity(m, frame)
        # every term is needed
        for i in range(len(frame)):
            assert not frame_is_identity(m, frame[:i] + frame[i + 1:])

    @pytest.mark.parametrize("k", [ZZ, Zmod(6), QQ], ids=str)
    def test_acceptance_quivers(self, k):
        for q in acceptance_quivers():
            self.assert_frame(quiver_correspondence(q, k).module)

    @pytest.mark.parametrize("name", ["grigorchuk", "basilica", "odometer"])
    def test_pool_groups(self, name):
        with open(POOL_PATH, encoding="utf-8") as handle:
            text = json.load(handle)["groups"][name]["text"]
        self.assert_frame(nek_module(parse_selfsim(text), ZZ))


class TestNondegeneracy:
    def test_quiver_module(self):
        assert nondegenerate(leavitt_module())

    def test_free_module(self):
        ring = DirectSumRing(ZZ, ["p", "q"])
        assert nondegenerate(free_module(ring, [0, 1]))

    def test_degenerate_pairing_detected(self):
        from pimsner.funcmod import FunctionalModule
        ring = DirectSumRing(ZZ, ["v"])
        m = FunctionalModule(
            ring=ring, x_basis=["x1", "x2"], xp_basis=["c1", "c2"],
            pairing=lambda c, b: ring.monomial("v")
            if (c, b) == ("c1", "x1") else ring.zero(),
            **_one_vertex_tables(ring))
        assert not nondegenerate(m)

    def test_modular_module(self):
        mz = quiver_correspondence(rose(2), Zmod(6)).module
        assert nondegenerate(mz)

    def test_rows_independent_against_brute_force(self):
        # independent iff no nonzero lambda in (Z/m)^rows kills every column
        from itertools import product

        from pimsner.funcmod import _rows_independent
        rng = random.Random(46)
        for m in (4, 5, 6, 7):
            k = Zmod(m)
            for _ in range(80):
                nrows, ncols = rng.randint(1, 3), rng.randint(1, 3)
                rows = [[rng.randrange(m) for _ in range(ncols)]
                        for _ in range(nrows)]
                want = not any(
                    any(lam) and all(
                        sum(l * row[j] for l, row in zip(lam, rows)) % m == 0
                        for j in range(ncols))
                    for lam in product(range(m), repeat=nrows))
                assert _rows_independent(k, rows) == want

    def test_rows_independent_against_sympy_rank(self):
        sympy = pytest.importorskip("sympy")
        from pimsner.funcmod import _rows_independent
        rng = random.Random(47)
        for k in (ZZ, QQ):
            for _ in range(60):
                nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
                rows = [[rng.randint(-3, 3) for _ in range(ncols)]
                        for _ in range(nrows)]
                if k is QQ:
                    rows = [[k.coerce(Fraction(x, rng.randint(1, 3)))
                             for x in row] for row in rows]
                want = sympy.Matrix(rows).rank() == nrows
                assert _rows_independent(k, rows) == want

    def test_hom_injectivity_on_nondegenerate_target(self):
        # a valid functional hom into a nondegenerate module is injective
        # on the basis span: U applied to a nonzero combination is nonzero
        rng = random.Random(5)
        corr = quiver_correspondence(rose(3))
        assert nondegenerate(corr.hom.target)
        for _ in range(50):
            vec = {e: rng.randint(-3, 3) for e in ["e0", "e1", "e2"]}
            vec = {k: v for k, v in vec.items() if v}
            if not vec:
                continue
            assert corr.hom.u_of(vec) != {}
            pvec = {(e, "*"): rng.randint(-3, 3) for e in ["e0", "e1", "e2"]}
            pvec = {k: v for k, v in pvec.items() if v}
            if pvec:
                assert corr.hom.v_of(pvec) != {}


class TestDirectSum:
    def test_cross_pairing_vanishes(self):
        m1 = leavitt_module(rose(2))
        m2 = quiver_correspondence(rose(2)).module
        # same ring object required
        m2 = m1
        s = direct_sum(m1, m2)
        assert s.pair({(0, ("e0", "*")): 1}, {(1, "e0"): 1}).is_zero()

    def test_blocks_act_independently(self):
        m = leavitt_module(rose(2))
        s = direct_sum(m, m)
        r = m.ring.monomial("v")
        assert s.act_right({(0, "e0"): 1}, r) == {(0, "e0"): 1}
        assert s.act_right({(1, "e1"): 1}, r) == {(1, "e1"): 1}

    def test_basis_is_disjoint_union(self):
        m = leavitt_module(rose(2))
        s = direct_sum(m, m)
        assert len(s.x_basis) == 2 * len(m.x_basis)

    def test_ring_mismatch(self):
        m1 = leavitt_module(rose(2))
        m2 = leavitt_module(rose(2))
        with pytest.raises(RingError):
            direct_sum(m1, m2)

    def test_sum_with_zero_module_relabels(self):
        corr = quiver_correspondence(rose(2))
        m = corr.module
        zero = quiver_module_zero(m.ring)
        s = direct_sum(m, zero)
        assert [b for (_, b) in s.x_basis] == m.x_basis
        for c in m.xp_basis:
            for b in m.x_basis:
                assert s.pair({(0, c): 1}, {(0, b): 1}) == \
                    m.pair({c: 1}, {b: 1})


def quiver_module_zero(ring):
    """The zero functional module over a given ring."""
    from pimsner.funcmod import FunctionalModule
    return FunctionalModule(
        ring=ring, x_basis=[], xp_basis=[],
        pairing=lambda c, b: ring.zero(),
        x_right=lambda b, r: {}, xp_left=lambda r, c: {},
        x_left=lambda r, b: {}, xp_right=lambda c, r: {},
        x_split=lambda b: (b, ring.zero()),
        xp_split=lambda c: (ring.zero(), c),
        x_left_support=lambda b: ring.zero(),
        xp_left_support=lambda c: ring.zero(),
        label="0")


class TestTensor:
    def test_a2_square_is_zero(self):
        # no length-2 paths in A2, so X (x) X has empty basis
        corr = quiver_correspondence(A2)
        sq = tensor(corr, corr)
        assert sq.module.x_basis == []
        assert sq.module.xp_basis == []

    def test_rose_square_basis(self):
        corr = quiver_correspondence(rose(2))
        sq = tensor(corr, corr)
        assert len(sq.module.x_basis) == 4
        assert check_functional_hom(sq.hom)

    def test_unit_law_up_to_relabeling(self):
        corr = quiver_correspondence(rose(2))
        ring = corr.module.ring
        unit = free_correspondence(ring, ["*"])
        prod = tensor(corr, unit)
        # bijection e -> (e, ("*", vertex)) preserving all tables
        relabel = {}
        for b in corr.module.x_basis:
            hits = [key for key in prod.module.x_basis if key[0] == b]
            assert len(hits) == 1
            relabel[b] = hits[0]
        for c in corr.module.xp_basis:
            for b in corr.module.x_basis:
                want = corr.module.pair({c: 1}, {b: 1})
                chit = [key for key in prod.module.xp_basis
                        if key[1] == c]
                assert len(chit) == 1
                got = prod.module.pair({chit[0]: 1}, {relabel[b]: 1})
                assert got == want

    def test_pairing_formula(self):
        # (psi (x) phi)(x (x) y) = psi(phi(x) . y); vanishing inner pairing
        # kills the whole value
        corr = quiver_correspondence(rose(2))
        sq = tensor(corr, corr)
        m = sq.module
        key_x = m.x_basis[0]
        for c in m.xp_basis:
            val = m.pair({c: 1}, {key_x: 1})
            cy, cx = c
            inner = corr.module.pair({cx: 1}, {key_x[0]: 1})
            if inner.is_zero():
                assert val.is_zero()

    def test_left_supports_fix_every_symbol(self):
        # the tensor module carries both left supports, on X and on X'
        corr = quiver_correspondence(_PAIR_QUIVER)
        m = tensor(corr, corr).module
        assert m.x_basis and m.xp_basis
        for b in m.x_basis:
            assert m.act_left(m.x_left_support(b), {b: 1}) == {b: 1}
        for c in m.xp_basis:
            assert m.act_xp_left(m.xp_left_support(c), {c: 1}) == {c: 1}

    def test_middle_ring_mismatch(self):
        c1 = quiver_correspondence(rose(2))
        c2 = quiver_correspondence(rose(2))
        with pytest.raises(RingError):
            tensor(c1, c2)

    def test_tensor_pairing_against_direct_computation(self):
        corr = quiver_correspondence(rose(2))
        sq = tensor(corr, corr)
        m0, m = corr.module, sq.module
        one = 1
        for (bx, by) in m.x_basis:
            for (cy, cx) in m.xp_basis:
                got = m.pair({(cy, cx): one}, {(bx, by): one})
                inner = m0.pair({cx: one}, {bx: one})
                want = m0.pair({cy: one}, m0.act_left(inner, {by: one})) \
                    if not inner.is_zero() else m0.ring.zero()
                assert got == want


class TestTensorNormalForm:
    def test_randomized_rewriting_order_agrees(self):
        # canonicity: normalizing any bracketing of a pure tensor agrees
        # with the left fold
        rng = random.Random(11)
        m = leavitt_module(rose(2))
        for _ in range(100):
            syms = tuple(rng.choice(["e0", "e1"]) for _ in range(4))
            full = m.tensor_normalize(syms)
            agg = {}
            for tup, c in m.prepend_normal(syms[0], syms[1:]).items():
                agg[tup] = agg.get(tup, 0) + c
            assert full == {t: c for t, c in agg.items() if c}
            # append direction
            agg2 = {}
            for head, ch in m.tensor_normalize(syms[:-1]).items():
                for tup, c in m.append_normal(head, syms[-1]).items():
                    agg2[tup] = agg2.get(tup, 0) + ch * c
            assert full == {t: c for t, c in agg2.items() if c}


# -- the general loop of FunctionalModule.pair, kept as the oracle of its
# -- one-symbol path

def _general_pair(m, pvec, xvec):
    out = m.ring.zero()
    for c, cc in pvec.items():
        for b, cb in xvec.items():
            val = m._pairing(c, b)
            if not val.is_zero():
                out = out + val.scale(m.k.mul(cc, cb))
    return out


_PAIR_QUIVER = parse_quiver(
    "vertices: v w\nedges:\n e: v -> w\n f: w -> w\n g: v -> v")
_PAIR_MODULES = {spec: quiver_correspondence(
    _PAIR_QUIVER, coefficient_ring(spec)).module
    for spec in ("z", "q", "zmod:6", "fp:2")}


class TestOneSymbolPair:
    """One symbol against one symbol reads the cached table value."""

    @settings(max_examples=200, deadline=None)
    @given(spec=st.sampled_from(sorted(_PAIR_MODULES)), data=st.data())
    def test_matches_the_general_loop(self, spec, data):
        m = _PAIR_MODULES[spec]
        k = m.k
        coeff = st.one_of(st.integers(-7, 7), st.fractions(
            max_denominator=5, min_value=-3, max_value=3)) if spec == "q" \
            else st.integers(-7, 7)
        c = data.draw(st.sampled_from(m.xp_basis))
        b = data.draw(st.sampled_from(m.x_basis))
        pvec = vclean(k, {c: data.draw(coeff)})
        xvec = vclean(k, {b: data.draw(coeff)})
        got = m.pair(pvec, xvec)
        want = _general_pair(m, pvec, xvec)
        assert got == want
        assert list(got.terms.items()) == list(want.terms.items())
        if pvec and xvec and k.mul(pvec[c], xvec[b]) == k.one:
            assert got is m._pairing(c, b)


# -- the loop the four actions shared before the bilinear kernel, vector
# -- entries outermost, kept as their oracle

def _old_act(m, table, relt, vec, ring_first):
    k = m.k
    out = {}
    for sym, c in vec.items():
        for rsym, rc in relt.terms.items():
            hit = table(rsym, sym) if ring_first else table(sym, rsym)
            for hsym, hc in hit.items():
                out[hsym] = k.add(out.get(hsym, k.zero),
                                  k.mul(k.mul(c, rc), hc))
    return vclean(k, out)


_ACTION_MODULES = dict(_PAIR_MODULES, laurent=free_module(
    LaurentRing(Zmod(6)), [0, 1]))


class TestActions:
    """The four actions are the old loop, on multi-term ring elements and
    multi-entry vectors; only the order of a result's entries may move."""

    @settings(max_examples=100, deadline=None)
    @given(spec=st.sampled_from(sorted(_ACTION_MODULES)), data=st.data())
    def test_actions_match_the_old_loop(self, spec, data):
        m = _ACTION_MODULES[spec]
        k, ring = m.k, m.ring
        coeff = st.integers(-7, 7)
        rsyms = ring.basis or list(range(-2, 3))
        relt = RingElement(ring, data.draw(st.dictionaries(
            st.sampled_from(rsyms), coeff, min_size=2, max_size=4)))
        xvec = vclean(k, data.draw(st.dictionaries(
            st.sampled_from(m.x_basis), coeff, min_size=2, max_size=4)))
        pvec = vclean(k, data.draw(st.dictionaries(
            st.sampled_from(m.xp_basis), coeff, min_size=2, max_size=4)))
        assert m.act_right(xvec, relt) == _old_act(
            m, m._x_right, relt, xvec, ring_first=False)
        assert m.act_left(relt, xvec) == _old_act(
            m, m._x_left, relt, xvec, ring_first=True)
        assert m.act_xp_left(relt, pvec) == _old_act(
            m, m._xp_left, relt, pvec, ring_first=True)
        assert m.act_xp_right(pvec, relt) == _old_act(
            m, m._xp_right, relt, pvec, ring_first=False)
