"""Tests for functional modules, compact operators, and correspondences,
and the checkers of the hypotheses the sequence rests on: a non-degenerate
and balanced pairing and a non-degenerate left action (Pimsner 1997;
Carlsen and Ortega 2011), run on every module the pipelines build."""

import json
import os
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pimsner.abgroup import IntMatrix
from pimsner.funcmod import (
    CompactOperator,
    FunctionalHom,
    FunctionalModule,
    check_functional_hom,
    free_module,
)
from pimsner.leavitt import parse_quiver, quiver_correspondence, rose
from pimsner.ringcore import (
    QQ,
    ZZ,
    DirectSumRing,
    RingElement,
    Zmod,
    ZmodRing,
    coefficient_ring,
    vadd,
    vclean,
    vdrop,
    vscale,
)
from pimsner.selfsim import IDENTITY, nek_module, parse_selfsim

from test_acceptance import acceptance_quivers
from test_ringcore import laurent, t

A2 = parse_quiver("vertices: v w\nedges: e: v -> w")
# R as an R-correspondence over R = k^({v, w})
TWO_LOOPS = parse_quiver("vertices: v w\nedges:\n e: v -> v\n f: w -> w")
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
        corr = quiver_correspondence(TWO_LOOPS)
        assert check_functional_hom(corr.hom)
        rv = corr.module.ring.monomial("v")
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
            assert check_pairing_balance(m, m.ring.basis)
        # <e*, e> = 1_{s(e)}, not 1_{r(e)}: v . <e*, e> = 1_v, while
        # v . e* = 0 since r(e) = w
        m = leavitt_module(A2)
        ring = m.ring
        m._pairing = lambda c, b: ring.monomial(A2.s(b)) if c[0] == b \
            else ring.zero()
        assert not check_pairing_balance(m, ring.basis)


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


def adjoint_law_holds(m, generators):
    """phi(Delta(r) x) == (phi . Delta(r))(x) for every ring generator r
    and all basis pairs: the left action is adjointable."""
    one = m.k.one
    return all(
        m.pair({c: one}, m.act_left(r, {b: one}))
        == m.pair(m.act_xp_right({c: one}, r), {b: one})
        for r in map(m.ring.monomial, generators)
        for c in m.xp_basis for b in m.x_basis)


class TestAdjointable:
    def test_delta_is_adjointable(self):
        m = leavitt_module()
        assert adjoint_law_holds(m, m.ring.basis)

    def test_action_nondegeneracy(self):
        for q in [rose(2), A2, TWO_LOOPS]:
            m = leavitt_module(q)
            assert check_nondegenerate_action(m, m.ring.basis)
        # a left action by zero spans nothing
        ring = DirectSumRing(ZZ, ["v"])
        tables = dict(_one_vertex_tables(ring), x_left=lambda r, b: {})
        m = FunctionalModule(ring=ring, x_basis=["x"], xp_basis=["c"],
                             pairing=lambda c, b: ring.monomial("v"),
                             **tables)
        assert not check_nondegenerate_action(m, ring.basis)

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
        assert check_functional_hom(FunctionalHom(
            m, m, lambda b: {b: 1}, lambda c: {c: 1}))

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


PIPELINE_RINGS = [ZZ, Zmod(6), QQ]
POOL_GROUPS = ["grigorchuk", "basilica", "odometer"]


def pool_group(name):
    """A group of the benchmark pool, parsed from its file text."""
    with open(POOL_PATH, encoding="utf-8") as handle:
        return parse_selfsim(json.load(handle)["groups"][name]["text"])


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

    @pytest.mark.parametrize("k", PIPELINE_RINGS, ids=str)
    def test_acceptance_quivers(self, k):
        for q in acceptance_quivers():
            self.assert_frame(quiver_correspondence(q, k).module)

    @pytest.mark.parametrize("name", POOL_GROUPS)
    def test_pool_groups(self, name):
        self.assert_frame(nek_module(pool_group(name), ZZ))


# ---------------------------------------------------------------------------
# The hypotheses of the sequence.  Each checker runs over the listed bases
# and a list of ring generators: the vertices of a quiver module, or the
# identity and the generators of a self-similar group.
# ---------------------------------------------------------------------------

def group_generators(group):
    return [IDENTITY] + [group.canonical(group.gen_word(g))
                         for g in group.generators]


def check_pairing_balance(module, generators):
    """The pairing is a bimodule map on basis pairs and ring generators:
    r . <phi, x> == <r . phi, x> and <phi, x> . r == <phi, x . r>."""
    one = module.k.one
    for r in map(module.ring.monomial, generators):
        for c in module.xp_basis:
            for b in module.x_basis:
                val = module.pair({c: one}, {b: one})
                if r * val != module.pair(module.act_xp_left(r, {c: one}),
                                          {b: one}):
                    return False
                if val * r != module.pair({c: one},
                                          module.act_right({b: one}, r)):
                    return False
    return True


def check_nondegenerate_action(module, generators):
    """Delta(R) X = X and X' Delta(R) = X', witnessed on generators.

    Each basis vector of X is fixed by the action of its left support,
    and each basis vector of X' by that of some listed ring generator (an
    idempotent absorbing it); so the action spans the module, which is
    the non-degeneracy required of a left action.
    """
    m = module
    one = m.k.one
    if any(m.act_left(m.x_left_support(b), {b: one}) != {b: one}
           for b in m.x_basis):
        return False
    return all(any(m.act_xp_right({c: one}, m.ring.monomial(r)) == {c: one}
                   for r in generators)
               for c in m.xp_basis)


def _rows_independent(k, rows):
    """No nontrivial k-combination of the rows vanishes.

    Read off the one Smith elimination of ``abgroup`` for every ring.
    Clearing each row's denominators keeps independence.  Over Z and Q
    the rows are independent iff the rank is the row count.  Over Z/m,
    lambda . rows = 0 iff lambda is in ker(rows^T mod m), a sum of
    Z/gcd(d_i, m) over the Smith invariants d_i plus
    (Z/m)^(len(rows) - rank), so each d_i must also be a unit mod m.
    """
    if not rows:
        return True
    scaled = []
    for row in rows:
        row = [Fraction(x) for x in row]
        scale = lcm(*(x.denominator for x in row))
        scaled.append([int(x * scale) for x in row])
    diag = IntMatrix.from_rows(scaled).smith_diagonal()
    return len(diag) == len(rows) and (
        not isinstance(k, ZmodRing)
        or all(gcd(d, k.modulus) == 1 for d in diag))


def nondegenerate(module):
    """The pairing has trivial left and right null spaces.

    The pairing table over the listed bases is flattened to ground
    coefficients, one column per occurring ring basis symbol per partner,
    and both null spaces are decided by ``_rows_independent``.
    """
    k = module.k
    table = {(c, b): module.pair({c: k.one}, {b: k.one}).terms
             for c in module.xp_basis for b in module.x_basis}
    ring_syms = {sym: i for i, sym in enumerate(dict.fromkeys(
        sym for val in table.values() for sym in val))}
    ncols = max(len(ring_syms), 1)

    def rows(outer, inner, key):
        out = []
        for a in outer:
            row = [k.zero] * (ncols * len(inner))
            for j, b in enumerate(inner):
                for sym, coeff in table[key(a, b)].items():
                    row[j * ncols + ring_syms[sym]] = coeff
            out.append(row)
        return out

    return (_rows_independent(k, rows(module.xp_basis, module.x_basis,
                                      lambda c, b: (c, b)))
            and _rows_independent(k, rows(module.x_basis, module.xp_basis,
                                          lambda b, c: (c, b))))


class TestHypotheses:
    """The checkers above pass on the modules TestFrame covers; each fails
    on its own bad case in TestPairing, TestAdjointable and
    TestNondegeneracy."""

    @staticmethod
    def assert_hypotheses(m, generators):
        assert nondegenerate(m)
        assert check_pairing_balance(m, generators)
        assert check_nondegenerate_action(m, generators)

    @pytest.mark.parametrize("k", PIPELINE_RINGS, ids=str)
    def test_acceptance_quivers(self, k):
        for q in acceptance_quivers():
            m = quiver_correspondence(q, k).module
            self.assert_hypotheses(m, m.ring.basis)

    @pytest.mark.parametrize("name", POOL_GROUPS)
    def test_pool_groups(self, name):
        group = pool_group(name)
        self.assert_hypotheses(nek_module(group, ZZ), group_generators(group))


class TestNondegeneracy:
    def test_quiver_module(self):
        assert nondegenerate(leavitt_module())

    def test_free_module(self):
        ring = DirectSumRing(ZZ, ["p", "q"])
        assert nondegenerate(free_module(ring, [0, 1]))

    def test_degenerate_pairing_detected(self):
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
    laurent(Zmod(6)), [0, 1]))


class TestActions:
    """The four actions are the old loop, on multi-term ring elements and
    multi-entry vectors; only the order of a result's entries may move."""

    @settings(max_examples=100, deadline=None)
    @given(spec=st.sampled_from(sorted(_ACTION_MODULES)), data=st.data())
    def test_actions_match_the_old_loop(self, spec, data):
        m = _ACTION_MODULES[spec]
        k, ring = m.k, m.ring
        coeff = st.integers(-7, 7)
        rsyms = ring.basis or list(map(t, range(-2, 3)))
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
