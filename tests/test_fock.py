"""Tests for truncated Fock operators, defects, and the rotational homotopy."""

import random
from fractions import Fraction

import pytest

from pimsner import fock as fock_module
from pimsner.fock import (
    DepthError,
    HOperator,
    HomotopyModel,
    Poly,
    ToeplitzAlgebra,
    TruncatedFock,
    adjoint,
    covariant_check,
    check_p0_form,
    homotopy_H,
    homotopy_endpoints_check,
    homotopy_pairing_check,
    j_ideal_generator,
    p0_compact_form,
    pi0,
    pi1,
    quasi_hom_defect,
    rotation_coefficient_identity,
    word_operator,
)
from pimsner.funcmod import free_correspondence
from pimsner.leavitt import parse_quiver, quiver_correspondence, rose
from pimsner.ringcore import QQ, ZZ, DirectSumRing, RingError, Zmod

A2 = parse_quiver("vertices: v w\nedges: e: v -> w")


def a2_fock(depth=4):
    return TruncatedFock(quiver_correspondence(A2), depth)


def rose_fock(d=2, depth=4, k=ZZ):
    return TruncatedFock(quiver_correspondence(rose(d), k), depth)


class TestGradedBasis:
    def test_degree_zero_is_the_ring(self):
        fk = a2_fock()
        assert fk.basis(0) == [(0, ("v",)), (0, ("w",))]

    def test_bases_are_paths(self):
        fk = rose_fock(2, 3)
        assert [len(fk.basis(n)) for n in range(4)] == [1, 2, 4, 8]
        fk2 = a2_fock()
        assert [len(fk2.basis(n)) for n in range(4)] == [2, 1, 0, 0]

    def test_dual_bases_mirror(self):
        fk = rose_fock(2, 3)
        assert [len(fk.dual_basis(n)) for n in range(4)] == [1, 2, 4, 8]

    def test_depth_guard(self):
        fk = rose_fock(2, 3)
        with pytest.raises(DepthError):
            fk.basis(4)

    def test_bases_closed_under_normal_form(self):
        for fk in [rose_fock(2, 3), a2_fock(3)]:
            for n in range(1, 4):
                for (_, t) in fk.basis(n):
                    assert fk.module.tensor_normalize(t) == {t: 1}
                for (_, t) in fk.dual_basis(n):
                    assert fk.module.dual_tensor_normalize(t) == {t: 1}


class TestCreationAnnihilation:
    def test_creation_on_vacuum_is_right_action(self):
        fk = a2_fock()
        T = fk.creation({"e": 1})
        # e . 1_v = 0 and e . 1_w = e since r(e) = w
        assert T.column((0, ("v",))) == {}
        assert T.column((0, ("w",))) == {(1, ("e",)): 1}

    def test_creation_of_zero(self):
        fk = a2_fock()
        assert fk.creation({}).support_blocks() == set()

    def test_creation_block_structure(self):
        fk = rose_fock(2, 4)
        T = fk.creation({"e0": 1})
        assert T.support_blocks() == {(d + 1, d) for d in range(4)}

    def test_homogeneous_degree_shifts(self):
        fk = rose_fock(2, 4)
        assert fk.creation({"e0": 1}).degree_shift == 1
        assert fk.annihilation({("e0", "*"): 1}).degree_shift == -1
        assert fk.scalar(fk.ring.monomial("v")).degree_shift == 0
        mixed = fk.creation({"e0": 1}) + \
            fk.creation({"e1": 1}).compose(fk.scalar(fk.ring.monomial("v")))
        assert mixed.degree_shift == 1

    def test_annihilation_kills_vacuum(self):
        fk = a2_fock()
        S = fk.annihilation({("e", "*"): 1})
        for key in fk.basis(0):
            assert S.column(key) == {}

    def test_annihilation_degree_one_is_pairing(self):
        fk = a2_fock()
        S = fk.annihilation({("e", "*"): 1})
        assert S.column((1, ("e",))) == {(0, ("w",)): 1}

    def test_annihilation_of_zero(self):
        fk = a2_fock()
        assert fk.annihilation({}).support_blocks() == set()

    def test_matrix_picture(self):
        # creation, annihilation, and the vacuum compression occupy the
        # displayed diagonals of the graded matrix picture
        fk = rose_fock(2, 4)
        assert fk.creation({"e0": 1}).support_blocks() == \
            {(1, 0), (2, 1), (3, 2), (4, 3)}
        assert fk.annihilation({("e0", "*"): 1}).support_blocks() == \
            {(0, 1), (1, 2), (2, 3), (3, 4)}
        i = fk.ring.monomial("v")
        assert p0_compact_form(i, fk).support_blocks() == {(0, 0)}


class TestZeroDivisors:
    """Columns stay clean over Z/6, so dict comparison is exact."""

    def test_scaling_into_zero(self):
        fk = rose_fock(2, 3, k=Zmod(6))
        t = fk.token_op(("x", {"e0": 1}))
        degrees = [0, 1, 2]
        killed = t.scale(3).scale(2)
        assert killed.eq_on(fk.zero_op(), degrees)
        assert killed.is_zero_on(degrees)
        assert killed.support_blocks(degrees) == set()
        assert not t.scale(3).is_zero_on(degrees)
        assert t.scale(3).eq_on(t.scale(9), degrees)
        assert (t.scale(2) + t.scale(4)).eq_on(fk.zero_op(), degrees)
        assert not t.scale(2).eq_on(t.scale(4), degrees)


class TestAdjoints:
    def test_creation_star_kills_dual_vacuum(self):
        fk = a2_fock()
        adj = adjoint(fk, [("x", {"e": 1})])
        for key in fk.dual_basis(0):
            assert adj.column(key) == {}

    def test_annihilation_star_appends(self):
        fk = a2_fock()
        adj = adjoint(fk, [("phi", {("e", "*"): 1})])
        # on the dual vacuum 1_v: v . e* = delta_{r(e),v} e* = 0; on 1_w: e*
        assert adj.column((0, ("v",))) == {}
        assert adj.column((0, ("w",))) == {(1, (("e", "*"),)): 1}

    def test_double_star_is_the_word(self):
        from pimsner.fock import star_tokens
        fk = rose_fock(2, 4)
        rng = random.Random(1)
        kinds = [("x", lambda: {rng.choice(["e0", "e1"]): 1}),
                 ("phi", lambda: {(rng.choice(["e0", "e1"]), "*"): 1}),
                 ("r", lambda: fk.ring.monomial("v"))]
        for _ in range(20):
            tokens = []
            for _i in range(rng.randint(1, 3)):
                kind, make = rng.choice(kinds)
                tokens.append((kind, make()))
            # the involution at the word level, and the operators agree
            doubled = star_tokens(star_tokens(tokens))
            assert doubled == tokens
            direct = word_operator(fk, tokens)
            rebuilt = word_operator(fk, doubled)
            degrees = sorted(direct.covered & rebuilt.covered)
            assert direct.eq_on(rebuilt, degrees)

    def test_adjoint_law_graded_pairing(self):
        fk = rose_fock(2, 3)
        rng = random.Random(3)
        edges = ["e0", "e1"]
        for _ in range(12):
            tokens = []
            for _i in range(rng.randint(1, 3)):
                kind = rng.choice(["x", "phi", "r"])
                if kind == "x":
                    tokens.append(("x", {rng.choice(edges): 1}))
                elif kind == "phi":
                    tokens.append(("phi", {(rng.choice(edges), "*"): 1}))
                else:
                    tokens.append(("r", fk.ring.monomial("v")))
            op = word_operator(fk, tokens)
            adj = adjoint(fk, tokens)
            for d_src in range(0, 3):
                for key in fk.basis(d_src)[:4]:
                    col = op.column(key)
                    if col is None:
                        continue
                    for d_dual in range(0, 3):
                        for dkey in fk.dual_basis(d_dual)[:4]:
                            acol = adj.column(dkey)
                            if acol is None:
                                continue
                            lhs = fk.ring.zero()
                            for dk2, c in acol.items():
                                lhs = lhs + fk.graded_pair(dk2, key).scale(c)
                            rhs = fk.ring.zero()
                            for tk, c in col.items():
                                rhs = rhs + fk.graded_pair(dkey, tk).scale(c)
                            assert lhs == rhs


class TestCovariant:
    def test_canonical_representation(self):
        for fk in [a2_fock(), rose_fock(2, 4), rose_fock(3, 3)]:
            assert covariant_check(fk).passed

    def test_covariance_relation_directly(self):
        # annihilation(phi) . creation(x) = sigma(<phi, x>) degreewise
        fk = rose_fock(2, 4)
        for c in fk.module.xp_basis:
            for b in fk.module.x_basis:
                lhs = fk.annihilation({c: 1}).compose(fk.creation({b: 1}))
                rhs = fk.scalar(fk.module.pair({c: 1}, {b: 1}))
                assert lhs.eq_on(rhs, sorted(lhs.covered & rhs.covered))

    def test_scaled_representation_fails(self):
        fk = rose_fock(2, 3)
        T = {b: fk.creation({b: 2}) for b in fk.module.x_basis}
        rep = covariant_check(fk, T=T)
        assert not rep.passed

    def test_swapped_creations_fail_covariance(self):
        # exchanging T(e0) and T(e1) keeps the bimodule laws of a one-vertex
        # rose but breaks S(phi) T(x) = sigma(<phi, x>) on every basis pair
        fk = rose_fock(2, 4)
        T = {"e0": fk.token_op(("x", {"e1": 1})),
             "e1": fk.token_op(("x", {"e0": 1}))}
        rep = covariant_check(fk, T=T)
        assert rep.checked == 12
        assert len(rep.failures) == 4
        assert {tag[0] for tag in rep.failures} == {"covariance"}

    def test_zero_module_vacuous(self):
        # a quiver with no edges has the zero module; everything passes
        corr = quiver_correspondence(parse_quiver("vertices: v\nedges:"))
        fk = TruncatedFock(corr, 3)
        assert covariant_check(fk).passed


class TestVacuumCompression:
    def test_regular_vertex(self):
        fk = rose_fock(2, 4)
        i = fk.ring.monomial("v")
        op = p0_compact_form(i, fk)
        assert check_p0_form(op, i, fk)
        # kills every degree-1 vector with source at v
        for key in fk.basis(1):
            assert op.column(key) == {}

    def test_zero_element(self):
        fk = rose_fock(2, 4)
        op = p0_compact_form(fk.ring.zero(), fk)
        assert op.support_blocks() == set()

    def test_rank_one_module(self):
        # X = R over the one-point vertex ring: r . P0 = r . id - T_r T_1
        ring = DirectSumRing(ZZ, ["u"])
        corr = free_correspondence(ring, ["*"])
        fk = TruncatedFock(corr, 4)
        r = ring.monomial("u", 3)
        op = p0_compact_form(r, fk)
        assert check_p0_form(op, r, fk)
        assert op.column((0, ("u",)))[(0, ("u",))] == 3

    def test_sink_gives_zero(self):
        fk = a2_fock()
        op = p0_compact_form(fk.ring.monomial("w"), fk)
        # Delta(1_w) = 0, so 1_w . P0 = 1_w . id on degree 0 only
        assert check_p0_form(op, fk.ring.monomial("w"), fk)


class TestJIdealGenerators:
    def test_empty_words_give_p0(self):
        fk = rose_fock(2, 4)
        i = fk.ring.monomial("v")
        j00 = j_ideal_generator([], i, [], fk)
        p0 = p0_compact_form(i, fk)
        assert j00.eq_on(p0, sorted(j00.covered & p0.covered))

    def test_block_position_and_content(self):
        fk = rose_fock(2, 4)
        i = fk.ring.monomial("v")
        gen = j_ideal_generator([{"e0": 1}], i, [{("e1", "*"): 1}], fk)
        blocks = gen.support_blocks()
        assert blocks == {(1, 1)}
        # the block is rank one: source e1 maps to (e1 . i expanded) = e0
        assert gen.column((1, ("e1",))) == {(1, ("e0",)): 1}
        assert gen.column((1, ("e0",))) == {}

    def test_rank_one_block_on_rank_one_module(self):
        ring = DirectSumRing(ZZ, ["u"])
        corr = free_correspondence(ring, ["*"])
        fk = TruncatedFock(corr, 4)
        r = ring.monomial("u")
        gen = j_ideal_generator([{("*", "u"): 1}], r, [], fk)
        assert gen.support_blocks() == {(1, 0)}
        # block (1, 0) holds x . i
        assert gen.column((0, ("u",))) == {(1, (("*", "u"),)): 1}

    def test_out_of_range(self):
        fk = rose_fock(2, 2)
        i = fk.ring.monomial("v")
        with pytest.raises(DepthError):
            j_ideal_generator([{"e0": 1}] * 3, i, [], fk)


class TestPiRepresentations:
    def test_pi1_kills_vacuum_for_creation(self):
        fk = rose_fock(2, 4)
        op = pi1(fk, [("x", {"e0": 1})])
        for key in fk.basis(0):
            assert op.column(key) == {}

    def test_pi1_kills_degree_one_for_annihilation(self):
        fk = rose_fock(2, 4)
        op = pi1(fk, [("phi", {("e0", "*"): 1})])
        for key in fk.basis(1):
            assert op.column(key) == {}
        # on degree 2 it acts like the canonical annihilation
        can = pi0(fk, [("phi", {("e0", "*"): 1})])
        assert op.eq_on(can, [2, 3, 4])

    def test_pi1_scalar_on_higher_degrees(self):
        fk = rose_fock(2, 4)
        r = fk.ring.monomial("v", 5)
        op = pi1(fk, [("r", r)])
        for key in fk.basis(0):
            assert op.column(key) == {}
        for key in fk.basis(2):
            assert op.column(key) == {key: 5}

    def test_token_op_matches_constructors(self):
        # the cached token operators are the plain constructors, also for
        # two-symbol and zero payloads, under both representations
        fk = rose_fock(2, 4)
        ring = fk.ring
        cases = [
            (("x", {"e0": 1, "e1": 2}), fk.creation, (0, 1)),
            (("x", {}), fk.creation, (0, 1)),
            (("phi", {("e0", "*"): 3, ("e1", "*"): 1}), fk.annihilation,
             (1, 2)),
            (("phi", {}), fk.annihilation, (1, 2)),
            (("r", ring.monomial("v", 2)), fk.scalar, (0, 1)),
            (("r", ring.zero()), fk.scalar, (0, 1)),
        ]
        for token, make, kills in cases:
            for variant, low_kill in zip(("pi0", "pi1"), kills):
                got = fk.token_op(token, variant)
                want = make(token[1], low_kill=low_kill)
                assert got.covered == want.covered
                assert got.outs == want.outs
                assert got.eq_on(want, sorted(want.covered))
                assert fk.token_op(token, variant) is got


class TestDefects:
    def test_creation_defect(self):
        fk = rose_fock(2, 4)
        defect, infos = quasi_hom_defect(fk, [("x", {"e0": 1})])
        assert infos[0]["block"] == (1, 0)
        assert defect.column((0, ("v",))) == {(1, ("e0",)): 1}
        assert defect.support_blocks() == {(1, 0)}

    def test_scalar_defect(self):
        fk = rose_fock(2, 4)
        r = fk.ring.monomial("v", 2)
        defect, infos = quasi_hom_defect(fk, [("r", r)])
        assert infos[0]["block"] == (0, 0)
        assert defect.column((0, ("v",))) == {(0, ("v",)): 2}

    def test_annihilation_then_creation_reduces_to_scalar(self):
        fk = rose_fock(2, 4)
        tokens = [("phi", {("e0", "*"): 1}), ("x", {"e0": 1})]
        defect, infos = quasi_hom_defect(fk, tokens)
        assert [i["word"][0] for i in infos] == ["s"]
        assert defect.column((0, ("v",))) == {(0, ("v",)): 1}

    def test_mixed_word_block(self):
        fk = rose_fock(2, 5)
        tokens = [("x", {"e0": 1}), ("x", {"e1": 1}), ("phi", {("e0", "*"): 1})]
        defect, infos = quasi_hom_defect(fk, tokens)
        assert infos[0]["block"] == (2, 1)
        assert defect.support_blocks() == {(2, 1)}

    def test_depth_guard(self):
        fk = rose_fock(2, 1)
        with pytest.raises(DepthError):
            quasi_hom_defect(fk, [("phi", {("e0", "*"): 1})])

    def test_support_checker_rejects_wrong_block(self):
        from pimsner.fock import InvariantViolation, _check_defect_support
        fk = rose_fock(2, 4)
        # a creation word has its block at source degree 0; claiming the
        # block sits at degree 1 must be caught
        tokens = [("x", {"e0": 1})]
        with pytest.raises(InvariantViolation):
            _check_defect_support(fk, ("w", ("e0",), ()), 1, tokens,
                                  range(0, 3))

    def test_derivation_identity(self):
        # defect(t1 t2) = pi0(t1) defect(t2) + defect(t1) pi1(t2)
        fk = rose_fock(2, 5)
        rng = random.Random(17)
        edges = ["e0", "e1"]
        for _ in range(15):
            def rand_tokens():
                out = []
                for _i in range(rng.randint(1, 2)):
                    if rng.random() < 0.5:
                        out.append(("x", {rng.choice(edges): 1}))
                    else:
                        out.append(("phi", {(rng.choice(edges), "*"): 1}))
                return out

            t1, t2 = rand_tokens(), rand_tokens()
            d12, _ = quasi_hom_defect(fk, t1 + t2, check_support=False)
            d1, _ = quasi_hom_defect(fk, t1, check_support=False)
            d2, _ = quasi_hom_defect(fk, t2, check_support=False)
            rhs = pi0(fk, t1).compose(d2) + d1.compose(pi1(fk, t2))
            degrees = sorted(d12.covered & rhs.covered)
            assert d12.eq_on(rhs, degrees)

    def test_leavitt_relation_fails_by_a_j_generator(self):
        # sum of T_e T_e* differs from the vertex scalar by exactly the
        # vacuum compression: the relation holds in the quotient
        fk = rose_fock(2, 4)
        i = fk.ring.monomial("v")
        tokens_sum = None
        op = fk.zero_op()
        for e in ["e0", "e1"]:
            op = op + fk.creation({e: 1}).compose(
                fk.annihilation({(e, "*"): 1}))
        scalar = fk.scalar(i)
        p0 = p0_compact_form(i, fk)
        lhs = scalar - op
        assert lhs.eq_on(p0, sorted(lhs.covered & p0.covered))


class TestToeplitzWords:
    def test_cohn_words_survive(self):
        # in the Toeplitz ring the range relation does not hold: the word
        # algebra keeps e e* and the vertex separate
        talg = ToeplitzAlgebra(quiver_correspondence(rose(2)))
        one = 1
        ee = talg.from_tokens([("x", {"e0": one}), ("phi", {("e0", "*"): one})])
        assert set(ee) == {("w", ("e0",), (("e0", "*"),))}
        v = talg.scalar(talg.ring.monomial("v"))
        assert set(v) == {("s", "v")}

    def test_contraction(self):
        talg = ToeplitzAlgebra(quiver_correspondence(rose(2)))
        one = 1
        prod = talg.from_tokens([("phi", {("e0", "*"): one}),
                                 ("x", {"e0": one})])
        assert prod == {("s", "v"): 1}
        zero = talg.from_tokens([("phi", {("e0", "*"): one}),
                                 ("x", {"e1": one})])
        assert zero == {}

    def test_junction_absorption(self):
        # T_e T_f* is zero unless the ranges match
        talg = ToeplitzAlgebra(quiver_correspondence(
            parse_quiver("vertices: a b\nedges:\n x: a -> a\n y: b -> a")))
        one = 1
        w = talg.from_tokens([("x", {"x": one}), ("phi", {("y", "*"): one})])
        assert w  # r(x) == r(y) == a, the word survives
        talg2 = ToeplitzAlgebra(quiver_correspondence(
            parse_quiver("vertices: a b\nedges:\n x: a -> a\n y: a -> b")))
        w2 = talg2.from_tokens([("x", {"x": one}), ("phi", {("y", "*"): one})])
        assert w2 == {}

    def test_word_products_match_operators(self):
        fk = rose_fock(2, 5)
        talg = ToeplitzAlgebra(fk.corr)
        rng = random.Random(23)
        edges = ["e0", "e1"]
        for _ in range(25):
            tokens = []
            for _i in range(rng.randint(1, 3)):
                kind = rng.choice(["x", "phi", "r"])
                if kind == "x":
                    tokens.append(("x", {rng.choice(edges): 1}))
                elif kind == "phi":
                    tokens.append(("phi", {(rng.choice(edges), "*"): 1}))
                else:
                    tokens.append(("r", fk.ring.monomial("v", rng.randint(1, 2))))
            elt = talg.from_tokens(tokens)
            # rebuild the operator from the normal form and compare
            rebuilt = fk.zero_op()
            for key, coeff in elt.items():
                from pimsner.fock import word_tokens_of
                rebuilt = rebuilt + word_operator(
                    fk, word_tokens_of(talg, key)).scale(coeff)
            direct = word_operator(fk, tokens)
            degrees = sorted(rebuilt.covered & direct.covered)
            assert direct.eq_on(rebuilt, degrees)


class TestHomotopy:
    def test_coefficient_identity_symbolically(self):
        assert rotation_coefficient_identity()
        t = Poly.t()
        lhs = t * (t.scale(2) - t * t * t) + \
            (Poly.const(1) - t * t) * (Poly.const(1) - t * t)
        assert lhs(Fraction(1, 2)) == 1
        assert t(Fraction(1, 2)) * (2 * Fraction(1, 2) - Fraction(1, 8)) == \
            Fraction(7, 16)

    def test_endpoints(self):
        fk = rose_fock(2, 4)
        model = HomotopyModel(fk, 3)
        for tok in [("x", {"e0": 1}), ("phi", {("e1", "*"): 1}),
                    ("r", fk.ring.monomial("v"))]:
            assert homotopy_endpoints_check(model, tok).passed

    def test_pairing_preservation(self):
        fk = rose_fock(2, 4)
        model = HomotopyModel(fk, 3)
        for e in ["e0", "e1"]:
            for f in ["e0", "e1"]:
                rep = homotopy_pairing_check(model, {f: 1}, {(e, "*"): 1})
                assert rep.passed

    def test_vanishing_pairing_gives_zero_product(self):
        # <e1*, e0> = 0, so H(T_phi) H(T_x) must be the zero polynomial
        # operator on every checked key
        from pimsner.fock import OVERFLOW
        fk = rose_fock(2, 4)
        model = HomotopyModel(fk, 3)
        lhs = homotopy_H(model, ("phi", {("e1", "*"): 1})).compose(
            homotopy_H(model, ("x", {"e0": 1})))
        for p, op in lhs.parts.items():
            for key, col in op.low.items():
                if col is not OVERFLOW:
                    assert not col, (p, key, col)

    def test_pairing_rank_one_module(self):
        ring = DirectSumRing(QQ, ["u"])
        corr = free_correspondence(ring, ["*"])
        fk = TruncatedFock(corr, 4)
        model = HomotopyModel(fk, 3)
        one_vec = {("*", "u"): 1}
        rep = homotopy_pairing_check(model, one_vec, one_vec)
        assert rep.passed

    def test_perturbed_coefficients_fail(self):
        # replacing 2t - t^3 by t breaks pairing preservation
        fk = rose_fock(2, 4)
        model = HomotopyModel(fk, 3)
        from pimsner.fock import CheckReport, PolyOperator
        xvec, pvec = {"e0": 1}, {("e0", "*"): 1}
        bad_x = PolyOperator(model, {
            0: model.lam0_x(xvec) + model.pi_tensor(("x", xvec), "pi1"),
            1: model.lam1(("x", xvec)),
            2: model.lam0_x(xvec).scale(-1),
        })
        lhs = homotopy_H(model, ("phi", pvec)).compose(bad_x)
        relt = model.module.pair(pvec, xvec)
        rhs = PolyOperator(model, {0: model.pi_tensor(("r", relt), "pi0")})
        rep = CheckReport("bad-pairing")
        lhs.eq_report(rhs, rep, tag="bad")
        assert not rep.passed

    def test_pairing_check_fails_on_doubled_lam1(self, monkeypatch):
        fk = rose_fock(2, 4)
        model = HomotopyModel(fk, 3)
        xvec, pvec = {"e0": 1}, {("e0", "*"): 1}
        report = homotopy_pairing_check(model, xvec, pvec)
        assert report.passed
        assert report.checked == 724
        real_lam1 = model.lam1
        monkeypatch.setattr(model, "lam1",
                            lambda token: real_lam1(token).scale(2))
        report = homotopy_pairing_check(model, xvec, pvec)
        assert len(report.failures) == 34

    def test_compose_refuses_high_part_leaving_tensor_form(self):
        # T_phi maps degree 2 into the explicit degree-1 columns, so nothing
        # can be composed after it; the homotopy identities only compose
        # after creations and scalars
        fk = rose_fock(2, 4)
        model = HomotopyModel(fk, 3)
        x = model.pi_tensor(("x", {"e0": 1}), "pi0")
        phi = model.pi_tensor(("phi", {("e0", "*"): 1}), "pi0")
        with pytest.raises(RingError):
            x.compose(phi)
        assert phi.compose(x).high is not None

    def test_H_multiplicative_on_bimodule_relations(self):
        # H(T_{r.x}) = H(r) H(T_x) and H(T_{x.r}) = H(T_x) H(r), per power
        from pimsner.fock import CheckReport
        fk = rose_fock(2, 4)
        model = HomotopyModel(fk, 3)
        m = fk.module
        r = fk.ring.monomial("v")
        for b in m.x_basis:
            lhs = homotopy_H(model, ("x", m.act_left(r, {b: 1})))
            rhs = homotopy_H(model, ("r", r)).compose(
                homotopy_H(model, ("x", {b: 1})))
            rep = CheckReport("left-law")
            lhs.eq_report(rhs, rep, tag=("left", b))
            assert rep.passed
            lhs = homotopy_H(model, ("x", m.act_right({b: 1}, r)))
            rhs = homotopy_H(model, ("x", {b: 1})).compose(
                homotopy_H(model, ("r", r)))
            rep = CheckReport("right-law")
            lhs.eq_report(rhs, rep, tag=("right", b))
            assert rep.passed

    def test_endpoints_fail_on_perturbed_scalar_column(self, monkeypatch):
        # a scalar token's homotopy must be constant: a t^1 part that moves
        # one column breaks H(1) = r . id while H(0) still holds
        fk = rose_fock(2, 4)
        model = HomotopyModel(fk, 3)
        token = ("r", fk.ring.monomial("v"))
        assert homotopy_endpoints_check(model, token).passed
        real_H = fock_module.homotopy_H

        def perturbed(model, token):
            H = real_H(model, token)
            key = model.c0_keys[0]
            H.parts[1] = HOperator(model, low={key: {key: 1}}, high=None)
            return H

        monkeypatch.setattr(fock_module, "homotopy_H", perturbed)
        report = homotopy_endpoints_check(model, token)
        assert not report.passed
        assert {tag for tag, _ in report.failures} == {"H(1)"}

    def test_a2_full_generator_sweep(self):
        fk = a2_fock(4)
        model = HomotopyModel(fk, 3)
        toks = [("x", {"e": 1}), ("phi", {("e", "*"): 1}),
                ("r", fk.ring.monomial("v")), ("r", fk.ring.monomial("w"))]
        for tok in toks:
            assert homotopy_endpoints_check(model, tok).passed
        assert homotopy_pairing_check(model, {"e": 1}, {("e", "*"): 1}).passed
