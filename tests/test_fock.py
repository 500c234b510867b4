"""Tests for truncated Fock operators, defects, and the rotational homotopy."""

import random

import pytest

from pathspace import PathSpace
from pimsner import fock as fock_module
from pimsner.fock import (
    CheckReport,
    DepthError,
    FockOperator,
    HOperator,
    HomotopyModel,
    InvariantViolation,
    OVERFLOW,
    ToeplitzAlgebra,
    TruncatedFock,
    covariant_check,
    check_p0_form,
    homotopy_H,
    homotopy_endpoints_check,
    homotopy_pairing_check,
    p0_compact_form,
    pi0,
    pi1,
    quasi_hom_defect,
    rotation_coefficient_identity,
    word_operator,
    word_tokens_of,
)
from pimsner.leavitt import parse_quiver, quiver_correspondence, rose
from pimsner.ringcore import (
    QQ,
    ZZ,
    RingError,
    Zmod,
    vadd,
    vclean,
    vscale,
)
from test_pathspace import (Case, assert_same, check_random_words,
                            j_ideal_generator)
from test_pathspace import cases as pathspace_cases

A2 = parse_quiver("vertices: v w\nedges: e: v -> w")


def a2_fock(depth=4):
    return TruncatedFock(quiver_correspondence(A2), depth)


def rose_fock(d=2, depth=4, k=ZZ):
    return TruncatedFock(quiver_correspondence(rose(d), k), depth)


def _endpoints(model, token):
    return homotopy_endpoints_check(model, token, homotopy_H(model, token))


def _pairing(model, xvec, pvec):
    return homotopy_pairing_check(model, xvec, pvec,
                                  homotopy_H(model, ("x", xvec)),
                                  homotopy_H(model, ("phi", pvec)))


def _support_blocks(fk, op, degrees=None):
    """The (target degree, source degree) pairs that op's columns hit, on
    ``degrees`` or else every covered degree."""
    if degrees is None:
        degrees = sorted(op.covered)
    return {(tgt[0], d) for d in degrees for key in fk.basis(d)
            for tgt in op.column(key)}


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

    def test_dimension_past_the_bound_is_refused(self, monkeypatch):
        # rose2 holds 63 keys through degree 5 and 127 through degree 6
        monkeypatch.setattr(fock_module, "MAX_FOCK_DIMENSION", 100)
        fk = rose_fock(2, 20)
        assert len(fk.basis(5)) == 32
        with pytest.raises(RingError, match="degree 6 .* past 100 basis"):
            fk.basis(20)
        with pytest.raises(RingError, match="degree 6"):
            fk.dual_basis(6)
        # the refusal builds no part of the refused degree
        assert 6 not in fk._basis and 7 not in fk._basis

    def test_depth_past_the_cap_is_refused(self):
        assert rose_fock(1, fock_module.MAX_FOCK_DEPTH).depth == 64
        with pytest.raises(RingError, match="depth 65 is past 64"):
            rose_fock(1, fock_module.MAX_FOCK_DEPTH + 1)

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
        T = fk.token_op(("x", {"e": 1}))
        # e . 1_v = 0 and e . 1_w = e since r(e) = w
        assert T.column((0, ("v",))) == {}
        assert T.column((0, ("w",))) == {(1, ("e",)): 1}

    def test_creation_of_zero(self):
        fk = a2_fock()
        assert _support_blocks(fk, fk.token_op(("x", {}))) == set()

    def test_creation_block_structure(self):
        fk = rose_fock(2, 4)
        T = fk.token_op(("x", {"e0": 1}))
        assert _support_blocks(fk, T) == {(d + 1, d) for d in range(4)}

    def test_annihilation_kills_vacuum(self):
        fk = a2_fock()
        S = fk.token_op(("phi", {("e", "*"): 1}))
        for key in fk.basis(0):
            assert S.column(key) == {}

    def test_annihilation_degree_one_is_pairing(self):
        fk = a2_fock()
        S = fk.token_op(("phi", {("e", "*"): 1}))
        assert S.column((1, ("e",))) == {(0, ("w",)): 1}

    def test_annihilation_of_zero(self):
        fk = a2_fock()
        assert _support_blocks(fk, fk.token_op(("phi", {}))) == set()

    def test_matrix_picture(self):
        # creation, annihilation, and the vacuum compression occupy the
        # displayed diagonals of the graded matrix picture
        fk = rose_fock(2, 4)
        assert _support_blocks(fk, fk.token_op(("x", {"e0": 1}))) == \
            {(1, 0), (2, 1), (3, 2), (4, 3)}
        assert _support_blocks(fk, fk.token_op(("phi", {("e0", "*"): 1}))) \
            == {(0, 1), (1, 2), (2, 3), (3, 4)}
        i = fk.ring.monomial("v")
        assert _support_blocks(fk, p0_compact_form(i, fk)) == {(0, 0)}

    def test_unknown_kinds_and_variants_are_refused(self):
        # a starred kind names no generator: nothing acts on a dual module
        fk = a2_fock()
        for kind in ("x*", "phi*", "r*", "y"):
            with pytest.raises(RingError):
                fk.token_op((kind, {"e": 1}))
        with pytest.raises(RingError):
            fk.token_op(("x", {"e": 1}), "pi2")
        with pytest.raises(RingError):
            word_operator(fk, [("x", {"e": 1})], "pi2")

    def test_the_empty_word_is_refused(self):
        # no normal word is empty; as in the Toeplitz algebra, the empty
        # word names no operator
        fk = a2_fock()
        for variant in ("pi0", "pi1"):
            with pytest.raises(RingError, match="empty generator word"):
                word_operator(fk, [], variant)


class TestZeroDivisors:
    """Columns stay clean over Z/6, so dict comparison is exact."""

    def test_scaling_into_zero(self):
        fk = rose_fock(2, 3, k=Zmod(6))
        t = fk.token_op(("x", {"e0": 1}))
        degrees = [0, 1, 2]
        killed = t.scale(3).scale(2)
        assert killed.eq_on(fk.zero_op(), degrees)
        assert _support_blocks(fk, killed, degrees) == set()
        assert not t.scale(3).eq_on(fk.zero_op(), degrees)
        assert t.scale(3).eq_on(t.scale(9), degrees)
        assert (t.scale(2) + t.scale(4)).eq_on(fk.zero_op(), degrees)
        assert not t.scale(2).eq_on(t.scale(4), degrees)


class TestCovariant:
    def test_canonical_representation(self):
        for fk in [a2_fock(), rose_fock(2, 4), rose_fock(3, 3)]:
            assert covariant_check(fk).passed

    def test_covariance_relation_directly(self):
        # annihilation(phi) . creation(x) = sigma(<phi, x>) degreewise
        fk = rose_fock(2, 4)
        for c in fk.module.xp_basis:
            for b in fk.module.x_basis:
                lhs = fk.token_op(("phi", {c: 1})).compose(
                    fk.token_op(("x", {b: 1})))
                rhs = fk.token_op(("r", fk.module.pair({c: 1}, {b: 1})))
                assert lhs.eq_on(rhs, sorted(lhs.covered & rhs.covered))

    def test_scaled_representation_fails(self):
        fk = rose_fock(2, 3)
        T = {b: fk.token_op(("x", {b: 2})) for b in fk.module.x_basis}
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

    @pytest.mark.parametrize("kind, entry, tag", [
        ("phi", (-1, 2), "covariance"),
        ("r", (0, 1), "T(x.r)"),
    ], ids=["phi-kills-degree-1", "r-kills-degree-0"])
    def test_kinds_table_mutation_fails(self, monkeypatch, kind, entry, tag):
        assert covariant_check(rose_fock(2, 4)).passed
        monkeypatch.setitem(fock_module._KINDS, kind, entry)
        report = covariant_check(rose_fock(2, 4))
        assert tag in {failure[0] for failure in report.failures}

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
        assert check_p0_form(op, i, fk, range(fk.depth))
        # kills every degree-1 vector with source at v
        for key in fk.basis(1):
            assert op.column(key) == {}

    def test_zero_element(self):
        fk = rose_fock(2, 4)
        op = p0_compact_form(fk.ring.zero(), fk)
        assert _support_blocks(fk, op) == set()

    def test_rank_one_module(self):
        # X = R over the one-point vertex ring, rose1: r . P0 = r . id -
        # T_r T_1
        fk = rose_fock(1, 4)
        r = fk.ring.monomial("v").scale(3)
        op = p0_compact_form(r, fk)
        assert check_p0_form(op, r, fk, range(fk.depth))
        assert op.column((0, ("v",)))[(0, ("v",))] == 3

    def test_sink_gives_zero(self):
        fk = a2_fock()
        op = p0_compact_form(fk.ring.monomial("w"), fk)
        # Delta(1_w) = 0, so 1_w . P0 = 1_w . id on degree 0 only
        assert check_p0_form(op, fk.ring.monomial("w"), fk, range(fk.depth))


    def test_sink_gives_the_cached_scalar_operator(self):
        # on a sink the compression is the cached scalar operator itself,
        # and neither it nor a J_X generator built on it changes that
        fk = a2_fock()
        w = fk.ring.monomial("w")
        scalar = fk.token_op(("r", w))
        terms, outs = dict(scalar.terms), dict(scalar.outs)
        assert p0_compact_form(w, fk) is scalar
        j_ideal_generator([], w, [], fk)
        assert fk.token_op(("r", w)) is scalar
        assert scalar.terms == terms and scalar.outs == outs


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
        assert _support_blocks(fk, gen) == {(1, 1)}
        # the block is rank one: source e1 maps to (e1 . i expanded) = e0
        assert gen.column((1, ("e1",))) == {(1, ("e0",)): 1}
        assert gen.column((1, ("e0",))) == {}

    def test_rank_one_block_on_rank_one_module(self):
        fk = rose_fock(1, 4)
        r = fk.ring.monomial("v")
        gen = j_ideal_generator([{"e0": 1}], r, [], fk)
        assert _support_blocks(fk, gen) == {(1, 0)}
        # block (1, 0) holds x . i
        assert gen.column((0, ("v",))) == {(1, ("e0",)): 1}

    def test_out_of_range(self):
        fk = rose_fock(2, 2)
        i = fk.ring.monomial("v")
        with pytest.raises(DepthError):
            j_ideal_generator([{"e0": 1}] * 3, i, [], fk)


# -- hand-written one-leaf operators, whose columns the term-sum shortcut
# -- must not read

def _leaf_operator(fk, column, covered, outs):
    """The one-leaf word of a hand-written column function; ``outs`` maps
    a covered degree to its target degrees, stored as a bitmask."""
    return FockOperator(fk, {(column,): fk.k.one},
                        {d: sum(1 << e for e in outs[d]) for d in covered})


def _target_sets(outs):
    """A FockOperator's target masks as frozensets of target degrees."""
    return {d: frozenset(e for e in range(mask.bit_length()) if mask >> e & 1)
            for d, mask in outs.items()}


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
        r = fk.ring.monomial("v").scale(5)
        op = pi1(fk, [("r", r)])
        for key in fk.basis(0):
            assert op.column(key) == {}
        for key in fk.basis(2):
            assert op.column(key) == {key: 5}

def _raising_leaf(key):
    raise AssertionError(f"a column was read at {key}")


class TestTermSumShortcut:
    """``eq_on`` reads no column when both operators' terms are equal,
    and chases every key when they differ."""

    def test_equal_term_sums_read_no_column(self):
        fk = rose_fock(2, 4)
        a = _leaf_operator(fk, _raising_leaf, range(fk.depth),
                           {d: [d + 1] for d in range(fk.depth)})
        b = _leaf_operator(fk, _raising_leaf, range(fk.depth + 1),
                           {d: [d] for d in range(fk.depth + 1)})
        degrees = sorted(a.covered)
        assert (a + a).eq_on(a.scale(2), degrees)
        assert (a + b).eq_on(b + a, degrees)
        assert (a - a).eq_on(fk.zero_op(), degrees)
        assert b.compose(a + a).eq_on(b.compose(a).scale(2), degrees)
        # different sums read the columns
        with pytest.raises(AssertionError, match="column was read"):
            a.eq_on(a.scale(3), degrees)

    def test_coefficients_sum_in_the_ring(self):
        fk = rose_fock(2, 3, k=Zmod(6))
        a = _leaf_operator(fk, _raising_leaf, range(fk.depth),
                           {d: [d + 1] for d in range(fk.depth)})
        degrees = sorted(a.covered)
        assert (a.scale(3) + a.scale(3)).eq_on(fk.zero_op(), degrees)
        assert (a.scale(4) + a.scale(5)).eq_on(a.scale(3), degrees)

    def test_different_terms_are_chased(self):
        fk = rose_fock(2, 4)
        reads = []

        def counted(op):
            [(leaf,)] = op.terms

            def column(key):
                reads.append(key)
                return leaf(key)

            return _leaf_operator(fk, column, op.covered,
                                  _target_sets(op.outs))

        x = counted(fk.token_op(("x", {"e0": 1})))
        phi = counted(fk.token_op(("phi", {("e0", "*"): 1})))
        v = counted(fk.token_op(("r", fk.ring.monomial("v"))))
        lhs = phi.compose(x)
        degrees = sorted(lhs.covered & v.covered)
        keys = sum(len(fk.basis(d)) for d in degrees)
        # S(e0*) T(e0) = sigma(v): other words, the same columns
        assert lhs.eq_on(v, degrees)
        assert len(reads) == 3 * keys
        # a perturbed coefficient still fails
        assert not lhs.eq_on(v.scale(2), degrees)
        assert not (lhs + x.scale(0)).eq_on(v.scale(-1), degrees)
        assert not lhs.eq_on(v + lhs, degrees)


def _rose2_case(depth, k):
    """rose2's Fock module beside its path-space model."""
    space = PathSpace(["v"], [("e0", "v", "v"), ("e1", "v", "v")], depth,
                      getattr(k, "modulus", None))
    return Case(rose_fock(2, depth, k), space, lambda c: c[0])


class TestChaseAgainstClosures:
    """Chased term words give the columns of the path-space model, whose
    operators are sparse matrices built without a chase, key by key."""

    @pytest.mark.parametrize("index", range(3),
                             ids=["rose2", "a2", "two-cycle"])
    def test_words_sums_composites_and_defects(self, index):
        case = pathspace_cases("small-z")[index]
        nones, nonzero = check_random_words(case, random.Random(29), 10)
        assert nones and nonzero

    def test_vanishing_coefficient_products_over_z6(self):
        case = _rose2_case(3, Zmod(6))
        fk = case.fk
        x, phi = ("x", {"e0": 1}), ("phi", {("e0", "*"): 1})
        t, s = fk.token_op(x), fk.token_op(phi)
        mt, ms = case.word([x]), case.word([phi])
        # 3 * 2 and 2 * 3 are 0 mod 6, so those terms are dropped; the
        # coverage of the operator stays
        assert t.scale(3).scale(2).terms == {}
        assert t.scale(3).compose(t.scale(2)).terms == {}
        assert s.scale(2).compose(t.scale(3)).terms == {}
        for got, want in [
                (t.scale(3).scale(2), mt.scale(3).scale(2)),
                (t.scale(3).compose(t.scale(2)),
                 mt.scale(3).compose(mt.scale(2))),
                (s.scale(2).compose(t.scale(3)),
                 ms.scale(2).compose(mt.scale(3))),
                (t.scale(2) + t.scale(4), mt.scale(2) + mt.scale(4)),
                (t.scale(3).compose(t.scale(4)) - t.compose(t),
                 mt.scale(3).compose(mt.scale(4)) - mt.compose(mt)),
                (s.compose(t.scale(3)) + s.scale(3).compose(t),
                 ms.compose(mt.scale(3)) + ms.scale(3).compose(mt))]:
            assert_same(case, got, want)
        # a creation after a creation is not covered at the top two degrees
        killed = t.scale(3).compose(t.scale(2))
        assert [d for d in range(4)
                if killed.column(fk.basis(d)[0]) is None] == [2, 3]
        assert killed.column(fk.basis(1)[0]) == {}

    @pytest.mark.parametrize("k", [ZZ, Zmod(6)], ids=str)
    def test_compose_merges_words_that_concatenate_alike(self, k):
        # words (p,) and (p, q) on the right, (q, r) and (r,) on the left:
        # (p,) + (q, r) and (p, q) + (r,) are both (p, q, r), so their
        # terms merge, into 2 * 3 + 3 * 2 = 12, which is 0 over Z/6
        case = _rose2_case(4, k)
        tokens = [("x", {"e0": 1}), ("phi", {("e0", "*"): 1}),
                  ("x", {"e1": 1})]
        P, Q, R = (case.fk.token_op(token) for token in tokens)
        mp, mq, mr = (case.word([token]) for token in tokens)
        [(p,)], [(q,)], [(r,)] = P.terms, Q.terms, R.terms
        right = P.scale(2) + Q.compose(P).scale(3)
        left = R.compose(Q).scale(3) + R.scale(2)
        assert right.terms == {(p,): 2, (p, q): 3}
        assert left.terms == {(q, r): 3, (r,): 2}
        got = left.compose(right)
        merged = {(p, q, r): 12, (p, r): 4, (p, q, q, r): 9}
        assert got.terms == vclean(k, merged)
        assert ((p, q, r) in got.terms) == (k is ZZ)
        want = (mr.compose(mq).scale(3) + mr.scale(2)).compose(
            mp.scale(2) + mq.compose(mp).scale(3))
        _, nonzero = assert_same(case, got, want)
        assert nonzero


class TestDefects:
    def test_creation_defect(self):
        fk = rose_fock(2, 4)
        defect, infos = quasi_hom_defect(fk, [("x", {"e0": 1})])
        assert infos[0]["block"] == (1, 0)
        assert defect.column((0, ("v",))) == {(1, ("e0",)): 1}
        assert _support_blocks(fk, defect) == {(1, 0)}

    def test_scalar_defect(self):
        fk = rose_fock(2, 4)
        r = fk.ring.monomial("v").scale(2)
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
        assert _support_blocks(fk, defect) == {(2, 1)}

    def test_depth_guard(self):
        fk = rose_fock(2, 1)
        with pytest.raises(DepthError):
            quasi_hom_defect(fk, [("phi", {("e0", "*"): 1})])

    def test_support_checker_rejects_wrong_block(self):
        from pimsner.fock import _check_defect_support
        fk = rose_fock(2, 4)
        # a creation word has its block at source degree 0; claiming the
        # block sits at degree 1 must be caught
        tokens = [("x", {"e0": 1})]
        with pytest.raises(InvariantViolation):
            _check_defect_support(fk, ("w", ("e0",), ()), 1,
                                  pi0(fk, tokens), pi1(fk, tokens))

    def test_support_checker_reads_the_annihilation_keys(self, monkeypatch):
        # pi1 of T_{e0*} doubled at source degrees >= 3 moves the defect
        # off its block on the paths that start with e0, which the check
        # reads through the module's annihilation candidates
        fk, phi = rose_fock(2, 4), ("phi", {("e0", "*"): 1})
        pi1_op, real = fk.token_op(phi, "pi1"), fk.token_op
        [(leaf,)] = pi1_op.terms
        doubled = FockOperator(fk, {(lambda key: vscale(
            fk.k, leaf(key), 2 if key[0] >= 3 else 1),): 1}, pi1_op.outs)
        monkeypatch.setattr(fk, "token_op", lambda token, variant="pi0": (
            doubled if (token, variant) == (phi, "pi1")
            else real(token, variant)))
        for tokens in ([phi], [("x", {"e1": 1}), phi]):
            with pytest.raises(InvariantViolation, match="escapes"):
                quasi_hom_defect(fk, tokens)

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
            d12, _ = quasi_hom_defect(fk, t1 + t2)
            d1, _ = quasi_hom_defect(fk, t1)
            d2, _ = quasi_hom_defect(fk, t2)
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
            op = op + fk.token_op(("x", {e: 1})).compose(
                fk.token_op(("phi", {(e, "*"): 1})))
        scalar = fk.token_op(("r", i))
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

    def test_try_mul_bounds_word_length(self):
        # (T_e0 T_e1*)(T_e1 T_e0*) contracts to T_e0 T_e0*, of length 2:
        # a bound of 2 keeps it, a bound of 1 overflows, and a product
        # that vanishes has no word to overflow
        fk = rose_fock(2, 4)
        talg = fk._talg
        assert HomotopyModel(fk, 3).talg is talg
        a = talg.from_tokens([("x", {"e0": 1}), ("phi", {("e1", "*"): 1})])
        b = talg.from_tokens([("x", {"e1": 1}), ("phi", {("e0", "*"): 1})])
        prod = talg.mul(a, b)
        assert prod == {("w", ("e0",), (("e0", "*"),)): 1}
        assert talg.try_mul(a, b, 2) == prod
        assert talg.try_mul(a, b, 1) is None
        assert talg.try_mul(a, a, 0) == {}

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
                    tokens.append(("r", fk.ring.monomial("v").scale(
                        rng.randint(1, 2))))
            elt = talg.from_tokens(tokens)
            # rebuild the operator from the normal form and compare
            rebuilt = fk.zero_op()
            for key, coeff in elt.items():
                from pimsner.fock import word_tokens_of
                rebuilt = rebuilt + word_operator(
                    fk, word_tokens_of(talg, key), "pi0").scale(coeff)
            direct = word_operator(fk, tokens, "pi0")
            degrees = sorted(rebuilt.covered & direct.covered)
            assert direct.eq_on(rebuilt, degrees)


class TestHomotopy:
    def test_coefficient_identity_symbolically(self, monkeypatch):
        assert rotation_coefficient_identity()
        # lam1's coefficient on H(T_x) as 2t - 2t^3 breaks it: the sum
        # becomes 1 - t^4
        monkeypatch.setitem(fock_module._ROTATION, "x",
                            (fock_module._ROTATION["x"][0], {1: 2, 3: -2}))
        assert not rotation_coefficient_identity()

    def test_endpoints(self):
        fk = rose_fock(2, 4)
        model = HomotopyModel(fk, 3)
        for tok in [("x", {"e0": 1}), ("phi", {("e1", "*"): 1}),
                    ("r", fk.ring.monomial("v"))]:
            assert _endpoints(model, tok).passed

    def test_pairing_preservation(self):
        fk = rose_fock(2, 4)
        model = HomotopyModel(fk, 3)
        for e in ["e0", "e1"]:
            for f in ["e0", "e1"]:
                rep = _pairing(model, {f: 1}, {(e, "*"): 1})
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
            for key, col in _by_key(model, op.low).items():
                if col is not OVERFLOW:
                    assert not col, (p, key, col)

    def test_pairing_rank_one_module(self):
        model = HomotopyModel(_rank_one_fock(), 3)
        rep = _pairing(model, {"e0": 1}, {("e0", "*"): 1})
        assert rep.passed

    def test_perturbed_coefficients_fail(self):
        # replacing 2t - t^3 by t breaks pairing preservation
        fk = rose_fock(2, 4)
        model = HomotopyModel(fk, 3)
        from pimsner.fock import CheckReport, PolyOperator
        xvec, pvec = {"e0": 1}, {("e0", "*"): 1}
        tok = ("x", xvec)
        bad_x = PolyOperator(model, {
            0: model.lam0(tok) + model.pi_tensor(tok, "pi1"),
            1: model.lam1(tok),
            2: model.lam0(tok).scale(-1),
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
        report = _pairing(model, xvec, pvec)
        assert report.passed
        assert report.checked == 724
        real_lam1 = model.lam1
        monkeypatch.setattr(model, "lam1",
                            lambda token: real_lam1(token).scale(2))
        report = _pairing(model, xvec, pvec)
        assert len(report.failures) == 34
        assert {key for _, key in report.failures} <= set(model.low_keys)

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

    def test_endpoints_fail_on_perturbed_scalar_column(self):
        # a scalar token's homotopy must be constant: a t^1 part that moves
        # one column breaks H(1) = r . id while H(0) still holds
        fk = rose_fock(2, 4)
        model = HomotopyModel(fk, 3)
        token = ("r", fk.ring.monomial("v"))
        assert _endpoints(model, token).passed
        key = model.c0_keys[0]
        H = homotopy_H(model, token)
        H.parts[1] = HOperator(model, low=_by_id(model, {key: {key: 1}}),
                               high=None)
        report = homotopy_endpoints_check(model, token, H)
        assert not report.passed
        assert {tag for tag, _ in report.failures} == {"H(1)"}
        # the failure names the model key of the perturbed column, not its id
        assert report.failures == [("H(1)", key)]
        assert report.as_dict()["failures"] == [str(("H(1)", key))]

    def test_a2_full_generator_sweep(self):
        fk = a2_fock(4)
        model = HomotopyModel(fk, 3)
        toks = [("x", {"e": 1}), ("phi", {("e", "*"): 1}),
                ("r", fk.ring.monomial("v")), ("r", fk.ring.monomial("w"))]
        for tok in toks:
            assert _endpoints(model, tok).passed
        assert _pairing(model, {"e": 1}, {("e", "*"): 1}).passed


# -- model ids and model keys: low parts are keyed by ids, tests by keys --

def _by_key(model, low):
    """An id-keyed low part, its ids translated to model keys."""
    return {model._keys[i]: col if col is OVERFLOW else
            {model._keys[j]: c for j, c in col.items()}
            for i, col in low.items()}


def _by_id(model, low):
    """A key-keyed low part, its keys interned to model ids."""
    return {model._id(key): col if col is OVERFLOW else
            {model._id(k2): c for k2, c in col.items()}
            for key, col in low.items()}


# -- the hand-derived corners of pi (x) id, kept as an oracle for the lift --

def _oracle_lam0_x(model, xvec):
    """Degree-raising corner: x . eps (x) w on every degree-0 key."""
    k = model.k
    low = {}
    for key in model.c0_keys:
        wk = key[2]
        vec = model.module.act_right(xvec, model.talg.left_support(wk))
        col = {}
        for b, c in vec.items():
            for key2, c2 in model.make_key(1, (b,), wk).items():
                col[key2] = k.add(col.get(key2, k.zero), k.mul(c, c2))
        low[key] = vclean(k, col)
    return low


def _oracle_lam0_phi(model, pvec):
    """Degree-lowering corner: j(<phi, b>) . w on every degree-1 key."""
    low = {}
    for key in model.c1_keys:
        _, (b,), wk = key
        r = model.module.pair(pvec, {b: model.k.one})
        col = model.talg._scalar_times_word(r, wk)
        low[key] = {(0, (), wk2): c for wk2, c in col.items()}
    return low


def _oracle_pi_tensor_low(model, token, variant):
    """The low part of pi0 (x) id or pi1 (x) id, branch by branch."""
    k, module = model.k, model.module
    kind, payload = token
    low = {}
    if variant == "pi0":
        if kind == "x":
            low.update(_oracle_lam0_x(model, payload))
        elif kind == "phi":
            low.update(_oracle_lam0_phi(model, payload))
        elif kind == "r":
            for key in model.c0_keys:
                prod = model.talg._scalar_times_word(payload, key[2])
                low[key] = {(0, (), wk): c for wk, c in prod.items()}
    for key in model.c1_keys:
        _, (b,), wk = key
        col = {}
        if kind == "x":
            for bx, c in payload.items():
                for tup, c2 in module.tensor_normalize((bx, b)).items():
                    for key2, c3 in model.make_key(2, tup, wk).items():
                        col[key2] = k.add(col.get(key2, k.zero),
                                          k.mul(c, k.mul(c2, c3)))
        elif kind == "r":
            for b2, c in module.act_left(payload, {b: k.one}).items():
                for key2, c2 in model.make_key(1, (b2,), wk).items():
                    col[key2] = k.add(col.get(key2, k.zero), k.mul(c, c2))
        else:
            continue
        low[key] = vclean(k, col)
    return low


def _basis_tokens(fk):
    one = fk.k.one
    return ([("x", {b: one}) for b in fk.module.x_basis]
            + [("phi", {c: one}) for c in fk.module.xp_basis]
            + [("r", fk.ring.monomial(r)) for r in fk.ring.basis])


def _rank_one_fock(depth=4):
    return rose_fock(1, depth, QQ)


def _cycle_fock(depth=4):
    return TruncatedFock(quiver_correspondence(parse_quiver(
        "vertices: a b\nedges:\n e: a -> b\n f: b -> a")), depth)


class TestPiTensorLift:
    """pi (x) id is the Fock token operator lifted through ``make_key``."""

    def assert_low_equal(self, model, got, want):
        got = _by_key(model, got)
        assert set(got) <= set(model.low_keys)
        assert set(want) <= set(model.low_keys)
        for key in model.low_keys:
            assert got.get(key, {}) == want.get(key, {}), key

    @pytest.mark.parametrize("make", [lambda: rose_fock(2, 4), a2_fock,
                                      _rank_one_fock],
                             ids=["rose2", "a2", "rank-one-QQ"])
    def test_against_hand_derived_corners(self, make):
        fk = make()
        model = HomotopyModel(fk, 3)
        tokens = _basis_tokens(fk)
        assert {kind for kind, _ in tokens} == {"x", "phi", "r"}
        for token in tokens:
            for variant in ("pi0", "pi1"):
                self.assert_low_equal(
                    model, model.pi_tensor(token, variant).low,
                    _oracle_pi_tensor_low(model, token, variant))
            kind, payload = token
            if kind == "x":
                want = _oracle_lam0_x(model, payload)
            elif kind == "phi":
                want = _oracle_lam0_phi(model, payload)
            else:
                continue
            lam0 = model.lam0(token)
            assert lam0.high is None
            self.assert_low_equal(model, lam0.low, want)

    def test_two_symbol_payloads(self):
        fk = rose_fock(2, 4)
        model = HomotopyModel(fk, 3)
        for token in [("x", {"e0": 1, "e1": 2}),
                      ("phi", {("e0", "*"): 3, ("e1", "*"): -1}),
                      ("r", fk.ring.monomial("v").scale(5))]:
            for variant in ("pi0", "pi1"):
                self.assert_low_equal(
                    model, model.pi_tensor(token, variant).low,
                    _oracle_pi_tensor_low(model, token, variant))

    def test_scaled_pi1_creation_fails_endpoint_zero(self, monkeypatch):
        # pi_tensor reads token_op, so a wrong pi1 creation shows at H(0);
        # a hand-derived low part would ignore it
        fk = rose_fock(2, 4)
        model = HomotopyModel(fk, 3)
        token = ("x", {"e0": 1})
        assert _endpoints(model, token).passed
        real_token_op = fk.token_op

        def scaled(tok, variant="pi0"):
            op = real_token_op(tok, variant)
            if tok[0] == "x" and variant == "pi1":
                return op.scale(2)
            return op

        monkeypatch.setattr(fk, "token_op", scaled)
        report = _endpoints(model, token)
        assert not report.passed
        assert {tag for tag, _ in report.failures} == {"H(0)"}


# -- the dense composition the homotopy model used to do, kept as an oracle --

def _dense_compose_low(outer, inner):
    """outer after inner on every low id, reading an absent id as {}."""
    return {i: outer.apply_col(inner.low.get(i, {}))
            for i in outer.model.low_ids}


class TestSparseCompose:
    """``HOperator.compose`` walks the inner operator's stored columns only."""

    @pytest.mark.parametrize("make, word_bound, lam1_overflows", [
        (lambda: rose_fock(2, 4), 3, True), (a2_fock, 3, False),
        (lambda: rose_fock(2, 4), 1, True), (lambda: rose_fock(2, 4), 2, True),
        (a2_fock, 1, True),
    ], ids=["rose2", "a2", "rose2-bound1", "rose2-bound2", "a2-bound1"])
    def test_matches_dense_compose_on_homotopy_parts(self, make, word_bound,
                                                     lam1_overflows):
        # OVERFLOW columns of lam1 must reach the composite exactly where
        # the dense composition puts them
        from pimsner.fock import OVERFLOW
        fk = make()
        model = HomotopyModel(fk, word_bound)
        tokens = _basis_tokens(fk)
        assert lam1_overflows == any(
            col is OVERFLOW for token in tokens if token[0] != "r"
            for col in model.lam1(token).low.values())
        parts = [op for token in tokens
                 for op in homotopy_H(model, token).parts.values()]
        composed = overflows = 0
        for inner in parts:
            for outer in parts:
                try:
                    got = _by_key(model, outer.compose(inner).low)
                except RingError:
                    continue
                want = _by_key(model, _dense_compose_low(outer, inner))
                assert set(got) <= set(model.low_keys)
                for key in model.low_keys:
                    assert got.get(key, {}) == want[key], key
                composed += 1
                overflows += sum(col is OVERFLOW for col in want.values())
        assert composed
        assert (overflows > 0) == lam1_overflows


# -- the dense low-part comparison eq_report used to make, kept as an oracle --

def _dense_eq_report(a, b, tag=""):
    """Compare the low parts of a and b on every low id of the model."""
    report = CheckReport("dense")
    for i in a.model.low_ids:
        ca = a.low.get(i, {})
        cb = b.low.get(i, {})
        if ca is OVERFLOW or cb is OVERFLOW:
            report.skipped += 1
            continue
        report.checked += 1
        if ca != cb:
            report.failures.append((tag, a.model._keys[i]))
    return report


class TestSparseEqReport:
    """``HOperator.eq_report`` compares only the low ids either side stores."""

    @pytest.mark.parametrize("make, word_bound, overflows", [
        (lambda: rose_fock(2, 4), 3, True), (a2_fock, 3, False),
        (lambda: rose_fock(2, 4), 1, True),
    ], ids=["rose2", "v-w", "rose2-bound1"])
    def test_matches_dense_walk_on_homotopy_parts(self, make, word_bound,
                                                  overflows):
        fk = make()
        model = HomotopyModel(fk, word_bound)
        parts = [op for token in _basis_tokens(fk)
                 for op in homotopy_H(model, token).parts.values()]
        # one part perturbed in two low columns: a stored one, and an id
        # it does not store, so the sparse walk must merge both sides
        base = next(op for op in parts if len(op.low) < len(model.low_ids)
                    and any(col and col is not OVERFLOW
                            for col in op.low.values()))
        low = dict(base.low)
        stored = next(i for i, col in low.items()
                      if col and col is not OVERFLOW)
        absent = next(i for i in model.low_ids if i not in low)
        low[stored] = vscale(fk.k, low[stored], 2)
        low[absent] = {absent: fk.k.one}
        parts.append(HOperator(model, low, None))
        failures = skipped = 0
        for a in parts:
            for b in parts:
                got = CheckReport("sparse")
                HOperator(model, a.low, None).eq_report(
                    HOperator(model, b.low, None), got, tag="t")
                want = _dense_eq_report(a, b, tag="t")
                assert (got.checked, got.skipped, got.failures) == \
                    (want.checked, want.skipped, want.failures)
                failures += len(want.failures)
                skipped += want.skipped
        assert failures and bool(skipped) == overflows
        got = CheckReport("perturbed")
        HOperator(model, base.low, None).eq_report(parts[-1], got, tag="p")
        assert got.failures == sorted(
            [("p", model._keys[stored]), ("p", model._keys[absent])],
            key=lambda failure: model._ids[failure[1]])


class TestOnePassWordOperator:
    """``word_operator`` builds a word only of tokens of known kinds."""

    def test_mixed_sides_are_refused(self):
        # a starred token names no kind, so a word holding one is refused
        fk = rose_fock(2, 3)
        with pytest.raises(RingError):
            word_operator(fk, [("x", {"e0": 1}), ("x*", {"e0": 1})], "pi0")


# -- the unclean operations the homotopy model used to make, kept as oracles:
# every column is stored, a zero one too --

def _unclean_low(op):
    """A low part that also stores every zero column of ``op`` ({})."""
    return {i: op.low.get(i, {}) for i in op.model.low_ids}


def _unclean_sum(k, lows_and_coeffs):
    """The sum of ``coeff * low``, scaling and adding every stored column."""
    out = {}
    for coeff, low in lows_and_coeffs:
        for i, col in low.items():
            col = col if col is OVERFLOW else vscale(k, col, coeff)
            if i not in out:
                out[i] = col
            elif out[i] is OVERFLOW or col is OVERFLOW:
                out[i] = OVERFLOW
            else:
                out[i] = vadd(k, out[i], col)
    return out


def _unclean_apply(outer, col):
    """``outer`` on one column, reading every source column through
    ``HOperator.column``: OVERFLOW if any of them overflows."""
    if col is OVERFLOW:
        return OVERFLOW
    k = outer.model.k
    out = {}
    for i, c in col.items():
        sub = outer.column(i)
        if sub is OVERFLOW:
            return OVERFLOW
        for j, c2 in sub.items():
            out[j] = k.add(out.get(j, k.zero), k.mul(c, c2))
    return vclean(k, out)


def _scale_and_add_at(poly, value):
    """``PolyOperator.at`` as it was: every part scaled and added, a part
    whose coefficient vanishes too."""
    k = poly.model.k
    pairs = [(k.coerce(value ** p if p else 1), op)
             for p, op in poly.parts.items()]
    high = None
    for coeff, op in pairs:
        if op.high is not None:
            h = op.high.scale(coeff)
            high = h if high is None else high + h
    return HOperator(poly.model, _unclean_sum(
        k, [(coeff, op.low) for coeff, op in pairs]), high)


def _zmod6_tokens(fk):
    # coefficients 2 and 3 are zero divisors mod 6
    return _basis_tokens(fk) + [("x", {"e0": 3}), ("phi", {("e1", "*"): 2})]


_CLEAN_MODELS = {
    "rose2": (lambda: rose_fock(2, 4), 3, _basis_tokens),
    "a2": (a2_fock, 3, _basis_tokens),
    "rank-one-QQ": (_rank_one_fock, 3, _basis_tokens),
    "zmod6": (lambda: rose_fock(2, 4, k=Zmod(6)), 3, _zmod6_tokens),
}


def _assert_clean(op):
    assert {} not in op.low.values()
    assert set(op.low) <= set(op.model.low_ids)


class TestCleanLowParts:
    """No low part stores a zero column; the values are those of the
    unclean operations."""

    @pytest.mark.parametrize("name", sorted(_CLEAN_MODELS))
    def test_parts_products_sums_scales_and_endpoints(self, name):
        make, word_bound, tokens_of = _CLEAN_MODELS[name]
        fk = make()
        model = HomotopyModel(fk, word_bound)
        k = fk.k
        Hs = [homotopy_H(model, token) for token in tokens_of(fk)]
        parts = [op for H in Hs for op in H.parts.values()]
        dropped = 0

        def check(got, want):
            # got is clean and holds want's nonzero columns
            nonlocal dropped
            _assert_clean(got)
            for i in model.low_ids:
                assert got.low.get(i, {}) == want.get(i, {}), model._keys[i]
            dropped += sum(col == {} for col in want.values())

        for a in parts:
            check(a, _unclean_low(a))
            for coeff in (0, 2, 3, -1):
                check(a.scale(coeff), _unclean_sum(k, [(coeff, a.low)]))
            for b in parts:
                check(a + b, _unclean_sum(k, [(1, a.low), (1, b.low)]))
                try:
                    got = a.compose(b)
                except RingError:
                    continue
                check(got, {i: _unclean_apply(a, col)
                            for i, col in _unclean_low(b).items()})
        for H in Hs:
            for value in (0, 1):
                check(H.at(value), _scale_and_add_at(H, value).low)
        assert dropped

    @pytest.mark.parametrize("name", sorted(_CLEAN_MODELS))
    def test_endpoints_match_scale_and_add_at(self, name):
        # at skips the columns of a part whose coefficient is zero, and
        # keeps its OVERFLOW ids: the endpoint accounting is unchanged, for
        # the true homotopy and for one whose lam1 parts are perturbed
        make, word_bound, tokens_of = _CLEAN_MODELS[name]
        fk = make()
        model = HomotopyModel(fk, word_bound)
        failing = 0
        for token in tokens_of(fk):
            H = homotopy_H(model, token)
            rhs = {0: model.pi_tensor(token, "pi0"),
                   1: model.pi_tensor(token, "pi0") if token[0] == "r"
                   else model.lam1(token) + model.pi_tensor(token, "pi1")}
            bent = fock_module.PolyOperator(model, {
                p: op.scale(3) if p % 2 else op for p, op in H.parts.items()})
            for poly in (H, bent):
                for value in (0, 1):
                    got, want = CheckReport("at"), CheckReport("oracle")
                    poly.at(value).eq_report(rhs[value], got, tag=value)
                    _scale_and_add_at(poly, value).eq_report(
                        rhs[value], want, tag=value)
                    assert (got.checked, got.skipped, got.failures) == \
                        (want.checked, want.skipped, want.failures)
                    failing += bool(got.failures)
        assert failing


class TestLiftOnce:
    """One low-part build reads each Fock column once."""

    @pytest.mark.parametrize("make", [lambda: rose_fock(2, 4), a2_fock,
                                      _rank_one_fock],
                             ids=["rose2", "a2", "rank-one-QQ"])
    def test_pi_tensor_reads_each_fock_key_once(self, make, monkeypatch):
        from collections import Counter
        fk = make()
        reads = Counter()
        real_column = FockOperator.column

        def counted(op, key):
            reads[id(op), key] += 1
            return real_column(op, key)

        monkeypatch.setattr(FockOperator, "column", counted)
        total = shared = 0
        for token in _basis_tokens(fk):
            for variant in ("pi0", "pi1"):
                model = HomotopyModel(fk, 3)
                reads.clear()
                low = model.pi_tensor(token, variant).low
                assert set(reads.values()) <= {1}
                total += len(reads)
                # more columns stored than read: words share their reads
                shared += len(reads) < len(low)
        assert total and shared


class TestWordMemo:
    """``ToeplitzAlgebra._word`` keeps the normal form of each word."""

    @pytest.mark.parametrize("make", [lambda: rose_fock(2, 4), a2_fock,
                                      _rank_one_fock, _cycle_fock],
                             ids=["rose2", "a2", "rank-one-QQ", "two-cycle"])
    def test_every_word_up_to_length_3(self, make):
        from itertools import product
        fk = make()
        talg = fk._talg
        xs, cs = fk.module.x_basis, fk.module.xp_basis
        words = [(p, c) for a in range(4) for b in range(4 - a) if a + b
                 for p in product(xs, repeat=a) for c in product(cs, repeat=b)]
        nonzero = 0
        for _ in range(2):          # a fresh memo, then a full one
            for p, c in words:
                got = talg._word(p, None, c)
                assert got == talg._normal_word(p, None, c), (p, c)
                assert talg._word(p, None, c) is got
                nonzero += bool(got)
        assert nonzero and len(talg._words) == len(words)

    def test_algebras_do_not_share_a_memo(self):
        # the same symbols name a surviving word in one quiver and a zero
        # one in the other
        meet = TruncatedFock(quiver_correspondence(parse_quiver(
            "vertices: a b\nedges:\n x: a -> a\n y: b -> a")), 3)
        miss = TruncatedFock(quiver_correspondence(parse_quiver(
            "vertices: a b\nedges:\n x: a -> a\n y: a -> b")), 3)
        word = (("x",), (("y", "*"),))
        assert meet._talg._word(*word[:1], None, *word[1:])
        assert miss._talg._word(*word[:1], None, *word[1:]) == {}
        assert meet._talg._words is not miss._talg._words


class TestModelWords:
    """The model's words are closed under scalar absorption and under the
    products that ``try_mul`` bounds, so interning a key adds no word."""

    @pytest.mark.parametrize("make", [lambda: rose_fock(2, 4), a2_fock,
                                      _cycle_fock],
                             ids=["rose2", "a2", "two-cycle"])
    def test_sweeps_add_no_word(self, make):
        fk = make()
        m, one = fk.module, fk.k.one
        model = HomotopyModel(fk, 3)
        built = list(model.words)
        assert built == model._enumerate_words()
        # the endpoint and pairing sweeps of ``pimsner verify``
        H = {tok: homotopy_H(model, (tok[0], {tok[1]: one}))
             for tok in [("x", b) for b in m.x_basis]
             + [("phi", c) for c in m.xp_basis]}
        reports = [homotopy_endpoints_check(model, (kind, {sym: one}), h)
                   for (kind, sym), h in H.items()]
        reports += [_endpoints(model, ("r", fk.ring.monomial(v)))
                    for v in fk.ring.basis]
        reports += [homotopy_pairing_check(model, {b: one}, {c: one},
                                           H["x", b], H["phi", c])
                    for b in m.x_basis for c in m.xp_basis]
        assert all(report.passed for report in reports)
        assert model.words == built


class TestDroppedLam1Column:
    """A lam1 part is seen at t = 1 and by the pairing, never at t = 0."""

    def test_endpoints_fail_at_one_only_and_pairing_fails(self, monkeypatch):
        fk = rose_fock(2, 4)
        model = HomotopyModel(fk, 3)
        tokens = {"x": ("x", {"e0": 1}), "phi": ("phi", {("e0", "*"): 1})}
        clean = {kind: _endpoints(model, tok)
                 for kind, tok in tokens.items()}
        assert all(report.passed for report in clean.values())
        real_lam1_low = HomotopyModel._lam1_low
        dropped = {}

        def drop_one(self, token):
            low = real_lam1_low(self, token)
            i = min(i for i, col in low.items() if col is not OVERFLOW)
            dropped[token[0]] = self._keys[i]
            return {j: col for j, col in low.items() if j != i}

        # a fresh model, so lam1 is built under the mutation; the checks'
        # right-hand sides then rebuild it unmutated
        model = HomotopyModel(fk, 3)
        with monkeypatch.context() as patch:
            patch.setattr(HomotopyModel, "_lam1_low", drop_one)
            H = {kind: homotopy_H(model, tok) for kind, tok in tokens.items()}
        model._lows.clear()
        for kind, tok in tokens.items():
            report = homotopy_endpoints_check(model, tok, H[kind])
            assert report.failures == [("H(1)", dropped[kind])]
            assert (report.checked, report.skipped) == \
                (clean[kind].checked, clean[kind].skipped)
        report = homotopy_pairing_check(model, {"e0": 1}, {("e0", "*"): 1},
                                        H_x=H["x"], H_phi=H["phi"])
        assert not report.passed
