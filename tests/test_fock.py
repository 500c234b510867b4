"""Tests for truncated Fock operators, defects, and the rotational homotopy."""

import random
import re
from collections import Counter
from functools import reduce

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
    ToeplitzAlgebra,
    TruncatedFock,
    _Leaf,
    covariant_check,
    check_p0_form,
    homotopy_H,
    homotopy_endpoints_check,
    homotopy_pairing_check,
    linear_combination,
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
    vclean,
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


def _defect(fk, tokens):
    """The defect of a generator word, its returned terms summed, and its
    infos."""
    terms, infos = quasi_hom_defect(fk, tokens)
    return linear_combination(fk, terms), infos


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

    def test_a_generator_that_is_no_partial_map_is_refused(
            self, monkeypatch):
        # a leaf holds one coefficient-one key per column: a column of two
        # keys, or of coefficient two, names the generator and the key
        for col in (lambda t: {t: 1, ("bogus",) + t[1:]: 1},
                    lambda t: {t: 2}):
            fk = rose_fock(2, 3)
            for d in range(4):
                fk.basis(d)
            monkeypatch.setattr(fk.module, "prepend_normal",
                                lambda b, t, col=col: col((b,) + t))
            with pytest.raises(RingError, match=re.escape(
                    "('x', 'e0') is not a partial map of basis keys: its "
                    "column at (1, ('e0',))")):
                fk.token_op(("x", {"e0": 1}))
        # a scaled token is a coefficient on its leaf's word
        fk = rose_fock(2, 3)
        op = fk.token_op(("x", {"e0": 2, "e1": 1}))
        assert op.column((1, ("e1",))) == {(2, ("e0", "e1")): 2,
                                            (2, ("e1", "e1")): 1}

    def test_a_two_key_column_is_named_with_its_degrees(self, monkeypatch):
        # a leaf reads a column as tuples of the shifted degree; the error
        # still names the generator and the degree-keyed column
        fk = rose_fock(2, 3)
        for d in range(4):
            fk.basis(d)
        monkeypatch.setattr(fk.module, "prepend_normal", lambda b, t: {
            (b,) + t: 1, ("bogus",) + t: 1})
        with pytest.raises(RingError, match=re.escape(
                "generator ('x', 'e0') is not a partial map of basis keys: "
                "its column at (1, ('e0',)) is {(2, ('e0', 'e0')): 1, "
                "(2, ('bogus', 'e0')): 1}")):
            fk.token_op(("x", {"e0": 1}))
        # an annihilation lands in degree 0 on a ring element of two terms
        fk = a2_fock(3)
        ring, real_pair = fk.ring, fk.module.pair
        monkeypatch.setattr(fk.module, "pair", lambda p, x: real_pair(p, x)
                            + ring.monomial("v"))
        with pytest.raises(RingError, match=re.escape(
                "generator ('phi', ('e', '*')) is not a partial map of basis "
                "keys: its column at (1, ('e',)) is {(0, ('w',)): 1, "
                "(0, ('v',)): 1}")):
            fk.token_op(("phi", {("e", "*"): 1}))

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


# -- hand-written one-leaf operators, whose leaves the term-sum shortcut
# -- must not read

class _RaisingLeaf:
    """A leaf whose index lists raise when read."""

    @property
    def img(self):
        raise AssertionError("a leaf was read")

    live = out = img


_raising_leaf = _RaisingLeaf()


def _leaf_operator(fk, leaf, covered, outs):
    """The one-leaf word of a hand-written leaf; ``outs`` maps a covered
    degree to its target degrees, stored as a bitmask."""
    return FockOperator(fk, {(leaf,): fk.k.one},
                        {d: sum(1 << e for e in outs[d]) for d in covered})


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


class TestTermSumShortcut:
    """``eq_on`` reads no leaf when both operators' terms are equal, and
    each leaf reads each basis key's column once, however many words and
    comparisons use it."""

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
        # different sums read the leaves
        with pytest.raises(AssertionError, match="leaf was read"):
            a.eq_on(a.scale(3), degrees)

    def test_coefficients_sum_in_the_ring(self):
        fk = rose_fock(2, 3, k=Zmod(6))
        a = _leaf_operator(fk, _raising_leaf, range(fk.depth),
                           {d: [d + 1] for d in range(fk.depth)})
        degrees = sorted(a.covered)
        assert (a.scale(3) + a.scale(3)).eq_on(fk.zero_op(), degrees)
        assert (a.scale(4) + a.scale(5)).eq_on(a.scale(3), degrees)

    def test_each_leaf_reads_each_key_once(self, monkeypatch):
        reads = Counter()
        real = TruncatedFock._column

        def counted(fk, kind, sym, key):
            reads[kind, sym, key] += 1
            return real(fk, kind, sym, key)

        monkeypatch.setattr(TruncatedFock, "_column", counted)
        fk = rose_fock(2, 4)
        x = fk.token_op(("x", {"e0": 1}))
        phi = fk.token_op(("phi", {("e0", "*"): 1}))
        v = fk.token_op(("r", fk.ring.monomial("v")))
        lhs = phi.compose(x)
        degrees = sorted(lhs.covered & v.covered)
        # S(e0*) T(e0) = sigma(v): other words, the same columns
        assert lhs.eq_on(v, degrees)
        # a perturbed coefficient still fails
        assert not lhs.eq_on(v.scale(2), degrees)
        assert not (lhs + x.scale(0)).eq_on(v.scale(-1), degrees)
        assert not lhs.eq_on(v + lhs, degrees)
        # many words, both variants, the suites and their defects
        assert covariant_check(fk).passed
        for tokens in ([("x", {"e0": 1}), ("phi", {("e1", "*"): 1})],
                       [("x", {"e1": 1}), ("x", {"e0": 1})],
                       [("phi", {("e0", "*"): 1})] * 2):
            quasi_hom_defect(fk, tokens)
            a, b = pi1(fk, tokens), pi1(fk, tokens[::-1])
            assert a.eq_on(b, sorted(a.covered & b.covered)) \
                == (tokens == tokens[::-1])
        # each key of each generator, read once: x below the top degree,
        # phi above the vacuum, the scalar everywhere
        keys = [sum(len(fk.basis(d)) for d in degrees)
                for degrees in (range(4), range(1, 5), range(5))]
        assert set(reads.values()) == {1}
        assert sorted(Counter(kind for kind, _, _ in reads).items()) == [
            ("phi", 2 * keys[1]), ("r", keys[2]), ("x", 2 * keys[0])]


class TestEqOnAgainstColumns:
    """``eq_on`` compares canonical forms on runs of degrees; it must
    agree with comparing every basis column through ``column``."""

    @staticmethod
    def random_sum(fk, pool, rng):
        """A sum of one to three random words of one to three tokens, each
        scaled by a coefficient that can vanish over Z/6."""
        op = fk.zero_op()
        for _ in range(rng.randint(1, 3)):
            tokens = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
            word = word_operator(fk, tokens, rng.choice(["pi0", "pi1"]))
            op = op + word.scale(rng.choice([1, 1, 2, 3, -1]))
        return op

    @staticmethod
    def end_of_run(fk, d):
        """T_p T_p* for the last basis key p of degree d: on degrees 0..d
        its only nonzero column is p's, the last index of the run."""
        (_, p) = fk.basis(d)[-1]
        xp = {c[0]: c for c in fk.module.xp_basis}
        return pi0(fk, [("x", {e: 1}) for e in p]
                   + [("phi", {xp[e]: 1}) for e in reversed(p)])

    @pytest.mark.parametrize("ring", ["z", "zmod6"])
    @pytest.mark.parametrize("index", range(3),
                             ids=["rose2", "a2", "two-cycle"])
    def test_random_sums_of_words(self, index, ring):
        case = pathspace_cases(f"small-{ring}")[index]
        fk, rng = case.fk, random.Random(3200 + index)
        outcomes = {True: 0, False: 0}

        def check(a, b, degrees):
            want = all(a.column(key) == b.column(key)
                       for d in degrees for key in fk.basis(d))
            assert a.eq_on(b, degrees) == want, degrees
            outcomes[want] += 1

        for _ in range(60):
            a = self.random_sum(fk, case.tokens, rng)
            b = rng.choice([self.random_sum(fk, case.tokens, rng),
                            a + self.random_sum(fk, case.tokens, rng),
                            a.scale(rng.choice([2, 3, 5]))])
            common = sorted(a.covered & b.covered)
            if not common:
                continue
            lo = rng.randrange(len(common))
            hi = rng.randrange(lo, len(common)) + 1
            for degrees in (common, common[lo:hi],
                            [d for d in common if rng.random() < 0.5]):
                check(a, b, degrees)
            # a difference only at the last index of a run of degrees
            d = rng.randint(1, fk.depth)
            if fk.basis(d):
                c = a + self.end_of_run(fk, d)
                if set(range(d + 1)) <= a.covered & c.covered:
                    check(a, c, list(range(d + 1)))
                    check(a, c, [d])
        assert min(outcomes.values()) >= 10, outcomes


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
        defect, infos = _defect(fk, [("x", {"e0": 1})])
        assert infos[0]["block"] == (1, 0)
        assert defect.column((0, ("v",))) == {(1, ("e0",)): 1}
        assert _support_blocks(fk, defect) == {(1, 0)}

    def test_scalar_defect(self):
        fk = rose_fock(2, 4)
        r = fk.ring.monomial("v").scale(2)
        defect, infos = _defect(fk, [("r", r)])
        assert infos[0]["block"] == (0, 0)
        assert defect.column((0, ("v",))) == {(0, ("v",)): 2}

    def test_annihilation_then_creation_reduces_to_scalar(self):
        fk = rose_fock(2, 4)
        tokens = [("phi", {("e0", "*"): 1}), ("x", {"e0": 1})]
        defect, infos = _defect(fk, tokens)
        assert [i["word"][0] for i in infos] == ["s"]
        assert defect.column((0, ("v",))) == {(0, ("v",)): 1}

    def test_mixed_word_block(self):
        fk = rose_fock(2, 5)
        tokens = [("x", {"e0": 1}), ("x", {"e1": 1}), ("phi", {("e0", "*"): 1})]
        defect, infos = _defect(fk, tokens)
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
        # pi1 of T_{e0*} sending the e0-paths of degree >= 3 to a wrong
        # key moves the defect off its block on the paths that start with
        # e0, which the check reads through the first leaf's live indices
        fk, phi = rose_fock(2, 4), ("phi", {("e0", "*"): 1})
        pi1_op, real = fk.token_op(phi, "pi1"), fk.token_op
        [(leaf,)] = pi1_op.terms
        img = list(leaf.img)
        for i, (d, t) in enumerate(fk._keys):
            if d >= 3 and t[0] == "e0":
                flip = "e1" if t[1] == "e0" else "e0"
                img[i] = fk._index[d - 1, (flip,) + t[2:]]
        wrong = FockOperator(fk, {(_Leaf(img, leaf.live),): 1}, pi1_op.outs)
        monkeypatch.setattr(fk, "token_op", lambda token, variant="pi0": (
            wrong if (token, variant) == (phi, "pi1")
            else real(token, variant)))
        for tokens in ([phi], [("x", {"e1": 1}), phi]):
            with pytest.raises(InvariantViolation,
                               match="escapes its block at degree 3"):
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
            d12, _ = _defect(fk, t1 + t2)
            d1, _ = _defect(fk, t1)
            d2, _ = _defect(fk, t2)
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
        fk = rose_fock(2, 4)
        model = HomotopyModel(fk, 3)
        lhs = homotopy_H(model, ("phi", {("e1", "*"): 1})).compose(
            homotopy_H(model, ("x", {"e0": 1})))
        defined = 0
        for p in sorted(_powers(lhs)):
            for key, col in _low_columns(model, lhs, p).items():
                assert col is None, (p, key, col)
            defined += sum(lhs.column(i, p) is not None
                           for i in model.low_ids)
        assert defined

    def test_pairing_rank_one_module(self):
        model = HomotopyModel(_rank_one_fock(), 3)
        rep = _pairing(model, {"e0": 1}, {("e0", "*"): 1})
        assert rep.passed

    def test_perturbed_coefficients_fail(self, monkeypatch):
        # replacing 2t - t^3 by t breaks pairing preservation
        fk = rose_fock(2, 4)
        model = HomotopyModel(fk, 3)
        assert _pairing(model, {"e0": 1}, {("e0", "*"): 1}).passed
        monkeypatch.setitem(fock_module._ROTATION, "x",
                            (fock_module._ROTATION["x"][0], {1: 1}))
        assert not _pairing(model, {"e0": 1}, {("e0", "*"): 1}).passed

    def test_pairing_check_fails_on_doubled_lam1(self, monkeypatch):
        fk = rose_fock(2, 4)
        model = HomotopyModel(fk, 3)
        xvec, pvec = {"e0": 1}, {("e0", "*"): 1}
        report = _pairing(model, xvec, pvec)
        assert report.passed
        assert report.checked == 724
        real_lam1 = model.lam1

        def doubled(token):
            lam1 = real_lam1(token)
            return lam1 + lam1

        monkeypatch.setattr(model, "lam1", doubled)
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
        # phi after x keeps a tensor part: a report counts degrees 2..4
        report = CheckReport("tensor part")
        phi.compose(x).eq_report(phi.compose(x), report, "t")
        assert report.passed
        assert report.checked + report.skipped == \
            len(model.low_ids) + fk.depth - 1

    def test_H_multiplicative_on_bimodule_relations(self):
        # H(T_{r.x}) = H(r) H(T_x) and H(T_{x.r}) = H(T_x) H(r), per power
        fk = rose_fock(2, 4)
        model = HomotopyModel(fk, 3)
        m = fk.module
        r = fk.ring.monomial("v")
        for b in m.x_basis:
            lhs = homotopy_H(model, ("x", m.act_left(r, {b: 1})))
            rhs = homotopy_H(model, ("r", r)).compose(
                homotopy_H(model, ("x", {b: 1})))
            rep = CheckReport("left-law")
            for p in sorted(_powers(lhs) | _powers(rhs)):
                lhs.eq_report(rhs, rep, ("left", b), p)
            assert rep.passed
            lhs = homotopy_H(model, ("x", m.act_right({b: 1}, r)))
            rhs = homotopy_H(model, ("x", {b: 1})).compose(
                homotopy_H(model, ("r", r)))
            rep = CheckReport("right-law")
            for p in sorted(_powers(lhs) | _powers(rhs)):
                lhs.eq_report(rhs, rep, ("right", b), p)
            assert rep.passed

    def test_endpoints_fail_on_perturbed_scalar_column(self):
        # a scalar token's homotopy must be constant: a t^1 word that moves
        # one column breaks H(1) = r . id while H(0) still holds
        fk = rose_fock(2, 4)
        model = HomotopyModel(fk, 3)
        token = ("r", fk.ring.monomial("v"))
        assert _endpoints(model, token).passed
        key, i = model.c0_keys[0], model.low_ids[0]
        moved = fock_module._Block("a t^1 perturbation", [(i, i)], None,
                                   model._info)
        H = homotopy_H(model, token) + HOperator(model, {(moved,): {1: 1}},
                                                 None)
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

    def test_the_zero_scalar_reads_no_fock_column(self, monkeypatch):
        # a pairing row with <phi, x> = 0 compares with the zero scalar,
        # which has no word; its tensor part keeps the row's counts
        fk = rose_fock(2, 4)
        model = HomotopyModel(fk, 3)
        reads = []
        real_column = FockOperator.column

        def counted(op, key):
            reads.append(key)
            return real_column(op, key)

        with monkeypatch.context() as patch:
            patch.setattr(FockOperator, "column", counted)
            zero = model.pi_tensor(("r", fk.ring.zero()), "pi0")
            report = CheckReport("zero")
            zero.eq_report(zero, report, "z")
        assert reads == []
        assert (report.checked, report.skipped) == \
            (len(model.low_ids) + fk.depth - 1, 0)
        # the counts of the parent's rows, zero and nonzero pairings alike
        for e, f in [("e0", "e1"), ("e1", "e0"), ("e0", "e0")]:
            report = _pairing(model, {e: 1}, {(f, "*"): 1})
            assert (report.checked, report.skipped, report.passed) == \
                (724, 161, True)


# -- low columns by model key; the powers of an operator's words --

def _low_columns(model, op, power=0):
    """The low columns of ``op`` at t^power that are not zero, by model
    key: None where undefined, else a vector over model keys."""
    out = {}
    for i in model.low_ids:
        col = op.column(i, power)
        if col is None or col:
            out[model._keys[i]] = None if col is None else {
                model._keys[j]: c for j, c in col.items()}
    return out


def _powers(op):
    return set().union(*op.terms.values())


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

    def assert_low_equal(self, model, op, want):
        got = _low_columns(model, op)
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
                    model, model.pi_tensor(token, variant),
                    _oracle_pi_tensor_low(model, token, variant))
            kind, payload = token
            if kind == "x":
                want = _oracle_lam0_x(model, payload)
            elif kind == "phi":
                want = _oracle_lam0_phi(model, payload)
            else:
                continue
            lam0 = model.lam0(token)
            # no tensor part: a report counts the low ids only
            report = CheckReport("lam0")
            lam0.eq_report(lam0, report, "t")
            assert report.checked + report.skipped == len(model.low_ids)
            self.assert_low_equal(model, lam0, want)

    def test_two_symbol_payloads(self):
        fk = rose_fock(2, 4)
        model = HomotopyModel(fk, 3)
        for token in [("x", {"e0": 1, "e1": 2}),
                      ("phi", {("e0", "*"): 3, ("e1", "*"): -1}),
                      ("r", fk.ring.monomial("v").scale(5))]:
            for variant in ("pi0", "pi1"):
                self.assert_low_equal(
                    model, model.pi_tensor(token, variant),
                    _oracle_pi_tensor_low(model, token, variant))

    def test_pi1_creation_of_another_edge_fails_endpoint_zero(
            self, monkeypatch):
        # pi_tensor reads token_op, so a wrong pi1 creation shows at H(0)
        # alone (H(1) reads the same pi1); a hand-derived low part would
        # ignore it.  A model builds its blocks once, so the patched one is
        # a new model
        fk = rose_fock(2, 4)
        token = ("x", {"e0": 1})
        assert _endpoints(HomotopyModel(fk, 3), token).passed
        real_token_op = fk.token_op
        other = {"e0": "e1", "e1": "e0"}

        def swapped(tok, variant="pi0"):
            if tok[0] == "x" and variant == "pi1":
                tok = ("x", {other[e]: c for e, c in tok[1].items()})
            return real_token_op(tok, variant)

        monkeypatch.setattr(fk, "token_op", swapped)
        report = _endpoints(HomotopyModel(fk, 3), token)
        assert not report.passed
        assert {tag for tag, _ in report.failures} == {"H(0)"}

    def test_a_block_that_is_no_partial_map_is_refused(self, monkeypatch):
        # a lift of two model keys, or of coefficient 2, is no partial map
        # of model ids; the error names the block and the key
        fk = rose_fock(2, 4)
        model = HomotopyModel(fk, 3)
        real_make_key = model.make_key

        def two_keys(n, tup, wk):
            return {**real_make_key(n, tup, wk), (n, tup, ("s", "v")): 1}

        monkeypatch.setattr(model, "make_key", two_keys)
        with pytest.raises(RingError, match=r"the pi0 block of \('x', 'e0'\)"
                           r" is not a partial map of model ids: its column "
                           r"at \(\(1, \('e0',\)\), "):
            model.pi_tensor(("x", {"e0": 1}), "pi0")

        def doubled(n, tup, wk):
            return {key: 2 for key in real_make_key(n, tup, wk)}

        monkeypatch.setattr(model, "make_key", doubled)
        with pytest.raises(RingError, match=r"the pi1 block of \('x', 'e1'\)"
                           r" is not a partial map .*: 2\}"):
            model.pi_tensor(("x", {"e1": 1}), "pi1")
        # a scaled generator is refused too: its column has coefficient 2
        monkeypatch.setattr(model, "make_key", real_make_key)
        real_token_op = fk.token_op
        monkeypatch.setattr(fk, "token_op", lambda tok, variant="pi0":
                            real_token_op(tok, variant).scale(2))
        with pytest.raises(RingError, match=r"the pi0 block of \('phi', "
                           r"\('e0', '\*'\)\) is not a partial map .*: 2\}"):
            model.pi_tensor(("phi", {("e0", "*"): 1}), "pi0")


# -- the composition word pair by word pair, kept as an oracle --

def _word_images(model, word):
    """Each live id of the word's first block with its image through every
    later block, carried pair by pair as ``HOperator._grouped`` would
    without its pruning: a model id, OVERFLOW, or None for zero."""
    out = {}
    for i, j in word[0].live:
        for block in word[1:]:
            if j is None or j is fock_module.OVERFLOW:
                break
            j = block.img[j] if j in block.img else model._reach(block, j)
        out[i] = j
    return out


def _dense_compose_low(outer, inner, power):
    """outer after inner at t^power, on every low id: the sum over each
    word w2 of inner and w1 of outer of the image of w2 then w1 (see
    ``_word_images``), times the sum of c1 * c2 over the powers p1 of w1
    and p2 of w2 with p1 + p2 = power.  A pair that leaves the word bound
    or the truncation at an id undefines the sum there, whether its
    coefficient vanishes or not."""
    model = outer.model
    k = model.k
    out = {}
    for w2, q2 in inner.terms.items():
        for w1, q1 in outer.terms.items():
            cs = [k.mul(q1[power - p2], c2) for p2, c2 in q2.items()
                  if power - p2 in q1]
            if not cs:
                continue
            c = reduce(k.add, cs, k.zero)
            for i, j in _word_images(model, w2 + w1).items():
                if j is fock_module.OVERFLOW:
                    out[i] = None
                elif j is not None and out.get(i, {}) is not None:
                    total = out.setdefault(i, {})
                    total[j] = k.add(total.get(j, k.zero), c)
    return {i: col if col is None else vclean(k, col)
            for i, col in out.items()}


class TestSparseCompose:
    """``HOperator.compose`` concatenates words; its columns are those of
    the dense composition, OVERFLOW included."""

    @pytest.mark.parametrize("make, word_bound, lam1_overflows", [
        (lambda: rose_fock(2, 4), 3, True), (a2_fock, 3, False),
        (lambda: rose_fock(2, 4), 1, True), (lambda: rose_fock(2, 4), 2, True),
        (a2_fock, 1, True),
    ], ids=["rose2", "a2", "rose2-bound1", "rose2-bound2", "a2-bound1"])
    def test_matches_dense_compose_on_homotopy_parts(self, make, word_bound,
                                                     lam1_overflows):
        # undefined columns of lam1 must reach the composite exactly where
        # the dense composition puts them
        fk = make()
        model = HomotopyModel(fk, word_bound)
        tokens = _basis_tokens(fk)
        assert lam1_overflows == any(
            model.lam1(token).column(i, 0) is None
            for token in tokens if token[0] != "r" for i in model.low_ids)
        Hs = [homotopy_H(model, token) for token in tokens]
        composed = overflows = 0
        for inner in Hs:
            for outer in Hs:
                try:
                    got = outer.compose(inner)
                except RingError:
                    continue
                for p in range(7):
                    want = _dense_compose_low(outer, inner, p)
                    for i in model.low_ids:
                        assert got.column(i, p) == want.get(i, {}), \
                            (p, model._keys[i])
                    overflows += sum(col is None for col in want.values())
                composed += 1
        assert composed
        assert (overflows > 0) == lam1_overflows


# -- the dense low-part comparison eq_report used to make, kept as an oracle --

def _dense_eq_report(model, column_a, column_b, tag=""):
    """Compare two low parts on every low id of the model; each is given
    as a function from a low id to its column."""
    report = CheckReport("dense")
    for i in model.low_ids:
        ca, cb = column_a(i), column_b(i)
        if ca is None or cb is None:
            report.skipped += 1
            continue
        report.checked += 1
        if ca != cb:
            report.failures.append((tag, model._keys[i]))
    return report


class TestSparseEqReport:
    """``HOperator.eq_report`` reads only the low ids where either side is
    not zero, and no column of equal groups."""

    @pytest.mark.parametrize("make, word_bound, overflows", [
        (lambda: rose_fock(2, 4), 3, True), (a2_fock, 3, False),
        (lambda: rose_fock(2, 4), 1, True),
    ], ids=["rose2", "v-w", "rose2-bound1"])
    def test_matches_dense_walk_on_homotopy_parts(self, make, word_bound,
                                                  overflows):
        fk = make()
        model = HomotopyModel(fk, word_bound)
        tokens = _basis_tokens(fk)
        # the homotopies' words without their tensor parts, and lam0, lam1
        parts = [HOperator(model, homotopy_H(model, token).terms, None)
                 for token in tokens]
        parts += [lam(token) for token in tokens if token[0] != "r"
                  for lam in (model.lam0, model.lam1)]
        # one part perturbed in two low columns: one it does not send to
        # zero, and one it does, so the sparse walk must merge both sides
        base = next(op for op in parts
                    if any(op.column(i, 0) == {} for i in model.low_ids)
                    and any(op.column(i, 0) for i in model.low_ids))
        stored = next(i for i in model.low_ids if base.column(i, 0))
        absent = next(i for i in model.low_ids if base.column(i, 0) == {})
        target = next(iter(base.column(stored, 0)))
        bump = fock_module._Block("a perturbation",
                                  [(stored, target), (absent, absent)], None,
                                  model._info)
        parts.append(base + HOperator(model, {(bump,): {0: fk.k.one}}, None))
        failures = skipped = 0
        for a in parts:
            for b in parts:
                for p in range(4):
                    got = CheckReport("sparse")
                    a.eq_report(b, got, "t", p)
                    want = _dense_eq_report(
                        model, lambda i: a.column(i, p),
                        lambda i: b.column(i, p), tag="t")
                    assert (got.checked, got.skipped, got.failures) == \
                        (want.checked, want.skipped, want.failures)
                    failures += len(want.failures)
                    skipped += want.skipped
        assert failures and bool(skipped) == overflows
        got = CheckReport("perturbed")
        base.eq_report(parts[-1], got, tag="p")
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


# -- the scaled sums of the columns, power by power, kept as oracles --

def _at_oracle(op, value):
    """The low columns of ``op`` at t = value, on each low id where some
    power is not zero: the sum of value^p times its t^p column, undefined
    where any power's column is."""
    k = op.model.k
    out = {}
    for i in op.model.low_ids:
        cols = [(p, op.column(i, p)) for p in sorted(_powers(op))]
        if all(col == {} for _, col in cols):
            continue
        total = {}
        for p, col in cols:
            if col is None:
                total = None
                break
            for j, c in col.items():
                total[j] = k.add(total.get(j, k.zero),
                                 k.mul(k.coerce(value ** p), c))
        out[i] = None if total is None else vclean(k, total)
    return out


def _sum_oracle(a, b, power):
    """The low columns of a + b at t^power, on each low id where a or b is
    not zero: their sum, undefined where either is."""
    k = a.model.k
    out = {}
    for i in a.model.low_ids:
        ca, cb = a.column(i, power), b.column(i, power)
        if ca == {} and cb == {}:
            continue
        out[i] = None if ca is None or cb is None else vclean(k, {
            j: k.add(ca.get(j, k.zero), cb.get(j, k.zero))
            for j in ca.keys() | cb.keys()})
    return out


def _zmod6_tokens(fk):
    # coefficients 2 and 3 are zero divisors mod 6
    return _basis_tokens(fk) + [("x", {"e0": 3}), ("phi", {("e1", "*"): 2})]


_CLEAN_MODELS = {
    "rose2": (lambda: rose_fock(2, 4), 3, _basis_tokens),
    "a2": (a2_fock, 3, _basis_tokens),
    "rank-one-QQ": (_rank_one_fock, 3, _basis_tokens),
    "zmod6": (lambda: rose_fock(2, 4, k=Zmod(6)), 3, _zmod6_tokens),
}

# the rotation with its odd powers tripled: over Z/6, 2t becomes 0 . t
_BENT_ROTATION = {"x": ({0: 1, 2: -1}, {1: 6, 3: -3}),
                  "phi": ({0: 1, 2: -1}, {1: 3})}


class TestCleanLowParts:
    """Every column read is clean, and equals the oracle's: a sum, a
    composite and a value of t, columns that vanish included."""

    @pytest.mark.parametrize("name", sorted(_CLEAN_MODELS))
    def test_parts_products_sums_scales_and_endpoints(self, name):
        make, word_bound, tokens_of = _CLEAN_MODELS[name]
        fk = make()
        model = HomotopyModel(fk, word_bound)
        Hs = [homotopy_H(model, token) for token in tokens_of(fk)]
        dropped = 0

        def check(got, want, power):
            # got is clean and equals want, where want drops nothing
            nonlocal dropped
            for i in model.low_ids:
                col = got.column(i, power)
                assert col is None or all(col.values())
                assert col == want.get(i, {}), (power, model._keys[i])
            dropped += sum(col == {} for col in want.values())

        for a in Hs:
            # t = 2 and t = 3 scale the parts by zero divisors over Z/6
            for value in (0, 1, 2, 3, -1):
                check(a.at(value), _at_oracle(a, value), 0)
            for b in Hs:
                for p in range(4):
                    check(a + b, _sum_oracle(a, b, p), p)
        # over Z/6 the lam1 word of H(3 T_e0) has coefficient 3 * 2 = 0 at
        # t^1 and still leaves the bound, also inside a composite
        for a in Hs:
            for b in Hs:
                try:
                    got = a.compose(b)
                except RingError:
                    continue
                for p in range(7):
                    check(got, _dense_compose_low(a, b, p), p)
        assert dropped

    @pytest.mark.parametrize("name", sorted(_CLEAN_MODELS))
    def test_endpoints_match_scale_and_add_at(self, name, monkeypatch):
        # at keeps the OVERFLOW ids of a word whose coefficient is zero:
        # the endpoint accounting is that of the columns scaled and added
        # power by power, for the true homotopy and for one whose odd
        # powers are tripled, where 2t vanishes over Z/6
        make, word_bound, tokens_of = _CLEAN_MODELS[name]
        fk = make()
        model = HomotopyModel(fk, word_bound)
        tokens = tokens_of(fk)
        Hs = [homotopy_H(model, token) for token in tokens]
        with monkeypatch.context() as patch:
            for kind, rotation in _BENT_ROTATION.items():
                patch.setitem(fock_module._ROTATION, kind, rotation)
            bent = [homotopy_H(model, token) for token in tokens]
        failing = 0
        for token, H, B in zip(tokens, Hs, bent):
            rhs = {0: model.pi_tensor(token, "pi0"),
                   1: model.pi_tensor(token, "pi0") if token[0] == "r"
                   else model.lam1(token) + model.pi_tensor(token, "pi1")}
            for poly in (H, B):
                for value in (0, 1):
                    got = CheckReport("at")
                    poly.at(value).eq_report(rhs[value], got, tag=value)
                    # the tensor parts count as rhs's against itself
                    tensor = CheckReport("tensor")
                    rhs[value].eq_report(rhs[value], tensor, tag=value)
                    column = rhs[value].column
                    low = _dense_eq_report(model, lambda i: column(i, 0),
                                           lambda i: column(i, 0))
                    cols = _at_oracle(poly, value)
                    want = _dense_eq_report(model, lambda i: cols.get(i, {}),
                                            lambda i: column(i, 0), value)
                    assert (got.checked, got.skipped, got.failures) == (
                        want.checked + tensor.checked - low.checked,
                        want.skipped + tensor.skipped - low.skipped,
                        want.failures)
                    failing += bool(got.failures)
        assert failing


class TestPrunedWords:
    """A composite word whose first block's images meet nothing its second
    block sends anywhere keeps its first block's OVERFLOW ids, and only
    those, at every power of t."""

    @pytest.mark.parametrize("k, want", [
        (ZZ, {1: 6, 3: -9, 5: 3}),
        # 3 * 2t vanishes over Z/6: the t^1 coefficient is zero
        (Zmod(6), {1: 0, 3: 3, 5: 3}),
    ], ids=["ZZ", "zmod6"])
    def test_lam1_then_lam0_keeps_its_overflow_ids(self, k, want):
        fk = rose_fock(2, 4, k=k)
        model = HomotopyModel(fk, 3)
        x, phi = ("x", {"e0": 3}), ("phi", {("e0", "*"): 1})
        lam1 = model._block("lam1", "x", "e0")
        lam0 = model._block("lam0", "phi", ("e0", "*"))
        # lam1 sends degree-0 ids to degree-0 ids, and lam0 maps degree 1
        assert not lam1.targets & lam0.sources
        assert all(lam0.img.get(j) is None for _, j in lam1.live
                   if j is not fock_module.OVERFLOW)
        undefined = [i for i, j in lam1.live if j is fock_module.OVERFLOW]
        assert undefined and len(undefined) < len(lam1.live)
        word = (lam1, lam0)
        poly = homotopy_H(model, phi).compose(homotopy_H(model, x)).terms[word]
        assert poly == want
        alone = HOperator(model, {word: poly}, None)
        for p in poly:
            assert {i: alone.column(i, p) for i in model.low_ids
                    if alone.column(i, p) != {}} == dict.fromkeys(undefined)


class TestLiftOnce:
    """One block build reads each Fock column once."""

    @pytest.mark.parametrize("make", [lambda: rose_fock(2, 4), a2_fock,
                                      _rank_one_fock],
                             ids=["rose2", "a2", "rank-one-QQ"])
    def test_pi_tensor_reads_each_fock_key_once(self, make, monkeypatch):
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
                op = model.pi_tensor(token, variant)
                assert set(reads.values()) <= {1}
                total += len(reads)
                # more columns than reads: words share their reads
                columns = sum(bool(op.column(i, 0)) for i in model.low_ids)
                shared += len(reads) < columns
        assert total and shared

    @pytest.mark.parametrize("make", [lambda: rose_fock(2, 4), a2_fock],
                             ids=["rose2", "a2"])
    def test_each_absorption_is_kept_per_support(self, make, monkeypatch):
        # a model key's word absorbs the ring element u that its tensor
        # part leaves on its right, which depends on u alone: one product
        # per vertex and word, whichever edge ends at the vertex
        fk = make()
        absorbed = Counter()
        real = ToeplitzAlgebra._scalar_times_word

        def counted(talg, relt, key):
            absorbed[tuple(relt.terms.items()), key] += 1
            return real(talg, relt, key)

        monkeypatch.setattr(ToeplitzAlgebra, "_scalar_times_word", counted)
        model = HomotopyModel(fk, 3)
        for token in _basis_tokens(fk):
            assert _endpoints(model, token).passed
        assert set(absorbed.values()) == {1}
        assert {u for u, _ in absorbed} == {((v, 1),) for v in fk.ring.basis}


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
    """A lam1 word is seen at t = 1 and by the pairing, never at t = 0."""

    def test_endpoints_fail_at_one_only_and_pairing_fails(self, monkeypatch):
        fk = rose_fock(2, 4)
        model = HomotopyModel(fk, 3)
        tokens = {"x": ("x", {"e0": 1}), "phi": ("phi", {("e0", "*"): 1})}
        clean = {kind: _endpoints(model, tok)
                 for kind, tok in tokens.items()}
        assert all(report.passed for report in clean.values())
        real_block = HomotopyModel._block
        dropped = {}

        def drop_one(self, role, kind, sym):
            # the lam1 block less its first image that is a model id; the
            # real block stays kept for the checks' right-hand sides
            block = real_block(self, role, kind, sym)
            if role != "lam1":
                return block
            i = next(i for i, j in block.live if isinstance(j, int))
            dropped[kind] = self._keys[i]
            return fock_module._Block(
                block.name, [pair for pair in block.live if pair[0] != i],
                None, self._info)

        model = HomotopyModel(fk, 3)
        with monkeypatch.context() as patch:
            patch.setattr(HomotopyModel, "_block", drop_one)
            H = {kind: homotopy_H(model, tok) for kind, tok in tokens.items()}
        for kind, tok in tokens.items():
            report = homotopy_endpoints_check(model, tok, H[kind])
            assert report.failures == [("H(1)", dropped[kind])]
            assert (report.checked, report.skipped) == \
                (clean[kind].checked, clean[kind].skipped)
        report = homotopy_pairing_check(model, {"e0": 1}, {("e0", "*"): 1},
                                        H_x=H["x"], H_phi=H["phi"])
        assert not report.passed


def _lam1_per_word(model, kind, sym):
    """The live pairs of lam1 of one basis symbol, one ``try_mul`` per
    degree-0 word: the loop that lam1 ran before it read supports."""
    one, talg = model.k.one, model.talg
    unit = (kind, model.ring.monomial(sym) if kind == "r" else {sym: one})
    gen = talg.from_tokens([unit])
    live = []
    for i, mkey in zip(model.low_ids, model.c0_keys):
        prod = talg.try_mul(gen, {mkey[2]: one}, model.word_bound)
        if prod is None:
            live.append((i, fock_module.OVERFLOW))
        elif prod:
            [(wk, c)] = prod.items()
            assert c == one
            live.append((i, model._ids[0, (), wk]))
    return live


class TestLam1PerSupport:
    """lam1 multiplies the generator by j(u) once per left support u of
    the degree-0 words and skips every word on a u it kills, which holds
    because j(u) . w == w."""

    @staticmethod
    def models(family):
        for case in pathspace_cases(family):
            fk = case.fk
            for bound in range(1, fk.depth + 1):
                yield HomotopyModel(fk, bound)

    @pytest.mark.parametrize("family", ["acceptance-z", "acceptance-zmod6",
                                        "small-z", "small-zmod6"])
    def test_every_lam1_block_is_the_per_word_products(self, family):
        # the 20 acceptance quivers at depth 3, and rose2, a2 and the
        # two-cycle at depth 4, at every word bound: live pairs and
        # OVERFLOW ids alike
        overflow = Counter()
        for model in self.models(family):
            m, ring = model.module, model.ring
            for kind, syms in [("x", m.x_basis), ("phi", m.xp_basis),
                               ("r", ring.basis)]:
                for sym in syms:
                    want = _lam1_per_word(model, kind, sym)
                    assert model._block("lam1", kind, sym).live == want, \
                        (kind, sym, model.word_bound)
                    overflow[any(j is fock_module.OVERFLOW
                                 for _, j in want)] += 1
        # bounds that overflow and bounds that do not
        assert overflow[True] and overflow[False]

    @pytest.mark.parametrize("family", ["acceptance-z", "acceptance-zmod6",
                                        "small-z", "small-zmod6"])
    def test_a_word_is_fixed_by_its_left_support(self, family):
        for model in self.models(family):
            talg, one = model.talg, model.k.one
            for wk in model.words:
                u = talg.scalar(talg.left_support(wk))
                assert talg.mul(u, {wk: one}) == {wk: one}, wk

    def test_a_support_the_generator_kills_costs_no_word_product(
            self, monkeypatch):
        # on a2 (e: v -> w) T_e kills j(v): the degree-0 words on v are
        # never multiplied
        model = HomotopyModel(a2_fock(), 2)
        on_v = {model.words[w] for _, w in model._sources[0, ("v",)]}
        assert on_v
        seen = []
        real = ToeplitzAlgebra.try_mul

        def counted(talg, e1, e2, max_len):
            seen.extend(e2)
            return real(talg, e1, e2, max_len)

        monkeypatch.setattr(ToeplitzAlgebra, "try_mul", counted)
        block = model._block("lam1", "x", "e")
        assert seen and not on_v & set(seen)
        assert block.live == _lam1_per_word(model, "x", "e")
