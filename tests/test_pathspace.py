"""The quiver Fock module against the path-space model of
``tests/pathspace.py``: covered degrees, target degrees (``outs``) and the
column at every basis key.  The cases are the 20 acceptance quivers at
depth 3 and rose2, a2 and the two-cycle at depth 4, over Z and Z/6, and
the rank-one module, rose1, over Q at depth 4.  ``j_ideal_generator``
builds the generators of the covariance ideal J_X that the Fock tests
share.
"""

import random
from functools import cache
from itertools import islice

import pytest

from pathspace import PathSpace
from pimsner.fock import (
    DepthError, TruncatedFock, check_p0_form, covariant_check,
    linear_combination, p0_compact_form, pi0, quasi_hom_defect,
    word_operator, word_tokens_of)
from pimsner.leavitt import Quiver, quiver_correspondence, rose
from pimsner.ringcore import QQ, ZZ, Zmod
from test_acceptance import acceptance_quivers

SMALL = [[("e0", "v", "v"), ("e1", "v", "v")], [("e", "v", "w")],
         [("e", "a", "b"), ("f", "b", "a")]]
FAMILIES = ["acceptance-z", "acceptance-zmod6", "small-z", "small-zmod6",
            "rank-one-q"]


class Case:
    """A Fock module and its model.  X symbols are edge names and ``xp``
    names the edge of an X' symbol.  ``tokens`` holds each basis symbol,
    all symbols with distinct coefficients, and zero, of every kind."""

    def __init__(self, fk, space, xp, quiver=None):
        self.fk, self.space, self.xp, self.quiver = fk, space, xp, quiver
        self.keys = [key for d in range(fk.depth + 1) for key in fk.basis(d)]
        ring, m = fk.ring, fk.module
        self.tokens = [
            (kind, vec if kind != "r" else sum(
                (ring.monomial(v).scale(c) for v, c in vec.items()),
                ring.zero()))
            for kind, basis in [("x", m.x_basis), ("phi", m.xp_basis),
                                ("r", ring.basis)]
            for vec in [{b: 1} for b in basis]
            + [{b: i + 2 for i, b in enumerate(basis)}, {}]]

    def token(self, token):
        kind, payload = token
        if kind == "r":
            return kind, dict(payload.terms)
        return kind, {self.xp(s) if kind == "phi" else s: c
                      for s, c in payload.items()}

    def word(self, tokens, variant="pi0"):
        return self.space.word([self.token(t) for t in tokens], variant)


def j_ideal_generator(xvecs, relt, pvecs, fock):
    """T_{x_1}..T_{x_n} (i.P0) T_{phi_1}..T_{phi_m}, a generator of the
    covariance ideal: a rank-one block operator whose only nonzero block
    sits at target degree n, source degree m."""
    n, m = len(xvecs), len(pvecs)
    if n > fock.depth or m > fock.depth:
        raise DepthError(
            f"generator block ({n},{m}) outside truncation range")
    op = p0_compact_form(relt, fock)
    for pvec in pvecs:
        op = op.compose(fock.token_op(("phi", pvec)))
    for xvec in reversed(xvecs):
        op = fock.token_op(("x", xvec)).compose(op)
    return op


@cache
def cases(family):
    quivers, _, ring = family.rpartition("-")
    k, depth = {"z": ZZ, "zmod6": Zmod(6), "q": QQ}[ring], 4
    if quivers == "acceptance":
        quivers, depth = acceptance_quivers(), 3
    elif quivers == "small":
        quivers = [Quiver(list(dict.fromkeys(
            v for e in edges for v in e[1:])), edges) for edges in SMALL]
    else:
        quivers = [rose(1)]
    return [Case(TruncatedFock(quiver_correspondence(q, k), depth),
                 PathSpace(q.vertices, [(e, q.s(e), q.r(e)) for e in q.edges],
                           depth, getattr(k, "modulus", None)),
                 lambda c: c[0], q) for q in quivers]


def assert_same(case, got, want, tag=""):
    """Assert that the Fock operator ``got`` and the model operator
    ``want`` have the same ``outs`` and columns; count the keys whose
    column is None and those whose column is nonzero."""
    outs = {d: {e for e in range(m.bit_length()) if m >> e & 1}
            for d, m in got.outs.items()}
    assert outs == want.outs, tag
    for key in case.keys:
        assert got.column(key) == want.column(key), (tag, key)
    return sum(key[0] not in want.outs for key in case.keys), len(want.cols)


@pytest.mark.parametrize("family", FAMILIES)
def test_graded_bases_and_token_columns(family):
    # every kind, with one-symbol, two-symbol and zero payloads
    for case in cases(family):
        counts = [len(paths) for paths in case.space.paths]
        for n, paths in enumerate(case.space.paths):
            assert set(case.fk.basis(n)) == set(paths)
        if case.quiver is not None:
            want = list(islice(case.quiver.path_counts(), len(counts)))
            assert counts == want + [0] * (len(counts) - len(want))
        for token in case.tokens:
            for variant in ("pi0", "pi1"):
                assert_same(case, case.fk.token_op(token, variant),
                            case.space.generator(*case.token(token), variant),
                            (token, variant))


def _expressions(a, b, c):
    return [a, a + b, a - b.scale(c), a.compose(b),
            (a + b).compose(b.scale(c)), b.compose(a - b).scale(c)]


def check_random_words(case, rng, rounds):
    """Compare ``rounds`` seeded random words, their sums, scales and
    composites under pi0 and pi1, and their defects, with the model;
    count the None and the nonzero columns compared."""
    fk, pool, talg = case.fk, case.tokens, case.fk._talg
    nones = nonzero = 0
    for _ in range(rounds):
        w1 = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        w2 = [rng.choice(pool) for _ in range(rng.randint(1, 2))]
        c = rng.choice([2, -1, 3])
        for variant in ("pi0", "pi1"):
            got = _expressions(word_operator(fk, w1, variant),
                               word_operator(fk, w2, variant), c)
            want = _expressions(case.word(w1, variant),
                                case.word(w2, variant), c)
            for g, w in zip(got, want):
                n, z = assert_same(case, g, w, (w1, w2, c))
                nones, nonzero = nones + n, nonzero + z
        # the normal form, evaluated in the model, against the word as
        # written on the degrees both cover: under pi0, and the defect,
        # the sum of coeff * (pi0 - pi1) over the normal words, since
        # pi1 respects the normal form too
        defect = linear_combination(fk, quasi_hom_defect(fk, w1)[0])
        raw = [case.word(w1, variant) for variant in ("pi0", "pi1")]
        normal = [case.space.zero(), case.space.zero()]
        for key, coeff in talg.from_tokens(w1).items():
            word = word_tokens_of(talg, key)
            normal = [op + case.word(word, variant).scale(coeff)
                      for op, variant in zip(normal, ("pi0", "pi1"))]
        assert_same(case, defect, normal[0] - normal[1], ("defect", w1))
        for got, want in [(normal[0], raw[0]),
                          (defect, raw[0] - raw[1])]:
            assert all(got.column(key) == want.column(key)
                       for key in case.keys
                       if key[0] in want.outs and key[0] in got.outs)
    return nones, nonzero


# rose2, a2 and the two-cycle over Z run one quiver per test, in
# test_fock.py's TestChaseAgainstClosures
@pytest.mark.parametrize("family", [f for f in FAMILIES if f != "small-z"])
def test_random_words_sums_scales_composites_and_defects(family):
    rng, nonzero = random.Random(29), 0
    for case in cases(family):
        rounds = 4 if family.startswith("acceptance") else 10
        nonzero += check_random_words(case, rng, rounds)[1]
    assert nonzero


@pytest.mark.parametrize("family", FAMILIES)
def test_normal_word_defects_and_the_keys_they_read(family):
    # the defect of a normal word p q* sits on block (|p|, |q|), and each
    # key where its pi0 or pi1 column is nonzero is among its first leaf's
    # live indices, which are all the suite reads
    for case in cases(family):
        fk, space = case.fk, case.space
        xp = {case.xp(c): c for c in fk.module.xp_basis}
        keys = sum(space.paths[:fk.depth], [])
        pairs = [(u, w) for u in keys for w in keys
                 if space.end(u) == space.end(w)
                 and 0 < u[0] + w[0] < fk.depth]
        for (a, p), (b, q) in pairs:
            p, q = p[:a], q[:b]     # a vertex is the empty path
            tokens = [("x", {e: 1}) for e in p] + [
                ("phi", {xp[e]: 1}) for e in reversed(q)]
            terms, infos = quasi_hom_defect(fk, tokens)
            defect = linear_combination(fk, terms)
            [wkey] = fk._talg.from_tokens(tokens)
            assert infos == [{"word": wkey, "block": (len(p), len(q))}]
            m0, m1 = case.word(tokens), case.word(tokens, "pi1")
            assert_same(case, defect, m0 - m1, (p, q))
            assert {(t[0], key[0]) for key, col in (m0 - m1).cols.items()
                    for t in col} == {(len(p), len(q))}
            [word] = pi0(fk, word_tokens_of(fk._talg, wkey)).terms
            read = {fk._keys[i] for i in word[0].live}
            assert {key for m in (m0, m1) for key in m.cols} <= read


@pytest.mark.parametrize("family", FAMILIES)
def test_covariance_identities(family):
    # the module's actions and pairing are the model's tables, both sides
    # of each identity of covariant_check are the model's and agree on the
    # degrees they both cover, and the check counts the model's skips
    for case in cases(family):
        fk, space, m, ring = case.fk, case.space, case.fk.module, case.fk.ring
        s, r, xp = space.source, space.range, case.xp
        rows = []   # kind, the module's combination, the model's, product
        for v in ring.basis:
            rv, tv = ring.monomial(v), ("r", ring.monomial(v))
            for b in m.x_basis:
                tb = ("x", {b: 1})
                rows += [("x", m.act_left(rv, {b: 1}), s[b] == v, b,
                          [tv, tb]),
                         ("x", m.act_right({b: 1}, rv), r[b] == v, b,
                          [tb, tv])]
            for c in m.xp_basis:
                tc, e = ("phi", {c: 1}), xp(c)
                rows += [("phi", m.act_xp_left(rv, {c: 1}), r[e] == v, e,
                          [tv, tc]),
                         ("phi", m.act_xp_right({c: 1}, rv), s[e] == v, e,
                          [tc, tv])]
        rows += [("r", m.pair({c: 1}, {b: 1}).terms, xp(c) == b, r[b],
                  [("phi", {c: 1}), ("x", {b: 1})])
                 for c in m.xp_basis for b in m.x_basis]
        skipped = 0
        for kind, vec, hit, sym, word in rows:
            mvec = {sym: 1} if hit else {}
            assert (vec if kind == "r" else case.token((kind, vec))[1]) == mvec
            combo, fk_combo = space.zero(), fk.zero_op()
            for y, c in mvec.items():
                combo += space.generator(kind, {y: c})
            for y, c in vec.items():
                fk_combo += fk.token_op(
                    (kind, ring.monomial(y) if kind == "r" else {y: 1})
                ).scale(c)
            product = case.word(word)
            assert_same(case, fk_combo, combo, word)
            assert_same(case, word_operator(fk, word, "pi0"), product, word)
            both = combo.outs.keys() & product.outs.keys()
            skipped += fk.depth + 1 - len(both)
            assert all(combo.column(key) == product.column(key)
                       for key in case.keys if key[0] in both), word
        report = covariant_check(fk)
        assert report.passed
        assert (report.checked, report.skipped) == (len(rows), skipped)


@pytest.mark.parametrize("family", FAMILIES)
def test_vacuum_compression_and_j_generators(family):
    rng = random.Random(31)
    for case in cases(family):
        fk, m = case.fk, case.fk.module
        for relt in [payload for kind, payload in case.tokens if kind == "r"]:
            op = p0_compact_form(relt, fk)
            want = case.space.compression(dict(relt.terms))
            assert_same(case, op, want, relt)
            # i . P0 is i on the vertices and zero above
            assert want.cols == {(0, (v,)): {(0, (v,)): c}
                                 for v, c in relt.terms.items()}
            assert check_p0_form(op, relt, fk, range(fk.depth + 1))
            for _ in range(3):
                xs, ps = ([(kind, {rng.choice(basis): 1})
                           for _ in range(rng.randint(0, 2))]
                          for kind, basis in [("x", m.x_basis),
                                              ("phi", m.xp_basis)])
                gen = j_ideal_generator([x for _, x in xs], relt,
                                        [p for _, p in ps], fk)
                mgen = case.word(xs).compose(want) if xs else want
                mgen = mgen.compose(case.word(ps)) if ps else mgen
                assert_same(case, gen, mgen, (xs, ps))
                assert {(t[0], key[0]) for key, col in mgen.cols.items()
                        for t in col} <= {(len(xs), len(ps))}
