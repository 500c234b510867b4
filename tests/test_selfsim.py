"""Tests for self-similar groups and the Nekrashevych correspondence."""

import json
import os
import random
import time
from collections import Counter
from itertools import product

import pytest

from pimsner.funcmod import check_functional_hom
from pimsner.leavitt import k_groups, rose
from pimsner.ringcore import QQ, ZZ
from pimsner.selfsim import (
    IDENTITY,
    SelfSimError,
    SelfSimilarGroup,
    build_nek_correspondence,
    nek_module,
    odometer,
    parse_selfsim,
    reduce_word,
    trivial_group,
    word_inv,
    word_mul,
)


POOL_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                         "data", "pool.json")


def to_bits(n, width):
    return "".join(str((n >> i) & 1) for i in range(width))


class TestAction:
    def test_identity_acts_trivially(self):
        g = odometer()
        assert g.act((), "0110") == "0110"

    def test_odometer_carries(self):
        g = odometer()
        a = g.gen_word("a")
        assert g.act(a, "11") == "00"
        assert g.act(a, "01") == "11"

    def test_odometer_is_binary_increment(self):
        g = odometer()
        a = g.gen_word("a")
        for width in range(1, 11):
            for n in range(2 ** width):
                got = g.act(a, to_bits(n, width))
                assert got == to_bits((n + 1) % 2 ** width, width)

    def test_length_preserving_bijection(self):
        g = odometer()
        a = g.gen_word("a")
        for n in range(1, 8):
            words = ["".join(w) for w in product("01", repeat=n)]
            images = {g.act(a, w) for w in words}
            assert len(images) == len(words)
            assert all(len(w) == n for w in images)


class TestRestriction:
    def test_identity_restriction(self):
        g = odometer()
        assert g.restriction((), "010") == ()

    def test_declared_table(self):
        g = odometer()
        a = g.gen_word("a")
        assert g.restriction(a, "1") == a
        assert g.restriction(a, "0") == ()

    def test_cocycle_expansion(self):
        # a^2|_1 = a|_{a(1)} . a|_1 = a|_0 . a|_1 = a
        g = odometer()
        a = g.gen_word("a")
        assert g.restriction(word_mul(a, a), "1") == a

    def test_self_similarity_identity(self):
        g = odometer()
        rng = random.Random(13)
        for _ in range(200):
            w = tuple((("a", rng.choice([1, -1]))) for _ in range(rng.randint(1, 4)))
            w = reduce_word(w)
            tail = "".join(rng.choice("01") for _ in range(rng.randint(0, 6)))
            for x in "01":
                lhs = g.act(w, x + tail)
                rhs = g.act(w, x) + g.act(g.restriction(w, x), tail)
                assert lhs == rhs

    def test_cocycle_random(self):
        g = odometer()
        rng = random.Random(29)
        for _ in range(100):
            w1 = reduce_word(tuple(("a", rng.choice([1, -1]))
                                   for _ in range(rng.randint(1, 3))))
            w2 = reduce_word(tuple(("a", rng.choice([1, -1]))
                                   for _ in range(rng.randint(1, 3))))
            for x in "01":
                lhs = g.restriction(word_mul(w1, w2), x)
                rhs = word_mul(g.restriction(w1, g.act(w2, x)),
                               g.restriction(w2, x))
                assert g.equal(lhs, rhs, 7)


class TestEquality:
    def test_reflexive(self):
        g = odometer()
        a = g.gen_word("a")
        assert g.equal(a, a, g.equality_depth)

    def test_square_differs(self):
        g = odometer()
        a = g.gen_word("a")
        assert not g.equal(word_mul(a, a), a, 3)

    def test_free_reduction(self):
        g = odometer()
        a = g.gen_word("a")
        assert g.equal(word_mul(a, word_inv(a)), (), g.equality_depth)

    def test_odometer_order_is_infinite_to_depth(self):
        g = odometer()
        a = g.gen_word("a")
        power = ()
        for _ in range(4):
            power = word_mul(power, a)
        # a^4 fixes words of length 2 but not length 3
        assert g.act(power, "00") == "00"
        assert g.act(power, "000") != "000"
        assert not g.equal(power, (), 3)


class TestNekPairing:
    """< x . g, y . h > = delta_{x,y} g^-1 h on the module's symbols."""

    def test_matching_letter_identity(self):
        g = odometer()
        m = nek_module(g, ZZ)
        a = g.canonical(g.gen_word("a"))
        assert m.pair({("xp", "0", a): 1}, {("x", "0", a): 1}) == \
            m.ring.monomial(IDENTITY)

    def test_mismatched_letters_vanish(self):
        g = odometer()
        m = nek_module(g, ZZ)
        a = g.canonical(g.gen_word("a"))
        assert m.pair({("xp", "0", a): 1}, {("x", "1", a): 1}).is_zero()

    def test_group_part_multiplies(self):
        g = odometer()
        m = nek_module(g, ZZ)
        a = g.gen_word("a")
        aa = g.canonical(word_mul(a, a))
        assert m.pair({("xp", "0", g.canonical(a)): 1}, {("x", "0", aa): 1}) \
            == m.ring.monomial(a)

    def test_pairing_balance_checker(self):
        from pimsner.funcmod import check_pairing_balance
        assert check_pairing_balance(nek_module(odometer(), ZZ))

    def test_bilinearity_and_bimodule_law(self):
        g = odometer()
        m = nek_module(g, ZZ)
        one = 1
        a = g.gen_word("a")
        x = ("x", "0", IDENTITY)
        c = ("xp", "0", IDENTITY)
        r = m.ring.monomial(g.canonical(a))
        # <r . phi, x> == r . <phi, x> and <phi, x . r> == <phi, x> . r
        lhs = m.pair(m.act_xp_left(r, {c: one}), {x: one})
        assert lhs == r * m.pair({c: one}, {x: one})
        rhs = m.pair({c: one}, m.act_right({x: one}, r))
        assert rhs == m.pair({c: one}, {x: one}) * r


class TestCorrespondence:
    def test_odometer_builds_and_verifies(self):
        corr = build_nek_correspondence(odometer(), ZZ)
        assert check_functional_hom(corr.hom)
        m, one = corr.module, 1
        # Delta(r) is adjointable for every generator r
        for r in map(corr.left_ring.monomial, corr.left_generator_symbols()):
            for c in m.xp_basis:
                for b in m.x_basis:
                    assert m.pair({c: one}, m.act_left(r, {b: one})) == \
                        m.pair(m.act_xp_right({c: one}, r), {b: one})
        assert corr.check_nondegenerate_action()

    def test_left_action_matrix_shape(self):
        g = odometer()
        corr = build_nek_correspondence(g, ZZ)
        a = g.gen_word("a")
        relt = corr.module.ring.monomial(g.canonical(a))
        op = corr.delta_compact(relt)
        # 2 x 2 matrix over the group ring with the swap pattern: the
        # term of letter y lands on a(y)
        assert sorted((b[1], c[1]) for x, p in op.terms
                      for b in x for c in p) == [("0", "1"), ("1", "0")]

    def test_left_module_law_sees_a_wrong_restriction(self, monkeypatch,
                                                       tmp_path, capsys):
        # the recursion says a|_1 = a; a restriction pass that reports
        # a|_1 = e builds a left module that the recursion does not have
        from pimsner.cli import main
        path = tmp_path / "odometer.ss"
        path.write_text(ODOMETER, encoding="utf-8")
        assert main(["selfsim", str(path)]) == 0
        real = SelfSimilarGroup.restrict_letter

        def wrong(self, word, x):
            if word == (("a", 1),) and x == "1":
                return IDENTITY
            return real(self, word, x)

        monkeypatch.setattr(SelfSimilarGroup, "restrict_letter", wrong)
        with pytest.raises(SelfSimError,
                           match="left-module law fails for a at 1"):
            build_nek_correspondence(odometer(), ZZ)
        capsys.readouterr()
        assert main(["selfsim", str(path)]) == 4
        assert "left-module law fails for a at 1" in capsys.readouterr().err

    def test_trivial_group_reduces_to_rank_d(self):
        for d in range(2, 5):
            corr = build_nek_correspondence(
                trivial_group([str(i) for i in range(d)]), ZZ)
            assert len(corr.module.x_basis) == d

    def test_bad_permutation_rejected(self):
        with pytest.raises(SelfSimError):
            SelfSimilarGroup(
                ["0", "1"], {"b": ({"0": "0", "1": "0"}, {})})

    def test_left_module_law_on_generators(self):
        g = odometer()
        corr = build_nek_correspondence(g, QQ)
        m = corr.module
        a = g.gen_word("a")
        relt = m.ring.monomial(g.canonical(a))
        # a . (0 . e) = a(0) . a|_0 = 1 . e
        assert m.act_left(relt, {("x", "0", IDENTITY): 1}) == \
            {("x", "1", IDENTITY): 1}
        # a . (1 . e) = 0 . a
        assert m.act_left(relt, {("x", "1", IDENTITY): 1}) == \
            {("x", "0", g.canonical(a)): 1}


class TestCrossPipeline:
    def test_trivial_group_matches_rose(self):
        from pimsner.abgroup import IntMatrix
        from pimsner.leavitt import _pipeline_report, field_presets
        for d in range(2, 6):
            rose_report, rose_segs = k_groups(rose(d))
            mat = IntMatrix.from_rows([[1 - d]])
            nek_report, nek_segs = _pipeline_report(
                mat, field_presets(ZZ),
                row_labels=["*"], col_labels=["*"])
            for n in (0, 1):
                for (rc, rseg), (nc, nseg) in zip(rose_segs[n], nek_segs[n]):
                    assert rseg.kernel == nseg.kernel
                    assert rseg.cokernel == nseg.cokernel
                    assert rseg.map_matrix == nseg.map_matrix


class TestParsing:
    def test_odometer_file(self):
        g = parse_selfsim("alphabet: 0 1\na = (perm 0 1)(e, a)\n")
        assert g.alphabet == ["0", "1"]
        assert g.act(g.gen_word("a"), "11") == "00"

    def test_depth_directive(self):
        g = parse_selfsim("alphabet: 0 1\ndepth: 5\na = (perm 0 1)(e, a)\n")
        assert g.equality_depth == 5

    def test_depth_argument_overrides_directive(self):
        g = parse_selfsim("alphabet: 0 1\ndepth: 5\na = (perm 0 1)(e, a)\n",
                          depth=3)
        assert g.equality_depth == 3

    def test_inverse_and_products_in_restrictions(self):
        text = """
        alphabet: 0 1
        a = (perm 0 1)(e, a)
        b = (a a^-1 b, e)
        """
        g = parse_selfsim(text)
        assert g.restriction_table["b"]["0"] == (("b", 1),)

    def test_unknown_generator_in_restriction(self):
        with pytest.raises(SelfSimError):
            parse_selfsim("alphabet: 0 1\na = (perm 0 1)(e, c)\n")

    def test_missing_alphabet(self):
        with pytest.raises(SelfSimError):
            parse_selfsim("a = (perm 0 1)(e, a)\n")

    def test_wrong_tuple_arity(self):
        with pytest.raises(SelfSimError) as err:
            parse_selfsim("alphabet: 0 1\na = (perm 0 1)(e, a, a)\n")
        assert err.value.line == 2

    @pytest.mark.parametrize("name", [
        "e", "1", "a b", "a*b", "a*", "a^-1", "",
    ])
    def test_generator_name_must_read_back(self, name):
        # a restriction entry naming the generator would parse as something
        # else: "1" as the identity, "a b" as two letters, "a^-1" inverted
        with pytest.raises(SelfSimError, match="bad generator name") as err:
            parse_selfsim(f"alphabet: 0 1\nb = (e, e)\n{name} = (e, b)\n")
        assert err.value.line == 3

    def test_generator_defined_twice(self):
        with pytest.raises(SelfSimError,
                           match="generator 'a' defined twice") as err:
            parse_selfsim("alphabet: 0 1\na = (perm 0 1)(e, a)\n"
                          "# a comment\na = (e, e)\n")
        assert err.value.line == 4


class TestGrigorchukStyleTwoGenerators:
    def test_lamplighter_style_relations(self):
        # b = (0 1)(e, b) and a = (0 1)(e, e) generate a group where the
        # recursion data stays consistent under the verification suites
        text = """
        alphabet: 0 1
        a = (perm 0 1)(e, e)
        b = (perm 0 1)(e, b)
        """
        g = parse_selfsim(text)
        corr = build_nek_correspondence(g, ZZ)
        rng = random.Random(4)
        for _ in range(100):
            w = reduce_word(tuple((rng.choice(["a", "b"]), rng.choice([1, -1]))
                                  for _ in range(3)))
            x = rng.choice("01")
            tail = "".join(rng.choice("01") for _ in range(4))
            assert g.act(w, x + tail) == \
                g.act(w, x) + g.act(g.restriction(w, x), tail)


GRIGORCHUK = """
alphabet: 0 1
a = (perm 0 1)(e, e)
b = (a, c)
c = (a, d)
d = (e, b)
"""
BASILICA = "alphabet: 0 1\na = (e, b)\nb = (perm 0 1)(e, a)\n"
ODOMETER = "alphabet: 0 1\na = (perm 0 1)(e, a)\n"
FLIP = "alphabet: 0 1\na = (perm 0 1)(a, a)\n"


def _reference_trivial(group, word, depth, memo):
    """The word problem by direct recursion on restrictions, with no
    section table: the implementation the node ids replaced."""
    if not word:
        return True
    if depth == 0:
        return False
    key = (word, depth)
    if key not in memo:
        memo[key] = (
            all(group.act_letter(word, x) == x for x in group.alphabet)
            and all(_reference_trivial(group, group.restrict_letter(word, x),
                                       depth - 1, memo)
                    for x in group.alphabet))
    return memo[key]


def _random_words(group, rng, count, max_length=12):
    words = []
    for _ in range(count):
        words.append(reduce_word(tuple(
            (rng.choice(group.generators), rng.choice([1, -1]))
            for _ in range(rng.randint(0, max_length)))))
    return words


class TestNodeIds:
    @pytest.mark.parametrize("text", [GRIGORCHUK, BASILICA, ODOMETER],
                             ids=["grigorchuk", "basilica", "odometer"])
    def test_against_direct_recursion(self, text):
        rng = random.Random(61)
        words = _random_words(parse_selfsim(text), rng, 30)
        for depth in range(9):
            group = parse_selfsim(text, depth=depth)
            memo = {}
            for i, w1 in enumerate(words):
                for w2 in words[i:]:
                    want = _reference_trivial(
                        group, word_mul(w1, word_inv(w2)), depth, memo)
                    assert group.equal(w1, w2, group.equality_depth) \
                        == want, (w1, w2, depth)
            # the first-seen linear scan that canonical used to run
            reps = [IDENTITY]
            for w in words:
                rep = next((r for r in reps if _reference_trivial(
                    group, word_mul(w, word_inv(r)), depth, memo)), None)
                if rep is None:
                    reps.append(w)
                    rep = w
                assert group.canonical(w) == rep, (w, depth)

    @pytest.mark.parametrize("text", [GRIGORCHUK, BASILICA, ODOMETER, FLIP],
                             ids=["grigorchuk", "basilica", "odometer",
                                  "flip"])
    def test_one_group_at_many_depths(self, text):
        # the word and node tables are shared by every depth, so equality
        # at shuffled depths and canonical forms at the equality depth run
        # on one group object; the words w u, u a square or short, make
        # pairs whose equality depends on the depth (in Grigorchuk's group
        # a a is unequal to () at depth 0 and equal from depth 1 on)
        group = parse_selfsim(text)
        rng = random.Random(97)
        shorts = [IDENTITY] + [group.gen_word(g, 2) for g in group.generators]
        shorts += rng.sample(_reduced_words(group, 2), 4)
        words = [word_mul(w, u)
                 for w in _random_words(group, rng, 3, max_length=6)
                 for u in shorts]
        depths = list(range(9))
        rng.shuffle(depths)
        memo = {}
        reps = [IDENTITY]
        for n, depth in enumerate(depths):
            for i, w1 in enumerate(words):
                for w2 in words[i:]:
                    want = _reference_trivial(
                        group, word_mul(w1, word_inv(w2)), depth, memo)
                    assert group.equal(w1, w2, depth) == want, (w1, w2, depth)
            for w in words[3 * n:3 * n + 3]:
                rep = next((r for r in reps if _reference_trivial(
                    group, word_mul(w, word_inv(r)), group.equality_depth,
                    memo)), None)
                if rep is None:
                    reps.append(w)
                    rep = w
                assert group.canonical(w) == rep, w

    def test_grigorchuk_bcd_acts_trivially_but_is_unequal(self):
        # b c d is the identity of the Grigorchuk group, but its restriction
        # at 0 is the free word a a and at 1 the rotation c d b, which never
        # reduces freely: the depth-bounded relation keeps it apart from ()
        group = parse_selfsim(GRIGORCHUK, depth=8)
        bcd = (("b", 1), ("c", 1), ("d", 1))
        for n in range(1, 11):
            for w in product("01", repeat=n):
                assert group.act(bcd, w) == w
        assert group.restriction(bcd, "0") == (("a", 1), ("a", 1))
        for depth in (1, 4, 8, 12):
            assert not group.equal(bcd, (), depth)
        assert not group.equal(bcd, IDENTITY, group.equality_depth)
        assert group.canonical(bcd) != group.canonical(IDENTITY)

    def test_deep_equality_has_bounded_cost(self):
        # every restriction of a power of the flip is itself, so the section
        # tree is a full binary tree of depth 200: only shared integer ids
        # keep its fingerprint linear in the depth
        group = parse_selfsim(FLIP, depth=200)
        a = group.gen_word("a")
        start = time.perf_counter()
        reps = [group.canonical(a * n) for n in (1, 2, 3)]
        assert time.perf_counter() - start < 1.0
        assert len(set(reps)) == 3
        assert not group.equal(a * 3, a, group.equality_depth)
        # the tree is walked with an explicit stack, not Python recursion
        deep = parse_selfsim(FLIP, depth=5000)
        assert deep.canonical(a) != deep.canonical(a * 3)


@pytest.mark.parametrize("call", [
    lambda g, w: g.canonical(w),
    lambda g, w: g.equal(w, (), g.equality_depth),
    lambda g, w: g.act(w, "01"),
    # checked when the word gets a word id, before any letter is read
    lambda g, w: g.act(w, ""),
], ids=["canonical", "equal", "act", "act-no-letters"])
def test_unknown_generator_is_named(call):
    with pytest.raises(SelfSimError, match="unknown generator 'z'"):
        call(odometer(), (("z", 1),))


@pytest.mark.parametrize("call, match", [
    (lambda g: g.act((("a", 1),), "z"), "unknown letter 'z'"),
    (lambda g: g.act((), "0z"), "unknown letter 'z'"),
    (lambda g: g.restrict_letter((("z", 1),), "0"), "unknown generator 'z'"),
    (lambda g: g.restrict_letter((("a", 1),), "z"), "unknown letter 'z'"),
    (lambda g: g.act_letter((("a", 1), ("z", -1)), "0"),
     "unknown generator 'z'"),
    (lambda g: g.act_letter((("a", 1),), "z"), "unknown letter 'z'"),
    (lambda g: g.restriction((("z", 1),), "0"), "unknown generator 'z'"),
    (lambda g: g.restriction((("a", 1),), "1z"), "unknown letter 'z'"),
    # the empty word makes no step-table lookup, so its path checks the letter
    (lambda g: g.act_letter((), "z"), "unknown letter 'z'"),
    (lambda g: g.restrict_letter((), "z"), "unknown letter 'z'"),
    (lambda g: g.restriction((), "zz"), "unknown letter 'z'"),
    # a|_0 is the empty word, so z is looked up from the identity
    (lambda g: g.restriction((("a", 1),), "0z"), "unknown letter 'z'"),
], ids=["act", "act-identity", "restrict_letter-generator",
        "restrict_letter-letter", "act_letter-generator", "act_letter-letter",
        "restriction-generator", "restriction-letter", "act_letter-identity",
        "restrict_letter-identity", "restriction-identity",
        "restriction-to-identity"])
def test_unknown_letter_or_generator_is_named(call, match):
    # each used to raise a bare KeyError
    with pytest.raises(SelfSimError, match=match):
        call(odometer())


def _pool_group(name):
    """A benchmark pool group and its words (upper case inverts)."""
    with open(POOL_PATH, encoding="utf-8") as handle:
        data = json.load(handle)["groups"][name]
    words = [reduce_word(tuple((ch.lower(), 1 if ch.islower() else -1)
                               for ch in text)) for text in data["words"]]
    return parse_selfsim(data["text"]), words


@pytest.mark.parametrize("name", ["grigorchuk", "basilica", "odometer"])
def test_each_section_pass_runs_once(name):
    group, words = _pool_group(name)
    passes = Counter()
    section = group._section

    def counted(word, x):
        passes[word] += 1
        return section(word, x)

    group._section = counted
    tails = ["".join(t) for t in product(group.alphabet, repeat=4)]
    for word in words:
        group.canonical(word)
        group.sections(word)
        for tail in tails:
            group.act(word, tail)
    filled = {group._words[wid]
              for wid, entry in enumerate(group._word_sections) if entry}
    assert set(passes) == filled
    assert set(passes.values()) == {len(group.alphabet)}
    # restrict_letter and restriction make their own pass on every call
    passes.clear()
    for word in words:
        group.restrict_letter(word, "1")
        group.restriction(word, "01")
    assert sum(passes.values()) == 3 * len(words)


# -- the iterated word_mul recursion that sections replaced, kept as an oracle

def _reference_act_letter(group, word, x):
    for gen, exp in reversed(word):
        perm = group.perm[gen]
        x = perm[x] if exp > 0 else {v: u for u, v in perm.items()}[x]
    return x


def _reference_restrict_letter(group, word, x):
    out = ()
    for gen, exp in reversed(word):
        if exp > 0:
            out = word_mul(group.restriction_table[gen][x], out)
            x = group.perm[gen][x]
        else:
            y = {v: u for u, v in group.perm[gen].items()}[x]
            out = word_mul(word_inv(group.restriction_table[gen][y]), out)
            x = y
    return out


def _reference_sections(group, word):
    return {x: (_reference_act_letter(group, word, x),
                _reference_restrict_letter(group, word, x))
            for x in group.alphabet}


def _reduced_words(group, max_length):
    letters = [(g, e) for g in group.generators for e in (1, -1)]
    words = []
    for n in range(max_length + 1):
        words += [w for w in product(letters, repeat=n)
                  if reduce_word(w) == w]
    return words


def _pieces(group, word, x):
    """The restriction of each letter of the word at the letter it meets,
    rightmost letter first."""
    pieces = []
    for gen, exp in reversed(word):
        y = _reference_act_letter(group, ((gen, exp),), x)
        pieces.append(_reference_restrict_letter(group, ((gen, exp),), x))
        x = y
    return pieces


class TestSectionsAgainstIteratedProducts:
    """One pass through the step table gives the iterated ``word_mul``."""

    @pytest.mark.parametrize("text, reaches", [
        (GRIGORCHUK, True), (BASILICA, True), (ODOMETER, False)],
        ids=["grigorchuk", "basilica", "odometer"])
    def test_every_reduced_word_up_to_length_4(self, text, reaches):
        group = parse_selfsim(text)
        tails = [w for n in range(3) for w in product(group.alphabet,
                                                      repeat=n)]
        # words whose restriction differs when the pieces are not reduced,
        # or are joined in the order they apply: the odometer has none
        unreduced = reordered = 0
        for word in _reduced_words(group, 4):
            want = _reference_sections(group, word)
            assert group.sections(word) == want, word
            for x, (y, r) in want.items():
                assert group.act_letter(word, x) == y
                assert group.restrict_letter(word, x) == r
                pieces = _pieces(group, word, x)
                unreduced += r != sum(reversed(pieces), ())
                reordered += r != reduce_word(sum(pieces, ()))
            for tail in tails:
                g = word
                for x in tail:
                    g = _reference_restrict_letter(group, g, x)
                assert group.restriction(word, tail) == g
        assert bool(unreduced) == bool(reordered) == reaches

    @pytest.mark.parametrize("text", [GRIGORCHUK, BASILICA, ODOMETER],
                             ids=["grigorchuk", "basilica", "odometer"])
    def test_node_ids_and_canonical_forms(self, text):
        group = parse_selfsim(text, depth=6)
        reference = parse_selfsim(text, depth=6)
        reference._section = lambda word, x: (
            _reference_act_letter(reference, word, x),
            _reference_restrict_letter(reference, word, x))
        for word in _random_words(group, random.Random(83), 300):
            for depth in (0, 3, 6):
                assert group.node(word, depth) == \
                    reference.node(word, depth), (word, depth)
            assert group.canonical(word) == reference.canonical(word), word
        assert group._words == reference._words
        assert group._word_sections == reference._word_sections
        assert group._node_ids == reference._node_ids

