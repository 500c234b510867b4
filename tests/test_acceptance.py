"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as the
criteria complete.  Every tolerance here is exact: all arithmetic is
integer, rational, or modular, and operator identities are compared
entry by entry.  Randomized criteria pin their seeds.
"""

import random
import time
from itertools import combinations, product
from math import gcd

import pytest

from pimsner.abgroup import FgAbelianGroup, IntMatrix, smith_normal_form
from pimsner.fock import (
    HomotopyModel,
    TruncatedFock,
    check_p0_form,
    covariant_check,
    homotopy_H,
    homotopy_endpoints_check,
    homotopy_pairing_check,
    p0_compact_form,
    quasi_hom_defect,
    rotation_coefficient_identity,
)
from pimsner.funcmod import CompactOperator, compact_to_matrix, free_module
from pimsner.leavitt import (
    LeavittRing,
    Quiver,
    _pipeline_report,
    field_presets,
    k_groups,
    normal_words,
    parse_quiver,
    quiver_correspondence,
    rose,
)
from pimsner.ringcore import ZZ, DirectSumRing, MatrixRing
from pimsner.selfsim import odometer, trivial_group, word_mul

QUIVER_SEED = 4


def announce(number, name, passed):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number} ({name}): {status}")
    assert passed, f"criterion {number} ({name}) failed"


def acceptance_quivers(count=20, seed=QUIVER_SEED):
    """The pinned random family: at most 4 vertices and 6 edges each."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        nv = rng.randint(1, 4)
        ne = rng.randint(1, 6)
        verts = [f"v{i}" for i in range(nv)]
        edges = [(f"x{j}", rng.choice(verts), rng.choice(verts))
                 for j in range(ne)]
        out.append(Quiver(verts, edges))
    return out


def minor_gcd_divisors(mat):
    """Independent Smith-diagonal oracle via gcds of k x k minors."""
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


def test_criterion_1_snf_correctness():
    rng = random.Random(1)
    start = time.time()
    for _ in range(10 ** 4):
        rows = rng.randint(0, 6)
        cols = rng.randint(0, 6)
        mat = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        s, u, v = smith_normal_form(mat)
        assert u.mul(mat).mul(v) == s
        assert abs(u.det()) == 1 and abs(v.det()) == 1
        diag = s.diagonal()
        seen_zero = False
        for i, d in enumerate(diag):
            assert d >= 0
            if d == 0:
                seen_zero = True
            else:
                assert not seen_zero
                if i + 1 < len(diag) and diag[i + 1]:
                    assert diag[i + 1] % d == 0
        for i in range(s.rows):
            for j in range(s.cols):
                if i != j:
                    assert s.entries[i][j] == 0
    elapsed = time.time() - start
    announce(1, f"SNF correctness, 10^4 matrices in {elapsed:.1f}s",
             elapsed < 30.0)


def test_criterion_2_leavitt_k0_regression():
    ok = True
    for d in range(2, 7):
        report, _ = k_groups(rose(d))
        got = report["degrees"]["0"]["assembled_group"]["repr"]
        # oracle: the Smith diagonal of the 1x1 map [1-d] by minor gcds
        oracle = minor_gcd_divisors(IntMatrix.from_rows([[1 - d]]))
        want = str(FgAbelianGroup.from_divisors(*oracle))
        ok = ok and got == want == str(FgAbelianGroup.from_divisors(d - 1))
    a2 = parse_quiver("vertices: v w\nedges: e: v -> w")
    report, _ = k_groups(a2)
    oracle = minor_gcd_divisors(IntMatrix.from_rows([[1], [-1]]))
    ok = ok and oracle == [1]
    ok = ok and report["degrees"]["0"]["assembled_group"]["repr"] == "Z"
    report, _ = k_groups(rose(1))
    ok = ok and report["degrees"]["0"]["cokernel"]["repr"] == "Z"
    ok = ok and report["degrees"]["0"]["kernel"]["repr"] == "Z"
    announce(2, "Leavitt K0 regressions against the minor-gcd oracle", ok)


@pytest.fixture(scope="module")
def pinned_quivers():
    return [(q, quiver_correspondence(q)) for q in acceptance_quivers()]


def test_criterion_3_covariant_relation(pinned_quivers):
    ok = True
    for q, corr in pinned_quivers:
        fk = TruncatedFock(corr, 6)
        rep = covariant_check(fk)
        ok = ok and rep.passed and rep.checked > 0
    announce(3, "covariant relation on 20 pinned quivers at depth 6", ok)


def test_criterion_4_defect_support(pinned_quivers):
    ok = True
    words_total = 0
    for q, corr in pinned_quivers:
        fk = TruncatedFock(corr, 6)
        for p, g in normal_words(q, 4):
            tokens = [("x", {e: 1}) for e in p] + \
                     [("phi", {(e, "*"): 1}) for e in reversed(g)]
            _, infos = quasi_hom_defect(fk, tokens)
            words_total += 1
            for info in infos:
                ok = ok and info["block"] == (len(p), len(g))
    announce(4, f"defect support on {words_total} normal words", ok)


def test_criterion_5_homotopy(pinned_quivers):
    ok = rotation_coefficient_identity()
    for q, corr in pinned_quivers:
        fk = TruncatedFock(corr, 6)
        model = HomotopyModel(fk, 3)
        ring = corr.module.ring
        tokens = [("x", {b: 1}) for b in corr.module.x_basis]
        tokens += [("phi", {c: 1}) for c in corr.module.xp_basis]
        tokens += [("r", ring.monomial(r)) for r in ring.basis]
        H = [homotopy_H(model, tok) for tok in tokens]
        for tok, H_tok in zip(tokens, H):
            rep = homotopy_endpoints_check(model, tok, H_tok)
            ok = ok and rep.passed
        nx = len(corr.module.x_basis)
        for c, H_phi in zip(corr.module.xp_basis, H[nx:]):
            for b, H_x in zip(corr.module.x_basis, H):
                rep = homotopy_pairing_check(model, {b: 1}, {c: 1}, H_x, H_phi)
                ok = ok and rep.passed
    announce(5, "homotopy coefficient identity, endpoints, pairing", ok)


def test_criterion_6_matrix_ring_identification():
    rng = random.Random(6)
    ok = True
    pairs = 0
    while pairs < 10 ** 3:
        size = rng.randint(1, 5)
        index = list(range(size))
        ring = DirectSumRing(ZZ, ["p", "q"])
        module = free_module(ring, index)
        mring = MatrixRing(ring, index)

        def rand_compact():
            terms = []
            for _ in range(rng.randint(1, 3)):
                x = {(rng.choice(index), rng.choice(ring.basis)):
                     rng.randint(-3, 3)}
                ph = {(rng.choice(index), rng.choice(ring.basis)):
                      rng.randint(-3, 3)}
                terms.append((x, ph))
            return CompactOperator(module, terms)

        k1, k2 = rand_compact(), rand_compact()
        lhs = compact_to_matrix(k1 * k2, mring)
        rhs = compact_to_matrix(k1, mring) * compact_to_matrix(k2, mring)
        ok = ok and lhs == rhs
        pairs += 1
    announce(6, "K(R^I) = M_I(R): 10^3 random products, exact", ok)


def test_criterion_7_odometer_suites():
    g = odometer()
    a = g.gen_word("a")
    ok = True
    # exhaustive bijectivity and self-similarity up to length 10
    for n in range(1, 11):
        words = ["".join(w) for w in product("01", repeat=n)]
        images = set()
        for w in words:
            img = g.act(a, w)
            images.add(img)
            ok = ok and len(img) == n
            if n >= 2:
                x, tail = w[0], w[1:]
                ok = ok and img == g.act(a, x) + \
                    g.act(g.restriction(a, x), tail)
        ok = ok and len(images) == len(words)
    # cocycle on powers of the generator
    for w in ["0", "1", "01", "10", "11"]:
        lhs = g.restriction(word_mul(a, a), w)
        rhs = word_mul(g.restriction(a, g.act(a, w)), g.restriction(a, w))
        ok = ok and g.equal(lhs, rhs, 7)
    # binary increment oracle: integer arithmetic
    for n in range(1, 11):
        for value in range(2 ** n):
            bits = "".join(str((value >> i) & 1) for i in range(n))
            got = g.act(a, bits)
            want_value = (value + 1) % 2 ** n
            want = "".join(str((want_value >> i) & 1) for i in range(n))
            ok = ok and got == want
    announce(7, "odometer exhaustive suites and binary increment", ok)


def test_criterion_8_cross_pipeline_agreement():
    ok = True
    for d in range(2, 6):
        _, rose_segs = k_groups(rose(d))
        alphabet = [str(i) for i in range(d)]
        group = trivial_group(alphabet)
        # the left action of the unit is the identity d x d matrix, so the
        # induced map on each degree is multiplication by d
        mat = IntMatrix.from_rows([[1 - d]])
        _, nek_segs = _pipeline_report(mat, field_presets(ZZ),
                                       row_labels=["*"], col_labels=["*"])
        for n in (0, 1):
            rose_list = rose_segs[n]
            nek_list = nek_segs[n]
            ok = ok and len(rose_list) == len(nek_list)
            for (rc, rseg), (nc, nseg) in zip(rose_list, nek_list):
                ok = ok and rseg.kernel == nseg.kernel
                ok = ok and rseg.cokernel == nseg.cokernel
                ok = ok and rseg.map_matrix == nseg.map_matrix
    announce(8, "trivial self-similar group matches the rose pipeline", ok)


def test_criterion_9_leavitt_arithmetic_and_vacuum_form():
    ok = True
    # seed-pinned associativity suite
    rng = random.Random(9)
    for _ in range(4):
        nv = rng.randint(1, 4)
        ne = rng.randint(1, 6)
        verts = [f"v{i}" for i in range(nv)]
        edges = [(f"x{j}", rng.choice(verts), rng.choice(verts))
                 for j in range(ne)]
        q = Quiver(verts, edges)
        L = LeavittRing(q)

        def rand_elt():
            out = L.zero()
            for _ in range(3):
                v = rng.choice(verts)
                paths = q.paths_from(v, rng.randint(0, 2))
                if not paths:
                    continue
                p = rng.choice(paths)
                end = q.r(p[-1]) if p else v
                ghosts = [gg for w in verts
                          for gg in q.paths_from(w, rng.randint(0, 2))
                          if (q.r(gg[-1]) if gg else w) == end]
                if not ghosts:
                    continue
                gg = rng.choice(ghosts)
                el = L.monomial_pq(p, gg) if (p or gg) else L.vertex(end)
                out = out + el.scale(rng.randint(-2, 2))
            return out

        for _ in range(150):
            a, b, c = rand_elt(), rand_elt(), rand_elt()
            ok = ok and (a * b) * c == a * (b * c)

    # the defining relations, by normal-form equality
    L = LeavittRing(rose(2))
    ok = ok and L.ghost(["e0"]) * L.path(["e0"]) == L.vertex("v")
    ok = ok and (L.path(["e0"]) * L.ghost(["e0"])
                 + L.path(["e1"]) * L.ghost(["e1"])) == L.vertex("v")

    # the vacuum compression acts as i on degree 0 and as 0 on 1..4
    fk = TruncatedFock(quiver_correspondence(rose(2)), 5)
    i = fk.ring.monomial("v")
    op = p0_compact_form(i, fk)
    ok = ok and check_p0_form(op, i, fk, degrees=range(0, 5))
    for q, _corr in [(rose(3), None)]:
        fk = TruncatedFock(quiver_correspondence(q), 5)
        for v in q.regular_vertices:
            i = fk.ring.monomial(v)
            ok = ok and check_p0_form(p0_compact_form(i, fk), i, fk,
                                      degrees=range(0, 5))
    announce(9, "Leavitt relations, associativity, vacuum compression", ok)
