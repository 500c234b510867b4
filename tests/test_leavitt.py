"""Tests for quivers, Leavitt path algebra arithmetic, and K-group pipelines."""

import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pimsner import leavitt as leavitt_module
from pimsner.abgroup import AbgroupError, FgAbelianGroup, IntMatrix
from pimsner.funcmod import check_functional_hom
from pimsner.leavitt import (
    AdjacencyData,
    LeavittRing,
    PresetComponent,
    QuiverError,
    Quiver,
    _pipeline_report,
    crossed_product_k_groups,
    field_presets,
    k_groups,
    normal_words,
    parse_quiver,
    quiver_correspondence,
    rose,
)
from pimsner.ringcore import (
    QQ,
    Fp,
    RingError,
    Zmod,
    coefficient_ring,
)
from test_ringcore import assert_local_unit


def degrees(element):
    """The degrees |p| - |q| of the monomials p q* of a Leavitt element."""
    return {len(p) - len(q) for _, p, q in element.terms}


class TestParse:
    def test_single_edge(self):
        q = parse_quiver("vertices: v w\nedges: e: v -> w")
        assert q.vertices == ["v", "w"]
        assert q.s("e") == "v" and q.r("e") == "w"
        assert q.regular_vertices == ["v"]

    def test_rose(self):
        q = rose(3)
        assert q.regular_vertices == ["v"]
        assert len(q.edges) == 3

    def test_out_edges_keep_file_order(self):
        # sources interleave, so each vertex's edges are not contiguous
        q = Quiver(["v", "w", "u"],
                   [("a", "w", "v"), ("b", "v", "w"), ("c", "w", "w"),
                    ("d", "v", "v"), ("e", "w", "u"), ("f", "v", "u")])
        assert q.out_edges("v") == ["b", "d", "f"]
        assert q.out_edges("w") == ["a", "c", "e"]
        assert q.out_edges("u") == []
        assert q.regular_vertices == ["v", "w"]

    def test_comments_and_layout(self):
        q = parse_quiver("""
        # a small cycle
        vertices: a b
        edges:
          x: a -> b   # forward
          y: b -> a
        """)
        assert set(q.edges) == {"x", "y"}

    def test_undeclared_vertex(self):
        with pytest.raises(QuiverError) as err:
            parse_quiver("vertices: v\nedges: e: v -> u")
        assert "u" in str(err.value)
        assert err.value.line is not None

    def test_syntax_error_carries_line(self):
        with pytest.raises(QuiverError) as err:
            parse_quiver("vertices: v\nedges:\n  broken line")
        assert err.value.line == 3

    def test_duplicate_names_rejected(self):
        with pytest.raises(QuiverError):
            parse_quiver("vertices: v v\nedges:")
        with pytest.raises(QuiverError):
            parse_quiver("vertices: v\nedges:\n e: v -> v\n e: v -> v")

    def test_semantic_error_names_the_offending_edge_line(self):
        # the name "a" occurs in the message "unknown range vertex ...",
        # but the bad edge is b on line 4
        with pytest.raises(QuiverError) as err:
            parse_quiver("vertices: v\nedges:\na: v -> v\nb: v -> u")
        assert err.value.line == 4
        assert str(err.value).startswith("line 4: unknown range vertex 'u'")

    def test_duplicate_edge_reports_second_declaration(self):
        with pytest.raises(QuiverError) as err:
            parse_quiver("vertices: v\nedges:\nx: v -> v\ny: v -> v\n"
                         "x: v -> v")
        assert err.value.line == 5


class TestAdjacency:
    def test_path_counts_match_the_paths(self):
        rng = random.Random(17)
        for _ in range(30):
            verts = [f"v{i}" for i in range(rng.randint(1, 4))]
            q = Quiver(verts, [(f"x{j}", rng.choice(verts), rng.choice(verts))
                               for j in range(rng.randint(0, 6))])
            want = [sum(len(q.paths_from(v, n)) for v in verts)
                    for n in range(7)]
            got = list(islice(q.path_counts(), 7))
            assert got == want[:len(got)]
            assert got == want or not any(want[len(got):])
        # an acyclic quiver's counts end
        a2 = parse_quiver("vertices: v w\nedges: e: v -> w")
        assert list(a2.path_counts()) == [2, 1]

    def test_word_budget_counts_the_words_exactly(self, monkeypatch):
        # a budget of the list's length lists it, one below refuses, so the
        # count taken before listing is the list's length
        rng = random.Random(23)
        quivers = [rose(1), rose(2), rose(6),
                   parse_quiver("vertices: v w\nedges: e: v -> w")]
        for _ in range(20):
            verts = [f"v{i}" for i in range(rng.randint(1, 4))]
            quivers.append(Quiver(verts, [
                (f"x{j}", rng.choice(verts), rng.choice(verts))
                for j in range(rng.randint(0, 5))]))
        cases = [(q, bound, normal_words(q, bound))
                 for q in quivers for bound in range(1, 5)]
        # rose6 at the default bound, the acceptance family's largest list
        assert len(normal_words(rose(6), 4)) == 7464
        for q, bound, words in cases:
            if not words:
                continue
            monkeypatch.setattr(leavitt_module, "MAX_NORMAL_WORDS", len(words))
            assert normal_words(q, bound) == words
            monkeypatch.setattr(leavitt_module, "MAX_NORMAL_WORDS",
                                len(words) - 1)
            with pytest.raises(RingError, match=f"word bound {bound} gives"):
                normal_words(q, bound)

    def test_word_bound_past_every_path(self):
        # an acyclic quiver's words end, and a cycle's pass the budget
        a2 = parse_quiver("vertices: v w\nedges: e: v -> w")
        assert normal_words(a2, 10 ** 9) == normal_words(a2, 2)
        with pytest.raises(RingError, match="more than 65536 normal words"):
            normal_words(rose(1), 10 ** 9)

    def test_rose3(self):
        # three loops at one vertex: 1 - 3
        adj = AdjacencyData(rose(3))
        assert adj.theorem_map == IntMatrix.from_rows([[-2]])

    def test_a2_column(self):
        adj = AdjacencyData(parse_quiver("vertices: v w\nedges: e: v -> w"))
        assert adj.theorem_map == IntMatrix.from_rows([[1], [-1]])

    def test_edgeless(self):
        adj = AdjacencyData(parse_quiver("vertices: v w\nedges:"))
        assert adj.regular == []
        assert adj.theorem_map.cols == 0
        assert adj.theorem_map.rows == 2

    def test_full_matrix_counts_parallel_edges(self):
        q = parse_quiver("vertices: a b\nedges:\n x: a -> b\n y: a -> b")
        adj = AdjacencyData(q)
        # column a: 1_a - 2 . 1_b; the sink b has no column
        assert adj.regular == ["a"]
        assert adj.theorem_map == IntMatrix.from_rows([[1], [-2]])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_theorem_map_matches_the_dense_formula(self, data):
        # 1-8 vertices, any ordered pairs as edges (loops, parallel edges,
        # sinks, possibly no regular vertex), vertex names listed in a
        # drawn order; the oracle counts arrows v -> y over all pairs
        n = data.draw(st.integers(1, 8))
        names = data.draw(st.permutations([f"v{i}" for i in range(n)]))
        pairs = data.draw(st.lists(
            st.tuples(st.sampled_from(names), st.sampled_from(names)),
            max_size=20))
        q = Quiver(names, [(f"e{i}", s, r) for i, (s, r) in enumerate(pairs)])
        adj = AdjacencyData(q)
        regs = [v for v in names if any(s == v for s, _ in pairs)]
        assert adj.regular == regs
        dense = [[(y == v) - sum(p == (v, y) for p in pairs) for v in regs]
                 for y in names]
        assert adj.theorem_map == IntMatrix(n, len(regs), dense)


class TestQuiverCorrespondence:
    def test_hom_checks(self):
        for q in [rose(2), parse_quiver("vertices: v w\nedges: e: v -> w")]:
            corr = quiver_correspondence(q)
            assert check_functional_hom(corr.hom)

    def test_sink_acts_as_zero(self):
        q = parse_quiver("vertices: v w\nedges: e: v -> w")
        corr = quiver_correspondence(q)
        dec = corr.delta_compact(corr.module.ring.monomial("w"))
        # no edge leaves w, so Delta(1_w) has no term
        assert dec.terms == []

    def test_regular_vertex_decomposition(self):
        corr = quiver_correspondence(rose(2))
        dec = corr.delta_compact(corr.module.ring.monomial("v"))
        # Delta(1_v) = sum over edges from v of e (x) e*
        assert dec.terms == [({"e0": 1}, {("e0", "*"): 1}),
                             ({"e1": 1}, {("e1", "*"): 1})]

    def test_bimodule_tables(self):
        q = parse_quiver("vertices: v w\nedges: e: v -> w")
        m = quiver_correspondence(q).module
        rv, rw = m.ring.monomial("v"), m.ring.monomial("w")
        assert m.act_right({"e": 1}, rw) == {"e": 1}      # e . r(e)
        assert m.act_right({"e": 1}, rv) == {}
        assert m.act_left(rv, {"e": 1}) == {"e": 1}       # s(e) . e
        assert m.act_left(rw, {"e": 1}) == {}
        assert m.act_xp_right({("e", "*"): 1}, rv) == {("e", "*"): 1}
        assert m.act_xp_left(rw, {("e", "*"): 1}) == {("e", "*"): 1}
        assert m.act_xp_left(rv, {("e", "*"): 1}) == {}


class TestLeavittArithmetic:
    def test_ghost_contraction(self):
        L = LeavittRing(rose(2))
        e, es = L.path(["e0"]), L.ghost(["e0"])
        assert es * e == L.vertex("v")

    def test_lpa_mul_rejects_quiver_mismatch(self):
        L1, L2 = LeavittRing(rose(2)), LeavittRing(rose(2))
        with pytest.raises(RingError):
            L1.vertex("v") * L2.vertex("v")

    def test_distinct_edges_collapse(self):
        L = LeavittRing(rose(2))
        assert (L.ghost(["e0"]) * L.path(["e1"])).is_zero()

    def test_range_relation(self):
        L = LeavittRing(rose(2))
        e, f = L.path(["e0"]), L.path(["e1"])
        es, fs = L.ghost(["e0"]), L.ghost(["e1"])
        assert e * es + f * fs == L.vertex("v")

    def test_orthogonal_vertices(self):
        L = LeavittRing(parse_quiver("vertices: v w\nedges: e: v -> w"))
        assert (L.vertex("v") * L.vertex("w")).is_zero()
        assert L.vertex("v") * L.vertex("v") == L.vertex("v")

    def test_path_ghost_word(self):
        # (e f*) (f g*) = e g*
        q = parse_quiver(
            "vertices: a b c\nedges:\n e: a -> b\n f: c -> b\n g: c -> b")
        L = LeavittRing(q)
        left = L.monomial_pq(("e",), ("f",))
        right = L.monomial_pq(("f",), ("g",))
        assert left * right == L.monomial_pq(("e",), ("g",))

    def test_associativity_random_quivers(self):
        rng = random.Random(20260809)
        for trial in range(6):
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
                    lp = rng.randint(0, 3)
                    paths = q.paths_from(v, lp)
                    if not paths:
                        continue
                    p = rng.choice(paths)
                    end = q.r(p[-1]) if p else v
                    ghosts = [g for w in verts
                              for g in q.paths_from(w, rng.randint(0, 3))
                              if (q.r(g[-1]) if g else w) == end]
                    if not ghosts:
                        continue
                    g = rng.choice(ghosts)
                    if p or g:
                        el = L.monomial_pq(p, g)
                    else:
                        el = L.vertex(end)
                    out = out + el.scale(rng.randint(-2, 2))
                return out

            for _ in range(120):
                a, b, c = rand_elt(), rand_elt(), rand_elt()
                assert (a * b) * c == a * (b * c)

    def test_vertices_are_local_units(self):
        L = LeavittRing(rose(2))
        els = [L.path(["e0", "e1"]), L.ghost(["e1"]),
               L.monomial_pq(("e0",), ("e1",)), L.vertex("v")]
        assert_local_unit(L.vertex("v"), els)

    def test_local_units_on_random_element_sets(self):
        # the sum of the vertices p q* starts from, on either side, fixes
        # every element of an arbitrary finite set
        rng = random.Random(31)
        q = parse_quiver(
            "vertices: a b c\nedges:\n x: a -> b\n y: b -> c\n z: c -> a")
        L = LeavittRing(q)
        pool = [L.vertex("a"), L.vertex("b"), L.path(["x"]),
                L.path(["x", "y"]), L.ghost(["z"]),
                L.monomial_pq(("x", "y"), ("y",))]
        for _ in range(40):
            els = [rng.choice(pool).scale(rng.randint(-2, 2))
                   for _ in range(rng.randint(1, 4))]
            els = [e for e in els if not e.is_zero()]
            if not els:
                continue
            verts = {q.s(path[0]) if path else v
                     for el in els for v, p, g in el.terms for path in (p, g)}
            assert_local_unit(sum(map(L.vertex, sorted(verts)), L.zero()),
                              els)

    def test_grading(self):
        L = LeavittRing(rose(2))
        a = L.monomial_pq(("e0", "e1"), ("e0",))   # degree 1
        b = L.monomial_pq(("e1",), ())             # degree 1
        assert degrees(a) == {1}
        prod = a * b
        if not prod.is_zero():
            assert degrees(prod) == {2}

    def test_grading_random(self):
        rng = random.Random(9)
        L = LeavittRing(rose(3))
        q = L.quiver
        for _ in range(200):
            p1 = tuple(rng.choice(q.edges) for _ in range(rng.randint(0, 2)))
            q1 = tuple(rng.choice(q.edges) for _ in range(rng.randint(0, 2)))
            p2 = tuple(rng.choice(q.edges) for _ in range(rng.randint(0, 2)))
            q2 = tuple(rng.choice(q.edges) for _ in range(rng.randint(0, 2)))
            try:
                a = L.monomial_pq(p1, q1) if (p1 or q1) else L.vertex("v")
                b = L.monomial_pq(p2, q2) if (p2 or q2) else L.vertex("v")
            except RingError:
                continue
            if a.is_zero() or b.is_zero():
                continue
            (da,), (db,) = degrees(a), degrees(b)
            prod = a * b
            if not prod.is_zero():
                assert degrees(prod) == {da + db}


def _element_reduced(L, sym):
    """The special-edge reduction built from ring elements, kept as an
    oracle for the term-dict reduction of ``LeavittRing``."""
    v, p, q = sym
    if not (p and q and p[-1] == q[-1]):
        return L.monomial(sym)
    e = p[-1]
    w = L.quiver.s(e)
    if L._special.get(w) != e:
        return L.monomial(sym)
    out = _element_reduced(L, (w, p[:-1], q[:-1]))
    for f in L.quiver.out_edges(w):
        if f != e:
            out = out + _element_reduced(
                L, (L.quiver.r(f), p[:-1] + (f,), q[:-1] + (f,))).scale(-1)
    return out


def _oracle_ring(quiver, k):
    """A Leavitt ring whose products and monomials reduce by the oracle."""
    oracle = LeavittRing(quiver, k)
    oracle._reduced = lambda sym: _element_reduced(oracle, sym).terms
    return oracle


@st.composite
def _small_quivers(draw):
    verts = [f"v{i}" for i in range(draw(st.integers(1, 3)))]
    vertex = st.sampled_from(verts)
    edges = [(f"x{j}", draw(vertex), draw(vertex))
             for j in range(draw(st.integers(1, 6)))]
    return Quiver(verts, edges)


def _draw_symbol(data, quiver):
    """A monomial (v, p, q): paths p and q of length <= 3 ending at v."""
    v = data.draw(st.sampled_from(quiver.vertices))

    def path_into(v):
        path = ()
        for _ in range(data.draw(st.integers(0, 3))):
            into = [e for e in quiver.edges
                    if quiver.r(e) == (quiver.s(path[0]) if path else v)]
            if not into:
                break
            path = (data.draw(st.sampled_from(into)),) + path
        return path

    return v, path_into(v), path_into(v)


class TestReductionOracle:
    @settings(max_examples=80, deadline=None)
    @given(quiver=_small_quivers(),
           spec=st.sampled_from(["z", "q", "zmod:6", "fp:2"]),
           data=st.data())
    def test_products_and_monomials_match_the_element_oracle(
            self, quiver, spec, data):
        k = coefficient_ring(spec)
        L, oracle = LeavittRing(quiver, k), _oracle_ring(quiver, k)
        syms = [_draw_symbol(data, quiver) for _ in range(4)]
        for b1 in syms:
            for b2 in syms:
                got = L.mul_basis(b1, b2)
                assert got == oracle.mul_basis(b1, b2)
                assert all(type(c) is type(k.one) and c for c in got.values())
        for _, p, q in syms:
            if p:
                assert L.path(p).terms == oracle.path(p).terms
                assert L.ghost(p).terms == oracle.ghost(p).terms
            if p or q:
                assert L.monomial_pq(p, q).terms == \
                    oracle.monomial_pq(p, q).terms

    @settings(max_examples=80, deadline=None)
    @given(quiver=_small_quivers(), data=st.data())
    def test_monomials_of_arbitrary_edge_tuples(self, quiver, data):
        # non-paths, and paths whose ranges differ, reach the zero branches
        edge_tuples = st.lists(st.sampled_from(quiver.edges),
                               max_size=3).map(tuple)
        L = LeavittRing(quiver)
        for _ in range(6):
            p, q = data.draw(edge_tuples), data.draw(edge_tuples)
            for path in (p, q):
                assert quiver.is_path(path) == all(
                    quiver.range[a] == quiver.source[b]
                    for a, b in zip(path, path[1:]))
            if not (p or q):
                with pytest.raises(RingError):
                    L.monomial_pq(p, q)
                continue
            ends = {quiver.range[path[-1]] for path in (p, q) if path}
            got = L.monomial_pq(p, q)
            if not (quiver.is_path(p) and quiver.is_path(q)) or len(ends) > 1:
                assert got.is_zero()
            else:
                (v,) = ends
                assert got.terms == _element_reduced(L, (v, p, q)).terms
                assert not got.is_zero()


class TestUnknownNames:
    @pytest.mark.parametrize("make", [
        lambda L: L.path(("zz",)),
        lambda L: L.ghost(("zz",)),
        lambda L: L.monomial_pq(("e0", "zz"), ()),
    ], ids=["path", "ghost", "monomial_pq"])
    def test_unknown_edge_is_named(self, make):
        with pytest.raises(RingError, match="unknown edge 'zz'"):
            make(LeavittRing(rose(2)))

    def test_unknown_vertex_is_named(self):
        # a mistyped vertex used to be a silent extra idempotent
        with pytest.raises(RingError, match="unknown vertex 'zz'"):
            LeavittRing(rose(2)).vertex("zz")


class TestKGroups:
    def test_rose_d_regression(self):
        for d in range(2, 7):
            report, segs = k_groups(rose(d))
            got = report["degrees"]["0"]["assembled_group"]
            want = FgAbelianGroup.from_divisors(d - 1)
            assert got["repr"] == str(want)

    def test_a2_is_matrix_algebra(self):
        report, _ = k_groups(parse_quiver("vertices: v w\nedges: e: v -> w"))
        assert report["degrees"]["0"]["assembled_group"]["repr"] == "Z"

    def test_laurent_case(self):
        # one loop: K0 = Z with kernel Z feeding degree 1
        report, segs = k_groups(rose(1))
        assert report["degrees"]["0"]["cokernel"]["repr"] == "Z"
        assert report["degrees"]["0"]["kernel"]["repr"] == "Z"
        assert report["degrees"]["1"]["assembled_group"]["repr"] == "Z x Z/2"

    def test_edgeless_quiver(self):
        report, _ = k_groups(parse_quiver("vertices: v w u\nedges:"))
        assert report["degrees"]["0"]["assembled_group"]["repr"] == "Z^3"

    def test_finite_field_units(self):
        # units of F_5 are Z/4; the 3-rose map acts on them by -2, with
        # kernel and cokernel both Z/2 (brute force over the 4 elements)
        kernel = [x for x in range(4) if (-2 * x) % 4 == 0]
        image = sorted({(-2 * x) % 4 for x in range(4)})
        assert len(kernel) == 2 and len(image) == 2
        report, _ = k_groups(rose(3), k=Fp(5))
        deg1 = report["degrees"]["1"]
        assert deg1["cokernel"]["repr"] == "Z/2"
        assert deg1["components"][0]["kernel"]["repr"] == "Z/2"

    def test_rational_units_are_tagged_countable(self):
        report, _ = k_groups(rose(2), k=QQ)
        comps = report["degrees"]["1"]["components"]
        assert any(c["multiplicity"] == "countable" for c in comps)

    def test_presets_must_be_primary(self):
        # Z + Z/2 is one component that is neither free nor cyclic
        bad = {0: [PresetComponent(FgAbelianGroup.from_divisors(0, 2))],
               -1: [], 1: []}
        mat = AdjacencyData(rose(2)).theorem_map
        with pytest.raises(AbgroupError, match="mixed coefficient group"):
            _pipeline_report(mat, bad, row_labels=["v"], col_labels=["v"])

    def test_no_presets_for_composite_modulus(self):
        with pytest.raises(RingError):
            field_presets(Zmod(6))


class TestCrossedProducts:
    def test_identity_automorphism(self):
        report, segs = crossed_product_k_groups(IntMatrix.from_rows([[1]]))
        deg0 = report["degrees"]["0"]
        assert deg0["kernel"]["repr"] == "Z"
        assert deg0["cokernel"]["repr"] == "Z"

    def test_sign_flip(self):
        report, _ = crossed_product_k_groups(IntMatrix.from_rows([[-1]]))
        deg0 = report["degrees"]["0"]
        assert deg0["cokernel"]["repr"] == "Z/2"
        assert deg0["kernel"]["repr"] == "0"

    def test_matrix_is_one_minus_alpha_not_its_transpose(self):
        # K-groups cannot tell 1 - alpha from 1 - alpha^t, the matrix can
        alpha = [[2, -65, 0], [100, 1, 3], [0, 7, -1]]
        report, _ = crossed_product_k_groups(IntMatrix.from_rows(alpha))
        assert report["alpha"] == alpha
        assert report["matrix_M"]["entries"] == [
            [(i == j) - alpha[i][j] for j in range(3)] for i in range(3)]
        assert report["matrix_M"]["entries"] == [
            [-1, 65, 0], [-100, 0, -3], [0, -7, 2]]

    def test_swap(self):
        report, _ = crossed_product_k_groups(
            IntMatrix.from_rows([[0, 1], [1, 0]]))
        deg0 = report["degrees"]["0"]
        assert deg0["kernel"]["repr"] == "Z"
        assert deg0["cokernel"]["repr"] == "Z"

    def test_rose1_matches_identity_crossed_product(self):
        # the one-loop quiver gives the Laurent ring, whose sequence is the
        # identity-automorphism crossed product
        quiver_report, _ = k_groups(rose(1))
        pv_report, _ = crossed_product_k_groups(IntMatrix.from_rows([[1]]))
        qd = quiver_report["degrees"]["0"]
        pd = pv_report["degrees"]["0"]
        assert qd["kernel"] == pd["kernel"]
        assert qd["cokernel"] == pd["cokernel"]

    def test_non_square_rejected(self):
        with pytest.raises(RingError):
            crossed_product_k_groups(IntMatrix.from_rows([[1, 0]]))
