"""Tests for quivers, Leavitt path algebra arithmetic, and K-group pipelines."""

import random

import pytest

from pimsner.abgroup import FgAbelianGroup, IntMatrix
from pimsner.funcmod import check_functional_hom, fs_witness, theta_apply
from pimsner.leavitt import (
    LeavittRing,
    PresetComponent,
    QuiverError,
    Quiver,
    adjacency,
    crossed_product_k_groups,
    field_presets,
    k_groups,
    lpa_mul,
    parse_quiver,
    quiver_correspondence,
    rose,
)
from pimsner.ringcore import QQ, Fp, RingError, Zmod, local_unit_for


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
    def test_rose3(self):
        adj = adjacency(rose(3))
        assert adj.full_matrix == IntMatrix.from_rows([[3]])
        assert adj.theorem_map == IntMatrix.from_rows([[-2]])

    def test_a2_column(self):
        adj = adjacency(parse_quiver("vertices: v w\nedges: e: v -> w"))
        assert adj.theorem_map == IntMatrix.from_rows([[1], [-1]])

    def test_edgeless(self):
        adj = adjacency(parse_quiver("vertices: v w\nedges:"))
        assert adj.regular == []
        assert adj.theorem_map.cols == 0
        assert adj.theorem_map.rows == 2

    def test_full_matrix_counts_parallel_edges(self):
        q = parse_quiver("vertices: a b\nedges:\n x: a -> b\n y: a -> b")
        adj = adjacency(q)
        assert adj.full_matrix == IntMatrix.from_rows([[0, 2], [0, 0]])


class TestQuiverCorrespondence:
    def test_hom_checks(self):
        for q in [rose(2), parse_quiver("vertices: v w\nedges: e: v -> w")]:
            corr = quiver_correspondence(q)
            assert check_functional_hom(corr.hom)

    def test_fs_witness_is_edge_sum(self):
        corr = quiver_correspondence(rose(2))
        xs = [{"e0": 1}, {"e1": 1}]
        theta1, _ = fs_witness(corr.module, xs, [])
        for x in xs:
            assert theta_apply(theta1, x) == x

    def test_sink_acts_as_zero(self):
        q = parse_quiver("vertices: v w\nedges: e: v -> w")
        corr = quiver_correspondence(q)
        dec = corr.delta_compact(corr.module.ring.monomial("w"))
        assert dec.is_zero()

    def test_regular_vertex_decomposition(self):
        corr = quiver_correspondence(rose(2))
        dec = corr.delta_compact(corr.module.ring.monomial("v"))
        # Delta(1_v) = sum over edges from v of e (x) e*
        assert dec.normal_terms() == {("e0", ("e0", "*")): 1,
                                      ("e1", ("e1", "*")): 1}

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
        assert lpa_mul(es, e) == L.vertex("v")

    def test_lpa_mul_rejects_quiver_mismatch(self):
        L1, L2 = LeavittRing(rose(2)), LeavittRing(rose(2))
        with pytest.raises(RingError):
            lpa_mul(L1.vertex("v"), L2.vertex("v"))

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
        e = local_unit_for(els)
        assert e == L.vertex("v")

    def test_local_units_on_random_element_sets(self):
        # local_unit_for validates the fixing property itself, so success
        # on arbitrary finite sets is the local-unit property
        rng = random.Random(31)
        q = parse_quiver(
            "vertices: a b c\nedges:\n x: a -> b\n y: b -> c\n z: c -> a")
        L = LeavittRing(q)
        pool = [L.vertex("a"), L.vertex("b"), L.path(["x"]),
                L.path(["x", "y"]), L.ghost(["z"]),
                L.monomial_pq(("x", "y"), ("y",))]
        from pimsner.ringcore import is_idempotent
        for _ in range(40):
            els = [rng.choice(pool).scale(rng.randint(-2, 2))
                   for _ in range(rng.randint(1, 4))]
            els = [e for e in els if not e.is_zero()]
            if not els:
                continue
            e = local_unit_for(els)
            assert is_idempotent(e)

    def test_grading(self):
        L = LeavittRing(rose(2))
        a = L.monomial_pq(("e0", "e1"), ("e0",))   # degree 1
        b = L.monomial_pq(("e1",), ())             # degree 1
        assert L.degree(a) == 1
        prod = a * b
        if not prod.is_zero():
            assert L.degree(prod) == 2

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
            da, db = L.degree(a), L.degree(b)
            prod = a * b
            if not prod.is_zero():
                assert L.degree(prod) == da + db


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
        bad = {0: [PresetComponent(FgAbelianGroup.from_divisors(0, 2))],
               -1: [], 1: []}
        with pytest.raises(RingError):
            k_groups(rose(2), presets=bad)

    def test_no_presets_for_composite_modulus(self):
        with pytest.raises(RingError):
            field_presets(Zmod(6))


class TestCrossedProducts:
    def test_identity_automorphism(self):
        report, segs = crossed_product_k_groups(IntMatrix.identity(1))
        deg0 = report["degrees"]["0"]
        assert deg0["kernel"]["repr"] == "Z"
        assert deg0["cokernel"]["repr"] == "Z"

    def test_sign_flip(self):
        report, _ = crossed_product_k_groups(IntMatrix.from_rows([[-1]]))
        deg0 = report["degrees"]["0"]
        assert deg0["cokernel"]["repr"] == "Z/2"
        assert deg0["kernel"]["repr"] == "0"

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
        pv_report, _ = crossed_product_k_groups(IntMatrix.identity(1))
        qd = quiver_report["degrees"]["0"]
        pd = pv_report["degrees"]["0"]
        assert qd["kernel"] == pd["kernel"]
        assert qd["cokernel"] == pd["cokernel"]

    def test_non_square_rejected(self):
        with pytest.raises(RingError):
            crossed_product_k_groups(IntMatrix.from_rows([[1, 0]]))
