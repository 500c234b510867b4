"""Quivers, Leavitt path algebras, and their K-group pipelines.

A quiver is a directed multigraph (Q0, Q1, r, s); a vertex is regular when
it emits at least one and finitely many edges.  Three constructions hang
off a quiver here:

* ``quiver_correspondence``: the correspondence with R the vertex
  idempotent ring, X spanned by the edges, and pairing
  <e*, f> = delta_{e,f} 1_{r(e)}; its Cuntz-Pimsner ring is the Leavitt
  path algebra.
* ``LeavittRing``: exact arithmetic in the Leavitt path algebra itself,
  with elements reduced to a linear basis of monomials p q* (paths with a
  common range).  The ghost contraction e* f = delta_{e,f} r(e) resolves
  products, and the range relation v = sum of e e* over s(e) = v
  eliminates monomials whose two paths both end in the designated special
  edge of a vertex, which makes equality testing canonical.
* ``AdjacencyData``/``k_groups``: the adjacency matrix and the induced map on
  K-groups of the coefficient ring, whose kernel and cokernel assemble the
  K-groups of the Leavitt path algebra degreewise.

``crossed_product_k_groups`` is the crossed-product instance of the same
sequence, with the map 1 - alpha on each degree.
"""

from __future__ import annotations

from itertools import islice
from operator import neg

from .abgroup import FgAbelianGroup, IntMatrix, les_segment
from .ringcore import (
    QQ,
    ZZ,
    DirectSumRing,
    RingDescriptor,
    RingElement,
    RingError,
    ZmodRing,
    vadd,
    vscale,
)
from . import funcmod
from .funcmod import CompactOperator, Correspondence, FunctionalHom, FunctionalModule


class QuiverError(ValueError):
    """Syntax or semantic error in quiver input; carries a location.

    ``edge`` is the index of the offending edge in the list given to
    ``Quiver``, so the parser can report that edge's line.
    """

    def __init__(self, message, line=None, edge=None):
        self.line = line
        self.edge = edge
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Quivers
# ---------------------------------------------------------------------------

class Quiver:
    """A finite directed multigraph with named vertices and edges."""

    def __init__(self, vertices, edges):
        """``vertices``: ordered names; ``edges``: list of (name, src, dst)."""
        self.vertices = list(vertices)
        vertex_set = set(self.vertices)
        if len(vertex_set) != len(self.vertices):
            raise QuiverError("duplicate vertex name")
        self.edges = []
        self.source = {}
        self.range = {}
        self._out = {v: [] for v in self.vertices}
        self._paths_cache = {}
        seen = set()
        for i, (name, src, dst) in enumerate(edges):
            if name in seen or name in vertex_set:
                raise QuiverError(f"duplicate name {name!r}", edge=i)
            if src not in vertex_set:
                raise QuiverError(
                    f"unknown source vertex {src!r} for edge {name!r}", edge=i)
            if dst not in vertex_set:
                raise QuiverError(
                    f"unknown range vertex {dst!r} for edge {name!r}", edge=i)
            seen.add(name)
            self.edges.append(name)
            self.source[name] = src
            self.range[name] = dst
            self._out[src].append(name)

    def s(self, e):
        return self.source[e]

    def r(self, e):
        return self.range[e]

    def out_edges(self, v):
        return list(self._out[v])

    @property
    def regular_vertices(self):
        """Vertices emitting at least one (and, Q1 being finite, finitely
        many) edges."""
        return [v for v in self.vertices if self._out[v]]

    def is_path(self, edges):
        """Whether each edge ends where the next one starts.

        Raises ``RingError`` naming the first edge that the quiver does not
        have.  The walk reads the edge tables directly; the names are
        checked only when it stops short, so a path pays nothing for it."""
        source, range_ = self.source, self.range
        try:
            end = range_[edges[0]] if edges else None
            for e in edges[1:]:
                if source[e] != end:
                    break
                end = range_[e]
            else:
                return True
        except KeyError:
            pass
        for e in edges:
            if e not in source:
                raise RingError(f"unknown edge {e!r}")
        return False

    def paths_from(self, v, length):
        """All paths of the given length starting at v, as edge tuples."""
        out = self._paths_cache.get((v, length))
        if out is not None:
            return out
        if length == 0:
            out = [()]
        else:
            out = []
            for e in self._out[v]:
                for tail in self.paths_from(self.r(e), length - 1):
                    out.append((e,) + tail)
        self._paths_cache[(v, length)] = out
        return out

    def paths_ending(self):
        """For each length 0, 1, 2, ..., the number of paths of that
        length ending at each vertex, as a vertex -> count dict.

        Each step pushes the counts along the out-edges, so no path is
        built.  The dicts end after the last nonzero one: they are endless
        exactly when the quiver has a cycle.
        """
        ending = dict.fromkeys(self.vertices, 1)
        while any(ending.values()):
            yield ending
            step = dict.fromkeys(self.vertices, 0)
            for e in self.edges:
                step[self.range[e]] += ending[self.source[e]]
            ending = step

    def path_counts(self):
        """The number of paths of each length 0, 1, 2, ..., which is
        ``1^T A^n 1`` for the adjacency matrix A; see ``paths_ending``."""
        return (sum(ending.values()) for ending in self.paths_ending())

    def __repr__(self):
        return f"Quiver({len(self.vertices)} vertices, {len(self.edges)} edges)"


def parse_quiver(text):
    """Parse the line-oriented quiver format.

    ``vertices:`` is followed by whitespace-separated names (on the same
    line or subsequent lines); ``edges:`` starts the edge section, each
    edge being ``name: src -> dst``.  ``#`` starts a comment.
    """
    vertices = []
    edges = []
    mode = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vertices:"):
            mode = "vertices"
            line = line[len("vertices:"):].strip()
            if line:
                vertices.extend(line.split())
            continue
        if line.startswith("edges:"):
            mode = "edges"
            line = line[len("edges:"):].strip()
            if not line:
                continue
        if mode == "vertices":
            vertices.extend(line.split())
            continue
        if mode == "edges":
            if ":" not in line:
                raise QuiverError(f"expected 'name: src -> dst', got {line!r}",
                                  line=lineno)
            name, rest = line.split(":", 1)
            if "->" not in rest:
                raise QuiverError(f"missing '->' in edge {name.strip()!r}",
                                  line=lineno)
            src, dst = rest.split("->", 1)
            name, src, dst = name.strip(), src.strip(), dst.strip()
            if not name or not src or not dst:
                raise QuiverError("empty name in edge declaration", line=lineno)
            edges.append((name, src, dst, lineno))
            continue
        raise QuiverError(f"unexpected content {line!r} before a section header",
                          line=lineno)
    try:
        return Quiver(vertices, [(n, s, d) for n, s, d, _ in edges])
    except QuiverError as exc:
        if exc.edge is None:
            raise
        raise QuiverError(str(exc), line=edges[exc.edge][3]) from None


def rose(d):
    """The rose with d loops e0, e1, ... at the single vertex v."""
    return Quiver(["v"], [(f"e{i}", "v", "v") for i in range(d)])


# The most normal words that ``normal_words`` lists.  Their number grows
# like L 2^L in the bound L on rose2, where L = 10 lists 20,480 words and
# a verify at depth 6 took 3.5 s (Python 3.11, 2 cores); rose6 at the
# default L = 4, the largest list of the acceptance family, has 7,464.
MAX_NORMAL_WORDS = 1 << 16


def normal_words(quiver, bound):
    """All normal Toeplitz words p q*, as path pairs (p, q) with a common
    range and 1 <= |p| + |q| <= bound.

    The words are counted before any is listed: with P_a(v) paths of
    length a ending at v, there are P_a(v) P_b(v) words with |p| = a and
    |q| = b ending at v.  Raises ``RingError`` when the count passes
    ``MAX_NORMAL_WORDS``.
    """
    lengths = quiver.paths_ending()
    ending = list(islice(lengths, 1))    # ending[a][v] = P_a(v)
    total = 0
    for s in range(1, bound + 1):
        if len(ending) == s:
            ending += islice(lengths, 1)
        m = len(ending)
        if s > 2 * m - 2:
            break       # a or b is past the longest path, for every s after
        total += sum(ending[a][v] * ending[s - a][v]
                     for a in range(max(0, s - m + 1), min(s, m - 1) + 1)
                     for v in quiver.vertices)
        if total > MAX_NORMAL_WORDS:
            raise RingError(
                f"word bound {bound} gives more than {MAX_NORMAL_WORDS} "
                "normal words")
    paths_to = {v: [] for v in quiver.vertices}
    for length in range(len(ending)):
        for v in quiver.vertices:
            for p in quiver.paths_from(v, length):
                end = quiver.r(p[-1]) if p else v
                paths_to[end].append(p)
    words = []
    for v in quiver.vertices:
        for p in paths_to[v]:
            for q in paths_to[v]:
                if 1 <= len(p) + len(q) <= bound:
                    words.append((p, q))
    return words


# ---------------------------------------------------------------------------
# Adjacency data and the K-theory map
# ---------------------------------------------------------------------------

class AdjacencyData:
    """The regular vertices of a quiver and the induced K-theory map.

    ``theorem_map`` has one column per regular vertex v and one row per
    vertex y, with entry [y][v] = delta_{y,v} - (arrows from v to y): it
    sends the class of 1_v to 1_v - sum over e with s(e) = v of 1_{r(e)}.
    It is built in O(V + E) steps: a zero row per vertex, +1 at its own
    column when it is regular, then -1 at [r(e)][s(e)] for each edge e,
    whose source is always regular.
    """

    def __init__(self, quiver):
        self.quiver = quiver
        regs = quiver.regular_vertices
        width = len(regs)
        col = {v: j for j, v in enumerate(regs)}
        rows = {y: [0] * width for y in quiver.vertices}
        for j, v in enumerate(regs):
            rows[v][j] = 1
        source, target = quiver.source, quiver.range
        for e in quiver.edges:
            rows[target[e]][col[source[e]]] -= 1
        self.regular = regs
        self.theorem_map = IntMatrix.from_rows(rows.values())


# ---------------------------------------------------------------------------
# The quiver correspondence
# ---------------------------------------------------------------------------

def vertex_ring(quiver, k):
    """R = k^(Q0), one orthogonal idempotent per vertex."""
    return DirectSumRing(k, quiver.vertices, label=f"{k}^(Q0)")


def quiver_module(quiver, ring):
    """The edge module X = span(1_e) with its four bimodule actions.

    X symbols are edge names, X' symbols are ``(edge, "*")`` pairs.  The
    tables are exactly:
    <e*, f> = delta_{e,f} 1_{r(e)};  e . v = delta_{r(e),v} e;
    v . e = delta_{s(e),v} e;  e* . v = delta_{s(e),v} e*;
    v . e* = delta_{r(e),v} e*.
    """
    k = ring.k
    one = k.one
    q = quiver

    def star(e):
        return (e, "*")

    def pairing(c, b):
        e = c[0]
        if e != b:
            return ring.zero()
        return ring.monomial(q.r(e))

    def x_right(b, v):
        return {b: one} if q.r(b) == v else {}

    def x_left(v, b):
        return {b: one} if q.s(b) == v else {}

    def xp_left(v, c):
        return {c: one} if q.r(c[0]) == v else {}

    def xp_right(c, v):
        return {c: one} if q.s(c[0]) == v else {}

    def x_split(b):
        return b, ring.monomial(q.r(b))

    def xp_split(c):
        return ring.monomial(q.r(c[0])), c

    def x_support(b):
        return ring.monomial(q.s(b))

    def xp_support(c):
        return ring.monomial(q.r(c[0]))

    mod = FunctionalModule(
        ring=ring,
        x_basis=list(q.edges),
        xp_basis=[star(e) for e in q.edges],
        pairing=pairing, x_right=x_right, xp_left=xp_left,
        x_left=x_left, xp_right=xp_right,
        x_split=x_split, xp_split=xp_split,
        x_left_support=x_support, xp_left_support=xp_support,
        label="edge module")

    def annih_candidates(csyms, d):
        # tensors at degree d not annihilated outright by the chain: paths
        # extending the reversed ghost word (the pairing table is diagonal)
        prefix = tuple(c[0] for c in reversed(csyms))
        l = len(prefix)
        if d < l or (l and not q.is_path(prefix)):
            return []
        if l == 0:
            return None
        end = q.r(prefix[-1])
        return [prefix + ext for ext in q.paths_from(end, d - l)]

    mod.annih_candidates = annih_candidates
    return mod


def quiver_correspondence(quiver, k=ZZ):
    """The correspondence whose Cuntz-Pimsner ring is the Leavitt algebra.

    The functional homomorphism into R^(Q1) sends 1_e to the tuple
    (delta_{e,f} 1_{r(e)})_f on both sides; the left action of a regular
    vertex decomposes compactly as the sum of e (x) e* over e with
    s(e) = v.
    """
    ring = vertex_ring(quiver, k)
    mod = quiver_module(quiver, ring)
    free = funcmod.free_module(ring, list(quiver.edges))
    one = k.one

    def U(b):
        return {(b, quiver.r(b)): one}

    def V(c):
        e = c[0]
        return {(e, quiver.r(e)): one}

    hom = FunctionalHom(mod, free, U, V)

    def delta_compact_rule(relt):
        terms = []
        for v, coeff in relt.terms.items():
            for e in quiver.out_edges(v):
                terms.append(({e: coeff}, {(e, "*"): one}))
        return CompactOperator(mod, terms)

    return Correspondence(mod, hom, delta_compact_rule)


# ---------------------------------------------------------------------------
# Leavitt path algebra arithmetic
# ---------------------------------------------------------------------------

class LeavittRing(RingDescriptor):
    """The Leavitt path algebra L_k(Q) as a ring with canonical basis.

    Basis symbols are monomials ``(v, p, q)``: paths p and q (edge-name
    tuples) with common range v, standing for p q*.  The designated
    special edge of a regular vertex is the first edge it emits; a
    monomial whose paths both end in the special edge of their common
    source is rewritten through the range relation, which yields a linear
    basis, hence decidable equality.
    """

    def __init__(self, quiver, k=ZZ):
        super().__init__(k, f"L_{k}(Q)")
        self.quiver = quiver
        self._special = {v: quiver.out_edges(v)[0]
                         for v in quiver.regular_vertices}

    # -- symbols -------------------------------------------------------------

    def vertex(self, v):
        """The idempotent 1_v; an unknown vertex raises ``RingError``."""
        if v not in self.quiver._out:
            raise RingError(f"unknown vertex {v!r}")
        return self.monomial((v, (), ()))

    def path(self, edges):
        edges = tuple(edges)
        if not edges:
            raise RingError("empty path needs a vertex; use .vertex(v)")
        return self.monomial_pq(edges, ())

    def ghost(self, edges):
        edges = tuple(edges)
        if not edges:
            raise RingError("empty ghost path needs a vertex; use .vertex(v)")
        return self.monomial_pq((), edges)

    def monomial_pq(self, p, q):
        """p q* for paths sharing a range; zero if they do not compose.

        An edge the quiver does not have raises ``RingError``."""
        p, q = tuple(p), tuple(q)
        if not (p or q):
            raise RingError("vertex monomial needs .vertex(v)")
        quiv = self.quiver
        if (p and not quiv.is_path(p)) or (q and not quiv.is_path(q)):
            return self.zero()
        range_ = quiv.range
        v = range_[p[-1]] if p else range_[q[-1]]
        if p and q and range_[q[-1]] != v:
            return self.zero()
        return RingElement._of(self, self._reduced((v, p, q)))

    # -- reduction to the linear basis ----------------------------------------

    def _reduced(self, sym):
        """Eliminate special-edge junctions; returns clean terms."""
        v, p, q = sym
        k = self.k
        if not (p and q and p[-1] == q[-1]):
            return {sym: k.one}
        e = p[-1]
        quiv = self.quiver
        w = quiv.source[e]
        if self._special.get(w) != e:
            return {sym: k.one}
        # p' (e e*) q'* = p' q'* - sum over other edges f at w of p' f f* q'*
        out = self._reduced((w, p[:-1], q[:-1]))
        minus_one = k.neg(k.one)
        for f in quiv.out_edges(w):
            if f != e:
                out = vadd(k, out, vscale(k, self._reduced(
                    (quiv.range[f], p[:-1] + (f,), q[:-1] + (f,))),
                    minus_one))
        return out

    # -- ring structure --------------------------------------------------------

    def mul_basis(self, b1, b2):
        v1, p1, q1 = b1
        v2, p2, q2 = b2
        # contract q1* p2: nonzero only when one is a prefix of the other
        if len(q1) <= len(p2):
            if p2[:len(q1)] != q1:
                return {}
            rest = p2[len(q1):]
            if rest:
                if self.quiver.source[rest[0]] != v1:
                    return {}
                new = (v2, p1 + rest, q2)
            else:
                if v1 != v2:
                    return {}
                new = (v2, p1, q2)
        else:
            if q1[:len(p2)] != p2:
                return {}
            leftover = q1[len(p2):]
            if self.quiver.source[leftover[0]] != v2:
                return {}
            new = (v1, p1, q2 + leftover)
        return self._reduced(new)


# ---------------------------------------------------------------------------
# K-group pipelines
# ---------------------------------------------------------------------------

class PresetComponent:
    """One cyclic (or free) component of a K-group preset."""

    def __init__(self, group, multiplicity=1):
        self.group = group
        self.multiplicity = multiplicity  # positive int or "countable"

    def __repr__(self):
        return f"PresetComponent({self.group}, x{self.multiplicity})"


def field_presets(k):
    """Degree -1..1 K-group presets for the bundled coefficient rings.

    For a finite field F_p the units are cyclic of order p - 1; for Q they
    are Z/2 plus one infinite cyclic factor per prime (a countable free
    part, handled symbolically); the integers contribute units {1, -1}.
    Degree -1 is trivial for all bundled rings.
    """
    z = FgAbelianGroup.free(1)
    if isinstance(k, ZmodRing):
        if not k.is_field:
            raise RingError(
                f"no bundled K-group presets for non-prime modulus {k.modulus}")
        units = FgAbelianGroup.from_divisors(k.modulus - 1)
        e1 = [PresetComponent(FgAbelianGroup.from_divisors(d))
              for d in units.primary_components()]
        return {-1: [], 0: [PresetComponent(z)], 1: e1}
    if k is QQ:
        return {-1: [], 0: [PresetComponent(z)],
                1: [PresetComponent(FgAbelianGroup.from_divisors(2)),
                    PresetComponent(z, multiplicity="countable")]}
    if k is ZZ:
        return {-1: [], 0: [PresetComponent(z)],
                1: [PresetComponent(FgAbelianGroup.from_divisors(2))]}
    raise RingError(f"no bundled K-group presets for {k!r}")


def _segments_for(mat, comps):
    return [(comp, les_segment(mat, comp.group)) for comp in comps]


def _group_json(g):
    return {"free_rank": g.free_rank, "torsion": g.torsion, "repr": str(g)}


def _assemble(coker_segs, ker_segs):
    """Combine cokernel-at-n with kernel-at-(n-1) parts of E_n.

    The extension splits when the kernel part is free (subgroups of free
    abelian groups are free); torsion kernels are reported unassembled.
    """
    kernel_free = all(seg.kernel.is_free() for _, seg in ker_segs)
    finite = all(comp.multiplicity != "countable"
                 for comp, _ in coker_segs + ker_segs)
    status = "split-assembled" if kernel_free else "unassembled"
    assembled = None
    if kernel_free and finite:
        assembled = _total(coker_segs, "cokernel").direct_sum(
            _total(ker_segs, "kernel"))
    elif kernel_free:
        status = "split-assembled (countable multiplicity)"
    return assembled, status


def _pipeline_report(mat, presets, row_labels, col_labels):
    """The report of degrees 0 and 1, which read the presets of degrees
    -1, 0 and 1.  ``les_segment`` refuses a component that is neither
    free nor cyclic, with an ``AbgroupError``.
    """
    segments = {n: _segments_for(mat, presets.get(n, [])) for n in (-1, 0, 1)}
    report = {
        "matrix_M": {
            "rows": row_labels,
            "cols": col_labels,
            "entries": [list(r) for r in mat.entries],
        },
        "degrees": {},
    }
    for n in (0, 1):
        coker_segs = segments.get(n, [])
        ker_segs = segments.get(n - 1, [])
        assembled, status = _assemble(coker_segs, ker_segs)
        comps = []
        for comp, seg in coker_segs:
            comps.append({
                "coefficient": str(comp.group),
                "multiplicity": comp.multiplicity,
                "kernel": _group_json(seg.kernel),
                "cokernel": _group_json(seg.cokernel),
            })
        entry = {
            "components": comps,
            "kernel": _group_json(_total(coker_segs, "kernel")),
            "cokernel": _group_json(_total(coker_segs, "cokernel")),
            "assembled_group": _group_json(assembled) if assembled else None,
            "split_status": status,
        }
        report["degrees"][str(n)] = entry
    return report, segments


def _total(segs, which):
    total = FgAbelianGroup.trivial()
    for comp, seg in segs:
        if comp.multiplicity == "countable":
            continue
        for _ in range(comp.multiplicity):
            total = total.direct_sum(getattr(seg, which))
    return total


def k_groups(quiver, k=ZZ):
    """K-groups of L_k(Q) in degrees 0 and 1 from the adjacency map.

    The K-groups of the coefficient ring ``k`` come from ``field_presets``.
    Each degree of the output carries the kernel and cokernel of the
    adjacency map on that degree's coefficients and the assembled group
    coker(M at n) + ker(M at n-1) when the extension splits.
    """
    presets = field_presets(k)
    adj = AdjacencyData(quiver)
    report, segments = _pipeline_report(
        adj.theorem_map, presets,
        row_labels=list(quiver.vertices), col_labels=list(adj.regular))
    report = {
        "schema": 1,
        "pipeline": "quiver",
        "quiver": {
            "vertices": list(quiver.vertices),
            "edges": {e: [quiver.s(e), quiver.r(e)] for e in quiver.edges},
        },
        "regular_vertices": list(adj.regular),
        **report,
    }
    return report, segments


def crossed_product_k_groups(alpha):
    """Kernel/cokernel data of 1 - alpha in degrees 0 and 1.

    ``alpha`` is the matrix of the induced automorphism on the free part
    of the coefficient K-group; the preset is Z^n in degrees -1, 0 and 1,
    n matching the matrix size.
    """
    if alpha.rows != alpha.cols:
        raise RingError("automorphism matrix must be square")
    n = alpha.rows
    rows = [list(map(neg, row)) for row in alpha.entries]
    for i, row in enumerate(rows):
        row[i] += 1
    one_minus = IntMatrix.from_rows(rows)
    presets = {d: [PresetComponent(FgAbelianGroup.free(1))]
               for d in (-1, 0, 1)}
    report, segments = _pipeline_report(
        one_minus, presets,
        row_labels=list(range(n)), col_labels=list(range(n)))
    report = {
        "schema": 1,
        "pipeline": "crossed-product",
        "alpha": [list(r) for r in alpha.entries],
        **report,
    }
    return report, segments
