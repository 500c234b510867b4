"""Functional modules, finite-rank operators, and correspondences.

A functional module is a triple (X, X', g): a right R-module X, a left
R-module X', and a bilinear R-balanced pairing g taking values in R, written
``phi(x)`` for ``g(phi (x) x)``.  It stands in for a Hilbert module, with X'
playing the role of the conjugate module.  Everything is presented by
finite (or symbolically generated) bases of X and X' over the ground
coefficients, with the pairing and all four R-actions given as tables on
basis symbols and extended bilinearly.

Vectors are plain dicts mapping basis symbols to coefficients; the ring R
is a ``ringcore.RingDescriptor``.  Vectors are always clean: every
coefficient is coerced into the ground ring and none is zero.  ``vadd``,
``vscale`` and ``vclean`` keep that invariant, and so does every routine
that builds a vector, so two vectors are equal exactly when their dicts
compare equal.

On top of the module structure this file provides:

* ``CompactOperator``: elements of X (x)_R X', the finite-rank operators,
  acting by theta_{x,phi}(y) = x . phi(y), with the induced ring product
  (x1 (x) phi1)(x2 (x) phi2) = x1 (x) phi1(x2) . phi2;
* ``FunctionalHom``: pairs (U, V) of module maps compatible with the
  pairings, inducing ring maps of compact operators;
* ``Correspondence``: a functional module together with a left action by
  adjointable operators and a functional homomorphism into a free model
  R^(I);
* condition (FS) witnesses found by exact linear solves;
* direct sums and balanced tensor products of correspondences.

The balanced tensor normal form moves ring decorations off a symbol into
the neighbouring factor on its right, so a reduced pure tensor has bare
symbols everywhere except possibly its last slot.  For quiver modules this
specializes to "consecutive edges must compose"; for self-similar modules
it is exactly the propagation of a group element through a word.
"""

from __future__ import annotations

from functools import cache
from math import gcd

from . import abgroup
from .ringcore import RingError, ZmodRing, integer_rows


# ---------------------------------------------------------------------------
# Vector helpers: dicts from basis symbols to coefficients
# ---------------------------------------------------------------------------

# Scalars come out of the ring ops coerced, so a zero test is a plain
# comparison with ``k.zero``.

def vadd(k, a, b):
    add, zero = k.add, k.zero
    out = dict(a)
    for sym, c in b.items():
        s = add(out.get(sym, zero), c)
        if s == zero:
            out.pop(sym, None)
        else:
            out[sym] = s
    return out


def vscale(k, a, coeff):
    mul, zero = k.mul, k.zero
    coeff = k.coerce(coeff)
    if coeff == zero:
        return {}
    out = {}
    for sym, c in a.items():
        # over Z/m a product of nonzero entries can vanish
        c = mul(coeff, c)
        if c != zero:
            out[sym] = c
    return out


def vclean(k, a):
    coerce, zero = k.coerce, k.zero
    out = {}
    for sym, c in a.items():
        c = coerce(c)
        if c != zero:
            out[sym] = c
    return out


# ---------------------------------------------------------------------------
# Functional modules
# ---------------------------------------------------------------------------

class FunctionalModule:
    """A functional module with finite generating data over its ring.

    All tables operate on single basis symbols; the public methods extend
    them bilinearly to vectors.  ``x_left``/``xp_right`` are the left
    action of R on X and its adjoint counterpart on X', present when the
    module is part of a correspondence.  ``x_split``/``xp_split`` express
    a symbol as a bare symbol times a ring element and drive the balanced
    tensor normal form.
    """

    def __init__(self, *, ring, x_basis, xp_basis, pairing, x_right, xp_left,
                 x_left=None, xp_right=None, x_split=None, xp_split=None,
                 x_left_support=None, xp_left_support=None,
                 fs_pairs_left=None, fs_pairs_right=None,
                 label="module"):
        self.ring = ring
        self.k = ring.k
        self.x_basis = list(x_basis)
        self.xp_basis = list(xp_basis)
        # the tables are hit millions of times by the Fock machinery, so
        # memoize them on their (hashable) symbol arguments, per module
        self._pairing = cache(pairing)
        self._x_right = cache(x_right)
        self._xp_left = cache(xp_left)
        self._x_left = cache(x_left) if x_left is not None else None
        self._xp_right = cache(xp_right) if xp_right is not None else None
        self._x_split = cache(x_split) if x_split is not None else None
        self._xp_split = cache(xp_split) if xp_split is not None else None
        self._x_left_support = x_left_support
        self._xp_left_support = xp_left_support
        self._fs_pairs_left = fs_pairs_left
        self._fs_pairs_right = fs_pairs_right
        self._reduce_cache = {}
        self._reduce_dual_cache = {}
        self.annih_candidates = None
        self.label = label

    def __repr__(self):
        return f"<FunctionalModule {self.label}>"

    def _check(self, other):
        if self is not other:
            raise RingError("operands live over different modules")

    # -- pairing -----------------------------------------------------------

    def pair(self, pvec, xvec):
        """g(phi (x) x) for vectors, extended bilinearly; an element of R."""
        out = self.ring.zero()
        for c, cc in pvec.items():
            for b, cb in xvec.items():
                val = self._pairing(c, b)
                if not val.is_zero():
                    out = out + val.scale(self.k.mul(cc, cb))
        return out

    # -- module actions ----------------------------------------------------

    def _act(self, table, relt, vec, ring_first):
        k = self.k
        out = {}
        for sym, c in vec.items():
            for rsym, rc in relt.terms.items():
                hit = table(rsym, sym) if ring_first else table(sym, rsym)
                coeff = k.mul(c, rc)
                for hsym, hc in hit.items():
                    out[hsym] = k.add(out.get(hsym, k.zero), k.mul(coeff, hc))
        return vclean(k, out)

    def act_right(self, xvec, relt):
        """x . r for the structural right action on X."""
        return self._act(self._x_right, relt, xvec, ring_first=False)

    def act_left(self, relt, xvec):
        """Delta(r) x, the correspondence left action on X."""
        if self._x_left is None:
            raise RingError(f"{self.label} has no left action")
        return self._act(self._x_left, relt, xvec, ring_first=True)

    def act_xp_left(self, relt, pvec):
        """r . phi for the structural left action on X'."""
        return self._act(self._xp_left, relt, pvec, ring_first=True)

    def act_xp_right(self, pvec, relt):
        """phi . Delta(r), the adjoint-side right action on X'."""
        if self._xp_right is None:
            raise RingError(f"{self.label} has no adjoint-side action on X'")
        return self._act(self._xp_right, relt, pvec, ring_first=False)

    # -- splits and supports (tensor machinery) -----------------------------

    def x_split(self, b):
        """Write the symbol b as b0 . r with b0 bare; returns (b0, r)."""
        if self._x_split is None:
            raise RingError(f"{self.label} has no tensor normal form data")
        return self._x_split(b)

    def xp_split(self, c):
        """Write the symbol c as r . c0 with c0 bare; returns (r, c0)."""
        if self._xp_split is None:
            raise RingError(f"{self.label} has no tensor normal form data")
        return self._xp_split(c)

    def x_left_support(self, b):
        """A ring element u with Delta(u) b == b."""
        if self._x_left_support is None:
            raise RingError(f"{self.label} has no left support data")
        return self._x_left_support(b)

    def xp_left_support(self, c):
        """A ring element u with u . c == c (structural action)."""
        if self._xp_left_support is None:
            raise RingError(f"{self.label} has no left support data")
        return self._xp_left_support(c)

    # -- balanced tensor normal form ----------------------------------------

    def reduce_pair(self, b1, b2):
        """Normal form of b1 (x) b2 as a dict over symbol pairs."""
        try:
            return self._reduce_cache[(b1, b2)]
        except KeyError:
            pass
        b0, r = self.x_split(b1)
        k = self.k
        out = {}
        for sym, c in self.act_left(r, {b2: k.one}).items():
            key = (b0, sym)
            out[key] = k.add(out.get(key, k.zero), c)
        out = vclean(k, out)
        self._reduce_cache[(b1, b2)] = out
        return out

    def reduce_pair_dual(self, c1, c2):
        """Normal form of c1 (x) c2 on the X' side (decorations move left)."""
        try:
            return self._reduce_dual_cache[(c1, c2)]
        except KeyError:
            pass
        r, c0 = self.xp_split(c2)
        k = self.k
        out = {}
        for sym, c in self.act_xp_right({c1: k.one}, r).items():
            key = (sym, c0)
            out[key] = k.add(out.get(key, k.zero), c)
        out = vclean(k, out)
        self._reduce_dual_cache[(c1, c2)] = out
        return out

    def tensor_normalize(self, syms):
        """Normal form of a pure tensor of X symbols: dict over tuples."""
        syms = tuple(syms)
        if len(syms) <= 1:
            return {syms: self.k.one}
        out = {}
        k = self.k
        for (b0, nxt), c in self.reduce_pair(syms[0], syms[1]).items():
            for tail, ct in self.tensor_normalize((nxt,) + syms[2:]).items():
                key = (b0,) + tail
                out[key] = k.add(out.get(key, k.zero), k.mul(c, ct))
        return vclean(k, out)

    def dual_tensor_normalize(self, syms):
        """Normal form of a pure tensor of X' symbols."""
        syms = tuple(syms)
        if len(syms) <= 1:
            return {syms: self.k.one}
        out = {}
        k = self.k
        for tail_key, ct in self.dual_tensor_normalize(syms[1:]).items():
            for (head, c1), c in self.reduce_pair_dual(syms[0], tail_key[0]).items():
                key = (head, c1) + tail_key[1:]
                out[key] = k.add(out.get(key, k.zero), k.mul(c, ct))
        return vclean(k, out)

    # -- incremental normal forms (tails/heads already reduced) ---------------

    def prepend_normal(self, b, t):
        """Normal form of b (x) t when the tuple t is already reduced.

        Only the new adjacent pair needs work unless the reduction rewrites
        t's head, in which case the cascade continues rightward.
        """
        k = self.k
        if not t:
            return {(b,): k.one}
        out = {}
        for (b0, nxt), c in self.reduce_pair(b, t[0]).items():
            if nxt == t[0]:
                key = (b0,) + t
                out[key] = k.add(out.get(key, k.zero), c)
            else:
                for tail, ct in self.prepend_normal(nxt, t[1:]).items():
                    key = (b0,) + tail
                    out[key] = k.add(out.get(key, k.zero), k.mul(c, ct))
        return vclean(k, out)

    def append_normal(self, t, b):
        """Normal form of t (x) b when the tuple t is already reduced."""
        k = self.k
        if not t:
            return {(b,): k.one}
        out = {}
        for (h, nxt), c in self.reduce_pair(t[-1], b).items():
            if h == t[-1]:
                key = t + (nxt,)
                out[key] = k.add(out.get(key, k.zero), c)
            else:
                for head, ch in self.append_normal(t[:-1], h).items():
                    key = head + (nxt,)
                    out[key] = k.add(out.get(key, k.zero), k.mul(c, ch))
        return vclean(k, out)

    def dual_append_normal(self, t, c2):
        """Normal form of t (x) c2 on the X' side, t already reduced."""
        k = self.k
        if not t:
            return {(c2,): k.one}
        out = {}
        for (h, c0), c in self.reduce_pair_dual(t[-1], c2).items():
            if h == t[-1]:
                key = t + (c0,)
                out[key] = k.add(out.get(key, k.zero), c)
            else:
                for head, ch in self.dual_append_normal(t[:-1], h).items():
                    key = head + (c0,)
                    out[key] = k.add(out.get(key, k.zero), k.mul(c, ch))
        return vclean(k, out)

    def pair_tensor(self, ctuple, btuple):
        """Graded pairing of equal-length pure tensors; an element of R.

        The last X' factor meets the first X factor:
        (c_1 (x) ... (x) c_n)(b_1 (x) ... (x) b_n)
        = c_1( c_2( ... c_n(b_1) . b_2 ... ) . b_n ).
        """
        if len(ctuple) != len(btuple):
            raise RingError("graded pairing needs equal degrees")
        n = len(ctuple)
        if n == 0:
            raise RingError("degree-zero pairing is ring multiplication")
        k = self.k
        relt = self._pairing(ctuple[n - 1], btuple[0])
        for i in range(1, n):
            if relt.is_zero():
                return self.ring.zero()
            target = self.act_left(relt, {btuple[i]: k.one})
            relt = self.pair({ctuple[n - 1 - i]: k.one}, target)
        return relt


# ---------------------------------------------------------------------------
# Compact (finite-rank) operators
# ---------------------------------------------------------------------------

class CompactOperator:
    """A finite sum of elementary tensors x (x) phi in X (x)_R X'."""

    __slots__ = ("module", "terms", "_normal")

    def __init__(self, module, terms):
        self.module = module
        k = module.k
        cleaned = ((vclean(k, x), vclean(k, p)) for x, p in terms)
        self.terms = [(x, p) for x, p in cleaned if x and p]
        self._normal = None

    @classmethod
    def zero(cls, module):
        return cls(module, [])

    @classmethod
    def elementary(cls, module, xvec, pvec):
        return cls(module, [(xvec, pvec)])

    def normal_terms(self):
        """Canonical dict over reduced symbol pairs (b, c)."""
        if self._normal is None:
            m, k = self.module, self.module.k
            out = {}
            for xvec, pvec in self.terms:
                for b, cb in xvec.items():
                    b0, r = m.x_split(b)
                    for c, cc in m.act_xp_left(r, pvec).items():
                        key = (b0, c)
                        out[key] = k.add(out.get(key, k.zero), k.mul(cb, cc))
            self._normal = vclean(k, out)
        return self._normal

    def is_zero(self):
        return not self.normal_terms()

    def __eq__(self, other):
        if not isinstance(other, CompactOperator):
            return NotImplemented
        return (self.module is other.module
                and self.normal_terms() == other.normal_terms())

    def __hash__(self):
        return hash((id(self.module),
                     tuple(sorted(self.normal_terms().items(), key=repr))))

    def __add__(self, other):
        self.module._check(other.module)
        return CompactOperator(self.module, self.terms + other.terms)

    def __neg__(self):
        k = self.module.k
        return CompactOperator(self.module,
                               [(vscale(k, x, -1), p) for x, p in self.terms])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff):
        k = self.module.k
        return CompactOperator(self.module,
                               [(vscale(k, x, coeff), p) for x, p in self.terms])

    def __mul__(self, other):
        self.module._check(other.module)
        m = self.module
        terms = []
        for x1, p1 in self.terms:
            for x2, p2 in other.terms:
                r = m.pair(p1, x2)
                if not r.is_zero():
                    terms.append((x1, m.act_xp_left(r, p2)))
        return CompactOperator(m, terms)

    def apply(self, yvec):
        """theta action on X: sum of x_i . phi_i(y)."""
        m, k = self.module, self.module.k
        out = {}
        for xvec, pvec in self.terms:
            r = m.pair(pvec, yvec)
            if not r.is_zero():
                out = vadd(k, out, m.act_right(xvec, r))
        return out

    def apply_right(self, psivec):
        """Right theta action on X': psi . (x (x) phi) = psi(x) . phi."""
        m, k = self.module, self.module.k
        out = {}
        for xvec, pvec in self.terms:
            r = m.pair(psivec, xvec)
            if not r.is_zero():
                out = vadd(k, out, m.act_xp_left(r, pvec))
        return out

    def __repr__(self):
        nt = self.normal_terms()
        if not nt:
            return "0"
        return " + ".join(f"{c}*({b} (x) {ph})" if c != 1 else f"({b} (x) {ph})"
                          for (b, ph), c in sorted(nt.items(), key=repr))


def compact_mul(k1, k2):
    """Product of finite-rank operators (bilinear extension, reduced)."""
    return k1 * k2


def theta_apply(k_op, yvec):
    return k_op.apply(yvec)


def theta_apply_right(psivec, k_op):
    return k_op.apply_right(psivec)


# ---------------------------------------------------------------------------
# Functional homomorphisms
# ---------------------------------------------------------------------------

class FunctionalHom:
    """A pairing-compatible pair of maps U : X -> Y, V : X' -> Y'."""

    def __init__(self, source, target, U, V, label="hom"):
        self.source = source
        self.target = target
        self._U = U if callable(U) else (lambda b, _t=dict(U): dict(_t[b]))
        self._V = V if callable(V) else (lambda c, _t=dict(V): dict(_t[c]))
        self.label = label

    def u_of(self, xvec):
        k = self.target.k
        out = {}
        for b, c in xvec.items():
            out = vadd(k, out, vscale(k, self._U(b), c))
        return out

    def v_of(self, pvec):
        k = self.target.k
        out = {}
        for sym, c in pvec.items():
            out = vadd(k, out, vscale(k, self._V(sym), c))
        return out

    @classmethod
    def identity(cls, module):
        one = module.k.one
        return cls(module, module,
                   lambda b: {b: one}, lambda c: {c: one}, label="id")


def check_functional_hom(hom):
    """True iff V(phi)(U(x)) == phi(x) on all basis pairs."""
    src, tgt = hom.source, hom.target
    one = src.k.one
    for c in src.xp_basis:
        for b in src.x_basis:
            lhs = tgt.pair(hom.v_of({c: one}), hom.u_of({b: one}))
            rhs = src.pair({c: one}, {b: one})
            if lhs != rhs:
                return False
    return True


def induced_compact_map(hom, k_op):
    """The ring map U (x) V on finite-rank operators."""
    if k_op.module is not hom.source:
        raise RingError("operator is not over the hom's source module")
    return CompactOperator(hom.target,
                           [(hom.u_of(x), hom.v_of(p)) for x, p in k_op.terms])


def check_pairing_balance(module, ring_symbols=None):
    """The pairing is a bimodule map on basis pairs and ring generators.

    Checks r . <phi, x> == <r . phi, x> and <phi, x> . r == <phi, x . r>
    for every basis pair and every listed ring symbol (defaults to the
    ring basis, or its generator list for symbolic rings).
    """
    ring = module.ring
    one = module.k.one
    if ring_symbols is None:
        ring_symbols = ring.basis
        if ring_symbols is None:
            ring_symbols = getattr(ring, "gen_symbols", None)
        if ring_symbols is None:
            raise RingError(f"{ring.label} lists no generators")
    for rsym in ring_symbols:
        r = ring.monomial(rsym)
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


def compact_to_matrix(k_op, matrix_ring):
    """The identification of finite-rank operators on R^(I) with M_I(R).

    An elementary tensor (alpha_i) (x) (beta_j) goes to the finite matrix
    with (i, j) entry alpha_i beta_j; the map is a ring isomorphism onto
    the finitely supported matrices.
    """
    inner = matrix_ring.inner
    k = k_op.module.k
    terms = {}
    for xvec, pvec in k_op.terms:
        for (i, a), ca in xvec.items():
            for (j, b), cb in pvec.items():
                for sym, c in inner.mul_basis(a, b).items():
                    key = (i, j, sym)
                    prev = terms.get(key, k.zero)
                    terms[key] = k.add(prev, k.mul(k.mul(ca, cb), c))
    return matrix_ring.element(terms)


def check_adjointable(module, f, fstar):
    """Adjoint law phi(f(x)) == (f* phi)(x) on all basis pairs.

    ``f`` maps X basis symbols to vectors, ``fstar`` X' basis symbols to
    vectors.
    """
    one = module.k.one
    for c in module.xp_basis:
        for b in module.x_basis:
            if module.pair({c: one}, f(b)) != module.pair(fstar(c), {b: one}):
                return False
    return True


# ---------------------------------------------------------------------------
# Condition (FS) witnesses
# ---------------------------------------------------------------------------

def _default_pairs_left(module, support):
    if module._fs_pairs_left is not None:
        return module._fs_pairs_left(support)
    return [(b, c) for b in support for c in module.xp_basis]


def _default_pairs_right(module, support):
    if module._fs_pairs_right is not None:
        return module._fs_pairs_right(support)
    return [(b, c) for c in support for b in module.x_basis]


def _theta_witness(module, targets, acting_left):
    """Solve for a finite-rank operator fixing every target vector."""
    k = module.k
    one = k.one
    support = list(dict.fromkeys(sym for vec in targets for sym in vec))
    pairs = (_default_pairs_left(module, support) if acting_left
             else _default_pairs_right(module, support))
    pairs = list(dict.fromkeys(pairs))
    if not pairs:
        return None

    columns = []
    sym_index = {}
    for (b, c) in pairs:
        op = CompactOperator.elementary(module, {b: one}, {c: one})
        col = []
        for vec in targets:
            img = op.apply(vec) if acting_left else op.apply_right(vec)
            col.append(img)
            for sym in img:
                sym_index.setdefault(sym, len(sym_index))
        columns.append(col)
    for vec in targets:
        for sym in vec:
            sym_index.setdefault(sym, len(sym_index))

    rows = []
    rhs = []
    for t_idx, vec in enumerate(targets):
        for sym in sym_index:
            rows.append([columns[p_idx][t_idx].get(sym, k.zero)
                         for p_idx in range(len(pairs))])
            rhs.append(vec.get(sym, k.zero))
    sol = k.solve(rows, rhs)
    if sol is None:
        return None
    terms = [({b: one}, {c: sol[i]}) for i, (b, c) in enumerate(pairs)
             if not k.is_zero(sol[i])]
    return CompactOperator(module, terms)


def fs_witness(module, xs, phis):
    """Witnesses (Theta1, Theta2) with Theta1 x_i = x_i and phi_i Theta2 = phi_i.

    Found by solving finite linear systems over the coefficient ring,
    restricted to the sub-basis reachable from the inputs' supports.
    Returns None when no witness exists on that sub-basis; that is a
    result (the inputs fail condition (FS) there), not an error.
    """
    xs = [vclean(module.k, x) for x in xs]
    phis = [vclean(module.k, p) for p in phis]
    xs = [x for x in xs if x]
    phis = [p for p in phis if p]
    theta1 = CompactOperator.zero(module) if not xs else \
        _theta_witness(module, xs, acting_left=True)
    if theta1 is None:
        return None
    theta2 = CompactOperator.zero(module) if not phis else \
        _theta_witness(module, phis, acting_left=False)
    if theta2 is None:
        return None
    return theta1, theta2


# ---------------------------------------------------------------------------
# Non-degeneracy
# ---------------------------------------------------------------------------

def _rows_independent(k, rows):
    """No nontrivial k-combination of the rows vanishes.

    Read off the one Smith elimination (``abgroup``) for every ring.
    Clearing each row's denominators keeps independence.  Over Z and Q
    the rows are independent iff the rank is the row count.  Over Z/m,
    lambda . rows = 0 iff lambda is in ker(rows^T mod m), a sum of
    Z/gcd(d_i, m) over the Smith invariants d_i plus
    (Z/m)^(len(rows) - rank), so each d_i must also be a unit mod m.
    """
    if not rows:
        return True
    diag = abgroup.IntMatrix.from_rows(integer_rows(rows)).smith_diagonal()
    return len(diag) == len(rows) and (
        not isinstance(k, ZmodRing)
        or all(gcd(d, k.modulus) == 1 for d in diag))


def nondegenerate(module):
    """Check the pairing has trivial left and right null spaces.

    The pairing table over the listed bases is flattened to ground
    coefficients (one column per occurring ring basis symbol per partner)
    and both null spaces are decided exactly by ``_rows_independent``,
    which reads the one Smith elimination of ``abgroup`` over Z, Q and
    Z/m alike.
    """
    k = module.k
    ring_syms = {}
    table = {}
    for c in module.xp_basis:
        for b in module.x_basis:
            val = module._pairing(c, b)
            table[(c, b)] = val
            for sym in val.terms:
                ring_syms.setdefault(sym, len(ring_syms))
    ncols = max(len(ring_syms), 1)

    left_rows = []
    for c in module.xp_basis:
        row = [k.zero] * (ncols * len(module.x_basis))
        for j, b in enumerate(module.x_basis):
            for sym, coeff in table[(c, b)].terms.items():
                row[j * ncols + ring_syms[sym]] = coeff
        left_rows.append(row)
    right_rows = []
    for b in module.x_basis:
        row = [k.zero] * (ncols * len(module.xp_basis))
        for i, c in enumerate(module.xp_basis):
            for sym, coeff in table[(c, b)].terms.items():
                row[i * ncols + ring_syms[sym]] = coeff
        right_rows.append(row)
    return _rows_independent(k, left_rows) and _rows_independent(k, right_rows)


# ---------------------------------------------------------------------------
# Correspondences
# ---------------------------------------------------------------------------

class Correspondence:
    """A functional module with a compatible left action and free-model hom."""

    def __init__(self, module, hom, index_set, delta_compact_rule=None,
                 left_ring=None, label=None):
        self.module = module
        self.hom = hom
        self.index_set = list(index_set)
        self._delta_compact_rule = delta_compact_rule
        self.left_ring = left_ring if left_ring is not None else module.ring
        self.label = label or module.label

    def delta_compact(self, relt):
        """The left action of ``relt`` as a finite-rank operator.

        Raises when no compact decomposition is available for the element.
        """
        if self._delta_compact_rule is None:
            raise RingError("left action not compact")
        op = self._delta_compact_rule(relt)
        if op is None:
            raise RingError("left action not compact")
        return op

    def left_generator_symbols(self):
        gens = self.left_ring.basis
        if gens is None:
            gens = getattr(self.left_ring, "gen_symbols", None)
        if gens is None:
            raise RingError(f"{self.left_ring.label} lists no generators")
        return gens

    def check_adjointable(self):
        """Adjoint law for Delta(r) against the X' right action."""
        m = self.module
        one = m.k.one
        for rsym in self.left_generator_symbols():
            r = self.left_ring.monomial(rsym)
            ok = check_adjointable(
                m,
                lambda b, r=r: m.act_left(r, {b: one}),
                lambda c, r=r: m.act_xp_right({c: one}, r))
            if not ok:
                return False
        return True

    def check_nondegenerate_action(self):
        """Delta(R) X = X and X' Delta(R) = X', witnessed on generators.

        Each basis vector must be recovered by the action of some listed
        ring generator (an idempotent absorbing it); that spans the module
        from the action, which is the non-degeneracy required of a left
        action.
        """
        m = self.module
        one = m.k.one
        for b in m.x_basis:
            u = m.x_left_support(b)
            if m.act_left(u, {b: one}) != {b: one}:
                return False
        gens = self.left_generator_symbols()
        for c in m.xp_basis:
            for rsym in gens:
                u = self.left_ring.monomial(rsym)
                if m.act_xp_right({c: one}, u) == {c: one}:
                    break
            else:
                return False
        return True


def free_module(ring, index_set, label=None):
    """The free functional module R^(I) with coordinatewise pairing.

    X symbols are pairs (i, b) with b a ring basis symbol; the pairing is
    <(alpha_i), (beta_i)> = sum_i alpha_i beta_i, and R acts coordinatewise
    on both sides.
    """
    index = list(index_set)
    k = ring.k

    def relt_of(d):
        from .ringcore import RingElement
        return RingElement(ring, d)

    def pairing(c, b):
        (i, a), (j, bb) = c, b
        if i != j:
            return ring.zero()
        return relt_of(ring.mul_basis(a, bb))

    def x_right(b, rsym):
        i, a = b
        return {(i, s): c for s, c in ring.mul_basis(a, rsym).items()}

    def x_left(rsym, b):
        i, a = b
        return {(i, s): c for s, c in ring.mul_basis(rsym, a).items()}

    def xp_left(rsym, c):
        return x_left(rsym, c)

    def xp_right(c, rsym):
        return x_right(c, rsym)

    def x_split(b):
        i, a = b
        return b, relt_of({ring.right_support_symbol(a): k.one})

    def xp_split(c):
        i, a = c
        return relt_of({ring.left_support_symbol(a): k.one}), c

    def support(b):
        i, a = b
        return relt_of({ring.left_support_symbol(a): k.one})

    def fs_pairs_left(support_syms):
        pairs = []
        for (i, a) in support_syms:
            for u in ring.local_unit_terms({a}):
                for u2 in ring.local_unit_terms({a}):
                    pairs.append(((i, u), (i, u2)))
        return pairs

    def fs_pairs_right(support_syms):
        return fs_pairs_left(support_syms)

    if ring.basis is not None:
        basis = [(i, a) for i in index for a in ring.basis]
    else:
        basis = [(i, ring.unit_symbol) for i in index]

    mod = FunctionalModule(
        ring=ring, x_basis=basis, xp_basis=list(basis),
        pairing=pairing, x_right=x_right, xp_left=xp_left,
        x_left=x_left, xp_right=xp_right,
        x_split=x_split, xp_split=xp_split,
        x_left_support=support, xp_left_support=support,
        fs_pairs_left=fs_pairs_left, fs_pairs_right=fs_pairs_right,
        label=label or f"{ring.label}^({len(index)})")
    return mod


def free_correspondence(ring, index_set, label=None):
    """R^(I) as an R-correspondence with the identity functional hom."""
    mod = free_module(ring, index_set, label=label)
    hom = FunctionalHom.identity(mod)
    k = ring.k

    def delta_compact_rule(relt):
        # Delta(r) restricted to each coordinate is theta_{e_i r', e_i u}
        # summed over a local unit u absorbing the support of r.
        terms = []
        for i in index_set:
            for sym, c in relt.terms.items():
                u = ring.local_unit_terms({sym})
                terms.append(({(i, sym): c},
                              {(i, us): uc for us, uc in u.items()}))
        return CompactOperator(mod, terms)

    return Correspondence(mod, hom, list(index_set),
                          delta_compact_rule=delta_compact_rule,
                          label=label or mod.label)


def rank_one_free_correspondence(ring, label=None):
    """The identity correspondence (R, R, mul) on a single coordinate."""
    return free_correspondence(ring, ["*"],
                               label=label or f"rank-one over {ring.label}")


def direct_sum(m1, m2, label=None):
    """Block sum of functional modules; the pairing vanishes across blocks."""
    if m1.ring is not m2.ring:
        raise RingError("direct sum needs modules over the same ring")
    ring, k = m1.ring, m1.k

    def side(sym):
        return (m1, m2)[sym[0]]

    def tag(ix, d):
        return {(ix, s): c for s, c in d.items()}

    def pairing(c, b):
        if c[0] != b[0]:
            return ring.zero()
        return side(c)._pairing(c[1], b[1])

    def x_right(b, rsym):
        return tag(b[0], side(b)._x_right(b[1], rsym))

    def xp_left(rsym, c):
        return tag(c[0], side(c)._xp_left(rsym, c[1]))

    def x_left(rsym, b):
        return tag(b[0], side(b)._x_left(rsym, b[1]))

    def xp_right(c, rsym):
        return tag(c[0], side(c)._xp_right(c[1], rsym))

    def x_split(b):
        b0, r = side(b).x_split(b[1])
        return (b[0], b0), r

    def xp_split(c):
        r, c0 = side(c).xp_split(c[1])
        return r, (c[0], c0)

    def x_support(b):
        return side(b).x_left_support(b[1])

    def xp_support(c):
        return side(c).xp_left_support(c[1])

    has_left = m1._x_left is not None and m2._x_left is not None
    has_xpr = m1._xp_right is not None and m2._xp_right is not None
    return FunctionalModule(
        ring=ring,
        x_basis=[(0, b) for b in m1.x_basis] + [(1, b) for b in m2.x_basis],
        xp_basis=[(0, c) for c in m1.xp_basis] + [(1, c) for c in m2.xp_basis],
        pairing=pairing, x_right=x_right, xp_left=xp_left,
        x_left=x_left if has_left else None,
        xp_right=xp_right if has_xpr else None,
        x_split=x_split, xp_split=xp_split,
        x_left_support=x_support, xp_left_support=xp_support,
        label=label or f"{m1.label} (+) {m2.label}")


def tensor(c1, c2, label=None):
    """Balanced tensor product of composable correspondences.

    The new module is X (x)_S Y with X'-side Y' (x)_S X' and pairing
    (psi (x) phi)(x (x) y) = psi(phi(x) . y); the functional homomorphism
    lands in the free model on the product index set.
    """
    if c1.module.ring is not c2.left_ring:
        raise RingError("middle rings of the tensor factors differ")
    mx, my = c1.module, c2.module
    ring = my.ring
    k = ring.k
    one = k.one

    def cross_reduce(bx, by):
        b0, r = mx.x_split(bx)
        return {(b0, sym): c for sym, c in my.act_left(r, {by: one}).items()}

    def cross_reduce_dual(cy, cx):
        r, c0 = mx.xp_split(cx)
        return {(sym, c0): c for sym, c in my.act_xp_right({cy: one}, r).items()}

    x_basis = list(dict.fromkeys(
        key for bx in mx.x_basis for by in my.x_basis
        for key in cross_reduce(bx, by)))
    xp_basis = list(dict.fromkeys(
        key for cy in my.xp_basis for cx in mx.xp_basis
        for key in cross_reduce_dual(cy, cx)))

    def pairing(c, b):
        cy, cx = c
        bx, by = b
        r = mx.pair({cx: one}, {bx: one})
        if r.is_zero():
            return ring.zero()
        return my.pair({cy: one}, my.act_left(r, {by: one}))

    def x_right(b, tsym):
        bx, by = b
        return {(bx, s): c for s, c in my._x_right(by, tsym).items()}

    def x_left(rsym, b):
        bx, by = b
        out = {}
        for bx2, c in mx._x_left(rsym, bx).items():
            for key, c2 in cross_reduce(bx2, by).items():
                out[key] = k.add(out.get(key, k.zero), k.mul(c, c2))
        return vclean(k, out)

    def xp_left(tsym, c):
        cy, cx = c
        return {(s, cx): cc for s, cc in my._xp_left(tsym, cy).items()}

    def xp_right(c, rsym):
        cy, cx = c
        out = {}
        for cx2, cc in mx._xp_right(cx, rsym).items():
            for key, c2 in cross_reduce_dual(cy, cx2).items():
                out[key] = k.add(out.get(key, k.zero), k.mul(cc, c2))
        return vclean(k, out)

    def x_split(b):
        bx, by = b
        by0, r = my.x_split(by)
        return (bx, by0), r

    def xp_split(c):
        cy, cx = c
        r, cy0 = my.xp_split(cy)
        return r, (cy0, cx)

    def x_support(b):
        return mx.x_left_support(b[0])

    mod = FunctionalModule(
        ring=ring, x_basis=x_basis, xp_basis=xp_basis,
        pairing=pairing, x_right=x_right, xp_left=xp_left,
        x_left=x_left, xp_right=xp_right,
        x_split=x_split, xp_split=xp_split,
        x_left_support=x_support,
        label=label or f"{mx.label} (x) {my.label}")

    product_index = [(i, j) for i in c1.index_set for j in c2.index_set]
    free_target = free_module(ring, product_index)

    def U(b):
        bx, by = b
        out = {}
        for (i, ssym), cu in c1.hom.u_of({bx: one}).items():
            yv = my.act_left(mx.ring.monomial(ssym), {by: one})
            for (j, tsym), cu2 in c2.hom.u_of(yv).items():
                key = ((i, j), tsym)
                out[key] = k.add(out.get(key, k.zero), k.mul(cu, cu2))
        return vclean(k, out)

    def V(c):
        cy, cx = c
        out = {}
        for (i, ssym), cv in c1.hom.v_of({cx: one}).items():
            yv = my.act_xp_right({cy: one}, mx.ring.monomial(ssym))
            for (j, tsym), cv2 in c2.hom.v_of(yv).items():
                key = ((i, j), tsym)
                out[key] = k.add(out.get(key, k.zero), k.mul(cv, cv2))
        return vclean(k, out)

    hom = FunctionalHom(mod, free_target, U, V)
    return Correspondence(mod, hom, product_index,
                          left_ring=c1.left_ring,
                          label=label or f"{c1.label} (x) {c2.label}")
