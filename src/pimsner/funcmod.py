"""Functional modules, finite-rank operators, and correspondences.

A functional module is a triple (X, X', g): a right R-module X, a left
R-module X', and a bilinear R-balanced pairing g taking values in R, written
``phi(x)`` for ``g(phi (x) x)``.  It stands in for a Hilbert module, with X'
playing the role of the conjugate module.  Everything is presented by
finite (or symbolically generated) bases of X and X' over the ground
coefficients, with the pairing and all four R-actions given as tables on
basis symbols and extended bilinearly.

Vectors are plain dicts mapping basis symbols to coefficients; the ring R
is a ``ringcore.RingDescriptor``.  Every routine here builds clean vectors
with the helpers of ``ringcore``, whose docstring states the rule.

On top of the module structure this file provides:

* ``CompactOperator``: elements of X (x)_R X', the finite-rank operators,
  acting by theta_{x,phi}(y) = x . phi(y), with the induced ring product
  (x1 (x) phi1)(x2 (x) phi2) = x1 (x) phi1(x2) . phi2;
* ``FunctionalHom``: pairs (U, V) of module maps compatible with the
  pairings;
* ``Correspondence``: a functional module together with a left action by
  adjointable operators and a functional homomorphism into a free model
  R^(I).

Condition (FS) needs no linear solve on the modules the pipelines build:
for a quiver module and a Nekrashevych module, ``x_basis`` and
``xp_basis`` are a frame in the same order, so the sum of
theta_{b, b*} over the pairs is the identity of X and of X'.

The balanced tensor normal form moves ring decorations off a symbol into
the neighbouring factor on its right, so a reduced pure tensor has bare
symbols everywhere except possibly its last slot.  For quiver modules this
specializes to "consecutive edges must compose"; for self-similar modules
it is exactly the propagation of a group element through a word.
"""

from __future__ import annotations

from functools import cache

# ``vadd`` and ``vscale`` stay bound here, where ``perfbench`` traces them
from .ringcore import (RingElement, RingError, vadd, vapply, vclean, vdrop,
                       vmul, vscale)


# ---------------------------------------------------------------------------
# Functional modules
# ---------------------------------------------------------------------------

class FunctionalModule:
    """A functional module with finite generating data over its ring.

    All tables operate on single basis symbols; the public methods extend
    them bilinearly to vectors.  ``x_right`` and ``xp_left`` are the
    structural actions of R on X and X'; ``x_left`` and ``xp_right`` are
    the left action of R on X and its adjoint counterpart on X', which
    make the module a correspondence.  Three more pairs of tables, read
    directly as attributes, drive the balanced tensor normal form:

    * ``x_split(b) = (b0, r)`` writes the symbol b as b0 . r with b0 bare;
    * ``xp_split(c) = (r, c0)`` writes the symbol c as r . c0 with c0
      bare;
    * ``x_left_support(b)`` is a ring element u with Delta(u) b == b, and
      ``xp_left_support(c)`` one with u . c == c for the structural action.
    """

    def __init__(self, *, ring, x_basis, xp_basis, pairing, x_right, xp_left,
                 x_left, xp_right, x_split, xp_split, x_left_support,
                 xp_left_support, label):
        self.ring = ring
        self.k = ring.k
        self.x_basis = list(x_basis)
        self.xp_basis = list(xp_basis)
        # the tables are hit millions of times by the Fock machinery, so
        # memoize them on their (hashable) symbol arguments, per module
        self._pairing = cache(pairing)
        self._x_right = cache(x_right)
        self._xp_left = cache(xp_left)
        self._x_left = cache(x_left)
        self._xp_right = cache(xp_right)
        self.x_split = cache(x_split)
        self.xp_split = cache(xp_split)
        self.x_left_support = x_left_support
        self.xp_left_support = xp_left_support
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
        """g(phi (x) x) for vectors, extended bilinearly; an element of R.

        One symbol against one symbol with coefficient one is the cached
        table value itself, shared by every such call: read it, never
        mutate it.
        """
        if len(pvec) == 1 and len(xvec) == 1:
            [(c, cc)] = pvec.items()
            [(b, cb)] = xvec.items()
            val = self._pairing(c, b)
            coeff = self.k.mul(cc, cb)
            return val if coeff == self.k.one else val.scale(coeff)
        return RingElement._of(self.ring, vmul(
            self.k, lambda c, b: self._pairing(c, b).terms, pvec, xvec))

    # -- module actions: each table extended bilinearly, left factor outermost

    def act_right(self, xvec, relt):
        """x . r for the structural right action on X."""
        return vmul(self.k, self._x_right, xvec, relt.terms)

    def act_left(self, relt, xvec):
        """Delta(r) x, the correspondence left action on X."""
        return vmul(self.k, self._x_left, relt.terms, xvec)

    def act_xp_left(self, relt, pvec):
        """r . phi for the structural left action on X'."""
        return vmul(self.k, self._xp_left, relt.terms, pvec)

    def act_xp_right(self, pvec, relt):
        """phi . Delta(r), the adjoint-side right action on X'."""
        return vmul(self.k, self._xp_right, pvec, relt.terms)

    # -- balanced tensor normal form ----------------------------------------

    def reduce_pair(self, b1, b2):
        """Normal form of b1 (x) b2 as a dict over symbol pairs."""
        try:
            return self._reduce_cache[(b1, b2)]
        except KeyError:
            pass
        # sym -> (b0, sym) is injective, so the image of a clean vector
        # is clean
        b0, r = self.x_split(b1)
        out = {(b0, sym): c
               for sym, c in self.act_left(r, {b2: self.k.one}).items()}
        self._reduce_cache[(b1, b2)] = out
        return out

    def reduce_pair_dual(self, c1, c2):
        """Normal form of c1 (x) c2 on the X' side (decorations move left)."""
        try:
            return self._reduce_dual_cache[(c1, c2)]
        except KeyError:
            pass
        r, c0 = self.xp_split(c2)
        out = {(sym, c0): c
               for sym, c in self.act_xp_right({c1: self.k.one}, r).items()}
        self._reduce_dual_cache[(c1, c2)] = out
        return out

    def tensor_normalize(self, syms):
        """Normal form of a pure tensor of X symbols: dict over tuples."""
        syms = tuple(syms)
        if len(syms) <= 1:
            return {syms: self.k.one}
        # tail -> (b0,) + tail is injective, so each image is clean
        return vapply(self.k, lambda pair: {
            (pair[0],) + tail: c for tail, c in
            self.tensor_normalize((pair[1],) + syms[2:]).items()},
            self.reduce_pair(syms[0], syms[1]))

    def dual_tensor_normalize(self, syms):
        """Normal form of a pure tensor of X' symbols."""
        syms = tuple(syms)
        if len(syms) <= 1:
            return {syms: self.k.one}
        return vapply(self.k, lambda tail: {
            pair + tail[1:]: c for pair, c in
            self.reduce_pair_dual(syms[0], tail[0]).items()},
            self.dual_tensor_normalize(syms[1:]))

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
        return vdrop(out)

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
        return vdrop(out)

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
        return vdrop(out)


# ---------------------------------------------------------------------------
# Compact (finite-rank) operators
# ---------------------------------------------------------------------------

class CompactOperator:
    """A finite sum of elementary tensors x (x) phi in X (x)_R X'."""

    __slots__ = ("module", "terms")

    def __init__(self, module, terms):
        self.module = module
        k = module.k
        cleaned = ((vclean(k, x), vclean(k, p)) for x, p in terms)
        self.terms = [(x, p) for x, p in cleaned if x and p]

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
                for sym, c in m.act_right(xvec, r).items():
                    out[sym] = k.add(out.get(sym, k.zero), c)
        return vdrop(out)

    def __repr__(self):
        return " + ".join(f"({x} (x) {p})" for x, p in self.terms) or "0"


# ---------------------------------------------------------------------------
# Functional homomorphisms
# ---------------------------------------------------------------------------

class FunctionalHom:
    """A pairing-compatible pair of maps U : X -> Y, V : X' -> Y'."""

    def __init__(self, source, target, U, V):
        self.source = source
        self.target = target
        self._U = U
        self._V = V

    def u_of(self, xvec):
        return vapply(self.target.k, self._U, xvec)

    def v_of(self, pvec):
        return vapply(self.target.k, self._V, pvec)


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


def compact_to_matrix(k_op, matrix_ring):
    """The identification of finite-rank operators on R^(I) with M_I(R).

    An elementary tensor (alpha_i) (x) (beta_j) goes to the finite matrix
    with (i, j) entry alpha_i beta_j; the map is a ring isomorphism onto
    the finitely supported matrices.
    """
    def entry(x, p):
        return {(x[0], p[0], sym): c for sym, c in
                matrix_ring.inner.mul_basis(x[1], p[1]).items()}

    return sum((RingElement._of(matrix_ring, vmul(k_op.module.k, entry, x, p))
                for x, p in k_op.terms), matrix_ring.zero())


# ---------------------------------------------------------------------------
# Correspondences
# ---------------------------------------------------------------------------

class Correspondence:
    """A functional module with a compatible left action and free-model hom.

    ``delta_compact_rule`` writes the left action of a ring element as a
    finite-rank operator; every correspondence the pipelines build has one.
    """

    def __init__(self, module, hom, delta_compact_rule):
        self.module = module
        self.hom = hom
        self._delta_compact_rule = delta_compact_rule

    def delta_compact(self, relt):
        """The left action of ``relt`` as a finite-rank operator."""
        return self._delta_compact_rule(relt)


def free_module(ring, index_set):
    """The free functional module R^(I) with coordinatewise pairing.

    X symbols are pairs (i, b) with b a ring basis symbol; the pairing is
    <(alpha_i), (beta_i)> = sum_i alpha_i beta_i, and R acts coordinatewise
    on both sides.
    """
    index = list(index_set)
    k = ring.k

    def relt_of(d):
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
        return b, relt_of({ring.support_symbol(a): k.one})

    def xp_split(c):
        i, a = c
        return relt_of({ring.support_symbol(a): k.one}), c

    def support(b):
        i, a = b
        return relt_of({ring.support_symbol(a): k.one})

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
        label=f"{ring.label}^({len(index)})")
    return mod
