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
# ``vadd`` and ``vscale`` stay bound here, where ``perfbench`` traces them
from .ringcore import (RingElement, RingError, ZmodRing, integer_rows, vadd,
                       vapply, vclean, vdrop, vmul, vscale)


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
                 xp_left_support, label, fs_pairs_left=None,
                 fs_pairs_right=None):
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
            self._normal = vdrop(out)
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

    def apply_right(self, psivec):
        """Right theta action on X': psi . (x (x) phi) = psi(x) . phi."""
        m, k = self.module, self.module.k
        out = {}
        for xvec, pvec in self.terms:
            r = m.pair(psivec, xvec)
            if not r.is_zero():
                for sym, c in m.act_xp_left(r, pvec).items():
                    out[sym] = k.add(out.get(sym, k.zero), c)
        return vdrop(out)

    def __repr__(self):
        nt = self.normal_terms()
        if not nt:
            return "0"
        return " + ".join(f"{c}*({b} (x) {ph})" if c != 1 else f"({b} (x) {ph})"
                          for (b, ph), c in sorted(nt.items(), key=repr))


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

    @classmethod
    def identity(cls, module):
        one = module.k.one
        return cls(module, module, lambda b: {b: one}, lambda c: {c: one})


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


def check_pairing_balance(module):
    """The pairing is a bimodule map on basis pairs and ring generators.

    Checks r . <phi, x> == <r . phi, x> and <phi, x> . r == <phi, x . r>
    for every basis pair and every symbol of the ring basis, or of its
    generator list for symbolic rings.
    """
    ring = module.ring
    one = module.k.one
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
    def entry(x, p):
        return {(x[0], p[0], sym): c for sym, c in
                matrix_ring.inner.mul_basis(x[1], p[1]).items()}

    return sum((RingElement._of(matrix_ring, vmul(k_op.module.k, entry, x, p))
                for x, p in k_op.terms), matrix_ring.zero())


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
                 left_ring=None):
        self.module = module
        self.hom = hom
        self.index_set = list(index_set)
        self._delta_compact_rule = delta_compact_rule
        self.left_ring = left_ring if left_ring is not None else module.ring

    def delta_compact(self, relt):
        """The left action of ``relt`` as a finite-rank operator.

        Raises for a correspondence built with no compact decomposition
        rule, such as a balanced tensor product.
        """
        if self._delta_compact_rule is None:
            raise RingError("left action not compact")
        return self._delta_compact_rule(relt)

    def left_generator_symbols(self):
        gens = self.left_ring.basis
        if gens is None:
            gens = getattr(self.left_ring, "gen_symbols", None)
        if gens is None:
            raise RingError(f"{self.left_ring.label} lists no generators")
        return gens

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
        label=f"{ring.label}^({len(index)})")
    return mod


def free_correspondence(ring, index_set):
    """R^(I) as an R-correspondence with the identity functional hom."""
    mod = free_module(ring, index_set)
    hom = FunctionalHom.identity(mod)

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
                          delta_compact_rule=delta_compact_rule)


def direct_sum(m1, m2):
    """Block sum of functional modules; the pairing vanishes across blocks."""
    if m1.ring is not m2.ring:
        raise RingError("direct sum needs modules over the same ring")
    ring = m1.ring

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

    return FunctionalModule(
        ring=ring,
        x_basis=[(0, b) for b in m1.x_basis] + [(1, b) for b in m2.x_basis],
        xp_basis=[(0, c) for c in m1.xp_basis] + [(1, c) for c in m2.xp_basis],
        pairing=pairing, x_right=x_right, xp_left=xp_left,
        x_left=x_left, xp_right=xp_right,
        x_split=x_split, xp_split=xp_split,
        x_left_support=x_support, xp_left_support=xp_support,
        label=f"{m1.label} (+) {m2.label}")


def tensor(c1, c2):
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
        return vapply(k, lambda bx2: cross_reduce(bx2, by),
                      mx._x_left(rsym, bx))

    def xp_left(tsym, c):
        cy, cx = c
        return {(s, cx): cc for s, cc in my._xp_left(tsym, cy).items()}

    def xp_right(c, rsym):
        cy, cx = c
        return vapply(k, lambda cx2: cross_reduce_dual(cy, cx2),
                      mx._xp_right(cx, rsym))

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

    def xp_support(c):
        return my.xp_left_support(c[0])

    mod = FunctionalModule(
        ring=ring, x_basis=x_basis, xp_basis=xp_basis,
        pairing=pairing, x_right=x_right, xp_left=xp_left,
        x_left=x_left, xp_right=xp_right,
        x_split=x_split, xp_split=xp_split,
        x_left_support=x_support, xp_left_support=xp_support,
        label=f"{mx.label} (x) {my.label}")

    product_index = [(i, j) for i in c1.index_set for j in c2.index_set]
    free_target = free_module(ring, product_index)

    # (j, t) -> ((i, j), t) is injective, so each image is clean
    def U(b):
        bx, by = b
        return vapply(k, lambda x: {
            ((x[0], j), t): ct for (j, t), ct in c2.hom.u_of(my.act_left(
                mx.ring.monomial(x[1]), {by: one})).items()},
            c1.hom.u_of({bx: one}))

    def V(c):
        cy, cx = c
        return vapply(k, lambda x: {
            ((x[0], j), t): ct for (j, t), ct in c2.hom.v_of(my.act_xp_right(
                {cy: one}, mx.ring.monomial(x[1]))).items()},
            c1.hom.v_of({cx: one}))

    hom = FunctionalHom(mod, free_target, U, V)
    return Correspondence(mod, hom, product_index, left_ring=c1.left_ring)
