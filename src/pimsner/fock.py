"""Truncated Fock modules, Toeplitz operators, and the rotational homotopy.

The Fock module of a correspondence X is the graded bimodule
T(X) = R (+) X (+) X^(x)2 (+) ...; here it is truncated at a configurable
depth N, with each graded piece presented by its reduced pure-tensor basis.
Creation operators prepend a vector, annihilation operators pair off the
first tensor factor, and scalars act through the left action; their stars
act on the dual module.  ``TruncatedFock.token_op`` builds all six kinds
from one table, ``_KINDS``, of side, degree shift and lowest live degree.
All operators are exact and column-sparse, and every operator knows which
source degrees its columns are defined on, so that identities are only
ever asserted within the truncation budget: a check at source degree d
runs only when every intermediate degree of the word stays <= N, and
checkers report how much was covered.

The module also provides:

* the vacuum-compression form i . P0 = i . id - sum of T_x T_phi for a
  compactly acting ideal element, and the induced rank-one generators of
  the covariance ideal, which occupy a single block of the graded matrix
  picture;
* the pair of representations pi0 (canonical) and pi1 (shifted away from
  low degrees: each generator kills one degree more); their difference
  on any Toeplitz word is supported on a single block, which is what
  makes the pair a quasi-homomorphism;
* a normal-form word algebra for the Toeplitz ring: every product of
  generators is rewritten to sums of words "creations, then annihilations"
  using the covariance relation S(phi) T(x) = sigma(<phi, x>) and the
  bimodule laws;
* a finite model of the Fock module tensored with the Toeplitz ring,
  truncated both in Fock degree and in word length, on which the
  rotational homotopy H(t) is realized with exact polynomial coefficients
  in t, so that its endpoint identities and pairing preservation become
  finite exact checks.  The model shares its Fock module's one Toeplitz
  algebra and bounds word length per product, through ``try_mul``; its
  pi (x) id is the cached Fock token operator, lifted once per model.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from .funcmod import vadd, vclean, vscale
from .ringcore import RingError


class DepthError(RuntimeError):
    """The truncation depth or word bound is too small for the request."""


class InvariantViolation(AssertionError):
    """An internal structural identity failed; indicates a real bug."""


# ---------------------------------------------------------------------------
# Dense polynomials (exact, for coefficient identities in t)
# ---------------------------------------------------------------------------

class Poly:
    """A polynomial over exact scalars, as a dense coefficient list."""

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = coeffs

    @classmethod
    def t(cls):
        return cls([0, 1])

    @classmethod
    def const(cls, c):
        return cls([c])

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + [0] * (n - len(self.coeffs))
        b = other.coeffs + [0] * (n - len(other.coeffs))
        return Poly([x + y for x, y in zip(a, b)])

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return Poly([c * x for x in self.coeffs])

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return Poly([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly([other])
        return self.coeffs == other.coeffs

    def __call__(self, value):
        out = 0
        for c in reversed(self.coeffs):
            out = out * value + c
        return out

    def __repr__(self):
        return f"Poly({self.coeffs})"


def rotation_coefficient_identity():
    """The scalar identity t(2t - t^3) + (1 - t^2)^2 == 1, symbolically."""
    t = Poly.t()
    one = Poly.const(1)
    lhs = t * (t.scale(2) - t * t * t) + (one - t * t) * (one - t * t)
    return lhs == one


# ---------------------------------------------------------------------------
# Truncated Fock module
# ---------------------------------------------------------------------------

# kind -> (side, degree shift, lowest degree not killed under pi0); pi1
# kills one degree more.  The stars act on the dual module, side "xp".
_KINDS = {
    "x": ("x", 1, 0),
    "phi": ("x", -1, 1),
    "r": ("x", 0, 0),
    "x*": ("xp", -1, 1),
    "phi*": ("xp", 1, 0),
    "r*": ("xp", 0, 0),
}


def _token_key(token):
    """A generator token as a hashable (kind, payload items) pair."""
    kind, payload = token
    terms = payload.terms if kind in ("r", "r*") else payload
    return kind, tuple(terms.items())


class TruncatedFock:
    """Graded bases of R, X, X^(x)2, ..., X^(x)N and their duals.

    Basis keys are ``(degree, tuple)``; the degree-zero tuple holds a
    single ring basis symbol.  The ring and the module must be finitely
    enumerated for the bases to exist.  ``token_op`` builds and caches
    every generator operator; ``identity`` and ``zero_op`` are the only
    other operators made here.  The cached operators refer back to the
    module, so leaving a ``with`` block drops them and lets the module,
    its columns and any homotopy model built on it be freed by reference
    counting; the module stays usable and rebuilds what it needs.
    """

    def __init__(self, corr, depth):
        if depth < 1:
            raise DepthError("truncation depth must be at least 1")
        self.corr = corr
        self.module = corr.module
        self.ring = self.module.ring
        self.k = self.module.k
        if self.ring.basis is None:
            raise RingError(
                f"{self.ring.label} has no finite basis; Fock truncation "
                "needs an enumerable coefficient ring")
        self.depth = depth
        self._basis = {0: [(0, (rsym,)) for rsym in self.ring.basis]}
        self._dual = {0: [(0, (rsym,)) for rsym in self.ring.basis]}
        self._tok_ops = {}
        self._talg = ToeplitzAlgebra(corr)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._tok_ops.clear()

    def token_op(self, token, variant="pi0"):
        """The operator of one generator token under pi0 or pi1.

        Tokens are ``(kind, payload)`` with a kind of ``_KINDS``: ``x``,
        ``phi`` and ``r`` act on the Fock module, their stars ``x*``,
        ``phi*`` and ``r*`` on its dual.  This is the only constructor of
        a generator operator: its side, degree shift and the degrees it
        kills are read off ``_KINDS``, and it is kept per (kind, payload
        items, variant), so words compose these cached operators.  The
        pi0 operator memoizes the columns of ``_column``; the pi1 operator
        kills one degree more and otherwise reads pi0's memoized columns,
        so each generator has one column cache.  Callers must not mutate
        or relabel a returned operator.
        """
        key = _token_key(token) + (variant,)
        op = self._tok_ops.get(key)
        if op is None:
            kind, payload = token
            if kind not in _KINDS:
                raise RingError(f"unknown generator token {kind!r}")
            if variant not in ("pi0", "pi1"):
                raise RingError(f"unknown representation {variant!r}")
            side, shift, low = _KINDS[kind]
            if variant == "pi0":
                column = partial(self._column, kind, payload)
            else:
                column = self.token_op(token, "pi0").column
                low += 1

            def col(key, _column=column, _low=low):
                return {} if key[0] < _low else _column(key)

            outs = {d: frozenset([d + shift] if d >= low else [])
                    for d in range(self.depth + 1 - max(shift, 0))}
            op = FockOperator(self, side, col, covered=outs.keys(),
                              outs=outs, label=f"{variant}({kind})")
            if variant == "pi0":
                op._cache = {}
            self._tok_ops[key] = op
        return op

    def basis(self, n):
        if n < 0 or n > self.depth:
            raise DepthError(f"degree {n} outside truncation range 0..{self.depth}")
        if n not in self._basis:
            if n == 1:
                tuples = [(b,) for b in self.module.x_basis]
            else:
                prev = [t for (_, t) in self.basis(n - 1)]
                seen = {}
                for t in prev:
                    for b in self.module.x_basis:
                        for tup in self.module.prepend_normal(b, t):
                            seen.setdefault(tup, None)
                tuples = list(seen)
            self._basis[n] = [(n, t) for t in tuples]
        return self._basis[n]

    def dual_basis(self, n):
        if n < 0 or n > self.depth:
            raise DepthError(f"degree {n} outside truncation range 0..{self.depth}")
        if n not in self._dual:
            if n == 1:
                tuples = [(c,) for c in self.module.xp_basis]
            else:
                prev = [t for (_, t) in self.dual_basis(n - 1)]
                seen = {}
                for t in prev:
                    for c in self.module.xp_basis:
                        for tup in self.module.dual_append_normal(t, c):
                            seen.setdefault(tup, None)
                tuples = list(seen)
            self._dual[n] = [(n, t) for t in tuples]
        return self._dual[n]

    def graded_pair(self, dual_key, key):
        """The graded pairing of a dual basis key against a basis key."""
        dn, dt = dual_key
        n, t = key
        if dn != n:
            return self.ring.zero()
        if n == 0:
            return self.ring.monomial(dt[0]) * self.ring.monomial(t[0])
        return self.module.pair_tensor(dt, t)

    # -- operator constructors ----------------------------------------------

    def identity(self):
        one = self.k.one
        return FockOperator(
            self, "x", lambda key: {key: one},
            covered=range(self.depth + 1),
            outs={d: frozenset([d]) for d in range(self.depth + 1)},
            label="id")

    def zero_op(self, side="x"):
        return FockOperator(
            self, side, lambda key: {},
            covered=range(self.depth + 1),
            outs={d: frozenset() for d in range(self.depth + 1)},
            label="0")

    def _prepend(self, xvec, t, d):
        """x (x) t in normal form (t reduced), as a degree-d column."""
        k = self.k
        out = {}
        for b, cb in xvec.items():
            for tup, c in self.module.prepend_normal(b, t).items():
                key = (d, tup)
                out[key] = k.add(out.get(key, k.zero), k.mul(cb, c))
        return vclean(k, out)

    def _append(self, t, pvec, d):
        """t (x) phi in normal form (t reduced), as a degree-d dual column."""
        k = self.k
        out = {}
        for c2, cc in pvec.items():
            for tup, c in self.module.dual_append_normal(t, c2).items():
                key = (d, tup)
                out[key] = k.add(out.get(key, k.zero), k.mul(cc, c))
        return vclean(k, out)

    def _column(self, kind, payload, key):
        """The column of a generator at a basis key, before any low kill.

        On X, creation prepends x, annihilation pairs phi with the first
        factor and scalars act on it; on X', the stars mirror them on the
        last factor.  The column sits in degree d plus the kind's shift: a
        single factor when that is 1 and d is 0, a ring element when it
        is 0.
        """
        d, t = key
        e = d + _KINDS[kind][1]
        module, ring, one = self.module, self.ring, self.k.one
        if kind == "x":
            if d == 0:
                vec = module.act_right(payload, ring.monomial(t[0]))
                return {(e, (sym,)): c for sym, c in vec.items()}
            return self._prepend(payload, t, e)
        if kind == "phi*":
            if d == 0:
                vec = module.act_xp_left(ring.monomial(t[0]), payload)
                return {(e, (sym,)): c for sym, c in vec.items()}
            return self._append(t, payload, e)
        if kind == "r":
            if d == 0:
                prod = payload * ring.monomial(t[0])
                return {(e, (sym,)): c for sym, c in prod.terms.items()}
            return self._prepend(module.act_left(payload, {t[0]: one}),
                                 t[1:], e)
        if kind == "r*":
            if d == 0:
                prod = ring.monomial(t[0]) * payload
                return {(e, (sym,)): c for sym, c in prod.terms.items()}
            return self._append(
                t[:-1], module.act_xp_right({t[-1]: one}, payload), e)
        # phi and x* pair off the first, resp. last, factor
        if kind == "phi":
            r = module.pair(payload, {t[0]: one})
        else:
            r = module.pair({t[-1]: one}, payload)
        if r.is_zero():
            return {}
        if d == 1:
            return {(e, (sym,)): c for sym, c in r.terms.items()}
        if kind == "phi":
            return self._prepend(module.act_left(r, {t[1]: one}), t[2:], e)
        return self._append(t[:-2], module.act_xp_right({t[-2]: one}, r), e)


# ---------------------------------------------------------------------------
# Exact column-sparse operators with coverage accounting
# ---------------------------------------------------------------------------

class FockOperator:
    """An operator on the truncated Fock module, evaluated columnwise.

    ``covered`` lists the source degrees on which the operator's columns
    are defined; composing operators intersects coverage along the degree
    chains actually reachable, so truncation can never produce a silently
    wrong column, only a smaller covered set.  Columns are clean vectors
    (see ``funcmod``), so they compare as plain dicts.  ``_cache``, when
    not None, memoizes columns; only ``TruncatedFock.token_op`` sets it.
    """

    __slots__ = ("fock", "side", "_column", "covered", "outs", "label",
                 "_cache")

    def __init__(self, fock, side, column, covered, outs, label=""):
        self.fock = fock
        self.side = side
        self._column = column
        self.covered = frozenset(d for d in covered
                                 if 0 <= d <= fock.depth)
        self.outs = {d: frozenset(outs.get(d, ())) for d in self.covered}
        self.label = label
        self._cache = None

    def column(self, key):
        if key[0] not in self.covered:
            return None
        if self._cache is None:
            return self._column(key)
        try:
            return self._cache[key]
        except KeyError:
            col = self._column(key)
            self._cache[key] = col
            return col

    @property
    def degree_shift(self):
        """The uniform degree shift of a homogeneous operator, else None."""
        shifts = set()
        for d, outs in self.outs.items():
            shifts.update(e - d for e in outs)
        return shifts.pop() if len(shifts) == 1 else None

    def apply_vec(self, vec):
        k = self.fock.k
        out = {}
        for key, c in vec.items():
            col = self.column(key)
            if col is None:
                return None
            for tgt, c2 in col.items():
                out[tgt] = k.add(out.get(tgt, k.zero), k.mul(c, c2))
        return vclean(k, out)

    def compose(self, other):
        """self after other; coverage follows the reachable degree chains."""
        if self.fock is not other.fock or self.side != other.side:
            raise RingError("operators act on different modules")
        covered = [d for d in other.covered
                   if all(e in self.covered for e in other.outs[d])]
        outs = {d: frozenset(x for e in other.outs[d] for x in self.outs[e])
                for d in covered}

        def column(key, _s=self, _o=other):
            col = _o.column(key)
            return _s.apply_vec(col)

        return FockOperator(self.fock, self.side, column, covered, outs,
                            label=f"{self.label}*{other.label}")

    def __add__(self, other):
        if self.fock is not other.fock or self.side != other.side:
            raise RingError("operators act on different modules")
        covered = self.covered & other.covered
        outs = {d: self.outs[d] | other.outs[d] for d in covered}
        k = self.fock.k

        def column(key, _a=self, _b=other):
            return vadd(k, _a.column(key), _b.column(key))

        return FockOperator(self.fock, self.side, column, covered, outs,
                            label=f"{self.label}+{other.label}")

    def scale(self, coeff):
        k = self.fock.k

        def column(key, _a=self):
            return vscale(k, _a.column(key), coeff)

        return FockOperator(self.fock, self.side, column, self.covered,
                            self.outs, label=f"{coeff}*{self.label}")

    def __sub__(self, other):
        return self + other.scale(-1)

    # -- inspection ----------------------------------------------------------

    def _keys_at(self, d):
        return (self.fock.basis(d) if self.side == "x"
                else self.fock.dual_basis(d))

    def eq_on(self, other, degrees):
        for d in degrees:
            if d not in self.covered or d not in other.covered:
                raise DepthError(f"degree {d} not covered by both operators")
            for key in self._keys_at(d):
                if self.column(key) != other.column(key):
                    return False
        return True

    def is_zero_on(self, degrees):
        for d in degrees:
            if d not in self.covered:
                raise DepthError(f"degree {d} not covered")
            for key in self._keys_at(d):
                if self.column(key):
                    return False
        return True

    def support_blocks(self, degrees=None):
        """The set of (target_degree, source_degree) pairs hit by columns."""
        if degrees is None:
            degrees = sorted(self.covered)
        blocks = set()
        for d in degrees:
            for key in self._keys_at(d):
                blocks.update((tgt[0], d) for tgt in self.column(key))
        return blocks

    def __repr__(self):
        return (f"<FockOperator {self.label} side={self.side} "
                f"covered={sorted(self.covered)}>")


# ---------------------------------------------------------------------------
# Words in the generators
# ---------------------------------------------------------------------------

def word_operator(fock, tokens, variant="pi0"):
    """The operator of a generator word under pi0 or pi1.

    Tokens are ``(kind, payload)`` with a kind of ``_KINDS``, all on one
    side, in operator order (the rightmost acts first).  The word
    composes the cached ``fock.token_op`` operators; the empty word is
    the identity.  A one-token word is the cached operator itself, so do
    not mutate it.
    """
    if variant not in ("pi0", "pi1"):
        raise RingError(f"unknown representation {variant!r}")
    op = None
    for token in reversed(tokens):
        tok = fock.token_op(token, variant)
        op = tok if op is None else tok.compose(op)
    return fock.identity() if op is None else op


def pi0(fock, tokens):
    """The canonical representation of a generator word."""
    return word_operator(fock, tokens, "pi0")


def pi1(fock, tokens):
    """The low-degree-shifted representation of a generator word."""
    return word_operator(fock, tokens, "pi1")


def star_tokens(tokens):
    """The symbolic adjoint of a generator word: reverse and star.

    Each kind of ``_KINDS`` trades places with its star.  Applying this
    twice returns the original word, which is the involution law at the
    word level.
    """
    starred = []
    for kind, payload in reversed(tokens):
        if kind not in _KINDS:
            raise RingError(f"unknown generator token {kind!r}")
        starred.append((kind[:-1] if kind.endswith("*") else kind + "*",
                        payload))
    return starred


def adjoint(fock, tokens):
    """The adjoint of a generator word, acting on the dual Fock module.

    This is the pi0 operator of the starred word (``star_tokens``); only
    nonempty words in creations, annihilations and scalars are accepted.
    """
    starred = star_tokens(tokens)
    for kind, _ in starred:
        if not kind.endswith("*"):
            raise RingError(f"token {kind!r} is not the star of a generator")
    if not starred:
        raise RingError("empty word has no adjoint here")
    return word_operator(fock, starred)


# ---------------------------------------------------------------------------
# The vacuum compression and covariance-ideal generators
# ---------------------------------------------------------------------------

def p0_compact_form(relt, fock):
    """i . P0 = i . id - sum of T_x T_phi over a compact decomposition of i.

    Requires the left action of ``relt`` to be compact; the decomposition
    comes from the correspondence.  The result acts as i on degree 0 and
    as 0 on every higher degree within budget.  With no decomposition
    terms (a sink) it is the cached scalar operator itself, so do not
    mutate or relabel it.
    """
    dec = fock.corr.delta_compact(relt)
    op = fock.token_op(("r", relt))
    for xvec, pvec in dec.terms:
        op = op - fock.token_op(("x", xvec)).compose(
            fock.token_op(("phi", pvec)))
    return op


def check_p0_form(op, relt, fock, degrees=None):
    """Postcondition of the vacuum compression: i on degree 0, 0 above."""
    if degrees is None:
        degrees = range(min(sorted(op.covered)), fock.depth)
    degrees = [d for d in degrees if d in op.covered]
    scalar = fock.token_op(("r", relt))
    ok0 = 0 not in degrees or op.eq_on(scalar, [0])
    rest = [d for d in degrees if d >= 1]
    return ok0 and op.is_zero_on(rest)


def j_ideal_generator(xvecs, relt, pvecs, fock):
    """T_{x_1}..T_{x_n} (i.P0) T_{phi_1}..T_{phi_m}.

    A rank-one block operator: its only nonzero block sits at target
    degree n, source degree m.
    """
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


# ---------------------------------------------------------------------------
# Covariant representation checking
# ---------------------------------------------------------------------------

class CheckReport:
    """Outcome of a suite of exact identities with coverage accounting."""

    def __init__(self, name):
        self.name = name
        self.checked = 0
        self.skipped = 0
        self.failures = []

    @property
    def passed(self):
        return not self.failures

    def compare(self, tag, lhs, rhs):
        degrees = sorted(lhs.covered & rhs.covered)
        self.skipped += len(set(range(lhs.fock.depth + 1)) - set(degrees))
        try:
            ok = lhs.eq_on(rhs, degrees)
        except DepthError:
            self.skipped += 1
            return
        self.checked += 1
        if not ok:
            self.failures.append(tag)

    def absorb(self, other):
        """Add another report's counts and its first three failures."""
        self.checked += other.checked
        self.skipped += other.skipped
        self.failures.extend(other.failures[:3])

    def as_dict(self):
        return {"name": self.name, "passed": self.passed,
                "checked": self.checked, "skipped": self.skipped,
                "failures": [str(f) for f in self.failures[:10]]}

    def __repr__(self):
        state = "pass" if self.passed else f"FAIL({len(self.failures)})"
        return (f"<CheckReport {self.name}: {state} "
                f"checked={self.checked} skipped={self.skipped}>")


def covariant_check(fock, S=None, T=None, sigma=None):
    """Check the bimodule laws and the covariance relation on basis data.

    ``T`` maps X basis symbols to operators, ``S`` maps X' basis symbols
    to operators, ``sigma`` maps ring basis symbols to operators; defaults
    are the canonical representation by creations, annihilations and
    scalars.  The covariance relation is
    sigma(<phi, x>) = S(phi) T(x) for all basis pairs.
    """
    module = fock.module
    ring = fock.ring
    k = module.k
    one = k.one
    if T is None:
        T = {b: fock.token_op(("x", {b: one})) for b in module.x_basis}
    if S is None:
        S = {c: fock.token_op(("phi", {c: one})) for c in module.xp_basis}
    if sigma is None:
        sigma = {r: fock.token_op(("r", ring.monomial(r)))
                 for r in ring.basis}

    def combo(ops, vec):
        op = fock.zero_op()
        for b, c in vec.items():
            op = op + ops[b].scale(c)
        return op

    report = CheckReport("covariant-representation")
    for rsym in ring.basis:
        r = ring.monomial(rsym)
        for b in module.x_basis:
            report.compare(("T(r.x)", rsym, b),
                           combo(T, module.act_left(r, {b: one})),
                           sigma[rsym].compose(T[b]))
            report.compare(("T(x.r)", rsym, b),
                           combo(T, module.act_right({b: one}, r)),
                           T[b].compose(sigma[rsym]))
        for c in module.xp_basis:
            report.compare(("S(r.phi)", rsym, c),
                           combo(S, module.act_xp_left(r, {c: one})),
                           sigma[rsym].compose(S[c]))
            report.compare(("S(phi.r)", rsym, c),
                           combo(S, module.act_xp_right({c: one}, r)),
                           S[c].compose(sigma[rsym]))
    for c in module.xp_basis:
        for b in module.x_basis:
            report.compare(("covariance", c, b),
                           S[c].compose(T[b]),
                           combo(sigma, module.pair({c: one}, {b: one}).terms))
    return report


# ---------------------------------------------------------------------------
# Toeplitz word algebra
# ---------------------------------------------------------------------------

class ToeplitzAlgebra:
    """Exact arithmetic in the Toeplitz ring, in word normal form.

    Elements are finite sums of normal words: either a pure scalar
    ``("s", rsym)`` or ``("w", p, c)`` with p a reduced creation tuple, c
    a reduced annihilation tuple, and the junction between them absorbed.
    Products are rewritten by contracting adjacent annihilation-creation
    pairs through the covariance relation, then absorbing the leftover
    scalar into a neighbouring factor.  ``try_mul`` bounds the word
    length of a product, reporting an overflow instead of truncating.
    """

    def __init__(self, corr):
        self.corr = corr
        self.module = corr.module
        self.ring = self.module.ring
        self.k = self.module.k

    # -- element constructors -------------------------------------------------

    def scalar(self, relt):
        return {("s", rsym): c for rsym, c in relt.terms.items()}

    def from_tokens(self, tokens):
        """Normal form of a product of generator tokens."""
        k = self.k
        elt = None
        for kind, payload in tokens:
            if kind == "r":
                nxt = self.scalar(payload)
            elif kind in ("x", "phi"):
                nxt = {}
                for sym, c in payload.items():
                    p, cs = ((sym,), ()) if kind == "x" else ((), (sym,))
                    for key, c2 in self._word(p, None, cs).items():
                        nxt[key] = k.add(nxt.get(key, k.zero), k.mul(c, c2))
                nxt = vclean(k, nxt)
            else:
                raise RingError(f"unknown generator token {kind!r}")
            elt = nxt if elt is None else self.mul(elt, nxt)
        if elt is None:
            raise RingError("empty generator word")
        return elt

    # -- normal form -----------------------------------------------------------

    def _word(self, psyms, mid, csyms):
        """Canonical terms of T_{p..} j(mid) T_{c..}; mid may be None."""
        m, k = self.module, self.k
        one = k.one
        out = {}

        def emit(key, coeff):
            out[key] = k.add(out.get(key, k.zero), coeff)

        if psyms:
            tail = {psyms[-1]: one}
            if mid is not None:
                tail = m.act_right(tail, mid)
            for lsym, lc in tail.items():
                for ptup, pc in m.tensor_normalize(psyms[:-1] + (lsym,)).items():
                    coeff = k.mul(lc, pc)
                    if not csyms:
                        emit(("w", ptup, ()), coeff)
                        continue
                    u = m.x_split(ptup[-1])[1]
                    for csym, cc in m.act_xp_left(u, {csyms[0]: one}).items():
                        for ctup, c4 in m.dual_tensor_normalize(
                                (csym,) + csyms[1:]).items():
                            emit(("w", ptup, ctup),
                                 k.mul(coeff, k.mul(cc, c4)))
        elif csyms:
            head = {csyms[0]: one}
            if mid is not None:
                head = m.act_xp_left(mid, head)
            for csym, cc in head.items():
                for ctup, c4 in m.dual_tensor_normalize(
                        (csym,) + csyms[1:]).items():
                    emit(("w", (), ctup), k.mul(cc, c4))
        else:
            if mid is None:
                raise RingError("the Toeplitz ring has no empty word")
            for rsym, rc in mid.terms.items():
                emit(("s", rsym), rc)
        return vclean(k, out)

    def _scalar_times_word(self, relt, key):
        """j(r) . word, by absorbing into the leftmost factor."""
        m, k = self.module, self.k
        one = k.one
        if key[0] == "s":
            prod = relt * self.ring.monomial(key[1])
            return self.scalar(prod)
        _, p, c = key
        out = {}
        if p:
            for sym, cc in m.act_left(relt, {p[0]: one}).items():
                for key2, c2 in self._word((sym,) + p[1:], None, c).items():
                    out[key2] = k.add(out.get(key2, k.zero), k.mul(cc, c2))
        else:
            for sym, cc in m.act_xp_left(relt, {c[0]: one}).items():
                for key2, c2 in self._word((), None, (sym,) + c[1:]).items():
                    out[key2] = k.add(out.get(key2, k.zero), k.mul(cc, c2))
        return vclean(k, out)

    def _word_times_scalar(self, key, relt):
        """word . j(r), by absorbing into the rightmost factor."""
        m, k = self.module, self.k
        one = k.one
        if key[0] == "s":
            prod = self.ring.monomial(key[1]) * relt
            return self.scalar(prod)
        _, p, c = key
        out = {}
        if c:
            for sym, cc in m.act_xp_right({c[-1]: one}, relt).items():
                for key2, c2 in self._word(p, None, c[:-1] + (sym,)).items():
                    out[key2] = k.add(out.get(key2, k.zero), k.mul(cc, c2))
        else:
            for key2, c2 in self._word(p, relt, ()).items():
                out[key2] = k.add(out.get(key2, k.zero), c2)
        return vclean(k, out)

    def _word_mul(self, key1, key2):
        """Product of two normal words as a term dict."""
        m, k = self.module, self.k
        one = k.one
        if key1[0] == "s":
            return self._scalar_times_word(self.ring.monomial(key1[1]), key2)
        if key2[0] == "s":
            return self._word_times_scalar(key1, self.ring.monomial(key2[1]))
        _, p1, c1 = key1
        _, p2, c2 = key2
        c1 = list(c1)
        p2 = list(p2)
        mid = None
        while c1 and p2:
            xv = {p2[0]: one} if mid is None else m.act_left(mid, {p2[0]: one})
            mid = m.pair({c1[-1]: one}, xv)
            c1.pop()
            p2.pop(0)
            if mid.is_zero():
                return {}
        out = {}
        if p2:
            head = {p2[0]: one} if mid is None else m.act_left(mid, {p2[0]: one})
            for sym, cc in head.items():
                syms = p1 + (sym,) + tuple(p2[1:])
                for key, c in self._word(syms, None, c2).items():
                    out[key] = k.add(out.get(key, k.zero), k.mul(cc, c))
        elif c1:
            tail = {c1[-1]: one}
            if mid is not None:
                tail = m.act_xp_right(tail, mid)
            for sym, cc in tail.items():
                syms = tuple(c1[:-1]) + (sym,) + c2
                for key, c in self._word(p1, None, syms).items():
                    out[key] = k.add(out.get(key, k.zero), k.mul(cc, c))
        else:
            for key, c in self._word(p1, mid, c2).items():
                out[key] = k.add(out.get(key, k.zero), c)
        return vclean(k, out)

    def mul(self, e1, e2):
        """Product of two elements."""
        k = self.k
        out = {}
        for key1, cf1 in e1.items():
            for key2, cf2 in e2.items():
                coeff = k.mul(cf1, cf2)
                for key, c in self._word_mul(key1, key2).items():
                    out[key] = k.add(out.get(key, k.zero), k.mul(coeff, c))
        return vclean(k, out)

    def try_mul(self, e1, e2, max_len):
        """Product, or None if any product word is longer than ``max_len``."""
        k = self.k
        out = {}
        for key1, cf1 in e1.items():
            for key2, cf2 in e2.items():
                coeff = k.mul(cf1, cf2)
                for key, c in self._word_mul(key1, key2).items():
                    if key[0] == "w" and len(key[1]) + len(key[2]) > max_len:
                        return None
                    out[key] = k.add(out.get(key, k.zero), k.mul(coeff, c))
        return vclean(k, out)

    def left_support(self, key):
        """A ring element u with j(u) . word == word."""
        if key[0] == "s":
            return self.ring.monomial(self.ring.left_support_symbol(key[1]))
        _, p, c = key
        if p:
            return self.module.x_left_support(p[0])
        return self.module.xp_left_support(c[0])


# ---------------------------------------------------------------------------
# Quasi-homomorphism defects
# ---------------------------------------------------------------------------

def word_tokens_of(talg, key):
    """Generator tokens of a normal word key."""
    one = talg.k.one
    if key[0] == "s":
        return [("r", talg.ring.monomial(key[1]))]
    _, p, c = key
    return ([("x", {b: one}) for b in p]
            + [("phi", {csym: one}) for csym in c])


def _defect_keys_at(fock, wkey, ll, d):
    """Source keys at degree d where the word's columns can be nonzero.

    A module may declare ``annih_candidates`` enumerating the tensors the
    annihilation chain does not reject outright; every other key yields
    zero in both representations because their columns factor through the
    same vanishing pairing.  Without the hook the full graded basis is
    scanned.  Degrees below the annihilation count are never reached: the
    chain passes through degree zero, where annihilation is zero in both
    representations.
    """
    if d < ll:
        return []
    cand = fock.module.annih_candidates
    if cand is not None and ll >= 1 and wkey[0] == "w":
        tuples = cand(wkey[2], d)
        if tuples is not None:
            return [(d, t) for t in tuples]
    return fock.basis(d)


def _check_defect_support(fock, wkey, ll, op0, op1):
    """Check that pi0 - pi1 of a normal word lives on source degree ll.

    Reads the columns of the word's operators ``op0`` under pi0 and
    ``op1`` under pi1: at degree ll the pi1 column must vanish, and at
    every other degree both cover the two columns must agree.  Raises
    InvariantViolation otherwise.
    """
    for d in sorted(op0.covered & op1.covered):
        keys = _defect_keys_at(fock, wkey, ll, d)
        if d == ll:
            for key in keys:
                if op1.column(key):
                    raise InvariantViolation(
                        f"pi1 of {wkey} does not vanish at degree {ll}")
            continue
        for key in keys:
            col0 = op0.column(key)
            col1 = op1.column(key)
            if col0 is None or col1 is None:
                continue
            if col0 != col1:
                raise InvariantViolation(
                    f"defect of {wkey} escapes its block at degree {d}")


def quasi_hom_defect(fock, tokens):
    """pi0 - pi1 on a generator word; a finite-rank block operator.

    The input word is first rewritten to normal form.  Each normal word
    is evaluated once under pi0 and once under pi1 by ``word_operator``,
    which composes the cached ``fock.token_op`` operators of its
    generators.  For a normal word with k creations and l annihilations
    the difference vanishes on every source degree other than l (checked
    exactly within budget) and its surviving block sits at target degree
    k.  Requires l + 1 <= depth.  The returned operator sums the words'
    differences column by column only when a column is read, so a caller
    that wants just the support check pays for no operator algebra.
    """
    elt = fock._talg.from_tokens(tokens)
    terms = []
    infos = []
    for key, coeff in elt.items():
        kk, ll = (0, 0) if key[0] == "s" else (len(key[1]), len(key[2]))
        if ll + 1 > fock.depth:
            raise DepthError(
                f"word with {ll} annihilations needs depth >= {ll + 1}")
        word = word_tokens_of(fock._talg, key)
        op0, op1 = pi0(fock, word), pi1(fock, word)
        _check_defect_support(fock, key, ll, op0, op1)
        terms.append((coeff, op0, op1))
        infos.append({"word": key, "block": (kk, ll)})
    ops = [op for _, op0, op1 in terms for op in (op0, op1)]
    covered = set(range(fock.depth + 1)).intersection(
        *(op.covered for op in ops))
    outs = {d: frozenset().union(*(op.outs[d] for op in ops))
            for d in covered}
    k = fock.k

    def column(key):
        total = {}
        for coeff, op0, op1 in terms:
            diff = vadd(k, op0.column(key), vscale(k, op1.column(key), -1))
            total = vadd(k, total, vscale(k, diff, coeff))
        return total

    return FockOperator(fock, "x", column, covered, outs,
                        label="defect"), infos


# ---------------------------------------------------------------------------
# The homotopy model: T(X) (x) T truncated in degree and word length
# ---------------------------------------------------------------------------

OVERFLOW = object()


class HomotopyModel:
    """A finite model of the Fock module tensored with the Toeplitz ring.

    Columns of degree 0 and 1 are enumerated explicitly as pairs of a
    tensor part and a Toeplitz word of bounded length; columns of degree
    two and higher only ever carry tensor-part operators (the homotopy
    summands that touch the word part vanish there), so operators store an
    explicit low part plus a Fock-operator tensor part.

    ``lift`` carries Fock columns into the model: ``pi_tensor`` and
    ``lam0`` lift ``fock.token_op`` on the low keys, and
    ``HOperator.column`` lifts the high part.

    Each low part is built once per model and kept in ``_lows``: that of
    ``pi_tensor`` keyed by the Fock operator it lifts, that of ``lam0`` by
    the token's pi0 and pi1 operators, and that of ``lam1`` by the token's
    (kind, payload items).  Keying the lifts on the operators, which
    ``fock.token_op`` keeps, means a different operator gets a fresh lift.
    The model stores plain dicts and wraps them in a new ``HOperator`` on
    every call; no caller may mutate a returned low part.
    """

    def __init__(self, fock, word_bound):
        if word_bound < 1:
            raise DepthError("word bound must be at least 1")
        if fock.depth < 2:
            raise DepthError("the homotopy model needs truncation depth >= 2")
        if word_bound > fock.depth:
            raise DepthError(
                "word bound exceeds the truncation depth; creation words "
                "reuse the graded tensor bases")
        self.fock = fock
        self.module = fock.module
        self.ring = fock.ring
        self.k = fock.k
        self.word_bound = word_bound
        self.talg = fock._talg
        self.words = self._enumerate_words()
        self._lows = {}
        one = self.k.one
        self.c0_keys = [(0, (), wk) for wk in self.words]
        self.c1_keys = []
        # j(u) . word for the ring symbol u of a degree-0 key, or the right
        # support u of the last tensor factor, keyed (degree 0?, symbol, word)
        self._absorbed = {}
        for b in self.module.x_basis:
            for wk in self.words:
                if self.make_key(1, (b,), wk) == {(1, (b,), wk): one}:
                    self.c1_keys.append((1, (b,), wk))
        self.low_keys = self.c0_keys + self.c1_keys

    def _enumerate_words(self):
        words = dict.fromkeys(("s", rsym) for rsym in self.ring.basis)
        for a in range(0, self.word_bound + 1):
            ptups = [()] if a == 0 else [t for (_, t) in self.fock.basis(a)]
            for bdeg in range(0, self.word_bound + 1 - a):
                if a == 0 and bdeg == 0:
                    continue
                ctups = [()] if bdeg == 0 else \
                    [t for (_, t) in self.fock.dual_basis(bdeg)]
                for p in ptups:
                    for c in ctups:
                        for key in self.talg._word(p, None, c):
                            words.setdefault(key, None)
        return list(words)

    def make_key(self, n, tup, wk):
        """Canonicalize a raw (degree, tensor, word) triple to model keys."""
        cache_key = (n == 0, tup[-1], wk)
        if cache_key not in self._absorbed:
            u = (self.ring.monomial(tup[0]) if n == 0
                 else self.module.x_split(tup[-1])[1])
            self._absorbed[cache_key] = self.talg._scalar_times_word(u, wk)
        tup = () if n == 0 else tup
        return {(n, tup, wk2): c
                for wk2, c in self._absorbed[cache_key].items()}

    # -- homotopy summands -----------------------------------------------------

    def _low(self, key, build):
        """The low part stored under ``key``, built on first request."""
        low = self._lows.get(key)
        if low is None:
            low = self._lows[key] = build()
        return low

    def lam1(self, token):
        """Left multiplication by the generator on the degree-0 column."""
        return HOperator(self, low=self._low(
            _token_key(token), lambda: self._lam1_low(token)), high=None)

    def _lam1_low(self, token):
        gen = self.talg.from_tokens([token])
        low = {}
        for key in self.c0_keys:
            prod = self.talg.try_mul(gen, {key[2]: self.k.one},
                                     self.word_bound)
            if prod is None:
                low[key] = OVERFLOW
            else:
                low[key] = {(0, (), wk): c for wk, c in prod.items()}
        return low

    def lift(self, fcol, wk):
        """A Fock column over (degree, tensor) keys, tensored with the word
        ``wk`` through ``make_key``; the result is clean."""
        k = self.k
        out = {}
        for (m, tup), c in fcol.items():
            for key, c2 in self.make_key(m, tup, wk).items():
                out[key] = k.add(out.get(key, k.zero), k.mul(c, c2))
        return vclean(k, out)

    def _lift_low(self, op, keys):
        """op (x) id on the keys whose degree op does not kill; a degree-0
        key is the left support of its word, as a degree-0 Fock vector."""
        low = {}
        for key in keys:
            n, tup, wk = key
            if not op.outs[n]:
                continue
            if n == 0:
                src = {(0, (rsym,)): c for rsym, c in
                       self.talg.left_support(wk).terms.items()}
            else:
                src = {(1, tup): self.k.one}
            low[key] = self.lift(op.apply_vec(src), wk)
        return low

    def lam0(self, token):
        """The corner of pi0 (x) id on the degrees that pi1 kills: degree 0
        for a creation, degree 1 for an annihilation."""
        op0 = self.fock.token_op(token, "pi0")
        op1 = self.fock.token_op(token, "pi1")

        def build():
            keys = [key for key in self.low_keys if not op1.outs[key[0]]]
            return self._lift_low(op0, keys)

        return HOperator(self, low=self._low((op0, op1), build), high=None)

    def _tensor_high(self, token):
        op = self.fock.token_op(token, "pi0")
        covered = [d for d in op.covered if d >= 2]
        return FockOperator(self.fock, "x", op.column, covered,
                            {d: op.outs[d] for d in covered}, op.label)

    def pi_tensor(self, token, variant):
        """pi0 (x) id or pi1 (x) id: the Fock token operator, lifted."""
        op = self.fock.token_op(token, variant)
        low = self._low(op, lambda: self._lift_low(op, self.low_keys))
        return HOperator(self, low=low, high=self._tensor_high(token))

    def zero_h(self):
        return HOperator(self, low={}, high=None)


class HOperator:
    """An operator on the homotopy model: explicit low part, tensor high part.

    ``low`` maps degree-0/1 model keys to explicit columns (or OVERFLOW
    when the word bound was exceeded); missing keys are zero columns.
    ``high`` is a Fock operator acting on the tensor part of every column
    of degree >= 2 (the word part is inert there), or None for zero.
    Columns are clean vectors, as in ``FockOperator``.  Composition keeps
    this form only while the inner high part stays in degrees >= 2, which
    holds for every homotopy identity; ``compose`` refuses any other chain.
    """

    def __init__(self, model, low, high):
        self.model = model
        self.low = low
        self.high = high

    def column(self, key):
        if key[0] <= 1:
            return self.low.get(key, {})
        if self.high is None:
            return {}
        fcol = self.high.column((key[0], key[1]))
        if fcol is None:
            return OVERFLOW
        return self.model.lift(fcol, key[2])

    def apply_col(self, col):
        if col is OVERFLOW:
            return OVERFLOW
        k = self.model.k
        out = {}
        for key, c in col.items():
            sub = self.column(key)
            if sub is OVERFLOW:
                return OVERFLOW
            for key2, c2 in sub.items():
                out[key2] = k.add(out.get(key2, k.zero), k.mul(c, c2))
        return vclean(k, out)

    def __add__(self, other):
        low = dict(self.low)
        k = self.model.k
        for key, col in other.low.items():
            if key in low:
                if low[key] is OVERFLOW or col is OVERFLOW:
                    low[key] = OVERFLOW
                else:
                    low[key] = vadd(k, low[key], col)
            else:
                low[key] = col
        if self.high is None:
            high = other.high
        elif other.high is None:
            high = self.high
        else:
            high = self.high + other.high
        return HOperator(self.model, low, high)

    def scale(self, coeff):
        """coeff times self; scaling by one is self, as nothing mutates an
        HOperator."""
        k = self.model.k
        if coeff == k.one:
            return self
        low = {key: (OVERFLOW if col is OVERFLOW else vscale(k, col, coeff))
               for key, col in self.low.items()}
        high = None if self.high is None else self.high.scale(coeff)
        return HOperator(self.model, low, high)

    def __sub__(self, other):
        return self + other.scale(-1)

    def compose(self, other):
        """self after other; ``other.high`` must stay in degrees >= 2.

        Only the columns ``other`` stores are composed: a low key it lacks
        is a zero column, and stays absent, so zero, in the composite.
        """
        if other.high is not None and any(
                e <= 1 for outs in other.high.outs.values() for e in outs):
            raise RingError("the inner high part re-enters degrees 0 and 1; "
                            "the composition has no tensor form")
        low = {key: self.apply_col(col) for key, col in other.low.items()}
        if self.high is None or other.high is None:
            high = None
        else:
            high = self.high.compose(other.high)
        return HOperator(self.model, low, high)

    def eq_report(self, other, report, tag=""):
        """Exact comparison with coverage accounting into a CheckReport."""
        for key in self.model.low_keys:
            a = self.low.get(key, {})
            b = other.low.get(key, {})
            if a is OVERFLOW or b is OVERFLOW:
                report.skipped += 1
                continue
            report.checked += 1
            if a != b:
                report.failures.append((tag, key))
        if self.high is None and other.high is None:
            return
        ha = self.high if self.high is not None else self.model.fock.zero_op()
        hb = other.high if other.high is not None else self.model.fock.zero_op()
        degrees = sorted(d for d in ha.covered & hb.covered if d >= 2)
        report.skipped += len([d for d in range(2, self.model.fock.depth + 1)
                               if d not in degrees])
        report.checked += len(degrees)
        if degrees and not ha.eq_on(hb, degrees):
            report.failures.append((tag, "tensor part"))


# ---------------------------------------------------------------------------
# The rotational homotopy
# ---------------------------------------------------------------------------

class PolyOperator:
    """A polynomial in t with HOperator coefficients."""

    def __init__(self, model, parts):
        self.model = model
        self.parts = {p: op for p, op in parts.items()}

    def compose(self, other):
        out = {}
        for p1, op1 in self.parts.items():
            for p2, op2 in other.parts.items():
                comp = op1.compose(op2)
                if p1 + p2 in out:
                    out[p1 + p2] = out[p1 + p2] + comp
                else:
                    out[p1 + p2] = comp
        return PolyOperator(self.model, out)

    def at(self, value):
        """Evaluate at an exact scalar value of t."""
        out = None
        for p, op in self.parts.items():
            coeff = self.model.k.coerce(value ** p if p else 1)
            term = op.scale(coeff)
            out = term if out is None else out + term
        return out if out is not None else self.model.zero_h()

    def eq_report(self, other, report, tag=""):
        powers = set(self.parts) | set(other.parts)
        for p in sorted(powers):
            a = self.parts.get(p, self.model.zero_h())
            b = other.parts.get(p, self.model.zero_h())
            a.eq_report(b, report, tag=(tag, f"t^{p}"))


def homotopy_H(model, token):
    """The rotational homotopy on one generator, exact in t.

    H(T_x) = (1 - t^2) lam0(T_x) + (2t - t^3) lam1(T_x) + (pi1 (x) id)(T_x)
    H(T_phi) = (1 - t^2) lam0(T_phi) + t lam1(T_phi) + (pi1 (x) id)(T_phi)
    H(r) = r . id
    """
    kind = token[0]
    if kind == "r":
        return PolyOperator(model, {0: model.pi_tensor(token, "pi0")})
    # both raise RingError on a token that is not a generator
    lam0 = model.lam0(token)
    lam1 = model.lam1(token)
    const = lam0 + model.pi_tensor(token, "pi1")
    if kind == "x":
        return PolyOperator(model, {
            0: const,
            1: lam1.scale(2),
            2: lam0.scale(-1),
            3: lam1.scale(-1),
        })
    return PolyOperator(model, {0: const, 1: lam1, 2: lam0.scale(-1)})


def homotopy_endpoints_check(model, token, H=None):
    """H(0) = pi0 (x) id and H(1) = lam1 + pi1 (x) id, blockwise.

    ``H`` is the token's ``homotopy_H``, built here if None.
    """
    if H is None:
        H = homotopy_H(model, token)
    report = CheckReport("homotopy-endpoints")
    H.at(0).eq_report(model.pi_tensor(token, "pi0"), report, tag="H(0)")
    if token[0] == "r":
        # H(r) is constant; its value at 1 must again be r . id
        rhs = model.pi_tensor(token, "pi0")
    else:
        rhs = model.lam1(token) + model.pi_tensor(token, "pi1")
    H.at(1).eq_report(rhs, report, tag="H(1)")
    return report


def homotopy_pairing_check(model, xvec, pvec, H_x=None, H_phi=None):
    """H preserves the pairing: H(T_phi) H(T_x) = H(<phi, x> . id).

    An identity of polynomial operators, checked exactly per power of t.
    ``H_x`` and ``H_phi`` are the tokens' ``homotopy_H``, built if None.
    """
    if H_x is None:
        H_x = homotopy_H(model, ("x", xvec))
    if H_phi is None:
        H_phi = homotopy_H(model, ("phi", pvec))
    lhs = H_phi.compose(H_x)
    relt = model.module.pair(pvec, xvec)
    rhs = PolyOperator(model, {0: model.pi_tensor(("r", relt), "pi0")})
    report = CheckReport("homotopy-pairing")
    lhs.eq_report(rhs, report, tag="pairing")
    return report
