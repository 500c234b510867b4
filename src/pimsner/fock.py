"""Truncated Fock modules, Toeplitz operators, and the rotational homotopy.

The Fock module of a correspondence X is the graded bimodule
T(X) = R (+) X (+) X^(x)2 (+) ...; here it is truncated at a configurable
depth N, with each graded piece presented by its reduced pure-tensor basis.
Creation operators prepend a vector, annihilation operators pair off the
first tensor factor, and scalars act through the left action.  An
R-system has no involution, so nothing here acts on a dual Fock module:
``TruncatedFock.token_op`` builds the three kinds from one table,
``_KINDS``, of degree shift and lowest live degree.  Every operator is an
exact flat sum of generator words, whose columns are read by chasing a
basis key through each word's memoized generator columns, and knows which
source degrees its columns are defined on, so identities are only asserted
within the truncation budget: a check at source degree d runs only when
every intermediate degree of the word stays <= N, and checkers report how
much was covered.

The module also provides:

* the vacuum-compression form i . P0 = i . id - sum of T_x T_phi for a
  compactly acting ideal element;
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
  pi (x) id is the cached Fock token operator, lifted once per model, its
  columns are keyed by integer ids of the model keys, and no operator on
  it stores a zero column.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial, reduce

from .ringcore import RingError, vadd, vapply, vdrop, vmul, vscale


class DepthError(RuntimeError):
    """The truncation depth or word bound is too small for the request."""


class InvariantViolation(AssertionError):
    """An internal structural identity failed; indicates a real bug."""


# ---------------------------------------------------------------------------
# The rotation's coefficients
# ---------------------------------------------------------------------------

# kind -> (lam0 coefficient, lam1 coefficient), each a polynomial in t as a
# power -> integer dict; ``homotopy_H`` builds its parts from this table
_ROTATION = {
    "x": ({0: 1, 2: -1}, {1: 2, 3: -1}),
    "phi": ({0: 1, 2: -1}, {1: 1}),
}


def rotation_coefficient_identity():
    """c0(phi) c0(x) + c1(phi) c1(x) == 1, multiplied out from ``_ROTATION``.

    With the table above this reads (1 - t^2)^2 + t (2t - t^3) == 1, the
    scalar identity behind pairing preservation.
    """
    total = defaultdict(int)
    for a, b in zip(_ROTATION["phi"], _ROTATION["x"]):
        for p, c in a.items():
            for q, d in b.items():
                total[p + q] += c * d
    return {p: c for p, c in total.items() if c} == {0: 1}


# ---------------------------------------------------------------------------
# Truncated Fock module
# ---------------------------------------------------------------------------

# The most basis keys, summed over degrees 0..N, that a truncation may
# hold.  A quiver of at most 4 vertices and 6 edges has at most 55,990 at
# depth 6.  rose2 has 32,767 at depth 14, where a quiver verify takes
# about 4 s, and each further degree doubles both.
MAX_FOCK_DIMENSION = 1 << 16

# The deepest truncation.  Each operator keeps a (depth + 1)-bit mask per
# covered degree, so the cost grows with the depth even where the key
# budget never trips: an acyclic quiver's path counts end, and rose1 has
# one key per degree.  A quiver verify at depth 4,000 took 1.6 s on a2
# and 11.7 s on rose1 (Python 3.11, 2 cores).  No test or workload goes
# past 16.
MAX_FOCK_DEPTH = 64

# kind -> (degree shift, lowest degree not killed under pi0); pi1 kills
# one degree more
_KINDS = {
    "x": (1, 0),
    "phi": (-1, 1),
    "r": (0, 0),
}


def _token_key(token):
    """A generator token as a hashable (kind, payload items) pair."""
    kind, payload = token
    terms = payload.terms if kind == "r" else payload
    return kind, tuple(terms.items())


class TruncatedFock:
    """Graded bases of R, X, X^(x)2, ..., X^(x)N and their duals.

    The dual bases only index the annihilation words of the homotopy
    model; every operator acts on the Fock module itself.

    Basis keys are ``(degree, tuple)``; the degree-zero tuple holds a
    single ring basis symbol.  The ring and the module must be finitely
    enumerated for the bases to exist.  ``token_op`` builds and caches
    every generator operator; ``zero_op`` is the only other operator made
    here.  The cached operators refer back to the module, so leaving a
    ``with`` block drops them and lets the module, its columns and any
    homotopy model built on it be freed by reference counting; the module
    stays usable and rebuilds what it needs.
    """

    def __init__(self, corr, depth):
        if depth < 1:
            raise DepthError("truncation depth must be at least 1")
        if depth > MAX_FOCK_DEPTH:
            raise RingError(
                f"truncation depth {depth} is past {MAX_FOCK_DEPTH}")
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

        Tokens are ``(kind, payload)`` with a kind of ``_KINDS``: a
        creation ``x``, an annihilation ``phi`` or a scalar ``r``.  This is
        the only constructor of a generator operator: its degree shift and
        the degrees it kills are read off ``_KINDS``, and it is kept per
        (kind, payload items, variant), so words compose these cached
        operators.  It is the one-leaf word whose pi0 leaf memoizes the
        columns of ``_column``; the pi1 leaf kills one degree more and
        otherwise reads pi0's memo, so each generator has one column cache.
        Callers must not mutate a returned operator.
        """
        key = _token_key(token) + (variant,)
        op = self._tok_ops.get(key)
        if op is None:
            kind, payload = token
            if kind not in _KINDS:
                raise RingError(f"unknown generator token {kind!r}")
            if variant not in ("pi0", "pi1"):
                raise RingError(f"unknown representation {variant!r}")
            shift, low = _KINDS[kind]
            if variant == "pi0":
                leaf = _Columns(partial(_kill_below, low, partial(
                    self._column, kind, payload))).__getitem__
            else:
                [(leaf,)] = self.token_op(token, "pi0").terms
                low += 1
                leaf = partial(_kill_below, low, leaf)
            outs = {d: 1 << (d + shift) if d >= low else 0
                    for d in range(self.depth + 1 - max(shift, 0))}
            op = FockOperator(self, {(leaf,): self.k.one}, outs)
            self._tok_ops[key] = op
        return op

    def basis(self, n):
        return self._graded(n, self._basis, self.module.x_basis,
                            lambda t, b: self.module.prepend_normal(b, t))

    def dual_basis(self, n):
        return self._graded(n, self._dual, self.module.xp_basis,
                            self.module.dual_append_normal)

    def _graded(self, n, bases, syms, extend):
        """Degree-n keys: each degree n-1 tuple extended by each symbol.

        Raises ``RingError`` once degrees 0..n pass ``MAX_FOCK_DIMENSION``
        keys, before degree n is complete.
        """
        if n < 0 or n > self.depth:
            raise DepthError(f"degree {n} outside truncation range 0..{self.depth}")
        if n not in bases:
            prev = self._graded(n - 1, bases, syms, extend) if n > 1 else ()
            room = MAX_FOCK_DIMENSION - sum(len(bases[d]) for d in range(n))
            seen = dict.fromkeys((sym,) for sym in syms) if n == 1 else {}
            for _, t in prev:
                for sym in syms:
                    seen.update(dict.fromkeys(extend(t, sym)))
                if len(seen) > room:
                    break
            if len(seen) > room:
                raise RingError(
                    f"degree {n} takes the Fock module past "
                    f"{MAX_FOCK_DIMENSION} basis keys")
            bases[n] = [(n, t) for t in seen]
        return bases[n]

    # -- operator constructors ----------------------------------------------

    def zero_op(self):
        return _linear_combination(self, [])

    def _prepend(self, xvec, t, d):
        """x (x) t in normal form (t reduced), as a degree-d column."""
        return vapply(self.k, lambda b: {
            (d, tup): c for tup, c in
            self.module.prepend_normal(b, t).items()}, xvec)

    def _column(self, kind, payload, key):
        """The column of a generator at a basis key, before any low kill.

        Creation prepends x, annihilation pairs phi with the first factor
        and scalars act on it.  The column sits in degree d plus the kind's
        shift: a single factor when that is 1 and d is 0, a ring element
        when it is 0.
        """
        d, t = key
        e = d + _KINDS[kind][0]
        module, ring, one = self.module, self.ring, self.k.one
        if kind == "x":
            if d == 0:
                vec = module.act_right(payload, ring.monomial(t[0]))
                return {(e, (sym,)): c for sym, c in vec.items()}
            return self._prepend(payload, t, e)
        if kind == "r":
            if d == 0:
                prod = payload * ring.monomial(t[0])
                return {(e, (sym,)): c for sym, c in prod.terms.items()}
            return self._prepend(module.act_left(payload, {t[0]: one}),
                                 t[1:], e)
        # phi pairs off the first factor
        r = module.pair(payload, {t[0]: one})
        if r.is_zero():
            return {}
        if d == 1:
            return {(e, (sym,)): c for sym, c in r.terms.items()}
        return self._prepend(module.act_left(r, {t[1]: one}), t[2:], e)


class _Columns(dict):
    """A column memo read as a word leaf: a missing key is built once."""

    def __init__(self, build):
        self.build = build

    def __missing__(self, key):
        col = self[key] = self.build(key)
        return col


def _kill_below(low, leaf, key):
    """``leaf``'s column at ``key``, or zero below degree ``low``."""
    return {} if key[0] < low else leaf(key)


# ---------------------------------------------------------------------------
# Exact column-sparse operators with coverage accounting
# ---------------------------------------------------------------------------

class FockOperator:
    """An operator on the truncated Fock module: a flat sum of words.

    ``terms`` is a clean vector from words to coefficients; a word is a
    tuple of leaves in the order they apply, each leaf the memoized column
    of one generator (see ``TruncatedFock.token_op``), and the empty word
    is the identity.  ``column`` chases a key through each word, so
    composing, adding and scaling only concatenate words and combine
    coefficients; no composite column is stored.

    ``outs`` maps each source degree on which the columns are defined to
    a bitmask whose set bits are the target degrees they can reach, and
    ``covered`` is its key view; the constructor stores ``outs`` as
    given, so callers pass only degrees in 0..depth.  Composing intersects
    coverage along the degree chains actually reachable, one mask lookup
    per set bit, so truncation can never produce a silently wrong column,
    only a smaller covered set.  Columns are clean vectors (see
    ``ringcore``) and may be a leaf's memoized one, so compare them as
    plain dicts and never mutate them.  ``eq_on`` reads no column when
    both operators have equal terms, since that makes them the same
    operator.
    """

    __slots__ = ("fock", "terms", "outs", "covered")

    def __init__(self, fock, terms, outs):
        self.fock = fock
        self.terms = terms
        self.outs = outs
        self.covered = outs.keys()

    def column(self, key):
        if key[0] not in self.covered:
            return None
        k = self.fock.k
        return vapply(k, lambda word: _chase(k, word, key), self.terms)

    def compose(self, other):
        """self after other: every word of other, then every word of self;
        coverage follows the reachable degree chains."""
        if self.fock is not other.fock:
            raise RingError("operators act on different modules")
        outs = {}
        for d, mask in other.outs.items():
            reached = _image(self.outs, mask)
            if reached is not None:
                outs[d] = reached
        one = self.fock.k.one
        terms = vmul(self.fock.k, lambda w1, w2: {w2 + w1: one},
                     self.terms, other.terms)
        return FockOperator(self.fock, terms, outs)

    def __add__(self, other):
        one = self.fock.k.one
        return _linear_combination(self.fock, [(one, self), (one, other)])

    def scale(self, coeff):
        return _linear_combination(self.fock, [(coeff, self)])

    def __sub__(self, other):
        return self + other.scale(-1)

    # -- inspection ----------------------------------------------------------

    def eq_on(self, other, degrees):
        """Whether both operators have the same column at every basis key
        of ``degrees``, which both must cover.  Equal terms prove it
        without reading a column; otherwise each side is read through its
        ``_reader``."""
        degrees = list(degrees)
        for d in degrees:
            if d not in self.outs or d not in other.outs:
                raise DepthError(f"degree {d} not covered by both operators")
        if self.terms == other.terms:
            return True
        read, read_other = self._reader(), other._reader()
        for d in degrees:
            for key in self.fock.basis(d):
                if read(key) != read_other(key):
                    return False
        return True

    def _reader(self):
        """The column at a key of a covered degree, as one function: a
        lone coefficient-one leaf is its memo, a lone coefficient-one word
        is its chase, and anything else is ``column``."""
        if len(self.terms) == 1:
            [(word, coeff)] = self.terms.items()
            if coeff == self.fock.k.one:
                if len(word) == 1:
                    return word[0]
                return partial(_chase, self.fock.k, word)
        return self.column

    def __repr__(self):
        return (f"<FockOperator {len(self.terms)} terms "
                f"covered={sorted(self.covered)}>")


def _chase(k, word, key):
    """The column of one word at ``key``: its leaves applied in order.  A
    one-entry column of coefficient one is handed on as is, and a zero
    column ends the chase."""
    if not word:
        return {key: k.one}
    col = word[0](key)
    for leaf in word[1:]:
        if len(col) == 1:
            [(src, c)] = col.items()
            if c == k.one:
                col = leaf(src)
                continue
        elif not col:
            return col
        col = vapply(k, leaf, col)
    return col


def _image(outs, mask):
    """The union of ``outs`` over the degrees set in ``mask``, as a mask,
    or None when ``outs`` does not cover one of them."""
    reached = 0
    while mask:
        low = mask & -mask
        targets = outs.get(low.bit_length() - 1)
        if targets is None:
            return None
        reached |= targets
        mask ^= low
    return reached


def _linear_combination(fock, pairs):
    """The sum of ``coeff * op`` over ``(coeff, op)`` pairs, as one clean
    vector of words: covered where every op is, with the union of their
    target degrees."""
    k = fock.k
    outs = dict.fromkeys(range(fock.depth + 1), 0)
    terms = {}
    for coeff, op in pairs:
        if op.fock is not fock:
            raise RingError("operators act on different modules")
        outs = {d: mask | op.outs[d] for d, mask in outs.items()
                if d in op.outs}
        terms = vadd(k, terms, vscale(k, op.terms, coeff))
    return FockOperator(fock, terms, outs)


# ---------------------------------------------------------------------------
# Words in the generators
# ---------------------------------------------------------------------------

def word_operator(fock, tokens, variant):
    """The operator of a generator word under pi0 or pi1.

    Tokens are ``(kind, payload)`` with a kind of ``_KINDS``, in operator
    order (the rightmost acts first).  The word composes the cached
    ``fock.token_op`` operators, which refuse an unknown variant.  A
    one-token word is the cached operator itself, so do not mutate it.
    The empty word raises ``RingError``, as in ``ToeplitzAlgebra``.
    """
    if not tokens:
        raise RingError("empty generator word")
    return reduce(FockOperator.compose,
                  (fock.token_op(token, variant) for token in tokens))


def pi0(fock, tokens):
    """The canonical representation of a generator word."""
    return word_operator(fock, tokens, "pi0")


def pi1(fock, tokens):
    """The low-degree-shifted representation of a generator word."""
    return word_operator(fock, tokens, "pi1")


# ---------------------------------------------------------------------------
# The vacuum compression
# ---------------------------------------------------------------------------

def p0_compact_form(relt, fock):
    """i . P0 = i . id - sum of T_x T_phi over a compact decomposition of i.

    Requires the left action of ``relt`` to be compact; the decomposition
    comes from the correspondence.  The result acts as i on degree 0 and
    as 0 on every higher degree within budget.  With no decomposition
    terms (a sink) it is the cached scalar operator itself, so do not
    mutate it.
    """
    dec = fock.corr.delta_compact(relt)
    op = fock.token_op(("r", relt))
    for xvec, pvec in dec.terms:
        op = op - fock.token_op(("x", xvec)).compose(
            fock.token_op(("phi", pvec)))
    return op


def check_p0_form(op, relt, fock, degrees):
    """Postcondition of the vacuum compression: i on degree 0, 0 above."""
    degrees = [d for d in degrees if d in op.covered]
    scalar = fock.token_op(("r", relt))
    ok0 = 0 not in degrees or op.eq_on(scalar, [0])
    rest = [d for d in degrees if d >= 1]
    return ok0 and op.eq_on(fock.zero_op(), rest)


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
        self.skipped += lhs.fock.depth + 1 - len(degrees)
        self.checked += 1
        if not lhs.eq_on(rhs, degrees):
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


def covariant_check(fock, T=None):
    """Check the bimodule laws and the covariance relation on basis data.

    ``T`` maps X basis symbols to operators, by default the creations;
    ``S`` on X' basis symbols and ``sigma`` on ring basis symbols are the
    annihilations and the scalars.  The covariance relation is
    sigma(<phi, x>) = S(phi) T(x) for all basis pairs.
    """
    module, ring, one = fock.module, fock.ring, fock.k.one
    if T is None:
        T = {b: fock.token_op(("x", {b: one})) for b in module.x_basis}
    S = {c: fock.token_op(("phi", {c: one})) for c in module.xp_basis}
    sigma = {r: fock.token_op(("r", ring.monomial(r))) for r in ring.basis}

    def combo(ops, vec):
        return _linear_combination(fock, [(c, ops[b]) for b, c in vec.items()])

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

    The normal form of each word ``T_{p..} T_{c..}`` is built once and kept
    in ``_words``, keyed by its (creation, annihilation) symbol tuples; the
    memo lives and dies with the algebra, so with its ``TruncatedFock``.
    """

    def __init__(self, corr):
        self.corr = corr
        self.module = corr.module
        self.ring = self.module.ring
        self.k = self.module.k
        self._words = {}

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
            elif kind == "x":
                nxt = vapply(k, lambda b: self._word((b,), None, ()), payload)
            elif kind == "phi":
                nxt = vapply(k, lambda c: self._word((), None, (c,)), payload)
            else:
                raise RingError(f"unknown generator token {kind!r}")
            elt = nxt if elt is None else self.mul(elt, nxt)
        if elt is None:
            raise RingError("empty generator word")
        return elt

    # -- normal form -----------------------------------------------------------

    def _word(self, psyms, mid, csyms):
        """Canonical terms of T_{p..} j(mid) T_{c..}; mid may be None.

        With mid None the result is the memoized one, shared by every
        caller: read it, never mutate it.
        """
        if mid is None:
            word = self._words.get((psyms, csyms))
            if word is None:
                word = self._words[psyms, csyms] = self._normal_word(
                    psyms, None, csyms)
            return word
        return self._normal_word(psyms, mid, csyms)

    def _normal_word(self, psyms, mid, csyms):
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
        return vdrop(out)

    def _scalar_times_word(self, relt, key):
        """j(r) . word, by absorbing into the leftmost factor."""
        m, k = self.module, self.k
        one = k.one
        if key[0] == "s":
            prod = relt * self.ring.monomial(key[1])
            return self.scalar(prod)
        _, p, c = key
        if p:
            return vapply(k, lambda sym: self._word((sym,) + p[1:], None, c),
                           m.act_left(relt, {p[0]: one}))
        return vapply(k, lambda sym: self._word((), None, (sym,) + c[1:]),
                       m.act_xp_left(relt, {c[0]: one}))

    def _word_times_scalar(self, key, relt):
        """word . j(r), by absorbing into the rightmost factor."""
        m, k = self.module, self.k
        one = k.one
        if key[0] == "s":
            prod = self.ring.monomial(key[1]) * relt
            return self.scalar(prod)
        _, p, c = key
        if c:
            return vapply(k, lambda sym: self._word(p, None, c[:-1] + (sym,)),
                           m.act_xp_right({c[-1]: one}, relt))
        return self._word(p, relt, ())

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
        if p2:
            head = {p2[0]: one} if mid is None else m.act_left(mid, {p2[0]: one})
            return vapply(k, lambda sym: self._word(
                p1 + (sym,) + tuple(p2[1:]), None, c2), head)
        if c1:
            tail = {c1[-1]: one}
            if mid is not None:
                tail = m.act_xp_right(tail, mid)
            return vapply(k, lambda sym: self._word(
                p1, None, tuple(c1[:-1]) + (sym,) + c2), tail)
        return self._word(p1, mid, c2)

    def mul(self, e1, e2):
        """Product of two elements."""
        return vmul(self.k, self._word_mul, e1, e2)

    def try_mul(self, e1, e2, max_len):
        """Product, or None if any product word is longer than ``max_len``,
        even one that a later word would cancel."""
        k = self.k
        out = {}
        for key1, cf1 in e1.items():
            for key2, cf2 in e2.items():
                coeff = k.mul(cf1, cf2)
                for key, c in self._word_mul(key1, key2).items():
                    if key[0] == "w" and len(key[1]) + len(key[2]) > max_len:
                        return None
                    out[key] = k.add(out.get(key, k.zero), k.mul(coeff, c))
        return vdrop(out)

    def left_support(self, key):
        """A ring element u with j(u) . word == word."""
        if key[0] == "s":
            return self.ring.monomial(self.ring.support_symbol(key[1]))
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
    same vanishing pairing.  The quiver module's candidates are checked
    against the path-space model of ``tests/pathspace.py``: every key
    where the model's pi0 or pi1 column of a normal word is nonzero must
    be listed.  Without the hook the full graded basis is scanned.
    Degrees below the annihilation count are never reached: the chain
    passes through degree zero, where annihilation is zero in both
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
    ``op1`` under pi1, each through its ``_reader``: at degree ll the pi1
    column must vanish, and at every other degree both cover the two
    columns must agree.  Raises InvariantViolation otherwise.
    """
    read0, read1 = op0._reader(), op1._reader()
    for d in sorted(op0.covered & op1.covered):
        keys = _defect_keys_at(fock, wkey, ll, d)
        if d == ll:
            for key in keys:
                if read1(key):
                    raise InvariantViolation(
                        f"pi1 of {wkey} does not vanish at degree {ll}")
            continue
        for key in keys:
            if read0(key) != read1(key):
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
    k.  Requires l + 1 <= depth.  The returned operator is the plain term
    sum of coeff * (pi0 - pi1) over the normal words, so building it costs
    no column; a caller that wants just the support check reads none.
    """
    elt = fock._talg.from_tokens(tokens)
    k = fock.k
    pairs = []
    infos = []
    for key, coeff in elt.items():
        kk, ll = (0, 0) if key[0] == "s" else (len(key[1]), len(key[2]))
        if ll + 1 > fock.depth:
            raise DepthError(
                f"word with {ll} annihilations needs depth >= {ll + 1}")
        word = word_tokens_of(fock._talg, key)
        op0, op1 = pi0(fock, word), pi1(fock, word)
        _check_defect_support(fock, key, ll, op0, op1)
        pairs += [(coeff, op0), (k.neg(coeff), op1)]
        infos.append({"word": key, "block": (kk, ll)})
    return _linear_combination(fock, pairs), infos


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

    A model key ``(degree, tensor, word)`` is interned once into an int
    id: ``_ids`` maps it to its id, ``_keys`` back, and ``_info`` an id to
    its (degree, Fock key, index in ``words``); ``low_keys`` take the ids
    ``low_ids`` in order.  Low parts and columns are keyed by ids, and a
    failure tag names the key.  ``lift`` carries Fock columns into the
    model, lifting each Fock key once per word: ``pi_tensor`` and ``lam0``
    lift ``fock.token_op`` on the low keys, ``HOperator.column`` the high
    part.

    Each low part is built once per model and kept in ``_lows``: that of
    ``pi_tensor`` keyed by the Fock operator it lifts, that of ``lam0`` by
    the token's pi0 and pi1 operators, and that of ``lam1`` by the token's
    (kind, payload items).  Keying the lifts on the operators, which
    ``fock.token_op`` keeps, means a different operator gets a fresh lift.
    The model stores plain dicts and wraps them in a new ``HOperator`` on
    every call; no caller may mutate a returned low part or column.  It
    also keeps each word's left support, which every lift of a degree-0
    key reads.
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
        self._wids = {wk: w for w, wk in enumerate(self.words)}
        # word id -> Fock key -> its lift, a column over model ids
        self._lifts = defaultdict(dict)
        self._lows = {}
        self._ids, self._keys, self._info = {}, [], []
        # j(u) . word for the ring symbol u of a degree-0 key, or the right
        # support u of the last tensor factor, keyed (degree 0?, symbol, word)
        self._absorbed = {}
        # word id -> its left support, as (frozen items, degree-0 vector)
        self._supports = {}
        self.c0_keys = [(0, (), wk) for wk in self.words]
        self.c1_keys = [(1, (b,), wk) for b in self.module.x_basis
                        for wk in self.words if self.make_key(1, (b,), wk)
                        == {(1, (b,), wk): self.k.one}]
        self.low_keys = self.c0_keys + self.c1_keys
        # interned first, so the low ids ascend: sorted ids are in low order
        self.low_ids = [self._id(key) for key in self.low_keys]

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

    def _id(self, key):
        """The id of a model key, interned on first sight.  Its word is one
        of ``words``, which are closed under scalar absorption and under
        the products that ``try_mul`` bounds."""
        i = self._ids.get(key)
        if i is None:
            n, tup, wk = key
            i = self._ids[key] = len(self._keys)
            self._keys.append(key)
            self._info.append((n, (n, tup), self._wids[wk]))
        return i

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
        for i, (_, _, wk) in zip(self.low_ids, self.c0_keys):
            prod = self.talg.try_mul(gen, {wk: self.k.one}, self.word_bound)
            if prod is None:
                low[i] = OVERFLOW
            elif prod:
                low[i] = {self._id((0, (), wk2)): c
                          for wk2, c in prod.items()}
        return low

    def lift(self, fcol, w):
        """A Fock column over (degree, tensor) keys, tensored with the word
        of id ``w`` through ``make_key``: a clean column over model ids.
        The lift of each Fock key is built once per word; a one-entry
        column with coefficient one is that stored lift itself."""
        lifts = self._lifts[w]
        k = self.k
        out = {}
        for fkey, c in fcol.items():
            col = lifts.get(fkey)
            if col is None:
                col = lifts[fkey] = {
                    self._id(key): c2 for key, c2 in
                    self.make_key(*fkey, self.words[w]).items()}
            if len(fcol) == 1 and c == k.one:
                return col
            for i, c2 in col.items():
                out[i] = k.add(out.get(i, k.zero), k.mul(c, c2))
        return vdrop(out)

    def _support(self, w):
        """The left support of the word of id ``w``, kept per word: its
        frozen items and its degree-0 Fock vector."""
        support = self._supports.get(w)
        if support is None:
            u = self.talg.left_support(self.words[w]).terms
            support = self._supports[w] = (
                frozenset(u.items()),
                {(0, (rsym,)): c for rsym, c in u.items()})
        return support

    def _lift_low(self, op, ids):
        """op (x) id on the ids whose degree op does not kill, as a clean
        low part; a degree-0 key is the left support of its word, as a
        degree-0 Fock vector.  Every word reads the same Fock columns, so
        each Fock key's column, and each left support's, is read once per
        call."""
        k = self.k
        fcols = _Columns(op.column)
        supports = {}
        low = {}
        for i in ids:
            n, fkey, w = self._info[i]
            if not op.outs[n]:
                continue
            if n == 0:
                skey, svec = self._support(w)
                fcol = supports.get(skey)
                if fcol is None:
                    fcol = supports[skey] = vapply(k, fcols.__getitem__, svec)
            else:
                fcol = fcols[fkey]
            col = self.lift(fcol, w)
            if col:
                low[i] = col
        return low

    def lam0(self, token):
        """The corner of pi0 (x) id on the degrees that pi1 kills: degree 0
        for a creation, degree 1 for an annihilation."""
        op0 = self.fock.token_op(token, "pi0")
        op1 = self.fock.token_op(token, "pi1")

        def build():
            ids = [i for i in self.low_ids if not op1.outs[self._info[i][0]]]
            return self._lift_low(op0, ids)

        return HOperator(self, low=self._low((op0, op1), build), high=None)

    def _tensor_high(self, token):
        op = self.fock.token_op(token, "pi0")
        return FockOperator(self.fock, op.terms,
                            {d: m for d, m in op.outs.items() if d >= 2})

    def pi_tensor(self, token, variant):
        """pi0 (x) id or pi1 (x) id: the Fock token operator, lifted."""
        op = self.fock.token_op(token, variant)
        low = self._low(op, lambda: self._lift_low(op, self.low_ids))
        return HOperator(self, low=low, high=self._tensor_high(token))

    def zero_h(self):
        return HOperator(self, low={}, high=None)


class HOperator:
    """An operator on the homotopy model: explicit low part, tensor high part.

    ``low`` maps low ids (``model.low_ids``, the degree-0/1 model keys) to
    explicit columns over ids (or OVERFLOW when the word bound was
    exceeded).  Low parts are always clean: a stored column is nonzero, a
    missing low id is a zero column, and every operation below drops the
    columns that vanish, so zeros never flow into a later product, sum or
    comparison.  ``high`` is a Fock operator acting on the tensor part of
    every column of degree >= 2 (the word part is inert there), or None
    for zero.  Columns are clean vectors, as in ``FockOperator``.
    Composition keeps this form only while the inner high part stays in
    degrees >= 2, which holds for every homotopy identity; ``compose``
    refuses any other chain.
    """

    def __init__(self, model, low, high):
        self.model = model
        self.low = low
        self.high = high

    def column(self, i):
        n, fkey, w = self.model._info[i]
        if n <= 1:
            return self.low.get(i, {})
        if self.high is None:
            return {}
        fcol = self.high.column(fkey)
        if fcol is None:
            return OVERFLOW
        return self.model.lift(fcol, w)

    def apply_col(self, col):
        if col is OVERFLOW or not col:
            return col
        k = self.model.k
        low, info = self.low, self.model._info
        out = {}
        for i, c in col.items():
            sub = low.get(i)
            if sub is None:
                if info[i][0] <= 1:
                    continue        # a low id that is not stored is zero
                sub = self.column(i)
            if sub is OVERFLOW:
                return OVERFLOW
            if len(col) == 1 and c == k.one:
                return sub
            for j, c2 in sub.items():
                out[j] = k.add(out.get(j, k.zero), k.mul(c, c2))
        return vdrop(out)

    def __add__(self, other):
        low = dict(self.low)
        k = self.model.k
        for i, col in other.low.items():
            mine = low.get(i)
            if mine is None:
                low[i] = col
            elif mine is OVERFLOW or col is OVERFLOW:
                low[i] = OVERFLOW
            elif total := vadd(k, mine, col):
                low[i] = total
            else:
                del low[i]
        high = self.high or other.high
        if self.high is not None and other.high is not None:
            high = self.high + other.high
        return HOperator(self.model, low, high)

    def scale(self, coeff):
        """coeff times self; scaling by one is self, as nothing mutates an
        HOperator.  A zero coefficient keeps only the OVERFLOW markers, and
        a column that a zero divisor kills is dropped."""
        k = self.model.k
        coeff = k.coerce(coeff)
        if coeff == k.one:
            return self
        low = {}
        for i, col in self.low.items():
            if col is OVERFLOW:
                low[i] = OVERFLOW
            elif col := vscale(k, col, coeff):
                low[i] = col
        high = None if self.high is None else self.high.scale(coeff)
        return HOperator(self.model, low, high)

    def compose(self, other):
        """self after other; ``other.high`` must stay in degrees >= 2.

        Only the columns ``other`` stores are composed: a low id it lacks
        is a zero column, and stays absent, so zero, in the composite, as
        does a column that ``self`` maps to zero.
        """
        # bits 0 and 1 of a mask are the target degrees 0 and 1
        if other.high is not None and any(
                mask & 0b11 for mask in other.high.outs.values()):
            raise RingError("the inner high part re-enters degrees 0 and 1; "
                            "the composition has no tensor form")
        low = {}
        for i, col in other.low.items():
            if col := self.apply_col(col):
                low[i] = col
        if self.high is None or other.high is None:
            high = None
        else:
            high = self.high.compose(other.high)
        return HOperator(self.model, low, high)

    def eq_report(self, other, report, tag):
        """Exact comparison with coverage accounting into a CheckReport;
        a failing low column is tagged with its model key, in low-id order.

        Only the ids that either side stores are compared; every other low
        id is a zero column on both sides, so a checked equal pair.
        """
        stored = sorted(self.low.keys() | other.low.keys())
        report.checked += len(self.model.low_ids) - len(stored)
        for i in stored:
            a = self.low.get(i, {})
            b = other.low.get(i, {})
            if a is OVERFLOW or b is OVERFLOW:
                report.skipped += 1
                continue
            report.checked += 1
            if a != b:
                report.failures.append((tag, self.model._keys[i]))
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
        self.parts = dict(parts)

    def compose(self, other):
        out = {}
        for p1, op1 in self.parts.items():
            for p2, op2 in other.parts.items():
                comp = op1.compose(op2)
                p = p1 + p2
                out[p] = out[p] + comp if p in out else comp
        return PolyOperator(self.model, out)

    def at(self, value):
        """Evaluate at an exact scalar value of t.  A part whose coefficient
        vanishes adds only its OVERFLOW ids, which the comparison skips."""
        out = None
        for p, op in self.parts.items():
            coeff = self.model.k.coerce(value ** p if p else 1)
            term = op.scale(coeff)
            out = term if out is None else out + term
        return out if out is not None else self.model.zero_h()

    def eq_report(self, other, report, tag):
        powers = set(self.parts) | set(other.parts)
        for p in sorted(powers):
            a = self.parts.get(p, self.model.zero_h())
            b = other.parts.get(p, self.model.zero_h())
            a.eq_report(b, report, tag=(tag, f"t^{p}"))


def homotopy_H(model, token):
    """The rotational homotopy on one generator, exact in t.

    H(T) = c0(t) lam0(T) + c1(t) lam1(T) + (pi1 (x) id)(T) for T = T_x or
    T_phi, with c0 and c1 read from ``_ROTATION``:

    H(T_x) = (1 - t^2) lam0(T_x) + (2t - t^3) lam1(T_x) + (pi1 (x) id)(T_x)
    H(T_phi) = (1 - t^2) lam0(T_phi) + t lam1(T_phi) + (pi1 (x) id)(T_phi)
    H(r) = r . id
    """
    kind = token[0]
    if kind == "r":
        return PolyOperator(model, {0: model.pi_tensor(token, "pi0")})
    # both raise RingError on a token that is not a generator
    lams = (model.lam0(token), model.lam1(token))
    parts = {}
    for lam, coeffs in zip(lams, _ROTATION[kind]):
        for p, c in coeffs.items():
            term = lam.scale(c)
            parts[p] = parts[p] + term if p in parts else term
    pi1 = model.pi_tensor(token, "pi1")
    parts[0] = parts[0] + pi1 if 0 in parts else pi1
    return PolyOperator(model, dict(sorted(parts.items())))


def homotopy_endpoints_check(model, token, H):
    """H(0) = pi0 (x) id and H(1) = lam1 + pi1 (x) id, blockwise.

    ``H`` is the homotopy under check, the token's ``homotopy_H``.
    """
    report = CheckReport("homotopy-endpoints")
    H.at(0).eq_report(model.pi_tensor(token, "pi0"), report, tag="H(0)")
    if token[0] == "r":
        # H(r) is constant; its value at 1 must again be r . id
        rhs = model.pi_tensor(token, "pi0")
    else:
        rhs = model.lam1(token) + model.pi_tensor(token, "pi1")
    H.at(1).eq_report(rhs, report, tag="H(1)")
    return report


def homotopy_pairing_check(model, xvec, pvec, H_x, H_phi):
    """H preserves the pairing: H(T_phi) H(T_x) = H(<phi, x> . id).

    An identity of polynomial operators, checked exactly per power of t.
    ``H_x`` and ``H_phi`` are the homotopies under check, the tokens'
    ``homotopy_H``.
    """
    lhs = H_phi.compose(H_x)
    relt = model.module.pair(pvec, xvec)
    rhs = PolyOperator(model, {0: model.pi_tensor(("r", relt), "pi0")})
    report = CheckReport("homotopy-pairing")
    lhs.eq_report(rhs, report, tag="pairing")
    return report
