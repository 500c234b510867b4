"""Truncated Fock modules, Toeplitz operators, and the rotational homotopy.

The Fock module of a correspondence X is the graded bimodule
T(X) = R (+) X (+) X^(x)2 (+) ...; here it is truncated at a configurable
depth N, with each graded piece presented by its reduced pure-tensor basis.
Creation operators prepend a vector, annihilation operators pair off the
first tensor factor, and scalars act through the left action.  An
R-system has no involution, so nothing here acts on a dual Fock module:
``TruncatedFock.token_op`` builds the three kinds from one table,
``_KINDS``, of degree shift and lowest live degree.  Every basis key of
the truncation has a global index, and the generator of each basis symbol
is one list, its leaf, mapping every index to the index of its image or to
-1, read off the module once per key, one basis symbol at a time.  Every
operator is an exact flat sum of words in the leaves: a word's image is
its first leaf's live indices, carried through each later leaf's list,
and operators compare by these images.  Every operator knows which
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
  makes the pair a quasi-homomorphism.  ``quasi_hom_defect`` checks that
  block per normal word and returns the difference as signed terms, which
  ``linear_combination`` sums into one operator for a caller that reads
  it;
* a normal-form word algebra for the Toeplitz ring: every product of
  generators is rewritten to sums of words "creations, then annihilations"
  using the covariance relation S(phi) T(x) = sigma(<phi, x>) and the
  bimodule laws;
* a finite model of the Fock module tensored with the Toeplitz ring,
  truncated both in Fock degree and in word length, on which the
  rotational homotopy H(t) is realized with exact polynomial coefficients
  in t, so that its endpoint identities and pairing preservation become
  finite exact checks.  The model shares its Fock module's one Toeplitz
  algebra and bounds word length per product, through ``try_mul``.  Each
  summand of H on one basis symbol is a block, a coefficient-one partial
  map of integer model ids, built once per model (pi (x) id lifts the
  cached Fock token operator; lam1 multiplies the generator by j(u) once
  per left support u of the degree-0 words, and only the words on the
  supports it does not kill one by one), and an operator is a sum of
  words of blocks with coefficients in k[t].
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from functools import reduce
from itertools import accumulate, compress

from .ringcore import RingError, vadd, vapply, vclean, vdrop, vmul, vscale


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
# about 0.6 s and 33 MB (Python 3.11, 2 cores), and each further degree
# doubles the keys.
MAX_FOCK_DIMENSION = 1 << 16

# The deepest truncation.  Each operator keeps a (depth + 1)-bit mask per
# covered degree, so the cost grows with the depth even where the key
# budget never trips: an acyclic quiver's path counts end, and rose1 has
# one key per degree.  A quiver verify at depth 64 took 4 ms on a2 and
# 10 ms on rose1, in process (Python 3.11, 2 cores).  No test or workload
# goes past 16.
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
    enumerated for the bases to exist.  Once a generator is built, every
    key of degrees 0..N has a global index, degree-major in ``basis``
    order: ``_keys`` lists the keys, ``_index`` maps a key to its index,
    and degree d is the index range ``_offsets[d]:_offsets[d + 1]``.
    ``token_op`` builds and caches every generator operator from the
    ``_Leaf`` of each basis symbol, kept in ``_leaves``; ``zero_op`` is
    the only other operator made here.  The cached operators refer back to
    the module, so leaving a ``with`` block drops them and the leaves and
    lets the module and any homotopy model built on it be freed by
    reference counting; the module stays usable and rebuilds what it
    needs.
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
        self._leaves = {}
        self._index = None
        self._talg = ToeplitzAlgebra(corr)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._tok_ops.clear()
        self._leaves.clear()

    def token_op(self, token, variant="pi0"):
        """The operator of one generator token under pi0 or pi1.

        Tokens are ``(kind, payload)`` with a kind of ``_KINDS``: a
        creation ``x``, an annihilation ``phi`` or a scalar ``r``.  This is
        the only constructor of a generator operator: its degree shift and
        the degrees it kills are read off ``_KINDS``, and it is kept per
        (kind, payload items, variant), so words compose these cached
        operators.  The payload is split into basis symbols, so
        ``("x", {b: 2})`` is 2 T_b and ``("r", 3v + w)`` is 3 sigma_v +
        sigma_w: the operator is the sum of the one-leaf words of its
        symbols' ``_leaf``s, with the payload's coefficients.  Callers
        must not mutate a returned operator.
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
            if variant == "pi1":
                low += 1
            outs = {d: 1 << (d + shift) if d >= low else 0
                    for d in range(self.depth + 1 - max(shift, 0))}
            terms = payload.terms if kind == "r" else payload
            op = FockOperator(self, vclean(self.k, {
                (self._leaf(kind, sym, variant),): c
                for sym, c in terms.items()}), outs)
            self._tok_ops[key] = op
        return op

    def _leaf(self, kind, sym, variant):
        """The ``_Leaf`` of one basis symbol's generator, built once.

        pi0's is read off ``_column`` once per key of the degrees the kind
        does not kill; pi1's copies it with one more degree killed and
        shares its live indices.  A column with two keys, or a coefficient
        other than one, raises ``RingError``: a leaf is a partial map of
        basis keys.
        """
        leaf = self._leaves.get((kind, sym, variant))
        if leaf is None:
            shift, low = _KINDS[kind]
            index, keys, offsets = self._numbering()
            if variant == "pi1":
                base = self._leaf(kind, sym, "pi0")
                img = base.img.copy()
                img[offsets[low]:offsets[low + 1]] = (
                    [-1] * (offsets[low + 1] - offsets[low]))
                leaf = _Leaf(img, base.live)
            else:
                one = self.k.one
                img = [-1] * (len(keys) + 1)
                for i in range(offsets[low],
                               offsets[self.depth + 1 - max(shift, 0)]):
                    col = self._column(kind, sym, keys[i])
                    if col:
                        (tup, c), *more = col.items()
                        e = keys[i][0] + shift
                        if more or c != one:
                            col = {(e, t): c for t, c in col.items()}
                            raise RingError(
                                f"generator ({kind!r}, {sym!r}) is not a "
                                f"partial map of basis keys: its column at "
                                f"{keys[i]} is {col}")
                        img[i] = index[e, tup]
                leaf = _Leaf(img, [i for i, j in enumerate(img) if j >= 0])
            self._leaves[kind, sym, variant] = leaf
        return leaf

    def _numbering(self):
        """``(_index, _keys, _offsets)``, built on first use from every
        degree's basis, so past ``MAX_FOCK_DIMENSION`` it raises as
        ``basis`` does."""
        if self._index is None:
            self._keys = [key for d in range(self.depth + 1)
                          for key in self.basis(d)]
            self._index = {key: i for i, key in enumerate(self._keys)}
            self._offsets = list(accumulate(
                (len(self.basis(d)) for d in range(self.depth + 1)),
                initial=0))
        return self._index, self._keys, self._offsets

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
        return linear_combination(self, [])

    def _column(self, kind, sym, key):
        """The column of one basis symbol's generator at a basis key, before
        any low kill, as a clean vector of the tuples of degree d plus the
        kind's shift: a single factor when that is 1 and d is 0, a ring
        symbol when it is 0.

        Creation prepends the symbol, annihilation pairs it with the first
        factor and a scalar acts on that factor.  ``_leaf`` turns each
        tuple into the index of its key in that degree.
        """
        d, t = key
        module, ring, k = self.module, self.ring, self.k
        if kind == "x":
            if d == 0:
                vec = module.act_right({sym: k.one}, ring.monomial(t[0]))
                return {(b,): c for b, c in vec.items()}
            return module.prepend_normal(sym, t)
        if kind == "r":
            if d == 0:
                return {(s,): c for s, c in ring.mul_basis(sym, t[0]).items()}
            xvec, rest = module.act_left(ring.monomial(sym),
                                         {t[0]: k.one}), t[1:]
        else:
            # phi pairs off the first factor
            r = module.pair({sym: k.one}, {t[0]: k.one})
            if r.is_zero():
                return {}
            if d == 1:
                return {(s,): c for s, c in r.terms.items()}
            xvec, rest = module.act_left(r, {t[1]: k.one}), t[2:]
        return vapply(k, lambda b: module.prepend_normal(b, rest), xvec)


class _Leaf:
    """One generator as index lists over the truncation's global indices.

    ``img[i]`` is the index of the one key that the generator sends key i
    to, with coefficient one, or -1 where its column is zero or not
    defined; the list ends with a -1, so a -1 stays -1 through later
    leaves.  ``live`` holds, ascending, every index whose image is not -1
    (pi1's leaf shares pi0's, a superset), and ``out`` their images.
    Never mutate a leaf: words and operators share them.
    """

    __slots__ = ("img", "live", "out")

    def __init__(self, img, live):
        self.img = img
        self.live = live
        self.out = list(map(img.__getitem__, live))


# ---------------------------------------------------------------------------
# Exact column-sparse operators with coverage accounting
# ---------------------------------------------------------------------------

class FockOperator:
    """An operator on the truncated Fock module: a flat sum of words.

    ``terms`` is a clean vector from words to coefficients; a word is a
    non-empty tuple of ``_Leaf``s in the order they apply, each the index
    lists of one generator (see ``TruncatedFock.token_op``).  Composing,
    adding and scaling only concatenate words and combine coefficients; no
    composite column is stored.  ``column`` walks a key's index through
    each word's leaves.  ``eq_on`` compares canonical forms (see
    ``_form``): a word vanishes outside its first leaf's live indices, so
    it is carried from those through each later leaf, one list at a time.

    ``outs`` maps each source degree on which the columns are defined to
    a bitmask whose set bits are the target degrees they can reach, and
    ``covered`` is its key view; the constructor stores ``outs`` as
    given, so callers pass only degrees in 0..depth.  Composing intersects
    coverage along the degree chains actually reachable, one mask lookup
    per set bit, so truncation can never produce a silently wrong column,
    only a smaller covered set.  Columns are clean vectors (see
    ``ringcore``).  ``eq_on`` reads no leaf when both operators have equal
    terms, since that makes them the same operator.
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
        if not self.terms:
            return {}
        fock = self.fock
        k, keys, i = fock.k, fock._keys, fock._index[key]
        out = {}
        for word, c in self.terms.items():
            j = i
            for leaf in word:
                j = leaf.img[j]
            if j >= 0:
                out[keys[j]] = k.add(out.get(keys[j], k.zero), c)
        return vdrop(out)

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
        return linear_combination(self.fock, [(one, self), (one, other)])

    def scale(self, coeff):
        return linear_combination(self.fock, [(coeff, self)])

    def __sub__(self, other):
        return self + other.scale(-1)

    # -- inspection ----------------------------------------------------------

    def eq_on(self, other, degrees):
        """Whether both operators have the same column at every basis key
        of ``degrees``, which both must cover.  Equal terms prove it
        without reading a leaf; otherwise ``_first_difference`` compares
        the two."""
        degrees = sorted(set(degrees))
        for d in degrees:
            if d not in self.outs or d not in other.outs:
                raise DepthError(f"degree {d} not covered by both operators")
        return (self.terms == other.terms
                or _first_difference(self, other, degrees) is None)

    def _lone_word(self):
        """The word of an operator that is one word with coefficient one,
        else None."""
        if len(self.terms) == 1:
            [(word, c)] = self.terms.items()
            if c == self.fock.k.one:
                return word
        return None

    def _form(self, lo, hi):
        """The canonical form on the sources of indices ``lo:hi``: the
        ascending sources whose column is nonzero, and their columns.  A
        column is the target index for one key with coefficient one, and
        otherwise its sorted ``(index, coefficient)`` items.  A sum groups
        its words per source and drops what cancels in the ring."""
        word = self._lone_word()
        if word is not None:
            src, tgt = _carry(word, lo, hi)
            if -1 in tgt:
                keep = list(map((-1).__ne__, tgt))
                src, tgt = list(compress(src, keep)), list(compress(tgt, keep))
            return src, tgt
        k = self.fock.k
        cols = defaultdict(dict)
        for word, c in self.terms.items():
            for s, t in zip(*_carry(word, lo, hi)):
                if t >= 0:
                    col = cols[s]
                    col[t] = k.add(col.get(t, k.zero), c)
        src, tgt = [], []
        for s in sorted(cols):
            col = vdrop(cols[s])
            if col:
                src.append(s)
                (t, c), *more = col.items()
                tgt.append(tuple(sorted(col.items())) if more or c != k.one
                           else t)
        return src, tgt

    def __repr__(self):
        return (f"<FockOperator {len(self.terms)} terms "
                f"covered={sorted(self.covered)}>")


def _carry(word, lo, hi):
    """The image of a word on the sources of indices ``lo:hi``: its first
    leaf's live indices there, and their targets carried through each
    later leaf, -1 where the word's column is zero."""
    first = word[0]
    a, b = bisect_left(first.live, lo), bisect_left(first.live, hi)
    tgt = first.out[a:b]
    for leaf in word[1:]:
        tgt = list(map(leaf.img.__getitem__, tgt))
    return first.live[a:b], tgt


def _first_difference(a, b, degrees):
    """The first of the sorted ``degrees`` at which the operators ``a`` and
    ``b`` have different columns, or None.  Each maximal run of
    consecutive degrees is one index range, compared at once; only a run
    that differs is compared degree by degree.  Two lone words that share
    their first leaf's live indices compare their targets directly."""
    offsets = a.fock._numbering()[2]
    wa, wb = a._lone_word(), b._lone_word()
    if wa is not None and wb is not None and wa[0].live is wb[0].live:
        def same(lo, hi):
            return _carry(wa, lo, hi)[1] == _carry(wb, lo, hi)[1]
    else:
        def same(lo, hi):
            return a._form(lo, hi) == b._form(lo, hi)
    runs = []
    for d in degrees:
        if runs and runs[-1][-1] == d - 1:
            runs[-1].append(d)
        else:
            runs.append([d])
    for run in runs:
        if not same(offsets[run[0]], offsets[run[-1] + 1]):
            return next(d for d in run
                        if not same(offsets[d], offsets[d + 1]))
    return None


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


def linear_combination(fock, pairs):
    """The sum of ``coeff * op`` over ``(coeff, op)`` pairs of operators on
    ``fock``, as one clean vector of words: covered where every op is,
    with the union of their target degrees.  The empty sum is zero."""
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
        # one entry of coefficient one is the cached operator itself, as in
        # ``vapply``
        if len(vec) == 1:
            [(b, c)] = vec.items()
            if c == one:
                return ops[b]
        return linear_combination(fock, [(c, ops[b]) for b, c in vec.items()])

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


def _check_defect_support(fock, wkey, ll, op0, op1):
    """Check that pi0 - pi1 of a normal word lives on source degree ll.

    ``op0`` and ``op1`` are the word's operators under pi0 and pi1, lone
    words that share their first leaf's live indices: at degree ll pi1
    must have no live source, and on every other degree both cover they
    must agree, compared by ``_first_difference``.  Raises
    InvariantViolation naming the first degree that fails.
    """
    degrees = sorted(op0.covered & op1.covered)
    escape = _first_difference(op0, op1, [d for d in degrees if d != ll])
    offsets = fock._numbering()[2]
    if (ll in degrees and (escape is None or escape > ll)
            and op1._form(offsets[ll], offsets[ll + 1])[0]):
        raise InvariantViolation(
            f"pi1 of {wkey} does not vanish at degree {ll}")
    if escape is not None:
        raise InvariantViolation(
            f"defect of {wkey} escapes its block at degree {escape}")


def quasi_hom_defect(fock, tokens):
    """pi0 - pi1 on a generator word, a finite-rank block operator, as its
    signed terms and one info per normal word.

    The input word is first rewritten to normal form.  Each normal word
    is evaluated once under pi0 and once under pi1 by ``word_operator``,
    which composes the cached ``fock.token_op`` operators of its
    generators.  For a normal word with k creations and l annihilations
    the difference vanishes on every source degree other than l (checked
    exactly within budget, by ``_check_defect_support``, on the sources
    of the word's first leaf: elsewhere both columns are zero) and its
    surviving block sits at target degree k.  Requires l + 1 <= depth.
    The terms are ``(coeff, pi0 word)`` and ``(-coeff, pi1 word)`` per
    normal word, in normal-form order, and ``linear_combination`` sums
    them to the defect; a caller that wants just the support check sums
    nothing.
    """
    elt = fock._talg.from_tokens(tokens)
    k = fock.k
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
        terms += [(coeff, op0), (k.neg(coeff), op1)]
        infos.append({"word": key, "block": (kk, ll)})
    return terms, infos


# ---------------------------------------------------------------------------
# The homotopy model: T(X) (x) T truncated in degree and word length
# ---------------------------------------------------------------------------

# where a block sends a model id whose image leaves the word bound or the
# truncation; ``HOperator._grouped`` reads it, and a ``_Block`` keeps its
# OVERFLOW pairs apart for it
OVERFLOW = object()


class HomotopyModel:
    """A finite model of the Fock module tensored with the Toeplitz ring.

    Columns of degree 0 and 1 are enumerated explicitly as pairs of a
    tensor part and a Toeplitz word of bounded length; columns of degree
    two and higher only ever carry tensor-part operators (the homotopy
    summands that touch the word part vanish there).

    A model key ``(degree, tensor, word)`` is interned once into an int
    id: ``_ids`` maps it to its id, ``_keys`` back, and ``_info`` an id to
    its (degree, Fock key, index in ``words``); ``low_keys`` take the ids
    ``low_ids`` in order, and a failure tag names the key.  Each homotopy
    summand of one basis symbol is a ``_Block`` (see ``_block``), built
    once per model, and its images are tensored with words by ``lift``.
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
        self._blocks = {}
        # (Fock key, word id) -> the id of their lift, or None for zero
        self._lifts = {}
        self._ids, self._keys, self._info = {}, [], []
        # (degree 0?, symbol) -> u, as its terms and itself: the ring symbol
        # of a degree-0 key, or the right support of a last tensor factor;
        # and j(u) . word, keyed (u's terms, word); see ``make_key``
        self._supports, self._absorbed = {}, {}
        self.c0_keys = [(0, (), wk) for wk in self.words]
        self.c1_keys = [(1, (b,), wk) for b in self.module.x_basis
                        for wk in self.words if self.make_key(1, (b,), wk)
                        == {(1, (b,), wk): self.k.one}]
        self.low_keys = self.c0_keys + self.c1_keys
        # interned first, so the low ids ascend: sorted ids are in low order
        self.low_ids = [self._id(key) for key in self.low_keys]
        # the Fock key a low id stands on -> the ids and word ids on it; a
        # degree-0 key stands on the left support of its word
        self._sources = defaultdict(list)
        for i in self.low_ids:
            n, fkey, w = self._info[i]
            if n == 0:
                wk = self.words[w]
                fkey = (0, (self._one("the left support", wk,
                                      self.talg.left_support(wk).terms),))
            self._sources[fkey].append((i, w))

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
        """Canonicalize a raw (degree, tensor, word) triple to model keys.

        The word absorbs u, the ring symbol of a degree-0 key or the right
        support of the last tensor factor, read once per symbol into
        ``_supports``.  j(u) . word depends on nothing else, so
        ``_absorbed`` keeps it per u (its terms) and word: on a quiver one
        entry per vertex and word, not per edge and word."""
        u = self._supports.get((n == 0, tup[-1]))
        if u is None:
            # in degree 0, tup holds the one ring symbol: tup[-1] is tup[0]
            relt = (self.ring.monomial(tup[-1]) if n == 0
                    else self.module.x_split(tup[-1])[1])
            u = self._supports[n == 0, tup[-1]] = (
                tuple(relt.terms.items()), relt)
        absorbed = self._absorbed.get((u[0], wk))
        if absorbed is None:
            absorbed = self._absorbed[u[0], wk] = \
                self.talg._scalar_times_word(u[1], wk)
        tup = () if n == 0 else tup
        return {(n, tup, wk2): c for wk2, c in absorbed.items()}

    def _one(self, name, key, col):
        """The one key of ``col``, the column of ``name`` at ``key``, or None
        for zero; a column of two keys, or another coefficient than one,
        raises ``RingError``: a block is a partial map of model ids."""
        if not col:
            return None
        (tkey, c), *more = col.items()
        if more or c != self.k.one:
            raise RingError(f"{name} is not a partial map of model ids: "
                            f"its column at {key} is {col}")
        return tkey

    def lift(self, name, tkey, w):
        """The id of the Fock key ``tkey``, an image under the block
        ``name``, tensored with the word of id ``w`` through ``make_key``,
        or None for zero; kept per key and word."""
        pair = (tkey, w)
        if pair not in self._lifts:
            wk = self.words[w]
            key = self._one(name, (tkey, wk), self.make_key(*tkey, wk))
            self._lifts[pair] = None if key is None else self._id(key)
        return self._lifts[pair]

    # -- homotopy summands -----------------------------------------------------

    def _block(self, role, kind, sym):
        """The ``role`` block of one basis symbol, built once per model and
        kept by its name, its live pairs in ascending id order.  lam1
        multiplies the generator by j(u) once per left support u of the
        degree-0 words in ``_sources``: since j(u) . w == w, each word on
        a u that the generator kills maps to zero, and only the words on
        the other supports are multiplied, through ``try_mul``.  pi0 and
        pi1 read the symbol's ``fock.token_op`` once per Fock key of
        ``_sources`` and lift its image to each key's word; lam0 is pi0's
        where pi1 kills."""
        name = f"the {role} block of ({kind!r}, {sym!r})"
        if name in self._blocks:
            return self._blocks[name]
        one = self.k.one
        unit = (kind, self.ring.monomial(sym) if kind == "r" else {sym: one})
        live, op = [], None
        if role == "lam1":
            talg = self.talg
            gen = talg.from_tokens([unit])
            for (n, (usym,)), ids in self._sources.items():
                # j(u) . w == w, so a generator that kills j(u) kills w
                if n or not talg.mul(gen, {("s", usym): one}):
                    continue
                for i, w in ids:
                    prod = talg.try_mul(gen, {self.words[w]: one},
                                        self.word_bound)
                    if prod is None:
                        live.append((i, OVERFLOW))
                        continue
                    wk = self._one(name, self._keys[i], prod)
                    if wk is not None:
                        live.append((i, self._id((0, (), wk))))
        else:
            op = self.fock.token_op(unit, "pi0" if role == "lam0" else role)
            pi1_outs = self.fock.token_op(unit, "pi1").outs
            for fkey, ids in self._sources.items():
                if role == "lam0" and pi1_outs[fkey[0]]:
                    continue
                tkey = self._one(name, fkey, op.column(fkey))
                if tkey is None:
                    continue
                for i, w in ids:
                    j = self.lift(name, tkey, w)
                    if j is not None:
                        live.append((i, j))
        live.sort()
        block = self._blocks[name] = _Block(
            name, live, None if role == "lam0" else op, self._info)
        return block

    def _reach(self, block, j):
        """The image under ``block`` of an id it does not list, kept in its
        ``img``: a high id goes through the Fock operator ``block.op`` of a
        pi0 or pi1 block, to OVERFLOW where it does not cover the key, and
        every other image is zero."""
        n, fkey, w = self._info[j]
        t = None
        if n >= 2 and block.op is not None:
            col = block.op.column(fkey)
            if col is None:
                t = OVERFLOW
            elif col:
                t = self.lift(block.name, self._one(block.name, fkey, col), w)
        block.img[j] = t
        return t

    def _terms(self, token, role):
        """One word per basis symbol of the token, its ``role`` block, with
        the symbol's coefficient, constant in t."""
        kind, items = _token_key(token)
        coeffs = {sym: self.k.coerce(c) for sym, c in items}
        return {(self._block(role, kind, sym),): {0: c}
                for sym, c in coeffs.items() if c}

    def pi_tensor(self, token, variant):
        """pi0 (x) id or pi1 (x) id: the Fock token operator, lifted; its
        tensor part is pi0's on degrees >= 2, where pi1 agrees."""
        op0 = self.fock.token_op(token, "pi0")
        return HOperator(self, self._terms(token, variant), FockOperator(
            self.fock, op0.terms, {d: m for d, m in op0.outs.items() if d >= 2}))

    def lam0(self, token):
        """The corner of pi0 (x) id on the degrees that pi1 kills: degree 0
        for a creation, degree 1 for an annihilation."""
        return HOperator(self, self._terms(token, "lam0"), None)

    def lam1(self, token):
        """Left multiplication by the generator on the degree-0 column."""
        return HOperator(self, self._terms(token, "lam1"), None)


class _Block:
    """One homotopy summand of one basis symbol, ``name``, as a
    coefficient-one partial map of model ids.

    ``live`` lists, ascending, each low id that the block does not send to
    zero, with its image: an id, or OVERFLOW past the word bound.  ``img``
    maps each id asked for to its image, None for zero;
    ``HomotopyModel._reach`` adds the high ids, through the Fock operator
    ``op`` of a pi0 or pi1 block.  Operators share blocks: never mutate
    ``live``.

    Two bitmasks of model degrees, read off the model's ``info`` (its
    ``_info``), summarize the block: ``targets`` holds the degrees of the
    images in ``live`` that are ids, and ``sources`` those of the ids in
    ``live``, with every degree >= 2 when ``op`` is set, since ``_reach``
    may send such an id somewhere.  A block whose ``targets`` miss the
    next block's ``sources`` carries only its OVERFLOW pairs, kept in
    ``overflow``, through it: every other pair reaches zero.
    """

    __slots__ = ("name", "op", "live", "img", "sources", "targets",
                 "overflow")

    def __init__(self, name, live, op, info):
        self.name = name
        self.op = op
        self.live = live
        self.img = dict(live)
        self.sources = 0 if op is None else ~0b11
        self.targets = 0
        self.overflow = []
        for i, j in live:
            self.sources |= 1 << info[i][0]
            if j is OVERFLOW:
                self.overflow.append((i, j))
            else:
                self.targets |= 1 << info[j][0]


class HOperator:
    """An operator on the homotopy model: a sum of words of blocks with
    coefficients in k[t], and a tensor part.

    ``terms`` maps each word, a non-empty tuple of ``_Block``s in the order
    they apply, to a polynomial in t (power -> coefficient).  A word keeps
    every power the rotation gives it, even where its coefficient vanishes
    in the ring: there it still marks the ids where it reaches OVERFLOW.
    ``high``, constant in t, is a Fock operator on the tensor part of every
    column of degree >= 2 (the word part is inert there), or None for
    zero.  Composition keeps this form only while the inner tensor part
    stays in degrees >= 2, which holds for every homotopy identity;
    ``compose`` refuses any other chain.
    """

    __slots__ = ("model", "terms", "high", "_cols")

    def __init__(self, model, terms, high):
        self.model = model
        self.terms = terms
        self.high = high
        self._cols = None

    def column(self, i, power):
        """The column of the low id ``i`` in the coefficient of t^power: a
        clean vector over model ids, or None where a word there leaves the
        word bound or the truncation."""
        return self._grouped(power).get(i, {})

    def _grouped(self, power):
        """The low ids whose column at t^power is not zero, with their
        columns as ``column`` gives them, kept.  Each word is carried once
        from its first block's live ids through each later block, and its
        images are grouped per source at each power it has: the first
        image of an id is its column, ``{j: c}``, and later ones add to
        it; a zero coefficient adds only its OVERFLOW ids.  A word whose
        first block's ``targets`` miss its second block's ``sources`` is
        carried no further than its first block's OVERFLOW pairs: every
        other pair would reach zero (see ``_Block``)."""
        if self._cols is None:
            k, reach = self.model.k, self.model._reach
            cols = defaultdict(dict)
            for word, poly in self.terms.items():
                pairs, later = word[0].live, word[1:]
                if later and not word[0].targets & later[0].sources:
                    pairs, later = word[0].overflow, ()
                for block in later:
                    carried = []
                    for i, j in pairs:
                        if j is not OVERFLOW:
                            j = block.img[j] if j in block.img \
                                else reach(block, j)
                        if j is not None:
                            carried.append((i, j))
                    pairs = carried
                for p, c in poly.items():
                    group = cols[p]
                    for i, j in pairs:
                        if j is OVERFLOW:
                            group[i] = None
                            continue
                        if not c:
                            continue
                        col = group.get(i)
                        if col is None:
                            # i's first image, unless i is undefined here
                            if i not in group:
                                group[i] = {j: c}
                            continue
                        total = k.add(col.get(j, k.zero), c)
                        if total:
                            col[j] = total
                            continue
                        del col[j]
                        if not col:
                            del group[i]
            self._cols = cols
        return self._cols.get(power, {})

    def __add__(self, other):
        k = self.model.k
        terms = {word: dict(poly) for word, poly in self.terms.items()}
        for word, poly in other.terms.items():
            mine = terms.setdefault(word, {})
            for p, c in poly.items():
                mine[p] = k.add(mine.get(p, k.zero), c)
        high = self.high or other.high
        if self.high is not None and other.high is not None:
            high = self.high + other.high
        return HOperator(self.model, terms, high)

    def compose(self, other):
        """self after other: every word of other, then every word of self,
        with the product of their polynomials; ``other.high`` must stay in
        degrees >= 2."""
        # bits 0 and 1 of a mask are the target degrees 0 and 1
        if other.high is not None and any(
                mask & 0b11 for mask in other.high.outs.values()):
            raise RingError("the inner high part re-enters degrees 0 and 1; "
                            "the composition has no tensor form")
        k = self.model.k
        terms = {}
        for w2, q2 in other.terms.items():
            for w1, q1 in self.terms.items():
                poly = terms.setdefault(w2 + w1, {})
                for p2, c2 in q2.items():
                    for p1, c1 in q1.items():
                        poly[p1 + p2] = k.add(poly.get(p1 + p2, k.zero),
                                              k.mul(c1, c2))
        if self.high is None or other.high is None:
            high = None
        else:
            high = self.high.compose(other.high)
        return HOperator(self.model, terms, high)

    def at(self, value):
        """The operator at an exact scalar value of t, constant in t; every
        word keeps its power t^0."""
        k = self.model.k
        terms = {}
        for word, poly in self.terms.items():
            c = k.zero
            for p, cp in poly.items():
                c = k.add(c, k.mul(cp, k.coerce(value ** p)))
            terms[word] = {0: c}
        return HOperator(self.model, terms, self.high)

    def eq_report(self, other, report, tag, power=0):
        """Exact comparison of the coefficients of t^power, with coverage
        accounting into a CheckReport: a low column that either side leaves
        undefined is skipped, and a failing one is tagged with its model
        key, in low-id order; the tensor part is compared at t^0.  Equal
        groups (``_grouped``) need no column read; otherwise only the low
        ids where the two groups differ are read.  An id that both hold
        alike counts as checked, or as skipped where both leave it
        undefined, as its column read would.
        """
        model = self.model
        a, b = self._grouped(power), other._grouped(power)
        stored, undefined = [], 0
        if a == b:
            undefined = list(a.values()).count(None)
        else:
            for i in a.keys() | b.keys():
                ca = a.get(i, {})
                if ca != b.get(i, {}):
                    stored.append(i)
                elif ca is None:
                    undefined += 1
            stored.sort()
        report.skipped += undefined
        report.checked += len(model.low_ids) - len(stored) - undefined
        for i in stored:
            ca, cb = self.column(i, power), other.column(i, power)
            if ca is None or cb is None:
                report.skipped += 1
                continue
            report.checked += 1
            if ca != cb:
                report.failures.append((tag, model._keys[i]))
        if power or (self.high is None and other.high is None):
            return
        ha = self.high if self.high is not None else model.fock.zero_op()
        hb = other.high if other.high is not None else model.fock.zero_op()
        degrees = sorted(d for d in ha.covered & hb.covered if d >= 2)
        report.skipped += len([d for d in range(2, model.fock.depth + 1)
                               if d not in degrees])
        report.checked += len(degrees)
        if degrees and not ha.eq_on(hb, degrees):
            report.failures.append((tag, "tensor part"))


# ---------------------------------------------------------------------------
# The rotational homotopy
# ---------------------------------------------------------------------------

def homotopy_H(model, token):
    """The rotational homotopy on one generator, exact in t.

    H(T) = c0(t) lam0(T) + c1(t) lam1(T) + (pi1 (x) id)(T) for T = T_x or
    T_phi, with c0 and c1 read from ``_ROTATION`` into the coefficients of
    the lam0 and lam1 words:

    H(T_x) = (1 - t^2) lam0(T_x) + (2t - t^3) lam1(T_x) + (pi1 (x) id)(T_x)
    H(T_phi) = (1 - t^2) lam0(T_phi) + t lam1(T_phi) + (pi1 (x) id)(T_phi)
    H(r) = r . id
    """
    kind = token[0]
    if kind == "r":
        return model.pi_tensor(token, "pi0")
    # all three raise RingError on a token that is not a generator
    H = model.pi_tensor(token, "pi1")
    lams = (model.lam0(token), model.lam1(token))
    k = model.k
    for lam, rotation in zip(lams, _ROTATION[kind]):
        for word, poly in lam.terms.items():
            H.terms[word] = {p: k.mul(poly[0], k.coerce(c))
                             for p, c in rotation.items()}
    return H


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
    rhs = model.pi_tensor(("r", relt), "pi0")
    report = CheckReport("homotopy-pairing")
    # every power of a word, and t^0 for the tensor parts
    powers = set().union({0}, *lhs.terms.values(), *rhs.terms.values())
    for p in sorted(powers):
        lhs.eq_report(rhs, report, ("pairing", f"t^{p}"), p)
    return report
