"""Exact arithmetic in coefficient rings and rings with local units.

Two layers live here.  ``CoefficientRing`` instances (``ZZ``, ``QQ``,
``Zmod(m)``) provide the exact ground scalars; elements are plain Python
ints and ``fractions.Fraction`` values, normalized by the ring.  They do
no linear algebra, so this module imports nothing from the rest of
``pimsner``.  On top of that, a ``RingDescriptor`` names a ring with a
distinguished k-basis and a product rule on basis symbols, and
``RingElement`` is a finite formal sum of basis symbols with
coefficients.  The bundled descriptors are

* ``DirectSumRing``: k^(S) with orthogonal idempotents 1_v,
* ``MatrixRing``: finite-support I x I matrices over another descriptor,
* ``GroupRing``: kG with basis the group elements; normalization of group
  words is delegated to a caller-supplied canonicalizer, since group word
  problems are only decidable for the bundled group classes.

Vectors (here, in ``funcmod`` and in ``fock``) are dicts from basis symbols
to coefficients, and are always clean: every coefficient is coerced into
the ground ring and none is zero, so equal vectors have equal dicts.  The
scalar ops coerce what they return, so a sum built from them only drops
its zeros (``vdrop``, or ``vadd`` and ``vscale`` as they go); ``vclean``
also coerces, for values from outside the scalar ops.

Two kernels extend a rule ``f`` on symbols: ``vapply`` over one vector,
``vmul`` over two.  ``f`` returns clean vectors.  Both take one step on a
monomial: ``vapply`` of a one-entry vector of coefficient one is
``f(sym)`` itself, and ``vmul`` of two such vectors is ``f(x, y)`` itself,
which may be a memo, so no caller mutates a kernel's result.
"""

from __future__ import annotations

from fractions import Fraction


class RingError(ValueError):
    """Raised on arithmetic between elements of different rings."""


# ---------------------------------------------------------------------------
# Coefficient rings
# ---------------------------------------------------------------------------

class CoefficientRing:
    """Exact commutative ground ring for all term-map coefficients.

    Subclasses define ``coerce`` and the coerced constants ``zero`` and
    ``one``; the generic scalar ops below coerce every result.
    """

    name = "?"
    is_field = False

    def add(self, a, b):
        return self.coerce(a + b)

    def mul(self, a, b):
        return self.coerce(a * b)

    def neg(self, a):
        return self.coerce(-a)

    def __repr__(self):
        return self.name


class IntegerRing(CoefficientRing):
    """The integers."""

    name = "Z"
    zero = 0
    one = 1

    def coerce(self, value):
        if type(value) is int:
            return value
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise RingError(f"{value} is not an integer")
            return int(value)
        return int(value)

    def add(self, a, b):
        s = a + b
        return s if type(s) is int else self.coerce(s)

    def mul(self, a, b):
        p = a * b
        return p if type(p) is int else self.coerce(p)

    def neg(self, a):
        n = -a
        return n if type(n) is int else self.coerce(n)


class RationalRing(CoefficientRing):
    name = "Q"
    is_field = True
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value):
        return Fraction(value)


class ZmodRing(CoefficientRing):
    """Integers mod m, 2 <= m < 2**40.  A field exactly when m is prime.

    Elements are ints in ``range(m)``; the generic scalar ops reduce each
    result through ``coerce``.
    """

    zero = 0
    one = 1

    def __init__(self, modulus):
        modulus = int(modulus)
        if modulus < 2:
            raise RingError("modulus must be at least 2")
        if modulus >= 2 ** 40:
            # primality is decided by trial division, so bound its cost
            raise RingError(f"modulus must be below 2**40, got {modulus}")
        self.modulus = modulus
        self.name = f"Z/{modulus}"
        self.is_field = _is_prime(modulus)

    def coerce(self, value):
        if type(value) is int:
            return value % self.modulus
        if isinstance(value, Fraction):
            try:
                inv = pow(value.denominator, -1, self.modulus)
            except ValueError:
                raise RingError(f"denominator {value.denominator} not "
                                "invertible") from None
            return (value.numerator * inv) % self.modulus
        return int(value) % self.modulus


def _is_prime(n):
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1 if p == 2 else 2
    return True


ZZ = IntegerRing()
QQ = RationalRing()

_zmod_cache = {}


def Zmod(m):
    if m not in _zmod_cache:
        _zmod_cache[m] = ZmodRing(m)
    return _zmod_cache[m]


def Fp(p):
    ring = Zmod(p)
    if not ring.is_field:
        raise RingError(f"{p} is not prime")
    return ring


def coefficient_ring(spec):
    """Parse a coefficient ring spec: ``z``, ``q``, ``zmod:m`` or ``fp:p``."""
    spec = spec.strip().lower()
    if spec == "z":
        return ZZ
    if spec == "q":
        return QQ
    for prefix, make in (("zmod:", Zmod), ("fp:", Fp)):
        if spec.startswith(prefix):
            try:
                modulus = int(spec[len(prefix):])
            except ValueError:
                raise RingError(f"bad modulus in {spec!r}") from None
            return make(modulus)
    raise RingError(f"unknown coefficient ring {spec!r}")


# ---------------------------------------------------------------------------
# Clean vectors: dicts from basis symbols to coefficients
# ---------------------------------------------------------------------------

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
    """The clean vector of ``a``, whose values may be any numbers."""
    coerce, zero = k.coerce, k.zero
    out = {}
    for sym, c in a.items():
        c = coerce(c)
        if c != zero:
            out[sym] = c
    return out


def vapply(k, f, vec):
    """The clean sum of ``c * f(sym)`` over the entries of ``vec``; ``f``
    returns clean vectors, and a one-entry ``vec`` whose coefficient is one
    gives ``f(sym)`` itself, so callers never mutate the sum."""
    if len(vec) == 1:
        [(sym, c)] = vec.items()
        if c == k.one:
            return f(sym)
    add, mul, zero = k.add, k.mul, k.zero
    out = {}
    for sym, c in vec.items():
        for tgt, c2 in f(sym).items():
            out[tgt] = add(out.get(tgt, zero), mul(c, c2))
    return vdrop(out)


def vmul(k, f, a, b):
    """The clean sum of ``ca * cb * f(x, y)`` over the entries x of ``a``
    and y of ``b``, with ``a`` outermost; ``f`` returns clean vectors, and
    two one-entry vectors whose coefficients are one give ``f(x, y)``
    itself, so callers never mutate the sum."""
    if len(a) == 1 and len(b) == 1:
        [(x, ca)] = a.items()
        [(y, cb)] = b.items()
        if ca == k.one and cb == k.one:
            return f(x, y)
    add, mul, zero = k.add, k.mul, k.zero
    out = {}
    for x, ca in a.items():
        for y, cb in b.items():
            c = mul(ca, cb)
            for tgt, c2 in f(x, y).items():
                out[tgt] = add(out.get(tgt, zero), mul(c, c2))
    return vdrop(out)


def vdrop(a):
    """``a`` without its zeros; a coerced zero (int or Fraction) is false.

    ``a`` itself when it has no zero: every caller hands over a dict it has
    just built and keeps no other reference to it."""
    if all(a.values()):
        return a
    out = {}
    for sym, c in a.items():
        if c:
            out[sym] = c
    return out


# ---------------------------------------------------------------------------
# Rings with a distinguished basis
# ---------------------------------------------------------------------------

class RingDescriptor:
    """A ring presented by a k-basis of symbols and a product rule.

    Subclasses implement ``mul_basis`` returning the product of two basis
    symbols as a symbol-to-coefficient dict.  A ring whose free modules
    take the balanced tensor normal form (``free_module``'s splits, a Fock
    module) also implements ``support_symbol``, a basis idempotent u with
    ``u * sym == sym == sym * u``.  Symbols are not validated; callers
    build them from the descriptor's own basis and products.  ``basis``
    lists the symbols when the ring is finite dimensional over k, else it
    is None and symbols are generated lazily.
    """

    def __init__(self, k, label):
        self.k = k
        self.label = label

    basis = None
    unit_symbol = None  # basis symbol of 1 when the ring is unital

    def zero(self):
        return RingElement(self, {})

    def monomial(self, sym):
        return RingElement(self, {sym: 1})

    def __repr__(self):
        return self.label


class DirectSumRing(RingDescriptor):
    """k^(S): one orthogonal idempotent 1_v per point of S."""

    def __init__(self, k, symbols, label=None):
        symbols = list(symbols)
        if len(set(symbols)) != len(symbols):
            raise RingError("duplicate symbols in direct sum ring")
        super().__init__(k, label or f"{k}^({len(symbols)})")
        self.basis = symbols

    def mul_basis(self, b1, b2):
        return {b1: self.k.one} if b1 == b2 else {}

    def support_symbol(self, sym):
        return sym


class MatrixRing(RingDescriptor):
    """Finite-support I x I matrices over an inner descriptor ring.

    Basis symbols are ``(i, j, b)`` with b a basis symbol of the inner
    ring; the product contracts the middle index and multiplies in the
    inner ring.
    """

    def __init__(self, inner, index_set):
        self.index = list(index_set)
        super().__init__(inner.k, f"M_{len(self.index)}({inner.label})")
        self.inner = inner
        if inner.basis is not None:
            self.basis = [(i, j, b) for i in self.index for j in self.index
                          for b in inner.basis]

    def mul_basis(self, b1, b2):
        i, j, a = b1
        i2, j2, b = b2
        if j != i2:
            return {}
        return {(i, j2, c): coeff for c, coeff in self.inner.mul_basis(a, b).items()}


class GroupRing(RingDescriptor):
    """kG with basis the group elements in a canonical form.

    ``canonicalize`` maps an arbitrary representative (a group word) to the
    canonical symbol of its group element, ``mul_words`` multiplies two
    representatives, and ``identity`` is the symbol of the unit.  The word
    problem is solved by the caller; for self-similar groups this is the
    depth-bounded oracle.
    """

    def __init__(self, k, canonicalize, mul_words, identity, label):
        super().__init__(k, label)
        self.canonicalize = canonicalize
        self.mul_words = mul_words
        self.identity = identity
        self.unit_symbol = identity

    def mul_basis(self, b1, b2):
        return {self.canonicalize(self.mul_words(b1, b2)): self.k.one}


# ---------------------------------------------------------------------------
# Ring elements
# ---------------------------------------------------------------------------

class RingElement:
    """A finite formal sum of basis symbols with exact coefficients.

    ``terms`` is a clean vector (see the module docstring).  The public
    constructor makes it one with ``vclean``; arithmetic takes its values
    from ``k.add`` and ``k.mul`` and wraps its result with ``_of``, which
    takes clean terms as they are.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = vclean(ring.k, terms)

    @classmethod
    def _of(cls, ring, terms):
        """The element whose terms are the clean vector ``terms``."""
        el = object.__new__(cls)
        el.ring = ring
        el.terms = terms
        return el

    def _check_ring(self, other):
        if self.ring is not other.ring:
            raise RingError(
                f"elements of {self.ring.label} and {other.ring.label} cannot mix")

    def __add__(self, other):
        self._check_ring(other)
        return RingElement._of(self.ring,
                               vadd(self.ring.k, self.terms, other.terms))

    def __mul__(self, other):
        self._check_ring(other)
        return RingElement._of(self.ring, vmul(
            self.ring.k, self.ring.mul_basis, self.terms, other.terms))

    def scale(self, coeff):
        return RingElement._of(self.ring,
                               vscale(self.ring.k, self.terms, coeff))

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.ring is other.ring and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for sym, coeff in sorted(self.terms.items(), key=lambda kv: repr(kv[0])):
            bits.append(f"{coeff}*{sym}" if coeff != 1 else f"{sym}")
        return " + ".join(bits)
