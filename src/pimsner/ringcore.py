"""Exact arithmetic in coefficient rings and rings with local units.

Two layers live here.  ``CoefficientRing`` instances (``ZZ``, ``QQ``,
``Zmod(m)``) provide the exact ground scalars; elements are plain Python
ints and ``fractions.Fraction`` values, normalized by the ring.  On top of
that, a ``RingDescriptor`` names a ring with a distinguished k-basis and a
product rule on basis symbols, and ``RingElement`` is a finite formal sum
of basis symbols with coefficients.  The bundled descriptors are

* ``DirectSumRing``: k^(S) with orthogonal idempotents 1_v,
* ``MatrixRing``: finite-support I x I matrices over another descriptor,
* ``LaurentRing``: k[x, x^-1] with basis x^n,
* ``GroupRing``: kG with basis the group elements; normalization of group
  words is delegated to a caller-supplied canonicalizer, since group word
  problems are only decidable for the bundled group classes.

All of these admit local units: every finite set of elements is fixed on
both sides by some idempotent, which ``local_unit_for`` produces.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import abgroup


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

    def coerce(self, value):
        raise NotImplementedError

    def add(self, a, b):
        return self.coerce(a + b)

    def mul(self, a, b):
        return self.coerce(a * b)

    def neg(self, a):
        return self.coerce(-a)

    def is_zero(self, a):
        return self.coerce(a) == self.zero

    def solve(self, rows, rhs):
        """One solution of the linear system ``rows . x = rhs``, or None."""
        raise NotImplementedError

    def __repr__(self):
        return self.name


class IntegerRing(CoefficientRing):
    """The integers.  A scalar op whose result is already an ``int``
    returns it as is; any other result (``bool``, ``Fraction``) is coerced.
    """

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

    def is_zero(self, a):
        return (a if type(a) is int else self.coerce(a)) == 0

    def solve(self, rows, rhs):
        mat = abgroup.IntMatrix.from_rows(rows)
        return abgroup.solve_int(mat, list(rhs))


class RationalRing(CoefficientRing):
    name = "Q"
    is_field = True
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value):
        return Fraction(value)

    def solve(self, rows, rhs):
        # x solves rows . x = rhs iff (x, 1) spans a kernel line of
        # [rows | -rhs]; an integer kernel vector (y, t) with t != 0 gives
        # x = y / t, and if every basis vector has t == 0 there is none.
        ncols = len(rows[0]) if rows else 0
        aug = integer_rows([list(r) + [-b]
                            for r, b in zip(rows, rhs, strict=True)])
        kernel = abgroup.kernel_basis(
            abgroup.IntMatrix(len(aug), ncols + 1, aug))
        for j in range(kernel.cols):
            t = kernel[ncols, j]
            if t:
                return [Fraction(kernel[i, j], t) for i in range(ncols)]
        return None


class ZmodRing(CoefficientRing):
    """Integers mod m, 2 <= m < 2**40.  A field exactly when m is prime.

    Elements are ints in ``range(m)``.  A scalar op whose result is an
    ``int`` only reduces it mod m; any other result is coerced.
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
            inv = self.invert(value.denominator % self.modulus)
            if inv is None:
                raise RingError(f"denominator {value.denominator} not invertible")
            return (value.numerator * inv) % self.modulus
        return int(value) % self.modulus

    def add(self, a, b):
        s = a + b
        return s % self.modulus if type(s) is int else self.coerce(s)

    def mul(self, a, b):
        p = a * b
        return p % self.modulus if type(p) is int else self.coerce(p)

    def neg(self, a):
        n = -a
        return n % self.modulus if type(n) is int else self.coerce(n)

    def is_zero(self, a):
        return (a % self.modulus if type(a) is int else self.coerce(a)) == 0

    def invert(self, a):
        """Multiplicative inverse mod m, or None if ``a`` is not a unit."""
        try:
            return pow(int(a), -1, self.modulus)
        except ValueError:
            return None

    def solve(self, rows, rhs):
        # Lift to an integer system: rows.x = rhs (mod m) iff the system
        # [rows | m*I] has an integer solution with the same x part.
        nrows = len(rows)
        lifted = [[self.coerce(x) for x in r]
                  + [self.modulus if i == j else 0 for j in range(nrows)]
                  for i, r in enumerate(rows)]
        sol = abgroup.solve_int(abgroup.IntMatrix.from_rows(lifted),
                                [self.coerce(b) for b in rhs])
        if sol is None:
            return None
        ncols = len(rows[0]) if rows else 0
        return [self.coerce(x) for x in sol[:ncols]]

    def __eq__(self, other):
        return isinstance(other, ZmodRing) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("zmod", self.modulus))


def _is_prime(n):
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1 if p == 2 else 2
    return True


def integer_rows(rows):
    """Each row times the lcm of its entries' denominators.

    Scaling a row by a nonzero integer keeps its row's solutions and the
    rows' independence, so Q questions become Z questions for abgroup.
    """
    out = []
    for row in rows:
        row = [Fraction(x) for x in row]
        scale = lcm(*(x.denominator for x in row))
        out.append([int(x * scale) for x in row])
    return out


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
# Rings with a distinguished basis
# ---------------------------------------------------------------------------

class RingDescriptor:
    """A ring presented by a k-basis of symbols and a product rule.

    Subclasses implement ``mul_basis`` returning the product of two basis
    symbols as a symbol-to-coefficient dict, and ``local_unit_terms``
    returning an idempotent fixing everything supported on the given
    symbols.  ``basis`` lists the symbols when the ring is finite
    dimensional over k, else it is None and symbols are generated lazily.
    """

    def __init__(self, k, label):
        self.k = k
        self.label = label

    basis = None
    unit_symbol = None  # basis symbol of 1 when the ring is unital

    def mul_basis(self, b1, b2):
        raise NotImplementedError

    def check_symbol(self, sym):
        raise NotImplementedError

    def local_unit_terms(self, symbols):
        """Idempotent (as a term dict) fixing all elements on ``symbols``."""
        raise NotImplementedError

    def left_support_symbol(self, sym):
        """A basis idempotent u with u * sym == sym."""
        raise NotImplementedError

    def right_support_symbol(self, sym):
        """A basis idempotent u with sym * u == sym."""
        raise NotImplementedError

    def element(self, terms):
        return RingElement(self, terms)

    def zero(self):
        return RingElement(self, {})

    def monomial(self, sym, coeff=1):
        return RingElement(self, {sym: coeff})

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
        self._symbols = set(symbols)

    def mul_basis(self, b1, b2):
        return {b1: self.k.one} if b1 == b2 else {}

    def check_symbol(self, sym):
        return sym in self._symbols

    def local_unit_terms(self, symbols):
        return {s: self.k.one for s in symbols}

    def left_support_symbol(self, sym):
        return sym

    def right_support_symbol(self, sym):
        return sym


def unit_ring(k, label=None):
    """The unital coefficient ring itself, with single basis symbol "1"."""
    return DirectSumRing(k, ["1"], label=label or f"{k}")


class MatrixRing(RingDescriptor):
    """Finite-support I x I matrices over an inner descriptor ring.

    Basis symbols are ``(i, j, b)`` with b a basis symbol of the inner
    ring; the product contracts the middle index and multiplies in the
    inner ring.
    """

    def __init__(self, inner, index_set, label=None):
        super().__init__(inner.k, label or f"M_{len(list(index_set))}({inner.label})")
        self.inner = inner
        self.index = list(index_set)
        self._index_set = set(self.index)
        if inner.basis is not None:
            self.basis = [(i, j, b) for i in self.index for j in self.index
                          for b in inner.basis]

    def mul_basis(self, b1, b2):
        i, j, a = b1
        i2, j2, b = b2
        if j != i2:
            return {}
        return {(i, j2, c): coeff for c, coeff in self.inner.mul_basis(a, b).items()}

    def check_symbol(self, sym):
        if not (isinstance(sym, tuple) and len(sym) == 3):
            return False
        i, j, b = sym
        return i in self._index_set and j in self._index_set \
            and self.inner.check_symbol(b)

    def local_unit_terms(self, symbols):
        indices = set()
        inner_syms = set()
        for (i, j, b) in symbols:
            indices.update((i, j))
            inner_syms.add(b)
        inner_unit = self.inner.local_unit_terms(inner_syms)
        return {(i, i, b): coeff for i in sorted(indices, key=self.index.index)
                for b, coeff in inner_unit.items()}

    def left_support_symbol(self, sym):
        i, _, b = sym
        return (i, i, self.inner.left_support_symbol(b))

    def right_support_symbol(self, sym):
        _, j, b = sym
        return (j, j, self.inner.right_support_symbol(b))


class LaurentRing(RingDescriptor):
    """k[x, x^-1] with basis x^n indexed by integers."""

    def __init__(self, k, label=None):
        super().__init__(k, label or f"{k}[x,x^-1]")

    def mul_basis(self, b1, b2):
        return {b1 + b2: self.k.one}

    def check_symbol(self, sym):
        return isinstance(sym, int)

    unit_symbol = 0

    def local_unit_terms(self, symbols):
        return {0: self.k.one}

    def left_support_symbol(self, sym):
        return 0

    def right_support_symbol(self, sym):
        return 0


class GroupRing(RingDescriptor):
    """kG with basis the group elements in a canonical form.

    ``canonicalize`` maps an arbitrary representative (a group word) to the
    canonical symbol of its group element and ``invert``/``identity``
    supply the group structure.  The word problem is solved by the caller;
    for self-similar groups this is the depth-bounded oracle.
    """

    def __init__(self, k, canonicalize, mul_words, identity, label="kG"):
        super().__init__(k, label)
        self.canonicalize = canonicalize
        self.mul_words = mul_words
        self.identity = identity
        self.unit_symbol = identity

    def mul_basis(self, b1, b2):
        return {self.canonicalize(self.mul_words(b1, b2)): self.k.one}

    def check_symbol(self, sym):
        return isinstance(sym, tuple)

    def local_unit_terms(self, symbols):
        return {self.identity: self.k.one}

    def left_support_symbol(self, sym):
        return self.identity

    def right_support_symbol(self, sym):
        return self.identity


# ---------------------------------------------------------------------------
# Ring elements
# ---------------------------------------------------------------------------

class RingElement:
    """A finite formal sum of basis symbols with exact coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        k = ring.k
        clean = {}
        for sym, coeff in terms.items():
            coeff = k.coerce(coeff)
            if not k.is_zero(coeff):
                clean[sym] = coeff
        self.terms = clean

    def _check_ring(self, other):
        if self.ring is not other.ring:
            raise RingError(
                f"elements of {self.ring.label} and {other.ring.label} cannot mix")

    def __add__(self, other):
        self._check_ring(other)
        k = self.ring.k
        terms = dict(self.terms)
        for sym, coeff in other.terms.items():
            terms[sym] = k.add(terms.get(sym, k.zero), coeff)
        return RingElement(self.ring, terms)

    def __neg__(self):
        k = self.ring.k
        return RingElement(self.ring, {s: k.neg(c) for s, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_ring(other)
        k = self.ring.k
        out = {}
        for s1, c1 in self.terms.items():
            for s2, c2 in other.terms.items():
                c = k.mul(c1, c2)
                for sym, unit_coeff in self.ring.mul_basis(s1, s2).items():
                    prev = out.get(sym, k.zero)
                    out[sym] = k.add(prev, k.mul(c, unit_coeff))
        return RingElement(self.ring, out)

    def scale(self, coeff):
        k = self.ring.k
        coeff = k.coerce(coeff)
        return RingElement(self.ring,
                           {s: k.mul(coeff, c) for s, c in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.ring is other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.ring), tuple(sorted(self.terms.items(), key=repr))))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for sym, coeff in sorted(self.terms.items(), key=lambda kv: repr(kv[0])):
            bits.append(f"{coeff}*{sym}" if coeff != 1 else f"{sym}")
        return " + ".join(bits)


def is_idempotent(a):
    return a * a == a


def local_unit_for(elements, ring=None):
    """An idempotent e with e*r == r*e == r for every input element.

    The empty list returns 0 (the empty-set convention); pass ``ring`` so
    the zero has a home.  All bundled ring kinds carry a local-unit rule;
    rings declared without one raise.
    """
    elements = list(elements)
    if not elements:
        if ring is None:
            raise RingError("empty input needs an explicit ring")
        return ring.zero()
    ring = elements[0].ring
    symbols = set()
    for el in elements:
        if el.ring is not ring:
            raise RingError("elements come from different rings")
        symbols.update(el.terms)
    unit = RingElement(ring, ring.local_unit_terms(symbols))
    for el in elements:
        if unit * el != el or el * unit != el:
            raise RingError(f"{ring.label}: local unit rule failed to fix input")
    return unit
