"""A path-space model of the quiver Fock module, from the vertices and
the edge list ``(name, source, range)`` alone; it imports nothing from
``pimsner``, so no fault in the code it checks can move it too.

Degree n holds the paths e1 ... en with r(e_i) = s(e_{i+1}), as keys
``(n, path)``, and degree 0 the vertices, as ``(0, (v,))``.  By the tables
of ``leavitt.quiver_module``, T_e prepends e to a path that starts at
r(e), T_{e*} strips a leading e (the path e goes to the vertex r(e)) and
a vertex keeps the paths that start at it: that is pi0, and under pi1 a
generator also kills the lowest degree its pi0 acts from.  An operator
holds ``outs[d]``, the target degrees of each covered source degree d,
and ``cols``, each key's nonzero column.  A generator covers the degrees
whose target is at most the depth, a composite the degrees where the
outer operator covers every target of the inner one, and a sum the
degrees both sides cover.
"""

from functools import reduce

SHIFT = {"x": 1, "phi": -1, "r": 0}  # creation, annihilation, vertex


class PathSpace:
    """The paths of length 0..depth; coefficients mod ``modulus`` if set."""

    def __init__(self, vertices, edges, depth, modulus=None):
        self.source = {e: s for e, s, _ in edges}
        self.range = {e: r for e, _, r in edges}
        self.depth, self.modulus, self._generators = depth, modulus, {}
        self.paths = [[(0, (v,)) for v in vertices]]
        for n in range(1, depth + 1):
            self.paths.append([
                (n, key[1] + (e,) if n > 1 else (e,))
                for key in self.paths[-1] for e, s in self.source.items()
                if s == self.end(key)])

    def end(self, key):
        return self.range[key[1][-1]] if key[0] else key[1][0]

    def act(self, kind, sym, key):
        """The key that one basis generator sends ``key`` to, or None."""
        n, path = key
        start = self.source[path[0]] if n else path[0]
        if kind == "x" and self.range[sym] == start:
            return n + 1, (sym,) + path if n else (sym,)
        if kind == "phi" and n and path[0] == sym:
            return (n - 1, path[1:]) if n > 1 else (0, (self.range[sym],))
        return key if kind == "r" and start == sym else None

    def generator(self, kind, coeffs, variant="pi0"):
        """``sum c * sym`` over ``coeffs``, of one kind, under pi0 or pi1;
        kept per argument, as no operator is changed once built."""
        memo = (kind, tuple(coeffs.items()), variant)
        if memo in self._generators:
            return self._generators[memo]
        shift = SHIFT[kind]
        kill = 0 if variant == "pi0" else max(0, -shift) + 1
        outs, cols = {}, {}
        for d in range(self.depth + 1 - max(shift, 0)):
            live = d >= kill and d + shift >= 0
            outs[d] = {d + shift} if live else set()
            for key in self.paths[d] if live else ():
                targets = [(c, self.act(kind, sym, key))
                           for sym, c in coeffs.items()]
                cols[key] = combine((c, {t: 1}) for c, t in targets if t)
        op = self._generators[memo] = Operator(self, outs, cols)
        return op

    def word(self, tokens, variant="pi0"):
        """``(kind, coeffs)`` tokens in operator order."""
        return reduce(Operator.compose, [
            self.generator(kind, coeffs, variant) for kind, coeffs in tokens])

    def zero(self):
        return Operator(self, {d: set() for d in range(self.depth + 1)}, {})

    def compression(self, coeffs):
        """i . P0 = i . id - sum c T_e T_{e*} over the edges e out of each
        vertex v of i = ``sum c * v``."""
        return reduce(Operator.__sub__, [
            self.word([("x", {e: coeffs[v]}), ("phi", {e: 1})])
            for e, v in self.source.items() if v in coeffs],
            self.generator("r", coeffs))


def combine(pairs):
    """The sum of ``c * vec`` over ``(c, vec)`` pairs."""
    out = {}
    for c, vec in pairs:
        for key, c2 in vec.items():
            out[key] = out.get(key, 0) + c * c2
    return out


class Operator:
    """Columns on the covered degrees; zero columns are dropped."""

    def __init__(self, space, outs, cols):
        self.space, self.outs, self.cols, m = space, outs, {}, space.modulus
        for key, col in cols.items():
            col = {t: c % m if m else c for t, c in col.items()}
            if any(col.values()) and key[0] in outs:
                self.cols[key] = {t: c for t, c in col.items() if c}

    def column(self, key):
        return self.cols.get(key, {}) if key[0] in self.outs else None

    def compose(self, other):
        """self after other."""
        outs = {d: set().union(*(self.outs[e] for e in targets))
                for d, targets in other.outs.items()
                if targets <= self.outs.keys()}
        return Operator(self.space, outs, {
            key: combine((c, self.cols.get(t, {})) for t, c in col.items())
            for key, col in other.cols.items()})

    def __add__(self, other):
        outs = {d: targets | other.outs[d] for d, targets in self.outs.items()
                if d in other.outs}
        return Operator(self.space, outs, {
            key: combine([(1, self.cols.get(key, {})),
                          (1, other.cols.get(key, {}))])
            for key in self.cols.keys() | other.cols.keys()})

    def scale(self, coeff):
        return Operator(self.space, self.outs, {
            key: combine([(coeff, col)]) for key, col in self.cols.items()})

    def __sub__(self, other):
        return self + other.scale(-1)
