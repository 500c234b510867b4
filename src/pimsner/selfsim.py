"""Self-similar groups by wreath recursion and their correspondences.

A self-similar group acts on the words over a finite alphabet so that
g(xw) = g(x) . g|_x(w): each generator is presented by a permutation of
the letters plus a restriction word per letter.  Group elements are freely
reduced words in the generators.  Equality is decided up to a configurable
depth D: two words are equal at depth D when they act alike on all words
of length <= D and their depth-D restrictions agree as free words (for a
single word: it fixes X^<=D and every depth-D restriction reduces freely to
the empty word).  Such an equality holds in the group, since the word then
fixes every longer word too; an inequality may only mean that D is too
small (in the Grigorchuk group ``b c d`` is the identity, yet its
restriction at 1 is never freely trivial, so it is unequal to ``()`` at
every depth).

Each group builds a step table once, every letter's image and restriction
under each generator and its inverse, and computes ``(w(x), w|_x)`` in one
right-to-left pass through it.  Each reduced word is hashed once, into an
integer word id, and the group keeps one section table indexed by word id:
the letter images ``w(x)`` and the word ids of the restrictions ``w|_x``,
in alphabet order, filled by one pass per letter the first time the word
is read.  Equality, canonical forms and the action all walk that table on
integers.  The depth-D section tree of a word is hash-consed into an
integer node id (``SelfSimilarGroup.node``), kept per depth in a word id ->
node id table shared by every depth that ``equal`` and ``canonical`` ask
for.  A word with a generator the group does not have raises
``SelfSimError`` before it gets a word id.  ``restrict_letter`` and
``restriction`` make their own passes and never read the table, so the
suites can compare the two.

``build_nek_correspondence`` packages the permutational bimodule of the
group: the module is free of rank |alphabet| over the group ring, with the
left action twisted by the recursion (g . x = g(x) . g|_x) and pairing
< x . g, y . h > = delta_{x,y} g^{-1} h.  The left action of every group
element is a |alphabet| x |alphabet| matrix over the group ring, so it is
compact outright, and the associated Cuntz-Pimsner ring is the
Nekrashevych algebra of the group.
"""

from __future__ import annotations

from .funcmod import (
    CompactOperator,
    Correspondence,
    FunctionalHom,
    FunctionalModule,
    free_module,
)
from .ringcore import GroupRing, ZZ


class SelfSimError(ValueError):
    """Malformed recursion data or input text; may carry a line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Group words
# ---------------------------------------------------------------------------

def reduce_word(letters):
    """Free reduction: cancel adjacent g g^-1 pairs."""
    out = []
    for gen, exp in letters:
        if out and out[-1][0] == gen and out[-1][1] == -exp:
            out.pop()
        else:
            out.append((gen, exp))
    return tuple(out)


def word_mul(w1, w2):
    return reduce_word(tuple(w1) + tuple(w2))


def word_inv(w):
    return tuple((gen, -exp) for gen, exp in reversed(w))


IDENTITY = ()

# the largest equality depth a file or an option may ask for: at this depth
# `pimsner selfsim` on the odometer, basilica and grigorchuk groups still
# finishes in seconds, and the digit count of a `depth:` line is bounded
MAX_EQUALITY_DEPTH = 10_000


class SelfSimilarGroup:
    """A group given by wreath recursion over a finite alphabet.

    ``recursion`` maps each generator name to a pair (permutation dict,
    restrictions dict): the permutation sends letters to letters and the
    restriction of the generator at each letter is a group word.
    """

    def __init__(self, alphabet, recursion, equality_depth=8, label="G"):
        self.alphabet = list(alphabet)
        if len(self.alphabet) < 2:
            raise SelfSimError("the alphabet needs at least two letters")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise SelfSimError("duplicate letters in the alphabet")
        self.generators = list(recursion)
        self.perm = {}
        self.restriction_table = {}
        for gen, (perm, restr) in recursion.items():
            if sorted(perm) != sorted(self.alphabet) or \
                    sorted(perm.values()) != sorted(self.alphabet):
                raise SelfSimError(
                    f"generator {gen!r}: letter map is not a permutation")
            self.perm[gen] = dict(perm)
            self.restriction_table[gen] = {
                x: reduce_word(restr.get(x, ())) for x in self.alphabet}
        # the step table: generator -> (inverse's steps, generator's steps),
        # indexed by ``exp > 0``; a step maps a letter x to (image of x,
        # restriction at x), so g^-1|_x = (g|_{g^-1(x)})^-1 is inverted once
        self._steps = {}
        for g, perm in self.perm.items():
            restr = self.restriction_table[g]
            inv = {y: x for x, y in perm.items()}
            self._steps[g] = (
                {x: (inv[x], word_inv(restr[inv[x]])) for x in self.alphabet},
                {x: (perm[x], restr[x]) for x in self.alphabet})
        self.equality_depth = equality_depth
        self.label = label
        self._letter_index = {x: i for i, x in enumerate(self.alphabet)}
        # word ids: each reduced word is hashed once, when it enters
        # _word_ids; _words and _word_sections are indexed by word id, the
        # latter being the section table, (letter images, child word ids)
        # once ``_entry`` has filled it
        self._word_ids = {IDENTITY: 0}
        self._words = [IDENTITY]
        self._word_sections = [None]
        self._levels = []                   # depth -> {word id: node id}
        # node keys -> integer ids; the identity key is 0, as is every
        # word whose section tree is the identity's
        self._node_ids = {(tuple(self.alphabet),
                           (0,) * len(self.alphabet)): 0}
        self._classes = {0: IDENTITY}       # node id at equality_depth -> rep

    # -- the action -----------------------------------------------------------

    def gen_word(self, gen, exp=1):
        if gen not in self.perm:
            raise SelfSimError(f"unknown generator {gen!r}")
        return ((gen, 1),) * exp if exp >= 0 else ((gen, -1),) * (-exp)

    def act_letter(self, word, x):
        """Image of the letter x under the group word (rightmost first),
        read off the step table."""
        if not word and x not in self.alphabet:
            # the empty word makes no step-table lookup that could miss
            raise SelfSimError(f"unknown letter {x!r}")
        steps = self._steps
        try:
            for gen, exp in reversed(word):
                x = steps[gen][exp > 0][x][0]
        except KeyError:
            self._check_generators(word)
            raise SelfSimError(f"unknown letter {x!r}") from None
        return x

    def restrict_letter(self, word, x):
        """Restriction of the group word at the letter x, freely reduced.

        Computed by one pass through the step table on every call, never
        read from the section table."""
        return self._section(word, x)[1]

    def _section(self, word, x):
        """``(w(x), w|_x)`` in one right-to-left pass over the word.

        The pass follows the letter through the step table and collects the
        restriction of each generator at the letter it meets; w|_x is their
        product with the last collected piece leftmost.  It is freely
        reduced once, with one stack: free reduction is confluent, so this
        equals multiplying the pieces in one by one with ``word_mul``.
        """
        if not word and x not in self.alphabet:
            # the empty word makes no step-table lookup that could miss
            raise SelfSimError(f"unknown letter {x!r}")
        steps = self._steps
        pieces = []
        try:
            for gen, exp in reversed(word):
                x, piece = steps[gen][exp > 0][x]
                if piece:
                    pieces.append(piece)
        except KeyError:
            self._check_generators(word)
            raise SelfSimError(f"unknown letter {x!r}") from None
        # reduce_word's stack, inlined so that the step table's letter
        # tuples are kept, not rebuilt: the pass runs about a fifth faster
        out = []
        for piece in reversed(pieces):
            for letter in piece:
                if out and out[-1][0] == letter[0] \
                        and out[-1][1] == -letter[1]:
                    out.pop()
                else:
                    out.append(letter)
        return x, tuple(out)

    def sections(self, word):
        """``{x: (w(x), w|_x)}`` of a reduced word, in alphabet order.

        A fresh dict built from the word's entry in the section table,
        which one pass of ``_section`` per letter fills the first time the
        word is read."""
        wid = self._checked_id(word)
        images, children = self._word_sections[wid] or self._entry(wid)
        words = self._words
        return {x: (y, words[c])
                for x, y, c in zip(self.alphabet, images, children)}

    def _check_generators(self, word):
        """Raise ``SelfSimError`` naming the word's first unknown generator,
        if it has one; if it has none, a pass that missed in the step table
        missed on a letter."""
        for gen, _ in word:
            if gen not in self._steps:
                raise SelfSimError(f"unknown generator {gen!r}") from None

    def act(self, word, letters):
        """Length-preserving image of a word over the alphabet, read off
        the section table one word id at a time."""
        index = self._letter_index
        word_sections = self._word_sections
        wid = self._checked_id(reduce_word(word))
        out = []
        for x in letters:
            try:
                i = index[x]
            except KeyError:
                raise SelfSimError(f"unknown letter {x!r}") from None
            images, children = word_sections[wid] or self._entry(wid)
            out.append(images[i])
            wid = children[i]
        if isinstance(letters, str):
            return "".join(out)
        return type(letters)(out)

    def restriction(self, word, letters):
        """Iterated restriction g|_w along the word w, freely reduced.

        Computed by ``restrict_letter`` directly, not read from the section
        table, so the suites can compare the two."""
        g = reduce_word(word)
        for x in letters:
            g = self.restrict_letter(g, x)
        return g

    # -- depth-bounded equality -------------------------------------------------

    def node(self, word, depth):
        """Integer id of the depth-``depth`` section tree of a reduced word.

        0 for the empty word; at depth 0 an id of the word itself; otherwise
        an id of (letter images, child ids at depth - 1), where the identity
        permutation with all children 0 is 0 again.  Ids are hash-consed, so
        two words have the same node exactly when they are equal at that
        depth (free restriction is a cocycle).  Children are resolved with an
        explicit stack, so the depth is not bounded by Python's recursion.

        The word is hashed once, when it first gets a word id; after that
        the tree is walked on integers.  A word's letter images and child
        word ids are read from the section table, and node ids are kept per
        depth by word id, so every depth shares one table of words.
        """
        if depth < 0:
            raise SelfSimError("equality depth must be nonnegative")
        levels = self._levels
        while len(levels) <= depth:
            levels.append({0: 0})
        wid = self._checked_id(word)
        nid = levels[depth].get(wid)
        if nid is not None:
            return nid
        ids, word_sections = self._node_ids, self._word_sections
        todo = [(wid, depth)]
        while todo:
            w, d = todo[-1]
            known = levels[d]
            if w in known:
                todo.pop()
                continue
            if d == 0:
                known[w] = ids.setdefault(("w", w), len(ids))
            else:
                images, children = word_sections[w] or self._entry(w)
                below = levels[d - 1]
                missing = [(c, d - 1) for c in children if c not in below]
                if missing:
                    todo.extend(missing)
                    continue
                known[w] = ids.setdefault(
                    (images, tuple([below[c] for c in children])), len(ids))
            todo.pop()
        return levels[depth][wid]

    def _checked_id(self, word):
        """The word id of a reduced word given by a caller; a word with a
        generator the group does not have gets none."""
        wid = self._word_ids.get(word)
        if wid is None:
            self._check_generators(word)
            wid = self._word_id(word)
        return wid

    def _word_id(self, word):
        """The integer id of a reduced word, given on its first call.

        Unchecked: ``_entry`` hands it restrictions built from the step
        table, whose generators are the group's."""
        wid = self._word_ids.get(word)
        if wid is None:
            wid = self._word_ids[word] = len(self._words)
            self._words.append(word)
            self._word_sections.append(None)
        return wid

    def _entry(self, wid):
        """The section table entry (letter images, child word ids) of a
        word id, filled by one ``_section`` pass per letter."""
        word = self._words[wid]
        table = [self._section(word, x) for x in self.alphabet]
        entry = self._word_sections[wid] = (
            tuple([y for y, _ in table]),
            tuple([self._word_id(r) for _, r in table]))
        return entry

    def equal(self, w1, w2, depth):
        """Depth-bounded equality of two words, through their ``node`` ids.

        True when the words act alike on every word of length <= depth and
        their depth-level restrictions agree as free words; then they are
        equal in the group.  False may only mean that the depth is too
        small.  ``equal(w, (), depth)`` is the triviality test.
        """
        return self.node(reduce_word(w1), depth) == \
            self.node(reduce_word(w2), depth)

    def canonical(self, word):
        """A canonical representative of the word's group element.

        Representatives are interned per group: the first word seen for an
        element (at the configured equality depth) becomes its symbol.
        """
        word = reduce_word(word)
        return self._classes.setdefault(
            self.node(word, self.equality_depth), word)

    def group_ring(self, k=ZZ):
        return GroupRing(k, self.canonical, word_mul, IDENTITY,
                         label=f"{k}[{self.label}]")

    def __repr__(self):
        return (f"SelfSimilarGroup({self.label}, |X|={len(self.alphabet)}, "
                f"gens={self.generators})")


def odometer():
    """The binary adding machine: a = (0 1)(e, a)."""
    return SelfSimilarGroup(
        ["0", "1"],
        {"a": ({"0": "1", "1": "0"}, {"0": (), "1": (("a", 1),)})},
        label="odometer")


def trivial_group(alphabet):
    """The trivial group acting on the given alphabet."""
    return SelfSimilarGroup(alphabet, {}, label="1")


# ---------------------------------------------------------------------------
# Input format
# ---------------------------------------------------------------------------

def parse_selfsim(text, depth=None):
    """Parse the self-similar group format.

    ``alphabet: 0 1`` declares the letters; each generator line reads
    ``a = (perm 0 1)(e, a)``: any number of ``(perm ...)`` cycles composed
    left to right, then the restriction tuple ordered by the alphabet.
    Restriction entries are juxtaposed generator names separated by
    whitespace or ``*``, with ``^-1`` for inverses and ``e`` or ``1`` for
    the identity.  So a generator name must read back as itself when
    parsed as an entry, and each generator is defined once.
    ``depth: n`` sets the equality depth, unless ``depth`` is given,
    which overrides it.  The line must lie in 1..MAX_EQUALITY_DEPTH, and
    ``depth`` must not exceed that bound.  ``#`` comments.
    """
    if depth is not None and depth > MAX_EQUALITY_DEPTH:
        raise SelfSimError(
            f"equality depth must be at most {MAX_EQUALITY_DEPTH}, "
            f"got {depth}")
    alphabet = None
    recursion = {}
    file_depth = 8
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("alphabet:"):
            alphabet = line[len("alphabet:"):].split()
            if len(alphabet) < 2:
                raise SelfSimError("alphabet needs at least two letters",
                                   line=lineno)
            continue
        if line.startswith("depth:"):
            value = line[len("depth:"):].strip()
            # the length test keeps int() off overlong digit strings
            if not (value.isascii() and value.isdigit()) \
                    or len(value.lstrip("0")) > len(str(MAX_EQUALITY_DEPTH)) \
                    or not 1 <= int(value) <= MAX_EQUALITY_DEPTH:
                shown = value if len(value) <= 20 else value[:20] + "..."
                raise SelfSimError(
                    f"depth must be an integer from 1 to "
                    f"{MAX_EQUALITY_DEPTH}, got {shown!r}", line=lineno)
            file_depth = int(value)
            continue
        if "=" not in line:
            raise SelfSimError(f"expected 'name = (perm ...)(...)', got {line!r}",
                               line=lineno)
        if alphabet is None:
            raise SelfSimError("generator declared before the alphabet",
                               line=lineno)
        name, rest = line.split("=", 1)
        name = name.strip()
        # a restriction entry must read the name back as this generator
        if _parse_word(name) != ((name, 1),):
            raise SelfSimError(f"bad generator name {name!r}", line=lineno)
        if name in recursion:
            raise SelfSimError(f"generator {name!r} defined twice",
                               line=lineno)
        groups = _paren_groups(rest.strip(), lineno)
        if not groups:
            raise SelfSimError("missing restriction tuple", line=lineno)
        *perm_groups, restr_group = groups
        perm = {x: x for x in alphabet}
        for g in perm_groups:
            parts = g.split()
            if not parts or parts[0] != "perm":
                raise SelfSimError(f"expected '(perm ...)', got ({g})",
                                   line=lineno)
            cycle = parts[1:]
            seen = set()
            for x in cycle:
                if x not in alphabet:
                    raise SelfSimError(f"unknown letter {x!r} in cycle",
                                       line=lineno)
                if x in seen:
                    raise SelfSimError(f"letter {x!r} repeats in cycle",
                                       line=lineno)
                seen.add(x)
            step = {}
            for i, x in enumerate(cycle):
                step[x] = cycle[(i + 1) % len(cycle)]
            perm = {x: step.get(perm[x], perm[x]) for x in alphabet}
        entries = [e.strip() for e in restr_group.split(",")]
        if len(entries) != len(alphabet):
            raise SelfSimError(
                f"restriction tuple has {len(entries)} entries for "
                f"{len(alphabet)} letters", line=lineno)
        restr = {}
        for x, entry in zip(alphabet, entries):
            restr[x] = _parse_word(entry)
        recursion[name] = (perm, restr)
    if alphabet is None:
        raise SelfSimError("missing 'alphabet:' declaration")
    # restriction words may only use declared generators
    for gen, (_, restr) in recursion.items():
        for x, w in restr.items():
            for g, _e in w:
                if g not in recursion:
                    raise SelfSimError(
                        f"restriction of {gen!r} at {x!r} uses unknown "
                        f"generator {g!r}")
    return SelfSimilarGroup(
        alphabet, recursion,
        equality_depth=file_depth if depth is None else depth)


def _paren_groups(text, lineno):
    groups = []
    depth = 0
    buf = []
    for ch in text:
        if ch == "(":
            if depth:
                raise SelfSimError("nested parentheses", line=lineno)
            depth = 1
            buf = []
        elif ch == ")":
            if not depth:
                raise SelfSimError("unbalanced ')'", line=lineno)
            depth = 0
            groups.append("".join(buf))
        elif depth:
            buf.append(ch)
        elif not ch.isspace():
            raise SelfSimError(f"unexpected character {ch!r}", line=lineno)
    if depth:
        raise SelfSimError("unbalanced '('", line=lineno)
    return groups


def _parse_word(entry):
    entry = entry.replace("*", " ")
    word = []
    for token in entry.split():
        if token in ("e", "1"):
            continue
        exp = 1
        if token.endswith("^-1"):
            token = token[:-3]
            exp = -1
        word.append((token, exp))
    return tuple(word)


# ---------------------------------------------------------------------------
# The Nekrashevych correspondence
# ---------------------------------------------------------------------------

def nek_module(group, k):
    """The permutational bimodule of a self-similar group over kG.

    X symbols are ("x", letter, canonical word) standing for x . g;
    dual symbols are ("xp", letter, canonical word).  The pairing is
    < x . g, y . h > = delta_{x,y} g^-1 h, the right action multiplies the
    group tail, and the left action is the wreath recursion.
    """
    ring = group.group_ring(k)
    one = k.one
    can = group.canonical

    def pairing(c, b):
        _, x, g = c
        _, y, h = b
        if x != y:
            return ring.zero()
        return ring.monomial(can(word_mul(word_inv(g), h)))

    def x_right(b, w):
        _, x, g = b
        return {("x", x, can(word_mul(g, w))): one}

    def x_left(w, b):
        _, x, g = b
        return {("x", group.act_letter(w, x),
                 can(word_mul(group.restrict_letter(w, x), g))): one}

    def xp_left(w, c):
        _, x, g = c
        return {("xp", x, can(word_mul(g, word_inv(w)))): one}

    def xp_right(c, w):
        _, x, g = c
        y = group.act_letter(word_inv(w), x)
        return {("xp", y, can(word_mul(
            word_inv(group.restrict_letter(w, y)), g))): one}

    def x_split(b):
        _, x, g = b
        return ("x", x, IDENTITY), ring.monomial(g)

    def xp_split(c):
        _, x, g = c
        return ring.monomial(can(word_inv(g))), ("xp", x, IDENTITY)

    def unit(_sym):
        return ring.monomial(IDENTITY)

    return FunctionalModule(
        ring=ring,
        x_basis=[("x", x, IDENTITY) for x in group.alphabet],
        xp_basis=[("xp", x, IDENTITY) for x in group.alphabet],
        pairing=pairing, x_right=x_right, xp_left=xp_left,
        x_left=x_left, xp_right=xp_right,
        x_split=x_split, xp_split=xp_split,
        x_left_support=unit, xp_left_support=unit,
        label=f"bimodule of {group.label}")


def build_nek_correspondence(group, k):
    """The correspondence of a self-similar group, checked on generators.

    Verifies the recursion tables are permutations, the left-module law
    g . x = g(x) . g|_x on all (generator, letter) pairs, adjointability of
    the left action against the pairing, and that each generator acts as a
    d x d matrix over the group ring (so the action is compact).
    """
    module = nek_module(group, k)
    ring = module.ring
    one = k.one
    d = len(group.alphabet)
    free = free_module(ring, list(group.alphabet))

    def U(b):
        _, x, g = b
        return {(x, g): one}

    def V(c):
        _, x, g = c
        return {(x, ring.canonicalize(word_inv(g))): one}

    hom = FunctionalHom(module, free, U, V)

    def delta_compact_rule(relt):
        terms = []
        for w, coeff in relt.terms.items():
            for y in group.alphabet:
                terms.append((
                    {("x", group.act_letter(w, y),
                      ring.canonicalize(group.restrict_letter(w, y))): coeff},
                    {("xp", y, IDENTITY): one}))
        return CompactOperator(module, terms)

    corr = Correspondence(module, hom, delta_compact_rule)

    # left-module law on (generator, letter) pairs, against the parsed
    # recursion rather than the action that builds the left module
    for gen in group.generators:
        w = group.gen_word(gen)
        relt = ring.monomial(ring.canonicalize(w))
        for x in group.alphabet:
            got = module.act_left(relt, {("x", x, IDENTITY): one})
            want = {("x", group.perm[gen][x], ring.canonicalize(
                group.restriction_table[gen][x])): one}
            if got != want:
                raise SelfSimError(
                    f"left-module law fails for {gen} at {x}")
        # compactness: the action is a d x d matrix over the group ring
        op = corr.delta_compact(relt)
        for x in group.alphabet:
            vec = {("x", x, IDENTITY): one}
            if op.apply(vec) != module.act_left(relt, vec):
                raise SelfSimError(
                    f"compact form of {gen} disagrees with the left action")
        if len(op.terms) != d:
            raise SelfSimError(f"left action of {gen} is not a {d}x{d} matrix")
        # adjointability against the pairing on basis pairs
        for x in group.alphabet:
            for y in group.alphabet:
                c = ("xp", x, IDENTITY)
                b = ("x", y, IDENTITY)
                lhs = module.pair({c: one}, module.act_left(relt, {b: one}))
                rhs = module.pair(module.act_xp_right({c: one}, relt), {b: one})
                if lhs != rhs:
                    raise SelfSimError(
                        f"adjoint law fails for {gen} at ({x}, {y})")
    return corr
