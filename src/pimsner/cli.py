"""The ``pimsner`` command line driver.

Four subcommands: ``kgroups`` runs the quiver K-group pipeline, ``pv`` the
crossed-product instance, ``selfsim`` the self-similar group pipeline, and
``verify`` the exact operator suites (covariant relations, defect support,
homotopy endpoints and pairing preservation) on a quiver or self-similar
group file.  Reports are deterministic JSON (schema 1) for fixed input,
configuration and seed, written as the exact text of
``json.dumps(report, indent=2, sort_keys=True)``; ``--out text`` renders a
short summary instead (see ``_text_lines``).

Exit codes: 0 success, 2 parse or semantic error (also a ``--fock-depth``
whose Fock module would pass ``fock.MAX_FOCK_DIMENSION`` basis keys or
that passes ``fock.MAX_FOCK_DEPTH``, a ``--word-bound`` that gives
more than ``leavitt.MAX_NORMAL_WORDS`` normal words, and either option
on a self-similar group file, which reads neither), 3
insufficient depth (all checks that ran passed but some were skipped for
budget), 4 a failed identity (a check that ran found a counterexample, or
an internal invariant was violated), 141 standard output closed before
the report was written, as by ``pimsner kgroups q.quiver | head -1``;
nothing is printed, and 141 is the status a shell gives a program that
SIGPIPE ends.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys
from json.encoder import encode_basestring_ascii as _json_str

from . import __version__, funcmod, leavitt, selfsim
from .abgroup import AbgroupError, IntMatrix
from .fock import (
    MAX_FOCK_DEPTH,
    MAX_FOCK_DIMENSION,
    CheckReport,
    DepthError,
    HomotopyModel,
    InvariantViolation,
    TruncatedFock,
    covariant_check,
    homotopy_H,
    homotopy_endpoints_check,
    homotopy_pairing_check,
    quasi_hom_defect,
    rotation_coefficient_identity,
)
from .leavitt import QuiverError
from .ringcore import RingError, coefficient_ring
from .selfsim import SelfSimError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DEPTH = 3
EXIT_INVARIANT = 4
EXIT_PIPE = 141

# the text of every int in -64..64, which covers nearly every entry of an
# adjacency or crossed-product matrix; 129 strings, so import stays cheap
_SMALL_INT_TEXT = {i: int.__repr__(i) for i in range(-64, 65)}


def _emit(report, out_format):
    if out_format == "json":
        print(json_text(report))
        return
    print("\n".join(_text_lines(report, "")))


def json_text(obj):
    """The exact text of ``json.dumps(obj, indent=2, sort_keys=True)``.

    ``obj`` is a tree of str-keyed dicts, lists, tuples, strings, ints,
    bools and None, as every report is: no report holds a float.  With
    ``indent`` set the stdlib runs its pure-Python encoder, one generator
    frame per nesting level; this writer appends to one list instead, and
    writes a list of plain ints or plain strings (matrix rows, labels) with
    one ``join``, an int row from ``_SMALL_INT_TEXT`` when every entry is
    in it.  A non-str key or a
    value of another type, a float included, raises ``TypeError``.
    """
    out = []
    _json_write(obj, out, "\n")
    return "".join(out)


def _json_write(obj, out, nl):
    """Append the text of ``obj`` to ``out``; ``nl`` is the newline plus
    the indent of the line ``obj`` starts on."""
    # the stdlib's dispatch order: str, the three singletons (bool before
    # int), int, list or tuple, dict
    if isinstance(obj, str):
        out.append(_json_str(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        kinds = set(map(type, obj))
        if kinds == {int}:
            try:
                texts = [_SMALL_INT_TEXT[i] for i in obj]
            except KeyError:
                texts = map(int.__repr__, obj)
            out += ("[", inner, ("," + inner).join(texts), nl, "]")
        elif kinds == {str}:
            out += ("[", inner, ("," + inner).join(map(_json_str, obj)),
                    nl, "]")
        else:
            sep = "[" + inner
            for item in obj:
                out.append(sep)
                _json_write(item, out, inner)
                sep = "," + inner
            out += (nl, "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(obj):
            # a non-str key raises TypeError here
            out += (sep, _json_str(key), ": ")
            _json_write(obj[key], out, inner)
            sep = "," + inner
        out += (nl, "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} "
                        "is not JSON serializable")


def _text_block(value):
    # a dict, or a list holding a dict or a list, takes lines of its own
    if isinstance(value, dict):
        return bool(value)
    return isinstance(value, (list, tuple)) and any(
        isinstance(item, (dict, list, tuple)) for item in value)


def _text_scalar(value):
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(str, value)) + "]"
    return "{}" if isinstance(value, dict) else str(value)


def _text_lines(value, pad):
    """The ``--out text`` lines of a dict or of a list that is a block.

    A list of scalars sits on one line, as ``[a, b]``; a list that holds
    dicts or lists gives one ``- `` item per entry, and a dict item starts
    on the ``- `` line, so a 2x2 matrix reads as two rows and the items of
    a list of dicts stay apart.
    """
    if isinstance(value, dict):
        for key in sorted(value):
            item = value[key]
            if _text_block(item):
                yield f"{pad}{key}:"
                yield from _text_lines(item, pad + "  ")
            else:
                yield f"{pad}{key}: {_text_scalar(item)}"
        return
    for item in value:
        if not _text_block(item):
            yield f"{pad}- {_text_scalar(item)}"
        elif isinstance(item, dict):
            lines = _text_lines(item, pad + "  ")
            yield f"{pad}- {next(lines).lstrip()}"
            yield from lines
        else:
            yield f"{pad}-"
            yield from _text_lines(item, pad + "  ")


def _read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _looks_selfsim(text):
    return any(line.split("#", 1)[0].strip().startswith("alphabet:")
               for line in text.splitlines())


# ---------------------------------------------------------------------------
# kgroups
# ---------------------------------------------------------------------------

def cmd_kgroups(args):
    text = _read(args.input)
    quiver = leavitt.parse_quiver(text)
    k = coefficient_ring(args.coeff)
    report, _ = leavitt.k_groups(quiver, k=k)
    report["coefficient_ring"] = args.coeff
    report["input"] = args.input
    _emit(report, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# pv (crossed products)
# ---------------------------------------------------------------------------

def _parse_matrix(text):
    rows = [row.strip() for row in text.split(";") if row.strip()]
    try:
        entries = [list(map(int, row.split())) for row in rows]
    except ValueError:
        raise RingError(f"matrix entries must be integers: {text!r}") from None
    if entries and any(len(r) != len(entries) for r in entries):
        raise RingError("automorphism matrix must be square")
    return IntMatrix.from_rows(entries)


def cmd_pv(args):
    alpha = _parse_matrix(args.matrix)
    report, _ = leavitt.crossed_product_k_groups(alpha)
    report["input"] = args.matrix
    _emit(report, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# selfsim
# ---------------------------------------------------------------------------

def _selfsim_suites(group, seed, depth):
    rng = random.Random(seed)
    suites = []

    # length-preserving bijectivity, exhaustively while |X|^n stays small.
    # Images are prefix-preserving, so g is a bijection of X^n exactly when
    # it is one of X^(n-1) and the letter map of every section g|_w, w in
    # X^(n-1), hits all of X; the frontier holds those sections, once each,
    # and a failed level fails every later one
    suite = {"name": "action-bijective", "checked": 0, "failures": 0}
    size = len(group.alphabet)
    for gen in group.generators:
        frontier = [group.gen_word(gen)]
        bijective = True
        n = 1
        while n <= depth and size ** n <= 10 ** 5:
            tables = [group.sections(g).values() for g in frontier]
            bijective = bijective and all(
                len({y for y, _ in table}) == size for table in tables)
            suite["checked"] += size ** n
            if not bijective:
                suite["failures"] += 1
            frontier = list(dict.fromkeys(r for table in tables
                                          for _, r in table))
            n += 1
    suites.append(suite)

    # self-similarity: g(xw) = g(x) . g|_x(w)
    suite = {"name": "self-similarity", "checked": 0, "failures": 0}
    for _ in range(200 if group.generators else 0):
        length = rng.randint(1, 4)
        g = ()
        for _i in range(length):
            gen = rng.choice(group.generators)
            g = selfsim.word_mul(g, group.gen_word(gen, rng.choice([1, -1])))
        w = tuple(rng.choice(group.alphabet)
                  for _i in range(rng.randint(0, max(1, depth - 1))))
        for x in group.alphabet:
            lhs = group.act(g, (x,) + w)
            rhs = (group.act(g, (x,))
                   + group.act(group.restriction(g, (x,)), w))
            suite["checked"] += 1
            if lhs != rhs:
                suite["failures"] += 1
    suites.append(suite)

    # cocycle: (gh)|_x = g|_{h(x)} h|_x up to depth-bounded equality
    suite = {"name": "cocycle", "checked": 0, "failures": 0}
    for _ in range(100 if group.generators else 0):
        g = group.gen_word(rng.choice(group.generators), rng.choice([1, -1]))
        h = group.gen_word(rng.choice(group.generators), rng.choice([1, -1]))
        for x in group.alphabet:
            lhs = group.restrict_letter(selfsim.word_mul(g, h), x)
            rhs = selfsim.word_mul(
                group.restrict_letter(g, group.act_letter(h, x)),
                group.restrict_letter(h, x))
            suite["checked"] += 1
            if not group.equal(lhs, rhs, max(1, depth - 1)):
                suite["failures"] += 1
    suites.append(suite)

    return suites


def cmd_selfsim(args):
    text = _read(args.input)
    group = selfsim.parse_selfsim(text, depth=args.depth)
    k = coefficient_ring(args.coeff)
    report = {
        "schema": 1,
        "pipeline": "self-similar",
        "input": args.input,
        "seed": args.seed,
        "group": {
            "alphabet": group.alphabet,
            "generators": group.generators,
            "equality_depth": group.equality_depth,
            "equality_note": "words are equal when they act alike on "
                             "words of length <= depth and their "
                             "depth-level restrictions agree as free "
                             "words; equalities hold in the group, "
                             "inequalities may only mean the depth is "
                             "too small",
        },
    }
    try:
        corr = selfsim.build_nek_correspondence(group, k)
    except SelfSimError as exc:
        # a failed correspondence law is a failed identity, as in verify
        print(f"correspondence check failed: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    report["correspondence"] = {
        "verified": ["left-module law", "adjointability",
                     "compact left action", "functional homomorphism"],
        "rank": len(group.alphabet),
        "hom_check": funcmod.check_functional_hom(corr.hom),
    }
    report["suites"] = _selfsim_suites(group, args.seed,
                                       group.equality_depth)

    d = len(group.alphabet)
    if args.matrix:
        action = _parse_matrix(args.matrix)
        seq, _ = leavitt.crossed_product_k_groups(action)
        report["k_groups"] = seq
        report["k_groups"]["note"] = \
            "induced map supplied as a matrix on a finite invariant quotient"
    elif not group.generators:
        mat = IntMatrix.from_rows([[1 - d]])
        presets = leavitt.field_presets(k)
        pipe, _ = leavitt._pipeline_report(mat, presets,
                                           row_labels=["*"], col_labels=["*"])
        report["k_groups"] = {"schema": 1, "pipeline": "self-similar",
                              **pipe}
    else:
        report["k_groups"] = None
        report["k_groups_note"] = (
            "K-groups need the induced matrix on a finite invariant "
            "quotient; pass --matrix")
    failures = sum(s["failures"] for s in report["suites"])
    _emit(report, args.out)
    return EXIT_OK if failures == 0 else EXIT_INVARIANT


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _check_fock_budget(quiver, depth):
    """Refuse a depth whose Fock module, one basis key per path of length
    at most ``depth``, would pass ``MAX_FOCK_DIMENSION`` keys, or that
    passes ``MAX_FOCK_DEPTH``."""
    total = 0
    for degree, count in zip(range(depth + 1), quiver.path_counts()):
        total += count
        if total > MAX_FOCK_DIMENSION:
            raise RingError(
                f"--fock-depth {depth} is too deep: the Fock module has "
                f"{total} basis keys through degree {degree}, more than "
                f"{MAX_FOCK_DIMENSION}")
    if depth > MAX_FOCK_DEPTH:
        raise RingError(f"--fock-depth {depth} is too deep: the cap is "
                        f"{MAX_FOCK_DEPTH}")


def _verify_quiver(args, quiver):
    _check_fock_budget(quiver, args.fock_depth)
    words = leavitt.normal_words(quiver, args.word_bound)
    k = coefficient_ring(args.coeff)
    corr = leavitt.quiver_correspondence(quiver, k)
    one = k.one
    checks = []
    insufficient = False

    # leaving the block drops the module's cached operators, which refer
    # back to it, so the module, its column caches and the homotopy model
    # are freed by reference counting, not by the cycle collector
    with TruncatedFock(corr, args.fock_depth) as fk:
        checks.append(covariant_check(fk).as_dict())

        defect = CheckReport("defect-support")
        for p, q in words:
            tokens = [("x", {e: one}) for e in p] + \
                     [("phi", {(e, "*"): one}) for e in reversed(q)]
            try:
                quasi_hom_defect(fk, tokens)
                defect.checked += 1
            except DepthError:
                defect.skipped += 1
            except InvariantViolation as exc:
                defect.failures.append(str(exc))
        checks.append(defect.as_dict())
        if defect.skipped:
            checks[-1]["status"] = "insufficient depth"
            insufficient = True

        endpoints = CheckReport("homotopy-endpoints")
        pairing = CheckReport("pairing-preservation")
        try:
            model = HomotopyModel(fk, min(args.word_bound, args.fock_depth))
        except DepthError:
            model = None
            insufficient = True
        else:
            # each generator's homotopy is built once: the x homotopies serve
            # every row of pairings, a phi homotopy only its own row
            module = corr.module
            x_H = {}
            for b in module.x_basis:
                tok = ("x", {b: one})
                x_H[b] = homotopy_H(model, tok)
                endpoints.absorb(homotopy_endpoints_check(model, tok, x_H[b]))
            for c in module.xp_basis:
                tok = ("phi", {c: one})
                phi_H = homotopy_H(model, tok)
                endpoints.absorb(homotopy_endpoints_check(model, tok, phi_H))
                for b in module.x_basis:
                    pairing.absorb(homotopy_pairing_check(
                        model, {b: one}, {c: one}, x_H[b], phi_H))
            for r in module.ring.basis:
                tok = ("r", module.ring.monomial(r))
                endpoints.absorb(homotopy_endpoints_check(
                    model, tok, homotopy_H(model, tok)))
    identity = rotation_coefficient_identity()
    checks.append({**endpoints.as_dict(), "coefficient_identity": identity,
                   "passed": endpoints.passed and identity})
    checks.append(pairing.as_dict())
    if model is None:
        for check in checks[-2:]:
            check["status"] = "insufficient depth"
    return checks, insufficient


# the options only a quiver reads: (dest, flag, default)
_QUIVER_OPTIONS = (("fock_depth", "--fock-depth", 6),
                   ("word_bound", "--word-bound", 4))


def cmd_verify(args):
    text = _read(args.input)
    is_selfsim = _looks_selfsim(text)
    for dest, flag, default in _QUIVER_OPTIONS:
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif is_selfsim:
            raise RingError(f"{flag} is read for a quiver only, not for a "
                            "self-similar group")
    report = {
        "schema": 1,
        "input": args.input,
        "seed": args.seed,
        "config": {"fock_depth": args.fock_depth,
                   "word_bound": args.word_bound, "coeff": args.coeff},
    }
    # 0 in the report means "the file's depth"
    report["config"]["depth"] = args.depth or 0
    if is_selfsim:
        group = selfsim.parse_selfsim(text, depth=args.depth)
        try:
            selfsim.build_nek_correspondence(group,
                                             coefficient_ring(args.coeff))
            corr_check = {"name": "correspondence", "checked": 1,
                          "failures": 0}
        except SelfSimError as exc:
            corr_check = {"name": "correspondence", "checked": 1,
                          "failures": 1, "detail": str(exc)}
        suites = [corr_check] + _selfsim_suites(group, args.seed,
                                                group.equality_depth)
        report["kind"] = "self-similar"
        report["checks"] = suites
        failed = any(s["failures"] for s in suites)
        insufficient = False
    else:
        quiver = leavitt.parse_quiver(text)
        report["kind"] = "quiver"
        checks, insufficient = _verify_quiver(args, quiver)
        report["checks"] = checks
        failed = any(not c.get("passed", True) for c in checks)
    if failed:
        report["status"] = "failed"
    elif insufficient:
        report["status"] = "insufficient depth"
    else:
        report["status"] = "ok"
    _emit(report, args.out)
    if failed:
        return EXIT_INVARIANT
    if insufficient:
        return EXIT_DEPTH
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser():
    """The process's one parser, built on the first call rather than at
    import; every call shares it, since parsing never mutates it."""
    parser = argparse.ArgumentParser(
        prog="pimsner",
        description="Exact computation with algebraic Toeplitz and "
                    "Cuntz-Pimsner rings")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *flags):
        if "coeff" in flags:
            p.add_argument("--coeff", default="z",
                           help="coefficient ring: z, q, zmod:m or fp:p")
        p.add_argument("--out", choices=["json", "text"], default="json")
        if "seed" in flags:
            p.add_argument("--seed", type=int, default=0,
                           help="seed for randomized property suites")

    p = sub.add_parser("kgroups", help="K-groups of a Leavitt path algebra")
    p.add_argument("input", help="quiver file")
    common(p, "coeff")
    p.set_defaults(func=cmd_kgroups)

    p = sub.add_parser("verify", help="run the exact operator suites")
    p.add_argument("input", help="quiver or self-similar group file")
    # None: a self-similar group refuses the option, a quiver reads the
    # default of ``_QUIVER_OPTIONS``
    p.add_argument("--fock-depth", dest="fock_depth", type=int)
    p.add_argument("--word-bound", dest="word_bound", type=int)
    p.add_argument("--depth", type=int, default=None,
                   help="equality depth for self-similar groups "
                        "(default: the file's)")
    common(p, "coeff", "seed")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("pv", help="crossed-product K-group sequence")
    p.add_argument("--matrix", required=True,
                   help="integer matrix, rows separated by ';'")
    common(p)
    p.set_defaults(func=cmd_pv)

    p = sub.add_parser("selfsim", help="self-similar group pipeline")
    p.add_argument("input", help="self-similar group file")
    p.add_argument("--depth", type=int, default=None,
                   help="equality depth override (default: the file's)")
    p.add_argument("--matrix", default=None,
                   help="induced K-theory matrix on a finite quotient")
    common(p, "coeff", "seed")
    p.set_defaults(func=cmd_selfsim)
    return parser


def _validate(args):
    for dest, what in (("fock_depth", "fock depth"),
                       ("word_bound", "word bound")):
        value = getattr(args, dest, None)
        if value is not None and value < 1:
            raise RingError(f"{what} must be at least 1")
    depth = getattr(args, "depth", None)
    if depth is not None and depth < 1:
        raise RingError("equality depth must be at least 1")
    if depth is not None and depth > selfsim.MAX_EQUALITY_DEPTH:
        raise RingError("equality depth must be at most "
                        f"{selfsim.MAX_EQUALITY_DEPTH}, got {depth}")
    if hasattr(args, "coeff"):
        coefficient_ring(args.coeff)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _validate(args)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone; stdout goes to devnull, so that the
        # interpreter's last flush of it fails no more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (QuiverError, SelfSimError, RingError, AbgroupError,
            FileNotFoundError, IsADirectoryError, UnicodeDecodeError) as exc:
        # a malformed, missing or unreadable input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DepthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEPTH
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
