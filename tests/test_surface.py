"""Every public name in ``src/pimsner`` has a reader, or a reason to wait.

A public module-level function or class, or a public method of a
module-level class, counts as reached when its name occurs as a NAME
token in ``src/pimsner``, ``perfbench`` or ``tests/test_acceptance.py``
outside the line span of every definition of that name in the same
file: a pipeline, the benchmark or an acceptance criterion reads it.  So
a definition's own name, its recursion, and a method's call to a
same-named function inside its body do not count.  A method is reached
through any token of its name, bare or after a dot; a module-level
function or class only through a bare token or through
``<its module>.name``, so ``obj.name`` reaches a method of that name and
never the function.  The check is by name, so it is generous where
method names collide, but a deleted caller leaves its callee unreached.  Tests other than the acceptance suite do
not count; a name only they read belongs in the tests.  A name that
nothing reaches yet must be listed in ``RESERVED`` with the ROADMAP
direction that will give it a reader.

Parameters are held to the same rule.  Each defaulted parameter of a
module-level function, of a method of a module-level class, or of its
constructor, must be set by some call of that name in the same files: by
keyword, by a positional argument that reaches it, or by ``*`` or ``**``
unpacking.  It must also be left unset by some call, when there is one:
a default that every caller overrides is a path nothing runs, so the
parameter is required.  A function or method is called by its name, as a function or
as an attribute; a constructor by its class name, as ``Class(...)`` or
``module.Class(...)``, or as ``cls(...)`` inside the class's own
classmethods.  A default no caller overrides is a knob to delete.
Reserved functions and classes are held to the rule too, so a name that
waits for a reader waits without knobs.  A parameter only the other
tests set must be listed in ``ALLOWED`` with the reason.  A failure names
each parameter as ``file:line function(parameter)``.

Each file is read, parsed and tokenized once per session, by ``_parsed``.

The import closure is held too.  Every ``pimsner`` invocation imports
``pimsner.cli`` before its one op, so what that import loads is paid on
each call: it may load only the standard library and ``pimsner`` itself
(``dependencies = []``), and none of the modules in ``NOT_IMPORTED``.
"""

import ast
import io
import os
import subprocess
import sys
import tokenize
from functools import cache

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "pimsner")

RESERVED = {
    "j_ideal_generator": "direction 5: the J_X generators verify suite",
    "check_pairing_balance": "direction 5: the pairing balance suite",
    "fs_witness": "direction 5: the condition (FS) suite",
    "nondegenerate": "direction 5: the non-degeneracy suite",
    "check_nondegenerate_action": "direction 5: the non-degeneracy suite",
    "free_correspondence": "direction 3: [X (+) Y] and [X (x) Y] oracles",
    "tensor": "direction 3: the [X (x)_R Y] = [X][Y] oracle",
    "LaurentRing": "direction 3: Katsura's O_{A,B} over Laurent rings",
    "local_unit_for": "direction 5: the non-degeneracy suite's local units",
    "append_normal": "direction 2: perfbench/tracing.py wraps it by name",
    "direct_sum": "direction 3: the [X (+) Y] = [X] + [Y] oracle",
}

ALLOWED = {
    "covariant_check(T)": "the mutation tests pass a faulty T to show "
                          "that the covariance check can fail",
    "LeavittRing(k)": "the reduction oracle in tests/test_leavitt.py runs "
                      "the Leavitt product over Q, Z/6 and F_2",
    "local_unit_for(ring)": "the tests pass it so that the zero of the "
                            "empty list has a ring",
}

NOT_IMPORTED = {
    "dataclasses": "a record of fields is a namedtuple, not generated code",
    "inspect": "nothing introspects at run time; dataclasses loads it",
    "ast": "the program parses no Python source",
    "dis": "the program reads no bytecode; inspect loads it",
    "tokenize": "the program tokenizes no Python source; inspect loads it",
    "linecache": "the program reads no source lines; inspect loads it",
    "typing": "annotations stay strings under `from __future__ import "
              "annotations`",
    "copy": "values are immutable or rebuilt, never copied generically",
}

# run under ``python -I -S``: without -S, site's .pth files may preload
# typing, inspect and more before the probe starts, hiding what pimsner
# itself loads
_CLOSURE_PROBE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "before = set(sys.modules)\n"
    "import pimsner.cli\n"
    "print(*sorted(set(sys.modules) - before))\n")


def _py_files(folder):
    return sorted(os.path.join(folder, f) for f in os.listdir(folder)
                  if f.endswith(".py"))


@cache
def _parsed(path):
    """``(tree, names)`` for one file: its AST, and each NAME token as
    ``(string, line, qualifier)``.  The qualifier is None for a bare
    token, and after a dot the NAME before the dot, or "" if there is
    none."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    names = []
    prev = [None, None]
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in (tokenize.NL, tokenize.COMMENT):
            continue
        if tok.type == tokenize.NAME:
            qualifier = None
            if prev[1] is not None and prev[1].string == ".":
                qualifier = (prev[0].string if prev[0].type == tokenize.NAME
                             else "")
            names.append((tok.string, tok.start[0], qualifier))
        prev = [prev[1], tok]
    return ast.parse(text), names


def _module(path):
    return os.path.splitext(os.path.basename(path))[0]


def public_names():
    """Each public function, class and method name, dunders excepted, as
    ``(module, name)`` for a module-level one and ``(None, name)`` for a
    method."""
    out = set()
    for path in _py_files(SRC):
        for node in _parsed(path)[0].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            out.add((_module(path), node.name))
            if isinstance(node, ast.ClassDef):
                out.update((None, sub.name) for sub in node.body
                           if isinstance(sub, ast.FunctionDef))
    return {(module, name) for module, name in out
            if not name.startswith("_")}


def _spans(tree):
    """Each defined name -> the line spans of its definitions."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out.setdefault(node.name, []).append(
                (node.lineno, node.end_lineno))
    return out


def _reader_files():
    """The pipelines, the benchmark and the acceptance criteria."""
    return _py_files(SRC) + _py_files(os.path.join(ROOT, "perfbench")) \
        + [os.path.join(ROOT, "tests", "test_acceptance.py")]


def used_names():
    """Every NAME token outside the definitions of its own name, as
    ``(qualifier, name)``."""
    out = set()
    for path in _reader_files():
        tree, names = _parsed(path)
        spans = _spans(tree)
        out.update((qualifier, name) for name, line, qualifier in names
                   if not any(first <= line <= last
                              for first, last in spans.get(name, ())))
    return out


def unreached():
    """The public names that nothing reaches: a method through any token
    of its name, a module-level one through a bare or module-qualified
    token."""
    used = used_names()
    anywhere = {name for _, name in used}
    return {name for module, name in public_names()
            if (name not in anywhere if module is None
                else (None, name) not in used and (module, name) not in used)}


def _decorated(fn, name):
    return any(isinstance(d, ast.Name) and d.id == name
               for d in fn.decorator_list)


def _defaulted(path, fn, owner):
    """``(file:line, label, name, parameter, position)`` for each
    defaulted parameter of ``fn``.  A constructor is labelled and called
    by its class name.  The position counts past ``self`` or ``cls`` and
    is None for a keyword-only parameter."""
    where = f"{os.path.relpath(path, ROOT)}:{fn.lineno}"
    if fn.name == "__init__":
        label = name = owner
    else:
        label = f"{owner}.{fn.name}" if owner else fn.name
        name = fn.name
    bound = owner is not None and not _decorated(fn, "staticmethod")
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], first - bound):
        yield where, label, name, arg.arg, i
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield where, label, name, arg.arg, None


def defaulted_parameters():
    """Each defaulted parameter in ``src/pimsner``, constructors included."""
    for path in _py_files(SRC):
        for node in _parsed(path)[0].body:
            if isinstance(node, ast.FunctionDef):
                yield from _defaulted(path, node, None)
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        yield from _defaulted(path, sub, node.name)


def _calls():
    """Each called name -> the calls of it, as a function or a method;
    ``cls(...)`` in a classmethod is a call of its class."""
    out = {}
    for path in _reader_files():
        for node in ast.walk(_parsed(path)[0]):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                out.setdefault(name, []).append(node)
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) \
                            and _decorated(sub, "classmethod"):
                        out.setdefault(node.name, []).extend(
                            call for call in ast.walk(sub)
                            if isinstance(call, ast.Call)
                            and getattr(call.func, "id", None) == "cls")
    return out


def _sets(call, param, position):
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if any(kw.arg in (None, param) for kw in call.keywords):
        return True
    return position is not None and position < len(call.args)


def unset_parameters():
    """``(file:line, function(parameter))`` for each defaulted parameter
    that no call sets."""
    calls = _calls()
    return {(where, f"{label}({param})")
            for where, label, name, param, position in defaulted_parameters()
            if not any(_sets(call, param, position)
                       for call in calls.get(name, ()))}


def always_set_parameters():
    """``(file:line, function(parameter))`` for each defaulted parameter
    that every call sets, when there is a call."""
    calls = _calls()
    return {(where, f"{label}({param})")
            for where, label, name, param, position in defaulted_parameters()
            if calls.get(name)
            and all(_sets(call, param, position) for call in calls[name])}


def test_every_public_name_is_reached_or_reserved():
    assert unreached() - set(RESERVED) == set()


def test_reserved_names_are_still_unreached():
    # a reserved name that gained a reader, or left src/, leaves the list
    assert set(RESERVED) - unreached() == set()


def test_every_defaulted_parameter_is_set_or_allowed():
    flagged = sorted(f"{where} {param}"
                     for where, param in unset_parameters()
                     if param not in ALLOWED)
    assert not flagged, "defaulted parameters no caller sets:\n" + \
        "\n".join(flagged)


def test_every_defaulted_parameter_is_left_unset_by_some_call():
    flagged = sorted(f"{where} {param}"
                     for where, param in always_set_parameters())
    assert not flagged, "defaulted parameters every caller sets:\n" + \
        "\n".join(flagged)


def test_allowed_parameters_are_still_unset():
    # an allowed parameter that gained a caller, or left src/, leaves the list
    unset = {param for _, param in unset_parameters()}
    assert set(ALLOWED) - unset == set()


def test_cli_import_closure():
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _CLOSURE_PROBE,
         os.path.join(ROOT, "src")],
        capture_output=True, text=True, timeout=60, check=True)
    added = set(done.stdout.split())
    assert "pimsner.cli" in added
    assert sorted(added & set(NOT_IMPORTED)) == []
    outside = sorted(name for name in added
                     if name.partition(".")[0] not in sys.stdlib_module_names
                     and name.partition(".")[0] != "pimsner")
    assert outside == []
