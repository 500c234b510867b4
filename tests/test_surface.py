"""Every parameter in ``src/pimsner`` is set by a caller, and the CLI
imports only what it needs.

Whether each function is called at all is ``tests/test_reach.py``'s
question, answered by a call census of the pipelines.  This file once
answered it by name, counting a function reached when its name occurred
as a token anywhere; generic and same-named methods (``scale``,
``is_zero``, ``__eq__``, ``identity``) then always looked reached, and
hid dead copies such as ``Correspondence.check_adjointable``.

Each defaulted parameter of a module-level function, of a method of a
module-level class, or of its constructor, must be set by some call of
that name in ``src/pimsner``, ``perfbench`` or
``tests/test_acceptance.py``: by keyword, by a positional argument that
reaches it, or by ``*`` or ``**`` unpacking.  It must also be left unset
by some call, when there is one: a default that every caller overrides
is a path nothing runs, so the parameter is required.  A function or
method is called by its name, as a function or as an attribute; a
constructor by its class name, as ``Class(...)`` or
``module.Class(...)``, or as ``cls(...)`` inside the class's own
classmethods.  A default no caller overrides is a knob to delete.
Names that wait for a reader (``test_reach.RESERVED``) are held to the
rule too, so they wait without knobs.  A parameter only the other tests
set must be listed in ``ALLOWED`` with the reason.  A failure names each
parameter as ``file:line function(parameter)``.

Each file is read and parsed once per session, by ``_parsed``.

The import closure is held too.  Every ``pimsner`` invocation imports
``pimsner.cli`` before its one op, so what that import loads is paid on
each call: it may load only the standard library and ``pimsner`` itself
(``dependencies = []``), and none of the modules in ``NOT_IMPORTED``.
"""

import ast
import os
import subprocess
import sys
from functools import cache

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "pimsner")

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
    """The AST of one file."""
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read())


def _reader_files():
    """The pipelines, the benchmark and the acceptance criteria."""
    return _py_files(SRC) + _py_files(os.path.join(ROOT, "perfbench")) \
        + [os.path.join(ROOT, "tests", "test_acceptance.py")]


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
        for node in _parsed(path).body:
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
        for node in ast.walk(_parsed(path)):
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


def test_path_space_model_imports_no_pimsner():
    # a relative import counts too, as it could reach a package module
    tree = _parsed(os.path.join(ROOT, "tests", "pathspace.py"))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names]
    names += ["." * node.level + (node.module or "") for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom)]
    assert [n for n in names if n.split(".")[0] in ("", "pimsner")] == []
