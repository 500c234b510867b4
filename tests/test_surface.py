"""Every public name in ``src/pimsner`` has a reader, or a reason to wait.

A public module-level function or class, or a public method of a
module-level class, counts as reached when its name occurs as a NAME
token in ``src/pimsner``, ``perfbench`` or ``tests/test_acceptance.py``
outside the line span of every definition of that name in the same
file: a pipeline, the benchmark or an acceptance criterion reads it.  So
a definition's own name, its recursion, and a method's call to a
same-named function inside its body do not count.  The check is by name,
so it is generous where names collide elsewhere, but a deleted caller
leaves its callee unreached.  Tests other than the acceptance suite do
not count; a name only they read belongs in the tests.  A name that
nothing reaches yet must be listed in ``RESERVED`` with the ROADMAP
direction that will give it a reader.

Parameters are held to the same rule.  Each defaulted parameter of a
module-level function, or of a method of a module-level class other than
its constructor, must be set by some call of that name (as a function or
as an attribute) in the same files: by keyword, by a positional argument
that reaches it, or by ``*`` or ``**`` unpacking.  A default no caller
overrides is a knob to delete.  The parameters of ``RESERVED`` functions
are exempt, and a parameter only the other tests set must be listed in
``ALLOWED`` with the reason.  A failure names each parameter as
``file:line function(parameter)``.
"""

import ast
import io
import os
import tokenize

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
}

ALLOWED = {
    "covariant_check(T)": "the mutation tests pass a faulty T to show "
                          "that the covariance check can fail",
}


def _py_files(folder):
    return sorted(os.path.join(folder, f) for f in os.listdir(folder)
                  if f.endswith(".py"))


def public_names():
    """Each public function, class and method name, dunders excepted."""
    out = set()
    for path in _py_files(SRC):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            out.add(node.name)
            if isinstance(node, ast.ClassDef):
                out.update(sub.name for sub in node.body
                           if isinstance(sub, ast.FunctionDef))
    return {name for name in out if not name.startswith("_")}


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
    """Every NAME token outside the definitions of its own name."""
    out = set()
    for path in _reader_files():
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        spans = _spans(ast.parse(text))
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            line = tok.start[0]
            if tok.type == tokenize.NAME and not any(
                    first <= line <= last
                    for first, last in spans.get(tok.string, ())):
                out.add(tok.string)
    return out


def unreached():
    return public_names() - used_names()


def _defaulted(path, fn, owner):
    """``(file:line, label, name, parameter, position)`` for each
    defaulted parameter of ``fn``; the position counts past ``self`` of a
    method and is None for a keyword-only parameter."""
    where = f"{os.path.relpath(path, ROOT)}:{fn.lineno}"
    label = f"{owner}.{fn.name}" if owner else fn.name
    bound = owner is not None and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in fn.decorator_list)
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], first - bound):
        yield where, label, fn.name, arg.arg, i
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield where, label, fn.name, arg.arg, None


def defaulted_parameters():
    """Each defaulted parameter in ``src/pimsner``, constructors excepted."""
    for path in _py_files(SRC):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield from _defaulted(path, node, None)
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) \
                            and sub.name != "__init__":
                        yield from _defaulted(path, sub, node.name)


def _calls():
    """Each called name -> the calls of it, as a function or a method."""
    out = {}
    for path in _reader_files():
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                out.setdefault(name, []).append(node)
    return out


def _sets(call, param, position):
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if any(kw.arg in (None, param) for kw in call.keywords):
        return True
    return position is not None and position < len(call.args)


def unset_parameters():
    """``(file:line, function(parameter))`` for each defaulted parameter
    that no call sets, the parameters of reserved functions excepted."""
    calls = _calls()
    return {(where, f"{label}({param})")
            for where, label, name, param, position in defaulted_parameters()
            if name not in RESERVED
            and not any(_sets(call, param, position)
                        for call in calls.get(name, ()))}


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


def test_allowed_parameters_are_still_unset():
    # an allowed parameter that gained a caller, or left src/, leaves the list
    unset = {param for _, param in unset_parameters()}
    assert set(ALLOWED) - unset == set()
