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


def used_names():
    """Every NAME token outside the definitions of its own name."""
    files = _py_files(SRC) + _py_files(os.path.join(ROOT, "perfbench")) \
        + [os.path.join(ROOT, "tests", "test_acceptance.py")]
    out = set()
    for path in files:
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


def test_every_public_name_is_reached_or_reserved():
    assert unreached() - set(RESERVED) == set()


def test_reserved_names_are_still_unreached():
    # a reserved name that gained a reader, or left src/, leaves the list
    assert set(RESERVED) - unreached() == set()
