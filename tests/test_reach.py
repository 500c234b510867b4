"""Every function in ``src/pimsner`` is called by a pipeline, or listed
with the reason it waits.

The scope is each module-level function and each method of a
module-level class, private ones and dunders included.  A closure nested
in a function is a table entry of what builds it, so reaching the builder
is what counts.  ``__repr__`` is exempt: it is kept for debugging.

The census records the code of every Python function called while it
runs, under ``sys.setprofile``, in one fresh interpreter (``python -I
-S`` with ``src`` and ``perfbench`` on ``sys.path``), so no cache warmed
by an earlier test hides a first call.  It runs in two phases:

1. ``pipelines``, the pinned corpus: ``verify`` on rose2, a2 and rose3
   at ``--fock-depth 4 --word-bound 2``, rose2 again over ``zmod:6``
   and ``q`` and with ``--out text``, and on each group of the benchmark
   pool;
   ``kgroups`` on the golden 40-vertex quiver over ``z`` and ``fp:3`` and
   on rose2 with ``--coeff q`` and ``--out text``; ``pv`` on the golden
   6x6 matrix and on a 2x2 with ``--out text``; ``selfsim`` on each pool
   group, on the trivial group and with ``--matrix``; five malformed or
   missing inputs; and one Leavitt and one group-ring batch of the
   ``algebra`` benchmark, called through ``perfbench/ops.py``.
2. ``listed``: each name of ``RESERVED`` and ``KEPT`` called once, on the
   inputs its tests use.  The helpers such a name calls are reached
   through it, and nothing else is.

The guard fails on a function that neither phase called, and on a listed
name that phase 1 calls or that has left ``src/``: it leaves its list.
``RESERVED`` holds what a ROADMAP direction will give a pipeline reader;
``KEPT`` holds what an acceptance criterion or the benchmark reads.
There is no list for code that only the tests call: it moves into the
test that needs it, or goes.  So the checkers of the paper's hypotheses
(non-degeneracy, pairing balance, a non-degenerate left action) and the
covariance-ideal generators live in ``tests/test_funcmod.py`` and
``tests/test_pathspace.py``.

Run ``python -I -S tests/test_reach.py`` to print the census as JSON, and
``python -I -S tests/test_reach.py --statements`` to print, per module,
the function-body statements that phase 1 never runs over their total,
with the first line of each.  A statement is one inside a function in
scope, nested ones included, except docstrings, ``global`` and
``nonlocal`` declarations, which run no code, and nested ``def`` and
``class`` statements, whose bodies are counted instead; it runs when its
first line does, under ``sys.settrace``.  The statement level is a measurement, not
a guard: no test reads it.
"""

import ast
import contextlib
import functools
import io
import json
import os
import random
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "pimsner")
DATA = os.path.join(ROOT, "tests", "data")

# a key is a function, ``Class.method``, or a class for all its methods
RESERVED = {
    "FunctionalModule.append_normal":
        "direction 2: perfbench/tracing.py wraps it by name",
}

KEPT = {
    "smith_normal_form": "criterion 1 reads the transforms, and "
                         "perfbench/tracing.py wraps it by name",
    "IntMatrix.mul": "criterion 1 checks U . M . V == S",
    "IntMatrix.diagonal": "criterion 1 reads the diagonal of S",
    "IntMatrix.__eq__": "criteria 1 and 8 compare matrices",
    "IntMatrix.det": "criteria 1 and 2: unimodular transforms and the "
                     "minor-gcd oracle",
    "MatrixRing": "criterion 6: K(R^I) = M_I(R)",
    "compact_to_matrix": "criterion 6: K(R^I) = M_I(R)",
    "CompactOperator.__mul__": "criterion 6 multiplies compact operators",
    "odometer": "criterion 7: the odometer suites",
    "trivial_group": "criterion 8: the trivial group against the rose",
    "FgAbelianGroup.__eq__": "criterion 8 compares kernels and cokernels",
    "rose": "criteria 2, 3, 8 and 9 build roses",
    "LeavittRing.path": "criterion 9: the Leavitt relations",
    "LeavittRing.ghost": "criterion 9: the Leavitt relations",
    "check_p0_form": "criterion 9: the vacuum compression",
    "ToeplitzAlgebra.try_mul": "perfbench/tracing.py wraps it by name; "
                               "lam1 takes it only where no table decides "
                               "a product, a creation part of top degree "
                               "when --word-bound is --fock-depth, which "
                               "the corpus does not run",
}

ROSE2 = "vertices: v\nedges:\n  e: v -> v\n  f: v -> v\n"
A2 = "vertices: v w\nedges: e: v -> w\n"
ROSE3 = "vertices: v\nedges:\n  e: v -> v\n  f: v -> v\n  g: v -> v\n"
TRIVIAL = "alphabet: 0 1\n"
BAD_QUIVER = "vertices: v\nedges:\n  e: v -> u\n"
BAD_GROUP = "alphabet: 0 1\na = (perm 0 2)(e, a)\n"
SHALLOW = ["--fock-depth", "4", "--word-bound", "2"]


# ---------------------------------------------------------------------------
# The census: which functions of some source files were called
# ---------------------------------------------------------------------------

@functools.cache
def _in_scope(path):
    """Each function in scope in one source file, as ``(node, name)``."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out.append((node, node.name))
        elif isinstance(node, ast.ClassDef):
            out += [(sub, f"{node.name}.{sub.name}") for sub in node.body
                    if isinstance(sub, ast.FunctionDef)]
    return out


# a nested definition is counted by the statements of its body
_NOT_COUNTED = (ast.FunctionDef, ast.ClassDef, ast.Global, ast.Nonlocal)


@functools.cache
def definitions(path):
    """Each function in scope in one source file, as its first line ->
    ``module.name``; the first line is the one its code object reports,
    the first decorator's line for a decorated function.  Read once per
    session: do not mutate it."""
    module = os.path.splitext(os.path.basename(path))[0]
    return {_first_line(fn): f"{module}.{name}"
            for fn, name in _in_scope(path)}


def statements(path):
    """The first line of each function-body statement in one source
    file (see the module docstring)."""
    out = set()
    for fn, _ in _in_scope(path):
        docs = {id(node.body[0]) for node in ast.walk(fn)
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and ast.get_docstring(node, clean=False) is not None}
        out.update(node.lineno for node in ast.walk(fn)
                   if isinstance(node, ast.stmt) and id(node) not in docs
                   and not isinstance(node, _NOT_COUNTED))
    return out


def _first_line(fn):
    return min([fn.lineno] + [d.lineno for d in fn.decorator_list])


def uncalled(paths, called):
    """The functions in scope in ``paths`` whose ``(file, first line)``
    is not in ``called``, as ``module.name``; ``__repr__`` is exempt."""
    return {name for path in paths
            for line, name in definitions(path).items()
            if (path, line) not in called
            and not name.endswith(".__repr__")}


def record(run):
    """``(run(), called)``: what ``run()`` returns, and the
    ``(file, first line)`` of each Python function it called."""
    codes = set()

    def profile(frame, event, _arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, {(c.co_filename, c.co_firstlineno) for c in codes}


def record_lines(run):
    """``(run(), ran)``: what ``run()`` returns, and the ``(file, line)``
    of each line of ``src/pimsner`` that it ran."""
    ran = set()

    def line(frame, event, _arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, _event, _arg):
        return line if frame.f_code.co_filename.startswith(SRC) else None

    sys.settrace(call)
    try:
        result = run()
    finally:
        sys.settrace(None)
    return result, ran


# ---------------------------------------------------------------------------
# Phase 1: the pipelines
# ---------------------------------------------------------------------------

def _cli(argv):
    from pimsner import cli
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def pipelines(tmp):
    """Run the pinned corpus; return each CLI run's exit code, as
    ``[argv, code]`` with ``tmp`` left out of the paths."""
    import ops
    pool = ops.load_pool()

    def write(name, text):
        path = os.path.join(tmp, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    rose2, a2, rose3 = (write(f"{name}.quiver", text) for name, text in
                        (("rose2", ROSE2), ("a2", A2), ("rose3", ROSE3)))
    groups = [write(f"{name}.selfsim", data["text"])
              for name, data in sorted(pool["groups"].items())]
    q40 = os.path.join(DATA, "kgroups_q40.quiver")
    with open(os.path.join(DATA, "pv_6x6.json"), encoding="utf-8") as handle:
        pv6 = json.load(handle)["input"]
    runs = [["verify", rose2, *SHALLOW], ["verify", a2, *SHALLOW],
            ["verify", rose3, *SHALLOW],
            ["verify", rose2, *SHALLOW, "--coeff", "zmod:6"],
            ["verify", rose2, *SHALLOW, "--coeff", "q"],
            ["verify", rose2, *SHALLOW, "--out", "text"]]
    runs += [["verify", group] for group in groups]
    runs += [["kgroups", q40], ["kgroups", q40, "--coeff", "fp:3"],
             ["kgroups", rose2, "--coeff", "q"],
             ["kgroups", rose2, "--out", "text"],
             ["pv", "--matrix", pv6],
             ["pv", "--matrix", "2 1; 1 1", "--out", "text"]]
    runs += [["selfsim", group] for group in groups]
    runs += [["selfsim", write("trivial.selfsim", TRIVIAL)],
             ["selfsim", groups[-1], "--matrix", "1 1; 0 1"]]
    # malformed or missing inputs
    runs += [["kgroups", write("bad.quiver", BAD_QUIVER)],
             ["selfsim", write("bad.selfsim", BAD_GROUP)],
             ["kgroups", os.path.join(tmp, "missing.quiver")],
             ["pv", "--matrix", "1 2; 3"],
             ["verify", rose2, "--fock-depth", "0"]]
    codes = [[[os.path.basename(a) for a in argv], _cli(argv)]
             for argv in runs]

    assert all(ops._leavitt_execute(*ops._leavitt_spec(random.Random(0))))
    data = pool["groups"]["grigorchuk"]
    words = [ops._parse_word(w) for w in data["words"][:5]]
    triples = [([(0, 1), (1, -2)], [(2, 1)], [(3, 2), (4, -1)])]
    assert all(ops._groupring_execute(data["text"], words, triples)[1])
    return codes


# ---------------------------------------------------------------------------
# Phase 2: the listed names
# ---------------------------------------------------------------------------

def listed():
    """Call each RESERVED and KEPT name once, on the inputs its tests
    use."""
    from pimsner import abgroup, fock, funcmod, leavitt, selfsim
    from pimsner.ringcore import ZZ, DirectSumRing, MatrixRing

    rose2 = leavitt.rose(2)
    corr = leavitt.quiver_correspondence(rose2)
    module = corr.module

    # direction 2: the benchmark's tracer wraps append_normal
    assert module.append_normal(("e0",), "e1") == {("e0", "e1"): 1}
    # criterion 9: the vacuum compression
    with fock.TruncatedFock(corr, 4) as fk:
        v = fk.ring.monomial("v")
        assert fock.check_p0_form(fock.p0_compact_form(v, fk), v, fk,
                                  range(5))
        # the product that lam1 takes where no table decides it
        talg = fk._talg
        x, phi = (talg.from_tokens([token]) for token in
                  [("x", {"e0": 1}), ("phi", {("e0", "*"): 1})])
        assert talg.try_mul(phi, x, 2) == {("s", "v"): 1}
        assert talg.try_mul(x, x, 1) is None

    # criteria 1 and 2: Smith form with transforms, and determinants
    mat = abgroup.IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    s, u, w = abgroup.smith_normal_form(mat)
    assert u.mul(mat).mul(w) == s and abs(u.det()) == abs(w.det()) == 1
    assert s.diagonal() == [2, 2, 156]
    # criterion 6: compact operators on R^I are I x I matrices
    ring = DirectSumRing(ZZ, ["p", "q"])
    free = funcmod.free_module(ring, [0, 1])
    mring = MatrixRing(ring, [0, 1])
    k1 = funcmod.CompactOperator(free, [({(0, "p"): 2}, {(1, "p"): 1})])
    k2 = funcmod.CompactOperator(free, [({(1, "p"): 1}, {(0, "p"): 3})])
    assert funcmod.compact_to_matrix(k1 * k2, mring) == \
        funcmod.compact_to_matrix(k1, mring) \
        * funcmod.compact_to_matrix(k2, mring)
    # criterion 7: the odometer acts as binary increment
    odometer = selfsim.odometer()
    assert odometer.act(odometer.gen_word("a"), "11") == "00"
    # criterion 8: the trivial group on two letters, whose induced map is
    # 1 - 2, against rose2
    assert selfsim.trivial_group(["0", "1"]).alphabet == ["0", "1"]
    rose_segs = leavitt.k_groups(rose2)[1]
    nek_segs = leavitt._pipeline_report(
        abgroup.IntMatrix.from_rows([[-1]]), leavitt.field_presets(ZZ),
        row_labels=["*"], col_labels=["*"])[1]
    assert [seg.kernel for _, seg in rose_segs[0]] \
        == [seg.kernel for _, seg in nek_segs[0]]
    # criterion 9: the Leavitt relations
    leavitt_ring = leavitt.LeavittRing(rose2)
    assert leavitt_ring.ghost(["e0"]) * leavitt_ring.path(["e0"]) \
        == leavitt_ring.vertex("v")


# ---------------------------------------------------------------------------
# The guard
# ---------------------------------------------------------------------------

def census():
    """Both phases, run in this interpreter: the exit codes of phase 1,
    and the ``(file, first line)`` pairs of ``src/pimsner`` each phase
    called."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    with tempfile.TemporaryDirectory() as tmp:
        codes, first = record(lambda: pipelines(tmp))
    _, second = record(listed)
    return {"codes": codes,
            "pipelines": sorted(c for c in first if c[0].startswith(SRC)),
            "listed": sorted(c for c in second if c[0].startswith(SRC))}


def statement_census():
    """Phase 1, run in this interpreter under ``sys.settrace``: one text
    line per module of ``src/pimsner``, the function-body statements it
    never runs over their total and the first line of each, then the
    totals."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    with tempfile.TemporaryDirectory() as tmp:
        _, ran = record_lines(lambda: pipelines(tmp))
    lines, missed, total = [], 0, 0
    for path in _sources():
        stmts = statements(path)
        never = sorted(line for line in stmts if (path, line) not in ran)
        missed, total = missed + len(never), total + len(stmts)
        lines.append(f"{os.path.basename(path)} {len(never)}/{len(stmts)}: "
                     + " ".join(map(str, never)))
    return "\n".join(lines + [f"src/pimsner {missed}/{total}"])


@functools.cache
def _census():
    done = subprocess.run(
        [sys.executable, "-I", "-S", os.path.abspath(__file__)],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    for phase in ("pipelines", "listed"):
        out[phase] = set(map(tuple, out[phase]))
    return out


def _sources():
    return [os.path.join(SRC, f) for f in sorted(os.listdir(SRC))
            if f.endswith(".py")]


def _named(key):
    """Each in-scope ``(file, first line)`` that the list key names."""
    return {(path, line) for path in _sources()
            for line, name in definitions(path).items()
            if name.partition(".")[2] == key
            or name.partition(".")[2].startswith(key + ".")}


def test_corpus_runs_as_pinned():
    # the five malformed or missing inputs come last
    codes = [code for _, code in _census()["codes"]]
    assert codes[-5:] == [2] * 5 and set(codes[:-5]) == {0}


def test_every_function_is_called_or_listed():
    out = _census()
    flagged = sorted(uncalled(_sources(), out["pipelines"] | out["listed"]))
    assert not flagged, "functions no pipeline and no listed name calls:\n" \
        + "\n".join(flagged)


def test_listed_names_still_wait():
    # a listed name that a pipeline calls, or that left src/, leaves its list
    first = _census()["pipelines"]
    stale = sorted(key for key in {**RESERVED, **KEPT}
                   if not _named(key) or _named(key) & first)
    assert not stale, "listed names a pipeline calls, or that left src/:\n" \
        + "\n".join(stale)


def test_uncalled_names_exactly_the_uncalled_function(tmp_path):
    # a decorated function's code starts on its decorator's line
    source = ("import functools\n"
              "\n"
              "def called():\n"
              "    return Thing()\n"
              "\n"
              "def never():\n"
              "    return 0\n"
              "\n"
              "class Thing:\n"
              "    @functools.cache\n"
              "    def decorated(self):\n"
              "        return 1\n"
              "\n"
              "    def __repr__(self):\n"
              "        return 'Thing()'\n")
    path = str(tmp_path / "synthetic.py")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(source)
    space = {}
    exec(compile(source, path, "exec"), space)
    _, called = record(lambda: space["called"]().decorated())
    assert uncalled([path], called) == {"synthetic.never"}


if __name__ == "__main__":
    if sys.argv[1:] == ["--statements"]:
        print(statement_census())
    else:
        print(json.dumps(census()))
