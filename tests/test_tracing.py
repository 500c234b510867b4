"""The benchmark tracer still finds every name it wraps.

``perfbench/tracing.py`` patches functions and methods of the pimsner
modules by name, so deleting or renaming one of them breaks the traced
benchmark run.  The first test installs the tracer and uninstalls it
again; the second runs one traced ``verify`` and finds every ``fock``
name it wraps called.
"""

import contextlib
import importlib
import io
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = list(tracer._undo)
        assert len(patched) >= len(tracing.TIMED) + len(tracing.COUNTED)
        for owner, attr, original in patched:
            assert vars(owner)[attr] is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original


ROSE2 = "vertices: v\nedges:\n  e0: v -> v\n  e1: v -> v\n"


def test_a_traced_verify_reaches_every_fock_name(monkeypatch, tmp_path):
    # a rewrite that keeps a traced name but bypasses it reads 0 here
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    from pimsner import cli
    path = tmp_path / "rose2.quiver"
    path.write_text(ROSE2, encoding="utf-8")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["verify", str(path), "--fock-depth", "4",
                             "--word-bound", "2"])
    finally:
        tracer.uninstall()
    assert code == 0
    spans = {name: tracer.calls.get(name, 0)
             for name, *_ in tracing.TIMED if name.startswith("fock.")}
    counts = {name: tracer.counts.get(name, 0)
              for name, *_ in tracing.COUNTED if name.startswith("fock.")}
    assert len(spans) == 6 and len(counts) == 3
    assert all(spans.values()) and all(counts.values()), (spans, counts)
