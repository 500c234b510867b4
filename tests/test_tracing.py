"""The benchmark tracer still finds every name it wraps.

``perfbench/tracing.py`` patches functions and methods of the pimsner
modules by name, so deleting or renaming one of them breaks the traced
benchmark run.  This test installs the tracer and uninstalls it again.
"""

import importlib
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
