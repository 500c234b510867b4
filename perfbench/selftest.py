"""Show that the benchmark's output checks can fail.

    python3 perfbench/selftest.py

Two perturbations of the pinned data, each against a control run on the
same data unperturbed:

* kgroups: the expected K0 of one quiver gets an extra free summand.  The
  one op built from that quiver must be reported failed, and no other.
* algebra: one odometer word is moved into another word's class.  Every
  odometer group-ring op then checks a partition that merges two classes
  and must be reported failed.

Exits 0 when every perturbation is caught and every control passes.
"""

from __future__ import annotations

import copy
import os
import shutil
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import ops  # noqa: E402
import run  # noqa: E402


def _statuses(workload, pool, kind, label, workdir):
    built = ops.build_ops(workload, 0, workdir, pool)
    return [run.run_op(op).status for op in built
            if op.kind == kind and op.label == label]


def kgroups_case(pool, workdir):
    quota = len(ops.KGROUPS_QUIVERS["q20-40"])
    kept = [e for e in pool["quivers"] if e["class"] == "q20-40"][:quota]
    pool = dict(pool, quivers=[e for e in pool["quivers"]
                               if e["class"] != "q20-40"] + kept)
    control = _statuses("kgroups", pool, "kgroups", "q20-40", workdir)
    mutated = copy.deepcopy(pool)
    target = next(e for e in mutated["quivers"] if e["class"] == "q20-40")
    for expected in target["expected"].values():
        expected["0"][0] += 1
    perturbed = _statuses("kgroups", mutated, "kgroups", "q20-40", workdir)
    return (control.count("ok") == len(control)
            and perturbed.count("wrong") == 1
            and perturbed.count("ok") == len(perturbed) - 1,
            f"kgroups q20-40 ops: control {control.count('ok')}/"
            f"{len(control)} ok, perturbed {perturbed.count('wrong')} failed")


def algebra_case(pool, workdir):
    pool = copy.deepcopy(pool)
    data = pool["groups"]["odometer"]
    data["words"] = data["words"][:ops.GROUPRING_WORDS]
    data["classes"] = data["classes"][:ops.GROUPRING_WORDS]
    control = _statuses("algebra", pool, "groupring", "odometer", workdir)
    classes = data["classes"]
    other = next(c for c in classes if c != classes[0])
    classes[0] = other
    perturbed = _statuses("algebra", pool, "groupring", "odometer", workdir)
    return (control.count("ok") == len(control)
            and perturbed.count("wrong") == len(perturbed),
            f"odometer group-ring ops: control {control.count('ok')}/"
            f"{len(control)} ok, perturbed {perturbed.count('wrong')}/"
            f"{len(perturbed)} failed")


def main():
    signal.signal(signal.SIGALRM, run._on_alarm)
    workdir = os.path.join(run.ROOT, ".perfbench-work", f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        pool = ops.load_pool()
        results = [kgroups_case(pool, workdir), algebra_case(pool, workdir)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for caught, message in results:
        print(("caught   " if caught else "MISSED   ") + message)
    return 0 if all(caught for caught, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
