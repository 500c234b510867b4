"""Per-layer tracing from outside the program.

``Tracer.install`` wraps public functions and methods of the pimsner
modules.  A timed wrapper opens a span (name, start, end, parent); a
counting wrapper only counts calls.  A module-level function is replaced in
every module that binds it, because modules import each other's functions
by name (``fock`` binds ``vadd``, ``cli`` binds the fock checkers,
``leavitt`` binds ``les_segment``); patching only the defining module would
silently miss those calls.

Self time of a span is its duration minus the time its child spans cover,
accumulated online as spans close.  Coarse spans are also kept as records
and written out when the run ends; hot spans (vector ops, ring-element
products, word equality) are only aggregated, to keep memory flat.
Coefficient-ring scalar ops run millions of times and are counted, never
timed.
"""

from __future__ import annotations

import json
import os
import sys
import time

from pimsner import abgroup, cli, fock, funcmod, leavitt, ringcore, selfsim

_HERE = os.path.dirname(os.path.abspath(__file__))
_MODULES = {"abgroup": abgroup, "cli": cli, "fock": fock, "funcmod": funcmod,
            "leavitt": leavitt, "ringcore": ringcore, "selfsim": selfsim}

# (span name, module, attribute path, keep a record of each span)
TIMED = [
    ("cli.main", "cli", "main", True),
    ("leavitt.k_groups", "leavitt", "k_groups", True),
    ("leavitt.k_groups", "leavitt", "crossed_product_k_groups", True),
    ("leavitt.correspondence", "leavitt", "quiver_correspondence", True),
    ("abgroup.snf", "abgroup", "smith_normal_form", True),
    ("abgroup.les_segment", "abgroup", "les_segment", True),
    ("abgroup.group_build", "abgroup", "FgAbelianGroup.__init__", True),
    ("abgroup.group_build", "abgroup", "FgAbelianGroup.from_divisors", True),
    ("ringcore.element_mul", "ringcore", "RingElement.__mul__", False),
    ("funcmod.vadd", "funcmod", "vadd", False),
    ("funcmod.vscale", "funcmod", "vscale", False),
    ("funcmod.vclean", "funcmod", "vclean", False),
    ("funcmod.tensor_normalize", "funcmod",
     "FunctionalModule.tensor_normalize", False),
    ("funcmod.prepend_normal", "funcmod", "FunctionalModule.prepend_normal",
     False),
    ("funcmod.append_normal", "funcmod", "FunctionalModule.append_normal",
     False),
    ("funcmod.pair", "funcmod", "FunctionalModule.pair", False),
    ("fock.truncated_fock", "fock", "TruncatedFock.__init__", True),
    ("fock.covariant", "fock", "covariant_check", True),
    ("fock.defect", "fock", "quasi_hom_defect", True),
    ("fock.homotopy_model", "fock", "HomotopyModel.__init__", True),
    ("fock.endpoints", "fock", "homotopy_endpoints_check", True),
    ("fock.pairing", "fock", "homotopy_pairing_check", True),
    ("selfsim.correspondence", "selfsim", "build_nek_correspondence", True),
    ("selfsim.canonical", "selfsim", "SelfSimilarGroup.canonical", True),
    ("selfsim.equal", "selfsim", "SelfSimilarGroup.equal", False),
    ("selfsim.act", "selfsim", "SelfSimilarGroup.act", False),
    ("selfsim.restriction", "selfsim", "SelfSimilarGroup.restriction", False),
]

_SCALAR_OPS = ("coerce", "add", "mul", "neg", "is_zero")
COUNTED = [
    (f"ringcore.scalar.{op}", "ringcore", f"{cls}.{op}")
    for cls in ("CoefficientRing", "IntegerRing", "RationalRing", "ZmodRing")
    for op in _SCALAR_OPS
    if op in vars(getattr(ringcore, cls))
] + [
    ("leavitt.mul_basis", "leavitt", "LeavittRing.mul_basis"),
    ("fock.column", "fock", "FockOperator.column"),
    ("fock.h_column", "fock", "HOperator.column"),
    ("fock.toeplitz_mul", "fock", "ToeplitzAlgebra.mul"),
    ("fock.toeplitz_mul", "fock", "ToeplitzAlgebra.try_mul"),
    ("selfsim.restrict_letter", "selfsim", "SelfSimilarGroup.restrict_letter"),
]


def _max_bits(snf_result):
    return max((abs(x).bit_length() for mat in snf_result
                for row in mat.entries for x in row), default=0)


class Tracer:
    """Wraps the pimsner layers; collects spans, self times and counts."""

    def __init__(self):
        self.stack = []          # open frames: [name, start, child_time, id]
        self.records = []        # (id, name, start, end, parent id)
        self.calls = {}          # span name -> closed spans
        self.total = {}          # span name -> seconds inside
        self.self_time = {}      # span name -> seconds not in child spans
        self.counts = {}         # counted name -> calls
        self.snf_max_bits = 0
        self._next_id = 0
        self._undo = []

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name, fn, record):
        stack = self.stack
        clock = time.perf_counter
        hook = self._snf_hook if name == "abgroup.snf" else None

        def wrapper(*args, **kwargs):
            # a recursive call (or from_divisors -> __init__) stays one span
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            self._next_id += 1
            frame = [name, clock(), 0.0, self._next_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total[name] = self.total.get(name, 0.0) + duration
                self.self_time[name] = (self.self_time.get(name, 0.0)
                                        + duration - frame[2])
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                if record:
                    self.records.append((frame[3], name, frame[1], end,
                                         parent[3] if parent else None))
            if hook is not None:
                hook(result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _snf_hook(self, result):
        self.snf_max_bits = max(self.snf_max_bits, _max_bits(result))

    # -- patching -----------------------------------------------------------

    def _patch(self, module_name, path, make):
        module = _MODULES[module_name]
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            setattr(owner, attr, new)
            self._undo.append((owner, attr, raw))
            return
        original = getattr(module, path)
        wrapper = make(original)
        for mod in _bound_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))
        for mod in _bound_modules():
            if any(value is original for value in vars(mod).values()):
                raise RuntimeError(f"{module_name}.{path} still bound in "
                                   f"{mod.__name__}")

    def install(self):
        for name, module, path, record in TIMED:
            self._patch(module, path,
                        lambda fn, n=name, r=record: self._timed(n, fn, r))
        for name, module, path in COUNTED:
            self._patch(module, path, lambda fn, n=name: self._counted(n, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def layer_self(self, layer):
        return sum(t for n, t in self.self_time.items()
                   if n.split(".")[0] == layer)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent in self.records:
                handle.write(json.dumps({"id": span_id, "name": name,
                                         "start": start, "end": end,
                                         "parent": parent}) + "\n")


def _bound_modules():
    """Every loaded pimsner module and every module of this benchmark."""
    for name, mod in list(sys.modules.items()):
        path = getattr(mod, "__file__", None)
        if name == "pimsner" or name.startswith("pimsner.") \
                or (path and os.path.dirname(os.path.abspath(path)) == _HERE):
            yield mod


def layer_metrics(tracer, verify_reports):
    """Per-layer metrics of one traced pass.

    ``verify_reports`` are the parsed JSON reports of the pass's verify ops;
    identities checked and skipped are read from them.
    """
    t, c, s = tracer.total, tracer.calls, tracer.counts
    checked = skipped = 0
    for report in verify_reports:
        for node in _dicts(report):
            if isinstance(node.get("checked"), int) and \
                    isinstance(node.get("skipped"), int):
                checked += node["checked"]
                skipped += node["skipped"]
    scalar = sum(v for k, v in s.items() if k.startswith("ringcore.scalar."))
    canonical = c.get("selfsim.canonical", 0)
    equal = c.get("selfsim.equal", 0)
    seconds = {
        "cli.main_s": t.get("cli.main", 0.0),
        "cli.self_s": tracer.layer_self("cli"),
        "leavitt.k_groups_s": t.get("leavitt.k_groups", 0.0),
        "leavitt.correspondence_s": t.get("leavitt.correspondence", 0.0),
        "abgroup.snf_s": t.get("abgroup.snf", 0.0),
        "abgroup.les_segment_s": t.get("abgroup.les_segment", 0.0),
        "abgroup.group_build_s": t.get("abgroup.group_build", 0.0),
        "ringcore.element_mul_s": t.get("ringcore.element_mul", 0.0),
        "funcmod.self_s": tracer.layer_self("funcmod"),
        "fock.covariant_s": t.get("fock.covariant", 0.0),
        "fock.defect_s": t.get("fock.defect", 0.0),
        "fock.homotopy_model_s": t.get("fock.homotopy_model", 0.0),
        "fock.endpoints_s": t.get("fock.endpoints", 0.0),
        "fock.pairing_s": t.get("fock.pairing", 0.0),
        "fock.self_s": tracer.layer_self("fock"),
        "selfsim.canonical_s": t.get("selfsim.canonical", 0.0),
        "selfsim.self_s": tracer.layer_self("selfsim"),
    }
    counts = {
        "leavitt.mul_basis_calls": s.get("leavitt.mul_basis", 0),
        "abgroup.snf_calls": c.get("abgroup.snf", 0),
        "abgroup.group_build_calls": c.get("abgroup.group_build", 0),
        "ringcore.scalar_calls": scalar,
        "ringcore.coerce_calls": sum(v for k, v in s.items()
                                     if k == "ringcore.scalar.coerce"),
        "ringcore.element_mul_calls": c.get("ringcore.element_mul", 0),
        "funcmod.vec_op_calls": sum(c.get(f"funcmod.{n}", 0)
                                    for n in ("vadd", "vscale", "vclean")),
        "funcmod.vclean_calls": c.get("funcmod.vclean", 0),
        "funcmod.normal_form_calls": sum(
            c.get(f"funcmod.{n}", 0)
            for n in ("tensor_normalize", "prepend_normal", "append_normal")),
        "funcmod.pair_calls": c.get("funcmod.pair", 0),
        "fock.column_calls": s.get("fock.column", 0),
        "fock.h_column_calls": s.get("fock.h_column", 0),
        "fock.toeplitz_mul_calls": s.get("fock.toeplitz_mul", 0),
        "fock.identities_checked": checked,
        "selfsim.canonical_calls": canonical,
        "selfsim.equal_calls": equal,
        "selfsim.restrict_letter_calls": s.get("selfsim.restrict_letter", 0),
    }
    out = {k: (v, "s") for k, v in seconds.items()}
    out.update({k: (v, "count") for k, v in counts.items()})
    out["abgroup.snf_max_bits"] = (tracer.snf_max_bits, "bits")
    out["fock.skip_ratio"] = (
        skipped / (checked + skipped) if checked + skipped else 0.0, "ratio")
    out["selfsim.equal_per_canonical"] = (
        equal / canonical if canonical else 0.0, "ratio")
    return out


def fock_calls(tracer):
    """Every call the trace saw into the fock layer."""
    return (sum(v for k, v in tracer.calls.items() if k.startswith("fock."))
            + sum(v for k, v in tracer.counts.items()
                  if k.startswith("fock.")))


def abgroup_calls(tracer):
    return sum(v for k, v in tracer.calls.items() if k.startswith("abgroup."))


def _dicts(tree):
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            yield node
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
