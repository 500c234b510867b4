"""Tests for the command line driver: exit codes, reports, determinism."""

import gc
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pimsner.cli import (
    EXIT_PIPE,
    MAX_FOCK_DEPTH,
    MAX_FOCK_DIMENSION,
    _check_fock_budget,
    _selfsim_suites,
    _text_lines,
    json_text,
    main,
)
from pimsner.leavitt import QuiverError, parse_quiver, rose
from pimsner.ringcore import RingError
from pimsner.selfsim import IDENTITY, SelfSimError, odometer, parse_selfsim

ROSE2 = """
vertices: v
edges:
  e: v -> v
  f: v -> v
"""

A2 = "vertices: v w\nedges: e: v -> w\n"

ROSE1 = "vertices: v\nedges: e: v -> v\n"

ROSE3 = "vertices: v\nedges:\n  e: v -> v\n  f: v -> v\n  g: v -> v\n"

EDGELESS = "vertices: v w u\nedges:\n"

BAD = "vertices: v\nedges:\n  e: v -> u\n"

ODOMETER = "alphabet: 0 1\na = (perm 0 1)(e, a)\n"

PV_6X6 = ("2 -65 0 1 0 3; 100 1 0 0 2 0; 0 1 1 0 0 -1; 5 0 0 1 7 0; "
          "0 0 3 0 1 1; 1 0 0 -2 0 0")


DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


@pytest.fixture()
def rose2_file(tmp_path):
    path = tmp_path / "rose2.quiver"
    path.write_text(ROSE2, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestKgroups:
    def test_rose2_k0_vanishes(self, capsys, rose2_file):
        code, out, _ = run(capsys, "kgroups", rose2_file)
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == 1
        assert report["degrees"]["0"]["assembled_group"]["repr"] == "0"
        assert report["regular_vertices"] == ["v"]

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.quiver"
        path.write_text(BAD, encoding="utf-8")
        code, _, err = run(capsys, "kgroups", str(path))
        assert code == 2
        assert "line 3" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "kgroups", "/nonexistent/q.quiver")
        assert code == 2

    @pytest.mark.parametrize("command", ["kgroups", "verify", "selfsim"])
    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_input_exits_2(self, capsys, tmp_path, command, kind):
        if kind == "directory":
            path = tmp_path
        else:
            path = tmp_path / "latin1.quiver"
            path.write_bytes("vertices: \xe9\nedges:\n".encode("latin-1"))
        code, out, err = run(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_edgeless_quiver(self, capsys, tmp_path):
        path = tmp_path / "edgeless.quiver"
        path.write_text(EDGELESS, encoding="utf-8")
        code, out, _ = run(capsys, "kgroups", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["degrees"]["0"]["assembled_group"]["repr"] == "Z^3"
        assert report["matrix_M"]["cols"] == []

    def test_reports_are_deterministic(self, capsys, rose2_file):
        _, out1, _ = run(capsys, "kgroups", rose2_file)
        _, out2, _ = run(capsys, "kgroups", rose2_file)
        assert out1 == out2

    def test_text_output(self, capsys, rose2_file):
        code, out, _ = run(capsys, "kgroups", rose2_file, "--out", "text")
        assert code == 0
        assert "assembled_group" in out

    @pytest.mark.parametrize("name, coeff", [("z", "z"), ("fp3", "fp:3")])
    def test_golden_report(self, capsys, monkeypatch, name, coeff):
        # a seeded 40-vertex quiver with loops, parallel edges, sinks and
        # an isolated vertex; the stored report is compared byte for byte
        monkeypatch.chdir(DATA)
        code, out, _ = run(capsys, "kgroups", "kgroups_q40.quiver",
                           "--coeff", coeff)
        with open(f"kgroups_q40_{name}.json", encoding="utf-8") as handle:
            assert out == handle.read()
        assert code == 0

    def test_finite_field_coefficients(self, capsys, rose2_file):
        code, out, _ = run(capsys, "kgroups", rose2_file, "--coeff", "fp:5")
        assert code == 0
        report = json.loads(out)
        assert report["coefficient_ring"] == "fp:5"

    def test_composite_modulus_rejected(self, capsys, rose2_file):
        code, _, err = run(capsys, "kgroups", rose2_file, "--coeff", "zmod:6")
        assert code == 2
        assert "presets" in err

    def test_malformed_modulus_exits_2(self, capsys, rose2_file):
        code, _, err = run(capsys, "kgroups", rose2_file, "--coeff", "zmod:x")
        assert code == 2
        assert "zmod:x" in err

    def test_huge_modulus_exits_2_quickly(self, capsys, rose2_file):
        # primality of the modulus is decided by trial division, so a
        # 70-bit modulus must be refused before it is tested
        start = time.perf_counter()
        code, _, err = run(capsys, "kgroups", rose2_file, "--coeff",
                           "zmod:1000000000000000000000007")
        assert code == 2
        assert "2**40" in err
        assert time.perf_counter() - start < 1


def test_closed_stdout_exits_quietly(tmp_path):
    # a 200-vertex report (about 490 kB) outgrows the pipe's buffer, so
    # the writer is still writing when the reader leaves after one line
    rng = random.Random(200)
    path = tmp_path / "q200.quiver"
    path.write_text("vertices: " + " ".join(f"v{i}" for i in range(200))
                    + "\nedges:\n" + "".join(
                        f"  e{i}_{k}: v{i} -> v{rng.randrange(200)}\n"
                        for i in range(200) for k in range(3)),
                    encoding="utf-8")
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["pimsner"].__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "pimsner.cli", "kgroups", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    proc.stdout = None
    _, err = proc.communicate(timeout=60)
    assert b"Traceback" not in err
    assert (proc.returncode, err) == (EXIT_PIPE, b"")


# the console script's call, in an interpreter that sees neither site
# packages nor PYTHONPATH: argv[1] is the source root
_BARE_MAIN = ("import sys\n"
              "sys.path.insert(0, sys.argv.pop(1))\n"
              "from pimsner.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")


@pytest.mark.parametrize("argv", [["pv", "--matrix", "2 1; 1 1"],
                                  ["kgroups", "{quiver}"]],
                         ids=["pv", "kgroups"])
def test_bare_interpreter_matches_in_process(capsys, rose2_file, argv):
    # the package needs nothing outside the standard library
    argv = [arg.format(quiver=rose2_file) for arg in argv]
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["pimsner"].__file__)))
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _BARE_MAIN, src, *argv],
        capture_output=True, timeout=60)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert (done.returncode, done.stderr) == (code, b"")
    assert done.stdout == out.encode()


class TestPv:
    def test_identity(self, capsys):
        code, out, _ = run(capsys, "pv", "--matrix", "1")
        assert code == 0
        report = json.loads(out)
        deg0 = report["degrees"]["0"]
        assert deg0["kernel"]["repr"] == "Z"
        assert deg0["cokernel"]["repr"] == "Z"

    def test_sign_flip(self, capsys):
        code, out, _ = run(capsys, "pv", "--matrix", "-1")
        report = json.loads(out)
        assert report["degrees"]["0"]["cokernel"]["repr"] == "Z/2"

    def test_swap(self, capsys):
        code, out, _ = run(capsys, "pv", "--matrix", "0 1; 1 0")
        report = json.loads(out)
        assert report["degrees"]["0"]["kernel"]["repr"] == "Z"
        assert report["degrees"]["0"]["cokernel"]["repr"] == "Z"

    def test_golden_report(self, capsys):
        # non-symmetric, with entries -65 and 100 outside the small-int
        # table of the JSON writer; compared byte for byte
        code, out, _ = run(capsys, "pv", "--matrix", PV_6X6)
        with open(os.path.join(DATA, "pv_6x6.json"),
                  encoding="utf-8") as handle:
            assert out == handle.read()
        assert code == 0

    def test_text_output_keeps_rows_and_items_apart(self, capsys):
        code, out, _ = run(capsys, "pv", "--matrix", "2 1; 1 1",
                           "--out", "text")
        assert code == 0
        lines = out.splitlines()
        at = lines.index("alpha:")
        assert lines[at + 1:at + 3] == ["  - [2, 1]", "  - [1, 1]"]
        assert "  cols: [0, 1]" in lines
        # each component of each degree starts its own "- " item
        assert lines.count("      - coefficient: Z") == 2
        assert "      torsion: []" in lines

    def test_text_output_tells_shapes_apart(self):
        square = list(_text_lines({"m": [[2, 1], [1, 1]]}, ""))
        column = list(_text_lines({"m": [[2], [1], [1], [1]]}, ""))
        flat = list(_text_lines({"m": [2, 1, 1, 1]}, ""))
        assert square == ["m:", "  - [2, 1]", "  - [1, 1]"]
        assert column == ["m:", "  - [2]", "  - [1]", "  - [1]", "  - [1]"]
        assert flat == ["m: [2, 1, 1, 1]"]
        items = list(_text_lines({"c": [{"a": 1, "b": 2}, {"a": 3}]}, ""))
        assert items == ["c:", "  - a: 1", "    b: 2", "  - a: 3"]
        nested = list(_text_lines([[[1, 2], [3]], {}], ""))
        assert nested == ["-", "  - [1, 2]", "  - [3]", "- {}"]

    def test_non_square_exits_2(self, capsys):
        code, _, err = run(capsys, "pv", "--matrix", "1 0")
        assert code == 2

    def test_non_integer_entry_exits_2(self, capsys):
        code, _, err = run(capsys, "pv", "--matrix", "1 x")
        assert code == 2
        assert "integers" in err

    def test_large_torsion_is_not_factored(self, capsys):
        code, out, _ = run(capsys, "pv", "--matrix",
                           "1000000000000000000000008")
        assert code == 0
        report = json.loads(out)
        assert report["degrees"]["0"]["cokernel"]["repr"] == \
            "Z/1000000000000000000000007"

    @pytest.mark.parametrize("argv", [
        ["pv", "--matrix", "2", "--coeff", "fp:5"],
        ["pv", "--matrix", "2", "--seed", "9"],
        ["kgroups", "rose2.quiver", "--seed", "9"]])
    def test_unread_options_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_abgroup_error_exits_2(self, capsys, monkeypatch):
        from pimsner import leavitt
        from pimsner.abgroup import AbgroupError

        def reject(*args, **kwargs):
            raise AbgroupError("bad shape")

        monkeypatch.setattr(leavitt, "crossed_product_k_groups", reject)
        code, _, err = run(capsys, "pv", "--matrix", "1")
        assert code == 2
        assert "bad shape" in err


class TestVerify:
    def test_quiver_passes(self, capsys, tmp_path):
        path = tmp_path / "a2.quiver"
        path.write_text(A2, encoding="utf-8")
        code, out, _ = run(capsys, "verify", str(path),
                           "--fock-depth", "6", "--word-bound", "3")
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "ok"
        names = {c["name"] for c in report["checks"]}
        assert names == {"covariant-representation", "defect-support",
                         "homotopy-endpoints", "pairing-preservation"}
        assert all(c.get("passed", True) for c in report["checks"])

    def test_fock_depth_past_the_budget_exits_2_at_once(
            self, capsys, rose2_file, monkeypatch):
        from pimsner import cli

        def refuse(*_args):
            raise AssertionError("built a Fock module")
        monkeypatch.setattr(cli, "TruncatedFock", refuse)
        code, out, err = run(capsys, "verify", rose2_file,
                             "--fock-depth", "100000")
        assert (code, out) == (2, "")
        assert "131071 basis keys through degree 16" in err

    @pytest.mark.parametrize("text, argv, message", [
        (A2, ["--fock-depth", "100000"],
         "--fock-depth 100000 is too deep: the cap is 64"),
        (ROSE1, ["--fock-depth", "65"],
         "--fock-depth 65 is too deep: the cap is 64"),
        (ROSE2, ["--word-bound", "30"],
         "word bound 30 gives more than 65536 normal words"),
    ])
    def test_past_the_depth_cap_or_word_budget_exits_2_at_once(
            self, capsys, tmp_path, monkeypatch, text, argv, message):
        # a2's path counts end and rose1 has one key per degree, so the
        # key budget never trips on them
        from pimsner import cli

        def refuse(*_args):
            raise AssertionError("built a Fock module")
        monkeypatch.setattr(cli, "TruncatedFock", refuse)
        path = tmp_path / "q.quiver"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "verify", str(path), *argv)
        assert (code, out) == (2, "")
        assert message in err

    def test_fock_depth_cap(self):
        for quiver in (rose(1), parse_quiver(A2)):
            _check_fock_budget(quiver, MAX_FOCK_DEPTH)
            with pytest.raises(RingError, match=f"--fock-depth "
                               f"{MAX_FOCK_DEPTH + 1} is too deep"):
                _check_fock_budget(quiver, MAX_FOCK_DEPTH + 1)

    @pytest.mark.parametrize("edges, depth, refused", [
        (2, 14, False), (2, 15, False), (3, 6, False), (6, 6, False),
        (2, 16, True), (6, 7, True),
    ])
    def test_fock_budget(self, edges, depth, refused):
        # rose_d has d^n keys in degree n.  The largest Fock module of the
        # acceptance family (at most 6 edges, depth 6) is rose6's 55,987
        # keys, and rose2 at depth 14 (32,767 keys) runs in seconds.
        quiver = rose(edges)
        keys = sum(edges ** n for n in range(depth + 1))
        assert sum(islice(quiver.path_counts(), depth + 1)) == keys
        assert (keys > MAX_FOCK_DIMENSION) == refused
        if refused:
            with pytest.raises(RingError, match=f"--fock-depth {depth} is"):
                _check_fock_budget(quiver, depth)
        else:
            _check_fock_budget(quiver, depth)

    def test_insufficient_depth_exits_3(self, capsys, tmp_path):
        path = tmp_path / "a2.quiver"
        path.write_text(A2, encoding="utf-8")
        code, out, _ = run(capsys, "verify", str(path), "--fock-depth", "1")
        assert code == 3
        report = json.loads(out)
        defect = [c for c in report["checks"]
                  if c["name"] == "defect-support"][0]
        assert defect["status"] == "insufficient depth"

    def test_rose2_counts_with_one_homotopy_per_generator(
            self, capsys, rose2_file, monkeypatch):
        from pimsner import cli, fock
        calls = []
        real_H = fock.homotopy_H

        def counted(model, token):
            calls.append(token)
            return real_H(model, token)

        monkeypatch.setattr(fock, "homotopy_H", counted)
        monkeypatch.setattr(cli, "homotopy_H", counted)
        code, out, _ = run(capsys, "verify", rose2_file,
                           "--fock-depth", "6", "--word-bound", "3")
        assert code == 0
        counts = {c["name"]: (c["checked"], c["skipped"])
                  for c in json.loads(out)["checks"]}
        assert counts == {"covariant-representation": (12, 8),
                          "defect-support": (48, 0),
                          "homotopy-endpoints": (1356, 164),
                          "pairing-preservation": (2904, 644)}
        # two x, two phi and one scalar generator
        assert len(calls) == 5

    def test_a_perturbed_pi1_leaf_fails_the_defect_suite(
            self, capsys, rose2_file, monkeypatch):
        # pi1 of T_e keeping the vacuum, as pi0 does, leaves pi1 alive on
        # the vacuum of each creation word that applies T_e first: 7 of the
        # 48 normal words.  The suite sums no defect, and still fails there
        from pimsner.fock import TruncatedFock
        real_leaf = TruncatedFock._leaf

        def kept(fk, kind, sym, variant):
            if (kind, sym, variant) == ("x", "e", "pi1"):
                variant = "pi0"
            return real_leaf(fk, kind, sym, variant)

        monkeypatch.setattr(TruncatedFock, "_leaf", kept)
        code, out, _ = run(capsys, "verify", rose2_file,
                           "--fock-depth", "6", "--word-bound", "3")
        assert code == 4
        [defect] = [c for c in json.loads(out)["checks"]
                    if c["name"] == "defect-support"]
        assert (defect["checked"], len(defect["failures"])) == (41, 7)
        assert set(defect["failures"]) == {
            f"pi1 of {('w', p + ('e',), ())} does not vanish at degree 0"
            for p in [(), ("e",), ("f",), ("e", "e"), ("e", "f"),
                      ("f", "e"), ("f", "f")]}

    def test_doubled_lam1_fails_only_pairing(self, capsys, rose2_file,
                                            monkeypatch):
        # the shared homotopies are built from the perturbed model, and
        # H(1) = lam1 + pi1 holds for any lam1, so only pairing fails
        from pimsner.fock import HomotopyModel
        real_lam1 = HomotopyModel.lam1

        def doubled(self, token):
            lam1 = real_lam1(self, token)
            return lam1 + lam1

        monkeypatch.setattr(HomotopyModel, "lam1", doubled)
        code, out, _ = run(capsys, "verify", rose2_file,
                           "--fock-depth", "6", "--word-bound", "3")
        assert code == 4
        report = json.loads(out)
        assert report["status"] == "failed"
        assert {c["name"] for c in report["checks"] if not c["passed"]} == \
            {"pairing-preservation"}

    def test_bent_rotation_coefficient_fails_identity_and_homotopy(
            self, capsys, rose2_file, monkeypatch):
        # lam1's coefficient on H(T_x) becomes 2t - 2t^3: the identity reads
        # the table homotopy_H builds from, so it fails with both suites
        from pimsner import fock
        monkeypatch.setitem(fock._ROTATION, "x",
                            (fock._ROTATION["x"][0], {1: 2, 3: -2}))
        code, out, _ = run(capsys, "verify", rose2_file,
                           "--fock-depth", "4", "--word-bound", "2")
        assert code == 4
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["homotopy-endpoints"]["coefficient_identity"] is False
        assert {name for name, c in checks.items() if not c["passed"]} == \
            {"homotopy-endpoints", "pairing-preservation"}
        assert len(checks["homotopy-endpoints"]["failures"]) == 6
        assert len(checks["pairing-preservation"]["failures"]) == 6

    def test_rose2_builds_each_lift_once(self, capsys, rose2_file,
                                         monkeypatch):
        # 17 blocks: pi0, pi1 and lam0 of each x and phi, pi0 of v, and
        # one lam1 per x and phi; the zero scalar on the pairing side has no
        # block.  Each lam1 block reads off the tables its product with j(v),
        # rose2's one left support, and with each of the 49 degree-0 words,
        # so 4 x (1 + 49) _times reads, and makes no try_mul: no creation
        # part is of top degree and every normal form has one key.  7
        # columns: each basis symbol's pi0 leaf reads only the keys of the
        # degree next to the vacuum through _column, 1 for each x (the
        # vacuum), 2 for each phi (degree 1) and 1 for v, so 2 + 4 + 1;
        # every higher key is read off the shared tables.  pi1 copies pi0's
        # leaf, and the zero scalar splits into no leaf
        from pimsner.fock import (HomotopyModel, ToeplitzAlgebra,
                                  TruncatedFock, _Block)
        counts = {}
        for cls, name in [(_Block, "__init__"), (HomotopyModel, "_times"),
                          (ToeplitzAlgebra, "try_mul"),
                          (TruncatedFock, "_column")]:
            counts[name] = 0

            def counted(*args, _real=getattr(cls, name), _name=name):
                counts[_name] += 1
                return _real(*args)
            monkeypatch.setattr(cls, name, counted)
        code, _, _ = run(capsys, "verify", rose2_file,
                         "--fock-depth", "6", "--word-bound", "3")
        assert code == 0
        assert counts == {"__init__": 17, "_times": 200, "try_mul": 0,
                          "_column": 7}

    def test_verify_leaves_no_reference_cycles(self, capsys, tmp_path):
        # a finished verify op is freed by reference counting: the cycle
        # collector finds none of its Fock modules, operators or models
        from pimsner.fock import FockOperator, HomotopyModel, TruncatedFock
        path = tmp_path / "rose3.quiver"
        path.write_text(ROSE3, encoding="utf-8")
        gc.collect()
        gc.disable()
        try:
            code, _, _ = run(capsys, "verify", str(path),
                             "--fock-depth", "4", "--word-bound", "3")
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            leaked = [type(obj).__name__ for obj in gc.garbage
                      if isinstance(obj, (TruncatedFock, FockOperator,
                                          HomotopyModel))]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert code == 0
        assert leaked == []

    @pytest.mark.parametrize("name, text, argv", [
        ("rose2", ROSE2, ["--fock-depth", "6", "--word-bound", "3"]),
        ("a2", A2, ["--fock-depth", "6", "--word-bound", "3"]),
        ("rose3", ROSE3, ["--fock-depth", "4", "--word-bound", "3"]),
        ("rose2_zmod6", ROSE2, ["--fock-depth", "6", "--word-bound", "3",
                                "--coeff", "zmod:6"]),
    ])
    def test_golden_report(self, capsys, tmp_path, name, text, argv):
        # the whole report is pinned, so a change to the Fock or homotopy
        # layers must keep every count; the input path is a temporary
        # file, so the stored reports read "INPUT" there
        path = tmp_path / f"{name}.quiver"
        path.write_text(text, encoding="utf-8")
        code, out, _ = run(capsys, "verify", str(path), "--out", "json",
                           *argv)
        report = json.loads(out)
        assert report["input"] == str(path)
        report["input"] = "INPUT"
        with open(os.path.join(DATA, f"verify_{name}.json"),
                  encoding="utf-8") as handle:
            assert report == json.load(handle)
        assert code == 0

    def test_python_m_pimsner_prints_the_golden_report(self, tmp_path):
        # the package runs as a module from its source tree, uninstalled
        path = tmp_path / "rose2.quiver"
        path.write_text(ROSE2, encoding="utf-8")
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            sys.modules["pimsner"].__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "pimsner", "verify", str(path),
             "--fock-depth", "6", "--word-bound", "3"],
            capture_output=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src})
        assert (proc.returncode, proc.stderr) == (0, b"")
        report = json.loads(proc.stdout)
        assert report["input"] == str(path)
        report["input"] = "INPUT"
        with open(os.path.join(DATA, "verify_rose2.json"),
                  encoding="utf-8") as handle:
            assert report == json.load(handle)

    def test_selfsim_suites_pass(self, capsys, tmp_path):
        path = tmp_path / "odometer.selfsim"
        path.write_text(ODOMETER, encoding="utf-8")
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "self-similar"
        assert {c["name"] for c in report["checks"]} == \
            {"correspondence", "action-bijective", "self-similarity",
             "cocycle"}
        assert all(c["failures"] == 0 for c in report["checks"])

    @pytest.mark.parametrize("flag", ["--fock-depth", "--word-bound"])
    def test_selfsim_refuses_the_quiver_options(self, capsys, tmp_path,
                                                flag):
        # a self-similar group reads neither option, so neither is echoed
        path = tmp_path / "odometer.selfsim"
        path.write_text(ODOMETER, encoding="utf-8")
        code, out, err = run(capsys, "verify", str(path), flag, "100000")
        assert (code, out) == (2, "")
        assert flag in err

    def test_both_kinds_echo_the_quiver_defaults(self, capsys, tmp_path):
        want = {"fock_depth": 6, "word_bound": 4, "coeff": "z", "depth": 0}
        for name, text in [("odometer.selfsim", ODOMETER), ("a2.quiver", A2)]:
            path = tmp_path / name
            path.write_text(text, encoding="utf-8")
            code, out, _ = run(capsys, "verify", str(path))
            assert code == 0
            assert json.loads(out)["config"] == want

    def test_seed_recorded_and_deterministic(self, capsys, tmp_path):
        path = tmp_path / "odometer.selfsim"
        path.write_text(ODOMETER, encoding="utf-8")
        _, out1, _ = run(capsys, "verify", str(path), "--seed", "5")
        _, out2, _ = run(capsys, "verify", str(path), "--seed", "5")
        assert out1 == out2
        assert json.loads(out1)["seed"] == 5


class TestSelfsim:
    def test_odometer_report(self, capsys, tmp_path):
        path = tmp_path / "odometer.selfsim"
        path.write_text(ODOMETER, encoding="utf-8")
        code, out, _ = run(capsys, "selfsim", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["correspondence"]["hom_check"] is True
        assert report["k_groups"] is None

    def test_trivial_group_gets_k_groups(self, capsys, tmp_path):
        path = tmp_path / "trivial.selfsim"
        path.write_text("alphabet: 0 1 2\n", encoding="utf-8")
        code, out, _ = run(capsys, "selfsim", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["k_groups"]["degrees"]["0"]["assembled_group"]["repr"] \
            == "Z/2"

    def test_supplied_matrix(self, capsys, tmp_path):
        path = tmp_path / "odometer.selfsim"
        path.write_text(ODOMETER, encoding="utf-8")
        code, out, _ = run(capsys, "selfsim", str(path), "--matrix", "1")
        assert code == 0
        report = json.loads(out)
        assert report["k_groups"]["degrees"]["0"]["kernel"]["repr"] == "Z"

    def test_parse_error_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.selfsim"
        path.write_text("alphabet: 0 1\na = (perm 0 1)(e)\n", encoding="utf-8")
        code, _, err = run(capsys, "selfsim", str(path))
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize("text, needle", [
        ("alphabet: 0 1\n1 = (perm 0 1)(e, 1)\n", "line 2: bad generator"),
        ("alphabet: 0 1\na = (perm 0 1)(e, a)\na = (e, e)\n",
         "line 3: generator 'a' defined twice"),
        # the first used to parse as the identity and exit 0, the second
        # to fail as "not a permutation" with no line
        ("alphabet: 0 1\na = (perm 0 0)(e, a)\n",
         "line 2: letter '0' repeats in cycle"),
        ("alphabet: 0 1\n\na = (perm 0 1 0)(e, a)\n",
         "line 3: letter '0' repeats in cycle"),
    ], ids=["unreadable-name", "defined-twice", "cycle-repeats-a-letter",
            "longer-cycle-repeats-a-letter"])
    def test_malformed_generator_exits_2(self, capsys, tmp_path, text,
                                          needle):
        path = tmp_path / "bad.selfsim"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "selfsim", str(path))
        assert code == 2 and out == ""
        assert needle in err

    def test_failed_correspondence_law_exits_4(self, capsys, tmp_path,
                                               monkeypatch):
        # a failed law is a failed identity: exit 4, as verify reports it,
        # while a malformed file is still a parse error
        from pimsner import selfsim

        def reject(*args, **kwargs):
            raise SelfSimError("cocycle law fails")

        monkeypatch.setattr(selfsim, "build_nek_correspondence", reject)
        path = tmp_path / "odometer.selfsim"
        path.write_text(ODOMETER, encoding="utf-8")
        code, out, err = run(capsys, "selfsim", str(path))
        assert code == 4
        assert out == ""
        assert "cocycle law fails" in err
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 4
        assert json.loads(out)["status"] == "failed"
        bad = tmp_path / "bad.selfsim"
        bad.write_text("alphabet: 0 1\na = (perm 0 1)(e)\n", encoding="utf-8")
        code, _, err = run(capsys, "selfsim", str(bad))
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize("depth", [
        "x", "-1", "2.5", "", "0", "10001",
        pytest.param("9" * 5000, id="5000-digits")])
    def test_malformed_depth_exits_2(self, capsys, tmp_path, depth):
        path = tmp_path / "bad.selfsim"
        path.write_text(f"alphabet: 0 1\ndepth: {depth}\n"
                        "a = (perm 0 1)(e, a)\n", encoding="utf-8")
        code, _, err = run(capsys, "selfsim", str(path))
        assert code == 2
        assert "line 2" in err and "depth" in err
        assert "Traceback" not in err and len(err) < 200

    def test_largest_depth_is_accepted(self, capsys, tmp_path):
        path = tmp_path / "deep.selfsim"
        path.write_text("alphabet: 0 1\ndepth: 010000\n"
                        "a = (perm 0 1)(e, a)\n", encoding="utf-8")
        code, out, _ = run(capsys, "selfsim", str(path))
        assert code == 0
        assert json.loads(out)["group"]["equality_depth"] == 10000

    @pytest.mark.parametrize("command", ["selfsim", "verify",
                                         "verify-quiver"])
    def test_depth_option_past_the_bound_exits_2(self, capsys, tmp_path,
                                                 command):
        # a quiver file ignores --depth, but does not echo an unbounded one
        if command == "verify-quiver":
            command, path = "verify", tmp_path / "rose2.quiver"
            path.write_text(ROSE2, encoding="utf-8")
        else:
            path = tmp_path / "odometer.selfsim"
            path.write_text(ODOMETER, encoding="utf-8")
        for depth in ["10001", "99999999"]:
            code, out, err = run(capsys, command, str(path), "--depth", depth)
            assert code == 2
            assert out == ""
            assert "equality depth must be at most 10000" in err

    @pytest.mark.parametrize("command", ["selfsim", "verify"])
    @pytest.mark.parametrize("depth", ["0", "-1"])
    def test_nonpositive_depth_option_exits_2(self, capsys, tmp_path,
                                              command, depth):
        path = tmp_path / "odometer.selfsim"
        path.write_text(ODOMETER, encoding="utf-8")
        code, out, err = run(capsys, command, str(path), "--depth", depth)
        assert code == 2
        assert out == ""
        assert "equality depth must be at least 1" in err

    def test_depth_option_overrides_file(self, capsys, tmp_path):
        path = tmp_path / "odometer.selfsim"
        path.write_text("alphabet: 0 1\ndepth: 5\na = (perm 0 1)(e, a)\n",
                        encoding="utf-8")
        code, out, _ = run(capsys, "selfsim", str(path))
        assert code == 0
        assert json.loads(out)["group"]["equality_depth"] == 5
        code, out, _ = run(capsys, "selfsim", str(path), "--depth", "3")
        assert code == 0
        assert json.loads(out)["group"]["equality_depth"] == 3
        code, out, _ = run(capsys, "verify", str(path), "--depth", "3")
        assert code == 0
        assert json.loads(out)["config"]["depth"] == 3


class TestSelfsimSuitesCanFail:
    """Each selfsim suite passes on the odometer and fails on one fault."""

    A = (("a", 1),)

    def failures(self, group):
        suites = _selfsim_suites(group, 3, 6)
        return {s["name"]: s["failures"] for s in suites}

    def test_unmodified_group_passes(self):
        assert set(self.failures(odometer()).values()) == {0}

    @staticmethod
    def corrupt(group, word, x, image, restriction):
        """Overwrite the section table entry of a word at the letter x."""
        wid = group._word_id(word)
        images, children = group._word_sections[wid] or group._entry(wid)
        i = group.alphabet.index(x)
        group._word_sections[wid] = (
            images[:i] + (image,) + images[i + 1:],
            children[:i] + (group._word_id(restriction),) + children[i + 1:])

    def test_action_bijective_sees_a_collision(self):
        group = odometer()
        # a now sends 0 and 1 to 1
        self.corrupt(group, self.A, "1", "1", self.A)
        assert self.failures(group)["action-bijective"] > 0

    @staticmethod
    def bijective_by_levels(group, depth):
        """Oracle: materialize every image of X^n, level by level."""
        checked = failures = 0
        for gen in group.generators:
            level = [((), group.gen_word(gen))]
            for n in range(1, depth + 1):
                if len(group.alphabet) ** n > 10 ** 5:
                    break
                level = [(image + (y,), r) for image, g in level
                         for y, r in group.sections(g).values()]
                checked += len(level)
                failures += len({image for image, _ in level}) != len(level)
        return checked, failures

    @pytest.mark.parametrize("fault", ["none", "a", "identity",
                                       "basilica-b"])
    def test_action_bijective_matches_materialized_levels(self, fault):
        # a collision in a section's letter map fails the first level that
        # reaches the section and every later level; basilica reaches b
        # from a only at even levels
        if fault == "basilica-b":
            group = parse_selfsim("alphabet: 0 1\na = (e, b)\n"
                                  "b = (perm 0 1)(e, a)\n")
            self.corrupt(group, (("b", 1),), "1", "1", self.A)
        else:
            group = odometer()
        if fault == "a":
            self.corrupt(group, self.A, "1", "1", self.A)
        elif fault == "identity":
            # the identity is first reached as the section a|_0
            self.corrupt(group, IDENTITY, "1", "0", IDENTITY)
        suite = _selfsim_suites(group, 3, 6)[0]
        assert suite["name"] == "action-bijective"
        want = self.bijective_by_levels(group, 6)
        assert (suite["checked"], suite["failures"]) == want
        assert want[1] == {"none": 0, "a": 6, "identity": 5,
                           "basilica-b": 11}[fault]

    def test_self_similarity_sees_a_corrupt_entry(self):
        group = odometer()
        # a|_1 is a; the table now claims the identity
        self.corrupt(group, self.A, "1", "0", IDENTITY)
        assert self.failures(group)["self-similarity"] > 0

    def test_cocycle_sees_a_perturbed_restriction(self):
        group = odometer()
        restrict = group.restrict_letter

        def perturbed(word, x):
            if word == self.A and x == "1":
                return IDENTITY
            return restrict(word, x)

        group.restrict_letter = perturbed
        assert self.failures(group)["cocycle"] > 0


# Short text built from the tokens of both input formats, or arbitrary
# characters, so that examples reach the deeper branches of both parsers.
_PIECES = ["vertices:", "edges:", "alphabet:", "depth:", "perm", "->", ":",
           "=", "(", ")", ",", "*", "^-1", "e", "a", "b", "v", "w", "0",
           "1", "-", "x", "#", " ", "\n"]
FUZZ_TEXT = st.one_of(
    st.lists(st.sampled_from(_PIECES), max_size=30).map("".join),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=60))


class TestFuzzedInput:
    """Arbitrary short text is a report or a parse error, never a crash."""

    @settings(max_examples=300, deadline=None)
    @given(text=FUZZ_TEXT)
    def test_parsers_raise_only_their_errors(self, text):
        for parse, error in ((parse_quiver, QuiverError),
                             (parse_selfsim, SelfSimError)):
            try:
                parse(text)
            except error:
                pass

    @settings(max_examples=200, deadline=None)
    @given(text=FUZZ_TEXT)
    def test_kgroups_exits_0_or_2(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.quiver")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            with redirect_stdout(io.StringIO()), \
                    redirect_stderr(io.StringIO()):
                code = main(["kgroups", path])
        assert code in (0, 2)


JSON_LEAVES = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(min_value=-2 ** 200, max_value=2 ** 200),
    st.text(), st.text(st.characters(max_codepoint=0x1f)),
    st.lists(st.one_of(st.integers(), st.booleans())))
JSON_TREES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(st.text(), max_size=5),
        st.dictionaries(st.text(), inner, max_size=5)),
    max_leaves=40)


class TestJsonText:
    """``json_text`` is byte for byte ``json.dumps(..., indent=2,
    sort_keys=True)`` on every tree a report can be."""

    @settings(max_examples=200, deadline=None)
    @given(tree=JSON_TREES)
    def test_matches_json_dumps(self, tree):
        assert json_text(tree) == json.dumps(tree, indent=2, sort_keys=True)

    @pytest.mark.parametrize("tree", [
        {}, [], (), {"a": [], "b": {}, "c": ()}, [[], [[]], {}],
        [1, True, 2, False, None], [-(10 ** 40), 0, 10 ** 40],
        ["\u00e9\u2603\U0001f600", "\x00\x1f\"\\\n\t", ""],
        {"": "", "\u00e9": ["\x7f"], "a b": {"\n": None, "\"": [()]}},
        {"z": 1, "a": {"y": [1, 2], "b": ("x", "\u00fc")}},
    ])
    def test_edge_cases(self, tree):
        assert json_text(tree) == json.dumps(tree, indent=2, sort_keys=True)

    @pytest.mark.parametrize("tree", [
        [-65, -64, 64, 65], [-64, 0, 64], [-65], [65], [-(10 ** 40)],
        [10 ** 40, -(10 ** 40)], [0, 1, -1, 65, -64, -65, 64, 10 ** 40],
        [[1, 2, 3], [-64, 64, -65], [100, 0, 0]], [1, True], [True, 1],
        [True, False, True], (1, -2, 3), ((64, 65), (-65, -64)), [],
        {"row": [], "rows": [[], [0]]},
    ])
    def test_int_rows(self, tree):
        # rows inside, outside and across the small-int table
        assert json_text(tree) == json.dumps(tree, indent=2, sort_keys=True)

    @pytest.mark.parametrize("tree", [
        {1: "a"}, {"a": {None: 1}}, [{(1, 2): 0}], {"a": 1, 2: "b"}])
    def test_non_str_key_raises(self, tree):
        with pytest.raises(TypeError):
            json_text(tree)

    @pytest.mark.parametrize("value", [{1, 2}, object(), b"bytes", 1j,
                                       0.1, float("nan")])
    def test_unserializable_value_raises(self, value):
        # no report holds a float, so the writer has no float branch
        with pytest.raises(TypeError):
            json_text({"a": [value]})


class TestParserReuse:
    """``main`` builds its parser once; no call sees the options of the
    call before it."""

    def test_verify_depth_resets(self, capsys, tmp_path):
        path = tmp_path / "odometer.selfsim"
        path.write_text(ODOMETER, encoding="utf-8")
        code, out, _ = run(capsys, "verify", str(path), "--depth", "5")
        assert code == 0
        assert json.loads(out)["config"]["depth"] == 5
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert json.loads(out)["config"]["depth"] == 0

    def test_selfsim_matrix_resets(self, capsys, tmp_path):
        path = tmp_path / "odometer.selfsim"
        path.write_text(ODOMETER, encoding="utf-8")
        code, out, _ = run(capsys, "selfsim", str(path), "--matrix", "1")
        assert code == 0
        assert json.loads(out)["k_groups"] is not None
        code, out, _ = run(capsys, "selfsim", str(path))
        assert code == 0
        assert '"k_groups": null' in out
        assert json.loads(out)["k_groups"] is None

    def test_usage_error_and_version_after_a_call(self, capsys, rose2_file):
        assert run(capsys, "kgroups", rose2_file)[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["kgroups", rose2_file, "--out", "yaml"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert run(capsys, "kgroups", rose2_file)[0] == 0
