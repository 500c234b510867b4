"""Tests for the command line driver: exit codes, reports, determinism."""

import io
import json
import os
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pimsner.cli import main
from pimsner.leavitt import QuiverError, parse_quiver
from pimsner.selfsim import SelfSimError, parse_selfsim

ROSE2 = """
vertices: v
edges:
  e: v -> v
  f: v -> v
"""

A2 = "vertices: v w\nedges: e: v -> w\n"

EDGELESS = "vertices: v w u\nedges:\n"

BAD = "vertices: v\nedges:\n  e: v -> u\n"

ODOMETER = "alphabet: 0 1\na = (perm 0 1)(e, a)\n"


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

    def test_insufficient_depth_exits_3(self, capsys, tmp_path):
        path = tmp_path / "a2.quiver"
        path.write_text(A2, encoding="utf-8")
        code, out, _ = run(capsys, "verify", str(path), "--fock-depth", "1")
        assert code == 3
        report = json.loads(out)
        defect = [c for c in report["checks"]
                  if c["name"] == "defect-support"][0]
        assert defect["status"] == "insufficient depth"

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

    @pytest.mark.parametrize("depth", ["x", "-1", "2.5", ""])
    def test_malformed_depth_exits_2(self, capsys, tmp_path, depth):
        path = tmp_path / "bad.selfsim"
        path.write_text(f"alphabet: 0 1\ndepth: {depth}\n"
                        "a = (perm 0 1)(e, a)\n", encoding="utf-8")
        code, _, err = run(capsys, "selfsim", str(path))
        assert code == 2
        assert "line 2" in err and "depth" in err


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
