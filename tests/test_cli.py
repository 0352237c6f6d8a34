import concurrent.futures
import gc
import hashlib
import io
import json
import re
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta

import pytest
from hypothesis import given, settings, strategies as st

import sagakit.algebra as algebra_module
import sagakit.apolarity as apolarity_module
import sagakit.gnlab as gnlab_module
from sagakit.algebra import GradedAlgebra
from sagakit.apolarity import is_cone
from sagakit.cli import main
from sagakit.polyring import (FieldSpec, RATIONAL, Polynomial, monomial_basis,
                              parse_poly)

PERAZZO = "x0*x3^2 + 2*x1*x3*x4 + x2*x4^2"

# four quadrics in four variables, coefficients drawn from -3..3 by
# random.Random(4); a complete intersection over Q
QUADRIC_CI4 = (
    "-2*x0^2 - x0*x1 - 3*x0*x2 + 2*x0*x3 - 2*x1*x3 - 3*x2^2 - 3*x2*x3 - 3*x3^2;"
    "x0*x1 - x0*x2 + 3*x0*x3 + 3*x1^2 - 3*x1*x2 - 2*x1*x3 + x2^2 + x2*x3 - x3^2;"
    "-x0^2 + 3*x0*x1 - 2*x0*x2 + 3*x0*x3 - 3*x1^2 - x1*x2 - 2*x1*x3 - 3*x2^2"
    " + 3*x2*x3 + 2*x3^2;"
    "3*x0^2 - x0*x1 + 3*x0*x2 - x0*x3 - 2*x1^2 - 2*x1*x2 - x1*x3 - x2^2"
    " + 2*x2*x3 + 3*x3^2")

# five quadrics in five variables, every coefficient drawn from -9..9 by
# random.Random(5) in monomial_basis order; a complete intersection over
# Q, over F_32003 and over F_7
QUADRIC_CI5 = (
    "-x0^2 + 2*x0*x1 + 7*x0*x2 - 9*x0*x3 + 5*x0*x4 - 2*x1^2 - 8*x1*x2 -"
    " 4*x1*x3 - 6*x1*x4 + 2*x2^2 + 6*x2*x3 - 2*x2*x4 + 3*x3^2 + 8*x3*x4"
    " - 6*x4^2;"
    "9*x0^2 - 2*x0*x1 - 9*x0*x2 - 3*x0*x3 + 4*x0*x4 - x1^2 - 4*x1*x2 +"
    " 3*x1*x3 - 4*x1*x4 - 7*x2^2 - 5*x2*x3 + 5*x2*x4 - 5*x3^2 - 5*x3*x4"
    " - 9*x4^2;"
    "-9*x0^2 - 3*x0*x1 - 3*x0*x2 - 4*x0*x3 - 4*x0*x4 + x1*x2 - 3*x1*x3"
    " + 8*x1*x4 - 3*x2^2 - 4*x2*x3 - 3*x2*x4 + 3*x3^2 - 9*x4^2;"
    "2*x0^2 + 4*x0*x1 - 4*x0*x2 - 5*x0*x3 - x0*x4 - 7*x1^2 + x1*x2 +"
    " 9*x1*x4 - 9*x2^2 + x2*x3 - 7*x2*x4 + 2*x3*x4;"
    "6*x0^2 + x0*x1 - 4*x0*x2 + 6*x0*x3 + 6*x0*x4 - 4*x1^2 - 8*x1*x2 -"
    " x1*x3 - 9*x1*x4 + 2*x2^2 + 3*x2*x3 - 9*x2*x4 + 8*x3^2 + 4*x3*x4 +"
    " 2*x4^2")


# every degree-4 monomial in five variables, coefficients drawn from
# {-3, -2, -1, 1, 2, 3} by random.Random(54) in monomial_basis order; not a
# cone, and its hessian is nonzero
DENSE_QUARTIC5 = (
    "-2*x0^4 + x0^3*x1 + 2*x0^3*x2 - x0^3*x3 + x0^3*x4 + x0^2*x1^2 + "
    "x0^2*x1*x2 - 2*x0^2*x1*x3 + x0^2*x1*x4 - x0^2*x2^2 + 2*x0^2*x2*x3 "
    "+ 3*x0^2*x2*x4 + x0^2*x3^2 - 2*x0^2*x3*x4 + 3*x0^2*x4^2 - "
    "2*x0*x1^3 - 3*x0*x1^2*x2 + x0*x1^2*x3 + 2*x0*x1^2*x4 + x0*x1*x2^2 "
    "+ 2*x0*x1*x2*x3 - 3*x0*x1*x2*x4 + 2*x0*x1*x3^2 - x0*x1*x3*x4 + "
    "2*x0*x1*x4^2 - x0*x2^3 + x0*x2^2*x3 - x0*x2^2*x4 + 2*x0*x2*x3^2 - "
    "2*x0*x2*x3*x4 - 3*x0*x2*x4^2 + 3*x0*x3^3 - x0*x3^2*x4 - x0*x3*x4^2 "
    "+ x0*x4^3 + 2*x1^4 - 3*x1^3*x2 + x1^3*x3 + 3*x1^3*x4 - 3*x1^2*x2^2 "
    "- x1^2*x2*x3 - x1^2*x2*x4 - 3*x1^2*x3^2 - 2*x1^2*x3*x4 + "
    "3*x1^2*x4^2 - 3*x1*x2^3 - 2*x1*x2^2*x3 + 3*x1*x2^2*x4 - "
    "2*x1*x2*x3^2 + x1*x2*x3*x4 - 2*x1*x2*x4^2 - 3*x1*x3^3 + "
    "3*x1*x3^2*x4 - 2*x1*x3*x4^2 + x1*x4^3 + x2^4 + 2*x2^3*x3 - "
    "2*x2^3*x4 + x2^2*x3^2 - 2*x2^2*x3*x4 - 2*x2^2*x4^2 + 3*x2*x3^3 + "
    "2*x2*x3^2*x4 - 3*x2*x3*x4^2 + 3*x2*x4^3 + x3^4 + 2*x3^3*x4 - "
    "2*x3^2*x4^2 - x3*x4^3 + x4^4")

# quadric, cubic, quadric, cubic in four variables, every coefficient of the
# form drawn from -9..9 by random.Random(23) in monomial_basis order (zeros
# dropped); a complete intersection over F_32003
MIXED_CI4 = (
    "-7*x0*x1 - 9*x0*x2 + 9*x0*x3 + 4*x1*x2 + 3*x1*x3 + 7*x2^2 + 2*x2*x3"
    " - 5*x3^2;"
    "-3*x0^3 - x0^2*x1 + 5*x0^2*x2 - 9*x0^2*x3 - 2*x0*x1^2 + 5*x0*x1*x2"
    " - 9*x0*x1*x3 - 6*x0*x2^2 - 7*x0*x2*x3 + 6*x0*x3^2 + 4*x1^3"
    " - 9*x1^2*x2 + 7*x1^2*x3 + 4*x1*x2^2 + 2*x1*x2*x3 - 8*x1*x3^2"
    " - 3*x2^3 - 8*x2^2*x3 + 9*x2*x3^2 + 2*x3^3;"
    "-4*x0^2 - 3*x0*x1 + 2*x0*x2 + 9*x0*x3 + 2*x1^2 + 9*x1*x2 + x2^2"
    " + 9*x2*x3 - 7*x3^2;"
    "6*x0^3 - 4*x0^2*x1 + 6*x0^2*x2 + 9*x0^2*x3 + 5*x0*x1^2 - 4*x0*x1*x2"
    " - 4*x0*x1*x3 - 4*x0*x2^2 + 8*x0*x2*x3 + x0*x3^2 + 7*x1^3"
    " - 3*x1^2*x2 + 9*x1^2*x3 - 6*x1*x2^2 - 7*x1*x2*x3 - 6*x1*x3^2"
    " + 4*x2^3 - 8*x2^2*x3 + 9*x2*x3^2 - x3^3")

# two quadrics f0, f1 in x0..x2 (random.Random(31)), x2*f0 - x3*f1 and a third
# quadric: not a regular sequence, h_3 is 8 where the series says 7
NOT_REGULAR4 = (
    "-9*x0^2 + 6*x0*x1 - 6*x0*x2 + 3*x1^2 - 5*x1*x2 - 8*x2^2;"
    "-5*x0^2 - 6*x0*x1 + 8*x0*x2 - 2*x1^2 - 5*x1*x2 - 5*x2^2;"
    "-9*x0^2*x2 + 5*x0^2*x3 + 6*x0*x1*x2 + 6*x0*x1*x3 - 6*x0*x2^2"
    " - 8*x0*x2*x3 + 3*x1^2*x2 + 2*x1^2*x3 - 5*x1*x2^2 + 5*x1*x2*x3"
    " - 8*x2^3 + 5*x2^2*x3;"
    "-8*x0^2 - 8*x0*x1 - 5*x0*x2 - 2*x1^2 + 8*x1*x2 + 5*x2^2")

# a Perazzo-type cubic x0*g0 + x1*g1 + x2*g2 with g0, g1, g2 independent
# quadrics in x3, x4 (also mod 7): not a cone, and its hessian vanishes
PERAZZO_TYPE = "x0*x3^2 + 3*x1*x3*x4 + x1*x4^2 + x2*x3^2 + 5*x2*x4^2"

# a Perazzo cubic whose variable tables over Q have denominator 5 in degrees
# 1 and 2, so its products and gamma samples run through non-integral values
PERAZZO_DEN5 = "3*x0*x3^2 + 2*x1*x3*x4 + 5*x2*x4^2"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_perazzo_json(self, capsys):
        code, out, _ = run(capsys, "analyze", PERAZZO)
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == 1
        assert report["algebra"]["hilbert"] == [1, 5, 5, 1]
        assert report["cone"] is False
        assert report["hessian_vanishes"] is True
        slp1 = [p for p in report["probes"]
                if p["kind"] == "SLP" and p["k"] == 1][0]
        assert slp1["holds"] is False and slp1["certified"] is True

    def test_generator_list(self, capsys):
        code, out, _ = run(capsys, "analyze", "x0^2;x1^2;x2^2;x3^2;x4^2")
        assert code == 0
        report = json.loads(out)
        assert report["algebra"]["hilbert"] == [1, 5, 10, 10, 5, 1]
        holds = {(p["kind"], p["k"]): p["holds"] for p in report["probes"]}
        assert holds[("SLP", 1)] and holds[("SLP", 2)]

    def test_single_variable_cube(self, capsys):
        code, out, _ = run(capsys, "analyze", "x0^3", "--nvars", "1")
        assert code == 0
        report = json.loads(out)
        assert report["algebra"]["hilbert"] == [1, 1, 1, 1]
        slp1 = [p for p in report["probes"]
                if p["kind"] == "SLP" and p["k"] == 1][0]
        assert slp1["holds"]

    def test_cone_in_five_vars(self, capsys):
        code, out, _ = run(capsys, "analyze", "x0^3", "--nvars", "5")
        assert code == 0
        report = json.loads(out)
        assert report["cone"] is True
        assert report["algebra"]["hilbert"] == [1, 1, 1, 1]

    def test_catalecticants_built_once_per_degree(self, capsys, monkeypatch):
        # the cone verdict is read from h_1 of the algebra, not from a
        # second degree-1 catalecticant, and the hessian, which vanishes at
        # its point, is handed that verdict instead of checking again
        degrees = []
        real = apolarity_module.catalecticant

        def counted(form, i):
            degrees.append(i)
            return real(form, i)

        monkeypatch.setattr(apolarity_module, "catalecticant", counted)
        code, out, _ = run(capsys, "analyze", PERAZZO)
        assert code == 0 and json.loads(out)["cone"] is False
        assert degrees == [0, 1, 2, 3]

    @pytest.mark.parametrize("text,N", [(PERAZZO, 3),
                                        ("x0^4 + x1^4 + x2^4", 4)])
    def test_each_duality_pairing_ranked_once(self, capsys, monkeypatch,
                                              text, N):
        # the pairing of N - s is the transpose of the pairing of s, so the
        # two have the same squareness and rank
        degrees = []
        real = algebra_module.GradedAlgebra.pairing_check

        def counted(algebra, s):
            degrees.append(s)
            return real(algebra, s)

        monkeypatch.setattr(algebra_module.GradedAlgebra, "pairing_check",
                            counted)
        code, out, _ = run(capsys, "analyze", text)
        assert code == 0 and json.loads(out)["duality"] == [True] * (N + 1)
        assert degrees == list(range(N // 2 + 1))

    def test_degenerate_pairings_in_characteristic_two(self, capsys):
        # y1 contracts the form to x0^2, and every degree-2 contraction of
        # x0^2 vanishes mod 2 (y0^2 gives 2), so h is not symmetric and the
        # pairings of degrees 1 and 2, read from one half entry, both fail
        code, out, _ = run(capsys, "analyze", "x0^2*x1 + x2*x3*x4",
                           "--field", "fp:2")
        report = json.loads(out)
        assert code == 0 and report["algebra"]["hilbert"] == [1, 4, 3, 1]
        assert report["duality"] == [True, False, False, True]

    def test_dependent_partials_read_as_cone_in_characteristic_two(
            self, capsys):
        # the partials sum to 2*(x0 + x1 + x2) = 0 mod 2, so `cone`, which
        # reads dependent first partials, is true; but F(x + t*(1, 1, 1))
        # = F(x) + t^2, so F is not a cone.  The hessian's determinant is
        # 2 = 0, so hessian_vanishes is right
        text = "x0*x1 + x0*x2 + x1*x2"
        code, out, _ = run(capsys, "analyze", text, "--field", "fp:2")
        report = json.loads(out)
        f2 = FieldSpec.prime(2)
        assert code == 0 and report["algebra"]["hilbert"] == [1, 2, 1]
        assert report["cone"] is True and is_cone(parse_poly(text, 3, f2))
        assert report["hessian_vanishes"] is True
        t = Polynomial.variable(3, 4, f2)
        x = [Polynomial.variable(i, 4, f2) + t for i in range(3)]
        shifted = x[0] * x[1] + x[0] * x[2] + x[1] * x[2]
        assert shifted - parse_poly(text, 4, f2) == t * t

    def test_corpus_input(self, capsys):
        code, out, _ = run(capsys, "analyze", "--corpus", "binary_product")
        assert code == 0
        assert json.loads(out)["algebra"]["hilbert"] == [1, 2, 1]

    def test_parse_error_exit_two(self, capsys):
        code, _, err = run(capsys, "analyze", "x0 + + x1")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("nvars", ["0", "-1"])
    def test_nvars_below_one_exit_two(self, capsys, nvars):
        code, out, err = run(capsys, "analyze", "x0^2;x1^2", "--nvars", nvars)
        assert code == 2 and out == ""
        assert err == "error: --nvars must be at least 1\n"

    def test_not_regular_sequence_exit_one(self, capsys):
        code, _, err = run(capsys, "analyze",
                           "x0^2;x0*x1;x1^2;x2^2;x3^2", "--nvars", "5")
        assert code == 1
        assert "degree" in err

    def test_non_artinian_exit_one(self, capsys):
        # Hilbert function (1, 2, 1) matches the CI series; x1^3 survives
        code, out, err = run(capsys, "analyze", "x0*x1;x0^2", "--nvars", "2")
        assert code == 1 and out == ""
        assert "in degree 3 the quotient has dimension 1, expected 0" in err

    # mod 3 the forms pass both checks but the SLP_1 probe misses; mod 7
    # they fail the Hilbert check, so every map is built over Q
    @pytest.mark.parametrize("prime,fields", [(3, {"fp:3", "rational"}),
                                              (7, {"rational"})])
    def test_tiny_prime_report_matches_q_build(self, capsys, monkeypatch,
                                               prime, fields):
        with monkeypatch.context() as m:
            m.setattr(algebra_module, "_modular_shadow", lambda *args: None)
            want = run(capsys, "analyze", QUADRIC_CI4)
        monkeypatch.setattr(algebra_module, "SHADOW_PRIME", prime)
        seen = set()
        real = GradedAlgebra.mul_map

        def mul_map(self, *args):
            seen.add(str(self.field))
            return real(self, *args)

        monkeypatch.setattr(GradedAlgebra, "mul_map", mul_map)
        assert run(capsys, "analyze", QUADRIC_CI4) == want
        assert seen == fields

    def test_missing_input_exit_two(self, capsys):
        code, _, err = run(capsys, "analyze")
        assert code == 2

    def test_input_file(self, capsys, tmp_path):
        path = tmp_path / "gens.txt"
        path.write_text("# five squares\nx0^2\nx1^2\nx2^2\nx3^2\nx4^2\n")
        code, out, _ = run(capsys, "analyze", "--input", str(path))
        assert code == 0
        assert json.loads(out)["algebra"]["hilbert"] == [1, 5, 10, 10, 5, 1]

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "analyze", PERAZZO, "--format", "text")
        assert code == 0
        assert "hilbert: [1, 5, 5, 1]" in out
        assert "hessian vanishes: True" in out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "analyze", PERAZZO, "--output", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["cone"] is False

    def test_unwritable_output_is_a_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "r.json"
        code, out, err = run(capsys, "analyze", PERAZZO, "--output",
                             str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert not target.parent.exists()

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run(capsys, "analyze", PERAZZO, "--seed", "7")
        _, out2, _ = run(capsys, "analyze", PERAZZO, "--seed", "7")
        assert out1 == out2

    def test_prime_field(self, capsys):
        code, out, _ = run(capsys, "analyze", PERAZZO, "--field", "fp:101")
        assert code == 0
        assert json.loads(out)["algebra"]["hilbert"] == [1, 5, 5, 1]


class TestExperiment:
    def test_small_run(self, capsys):
        code, out, _ = run(capsys, "experiment", "--family", "theorem_c",
                           "--trials", "2", "--seed", "42")
        assert code == 0
        report = json.loads(out)
        assert report["family"] == "theorem_c"
        assert report["passes"] == 2

    def test_huge_jobs_runs_serially(self, capsys, monkeypatch):
        _, serial, _ = run(capsys, "experiment", "--trials", "1",
                           "--jobs", "1")

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            no_pool)
        code, out, _ = run(capsys, "experiment", "--trials", "1",
                           "--jobs", "100000")
        assert code == 0
        assert out == serial

    def test_jobs_below_one_exit_two(self, capsys):
        for command in (["experiment", "--trials", "1"],
                        ["analyze", PERAZZO]):
            code, out, err = run(capsys, *command, "--jobs", "0")
            assert code == 2 and out == ""
            assert "--jobs" in err

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_trials_below_one_exit_two(self, capsys, trials):
        for command in (["analyze", PERAZZO], ["experiment"],
                        ["gamma", PERAZZO], ["fixture", "perazzo"]):
            code, out, err = run(capsys, *command, "--trials", trials)
            assert code == 2 and out == ""
            assert err == "error: need at least one trial\n"

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "experiment", "--family", "nope")
        assert code == 2

    def test_text_stream(self, capsys):
        code, out, _ = run(capsys, "experiment", "--trials", "2",
                           "--seed", "42", "--format", "text")
        assert code == 0
        assert "trial   0 [monomial]: pass" in out


class TestFixture:
    def test_perazzo(self, capsys):
        code, out, _ = run(capsys, "fixture", "perazzo")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["fixtures"]["perazzo"]["passed"] is True
        assert report["fixtures"]["gn_map"]["passed"] is True
        assert report["fixtures"]["gn_map"]["notes"]

    @pytest.mark.parametrize("seed", ["22", "30"])
    def test_gamma_draws_on_the_plane_are_redrawn(self, capsys, seed):
        # at these seeds a gamma draw of x lands on x3 = x4 = 0
        code, out, _ = run(capsys, "fixture", "perazzo", "--seed", seed)
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_fixture_algebra_built_once(self, capsys, monkeypatch):
        built = []
        real = gnlab_module.from_inverse_system

        def counted(form):
            built.append(form)
            return real(form)

        monkeypatch.setattr(gnlab_module, "from_inverse_system", counted)
        code, _, _ = run(capsys, "fixture", "perazzo")
        assert code == 0 and len(built) == 1

    def test_unknown_fixture(self, capsys):
        code, _, err = run(capsys, "fixture", "unknown")
        assert code == 2

    def test_json_determinism(self, capsys):
        _, out1, _ = run(capsys, "fixture", "perazzo", "--seed", "3")
        _, out2, _ = run(capsys, "fixture", "perazzo", "--seed", "3")
        assert out1 == out2


class TestGamma:
    def test_perazzo_samples(self, capsys):
        code, out, _ = run(capsys, "gamma", PERAZZO, "--trials", "4")
        assert code == 0
        report = json.loads(out)
        assert report["k"] == 1
        assert len(report["samples"]) == 4
        assert report["all_pass"] is True
        assert all(s["ker_coker"] and s["power_shift_identity"]
                   for s in report["samples"])

    def test_slp_evidence_path(self, capsys):
        code, out, _ = run(capsys, "gamma", "x0^2;x1^2;x2^2;x3^2;x4^2",
                           "--k", "3", "--trials", "2")
        assert code == 0
        report = json.loads(out)
        assert report["slp_evidence"] is True
        assert report["samples"] == []

    def test_nvars_below_one_exit_two(self, capsys):
        code, out, err = run(capsys, "gamma", PERAZZO, "--nvars", "0")
        assert code == 2 and out == ""
        assert err == "error: --nvars must be at least 1\n"

    def test_usage_error_on_bad_k(self, capsys):
        code, _, err = run(capsys, "gamma", PERAZZO, "--k", "9")
        assert code == 2


class TestGoldenReports:
    """sha256 of the JSON report bytes of eighteen reference runs, and of the
    error text of one rejected input.

    Any change to a report's bytes, however it arises, fails here.  The first
    five digests were taken before the multiplication tables replaced the
    polynomial products; the next two (20 theorem_c trials, and a
    non-monomial quadric CI over Q) before regular-sequence algebras were
    built and probed modulo a prime first; the next two (a five-variable
    quadric CI over F_32003 and over F_7, where slots are narrow) before F_p
    elimination moved to packed rows; the next two (a dense quartic over Q,
    whose hessian is nonzero at a sampled point, and a Perazzo-type cubic
    over F_7, whose vanishing hessian needs the symbolic determinant) before
    the hessian verdict moved to point evaluation; the next report (a
    mixed-degree CI over F_32003) and the error text (a sequence over Q that
    is not regular, built eagerly after the miss mod p) before Macaulay rows
    were skipped by the F5 criterion and pairings read from the socle
    functional; the next two (the five-variable quadric CI and the
    mixed-degree CI, both over Q) before the lazy Q pieces took the F5 rows
    too; the next (the five-variable quadric CI over F_(2^31 - 1), whose
    packed slots are wider than any array item) before F_p rows were
    converted through arrays; the next (gamma samples of a cubic whose
    variable tables have denominator 5) before products ran on ints; the
    last two (a cone, where degree 1 has fewer classes than variables, and
    gamma samples of the cubic over F_32003) before products walked only
    the nonzero table entries and probes read multiplication by L^m
    straight from the tables.
    """

    GOLDEN = [
        (["analyze", PERAZZO],
         "251cd0628e994c819bd637e11e2d90da400db04ad024248628f2bab2761842a9"),
        (["analyze", "--corpus", "monomial_ci_quadrics"],
         "334f4c9a3dec4d736e5b906009b8aad3d68068fe0b16333dd49df434c1e9b0e3"),
        (["fixture", "perazzo"],
         "eb8ad326908f48ba99f3f02121ddb5e18a8aede094d284749d7917a1937e013d"),
        (["gamma", PERAZZO, "--trials", "8"],
         "176d51ca01b26ed30de97296cec7f88f07d47efd564764983be07218666449c3"),
        (["experiment", "--trials", "2"],
         "f8a1b7b81283ced8bd5a3fc03e8b79f6aeefbbec0ceebc144e4ad8a0141dfc29"),
        (["experiment", "--trials", "20", "--seed", "42"],
         "3c5186afe9799aa04f1e3cfc86a944c2af355fcb009cb8d6a2d44ab6757ab676"),
        (["analyze", QUADRIC_CI4],
         "3f4ba54ebae8fe90b8ea979b913317f5f890692b3b54c7d42f0ffbc2c59af625"),
        (["analyze", QUADRIC_CI5, "--field", "fp:32003"],
         "86ec8ff47e1f0311f41b7ef3709008316ce5ba1405f152d8a825eda2a3cea11b"),
        (["analyze", QUADRIC_CI5, "--field", "fp:7"],
         "3cc08d7546f75dd0069ff08b7445c0c1b46c3925c85cf8f70514c01c3f42bb1c"),
        (["analyze", DENSE_QUARTIC5],
         "eebb223577de4657d3cc281a1ff457f15befcf4401e35601eabaf2b36814a7a3"),
        (["analyze", PERAZZO_TYPE, "--field", "fp:7"],
         "e33f6227ef2c04cdeb52a6306cc5e5c6bc4feab9b63f2243c97cff4aa0590906"),
        (["analyze", MIXED_CI4, "--nvars", "4", "--field", "fp:32003"],
         "fd99af8e2be0ca061a1d69c5b49c0ccfda9392e8114984a6b6ea719056295d3e"),
        (["analyze", QUADRIC_CI5],
         "62afef87fcc1eebf071a691881868043976efb520aa53d8a0c2f4dda4fc20b09"),
        (["analyze", MIXED_CI4, "--nvars", "4"],
         "3524845fb4703e4e13603ecef32666cdaf591480f7af9d7fc9706708ac561a76"),
        (["analyze", QUADRIC_CI5, "--field", "fp:2147483647"],
         "d21f63464b1350553109167bfcc3ad43d4ad7065c8efcc9c3922b41c049d8496"),
        (["gamma", PERAZZO_DEN5, "--trials", "16"],
         "35669ae3f77ac4d05ab317c99c3347ffe97ba5a1a9e73131fbf715ef39701eaa"),
        (["analyze", "--corpus", "coordinate_cube_cone"],
         "edbc630fe6ae07be86e28e97cd814fdc022cdf3aa7084844dcff6de9e05f6cc7"),
        (["gamma", PERAZZO, "--field", "fp:32003", "--trials", "8"],
         "1972dca44da32317c22c0253542b8d7832c4b981d40cb47f74085ddb54e40572"),
    ]

    @pytest.mark.parametrize("argv,digest", GOLDEN,
                             ids=["analyze_cubic", "analyze_corpus", "fixture",
                                  "gamma", "experiment", "experiment_20",
                                  "analyze_ci4", "analyze_ci5_fp32003",
                                  "analyze_ci5_fp7", "analyze_quartic",
                                  "analyze_perazzo_type_fp7",
                                  "analyze_mixed_ci4_fp32003",
                                  "analyze_ci5_q", "analyze_mixed_ci4_q",
                                  "analyze_ci5_fp2147483647",
                                  "gamma_den5", "analyze_cone",
                                  "gamma_fp32003"])
    def test_report_sha256(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_not_regular_sequence_error_sha256(self, capsys):
        code, out, err = run(capsys, "analyze", NOT_REGULAR4, "--nvars", "4")
        assert (code, out) == (1, "")
        assert hashlib.sha256(err.encode()).hexdigest() == (
            "8fa0e7a4566ea53bfd9aa983c6015105832c627d8fd86b5e02f5110d304ce05d")


class TestTextReports:
    """sha256 of the `--format text` output of five reference runs, taken
    before the input arguments were declared once for analyze and gamma."""

    TEXT = [
        (["analyze", PERAZZO],
         "3ff1a43ae1506f29576f37fcbf2a28e1f02a30c30fc3743fbb5b772bbf49328d"),
        (["analyze", "--corpus", "monomial_ci_quadrics"],
         "0ff89bffd4a535859802a509f6c75d365ad537334c26d83f62ffc7db8d6188db"),
        (["fixture", "perazzo"],
         "878aa8581155ac3fcfb4db065db96c4fb6de31eaa538a9704925af333a2ae6d6"),
        (["gamma", PERAZZO, "--trials", "8"],
         "e60a9df0e7c30605a6e73a17b64daae874088fffa3de5d67c09668c2526276b0"),
        (["experiment", "--trials", "2"],
         "632affec7e19d126ccf8ec5ce5f97df9eac6fad9d2ed3c4e2abcf11b80940db7"),
    ]

    @pytest.mark.parametrize("argv,digest", TEXT,
                             ids=["analyze_cubic", "analyze_corpus", "fixture",
                                  "gamma", "experiment"])
    def test_text_sha256(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv, "--format", "text")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestInputErrors:
    """Exact stderr for malformed inputs.  With several generators, every
    one is tokenized before any is parsed, so the first lexical error is
    reported ahead of an earlier generator's grammar error."""

    @pytest.mark.parametrize("text,err", [
        ("x0 $", "unexpected character '$' (at position 3)"),
        ("x0^2;y1", "unexpected character 'y' (at position 0)"),
        ("x;x1", "expected variable index after 'x' (at position 0)"),
        ("x0^2;x1^2;x2 x3 +", "expected a coefficient or variable "
                              "(at position 7)"),
        ("x0 +;x1 $", "unexpected character '$' (at position 3)"),
        # only ASCII digits are integers and variable indices
        ("x0\u00b2 + x1^2", "unexpected character '\u00b2' (at position 2)"),
        ("x\u0663^2 + x0^2 + x1^2 + x2^2",
         "unexpected character '\u0663' (at position 1)"),
    ])
    def test_error_text(self, capsys, text, err):
        assert run(capsys, "analyze", text) == (2, "", f"error: {err}\n")

    @pytest.mark.parametrize("argv", [
        ["analyze", "x0^3 + x1^3", "--corpus", "perazzo"],
        ["analyze", "x0^3 + x1^3", "--input", "forms.txt"],
        ["gamma", "--corpus", "perazzo", "--input", "forms.txt"],
        ["gamma", PERAZZO, "--corpus", "perazzo", "--input", "forms.txt"],
    ])
    def test_conflicting_inputs_rejected(self, capsys, argv):
        assert run(capsys, *argv) == (
            2, "", "error: give only one input: a positional form, --input "
                   "or --corpus\n")

    @pytest.mark.parametrize("command,text,p,d", [
        ("analyze", "x0^3 + x1^3 + x2^3", 3, 3),
        ("gamma", "x0^2 + x1^2", 2, 2),
        ("gamma", "x0^4 + x1^4 + x0*x1^3", 3, 4),
    ])
    def test_form_with_no_socle_mod_p(self, capsys, command, text, p, d):
        assert run(capsys, command, text, "--field", f"fp:{p}") == (
            2, "", f"error: no degree-{d} socle over fp:{p}: each term has "
                   f"an exponent >= {p}, so every degree-{d} contraction of "
                   "the form is 0\n")

    @pytest.mark.parametrize("text", ["x0^3*x1 + x0*x1*x2*x3",
                                      "x0^2*x1*x2 + x0*x1*x2*x3"])
    def test_gamma_power_vanishing_in_characteristic_p(self, capsys, text):
        # every x^2 is 0 over F_2 here, so no random draw is made
        assert run(capsys, "gamma", text, "--field", "fp:2") == (
            2, "", "error: x^2 vanishes for every degree-1 x over fp:2: b^2 "
                   "is 0 for each degree-1 basis class b, and x^2 is the sum "
                   "of c^2 * b^2\n")

    @pytest.mark.parametrize("argv,n", [
        (["gamma", "x0^2 + x1^2"], 2),
        (["gamma", "x0^2 + x1^2", "--k", "1"], 2),
        (["gamma", "x0^2;x1^2"], 2),
        (["gamma", "3*x0"], 1),
    ])
    def test_gamma_with_no_valid_exponent(self, capsys, argv, n):
        assert run(capsys, *argv) == (
            2, "", "error: no exponent k is valid: k must lie in 1..N-2, and "
                   f"the socle degree N is {n}\n")

    @pytest.mark.parametrize("argv", [["analyze", "0"], ["gamma", "0"],
                                      ["analyze", "0*7 - 0"],
                                      ["analyze", "0*x2"]])
    def test_zero_form_named_before_the_variable_count(self, capsys, argv):
        assert run(capsys, *argv) == (
            2, "", "error: zero form has no inverse-system algebra\n")

    def test_nonzero_constant_asks_for_the_variable_count(self, capsys):
        assert run(capsys, "analyze", "5") == (
            2, "", "error: could not infer variable count; pass --nvars\n")

    def test_composite_modulus_past_64_bits_rejected(self, capsys):
        # 399165290221 * 798330580441, a strong pseudoprime to bases 2..37
        code, out, err = run(capsys, "analyze", "x0^2;x1^2;x2^2", "--field",
                             "fp:318665857834031151167461")
        assert (code, out) == (2, "")
        assert err.startswith("error: bad field spec ")
        assert err.count("\n") == 1

    def test_64_bit_prime_accepted(self, capsys):
        code, out, _ = run(capsys, "analyze", "x0^2;x1^2;x2^2", "--field",
                           f"fp:{2 ** 64 - 59}")
        assert code == 0
        assert json.loads(out)["field"] == f"fp:{2 ** 64 - 59}"


# a decimal or float spelling of a number, which no exact scalar prints as
FLOAT_TEXT = re.compile(r"[-+]?(\d+\.\d*|\.\d+|\d+(\.\d*)?e[-+]?\d+|inf|nan)",
                        re.IGNORECASE)


def _scalars(value):
    """Every leaf of a parsed JSON report."""
    if isinstance(value, dict):
        for v in value.values():
            yield from _scalars(v)
    elif isinstance(value, list):
        for v in value:
            yield from _scalars(v)
    else:
        yield value


@pytest.mark.parametrize("argv", [
    ["analyze", PERAZZO_DEN5],
    ["gamma", PERAZZO_DEN5, "--trials", "4"],
    ["gamma", PERAZZO_DEN5, "--trials", "4", "--field", "fp:7"],
    ["fixture", "perazzo"],
    ["experiment", "--trials", "2"],
    ["analyze", QUADRIC_CI4],
])
def test_reports_hold_no_float(capsys, argv):
    def refuse(text):
        raise AssertionError(f"float {text} in the report")

    code, out, _ = run(capsys, *argv)
    assert code == 0
    for leaf in _scalars(json.loads(out, parse_float=refuse)):
        assert not isinstance(leaf, float)
        assert not (isinstance(leaf, str) and FLOAT_TEXT.fullmatch(leaf)), leaf


def test_analyze_leaves_no_monomial_basis_closure_for_the_collector(capsys):
    """No monomial_basis closure, and no argparse object (the parser is built
    once per process), is left in a reference cycle."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert run(capsys, "analyze", PERAZZO)[0] == 0
        gc.collect()
        leaked = [o for o in gc.garbage
                  if "monomial_basis.<locals>" in getattr(o, "__qualname__", "")
                  or type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert leaked == []


class TestLeadingMinus:
    """argparse reads an argument that starts with '-' and has no space as
    an option; after '--' every argument is a positional."""

    @staticmethod
    def usage_error(capsys, *argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        return captured.err

    def test_leading_minus_form_is_read_as_an_option(self, capsys):
        err = self.usage_error(capsys, "analyze", "-2*x0^3")
        assert "error: unrecognized arguments: -2*x0^3" in err

    def test_form_after_the_separator(self, capsys):
        code, out, _ = run(capsys, "analyze", "--format", "text", "--",
                           "-2*x0^3")
        assert code == 0
        assert out.startswith("input: -2*x0^3\n")

    def test_flag_after_the_separator_is_a_positional(self, capsys):
        err = self.usage_error(capsys, "analyze", "--", "-2*x0^3", "--format",
                               "text")
        assert "error: unrecognized arguments: --format text" in err


# -- the CLI contract on generated argv ----------------------------------------

FUZZ_FIELDS = ["rational", "fp:2", "fp:3", "fp:5", "fp:7", "fp:32003"]
BAD_FIELDS = ["fp:4", "fp:1", "fp:0", "fp:-7", "fp:", "fp:x", "fp:2.5",
              "real", "FP:7", ""]
# fragments spliced into a valid form or joined on their own; most of them
# break the parse, and a few (spaces, a leading sign) leave a valid form
GARBAGE = ["^", "*", "+", "-", "/", "/0", "x", "y0", "x0^", "^-1", "**",
           "(", ")", ";", "1/", ".5", "x-1", "2x", "  ", "\t", "#"]


@st.composite
def small_form(draw, n):
    """A form in n <= 3 variables: degree at most 4, coefficients in -3..3,
    now and then with a term of another degree."""
    terms = {m: draw(st.integers(-3, 3))
             for m in monomial_basis(n, draw(st.integers(1, 4)))}
    if draw(st.integers(0, 7)) == 0:
        terms[draw(st.sampled_from(monomial_basis(n, draw(
            st.integers(0, 4)))))] = draw(st.integers(-3, 3))
    return Polynomial(n, RATIONAL, {m: c for m, c in terms.items()
                                    if c}).to_string()


@st.composite
def malformed(draw, text):
    """text with garbage spliced in, or replaced by it."""
    if draw(st.booleans()):
        return "".join(draw(st.lists(st.sampled_from(GARBAGE), max_size=4)))
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(st.sampled_from(GARBAGE)) + text[at:]


def sometimes(draw, valid, invalid):
    """A draw of valid, or about one time in eight of invalid."""
    return draw(invalid if draw(st.integers(0, 7)) == 7 else valid)


@st.composite
def fuzzed_argv(draw):
    command = draw(st.sampled_from(["analyze", "gamma"]))
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        text = draw(small_form(n))
    else:
        count = n + sometimes(draw, st.just(0), st.sampled_from([-1, 1]))
        text = ";".join(draw(small_form(n)) for _ in range(max(count, 1)))
    text = sometimes(draw, st.just(text), malformed(text))
    options = [("--trials", str(sometimes(draw, st.integers(1, 3),
                                          st.integers(-2, 0)))),
               ("--jobs", str(sometimes(draw, st.integers(1, 3),
                                        st.just(0))))]
    if draw(st.booleans()):
        options.append(("--field", sometimes(
            draw, st.sampled_from(FUZZ_FIELDS), st.sampled_from(BAD_FIELDS))))
    if draw(st.booleans()):
        options.append(("--nvars", str(sometimes(draw, st.just(n),
                                                 st.integers(-1, n - 1)))))
    if draw(st.booleans()):
        options.append(("--seed", str(draw(st.one_of(
            st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70))))))
    if command == "gamma" and draw(st.booleans()):
        options.append(("--k", str(draw(st.integers(-3, 9)))))
    if draw(st.booleans()):
        options.append(("--format", draw(st.sampled_from(["json", "text"]))))
    options = [word for pair in draw(st.permutations(options))
               for word in pair]
    # a leading '-' reads as an option unless the form follows '--'
    if sometimes(draw, st.just(True), st.just(False)):
        return [command, *options, "--", text]
    return [command, text, *options]


def test_fuzzed_argv_keeps_the_exit_contract(monkeypatch):
    """Every generated argv exits 0, 1 or 2 (argparse's SystemExit counted
    as its code) within the deadline, prints no traceback, and pairs an
    exit of 2 with 'error:' on stderr; no worker pool is started."""
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    codes = Counter()

    @given(fuzzed_argv())
    @settings(max_examples=300, deadline=timedelta(seconds=10),
              derandomize=True, database=None)
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), (code, err.getvalue())
        assert "Traceback" not in out.getvalue() + err.getvalue()
        assert code != 2 or "error:" in err.getvalue(), err.getvalue()
        codes[code] += 1

    check()
    assert sum(codes.values()) >= 300
    assert codes[0] >= sum(codes.values()) // 5, codes
