import contextlib
import csv
import functools
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from spinframes import Angle, cli
from spinframes.bell import MAX_ENSEMBLE_TRIALS, MAX_SCAN_POINTS
from spinframes.cli import MAX_CURVE_POINTS, OUTPUT_SCHEMA, main

TSIRELSON = 2.0 * math.sqrt(2.0)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0, err
    payload = json.loads(out)
    jsonschema.validate(payload, OUTPUT_SCHEMA)
    return payload


class TestSpin:
    def test_sixty_degrees_analytic_row(self, capsys):
        payload = run_json(capsys, "spin", "--theta-deg", "60")
        data = payload["data"]
        assert data["p_up"] == pytest.approx(0.75, abs=1e-12)
        assert data["p_down"] == pytest.approx(0.25, abs=1e-12)
        assert data["expectation"] == pytest.approx(0.5, abs=1e-12)

    def test_zero_angle(self, capsys):
        data = run_json(capsys, "spin", "--theta-deg", "0")["data"]
        assert (data["p_up"], data["p_down"], data["expectation"]) == (1.0, 0.0, 1.0)

    def test_radian_flag(self, capsys):
        data = run_json(capsys, "spin", "--theta-rad", str(math.pi / 3))["data"]
        assert data["p_up"] == pytest.approx(0.75, abs=1e-12)

    def test_angle_flags_are_exclusive(self, capsys):
        rc, _, err = run_cli(capsys, "spin", "--theta-deg", "60", "--theta-rad", "1.0")
        assert rc == 2
        assert "not allowed" in err

    def test_angle_flag_required(self, capsys):
        rc, _, _ = run_cli(capsys, "spin")
        assert rc == 2

    def test_monte_carlo_block(self, capsys):
        data = run_json(capsys, "spin", "--theta-deg", "60", "--n", "5000", "--seed", "42")["data"]
        assert data["mc"]["n"] == 5000
        assert abs(data["mc"]["mean"] - 0.5) < 0.05

    def test_seeded_run_is_byte_identical(self, capsys):
        rc1, out1, _ = run_cli(capsys, "spin", "--theta-deg", "60", "--n", "20000", "--seed", "42")
        rc2, out2, _ = run_cli(capsys, "spin", "--theta-deg", "60", "--n", "20000", "--seed", "42")
        assert rc1 == rc2 == 0
        assert out1.encode() == out2.encode()

    def test_negative_n_is_domain_error(self, capsys):
        rc, out, err = run_cli(capsys, "spin", "--theta-deg", "60", "--n", "-5")
        assert rc == 3
        assert out == ""
        assert "--n" in err

    def test_csv_header_is_stable(self, capsys):
        rc, out, _ = run_cli(capsys, "--format", "csv", "spin", "--theta-deg", "60")
        assert rc == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["theta_rad", "p_up", "p_down", "expectation"]
        assert float(rows[1][1]) == pytest.approx(0.75, abs=1e-12)


class TestBell:
    def test_same_setting_triplet_agrees(self, capsys):
        data = run_json(capsys, "bell", "--state", "psi+", "--theta-deg", "0")["data"]
        assert data["correlation"] == pytest.approx(1.0, abs=1e-12)
        assert data["p_pm"] == pytest.approx(0.0, abs=1e-12)

    def test_same_setting_singlet_disagrees(self, capsys):
        data = run_json(capsys, "bell", "--state", "singlet", "--theta-deg", "0")["data"]
        assert data["correlation"] == pytest.approx(-1.0, abs=1e-12)
        assert data["p_pp"] == pytest.approx(0.0, abs=1e-12)

    def test_right_angle_uncorrelated(self, capsys):
        data = run_json(capsys, "bell", "--state", "phi+", "--theta-deg", "90")["data"]
        assert data["correlation"] == pytest.approx(0.0, abs=1e-12)

    def test_unknown_state_exits_with_labels(self, capsys):
        rc, _, err = run_cli(capsys, "bell", "--state", "nope", "--theta-deg", "0")
        assert rc == 3
        assert "singlet" in err and "phi+" in err

    def test_negative_n_is_domain_error(self, capsys):
        rc, out, err = run_cli(capsys, "bell", "--state", "phi+", "--theta-deg", "60", "--n", "-5")
        assert rc == 3
        assert out == ""
        assert "--n" in err

    def test_conditional_average_column(self, capsys):
        data = run_json(capsys, "bell", "--state", "phi+", "--theta-deg", "60")["data"]
        assert data["conditional_given_up"] == pytest.approx(0.5, abs=1e-12)


class TestEnsemble:
    def test_figure_table(self, capsys):
        data = run_json(capsys, "ensemble", "--theta-deg", "60", "--n", "8")["data"]
        assert data["bob_up"] == 6
        assert data["bob_down"] == 2
        assert data["average"] == "1/2"
        assert data["average_float"] == 0.5
        assert len(data["trials"]) == 8

    def test_invalid_n_names_minimal_multiple(self, capsys):
        rc, _, err = run_cli(capsys, "ensemble", "--theta-deg", "60", "--n", "7")
        assert rc == 3
        assert "multiple of 4" in err

    def test_two_trials_at_right_angle(self, capsys):
        data = run_json(capsys, "ensemble", "--theta-deg", "90", "--n", "2")["data"]
        assert data["bob_up"] == 1 and data["bob_down"] == 1
        assert data["average"] == "0"

    def test_csv_has_average_row(self, capsys):
        rc, out, _ = run_cli(capsys, "--format", "csv", "ensemble", "--theta-deg", "60", "--n", "8")
        assert rc == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["index", "alice", "bob"]
        assert rows[-1] == ["average", "", "1/2"]
        assert len(rows) == 10  # header + 8 trials + average

    def test_n_over_trial_limit(self, capsys):
        rc, out, err = run_cli(
            capsys, "ensemble", "--theta-deg", "0", "--n", str(MAX_ENSEMBLE_TRIALS + 1),
        )
        assert rc == 3
        assert out == ""
        assert str(MAX_ENSEMBLE_TRIALS) in err


class TestCHSH:
    def test_classical_max(self, capsys):
        data = run_json(capsys, "chsh", "--mode", "classical-max")["data"]
        assert data["value"] == 2.0
        assert data["strategies"] == 16

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("mode", ["classical-max", "analytic-max", "scan", "empirical"])
    def test_unknown_state_is_rejected_in_every_mode(self, capsys, fmt, mode):
        rc, out, err = run_cli(capsys, "--format", fmt, "chsh", "--mode", mode, "--state", "nope")
        assert (rc, out) == (3, "")
        assert err.startswith("error:") and "nope" in err

    def test_analytic_max(self, capsys):
        data = run_json(capsys, "chsh", "--mode", "analytic-max", "--state", "singlet")["data"]
        assert abs(data["value"] - TSIRELSON) <= 1e-6

    def test_scan_table(self, capsys):
        rc, out, _ = run_cli(capsys, "--format", "csv", "chsh", "--mode", "scan", "--state", "phi+")
        assert rc == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["angle_rad", "s"]
        values = [float(r[1]) for r in rows[1:]]
        assert len(values) == 360
        assert max(values) <= TSIRELSON + 1e-9

    def test_scan_resolution_over_point_limit(self, capsys):
        res = 360.0 / (MAX_SCAN_POINTS + 0.5)  # MAX_SCAN_POINTS + 1 points
        rc, out, err = run_cli(capsys, "chsh", "--mode", "scan", "--resolution-deg", str(res))
        assert rc == 3
        assert out == ""
        assert "points" in err

    def test_empirical(self, capsys):
        data = run_json(
            capsys, "chsh", "--mode", "empirical", "--state", "singlet",
            "--n", "20000", "--seed", "7",
        )["data"]
        assert abs(abs(data["value"]) - TSIRELSON) < 0.1
        assert len(data["terms"]) == 4

    def test_invalid_mode(self, capsys):
        rc, _, _ = run_cli(capsys, "chsh", "--mode", "sideways")
        assert rc == 2


class TestGrmass:
    def test_ratio(self, capsys):
        data = run_json(capsys, "grmass", "ratio", "--chi0", "1.5707963267948966")["data"]
        assert data["ratio"] == pytest.approx(3 * math.pi / 4, abs=1e-12)

    def test_ratio_domain_error(self, capsys):
        rc, _, err = run_cli(capsys, "grmass", "ratio", "--chi0", "3.2")
        assert rc == 3
        assert "chi0" in err

    def test_ratio_curve(self, capsys):
        rc, out, _ = run_cli(
            capsys, "--format", "csv", "grmass", "ratio-curve",
            "--start", "0.1", "--stop", "3.0", "--points", "30",
        )
        assert rc == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["chi0", "ratio"]
        ratios = [float(r[1]) for r in rows[1:]]
        assert len(ratios) == 30
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_ratio_curve_ends_at_stop(self, capsys):
        # start + 825 * step rounds to pi, just past this stop
        stop = "3.1415926535897927"
        rc, out, _ = run_cli(
            capsys, "--format", "csv", "grmass", "ratio-curve",
            "--start", "1.4169560036426874", "--stop", stop, "--points", "826",
        )
        assert rc == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 826
        assert float(rows[-1][0]) == float(stop)

    def test_ratio_curve_points_over_limit(self, capsys):
        rc, out, err = run_cli(
            capsys, "grmass", "ratio-curve", "--points", str(MAX_CURVE_POINTS + 1),
        )
        assert rc == 3
        assert out == ""
        assert "points" in err

    def test_binding_uniform_matches_oracle(self, capsys):
        data = run_json(
            capsys, "grmass", "binding", "--uniform", "--mass", "1",
            "--compactness", "0.5", "--geometrized",
        )["data"]
        x = 0.5
        oracle = 3 * math.asin(math.sqrt(x)) / (2 * x**1.5) - 3 * math.sqrt(1 - x) / (2 * x)
        assert abs(data["ratio"] - oracle) / oracle <= 1e-9
        assert data["proper_mass"] > data["mass"]

    def test_binding_profile_csv(self, capsys, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("r,M\n0,0\n0.5,0.025\n1,0.2\n")
        data = run_json(
            capsys, "grmass", "binding", "--profile", str(path), "--geometrized",
        )["data"]
        assert data["kind"] == "table"
        assert data["proper_mass"] > data["mass"] == 0.2

    def test_binding_missing_file(self, capsys):
        rc, _, _ = run_cli(capsys, "grmass", "binding", "--profile", "/nonexistent.csv")
        assert rc == 2

    def test_binding_directory(self, capsys, tmp_path):
        rc, out, err = run_cli(capsys, "grmass", "binding", "--profile", str(tmp_path), "--geometrized")
        assert rc == 2
        assert out == ""
        assert err.startswith("error:")

    def test_binding_undecodable_file(self, capsys, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"r,M\n0,0\n1,0.2\xff\n")
        rc, out, err = run_cli(capsys, "grmass", "binding", "--profile", str(path), "--geometrized")
        assert rc == 2
        assert out == ""
        assert err.startswith("error:")

    def test_binding_table_whose_cubic_overflows(self, capsys, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("r,M\n0,0\n5e299,1.08e308\n1e300,1.79e308\n")
        rc, out, err = run_cli(capsys, "grmass", "binding", "--profile", str(path))
        assert rc == 3
        assert out == ""
        assert "overflows" in err

    @pytest.mark.parametrize("table, flags, error", [
        # the quadrature nodes underflow to r = 0, where M(r)/r is 0/0
        ("0,0\n5e-324,5e-324\n", [], "nan"),
        # the cubic's slope is subnormal, and its error estimate stalls at 4e-6 relative
        ("0,0\n1.7976931348623157e+308,1e-10\n", ["--geometrized"], "4.440892098500626e-16"),
    ])
    def test_binding_quadrature_that_never_converges(self, tmp_path, table, flags, error):
        # a segment that never converges used to be bisected every round until
        # memory ran out, so the run gets its own process with its address
        # space capped at 2 GiB
        path = tmp_path / "table.csv"
        path.write_text("r,M\n" + table)
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))\n"
            "from spinframes.cli import main\n"
            f"sys.exit(main(['grmass', 'binding', '--profile', {str(path)!r}, *{flags!r}]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=_subprocess_env(), timeout=60)
        assert (proc.returncode, proc.stdout) == (4, b"")
        assert proc.stderr == f"error: quadrature error {error} exceeds 1e-10 relative\n".encode()

    def test_binding_bad_header(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n0,0\n1,1\n")
        rc, _, err = run_cli(capsys, "grmass", "binding", "--profile", str(path))
        assert rc == 3
        assert "line 1" in err

    @pytest.mark.parametrize("table, message", [
        ("1,0\n2,1\n", "first radius must be 0, got 1.0"),
        ("0,0.5\n2,1\n", "mass at r = 0 must be 0, got 0.5"),
        ("0,0\n1,0\n2,0\n", "total mass must be positive, got 0.0"),
    ])
    def test_binding_table_errors_print_plain_floats(self, capsys, tmp_path, table, message):
        path = tmp_path / "p.csv"
        path.write_text("r,M\n" + table)
        rc, out, err = run_cli(capsys, "grmass", "binding", "--profile", str(path))
        assert (rc, out) == (3, "")
        assert err == f"error: {path}: {message}\n"

    def test_binding_field_over_the_csv_limit(self, capsys, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("r,M\n" + "1" * 200_000 + ",0\n1,0.2\n")
        rc, out, err = run_cli(capsys, "grmass", "binding", "--profile", str(path))
        assert (rc, out) == (3, "")
        assert err.startswith("error:") and "line 2" in err

    def test_binding_compactness_of_a_ball_whose_c2_r_overflows(self, capsys):
        # c^2 R = 9e316 overflows, but 2GM/(c^2 R) is the 1.485e-27 the library tests against 1
        rc, out, _ = run_cli(capsys, "--format", "csv", "grmass", "binding", "--uniform", "--mass", "1e300",
                             "--radius", "1e300")
        assert rc == 0
        assert out.splitlines()[1].split(",")[3] == repr(2.0 * 6.67430e-11 / 299792458.0**2)

    @pytest.mark.parametrize("mass, ratio", [("5e-324", "1.2108418600591322"), ("1e-320", "1.2108418600591322")])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_binding_ratio_of_a_subnormal_ball(self, capsys, fmt, mass, ratio):
        # M_p rounds to the subnormal grid, so M_p / M would print 1.0 and 1.2109683794466404
        rc, out, _ = run_cli(capsys, "--format", fmt, "grmass", "binding", "--uniform", "--mass", mass,
                             "--compactness", "0.5", "--geometrized")
        assert rc == 0
        assert [repr(row["ratio"]) for row in _rows(fmt, out)] == [ratio]
        _check_grmass(["grmass", "binding"], fmt, out)

    @pytest.mark.parametrize("flags", [
        ["--mass", "5"], ["--radius", "2"], ["--compactness", "0.5"], ["--mass", "5", "--compactness", "0.5"],
    ], ids=" ".join)
    def test_binding_profile_rejects_the_ball_flags(self, capsys, tmp_path, flags):
        path = tmp_path / "p.csv"
        path.write_text("r,M\n0,0\n0.5,0.025\n1,0.2\n")
        rc, out, err = run_cli(capsys, "grmass", "binding", "--profile", str(path), *flags, "--geometrized")
        assert (rc, out) == (3, "")
        assert all(flag in err for flag in flags[::2]), err

    def test_binding_flag_validation(self, capsys):
        rc, _, _ = run_cli(capsys, "grmass", "binding", "--uniform", "--mass", "1")
        assert rc == 3
        rc, _, _ = run_cli(
            capsys, "grmass", "binding", "--uniform", "--mass", "1",
            "--radius", "4", "--compactness", "0.5",
        )
        assert rc == 3

    def test_metric_equatorial(self, capsys):
        data = run_json(
            capsys, "grmass", "metric", "--chi-deg", "90", "--theta-deg", "90", "--geometrized",
        )["data"]
        assert data["g_tt"] == -1.0
        assert data["g_chi_chi"] == 1.0
        assert data["g_theta_theta"] == pytest.approx(1.0, abs=1e-15)
        assert data["g_phi_phi"] == pytest.approx(1.0, abs=1e-15)

    def test_metric_scale_factor_square_overflows(self, capsys):
        rc, out, err = run_cli(
            capsys, "grmass", "metric", "--chi-deg", "10", "--theta-deg", "10", "--scale-factor", "1e200",
        )
        assert rc == 3
        assert out == ""
        assert "scale factor" in err

    @pytest.mark.parametrize("scale", [("1e-200",), ("1e-160", "--geometrized")])
    def test_metric_scale_factor_square_underflows(self, capsys, scale):
        rc, out, err = run_cli(
            capsys, "grmass", "metric", "--chi-deg", "10", "--theta-deg", "10", "--scale-factor", *scale,
        )
        assert rc == 3
        assert out == ""
        assert "underflows" in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_binding_proper_mass_overflow(self, capsys, fmt):
        rc, out, err = run_cli(
            capsys, "--format", fmt, "grmass", "binding", "--uniform",
            "--mass", "1.7976931348623157e308", "--compactness", "1e-9",
        )
        assert rc == 3
        assert out == ""
        assert "overflows" in err


MC_COMMANDS = {
    "spin": ("spin", "--theta-deg", "1"),
    "bell": ("bell", "--theta-deg", "60"),
    "chsh": ("chsh", "--mode", "empirical"),
}


@pytest.mark.parametrize("command", sorted(MC_COMMANDS))
def test_n_bounded_by_the_multinomial_draw(capsys, command):
    argv = MC_COMMANDS[command]
    rc, out, err = run_cli(capsys, *argv, "--n", str(2**53 + 1))
    assert rc == 3
    assert out == ""
    assert f"n must lie in [1, {2**53}], got {2**53 + 1}" in err
    data = run_json(capsys, *argv, "--n", str(2**53))["data"]
    if command == "chsh":
        assert data["n_per_pair"] == 2**53
    else:
        assert data["mc"]["n"] == 2**53


# sha256 (first 16 hex digits) of stdout in JSON and in CSV, and of stderr,
# for each argv: a change to how the CLI builds its tables must keep every
# byte and exit code. The seeded runs also pin numpy's Philox stream, which
# a process without numpy reproduces in plain Python.
EMPTY = "e3b0c44298fc1c14"
GOLDEN = [
    ("spin --theta-deg 60", 0, "6ea08527dc57dbd9", "ecd35dd69e57c350", EMPTY),
    ("spin --theta-rad 1.0 --n 1000 --seed 42", 0, "71e2c767efe6fe01", "5fbdc5eb9de1b77c", EMPTY),
    ("spin --theta-deg 60 --n -5", 3, EMPTY, EMPTY, "1eeadda1a400037e"),
    ("bell --state psi+ --theta-deg 60", 0, "fcc36f7a2e437aee", "5b77cd3b76702f5d", EMPTY),
    ("bell --state singlet --theta-deg 30 --plane xy", 0, "d616d852b5fdc548", "74d3d5e351728161", EMPTY),
    ("bell --state phi- --theta-deg 45 --n 2000 --seed 7", 0, "0f0b65cb5f8549d8", "25fdc08c6e9a243e", EMPTY),
    ("ensemble --theta-deg 60 --n 8", 0, "975baf8d50a02712", "9c5047af7a657b3a", EMPTY),
    ("ensemble --theta-deg 120 --n 4000", 0, "5adb92549b6856ec", "1580079e761537a7", EMPTY),
    ("ensemble --theta-deg 60 --n 7", 3, EMPTY, EMPTY, "051351b2d7e95518"),
    ("chsh --mode classical-max", 0, "b7ea7ec167da0859", "1a9f19362becc20b", EMPTY),
    ("chsh --mode analytic-max --state phi+", 0, "620f85841d5b352b", "176bd2f85069ea4e", EMPTY),
    ("chsh --mode scan --state psi+ --resolution-deg 0.37", 0, "90042e85fe648f9c", "c09ed5003fa2ddee", EMPTY),
    ("chsh --mode empirical --state singlet --n 500 --seed 3", 0, "1311d7e7ef1c9d6d", "c253e4335b925905", EMPTY),
    ("grmass ratio --chi0 1.5707963267948966", 0, "2665e10ddf5013cc", "ea6404a94538f042", EMPTY),
    ("grmass ratio --chi0 0.5 --scale-factor 2.5", 0, "5fd089f6695e72d7", "b4b5e215b0fed73a", EMPTY),
    ("grmass ratio-curve --start 0.1 --stop 3.0 --points 50", 0, "f94f26c0ae6ad247", "01fc7da118cced89", EMPTY),
    ("grmass binding --uniform --mass 1 --compactness 0.5 --geometrized",
     0, "36dc8869b1f04873", "717f51690000859a", EMPTY),
    ("grmass binding --uniform --mass 2e30 --radius 1e4", 0, "7eee950e14890bab", "01fccbff4565f21b", EMPTY),
    ("grmass binding --profile profile.csv --geometrized", 0, "bef909953ac69593", "7a2d75a4403dfcb4", EMPTY),
    ("grmass metric --chi-deg 90 --theta-deg 90 --geometrized", 0, "4518f076ced7c489", "94fcb010a0bcb504", EMPTY),
    ("grmass metric --chi-deg 10 --theta-deg 10 --scale-factor 1e-200", 3, EMPTY, EMPTY, "416d40a9be6f7c6d"),
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("argv, rc, json_sha, csv_sha, err_sha", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_bytes(tmp_path, monkeypatch, argv, rc, json_sha, csv_sha, err_sha):
    (tmp_path / "profile.csv").write_text("r,M\n0,0\n0.5,0.025\n1,0.2\n")
    monkeypatch.chdir(tmp_path)
    for fmt, want in (("json", json_sha), ("csv", csv_sha)):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            got_rc = main(["--format", fmt, *argv.split()])
        assert (got_rc, _sha(out.getvalue()), _sha(err.getvalue())) == (rc, want, err_sha), fmt


def test_profile_with_a_byte_order_mark_gives_the_golden_bytes(tmp_path, monkeypatch):
    # spreadsheet "CSV UTF-8" exports start with a BOM; this is the profile
    # test_golden_bytes writes, with one
    (tmp_path / "profile.csv").write_bytes(b"\xef\xbb\xbfr,M\n0,0\n0.5,0.025\n1,0.2\n")
    monkeypatch.chdir(tmp_path)
    argv, rc, json_sha, csv_sha, err_sha = next(g for g in GOLDEN if "--profile" in g[0])
    for fmt, want in (("json", json_sha), ("csv", csv_sha)):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            got_rc = main(["--format", fmt, *argv.split()])
        assert (got_rc, _sha(out.getvalue()), _sha(err.getvalue())) == (rc, want, err_sha), fmt


# sha256 (first 16 hex digits) of stdout in JSON and in CSV for the three
# bulk commands at 10 and 5000 rows, and in JSON at 10**6 rows: the rows of
# a JSON table are written apart from the rest of the envelope, and must
# keep every byte json gives
BULK = [
    ("ensemble --theta-deg 90 --n 10", "2c488952f07e4c87", "869a828d6dfe0ce3"),
    ("chsh --mode scan --state psi+ --resolution-deg 36", "ae6083a4d3523db1", "14f598197e839e61"),
    ("grmass ratio-curve --points 10", "6177b9794ac8d36d", "e20fe4f5a43db361"),
    ("ensemble --theta-deg 90 --n 5000", "f6a2435ec0b082be", "1b672ca49e79cd6a"),
    ("chsh --mode scan --state psi+ --resolution-deg 0.072", "b90d5dff3b82a52e", "e848dbd3e05f48f6"),
    ("grmass ratio-curve --points 5000", "c07e0c24a0c8854b", "c11798bf2575388e"),
]
MILLION_ROWS = [
    ("ensemble --theta-deg 90 --n 1000000", "aa7a8d434307cec8"),
    ("chsh --mode scan --state psi+ --resolution-deg 0.00036", "1b6db6e3d7a8334f"),
    ("grmass ratio-curve --points 1000000", "071820975a4e6a07"),
]
# One json.dumps of a whole 10**6-row envelope peaked near 990 MB; written
# row by row, these commands peak at 245-390 MB.
MILLION_ROW_PEAK_MB = 450


@pytest.mark.parametrize("argv, json_sha, csv_sha", BULK, ids=[b[0] for b in BULK])
def test_bulk_bytes(argv, json_sha, csv_sha):
    for fmt, want in (("json", json_sha), ("csv", csv_sha)):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["--format", fmt, *argv.split()]) == 0, fmt
        assert _sha(out.getvalue()) == want, fmt


def test_million_row_json_keeps_its_bytes_and_streams():
    # stdout is hashed as it is written, so the child holds no copy of it;
    # the peak after each run is the process's so far, so it bounds that run
    code = textwrap.dedent(f"""
        import contextlib, hashlib, resource
        from spinframes.cli import main

        class Sha256Stream:
            def __init__(self):
                self.sha = hashlib.sha256()

            def write(self, text):
                self.sha.update(text.encode())

            def writelines(self, lines):
                for text in lines:
                    self.write(text)

            def flush(self):
                pass

        for argv in {[argv for argv, _ in MILLION_ROWS]!r}:
            out = Sha256Stream()
            with contextlib.redirect_stdout(out):
                assert main(argv.split()) == 0, argv
            print(out.sha.hexdigest()[:16], resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024)
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=_subprocess_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    lines = [line.split() for line in proc.stdout.decode().splitlines()]
    assert [sha for sha, _ in lines] == [sha for _, sha in MILLION_ROWS]
    for (argv, _), (_, peak_mb) in zip(MILLION_ROWS, lines):
        assert int(peak_mb) <= MILLION_ROW_PEAK_MB, (argv, peak_mb)


def test_one_parser_serves_every_call(capsys):
    good = ("--format", "csv", "grmass", "ratio", "--chi0", "1")
    first = run_cli(capsys, *good)
    usage = run_cli(capsys, "grmass", "ratio", "--chi0", "one")
    third = run_cli(capsys, *good)
    assert first[0] == 0 and first[1]
    assert usage[0] == 2 and usage[1] == "" and "invalid float value" in usage[2]
    assert third == first
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()


class TestFiniteBackstop:
    """A NaN or an infinity in a result exits 3 before any byte is written."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_scalar_result(self, capsys, monkeypatch, fmt, bad):
        monkeypatch.setattr(cli, "chsh_classical_max", lambda: bad)
        rc, out, err = run_cli(capsys, "--format", fmt, "chsh", "--mode", "classical-max")
        assert (rc, out) == (3, "")
        assert err == "error: the result is not finite\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_value_in_a_bulk_table(self, capsys, monkeypatch, fmt, bad):
        monkeypatch.setattr(cli, "chsh_scan", lambda state, step: [(Angle(0.0), 2.0), (Angle(1.0), bad)])
        rc, out, err = run_cli(capsys, "--format", fmt, "chsh", "--mode", "scan")
        assert (rc, out) == (3, "")
        assert err.startswith("error:")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_unused_parameter(self, capsys, fmt, bad):
        rc, out, err = run_cli(capsys, "--format", fmt, "chsh", "--mode", "classical-max", f"--resolution-deg={bad}")
        assert (rc, out) == (3, "")
        assert err == f"error: --resolution-deg must be finite, got {float(bad)}\n"


class TestEnvelope:
    def test_manifest_fields(self, capsys):
        payload = run_json(capsys, "spin", "--theta-deg", "60", "--n", "10", "--seed", "3")
        manifest = payload["manifest"]
        assert manifest["command"] == "spin"
        assert manifest["seed"] == 3
        assert manifest["rng"] is not None
        assert manifest["timestamp"] is None
        assert manifest["parameters"]["theta_deg"] == 60.0

    def test_timestamp_opt_in(self, capsys):
        payload = run_json(capsys, "--timestamp", "spin", "--theta-deg", "60")
        assert payload["manifest"]["timestamp"] is not None

    def test_schema_validates_all_commands(self, capsys):
        run_json(capsys, "bell", "--state", "phi-", "--theta-deg", "30")
        run_json(capsys, "ensemble", "--theta-deg", "90", "--n", "4")
        run_json(capsys, "chsh", "--mode", "scan")
        run_json(capsys, "grmass", "ratio", "--chi0", "0.5")
        run_json(capsys, "grmass", "metric", "--chi-rad", "1.0", "--theta-rad", "1.0")

    @pytest.mark.parametrize("argv, spoil", [
        (["spin", "--theta-deg", "60", "--n", "100"], lambda d: d["mc"].update(mean=1.5)),
        (["spin", "--theta-deg", "60", "--n", "100"], lambda d: d["mc"].update(n=0)),
        (["spin", "--theta-deg", "60", "--n", "100"], lambda d: d["mc"].update(stderr=-0.1)),
        (["spin", "--theta-deg", "60", "--n", "100"], lambda d: d["mc"].update(seed=3)),
        (["bell", "--theta-deg", "60", "--n", "100"], lambda d: d["mc"]["conditional_means"].update({"0": 0.5})),
        (["bell", "--theta-deg", "60", "--n", "100"], lambda d: d["mc"]["conditional_means"].update({"1": -1.5})),
        (["chsh", "--mode", "empirical", "--n", "100"], lambda d: d["terms"].pop()),
        (["chsh", "--mode", "empirical", "--n", "100"], lambda d: d["terms"][0].pop("stderr")),
        (["chsh", "--mode", "empirical", "--n", "100"], lambda d: d["terms"][1].update(mean=-2.0)),
    ], ids=["mean", "n", "stderr", "extra-key", "outcome-key", "conditional-mean", "three-terms",
            "term-without-stderr", "term-mean"])
    def test_schema_rejects_monte_carlo_blocks_no_run_produces(self, capsys, argv, spoil):
        payload = run_json(capsys, *argv)
        spoil(payload["data"])
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(payload, OUTPUT_SCHEMA)

    def test_grmass_manifest_command_names_subcommand(self, capsys):
        payload = run_json(capsys, "grmass", "ratio", "--chi0", "0.5")
        assert payload["manifest"]["command"] == "grmass ratio"


def _subprocess_env() -> dict:
    src = Path(__file__).resolve().parents[1] / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))


# commands whose result is a handful of closed-form numbers: they must run
# without importing numpy, as every other command does
SCALAR_COMMANDS = [
    ["spin", "--theta-deg", "60"],
    ["bell", "--state", "phi+", "--theta-deg", "30"],
    ["ensemble", "--theta-deg", "60", "--n", "8"],
    ["chsh", "--mode", "classical-max"],
    ["chsh", "--mode", "analytic-max", "--state", "singlet"],
    ["grmass", "ratio", "--chi0", "1"],
    ["grmass", "ratio-curve", "--points", "20"],
    ["grmass", "binding", "--uniform", "--mass", "1", "--compactness", "0.5", "--geometrized"],
    ["grmass", "metric", "--chi-deg", "10", "--theta-deg", "20"],
]


def test_array_libraries_load_only_where_needed(tmp_path):
    profile = tmp_path / "p.csv"
    profile.write_text("r,M\n0,0\n0.5,0.025\n1,0.2\n")
    array_commands = [
        ["spin", "--theta-deg", "60", "--n", "100"],
        ["bell", "--theta-deg", "60", "--n", "100"],
        ["chsh", "--mode", "empirical", "--n", "100"],
        ["grmass", "binding", "--profile", str(profile), "--geometrized"],
    ]
    scan = ["chsh", "--mode", "scan", "--resolution-deg", "10"]
    # seeded counts and table quadrature compute in plain floats when numpy is not loaded
    scalar = [argv for argv in SCALAR_COMMANDS if argv[0] != "ensemble"] + [scan] + array_commands
    ensemble = [argv for argv in SCALAR_COMMANDS if argv[0] == "ensemble"]
    # the commands are spliced in as literals: the child must not import json
    code = (
        "import contextlib, io, sys\n"
        "import spinframes, spinframes.cli\n"
        "STDLIB = ('dataclasses', 'inspect', 'fractions', 'decimal', 'datetime', 'numbers')\n"
        "def loaded(*names):\n"
        "    return sorted({m.split('.')[0] for m in sys.modules} & set(names))\n"
        "def run(argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert spinframes.cli.main(argv) == 0, argv\n"
        "assert not loaded('numpy', 'scipy', 'json', 'csv', *STDLIB), ('import', loaded('json', 'csv', *STDLIB))\n"
        "u = spinframes.su2_from_axis_angle(spinframes.Y_AXIS, spinframes.Angle(1.0))\n"
        "r = spinframes.so3_from_su2(u.compose(-u))\n"
        "spinframes.rotate_state(spinframes.prepare_state(r.apply(spinframes.X_AXIS)), u)\n"
        "assert not loaded('numpy', *STDLIB), 'frames'\n"
        "spinframes.build_exact_ensemble(spinframes.Angle.from_degrees(60), 8)\n"
        "assert not loaded('fractions'), 'build_exact_ensemble walks in ints'\n"
        f"scalar, ensemble = {scalar!r}, {ensemble!r}\n"
        "for fmt in ('csv', 'json'):\n"
        "    gated = ('numpy', *STDLIB, *(['json'] if fmt == 'csv' else []))\n"
        "    for argv in scalar:\n"
        "        run(['--format', fmt, *argv])\n"
        "        assert not loaded(*gated), (fmt, argv, loaded(*gated))\n"
        "for fmt in ('csv', 'json'):\n"
        "    for argv in ensemble:\n"
        "        run(['--format', fmt, *argv])\n"
        "        assert not loaded('numpy', 'dataclasses', 'inspect', 'datetime'), argv\n"
        "assert loaded('fractions') == ['fractions'], 'ensemble computes its average as a Fraction'\n"
        "run(['--timestamp', *scalar[0]])\n"
        "assert loaded('datetime') == ['datetime'], 'timestamp'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=_subprocess_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    # montecarlo draws without numpy unless records are kept, and numpy's
    # stream then draws the counts; an n past 2**53 is refused on either route
    code = (
        "import sys\n"
        "import spinframes as sf\n"
        "state, setting = sf.prepare_state(sf.Z_AXIS), sf.X_AXIS\n"
        "assert 'numpy' not in sys.modules, 'import'\n"
        "assert sf.sample_single(state, setting, 2**53, 1, keep_records=False)[0] is None\n"
        "sf.empirical_chsh(sf.SINGLET, sf.CHSHSetting(*map(sf.Angle, (0.0, 1.6, 0.8, 2.4))), 10, 1)\n"
        "assert 'numpy' not in sys.modules, 'draw'\n"
        "if sys.argv[1] == 'records':\n"
        "    sf.sample_single(state, setting, 10, 1)\n"
        "    assert 'numpy' in sys.modules, 'records'\n"
        "else:\n"
        "    try:\n"
        "        sf.sample_single(state, setting, 2**53 + 1, 1, keep_records=False)\n"
        "    except sf.DomainError:\n"
        "        pass\n"
        "    else:\n"
        "        raise AssertionError('n = 2**53 + 1 was drawn')\n"
        "    assert 'numpy' not in sys.modules, 'n'\n"
    )
    for numpy_draw in ("records", "n"):
        proc = subprocess.run([sys.executable, "-c", code, numpy_draw], capture_output=True, env=_subprocess_env(),
                              timeout=60)
        assert proc.returncode == 0, proc.stderr.decode()


def _digests_without_numpy(python, argvs: list[str], cwd: Path, timeout: float) -> list[str]:
    """Run each argv through `main` in both formats, in one child process of
    `python` where any import of numpy raises, and return one line per run:
    the exit code and the digests of stdout and stderr. The child is a plain
    script, since the other interpreters have no pytest."""
    code = (
        "import contextlib, hashlib, io, sys\n"
        "sys.modules['numpy'] = None\n"
        "from spinframes.cli import main\n"
        "def sha(text):\n"
        "    return hashlib.sha256(text.encode()).hexdigest()[:16]\n"
        f"for argv in {argvs!r}:\n"
        "    for fmt in ('json', 'csv'):\n"
        "        out, err = io.StringIO(), io.StringIO()\n"
        "        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "            rc = main(['--format', fmt, *argv.split()])\n"
        "        print(rc, sha(out.getvalue()), sha(err.getvalue()))\n"
    )
    proc = subprocess.run([str(python), "-c", code], capture_output=True, env=_subprocess_env(), cwd=cwd,
                          timeout=timeout)
    assert proc.returncode == 0, (str(python), proc.stderr.decode())
    return proc.stdout.decode().splitlines()


def test_golden_bytes_without_numpy(tmp_path):
    # every pinned command, in a process where any import of numpy raises
    (tmp_path / "profile.csv").write_text("r,M\n0,0\n0.5,0.025\n1,0.2\n")
    got = [line.split() for line in _digests_without_numpy(sys.executable, [g[0] for g in GOLDEN], tmp_path, 120)]
    want = [[str(rc), sha, err_sha] for _, rc, json_sha, csv_sha, err_sha in GOLDEN for sha in (json_sha, csv_sha)]
    assert got == want


# seeded commands beyond GOLDEN, for the bytes every supported Python must
# share: 300 empirical CHSH seeds, whose stderr once moved by an ulp from
# Python 3.12 on, seeded spin and bell counts, and an n past 2**53, which
# exits 3 on every interpreter
TOO_MANY_TRIALS = "spin --theta-deg 60 --n 9007199254740993"
STATES = ("singlet", "psi+", "phi+", "phi-")
SEEDED_CORPUS = [
    *(f"chsh --mode empirical --state {STATES[s % 4]} --n {(1000, 37, 250000)[s % 3]} --seed {s}" for s in range(300)),
    *(f"spin --theta-deg {7 * s % 180} --n {10 ** (s % 7)} --seed {s}" for s in range(40)),
    *(f"bell --state {STATES[s % 4]} --theta-deg {11 * s % 360} --n {3 ** (s % 12)} --seed {s}" for s in range(40)),
    TOO_MANY_TRIALS,
]


def _pyenv_pythons() -> list[Path]:
    """Interpreters of Python 3.10 or later under $PYENV_ROOT/versions
    (~/.pyenv/versions when PYENV_ROOT is unset), other than the running one."""
    root = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv") / "versions"
    found = []
    for home in sorted(root.iterdir()) if root.is_dir() else []:
        version = tuple(int(v) for v in home.name.split(".") if v.isdigit())
        python = home / "bin" / "python3"
        if len(version) == 3 and version[:2] >= (3, 10) and version != sys.version_info[:3] and python.exists():
            found.append(python)
    return found


def test_seeded_bytes_are_the_same_on_every_python(tmp_path):
    # every pinned command and the seeded corpus, with numpy blocked, as
    # test_golden_bytes_without_numpy runs them
    pythons = _pyenv_pythons()
    if not pythons:
        pytest.skip("no other Python 3.10+ under $PYENV_ROOT/versions")
    (tmp_path / "profile.csv").write_text("r,M\n0,0\n0.5,0.025\n1,0.2\n")
    argvs = [g[0] for g in GOLDEN] + SEEDED_CORPUS
    want = _digests_without_numpy(sys.executable, argvs, tmp_path, 300)
    assert len(want) == 2 * len(argvs)
    too_many = 2 * argvs.index(TOO_MANY_TRIALS)
    assert [line.split()[0] for line in want[too_many:too_many + 2]] == ["3", "3"]
    for python in pythons:
        got = _digests_without_numpy(python, argvs, tmp_path, 300)
        differ = sorted({argvs[i // 2] for i, (a, b) in enumerate(zip(got, want)) if a != b})
        assert (len(got), differ) == (len(want), []), str(python)


def test_closed_stdout_exits_2_without_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "spinframes.cli", "--format", "csv", "grmass", "ratio-curve", "--points", "5000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_subprocess_env(),
    )
    # 5000 rows are far more than a pipe buffer holds, so the process is
    # still writing when the reader goes away
    assert proc.stdout.readline() == b"chi0,ratio\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert b"Traceback" not in err and b"Exception" not in err, err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["grmass", "ratio", "--chi0", "1"],
    ["--format", "csv", "grmass", "ratio-curve", "--points", "5000"],
], ids=" ".join)
def test_unwritable_stdout_exits_2_without_traceback(argv, unbuffered):
    # every write to /dev/full fails with ENOSPC
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "spinframes.cli", *argv], stdout=full, stderr=subprocess.PIPE,
            env=dict(_subprocess_env(), PYTHONUNBUFFERED=unbuffered), timeout=60,
        )
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"error:") and proc.stderr.count(b"\n") == 1, proc.stderr
    assert b"Traceback" not in proc.stderr and b"Exception" not in proc.stderr, proc.stderr


# floats at the edges of the double range, written as the CLI reads them
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 1e-320, 1e-200, -1e-200, 1e200, -1e200, 1e308, -1e308,
    sys.float_info.max, -sys.float_info.max, math.inf, -math.inf, math.nan,
    math.pi, math.nextafter(math.pi, 0.0), math.nextafter(math.pi, 4.0),
]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(-10.0, 10.0), st.floats())


def _flag(name: str, values=FLOATS):
    # `--name=value`, so that argparse does not read "-inf" as an option; a
    # number as its repr, which reads back exactly, and a word unquoted
    return values.map(lambda v: [f"--{name}={v if isinstance(v, str) else repr(v)}"])


def _maybe(flag):
    return st.one_of(st.just([]), flag)


def _angle(prefix: str = "theta"):
    return st.sampled_from(("deg", "rad")).flatmap(lambda unit: _flag(f"{prefix}-{unit}"))


def _command(*head: str, parts=()):
    return st.tuples(*parts).map(lambda ps: [*head, *itertools.chain.from_iterable(ps)])


# small runs, and runs large enough that the Bernstein bound on a mean is tighter than its range
_TRIALS = _flag("n", st.one_of(st.integers(-1, 20), st.integers(21, 10**6)))
_SEED = _maybe(_flag("seed", st.integers(-1, 2**64)))
_STATE = _maybe(_flag("state", st.sampled_from(("singlet", "psi+", "phi+", "phi-", "nope"))))
_GEOMETRIZED = st.sampled_from(([], ["--geometrized"]))
_POSITIVE = st.one_of(st.sampled_from([v for v in EDGE_FLOATS if v > 0.0]), st.floats(0.0, 10.0), st.floats(0.0))

FUZZ = {
    "spin": _command("spin", parts=(_angle(), _maybe(_TRIALS), _SEED)),
    "bell": _command("bell", parts=(
        _STATE, _angle(), _maybe(_flag("plane", st.sampled_from(("xy", "zx", "zy")))), _maybe(_TRIALS), _SEED,
    )),
    # angles whose cos^2(theta/2) is a small fraction, so that some calls exit 0
    "ensemble": _command("ensemble", parts=(
        st.one_of(_angle(), _flag("theta-deg", st.sampled_from((60.0, 90.0, 120.0, 180.0)))),
        _flag("n", st.integers(-1, 24)),
    )),
    "chsh": _command("chsh", parts=(
        _flag("mode", st.sampled_from(("analytic-max", "classical-max", "scan", "empirical"))), _STATE,
        _maybe(_flag("resolution-deg", st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(1.0, 720.0)))),
        _maybe(_TRIALS), _SEED,
    )),
    "ratio": _command("grmass", "ratio", parts=(_flag("chi0"), _maybe(_flag("scale-factor")))),
    "ratio-curve": _command("grmass", "ratio-curve", parts=(
        _maybe(_flag("start")), _maybe(_flag("stop")), _maybe(_flag("points", st.integers(-1, 20))),
    )),
    "binding": _command("grmass", "binding", parts=(
        st.sampled_from((["--uniform"], ["--profile", "profile.csv"])),
        _maybe(_flag("mass")), _maybe(_flag("radius")), _maybe(_flag("compactness")), _GEOMETRIZED,
    )),
    # a ball given the flags it needs, so that most calls reach the closed form
    "binding-uniform": _command("grmass", "binding", "--uniform", parts=(
        _flag("mass", _POSITIVE), st.one_of(_flag("radius", _POSITIVE), _flag("compactness", _POSITIVE)), _GEOMETRIZED,
    )),
    "metric": _command("grmass", "metric", parts=(
        _angle("chi"), _angle(), _maybe(_flag("scale-factor")), _GEOMETRIZED,
    )),
}


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def _assert_finite_csv(text: str) -> None:
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) >= 2
    for cell in itertools.chain.from_iterable(rows[1:]):
        try:
            value = float(cell)
        except ValueError:
            continue
        assert math.isfinite(value), text


def dust_cap_ratio(chi: float) -> float:
    """3 (2 chi - sin 2 chi) / (4 sin^3 chi), the dust-cap M_p/M, on both
    sides of SERIES_SWITCH. Below chi = 0.1 the numerator is summed by its
    series over chi^3, so that neither cancellation nor underflow enters."""
    if chi >= 0.1:
        return 3.0 * (2.0 * chi - math.sin(2.0 * chi)) / (4.0 * math.sin(chi) ** 3)
    series = math.fsum((-1) ** (k + 1) * 2.0 ** (2 * k + 1) * chi ** (2 * k - 2) / math.factorial(2 * k + 1)
                       for k in range(1, 8))
    return 3.0 * series / (4.0 * (math.sin(chi) / chi if chi else 1.0) ** 3)


# the library's ratio is its x^6 series below SERIES_SWITCH, which leaves
# 5e-17 relative there, and the direct form above, which cancellation leaves
# within 1e-12 relative (3.1e-13 at most on a grid of 10^5 points in (0, pi))
RATIO_RTOL = 1e-9


def _rows(fmt: str, out: str) -> list[dict]:
    """The result rows of an exit-0 output, numbers as floats."""
    if fmt == "json":
        data = json.loads(out)["data"]
        return data.get("points", [data])
    rows = list(csv.DictReader(io.StringIO(out)))
    for row in rows:
        for key, value in row.items():
            try:
                row[key] = float(value)
            except ValueError:
                pass
    return rows


def _flag_value(argv: list[str], name: str, default: str) -> str:
    return next((arg.split("=", 1)[1] for arg in argv if arg.startswith(f"--{name}=")), default)


def _theta(argv: list[str]) -> float:
    """The angle in radians that --theta-deg or --theta-rad gives."""
    degrees = _flag_value(argv, "theta-deg", "")
    return math.radians(float(degrees)) if degrees else float(_flag_value(argv, "theta-rad", ""))


# Bernstein bound on |sample mean - mean| for n draws of +/-1 values, which
# fails by chance with probability at most 1e-9, as perfbench/oracles.py's
# mc_tolerance gives it
MC_LOG_TERM = math.log(2.0 / 1e-9)


def mc_tolerance(n: int, mean: float) -> float:
    var = max(1.0 - mean * mean, 0.0)
    lin = 4.0 * MC_LOG_TERM / 3.0
    return (lin + math.sqrt(lin * lin + 8.0 * n * MC_LOG_TERM * var)) / (2.0 * n)


def _check_run(run: dict, n: int, mean: float) -> None:
    """A Monte Carlo run of n trials: stderr = sqrt((1 - mean^2)/(n - 1)),
    0 at n = 1, and the mean within the Bernstein bound of the exact `mean`."""
    assert run["n"] == n, run
    stderr = math.sqrt((1.0 - run["mean"] * run["mean"]) / (n - 1)) if n > 1 else 0.0
    assert abs(run["stderr"] - stderr) <= 1e-12, (run, stderr)
    assert abs(run["mean"] - mean) <= mc_tolerance(n, mean), (run, mean)


def _mc_run(row: dict) -> dict | None:
    """The Monte Carlo block of a row, nested in JSON and flat in CSV, or None."""
    if "mc_n" in row:
        return {key: row[f"mc_{key}"] for key in ("n", "mean", "stderr")}
    return row.get("mc")


# the symmetry planes (e1, e2), and each Bell state's correlation tensor
# T_ij = <psi| sigma_i (x) sigma_j |psi>, which is diagonal, with its own plane
PLANE_AXES = {
    "xy": ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
    "zx": ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0)),
    "zy": ((0.0, 0.0, 1.0), (0.0, 1.0, 0.0)),
}
BELL_TENSORS = {  # label: (diagonal of T, plane), with the amplitudes (uu, ud, du, dd) times sqrt 2
    "singlet": ((-1.0, -1.0, -1.0), "zx"),  # (0, 1, -1, 0)
    "triplet_psi_plus": ((1.0, 1.0, -1.0), "xy"),  # (0, 1, 1, 0)
    "triplet_phi_plus": ((1.0, -1.0, 1.0), "zx"),  # (1, 0, 0, 1)
    "triplet_phi_minus": ((-1.0, 1.0, 1.0), "zy"),  # (1, 0, 0, -1)
}
STATE_FLAGS = {"psi+": "triplet_psi_plus", "phi+": "triplet_phi_plus", "phi-": "triplet_phi_minus"}
QUANTUM_TOL = 1e-12


def bell_correlation(state: str, plane: str, alpha: float, beta: float) -> float:
    """E = a^T T b for Alice's and Bob's settings at angles alpha and beta in the plane."""
    e1, e2 = PLANE_AXES[plane]
    a = [math.cos(alpha) * u + math.sin(alpha) * v for u, v in zip(e1, e2)]
    b = [math.cos(beta) * u + math.sin(beta) * v for u, v in zip(e1, e2)]
    return math.fsum(x * t * y for x, t, y in zip(a, BELL_TENSORS[state][0], b))


def _check_spin(argv: list[str], fmt: str, out: str) -> None:
    """p_up = cos^2(theta/2) for spin up measured at theta, and p_up + p_down = 1;
    a Monte Carlo run has --n trials and averages to the expectation."""
    for row in _rows(fmt, out):
        assert abs(row["p_up"] - math.cos(row["theta_rad"] / 2.0) ** 2) <= QUANTUM_TOL, row
        assert abs(row["p_up"] + row["p_down"] - 1.0) <= QUANTUM_TOL, row
        if (run := _mc_run(row)) is not None:
            _check_run(run, int(_flag_value(argv, "n", "")), row["expectation"])


def _check_bell(argv: list[str], fmt: str, out: str) -> None:
    """p(i, j) = (1 + i j E)/4 with E = a^T T b for a at 0 and b at theta in
    the plane given; Bob's mean is E given Alice up, -E given Alice down; a
    Monte Carlo run has --n trials and averages to E."""
    for row in _rows(fmt, out):
        e = bell_correlation(row["state"], row["plane"], 0.0, row["theta_rad"])
        for name, ij in (("p_pp", 1), ("p_pm", -1), ("p_mp", -1), ("p_mm", 1)):
            assert abs(row[name] - (1.0 + ij * e) / 4.0) <= QUANTUM_TOL, row
        assert abs(row["correlation"] - e) <= QUANTUM_TOL, row
        assert abs(row["conditional_given_up"] - e) <= QUANTUM_TOL, row
        assert abs(row["conditional_given_down"] + e) <= QUANTUM_TOL, row
        if (run := _mc_run(row)) is not None:
            _check_run(run, int(_flag_value(argv, "n", "")), e)


def _check_chsh(argv: list[str], fmt: str, out: str) -> None:
    """classical-max is 2; analytic-max is 2 sqrt 2, and S at its angles; the
    scan a = 0, b = t, a' = 2t, b' = 3t in the state's plane is
    +-(3 cos t - cos 3t); an estimate lies in [-4, 4] with a finite stderr,
    and in JSON it is m0 - m1 + m2 + m3 over four runs of --n trials at
    a, a', b, b' = 0, 90, 45, 135 degrees, with stderr sqrt(0.0 + sum s_i^2)."""
    rows = _rows(fmt, out)
    mode = _flag_value(argv, "mode", "")
    if mode == "classical-max":  # --state is checked, but no state enters the local bound
        assert [row["value"] for row in rows] == [2.0], rows
        return
    label = _flag_value(argv, "state", "singlet")
    state = STATE_FLAGS.get(label, label)
    plane = BELL_TENSORS[state][1]
    e = functools.partial(bell_correlation, state, plane)
    for row in rows:
        if mode == "analytic-max":
            assert row.get("plane", plane) == plane, row
            assert abs(row["value"] - 2.0 * math.sqrt(2.0)) <= QUANTUM_TOL, row
            a, a_prime, b, b_prime = (row[f"{name}_rad"] for name in ("alice", "alice_prime", "bob", "bob_prime"))
            s = e(a, b) - e(a, b_prime) + e(a_prime, b) + e(a_prime, b_prime)
            assert abs(s - row["value"]) <= QUANTUM_TOL, row
        elif mode == "scan":
            t = row["angle_rad"]
            assert abs(row["s"] - e(0.0, 0.0) * (3.0 * math.cos(t) - math.cos(3.0 * t))) <= QUANTUM_TOL, row
        else:
            assert mode == "empirical", argv
            assert -4.0 <= row["value"] <= 4.0 and 0.0 <= row["stderr"] < math.inf, row
            n = int(_flag_value(argv, "n", "100000"))
            assert row["n_per_pair"] == n, row
            if fmt == "csv":  # the terms are in JSON only
                continue
            a, a_prime, b, b_prime = (math.radians(d) for d in (0.0, 90.0, 45.0, 135.0))
            pairs = ((a, b), (a, b_prime), (a_prime, b), (a_prime, b_prime))
            assert len(row["terms"]) == 4, row
            for term, pair in zip(row["terms"], pairs):
                _check_run(term, n, e(*pair))
            m0, m1, m2, m3 = (term["mean"] for term in row["terms"])
            s0, s1, s2, s3 = (term["stderr"] for term in row["terms"])
            assert row["value"] == m0 - m1 + m2 + m3, row
            assert row["stderr"] == math.sqrt(0.0 + s0 * s0 + s1 * s1 + s2 * s2 + s3 * s3), row


def _check_grmass(argv: list[str], fmt: str, out: str) -> None:
    """The closed-form invariants of a ratio, ratio-curve or binding row."""
    command = argv[1]
    for row in _rows(fmt, out):
        assert row["ratio"] >= 1.0, row
        if command in ("ratio", "ratio-curve"):
            want = dust_cap_ratio(row["chi0"])
            assert abs(row["ratio"] - want) <= RATIO_RTOL * want, row
            continue
        assert row["proper_mass"] >= row["mass"], row
        if row["kind"] == "uniform":  # M_p = M ratio(arcsin sqrt(C)); an ulp of slack for a subnormal M
            ratio = dust_cap_ratio(math.asin(math.sqrt(row["compactness"])))
            assert abs(row["ratio"] - ratio) <= RATIO_RTOL * ratio, row
            want = row["mass"] * ratio
            assert abs(row["proper_mass"] - want) <= RATIO_RTOL * want + math.ulp(want), row


def _check_ensemble(argv: list[str], fmt: str, out: str) -> None:
    """bob_up + bob_down = n with bob_up/n within 1e-12 of cos^2(theta/2),
    the exact Fraction average, and the trials: bob_up rows of Bob +1, then
    -1 rows; in CSV the last row is `average,,<fraction>`."""
    n = int(_flag_value(argv, "n", ""))
    if fmt == "json":
        data = json.loads(out)["data"]
        theta, ups, downs = data["theta_rad"], data["bob_up"], data["bob_down"]
        assert data["n"] == n, data
        average = Fraction(ups - downs, n)
        assert data["average"] == str(average) and data["average_float"] == float(average), data
        trials = [(t["index"], t["alice"], t["bob"]) for t in data["trials"]]
    else:
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["index", "alice", "bob"], rows[0]
        *body, last = rows[1:]
        theta, ups = _theta(argv), sum(bob == "+1" for _, _, bob in body)
        downs = len(body) - ups
        average = Fraction(ups - downs, n)
        assert last == ["average", "", str(average)], last
        trials = [(int(index), alice, bob) for index, alice, bob in body]
    assert ups + downs == n, (ups, downs, n)
    assert abs(Fraction(ups, n) - Fraction(math.cos(theta / 2.0) ** 2)) <= 1e-12, (ups, n, theta)
    assert trials == [(i, "+1", "+1" if i < ups else "-1") for i in range(n)], trials


def _check_metric(argv: list[str], fmt: str, out: str) -> None:
    """g_tt = -c c and g_chichi = a a exactly, c = 1 with --geometrized and
    299792458 otherwise; g_thetatheta = a^2 sin^2 chi and
    g_phiphi = a^2 sin^2 chi sin^2 theta to 1e-12 a^2."""
    c = 1.0 if "--geometrized" in argv else 299792458.0
    for row in _rows(fmt, out):
        a2 = row["scale_factor"] * row["scale_factor"]
        s_chi, s_theta = math.sin(row["chi_rad"]), math.sin(row["theta_rad"])
        assert row["g_tt"] == -(c * c) and row["g_chi_chi"] == a2, row
        assert abs(row["g_theta_theta"] - a2 * s_chi * s_chi) <= 1e-12 * a2, row
        assert abs(row["g_phi_phi"] - a2 * s_chi * s_chi * s_theta * s_theta) <= 1e-12 * a2, row


# FUZZ command -> the closed forms its exit-0 output holds
ORACLES = {
    "spin": _check_spin,
    "bell": _check_bell,
    "ensemble": _check_ensemble,
    "chsh": _check_chsh,
    "metric": _check_metric,
    **dict.fromkeys(("ratio", "ratio-curve", "binding", "binding-uniform"), _check_grmass),
}


@pytest.mark.parametrize("command", sorted(FUZZ))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzz_ends_in_a_documented_way(tmp_path, monkeypatch, command, data):
    """Every call exits 0, 2, 3 or 4, the same in both formats, and prints
    either nothing or valid output with only finite numbers; the numbers
    of every command hold their closed forms, and its Monte Carlo runs
    their statistics."""
    argv = data.draw(FUZZ[command])
    if "--profile" in argv:
        values = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(0.0, 10.0))
        rows = data.draw(st.lists(st.tuples(values, values), max_size=3).map(sorted))
        (tmp_path / "profile.csv").write_text("r,M\n0,0\n" + "".join(f"{r!r},{m!r}\n" for r, m in rows))
        monkeypatch.chdir(tmp_path)
    codes = set()
    for fmt in ("json", "csv"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["--format", fmt, *argv])
        out, err = out.getvalue(), err.getvalue()
        assert rc in (0, 2, 3, 4), argv
        codes.add(rc)
        if rc != 0:
            assert out == "" and err, argv
        elif fmt == "json":
            jsonschema.validate(json.loads(out, parse_constant=_reject_constant), OUTPUT_SCHEMA)
        else:
            _assert_finite_csv(out)
        if rc == 0 and command in ORACLES:
            ORACLES[command](argv, fmt, out)
    assert len(codes) == 1, argv
