import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

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

    def test_binding_bad_header(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n0,0\n1,1\n")
        rc, _, err = run_cli(capsys, "grmass", "binding", "--profile", str(path))
        assert rc == 3
        assert "line 1" in err

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
    rc, out, err = run_cli(capsys, *argv, "--n", str(2**63))
    assert rc == 3
    assert out == ""
    assert str(2**63) in err
    data = run_json(capsys, *argv, "--n", str(2**63 - 1))["data"]
    if command == "chsh":
        assert data["n_per_pair"] == 2**63 - 1
    else:
        assert data["mc"]["n"] == 2**63 - 1


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

    def test_grmass_manifest_command_names_subcommand(self, capsys):
        payload = run_json(capsys, "grmass", "ratio", "--chi0", "0.5")
        assert payload["manifest"]["command"] == "grmass ratio"


def _subprocess_env() -> dict:
    src = Path(__file__).resolve().parents[1] / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))


# commands whose result is a handful of closed-form numbers: they must run
# without importing numpy
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
        ["chsh", "--mode", "scan", "--resolution-deg", "10"],
        ["chsh", "--mode", "empirical", "--n", "100"],
        ["grmass", "binding", "--profile", str(profile), "--geometrized"],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "import spinframes, spinframes.cli\n"
        "def loaded(name):\n"
        "    return any(m.split('.')[0] == name for m in sys.modules)\n"
        "def run(argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert spinframes.cli.main(argv) == 0, argv\n"
        "assert not loaded('numpy') and not loaded('scipy'), 'import'\n"
        "scalar, array = json.loads(sys.argv[1])\n"
        "for argv in scalar:\n"
        "    for fmt in ('json', 'csv'):\n"
        "        run(['--format', fmt, *argv])\n"
        "        assert not loaded('numpy'), argv\n"
        "for argv in array:\n"
        "    run(argv)\n"
        "assert loaded('numpy') and not loaded('scipy')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps([SCALAR_COMMANDS, array_commands])],
        capture_output=True, env=_subprocess_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()


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
