"""Acceptance gate: the ten headline claims, each printed as PASS or FAIL.

Run with `pytest -s tests/test_acceptance.py` to see one line per
criterion. Tolerances are stated inline; timing guards use wall-clock
seconds.
"""
import contextlib
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from spinframes import (
    ALL_BELL_STATES,
    Angle,
    CHSHSetting,
    JointSetting,
    Outcome,
    PHI_MINUS,
    PHI_PLUS,
    PSI_PLUS,
    SINGLET,
    TSIRELSON_BOUND,
    UnitsConfig,
    JunctionConfig,
    MassProfile,
    UnitVector3,
    Z_AXIS,
    ZX_PLANE,
    build_exact_ensemble,
    chsh_classical_max,
    chsh_quantum_max,
    chsh_scan,
    conditional_average,
    correlation,
    empirical_chsh,
    expectation,
    flrw_mass_ratio,
    joint_distribution,
    prepare_state,
    projection_probabilities,
    proper_mass_integral,
    rotate_state,
    sample_joint,
    sample_single,
    so3_from_su2,
    su2_from_axis_angle,
)
from spinframes.cli import main as cli_main

TRIPLETS = (PSI_PLUS, PHI_PLUS, PHI_MINUS)
DEGREE_GRID = [Angle.from_degrees(float(d)) for d in range(0, 181)]


@contextlib.contextmanager
def criterion(number: int, label: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS [{time.perf_counter() - start:.2f}s]")


def test_01_projection_probabilities_exact():
    with criterion(1, "p_up = cos^2(theta/2) over 181 angles, 1e-12, <1s"):
        start = time.perf_counter()
        state = prepare_state(Z_AXIS)
        for theta in DEGREE_GRID:
            dist = projection_probabilities(state, ZX_PLANE.direction(theta))
            assert abs(dist.p_up - math.cos(theta.radians / 2.0) ** 2) <= 1e-12
            assert abs(dist.p_down - math.sin(theta.radians / 2.0) ** 2) <= 1e-12
            assert abs(dist.p_up + dist.p_down - 1.0) <= 1e-12
        assert time.perf_counter() - start < 1.0


def test_02_average_only_projection_identity():
    with criterion(2, "expectation equals cos(theta), 1e-12"):
        state = prepare_state(Z_AXIS)
        for theta in DEGREE_GRID:
            dist = projection_probabilities(state, ZX_PLANE.direction(theta))
            assert abs(expectation(dist) - math.cos(theta.radians)) <= 1e-12


def test_03_exact_ensemble_figure(capsys):
    with criterion(3, "ensemble 60 deg / 8 trials: 6 up, 2 down, average exactly 1/2"):
        table = build_exact_ensemble(Angle.from_degrees(60.0), 8)
        assert table.bob_up_given_alice_up == 6
        assert table.bob_down_given_alice_up == 2
        assert table.conditional_average() == Fraction(1, 2)

        rc = cli_main(["ensemble", "--theta-deg", "60", "--n", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        data = json.loads(out)["data"]
        assert (data["bob_up"], data["bob_down"], data["average"]) == (6, 2, "1/2")


def test_04_conservation_at_equal_settings():
    with criterion(4, "equal settings: triplets agree, singlet disagrees, 1e-12"):
        common = [Angle.from_degrees(10.0 * k) for k in range(19)]
        for state in TRIPLETS:
            for theta in common:
                d = joint_distribution(
                    state, JointSetting.in_plane(state.plane, theta, theta)
                )
                assert d.p_pm <= 1e-12 and d.p_mp <= 1e-12
        for theta in common:
            d = joint_distribution(SINGLET, JointSetting.in_plane(ZX_PLANE, theta, theta))
            assert d.p_pp <= 1e-12 and d.p_mm <= 1e-12


def test_05_average_only_conservation():
    with criterion(5, "conditional average = cos(theta), 1e-12; outcomes only +/-1"):
        for state in TRIPLETS:
            for theta in DEGREE_GRID:
                setting = JointSetting.in_plane(state.plane, Angle(0.0), theta)
                got = conditional_average(state, setting, Outcome.UP)
                assert abs(got - math.cos(theta.radians)) <= 1e-12
        setting = JointSetting.in_plane(PHI_PLUS.plane, Angle(0.0), Angle.from_degrees(60.0))
        records, _ = sample_joint(PHI_PLUS, setting, 2000, seed=5)
        assert records.shape == (2000, 2)
        for a, b in records:
            assert a in (Outcome.UP, Outcome.DOWN)
            assert b in (Outcome.UP, Outcome.DOWN)


def test_06_chsh_bounds():
    with criterion(6, "classical max 2 exactly; quantum max 2*sqrt(2) +/- 1e-6; <10s"):
        start = time.perf_counter()
        assert chsh_classical_max() == 2.0
        for state in ALL_BELL_STATES:
            value, setting = chsh_quantum_max(state)
            assert abs(value - TSIRELSON_BOUND) <= 1e-6
        for state in ALL_BELL_STATES:
            points = chsh_scan(state, Angle(math.radians(1.0)))
            assert all(abs(s) <= TSIRELSON_BOUND + 1e-9 for _, s in points)
        assert time.perf_counter() - start < 10.0


def test_07_monte_carlo_convergence(capsys):
    with criterion(7, "10^6 trials: mean near cos(60), CHSH near 2*sqrt(2), byte-identical; <30s"):
        start = time.perf_counter()
        _, stats = sample_single(
            prepare_state(Z_AXIS),
            ZX_PLANE.direction(Angle.from_degrees(60.0)),
            10**6,
            seed=42,
            keep_records=False,
        )
        assert abs(stats.mean - 0.5) < 0.005

        optimal = CHSHSetting(
            Angle(0.0), Angle.from_degrees(90.0), Angle.from_degrees(45.0),
            Angle.from_degrees(135.0), ZX_PLANE,
        )
        est = empirical_chsh(SINGLET, optimal, 10**6, seed=7)
        assert abs(abs(est.value) - TSIRELSON_BOUND) < 0.02

        argv = ["spin", "--theta-deg", "60", "--n", "1000000", "--seed", "42"]
        rc1 = cli_main(argv)
        out1 = capsys.readouterr().out
        rc2 = cli_main(argv)
        out2 = capsys.readouterr().out
        assert rc1 == rc2 == 0
        assert out1.encode() == out2.encode()
        assert time.perf_counter() - start < 30.0


def test_08_mass_ratio_closed_form():
    with criterion(8, "ratio(pi/2) = 3*pi/4; Taylor check at 0.1; increasing on 1000 grid"):
        assert abs(flrw_mass_ratio(JunctionConfig(math.pi / 2)).ratio - 3 * math.pi / 4) <= 1e-12
        taylor = 1.0 + 3.0 * 0.1**2 / 10.0
        assert abs(flrw_mass_ratio(JunctionConfig(0.1)).ratio - taylor) <= 1e-5
        grid = np.linspace(0.01, 3.1, 1000)
        ratios = [flrw_mass_ratio(JunctionConfig(float(x))).ratio for x in grid]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_09_binding_energy_quadrature():
    with criterion(9, "uniform-sphere quadrature vs arcsin oracle, 1e-9 relative; M_p > M"):
        geom = UnitsConfig.geometrized()
        for x in (0.1, 0.3, 0.5, 0.8):
            oracle = (
                3.0 * math.asin(math.sqrt(x)) / (2.0 * x**1.5)
                - 3.0 * math.sqrt(1.0 - x) / (2.0 * x)
            )
            profile = MassProfile.uniform(1.0, 2.0 / x)
            got = proper_mass_integral(profile, geom)
            assert abs(got - oracle) / oracle <= 1e-9
            assert got > profile.mass


def test_10_rotation_double_cover_and_invariance():
    with criterion(10, "SU(2)->SO(3) homomorphism/double cover 1e-10 over 1000 pairs; invariance 1e-10"):
        rng = np.random.default_rng(1000)

        def direction():
            v = rng.normal(size=3)
            return UnitVector3.normalized(float(v[0]), float(v[1]), float(v[2]))

        def su2():
            return su2_from_axis_angle(direction(), Angle(float(rng.uniform(0, 2 * math.pi))))

        for _ in range(1000):
            u1, u2 = su2(), su2()
            left = np.asarray(so3_from_su2(u1.compose(u2)).matrix)
            right = np.asarray((so3_from_su2(u1).compose(so3_from_su2(u2))).matrix)
            assert np.abs(left - right).max() <= 1e-10
            assert np.abs(np.asarray(so3_from_su2(-u1).matrix) - np.asarray(so3_from_su2(u1).matrix)).max() <= 1e-10

        for _ in range(200):
            d, s, u = direction(), direction(), su2()
            r = so3_from_su2(u)
            before = projection_probabilities(prepare_state(d), s)
            after = projection_probabilities(rotate_state(prepare_state(d), u), r.apply(s))
            assert abs(before.p_up - after.p_up) <= 1e-10
            assert abs(before.p_down - after.p_down) <= 1e-10
