import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinframes import (
    Angle,
    DomainError,
    Outcome,
    OutcomeDistribution,
    QubitState,
    UnitVector3,
    X_AXIS,
    Z_AXIS,
    expectation,
    prepare_state,
    projection_probabilities,
)
from conftest import DEGREE_GRID, random_direction


def angle_between(u: UnitVector3, v: UnitVector3) -> float:
    """The angle from u to v in radians; atan2 stays accurate near 0 and pi,
    where acos of the dot product flattens."""
    cross = (u.y * v.z - u.z * v.y, u.z * v.x - u.x * v.z, u.x * v.y - u.y * v.x)
    return math.atan2(math.hypot(*cross), u.dot(v))


class TestAngle:
    def test_from_degrees(self):
        assert Angle.from_degrees(180.0).radians == pytest.approx(math.pi, abs=1e-15)
        assert Angle(math.pi / 3).degrees == pytest.approx(60.0, abs=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            Angle(math.nan)
        with pytest.raises(DomainError):
            Angle(math.inf)


class TestUnitVector:
    def test_normalized(self):
        v = UnitVector3.normalized(3.0, 0.0, 4.0)
        assert (v.x, v.z) == (0.6, 0.8)

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            UnitVector3.normalized(0.0, 0.0, 0.0)

    def test_non_unit_constructor_rejected(self):
        with pytest.raises(DomainError):
            UnitVector3(1.0, 1.0, 0.0)

    def test_from_polar(self):
        v = UnitVector3.from_polar(Angle(math.pi / 2), Angle(0.0))
        assert v.x == pytest.approx(1.0, abs=1e-15)
        assert v.z == pytest.approx(0.0, abs=1e-15)


class TestQubitState:
    def test_norm_enforced(self):
        with pytest.raises(DomainError):
            QubitState(1.0, 1.0)

    def test_equality_ignores_global_phase(self):
        phase = complex(math.cos(1.2), math.sin(1.2))
        s = prepare_state(UnitVector3.from_polar(Angle(0.7), Angle(0.3)))
        t = QubitState(phase * s.amp_up, phase * s.amp_down)
        assert s == t

    def test_bloch_vector_round_trip(self, rng):
        for _ in range(50):
            d = random_direction(rng)
            b = prepare_state(d).bloch_vector
            assert b.dot(d) == pytest.approx(1.0, abs=1e-12)

    def test_poles(self):
        up = prepare_state(Z_AXIS)
        assert abs(up.amp_up) == pytest.approx(1.0, abs=1e-15)
        down = prepare_state(-Z_AXIS)
        assert abs(down.amp_down) == pytest.approx(1.0, abs=1e-15)


class TestOutcomeDistribution:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(DomainError):
            OutcomeDistribution(0.6, 0.6)

    def test_probabilities_must_be_in_range(self):
        with pytest.raises(DomainError):
            OutcomeDistribution(1.4, -0.4)

    def test_tiny_negative_is_clamped(self):
        d = OutcomeDistribution(1.0 + 1e-15, -1e-15)
        assert d.p_up == 1.0
        assert d.p_down == 0.0

    def test_outcome_values(self):
        assert int(Outcome.UP) == 1
        assert int(Outcome.DOWN) == -1


class TestProjection:
    def test_p_up_is_half_angle_cosine_squared(self):
        state = prepare_state(Z_AXIS)
        for theta in DEGREE_GRID:
            setting = UnitVector3.from_polar(theta, Angle(0.0))
            dist = projection_probabilities(state, setting)
            assert abs(dist.p_up - math.cos(theta.radians / 2) ** 2) <= 1e-12
            assert abs(dist.p_up + dist.p_down - 1.0) <= 1e-12

    def test_average_reproduces_classical_projection(self):
        state = prepare_state(Z_AXIS)
        for theta in DEGREE_GRID:
            setting = UnitVector3.from_polar(theta, Angle(0.0))
            dist = projection_probabilities(state, setting)
            assert abs(expectation(dist) - math.cos(theta.radians)) <= 1e-12
            assert abs(
                expectation(dist) - Z_AXIS.dot(setting)
            ) <= 1e-12

    def test_depends_only_on_relative_angle(self, rng):
        for _ in range(25):
            d = random_direction(rng)
            s = random_direction(rng)
            dist = projection_probabilities(prepare_state(d), s)
            theta = angle_between(d, s)
            assert dist.p_up == pytest.approx(math.cos(theta / 2) ** 2, abs=1e-12)

    def test_orthogonal_setting_is_unbiased(self):
        dist = projection_probabilities(prepare_state(Z_AXIS), X_AXIS)
        assert dist.p_up == pytest.approx(0.5, abs=1e-15)
        assert expectation(dist) == pytest.approx(0.0, abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(
    theta=st.floats(0.0, math.pi),
    phi=st.floats(0.0, 2 * math.pi),
    alpha=st.floats(0.0, math.pi),
    beta=st.floats(0.0, 2 * math.pi),
)
def test_born_rule_matches_half_angle_form(theta, phi, alpha, beta):
    d = UnitVector3.from_polar(Angle(theta), Angle(phi))
    s = UnitVector3.from_polar(Angle(alpha), Angle(beta))
    dist = projection_probabilities(prepare_state(d), s)
    half = angle_between(d, s) / 2
    assert abs(dist.p_up - math.cos(half) ** 2) <= 1e-12
    assert abs(dist.p_down - math.sin(half) ** 2) <= 1e-12
    assert abs(expectation(dist) - d.dot(s)) <= 1e-12
