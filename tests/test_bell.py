import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinframes import (
    ALL_BELL_STATES,
    Angle,
    BellState,
    CHSHSetting,
    DomainError,
    EnsembleTable,
    JointDistribution,
    JointSetting,
    Outcome,
    PHI_MINUS,
    PHI_PLUS,
    PSI_PLUS,
    SINGLET,
    SymmetryPlane,
    TSIRELSON_BOUND,
    UndefinedConditionalError,
    UnitVector3,
    X_AXIS,
    XY_PLANE,
    ZX_PLANE,
    ZY_PLANE,
    build_exact_ensemble,
    chsh_classical_max,
    chsh_quantum_max,
    chsh_scan,
    chsh_value,
    conditional_average,
    correlation,
    joint_distribution,
    su2_from_axis_angle,
)
from spinframes.bell import MAX_ENSEMBLE_TRIALS, MAX_SCAN_POINTS, RATIONAL_TOL, _minimal_denominator_fraction
from conftest import random_direction

TRIPLETS = (PSI_PLUS, PHI_PLUS, PHI_MINUS)
COMMON_ANGLES = [Angle.from_degrees(10.0 * k) for k in range(19)]

# (I x U)|phi+>: maximally entangled, with a correlation tensor that is
# not diagonal, so no setting is special.
_U = su2_from_axis_angle(UnitVector3.normalized(1.0, 2.0, 3.0), Angle(1.1)).matrix
ROTATED = BellState(
    "rotated_phi_plus",
    np.kron(np.eye(2), _U) @ (np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)),
    ZX_PLANE,
)
STATES_WITH_ROTATED = ALL_BELL_STATES + (ROTATED,)


def enumerate_classical_strategies() -> list[tuple[tuple[int, int, int, int], int]]:
    """All 16 deterministic local strategies and their exact S values: the
    oracle for the closed-form classical bound. A strategy assigns +/-1 to
    each of Alice's settings (a, a') and each of Bob's (b, b')."""
    signs = (1, -1)
    return [((aa, aap, bb, bbp), aa * bb - aa * bbp + aap * bb + aap * bbp)
            for aa in signs for aap in signs for bb in signs for bbp in signs]


SIGMA = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def kron_born_probabilities(state: BellState, alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    """p(i, j) = <psi| P_a^i x P_b^j |psi> with explicit Kronecker products,
    in the order (++, +-, -+, --)."""
    psi = np.array(state.psi)

    def projector(n, sign):
        return (np.eye(2) + sign * np.tensordot(n, SIGMA, 1)) / 2.0

    return np.array(
        [
            np.vdot(psi, np.kron(projector(alice, i), projector(bob, j)) @ psi).real
            for i in (1, -1)
            for j in (1, -1)
        ]
    )


def lattice_chsh_max(state: BellState, step_deg: float) -> float:
    """Largest S over all four in-plane angles on a lattice of the given step,
    with every correlation taken from explicit Kronecker products."""
    t = np.radians(np.arange(0.0, 360.0, step_deg))
    plane = state.plane
    e1, e2 = (np.array([e.x, e.y, e.z]) for e in (plane.e1, plane.e2))
    dirs = np.outer(np.cos(t), e1) + np.outer(np.sin(t), e2)
    obs = np.tensordot(dirs, SIGMA, 1)  # n.sigma for every lattice direction
    kron = np.einsum("iab,jcd->ijacbd", obs, obs).reshape(len(t), len(t), 4, 4)
    psi = np.array(state.psi)
    e = np.einsum("k,ijkl,l->ij", psi.conj(), kron, psi).real
    # for each (a, a'), b and b' maximise their own terms independently
    plus = (e[:, None, :] + e[None, :, :]).max(axis=-1)
    minus = (e[None, :, :] - e[:, None, :]).max(axis=-1)
    return float((plus + minus).max())


def binary_search_fraction(value: float, tol: float) -> Fraction:
    """Smallest-denominator fraction within `tol` of `value`, by bisection on
    the denominator cap of Fraction.limit_denominator (about 60 calls)."""
    target = Fraction(value)
    bound = Fraction(tol)

    def ok(cap: int) -> bool:
        return abs(target.limit_denominator(cap) - target) <= bound

    lo, hi = 1, 2**60  # tol >= 1e-15 leaves a fraction well below this cap
    while lo < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid + 1
    return target.limit_denominator(lo)


def marginals_up(d: JointDistribution) -> tuple[float, float]:
    """P(Alice = +1) and P(Bob = +1), summed from the four joint probabilities."""
    pp, pm, mp, _ = d.probabilities()
    return pp + pm, pp + mp


def in_plane(state: BellState, alice_deg: float, bob_deg: float) -> JointSetting:
    return JointSetting.in_plane(
        state.plane, Angle.from_degrees(alice_deg), Angle.from_degrees(bob_deg)
    )


class TestBellStates:
    def test_labels_and_planes(self):
        assert SINGLET.plane is ZX_PLANE
        assert PSI_PLUS.plane is XY_PLANE
        assert PHI_PLUS.plane is ZX_PLANE
        assert PHI_MINUS.plane is ZY_PLANE

    def test_from_label_aliases(self):
        assert BellState.from_label("psi+") is PSI_PLUS
        assert BellState.from_label("PHI-") is PHI_MINUS
        assert BellState.from_label("triplet_phi_plus") is PHI_PLUS
        assert BellState.from_label("psi-") is SINGLET

    def test_unknown_label_lists_valid_ones(self):
        with pytest.raises(DomainError, match="singlet"):
            BellState.from_label("werner")

    def test_rejects_product_state(self):
        with pytest.raises(DomainError):
            BellState("product", np.array([1.0, 0.0, 0.0, 0.0]), ZX_PLANE)

    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            BellState("big", np.array([0.0, 1.0, -1.0, 0.0]), ZX_PLANE)

    def test_rejects_nan_amplitude(self):
        r = 1.0 / math.sqrt(2.0)
        with pytest.raises(DomainError):
            BellState("x", (math.nan, r, -r, 0.0), ZX_PLANE)

    @pytest.mark.parametrize("psi", ["abcd", ("1", "0", "0", "x")])
    def test_rejects_malformed_amplitudes(self, psi):
        with pytest.raises(DomainError, match="four amplitudes"):
            BellState("x", psi, ZX_PLANE)

    def test_equality_ignores_global_phase(self):
        flipped = BellState("singlet", -np.array(SINGLET.psi), ZX_PLANE)
        assert flipped == SINGLET

    def test_correlation_tensors_are_diagonal_signatures(self):
        expected = {
            "singlet": (-1.0, -1.0, -1.0),
            "triplet_psi_plus": (1.0, 1.0, -1.0),
            "triplet_phi_plus": (1.0, -1.0, 1.0),
            "triplet_phi_minus": (-1.0, 1.0, 1.0),
        }
        for state in ALL_BELL_STATES:
            t = state.correlation_tensor
            assert np.abs(t - np.diag(expected[state.label])).max() <= 1e-12

    def test_rotated_state_has_non_diagonal_tensor(self):
        t = ROTATED.correlation_tensor
        assert np.abs(t - np.diag(np.diag(t))).max() > 0.1


class TestPlanes:
    def test_direction_parametrization(self):
        v = ZX_PLANE.direction(Angle.from_degrees(90.0))
        assert v.dot(X_AXIS) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_skew_axes(self):
        with pytest.raises(DomainError):
            SymmetryPlane("bad", X_AXIS, X_AXIS)


class TestJointDistribution:
    def test_probabilities_validated(self):
        with pytest.raises(DomainError):
            JointDistribution(0.5, 0.5, 0.5, -0.5)
        with pytest.raises(DomainError):
            JointDistribution(0.3, 0.3, 0.3, 0.3)

    def test_undefined_conditional(self):
        d = JointDistribution(0.5, 0.5, 0.0, 0.0)
        with pytest.raises(UndefinedConditionalError):
            d.conditional_bob_mean(Outcome.DOWN)

    def test_matches_kronecker_born_rule(self, rng):
        for state in STATES_WITH_ROTATED:
            for _ in range(100):
                a, b = random_direction(rng), random_direction(rng)
                got = joint_distribution(state, JointSetting(a, b)).probabilities()
                want = kron_born_probabilities(state, np.array([a.x, a.y, a.z]), np.array([b.x, b.y, b.z]))
                assert np.abs(np.array(got) - want).max() <= 1e-12

    def test_marginals_are_unbiased_for_bell_states(self):
        for state in ALL_BELL_STATES:
            d = joint_distribution(state, in_plane(state, 17.0, 136.0))
            assert marginals_up(d) == pytest.approx((0.5, 0.5), abs=1e-12)


class TestCorrelations:
    def test_triplet_plane_correlation_is_cosine(self):
        for state in TRIPLETS:
            for theta in COMMON_ANGLES:
                setting = JointSetting.in_plane(state.plane, Angle(0.0), theta)
                assert abs(correlation(state, setting) - math.cos(theta.radians)) <= 1e-12

    def test_singlet_correlation_is_minus_cosine_in_every_plane(self):
        for plane in (XY_PLANE, ZX_PLANE, ZY_PLANE):
            for theta in COMMON_ANGLES:
                setting = JointSetting.in_plane(plane, Angle(0.0), theta)
                assert abs(correlation(SINGLET, setting) + math.cos(theta.radians)) <= 1e-12

    def test_only_offset_matters_in_plane(self):
        for state in TRIPLETS:
            a = correlation(state, in_plane(state, 20.0, 80.0))
            b = correlation(state, in_plane(state, 140.0, 200.0))
            assert a == pytest.approx(b, abs=1e-12)

    def test_conservation_at_equal_settings(self):
        for state in TRIPLETS:
            for theta in COMMON_ANGLES:
                setting = JointSetting.in_plane(state.plane, theta, theta)
                d = joint_distribution(state, setting)
                assert d.p_pm <= 1e-12 and d.p_mp <= 1e-12
        for theta in COMMON_ANGLES:
            setting = JointSetting.in_plane(ZX_PLANE, theta, theta)
            d = joint_distribution(SINGLET, setting)
            assert d.p_pp <= 1e-12 and d.p_mm <= 1e-12

    def test_conditional_average_is_cosine(self):
        for state in TRIPLETS:
            for theta in COMMON_ANGLES:
                setting = JointSetting.in_plane(state.plane, Angle(0.0), theta)
                got = conditional_average(state, setting, Outcome.UP)
                assert abs(got - math.cos(theta.radians)) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(
    state_idx=st.integers(0, 3),
    alice=st.floats(0.0, 2 * math.pi),
    bob1=st.floats(0.0, 2 * math.pi),
    bob2=st.floats(0.0, 2 * math.pi),
)
def test_no_signalling(state_idx, alice, bob1, bob2):
    state = ALL_BELL_STATES[state_idx]
    d1 = joint_distribution(
        state, JointSetting.in_plane(state.plane, Angle(alice), Angle(bob1))
    )
    d2 = joint_distribution(
        state, JointSetting.in_plane(state.plane, Angle(alice), Angle(bob2))
    )
    assert abs(marginals_up(d1)[0] - marginals_up(d2)[0]) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(
    state_idx=st.integers(0, 3),
    alice1=st.floats(0.0, 2 * math.pi),
    alice2=st.floats(0.0, 2 * math.pi),
    bob=st.floats(0.0, 2 * math.pi),
)
def test_no_signalling_reverse(state_idx, alice1, alice2, bob):
    state = ALL_BELL_STATES[state_idx]
    d1 = joint_distribution(
        state, JointSetting.in_plane(state.plane, Angle(alice1), Angle(bob))
    )
    d2 = joint_distribution(
        state, JointSetting.in_plane(state.plane, Angle(alice2), Angle(bob))
    )
    assert abs(marginals_up(d1)[1] - marginals_up(d2)[1]) <= 1e-12


class TestEnsemble:
    def test_sixty_degrees_eight_trials(self):
        table = build_exact_ensemble(Angle.from_degrees(60.0), 8)
        assert table.bob_up_given_alice_up == 6
        assert table.bob_down_given_alice_up == 2
        assert table.conditional_average() == Fraction(1, 2)

    def test_ninety_degrees_two_trials(self):
        table = build_exact_ensemble(Angle.from_degrees(90.0), 2)
        assert table.bob_up_given_alice_up == 1
        assert table.bob_down_given_alice_up == 1
        assert table.conditional_average() == Fraction(0)

    def test_all_outcomes_are_unit_magnitude(self):
        table = build_exact_ensemble(Angle.from_degrees(60.0), 16)
        assert all(a in (Outcome.UP, Outcome.DOWN) for a, _ in table.trials)
        assert all(b in (Outcome.UP, Outcome.DOWN) for _, b in table.trials)

    def test_table_is_the_two_counts(self):
        table = build_exact_ensemble(Angle.from_degrees(60.0), 8)
        assert table == EnsembleTable(6, 2)
        assert table.n == 8
        assert table.trials == ((Outcome.UP, Outcome.UP),) * 6 + ((Outcome.UP, Outcome.DOWN),) * 2

    @pytest.mark.parametrize("counts", [(-1, 2), (2, -1)])
    def test_negative_counts_rejected(self, counts):
        with pytest.raises(DomainError, match=">= 0"):
            EnsembleTable(*counts)

    def test_empty_table_has_no_average(self):
        table = EnsembleTable(0, 0)
        assert table.n == 0 and table.trials == ()
        with pytest.raises(UndefinedConditionalError):
            table.conditional_average()

    def test_incompatible_n_names_minimal_multiple(self):
        with pytest.raises(DomainError, match="multiple of 4"):
            build_exact_ensemble(Angle.from_degrees(60.0), 7)

    def test_irrational_probability_rejected(self):
        with pytest.raises(DomainError, match="rational"):
            build_exact_ensemble(Angle(1.0), 10)

    def test_zero_angle_all_up(self):
        table = build_exact_ensemble(Angle(0.0), 5)
        assert table.bob_up_given_alice_up == 5
        assert table.conditional_average() == Fraction(1)

    def test_average_matches_cosine_exactly_when_rational(self):
        table = build_exact_ensemble(Angle.from_degrees(60.0), 400)
        assert table.conditional_average() == Fraction(1, 2)
        assert float(table.conditional_average()) == 0.5

    def test_rejects_more_than_max_trials(self):
        with pytest.raises(DomainError, match=str(MAX_ENSEMBLE_TRIALS)):
            build_exact_ensemble(Angle(0.0), MAX_ENSEMBLE_TRIALS + 1)

    @pytest.mark.parametrize("degrees", [0, 60, 90, 120, 180])
    def test_fraction_walk_matches_binary_search(self, degrees):
        c = math.cos(math.radians(degrees) / 2.0) ** 2
        assert _minimal_denominator_fraction(c, RATIONAL_TOL) == binary_search_fraction(c, RATIONAL_TOL)


@settings(max_examples=300, deadline=None)
@given(value=st.floats(0.0, 1000.0), tol=st.one_of(st.just(RATIONAL_TOL), st.floats(1e-15, 0.5)))
def test_fraction_walk_has_the_least_denominator(value, tol):
    got, want = _minimal_denominator_fraction(value, tol), binary_search_fraction(value, tol)
    assert abs(got - Fraction(value)) <= Fraction(tol)
    assert got.denominator == want.denominator
    # fractions of one denominator q lie 1/q apart, so an interval narrower
    # than that holds only one of them
    if 2 * Fraction(tol) < Fraction(1, want.denominator):
        assert got == want


class TestCHSH:
    def test_classical_enumeration_is_complete_and_integer(self):
        strategies = enumerate_classical_strategies()
        assert len(strategies) == 16
        values = [s for _, s in strategies]
        assert all(isinstance(v, int) for v in values)
        assert all(abs(v) <= 2 for v in values)
        assert max(values) == 2 and min(values) == -2

    def test_classical_max_is_exactly_two(self):
        assert chsh_classical_max() == 2.0
        assert chsh_classical_max() == max(s for _, s in enumerate_classical_strategies())

    def test_singlet_standard_settings(self):
        setting = CHSHSetting(
            Angle(0.0),
            Angle.from_degrees(90.0),
            Angle.from_degrees(45.0),
            Angle.from_degrees(135.0),
            ZX_PLANE,
        )
        assert chsh_value(SINGLET, setting) == pytest.approx(-TSIRELSON_BOUND, abs=1e-12)

    def test_triplet_standard_settings(self):
        for state in TRIPLETS:
            setting = CHSHSetting(
                Angle(0.0),
                Angle.from_degrees(90.0),
                Angle.from_degrees(45.0),
                Angle.from_degrees(135.0),
                state.plane,
            )
            assert chsh_value(state, setting) == pytest.approx(TSIRELSON_BOUND, abs=1e-12)

    def test_lattice_max_approaches_quantum_max(self):
        # S is stationary at its maximum and every second derivative of E
        # is bounded by 1, so the lattice point nearest the optimum (each
        # angle off by at most h/2) is within 2 h^2 of it.
        step_deg = 3.0
        lattice_error = 2.0 * math.radians(step_deg) ** 2
        for state in STATES_WITH_ROTATED:
            value, setting = chsh_quantum_max(state)
            lattice = lattice_chsh_max(state, step_deg)
            assert lattice <= value + 1e-12
            assert lattice >= value - lattice_error
            assert chsh_value(state, setting) == pytest.approx(value, abs=1e-12)

    def test_quantum_max_hits_tsirelson(self):
        for state in ALL_BELL_STATES:
            value, setting = chsh_quantum_max(state)
            assert abs(value - TSIRELSON_BOUND) <= 1e-12
            assert chsh_value(state, setting) == pytest.approx(value, abs=1e-12)

    def test_quantum_max_settings_of_the_standard_states(self):
        # Alice along the plane axes, Bob at +-45 degrees (the singlet at -+135)
        for state in ALL_BELL_STATES:
            _, s = chsh_quantum_max(state)
            bob = -3 * math.pi / 4 if state is SINGLET else math.pi / 4
            got = (s.alice.radians, s.alice_prime.radians, s.bob.radians, s.bob_prime.radians)
            assert got == pytest.approx((math.pi / 2, 0.0, bob, -bob), abs=1e-15)

    def test_scan_never_exceeds_quantum_bound(self):
        for state in ALL_BELL_STATES:
            points = chsh_scan(state, Angle(math.radians(1.0)))
            assert len(points) == 360
            assert max(abs(s) for _, s in points) <= TSIRELSON_BOUND + 1e-9
            sign = -1.0 if state is SINGLET else 1.0
            for a, s in points:
                t = a.radians
                assert abs(s - sign * (3 * math.cos(t) - math.cos(3 * t))) <= 1e-12

    def test_scan_rejects_more_than_max_points(self):
        step = Angle(2 * math.pi / (MAX_SCAN_POINTS + 0.5))  # MAX_SCAN_POINTS + 1 points
        with pytest.raises(DomainError, match="points"):
            chsh_scan(PHI_PLUS, step)

    def test_scan_of_triplet_peaks_at_45_degrees(self):
        points = chsh_scan(PHI_PLUS, Angle(math.radians(1.0)))
        by_angle = {round(a.degrees): s for a, s in points}
        assert by_angle[45] == pytest.approx(TSIRELSON_BOUND, abs=1e-12)

    def test_classical_strategies_never_beat_two(self):
        # a local deterministic strategy produces E(a,b) = A(a)B(b)
        for (aa, aap, bb, bbp), s in enumerate_classical_strategies():
            assert s == aa * bb - aa * bbp + aap * bb + aap * bbp
            assert s <= 2


@settings(max_examples=200, deadline=None)
@given(
    state_idx=st.integers(0, len(STATES_WITH_ROTATED) - 1),
    angles=st.lists(st.floats(0.0, 2 * math.pi), min_size=4, max_size=4),
)
def test_chsh_value_never_beats_quantum_max(state_idx, angles):
    state = STATES_WITH_ROTATED[state_idx]
    setting = CHSHSetting(*(Angle(x) for x in angles), state.plane)
    assert chsh_value(state, setting) <= chsh_quantum_max(state)[0] + 1e-12
