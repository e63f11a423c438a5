import math

import numpy as np
import pytest

from spinframes import (
    Angle,
    ComplementaryTriad,
    DomainError,
    FrameRotation,
    SpinRotation,
    UnitVector3,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    complementarity_check,
    prepare_state,
    projection_probabilities,
    rotate_state,
    rotate_triad,
    so3_from_su2,
    su2_from_axis_angle,
)
from spinframes.frames import _rows
from spinframes.spin import NORM_TOL
from conftest import random_direction

# The numpy route that frames once took, kept as the oracle for its closed
# forms: a Pauli sum for exp(-i angle/2 n.sigma), the quaternion formula on
# that array, R_ij = tr(sigma_i U sigma_j U^dagger) / 2, and the U U^dagger
# and determinant checks.
SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
IDENTITY_2 = np.eye(2, dtype=complex)


def oracle_su2(axis: UnitVector3, angle: Angle) -> np.ndarray:
    half = angle.radians / 2.0
    n_sigma = axis.x * SIGMA[0] + axis.y * SIGMA[1] + axis.z * SIGMA[2]
    return math.cos(half) * IDENTITY_2 - 1j * math.sin(half) * n_sigma


def oracle_quaternion_so3(m: np.ndarray) -> np.ndarray:
    q0, q3 = m[0, 0].real, -m[0, 0].imag
    q2, q1 = -m[0, 1].real, -m[0, 1].imag
    return np.array(
        [
            [q0 * q0 + q1 * q1 - q2 * q2 - q3 * q3, 2 * (q1 * q2 - q0 * q3), 2 * (q1 * q3 + q0 * q2)],
            [2 * (q1 * q2 + q0 * q3), q0 * q0 - q1 * q1 + q2 * q2 - q3 * q3, 2 * (q2 * q3 - q0 * q1)],
            [2 * (q1 * q3 - q0 * q2), 2 * (q2 * q3 + q0 * q1), q0 * q0 - q1 * q1 - q2 * q2 + q3 * q3],
        ]
    )


def oracle_trace_so3(m: np.ndarray) -> np.ndarray:
    return np.array([[0.5 * np.trace(si @ m @ sj @ m.conj().T).real for sj in SIGMA] for si in SIGMA])


def oracle_accepts(m: np.ndarray) -> bool:
    """U U^dagger = I and det U = 1, each to NORM_TOL."""
    unitary = np.abs(m @ m.conj().T - np.eye(len(m))).max() <= NORM_TOL
    return bool(unitary and abs(np.linalg.det(m) - 1.0) <= NORM_TOL)


def accepts(cls, m: np.ndarray) -> bool:
    try:
        cls(m)
    except DomainError:
        return False
    return True


def random_su2(rng):
    return su2_from_axis_angle(
        random_direction(rng), Angle(float(rng.uniform(0.0, 2 * math.pi)))
    )


def generic_rows(matrix, n: int, kind: type, what: str) -> tuple[tuple, ...]:
    """The generic form of frames._rows, kept as its oracle."""
    try:
        rows = tuple(tuple(kind(x) for x in row) for row in matrix)
    except (TypeError, ValueError):
        rows = ()
    if len(rows) != n or any(len(row) != n for row in rows):
        raise DomainError(f"{what} must be {n}x{n} with {kind.__name__} entries")
    return rows


# each makes a fresh matrix, since an iterator is used up by one call
ROWS_CASES = [
    lambda: None, lambda: 5, lambda: "abc", lambda: [], lambda: [[]], lambda: [1.0, 0.0],
    lambda: [["a", "b"], ["c", "d"]], lambda: [["1", "0"], ["0", "1"]], lambda: [[1j] * 3] * 3,
    lambda: [[1, 0], [0, 1]], lambda: [[1, 0, 0], [0, 1, 0], [0, 0, 1]], lambda: [[1, 0], [0, 1, 0]],
    lambda: [[1, 0, 0], [0, 1, 0], [0, 0]], lambda: [[None, 0], [0, 1]], lambda: [[-0.0, 0.5], [0.5j, 1]],
    lambda: [[math.nan] * 3] * 3, lambda: np.eye(2), lambda: np.eye(3), lambda: np.eye(4),
    lambda: (iter(r) for r in [[1.0, 0.0], [0.0, 1.0]]),
    lambda: iter([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]), lambda: [[1.0, 2.0], 3.0],
    lambda: [[True, False], [False, True]], lambda: [[10**300, 0], [0, 1]],
]


class TestConstruction:
    def test_spin_rotation_must_be_special_unitary(self):
        with pytest.raises(DomainError):
            SpinRotation(np.diag([2.0 + 0j, 0.5 + 0j]))
        with pytest.raises(DomainError):
            SpinRotation(np.diag([1j, 1j]))  # unitary but det = -1

    def test_frame_rotation_must_be_proper_orthogonal(self):
        with pytest.raises(DomainError):
            FrameRotation(np.diag([1.0, 1.0, -1.0]))  # reflection
        with pytest.raises(DomainError):
            FrameRotation(2.0 * np.eye(3))

    @pytest.mark.parametrize("cls", [SpinRotation, FrameRotation])
    @pytest.mark.parametrize("bad", [None, 5, [1.0, 0.0], np.eye(4), [["a", "b"], ["c", "d"]], [[1j] * 3] * 3])
    def test_malformed_matrix_is_a_domain_error(self, cls, bad):
        with pytest.raises(DomainError):
            cls(bad)

    @pytest.mark.parametrize("cls, matrix", [
        (FrameRotation, ((10**400, 0, 0), (0, 1, 0), (0, 0, 1))),
        (SpinRotation, ((10**400, 0), (0, 1))),
        (SpinRotation, ((1, 0), (0, -(10**400)))),
    ])
    def test_int_beyond_the_float_range_is_a_domain_error(self, cls, matrix):
        n = len(matrix)
        kind = "float" if cls is FrameRotation else "complex"
        with pytest.raises(DomainError, match=rf"must be {n}x{n} with {kind} entries"):
            cls(matrix)

    @pytest.mark.parametrize("n, kind, what", [(2, complex, "spin rotation"), (3, float, "frame rotation")])
    @pytest.mark.parametrize("make", ROWS_CASES, ids=range(len(ROWS_CASES)))
    def test_rows_match_the_generic_form(self, n, kind, what, make):
        try:
            want = generic_rows(make(), n, kind, what)
        except DomainError as e:
            want = str(e)
        try:
            got = _rows(make(), n, kind, what)
        except DomainError as e:
            got = str(e)
        assert type(got) is type(want) and repr(got) == repr(want)

    def test_spin_rotation_rejects_nan(self):
        with pytest.raises(DomainError):
            SpinRotation([[math.nan, 0.0], [0.0, math.nan]])

    def test_frame_rotation_rejects_nan(self):
        with pytest.raises(DomainError):
            FrameRotation(np.full((3, 3), math.nan))

    def test_identity(self):
        assert np.allclose(SpinRotation.identity().matrix, np.eye(2))
        assert np.allclose(FrameRotation.identity().matrix, np.eye(3))

    def test_axis_angle_half_turn_about_y(self):
        u = su2_from_axis_angle(Y_AXIS, Angle(math.pi / 2))
        moved = so3_from_su2(u).apply(Z_AXIS)
        assert moved.dot(X_AXIS) == pytest.approx(1.0, abs=1e-12)


class TestDoubleCover:
    def test_negated_su2_gives_same_so3(self, rng):
        for _ in range(100):
            u = random_su2(rng)
            r1 = np.asarray(so3_from_su2(u).matrix)
            r2 = np.asarray(so3_from_su2(-u).matrix)
            assert np.abs(r1 - r2).max() <= 1e-10

    def test_full_turn_negates_su2(self, rng):
        for _ in range(50):
            axis = random_direction(rng)
            t = float(rng.uniform(0.0, 2 * math.pi))
            u = su2_from_axis_angle(axis, Angle(t))
            u_plus_turn = su2_from_axis_angle(axis, Angle(t + 2 * math.pi))
            assert np.abs(np.asarray(u_plus_turn.matrix) + np.asarray(u.matrix)).max() <= 1e-10

    def test_homomorphism(self, rng):
        for _ in range(200):
            u1, u2 = random_su2(rng), random_su2(rng)
            left = np.asarray(so3_from_su2(u1.compose(u2)).matrix)
            right = np.asarray(so3_from_su2(u1).compose(so3_from_su2(u2)).matrix)
            assert np.abs(left - right).max() <= 1e-10


class TestRotationAction:
    def test_state_rotation_tracks_bloch_vector(self, rng):
        for _ in range(50):
            d = random_direction(rng)
            u = random_su2(rng)
            rotated_bloch = rotate_state(prepare_state(d), u).bloch_vector
            mapped = so3_from_su2(u).apply(d)
            assert rotated_bloch.dot(mapped) == pytest.approx(1.0, abs=1e-10)

    def test_matched_rotation_leaves_statistics_invariant(self, rng):
        for _ in range(100):
            d = random_direction(rng)
            s = random_direction(rng)
            u = random_su2(rng)
            r = so3_from_su2(u)
            before = projection_probabilities(prepare_state(d), s)
            after = projection_probabilities(
                rotate_state(prepare_state(d), u), r.apply(s)
            )
            assert abs(before.p_up - after.p_up) <= 1e-10
            assert abs(before.p_down - after.p_down) <= 1e-10

    def test_compose_is_matrix_product_order(self, rng):
        u1, u2 = random_su2(rng), random_su2(rng)
        d = random_direction(rng)
        r12 = so3_from_su2(u1.compose(u2))
        step = so3_from_su2(u1).apply(so3_from_su2(u2).apply(d))
        assert r12.apply(d).dot(step) == pytest.approx(1.0, abs=1e-10)


class TestOracle:
    """The closed forms against the numpy route above, on random axes and angles."""

    def test_su2_and_so3_equal_the_oracle_exactly(self, rng):
        for _ in range(500):
            axis, angle = random_direction(rng), Angle(float(rng.uniform(-4 * math.pi, 4 * math.pi)))
            u = su2_from_axis_angle(axis, angle)
            m = oracle_su2(axis, angle)
            assert np.array_equal(np.asarray(u.matrix), m)
            r = np.asarray(so3_from_su2(u).matrix)
            assert np.array_equal(r, oracle_quaternion_so3(m))
            assert np.abs(r - oracle_trace_so3(m)).max() <= 1e-15

    def test_action_and_composition_agree_with_the_oracle(self, rng):
        for _ in range(500):
            u1, u2 = random_su2(rng), random_su2(rng)
            m1, m2 = np.asarray(u1.matrix), np.asarray(u2.matrix)
            r1, r2 = so3_from_su2(u1), so3_from_su2(u2)
            state, d = prepare_state(random_direction(rng)), random_direction(rng)
            rotated = rotate_state(state, u1)
            want = m1 @ np.array([state.amp_up, state.amp_down])
            assert np.abs(np.array([rotated.amp_up, rotated.amp_down]) - want).max() <= 1e-15
            moved = r1.apply(d)
            want = UnitVector3.normalized(*(np.asarray(r1.matrix) @ np.array([d.x, d.y, d.z])))
            assert max(abs(moved.x - want.x), abs(moved.y - want.y), abs(moved.z - want.z)) <= 1e-15
            assert np.abs(np.asarray(u1.compose(u2).matrix) - m1 @ m2).max() <= 1e-15
            want = np.asarray(r1.matrix) @ np.asarray(r2.matrix)
            assert np.abs(np.asarray(r1.compose(r2).matrix) - want).max() <= 1e-15

    @pytest.mark.parametrize("noise, accepted", [(1e-14, True), (1e-9, False)])
    def test_constructors_accept_and_reject_as_the_oracle_does(self, rng, noise, accepted):
        for _ in range(50):
            m = np.asarray(random_su2(rng).matrix)
            r = np.asarray(so3_from_su2(random_su2(rng)).matrix)
            cases = (
                (SpinRotation, m, noise * (rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2)))),
                (FrameRotation, r, noise * rng.uniform(-1, 1, (3, 3))),
            )
            for cls, exact, delta in cases:
                # every entry at once; a scaling, which in SU(2) only the
                # norm condition catches; then each entry alone, which
                # only the condition on that entry catches
                noisy = [exact + delta, exact * (1.0 + noise)]
                for index in np.ndindex(exact.shape):
                    noisy.append(exact.copy())
                    noisy[-1][index] += noise
                for x in noisy:
                    assert accepts(cls, x) is oracle_accepts(x) is accepted, (cls, x)

    def test_det_minus_one_rejected_as_by_the_oracle(self, rng):
        for _ in range(200):
            m = 1j * np.asarray(random_su2(rng).matrix)  # unitary, det = -1
            r = -np.asarray(so3_from_su2(random_su2(rng)).matrix)  # orthogonal, det = -1
            assert not accepts(SpinRotation, m) and not oracle_accepts(m)
            assert not accepts(FrameRotation, r) and not oracle_accepts(r)


class TestComplementaryTriad:
    def test_standard_axes(self):
        t = ComplementaryTriad.standard()
        assert t.axes == (X_AXIS, Y_AXIS, Z_AXIS)

    def test_rejects_non_orthogonal(self):
        tilted = UnitVector3.normalized(1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            ComplementaryTriad(X_AXIS, tilted, Z_AXIS)

    def test_eigenstate_is_uniform_on_other_axes(self):
        dists = complementarity_check(ComplementaryTriad.standard(), prepare_state(Z_AXIS))
        assert dists[0].p_up == pytest.approx(0.5, abs=1e-12)
        assert dists[1].p_up == pytest.approx(0.5, abs=1e-12)
        assert dists[2].p_up == pytest.approx(1.0, abs=1e-12)

    def test_rotated_triad_keeps_complementarity(self, rng):
        u = random_su2(rng)
        r = so3_from_su2(u)
        t = rotate_triad(ComplementaryTriad.standard(), r)
        # the rotated z-eigenstate sees the same (1/2, 1/2, 1) pattern
        state = rotate_state(prepare_state(Z_AXIS), u)
        dists = complementarity_check(t, state)
        assert dists[0].p_up == pytest.approx(0.5, abs=1e-10)
        assert dists[1].p_up == pytest.approx(0.5, abs=1e-10)
        assert dists[2].p_up == pytest.approx(1.0, abs=1e-10)
