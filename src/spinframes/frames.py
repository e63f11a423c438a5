"""Measurement reference frames and the SU(2) -> SO(3) correspondence.

A reference frame is a triad of mutually complementary measurement axes.
Spin rotations act on amplitudes in SU(2); their images under the 2-to-1
covering map are the SO(3) rotations relating frames in real space.
Matched rotations of state and settings leave all outcome statistics
unchanged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .spin import (
    NORM_TOL,
    Angle,
    OutcomeDistribution,
    QubitState,
    UnitVector3,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    projection_probabilities,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)
IDENTITY_2 = np.eye(2, dtype=complex)


@dataclass(frozen=True, eq=False)
class SpinRotation:
    """2x2 unitary with unit determinant acting on qubit amplitudes."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise DomainError(f"spin rotation must be 2x2, got shape {m.shape}")
        if np.abs(m @ m.conj().T - IDENTITY_2).max() > NORM_TOL:
            raise DomainError("spin rotation must be unitary")
        det = complex(np.linalg.det(m))
        if abs(det - 1.0) > NORM_TOL:
            raise DomainError(f"spin rotation must have det 1, got {det!r}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def identity(cls) -> "SpinRotation":
        return cls(IDENTITY_2)

    def compose(self, other: "SpinRotation") -> "SpinRotation":
        """Rotation equal to applying `other` first, then this one."""
        return SpinRotation(self.matrix @ other.matrix)

    def apply(self, state: QubitState) -> QubitState:
        a = self.matrix @ state.amplitudes
        return QubitState(a[0], a[1])

    def __neg__(self) -> "SpinRotation":
        return SpinRotation(-self.matrix)


@dataclass(frozen=True, eq=False)
class FrameRotation:
    """3x3 proper orthogonal matrix rotating directions in real space."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise DomainError(f"frame rotation must be 3x3, got shape {m.shape}")
        if np.abs(m @ m.T - np.eye(3)).max() > NORM_TOL:
            raise DomainError("frame rotation must be orthogonal")
        det = float(np.linalg.det(m))
        if abs(det - 1.0) > NORM_TOL:
            raise DomainError(f"frame rotation must have det +1, got {det!r}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def identity(cls) -> "FrameRotation":
        return cls(np.eye(3))

    def compose(self, other: "FrameRotation") -> "FrameRotation":
        return FrameRotation(self.matrix @ other.matrix)

    def apply(self, v: UnitVector3) -> UnitVector3:
        w = self.matrix @ v.as_array()
        return UnitVector3.normalized(w[0], w[1], w[2])


@dataclass(frozen=True)
class ComplementaryTriad:
    """Three pairwise-orthogonal measurement axes.

    An eigenstate of one axis yields uniform (1/2, 1/2) outcomes for the
    other two, making the three measurements mutually complementary.
    """

    first: UnitVector3
    second: UnitVector3
    third: UnitVector3

    def __post_init__(self):
        pairs = (
            (self.first, self.second),
            (self.first, self.third),
            (self.second, self.third),
        )
        for a, b in pairs:
            if abs(a.dot(b)) > NORM_TOL:
                raise DomainError(f"triad axes must be orthogonal, got dot = {a.dot(b)!r}")

    @classmethod
    def standard(cls) -> "ComplementaryTriad":
        return cls(X_AXIS, Y_AXIS, Z_AXIS)

    @property
    def axes(self) -> tuple[UnitVector3, UnitVector3, UnitVector3]:
        return (self.first, self.second, self.third)


def su2_from_axis_angle(axis: UnitVector3, angle: Angle) -> SpinRotation:
    """exp(-i angle/2 axis.sigma) in closed form (cos/sin of the half angle)."""
    half = angle.radians / 2.0
    n_sigma = axis.x * PAULI[0] + axis.y * PAULI[1] + axis.z * PAULI[2]
    return SpinRotation(math.cos(half) * IDENTITY_2 - 1j * math.sin(half) * n_sigma)


def so3_from_su2(u: SpinRotation) -> FrameRotation:
    """Image of a spin rotation under the 2-to-1 covering map onto SO(3).

    R is defined by U (sigma.n) U^dagger = sigma.(R n) for every direction
    n. Writing U = q0 I - i q.sigma with a unit quaternion (q0, q), R is
    the quaternion rotation matrix. Both U and -U map to the same R.
    """
    m = u.matrix
    q0, q3 = m[0, 0].real, -m[0, 0].imag
    q2, q1 = -m[0, 1].real, -m[0, 1].imag
    r = np.array(
        [
            [q0 * q0 + q1 * q1 - q2 * q2 - q3 * q3, 2 * (q1 * q2 - q0 * q3), 2 * (q1 * q3 + q0 * q2)],
            [2 * (q1 * q2 + q0 * q3), q0 * q0 - q1 * q1 + q2 * q2 - q3 * q3, 2 * (q2 * q3 - q0 * q1)],
            [2 * (q1 * q3 - q0 * q2), 2 * (q2 * q3 + q0 * q1), q0 * q0 - q1 * q1 - q2 * q2 + q3 * q3],
        ]
    )
    return FrameRotation(r)


def rotate_state(state: QubitState, u: SpinRotation) -> QubitState:
    """Apply a spin rotation to a state's amplitudes."""
    return u.apply(state)


def rotate_triad(triad: ComplementaryTriad, r: FrameRotation) -> ComplementaryTriad:
    """Rotate all three axes; orthogonality is preserved."""
    return ComplementaryTriad(r.apply(triad.first), r.apply(triad.second), r.apply(triad.third))


def complementarity_check(
    triad: ComplementaryTriad, state: QubitState
) -> tuple[OutcomeDistribution, OutcomeDistribution, OutcomeDistribution]:
    """Outcome distributions for measuring `state` along each triad axis."""
    a, b, c = triad.axes
    return (
        projection_probabilities(state, a),
        projection_probabilities(state, b),
        projection_probabilities(state, c),
    )
