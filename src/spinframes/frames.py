"""Measurement reference frames and the SU(2) -> SO(3) correspondence.

A reference frame is a triad of mutually complementary measurement axes.
Spin rotations act on amplitudes in SU(2); their images under the 2-to-1
covering map are the SO(3) rotations relating frames in real space.
Matched rotations of state and settings leave all outcome statistics
unchanged.

Every SU(2) matrix is [[a, -conj(b)], [b, conj(a)]] with |a|^2 + |b|^2 = 1,
so rotations are rows of plain complex or float numbers, checked, composed
and applied in closed form.
"""
from __future__ import annotations

import math

from .errors import DomainError
from .spin import (
    NORM_TOL,
    NOT_A_NUMBER,
    Angle,
    OutcomeDistribution,
    QubitState,
    UnitVector3,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    _complex,
    _real,
    _set,
    _Value,
    projection_probabilities,
)

__all__ = [
    "ComplementaryTriad",
    "FrameRotation",
    "SpinRotation",
    "complementarity_check",
    "rotate_state",
    "rotate_triad",
    "so3_from_su2",
    "su2_from_axis_angle",
]


def _rows(matrix, n: int, kind: type, what: str) -> tuple[tuple, ...]:
    """The rows of an n x n matrix as tuples of `kind` (complex or float); what is no number reads as NaN."""
    try:
        rows = tuple([tuple(map(_complex if kind is complex else _real, row)) for row in matrix])
    except TypeError:  # not iterable
        rows = ()
    if len(rows) != n or any(len(row) != n for row in rows):
        raise DomainError(f"{what} must be {n}x{n} with {kind.__name__} entries")
    return rows


class SpinRotation(_Value):
    """2x2 unitary with unit determinant acting on qubit amplitudes, stored
    as the complex rows ((a, -conj(b)), (b, conj(a))), |a|^2 + |b|^2 = 1.
    Equality is identity."""

    __slots__ = ("matrix",)
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, matrix: tuple[tuple[complex, complex], tuple[complex, complex]]):
        m = _rows(matrix, 2, complex, "spin rotation")
        (a, c), (b, d) = m
        # every comparison is False for NaN, so a NaN entry is rejected
        try:
            su2 = (abs(d - a.conjugate()) <= NORM_TOL and abs(c + b.conjugate()) <= NORM_TOL
                   and abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) <= NORM_TOL)
        except NOT_A_NUMBER:  # a square that overflows
            su2 = False
        if not su2:
            raise DomainError("spin rotation must be [[a, -conj(b)], [b, conj(a)]] with |a|^2 + |b|^2 = 1")
        _set(self, "matrix", m)

    @classmethod
    def identity(cls) -> "SpinRotation":
        return cls(((1.0, 0.0), (0.0, 1.0)))

    def compose(self, other: "SpinRotation") -> "SpinRotation":
        """Rotation equal to applying `other` first, then this one."""
        (a, b), (c, d) = self.matrix
        (e, f), (g, h) = other.matrix
        return SpinRotation(((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h)))

    def apply(self, state: QubitState) -> QubitState:
        (a, b), (c, d) = self.matrix
        up, down = state.amp_up, state.amp_down
        return QubitState(a * up + b * down, c * up + d * down)

    def __neg__(self) -> "SpinRotation":
        return SpinRotation(tuple(tuple(-x for x in row) for row in self.matrix))


class FrameRotation(_Value):
    """3x3 proper orthogonal matrix rotating directions in real space,
    stored as three rows of floats. Equality is identity."""

    __slots__ = ("matrix",)
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, matrix: tuple[tuple[float, float, float], ...]):
        m = _rows(matrix, 3, float, "frame rotation")
        (a, b, c), (d, e, f), (g, h, k) = m
        # the entries of M M^T - I; every comparison is False for NaN
        if not (abs(a * a + b * b + c * c - 1.0) <= NORM_TOL and abs(d * d + e * e + f * f - 1.0) <= NORM_TOL
                and abs(g * g + h * h + k * k - 1.0) <= NORM_TOL and abs(a * d + b * e + c * f) <= NORM_TOL
                and abs(a * g + b * h + c * k) <= NORM_TOL and abs(d * g + e * h + f * k) <= NORM_TOL):
            raise DomainError("frame rotation must be orthogonal")
        det = a * (e * k - f * h) + b * (f * g - d * k) + c * (d * h - e * g)
        if not abs(det - 1.0) <= NORM_TOL:
            raise DomainError(f"frame rotation must have det +1, got {det!r}")
        _set(self, "matrix", m)

    @classmethod
    def identity(cls) -> "FrameRotation":
        return cls(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))

    def compose(self, other: "FrameRotation") -> "FrameRotation":
        cols = tuple(zip(*other.matrix))
        rows = (tuple(r[0] * c[0] + r[1] * c[1] + r[2] * c[2] for c in cols) for r in self.matrix)
        return FrameRotation(tuple(rows))

    def apply(self, v: UnitVector3) -> UnitVector3:
        return UnitVector3.normalized(*(r[0] * v.x + r[1] * v.y + r[2] * v.z for r in self.matrix))


class ComplementaryTriad(_Value):
    """Three pairwise-orthogonal measurement axes.

    An eigenstate of one axis yields uniform (1/2, 1/2) outcomes for the
    other two, making the three measurements mutually complementary.
    """

    __slots__ = ("first", "second", "third")

    def __init__(self, first: UnitVector3, second: UnitVector3, third: UnitVector3):
        for axis in (first, second, third):
            if not isinstance(axis, UnitVector3):
                raise DomainError(f"triad axes must be UnitVector3 values, got {axis!r}")
        for a, b in ((first, second), (first, third), (second, third)):
            if abs(a.dot(b)) > NORM_TOL:
                raise DomainError(f"triad axes must be orthogonal, got dot = {a.dot(b)!r}")
        _set(self, "first", first)
        _set(self, "second", second)
        _set(self, "third", third)

    @classmethod
    def standard(cls) -> "ComplementaryTriad":
        return cls(X_AXIS, Y_AXIS, Z_AXIS)

    @property
    def axes(self) -> tuple[UnitVector3, UnitVector3, UnitVector3]:
        return (self.first, self.second, self.third)


def su2_from_axis_angle(axis: UnitVector3, angle: Angle) -> SpinRotation:
    """exp(-i angle/2 axis.sigma) = cos(h) I - i sin(h) axis.sigma with h the
    half angle, whose first column is (cos h - i s n_z, s n_y - i s n_x)
    for s = sin(h)."""
    half = angle.radians / 2.0
    c, s = math.cos(half), math.sin(half)
    a, b = complex(c, -s * axis.z), complex(s * axis.y, -s * axis.x)
    return SpinRotation(((a, -b.conjugate()), (b, a.conjugate())))


def so3_from_su2(u: SpinRotation) -> FrameRotation:
    """Image of a spin rotation under the 2-to-1 covering map onto SO(3).

    R is defined by U (sigma.n) U^dagger = sigma.(R n) for every direction
    n. Writing U = q0 I - i q.sigma with a unit quaternion (q0, q), R is
    the quaternion rotation matrix. Both U and -U map to the same R.
    """
    (a, c), _ = u.matrix
    q0, q3 = a.real, -a.imag
    q2, q1 = -c.real, -c.imag
    return FrameRotation(
        (
            (q0 * q0 + q1 * q1 - q2 * q2 - q3 * q3, 2 * (q1 * q2 - q0 * q3), 2 * (q1 * q3 + q0 * q2)),
            (2 * (q1 * q2 + q0 * q3), q0 * q0 - q1 * q1 + q2 * q2 - q3 * q3, 2 * (q2 * q3 - q0 * q1)),
            (2 * (q1 * q3 - q0 * q2), 2 * (q2 * q3 + q0 * q1), q0 * q0 - q1 * q1 - q2 * q2 + q3 * q3),
        )
    )


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
