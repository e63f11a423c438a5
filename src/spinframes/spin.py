"""Single-qubit spin measurement statistics.

Pure spin-1/2 states, Stern-Gerlach outcome probabilities from the Born
rule, and the classical projection those outcomes reproduce on average:

    (+1) p_up + (-1) p_down = cos(theta)

with p_up = cos^2(theta/2) and p_down = sin^2(theta/2) for a state at
angle theta to the measurement direction. Outcomes carry units of
hbar/2 = 1 and are always exactly +1 or -1; the cosine appears only as
an average, never as an individual result.
"""
from __future__ import annotations

import cmath
import enum
import math
import numbers
import operator
from dataclasses import dataclass

from .errors import DomainError

TWO_PI = 2.0 * math.pi

# Tolerance ladder: constructed invariants hold to 1e-12, identities that
# compose several operations are tested at 1e-10.
NORM_TOL = 1e-12
STATE_EQ_TOL = 1e-10


@dataclass(frozen=True)
class Angle:
    """A plane angle stored in radians; must be finite."""

    radians: float

    def __post_init__(self):
        if not math.isfinite(self.radians):
            raise DomainError(f"angle must be finite, got {self.radians!r}")

    @classmethod
    def from_degrees(cls, degrees: float) -> "Angle":
        return cls(math.radians(degrees))

    @property
    def degrees(self) -> float:
        return math.degrees(self.radians)

    def canonical(self) -> "Angle":
        """Equivalent angle in [0, 2*pi)."""
        r = math.fmod(self.radians, TWO_PI)
        if r < 0.0:
            r += TWO_PI
        if r >= TWO_PI:  # fmod rounding can land exactly on the boundary
            r = 0.0
        return Angle(r)


@dataclass(frozen=True)
class UnitVector3:
    """Unit-norm direction in real 3-space.

    The constructor requires components already normalized to 1e-12;
    use :meth:`normalized` to rescale arbitrary nonzero components.
    """

    x: float
    y: float
    z: float

    def __post_init__(self):
        n2 = self.x * self.x + self.y * self.y + self.z * self.z
        if not math.isfinite(n2) or abs(n2 - 1.0) > NORM_TOL:
            raise DomainError(f"components must form a unit vector, got |v|^2 = {n2!r}")

    @classmethod
    def normalized(cls, x: float, y: float, z: float) -> "UnitVector3":
        n = math.sqrt(x * x + y * y + z * z)
        if not (n > 0.0) or not math.isfinite(n):
            raise DomainError("cannot normalize a zero or non-finite vector")
        return cls(x / n, y / n, z / n)

    @classmethod
    def from_polar(cls, theta: Angle, phi: Angle = Angle(0.0)) -> "UnitVector3":
        """Direction at polar angle theta from +z, azimuth phi from +x."""
        st = math.sin(theta.radians)
        return cls.normalized(
            st * math.cos(phi.radians), st * math.sin(phi.radians), math.cos(theta.radians)
        )

    def dot(self, other: "UnitVector3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "UnitVector3") -> tuple[float, float, float]:
        (a, b, c), (x, y, z) = (self.x, self.y, self.z), (other.x, other.y, other.z)
        return (b * z - c * y, c * x - a * z, a * y - b * x)

    def angle_to(self, other: "UnitVector3") -> Angle:
        # atan2 form is stable near 0 and pi, unlike acos of the dot product
        return Angle(math.atan2(math.hypot(*self.cross(other)), self.dot(other)))

    def __neg__(self) -> "UnitVector3":
        return UnitVector3(-self.x, -self.y, -self.z)


X_AXIS = UnitVector3(1.0, 0.0, 0.0)
Y_AXIS = UnitVector3(0.0, 1.0, 0.0)
Z_AXIS = UnitVector3(0.0, 0.0, 1.0)


@dataclass(frozen=True, eq=False)
class QubitState:
    """Pure spin-1/2 state amp_up|u> + amp_down|d>, normalized to 1e-12.

    Equality is phase-insensitive: two states compare equal when their
    Bloch vectors lie within 1e-10 of each other.
    """

    amp_up: complex
    amp_down: complex

    def __post_init__(self):
        object.__setattr__(self, "amp_up", complex(self.amp_up))
        object.__setattr__(self, "amp_down", complex(self.amp_down))
        n2 = abs(self.amp_up) ** 2 + abs(self.amp_down) ** 2
        if not math.isfinite(n2) or abs(n2 - 1.0) > NORM_TOL:
            raise DomainError(f"amplitudes must be normalized, got |psi|^2 = {n2!r}")

    @property
    def bloch_vector(self) -> UnitVector3:
        """(<sigma_x>, <sigma_y>, <sigma_z>) = (2 Re(a* b), 2 Im(a* b), |a|^2 - |b|^2)
        for amplitudes (a, b); a unit vector for pure states."""
        a, b = self.amp_up, self.amp_down
        ab = a.conjugate() * b
        return UnitVector3.normalized(2.0 * ab.real, 2.0 * ab.imag, (a.conjugate() * a - b.conjugate() * b).real)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QubitState):
            return NotImplemented
        u, v = self.bloch_vector, other.bloch_vector
        d2 = (u.x - v.x) ** 2 + (u.y - v.y) ** 2 + (u.z - v.z) ** 2
        return d2 < STATE_EQ_TOL * STATE_EQ_TOL


class Outcome(enum.IntEnum):
    """A single Stern-Gerlach result: +1 (up) or -1 (down), in units of hbar/2.

    No other value is constructible; fractional outcomes do not exist.
    """

    UP = 1
    DOWN = -1


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities of the two outcomes; p_up + p_down = 1 to 1e-12."""

    p_up: float
    p_down: float

    def __post_init__(self):
        _check_probabilities(self, ("p_up", "p_down"))


def _check_probabilities(dist, names: tuple[str, ...]) -> None:
    """Clamp the named fields of a frozen distribution into [0, 1] and check
    that they sum to 1, both to 1e-12; raise DomainError otherwise."""
    total = 0.0
    for name in names:
        p = getattr(dist, name)
        if not math.isfinite(p) or p < -NORM_TOL or p > 1.0 + NORM_TOL:
            raise DomainError(f"{name} must lie in [0, 1], got {p!r}")
        p = min(max(p, 0.0), 1.0)
        object.__setattr__(dist, name, p)
        total += p
    if abs(total - 1.0) > NORM_TOL:
        raise DomainError(f"probabilities must sum to 1, got {total!r}")


def _check_integer(value, name: str) -> int:
    """`value` as an int; it must be an int or a numpy integer, never a bool."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def prepare_state(direction: UnitVector3) -> QubitState:
    """Spin-up eigenstate along `direction`; its Bloch vector equals `direction`."""
    # atan2 keeps precision near the poles, where acos(z) flattens
    theta = math.atan2(math.hypot(direction.x, direction.y), direction.z)
    phi = math.atan2(direction.y, direction.x)
    return QubitState(math.cos(theta / 2.0), cmath.exp(1j * phi) * math.sin(theta / 2.0))


def projection_probabilities(state: QubitState, setting: UnitVector3) -> OutcomeDistribution:
    """Born-rule outcome distribution for a measurement along `setting`.

    The spectral projectors (I +/- n.sigma)/2 have expectation
    (1 +/- n.r)/2 in a pure state of Bloch vector r. When r makes angle
    theta with the setting this is (cos^2(theta/2), sin^2(theta/2)).
    """
    e = setting.dot(state.bloch_vector)
    return OutcomeDistribution((1.0 + e) / 2.0, (1.0 - e) / 2.0)


def expectation(dist: OutcomeDistribution) -> float:
    """Average outcome (+1) p_up + (-1) p_down."""
    return dist.p_up - dist.p_down


def classical_projection(state_direction: UnitVector3, setting: UnitVector3) -> float:
    """Classical counterfactual S.b = cos(theta).

    This is the value a projective classical model would record directly;
    quantum measurements recover it only as the average of +/-1 outcomes.
    """
    return state_direction.dot(setting)
