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
import operator
import sys

from .errors import DomainError

__all__ = [
    "Angle",
    "Outcome",
    "OutcomeDistribution",
    "QubitState",
    "UnitVector3",
    "X_AXIS",
    "Y_AXIS",
    "Z_AXIS",
    "expectation",
    "prepare_state",
    "projection_probabilities",
]

# Tolerance ladder: constructed invariants hold to 1e-12, identities that
# compose several operations are tested at 1e-10.
NORM_TOL = 1e-12
STATE_EQ_TOL = 1e-10
# The range a probability may take before it is clamped into [0, 1].
_P_LOW, _P_HIGH = -NORM_TOL, 1.0 + NORM_TOL

# What arithmetic and comparisons raise for an argument that is no real
# number: a string, None, a complex or a tuple, an overflowing power
# (OverflowError), or a Decimal NaN, which does not compare (InvalidOperation).
NOT_A_NUMBER = (TypeError, ValueError, ArithmeticError)

_set = object.__setattr__


def _real(v) -> float:
    """v as a float where it is a real number, such as an int, a Fraction, a
    Decimal or a numpy scalar, so that every value computes in floats; else
    nan, which fails every range check. Text is no real number here, though
    float() would parse it."""
    if type(v) is float:
        return v
    try:
        return math.nan if isinstance(v, (str, bytes, bytearray)) else float(v)
    except NOT_A_NUMBER:  # None, a complex or a tuple, a signalling NaN, an int beyond the float range
        return math.nan


class _Value:
    """Base of the immutable value classes. A subclass names its fields in
    __slots__ and sets them once in __init__ through `_set`; repr, == and
    hash are built from the fields in that order."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")

    def __reduce__(self):  # copy and pickle rebuild through __init__, which re-runs the checks
        return type(self), self._fields()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())


class Angle(_Value):
    """A plane angle stored in radians; must be finite."""

    __slots__ = ("radians",)

    def __init__(self, radians: float):
        value = _real(radians)
        if not math.isfinite(value):
            raise DomainError(f"angle must be finite, got {radians!r}")
        _set(self, "radians", value)

    @classmethod
    def from_degrees(cls, degrees: float) -> "Angle":
        try:
            radians = math.radians(degrees)
        except NOT_A_NUMBER:
            raise DomainError(f"angle must be finite, got {degrees!r} degrees") from None
        return cls(radians)

    @property
    def degrees(self) -> float:
        return math.degrees(self.radians)


class UnitVector3(_Value):
    """Unit-norm direction in real 3-space.

    The constructor requires components already normalized to 1e-12;
    use :meth:`normalized` to rescale arbitrary nonzero components.
    """

    __slots__ = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float):
        a, b, c = _real(x), _real(y), _real(z)
        n2 = a * a + b * b + c * c
        if not -NORM_TOL <= n2 - 1.0 <= NORM_TOL:  # False for NaN and infinity
            raise DomainError(f"components must be real numbers of a unit vector, got {(x, y, z)!r}, |v|^2 = {n2!r}")
        _set(self, "x", a)
        _set(self, "y", b)
        _set(self, "z", c)

    @classmethod
    def normalized(cls, x: float, y: float, z: float) -> "UnitVector3":
        a, b, c = _real(x), _real(y), _real(z)
        n2 = a * a + b * b + c * c
        # squares that overflow, or underflow below the smallest normal float
        if not sys.float_info.min <= n2 < math.inf:
            scale = max(abs(a), abs(b), abs(c))
            if 0.0 < scale < math.inf:
                a, b, c = a / scale, b / scale, c / scale
                n2 = a * a + b * b + c * c
        n = math.sqrt(n2)
        if not (n > 0.0) or not math.isfinite(n):
            raise DomainError(f"cannot normalize components {(x, y, z)!r}: they must be finite real numbers, not all 0")
        return cls(a / n, b / n, c / n)

    @classmethod
    def from_polar(cls, theta: Angle, phi: Angle = Angle(0.0)) -> "UnitVector3":
        """Direction at polar angle theta from +z, azimuth phi from +x."""
        st = math.sin(theta.radians)
        return cls.normalized(
            st * math.cos(phi.radians), st * math.sin(phi.radians), math.cos(theta.radians)
        )

    def dot(self, other: "UnitVector3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def __neg__(self) -> "UnitVector3":
        return UnitVector3(-self.x, -self.y, -self.z)


X_AXIS = UnitVector3(1.0, 0.0, 0.0)
Y_AXIS = UnitVector3(0.0, 1.0, 0.0)
Z_AXIS = UnitVector3(0.0, 0.0, 1.0)


class QubitState(_Value):
    """Pure spin-1/2 state amp_up|u> + amp_down|d>, normalized to 1e-12.

    Equality is phase-insensitive: two states compare equal when their
    Bloch vectors lie within 1e-10 of each other.
    """

    __slots__ = ("amp_up", "amp_down")

    def __init__(self, amp_up: complex, amp_down: complex):
        try:
            amp_up, amp_down = complex(amp_up), complex(amp_down)
            n2 = abs(amp_up) ** 2 + abs(amp_down) ** 2
        except NOT_A_NUMBER:
            raise DomainError(f"amplitudes must be complex numbers of norm 1, got {(amp_up, amp_down)!r}") from None
        if not abs(n2 - 1.0) <= NORM_TOL:  # False for NaN and infinity
            raise DomainError(f"amplitudes must be normalized, got |psi|^2 = {n2!r}")
        _set(self, "amp_up", amp_up)
        _set(self, "amp_down", amp_down)

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


class OutcomeDistribution(_Value):
    """Probabilities of the two outcomes; p_up + p_down = 1 to 1e-12."""

    __slots__ = ("p_up", "p_down")

    def __init__(self, p_up: float, p_down: float):
        _set_probabilities(self, (p_up, p_down))


def _set_probabilities(dist: _Value, values: tuple) -> None:
    """Set the fields of a distribution to `values` clamped into [0, 1],
    after checking that each lies in [0, 1] and that they sum to 1, both to
    1e-12; raise DomainError otherwise."""
    total = 0.0
    for name, given in zip(dist.__slots__, values):
        p = _real(given)
        if not _P_LOW <= p <= _P_HIGH:  # False for NaN and infinity
            raise DomainError(f"{name} must lie in [0, 1], got {given!r}")
        p = 0.0 if 0.0 > p else 1.0 if 1.0 < p else p  # min(max(p, 0.0), 1.0), comparison for comparison
        _set(dist, name, p)
        total += p
    if abs(total - 1.0) > NORM_TOL:
        raise DomainError(f"probabilities must sum to 1, got {total!r}")


def _numpy_loaded() -> bool:
    """Whether this process has loaded numpy. The Monte Carlo counts and the
    table quadrature compute in plain floats when it has not, with the same
    bits, so that a CLI process never pays for the import; a None entry in
    sys.modules blocks the import, as in a process without numpy."""
    return sys.modules.get("numpy") is not None


def _sqrt(v: float) -> float:
    """The square root as IEEE arithmetic gives it: nan for a negative v or nan, where math.sqrt raises."""
    return math.sqrt(v) if v >= 0.0 else math.nan


def _check_integer(value, name: str) -> int:
    """`value` as an int; it must be an int or a numpy integer, never a bool."""
    if type(value) is int:  # the common case, without the slow ABC check below
        return value
    import numbers

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
