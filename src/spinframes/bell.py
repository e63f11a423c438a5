"""Bell states, joint measurement statistics, and CHSH bounds.

The four maximally entangled two-qubit states, their Born-rule joint
outcome distributions, conditional averages ("average-only" conservation:
Bob's mean outcome given Alice's +1 is cos(theta), though every single
outcome is +/-1), exact-count ensembles realizing those averages, and
CHSH values up to the classical bound 2 and the quantum bound 2*sqrt(2).

Each triplet state has a fixed symmetry plane in which its correlation at
setting separation theta is +cos(theta); the singlet gives -cos(theta)
in every plane. The planes are a convention of this module:

    psi_plus  -> x-y plane,  phi_plus -> z-x plane,  phi_minus -> z-y plane,
    singlet   -> any plane (z-x used where one must be picked).
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import DomainError, UndefinedConditionalError
from .spin import (
    NORM_TOL,
    NOT_A_NUMBER,
    Angle,
    Outcome,
    UnitVector3,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    _check_integer,
    _complex,
    _set,
    _set_probabilities,
    _Value,
)

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "ALL_BELL_STATES",
    "BellState",
    "CHSHSetting",
    "EnsembleTable",
    "JointDistribution",
    "JointSetting",
    "PHI_MINUS",
    "PHI_PLUS",
    "PSI_PLUS",
    "SINGLET",
    "SymmetryPlane",
    "TSIRELSON_BOUND",
    "XY_PLANE",
    "ZX_PLANE",
    "ZY_PLANE",
    "build_exact_ensemble",
    "chsh_classical_max",
    "chsh_quantum_max",
    "chsh_scan",
    "chsh_value",
    "conditional_average",
    "correlation",
    "joint_distribution",
]

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

# Denominators above this have no practical exact-count ensemble.
MAX_ENSEMBLE_DENOMINATOR = 10**6
RATIONAL_TOL = 1e-12

# Largest number of points one chsh_scan call may produce.
MAX_SCAN_POINTS = 10**6
# Largest number of trials one build_exact_ensemble call may tabulate.
MAX_ENSEMBLE_TRIALS = 10**6


class SymmetryPlane(_Value):
    """Measurement plane spanned by two orthonormal axes.

    An in-plane setting at angle t is cos(t) e1 + sin(t) e2.
    """

    __slots__ = ("name", "e1", "e2")

    def __init__(self, name: str, e1: UnitVector3, e2: UnitVector3):
        for axis in (e1, e2):
            if not isinstance(axis, UnitVector3):
                raise DomainError(f"plane axes must be UnitVector3 values, got {axis!r}")
        if abs(e1.dot(e2)) > NORM_TOL:
            raise DomainError("plane axes must be orthogonal")
        _set(self, "name", name)
        _set(self, "e1", e1)
        _set(self, "e2", e2)

    def direction(self, angle: Angle) -> UnitVector3:
        c, s = math.cos(angle.radians), math.sin(angle.radians)
        return UnitVector3.normalized(
            c * self.e1.x + s * self.e2.x,
            c * self.e1.y + s * self.e2.y,
            c * self.e1.z + s * self.e2.z,
        )


XY_PLANE = SymmetryPlane("xy", X_AXIS, Y_AXIS)
ZX_PLANE = SymmetryPlane("zx", Z_AXIS, X_AXIS)
ZY_PLANE = SymmetryPlane("zy", Z_AXIS, Y_AXIS)


def _pauli_sums(g) -> tuple[complex, complex, complex]:
    """sum over a, c of (sigma_k)[a][c] g[a][c], for k = x, y, z."""
    return (g[0][1] + g[1][0], 1j * (g[1][0] - g[0][1]), g[0][0] - g[1][1])


class BellState(_Value):
    """One of the four maximally entangled two-qubit states.

    `psi` holds the four amplitudes ordered (uu, ud, du, dd), as complex
    numbers. Equality ignores global phase. `plane` is the symmetry plane
    documented in the module docstring. `correlation_tensor` holds the
    rows of T[i][j] = <sigma_i x sigma_j>, so that E(a, b) = a^T T b; it is
    computed, not passed, and left out of the repr.
    """

    __slots__ = ("label", "psi", "plane", "correlation_tensor")

    def __init__(self, label: str, psi: tuple[complex, complex, complex, complex], plane: SymmetryPlane):
        try:
            psi = tuple(map(_complex, psi))
        except TypeError:  # not iterable
            psi = ()
        if len(psi) != 4:
            raise DomainError("Bell state needs four amplitudes")
        try:
            a, b, c, d = (abs(x) ** 2 for x in psi)  # written out: sum() rounds differently from Python 3.12
            normalized = abs(a + b + c + d - 1.0) <= NORM_TOL  # False for NaN
        except NOT_A_NUMBER:  # a square that overflows
            normalized = False
        if not normalized:
            raise DomainError("Bell state must be normalized")
        # m[a][b] is the amplitude of Alice a, Bob b; maximal entanglement
        # means both reduced density matrices are I/2
        m, two = (psi[:2], psi[2:]), (0, 1)
        for x in (m, tuple(zip(*m))):  # rows indexed by Alice's outcome, then by Bob's
            rho = [[x[a][0] * x[c][0].conjugate() + x[a][1] * x[c][1].conjugate() for c in two] for a in two]
            if max(abs(rho[a][c] - (0.5 if a == c else 0.0)) for a in two for c in two) > NORM_TOL:
                raise DomainError("Bell state must be maximally entangled")
        # T[i][j] = <psi| sigma_i x sigma_j |psi>: contract Bob's indices with
        # sigma_j for each pair of Alice's, then Alice's with sigma_i
        bob = [[_pauli_sums([[m[a][b].conjugate() * m[c][d] for d in two] for b in two]) for c in two] for a in two]
        by_j = [_pauli_sums([[bob[a][c][j] for c in two] for a in two]) for j in range(3)]
        _set(self, "label", label)
        _set(self, "psi", psi)
        _set(self, "plane", plane)
        _set(self, "correlation_tensor", tuple(tuple(by_j[j][i].real for j in range(3)) for i in range(3)))

    def __reduce__(self):  # the tensor is computed by __init__, not passed
        return BellState, (self.label, self.psi, self.plane)

    def __repr__(self) -> str:
        return f"BellState(label={self.label!r}, psi={self.psi!r}, plane={self.plane!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, BellState):
            return NotImplemented
        a, b, c, d = (x.conjugate() * y for x, y in zip(self.psi, other.psi))
        overlap = a + b + c + d
        return abs(abs(overlap) - 1.0) < 1e-10

    @classmethod
    def from_label(cls, label: str) -> "BellState":
        key = label.strip().lower().replace("-", "_")
        try:
            return _BELL_BY_ALIAS[key]
        except KeyError:
            raise DomainError(
                f"unknown Bell state {label!r}; valid labels: "
                "singlet, psi+, phi+, phi- (or triplet_psi_plus, "
                "triplet_phi_plus, triplet_phi_minus)"
            ) from None


_IR2 = 1.0 / math.sqrt(2.0)

SINGLET = BellState("singlet", (0.0, _IR2, -_IR2, 0.0), ZX_PLANE)
PSI_PLUS = BellState("triplet_psi_plus", (0.0, _IR2, _IR2, 0.0), XY_PLANE)
PHI_PLUS = BellState("triplet_phi_plus", (_IR2, 0.0, 0.0, _IR2), ZX_PLANE)
PHI_MINUS = BellState("triplet_phi_minus", (_IR2, 0.0, 0.0, -_IR2), ZY_PLANE)

ALL_BELL_STATES = (SINGLET, PSI_PLUS, PHI_PLUS, PHI_MINUS)

# keys are pre-normalized: lowercase with "-" replaced by "_"
_BELL_BY_ALIAS = {
    "singlet": SINGLET,
    "psi_minus": SINGLET,
    "psi_": SINGLET,
    "triplet_psi_plus": PSI_PLUS,
    "psi_plus": PSI_PLUS,
    "psi+": PSI_PLUS,
    "triplet_phi_plus": PHI_PLUS,
    "phi_plus": PHI_PLUS,
    "phi+": PHI_PLUS,
    "triplet_phi_minus": PHI_MINUS,
    "phi_minus": PHI_MINUS,
    "phi_": PHI_MINUS,
}

class JointSetting(_Value):
    """Measurement directions for Alice and Bob."""

    __slots__ = ("alice", "bob")

    def __init__(self, alice: UnitVector3, bob: UnitVector3):
        for direction in (alice, bob):
            if not isinstance(direction, UnitVector3):
                raise DomainError(f"setting directions must be UnitVector3 values, got {direction!r}")
        _set(self, "alice", alice)
        _set(self, "bob", bob)

    @classmethod
    def in_plane(cls, plane: SymmetryPlane, alice: Angle, bob: Angle) -> "JointSetting":
        return cls(plane.direction(alice), plane.direction(bob))


class JointDistribution(_Value):
    """Probabilities of the four outcome pairs (Alice, Bob)."""

    __slots__ = ("p_pp", "p_pm", "p_mp", "p_mm")

    def __init__(self, p_pp: float, p_pm: float, p_mp: float, p_mm: float):
        _set_probabilities(self, (p_pp, p_pm, p_mp, p_mm))

    @property
    def correlation(self) -> float:
        """E = p(++) + p(--) - p(+-) - p(-+)."""
        return self.p_pp + self.p_mm - self.p_pm - self.p_mp

    def conditional_bob_mean(self, given: Outcome) -> float:
        """Average of Bob's outcome given Alice's outcome."""
        if given is Outcome.UP:
            p_given = self.p_pp + self.p_pm
            signed = self.p_pp - self.p_pm
        else:
            p_given = self.p_mp + self.p_mm
            signed = self.p_mp - self.p_mm
        if p_given <= NORM_TOL:
            raise UndefinedConditionalError(
                f"conditioning outcome Alice={int(given):+d} has probability 0"
            )
        return signed / p_given

    def probabilities(self) -> tuple[float, float, float, float]:
        return (self.p_pp, self.p_pm, self.p_mp, self.p_mm)


class CHSHSetting(_Value):
    """Two in-plane setting angles per party for a CHSH run."""

    __slots__ = ("alice", "alice_prime", "bob", "bob_prime", "plane")

    def __init__(self, alice: Angle, alice_prime: Angle, bob: Angle, bob_prime: Angle,
                 plane: SymmetryPlane = ZX_PLANE):
        for angle in (alice, alice_prime, bob, bob_prime):
            if not isinstance(angle, Angle):
                raise DomainError(f"setting angles must be Angle values, got {angle!r}")
        if not isinstance(plane, SymmetryPlane):
            raise DomainError(f"setting plane must be a SymmetryPlane, got {plane!r}")
        _set(self, "alice", alice)
        _set(self, "alice_prime", alice_prime)
        _set(self, "bob", bob)
        _set(self, "bob_prime", bob_prime)
        _set(self, "plane", plane)

    def pairs(self) -> tuple[tuple[Angle, Angle], ...]:
        """The four (Alice, Bob) angle pairs in S's combination order."""
        return (
            (self.alice, self.bob),
            (self.alice, self.bob_prime),
            (self.alice_prime, self.bob),
            (self.alice_prime, self.bob_prime),
        )


def _form(state: BellState, a: UnitVector3, b: UnitVector3) -> float:
    """a^T T b: the nine terms a_i T_ij b_j added left to right from +0.0 in the
    order (i, j) = (0,0), (0,1), ..., (2,2), as sum() over them did up to Python 3.11."""
    (t00, t01, t02), (t10, t11, t12), (t20, t21, t22) = state.correlation_tensor
    ax, ay, az, bx, by, bz = a.x, a.y, a.z, b.x, b.y, b.z
    return (0.0 + ax * t00 * bx + ax * t01 * by + ax * t02 * bz
            + ay * t10 * bx + ay * t11 * by + ay * t12 * bz
            + az * t20 * bx + az * t21 * by + az * t22 * bz)


def correlation(state: BellState, setting: JointSetting) -> float:
    """E(a, b) = a^T T b; equals cos(theta) for a triplet in its symmetry
    plane, -cos(theta) for the singlet."""
    return _form(state, setting.alice, setting.bob)


def joint_distribution(state: BellState, setting: JointSetting) -> JointDistribution:
    """Born-rule probabilities of the four outcome pairs.

    p(i, j) = (1 + i j E(a, b)) / 4 is exact for every BellState: maximal
    entanglement makes both marginals I/2, so only the correlation term
    of the Born rule survives.
    """
    e = correlation(state, setting)
    same, differ = (1.0 + e) / 4.0, (1.0 - e) / 4.0
    return JointDistribution(same, differ, differ, same)


def conditional_average(state: BellState, setting: JointSetting, given: Outcome) -> float:
    """Bob's average outcome conditioned on Alice's outcome.

    For a triplet in its symmetry plane with Alice = +1, equals
    cos(theta): conservation holds on average while each individual
    outcome stays +/-1.
    """
    return joint_distribution(state, setting).conditional_bob_mean(given)


class EnsembleTable(_Value):
    """Exact-count table of (Alice, Bob) outcomes realizing a conditional average.

    Alice's outcome is +1 in every trial, so the table is Bob's two
    counts. All counts are integers and the conditional average is an
    exact Fraction; floats appear only when callers convert for display.
    """

    __slots__ = ("bob_up_given_alice_up", "bob_down_given_alice_up")

    def __init__(self, bob_up_given_alice_up: int, bob_down_given_alice_up: int):
        for name, count in zip(self.__slots__, (bob_up_given_alice_up, bob_down_given_alice_up)):
            count = _check_integer(count, name)
            if count < 0:
                raise DomainError(f"{name} must be >= 0, got {count}")
            _set(self, name, count)

    @property
    def n(self) -> int:
        return self.bob_up_given_alice_up + self.bob_down_given_alice_up

    @property
    def trials(self) -> tuple[tuple[Outcome, Outcome], ...]:
        """The n (Alice, Bob) trials: the Bob-up rows, then the Bob-down rows."""
        return (((Outcome.UP, Outcome.UP),) * self.bob_up_given_alice_up
                + ((Outcome.UP, Outcome.DOWN),) * self.bob_down_given_alice_up)

    def conditional_average(self) -> Fraction:
        """Exact mean of Bob's outcomes over trials with Alice = +1."""
        if self.n == 0:
            raise UndefinedConditionalError("no trials with Alice = +1")
        from fractions import Fraction

        return Fraction(self.bob_up_given_alice_up - self.bob_down_given_alice_up, self.n)


def _minimal_denominator_fraction(value: float, tol: float) -> tuple[int, int]:
    """Smallest-denominator fraction within `tol` of `value` >= 0, exactly, as
    (numerator, denominator): the first node of the Stern-Brocot tree in
    [value - tol, value + tol] (Graham, Knuth and Patashnik, Concrete
    Mathematics, 4.5). The ends are unreduced ratios of ints with positive
    denominators. While no integer lies in the interval, take off its integer
    part a and invert it, which swaps its ends; h/k and h_prev/k_prev are the
    last two convergents, with h k_prev - h_prev k = +/-1, so the pair returned
    is in lowest terms."""
    (vn, vd), (tn, td) = value.as_integer_ratio(), tol.as_integer_ratio()
    (ln, ld), (hn, hd) = (vn * td - tn * vd, vd * td), (vn * td + tn * vd, vd * td)
    h, h_prev, k, k_prev = 1, 0, 0, 1
    while True:
        t = -(-ln // ld)  # the least integer >= lo
        if t * hd <= hn:
            return t * h + h_prev, t * k + k_prev
        a = t - 1
        h, h_prev, k, k_prev = a * h + h_prev, h, a * k + k_prev, k
        (ln, ld), (hn, hd) = (hd, hn - a * hd), (ld, ln - a * ld)


def build_exact_ensemble(theta: Angle, n: int) -> EnsembleTable:
    """Table of n trials whose conditional average is exactly cos(theta).

    Requires cos^2(theta/2) to be a small rational p/q and n a multiple
    of q; the error message names the minimal valid n. Alice's outcome is
    +1 in every row (the table realizes the conditioned view), with
    n*p/q Bob-up rows followed by the Bob-down rows.
    """
    n = _check_integer(n, "n")
    if not 0 < n <= MAX_ENSEMBLE_TRIALS:
        raise DomainError(f"n must lie in [1, {MAX_ENSEMBLE_TRIALS}], got {n}")
    c = math.cos(theta.radians / 2.0) ** 2
    p, q = _minimal_denominator_fraction(c, RATIONAL_TOL)
    if q > MAX_ENSEMBLE_DENOMINATOR:
        raise DomainError(
            f"cos^2(theta/2) = {c!r} has no rational form with denominator "
            f"<= {MAX_ENSEMBLE_DENOMINATOR}; pick an angle with a small "
            "rational up-probability"
        )
    if n % q != 0:
        raise DomainError(f"n must be a multiple of {q} (got n = {n})")
    ups = (n // q) * p
    return EnsembleTable(ups, n - ups)


def _chsh_combination(e_ab: float, e_ab_prime: float, e_a_prime_b: float, e_a_prime_b_prime: float) -> float:
    """S = E(a,b) - E(a,b') + E(a',b) + E(a',b')."""
    return e_ab - e_ab_prime + e_a_prime_b + e_a_prime_b_prime


def chsh_value(state: BellState, s: CHSHSetting) -> float:
    """CHSH combination of the four Born-rule correlations."""
    m = _plane_correlation_matrix(state, s.plane)
    a, a_prime, b, b_prime = s.alice.radians, s.alice_prime.radians, s.bob.radians, s.bob_prime.radians
    return _in_plane_s(m, math.cos(a), math.sin(a), math.cos(a_prime), math.sin(a_prime),
                       math.cos(b), math.sin(b), math.cos(b_prime), math.sin(b_prime))


def chsh_classical_max() -> float:
    """Maximum S over all local deterministic strategies: exactly 2.

    CHSH (Clauser, Horne, Shimony and Holt, PRL 23, 880 (1969)): with
    values a, a', b, b' in {+1, -1}, S = a (b - b') + a' (b + b'). One
    bracket is 0 and the other is +/-2, so |S| = 2 for every strategy.
    """
    return 2.0


def _plane_correlation_matrix(
    state: BellState, plane: SymmetryPlane
) -> tuple[tuple[float, float], tuple[float, float]]:
    """2x2 restriction M of the correlation tensor to `plane`, so
    E(alpha, beta) = [cos a, sin a] M [cos b, sin b]^T for in-plane angles."""
    e1, e2 = plane.e1, plane.e2
    return (_form(state, e1, e1), _form(state, e1, e2)), (_form(state, e2, e1), _form(state, e2, e2))


def _in_plane_s(m, ca: float, sa: float, cap: float, sap: float,
                cb: float, sb: float, cbp: float, sbp: float) -> float:
    """S = u(a)^T M (u(b) - u(b')) + u(a')^T M (u(b) + u(b')) with
    u(x) = (cos x, sin x), given as ca, sa = cos a, sin a and so on for a',
    b and b'; that is E(a,b) - E(a,b') + E(a',b) + E(a',b'). Each form is
    summed term by term from +0.0 in the order (i, j) = (0,0), (0,1), (1,0),
    (1,1), which is how numpy's einsum sums it: tests/test_bell.py checks
    the scan against one bit for bit."""
    (m00, m01), (m10, m11) = m
    d0, d1, p0, p1 = cb - cbp, sb - sbp, cb + cbp, sb + sbp
    minus = 0.0 + ca * m00 * d0 + ca * m01 * d1 + sa * m10 * d0 + sa * m11 * d1
    plus = 0.0 + cap * m00 * p0 + cap * m01 * p1 + sap * m10 * p0 + sap * m11 * p1
    return minus + plus


def chsh_quantum_max(state: BellState) -> tuple[float, CHSHSetting]:
    """Largest S over settings in the state's plane, in closed form.

    Horodecki criterion (R., P. and M. Horodecki, Phys. Lett. A 200, 340
    (1995)): with the in-plane block M = R(phi) diag(s1, s2) R(theta), R a
    rotation, the maximum is S = 2 sqrt(s1^2 + s2^2) = 2 |M|_F, which is
    2*sqrt(2) for every Bell state. M splits into a rotation q R(rho) and a
    reflection of scale r and angle sigma, so s1 = q + r, s2 = q - r,
    phi = (rho + sigma)/2 and theta = (rho - sigma)/2 (Blinn, "Consider the
    lowly 2x2 matrix", IEEE CG&A 1996). S is attained at a = phi + pi/2,
    a' = phi, b = w - theta and b' = -w - theta with w = atan2(s2, s1),
    reported in [-pi, pi].
    """
    (a, b), (c, d) = _plane_correlation_matrix(state, state.plane)
    q, r = math.hypot(a + d, c - b) / 2.0, math.hypot(a - d, c + b) / 2.0
    rho = math.atan2(c - b, a + d)
    # without a reflection part s1 = s2 and any phi will do: take phi = 0
    sigma = math.atan2(c + b, a - d) if r else -rho
    phi, theta = (rho + sigma) / 2.0, (rho - sigma) / 2.0
    w = math.atan2(q - r, q + r)
    angles = (phi + math.pi / 2.0, phi, w - theta, -w - theta)
    setting = CHSHSetting(*(Angle(math.remainder(x, 2.0 * math.pi)) for x in angles), state.plane)
    return 2.0 * math.hypot(a, b, c, d), setting


def chsh_scan(state: BellState, step: Angle = Angle(math.radians(1.0))) -> list[tuple[Angle, float]]:
    """S along the one-parameter family a=0, b=t, a'=2t, b'=3t.

    For a triplet in its symmetry plane S(t) = 3 cos(t) - cos(3t), which
    peaks at the quantum bound 2*sqrt(2) at t = 45 degrees; plot-ready.
    Raises DomainError if the step gives more than MAX_SCAN_POINTS points.
    """
    if step.radians <= 0:
        raise DomainError("scan step must be positive")
    points = (2.0 * math.pi - 1e-12) / step.radians
    if points > MAX_SCAN_POINTS:
        raise DomainError(
            f"scan step of {step.degrees!r} degrees gives more than {MAX_SCAN_POINTS} points"
        )
    h, m = step.radians, _plane_correlation_matrix(state, state.plane)
    cos, sin = math.cos, math.sin
    # a = 0 at every point, and cos 0.0 = 1.0, sin 0.0 = 0.0
    return [(Angle(t := i * h),
             _in_plane_s(m, 1.0, 0.0, cos(t2 := 2 * t), sin(t2), cos(t), sin(t), cos(t3 := 3 * t), sin(t3)))
            for i in range(math.ceil(points))]
