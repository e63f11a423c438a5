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
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DomainError, UndefinedConditionalError
from .spin import (
    NORM_TOL,
    PAULI,
    Angle,
    Outcome,
    OutcomeDistribution,
    UnitVector3,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
)

PLANE_TOL = 1e-10
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

# Denominators above this have no practical exact-count ensemble.
MAX_ENSEMBLE_DENOMINATOR = 10**6
RATIONAL_TOL = 1e-12

# Largest number of points one chsh_scan call may produce.
MAX_SCAN_POINTS = 10**6
# Largest number of trials one build_exact_ensemble call may tabulate.
MAX_ENSEMBLE_TRIALS = 10**6


@dataclass(frozen=True)
class SymmetryPlane:
    """Measurement plane spanned by two orthonormal axes.

    An in-plane setting at angle t is cos(t) e1 + sin(t) e2.
    """

    name: str
    e1: UnitVector3
    e2: UnitVector3

    def __post_init__(self):
        if abs(self.e1.dot(self.e2)) > NORM_TOL:
            raise DomainError("plane axes must be orthogonal")

    def direction(self, angle: Angle) -> UnitVector3:
        c, s = math.cos(angle.radians), math.sin(angle.radians)
        return UnitVector3.normalized(
            c * self.e1.x + s * self.e2.x,
            c * self.e1.y + s * self.e2.y,
            c * self.e1.z + s * self.e2.z,
        )

    @property
    def normal(self) -> UnitVector3:
        n = self.e1.cross(self.e2)
        return UnitVector3.normalized(n[0], n[1], n[2])

    def contains(self, v: UnitVector3, tol: float = PLANE_TOL) -> bool:
        return abs(v.dot(self.normal)) <= tol


XY_PLANE = SymmetryPlane("xy", X_AXIS, Y_AXIS)
ZX_PLANE = SymmetryPlane("zx", Z_AXIS, X_AXIS)
ZY_PLANE = SymmetryPlane("zy", Z_AXIS, Y_AXIS)


@dataclass(frozen=True, eq=False)
class BellState:
    """One of the four maximally entangled two-qubit states.

    Amplitudes are ordered (uu, ud, du, dd). Equality ignores global
    phase. `plane` is the symmetry plane documented in the module
    docstring.
    """

    label: str
    amplitudes: np.ndarray
    plane: SymmetryPlane
    _tensor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        a = np.array(self.amplitudes, dtype=complex)
        if a.shape != (4,):
            raise DomainError("Bell state needs four amplitudes")
        if abs(float(np.vdot(a, a).real) - 1.0) > NORM_TOL:
            raise DomainError("Bell state must be normalized")
        # psi[i, j] is the amplitude of Alice i, Bob j; maximal entanglement
        # means both reduced density matrices are I/2
        psi = a.reshape(2, 2)
        half = np.eye(2) / 2.0
        for rho in (psi @ psi.conj().T, psi.T @ psi.conj()):
            if np.abs(rho - half).max() > NORM_TOL:
                raise DomainError("Bell state must be maximally entangled")
        # T[i, j] = <psi| sigma_i x sigma_j |psi> = tr(psi^dag sigma_i psi sigma_j^T)
        pauli = np.stack(PAULI)
        t = np.einsum("ab,iac,jbd,cd->ij", psi.conj(), pauli, pauli, psi).real
        a.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)
        object.__setattr__(self, "_tensor", t)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BellState):
            return NotImplemented
        return abs(abs(complex(np.vdot(self.amplitudes, other.amplitudes))) - 1.0) < 1e-10

    @property
    def is_triplet(self) -> bool:
        return self.label != "singlet"

    @property
    def correlation_tensor(self) -> np.ndarray:
        """T[i, j] = <sigma_i x sigma_j>, computed once from the amplitudes
        (read-only); E(a, b) = a^T T b."""
        return self._tensor

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

SINGLET = BellState("singlet", np.array([0.0, _IR2, -_IR2, 0.0]), ZX_PLANE)
PSI_PLUS = BellState("triplet_psi_plus", np.array([0.0, _IR2, _IR2, 0.0]), XY_PLANE)
PHI_PLUS = BellState("triplet_phi_plus", np.array([_IR2, 0.0, 0.0, _IR2]), ZX_PLANE)
PHI_MINUS = BellState("triplet_phi_minus", np.array([_IR2, 0.0, 0.0, -_IR2]), ZY_PLANE)

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

BELL_LABELS = ("singlet", "psi+", "phi+", "phi-")


@dataclass(frozen=True)
class JointSetting:
    """Measurement directions for Alice and Bob, optionally tagged in-plane."""

    alice: UnitVector3
    bob: UnitVector3
    plane: SymmetryPlane | None = None

    def __post_init__(self):
        if self.plane is not None:
            for who, v in (("alice", self.alice), ("bob", self.bob)):
                if not self.plane.contains(v):
                    raise DomainError(
                        f"{who} setting is not in the {self.plane.name} plane"
                    )

    @classmethod
    def in_plane(cls, plane: SymmetryPlane, alice: Angle, bob: Angle) -> "JointSetting":
        return cls(plane.direction(alice), plane.direction(bob), plane)

    @property
    def separation(self) -> Angle:
        return self.alice.angle_to(self.bob)


@dataclass(frozen=True)
class JointDistribution:
    """Probabilities of the four outcome pairs (Alice, Bob)."""

    p_pp: float
    p_pm: float
    p_mp: float
    p_mm: float

    def __post_init__(self):
        for name in ("p_pp", "p_pm", "p_mp", "p_mm"):
            p = getattr(self, name)
            if not math.isfinite(p) or p < -NORM_TOL or p > 1.0 + NORM_TOL:
                raise DomainError(f"{name} must lie in [0, 1], got {p!r}")
            object.__setattr__(self, name, min(max(p, 0.0), 1.0))
        total = self.p_pp + self.p_pm + self.p_mp + self.p_mm
        if abs(total - 1.0) > NORM_TOL:
            raise DomainError(f"probabilities must sum to 1, got {total!r}")

    @property
    def correlation(self) -> float:
        """E = p(++) + p(--) - p(+-) - p(-+)."""
        return self.p_pp + self.p_mm - self.p_pm - self.p_mp

    @property
    def alice_marginal(self) -> OutcomeDistribution:
        return OutcomeDistribution(self.p_pp + self.p_pm, self.p_mp + self.p_mm)

    @property
    def bob_marginal(self) -> OutcomeDistribution:
        return OutcomeDistribution(self.p_pp + self.p_mp, self.p_pm + self.p_mm)

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


@dataclass(frozen=True)
class CHSHSetting:
    """Two in-plane setting angles per party for a CHSH run."""

    alice: Angle
    alice_prime: Angle
    bob: Angle
    bob_prime: Angle
    plane: SymmetryPlane = field(default=ZX_PLANE)

    def pairs(self) -> tuple[tuple[Angle, Angle], ...]:
        """The four (Alice, Bob) angle pairs in S's combination order."""
        return (
            (self.alice, self.bob),
            (self.alice, self.bob_prime),
            (self.alice_prime, self.bob),
            (self.alice_prime, self.bob_prime),
        )


def correlation(state: BellState, setting: JointSetting) -> float:
    """E(a, b) = a^T T b; equals cos(theta) for a triplet in its symmetry
    plane, -cos(theta) for the singlet."""
    return float(setting.alice.as_array() @ state.correlation_tensor @ setting.bob.as_array())


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


@dataclass(frozen=True)
class EnsembleTable:
    """Exact-count table of (Alice, Bob) outcomes realizing a conditional average.

    All counts are integers and the conditional average is an exact
    Fraction; floats appear only when callers convert for display.
    """

    theta: Angle
    trials: tuple[tuple[Outcome, Outcome], ...]

    @property
    def n(self) -> int:
        return len(self.trials)

    @property
    def bob_up_given_alice_up(self) -> int:
        return sum(1 for a, b in self.trials if a is Outcome.UP and b is Outcome.UP)

    @property
    def bob_down_given_alice_up(self) -> int:
        return sum(1 for a, b in self.trials if a is Outcome.UP and b is Outcome.DOWN)

    def conditional_average(self) -> Fraction:
        """Exact mean of Bob's outcomes over trials with Alice = +1."""
        ups = self.bob_up_given_alice_up
        downs = self.bob_down_given_alice_up
        if ups + downs == 0:
            raise UndefinedConditionalError("no trials with Alice = +1")
        return Fraction(ups - downs, ups + downs)


def _minimal_denominator_fraction(value: float, tol: float) -> Fraction:
    """Smallest-denominator fraction within `tol` of `value` (exact search)."""
    target = Fraction(value)
    bound = Fraction(tol)

    def ok(cap: int) -> bool:
        return abs(target.limit_denominator(cap) - target) <= bound

    lo, hi = 1, 2**60  # every float is exactly representable well below 2**60
    while lo < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid + 1
    return target.limit_denominator(lo)


def build_exact_ensemble(theta: Angle, n: int) -> EnsembleTable:
    """Table of n trials whose conditional average is exactly cos(theta).

    Requires cos^2(theta/2) to be a small rational p/q and n a multiple
    of q; the error message names the minimal valid n. Alice's outcome is
    +1 in every row (the table realizes the conditioned view), with
    n*p/q Bob-up rows followed by the Bob-down rows.
    """
    if not 0 < n <= MAX_ENSEMBLE_TRIALS:
        raise DomainError(f"n must lie in [1, {MAX_ENSEMBLE_TRIALS}], got {n}")
    c = math.cos(theta.radians / 2.0) ** 2
    frac = _minimal_denominator_fraction(c, RATIONAL_TOL)
    if frac.denominator > MAX_ENSEMBLE_DENOMINATOR:
        raise DomainError(
            f"cos^2(theta/2) = {c!r} has no rational form with denominator "
            f"<= {MAX_ENSEMBLE_DENOMINATOR}; pick an angle with a small "
            "rational up-probability"
        )
    q = frac.denominator
    if n % q != 0:
        raise DomainError(f"n must be a multiple of {q} (got n = {n})")
    ups = (n // q) * frac.numerator
    rows = [(Outcome.UP, Outcome.UP)] * ups + [(Outcome.UP, Outcome.DOWN)] * (n - ups)
    return EnsembleTable(theta, tuple(rows))


def chsh_combination(e_ab: float, e_ab_prime: float, e_a_prime_b: float, e_a_prime_b_prime: float) -> float:
    """S = E(a,b) - E(a,b') + E(a',b) + E(a',b')."""
    return e_ab - e_ab_prime + e_a_prime_b + e_a_prime_b_prime


def chsh_value(state: BellState, s: CHSHSetting) -> float:
    """CHSH combination of the four Born-rule correlations."""
    es = [correlation(state, JointSetting.in_plane(s.plane, a, b)) for a, b in s.pairs()]
    return chsh_combination(*es)


def enumerate_classical_strategies() -> list[tuple[tuple[int, int, int, int], int]]:
    """All 16 deterministic local strategies and their exact S values.

    A strategy assigns +/-1 to each of Alice's settings (a, a') and each
    of Bob's (b, b'); S is then integer-valued.
    """
    out = []
    signs = (1, -1)
    for aa in signs:
        for aap in signs:
            for bb in signs:
                for bbp in signs:
                    s = aa * bb - aa * bbp + aap * bb + aap * bbp
                    out.append(((aa, aap, bb, bbp), s))
    return out


def chsh_classical_max() -> float:
    """Maximum S over all deterministic local strategies: exactly 2."""
    return float(max(s for _, s in enumerate_classical_strategies()))


def _plane_correlation_matrix(state: BellState) -> np.ndarray:
    """2x2 restriction M of the correlation tensor to the state's plane, so
    E(alpha, beta) = [cos a, sin a] M [cos b, sin b]^T for in-plane angles."""
    plane = state.plane
    basis = np.stack([plane.e1.as_array(), plane.e2.as_array()])
    return basis @ state.correlation_tensor @ basis.T


def _plane_angle(w: np.ndarray) -> Angle:
    """In-plane angle of a unit vector given in plane coordinates."""
    return Angle(math.atan2(float(w[1]), float(w[0])))


def chsh_quantum_max(state: BellState) -> tuple[float, CHSHSetting]:
    """Largest S over settings in the state's plane, in closed form.

    Horodecki criterion (R., P. and M. Horodecki, Phys. Lett. A 200, 340
    (1995)) on the in-plane block M = U diag(s1, s2) V^T: the maximum is
    S = 2 sqrt(s1^2 + s2^2), which is 2*sqrt(2) for every Bell state. It
    is attained at a = u2, a' = u1, b = cos(phi) v1 + sin(phi) v2 and
    b' = cos(phi) v1 - sin(phi) v2 with phi = atan2(s2, s1), where
    E(a, b) - E(a, b') = 2 s2 sin(phi) and E(a', b) + E(a', b') = 2 s1 cos(phi).
    """
    u, s, vt = np.linalg.svd(_plane_correlation_matrix(state))
    s1, s2 = float(s[0]), float(s[1])
    phi = math.atan2(s2, s1)
    b = math.cos(phi) * vt[0] + math.sin(phi) * vt[1]
    b_prime = math.cos(phi) * vt[0] - math.sin(phi) * vt[1]
    setting = CHSHSetting(
        _plane_angle(u[:, 1]),
        _plane_angle(u[:, 0]),
        _plane_angle(b),
        _plane_angle(b_prime),
        state.plane,
    )
    return 2.0 * math.hypot(s1, s2), setting


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
    m = _plane_correlation_matrix(state)
    t = np.arange(math.ceil(points)) * step.radians
    a, a_prime, b, b_prime = (np.stack([np.cos(x), np.sin(x)]) for x in (0.0 * t, 2 * t, t, 3 * t))
    # S = a^T M (b - b') + a'^T M (b + b'), one value per t
    s = np.einsum("in,ij,jn->n", a, m, b - b_prime) + np.einsum("in,ij,jn->n", a_prime, m, b + b_prime)
    return [(Angle(x), y) for x, y in zip(t.tolist(), s.tolist())]
