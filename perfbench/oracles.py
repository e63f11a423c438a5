"""Closed forms and checks computed apart from spinframes.

Nothing here imports spinframes: every expected value is built from the
benchmark's own Pauli matrices, Bell amplitudes and formulas, so a check
fails when the program's answer drifts from the physics, not when it
drifts from itself.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

TSIRELSON = 2.0 * math.sqrt(2.0)

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

_S = 1.0 / math.sqrt(2.0)
# amplitudes (uu, ud, du, dd) and the symmetry plane (e1, e2) of each state,
# as documented in the README conventions
_X, _Y, _Z = np.eye(3)
PLANES = {"xy": (_X, _Y), "zx": (_Z, _X), "zy": (_Z, _Y)}
BELL = {
    "singlet": (np.array([0, _S, -_S, 0], dtype=complex), "zx"),
    "triplet_psi_plus": (np.array([0, _S, _S, 0], dtype=complex), "xy"),
    "triplet_phi_plus": (np.array([_S, 0, 0, _S], dtype=complex), "zx"),
    "triplet_phi_minus": (np.array([_S, 0, 0, -_S], dtype=complex), "zy"),
}


class Mismatch(Exception):
    """An output disagrees with its oracle: the run is not correct."""


class Breach(Exception):
    """An output breaks a documented invariant: the operation failed."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def close(got: float, want: float, tol: float, what: str, rel: bool = False) -> None:
    scale = abs(want) if rel else 1.0
    expect(
        math.isfinite(got) and abs(got - want) <= tol * scale,
        f"{what}: got {got!r}, want {want!r} (tol {tol:g}{' rel' if rel else ''})",
    )


# --- spin and frames -------------------------------------------------------

def p_up(u: np.ndarray, v: np.ndarray) -> float:
    """cos^2(theta/2) for the angle theta between unit vectors u and v."""
    theta = math.atan2(float(np.linalg.norm(np.cross(u, v))), float(u @ v))
    return math.cos(theta / 2.0) ** 2


def bloch(amp_up: complex, amp_down: complex) -> np.ndarray:
    a, b = complex(amp_up), complex(amp_down)
    ab = a.conjugate() * b
    return np.array([2.0 * ab.real, 2.0 * ab.imag, abs(a) ** 2 - abs(b) ** 2])


def su2(n: np.ndarray, angle: float) -> np.ndarray:
    n_sigma = n[0] * PAULI[0] + n[1] * PAULI[1] + n[2] * PAULI[2]
    return math.cos(angle / 2.0) * np.eye(2) - 1j * math.sin(angle / 2.0) * n_sigma


def rodrigues(n: np.ndarray, angle: float) -> np.ndarray:
    k = np.array([[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def check_rotation(r: np.ndarray, n: np.ndarray, angle: float) -> None:
    expect(np.abs(r @ r.T - np.eye(3)).max() <= 1e-12, "SO(3) image is not orthogonal")
    close(float(np.linalg.det(r)), 1.0, 1e-12, "SO(3) determinant")
    expect(np.abs(r - rodrigues(n, angle)).max() <= 1e-12, "SO(3) image differs from Rodrigues")


# --- Bell states and CHSH --------------------------------------------------

def correlation_tensor(amplitudes: np.ndarray) -> np.ndarray:
    a = np.asarray(amplitudes, dtype=complex)
    return np.array(
        [[float(np.real(np.vdot(a, np.kron(si, sj) @ a))) for sj in PAULI] for si in PAULI]
    )


TENSORS = {label: correlation_tensor(amp) for label, (amp, _) in BELL.items()}


def in_plane(plane: str, angle: float) -> np.ndarray:
    e1, e2 = PLANES[plane]
    return math.cos(angle) * e1 + math.sin(angle) * e2


def plane_sign(label: str) -> float:
    """+1 for a triplet in its own plane, -1 for the singlet."""
    return -1.0 if label == "singlet" else 1.0


def joint_probs(label: str, alpha: float, beta: float) -> tuple[float, float, float, float]:
    """(1 + i j s cos(beta - alpha)) / 4 for (i, j) = ++, +-, -+, --."""
    e = plane_sign(label) * math.cos(beta - alpha)
    return ((1 + e) / 4, (1 - e) / 4, (1 - e) / 4, (1 + e) / 4)


def chsh(label: str, plane: str, a: float, a2: float, b: float, b2: float) -> float:
    """S = E(a,b) - E(a,b') + E(a',b) + E(a',b'), with E = a^T T b."""
    t = TENSORS[label]

    def e(x, y):
        return float(in_plane(plane, x) @ t @ in_plane(plane, y))

    return e(a, b) - e(a, b2) + e(a2, b) + e(a2, b2)


def scan_value(label: str, t: float) -> float:
    return plane_sign(label) * (3.0 * math.cos(t) - math.cos(3.0 * t))


def check_scan(label: str, points: list[tuple[float, float]]) -> None:
    """The default 1-degree scan: 360 points t = k degrees."""
    expect(len(points) == 360, f"scan has {len(points)} points")
    for k, (t, s) in enumerate(points):
        close(t, math.radians(k), 1e-12, f"scan angle {k}")
        close(s, scan_value(label, t), 1e-10, f"scan S at {t:.4f} rad")


def check_chsh_max(label: str, plane: str, value: float, angles: tuple[float, float, float, float]) -> None:
    expect(abs(abs(value) - TSIRELSON) <= 1e-6, f"CHSH max {value!r} is not 2*sqrt(2)")
    close(value, chsh(label, plane, *angles), 1e-9, "CHSH max re-evaluated as a^T T b")


def ensemble_fraction(theta_deg: int) -> Fraction:
    """cos^2(theta/2) as an exact fraction for the angles the benchmark uses."""
    return {0: Fraction(1), 60: Fraction(3, 4), 90: Fraction(1, 2), 120: Fraction(1, 4), 180: Fraction(0)}[theta_deg]


def check_ensemble(theta_deg: int, n: int, bob_outcomes: list[int], average: Fraction) -> None:
    p = ensemble_fraction(theta_deg)
    ups = sum(1 for b in bob_outcomes if b == 1)
    expect(len(bob_outcomes) == n, f"ensemble has {len(bob_outcomes)} rows, want {n}")
    expect(ups == p * n, f"ensemble has {ups} Bob-up rows, want {p * n}")
    want = Fraction(ups - (n - ups), n)
    expect(average == want == 2 * p - 1, f"ensemble average {average} != {2 * p - 1}")


# --- gravity ---------------------------------------------------------------

def dust_cap_ratio(chi0: float) -> float:
    """3 (chi0 - sin chi0 cos chi0) / (2 sin^3 chi0), the cap volume over the
    flat ball of equal areal radius; 2x - sin 2x by its series for small x."""
    s3 = math.sin(chi0) ** 3
    if chi0 >= 0.5:
        return 3.0 * (chi0 - math.sin(chi0) * math.cos(chi0)) / (2.0 * s3)
    y, total, k = 2.0 * chi0, 0.0, 1
    while True:
        term = (-1) ** (k + 1) * y ** (2 * k + 1) / math.factorial(2 * k + 1)
        total += term
        if abs(term) <= 1e-18 * abs(total):
            return 3.0 * total / (4.0 * s3)
        k += 1


def uniform_ball_ratio(compactness: float) -> float:
    """M_p / M = 3 (arcsin sqrt(C) - sqrt(C (1 - C))) / (2 C^1.5) for a
    constant-density ball of compactness C = 2GM/(c^2 R)."""
    c = compactness
    return 3.0 * (math.asin(math.sqrt(c)) - math.sqrt(c * (1.0 - c))) / (2.0 * c**1.5)


def check_proper_mass(proper: float, mass: float, compactness: float, rel_tol: float) -> None:
    if not proper > mass:
        raise Breach(f"M_p = {proper!r} is not above M = {mass!r}")
    close(proper / mass, uniform_ball_ratio(compactness), rel_tol, "M_p/M", rel=True)


def check_thin_step(proper: float, jump: float) -> None:
    """All the mass M = jump sits in a step at r = 1 (width 1e-7), so
    M_p = integral of dm / sqrt(1 - 2m) from 0 to jump = 1 - sqrt(1 - 2 jump)."""
    if not proper > jump:
        raise Breach(f"M_p = {proper!r} is not above M = {jump!r}")
    close(proper, 1.0 - math.sqrt(1.0 - 2.0 * jump), 1e-5, "thin-step M_p", rel=True)


def metric(chi: float, theta: float, a: float, c: float) -> tuple[float, float, float, float]:
    s2 = math.sin(chi) ** 2
    return (-c * c, a * a, a * a * s2, a * a * s2 * math.sin(theta) ** 2)


# --- Monte Carlo -----------------------------------------------------------

# Each check may fail by chance with probability at most 1e-9; a run makes
# a few thousand such checks.
_LOG_TERM = math.log(2.0 / 1e-9)


def mc_tolerance(n: int, mean: float) -> float:
    """Bernstein bound on |sample mean - mean| for n draws of +/-1 values.

    For large n it is sqrt(2 ln(2/delta)) ~ 6.5 exact standard errors,
    sqrt(1 - mean^2 / n); the linear term covers small n and means near
    +/-1, where the normal approximation fails.
    """
    var = max(1.0 - mean * mean, 0.0)
    lin = 4.0 * _LOG_TERM / 3.0
    return (lin + math.sqrt(lin * lin + 8.0 * n * _LOG_TERM * var)) / (2.0 * n)


def check_mc_mean(got: float, n: int, want: float, what: str) -> None:
    expect(abs(got - want) <= mc_tolerance(n, want), f"{what}: mean {got!r} vs exact {want!r} at n={n}")
