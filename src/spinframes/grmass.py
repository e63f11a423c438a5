"""Proper mass versus dynamic mass for spherical matter distributions.

Two routes to the same physics: the binding-energy quadrature
M_p = integral of (1 - 2 G M(r) / (c^2 r))^(-1/2) dM over a static
spherical profile, and the closed-form ratio for a uniform dust ball cut
out of a closed FLRW geometry at radial coordinate chi0,

    M_p / M = 3 (2 chi0 - sin(2 chi0)) / (4 sin^3(chi0)).

Both make M_p strictly larger than M for any bound configuration; the
difference is the binding energy.
"""
from __future__ import annotations

import math
import os
import sys
from functools import cache
from typing import TYPE_CHECKING

from .errors import ConvergenceError, DomainError, ProfileError
from .spin import NOT_A_NUMBER, Angle, _set, _Value

if TYPE_CHECKING:
    import numpy as np

# chi0 below this evaluates the ratio by its x^6 series, which is exact to
# rounding there; the direct form loses digits to cancellation in 2x - sin 2x.
SERIES_SWITCH = 0.02

QUAD_REL_TOL = 1e-10
QUAD_MAX_ROUNDS = 50
QUAD_MAX_SEGMENTS = 2**16  # live segments beyond the table's pieces: bounds the memory of a round
_HORIZON = "horizon inside the matter: 1 - 2GM(r)/(c^2 r) <= 0 at r = {!r}"


@cache
def _gauss_legendre(points: int) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    return np.polynomial.legendre.leggauss(points)


class UnitsConfig(_Value):
    """Physical constants used by the quadrature."""

    __slots__ = ("G", "c")

    def __init__(self, G: float = 6.67430e-11, c: float = 299792458.0):
        positive = normal = False
        try:
            positive = 0.0 < G < math.inf  # False for NaN
            # k = 2G/c^2 and g_tt = -c^2 need c^2 to be a positive normal float
            normal = c > 0 and sys.float_info.min <= c * c < math.inf
        except NOT_A_NUMBER:  # the first argument that is no real number fails its check
            pass
        if not positive:
            raise DomainError(f"G must be positive, got {G!r}")
        if not normal:
            raise DomainError(f"c must be positive with c^2 in the normal float range, got {c!r}")
        _set(self, "G", G)
        _set(self, "c", c)

    @classmethod
    def geometrized(cls) -> "UnitsConfig":
        return cls(G=1.0, c=1.0)


class MassProfile(_Value):
    """Cumulative mass M(r) of a spherical body on [0, R].

    M(r) is nondecreasing with M(0) = 0 and M(R) = the total dynamic
    mass. A tabulated profile holds its `spline`: the knots x and the
    coefficients c of the cubic ((c[0] u + c[1]) u + c[2]) u + c[3] in
    u = r - x[i] on piece i. A uniform ball has no spline. Equality is
    identity.
    """

    __slots__ = ("mass", "radius", "spline")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, mass: float, radius: float, spline: tuple[np.ndarray, np.ndarray] | None = None):
        positive_mass = positive_radius = False
        try:
            positive_mass = 0.0 < mass < math.inf  # False for NaN
            positive_radius = 0.0 < radius < math.inf
        except NOT_A_NUMBER:  # the first argument that is no real number fails its check
            pass
        if not positive_mass:
            raise ProfileError(f"total mass must be positive, got {mass!r}")
        if not positive_radius:
            raise ProfileError(f"radius must be positive, got {radius!r}")
        _set(self, "mass", mass)
        _set(self, "radius", radius)
        _set(self, "spline", spline)

    def mass_within(self, r: float) -> float:
        if not 0.0 <= r <= self.radius * (1 + 1e-12):
            raise DomainError(f"r = {r!r} outside the profile's [0, {self.radius}]")
        r = min(r, self.radius)
        if self.spline is None:
            return float(self.mass * (r / self.radius) ** 3)
        x, c = self.spline
        i = min(int(x.searchsorted(r, "right")) - 1, len(x) - 2)
        return float(_cubic(c[:, i], r - x[i]))

    @property
    def kind(self) -> str:
        """How the profile was built: "uniform" or "table"."""
        return "uniform" if self.spline is None else "table"

    @classmethod
    def uniform(cls, mass: float, radius: float) -> "MassProfile":
        """Constant-density ball: M(r) = M (r/R)^3."""
        return cls(mass, radius)

    @classmethod
    def from_table(cls, r: np.ndarray, m: np.ndarray) -> "MassProfile":
        """Tabulated (r, M(r)) pairs joined by a monotone cubic.

        Needs r strictly increasing from 0, M nondecreasing from 0, and
        a positive final mass.
        """
        import numpy as np

        try:
            r = np.asarray(r, dtype=float)
            m = np.asarray(m, dtype=float)
        except (TypeError, ValueError):
            raise ProfileError("r and M must be sequences of numbers") from None
        if r.ndim != 1 or r.shape != m.shape:
            raise ProfileError("r and M must be one-dimensional and the same length")
        if len(r) < 2:
            raise ProfileError("profile table needs at least two rows")
        if not (np.isfinite(r).all() and np.isfinite(m).all()):
            raise ProfileError("profile table contains non-finite values")
        if r[0] != 0.0:
            raise ProfileError(f"first radius must be 0, got {r[0]!r}")
        if m[0] != 0.0:
            raise ProfileError(f"mass at r = 0 must be 0, got {m[0]!r}")
        # compare neighbours: np.diff overflows for opposite signs near the largest float
        if not (r[1:] > r[:-1]).all():
            i = int(np.argmin(r[1:] > r[:-1])) + 1
            raise ProfileError(f"radii must be strictly increasing (row {i + 1})")
        if not (m[1:] >= m[:-1]).all():
            i = int(np.argmin(m[1:] >= m[:-1])) + 1
            raise ProfileError(f"mass must be nondecreasing (row {i + 1})")
        if m[-1] <= 0:
            raise ProfileError("total mass must be positive")
        with np.errstate(over="ignore", invalid="ignore"):  # caught just below
            c = _pchip_coefficients(r, m)
        if not np.isfinite(c).all():
            raise ProfileError("the cubic through the table overflows a float")
        return cls(float(m[-1]), float(r[-1]), (r, c))


def _pchip_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients of the monotone cubic through nondecreasing (x, y)
    (Fritsch & Butland, SIAM J. Sci. Stat. Comput. 5, 300 (1984)), with the
    slopes of scipy's PchipInterpolator in its order of operations: inside,
    the weighted harmonic mean of the two secants, 0 next to a flat one; at
    each end, the one-sided three-point estimate, 0 where not positive.
    As no secant is negative, that is all of scipy's sign rule.
    """
    import numpy as np

    h = np.diff(x)
    m = np.diff(y) / h
    d = np.zeros_like(y)
    if len(x) == 2:
        d[:] = m[0]
    else:
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        inner = (m[1:] != 0) & (m[:-1] != 0)
        with np.errstate(divide="ignore"):
            d[1:-1][inner] = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))[inner]
        for end, h0, h1, m0, m1 in ((0, h[0], h[1], m[0], m[1]), (-1, h[-1], h[-2], m[-1], m[-2])):
            d[end] = max(((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1), 0.0)
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))


def load_profile_csv(path: str) -> MassProfile:
    """Read a profile from CSV with header exactly ``r,M``.

    Errors carry 1-based line numbers of the offending row.
    """
    import csv

    try:
        path = os.fspath(path)
    except TypeError:
        raise ProfileError(f"profile path must be a str or path-like object, got {path!r}") from None
    rs: list[float] = []
    ms: list[float] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ProfileError(f"{path}: empty file") from None
        if [h.strip() for h in header] != ["r", "M"]:
            raise ProfileError(f"{path}: line 1: header must be exactly 'r,M'")
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise ProfileError(f"{path}: line {line_no}: expected 2 columns, got {len(row)}")
            try:
                rs.append(float(row[0]))
                ms.append(float(row[1]))
            except ValueError:
                raise ProfileError(f"{path}: line {line_no}: non-numeric value") from None
    try:
        return MassProfile.from_table(rs, ms)
    except ProfileError as exc:
        raise ProfileError(f"{path}: {exc}") from None


class JunctionConfig(_Value):
    """FLRW dust cap joined to a vacuum exterior at radial coordinate chi0."""

    __slots__ = ("chi0", "scale_factor")

    def __init__(self, chi0: float, scale_factor: float = 1.0):
        inside = positive = False
        try:
            inside = 0.0 < chi0 < math.pi  # False for NaN
            positive = 0.0 < scale_factor < math.inf
        except NOT_A_NUMBER:  # the first argument that is no real number fails its check
            pass
        if not inside:
            raise DomainError(f"chi0 must lie in (0, pi), got {chi0!r}")
        if not positive:
            raise DomainError(f"scale factor must be positive, got {scale_factor!r}")
        _set(self, "chi0", chi0)
        _set(self, "scale_factor", scale_factor)


class MassRatioResult(_Value):
    """Proper-to-dynamic mass ratio M_p/M, at least 1."""

    __slots__ = ("ratio",)

    def __init__(self, ratio: float):
        try:
            bound = ratio >= 1.0  # False for NaN
        except NOT_A_NUMBER:
            bound = False
        if not bound:
            raise DomainError(f"M_p/M must be >= 1, got {ratio!r}")
        _set(self, "ratio", ratio)


def _ratio_of(chi0: float) -> float:
    if chi0 < SERIES_SWITCH:
        x2 = chi0 * chi0
        return 1.0 + x2 * (3.0 / 10.0 + x2 * (17.0 / 280.0 + x2 * (29.0 / 2800.0)))
    s = math.sin(chi0)
    return 3.0 * (2.0 * chi0 - math.sin(2.0 * chi0)) / (4.0 * s**3)


def flrw_mass_ratio(cfg: JunctionConfig) -> MassRatioResult:
    """M_p/M for a uniform dust cap of coordinate radius chi0.

    Evaluates 3 (2 chi0 - sin 2 chi0) / (4 sin^3 chi0), switching to its
    series below chi0 = SERIES_SWITCH. The ratio grows from 1 (flat limit) and
    diverges as chi0 approaches pi.
    """
    return MassRatioResult(_ratio_of(cfg.chi0))


def _cubic(c: np.ndarray, u: np.ndarray) -> np.ndarray:
    return ((c[0] * u + c[1]) * u + c[2]) * u + c[3]


def _check_no_horizon(x: np.ndarray, c: np.ndarray, k: float) -> None:
    """Raise DomainError where 1 - k M(r)/r <= 0, M the cubic spline (x, c)."""
    import numpy as np

    if k * c[2, 0] >= 1.0:  # k M(r)/r tends to k M'(0) at r = 0
        raise DomainError(_HORIZON.format(0.0))
    # r - k M(r) is a cubic in u = r - x_i on piece i, so its minimum is at
    # a knot or at a real root of its derivative 1 - k M'(r)
    a, b, q = 3.0 * k * c[0], 2.0 * k * c[1], k * c[2] - 1.0
    with np.errstate(all="ignore"):  # an overflowing root is dropped, an overflowing k M(r) is a horizon
        s = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * q), b))
        u = np.concatenate([np.diff(x), s / a, q / s])
        piece = np.tile(np.arange(len(x) - 1), 3)
        keep = (u > 0.0) & (u <= np.diff(x)[piece])  # nan for complex roots fails both
        piece, u = piece[keep], u[keep]
        bad = x[piece] + u - k * _cubic(c[:, piece], u) <= 0.0
    if bad.any():
        raise DomainError(_HORIZON.format(float((x[piece] + u)[bad].min())))


def proper_mass_integral(profile: MassProfile, units: UnitsConfig = UnitsConfig()) -> float:
    """Proper mass M_p, the integral of dM / sqrt(1 - 2GM(r)/(c^2 r)) over [0, R].

    A uniform ball of compactness C = 2GM/(c^2 R) has the closed form
    M * ratio(arcsin sqrt(C)), the dust-cap ratio of `flrw_mass_ratio`. A
    table is integrated over the knot segments of its cubic interpolant,
    bisecting the segments whose error estimate exceeds QUAD_REL_TOL of
    their value for at most QUAD_MAX_ROUNDS rounds and QUAD_MAX_SEGMENTS
    live segments, or ConvergenceError is raised. A horizon inside the
    matter raises DomainError naming its radius; so does a proper mass
    too large for a float, with the mass.
    """
    k = 2.0 * units.G / units.c**2
    if profile.spline is None:
        compactness = k * profile.mass / profile.radius
        if compactness >= 1.0:
            raise DomainError(_HORIZON.format(profile.radius))
        proper = profile.mass * _ratio_of(math.asin(math.sqrt(compactness)))
    else:
        proper = _integrate_table(*profile.spline, k)
    if not math.isfinite(proper):
        raise DomainError(f"proper mass of a profile of mass {profile.mass!r} overflows a float")
    return proper


def _integrate_table(x: np.ndarray, c: np.ndarray, k: float) -> float:
    import numpy as np

    _check_no_horizon(x, c, k)
    # segments [start, start + width] in the local coordinate u = r - x_i of
    # their piece i, which keeps u exact on thin pieces far from r = 0
    piece, start, width = np.arange(len(x) - 1), np.zeros(len(x) - 1), np.diff(x)
    value = spent = 0.0  # sums over the accepted segments

    def rule(nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
        u = start[:, None] + 0.5 * width[:, None] * (nodes + 1.0)
        cp = c[:, piece, None]
        dm = (3.0 * cp[0] * u + 2.0 * cp[1]) * u + cp[2]
        return 0.5 * width * ((dm / np.sqrt(1.0 - k * _cubic(cp, u) / (x[piece, None] + u))) @ weights)

    # Gauss-Legendre rules: 10 points give a segment's value and 5 its error estimate
    with np.errstate(all="ignore"):  # a value that is not finite is never done: no warning
        for _ in range(QUAD_MAX_ROUNDS):
            high = rule(*_gauss_legendre(10))
            err = np.abs(high - rule(*_gauss_legendre(5)))
            total = value + float(high.sum())
            if spent + float(err.sum()) <= QUAD_REL_TOL * total:
                return total
            done = err <= QUAD_REL_TOL * np.abs(high)
            value, spent = value + float(high[done].sum()), spent + float(err[done].sum())
            piece, start, width = piece[~done], start[~done], 0.5 * width[~done]
            piece, start, width = np.tile(piece, 2), np.concatenate([start, start + width]), np.tile(width, 2)
            if len(piece) > len(x) - 1 + QUAD_MAX_SEGMENTS:  # segments never done double each round
                break
    raise ConvergenceError(
        f"quadrature error {spent + float(err.sum())!r} exceeds {QUAD_REL_TOL} relative", best=total
    )


def flrw_metric_components(
    chi: Angle, theta: Angle, a: float, units: UnitsConfig = UnitsConfig()
) -> tuple[float, float, float, float]:
    """Diagonal metric components (g_tt, g_chichi, g_thetatheta, g_phiphi)
    of a closed constant-curvature space of scale factor a:
    (-c^2, a^2, a^2 sin^2 chi, a^2 sin^2 chi sin^2 theta)."""
    try:
        positive = math.isfinite(a) and a > 0
    except NOT_A_NUMBER:
        positive = False
    if not positive:
        raise DomainError(f"scale factor must be positive, got {a!r}")
    try:
        a2 = a**2
    except OverflowError:
        raise DomainError(f"scale factor {a!r} is too large: its square overflows a float") from None
    if a2 < sys.float_info.min:
        raise DomainError(f"scale factor {a!r} is too small: its square underflows a normal float")
    s_chi = math.sin(chi.radians)
    s_theta = math.sin(theta.radians)
    return (
        -units.c**2,
        a2,
        a2 * s_chi**2,
        a2 * s_chi**2 * s_theta**2,
    )

