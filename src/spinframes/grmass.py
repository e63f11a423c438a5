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

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate
from scipy.interpolate import PchipInterpolator

from .errors import ConvergenceError, DomainError, ProfileError
from .spin import Angle

# chi0 below this evaluates the ratio by series; the direct form loses
# roughly eight digits to cancellation there.
SERIES_SWITCH = 1e-4

QUAD_REL_TOL = 1e-10
HORIZON_SCAN_POINTS = 4096


@dataclass(frozen=True)
class UnitsConfig:
    """Physical constants used by the quadrature."""

    G: float = 6.67430e-11
    c: float = 299792458.0
    geometrized_flag: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.G) and self.G > 0):
            raise DomainError(f"G must be positive, got {self.G!r}")
        if not (math.isfinite(self.c) and self.c > 0):
            raise DomainError(f"c must be positive, got {self.c!r}")

    @classmethod
    def si(cls) -> "UnitsConfig":
        return cls()

    @classmethod
    def geometrized(cls) -> "UnitsConfig":
        return cls(G=1.0, c=1.0, geometrized_flag=True)


@dataclass(frozen=True)
class MassProfile:
    """Cumulative mass M(r) of a spherical body on [0, R].

    M(r) is nondecreasing with M(0) = 0 and M(R) = the total dynamic
    mass. `kind` records how the profile was built ("uniform" or
    "table").
    """

    mass: float
    radius: float
    kind: str
    _mass_of: Callable[[float], float]
    _dmass_of: Callable[[float], float]

    def __post_init__(self):
        if not (math.isfinite(self.mass) and self.mass > 0):
            raise ProfileError(f"total mass must be positive, got {self.mass!r}")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ProfileError(f"radius must be positive, got {self.radius!r}")

    def mass_within(self, r: float) -> float:
        if not 0.0 <= r <= self.radius * (1 + 1e-12):
            raise DomainError(f"r = {r!r} outside the profile's [0, {self.radius}]")
        return float(self._mass_of(min(r, self.radius)))

    def mass_gradient(self, r: float) -> float:
        """dM/dr at r."""
        if not 0.0 <= r <= self.radius * (1 + 1e-12):
            raise DomainError(f"r = {r!r} outside the profile's [0, {self.radius}]")
        return float(self._dmass_of(min(r, self.radius)))

    @classmethod
    def uniform(cls, mass: float, radius: float) -> "MassProfile":
        """Constant-density ball: M(r) = M (r/R)^3."""
        if not (math.isfinite(mass) and mass > 0):
            raise ProfileError(f"total mass must be positive, got {mass!r}")
        if not (math.isfinite(radius) and radius > 0):
            raise ProfileError(f"radius must be positive, got {radius!r}")
        return cls(
            mass,
            radius,
            "uniform",
            lambda r: mass * (r / radius) ** 3,
            lambda r: 3.0 * mass * r**2 / radius**3,
        )

    @classmethod
    def from_table(cls, r: np.ndarray, m: np.ndarray) -> "MassProfile":
        """Tabulated (r, M(r)) pairs joined by a monotone cubic.

        Needs r strictly increasing from 0, M nondecreasing from 0, and
        a positive final mass.
        """
        r = np.asarray(r, dtype=float)
        m = np.asarray(m, dtype=float)
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
        if not (np.diff(r) > 0).all():
            i = int(np.argmin(np.diff(r) > 0)) + 1
            raise ProfileError(f"radii must be strictly increasing (row {i + 1})")
        if not (np.diff(m) >= 0).all():
            i = int(np.argmin(np.diff(m) >= 0)) + 1
            raise ProfileError(f"mass must be nondecreasing (row {i + 1})")
        if m[-1] <= 0:
            raise ProfileError("total mass must be positive")
        # PCHIP preserves the table's monotonicity
        interp = PchipInterpolator(r, m, extrapolate=False)
        return cls(float(m[-1]), float(r[-1]), "table", interp, interp.derivative())


def load_profile_csv(path: str) -> MassProfile:
    """Read a profile from CSV with header exactly ``r,M``.

    Errors carry 1-based line numbers of the offending row.
    """
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
        return MassProfile.from_table(np.array(rs), np.array(ms))
    except ProfileError as exc:
        raise ProfileError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class JunctionConfig:
    """FLRW dust cap joined to a vacuum exterior at radial coordinate chi0."""

    chi0: float
    scale_factor: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.chi0) and 0.0 < self.chi0 < math.pi):
            raise DomainError(f"chi0 must lie in (0, pi), got {self.chi0!r}")
        if not (math.isfinite(self.scale_factor) and self.scale_factor > 0):
            raise DomainError(f"scale factor must be positive, got {self.scale_factor!r}")


@dataclass(frozen=True)
class MassRatioResult:
    """Proper-to-dynamic mass ratio with its inputs echoed."""

    ratio: float
    chi0: float
    scale_factor: float

    def __post_init__(self):
        if self.ratio < 1.0:
            raise DomainError(f"M_p/M must be >= 1, got {self.ratio!r}")


def _ratio_of(chi0: float) -> float:
    if chi0 < SERIES_SWITCH:
        x2 = chi0 * chi0
        return 1.0 + x2 * (3.0 / 10.0 + x2 * (17.0 / 280.0 + x2 * (29.0 / 2800.0)))
    s = math.sin(chi0)
    return 3.0 * (2.0 * chi0 - math.sin(2.0 * chi0)) / (4.0 * s**3)


def flrw_mass_ratio(cfg: JunctionConfig) -> MassRatioResult:
    """M_p/M for a uniform dust cap of coordinate radius chi0.

    Evaluates 3 (2 chi0 - sin 2 chi0) / (4 sin^3 chi0), switching to its
    series below chi0 = 1e-4. The ratio grows from 1 (flat limit) and
    diverges as chi0 approaches pi.
    """
    return MassRatioResult(_ratio_of(cfg.chi0), cfg.chi0, cfg.scale_factor)


def proper_mass_integral(profile: MassProfile, units: UnitsConfig = UnitsConfig()) -> float:
    """Proper mass M_p of a static profile by adaptive quadrature.

    Integrates (1 - 2 G M(r) / (c^2 r))^(-1/2) dM/dr over [0, R]. The
    metric factor must stay positive throughout (no horizon inside the
    matter); violations name the offending radius.
    """
    two_g_over_c2 = 2.0 * units.G / units.c**2

    def metric_factor(r: float) -> float:
        return 1.0 - two_g_over_c2 * profile.mass_within(r) / r

    scan = np.linspace(profile.radius / HORIZON_SCAN_POINTS, profile.radius, HORIZON_SCAN_POINTS)
    for r in scan:
        if metric_factor(float(r)) <= 0.0:
            raise DomainError(
                f"horizon inside the matter: 1 - 2GM(r)/(c^2 r) <= 0 at r = {float(r)!r}"
            )

    def integrand(r: float) -> float:
        if r == 0.0:
            return profile.mass_gradient(0.0)
        return profile.mass_gradient(r) / math.sqrt(metric_factor(r))

    value, abserr = integrate.quad(
        integrand, 0.0, profile.radius, epsabs=0.0, epsrel=1e-12, limit=200
    )
    if abserr > QUAD_REL_TOL * abs(value):
        raise ConvergenceError(
            f"quadrature error {abserr!r} exceeds {QUAD_REL_TOL} relative", best=value
        )
    return float(value)


def flrw_metric_components(
    chi: Angle, theta: Angle, a: float, units: UnitsConfig = UnitsConfig()
) -> tuple[float, float, float, float]:
    """Diagonal metric components (g_tt, g_chichi, g_thetatheta, g_phiphi)
    of a closed constant-curvature space of scale factor a:
    (-c^2, a^2, a^2 sin^2 chi, a^2 sin^2 chi sin^2 theta)."""
    if not (math.isfinite(a) and a > 0):
        raise DomainError(f"scale factor must be positive, got {a!r}")
    s_chi = math.sin(chi.radians)
    s_theta = math.sin(theta.radians)
    return (
        -units.c**2,
        a**2,
        a**2 * s_chi**2,
        a**2 * s_chi**2 * s_theta**2,
    )


def dust_cap_mass_ratio(cfg: JunctionConfig) -> float:
    """M_p/M for the dust cap by direct volume quadrature.

    Integrates the spatial volume element a^3 sin^2(chi) sin(theta) over
    the cap chi in [0, chi0] and divides by the flat-space volume of a
    ball with the same areal radius a sin(chi0). Cross-checks the closed
    form to about 1e-9 relative.
    """
    a = cfg.scale_factor

    def element(theta: float, chi: float) -> float:
        return a**3 * math.sin(chi) ** 2 * math.sin(theta)

    volume, abserr = integrate.dblquad(
        element, 0.0, cfg.chi0, 0.0, math.pi, epsabs=0.0, epsrel=1e-11
    )
    volume *= 2.0 * math.pi
    if abserr * 2.0 * math.pi > 1e-9 * volume:
        raise ConvergenceError(
            f"volume quadrature error {abserr!r} too large", best=volume
        )
    flat = (4.0 / 3.0) * math.pi * (a * math.sin(cfg.chi0)) ** 3
    return volume / flat
