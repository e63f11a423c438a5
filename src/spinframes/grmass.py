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

import bisect
import math
import operator
import os
import sys
from typing import TYPE_CHECKING

from .errors import ConvergenceError, DomainError, ProfileError
from .spin import NOT_A_NUMBER, Angle, _numpy_loaded, _real, _set, _sqrt, _Value

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "JunctionConfig",
    "MassProfile",
    "MassRatioResult",
    "UnitsConfig",
    "flrw_mass_ratio",
    "flrw_metric_components",
    "load_profile_csv",
    "proper_mass_integral",
]

# chi0 below this evaluates the ratio by its x^6 series, which is exact to
# rounding there; the direct form loses digits to cancellation in 2x - sin 2x.
SERIES_SWITCH = 0.02

QUAD_REL_TOL = 1e-10
QUAD_MAX_ROUNDS = 50
QUAD_MAX_SEGMENTS = 2**16  # live segments beyond the table's pieces: bounds the memory of a round
_HORIZON = "horizon inside the matter: 1 - 2GM(r)/(c^2 r) <= 0 at r = {!r}"


# (node, weight) pairs of the Gauss-Legendre rules on [-1, 1]: the 10-point
# rule, which gives a segment's value, then the 5-point rule, which gives its
# error estimate. Each equals numpy.polynomial.legendre's rule bit for bit.
_NODES, _WEIGHTS = zip(*((float.fromhex(x), float.fromhex(w)) for x, w in (
    ("-0x1.f2a3e062af2d8p-1", "0x1.1115f8b62dc1fp-4"),
    ("-0x1.bae995e9cb2f3p-1", "0x1.32138c878efdep-3"),
    ("-0x1.5bdb9228de198p-1", "0x1.c0b059d00bc30p-3"),
    ("-0x1.bbcc009016adcp-2", "0x1.13baa7a559c01p-2"),
    ("-0x1.30e507891e27ap-3", "0x1.2e9de7014d6eep-2"),
    ("0x1.30e507891e27ap-3", "0x1.2e9de7014d6eep-2"),
    ("0x1.bbcc009016adcp-2", "0x1.13baa7a559c01p-2"),
    ("0x1.5bdb9228de198p-1", "0x1.c0b059d00bc30p-3"),
    ("0x1.bae995e9cb2f3p-1", "0x1.32138c878efdep-3"),
    ("0x1.f2a3e062af2d8p-1", "0x1.1115f8b62dc1fp-4"),
    ("-0x1.cff6ce0533a69p-1", "0x1.e539ec36e0393p-3"),
    ("-0x1.13b23fd99b705p-1", "0x1.ea1da25ae4158p-2"),
    ("0x0.0p+0", "0x1.23456789abcddp-1"),
    ("0x1.13b23fd99b705p-1", "0x1.ea1da25ae4158p-2"),
    ("0x1.cff6ce0533a69p-1", "0x1.e539ec36e0393p-3"),
)))


class UnitsConfig(_Value):
    """Physical constants used by the quadrature."""

    __slots__ = ("G", "c")

    def __init__(self, G: float = 6.67430e-11, c: float = 299792458.0):
        g, speed = _real(G), _real(c)
        if not 0.0 < g < math.inf:  # False for NaN
            raise DomainError(f"G must be positive, got {G!r}")
        # k = 2G/c^2 and g_tt = -c^2 need c^2 to be a positive normal float
        if not (speed > 0 and sys.float_info.min <= speed * speed < math.inf):
            raise DomainError(f"c must be positive with c^2 in the normal float range, got {c!r}")
        _set(self, "G", g)
        _set(self, "c", speed)

    @classmethod
    def geometrized(cls) -> "UnitsConfig":
        return cls(G=1.0, c=1.0)


class MassProfile(_Value):
    """Cumulative mass M(r) of a spherical body on [0, R].

    M(r) is nondecreasing with M(0) = 0 and M(R) = the total dynamic mass.
    Only `from_table` builds a `spline`: the knots x and the coefficients c
    of the cubic ((c[0] u + c[1]) u + c[2]) u + c[3] in u = r - x[i] on
    piece i, as numpy arrays (c of shape (4, pieces)) if it ran with numpy
    loaded, or else as tuples (c as four rows). Both give the same numbers
    and errors, bit for bit: one search in plain floats finds every
    horizon, and numpy only screens the pieces for it. A copy or an
    unpickled table is rebuilt through `from_table` from its table, the
    knots and the knot masses c[3] + (mass,), so its spline's form follows
    the route of the process that rebuilds it. A uniform ball has no
    spline. Equality is identity.
    """

    __slots__ = ("mass", "radius", "spline")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, mass: float, radius: float):
        m, r = _real(mass), _real(radius)
        if not 0.0 < m < math.inf:  # False for NaN
            raise ProfileError(f"total mass must be positive, got {mass!r}")
        if not 0.0 < r < math.inf:
            raise ProfileError(f"radius must be positive, got {radius!r}")
        _set(self, "mass", m)
        _set(self, "radius", r)
        _set(self, "spline", None)

    def __reduce__(self):
        if self.spline is None:
            return type(self), (self.mass, self.radius)
        x, masses = self.spline[0], self.spline[1][3]
        if type(x) is not tuple:  # numpy arrays
            x, masses = x.tolist(), masses.tolist()
        return type(self).from_table, (x, [*masses, self.mass])

    def mass_within(self, r: float) -> float:
        value = _real(r)
        if not 0.0 <= value <= self.radius * (1 + 1e-12):  # False for NaN
            raise DomainError(f"r must be a number in the profile's [0, {self.radius}], got {r!r}")
        value = min(value, self.radius)
        if self.spline is None:
            return self.mass * (value / self.radius) ** 3
        x, c = self.spline
        i = min(bisect.bisect_right(x, value) - 1, len(x) - 2)
        return float(_cubic([row[i] for row in c], value - x[i]))

    @property
    def kind(self) -> str:
        """How the profile was built: "uniform" or "table"."""
        return "uniform" if self.spline is None else "table"

    @classmethod
    def uniform(cls, mass: float, radius: float) -> "MassProfile":
        """Constant-density ball: M(r) = M (r/R)^3."""
        return cls(mass, radius)

    @classmethod
    def from_table(cls, r, m) -> "MassProfile":
        """Tabulated (r, M(r)) pairs joined by a monotone cubic.

        Needs r strictly increasing from 0, M nondecreasing from 0, and
        a positive final mass. A column is a one-dimensional sequence, such
        as a list or a numpy array, of real values that float() reads.
        """
        if any(isinstance(v, (str, bytes)) or getattr(v, "ndim", 1) != 1 for v in (r, m)):
            raise ProfileError(_NOT_A_COLUMN)
        np = sys.modules.get("numpy")
        try:
            r, m = (v.tolist() if np and isinstance(v, np.ndarray) else list(v) for v in (r, m))
            if np and any(issubclass(t, np.complexfloating) for t in {*map(type, r), *map(type, m)}):
                raise TypeError  # float() reads a numpy complex as its real part, after a ComplexWarning
            r, m = list(map(float, r)), list(map(float, m))
        except OverflowError:  # an int or Fraction beyond the float range
            raise ProfileError(_NON_FINITE) from None
        except NOT_A_NUMBER:
            raise ProfileError(_NOT_A_COLUMN) from None
        if len(r) != len(m):
            raise ProfileError(_NOT_A_COLUMN)
        if len(r) < 2:
            raise ProfileError("profile table needs at least two rows")
        if not (all(map(math.isfinite, r)) and all(map(math.isfinite, m))):
            raise ProfileError(_NON_FINITE)
        if r[0] != 0.0:
            raise ProfileError(f"first radius must be 0, got {r[0]!r}")
        if m[0] != 0.0:
            raise ProfileError(f"mass at r = 0 must be 0, got {m[0]!r}")
        if not all(map(operator.lt, r, r[1:])):
            i = next(i for i in range(1, len(r)) if not r[i - 1] < r[i])
            raise ProfileError(f"radii must be strictly increasing (row {i + 1})")
        if not all(map(operator.le, m, m[1:])):
            i = next(i for i in range(1, len(m)) if not m[i - 1] <= m[i])
            raise ProfileError(f"mass must be nondecreasing (row {i + 1})")
        profile = cls(m[-1], r[-1])
        _set(profile, "spline", (_pchip_coefficients if _numpy_loaded() else _pchip_floats)(r, m))
        return profile


_NOT_A_COLUMN = "r and M must be sequences of numbers, one-dimensional and the same length"
_NON_FINITE = "profile table contains non-finite values"
_OVERFLOWING_CUBIC = "the cubic through the table overflows a float"


def _div(a: float, b: float) -> float:
    """a / b as IEEE arithmetic gives it, where Python raises for b == 0."""
    if b:
        return a / b
    return math.copysign(math.inf, a) * math.copysign(1.0, b) if a and a == a else math.nan


def _pchip_coefficients(r: list[float], masses: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """The knots and coefficients, as arrays, of the monotone cubic through a checked
    table (Fritsch & Butland, SIAM J. Sci. Stat. Comput. 5, 300 (1984)), with the
    slopes of scipy's PchipInterpolator in its order of operations: inside,
    the weighted harmonic mean of the two secants, 0 next to a flat one; at
    each end, the one-sided three-point estimate, 0 where not positive.
    As no secant is negative, that is all of scipy's sign rule.
    """
    import numpy as np

    x, y = np.array(r), np.array(masses)
    with np.errstate(all="ignore"):  # a coefficient that is not finite is caught just below
        h = np.diff(x)
        m = np.diff(y) / h
        d = np.zeros_like(y)
        if len(x) == 2:
            d[:] = m[0]
        else:
            w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
            inner = (m[1:] != 0) & (m[:-1] != 0)
            d[1:-1][inner] = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))[inner]
            for end, h0, h1, m0, m1 in ((0, h[0], h[1], m[0], m[1]), (-1, h[-1], h[-2], m[-1], m[-2])):
                d[end] = max(((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1), 0.0)
        t = (d[:-1] + d[1:] - 2 * m) / h
        c = np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))
    if not np.isfinite(c).all():
        raise ProfileError(_OVERFLOWING_CUBIC)
    return x, c


def _pchip_floats(x: list[float], y: list[float]) -> tuple[tuple[float, ...], tuple[tuple[float, ...], ...]]:
    """`_pchip_coefficients` in plain floats, element by element in the same order, as tuples."""
    h = [b - a for a, b in zip(x, x[1:])]  # positive: x strictly increases
    m = [(b - a) / w for a, b, w in zip(y, y[1:], h)]
    if len(x) == 2:
        d = [m[0], m[0]]
    else:
        d = [0.0] * len(x)
        for i in range(1, len(x) - 1):
            if m[i] != 0 and m[i - 1] != 0:
                w1, w2 = 2 * h[i] + h[i - 1], h[i] + 2 * h[i - 1]
                d[i] = _div(1.0, (w1 / m[i - 1] + w2 / m[i]) / (w1 + w2))
        for end, h0, h1, m0, m1 in ((0, h[0], h[1], m[0], m[1]), (-1, h[-1], h[-2], m[-1], m[-2])):
            d[end] = max(((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1), 0.0)
    t = [(d[i] + d[i + 1] - 2 * m[i]) / h[i] for i in range(len(h))]
    c = (
        tuple(t[i] / h[i] for i in range(len(h))),
        tuple((m[i] - d[i]) / h[i] - t[i] for i in range(len(h))),
        tuple(d[:-1]),
        tuple(y[:-1]),
    )
    if not all(math.isfinite(v) for row in c for v in row):
        raise ProfileError(_OVERFLOWING_CUBIC)
    return tuple(x), c


def load_profile_csv(path: str) -> MassProfile:
    """Read a profile from CSV with header exactly ``r,M``.

    The file is UTF-8 and may start with a byte-order mark, as spreadsheet
    exports do. Errors carry the 1-based number of the physical line on which
    the offending row ends, which a quoted field may carry over line ends.
    """
    import csv

    try:
        path = os.fspath(path)
    except TypeError:
        raise ProfileError(f"profile path must be a str or path-like object, got {path!r}") from None
    rs: list[float] = []
    ms: list[float] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ProfileError(f"{path}: empty file")
            if [h.strip() for h in header] != ["r", "M"]:
                raise ProfileError(f"{path}: line {reader.line_num}: header must be exactly 'r,M'")
            for row in reader:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != 2:
                    raise ProfileError(f"{path}: line {reader.line_num}: expected 2 columns, got {len(row)}")
                try:
                    rs.append(float(row[0]))
                    ms.append(float(row[1]))
                except ValueError:
                    raise ProfileError(f"{path}: line {reader.line_num}: non-numeric value") from None
        except csv.Error as exc:  # such as a field longer than csv's limit of 131072 characters
            raise ProfileError(f"{path}: line {reader.line_num}: {exc}") from None
    try:
        return MassProfile.from_table(rs, ms)
    except ProfileError as exc:
        raise ProfileError(f"{path}: {exc}") from None


class JunctionConfig(_Value):
    """FLRW dust cap joined to a vacuum exterior at radial coordinate chi0."""

    __slots__ = ("chi0", "scale_factor")

    def __init__(self, chi0: float, scale_factor: float = 1.0):
        angle, scale = _real(chi0), _real(scale_factor)
        if not 0.0 < angle < math.pi:  # False for NaN
            raise DomainError(f"chi0 must lie in (0, pi), got {chi0!r}")
        if not 0.0 < scale < math.inf:
            raise DomainError(f"scale factor must be positive, got {scale_factor!r}")
        _set(self, "chi0", angle)
        _set(self, "scale_factor", scale)


class MassRatioResult(_Value):
    """Proper-to-dynamic mass ratio M_p/M, at least 1."""

    __slots__ = ("ratio",)

    def __init__(self, ratio: float):
        value = _real(ratio)
        if not value >= 1.0:  # False for NaN
            raise DomainError(f"M_p/M must be >= 1, got {ratio!r}")
        _set(self, "ratio", value)


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


def _cubic(c, u):
    return ((c[0] * u + c[1]) * u + c[2]) * u + c[3]


def _check_no_horizon(pieces, k: float) -> None:
    """The horizon search of both routes, in plain floats with numpy's inf and nan results: raise
    DomainError at the least r where 1 - k M(r)/r <= 0 on the pieces (x_i, x_i+1, c0, c1, c2, c3)."""
    bad = []
    for xi, xj, c0, c1, c2, c3 in pieces:
        if xi == 0.0 and k * c2 >= 1.0:  # k M(r)/r tends to k M'(0) at r = 0
            raise DomainError(_HORIZON.format(0.0))
        # r - k M(r) is a cubic in u = r - x_i, least at a knot or at a real root of 1 - k M'(r)
        width = xj - xi
        a, b, q = 3.0 * k * c0, 2.0 * k * c1, k * c2 - 1.0
        s = -0.5 * (b + math.copysign(_sqrt(b * b - 4.0 * a * q), b))
        for u in (width, _div(s, a), _div(q, s)):
            if 0.0 < u <= width and xi + u - k * (((c0 * u + c1) * u + c2) * u + c3) <= 0.0:  # M by Horner's rule
                bad.append(xi + u)
    if bad:
        raise DomainError(_HORIZON.format(min(bad)))


def _ball_ratio(profile: MassProfile, units: UnitsConfig) -> float:
    """M_p/M of a uniform ball, ratio(arcsin sqrt(C)) with C = 2GM/(c^2 R): 1
    where C underflows to 0, and exact where M_p itself would be rounded to
    the grid of a subnormal M."""
    compactness = 2.0 * units.G / (units.c * units.c) * profile.mass / profile.radius
    if compactness >= 1.0:
        raise DomainError(_HORIZON.format(profile.radius))
    return _ratio_of(math.asin(math.sqrt(compactness)))


def proper_mass_integral(profile: MassProfile, units: UnitsConfig = UnitsConfig()) -> float:
    """Proper mass M_p, the integral of dM / sqrt(1 - 2GM(r)/(c^2 r)) over [0, R].

    A uniform ball of compactness C = 2GM/(c^2 R) has the closed form
    M * ratio(arcsin sqrt(C)), the dust-cap ratio of `flrw_mass_ratio`. A
    table is integrated over the knot segments of its cubic interpolant,
    bisecting the segments whose error estimate exceeds QUAD_REL_TOL of
    their value. ConvergenceError, with the last total as `best`, ends a
    quadrature whose summed error estimate is NaN, or did not fall in two
    rounds in a row, or outlasts QUAD_MAX_ROUNDS rounds or QUAD_MAX_SEGMENTS
    live segments. A horizon inside the matter raises DomainError naming its
    radius; so does a proper mass too large for a float, with the mass. A
    table's result is clamped to at least M: where the binding energy is
    below one ulp of M, as in SI units at everyday compactness, the
    quadrature rounds to either side of M.
    """
    if profile.spline is None:
        proper = profile.mass * _ball_ratio(profile, units)
    else:
        k = 2.0 * units.G / (units.c * units.c)
        proper = max(_integrate_table(*profile.spline, k), profile.mass)  # nan stays nan
    if not math.isfinite(proper):
        raise DomainError(f"proper mass of a profile of mass {profile.mass!r} overflows a float")
    return proper


def _integrate_table(x, c, k: float) -> float:
    """The adaptive loop of both routes. A segment (piece i, start, width) lies
    in u = r - x_i, which stays exact on thin pieces far from r = 0; round 1
    passes None, the whole pieces, so a table that converges at once builds no tuples."""
    evaluate = (_float_evaluator if isinstance(x, tuple) else _numpy_evaluator)(x, c, k)
    segments, previous, stalls = None, math.inf, 0
    value = spent = 0.0  # sums over the accepted segments
    try:
        for _ in range(QUAD_MAX_ROUNDS):
            high, err = evaluate(segments)
            total, error = value + math.fsum(high), spent + math.fsum(err)
            if error <= QUAD_REL_TOL * total:
                return total
            stalls, previous = 0 if error < previous else stalls + 1, error
            if error != error or stalls == 2:  # NaN, or two rounds in a row that did not lower the error
                break
            if segments is None:
                segments = [(i, 0.0, x[i + 1] - x[i]) for i in range(len(x) - 1)]
            done = [e <= QUAD_REL_TOL * abs(h) for h, e in zip(high, err)]
            value += math.fsum(h for h, ok in zip(high, done) if ok)
            spent += math.fsum(e for e, ok in zip(err, done) if ok)
            kept = [(i, start, 0.5 * width) for (i, start, width), ok in zip(segments, done) if not ok]
            segments = kept + [(i, start + width, width) for i, start, width in kept]
            if not kept or len(segments) > len(x) - 1 + QUAD_MAX_SEGMENTS:  # segments never done double each round
                break
        raise ConvergenceError(f"quadrature error {error!r} exceeds {QUAD_REL_TOL} relative", best=total)
    except OverflowError:  # fsum of finite segment values whose exact sum passes the largest float
        return math.inf


def _numpy_evaluator(x: np.ndarray, c: np.ndarray, k: float):
    """Each segment's 10-point value and its gap to the 5-point value, from all 15 nodes at once.
    `_check_no_horizon` finds every horizon; numpy only screens out pieces that cannot hold one."""
    import numpy as np

    # P = ((|c0| w + |c1|) w + |c2|) w + |c3| on a piece of width w takes Horner's steps in the search's
    # order, and rounding is monotone and odd, so |fl(M(u))| <= fl(P) for 0 < u <= w, subnormals and
    # overflow included; the search cannot flag a piece with x_i > k P.
    widths = np.diff(x)
    with np.errstate(all="ignore"):
        clear = x[:-1] > k * _cubic(np.abs(c), widths)  # False for nan: a nan clears nothing
    kept = np.flatnonzero(~clear)
    _check_no_horizon(zip(x[kept].tolist(), x[kept + 1].tolist(), *c[:, kept].tolist()), k)
    nodes, weights = np.array(_NODES)[:, None] + 1.0, np.array(_WEIGHTS)[:, None]  # row j for node j
    whole = np.arange(len(x) - 1), np.zeros(len(x) - 1), widths

    def evaluate(segments):
        piece, start, width = whole if segments is None else map(np.array, zip(*segments))
        with np.errstate(all="ignore"):  # a value that is not finite is never done: no warning
            u = start + 0.5 * width * nodes
            cp = c[:, piece]
            dm = (3.0 * cp[0] * u + 2.0 * cp[1]) * u + cp[2]
            terms = dm / np.sqrt(1.0 - k * _cubic(cp, u) / (x[piece] + u)) * weights
            high = 0.5 * width * sum(terms[:10])  # each rule sums its terms left to right
            return high.tolist(), np.abs(high - 0.5 * width * sum(terms[10:])).tolist()

    return evaluate


def _float_evaluator(x: tuple[float, ...], c: tuple[tuple[float, ...], ...], k: float):
    """The numpy evaluator in plain floats: the same terms in the same order,
    each rule summed left to right, and numpy's inf and nan results."""
    _check_no_horizon(zip(x, x[1:], *c), k)
    pieces = list(zip(*c))
    rules = [[(node + 1.0, weight) for node, weight in zip(_NODES[a:b], _WEIGHTS[a:b])] for a, b in ((0, 10), (10, 15))]
    whole = [(i, 0.0, x[i + 1] - x[i]) for i in range(len(x) - 1)]
    sqrt = math.sqrt

    def evaluate(segments):
        high, err = [], []
        for i, start, width in whole if segments is None else segments:
            c0, c1, c2, c3 = pieces[i]
            xi, half = x[i], 0.5 * width
            sums = []
            for rule in rules:  # the 10-point rule, then the 5-point one
                acc = 0.0
                for node, weight in rule:
                    u = start + half * node
                    dm = (3.0 * c0 * u + 2.0 * c1) * u + c2
                    mass = ((c0 * u + c1) * u + c2) * u + c3
                    try:
                        acc += dm / sqrt(1.0 - k * mass / (xi + u)) * weight
                    except (ZeroDivisionError, ValueError):
                        acc += _div(dm, _sqrt(1.0 - _div(k * mass, xi + u))) * weight
                sums.append(half * acc)
            high.append(sums[0])
            err.append(abs(sums[0] - sums[1]))
        return high, err

    return evaluate


def flrw_metric_components(
    chi: Angle, theta: Angle, a: float, units: UnitsConfig = UnitsConfig()
) -> tuple[float, float, float, float]:
    """Diagonal metric components (g_tt, g_chichi, g_thetatheta, g_phiphi)
    of a closed constant-curvature space of scale factor a:
    (-c^2, a^2, a^2 sin^2 chi, a^2 sin^2 chi sin^2 theta)."""
    try:
        positive = 0 < a < math.inf  # False for NaN; exact for an int beyond the float range
    except NOT_A_NUMBER:
        positive = False
    if not positive:
        raise DomainError(f"scale factor must be positive, got {a!r}")
    try:
        scale = float(a)  # an int would give int components, or overflow in the products
    except OverflowError:  # an int beyond the float range
        scale = math.inf
    a2 = scale * scale
    if a2 == math.inf:
        raise DomainError(f"scale factor {a!r} is too large: its square overflows a float")
    if a2 < sys.float_info.min:
        raise DomainError(f"scale factor {a!r} is too small: its square underflows a normal float")
    s_chi = math.sin(chi.radians)
    s_theta = math.sin(theta.radians)
    return (
        -(units.c * units.c),
        a2,
        a2 * (s_chi * s_chi),
        a2 * (s_chi * s_chi) * (s_theta * s_theta),
    )

