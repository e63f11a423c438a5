import contextlib
import copy
import math
import os
import pickle
import subprocess
import sys
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st
from scipy import integrate
from scipy.interpolate import PchipInterpolator

from spinframes import (
    Angle,
    ConvergenceError,
    DomainError,
    JunctionConfig,
    MassProfile,
    ProfileError,
    UnitsConfig,
    flrw_mass_ratio,
    flrw_metric_components,
    load_profile_csv,
    proper_mass_integral,
)
from spinframes import grmass
from spinframes.grmass import _NODES, _WEIGHTS, QUAD_MAX_ROUNDS, QUAD_REL_TOL

GEOM = UnitsConfig.geometrized()

# pieces of profile text: numbers and their letters, separators, quotes,
# line ends, NUL, a byte-order mark, and now and then a field longer than
# csv's limit of 131072 characters
CSV_PIECES = st.one_of(
    st.text(alphabet="0123456789.eE+-", max_size=8),
    st.sampled_from([",", '"', "\r", "\n", "\r\n", "\x00", "\ufeff", "nan", "inf", "-inf", "0,0\n",
                     "0.5,0.25\n", "1,1\n", "1" * 131_073]),
)


def uniform_sphere_ratio_oracle(compactness: float) -> float:
    """Closed-form M_p/M of a constant-density ball, from the arcsin
    antiderivative of the binding integrand."""
    x = compactness
    return 3.0 * math.asin(math.sqrt(x)) / (2.0 * x**1.5) - 3.0 * math.sqrt(1.0 - x) / (2.0 * x)


def dust_cap_volume_ratio(cfg: JunctionConfig) -> float:
    """M_p/M for the dust cap by direct volume quadrature: the volume
    element a^3 sin^2(chi) sin(theta) integrated over the cap chi in
    [0, chi0], over the flat-space volume of a ball with the same areal
    radius a sin(chi0)."""
    a = cfg.scale_factor

    def element(theta: float, chi: float) -> float:
        return a**3 * math.sin(chi) ** 2 * math.sin(theta)

    volume, abserr = integrate.dblquad(
        element, 0.0, cfg.chi0, 0.0, math.pi, epsabs=0.0, epsrel=1e-11
    )
    assert abserr <= 1e-9 * volume
    flat = (4.0 / 3.0) * math.pi * (a * math.sin(cfg.chi0)) ** 3
    return 2.0 * math.pi * volume / flat


def dust_cap_series_ratio(chi0: float) -> float:
    """3 (2x - sin 2x) / (4 sin^3 x), with 2x - sin 2x summed term by term
    to convergence, so no cancellation enters."""
    y, total, k = 2.0 * chi0, 0.0, 1
    while True:
        term = (-1) ** (k + 1) * y ** (2 * k + 1) / math.factorial(2 * k + 1)
        total += term
        if abs(term) <= 1e-20 * abs(total):
            return 3.0 * total / (4.0 * math.sin(chi0) ** 3)
        k += 1


def table_quadrature_oracle(profile: MassProfile, units: UnitsConfig) -> float:
    """The proper mass of a table in plain Python: numpy's Gauss-Legendre
    rules, the same node order and per-term order, each rule's terms summed
    left to right, the same bisection, and each round's sums by math.fsum.
    The spline is taken as given and not checked for a horizon."""
    x, c = (a.tolist() for a in profile.spline)
    k = 2.0 * units.G / (units.c * units.c)  # as the library computes it; c**2 calls pow
    rules = [list(zip(*np.polynomial.legendre.leggauss(n))) for n in (10, 5)]
    segments = [(i, 0.0, x[i + 1] - x[i]) for i in range(len(x) - 1)]
    value = spent = 0.0
    for _ in range(QUAD_MAX_ROUNDS):
        highs, errs = [], []
        for i, start, width in segments:
            c0, c1, c2, c3 = (row[i] for row in c)
            sums = []
            for rule in rules:
                weighted = 0.0
                for node, weight in rule:
                    u = start + 0.5 * width * (float(node) + 1.0)
                    dm = (3.0 * c0 * u + 2.0 * c1) * u + c2
                    mass = ((c0 * u + c1) * u + c2) * u + c3
                    weighted += dm / math.sqrt(1.0 - k * mass / (x[i] + u)) * float(weight)
                sums.append(0.5 * width * weighted)
            highs.append(sums[0])
            errs.append(abs(sums[0] - sums[1]))
        total = value + math.fsum(highs)
        if spent + math.fsum(errs) <= QUAD_REL_TOL * total:
            return max(total, profile.mass)
        done = [e <= QUAD_REL_TOL * abs(h) for h, e in zip(highs, errs)]
        value += math.fsum(h for h, d in zip(highs, done) if d)
        spent += math.fsum(e for e, d in zip(errs, done) if d)
        kept = [(i, start, 0.5 * width) for (i, start, width), d in zip(segments, done) if not d]
        segments = kept + [(i, start + width, width) for i, start, width in kept]
    raise AssertionError("the oracle did not converge")


def step_profile(jump: float) -> MassProfile:
    """All the mass in a step of width 1e-7 at r = 1."""
    return MassProfile.from_table(np.array([0.0, 1.0, 1.0 + 1e-7, 2.0]), np.array([0.0, 0.0, jump, jump]))


# a table, the radii at which its copies are compared, and the G of their proper mass (c = 1)
ROUND_TRIP_TABLE = ([0.0, 0.5, 1.0, 2.0], [0.0, 0.125, 1.0, 1.0])
ROUND_TRIP_RADII = (0.0, 0.3, 1.25, 2.0)
ROUND_TRIP_G = 0.1


@contextlib.contextmanager
def _route(plain: bool):
    """Build and rebuild tables on the plain-float route if `plain`, else on numpy's."""
    with pytest.MonkeyPatch.context() as patch:
        if plain:
            patch.setattr(grmass, "_numpy_loaded", lambda: False)
        yield


def _profile_hexes(profile: MassProfile) -> list[str]:
    return [*(profile.mass_within(r).hex() for r in ROUND_TRIP_RADII),
            proper_mass_integral(profile, UnitsConfig(G=ROUND_TRIP_G, c=1.0)).hex()]


def _table_floats(profile: MassProfile) -> list[float]:
    """The mass, radius, knots and coefficients of a table: two floats, then floats or float64s."""
    x, c = profile.spline
    assert type(profile.mass) is type(profile.radius) is float
    values = [profile.mass, profile.radius, *x, *(v for row in c for v in row)]
    assert {type(v) for v in values} <= {float, np.float64}, values
    return values


# frozen reference values of the oracle itself
UNIFORM_RATIO = {
    0.1: 1.0317193839716809654,
    0.3: 1.1080625510569319933,
    0.5: 1.2108418600591321121,
    0.8: 1.4824055654900639031,
}


class TestUnits:
    def test_si_defaults(self):
        u = UnitsConfig()
        assert u.G == pytest.approx(6.6743e-11, rel=1e-4)
        assert u.c == 299792458.0

    def test_geometrized(self):
        assert (GEOM.G, GEOM.c) == (1.0, 1.0)

    def test_constants_must_be_positive(self):
        with pytest.raises(DomainError):
            UnitsConfig(G=0.0)
        with pytest.raises(DomainError):
            UnitsConfig(c=-1.0)

    @pytest.mark.parametrize("c", [1e-200, 1e200, 1e-160, math.inf, math.nan])
    def test_c_squared_must_be_a_normal_float(self, c):
        # 1e-200 squares to 0.0, 1e-160 to a subnormal and 1e200 overflows
        with pytest.raises(DomainError, match="c\\^2"):
            UnitsConfig(c=c)


class TestClosedFormRatio:
    def test_right_angle_junction(self):
        r = flrw_mass_ratio(JunctionConfig(math.pi / 2))
        assert abs(r.ratio - 3.0 * math.pi / 4.0) <= 1e-12

    def test_small_junction_matches_leading_taylor(self):
        r = flrw_mass_ratio(JunctionConfig(0.1))
        assert abs(r.ratio - (1.0 + 3.0 * 0.1**2 / 10.0)) <= 1e-5

    def test_series_agrees_with_direct_form_where_both_are_accurate(self):
        for x in (1e-3, 5e-3, 0.05):
            direct = 3.0 * (2.0 * x - math.sin(2.0 * x)) / (4.0 * math.sin(x) ** 3)
            series = 1.0 + x * x * (3.0 / 10.0 + x * x * (17.0 / 280.0 + x * x * 29.0 / 2800.0))
            assert abs(flrw_mass_ratio(JunctionConfig(x)).ratio - direct) <= 1e-10
            assert abs(series - direct) <= 1e-7

    def test_series_takes_over_below_switch(self):
        # the direct form wobbles at the 1e-8 level here; the series is smooth
        got = flrw_mass_ratio(JunctionConfig(0.99e-4)).ratio
        x = 0.99e-4
        assert got == 1.0 + x * x * (3.0 / 10.0 + x * x * (17.0 / 280.0 + x * x * 29.0 / 2800.0))

    def test_matches_series_oracle_across_switch(self):
        for x in np.geomspace(1e-4, 0.1, 2000):
            got = flrw_mass_ratio(JunctionConfig(float(x))).ratio
            want = dust_cap_series_ratio(float(x))
            assert got >= 1.0
            assert abs(got - want) <= 1e-12 * want

    def test_flat_limit_is_one(self):
        assert flrw_mass_ratio(JunctionConfig(1e-8)).ratio == pytest.approx(1.0, abs=1e-12)

    def test_strictly_increasing_on_grid(self):
        grid = np.linspace(0.01, 3.1, 1000)
        ratios = [flrw_mass_ratio(JunctionConfig(float(x))).ratio for x in grid]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_always_at_least_one(self):
        for x in (1e-6, 0.5, 1.0, 2.0, 3.0, 3.14):
            assert flrw_mass_ratio(JunctionConfig(x)).ratio >= 1.0

    def test_domain_errors(self):
        for bad in (0.0, -0.5, math.pi, 3.2, math.nan):
            with pytest.raises(DomainError):
                JunctionConfig(bad)


class TestProfiles:
    def test_uniform_cumulative_mass(self):
        p = MassProfile.uniform(8.0, 2.0)
        assert p.mass_within(0.0) == 0.0
        assert p.mass_within(1.0) == pytest.approx(1.0, abs=1e-15)
        assert p.mass_within(2.0) == 8.0

    def test_uniform_rejects_bad_parameters(self):
        with pytest.raises(ProfileError):
            MassProfile.uniform(0.0, 1.0)
        with pytest.raises(ProfileError):
            MassProfile.uniform(1.0, -1.0)

    def test_out_of_range_radius(self):
        p = MassProfile.uniform(1.0, 1.0)
        with pytest.raises(DomainError):
            p.mass_within(1.5)

    def test_table_interpolates_through_nodes(self):
        r = np.linspace(0.0, 1.0, 11)
        m = r**2  # quadratic growth, monotone
        p = MassProfile.from_table(r, m)
        for ri, mi in zip(r, m):
            assert p.mass_within(float(ri)) == pytest.approx(float(mi), abs=1e-14)
        assert p.kind == "table"

    def test_table_stays_monotone_between_nodes(self):
        r = np.array([0.0, 0.2, 0.5, 0.6, 1.0])
        m = np.array([0.0, 0.3, 0.31, 0.8, 1.0])
        p = MassProfile.from_table(r, m)
        xs = np.linspace(0.0, 1.0, 500)
        vals = [p.mass_within(float(x)) for x in xs]
        assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))

    def test_table_validation(self):
        with pytest.raises(ProfileError, match="at least two"):
            MassProfile.from_table(np.array([0.0]), np.array([0.0]))
        with pytest.raises(ProfileError, match="first radius"):
            MassProfile.from_table(np.array([0.5, 1.0]), np.array([0.0, 1.0]))
        with pytest.raises(ProfileError, match="mass at r = 0"):
            MassProfile.from_table(np.array([0.0, 1.0]), np.array([0.5, 1.0]))
        with pytest.raises(ProfileError, match="strictly increasing"):
            MassProfile.from_table(np.array([0.0, 0.5, 0.5]), np.array([0.0, 0.5, 1.0]))
        with pytest.raises(ProfileError, match="nondecreasing"):
            MassProfile.from_table(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.7, 0.6]))

    @pytest.mark.parametrize("r, m", [
        ([0.0, 1.0, 2.0], [0.0, 1.0]),
        ([[0.0, 1.0], [0.0, 2.0]], [[0.0, 1.0], [0.0, 1.0]]),
        (np.array([[0.0], [1.0]]), [0.0, 1.0]),
        ("0123", "0123"),
    ], ids=["unequal-lengths", "two-dimensional", "column-array", "string"])
    def test_table_must_be_one_dimensional_with_equal_lengths(self, r, m):
        with pytest.raises(ProfileError, match="one-dimensional and the same length"):
            MassProfile.from_table(r, m)

    @pytest.mark.parametrize("r, m", [
        (["0", "1"], ["0", "x"]),
        ([[0.0, 1.0], [2.0]], [0.0, 1.0]),
        # float() would read numpy's complex values as their real parts, after a ComplexWarning
        (np.array([0, 1 + 1j]), [0, 1]),
        ([0, np.complex128(1 + 1j)], [0, 1]),
        ([0.0, 1.0], np.array([0, 1], dtype=np.complex64)),
        (np.array([0.0, np.complex64(1)], dtype=object), [0.0, 1.0]),
    ])
    def test_table_must_hold_numbers(self, r, m):
        with pytest.raises(ProfileError, match="numbers"):
            MassProfile.from_table(r, m)

    @pytest.mark.parametrize("plain", [False, True], ids=["numpy", "plain"])
    def test_table_profile_round_trips_through_copy_and_pickle(self, plain):
        with pytest.MonkeyPatch.context() as patch:
            if plain:
                patch.setattr(grmass, "_numpy_loaded", lambda: False)
            profile = MassProfile.from_table([0.0, 0.5, 1.0, 2.0], [0.0, 0.125, 1.0, 1.0])
        assert isinstance(profile.spline[0], tuple) == plain
        units = UnitsConfig(G=0.1, c=1.0)
        want = proper_mass_integral(profile, units).hex()
        for copied in (copy.copy(profile), copy.deepcopy(profile), pickle.loads(pickle.dumps(profile))):
            assert not isinstance(copied.spline[0], tuple)  # rebuilt on the copying process's route: numpy
            assert [np.asarray(v).tolist() for v in copied.spline] == [np.asarray(v).tolist() for v in profile.spline]
            assert proper_mass_integral(copied, units).hex() == want

    @pytest.mark.parametrize("built_plain, copied_plain", [(False, False), (False, True), (True, False), (True, True)],
                             ids=["numpy-numpy", "numpy-plain", "plain-numpy", "plain-plain"])
    def test_table_copies_hold_the_same_floats_on_either_route(self, built_plain, copied_plain):
        with _route(built_plain):
            profile = MassProfile.from_table(*ROUND_TRIP_TABLE)
        with _route(copied_plain):
            copies = [copy.copy(profile), copy.deepcopy(profile), pickle.loads(pickle.dumps(profile))]
        want = _profile_hexes(profile)
        for copied in copies:
            assert isinstance(copied.spline[0], tuple) == copied_plain
            assert _table_floats(copied) == _table_floats(profile)
            assert _profile_hexes(copied) == want

    def test_table_pickles_load_across_the_two_routes(self):
        # a pickle holds the table, not its spline, so it loads where numpy is blocked, and back
        profile = MassProfile.from_table(*ROUND_TRIP_TABLE)
        data = pickle.dumps(profile)
        assert b"numpy" not in data
        code = (
            "import pickle, sys\n"
            "sys.modules['numpy'] = None\n"
            "from spinframes import MassProfile, UnitsConfig, proper_mass_integral\n"
            "def hexes(p):\n"
            f"    return [*(p.mass_within(r).hex() for r in {ROUND_TRIP_RADII!r}),\n"
            f"            proper_mass_integral(p, UnitsConfig(G={ROUND_TRIP_G!r}, c=1.0)).hex()]\n"
            "loaded = pickle.loads(sys.stdin.buffer.read())\n"
            "assert isinstance(loaded.spline[0], tuple), loaded.spline\n"
            f"built = MassProfile.from_table(*{ROUND_TRIP_TABLE!r})\n"
            "sys.stdout.buffer.write(pickle.dumps((hexes(loaded), pickle.dumps(built), hexes(built))))\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], input=data, capture_output=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr.decode()
        loaded_hexes, plain_data, plain_hexes = pickle.loads(proc.stdout)
        want = _profile_hexes(profile)
        assert loaded_hexes == want
        plain = pickle.loads(plain_data)
        assert not isinstance(plain.spline[0], tuple)
        assert _profile_hexes(plain) == plain_hexes == want

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("r,M\n0,0\n0.5,0.125\n1.0,1.0\n")
        p = load_profile_csv(str(path))
        assert p.mass == 1.0
        assert p.radius == 1.0

    def test_table_whose_cubic_overflows(self):
        # finite values whose edge slope (2 h0 + h1) m0, then whose secant, overflows
        with pytest.raises(ProfileError, match="overflows"):
            MassProfile.from_table(np.array([0.0, 5e299, 1e300]), np.array([0.0, 1.08e308, 1.79e308]))
        with pytest.raises(ProfileError, match="overflows"):
            MassProfile.from_table(np.array([0.0, 1e-300]), np.array([0.0, 1e10]))

    def test_csv_header_must_match(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("radius,mass\n0,0\n1,1\n")
        with pytest.raises(ProfileError, match="line 1"):
            load_profile_csv(str(path))

    def test_csv_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("r,M\n0,0\n0.5,oops\n1,1\n")
        with pytest.raises(ProfileError, match="line 3"):
            load_profile_csv(str(path))
        path.write_text("r,M\n0,0\n0.5\n")
        with pytest.raises(ProfileError, match="line 3"):
            load_profile_csv(str(path))

    @pytest.mark.parametrize("text, line", [
        ('r,M\n"0\n",0\n1,x\n', 4),
        ('r,M\n"0\n",0\n1\n', 4),
        ('r,M\n0,"0\n\n"\n\n1,1,1\n', 6),
    ])
    def test_csv_errors_count_physical_lines(self, tmp_path, text, line):
        # a quoted field may hold line ends; the error names the line its row ends on
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ProfileError, match=f": line {line}: "):
            load_profile_csv(str(path))

    def test_csv_path_may_be_path_like(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("r,M\n0,0\n1.0,2.0\n")
        assert load_profile_csv(path).mass == 2.0

    # an int would be opened as a file descriptor, and closed after reading;
    # 2**20 is one that no test process has open
    @pytest.mark.parametrize("path", [2**20, None, 1.5, ["profile.csv"]], ids=repr)
    def test_csv_path_must_be_a_path(self, path):
        with pytest.raises(ProfileError, match="path"):
            load_profile_csv(path)

    def test_csv_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ProfileError, match="empty"):
            load_profile_csv(str(path))

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(head=st.sampled_from(["", "r,M\n", "\ufeffr,M\r\n0,0\r\n"]), pieces=st.lists(CSV_PIECES, max_size=16))
    def test_csv_of_any_text_gives_a_profile_or_a_typed_error(self, tmp_path, head, pieces):
        path = tmp_path / "fuzz.csv"
        path.write_bytes((head + "".join(pieces)).encode())
        try:
            profile = load_profile_csv(path)
        except (ProfileError, UnicodeDecodeError, OSError):
            return
        assert isinstance(profile, MassProfile)


# (r, M) tables for the special cases of the PCHIP slopes
PCHIP_TABLES = {
    "two rows": ([0.0, 1.0], [0.0, 0.3]),
    "thin step": ([0.0, 1.0, 1.0 + 1e-7, 2.0], [0.0, 0.0, 0.4, 0.4]),
    "flat runs": ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 0.0, 0.2, 0.2, 0.2, 0.7]),
    # the one-sided estimate is negative at r = 0 and at r = R, so PCHIP sets it to 0
    "negative edge estimates": ([0.0, 1.0, 1.1, 2.0], [0.0, 0.01, 1.0, 1.2]),
}


# with G = c = 1, the summed error estimate of this table rises for one
# round before it converges: 9.2e-5, 1.7e-4, 9.1e-7, 1.9e-9
STALLING_TABLE = ([0.0, 12.0, 31.0], [0.0, 4.7, 7.05])
# the tables of test_cli.py's test_binding_quadrature_that_never_converges,
# with the error their ConvergenceError prints and the rounds they take: a
# NaN error stops at once, an error that two rounds in a row did not lower
# stops after the third round
NEVER_CONVERGING = [
    ([0.0, 5e-324], [0.0, 5e-324], UnitsConfig(), "nan", 1),
    ([0.0, 1.7976931348623157e308], [0.0, 1e-10], GEOM, "4.440892098500626e-16", 3),
]


def random_monotone_tables(rng, count: int):
    for _ in range(count):
        rows = int(rng.integers(3, 40))
        r = np.concatenate([[0.0], np.cumsum(rng.exponential(size=rows - 1))]) * 10.0 ** rng.uniform(-3, 3)
        steps = rng.exponential(size=rows - 1) * (rng.uniform(size=rows - 1) < 0.7)
        steps[-1] += 0.1  # a positive total mass
        yield r, np.concatenate([[0.0], np.cumsum(steps)]) * 10.0 ** rng.uniform(-3, 3)


class TestPchip:
    """The in-house cubic against scipy's PchipInterpolator, its reference."""

    def check_table(self, r, m):
        r, m = np.asarray(r), np.asarray(m)
        profile = MassProfile.from_table(r, m)
        want = PchipInterpolator(r, m, extrapolate=False)
        knots, coefficients = profile.spline
        assert np.array_equal(knots, want.x)
        np.testing.assert_array_max_ulp(coefficients, want.c, maxulp=4)
        grid = np.concatenate([r, np.linspace(0.0, r[-1], 101)])
        for x in grid:
            # scipy sums c[3] + c[2] u + ... where the profile uses Horner's rule,
            # so both round within a few ulp of the largest term
            i = min(int(np.searchsorted(r, x, "right")) - 1, len(r) - 2)
            scale = float(np.abs(want.c[:, i]) @ np.abs(x - r[i]) ** np.arange(3, -1, -1))
            assert abs(profile.mass_within(x) - float(want(x))) <= 8 * math.ulp(scale)

    @pytest.mark.parametrize("name", sorted(PCHIP_TABLES))
    def test_named_tables(self, name):
        self.check_table(*PCHIP_TABLES[name])

    def test_random_monotone_tables(self, rng):
        for r, m in random_monotone_tables(rng, 200):
            self.check_table(r, m)


class TestBindingQuadrature:
    def test_matches_arcsin_oracle(self):
        for x, frozen in UNIFORM_RATIO.items():
            assert uniform_sphere_ratio_oracle(x) == pytest.approx(frozen, abs=1e-12)
            profile = MassProfile.uniform(1.0, 2.0 / x)  # geometrized: R = 2M/x
            got = proper_mass_integral(profile, GEOM)
            assert abs(got - frozen) / frozen <= 1e-9

    def test_proper_mass_exceeds_dynamic_mass(self, rng):
        for _ in range(10):
            steps = rng.uniform(0.0, 1.0, size=9)
            m = np.concatenate([[0.0], np.cumsum(steps)])
            m /= m[-1]
            r = np.linspace(0.0, 1.0, 10)
            profile = MassProfile.from_table(r, m)
            units = UnitsConfig(G=0.05, c=1.0)
            assert proper_mass_integral(profile, units) > profile.mass

    @settings(max_examples=300, deadline=None)
    @given(
        steps=st.lists(st.tuples(st.floats(1e-3, 1e3), st.just(0.0) | st.floats(1e-3, 1e3)), min_size=1, max_size=40),
        r_scale=st.floats(-3.0, 3.0),
        geometrized=st.booleans(),
        size=st.floats(1e-6, 1.0),
    )
    def test_table_proper_mass_is_at_least_dynamic_mass(self, steps, r_scale, geometrized, size):
        r = np.cumsum([0.0] + [dr for dr, _ in steps]) * 10.0**r_scale
        m = np.cumsum([0.0] + [dm for _, dm in steps])
        assume(m[-1] > 0.0)
        if geometrized:  # compactness 2M/R up to 0.9
            units, m = GEOM, m * (0.45 * size * r[-1] / m[-1])
        else:  # 1e-3 to 1e35 kg: the binding energy is far below one ulp of M
            units, m = UnitsConfig(), m * 10.0 ** (38.0 * size - 3.0) / m[-1]
        profile = MassProfile.from_table(r, m)
        try:
            proper = proper_mass_integral(profile, units)
        except (DomainError, ConvergenceError):  # a horizon inside the matter, or a stalled quadrature
            return
        assert proper >= profile.mass

    def test_weak_gravity_limit_recovers_dynamic_mass(self):
        profile = MassProfile.uniform(1.0, 1.0)
        weak = UnitsConfig(G=1e-30, c=1.0)
        assert abs(proper_mass_integral(profile, weak) - 1.0) <= 1e-10

    def test_horizon_inside_matter_rejected(self):
        profile = MassProfile.uniform(1.0, 1.5)  # compactness 4/3 in geometrized units
        with pytest.raises(DomainError, match="r = "):
            proper_mass_integral(profile, GEOM)

    def test_thin_step(self):
        # M_p = integral of dm / sqrt(1 - 2m) over [0, j] = 1 - sqrt(1 - 2j)
        want = 1.0 - math.sqrt(0.2)
        assert abs(proper_mass_integral(step_profile(0.4), GEOM) - want) <= 1e-5 * want

    def test_horizon_at_knot_rejected(self):
        # 2M/r = 1.00000002 at the knot r = 1 + 1e-7
        with pytest.raises(DomainError, match="r = "):
            proper_mass_integral(step_profile(0.5 + 6e-8), GEOM)

    def test_horizon_inside_segment_rejected(self):
        # 2M/r is at most 0.932 at the knots but reaches 1.08 near r = 1.19
        profile = MassProfile.from_table(np.array([0.0, 1.0, 1.0 + 1e-7, 1.5]), np.array([0.0, 0.0, 0.466, 0.699]))
        with pytest.raises(DomainError, match=r"r = 1\.\d"):
            proper_mass_integral(profile, GEOM)

    def test_horizon_at_centre_rejected(self):
        # the interpolant starts with slope M'(0) = 0.73, so 2M/r -> 1.46 at r = 0
        profile = MassProfile.from_table(np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.49, 0.5]))
        with pytest.raises(DomainError, match="r = 0.0"):
            proper_mass_integral(profile, GEOM)

    def test_horizon_whose_products_overflow_is_rejected_without_a_warning(self):
        # k = 2e300, so k M'(0) = 2e310 overflows a float
        profile = MassProfile.from_table(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1e10, 2e10]))
        with pytest.raises(DomainError, match="r = 0.0"):
            proper_mass_integral(profile, UnitsConfig(G=1e300, c=1.0))

    def test_proper_mass_overflow_rejected(self):
        mass = 1.7976931348623157e308
        units = UnitsConfig()
        profile = MassProfile.uniform(mass, 2.0 * units.G * mass / (units.c**2 * 1e-9))
        with pytest.raises(DomainError, match="overflows"):
            proper_mass_integral(profile, units)
        # a table whose segment values are finite but whose sum is not
        mass, radius = 1.5e308, 1e10
        r = np.linspace(0.0, radius, 20)
        table = MassProfile.from_table(r, mass * (r / radius) ** 3)
        with pytest.raises(DomainError, match="overflows"):
            proper_mass_integral(table, UnitsConfig(G=0.25 * radius / mass, c=1.0))

    @pytest.mark.parametrize("plain", [False, True], ids=["numpy", "plain"])
    @pytest.mark.parametrize("r, m, units, error, stop", NEVER_CONVERGING, ids=["nan", "stalled"])
    def test_a_table_that_never_converges_stops_within_three_rounds(self, monkeypatch, r, m, units, error, stop, plain):
        rounds = []

        def counted(make):
            def make_counted(*args):
                evaluate = make(*args)
                return lambda segments: rounds.append(segments) or evaluate(segments)
            return make_counted

        for name in ("_numpy_evaluator", "_float_evaluator"):
            monkeypatch.setattr(grmass, name, counted(getattr(grmass, name)))
        message = f"quadrature error {error} exceeds {QUAD_REL_TOL} relative"
        assert table_outcome(r, m, units, plain) == ("ConvergenceError", message)
        assert len(rounds) == stop

    def test_ball_tables_match_arcsin_form(self):
        x = 0.1
        radius = 2.0 / x
        for rows in (20, 50, 200, 1000):
            r = np.linspace(0.0, radius, rows)
            profile = MassProfile.from_table(r, (r / radius) ** 3)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = proper_mass_integral(profile, GEOM)
            assert abs(got - UNIFORM_RATIO[x]) / UNIFORM_RATIO[x] <= 1e-6


class TestQuadratureOracle:
    """The numerical route behind the rule constants, kept as an oracle."""

    def test_rules_equal_numpy_gauss_legendre(self):
        for points, nodes, weights in ((10, _NODES[:10], _WEIGHTS[:10]), (5, _NODES[10:], _WEIGHTS[10:])):
            want_nodes, want_weights = np.polynomial.legendre.leggauss(points)
            assert [v.hex() for v in nodes] == [float(v).hex() for v in want_nodes]
            assert [v.hex() for v in weights] == [float(v).hex() for v in want_weights]

    def test_plain_python_quadrature_gives_the_same_bits(self, rng):
        tables = [step_profile(0.4), step_profile(0.49)]
        tables += [MassProfile.from_table(*PCHIP_TABLES[name]) for name in sorted(PCHIP_TABLES)]
        tables += [MassProfile.from_table(r, m) for r, m in random_monotone_tables(rng, 60)]
        checked = 0
        for profile in tables:
            for units in (UnitsConfig(), UnitsConfig(G=rng.uniform(0.01, 0.3) * profile.radius / profile.mass, c=1.0)):
                try:
                    got = proper_mass_integral(profile, units)
                except DomainError:  # a horizon inside the matter
                    continue
                assert got.hex() == table_quadrature_oracle(profile, units).hex()
                checked += 1
        assert checked >= 100
        stalling = MassProfile.from_table(*STALLING_TABLE)
        assert proper_mass_integral(stalling, GEOM).hex() == table_quadrature_oracle(stalling, GEOM).hex()


def table_outcome(r, m, units: UnitsConfig, plain: bool):
    """What a table gives on one route: its proper mass and M(r) at a few
    radii as hex, or the type and message of the error it raises."""
    with pytest.MonkeyPatch.context() as patch:
        if plain:
            patch.setattr(grmass, "_numpy_loaded", lambda: False)
        try:
            profile = MassProfile.from_table(r, m)
            assert isinstance(profile.spline[0], tuple) == plain
            within = [profile.mass_within(profile.radius * f).hex() for f in (0.0, 0.3, 0.77, 1.0)]
            return proper_mass_integral(profile, units).hex(), within
        except (ProfileError, DomainError, ConvergenceError) as exc:
            return type(exc).__name__, str(exc)


# tables whose cubic overflows, tables with a horizon at the centre, at a knot
# or inside a segment, or whose horizon products overflow, each error of
# from_table, and a table whose error estimate rises before it converges; the
# never-converging tables of test_cli.py run the plain route against the
# messages the numpy route gave
EDGE_TABLES = [
    STALLING_TABLE,
    ([0.0], [0.0]),
    ([0.5, 1.0], [0.0, 1.0]),
    ([0.0, 5e299, 1e300], [0.0, 1.08e308, 1.79e308]),
    ([0.0, 1e-300], [0.0, 1e10]),
    ([0.0, 1.0, 2.0], [0.0, 0.49, 0.5]),
    ([0.0, 1.0, 1.0 + 1e-7, 2.0], [0.0, 0.0, 0.5 + 6e-8, 0.5 + 6e-8]),
    ([0.0, 1.0, 1.0 + 1e-7, 1.5], [0.0, 0.0, 0.466, 0.699]),
    ([0.0, 1.0, 2.0], [0.0, 1e10, 2e10]),
    ([0.0, 0.5, 0.5], [0.0, 0.5, 1.0]),
    ([0.0, 0.5, 1.0], [0.0, 0.7, 0.6]),
    ([0.0, 1.0], [0.5, 1.0]),
    ([0.0, 1.0], [0.0, 0.0]),
    ([0.0, 1.0, 2.0], [0.0, 1.0]),
    ([0.0, math.inf], [0.0, 1.0]),
    ([0, 10**400], [0, 1]),
    (np.linspace(0.0, 1e10, 20).tolist(), (1.5e308 * np.linspace(0.0, 1.0, 20) ** 3).tolist()),
]


# values that no table may hold, or that float() reads only past the float range
WILD_VALUES = [10**400, -(10**400), Fraction(10**400), math.nan, math.inf, Decimal("NaN"), Decimal("sNaN"),
               Decimal("-Infinity"), "1e400", "x", "", None, 1j, np.complex128(1), np.complex64(1j), [0.0], (), b"1"]
# the number types a column may hold, each giving a finite float exactly
NUMBER_TYPES = [float, Fraction, Decimal, repr, lambda v: int(v) if v.is_integer() else v,
                lambda v: bool(v) if v in (0.0, 1.0) else v, np.float64, np.float32]


@st.composite
def _wild_column(draw, values):
    """A column of `values` as one of the shapes a caller may pass; a
    quarter of them hold one value of the wrong kind, a fifth are no column."""
    values = [draw(st.sampled_from(NUMBER_TYPES))(v) for v in values]
    if values and draw(st.integers(0, 3)) == 3:
        values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(WILD_VALUES))
    shape = draw(st.sampled_from(["list", "tuple", "array", "object array"] * 3 + ["nested", "2-D", "string"]))
    if shape == "list":
        return values
    if shape == "tuple":
        return tuple(values)
    if shape == "nested":
        return [values, values]
    if shape == "string":
        return "".join(map(str, values))
    array = np.array(values, dtype=object)
    if shape == "object array":
        return array
    if shape == "2-D":
        return array.reshape(1, -1)
    try:
        return array.astype(float)
    except (TypeError, ValueError, OverflowError, np.exceptions.ComplexWarning):  # the suite makes warnings errors
        return array


@st.composite
def _wild_tables(draw):
    """(r, M) columns of any type and shape, mostly of a valid table; in a
    quarter of them M is one row short."""
    steps = draw(st.lists(st.tuples(st.floats(1e-3, 1e3), st.just(0.0) | st.floats(1e-3, 1e3)), max_size=6))
    r = np.cumsum([0.0] + [dr for dr, _ in steps]).tolist()
    m = np.cumsum([0.0] + [0.01 * dm / len(steps) for _, dm in steps]).tolist()  # no horizon with G = c = 1
    if draw(st.integers(0, 3)) == 3:
        m = m[:-1]
    return draw(_wild_column(r)), draw(_wild_column(m))


WILD_TABLES = _wild_tables()
# every message of from_table
PROFILE_ERRORS = (
    "r and M must be sequences of numbers, one-dimensional and the same length",
    "profile table needs at least two rows",
    "profile table contains non-finite values",
    "first radius must be 0",
    "mass at r = 0 must be 0",
    "radii must be strictly increasing",
    "mass must be nondecreasing",
    "the cubic through the table overflows a float",
    "total mass must be positive",
)


def _peak_ratio(x: np.ndarray, c: np.ndarray) -> float:
    """The largest M(r)/r for r > 0 of a spline of arrays: on each piece, the
    best point of a grid zoomed in four times around its best point."""
    best = 0.0
    for i in range(len(x) - 1):
        lo, hi = 0.0, x[i + 1] - x[i]
        for _ in range(4):
            u = np.linspace(lo, hi, 1001)
            u = u[u > 0.0]
            with np.errstate(all="ignore"):  # an overflowing M(r) is inf, the largest ratio there is
                ratio = grmass._cubic(c[:, i], u) / (x[i] + u)
            j = int(np.argmax(ratio))
            best = max(best, float(ratio[j]))
            lo, hi = u[max(j - 1, 0)], u[min(j + 1, len(u) - 1)]
    return best


@st.composite
def _horizon_edge_tables(draw):
    """(r, M, units) whose largest k M(r)/r lies within 1e-9 of 1, at a knot
    or inside a piece. The mass rises as in a uniform ball, or jumps, up to
    the end of a piece thinner than 1e-6 of its radius; flat or rising rows
    may follow. Radii run from 1e-290 to 1e300 and masses from subnormal
    to 1e300, so G runs from about 1e-300 to 1e300."""
    r = np.cumsum([0.0, *draw(st.lists(st.floats(0.1, 1.0), min_size=1, max_size=5))])
    r = np.append(r, r[-1] * (1.0 + 10.0 ** draw(st.floats(-12.0, -6.05))))
    m = (r / r[-1]) ** 3 if draw(st.booleans()) else (r == r[-1]).astype(float)
    for dr, dm in draw(st.lists(st.tuples(st.floats(0.05, 1.0), st.just(0.0) | st.floats(1e-3, 0.5)), max_size=2)):
        r, m = np.append(r, r[-1] + dr), np.append(m, m[-1] + dm)
    a = draw(st.floats(-290.0, 300.0))
    b = draw(st.floats(max(-322.0, a - 300.0), min(300.0, a + 300.0)))
    r, m = (r * 10.0**a).tolist(), (m * 10.0**b).tolist()
    try:
        peak = _peak_ratio(*MassProfile.from_table(r, m).spline)
    except ProfileError:  # a cubic that overflows, or a total mass that underflows to 0
        peak = 0.0
    G = (1.0 + draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.0, 1e-9))) / (2.0 * peak) if peak else 1.0
    return r, m, UnitsConfig(G=G, c=1.0) if 0.0 < G < math.inf else GEOM


class TestPlainFloatRoute:
    """A process without numpy builds and integrates tables in plain floats,
    with the numpy route's bits and errors."""

    @pytest.mark.parametrize("table", [*sorted(PCHIP_TABLES.values()), *EDGE_TABLES], ids=repr)
    @pytest.mark.parametrize("units", [
        GEOM, UnitsConfig(G=1e300, c=1.0), UnitsConfig(), UnitsConfig(G=0.25e10 / 1.5e308, c=1.0),
    ], ids=["geometrized", "huge-G", "SI", "overflowing-mass"])
    def test_named_tables(self, table, units):
        r, m = table
        assert table_outcome(r, m, units, plain=True) == table_outcome(r, m, units, plain=False)

    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(st.tuples(st.floats(1e-3, 1e3), st.just(0.0) | st.floats(1e-3, 1e3)), min_size=1, max_size=40),
        r_scale=st.floats(-3.0, 3.0),
        compactness=st.just(0.0) | st.floats(1e-3, 1.5),
    )
    def test_random_tables(self, steps, r_scale, compactness):
        # 2GM/R = compactness, horizons included, or SI units
        r = (np.cumsum([0.0] + [dr for dr, _ in steps]) * 10.0**r_scale).tolist()
        m = np.cumsum([0.0] + [dm for _, dm in steps]).tolist()
        units = UnitsConfig(G=0.5 * compactness * r[-1] / m[-1], c=1.0) if m[-1] and compactness else UnitsConfig()
        assert table_outcome(r, m, units, plain=True) == table_outcome(r, m, units, plain=False)

    @settings(max_examples=200, deadline=None)
    @given(table=_horizon_edge_tables())
    def test_tables_at_the_edge_of_a_horizon_end_alike_on_both_routes(self, table):
        # numpy clears a piece for the horizon search only where the search
        # could not flag it; three rounds suffice, as the search runs first
        r, m, units = table
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(grmass, "QUAD_MAX_ROUNDS", 3)
            assert table_outcome(r, m, units, plain=True) == table_outcome(r, m, units, plain=False)

    def test_columns_of_any_number_type_build_without_numpy(self):
        # bools, Fractions, Decimals and numeric strings give the spline of the floats they stand for
        code = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from decimal import Decimal\n"
            "from fractions import Fraction\n"
            "from spinframes import MassProfile\n"
            "r, m = [0.0, 0.5, 1.0, 2.0], [0.0, 0.125, 1.0, 1.0]\n"
            "want = MassProfile.from_table(r, m).spline\n"
            "assert isinstance(want[0], tuple), want\n"
            "for kind in (Fraction, Decimal, repr):\n"
            "    assert MassProfile.from_table([*map(kind, r)], [*map(kind, m)]).spline == want, kind\n"
            "mixed = MassProfile.from_table([0, Fraction(1, 2), Decimal(1), '2'], [False, 0.125, True, '1']).spline\n"
            "assert mixed == want, mixed\n"
            "two_rows = MassProfile.from_table([0.0, 1.0], [0.0, 1.0]).spline\n"
            "assert MassProfile.from_table([0.0, True], [0, True]).spline == two_rows\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr.decode()

    @settings(max_examples=200, deadline=None)
    @given(table=WILD_TABLES)
    def test_columns_of_any_type_and_shape_end_alike_on_both_routes(self, table):
        r, m = table
        plain = table_outcome(r, m, GEOM, plain=True)
        assert plain == table_outcome(r, m, GEOM, plain=False)
        assert plain[0] != "ProfileError" or plain[1].startswith(PROFILE_ERRORS), plain


class TestMetric:
    def test_equatorial_unit_sphere(self):
        g = flrw_metric_components(Angle(math.pi / 2), Angle(math.pi / 2), 1.0, GEOM)
        assert g == pytest.approx((-1.0, 1.0, 1.0, 1.0), abs=1e-15)

    def test_si_time_component(self):
        g = flrw_metric_components(Angle(0.5), Angle(0.5), 1.0)
        assert g[0] == -(299792458.0**2)

    def test_origin_collapses_angular_parts(self):
        g = flrw_metric_components(Angle(0.0), Angle(1.0), 2.0, GEOM)
        assert g[2] == 0.0 and g[3] == 0.0
        assert g[1] == 4.0

    def test_scale_factor_must_be_positive(self):
        with pytest.raises(DomainError):
            flrw_metric_components(Angle(0.5), Angle(0.5), 0.0, GEOM)

    def test_scale_factor_whose_square_overflows(self):
        with pytest.raises(DomainError, match="overflows"):
            flrw_metric_components(Angle(0.5), Angle(0.5), 1e200, GEOM)
        g = flrw_metric_components(Angle(math.pi / 2), Angle(math.pi / 2), 1e154, GEOM)
        assert g[1] == g[2] == g[3] == pytest.approx(1e308, rel=1e-15)

    def test_int_scale_factor_gives_floats_or_the_overflow_error(self):
        g = flrw_metric_components(Angle(0.5), Angle(0.5), 2, GEOM)
        assert g == flrw_metric_components(Angle(0.5), Angle(0.5), 2.0, GEOM)
        assert all(type(v) is float for v in g)
        for a in (10**200, 10**400, Decimal("1e400")):
            with pytest.raises(DomainError, match="too large"):
                flrw_metric_components(Angle(0.5), Angle(0.5), a, GEOM)
        for a in (Decimal("NaN"), Decimal("sNaN")):
            with pytest.raises(DomainError, match="must be positive"):
                flrw_metric_components(Angle(0.5), Angle(0.5), a, GEOM)

    def test_scale_factor_whose_square_underflows(self):
        ten = Angle.from_degrees(10.0)
        with pytest.raises(DomainError, match="underflows"):
            flrw_metric_components(ten, ten, 1e-200)
        with pytest.raises(DomainError, match="underflows"):
            flrw_metric_components(ten, ten, 1e-160, GEOM)
        g = flrw_metric_components(Angle(math.pi / 2), Angle(math.pi / 2), 1.5e-154, GEOM)
        assert g[1] == g[2] == g[3] == pytest.approx(2.25e-308, rel=1e-15)

    def test_volume_quadrature_reproduces_closed_form(self):
        for chi0 in (0.3, 0.7, 1.2, 2.0):
            cfg = JunctionConfig(chi0, scale_factor=1.7)
            direct = flrw_mass_ratio(cfg).ratio
            assert abs(dust_cap_volume_ratio(cfg) - direct) / direct <= 1e-9
