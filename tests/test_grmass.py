import math
import warnings

import numpy as np
import pytest
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

GEOM = UnitsConfig.geometrized()


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


def step_profile(jump: float) -> MassProfile:
    """All the mass in a step of width 1e-7 at r = 1."""
    return MassProfile.from_table(np.array([0.0, 1.0, 1.0 + 1e-7, 2.0]), np.array([0.0, 0.0, jump, jump]))


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

    @pytest.mark.parametrize("r, m", [(["0", "1"], ["0", "x"]), ([[0.0, 1.0], [2.0]], [0.0, 1.0])])
    def test_table_must_hold_numbers(self, r, m):
        with pytest.raises(ProfileError, match="numbers"):
            MassProfile.from_table(r, m)

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


# (r, M) tables for the special cases of the PCHIP slopes
PCHIP_TABLES = {
    "two rows": ([0.0, 1.0], [0.0, 0.3]),
    "thin step": ([0.0, 1.0, 1.0 + 1e-7, 2.0], [0.0, 0.0, 0.4, 0.4]),
    "flat runs": ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 0.0, 0.2, 0.2, 0.2, 0.7]),
    # the one-sided estimate is negative at r = 0 and at r = R, so PCHIP sets it to 0
    "negative edge estimates": ([0.0, 1.0, 1.1, 2.0], [0.0, 0.01, 1.0, 1.2]),
}


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

    def test_proper_mass_overflow_rejected(self):
        mass = 1.7976931348623157e308
        units = UnitsConfig()
        profile = MassProfile.uniform(mass, 2.0 * units.G * mass / (units.c**2 * 1e-9))
        with pytest.raises(DomainError, match="overflows"):
            proper_mass_integral(profile, units)

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
