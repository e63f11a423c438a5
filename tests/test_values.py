"""The value classes: the behaviour every one of them keeps (repr, equality,
hashing, immutability, keyword construction, copy and pickle), and the
contract of their numeric constructors and numeric functions: a result
holds its documented invariant, or the call raises a typed error."""
import copy
import math
import pickle
import struct
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spinframes import (
    SINGLET,
    X_AXIS,
    XY_PLANE,
    Y_AXIS,
    Z_AXIS,
    ZX_PLANE,
    Angle,
    BellState,
    CHSHSetting,
    ComplementaryTriad,
    ConvergenceError,
    DomainError,
    EmpiricalCHSH,
    EnsembleTable,
    FrameRotation,
    JointDistribution,
    JointSetting,
    JunctionConfig,
    MassProfile,
    MassRatioResult,
    OutcomeDistribution,
    ProfileError,
    QubitState,
    RunStats,
    SpinRotation,
    SymmetryPlane,
    UndefinedConditionalError,
    UnitsConfig,
    UnitVector3,
    flrw_mass_ratio,
    flrw_metric_components,
    proper_mass_integral,
)

NAN, INF = math.nan, math.inf
# Decimal NaNs raise decimal.InvalidOperation where they are compared
DEC_NAN, DEC_SNAN = Decimal("NaN"), Decimal("sNaN")
RUN = RunStats((6, 4))
RUN_REPR = "RunStats(counts=(6, 4))"
# a profile of each kind, both of mass 1 and radius 2
BALL = MassProfile.uniform(1.0, 2.0)
TABLE = MassProfile.from_table([0.0, 1.0, 2.0], [0.0, 0.5, 1.0])
XY_REPR = ("SymmetryPlane(name='xy', e1=UnitVector3(x=1.0, y=0.0, z=0.0), "
           "e2=UnitVector3(x=0.0, y=1.0, z=0.0))")

# (class, constructor keywords in field order, repr, equality) for one
# instance of each value class. Equality is "value" (by fields, with a hash
# of the fields), "identity", or "custom" (the class's own __eq__, no hash).
CASES = [
    (Angle, {"radians": 0.5}, "Angle(radians=0.5)", "value"),
    (UnitVector3, {"x": 0.0, "y": 0.6, "z": 0.8}, "UnitVector3(x=0.0, y=0.6, z=0.8)", "value"),
    (QubitState, {"amp_up": 0.6, "amp_down": 0.8j}, "QubitState(amp_up=(0.6+0j), amp_down=0.8j)", "custom"),
    (OutcomeDistribution, {"p_up": 0.25, "p_down": 0.75}, "OutcomeDistribution(p_up=0.25, p_down=0.75)", "value"),
    (SpinRotation, {"matrix": ((1, 0), (0, 1))}, "SpinRotation(matrix=(((1+0j), 0j), (0j, (1+0j))))", "identity"),
    (FrameRotation, {"matrix": ((1, 0, 0), (0, 1, 0), (0, 0, 1))},
     "FrameRotation(matrix=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))", "identity"),
    (ComplementaryTriad, {"first": X_AXIS, "second": Y_AXIS, "third": Z_AXIS},
     "ComplementaryTriad(first=UnitVector3(x=1.0, y=0.0, z=0.0), second=UnitVector3(x=0.0, y=1.0, z=0.0), "
     "third=UnitVector3(x=0.0, y=0.0, z=1.0))", "value"),
    (SymmetryPlane, {"name": "xy", "e1": X_AXIS, "e2": Y_AXIS}, XY_REPR, "value"),
    (BellState, {"label": "singlet", "psi": SINGLET.psi, "plane": ZX_PLANE},
     "BellState(label='singlet', psi=(0j, (0.7071067811865475+0j), (-0.7071067811865475+0j), 0j), "
     "plane=SymmetryPlane(name='zx', e1=UnitVector3(x=0.0, y=0.0, z=1.0), e2=UnitVector3(x=1.0, y=0.0, z=0.0)))",
     "custom"),
    (JointSetting, {"alice": X_AXIS, "bob": Z_AXIS},
     "JointSetting(alice=UnitVector3(x=1.0, y=0.0, z=0.0), bob=UnitVector3(x=0.0, y=0.0, z=1.0))", "value"),
    (JointDistribution, {"p_pp": 0.5, "p_pm": 0.0, "p_mp": 0.0, "p_mm": 0.5},
     "JointDistribution(p_pp=0.5, p_pm=0.0, p_mp=0.0, p_mm=0.5)", "value"),
    (CHSHSetting, {"alice": Angle(0.0), "alice_prime": Angle(1.0), "bob": Angle(0.5), "bob_prime": Angle(1.5),
                   "plane": XY_PLANE},
     "CHSHSetting(alice=Angle(radians=0.0), alice_prime=Angle(radians=1.0), bob=Angle(radians=0.5), "
     f"bob_prime=Angle(radians=1.5), plane={XY_REPR})", "value"),
    (EnsembleTable, {"bob_up_given_alice_up": 3, "bob_down_given_alice_up": 1},
     "EnsembleTable(bob_up_given_alice_up=3, bob_down_given_alice_up=1)", "value"),
    (UnitsConfig, {"G": 1.0, "c": 1.0}, "UnitsConfig(G=1.0, c=1.0)", "value"),
    (MassProfile, {"mass": 1.0, "radius": 2.0}, "MassProfile(mass=1.0, radius=2.0, spline=None)", "identity"),
    (JunctionConfig, {"chi0": 1.0, "scale_factor": 2.0}, "JunctionConfig(chi0=1.0, scale_factor=2.0)", "value"),
    (MassRatioResult, {"ratio": 1.5}, "MassRatioResult(ratio=1.5)", "value"),
    (RunStats, {"counts": (6, 4)}, RUN_REPR, "value"),
    (EmpiricalCHSH, {"terms": (RUN,) * 4}, f"EmpiricalCHSH(terms=({RUN_REPR}, {RUN_REPR}, {RUN_REPR}, {RUN_REPR}))",
     "value"),
]


@pytest.mark.parametrize("cls, kwargs, text, equality", CASES, ids=[c[0].__name__ for c in CASES])
class TestValueClass:
    def test_repr_and_construction(self, cls, kwargs, text, equality):
        assert repr(cls(**kwargs)) == text
        assert repr(cls(*kwargs.values())) == text

    def test_equality_and_hash(self, cls, kwargs, text, equality):
        a, b = cls(**kwargs), cls(**kwargs)
        assert a == a
        assert a.__eq__(object()) is NotImplemented
        if equality == "identity":
            assert a != b
            assert hash(a) == object.__hash__(a)
        else:
            assert a == b
            if equality == "value":
                assert hash(a) == hash(b)
            else:  # a custom __eq__
                with pytest.raises(TypeError):
                    hash(a)
        if equality == "custom":
            assert cls.__hash__ is None

    def test_fields_are_read_only(self, cls, kwargs, text, equality):
        obj = cls(**kwargs)
        for name in [*kwargs, "not_a_field"]:
            with pytest.raises(AttributeError):
                setattr(obj, name, getattr(obj, name, None))
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert repr(obj) == text

    def test_copy_and_pickle(self, cls, kwargs, text, equality):
        obj = cls(**kwargs)
        assert repr(copy.copy(obj)) == text
        assert repr(pickle.loads(pickle.dumps(obj))) == text
        assert repr(copy.deepcopy(obj)) == text


def test_unpickling_rechecks_the_fields():
    # the pickle of Angle(0.5) with its float swapped for NaN, which no Angle may hold
    data = pickle.dumps(Angle(0.5)).replace(struct.pack(">d", 0.5), struct.pack(">d", NAN))
    with pytest.raises(DomainError, match="finite"):
        pickle.loads(data)


def test_defaults():
    assert UnitsConfig() == UnitsConfig(6.67430e-11, 299792458.0)
    assert JunctionConfig(chi0=1.0).scale_factor == 1.0
    assert CHSHSetting(Angle(0.0), Angle(1.0), Angle(0.5), Angle(1.5)).plane is ZX_PLANE
    assert RunStats((6, 4)).conditional_means == {}
    assert MassProfile(1.0, 2.0).spline is None
    t = SINGLET.correlation_tensor
    assert all(abs(t[i][j] + (i == j)) <= 1e-12 for i in range(3) for j in range(3))


def test_custom_equality():
    assert QubitState(0.6, 0.8j) == QubitState(0.6j, -0.8)  # a global phase of i
    assert QubitState(0.6, 0.8j) != QubitState(0.8, 0.6j)
    assert SINGLET == BellState("other", tuple(-x for x in SINGLET.psi), XY_PLANE)


# --- constructor contract ------------------------------------------------------

def test_run_stats_accepts_outcome_averages():
    # Bob's average over the trials of each outcome Alice drew
    assert RunStats((2, 0, 0, 3)).conditional_means == {1: 1.0, -1: -1.0}
    assert RunStats((1, 3, 0, 0)).conditional_means == {1: -0.5}


# (call, typed error, a word of its message that names the failing argument)
RAW_ERROR_CALLS = [
    (lambda: JunctionConfig("1.0"), DomainError, "chi0"),
    (lambda: JunctionConfig(1.0, "2"), DomainError, "scale factor"),
    (lambda: MassProfile("1", 2.0), ProfileError, "total mass"),
    (lambda: MassProfile(1.0, None), ProfileError, "radius"),
    (lambda: Angle("x"), DomainError, "angle"),
    (lambda: Angle(1j), DomainError, "angle"),
    (lambda: UnitVector3("a", 0, 0), DomainError, "components"),
    (lambda: UnitsConfig(G="1"), DomainError, "G must"),
    (lambda: UnitsConfig(1.0, "1"), DomainError, "c must"),
    (lambda: OutcomeDistribution("a", "b"), DomainError, "p_up"),
    (lambda: JointDistribution(None, 0, 0, 1), DomainError, "p_pp"),
    (lambda: RunStats("x"), DomainError, "count"),
    (lambda: RunStats((1.5, 2)), DomainError, "count must be an integer"),
    (lambda: MassRatioResult("2"), DomainError, "M_p/M"),
    (lambda: MassRatioResult(NAN), DomainError, "M_p/M"),
    (lambda: QubitState("x", 0), DomainError, "amplitudes"),
    (lambda: QubitState(1e308, 0), DomainError, "amplitudes"),
    (lambda: BellState("x", (1e308, 0, 0, 1e308), ZX_PLANE), DomainError, "normalized"),
    (lambda: SpinRotation(((1e308, 0), (0, 1e308))), DomainError, "spin rotation"),
    (lambda: EmpiricalCHSH(()), DomainError, "four"),
    (lambda: EmpiricalCHSH(2.0), DomainError, "four"),
    (lambda: EmpiricalCHSH((RUN,) * 5), DomainError, "four"),
    (lambda: RunStats((1, 2, 3)), DomainError, "2 or 4"),
    (lambda: RunStats((-1, 2)), DomainError, ">= 0"),
    (lambda: RunStats((0, 0)), DomainError, "positive sum"),
    (lambda: EmpiricalCHSH((RUN,) * 3), DomainError, "four"),
    (lambda: EmpiricalCHSH((1, 2, 3, 4)), DomainError, "four"),
    (lambda: RunStats((0, 0, 0, 0)), DomainError, "positive sum"),
    (lambda: RunStats((True, 1)), DomainError, "count must be an integer"),
    (lambda: Angle.from_degrees("x"), DomainError, "angle"),
    (lambda: UnitVector3.normalized("a", 0, 0), DomainError, "components"),
    (lambda: flrw_metric_components(Angle(1.0), Angle(1.0), "2"), DomainError, "scale factor"),
    (lambda: SymmetryPlane("a", 1, 2), DomainError, "plane axes"),
    (lambda: ComplementaryTriad(1, 2, 3), DomainError, "triad axes"),
    (lambda: JointSetting(1, 2), DomainError, "setting directions"),
    (lambda: CHSHSetting(0.0, 1.0, 0.5, 1.5), DomainError, "setting angles"),
    (lambda: UnitsConfig(G=DEC_NAN), DomainError, "G must"),
    (lambda: UnitsConfig(c=DEC_SNAN), DomainError, "c must"),
    (lambda: MassProfile(DEC_NAN, 1.0), ProfileError, "total mass"),
    (lambda: JunctionConfig(DEC_NAN, 1.0), DomainError, "chi0"),
    (lambda: JunctionConfig(1.0, DEC_SNAN), DomainError, "scale factor"),
    (lambda: MassRatioResult(DEC_NAN), DomainError, "M_p/M"),
    (lambda: UnitVector3.normalized(DEC_SNAN, 1, 0), DomainError, "components"),
    (lambda: OutcomeDistribution(DEC_NAN, 0.5), DomainError, "p_up"),
    (lambda: JointDistribution(DEC_NAN, 0.25, 0.25, 0.25), DomainError, "p_pp"),
    *((lambda p=p, r=r: p.mass_within(r), DomainError, "r must be a number")
      for p in (BALL, TABLE) for r in ("a", None, 1 + 0j, DEC_NAN, DEC_SNAN)),
]


@pytest.mark.parametrize("call, error, message", RAW_ERROR_CALLS, ids=range(len(RAW_ERROR_CALLS)))
def test_bad_arguments_raise_typed_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("profile", [BALL, TABLE], ids=["uniform", "table"])
def test_mass_within_reads_an_exact_number_in_range_as_a_float(profile):
    for r in (Decimal("1.5"), Fraction(3, 2)):
        got = profile.mass_within(r)
        assert type(got) is float and got == profile.mass_within(1.5), (r, got)


TYPED_ERRORS = (DomainError, ProfileError, UndefinedConditionalError, ConvergenceError)

NUMPY_INTEGERS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)
# real numbers of other types than float: numpy scalars of every real kind, and finite Fractions and
# Decimals, some beyond the float range, where float() gives 0.0 or inf or raises OverflowError
OTHER_REALS = st.one_of(
    st.floats(width=16).map(np.float16),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.floats().map(np.longdouble),
    st.sampled_from(NUMPY_INTEGERS).flatmap(lambda t: st.integers(int(np.iinfo(t).min), int(np.iinfo(t).max)).map(t)),
    st.booleans().map(np.bool_),
    st.fractions(),
    st.decimals(allow_nan=False, allow_infinity=False),
    st.sampled_from([np.longdouble(1) / 3, np.longdouble("1e-4000"), np.longdouble("1e4000"), Fraction(1, 10**400),
                     Fraction(10**400), Decimal("1e-400"), Decimal("1e400")]),
)

# values no argument of a numeric constructor should let through untyped
WILD = st.one_of(
    st.sampled_from([NAN, INF, -INF, 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -1.0, 0.5, 2.0,
                     True, False, "x", "1", "", None, 1j, 1 + 1j, (), (1.0,), (1.0, 2.0), (0.5, 0.5, 0.5, 0.5),
                     DEC_NAN, DEC_SNAN]),
    st.floats(),
    st.integers(-3, 3),
    OTHER_REALS,
)


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= 1e-12


def _probabilities(ps) -> bool:
    return all(0.0 <= p <= 1.0 for p in ps) and _close(sum(ps), 1.0)


def _round_trips(value) -> bool:
    return copy.copy(value) == copy.deepcopy(value) == pickle.loads(pickle.dumps(value)) == value


def _run_stats(r: RunStats) -> bool:
    return (type(r.n) is int and r.n == sum(r.counts) >= 1 and -1.0 <= r.mean <= 1.0 and 0.0 <= r.stderr < INF
            and all(k in (1, -1) and -1.0 <= v <= 1.0 for k, v in r.conditional_means.items()) and _round_trips(r))


def _unit(v: UnitVector3) -> bool:
    return _close(math.fsum(c * c for c in (v.x, v.y, v.z)), 1.0)


def _metric(g) -> bool:
    return len(g) == 4 and all(math.isfinite(x) for x in g) and g[0] < 0.0 < g[1] and min(g[2:]) >= 0.0


def ball_mass_within(r):
    return BALL.mass_within(r)


def table_mass_within(r):
    return TABLE.mass_within(r)


# constructor or function -> (number of arguments, the invariant of its result)
INVARIANTS = {
    Angle: (1, lambda a: math.isfinite(a.radians)),
    Angle.from_degrees: (1, lambda a: math.isfinite(a.radians)),
    UnitVector3: (3, _unit),
    UnitVector3.normalized: (3, _unit),
    flrw_metric_components: (3, _metric),
    QubitState: (2, lambda q: _close(abs(q.amp_up) ** 2 + abs(q.amp_down) ** 2, 1.0)),
    OutcomeDistribution: (2, lambda d: _probabilities((d.p_up, d.p_down))),
    JointDistribution: (4, lambda d: _probabilities(d.probabilities())),
    UnitsConfig: (2, lambda u: 0.0 < u.G < INF and 0.0 < u.c * u.c < INF),
    MassProfile: (2, lambda p: 0.0 < p.mass < INF and 0.0 < p.radius < INF),
    ball_mass_within: (1, lambda m: type(m) is float and 0.0 <= m <= 1.0),
    table_mass_within: (1, lambda m: type(m) is float and 0.0 <= m <= 1.0),
    JunctionConfig: (2, lambda j: 0.0 < j.chi0 < math.pi and 0.0 < j.scale_factor < INF),
    MassRatioResult: (1, lambda r: r.ratio >= 1.0),
    RunStats: (1, _run_stats),
    EmpiricalCHSH: (1, lambda e: -4.0 <= e.value <= 4.0 and 0.0 <= e.stderr < INF and len(e.terms) == 4
                    and all(map(_run_stats, e.terms)) and _round_trips(e)),
    JointSetting: (2, lambda j: isinstance(j.alice, UnitVector3) and isinstance(j.bob, UnitVector3)),
    CHSHSetting: (5, lambda c: all(isinstance(a, Angle) for a in (c.alice, c.alice_prime, c.bob, c.bob_prime))
                  and isinstance(c.plane, SymmetryPlane)),
}

AXIS = st.one_of(WILD, st.sampled_from([X_AXIS, Y_AXIS, Z_AXIS]))
# outcome counts of any type, length and sign, up to the largest run a draw allows
COUNT = st.one_of(WILD, st.integers(-2, 2**63 - 1), st.integers(0, 3))
COUNTS = st.one_of(WILD, st.lists(COUNT, max_size=5), st.lists(COUNT, max_size=5).map(tuple))
RUNS = st.one_of(st.just(RUN), st.builds(RunStats, st.lists(st.integers(0, 2**63 - 1), min_size=4, max_size=4)
                                         .filter(sum)))
ANGLE = st.one_of(WILD, st.builds(Angle, st.floats(-10.0, 10.0)))

ARGUMENT = {
    # object arguments are the package's own value types
    flrw_metric_components: [st.builds(Angle, st.floats(-10.0, 10.0))] * 2 + [WILD],
    RunStats: [COUNTS],
    EmpiricalCHSH: [st.one_of(WILD, st.lists(RUNS, min_size=4, max_size=4),
                              st.lists(st.one_of(RUNS, WILD), max_size=5))],
    JointSetting: [AXIS, AXIS],
    CHSHSetting: [ANGLE] * 4 + [st.one_of(WILD, st.sampled_from([XY_PLANE, ZX_PLANE]))],
}


@pytest.mark.parametrize("cls", list(INVARIANTS), ids=lambda c: c.__qualname__)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_numeric_constructors_hold_their_invariant_or_raise_typed_errors(cls, data):
    arity, invariant = INVARIANTS[cls]
    args = [data.draw(s) for s in ARGUMENT.get(cls, [WILD] * arity)]
    try:
        obj = cls(*args)
    except TYPED_ERRORS:
        return
    assert invariant(obj), (args, obj)


def junction_ratio(chi0, scale_factor):
    return flrw_mass_ratio(JunctionConfig(chi0, scale_factor))


def ball_proper_mass(mass, radius, G, c):
    return proper_mass_integral(MassProfile.uniform(mass, radius), UnitsConfig(G, c))


# call -> (number of arguments, the real fields of its result; none where the result is a float itself)
REAL_FIELDS = {
    Angle: (1, ("radians",)),
    Angle.from_degrees: (1, ("radians",)),
    UnitVector3: (3, ("x", "y", "z")),
    UnitVector3.normalized: (3, ("x", "y", "z")),
    OutcomeDistribution: (2, ("p_up", "p_down")),
    JointDistribution: (4, ("p_pp", "p_pm", "p_mp", "p_mm")),
    UnitsConfig: (2, ("G", "c")),
    MassProfile: (2, ("mass", "radius")),
    MassProfile.uniform: (2, ("mass", "radius")),
    JunctionConfig: (2, ("chi0", "scale_factor")),
    MassRatioResult: (1, ("ratio",)),
    junction_ratio: (2, ("ratio",)),
    ball_proper_mass: (4, ()),
}


def _outcome(call, args, fields):
    """The type of a call's typed error, whose message quotes the arguments as given, or the type and repr
    of each real field of its result."""
    try:
        result = call(*args)
    except TYPED_ERRORS as exc:
        return type(exc)
    return [(type(v), repr(v)) for v in ([getattr(result, name) for name in fields] if fields else [result])]


def _is_real(v) -> bool:
    return isinstance(v, (int, float, Fraction, Decimal, np.integer, np.floating, np.bool_))  # a bool is an int


# warnings are errors in this suite, so arithmetic in a numpy type that overflows fails these tests
@pytest.mark.parametrize("call", list(REAL_FIELDS), ids=lambda c: c.__qualname__)
@settings(max_examples=200, deadline=None)
@given(args=st.lists(WILD, min_size=4, max_size=4))
@example(args=[np.float32(0.3), 1.0, 1.0, 1.0])  # JunctionConfig kept a float32 chi0, and its ratio was a float32
@example(args=[np.float32(1.0), 1.0, 1.0, 1.0])  # Angle kept a float32
@example(args=[1.0, np.float32(1e20), 1.0, 1.0])  # UnitsConfig squared c in float32, which overflowed
@example(args=[1e-10, 1.0, np.float64(1e300), np.float64(1e-150)])  # 2G/c^2 overflowed in float64 scalars
@example(args=[np.float64(1e300)] * 4)  # UnitVector3.normalized squared numpy floats, which overflowed
@example(args=[np.float16(65504), 1e6, 1.0, 1.0])  # M_p = M * ratio overflowed in float16
def test_real_fields_are_floats_and_read_as_float_reads_them(call, args):
    arity, fields = REAL_FIELDS[call]
    args = args[:arity]
    got = _outcome(call, args, fields)
    if isinstance(got, list):
        assert all(t is float for t, _ in got), (args, got)
    if all(map(_is_real, args)):
        try:
            floats = [float(v) for v in args]
        except (OverflowError, ValueError):  # beyond the float range, or a signalling NaN
            return
        assert got == _outcome(call, floats, fields), args


MAX = sys.float_info.max
POSITIVE = st.floats(5e-324, MAX)
# G and c across the float range, c only where c^2 is a normal float as UnitsConfig needs
UNITS = st.tuples(POSITIVE, st.floats(math.sqrt(sys.float_info.min), math.sqrt(MAX)))


@st.composite
def _tables(draw):
    """(radii, masses) of a table of at most 8 rows, increasing from 0 and
    nondecreasing from 0, with values across the float range."""
    value = st.one_of(POSITIVE, st.floats(0.01, 100.0))  # most wide rows overflow the cubic
    radii = sorted(draw(st.sets(value, min_size=1, max_size=7)))
    masses = sorted(draw(st.lists(st.one_of(st.just(0.0), value), min_size=len(radii), max_size=len(radii))))
    return [0.0, *radii], [0.0, *masses]


# (mass, radius) of a uniform ball, or (radii, masses) of a table
PROFILES = st.one_of(st.tuples(POSITIVE, POSITIVE), _tables())


# warnings are errors in this suite, so an overflow warned about fails these tests
@settings(max_examples=300, deadline=None)
@given(spec=PROFILES, units=UNITS)
@example(spec=([0.0, 1.0, 2.0], [0.0, 1e10, 2e10]), units=(1e300, 1.0))  # overflowed k M'(0) outside errstate
@example(spec=(1e300, 1e300), units=(6.67430e-11, 299792458.0))  # c^2 R overflows: the CLI printed compactness 0.0
def test_proper_mass_is_at_least_the_mass_or_raises_typed_errors(spec, units):
    try:
        profile = (MassProfile.uniform if isinstance(spec[0], float) else MassProfile.from_table)(*spec)
        proper = proper_mass_integral(profile, UnitsConfig(*units))
    except TYPED_ERRORS:
        return
    assert profile.mass <= proper < INF, (spec, units, proper)


@settings(max_examples=300, deadline=None)
@given(chi=st.floats(-10.0, 10.0), theta=st.floats(-10.0, 10.0), a=POSITIVE, units=UNITS)
@example(chi=1.0, theta=1.0, a=5.413098667800913e16, units=(1.0, 5.413098667800913e16))  # x**2 != x * x here
def test_flrw_metric_holds_its_invariant_in_any_units_or_raises_typed_errors(chi, theta, a, units):
    try:
        units = UnitsConfig(*units)
        g = flrw_metric_components(Angle(chi), Angle(theta), a, units)
    except TYPED_ERRORS:
        return
    # squares are products: x**2 calls the C library's pow, which may round one ulp away
    assert -g[0] == units.c * units.c and g[1] == a * a, (chi, theta, a, units, g)
    assert 0.0 <= g[2] <= g[1] and 0.0 <= g[3] <= g[1], (chi, theta, a, units, g)
