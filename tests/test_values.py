"""The value classes: the behaviour every one of them keeps (repr, equality,
hashing, immutability, keyword construction, copy and pickle), and the
contract of their numeric constructors and numeric functions: a result
holds its documented invariant, or the call raises a typed error."""
import copy
import math
import pickle
import struct

import pytest
from hypothesis import given, settings, strategies as st

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
    flrw_metric_components,
)

NAN, INF = math.nan, math.inf
RUN = RunStats(10, 0.2, 0.1, 7, {1: 0.5})
RUN_REPR = "RunStats(n=10, mean=0.2, stderr=0.1, seed=7, conditional_means=mappingproxy({1: 0.5}))"
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
    (MassProfile, {"mass": 1.0, "radius": 2.0, "spline": None}, "MassProfile(mass=1.0, radius=2.0, spline=None)",
     "identity"),
    (JunctionConfig, {"chi0": 1.0, "scale_factor": 2.0}, "JunctionConfig(chi0=1.0, scale_factor=2.0)", "value"),
    (MassRatioResult, {"ratio": 1.5}, "MassRatioResult(ratio=1.5)", "value"),
    (RunStats, {"n": 10, "mean": 0.2, "stderr": 0.1, "seed": 7, "conditional_means": {1: 0.5}}, RUN_REPR,
     "unhashable"),
    (EmpiricalCHSH, {"value": 2.0, "stderr": 0.1, "terms": (RUN,) * 4, "seed": 3},
     f"EmpiricalCHSH(value=2.0, stderr=0.1, terms=({RUN_REPR}, {RUN_REPR}, {RUN_REPR}, {RUN_REPR}), seed=3)",
     "unhashable"),
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
            else:  # a custom __eq__, or a field that cannot be hashed
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
    assert RunStats(10, 0.2, 0.1, 7).conditional_means == {}
    assert MassProfile(1.0, 2.0).spline is None
    t = SINGLET.correlation_tensor
    assert all(abs(t[i][j] + (i == j)) <= 1e-12 for i in range(3) for j in range(3))


def test_custom_equality():
    assert QubitState(0.6, 0.8j) == QubitState(0.6j, -0.8)  # a global phase of i
    assert QubitState(0.6, 0.8j) != QubitState(0.8, 0.6j)
    assert SINGLET == BellState("other", tuple(-x for x in SINGLET.psi), XY_PLANE)


# --- constructor contract ------------------------------------------------------

@pytest.mark.parametrize("means", [
    {1: 5.0}, {-1: -1.5}, {7: 0.5}, {0: 0.0}, {1: NAN}, {-1: INF}, {1: "0.5"}, {1: None}, {1: 1j},
    "x", (1.0,), None,
], ids=repr)
def test_run_stats_conditional_means_are_outcome_averages(means):
    with pytest.raises(DomainError):
        RunStats(10, 0.5, 0.1, 0, conditional_means=means)


def test_run_stats_accepts_outcome_averages():
    run = RunStats(10, 0.5, 0.1, 0, conditional_means={1: 1.0, -1: -1.0})
    assert run.conditional_means == {1: 1.0, -1: -1.0}


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
    (lambda: RunStats(n=10, mean="0.5", stderr=0.1, seed=0), DomainError, "mean"),
    (lambda: RunStats(n=10, mean=0.5, stderr="0.1", seed=0), DomainError, "stderr"),
    (lambda: MassRatioResult("2"), DomainError, "M_p/M"),
    (lambda: MassRatioResult(NAN), DomainError, "M_p/M"),
    (lambda: QubitState("x", 0), DomainError, "amplitudes"),
    (lambda: QubitState(1e308, 0), DomainError, "amplitudes"),
    (lambda: BellState("x", (1e308, 0, 0, 1e308), ZX_PLANE), DomainError, "normalized"),
    (lambda: SpinRotation(((1e308, 0), (0, 1e308))), DomainError, "spin rotation"),
    (lambda: EmpiricalCHSH(NAN, -1.0, (), -5), DomainError, "CHSH estimate"),
    (lambda: EmpiricalCHSH("2", 0.1, (RUN,) * 4, 0), DomainError, "CHSH estimate"),
    (lambda: EmpiricalCHSH(4.5, 0.1, (RUN,) * 4, 0), DomainError, "CHSH estimate"),
    (lambda: EmpiricalCHSH(2.0, INF, (RUN,) * 4, 0), DomainError, "stderr"),
    (lambda: EmpiricalCHSH(2.0, -0.1, (RUN,) * 4, 0), DomainError, "stderr"),
    (lambda: EmpiricalCHSH(2.0, "0.1", (RUN,) * 4, 0), DomainError, "stderr"),
    (lambda: EmpiricalCHSH(2.0, 0.1, (RUN,) * 3, 0), DomainError, "four"),
    (lambda: EmpiricalCHSH(2.0, 0.1, (1, 2, 3, 4), 0), DomainError, "four"),
    (lambda: EmpiricalCHSH(2.0, 0.1, (RUN,) * 4, -5), DomainError, "seed"),
    (lambda: EmpiricalCHSH(2.0, 0.1, (RUN,) * 4, 1.5), DomainError, "seed"),
    (lambda: Angle.from_degrees("x"), DomainError, "angle"),
    (lambda: UnitVector3.normalized("a", 0, 0), DomainError, "components"),
    (lambda: flrw_metric_components(Angle(1.0), Angle(1.0), "2"), DomainError, "scale factor"),
    (lambda: SymmetryPlane("a", 1, 2), DomainError, "plane axes"),
    (lambda: ComplementaryTriad(1, 2, 3), DomainError, "triad axes"),
]


@pytest.mark.parametrize("call, error, message", RAW_ERROR_CALLS, ids=range(len(RAW_ERROR_CALLS)))
def test_bad_arguments_raise_typed_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()


TYPED_ERRORS = (DomainError, ProfileError, UndefinedConditionalError, ConvergenceError)

# values no argument of a numeric constructor should let through untyped
WILD = st.one_of(
    st.sampled_from([NAN, INF, -INF, 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -1.0, 0.5, 2.0,
                     True, False, "x", "1", "", None, 1j, 1 + 1j, (), (1.0,), (1.0, 2.0), (0.5, 0.5, 0.5, 0.5)]),
    st.floats(),
    st.integers(-3, 3),
)


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= 1e-12


def _probabilities(ps) -> bool:
    return all(0.0 <= p <= 1.0 for p in ps) and _close(sum(ps), 1.0)


def _seed(seed) -> bool:
    return type(seed) is int and 0 <= seed < 2**64


def _run_stats(r: RunStats) -> bool:
    return (type(r.n) is int and r.n >= 1 and -1.0 <= r.mean <= 1.0 and 0.0 <= r.stderr < INF and _seed(r.seed)
            and all(k in (1, -1) and -1.0 <= v <= 1.0 for k, v in r.conditional_means.items()))


def _unit(v: UnitVector3) -> bool:
    return _close(math.fsum(c * c for c in (v.x, v.y, v.z)), 1.0)


def _metric(g) -> bool:
    return len(g) == 4 and all(math.isfinite(x) for x in g) and g[0] < 0.0 < g[1] and min(g[2:]) >= 0.0


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
    JunctionConfig: (2, lambda j: 0.0 < j.chi0 < math.pi and 0.0 < j.scale_factor < INF),
    MassRatioResult: (1, lambda r: r.ratio >= 1.0),
    RunStats: (5, _run_stats),
    EmpiricalCHSH: (4, lambda e: -4.0 <= e.value <= 4.0 and 0.0 <= e.stderr < INF and len(e.terms) == 4
                    and all(isinstance(t, RunStats) for t in e.terms) and _seed(e.seed)),
}

ARGUMENT = {
    # object arguments are the package's own value types
    flrw_metric_components: [st.builds(Angle, st.floats(-10.0, 10.0))] * 2 + [WILD],
    RunStats: [st.one_of(WILD, st.integers(1, 10)), WILD, WILD, st.one_of(WILD, st.integers(0, 5)),
               st.one_of(WILD, st.dictionaries(WILD, WILD, max_size=3))],
    EmpiricalCHSH: [WILD, WILD, st.one_of(WILD, st.just((RUN,) * 4), st.lists(st.just(RUN), max_size=5)),
                    st.one_of(WILD, st.integers(0, 5))],
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

