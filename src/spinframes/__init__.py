"""Qubit measurement averages, Bell correlations, CHSH bounds, and
proper-vs-dynamic mass for spherical matter.

Measurement outcomes are always +/-1; only their averages trace the
smooth cos(theta) curves. The same average-only theme carries over to
entangled pairs (conservation holds in expectation, not per trial) and,
on the gravity side, to the proper mass exceeding the dynamic mass by
the binding energy.
"""
__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    DomainError,
    ProfileError,
    UndefinedConditionalError,
)
from .spin import (
    Angle,
    Outcome,
    OutcomeDistribution,
    QubitState,
    UnitVector3,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    expectation,
    prepare_state,
    projection_probabilities,
)
from .bell import (
    ALL_BELL_STATES,
    BellState,
    CHSHSetting,
    EnsembleTable,
    JointDistribution,
    JointSetting,
    PHI_MINUS,
    PHI_PLUS,
    PSI_PLUS,
    SINGLET,
    SymmetryPlane,
    TSIRELSON_BOUND,
    XY_PLANE,
    ZX_PLANE,
    ZY_PLANE,
    build_exact_ensemble,
    chsh_classical_max,
    chsh_quantum_max,
    chsh_scan,
    chsh_value,
    conditional_average,
    correlation,
    joint_distribution,
)
from .grmass import (
    JunctionConfig,
    MassProfile,
    MassRatioResult,
    UnitsConfig,
    flrw_mass_ratio,
    flrw_metric_components,
    load_profile_csv,
    proper_mass_integral,
)

# frames and montecarlo names resolve on first use (see __getattr__):
# montecarlo imports numpy, and no CLI command uses frames, so loading it
# would only add to every `import spinframes`
_FRAMES_NAMES = (
    "ComplementaryTriad",
    "FrameRotation",
    "SpinRotation",
    "complementarity_check",
    "rotate_state",
    "rotate_triad",
    "so3_from_su2",
    "su2_from_axis_angle",
)
_MONTECARLO_NAMES = (
    "EmpiricalCHSH",
    "RNG_DISCIPLINE",
    "RunStats",
    "empirical_chsh",
    "sample_joint",
    "sample_single",
)

__all__ = [
    "__version__",
    "Angle",
    "Outcome",
    "OutcomeDistribution",
    "QubitState",
    "UnitVector3",
    "X_AXIS",
    "Y_AXIS",
    "Z_AXIS",
    "expectation",
    "prepare_state",
    "projection_probabilities",
    *_FRAMES_NAMES,
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
    *_MONTECARLO_NAMES,
    "JunctionConfig",
    "MassProfile",
    "MassRatioResult",
    "UnitsConfig",
    "flrw_mass_ratio",
    "flrw_metric_components",
    "load_profile_csv",
    "proper_mass_integral",
    "ConvergenceError",
    "DomainError",
    "ProfileError",
    "UndefinedConditionalError",
]


def __getattr__(name: str):
    if name in _FRAMES_NAMES:
        from . import frames as module
    elif name in _MONTECARLO_NAMES:
        from . import montecarlo as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(module, name)
    globals()[name] = value
    return value
