import importlib

import pytest

import spinframes

# Names deleted from the library, each with the module that defined it.
# `np` checks that frames and montecarlo import no numpy at module level.
REMOVED = [
    ("frames", "np"),
    ("frames", "SIGMA_X"),
    ("frames", "SIGMA_Y"),
    ("frames", "SIGMA_Z"),
    ("frames", "PAULI"),
    ("frames", "IDENTITY_2"),
    ("spin", "QubitState.amplitudes"),
    ("spin", "UnitVector3.as_array"),
    ("bell", "BellState.amplitudes"),
    ("bell", "BellState.is_triplet"),
    ("bell", "SINGLET._tensor"),
    ("bell", "JointSetting.separation"),
    ("bell", "_read_only"),
    ("grmass", "UnitsConfig.si"),
    ("bell", "JointSetting.plane"),
    ("bell", "SymmetryPlane.normal"),
    ("bell", "SymmetryPlane.contains"),
    ("bell", "PLANE_TOL"),
    ("montecarlo", "RunStats.rng"),
    ("grmass", "UnitsConfig.geometrized_flag"),
    ("montecarlo", "_SINGLE_OUTCOMES"),
    ("montecarlo", "_PAIR_OUTCOMES"),
    ("bell", "enumerate_classical_strategies"),
    ("grmass", "_Pchip"),
    ("spin", "classical_projection"),
    ("spin", "Angle.canonical"),
    ("spin", "TWO_PI"),
    ("spin", "UnitVector3.cross"),
    ("spin", "UnitVector3.angle_to"),
    ("bell", "JointDistribution.alice_marginal"),
    ("bell", "JointDistribution.bob_marginal"),
    ("bell", "BELL_LABELS"),
    ("bell", "chsh_combination"),
    ("montecarlo", "EmpiricalCHSH.__float__"),
    ("montecarlo", "np"),
    ("montecarlo", "RunStats.seed"),
    ("montecarlo", "EmpiricalCHSH.seed"),
    ("montecarlo", "_run_stats"),
    ("montecarlo", "_check_estimate"),
    ("grmass", "_is_spline"),
]


# The package surface, in order: spin, frames, bell, montecarlo, grmass, errors.
PUBLIC_NAMES = [
    "__version__", "Angle", "Outcome", "OutcomeDistribution", "QubitState", "UnitVector3", "X_AXIS", "Y_AXIS",
    "Z_AXIS", "expectation", "prepare_state", "projection_probabilities", "ComplementaryTriad",
    "FrameRotation", "SpinRotation", "complementarity_check", "rotate_state", "rotate_triad", "so3_from_su2",
    "su2_from_axis_angle", "ALL_BELL_STATES", "BellState", "CHSHSetting", "EnsembleTable",
    "JointDistribution", "JointSetting", "PHI_MINUS", "PHI_PLUS", "PSI_PLUS", "SINGLET", "SymmetryPlane",
    "TSIRELSON_BOUND", "XY_PLANE", "ZX_PLANE", "ZY_PLANE", "build_exact_ensemble", "chsh_classical_max",
    "chsh_quantum_max", "chsh_scan", "chsh_value", "conditional_average", "correlation", "joint_distribution",
    "EmpiricalCHSH", "RNG_DISCIPLINE", "RunStats", "empirical_chsh", "sample_joint", "sample_single",
    "JunctionConfig", "MassProfile", "MassRatioResult", "UnitsConfig", "flrw_mass_ratio",
    "flrw_metric_components", "load_profile_csv", "proper_mass_integral", "ConvergenceError", "DomainError",
    "ProfileError", "UndefinedConditionalError",
]


def test_public_names_are_pinned():
    assert spinframes.__all__ == PUBLIC_NAMES


@pytest.mark.parametrize("module", ["errors", "spin", "frames", "bell", "montecarlo", "grmass"])
def test_star_import_binds_exactly_the_module_surface(module):
    namespace = {}
    exec(f"from spinframes.{module} import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(importlib.import_module(f"spinframes.{module}").__all__)


def test_every_public_name_resolves():
    for name in spinframes.__all__:
        assert getattr(spinframes, name) is not None, name


def test_public_names_are_unique():
    assert len(spinframes.__all__) == len(set(spinframes.__all__))


@pytest.mark.parametrize("module, dotted", REMOVED)
def test_removed_name_is_gone(module, dotted):
    owner, _, attr = dotted.rpartition(".")
    mod = importlib.import_module(f"spinframes.{module}")
    if owner:
        assert not hasattr(getattr(mod, owner), attr)
        assert not hasattr(getattr(spinframes, owner), attr)
    else:
        assert not hasattr(mod, attr)
        assert not hasattr(spinframes, attr)
