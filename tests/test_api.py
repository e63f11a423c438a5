import importlib

import pytest

import spinframes

# Names deleted from the library, each with the module that defined it.
# `np` checks that frames no longer imports numpy at module level.
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
]


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
