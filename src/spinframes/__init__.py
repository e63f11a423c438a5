"""Qubit measurement averages, Bell correlations, CHSH bounds, and
proper-vs-dynamic mass for spherical matter.

Measurement outcomes are always +/-1; only their averages trace the
smooth cos(theta) curves. The same average-only theme carries over to
entangled pairs (conservation holds in expectation, not per trial) and,
on the gravity side, to the proper mass exceeding the dynamic mass by
the binding energy.
"""
__version__ = "0.1.0"

from . import bell, errors, grmass, spin
from .errors import *
from .spin import *
from .bell import *
from .grmass import *

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

__all__ = ["__version__", *spin.__all__, *_FRAMES_NAMES, *bell.__all__, *_MONTECARLO_NAMES,
           *grmass.__all__, *errors.__all__]


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
