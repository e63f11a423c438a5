"""Qubit measurement averages, Bell correlations, CHSH bounds, and
proper-vs-dynamic mass for spherical matter.

Measurement outcomes are always +/-1; only their averages trace the
smooth cos(theta) curves. The same average-only theme carries over to
entangled pairs (conservation holds in expectation, not per trial) and,
on the gravity side, to the proper mass exceeding the dynamic mass by
the binding energy.
"""
__version__ = "0.1.0"

from . import bell, errors, frames, grmass, montecarlo, spin
from .errors import *
from .spin import *
from .frames import *
from .bell import *
from .montecarlo import *
from .grmass import *

__all__ = ["__version__", *spin.__all__, *frames.__all__, *bell.__all__, *montecarlo.__all__,
           *grmass.__all__, *errors.__all__]
