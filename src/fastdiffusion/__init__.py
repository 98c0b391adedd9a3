"""Spectral simulator and verification harness for stochastic fast diffusion.

The package represents the equation in the eigenbasis of its linear part,
simulates coupled pairs of solutions under shared noise, and checks the
closed-form bounds (exponential moments, power-Harnack) and noise-spectrum
sufficient conditions against Monte Carlo evidence.

The public names are those of each module's __all__, in import order.
"""

from . import bounds, conditions, config, coupling, dynamics, errors, montecarlo, records, schedules, spectral
from .errors import *
from .schedules import *
from .spectral import *
from .dynamics import *
from .coupling import *
from .bounds import *
from .conditions import *
from .montecarlo import *
from .config import *
from .records import *

__all__ = [
    "__version__",
    *errors.__all__,
    *schedules.__all__,
    *spectral.__all__,
    *dynamics.__all__,
    *coupling.__all__,
    *bounds.__all__,
    *conditions.__all__,
    *montecarlo.__all__,
    *config.__all__,
    *records.__all__,
]


def __getattr__(name):
    # the version lookup scans every sys.path entry: done on first use only
    if name == "__version__":
        return records._package_version()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
