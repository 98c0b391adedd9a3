"""Spectral simulator and verification harness for stochastic fast diffusion.

The package represents the equation in the eigenbasis of its linear part,
simulates coupled pairs of solutions under shared noise, and checks the
closed-form bounds (exponential moments, power-Harnack) and noise-spectrum
sufficient conditions against Monte Carlo evidence.

The public names are those of each module's __all__, in the order of
_MODULES.  Importing the package loads none of its modules: a submodule,
a public name and __all__ load what they need on first access, so a
process pays only for the modules it uses.
"""

import importlib

_MODULES = (
    "errors", "schedules", "spectral", "dynamics", "coupling",
    "bounds", "conditions", "montecarlo", "config", "records",
)


def __getattr__(name):
    if name in _MODULES or name == "cli":
        return importlib.import_module(f"{__name__}.{name}")
    # the version lookup scans every sys.path entry: done on first use only
    if name == "__version__":
        return __getattr__("records")._package_version()
    if name == "__all__":
        value = ["__version__", *(n for m in _MODULES for n in __getattr__(m).__all__)]
    else:
        # the first module, in export order, whose __all__ names it; no
        # public name starts with "_", so a probe for one loads nothing
        owner = None if name.startswith("_") else next(
            (m for m in map(__getattr__, _MODULES) if name in m.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
