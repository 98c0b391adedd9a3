"""The package's public names are its modules' __all__ lists, joined."""

import fastdiffusion
from fastdiffusion import (
    bounds,
    conditions,
    config,
    coupling,
    dynamics,
    errors,
    montecarlo,
    records,
    schedules,
    spectral,
)

MODULES = (errors, schedules, spectral, dynamics, coupling, bounds, conditions, montecarlo, config, records)


def test_every_name_resolves_once():
    names = fastdiffusion.__all__
    assert len(names) == len(set(names)) == 74
    assert names == ["__version__"] + [n for m in MODULES for n in m.__all__]
    assert isinstance(fastdiffusion.__version__, str)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(fastdiffusion, name) is getattr(module, name), name


def test_one_verdict_rule():
    assert "verify_exp_moment_bound" not in fastdiffusion.__all__
    assert not hasattr(montecarlo, "verify_exp_moment_bound")
