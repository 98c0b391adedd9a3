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
    assert len(names) == len(set(names)) == 57
    assert names == ["__version__"] + [n for m in MODULES for n in m.__all__]
    assert isinstance(fastdiffusion.__version__, str)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(fastdiffusion, name) is getattr(module, name), name


def test_one_verdict_rule():
    assert "verify_exp_moment_bound" not in fastdiffusion.__all__
    assert not hasattr(montecarlo, "verify_exp_moment_bound")


def test_one_closed_form_query():
    assert bounds.__all__ == ["BoundReport", "bound_report"]
    for name in ("exp_moment_weight", "log_moment_rate", "log_moment_rate_int", "coupling_gain",
                 "coupling_gain_int", "coupling_gain_sq_int", "harnack_rhs"):
        assert name not in fastdiffusion.__all__
        assert not hasattr(bounds, name), name
    assert not hasattr(dynamics.CoefficientSet, "log_moment_rate_schedule")
