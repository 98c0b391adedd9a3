"""Config validation: every violation reported in one pass, strict keys."""

import inspect
import itertools

import numpy as np
import pytest

from fastdiffusion import (
    CoefficientSet,
    EnsembleConfig,
    SchemaError,
    SpectralModel,
    check_embedding_constant,
    check_fractional_power,
    check_noise_domination,
    check_noise_sandwich,
    check_power_spectrum_window,
    check_spectral_growth,
    build_model,
    estimate_invariant,
    estimate_weighted,
    fractional_power,
    from_spectral,
    hs_check,
    run_coupled_ensemble,
    strong_feller_probe,
    validate_config,
    verify_harnack,
)
from fastdiffusion import config

# the library function each conditions[].check name runs
CHECKS = {
    "hs": hs_check,
    "noise_domination": check_noise_domination,
    "spectral_growth": check_spectral_growth,
    "noise_sandwich": check_noise_sandwich,
    "power_spectrum_window": check_power_spectrum_window,
    "fractional_power": check_fractional_power,
    "embedding": check_embedding_constant,
}
# entry keys that are no parameter: the check's name, and the switch that
# hands noise_sandwich the model
NOT_PARAMETERS = ("check", "use_model")


def good_config():
    return {
        "model": {"n": 4, "q_diag": {"power": -0.5}},
        "coeffs": {"r": 0.5, "gamma": -0.2},
        "run": {"n_paths": 100, "dt": 0.001, "T": 0.25, "seed": 7, "n_workers": 4},
        "x": {"spectral": [1.0, 0.5, 0.0, 0.0]},
        "y": [0.0, 0.0, 0.0, 0.0],
    }


class TestHappyPath:
    def test_builds_objects(self):
        cfg = validate_config(good_config(), "bounds")
        assert isinstance(cfg.model, SpectralModel)
        assert isinstance(cfg.coeffs, CoefficientSet)
        assert isinstance(cfg.run, EnsembleConfig)
        assert cfg.run.n_workers == 4
        assert cfg.command == "bounds"

    def test_spectral_state_resolved(self):
        cfg = validate_config(good_config(), "bounds")
        want = from_spectral(cfg.model, np.array([1.0, 0.5, 0.0, 0.0]))
        assert np.allclose(cfg.extras["x"], want, atol=1e-14)
        assert np.array_equal(cfg.extras["y"], np.zeros(4))

    def test_document_excludes_worker_count(self):
        cfg = validate_config(good_config(), "bounds")
        assert "n_workers" not in cfg.document["run"]
        assert cfg.document["run"]["seed"] == 7
        assert cfg.document["run"]["dt"] == 0.001

    def test_piecewise_schedule_accepted(self):
        raw = good_config()
        raw["coeffs"]["gamma"] = {"breaks": [0.0, 0.1], "values": [0.5, -0.5]}
        raw["coeffs"]["delta"] = {"breaks": [0.0, 0.2], "values": [1.0, 2.0]}
        cfg = validate_config(raw, "bounds")
        assert cfg.coeffs.gamma(0.05) == 0.5
        assert cfg.coeffs.delta(0.25) == 2.0


class TestViolationCollection:
    def test_multiple_violations_in_one_pass(self):
        raw = good_config()
        raw["coeffs"]["r"] = 1.5
        raw["run"]["T"] = -1.0
        del raw["model"]["q_diag"]
        with pytest.raises(SchemaError) as exc:
            validate_config(raw, "bounds")
        msg = str(exc.value)
        assert "coeffs.r" in msg
        assert "run.T" in msg
        assert "model.q_diag" in msg

    def test_unknown_keys_rejected(self):
        raw = good_config()
        raw["mystery"] = 1
        raw["model"]["extra"] = 2
        raw["run"]["verbosity"] = 3
        with pytest.raises(SchemaError) as exc:
            validate_config(raw, "bounds")
        msg = str(exc.value)
        assert "mystery: unknown key" in msg
        assert "model.extra: unknown key" in msg
        assert "run.verbosity: unknown key" in msg

    def test_command_owns_its_keys(self):
        raw = good_config()
        raw["p"] = 2.0
        # simulate accepts x but not y or p
        del raw["y"]
        with pytest.raises(SchemaError) as exc:
            validate_config(raw, "simulate")
        assert "p: unknown key" in str(exc.value)

    def test_missing_required_keys(self):
        raw = {"model": {"n": 2, "q_diag": [1.0, 1.0]}}
        with pytest.raises(SchemaError) as exc:
            validate_config(raw, "bounds")
        msg = str(exc.value)
        for key in ("coeffs", "run", "x", "y"):
            assert f"{key}: is required" in msg

    def test_unknown_command(self):
        with pytest.raises(SchemaError):
            validate_config(good_config(), "optimize")


class TestCoeffsRules:
    def test_r_window_message(self):
        raw = good_config()
        raw["coeffs"]["r"] = 1.5
        with pytest.raises(SchemaError) as exc:
            validate_config(raw, "bounds")
        assert "must be in (0, 1)" in str(exc.value)

    def test_sigma_floor_message(self):
        raw = good_config()
        raw["coeffs"]["sigma"] = 1.0
        with pytest.raises(SchemaError) as exc:
            validate_config(raw, "bounds")
        assert "4/(1+r)" in str(exc.value)

    def test_sigma_at_floor_accepted(self):
        raw = good_config()
        raw["coeffs"]["sigma"] = 4.0 / 1.5
        cfg = validate_config(raw, "bounds")
        assert cfg.coeffs.sigma == pytest.approx(4.0 / 1.5, rel=1e-15)

    def test_delta_must_be_positive(self):
        raw = good_config()
        raw["coeffs"]["delta"] = 0.0
        with pytest.raises(SchemaError) as exc:
            validate_config(raw, "bounds")
        assert "coeffs.delta" in str(exc.value)


class TestModelRules:
    def test_non_uniform_measure_needs_an_operator_matrix(self):
        # the grid Laplacian is self-adjoint under the uniform measure only
        for operator in ({}, {"operator": "dirichlet1d"}):
            raw = good_config()
            raw["model"].update(measure=[0.1, 0.2, 0.3, 0.4], **operator)
            with pytest.raises(SchemaError) as exc:
                validate_config(raw, "bounds")
            msg = str(exc.value)
            assert "\n" not in msg
            assert msg.startswith("configuration invalid: model.measure: ")
            assert "model.operator" in msg and "operator.matrix" in msg

    def test_uniform_weight_list_accepted(self):
        for n in (3, 4):
            raw = good_config()
            raw["model"]["n"] = n
            raw["model"]["measure"] = [1.0 / n] * (n - 1) + [1.0 - (n - 1) / n]
            raw["x"] = raw["y"] = [0.0] * n
            cfg = validate_config(raw, "bounds")
            assert cfg.model.n == n

    def test_non_uniform_measure_with_its_own_matrix(self):
        # diag(m)^-1 S with S symmetric is self-adjoint in L^2(m)
        m = [0.1, 0.2, 0.3, 0.4]
        S = -2.0 * np.eye(4) + 0.5 * (np.eye(4, k=1) + np.eye(4, k=-1))
        raw = good_config()
        raw["model"].update(measure=m, operator={"matrix": (S / np.array(m)[:, None]).tolist()})
        assert validate_config(raw, "bounds").model.n == 4
        raw["model"]["operator"] = {"matrix": S.tolist()}  # not self-adjoint for this m
        with pytest.raises(SchemaError, match="^configuration invalid: model: diag\\(m\\) L deviates"):
            validate_config(raw, "bounds")


# each form of the model block's measure and operator, by name: the block
# entries (absent for the defaults) and the weights and matrix they stand for
DIRICHLET4 = 25.0 * (np.eye(4, k=1) + np.eye(4, k=-1) - 2.0 * np.eye(4))
WEIGHTED = np.array([0.1, 0.2, 0.3, 0.4])
SPACE_FORMS = {
    "defaults": ({}, np.full(4, 0.25), DIRICHLET4),
    "named": ({"measure": "uniform", "operator": "dirichlet1d"}, np.full(4, 0.25), DIRICHLET4),
    "uniform_list": ({"measure": [0.25] * 4}, np.full(4, 0.25), DIRICHLET4),
    "uniform_matrix": ({"operator": {"matrix": (2.0 * DIRICHLET4).tolist()}}, np.full(4, 0.25),
                       2.0 * DIRICHLET4),
    # diag(m) L is a multiple of the grid Laplacian: self-adjoint for m
    "weighted_matrix": ({"measure": WEIGHTED.tolist(),
                         "operator": {"matrix": (WEIGHTED[0] * DIRICHLET4 / WEIGHTED[:, None]).tolist()}},
                        WEIGHTED, WEIGHTED[0] * DIRICHLET4 / WEIGHTED[:, None]),
}
Q_FORMS = {
    "power": ({"power": -0.5}, np.arange(1, 5, dtype=float) ** -0.5),
    "list": ([1.0, 0.8, 0.6, 0.5], np.array([1.0, 0.8, 0.6, 0.5])),
}


class TestModelBlock:
    """validate_config builds the model of each block form as build_model
    and fractional_power do from the arrays the block stands for."""

    @pytest.mark.parametrize("space, q_form, alpha",
                             itertools.product(SPACE_FORMS, Q_FORMS, (None, 1.5)))
    def test_bit_equal_to_library_build(self, space, q_form, alpha):
        entries, weights, matrix = SPACE_FORMS[space]
        q_entry, q = Q_FORMS[q_form]
        raw = good_config()
        raw["model"] = {"n": 4, **entries, "q_diag": q_entry, **({} if alpha is None else {"alpha": alpha})}
        got = validate_config(raw, "bounds").model
        want = build_model(weights, matrix, q)
        if alpha is not None:
            want = fractional_power(want, alpha)
        for name in ("weights", "operator", "eigenvalues", "eigenfunctions", "q_diag", "_analysis"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        assert got.hs_norm_sq.hex() == want.hs_norm_sq.hex()


class TestScheduleSchema:
    def bad(self, sched):
        raw = good_config()
        raw["coeffs"]["gamma"] = sched
        with pytest.raises(SchemaError) as exc:
            validate_config(raw, "bounds")
        return str(exc.value)

    def test_breaks_must_start_at_zero(self):
        assert "must start at 0.0" in self.bad({"breaks": [0.5, 1.0], "values": [1.0, 2.0]})

    def test_breaks_must_increase(self):
        assert "strictly increasing" in self.bad({"breaks": [0.0, 0.0], "values": [1.0, 2.0]})

    def test_values_length(self):
        assert "one value per break" in self.bad({"breaks": [0.0, 1.0], "values": [1.0]})

    def test_junk_schedule(self):
        assert "number or {breaks, values}" in self.bad("linear")


class TestStateAndRun:
    def test_state_length_checked(self):
        raw = good_config()
        raw["x"] = [1.0, 2.0]
        with pytest.raises(SchemaError) as exc:
            validate_config(raw, "bounds")
        assert "must have n = 4 entries" in str(exc.value)

    def test_horizon_must_be_integer_steps(self):
        raw = good_config()
        raw["run"]["dt"] = 0.3
        with pytest.raises(SchemaError) as exc:
            validate_config(raw, "bounds")
        assert "integer number" in str(exc.value)

    def test_invariant_needs_burn_in(self):
        raw = {
            "model": {"n": 4, "q_diag": {"power": -0.5}},
            "coeffs": {"r": 0.5, "gamma": -0.2},
            "run": {"n_paths": 10, "dt": 0.01, "T": 1.0},
        }
        with pytest.raises(SchemaError) as exc:
            validate_config(raw, "invariant")
        assert "burn_in" in str(exc.value)
        raw["run"]["burn_in"] = 0.5
        cfg = validate_config(raw, "invariant")
        assert cfg.run.burn_in == 0.5


class TestTestFunctionSchema:
    def test_indicator_needs_center_and_radius(self):
        raw = good_config()
        del raw["y"]
        raw["test_function"] = {"kind": "indicator_ball"}
        with pytest.raises(SchemaError) as exc:
            validate_config(raw, "simulate")
        msg = str(exc.value)
        assert "test_function.center" in msg
        assert "test_function.radius" in msg

    def test_unknown_kind(self):
        raw = good_config()
        del raw["y"]
        raw["test_function"] = {"kind": "fourier"}
        with pytest.raises(SchemaError) as exc:
            validate_config(raw, "simulate")
        assert "test_function.kind" in str(exc.value)


class TestConditionsSchema:
    def base(self, entries):
        return {
            "model": {"n": 4, "q_diag": {"power": -0.5}},
            "coeffs": {"r": 0.5},
            "conditions": entries,
        }

    def test_model_checks_accepted(self):
        cfg = validate_config(
            self.base([{"check": "hs"}, {"check": "noise_domination", "n_samples": 100}]),
            "conditions",
        )
        assert len(cfg.extras["conditions"]) == 2

    def test_unknown_check_name(self):
        with pytest.raises(SchemaError) as exc:
            validate_config(self.base([{"check": "magic"}]), "conditions")
        assert "conditions[0].check" in str(exc.value)

    def test_required_parameters_per_check(self):
        with pytest.raises(SchemaError) as exc:
            validate_config(self.base([{"check": "fractional_power", "theta": 1.0}]), "conditions")
        msg = str(exc.value)
        for key in ("alpha", "d", "eps"):
            assert f"conditions[0].{key}" in msg

    def test_asymptotic_checks_run_without_model(self):
        raw = {
            "conditions": [
                {"check": "hs", "theta": 1.0, "rho": 2.0, "alpha": 2.0},
                {
                    "check": "spectral_growth",
                    "theta": 0.48,
                    "d": 0.5,
                    "eps": 0.2,
                    "r": 1.0 / 3.0,
                    "sigma": 3.0,
                },
            ]
        }
        cfg = validate_config(raw, "conditions")
        assert cfg.model is None

    def test_rows_are_the_check_signatures(self):
        assert set(CHECKS) == set(config.CONDITION_CHECKS)
        rows = {}
        for k in config._SCHEMA:
            if k.parent != "conditions[]" or k.name in NOT_PARAMETERS:
                continue
            for name in k.commands:
                rows[name, k.name] = k
                params = inspect.signature(CHECKS[name]).parameters
                assert k.name in params, (name, k.name)
                declared = params[k.name].default
                if name not in k.required and (k.default is not None or declared is not inspect.Parameter.empty):
                    assert declared == k.default, (name, k.name)
        for name, fn in CHECKS.items():
            for param in inspect.signature(fn).parameters:
                if param not in ("model", "coeffs"):
                    assert (name, param) in rows, (name, param)

    def test_other_declared_defaults_are_the_signatures(self):
        # the defaults outside the checks that the schema reads from a
        # library signature, each on first use
        owners = {
            "slack": verify_harnack,
            "exponent": estimate_weighted,
            "record_every": run_coupled_ensemble,
            "thin": estimate_invariant,
            "eps0": estimate_invariant,
            "radii": strong_feller_probe,
            "run.seed": EnsembleConfig,
            "run.scheme": EnsembleConfig,
            "run.n_workers": EnsembleConfig,
            "coeffs.delta": CoefficientSet,
            "coeffs.gamma": CoefficientSet,
            "coeffs.xi": CoefficientSet,
        }
        declared = {k.path: k for k in config._SCHEMA if k.declared and k.parent != "conditions[]"}
        assert set(declared) == set(owners)
        for path, fn in owners.items():
            k = declared[path]
            assert k.declared[1:] == (fn.__name__, k.name) and k.given is None, path
            want = inspect.signature(fn).parameters[k.name].default
            assert k.default == (list(want) if isinstance(want, tuple) else want), path
            assert type(k.default) is (list if path == "radii" else type(want)), path

    def test_sigma_without_coeffs_is_left_to_the_check(self):
        entry = {"check": "power_spectrum_window", "theta": 1.0, "d": 1.0, "eps": 0.25, "r": 0.5}
        (values,) = validate_config({"conditions": [entry]}, "conditions").extras["conditions"]
        assert values["sigma"] is None and values["alpha"] is None
        # an entry with its own r leaves sigma to the check under a coeffs block too
        (values,) = validate_config(self.base([entry]), "conditions").extras["conditions"]
        assert values["sigma"] is None

    def test_entry_without_r_takes_the_coeffs_sigma(self):
        raw = self.base([{"check": "spectral_growth", "theta": 0.4, "d": 0.5, "eps": 0.2}])
        raw["coeffs"]["sigma"] = 5.0
        (values,) = validate_config(raw, "conditions").extras["conditions"]
        assert (values["r"], values["sigma"]) == (0.5, 5.0)

    def test_model_checks_need_model_block(self):
        raw = {"conditions": [{"check": "embedding"}]}
        with pytest.raises(SchemaError) as exc:
            validate_config(raw, "conditions")
        assert "needs a 'model' block" in str(exc.value)


# --- one rejection message per check ---------------------------------------

def base_doc(command):
    """A valid document for command."""
    if command == "conditions":
        return {"model": {"n": 4, "q_diag": {"power": -0.5}}, "coeffs": {"r": 0.5, "gamma": -0.2},
                "conditions": [{"check": "hs"}]}
    doc = good_config()
    if command in ("simulate", "probe-feller"):
        del doc["y"]
    return doc


def amend(doc, path, value):
    """doc with the value at a dotted path (a list index as a number) set
    to value; the empty path replaces the whole document."""
    if not path:
        return value
    *parents, last = path.split(".")
    node = doc
    for key in parents:
        node = node[int(key) if isinstance(node, list) else key]
    node[int(last) if isinstance(node, list) else last] = value
    return doc


SANDWICH = {"check": "noise_sandwich", "eps": 0.25, "alpha_decay": 0.9}
WINDOW = {"check": "power_spectrum_window", "theta": 1.0, "d": 1.0, "eps": 0.25}


class TestRejectionMessages:
    @pytest.mark.parametrize("command, path, value, line", [
        ("bounds", "run.n_paths", 1.5, "run.n_paths: must be an integer"),
        ("conditions", "conditions.0", {**SANDWICH, "use_model": 1},
         "conditions[0].use_model: must be a boolean"),
        ("bounds", "run.scheme", "rk4", "run.scheme: must be one of ['tamed_euler', 'explicit_euler']"),
        ("probe-feller", "radii", [0.1, -0.1], "radii: must be a nonempty list of numbers > 0"),
        ("bounds", "x", "origin", "x: must be a list of finite numbers (optionally under 'spectral')"),
        ("bounds", "x", {"spectral": [1.0, None, 0.0, 0.0]},
         "x.spectral: must be a list of finite numbers (optionally under 'spectral')"),
        ("bounds", "coeffs.delta", {"breaks": 0.0, "values": [1.0]},
         "coeffs.delta.breaks: must be a nonempty list of finite numbers"),
        ("bounds", "coeffs.delta", {"breaks": [0.0], "values": []},
         "coeffs.delta.values: must be a nonempty list of finite numbers"),
        ("bounds", "coeffs.delta", {"breaks": [0.0, 0.1], "values": [1.0, -1.0]},
         "coeffs.delta.values: must be > 0"),
        ("bounds", "model.measure", [0.5, -0.5, 0.5, 0.5],
         'model.measure: must be "uniform" or a list of positive weights'),
        ("bounds", "model.operator", "laplace", 'model.operator: must be "dirichlet1d" or {"matrix": [[...]]}'),
        ("bounds", "model.operator", {"matrix": [[1.0, 2.0]]},
         "model.operator.matrix: must be a square matrix of finite numbers"),
        ("bounds", "model.operator", {"matrix": [[-2.0, 1.0], [1.0, -2.0]]},
         "model.operator.matrix: must be 4 x 4"),
        ("bounds", "model.q_diag", {"power": "half"}, "model.q_diag.power: must be a finite number"),
        ("bounds", "model.q_diag", 0.5, 'model.q_diag: must be {"power": p} or a list'),
        ("bounds", "model.q_diag", [1.0, 0.0, 1.0, 1.0], "model.q_diag: entries must be finite and nonzero"),
        ("simulate", "test_function", "exp_neg_h_sq", "test_function: must be an object with a 'kind'"),
        ("conditions", "conditions.0", "hs", "conditions[0]: must be an object"),
        ("conditions", "", {"model": {"n": 4, "q_diag": {"power": -0.5}}, "conditions": [WINDOW]},
         "conditions[0].r: is required for check 'power_spectrum_window' without a 'coeffs' block"),
        ("conditions", "conditions", [], "conditions: must be a nonempty list of checks"),
    ])
    def test_one_line_per_violation(self, command, path, value, line):
        validate_config(base_doc(command), command)
        with pytest.raises(SchemaError) as exc:
            validate_config(amend(base_doc(command), path, value), command)
        assert str(exc.value) == f"configuration invalid: {line}"
