"""Config validation: every violation reported in one pass, strict keys."""

import numpy as np
import pytest

from fastdiffusion import (
    CoefficientSet,
    EnsembleConfig,
    SchemaError,
    SpectralModel,
    from_spectral,
    validate_config,
)


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

    def test_model_checks_need_model_block(self):
        raw = {"conditions": [{"check": "embedding"}]}
        with pytest.raises(SchemaError) as exc:
            validate_config(raw, "conditions")
        assert "needs a 'model' block" in str(exc.value)
