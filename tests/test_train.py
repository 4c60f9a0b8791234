"""Trainer: Adam mechanics, determinism, convergence, gradient audits."""

import numpy as np
import pytest

from hydrodr import ipm
from hydrodr.builder import build_second_stage, default_deviation_penalty, extract_duals
from hydrodr.policy import init_params, pack, spec_for_case
from hydrodr.scenarios import make_lattice, sample_paths, split
from hydrodr.train import (AdamState, GradcheckReport, TrainConfig, TrainingError,
                           adam_step, gradcheck, train, validate)

from conftest import build_cascade_case, build_tiny_case


def small_config(**over):
    base = dict(epochs=10, batch_size=4, lr=1e-2, n_val=6, eval_every=2,
                latent_dim=6, hidden_layers=1, seed=0, patience=50)
    base.update(over)
    return TrainConfig(**base)


def test_adam_first_step_identity():
    cfg = TrainConfig(lr=0.01)
    state = AdamState.zeros(3)
    g = np.array([0.5, -2.0, 0.0])
    vec = np.zeros(3)
    out = adam_step(vec, g, state, cfg)
    # bias correction makes m_hat = g and v_hat = g^2 on the first step
    expected = -cfg.lr * g / (np.abs(g) + cfg.adam_eps)
    assert out == pytest.approx(expected, abs=1e-12)
    assert state.t == 1


def test_adam_zero_gradient_zero_update():
    cfg = TrainConfig(lr=0.1)
    state = AdamState.zeros(4)
    vec = np.arange(4.0)
    out = adam_step(vec, np.zeros(4), state, cfg)
    assert np.array_equal(out, vec)


def test_adam_nan_gradient_skipped():
    cfg = TrainConfig()
    state = AdamState.zeros(2)
    vec = np.ones(2)
    out = adam_step(vec, np.array([np.nan, 1.0]), state, cfg)
    assert np.array_equal(out, vec)
    assert state.skipped == 1
    assert state.t == 0


def test_config_validation():
    with pytest.raises(TrainingError):
        TrainConfig(batch_size=0).validate()
    with pytest.raises(TrainingError):
        TrainConfig(lr=-1.0).validate()
    with pytest.raises(TrainingError):
        TrainConfig(beta1=1.0).validate()
    with pytest.raises(TrainingError):
        TrainConfig(c_delta=0.0).validate()


def test_zero_learning_rate_freezes_parameters():
    case = build_tiny_case(horizon=3)
    lat = make_lattice(case, 1)       # deterministic process: flat loss trace
    cfg = small_config(epochs=3, lr=0.0, n_val=0)
    params, report = train(case, lat, "ts-ddr", cfg)
    assert np.array_equal(pack(params), pack(init_params(params.spec, cfg.seed)))
    losses = [r.train_loss for r in report.rows]
    assert max(losses) - min(losses) <= 1e-9 * (1 + abs(losses[0]))


def test_zero_epochs_initial_eval_only():
    case = build_tiny_case(horizon=3)
    lat = make_lattice(case, 2)
    params, report = train(case, lat, "ts-ddr", small_config(epochs=0, n_val=4))
    assert len(report.rows) == 1
    assert report.rows[0].epoch == 0
    assert np.isfinite(report.best_val)


def test_training_determinism():
    case = build_tiny_case(horizon=3)
    lat = make_lattice(case, 3)
    cfg = small_config(epochs=6)
    p1, r1 = train(case, lat, "ts-ddr", cfg)
    p2, r2 = train(case, lat, "ts-ddr", cfg)
    assert np.array_equal(pack(p1), pack(p2))
    for a, b in zip(r1.rows, r2.rows):
        np.testing.assert_equal(a.train_loss, b.train_loss)   # NaN-safe equality
        assert a.grad_norm == b.grad_norm
        assert a.val_mean == b.val_mean


def test_worker_count_does_not_change_results():
    case = build_tiny_case(horizon=3)
    lat = make_lattice(case, 3)
    p1, r1 = train(case, lat, "ts-ldr", small_config(epochs=4, workers=1))
    p2, r2 = train(case, lat, "ts-ldr", small_config(epochs=4, workers=3))
    assert np.array_equal(pack(p1), pack(p2))
    np.testing.assert_equal([r.train_loss for r in r1.rows],
                            [r.train_loss for r in r2.rows])


def test_validation_is_pure(tiny_case):
    case = tiny_case
    lat = make_lattice(case, 3)
    spec = spec_for_case(case, "ts-ddr", latent_dim=6)
    params = init_params(spec, 0)
    before = pack(params).copy()
    _, _, paths = split(lat, 1, 0, 5, seed=0)
    mean, std = validate(params, case, paths, default_deviation_penalty(case))
    assert np.isfinite(mean) and np.isfinite(std)
    assert np.array_equal(pack(params), before)


def test_validation_equals_train_loss_on_deterministic_case():
    case = build_tiny_case(horizon=3)
    det = make_lattice(case, 1)          # single path: train loss == val cost
    cfg = small_config(epochs=2, batch_size=2, n_val=2, eval_every=1, lr=0.0)
    params, report = train(case, det, "ts-ddr", cfg)
    row = report.rows[-1]
    assert row.val_mean == pytest.approx(row.train_loss, rel=1e-9)


def test_training_on_historical_paths():
    """Historical mode feeds whole inflow rows through the same loop."""
    case = build_tiny_case(horizon=3)
    rng = np.random.default_rng(0)
    rows = rng.uniform(0.0, 4.0, size=(12, 3, 1))
    from hydrodr.scenarios import ScenarioSet
    hist = ScenarioSet.historical(rows)
    params, report = train(case, hist, "ts-ddr",
                           small_config(epochs=3, batch_size=4, n_val=4, eval_every=1))
    assert report.solver_failures == 0
    assert len(report.rows) == 4          # initial eval + 3 epochs


def test_deterministic_instance_trains_to_extensive_optimum():
    """Single-scenario problem: the deep rule should land within 1% of the
    extensive-form LP optimum."""
    case = build_tiny_case(horizon=4, demand=5.0, v0=5.0)
    det = make_lattice(case, 1)
    path = sample_paths(det, 1, seed=0)[0]
    from hydrodr.builder import build_extensive
    ext = ipm.solve(build_extensive(case, path)[0], tol=1e-10).objective

    cfg = TrainConfig(epochs=150, batch_size=2, lr=2e-2, latent_dim=8,
                      hidden_layers=1, n_val=1, eval_every=5, patience=30, seed=0)
    params, report = train(case, det, "ts-ddr", cfg)
    stats_mean, _ = validate(params, case, sample_paths(det, 1, seed=1),
                             default_deviation_penalty(case))
    assert stats_mean <= ext * 1.01
    assert stats_mean >= ext - 1e-6 * ext     # the optimum is a lower bound


def test_training_descends_on_convex_toy():
    case = build_cascade_case(horizon=4)
    lat = make_lattice(case, 3)
    cfg = small_config(epochs=25, batch_size=8, n_val=12, eval_every=5,
                       lr=2e-2, latent_dim=8)
    params, report = train(case, lat, "ts-ddr", cfg)
    first_val = report.rows[0].val_mean
    assert report.best_val <= first_val + 1e-9


def test_abort_when_too_many_solves_fail(monkeypatch):
    case = build_tiny_case(horizon=3)
    lat = make_lattice(case, 2)
    from hydrodr.lp import SolveResult
    real_solve = ipm.solve
    calls = {"n": 0}

    def flaky(lp, **kw):
        calls["n"] += 1
        if calls["n"] % 2 == 0:
            return SolveResult(status="iteration_limit")
        return real_solve(lp, **kw)

    monkeypatch.setattr("hydrodr.train.ipm.solve", flaky)
    with pytest.raises(TrainingError, match="failed"):
        train(case, lat, "ts-ddr", small_config(epochs=2, batch_size=4, n_val=0))


def test_failed_solves_renormalize_batch(monkeypatch):
    case = build_tiny_case(horizon=3)
    lat = make_lattice(case, 2)
    from hydrodr.lp import SolveResult
    real_solve = ipm.solve
    calls = {"n": 0}

    def one_failure(lp, **kw):
        calls["n"] += 1
        if calls["n"] == 2:
            return SolveResult(status="iteration_limit")
        return real_solve(lp, **kw)

    monkeypatch.setattr("hydrodr.train.ipm.solve", one_failure)
    cfg = small_config(epochs=1, batch_size=8, n_val=0, max_failed_frac=0.2)
    params, report = train(case, lat, "ts-ddr", cfg)
    assert report.solver_failures == 1
    assert np.isfinite(report.rows[-1].train_loss)


def test_rejected_duals_count_as_failed_solve(monkeypatch):
    from hydrodr import train as train_mod
    from hydrodr.policy import Policy
    case = build_tiny_case(horizon=3)
    paths = sample_paths(make_lattice(case, 2), 4, seed=0)
    policy = Policy(init_params(spec_for_case(case, "ts-ddr", latent_dim=6,
                                              hidden_layers=1), seed=0))
    c_delta = default_deviation_penalty(case)
    grads = []
    for path in paths:
        targets, tape = policy.rollout_with_tape(path)
        prob = build_second_stage(case, path, targets, c_delta)
        res = ipm.solve(prob.lp)
        grads.append(policy.gradient(path, tape, extract_duals(prob, res).lam))

    calls = {"n": 0}

    def reject_second(prob, res):
        calls["n"] += 1
        if calls["n"] == 2:
            raise ValueError("non-finite dual in target rows")
        return extract_duals(prob, res)

    monkeypatch.setattr(train_mod, "extract_duals", reject_second)
    grad, loss, n_failed = train_mod._batch_pass(case, policy, paths, c_delta,
                                                 loss_cuts=11, tol=1e-8)
    assert n_failed == 1
    assert np.isfinite(loss)
    np.testing.assert_allclose(grad, np.mean([grads[0], grads[2], grads[3]], axis=0),
                               rtol=1e-12, atol=0.0)


def test_gradcheck_linear_rule_near_exact():
    case = build_cascade_case(horizon=4)
    lat = make_lattice(case, 3)
    spec = spec_for_case(case, "ts-ldr")
    params = init_params(spec, 0)
    _, _, paths = split(lat, 1, 0, 1, seed=2)
    report = gradcheck(case, paths[0], params, n_coords=15, eps=0.05,
                       rel_tol=1e-6, seed=3)
    assert report.pass_rate >= 0.99
    assert isinstance(report, GradcheckReport)


def test_gradcheck_deep_rule():
    case = build_cascade_case(horizon=4)
    lat = make_lattice(case, 3)
    spec = spec_for_case(case, "ts-ddr", latent_dim=8, hidden_layers=2)
    params = init_params(spec, 1)
    _, _, paths = split(lat, 1, 0, 1, seed=4)
    report = gradcheck(case, paths[0], params, n_coords=20, eps=1e-4,
                       rel_tol=1e-2, seed=5)
    assert report.pass_rate >= 0.9
    doc = report.as_dict()
    assert doc["n_coords"] == 20
    assert 0.0 <= doc["pass_rate"] <= 1.0


def test_subgradient_inequality_sample():
    rng = np.random.default_rng(77)
    case = build_cascade_case(horizon=4)
    c_delta = default_deviation_penalty(case)
    lat = make_lattice(case, 3)
    path = sample_paths(lat, 1, seed=6)[0]
    for _ in range(10):
        base = rng.uniform(0.1, 1.2, size=(4, 2)) * case.vmax()
        other = rng.uniform(0.1, 1.2, size=(4, 2)) * case.vmax()
        prob = build_second_stage(case, path, base, c_delta)
        res = ipm.solve(prob.lp, tol=1e-9)
        lam = extract_duals(prob, res).lam
        prob2 = build_second_stage(case, path, other, c_delta)
        res2 = ipm.solve(prob2.lp, tol=1e-9)
        lhs = res2.objective
        rhs = res.objective + float(np.sum(lam * (other - base)))
        assert lhs >= rhs - 1e-6 * abs(res.objective)
