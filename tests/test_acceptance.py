"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The comparison-scale
artifacts (SDDP baseline plus both trained policies on the 2-hydro,
12-stage lattice case) are built once per session and shared by the
criteria that need them.
"""

import time

import numpy as np
import pytest

from hydrodr import ipm
from hydrodr.builder import (build_extensive, build_second_stage,
                             default_deviation_penalty, evaluate_policy_cost,
                             extract_duals, solve_second_stage)
from hydrodr.cli import main as cli_main
from hydrodr.model import extend_case, save_case
from hydrodr.policy import Policy, init_params, spec_for_case
from hydrodr.scenarios import make_lattice, sample_paths, split
from hydrodr.sddp import sddp_train, simulate_paths
from hydrodr.train import TrainConfig, gradcheck, train

from conftest import build_cascade_case, build_tiny_case
from oracles import grid_dp_value, random_lthd, random_path


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def comparison():
    """SDDP + trained deep and linear rules on the comparison case,
    evaluated on one shared 200-path test set."""
    case = build_cascade_case(horizon=12)
    lattice = make_lattice(case, 3, spread=0.6)
    c_delta = default_deviation_penalty(case)
    _, _, test_paths = split(lattice, 1, 0, 200, seed=0)

    t0 = time.perf_counter()
    state, lb = sddp_train(case, lattice, iters=40, seed=0)
    sddp_sim = simulate_paths(state, case, test_paths)
    sddp_seconds = time.perf_counter() - t0

    ddr_cfg = TrainConfig(epochs=200, batch_size=32, lr=1e-2, latent_dim=16,
                          hidden_layers=2, n_val=48, eval_every=5, patience=10, seed=0)
    ddr_params, ddr_report = train(case, lattice, "ts-ddr", ddr_cfg)
    ddr_stats = evaluate_policy_cost(case, test_paths, Policy(ddr_params), c_delta)

    ldr_cfg = TrainConfig(epochs=120, batch_size=32, lr=2e-2, n_val=48,
                          eval_every=5, patience=10, seed=0)
    ldr_params, ldr_report = train(case, lattice, "ts-ldr", ldr_cfg)
    ldr_stats = evaluate_policy_cost(case, test_paths, Policy(ldr_params), c_delta)

    return {
        "case": case, "lattice": lattice, "c_delta": c_delta,
        "test_paths": test_paths, "state": state, "lb": lb,
        "sddp_sim": sddp_sim, "sddp_seconds": sddp_seconds,
        "ddr_params": ddr_params, "ddr_stats": ddr_stats,
        "ldr_params": ldr_params, "ldr_stats": ldr_stats,
    }


def ipm_second_stage(case, path, targets, c_delta, tol):
    """The second-stage LP built from scratch and solved by the
    interior-point oracle."""
    prob = build_second_stage(case, path, targets, c_delta)
    return prob, ipm.solve(prob.lp, tol=tol)


def production_second_stage(case, path, targets, c_delta, tol):
    """The second-stage LP as training and evaluation solve it."""
    return solve_second_stage(case, path, targets, c_delta, tol=tol)


def test_criterion_1_dual_gradient_law():
    """FD of the implementation cost in every target coordinate matches the
    extracted dual on 50 random convex instances."""
    check_dual_gradient_law(ipm_second_stage, "interior-point oracle")


def test_criterion_1_dual_gradient_law_production_solver():
    check_dual_gradient_law(production_second_stage, "production HiGHS model")


def check_dual_gradient_law(solve, label):
    t_start = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = excluded = failed = 0
    worst = 0.0
    for _ in range(50):
        case = random_lthd(rng, max_hydros=3, max_horizon=8)
        path = random_path(case, rng)
        c_delta = default_deviation_penalty(case)
        targets = rng.uniform(0.15, 0.95, size=(case.horizon, case.n_hydros)) * case.vmax()
        prob, res = solve(case, path, targets, c_delta, 1e-10)
        assert res.optimal
        lam = extract_duals(prob, res).lam
        eps = 1e-4
        for t in range(case.horizon):
            for j in range(case.n_hydros):
                bump = np.zeros_like(targets)
                bump[t, j] = eps
                pu, ru = solve(case, path, targets + bump, c_delta, 1e-10)
                pd, rd = solve(case, path, targets - bump, c_delta, 1e-10)
                if not (ru.optimal and rd.optimal):
                    excluded += 1
                    continue
                jump = np.max(np.abs(extract_duals(pu, ru).lam - extract_duals(pd, rd).lam))
                if jump > 0.5 * c_delta:
                    excluded += 1
                    continue
                fd = (ru.objective - rd.objective) / (2 * eps)
                tol = max(1e-3, 1e-3 * abs(lam[t, j]))
                err = abs(fd - lam[t, j])
                worst = max(worst, err / tol)
                if err > tol:
                    failed += 1
                else:
                    checked += 1
    runtime = time.perf_counter() - t_start
    total = checked + excluded + failed
    ok = (failed == 0 and excluded <= 0.10 * total and runtime < 300)
    report(1, ok, f"{label}: {checked}/{total} coords matched (worst err/tol {worst:.3f}), "
                  f"{excluded} kink-excluded ({100 * excluded / total:.1f}%), "
                  f"{failed} failed, {runtime:.0f}s")


def test_criterion_2_end_to_end_gradcheck():
    """Pipeline gradient (duals through the policy VJP) vs end-to-end FD."""
    t_start = time.perf_counter()
    case = build_cascade_case(horizon=6)
    lattice = make_lattice(case, 3)
    _, _, paths = split(lattice, 1, 0, 1, seed=7)
    path = paths[0]

    ddr = init_params(spec_for_case(case, "ts-ddr", latent_dim=12, hidden_layers=2), seed=1)
    rep_ddr = gradcheck(case, path, ddr, n_coords=40, eps=1e-4, rel_tol=1e-2, seed=2)
    ldr = init_params(spec_for_case(case, "ts-ldr"), seed=1)
    rep_ldr = gradcheck(case, path, ldr, n_coords=40, eps=0.05, rel_tol=1e-6, seed=3)
    runtime = time.perf_counter() - t_start
    ok = (rep_ddr.pass_rate >= 0.90 and rep_ldr.pass_rate >= 0.99 and runtime < 300)
    report(2, ok, f"deep rule {rep_ddr.pass_rate:.1%} at 1e-2 "
                  f"({rep_ddr.n_kink} kinks), linear rule {rep_ldr.pass_rate:.1%} "
                  f"at 1e-6 ({rep_ldr.n_kink} kinks), {runtime:.0f}s")


def test_criterion_3_subgradient_inequality():
    """Q(w, x') >= Q(w, x) + lam . (x' - x) on random target pairs."""
    check_subgradient_inequality(ipm_second_stage, "interior-point oracle")


def test_criterion_3_subgradient_inequality_production_solver():
    check_subgradient_inequality(production_second_stage, "production HiGHS model")


def check_subgradient_inequality(solve, label):
    rng = np.random.default_rng(99)
    violations = 0
    pairs = 0
    for _ in range(5):
        case = random_lthd(rng, max_hydros=2, max_horizon=6)
        path = random_path(case, rng)
        c_delta = default_deviation_penalty(case)
        for _ in range(20):
            base = rng.uniform(0.0, 1.4, size=(case.horizon, case.n_hydros)) * case.vmax()
            prob, res = solve(case, path, base, c_delta, 1e-9)
            assert res.optimal
            lam = extract_duals(prob, res).lam
            for _ in range(10):
                other = rng.uniform(0.0, 1.4, size=base.shape) * case.vmax()
                prob2, res2 = solve(case, path, other, c_delta, 1e-9)
                assert res2.optimal
                lhs = res2.objective
                rhs = res.objective + float(np.sum(lam * (other - base)))
                pairs += 1
                if lhs < rhs - 1e-6 * abs(res.objective):
                    violations += 1
    ok = violations == 0 and pairs >= 1000
    report(3, ok, f"{label}: {pairs} target pairs over 5 instances, {violations} violations")


def test_criterion_4_sddp_exactness():
    t_start = time.perf_counter()
    # deterministic instance: bound and simulation vs the extensive form
    case = build_cascade_case(horizon=6)
    det = make_lattice(case, 1)
    state, lb = sddp_train(case, det, iters=15, seed=0)
    path = sample_paths(det, 1, seed=0)[0]
    ext = ipm.solve(build_extensive(case, path)[0], tol=1e-10).objective
    sim = simulate_paths(state, case, sample_paths(det, 3, seed=1))
    det_bound_err = abs(lb - ext) / ext
    det_sim_err = abs(sim.mean_cost - ext) / ext

    # stochastic 1-hydro toy vs the 200-point grid DP oracle
    toy = build_tiny_case(horizon=4, demand=5.0, v0=5.0)
    lattice = make_lattice(toy, 3, spread=0.6)
    state2, lb2 = sddp_train(toy, lattice, iters=30, seed=0)
    oracle = grid_dp_value(toy, lattice, n_grid=200)
    stoch_err = abs(lb2 - oracle) / oracle
    runtime = time.perf_counter() - t_start
    ok = (det_bound_err < 1e-3 and det_sim_err < 1e-3 and stoch_err < 5e-3
          and runtime < 600)
    report(4, ok, f"deterministic bound err {det_bound_err:.2e}, simulated err "
                  f"{det_sim_err:.2e}, stochastic vs 200-pt grid DP err "
                  f"{stoch_err:.2e}, {runtime:.0f}s")


def test_criterion_5_three_method_comparison(comparison):
    lb = comparison["lb"]
    ddr_cost = comparison["ddr_stats"].mean_cost
    ldr_cost = comparison["ldr_stats"].mean_cost
    best = min(lb, ddr_cost, ldr_cost, comparison["sddp_sim"].mean_cost)
    ddr_gap = 100.0 * (ddr_cost - lb) / lb
    ldr_gap = 100.0 * (ldr_cost - lb) / lb
    ok = (ddr_gap <= 5.0 and ldr_gap >= ddr_gap - 1.0)
    report(5, ok, f"SDDP lb {lb:.2f}, simulated {comparison['sddp_sim'].mean_cost:.2f}; "
                  f"deep rule {ddr_cost:.2f} (gap {ddr_gap:.2f}%), linear rule "
                  f"{ldr_cost:.2f} (gap {ldr_gap:.2f}%)")


def test_criterion_6_time_invariance_generalization(comparison):
    case12 = comparison["case"]
    case24 = extend_case(case12, 24)
    lattice24 = make_lattice(case24, 3, spread=0.6)
    _, _, paths24 = split(lattice24, 1, 0, 50, seed=5)
    c_delta = comparison["c_delta"]
    stats24 = evaluate_policy_cost(case24, paths24, Policy(comparison["ddr_params"]),
                                   c_delta)
    per_stage_12 = comparison["ddr_stats"].mean_cost / 12.0
    per_stage_24 = stats24.mean_cost / 24.0
    drift = abs(per_stage_24 - per_stage_12) / per_stage_12
    ok = stats24.n_failed == 0 and drift <= 0.25
    report(6, ok, f"T=12 per-stage {per_stage_12:.3f} vs T=24 per-stage "
                  f"{per_stage_24:.3f} (drift {100 * drift:.1f}%), "
                  f"{stats24.n_failed} failures")


def test_criterion_7_inference_speed_ordering(comparison):
    ddr_per_decision = comparison["ddr_stats"].rollout_seconds_per_decision
    sddp_per_decision = comparison["sddp_sim"].seconds_per_stage_solve
    ratio = ddr_per_decision / sddp_per_decision
    ok = ratio <= 0.01
    report(7, ok, f"deep-rule inference {1e6 * ddr_per_decision:.0f} us/decision vs "
                  f"SDDP stage solve {1e3 * sddp_per_decision:.1f} ms/decision "
                  f"(ratio 1/{1 / max(ratio, 1e-12):.0f})")


def test_criterion_8_relatively_complete_recourse(comparison):
    case = comparison["case"]
    c_delta = comparison["c_delta"]
    rng = np.random.default_rng(4)
    path = comparison["test_paths"][0]
    failures = 0
    for _ in range(1000):
        targets = rng.uniform(-1.0, 3.0, size=(case.horizon, case.n_hydros)) * case.vmax()
        prob = build_second_stage(case, path, targets, c_delta)
        res = ipm.solve(prob.lp)
        if not res.optimal:
            failures += 1
    ok = failures == 0
    report(8, ok, f"1000 random target matrices in [-vmax, 3vmax], {failures} infeasible")


def test_criterion_9_compare_determinism(tmp_path):
    case = build_cascade_case(horizon=4)
    save_case(case, tmp_path / "case.json")
    shared = ["--case", str(tmp_path / "case.json"), "--lattice-points", "2",
              "--seed", "1", "--test", "4"]
    train_args = ["--epochs", "2", "--batch", "2", "--val", "2",
                  "--eval-every", "1", "--latent", "4"]
    assert cli_main(["train", "--model", "ts-ddr", "--out", str(tmp_path / "ddr"),
                     *shared, *train_args]) == 0
    assert cli_main(["train", "--model", "ts-ldr", "--out", str(tmp_path / "ldr"),
                     *shared, *train_args]) == 0
    assert cli_main(["sddp", "--iters", "3", "--out", str(tmp_path / "sddp"),
                     *shared]) == 0
    runs = [str(tmp_path / d) for d in ("ddr", "ldr", "sddp")]
    assert cli_main(["compare", *runs, "--out", str(tmp_path / "cmp1")]) == 0
    assert cli_main(["compare", *runs, "--out", str(tmp_path / "cmp2")]) == 0
    csv1 = (tmp_path / "cmp1" / "compare.csv").read_bytes()
    csv2 = (tmp_path / "cmp2" / "compare.csv").read_bytes()
    evals = [(tmp_path / d / "eval.csv").read_bytes() for d in ("ddr", "ldr", "sddp")]
    ok = csv1 == csv2 and all(evals)
    report(9, ok, f"compare.csv identical across reruns ({len(csv1)} bytes); "
                  f"eval CSVs present for all three runs")
