"""Each correctness check passes on genuine data and rejects corrupted data."""

import numpy as np
import pytest

import checks
from hydrodr import builder, ipm, model, policy, scenarios


@pytest.fixture(scope="module")
def solved():
    case = model.synthesize_case(6, 2, seed=1, horizon=4)
    lattice = scenarios.make_lattice(case, 3)
    path = scenarios.sample_paths(lattice, 1, seed=3)[0]
    pol = policy.Policy(policy.init_params(policy.spec_for_case(case, "ts-ddr"), seed=0))
    c_delta = builder.default_deviation_penalty(case)
    prob = builder.build_second_stage(case, path, pol.rollout(path), c_delta)
    res = ipm.solve(prob.lp)
    assert res.optimal
    return case, path, prob, res, c_delta


def test_objectives_reject_shifted_objective(solved):
    _, _, prob, res, _ = solved
    ref = [checks.highs_objective(prob.lp)]
    assert checks.objectives_agree("lp", [res.objective], ref) == []
    assert checks.objectives_agree("lp", [res.objective * (1 + 1e-4)], ref)
    assert checks.objectives_agree("lp", [], ref)


def test_mean_rejects_shifted_mean():
    assert checks.mean_matches("cost", 2.0, [1.0, 3.0]) == []
    assert checks.mean_matches("cost", 2.0 * (1 + 1e-4), [1.0, 3.0])


def _subgradient(prob, res, lam):
    rows = prob.target_rows.ravel()
    deltas = checks.perturbations(prob.lp.b_eq[rows], pairs=2, seed=0)
    perturbed = []
    for d in deltas:
        b = prob.lp.b_eq.copy()
        b[rows] += d
        perturbed.append(checks.highs_objective(prob.lp, b_eq=b))
    return checks.subgradient_holds("targets", res.objective, lam, deltas, perturbed)


def test_subgradient_rejects_sign_flipped_dual(solved):
    _, _, prob, res, _ = solved
    lam = res.y_eq[prob.target_rows.ravel()]
    assert np.max(np.abs(lam)) > 0
    assert _subgradient(prob, res, lam) == []
    assert _subgradient(prob, res, -lam)


def test_dual_bound_rejects_dual_above_penalty(solved):
    _, _, prob, res, c_delta = solved
    lam = res.y_eq[prob.target_rows.ravel()]
    assert checks.duals_within_penalty("targets", lam, c_delta) == []
    bad = lam.copy()
    bad[0] = 1.01 * c_delta
    assert checks.duals_within_penalty("targets", bad, c_delta)


def test_foresight_rejects_cost_below_optimum(solved):
    case, path, _, res, _ = solved
    lp, _ = builder.build_extensive(case, path)
    pf = checks.highs_objective(lp)
    assert checks.above_foresight("path", [res.objective], [pf]) == []
    assert checks.above_foresight("path", [pf * (1 - 1e-4)], [pf])


def test_bound_trace_rejects_decrease():
    assert checks.bound_nondecreasing([1.0, 2.0, 2.0, 3.0]) == []
    assert checks.bound_nondecreasing([1.0, 2.0, 1.9, 3.0])


def test_sandwich_rejects_bound_above_simulation():
    costs = [10.0, 11.0, 12.0, 13.0]
    assert checks.bound_below_simulation(11.0, costs) == []
    assert checks.bound_below_simulation(20.0, costs)


def test_highs_reports_infeasible_as_inf():
    from hydrodr.lp import LinearProgram
    lp = LinearProgram(c=[1.0], a_eq=[[1.0]], b_eq=[5.0], lb=[0.0], ub=[1.0])
    assert checks.highs_objective(lp) == float("inf")
