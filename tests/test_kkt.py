"""The stacked KKT recheck (`lp.KktCheck`) against the per-solution
reference in `oracles.check_kkt_one`, at optimal and at perturbed points."""

import numpy as np
import pytest

from hydrodr import ipm
from hydrodr.builder import build_second_stage, default_deviation_penalty, solve_second_stage
from hydrodr.lp import KktCheck, LinearProgram, SolveResult, check_kkt

from oracles import check_kkt_one, random_lthd, random_path

RTOL = 1e-12
ATOL = 1e-14     # normalized residuals of an optimum are ~1e-16: no relative scale


def _perturbed(rng, res, lp, scale):
    """A non-optimal point near ``res`` that moves x, every dual and the
    bound duals of columns with an infinite bound."""
    return SolveResult(status="optimal",
                       x=res.x + scale * rng.normal(size=lp.n_vars),
                       y_eq=res.y_eq + scale * rng.normal(size=lp.n_eq),
                       y_in=res.y_in + scale * rng.normal(size=lp.n_in),
                       z=res.z + scale * rng.normal(size=lp.n_vars))


def _assert_stack_matches(template, lps, results):
    """KktCheck on the stack equals the reference on each solution, and
    check_kkt (the stack of one) equals it too."""
    stack = KktCheck(template).residuals(
        np.array([lp.b_eq for lp in lps]).reshape(len(lps), template.n_eq),
        *(np.array([getattr(r, f) for r in results]).reshape(len(results), -1)
          for f in ("x", "y_eq", "y_in", "z")))
    ref = np.array([check_kkt_one(lp, r) for lp, r in zip(lps, results)])
    assert stack.shape == (len(lps), 3)
    np.testing.assert_allclose(stack, ref, rtol=RTOL, atol=ATOL)
    for lp, r, row in zip(lps, results, ref):
        np.testing.assert_allclose(check_kkt(lp, r), row, rtol=RTOL, atol=ATOL)


@pytest.mark.parametrize("batch", [1, 3, 32])
def test_stacked_kkt_matches_reference_on_random_second_stage_lps(batch):
    rng = np.random.default_rng(batch)
    for _ in range(3):
        case = random_lthd(rng, max_hydros=3, max_horizon=5)
        c_delta = default_deviation_penalty(case)
        vmax = case.vmax()
        lps, results = [], []
        for _ in range(batch):
            path = random_path(case, rng)
            targets = rng.uniform(-0.2, 1.7, size=(case.horizon, case.n_hydros)) * vmax
            prob, res = solve_second_stage(case, path, targets, c_delta)
            assert res.optimal
            lps.append(prob.lp)
            results.append(res)
        _assert_stack_matches(lps[0], lps, results)
        far = [_perturbed(rng, r, lp, 1e-3 * (1.0 + k))
               for k, (lp, r) in enumerate(zip(lps, results))]
        _assert_stack_matches(lps[0], lps, far)


def test_stacked_kkt_matches_reference_on_interior_point_solutions():
    rng = np.random.default_rng(5)
    case = random_lthd(rng, max_hydros=2, max_horizon=4)
    prob = build_second_stage(case, random_path(case, rng),
                              np.tile(case.v0(), (case.horizon, 1)),
                              default_deviation_penalty(case))
    res = ipm.solve(prob.lp, tol=1e-10)
    assert res.optimal
    _assert_stack_matches(prob.lp, [prob.lp] * 3,
                          [res] + [_perturbed(rng, res, prob.lp, s) for s in (1e-6, 1e-1)])


def _hand_built():
    """LPs of tests/test_ipm.py: infinite upper bounds and no inequality
    rows; a fixed column next to free-above deviation columns; a fixed
    column that empties an equality row; bounds only."""
    return [
        LinearProgram(c=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0], lb=[0.0, 0.0]),
        LinearProgram(c=[0.0, 1.0, 1.0], a_eq=[[1.0, 1.0, -1.0]], b_eq=[5.0],
                      lb=[2.0, 0.0, 0.0], ub=[2.0, np.inf, np.inf]),
        LinearProgram(c=[1.0, 1.0], a_eq=[[1.0, 1.0], [0.0, 1.0]], b_eq=[4.0, 2.0],
                      lb=[0.0, 2.0], ub=[10.0, 2.0]),
        LinearProgram(c=[2.0, -3.0, 0.0], lb=[-1.0, -2.0, 0.0], ub=[4.0, 5.0, 6.0]),
        LinearProgram(c=[1.0, -1.0, 0.5], a_in=[[1.0, 1.0, 0.0], [0.0, -1.0, 1.0]],
                      b_in=[-3.0, -4.0], lb=[-np.inf, 0.0, -np.inf], ub=[np.inf, 3.0, 7.0]),
    ]


@pytest.mark.parametrize("k", range(5))
def test_stacked_kkt_matches_reference_on_hand_built_lps(k):
    lp = _hand_built()[k]
    res = ipm.solve(lp, tol=1e-10)
    assert res.optimal
    rng = np.random.default_rng(k)
    for batch in (1, 3, 32):
        points = [res] + [_perturbed(rng, res, lp, 10.0 ** -rng.integers(1, 8))
                          for _ in range(batch - 1)]
        _assert_stack_matches(lp, [lp] * batch, points)


def test_stacked_kkt_flags_a_bound_dual_at_a_missing_bound():
    # x0 is free and x1 has no upper bound: z0 != 0 and z1 < 0 push from
    # bounds that do not exist
    lp = LinearProgram(c=[0.0, 1.0], a_eq=[[1.0, 0.0]], b_eq=[1.0],
                       lb=[-np.inf, 0.0], ub=[np.inf, np.inf])
    z = np.array([[0.0, 1.0], [0.5, 1.0], [0.0, -2.0]])
    pts = [SolveResult(status="optimal", x=np.array([1.0, 0.0]), y_eq=np.zeros(1),
                       y_in=np.zeros(0), z=zk) for zk in z]
    stack = KktCheck(lp).residuals(np.ones((3, 1)), np.tile([1.0, 0.0], (3, 1)),
                                   np.zeros((3, 1)), np.zeros((3, 0)), z)
    assert stack[0, 1] == 0.0
    assert stack[1, 1] > 0.0 and stack[2, 1] > 0.0
    np.testing.assert_allclose(stack, [check_kkt_one(lp, p) for p in pts],
                               rtol=RTOL, atol=ATOL)
