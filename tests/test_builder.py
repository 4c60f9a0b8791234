"""Dispatch LP builder: balances, loss cuts, dual-gradient law, recourse."""

import numpy as np
import pytest

from hydrodr import ipm
from hydrodr.builder import (DEFAULT_LOSS_CUTS, StageBlock, build_extensive, build_second_stage,
                             dcll_loss_cuts, default_deviation_penalty, deviation_l1,
                             evaluate_policy_cost, extract_duals, loss_cut_points)
from hydrodr.model import Branch, Bus, Generator, GridCase, HydroUnit, load_case, bundled_case_path
from hydrodr.scenarios import ScenarioPath
from hydrodr.sddp import _stage_lp

from conftest import build_tiny_case, build_cascade_case
from oracles import random_lthd, random_path


def solve_q(case, path, targets, c_delta, tol=1e-9, loss_cuts=11):
    prob = build_second_stage(case, path, targets, c_delta, loss_cuts)
    res = ipm.solve(prob.lp, tol=tol)
    assert res.optimal, res.status
    return prob, res


def test_case3_problem_shape():
    case = load_case(bundled_case_path())
    T = case.horizon
    path = ScenarioPath(inflows=np.full((T, 1), 100.0), source_id=("s",))
    prob = build_second_stage(case, path, np.full((T, 1), 300.0),
                              default_deviation_penalty(case))
    # per stage: 3 gen + 1 vol + 1 out + 1 spill + 3 flows * 2 + 3 angles + 2 dev
    assert prob.lp.n_vars == T * (3 + 1 + 1 + 1 + 6 + 3 + 2)
    assert prob.target_rows.shape == (T, 1)
    assert len([k for k in prob.lp.row_tags if k[0] == "target"]) == T
    # block staircase: stage-t rows touch only stage t and t-1 columns
    a = prob.lp.a_eq.tocsr()
    per_stage = prob.lp.n_vars // T
    for t in (1, T // 2, T - 1):
        row = prob.target_rows[t, 0]
        cols = a.indices[a.indptr[row]:a.indptr[row + 1]]
        assert all(t * per_stage <= c < (t + 1) * per_stage for c in cols)


def test_case3_solves_and_prices_sanely():
    """The bundled case must stay solvable: hydro displaces the expensive
    unit, so the cost sits between all-cheap and all-expensive dispatch."""
    case = load_case(bundled_case_path())
    T = case.horizon
    path = ScenarioPath(inflows=np.full((T, 1), 100.0), source_id=("mean",))
    lp, vm = build_extensive(case, path)
    res = ipm.solve(lp)
    assert res.optimal
    energy = sum(case.buses[2].demand) * case.stage_hours
    assert 0.0 < res.objective < 100.0 * energy    # strictly below all-expensive
    gen = res.x[vm["generation"]]
    assert gen[:, 0].max() > 1.0                   # the hydro unit actually runs


def test_zero_demand_zero_targets_zero_cost(tiny_case):
    case = build_tiny_case(demand=0.0, v0=0.0)
    T = case.horizon
    path = ScenarioPath(inflows=np.zeros((T, 1)), source_id=("z",))
    prob, res = solve_q(case, path, np.zeros((T, 1)), 100.0)
    assert abs(res.objective) <= 1e-6
    assert np.max(np.abs(res.x[prob.var_map["generation"]])) <= 1e-6
    assert deviation_l1(prob, res) <= 1e-6


def test_fixed_point_of_unconstrained_volumes(tiny_case):
    case = tiny_case
    T = case.horizon
    path = ScenarioPath(inflows=np.full((T, 1), 2.0), source_id=("f",))
    lp, vm = build_extensive(case, path)
    base = ipm.solve(lp, tol=1e-10)
    assert base.optimal
    vols = base.x[vm["volume"]]
    _, res = solve_q(case, path, vols, default_deviation_penalty(case))
    assert res.objective == pytest.approx(base.objective, rel=1e-6)


def test_loss_cuts_lossless_branch():
    br = Branch(0, 1, b=-30.0, g=0.0, limit=10.0)
    for coef_fr, coef_to, rhs in dcll_loss_cuts([br], 7)[0]:
        assert coef_fr == 1.0 and coef_to == 1.0 and rhs == 0.0
    assert np.array_equal(loss_cut_points(10.0, 1), [0.0])
    pts = loss_cut_points(10.0, 5)
    assert pts[0] == -10.0 and pts[-1] == 10.0
    with pytest.raises(ValueError):
        loss_cut_points(10.0, 0)


def two_bus_loss_case(alpha=0.001, demand=100.0, T=2):
    # choose g, b so that g / (g^2 + b^2) equals alpha exactly
    b = -30.0
    g = (1.0 - np.sqrt(1.0 - 4.0 * alpha ** 2 * b ** 2)) / (2.0 * alpha)
    case = GridCase(
        horizon=T, stage_hours=1.0, reference_bus=0,
        buses=(Bus(0, tuple(0.0 for _ in range(T))),
               Bus(1, tuple(float(demand) for _ in range(T)))),
        branches=(Branch(0, 1, b=b, g=g, limit=200.0),),
        generators=(Generator(0, 0, tuple(1.0 for _ in range(T)), 0.0, 400.0, "thermal"),
                    Generator(1, 0, tuple(0.0 for _ in range(T)), 0.0, 0.1, "hydro")),
        hydros=(HydroUnit(1, 0.0, 1.0, 0.5, 1.0, (), ()),),
    )
    assert case.branches[0].loss_coef == pytest.approx(alpha, rel=1e-9)
    return case


def test_two_bus_losses_against_quadratic():
    """Generator feeds 100 MW across one lossy line; the linearized loss at
    the solution approaches alpha * flow^2 as cuts are added."""
    case = two_bus_loss_case()
    T = case.horizon
    path = ScenarioPath(inflows=np.zeros((T, 1)), source_id=("w",))
    gaps = []
    for K in (1, 3, 7, 15, 51):
        lp, vm = build_extensive(case, path, loss_cuts=K)
        res = ipm.solve(lp, tol=1e-10)
        assert res.optimal
        fr = res.x[vm["flow_fr"]][0, 0]
        to = res.x[vm["flow_to"]][0, 0]
        quad = 0.001 * fr * fr
        gaps.append(quad - (fr + to))
        assert fr + to <= quad + 1e-7      # cuts under-estimate the parabola
    # material losses (order 10 MW on a 100 MW transfer); at the converged
    # envelope they match the quadratic evaluated at the solution flow
    assert 8.0 <= fr + to <= 14.0
    assert fr + to == pytest.approx(0.001 * fr * fr, rel=1e-3)
    assert all(gaps[i + 1] <= gaps[i] + 1e-9 for i in range(len(gaps) - 1))
    assert gaps[-1] <= 0.01 * (fr + to)


def test_flow_at_limit_hits_endpoint_cut():
    case = two_bus_loss_case(alpha=0.002, demand=150.0)
    # shrink the limit so the line saturates
    case = GridCase(horizon=case.horizon, stage_hours=1.0, reference_bus=0,
                    buses=case.buses,
                    branches=(Branch(0, 1, b=case.branches[0].b, g=case.branches[0].g,
                                     limit=120.0),),
                    generators=(case.generators[0],
                                Generator(1, 1, tuple(50.0 for _ in range(case.horizon)),
                                          0.0, 200.0, "thermal"),
                                Generator(2, 0, tuple(0.0 for _ in range(case.horizon)),
                                          0.0, 0.1, "hydro")),
                    hydros=(HydroUnit(2, 0.0, 1.0, 0.5, 1.0, (), ()),))
    path = ScenarioPath(inflows=np.zeros((case.horizon, 1)), source_id=("w",))
    lp, vm = build_extensive(case, path, loss_cuts=9)
    res = ipm.solve(lp, tol=1e-10)
    assert res.optimal
    fr = res.x[vm["flow_fr"]][0, 0]
    to = res.x[vm["flow_to"]][0, 0]
    assert fr == pytest.approx(120.0, abs=1e-4)
    alpha = case.branches[0].loss_coef
    cuts = dcll_loss_cuts(case.branches[:1], 9)[0]
    slacks = [coef_fr * fr + coef_to * to - rhs for coef_fr, coef_to, rhs in cuts]
    # tightest cut is the tangent anchored at +limit (the last cut point)
    assert np.argmin(slacks) == len(cuts) - 1
    assert slacks[-1] == pytest.approx(0.0, abs=1e-6)


def test_water_conservation_and_power_balance():
    rng = np.random.default_rng(31)
    for k in range(6):
        case = random_lthd(rng)
        path = random_path(case, rng)
        c_delta = default_deviation_penalty(case)
        targets = rng.uniform(0.2, 0.8, size=(case.horizon, case.n_hydros)) * case.vmax()
        prob, res = solve_q(case, path, targets, c_delta)
        x = res.x
        vols = x[prob.var_map["volume"]]
        turb = x[prob.var_map["turbine"]]
        spill = x[prob.var_map["spill"]]
        prev = case.v0()
        sinks = [j for j, h in enumerate(case.hydros)
                 if not any(h.generator in (*h2.upstream_turbine,)
                            for h2 in case.hydros)]
        for t in range(case.horizon):
            # aggregate water balance: storage change = inflow - terminal releases
            outflow = sum(turb[t, j] + spill[t, j] for j in range(case.n_hydros)
                          if not any(case.hydros[j].generator in
                                     (*h2.upstream_turbine, *h2.upstream_spill)
                                     for h2 in case.hydros))
            lhs = vols[t].sum() - prev.sum()
            rhs = path.inflows[t].sum() - outflow
            # internal cascade transfers cancel only when turbine/spill routing agree
            assert lhs == pytest.approx(rhs, abs=1e-6)
            prev = vols[t]
        # nodal power balance from scratch
        gen = x[prob.var_map["generation"]]
        fr = x[prob.var_map["flow_fr"]]
        to = x[prob.var_map["flow_to"]]
        demand = case.demand_matrix()
        bus_idx = case.bus_index()
        for t in range(case.horizon):
            for b in range(case.n_buses):
                inj = sum(gen[t, i] for i, g in enumerate(case.generators)
                          if bus_idx[g.bus] == b)
                out = sum(fr[t, e] for e, br in enumerate(case.branches)
                          if bus_idx[br.from_bus] == b)
                out += sum(to[t, e] for e, br in enumerate(case.branches)
                           if bus_idx[br.to_bus] == b)
                assert inj - out == pytest.approx(demand[t, b], abs=1e-6)


def test_dual_signs_match_water_economics():
    """Two stages, thermal twice as expensive later: a low stage-1 target
    wastes cheap storage (negative dual: raising it saves money), while a
    positive stage-2 target strands water (positive dual).  Both verified
    by central differences at interior, kink-free points."""
    T = 2
    case = GridCase(
        horizon=T, stage_hours=1.0, reference_bus=0,
        buses=(Bus(0, (0.0, 0.0)), Bus(1, (3.0, 3.0))),
        branches=(Branch(0, 1, b=-50.0, g=0.0, limit=20.0),),
        generators=(Generator(0, 0, (0.0, 0.0), 0.0, 4.0, "hydro"),
                    Generator(1, 1, (10.0, 20.0), 0.0, 10.0, "thermal")),
        hydros=(HydroUnit(0, vmin=0.0, vmax=10.0, v0=2.0, phi=1.0,
                          upstream_turbine=(), upstream_spill=()),),
    )
    path = ScenarioPath(inflows=np.zeros((T, 1)), source_id=("d",))
    targets = np.array([[0.5], [0.3]])
    c_delta = default_deviation_penalty(case)
    prob, res = solve_q(case, path, targets, c_delta)
    lam = extract_duals(prob, res).lam
    assert lam[0, 0] == pytest.approx(-10.0, abs=1e-4)   # stage-2 saving minus stage-1 cost
    assert lam[1, 0] == pytest.approx(20.0, abs=1e-4)    # stranded water at final stage
    eps = 1e-4
    for (t, expect) in ((0, lam[0, 0]), (1, lam[1, 0])):
        bump = np.zeros_like(targets)
        bump[t, 0] = eps
        _, r_up = solve_q(case, path, targets + bump, c_delta)
        _, r_dn = solve_q(case, path, targets - bump, c_delta)
        fd = (r_up.objective - r_dn.objective) / (2 * eps)
        assert fd == pytest.approx(expect, abs=max(1e-3, 1e-3 * abs(expect)))


def test_duals_saturate_at_penalty_for_unreachable_targets(tiny_case):
    case = tiny_case
    T = case.horizon
    path = ScenarioPath(inflows=np.zeros((T, 1)), source_id=("s",))
    c_delta = default_deviation_penalty(case)
    # far above anything reachable: positive saturation
    prob, res = solve_q(case, path, np.full((T, 1), 1.4 * case.vmax()[0]), c_delta)
    lam = extract_duals(prob, res).lam
    assert lam[0, 0] == pytest.approx(c_delta, rel=1e-5)
    dev = deviation_l1(prob, res)
    assert dev > 1.0
    # targets below the reservoir floor: negative saturation
    case2 = build_tiny_case(horizon=3, demand=0.0, v0=5.0, vmin=2.0)
    c_delta2 = default_deviation_penalty(case2)
    path2 = ScenarioPath(inflows=np.zeros((3, 1)), source_id=("s2",))
    prob2, res2 = solve_q(case2, path2, np.full((3, 1), 0.5), c_delta2)
    lam2 = extract_duals(prob2, res2).lam
    assert lam2[0, 0] == pytest.approx(-c_delta2, rel=1e-4)


def test_duals_bounded_when_targets_near_optimal(tiny_case):
    case = tiny_case
    T = case.horizon
    path = ScenarioPath(inflows=np.full((T, 1), 2.0), source_id=("o",))
    lp, vm = build_extensive(case, path)
    base = ipm.solve(lp, tol=1e-10)
    c_delta = default_deviation_penalty(case)
    prob, res = solve_q(case, path, base.x[vm["volume"]], c_delta)
    lam = extract_duals(prob, res).lam
    assert np.max(np.abs(lam)) <= c_delta * (1 + 1e-6)


def test_extract_duals_requires_optimal(tiny_case):
    case = tiny_case
    path = ScenarioPath(inflows=np.zeros((case.horizon, 1)), source_id=("x",))
    prob = build_second_stage(case, path, np.zeros((case.horizon, 1)), 50.0)
    from hydrodr.lp import SolveResult
    with pytest.raises(ValueError):
        extract_duals(prob, SolveResult(status="iteration_limit"))


def test_dual_gradient_law_random_instances():
    """Central differences of the cost in each target coordinate match the
    extracted dual away from kinks (small-scale version of the acceptance
    sweep)."""
    rng = np.random.default_rng(101)
    checked = excluded = 0
    for k in range(6):
        case = random_lthd(rng, max_hydros=2, max_horizon=5)
        path = random_path(case, rng)
        c_delta = default_deviation_penalty(case)
        targets = rng.uniform(0.2, 0.9, size=(case.horizon, case.n_hydros)) * case.vmax()
        prob, res = solve_q(case, path, targets, c_delta, tol=1e-10)
        lam = extract_duals(prob, res).lam
        eps = 1e-4
        for t in range(case.horizon):
            for j in range(case.n_hydros):
                bump = np.zeros_like(targets)
                bump[t, j] = eps
                p_up, r_up = solve_q(case, path, targets + bump, c_delta, tol=1e-10)
                p_dn, r_dn = solve_q(case, path, targets - bump, c_delta, tol=1e-10)
                jump = np.max(np.abs(extract_duals(p_up, r_up).lam
                                     - extract_duals(p_dn, r_dn).lam))
                if jump > 0.5 * c_delta:
                    excluded += 1
                    continue
                fd = (r_up.objective - r_dn.objective) / (2 * eps)
                assert fd == pytest.approx(lam[t, j], abs=max(1e-3, 1e-3 * abs(lam[t, j]))), \
                    f"instance {k} coord ({t},{j})"
                checked += 1
    assert checked >= 30
    assert excluded <= 0.2 * (checked + excluded)


def test_relatively_complete_recourse_sample():
    rng = np.random.default_rng(55)
    case = build_cascade_case(horizon=6)
    c_delta = default_deviation_penalty(case)
    for _ in range(25):
        path = random_path(case, rng)
        targets = rng.uniform(-1.0, 3.0, size=(case.horizon, case.n_hydros)) * case.vmax()
        prob = build_second_stage(case, path, targets, c_delta)
        res = ipm.solve(prob.lp)
        assert res.optimal, res.status
        # clipping keeps the effective targets in the documented band
        assert np.all(prob.targets >= 0.0)
        assert np.all(prob.targets <= 1.5 * case.vmax()[None, :] + 1e-12)


def test_penalty_must_be_positive(tiny_case):
    path = ScenarioPath(inflows=np.zeros((4, 1)), source_id=("p",))
    with pytest.raises(ValueError):
        build_second_stage(tiny_case, path, np.zeros((4, 1)), 0.0)
    with pytest.raises(ValueError):
        build_second_stage(tiny_case, path, np.zeros((3, 1)), 10.0)


def test_builders_reject_wrong_shaped_inflows():
    case = build_cascade_case(horizon=4)
    targets = np.tile(case.v0(), (4, 1))
    for shape in ((6, 3), (4, 3), (6, 2)):
        path = ScenarioPath(inflows=np.ones(shape), source_id=("bad",))
        with pytest.raises(ValueError, match="inflows"):
            build_extensive(case, path)
        with pytest.raises(ValueError, match="inflows"):
            build_second_stage(case, path, targets, 100.0)


def test_extensive_stage_block_matches_sddp_stage_lp():
    """The extensive form's stage-t diagonal block is the SDDP stage LP
    between its incoming-volume columns and its epigraph column; the only
    entries of stage t's rows outside that block are the -1 couplings of
    each water row to the previous stage's volume."""
    case = build_cascade_case(horizon=6)
    T, H = case.horizon, case.n_hydros
    t = T // 2
    path = random_path(case, np.random.default_rng(3))
    ext, vm = build_extensive(case, path)
    stage, cols = _stage_lp(case, t, case.v0(), path.inflows[t], [],
                            StageBlock(case, DEFAULT_LOSS_CUTS))
    n, m, mi = ext.n_vars // T, ext.n_eq // T, ext.n_in // T
    assert cols["vin"].tolist() == list(range(H))
    assert cols["phi"].tolist() == [H + n]
    blk_cols = slice(t * n, (t + 1) * n)
    eq_rows, in_rows = slice(t * m, (t + 1) * m), slice(t * mi, (t + 1) * mi)
    a_eq, a_in = ext.a_eq.toarray(), ext.a_in.toarray()
    np.testing.assert_array_equal(a_eq[eq_rows, blk_cols], stage.a_eq.toarray()[H:, H:H + n])
    np.testing.assert_array_equal(a_in[in_rows, blk_cols], stage.a_in.toarray()[:, H:H + n])
    np.testing.assert_array_equal(ext.b_eq[eq_rows], stage.b_eq[H:])
    np.testing.assert_array_equal(ext.b_in[in_rows], stage.b_in)
    for name in ("lb", "ub", "c"):
        np.testing.assert_array_equal(getattr(ext, name)[blk_cols], getattr(stage, name)[H:H + n])

    off_block = a_eq[eq_rows].copy()
    off_block[:, blk_cols] = 0.0
    expected = np.zeros_like(off_block)
    for j in range(H):
        expected[ext.row_tags[("water", t, j)] - t * m, vm["volume"][t - 1, j]] = -1.0
    np.testing.assert_array_equal(off_block, expected)


class _HoldPolicy:
    def __init__(self, case):
        self.targets = np.tile(case.v0(), (case.horizon, 1))

    def rollout(self, path):
        return self.targets

    def rollout_with_tape(self, paths):
        return np.stack([self.rollout(p) for p in paths]), None


class _VolumePolicy:
    def __init__(self, targets):
        self.targets = targets

    def rollout(self, path):
        return self.targets

    def rollout_with_tape(self, paths):
        return np.stack([self.rollout(p) for p in paths]), None


def test_evaluate_policy_cost_deterministic_optimum(tiny_case):
    case = tiny_case
    T = case.horizon
    path = ScenarioPath(inflows=np.full((T, 1), 2.0), source_id=("e",))
    lp, vm = build_extensive(case, path)
    base = ipm.solve(lp, tol=1e-10)
    pol = _VolumePolicy(base.x[vm["volume"]])
    stats = evaluate_policy_cost(case, [path], pol, default_deviation_penalty(case))
    assert stats.n_failed == 0
    assert stats.mean_cost == pytest.approx(base.objective, rel=1e-6)
    # any other policy can only cost more on the same path
    hold = evaluate_policy_cost(case, [path], _HoldPolicy(case),
                                default_deviation_penalty(case))
    assert hold.mean_cost >= stats.mean_cost - 1e-9


def test_evaluate_policy_cost_report_shape(tiny_case):
    case = tiny_case
    rng = np.random.default_rng(1)
    paths = [random_path(case, rng) for _ in range(5)]
    stats = evaluate_policy_cost(case, paths, _HoldPolicy(case),
                                 default_deviation_penalty(case))
    assert stats.n_paths == 5
    assert stats.costs.shape == (5,)
    assert np.isfinite(stats.std_cost)
    assert stats.decisions == 5 * case.horizon
    assert stats.rollout_seconds_per_decision >= 0.0


def test_evaluate_policy_cost_times_lp_assembly_as_solve(tiny_case, monkeypatch):
    # the batch's solve phase patches the right-hand sides, runs HiGHS per
    # path and rechecks the KKT conditions: all of it is solve time
    import time
    from hydrodr import highs
    delay = 0.05
    real_status = highs._status

    def slow_status(h):
        time.sleep(delay)
        return real_status(h)

    monkeypatch.setattr(highs, "_status", slow_status)
    rng = np.random.default_rng(1)
    paths = [random_path(tiny_case, rng) for _ in range(3)]
    stats = evaluate_policy_cost(tiny_case, paths, _HoldPolicy(tiny_case),
                                 default_deviation_penalty(tiny_case))
    assert stats.n_failed == 0
    assert stats.solve_seconds >= 3 * delay
    assert stats.rollout_seconds < delay
