"""SDDP baseline: stage solves, bound behavior, oracle comparisons."""

import numpy as np
import pytest

from hydrodr import ipm
from hydrodr.builder import build_extensive
from hydrodr.scenarios import LatticeStage, ScenarioSet, make_lattice, sample_paths
from hydrodr.sddp import (Cut, SddpError, export_cuts_csv, sddp_train, simulate,
                          simulate_paths, stage_solve)

from conftest import build_tiny_case, build_cascade_case
from oracles import grid_dp_value


def test_terminal_stage_without_cuts_is_pure_dispatch(tiny_case):
    case = tiny_case
    T = case.horizon
    w = np.array([2.0])
    sol = stage_solve(case, T - 1, np.array([5.0]), w, cuts=[])
    # one-stage extensive problem with the same initial volume agrees
    one = build_tiny_case(horizon=2, demand=5.0, v0=5.0)
    # compare against a hand-set single-stage LP: stage cost of serving
    # demand with up to (5 + 2) units of water through a 4 MW turbine
    assert sol.total == pytest.approx(sol.stage_cost)
    assert 0.0 < sol.stage_cost
    assert sol.x_out[0] == pytest.approx(3.0, abs=1e-5)   # burns the turbine limit


def test_stage_value_against_dense_chord_pool(tiny_case):
    """With the exact next-stage value function supplied as a dense cut
    pool, the stage solve reproduces the two-stage optimum."""
    case = build_tiny_case(horizon=2, demand=5.0, v0=6.0)
    det = make_lattice(case, 1)
    w = det.stages[1].values[0]

    # exact V_2 on a dense volume grid: terminal dispatch cost from x_in
    grid = np.linspace(0.0, case.hydros[0].vmax, 240)
    vals = np.array([stage_solve(case, 1, np.array([x]), w, []).total for x in grid])
    cuts = []
    for k in range(len(grid) - 1):
        s = (vals[k + 1] - vals[k]) / (grid[k + 1] - grid[k])
        cuts.append(Cut(stage=0, intercept=float(vals[k] - s * grid[k]),
                        slope=np.array([s])))
    sol = stage_solve(case, 0, case.v0(), det.stages[0].values[0], cuts)

    path = sample_paths(det, 1, seed=0)[0]
    lp, _ = build_extensive(case, path)
    ext = ipm.solve(lp, tol=1e-10)
    assert sol.total == pytest.approx(ext.objective, rel=1e-6)


def test_stage_duals_match_finite_differences(tiny_case):
    case = tiny_case
    w = np.array([1.5])
    cuts = [Cut(stage=0, intercept=50.0, slope=np.array([-6.0]))]
    x0 = np.array([4.0])
    sol = stage_solve(case, 1, x0, w, cuts)
    eps = 1e-4
    up = stage_solve(case, 1, x0 + eps, w, cuts).total
    dn = stage_solve(case, 1, x0 - eps, w, cuts).total
    fd = (up - dn) / (2 * eps)
    assert fd == pytest.approx(sol.dual_in[0], abs=1e-3)


def test_deterministic_lattice_matches_extensive_form():
    case = build_cascade_case(horizon=6)
    det = make_lattice(case, 1)
    state, lb = sddp_train(case, det, iters=15, seed=0)
    path = sample_paths(det, 1, seed=0)[0]
    lp, _ = build_extensive(case, path)
    ext = ipm.solve(lp, tol=1e-10).objective
    assert lb == pytest.approx(ext, rel=1e-3)
    assert state.iterations == 15
    sim = simulate(state, case, det, 3, seed=1)
    assert sim.mean_cost == pytest.approx(ext, rel=1e-3)


def test_one_hydro_toy_against_grid_dp(tiny_case):
    case = build_tiny_case(horizon=4, demand=5.0, v0=5.0)
    lat = make_lattice(case, 3, spread=0.6)
    state, lb = sddp_train(case, lat, iters=30, seed=0)
    oracle = grid_dp_value(case, lat, n_grid=60)
    assert lb == pytest.approx(oracle, rel=5e-3)


def test_zero_system_zero_bound():
    case = build_tiny_case(horizon=3, demand=0.0, v0=0.0)
    det = make_lattice(case, 1, spread=0.0)
    zero_stages = [LatticeStage(values=np.zeros((1, 1)), probs=np.array([1.0]))
                   for _ in range(3)]
    zero = ScenarioSet.lattice(zero_stages)
    state, lb = sddp_train(case, zero, iters=1, seed=0)
    assert abs(lb) <= 1e-6


def test_bound_trace_monotone_and_cuts_valid():
    case = build_cascade_case(horizon=5)
    lat = make_lattice(case, 3)
    state, lb = sddp_train(case, lat, iters=20, seed=3)
    trace = np.array(state.bound_trace)
    assert np.all(np.diff(trace) >= -1e-9 * (1.0 + np.abs(trace[1:])))

    # cut validity: every stored cut under-estimates the stage expected
    # value at random probe volumes (re-solve with the current pools)
    rng = np.random.default_rng(0)
    vmax = case.vmax()
    for t in (1, 3):
        pool = state.pools[t - 1]
        assert pool
        for _ in range(20):
            probe = rng.uniform(0.0, 1.0, size=case.n_hydros) * vmax
            st = lat.stages[t]
            exp_val = sum(float(st.probs[k]) *
                          stage_solve(case, t, probe, st.values[k], state.pools[t]).total
                          for k in range(st.probs.size))
            for cut in pool[-5:]:
                assert cut.value(probe) <= exp_val + 1e-6 * (1.0 + abs(exp_val))


def test_bound_sandwich_with_simulation():
    case = build_cascade_case(horizon=5)
    lat = make_lattice(case, 3)
    state, lb = sddp_train(case, lat, iters=20, seed=2)
    sim = simulate(state, case, lat, 60, seed=11)
    assert sim.n_failed == 0
    assert lb <= sim.mean_cost + 2.0 * sim.std_cost / np.sqrt(60) + 1e-6 * (1 + abs(lb))


def test_simulate_paths_shares_test_sets():
    case = build_cascade_case(horizon=4)
    lat = make_lattice(case, 3)
    state, _ = sddp_train(case, lat, iters=5, seed=0)
    paths = sample_paths(lat, 7, seed=21)
    a = simulate_paths(state, case, paths)
    b = simulate(state, case, lat, 7, seed=21)
    assert np.allclose(a.costs, b.costs)


def test_requires_lattice_and_deterministic_root(tiny_case):
    case = tiny_case
    hist = ScenarioSet.historical(np.ones((4, case.horizon, 1)))
    with pytest.raises(SddpError, match="lattice"):
        sddp_train(case, hist, iters=2, seed=0)
    stages = [LatticeStage(values=np.array([[1.0], [2.0]]), probs=np.array([0.5, 0.5]))
              for _ in range(case.horizon)]
    with pytest.raises(SddpError, match="stage 1"):
        sddp_train(case, ScenarioSet.lattice(stages), iters=2, seed=0)
    with pytest.raises(SddpError, match="iteration"):
        sddp_train(case, make_lattice(case, 2), iters=0, seed=0)


def test_stage_solve_rejects_wrong_length_inflow_row():
    case = build_cascade_case(horizon=4)
    for row in (np.ones(3), np.ones(1)):
        with pytest.raises(ValueError, match="inflows"):
            stage_solve(case, 1, case.v0(), row, cuts=[])


def test_cut_export_csv(tmp_path, tiny_case):
    case = tiny_case
    lat = make_lattice(case, 2)
    state, _ = sddp_train(case, lat, iters=3, seed=0)
    out = tmp_path / "cuts.csv"
    with open(out, "w") as fh:
        export_cuts_csv(state, fh)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "stage,intercept,slope_0"
    assert len(lines) == 1 + sum(state.cut_counts())
