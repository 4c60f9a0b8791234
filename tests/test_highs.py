"""Persistent HiGHS models: the binding, status mapping, determinism, and a
differential test of the production second-stage solve against the
interior-point oracle."""

import sys

import numpy as np
import pytest
import scipy.sparse as sp

from hydrodr import builder, ipm
from hydrodr.builder import (DEFAULT_LOSS_CUTS, build_second_stage, default_deviation_penalty,
                             extract_duals, solve_second_stage)
from hydrodr.highs import ModelPool, PersistentLP
from hydrodr.lp import LinearProgram, LpDimensionError
from hydrodr.model import synthesize_case
from hydrodr.scenarios import make_lattice, sample_paths

from conftest import build_tiny_case
from oracles import random_lthd, random_path


def test_highs_binding_is_installed():
    # no skip: training and evaluation cannot run without this module
    from scipy.optimize._highspy import _core
    for name in ("passModel", "changeRowBounds", "clearSolver", "setBasis", "getBasis",
                 "run", "getSolution", "getModelStatus", "getInfo", "getInfoValue"):
        assert hasattr(_core._Highs, name), name


def _two_column_lp(rhs):
    """min x0 + 2 x1  s.t.  x0 + x1 = rhs,  x0 - x1 >= -1,  0 <= x <= 1."""
    return LinearProgram(c=[1.0, 2.0], a_eq=sp.csr_matrix([[1.0, 1.0]]), b_eq=[rhs],
                         a_in=sp.csr_matrix([[1.0, -1.0]]), b_in=[-1.0],
                         lb=[0.0, 0.0], ub=[1.0, 1.0])


def test_persistent_lp_patches_rhs_and_classifies():
    model = PersistentLP(_two_column_lp(1.0), tol=1e-9)
    lp, res = model.solve(np.array([0]), np.array([1.5]))
    assert res.optimal
    assert lp.b_eq[0] == 1.5 and model.lp.b_eq[0] == 1.0
    np.testing.assert_allclose(res.x, [1.0, 0.5], atol=1e-12)
    assert res.objective == pytest.approx(2.0)
    assert res.y_eq[0] == pytest.approx(2.0)           # d(objective)/d(rhs)
    assert max(res.kkt) <= 1e-9
    ref = ipm.solve(lp, tol=1e-10)
    assert res.objective == pytest.approx(ref.objective, rel=1e-9)

    _, res = model.solve(np.array([0]), np.array([3.0]))  # x0 + x1 <= 2
    assert res.status == "infeasible"
    _, res = model.solve(np.array([0]), np.array([0.25]))
    assert res.optimal and res.objective == pytest.approx(0.25)


def test_persistent_lp_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        PersistentLP(_two_column_lp(1.0), tol=0.0)


def test_persistent_lp_kkt_gate_downgrades(monkeypatch):
    from hydrodr import highs
    model = PersistentLP(_two_column_lp(1.0), tol=1e-9)
    monkeypatch.setattr(highs.KktCheck, "residuals",
                        lambda self, b_eq, *_: np.tile([1e-7, 0.0, 0.0], (len(b_eq), 1)))
    _, res = model.solve(np.array([0]), np.array([1.5]))
    assert res.status == "iteration_limit"


def test_model_pool_lends_each_model_once_and_keeps_one_key():
    pool = ModelPool()
    built = []

    def build():
        built.append(object())
        return built[-1]

    with pool.checkout("a", build) as m1:
        with pool.checkout("a", build) as m2:
            assert m1 is not m2                    # concurrent callers never share
    with pool.checkout("a", build) as m3:
        assert m3 in (m1, m2)
    assert len(built) == 2
    with pool.checkout("b", build) as m4:      # a new key drops the idle models
        assert m4 not in (m1, m2)
    with pool.checkout("b", build) as m5:
        assert m5 is m4
    with pool.checkout("a", build) as m6:
        assert m6 not in (m1, m2, m4)
    assert len(built) == 4


def test_model_pool_never_lends_one_model_twice_under_threads():
    import threading
    pool = ModelPool()
    in_use, clashes, lock = set(), [], threading.Lock()

    def worker(key):
        for _ in range(300):
            with pool.checkout(key, object) as model:
                with lock:
                    if id(model) in in_use:
                        clashes.append(key)
                    in_use.add(id(model))
                with lock:
                    in_use.discard(id(model))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k % 3,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert clashes == []


def _synth6():
    return synthesize_case(6, 2, seed=1, horizon=12)


def test_solve_is_independent_of_solve_history():
    """One path solved on a fresh model, after other paths and in reverse
    order gives bit-identical x, y_eq and objective."""
    case = _synth6()
    c_delta = default_deviation_penalty(case)
    paths = sample_paths(make_lattice(case, 3), 8, seed=3)
    # spread targets: a restart that kept solver state from the previous
    # solve changed the last bits of most of these results
    rng = np.random.default_rng(0)
    targets = [rng.uniform(0.0, 1.2, size=(12, 2)) * case.vmax() for _ in paths]

    def fresh():
        model = builder._SecondStageModel(case, DEFAULT_LOSS_CUTS, c_delta, 1e-8)
        return model.solve(paths[0], targets[0])[1]

    first = fresh()
    order = list(range(1, len(paths))) + [0] + list(range(len(paths) - 1, -1, -1))
    seen = {}
    for i in order:
        res = solve_second_stage(case, paths[i], targets[i], c_delta)[1]
        assert res.optimal
        if i in seen:
            a = seen[i]
            assert np.array_equal(a.x, res.x) and np.array_equal(a.y_eq, res.y_eq)
            assert a.objective == res.objective
        seen[i] = res
    for res in (seen[0], fresh()):
        assert np.array_equal(first.x, res.x) and np.array_equal(first.y_eq, res.y_eq)
        assert first.objective == res.objective


def test_solved_lp_is_the_built_lp():
    case = _synth6()
    c_delta = default_deviation_penalty(case)
    path = sample_paths(make_lattice(case, 3), 1, seed=2)[0]
    targets = np.random.default_rng(0).uniform(-0.2, 1.7, size=(12, 2)) * case.vmax()
    prob, res = solve_second_stage(case, path, targets, c_delta)
    ref = build_second_stage(case, path, targets, c_delta)
    assert np.array_equal(prob.lp.b_eq, ref.lp.b_eq)
    assert np.array_equal(prob.targets, ref.targets)
    assert np.array_equal(prob.target_rows, ref.target_rows)
    assert (prob.lp.a_eq != ref.lp.a_eq).nnz == 0 and (prob.lp.a_in != ref.lp.a_in).nnz == 0
    for name in ("c", "b_in", "lb", "ub"):
        assert np.array_equal(getattr(prob.lp, name), getattr(ref.lp, name)), name
    with pytest.raises(ValueError):
        solve_second_stage(case, path, targets[:-1], c_delta)


def test_nan_targets_are_rejected_like_the_built_lp():
    # clipping keeps NaN, so the LP's own b_eq check is what stops it
    case = _synth6()
    c_delta = default_deviation_penalty(case)
    path = sample_paths(make_lattice(case, 3), 1, seed=2)[0]
    targets = np.full((12, 2), 0.5) * case.vmax()
    bad = targets.copy()
    bad[3, 1] = np.nan
    for solve in (build_second_stage, solve_second_stage):
        with pytest.raises(LpDimensionError, match="b_eq"):
            solve(case, path, bad, c_delta)
    assert solve_second_stage(case, path, targets, c_delta)[1].optimal


def _differential_instances():
    rng = np.random.default_rng(11)
    for _ in range(12):
        case = random_lthd(rng, max_hydros=3, max_horizon=6)
        yield case, random_path(case, rng), rng
    tiny = build_tiny_case()
    yield tiny, random_path(tiny, rng), rng
    synth = _synth6()
    yield synth, sample_paths(make_lattice(synth, 3), 1, seed=5)[0], rng


def test_production_solve_agrees_with_interior_point_oracle():
    """Same status, objectives within 1e-7 relative, and each solver's
    target duals are subgradients of the other solver's objective."""
    cases = 0
    for case, path, rng in _differential_instances():
        c_delta = default_deviation_penalty(case)
        vmax = case.vmax()
        base = rng.uniform(0.15, 0.95, size=(case.horizon, case.n_hydros)) * vmax

        def both(targets):
            prob, res = solve_second_stage(case, path, targets, c_delta)
            ref = build_second_stage(case, path, targets, c_delta)
            return (prob, res), (ref, ipm.solve(ref.lp))

        (prob_h, res_h), (prob_i, res_i) = both(base)
        assert res_h.status == res_i.status == "optimal"
        q_h, q_i = res_h.objective, res_i.objective
        assert abs(q_h - q_i) <= 1e-7 * max(abs(q_h), abs(q_i), 1.0)
        lam_h = extract_duals(prob_h, res_h).lam
        lam_i = extract_duals(prob_i, res_i).lam
        for _ in range(4):
            d = rng.uniform(-0.05, 0.05, size=base.shape) * vmax
            (_, rh), (_, ri) = both(base + d)
            assert rh.status == ri.status == "optimal"
            slack = 1e-7 * (1.0 + abs(q_h))
            assert ri.objective >= q_i + float(np.sum(lam_h * d)) - slack
            assert rh.objective >= q_h + float(np.sum(lam_i * d)) - slack
        cases += 1
    assert cases == 14



def _batch_inputs(n, seed=3):
    case = _synth6()
    paths = sample_paths(make_lattice(case, 3), n, seed=seed)
    targets = np.random.default_rng(seed).uniform(-0.2, 1.7, size=(n, 12, 2)) * case.vmax()
    return case, default_deviation_penalty(case), paths, targets


def _fail_call(monkeypatch, k):
    """Make the k-th HiGHS status read from now on (0-based) report a
    failure; returns the list of calls seen."""
    from hydrodr import highs
    real, calls = highs._status, []

    def status(h):
        calls.append(h)
        return "iteration_limit" if len(calls) == k + 1 else real(h)

    monkeypatch.setattr(highs, "_status", status)
    return calls


def test_batch_failure_leaves_every_other_path_as_its_solo_solve(monkeypatch):
    case, c_delta, paths, targets = _batch_inputs(8)
    solo = [solve_second_stage(case, p, t, c_delta)[1] for p, t in zip(paths, targets)]
    _fail_call(monkeypatch, 5)                 # the model exists: call k is path k
    batch = builder.solve_second_stage_batch(case, paths, targets, c_delta)
    sol = batch.solution
    assert sol.status[5] == "iteration_limit" and np.isnan(sol.objective[5])
    assert sol.result(5).x is None
    assert sol.optimal.tolist() == [i != 5 for i in range(8)]
    for i, ref in enumerate(solo):
        if i == 5:
            continue
        res = sol.result(i)
        assert np.array_equal(res.x, ref.x) and np.array_equal(res.y_eq, ref.y_eq)
        assert res.objective == ref.objective
    lam, rejected = batch.duals()
    assert np.all(lam[5] == 0.0) and rejected[5] is not None
    for i in (0, 7):
        assert rejected[i] is None
        assert np.array_equal(lam[i], extract_duals(batch.problem(i), sol.result(i)).lam)


def test_nan_target_in_a_batch_raises_before_any_run(monkeypatch):
    case, c_delta, paths, targets = _batch_inputs(6)
    solve_second_stage(case, paths[0], targets[0], c_delta)     # build the model
    calls = _fail_call(monkeypatch, -1)                        # records, never fails
    targets[4, 7, 1] = np.nan
    with pytest.raises(LpDimensionError, match="b_eq"):
        builder.solve_second_stage_batch(case, paths, targets, c_delta)
    assert calls == []


def test_low_penalty_warns_once_per_model(caplog):
    case, _, paths, targets = _batch_inputs(32)
    low = 0.5 * case.max_marginal_cost()
    with caplog.at_level("WARNING", logger="hydrodr.builder"):
        for _ in range(2):
            batch = builder.solve_second_stage_batch(case, paths, targets, low)
            assert batch.solution.optimal.all()
    assert sum("below the maximum marginal cost" in r.getMessage()
               for r in caplog.records) == 1
