"""Interior-point solver: oracle checks, dual convention, status handling."""

import numpy as np
import pytest
import scipy.sparse as sp

from hydrodr.ipm import solve
from hydrodr.lp import (LinearProgram, LpDimensionError, SolveResult, check_kkt,
                        rhs_sensitivity, write_lp)

from oracles import vertex_enumeration_min


def random_feasible_lp(rng, n, m_eq=0, m_in=0, box=(0.0, 10.0)):
    """Equality rhs built from an interior point so the instance is feasible."""
    x0 = rng.uniform(box[0] + 0.2, box[1] - 0.2, size=n)
    a_eq = rng.normal(size=(m_eq, n)) if m_eq else None
    b_eq = a_eq @ x0 if m_eq else None
    a_in = rng.normal(size=(m_in, n)) if m_in else None
    b_in = a_in @ x0 - rng.uniform(0.1, 1.0, size=m_in) if m_in else None
    c = rng.normal(size=n)
    return LinearProgram(c=c, a_eq=a_eq, b_eq=b_eq, a_in=a_in, b_in=b_in,
                         lb=np.full(n, box[0]), ub=np.full(n, box[1]))


def test_single_variable_identity():
    lp = LinearProgram(c=[1.0], a_eq=[[1.0]], b_eq=[3.0], lb=[0.0], ub=[10.0])
    res = solve(lp)
    assert res.optimal
    assert res.objective == pytest.approx(3.0, abs=1e-8)
    # raising the rhs by eps raises the objective by eps
    assert res.y_eq[0] == pytest.approx(1.0, abs=1e-7)


def test_l1_target_dual_sign():
    # min dp + dn  s.t.  x + dp - dn = 5  with x fixed at 2
    lp = LinearProgram(c=[0.0, 1.0, 1.0], a_eq=[[1.0, 1.0, -1.0]], b_eq=[5.0],
                       lb=[2.0, 0.0, 0.0], ub=[2.0, np.inf, np.inf],
                       row_tags={"target": 0})
    res = solve(lp)
    assert res.optimal
    assert res.objective == pytest.approx(3.0, abs=1e-7)
    assert rhs_sensitivity(res, ["target"])["target"] == pytest.approx(1.0, abs=1e-7)


def test_vertex_enumeration_oracle():
    rng = np.random.default_rng(42)
    for k in range(12):
        n = int(rng.integers(3, 7))
        lp = random_feasible_lp(rng, n, m_eq=int(rng.integers(0, 2)),
                                m_in=int(rng.integers(1, 4)))
        res = solve(lp)
        assert res.optimal, f"instance {k}: {res.status}"
        ref, _ = vertex_enumeration_min(lp)
        assert res.objective == pytest.approx(ref, rel=1e-8, abs=1e-8), f"instance {k}"


def test_strong_duality_on_larger_instances():
    rng = np.random.default_rng(7)
    for _ in range(10):
        lp = random_feasible_lp(rng, 40, m_eq=10, m_in=10)
        res = solve(lp)
        assert res.optimal
        pobj, dual_res, gap = res.kkt
        assert gap <= 1e-8
        assert max(res.kkt) <= 1e-8


def test_infeasible_status_not_exception():
    lp = LinearProgram(c=[1.0], a_eq=[[1.0]], b_eq=[3.0], lb=[0.0], ub=[2.0])
    assert solve(lp).status == "infeasible"
    # contradictory equalities
    lp = LinearProgram(c=[1.0, 1.0], a_eq=[[1.0, 1.0], [1.0, 1.0]],
                       b_eq=[1.0, 2.0], lb=[0.0, 0.0])
    assert solve(lp).status == "infeasible"


def test_unbounded_status():
    lp = LinearProgram(c=[1.0, -2.0], a_eq=[[1.0, -1.0]], b_eq=[0.0], lb=[0.0, 0.0])
    assert solve(lp).status == "unbounded"
    # no rows at all, negative cost on an unbounded column
    lp = LinearProgram(c=[-1.0], lb=[0.0])
    assert solve(lp).status == "unbounded"


def test_bounds_only_closed_form():
    lp = LinearProgram(c=[2.0, -3.0, 0.0], lb=[-1.0, -2.0, 0.0], ub=[4.0, 5.0, 6.0])
    res = solve(lp)
    assert res.optimal
    assert np.allclose(res.x, [-1.0, 5.0, 0.0])


def test_presolve_fixed_vars_and_empty_rows():
    # row 1 becomes empty after eliminating the fixed variable
    lp = LinearProgram(c=[1.0, 1.0], a_eq=[[1.0, 1.0], [0.0, 1.0]], b_eq=[4.0, 2.0],
                       lb=[0.0, 2.0], ub=[10.0, 2.0], row_tags={"live": 0, "dead": 1})
    res = solve(lp)
    assert res.optimal
    assert res.x == pytest.approx([2.0, 2.0], abs=1e-7)
    assert res.y_eq[0] == pytest.approx(1.0, abs=1e-7)
    # an all-zero row with nonzero rhs is infeasible
    lp = LinearProgram(c=[1.0], a_eq=[[0.0]], b_eq=[1.0], lb=[0.0], ub=[1.0])
    assert solve(lp).status == "infeasible"
    # and with zero rhs it is dropped
    lp = LinearProgram(c=[1.0], a_eq=[[0.0]], b_eq=[0.0], lb=[0.5], ub=[1.0])
    res = solve(lp)
    assert res.optimal and res.y_eq[0] == 0.0


def test_check_kkt_recomputes_from_scratch():
    rng = np.random.default_rng(3)
    lp = random_feasible_lp(rng, 8, m_eq=3, m_in=2)
    res = solve(lp)
    assert max(check_kkt(lp, res)) <= 1e-8
    # perturbing x grows the primal residual by the propagated amount
    dx = np.zeros(8)
    dx[0] = 1e-2
    bumped = SolveResult(status="optimal", x=res.x + dx, y_eq=res.y_eq,
                         y_in=res.y_in, z=res.z, objective=res.objective)
    p_res, _, _ = check_kkt(lp, bumped)
    expected = np.max(np.abs(lp.a_eq.toarray() @ dx))
    b_scale = 1.0 + max(np.max(np.abs(lp.b_eq)), np.max(np.abs(lp.b_in)))
    assert p_res == pytest.approx(expected / b_scale, rel=0.5)


def test_check_kkt_hand_built_point():
    # min x1 + 2 x2  s.t. x1 + x2 = 1, x >= 0: optimum (1, 0), y = 1, z = (0, 1)
    lp = LinearProgram(c=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0], lb=[0.0, 0.0])
    res = SolveResult(status="optimal", x=np.array([1.0, 0.0]),
                      y_eq=np.array([1.0]), y_in=np.zeros(0),
                      z=np.array([0.0, 1.0]), objective=1.0)
    assert max(check_kkt(lp, res)) <= 1e-14


def test_rhs_sensitivity_finite_differences():
    rng = np.random.default_rng(11)
    checked = 0
    for k in range(8):
        n = 10
        lp = random_feasible_lp(rng, n, m_eq=3, m_in=2)
        lp.row_tags = {f"r{i}": i for i in range(3)}
        res = solve(lp, tol=1e-10)
        if not res.optimal:
            continue
        sens = rhs_sensitivity(res, [f"r{i}" for i in range(3)])
        for i in range(3):
            eps = 1e-5
            objs = []
            duals = []
            skip = False
            for sgn in (+1, -1):
                b2 = lp.b_eq.copy()
                b2[i] += sgn * eps
                lp2 = LinearProgram(c=lp.c, a_eq=lp.a_eq, b_eq=b2, a_in=lp.a_in,
                                    b_in=lp.b_in, lb=lp.lb, ub=lp.ub)
                r2 = solve(lp2, tol=1e-10)
                if not r2.optimal:
                    skip = True
                    break
                objs.append(r2.objective)
                duals.append(r2.y_eq)
            if skip:
                continue
            # active-set change inside the stencil: dual jump filter
            if np.max(np.abs(duals[0] - duals[1])) > 0.5 * (1.0 + abs(sens[f"r{i}"])):
                continue
            fd = (objs[0] - objs[1]) / (2 * eps)
            y = sens[f"r{i}"]
            assert fd == pytest.approx(y, abs=max(1e-3, 1e-3 * abs(y)))
            checked += 1
    assert checked >= 10


def test_rhs_sensitivity_unknown_tag():
    lp = LinearProgram(c=[1.0], a_eq=[[1.0]], b_eq=[1.0], lb=[0.0], ub=[2.0],
                       row_tags={"a": 0})
    res = solve(lp)
    with pytest.raises(KeyError):
        rhs_sensitivity(res, ["nope"])


def test_objective_scaling_scales_duals_not_primal():
    rng = np.random.default_rng(5)
    lp = random_feasible_lp(rng, 12, m_eq=4, m_in=3)
    r1 = solve(lp, tol=1e-10)
    lp2 = LinearProgram(c=7.5 * lp.c, a_eq=lp.a_eq, b_eq=lp.b_eq, a_in=lp.a_in,
                        b_in=lp.b_in, lb=lp.lb, ub=lp.ub)
    r2 = solve(lp2, tol=1e-10)
    assert r1.optimal and r2.optimal
    assert np.allclose(r1.x, r2.x, atol=1e-5)
    assert np.allclose(7.5 * r1.y_eq, r2.y_eq, atol=1e-5)


def test_mu_trace_monotone_decrease():
    """Complementarity falls by at least half every five iterations until
    the stopping region on the bundled corpus."""
    rng = np.random.default_rng(17)
    for k in range(6):
        lp = random_feasible_lp(rng, 20, m_eq=6, m_in=6)
        res = solve(lp)
        assert res.optimal
        mu = [m for m in res.mu_trace if m > 0]
        floor = max(mu[-1], 1e-13 * mu[0])
        for i in range(len(mu) - 5):
            if mu[i] <= 10 * floor:
                break
            assert mu[i + 5] <= 0.5 * mu[i], f"instance {k}, iter {i}: {mu}"


def test_solver_determinism():
    rng = np.random.default_rng(23)
    lp = random_feasible_lp(rng, 15, m_eq=5, m_in=5)
    r1 = solve(lp)
    r2 = solve(lp)
    assert np.array_equal(r1.x, r2.x)
    assert np.array_equal(r1.y_eq, r2.y_eq)
    assert r1.iterations == r2.iterations


def test_dimension_mismatch_raises():
    with pytest.raises(LpDimensionError):
        LinearProgram(c=[1.0, 2.0], a_eq=[[1.0]], b_eq=[1.0])
    with pytest.raises(LpDimensionError):
        LinearProgram(c=[1.0], a_eq=[[1.0]], b_eq=[1.0, 2.0])
    with pytest.raises(LpDimensionError):
        LinearProgram(c=[np.nan])
    with pytest.raises(LpDimensionError):
        LinearProgram(c=[1.0], lb=[2.0], ub=[1.0])


def test_tol_must_be_positive():
    lp = LinearProgram(c=[1.0], lb=[0.0], ub=[1.0])
    with pytest.raises(ValueError):
        solve(lp, tol=0.0)


def test_sparse_input_accepted():
    a = sp.csr_matrix(np.array([[1.0, 1.0]]))
    lp = LinearProgram(c=[1.0, 2.0], a_eq=a, b_eq=[1.0], lb=[0.0, 0.0])
    res = solve(lp)
    assert res.optimal and res.objective == pytest.approx(1.0, abs=1e-8)


def test_write_lp_roundtrips_structure(tmp_path):
    lp = LinearProgram(c=[1.0, -2.0, 0.0], a_eq=[[1.0, 1.0, 0.0]], b_eq=[1.0],
                       a_in=[[0.0, 1.0, 1.0]], b_in=[0.5],
                       lb=[0.0, -np.inf, 1.0], ub=[2.0, np.inf, 1.0])
    out = tmp_path / "dump.lp"
    with open(out, "w") as fh:
        write_lp(lp, fh, name="t")
    text = out.read_text()
    assert "Minimize" in text and "Subject To" in text and "Bounds" in text
    assert "eq0" in text and "in0" in text and "free" in text


# -- the array-level set-up against the sparse-product construction ----------

def _oracle_seg_max(data, indptr, count):
    if data.size == 0:
        return np.ones(count)
    starts = np.minimum(indptr[:-1], data.size - 1)
    out = np.maximum.reduceat(np.abs(data), starts)
    out = np.where(np.diff(indptr) > 0, out, 1.0)
    return np.where(out > 0.0, out, 1.0)


def _oracle_setup(a):
    """Ruiz factors by sparse products, the scaled matrix as
    diags(dr) @ A @ diags(dc), and the augmented matrix's diagonal found by
    a per-column search."""
    m, n = a.shape
    dr, dc = np.ones(m), np.ones(n)
    work = a.copy()
    for _ in range(4):
        rs = 1.0 / np.sqrt(_oracle_seg_max(work.data, work.indptr, m))
        work = sp.diags(rs) @ work
        dr *= rs
        csc = work.tocsc()
        cs = 1.0 / np.sqrt(_oracle_seg_max(csc.data, csc.indptr, n))
        work = (csc @ sp.diags(cs)).tocsr()
        dc *= cs
    scaled = (sp.diags(dr) @ a @ sp.diags(dc)).tocsr()
    kkt = sp.bmat([[sp.diags(np.ones(n)), scaled.T],
                   [scaled, sp.diags(np.ones(m))]], format="csc")
    kkt.sort_indices()
    diag_pos = np.array([kkt.indptr[j] + np.searchsorted(
        kkt.indices[kkt.indptr[j]:kkt.indptr[j + 1]], j) for j in range(n + m)])
    return dr, dc, scaled, kkt, diag_pos


def _same_bits(u, v):
    return u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes()


def _setup_instances():
    from hydrodr.builder import StageBlock, build_extensive, build_second_stage
    from hydrodr.sddp import Cut, _stage_lp
    from hydrodr.scenarios import make_lattice
    from conftest import build_cascade_case
    from oracles import random_lthd, random_path
    rng = np.random.default_rng(11)
    for _ in range(6):
        case = random_lthd(rng)
        path = random_path(case, rng)
        vmax = np.array([h.vmax for h in case.hydros])
        targets = rng.uniform(0.0, 1.0, size=(case.horizon, case.n_hydros)) * vmax
        yield build_second_stage(case, path, targets, 100.0).lp
        yield build_extensive(case, path)[0]
    case = build_cascade_case(horizon=4)
    cuts = [Cut(stage=0, intercept=20.0 * k, slope=np.array([-2.0 * k, -1.0 - k]))
            for k in range(1, 4)]
    lp, _ = _stage_lp(case, 0, case.v0(), make_lattice(case, 2).stages[0].values[0],
                      cuts, StageBlock(case, 11))
    assert lp.n_in >= len(cuts)
    yield lp
    # a stored zero, which the scaled matrix drops
    a = sp.csr_matrix((np.array([2.0, 0.0, 3.0, 1.0]), np.array([0, 1, 1, 2]),
                       np.array([0, 2, 4])), shape=(2, 3))
    yield LinearProgram(c=[1.0, 2.0, 0.5], a_eq=a, b_eq=[1.0, 2.0],
                        a_in=[[1.0, 0.0, 4.0]], b_in=[0.1], lb=[0.0] * 3, ub=[5.0] * 3)


def test_array_setup_matches_sparse_product_oracle():
    from hydrodr import ipm
    for lp in _setup_instances():
        std = ipm._standardize(lp)
        assert ipm._presolve(std) is None
        core = ipm._Core(std.c, std.a, std.b, std.lb, std.ub, 1e-8, 200)
        dr, dc, scaled, kkt, diag_pos = _oracle_setup(std.a.tocsr())
        assert _same_bits(core.dr, dr) and _same_bits(core.dc, dc)
        assert np.array_equal(core.a.indptr, scaled.indptr)
        assert np.array_equal(core.a.indices, scaled.indices)
        assert _same_bits(core.a.data, scaled.data)
        assert np.array_equal(core.kkt.indptr, kkt.indptr)
        assert np.array_equal(core.kkt.indices, kkt.indices)
        assert np.array_equal(core.diag_pos, diag_pos)


def test_refactorization_leaves_no_stale_diagonal():
    from hydrodr import ipm
    from scipy.sparse.linalg import splu
    rng = np.random.default_rng(3)
    std = ipm._standardize(random_feasible_lp(rng, 12, m_eq=4, m_in=3))
    assert ipm._presolve(std) is None
    core = ipm._Core(std.c, std.a, std.b, std.lb, std.ub, 1e-8, 200)
    n, m = core.n, core.m
    first = core._factor(rng.uniform(0.1, 10.0, size=n))
    d_diag = rng.uniform(1e-3, 1e3, size=n)
    lu = core._factor(d_diag)
    fresh = sp.bmat([[sp.diags(-(d_diag + core.reg)), core.a.T],
                     [core.a, sp.diags(np.full(m, core.reg))]], format="csc")
    assert np.array_equal(core.kkt.toarray(), fresh.toarray())
    rhs = rng.normal(size=n + m)
    assert _same_bits(lu.solve(rhs), splu(fresh).solve(rhs))
    assert not np.array_equal(first.solve(rhs), lu.solve(rhs))
