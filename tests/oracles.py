"""Independent oracles and instance generators used across the test suite.

Nothing in here reuses the solution paths it is meant to check: vertex
enumeration brute-forces small LPs, the grid DP values a 1-hydro problem
by backward induction on a volume grid, the per-path policy passes replay
one path at a time with vector operations, the per-solution KKT check
recomputes one solution's residuals with vector operations, and the
random instance factory builds small feasible hydrothermal cases from
scratch.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.special import expit

from hydrodr.model import Branch, Bus, Generator, GridCase, HydroUnit, validate_case
from hydrodr.scenarios import LatticeStage, ScenarioPath, ScenarioSet
from hydrodr.sddp import Cut, stage_solve


def vertex_enumeration_min(lp, feas_tol: float = 1e-7):
    """Brute-force optimum of a small LP by enumerating basic solutions.

    Collects every constraint (equalities, >= rows, finite bounds) and
    tries all ways of activating enough of them to pin down x.  Only
    sensible for <= 10 variables.
    """
    n = lp.n_vars
    rows = []
    rhs = []
    kinds = []          # "eq" | "ge"
    a_eq = lp.a_eq.toarray() if lp.n_eq else np.zeros((0, n))
    a_in = lp.a_in.toarray() if lp.n_in else np.zeros((0, n))
    for i in range(lp.n_eq):
        rows.append(a_eq[i]); rhs.append(lp.b_eq[i]); kinds.append("eq")
    for i in range(lp.n_in):
        rows.append(a_in[i]); rhs.append(lp.b_in[i]); kinds.append("ge")
    for j in range(n):
        if np.isfinite(lp.lb[j]):
            e = np.zeros(n); e[j] = 1.0
            rows.append(e); rhs.append(lp.lb[j]); kinds.append("ge")
        if np.isfinite(lp.ub[j]):
            e = np.zeros(n); e[j] = -1.0
            rows.append(e); rhs.append(-lp.ub[j]); kinds.append("ge")
    rows = np.array(rows)
    rhs = np.array(rhs)
    eq_idx = [i for i, k in enumerate(kinds) if k == "eq"]
    ge_idx = [i for i, k in enumerate(kinds) if k == "ge"]
    need = n - len(eq_idx)
    if need < 0:
        raise ValueError("more equalities than variables")

    best = np.inf
    best_x = None
    for combo in itertools.combinations(ge_idx, need):
        active = eq_idx + list(combo)
        a = rows[active]
        if np.linalg.matrix_rank(a) < n:
            continue
        x = np.linalg.lstsq(a, rhs[active], rcond=None)[0]
        if np.max(np.abs(a @ x - rhs[active])) > feas_tol:
            continue
        viol = 0.0
        if lp.n_eq:
            viol = max(viol, np.max(np.abs(a_eq @ x - lp.b_eq)))
        if lp.n_in:
            viol = max(viol, np.max(np.maximum(lp.b_in - a_in @ x, 0.0)))
        viol = max(viol, np.max(np.maximum(lp.lb - x, 0.0), initial=0.0))
        viol = max(viol, np.max(np.maximum(x - lp.ub, 0.0), initial=0.0))
        if viol > feas_tol:
            continue
        obj = float(lp.c @ x)
        if obj < best:
            best = obj
            best_x = x
    return best, best_x


def grid_dp_value(case: GridCase, lattice: ScenarioSet, n_grid: int = 200,
                  loss_cuts: int = 11, tol: float = 1e-9) -> float:
    """Backward induction for a 1-hydro case on a volume grid.

    Stage values are computed at every grid point against the piecewise
    linear (chord) representation of the next stage's expected value, then
    the root stage is priced at v0.  Convexity of the stage problems makes
    the chord representation exact at the grid nodes.
    """
    if case.n_hydros != 1:
        raise ValueError("grid DP oracle is 1-hydro only")
    hyd = case.hydros[0]
    grid = np.linspace(hyd.vmin, hyd.vmax, n_grid)
    values = np.zeros(n_grid)           # expected cost-to-go at stage t+1

    def cuts_from(vals) -> list[Cut]:
        cuts = []
        for k in range(n_grid - 1):
            slope = (vals[k + 1] - vals[k]) / (grid[k + 1] - grid[k])
            cuts.append(Cut(stage=-1, intercept=float(vals[k] - slope * grid[k]),
                            slope=np.array([slope])))
        return cuts

    for t in range(case.horizon - 1, 0, -1):
        st = lattice.stages[t]
        cuts = cuts_from(values)
        new_vals = np.zeros(n_grid)
        for i, x_in in enumerate(grid):
            exp_val = 0.0
            for k in range(st.probs.size):
                sol = stage_solve(case, t, np.array([x_in]), st.values[k], cuts,
                                  loss_cuts=loss_cuts, tol=tol)
                exp_val += st.probs[k] * sol.total
            new_vals[i] = exp_val
        values = new_vals
    root = stage_solve(case, 0, case.v0(), lattice.stages[0].values[0],
                       cuts_from(values), loss_cuts=loss_cuts, tol=tol)
    return root.total


def central_fd(f, x: np.ndarray, i: int, eps: float) -> float:
    xp = x.copy(); xp[i] += eps
    xm = x.copy(); xm[i] -= eps
    return (f(xp) - f(xm)) / (2.0 * eps)


# -- random small hydrothermal instances --------------------------------------

def random_lthd(rng: np.random.Generator, max_hydros: int = 3,
                max_horizon: int = 8) -> GridCase:
    """Small feasible case: 2-3 buses, 1..max_hydros cascading hydros,
    two thermals sized to cover peak demand alone, mild line losses."""
    T = int(rng.integers(2, max_horizon + 1))
    n_h = int(rng.integers(1, max_hydros + 1))
    n_b = int(rng.integers(2, 4))

    demand_base = rng.uniform(1.0, 5.0, size=n_b)
    demand_base[0] = 0.0
    buses = tuple(
        Bus(i, tuple(float(demand_base[i] * (1.0 + 0.2 * np.sin(t + i))) if demand_base[i] else 0.0
                     for t in range(T)))
        for i in range(n_b))
    peak = max(sum(b.demand[t] for b in buses) for t in range(T))

    edges = [(int(rng.integers(0, i)), i) for i in range(1, n_b)]
    if n_b == 3 and rng.random() < 0.5:
        edges.append((0, 2) if (0, 2) not in edges else (1, 2))
    branches = []
    seen = set()
    for i, j in edges:
        if (i, j) in seen:
            continue
        seen.add((i, j))
        b = -float(rng.uniform(20.0, 60.0))
        branches.append(Branch(i, j, b=b, g=float(rng.uniform(0.0, 0.05)) * abs(b),
                               limit=float(1.5 * peak + rng.uniform(1.0, 5.0))))

    gens = []
    hydros = []
    for j in range(n_h):
        pmax = float(rng.uniform(1.0, 4.0))
        gens.append(Generator(j, int(rng.integers(0, n_b)),
                              tuple(0.0 for _ in range(T)), 0.0, pmax, "hydro"))
        vmax = float(rng.uniform(2.0, 8.0))
        ups = (j - 1,) if j > 0 and rng.random() < 0.5 else ()
        hydros.append(HydroUnit(j, vmin=0.0, vmax=vmax,
                                v0=float(rng.uniform(0.3, 0.8)) * vmax,
                                phi=float(rng.uniform(0.5, 2.0)),
                                upstream_turbine=ups, upstream_spill=ups))
    for k, cost in enumerate((float(rng.uniform(5.0, 20.0)), float(rng.uniform(25.0, 60.0)))):
        gens.append(Generator(n_h + k, int(rng.integers(0, n_b)),
                              tuple(cost for _ in range(T)),
                              0.0, float(0.8 * peak + 1.0), "thermal"))

    case = GridCase(horizon=T, stage_hours=1.0, reference_bus=0,
                    buses=buses, branches=tuple(branches),
                    generators=tuple(gens), hydros=tuple(hydros))
    validate_case(case)
    return case


def random_path(case: GridCase, rng: np.random.Generator) -> ScenarioPath:
    scale = np.array([0.5 * h.vmax for h in case.hydros])
    inflows = rng.uniform(0.0, 1.0, size=(case.horizon, case.n_hydros)) * scale
    return ScenarioPath(inflows=inflows, source_id=("random",))


def lattice_for(case: GridCase, rng: np.random.Generator, n_points: int = 3) -> ScenarioSet:
    scale = np.array([0.4 * h.vmax for h in case.hydros])
    stages = [LatticeStage(values=(0.5 * scale)[None, :], probs=np.array([1.0]))]
    for _ in range(1, case.horizon):
        levels = np.stack([scale * f for f in np.linspace(0.2, 1.0, n_points)])
        probs = rng.uniform(0.5, 1.5, size=n_points)
        stages.append(LatticeStage(values=levels, probs=probs / probs.sum()))
    return ScenarioSet.lattice(stages)


# -- per-path policy passes (reference for the batched ones) -------------------

def ddr_forward_path(params, inflows: np.ndarray):
    """Roll the recurrent rule along one (T, H) inflow path, one stage and
    one vector at a time.  Returns (targets, tape) for
    :func:`ddr_backward_path`."""
    spec = params.spec
    H = spec.n_hydros
    tape = {"inputs": [], "hidden": [], "head_x_pre": [], "latents": []}
    lat = np.zeros(spec.latent_dim)
    targets = np.zeros(inflows.shape)
    for t in range(inflows.shape[0]):
        head = np.zeros(2 * H + 1)
        if t == 0:
            head[H:2 * H] = np.asarray(spec.x0) / np.asarray(spec.x0_scale)
            head[2 * H] = 1.0
        else:
            head[:H] = inflows[t] / np.asarray(spec.w_scale)
        a = np.concatenate([head, lat])
        acts = []
        z = a
        for w, b in zip(params.w, params.b):
            z = np.tanh(w @ z + b)
            acts.append(z)
        hx = params.w_x @ z + params.b_x
        lat = np.tanh(params.w_l @ z + params.b_l)
        targets[t] = _squash(spec, hx)
        tape["inputs"].append(a)
        tape["hidden"].append(acts)
        tape["head_x_pre"].append(hx)
        tape["latents"].append(lat)
    return targets, tape


def ddr_backward_path(params, tape, lam: np.ndarray) -> list[np.ndarray]:
    """Gradient arrays (in ``params.arrays()`` order) of sum_t lam_t .
    targets_t for one path, by outer products stage by stage."""
    spec = params.spec
    g_w = [np.zeros_like(w) for w in params.w]
    g_b = [np.zeros_like(b) for b in params.b]
    g_wx, g_bx = np.zeros_like(params.w_x), np.zeros_like(params.b_x)
    g_wl, g_bl = np.zeros_like(params.w_l), np.zeros_like(params.b_l)
    g_lat = np.zeros(spec.latent_dim)
    for t in range(len(tape["inputs"]) - 1, -1, -1):
        z_last = tape["hidden"][t][-1]
        gh_x = lam[t] * _squash_grad(spec, tape["head_x_pre"][t])
        gh_l = g_lat * (1.0 - tape["latents"][t] ** 2)
        g_wx += np.outer(gh_x, z_last)
        g_bx += gh_x
        g_wl += np.outer(gh_l, z_last)
        g_bl += gh_l
        g_z = params.w_x.T @ gh_x + params.w_l.T @ gh_l
        for k in range(len(params.w) - 1, -1, -1):
            z_in = tape["hidden"][t][k - 1] if k > 0 else tape["inputs"][t]
            g_pre = g_z * (1.0 - tape["hidden"][t][k] ** 2)
            g_w[k] += np.outer(g_pre, z_in)
            g_b[k] += g_pre
            g_z = params.w[k].T @ g_pre
        g_lat = g_z[2 * spec.n_hydros + 1:]
    return [*g_w, *g_b, g_wx, g_bx, g_wl, g_bl]


def _squash(spec, pre):
    if not spec.squash:
        return pre.copy()
    lo, hi = np.asarray(spec.vmin), np.asarray(spec.vmax)
    return lo + (hi - lo) * expit(pre)


def _squash_grad(spec, pre):
    if not spec.squash:
        return np.ones_like(pre)
    lo, hi = np.asarray(spec.vmin), np.asarray(spec.vmax)
    s = expit(pre)
    return (hi - lo) * s * (1.0 - s)


def _history_stack(spec, inflows: np.ndarray, t: int) -> np.ndarray:
    """[w_2, ..., w_t, x0] for stage index t (0-based): t inflow blocks."""
    return np.concatenate([inflows[s] for s in range(1, t + 1)] + [np.asarray(spec.x0)])


def ldr_forward_path(params, inflows: np.ndarray) -> np.ndarray:
    """The linear rule on one (T, H) path, one stage at a time."""
    spec = params.spec
    return np.stack([params.theta[t] @ _history_stack(spec, inflows, t)
                     for t in range(spec.horizon)])


def ldr_backward_path(params, inflows: np.ndarray, lam: np.ndarray) -> list[np.ndarray]:
    """Per-stage gradients lam_t (outer) history_t for one path."""
    return [np.outer(lam[t], _history_stack(params.spec, inflows, t))
            for t in range(params.spec.horizon)]


# -- per-solution KKT check (reference for the stacked one) -------------------

def check_kkt_one(lp, result) -> tuple[float, float, float]:
    """KKT residuals (primal_res, dual_res, gap) of one solution, one
    reduction at a time on the full LP data."""
    x, y, yin, z = result.x, result.y_eq, result.y_in, result.z
    b_scale = 1.0
    if lp.b_eq.size:
        b_scale = max(b_scale, float(np.max(np.abs(lp.b_eq))))
    if lp.b_in.size:
        b_scale = max(b_scale, float(np.max(np.abs(lp.b_in))))

    viol = 0.0
    if lp.n_eq:
        viol = max(viol, float(np.max(np.abs(lp.a_eq @ x - lp.b_eq))))
    if lp.n_in:
        viol = max(viol, float(np.max(np.maximum(lp.b_in - lp.a_in @ x, 0.0))))
    viol = max(viol, float(np.max(np.maximum(lp.lb - x, 0.0), initial=0.0)))
    viol = max(viol, float(np.max(np.maximum(x - lp.ub, 0.0), initial=0.0)))
    primal_res = viol / (1.0 + b_scale)

    c_scale = 1.0 + (float(np.max(np.abs(lp.c))) if lp.c.size else 0.0)
    stat = lp.c - lp.a_eq.T @ y - lp.a_in.T @ yin - z
    dual_viol = float(np.max(np.abs(stat), initial=0.0))
    if lp.n_in:
        dual_viol = max(dual_viol, float(np.max(np.maximum(-yin, 0.0))))
    # z must push from an existing finite bound
    bad_lo = (z > 0) & ~np.isfinite(lp.lb)
    bad_hi = (z < 0) & ~np.isfinite(lp.ub)
    if np.any(bad_lo):
        dual_viol = max(dual_viol, float(np.max(z[bad_lo])))
    if np.any(bad_hi):
        dual_viol = max(dual_viol, float(np.max(-z[bad_hi])))
    dual_res = dual_viol / c_scale

    pobj = float(lp.c @ x)
    dobj = float(lp.b_eq @ y) + float(lp.b_in @ yin)
    zl = np.where(np.isfinite(lp.lb), np.maximum(z, 0.0), 0.0)
    zu = np.where(np.isfinite(lp.ub), np.maximum(-z, 0.0), 0.0)
    fixed = np.isfinite(lp.lb) & np.isfinite(lp.ub) & (lp.lb == lp.ub)
    # on fixed columns the net dual is a plain reduced cost, not a split pair
    zl[fixed] = np.where(z[fixed] > 0, z[fixed], 0.0)
    zu[fixed] = np.where(z[fixed] < 0, -z[fixed], 0.0)
    with np.errstate(invalid="ignore"):
        dobj += float(np.sum(np.where(zl > 0, lp.lb * zl, 0.0)))
        dobj -= float(np.sum(np.where(zu > 0, lp.ub * zu, 0.0)))
    gap = abs(pobj - dobj) / (1.0 + abs(pobj))
    return (primal_res, dual_res, gap)
