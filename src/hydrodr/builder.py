"""Deterministic multi-period dispatch LP with volume-target tracking.

Given a grid case, one inflow path and a matrix of per-stage reservoir
volume targets, builds the LP whose optimal objective is the cost of
implementing those targets: thermal/hydro dispatch under DC power flow
with tangent-cut linearized losses, water balance along the cascade, and
an L1 deviation split (dev_pos/dev_neg) on each target row priced at the
deviation penalty.  The equality dual of a target row is exactly the
sensitivity of the optimal cost to that target, which is what the policy
trainer consumes.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import ipm, lpdump
from .lp import LinearProgram, SolveResult
from .model import GridCase
from .scenarios import ScenarioPath

log = logging.getLogger(__name__)

SPILL_PENALTY = 1e-4          # USD/hm3, deterministic spill/storage tie-break
DEFAULT_LOSS_CUTS = 11
TARGET_CLIP_FACTOR = 1.5      # targets clipped into [0, factor * vmax]


def default_deviation_penalty(case: GridCase) -> float:
    """10x the most valuable possible use of a stored hm3 (USD/hm3), so a
    unit of target deviation always costs more than any dispatch it could
    displace."""
    return 10.0 * case.max_water_value()


def loss_cut_points(limit: float, n_cuts: int) -> np.ndarray:
    """Flow values where the quadratic loss curve is linearized."""
    if n_cuts < 1:
        raise ValueError("need at least one tangent cut")
    if n_cuts == 1:
        return np.array([0.0])
    return np.linspace(-limit, limit, n_cuts)


def dcll_loss_cuts(branch, n_cuts: int) -> list[tuple[float, float, float]]:
    """Tangent rows linearizing  fr + to >= alpha * fr^2  for one branch.

    Returns (coef_fr, coef_to, rhs) triples meaning
    ``coef_fr * f_fr + coef_to * f_to >= rhs``.  With zero conductance all
    cuts collapse to ``f_fr + f_to >= 0``.
    """
    alpha = branch.loss_coef
    rows = []
    for fhat in loss_cut_points(branch.limit, n_cuts):
        rows.append((1.0 - 2.0 * alpha * fhat, 1.0, -alpha * fhat * fhat))
    return rows


class _Assembler:
    """COO accumulator for one LP (equality and >= inequality blocks)."""

    def __init__(self, n_vars: int):
        self.n = n_vars
        self.c = np.zeros(n_vars)
        self.lb = np.full(n_vars, -np.inf)
        self.ub = np.full(n_vars, np.inf)
        self._eq = ([], [], [])      # rows, cols, vals
        self._in = ([], [], [])
        self.b_eq: list[float] = []
        self.b_in: list[float] = []
        self.row_tags: dict = {}

    def add_eq(self, cols, vals, rhs, tag=None) -> int:
        r = len(self.b_eq)
        self._eq[0].extend([r] * len(cols))
        self._eq[1].extend(cols)
        self._eq[2].extend(vals)
        self.b_eq.append(rhs)
        if tag is not None:
            self.row_tags[tag] = r
        return r

    def add_in(self, cols, vals, rhs) -> int:
        r = len(self.b_in)
        self._in[0].extend([r] * len(cols))
        self._in[1].extend(cols)
        self._in[2].extend(vals)
        self.b_in.append(rhs)
        return r

    def build(self) -> LinearProgram:
        m_eq, m_in = len(self.b_eq), len(self.b_in)
        a_eq = sp.coo_matrix((self._eq[2], (self._eq[0], self._eq[1])),
                             shape=(m_eq, self.n)).tocsr()
        a_in = sp.coo_matrix((self._in[2], (self._in[0], self._in[1])),
                             shape=(m_in, self.n)).tocsr()
        return LinearProgram(c=self.c, a_eq=a_eq, b_eq=np.array(self.b_eq),
                             a_in=a_in, b_in=np.array(self.b_in),
                             lb=self.lb, ub=self.ub, row_tags=self.row_tags)


def _emit_stage(asm: _Assembler, case: GridCase, stage: int, inflow_row,
                cols: dict, x_prev_cols, v_prev_const, n_cuts: int) -> None:
    """Constraint rows of one stage given its column indices.

    ``x_prev_cols`` couples to the previous stage's volume columns; when
    None, ``v_prev_const`` (the initial volumes) lands on the rhs instead.
    """
    h = case.stage_hours
    gen_idx = case.gen_index()
    bus_idx = case.bus_index()
    hyd_idx = case.hydro_index()
    demand = case.demand_matrix()

    for j, hyd in enumerate(case.hydros):
        c_cols = [cols["x"][j], cols["u"][j], cols["s"][j]]
        c_vals = [1.0, 1.0, 1.0]
        for up in hyd.upstream_turbine:
            c_cols.append(cols["u"][hyd_idx[up]])
            c_vals.append(-1.0)
        for up in hyd.upstream_spill:
            c_cols.append(cols["s"][hyd_idx[up]])
            c_vals.append(-1.0)
        rhs = float(inflow_row[j])
        if x_prev_cols is None:
            rhs += float(v_prev_const[j])
        else:
            c_cols.append(x_prev_cols[j])
            c_vals.append(-1.0)
        asm.add_eq(c_cols, c_vals, rhs, tag=("water", stage, j))
        # turbined water is tied to electric output
        asm.add_eq([cols["u"][j], cols["p"][gen_idx[hyd.generator]]],
                   [1.0, -hyd.phi * h], 0.0)

    gens_at_bus: dict[int, list[int]] = {}
    for i, g in enumerate(case.generators):
        gens_at_bus.setdefault(bus_idx[g.bus], []).append(i)
    fr_at = {}
    to_at = {}
    for e, br in enumerate(case.branches):
        fr_at.setdefault(bus_idx[br.from_bus], []).append(e)
        to_at.setdefault(bus_idx[br.to_bus], []).append(e)
    for b in range(case.n_buses):
        c_cols = [cols["p"][i] for i in gens_at_bus.get(b, [])]
        c_vals = [1.0] * len(c_cols)
        for e in fr_at.get(b, []):
            c_cols.append(cols["fr"][e])
            c_vals.append(-1.0)
        for e in to_at.get(b, []):
            c_cols.append(cols["to"][e])
            c_vals.append(-1.0)
        asm.add_eq(c_cols, c_vals, float(demand[stage, b]), tag=("power", stage, b))

    for e, br in enumerate(case.branches):
        i, j = bus_idx[br.from_bus], bus_idx[br.to_bus]
        asm.add_eq([cols["fr"][e], cols["th"][j], cols["th"][i]],
                   [1.0, -br.b, br.b], 0.0)
        for coef_fr, coef_to, rhs in dcll_loss_cuts(br, n_cuts):
            asm.add_in([cols["fr"][e], cols["to"][e]], [coef_fr, coef_to], rhs)


def _stage_bounds(asm: _Assembler, case: GridCase, cols: dict) -> None:
    bus_idx = case.bus_index()
    for i, g in enumerate(case.generators):
        asm.lb[cols["p"][i]] = g.pmin
        asm.ub[cols["p"][i]] = g.pmax
    for j, hyd in enumerate(case.hydros):
        asm.lb[cols["x"][j]] = hyd.vmin
        asm.ub[cols["x"][j]] = hyd.vmax
        asm.lb[cols["u"][j]] = 0.0
        asm.lb[cols["s"][j]] = 0.0
    for e, br in enumerate(case.branches):
        asm.lb[cols["fr"][e]] = -br.limit
        asm.ub[cols["fr"][e]] = br.limit
        asm.lb[cols["to"][e]] = -br.limit
        asm.ub[cols["to"][e]] = br.limit
    ref = bus_idx[case.reference_bus]
    asm.lb[cols["th"][ref]] = 0.0
    asm.ub[cols["th"][ref]] = 0.0


@dataclass
class MultiPeriodProblem:
    """Assembled LP plus the index maps needed to read the solution back."""
    lp: LinearProgram
    target_rows: np.ndarray          # (T, n_hydros) equality-row indices
    var_map: dict[str, np.ndarray]   # name -> (T, count) column indices
    horizon: int
    n_hydros: int
    c_delta: float
    targets: np.ndarray              # effective (possibly clipped) targets


@dataclass
class DualMap:
    """Per-(stage, hydro) sensitivity of the implementation cost to the
    volume target, USD/hm3."""
    lam: np.ndarray                  # (T, n_hydros)


def _layout(case: GridCase, with_dev: bool):
    G, H, E, B = len(case.generators), case.n_hydros, len(case.branches), case.n_buses
    per_stage = G + 3 * H + 2 * E + B + (2 * H if with_dev else 0)
    T = case.horizon
    names = {}
    sizes = [("p", G), ("x", H), ("u", H), ("s", H), ("fr", E), ("to", E), ("th", B)]
    if with_dev:
        sizes += [("dp", H), ("dn", H)]
    off = 0
    for name, size in sizes:
        names[name] = np.arange(size) + off
        off += size
    cols_by_stage = []
    for t in range(T):
        base = t * per_stage
        cols_by_stage.append({k: v + base for k, v in names.items()})
    return T * per_stage, cols_by_stage


def build_second_stage(case: GridCase, path: ScenarioPath, targets,
                       c_delta: float, loss_cuts: int = DEFAULT_LOSS_CUTS) -> MultiPeriodProblem:
    """Assemble the target-tracking dispatch LP for one inflow path.

    ``targets`` is (horizon, n_hydros) in hm3; values outside
    [0, 1.5 * vmax] are clipped (logged) to keep the LP well scaled.  The
    problem is feasible for any finite target matrix because the deviation
    split absorbs whatever the water balance cannot deliver.
    """
    if c_delta <= 0:
        raise ValueError("deviation penalty must be positive")
    T, H = case.horizon, case.n_hydros
    targets = np.asarray(targets, dtype=float)
    if targets.shape != (T, H):
        raise ValueError(f"targets must be ({T}, {H}), got {targets.shape}")
    if path.inflows.shape != (T, H):
        raise ValueError(f"path inflows must be ({T}, {H}), got {path.inflows.shape}")
    if c_delta <= case.max_marginal_cost():
        log.warning("deviation penalty %.3g is below the maximum marginal cost; "
                    "targets may distort the dispatch", c_delta)

    hi = TARGET_CLIP_FACTOR * case.vmax()
    clipped = np.clip(targets, 0.0, hi[None, :])
    n_clip = int(np.sum(clipped != targets))
    if n_clip:
        log.debug("clipped %d target entries into [0, %s]", n_clip, hi)

    n_vars, cols_by_stage = _layout(case, with_dev=True)
    asm = _Assembler(n_vars)
    cost = case.cost_matrix()
    h = case.stage_hours
    v0 = case.v0()
    target_rows = np.zeros((T, H), dtype=int)
    for t in range(T):
        cols = cols_by_stage[t]
        x_prev = cols_by_stage[t - 1]["x"] if t > 0 else None
        _emit_stage(asm, case, t, path.inflows[t], cols, x_prev, v0, loss_cuts)
        for j in range(H):
            target_rows[t, j] = asm.add_eq(
                [cols["x"][j], cols["dp"][j], cols["dn"][j]], [1.0, 1.0, -1.0],
                float(clipped[t, j]), tag=("target", t, j))
        _stage_bounds(asm, case, cols)
        asm.lb[cols["dp"]] = 0.0
        asm.lb[cols["dn"]] = 0.0
        asm.c[cols["p"]] = cost[t] * h
        asm.c[cols["s"]] = SPILL_PENALTY
        asm.c[cols["dp"]] = c_delta
        asm.c[cols["dn"]] = c_delta

    var_map = {key: np.stack([cols_by_stage[t][name] for t in range(T)])
               for key, name in (("generation", "p"), ("volume", "x"),
                                 ("turbine", "u"), ("spill", "s"),
                                 ("flow_fr", "fr"), ("flow_to", "to"),
                                 ("angle", "th"), ("dev_pos", "dp"),
                                 ("dev_neg", "dn"))}
    lp = asm.build()
    lpdump.maybe_dump(lp, "second_stage")
    return MultiPeriodProblem(lp=lp, target_rows=target_rows,
                              var_map=var_map, horizon=T, n_hydros=H,
                              c_delta=c_delta, targets=clipped)


def build_extensive(case: GridCase, path: ScenarioPath,
                    loss_cuts: int = DEFAULT_LOSS_CUTS):
    """Pure dispatch LP for one path, no targets: the extensive-form
    optimum of the deterministic problem.  Returns (lp, var_map)."""
    T = case.horizon
    n_vars, cols_by_stage = _layout(case, with_dev=False)
    asm = _Assembler(n_vars)
    cost = case.cost_matrix()
    h = case.stage_hours
    v0 = case.v0()
    for t in range(T):
        cols = cols_by_stage[t]
        x_prev = cols_by_stage[t - 1]["x"] if t > 0 else None
        _emit_stage(asm, case, t, path.inflows[t], cols, x_prev, v0, loss_cuts)
        _stage_bounds(asm, case, cols)
        asm.c[cols["p"]] = cost[t] * h
        asm.c[cols["s"]] = SPILL_PENALTY
    var_map = {key: np.stack([cols_by_stage[t][name] for t in range(T)])
               for key, name in (("generation", "p"), ("volume", "x"),
                                 ("turbine", "u"), ("spill", "s"),
                                 ("flow_fr", "fr"), ("flow_to", "to"),
                                 ("angle", "th"))}
    lp = asm.build()
    lpdump.maybe_dump(lp, "extensive")
    return lp, var_map


def extract_duals(problem: MultiPeriodProblem, result: SolveResult) -> DualMap:
    """Read the target-row equality duals back as a (T, n_hydros) matrix."""
    if not result.optimal:
        raise ValueError(f"cannot extract duals from a {result.status!r} result")
    lam = result.y_eq[problem.target_rows]
    if not np.all(np.isfinite(lam)):
        raise ValueError("non-finite dual in target rows")
    bound = problem.c_delta * (1.0 + 1e-6) + 1e-9
    if np.max(np.abs(lam)) > bound:
        raise ValueError(f"target dual {np.max(np.abs(lam)):.6g} exceeds the "
                         f"deviation penalty {problem.c_delta:.6g}")
    return DualMap(lam=lam.copy())


def deviation_l1(problem: MultiPeriodProblem, result: SolveResult) -> float:
    dev = result.x[problem.var_map["dev_pos"]] + result.x[problem.var_map["dev_neg"]]
    return float(np.sum(dev))


@dataclass
class EvalStats:
    """Policy evaluation over a path set: cost moments, feasibility and
    timing split between policy inference and second-stage solving."""
    mean_cost: float
    std_cost: float
    max_dev: float
    n_failed: int
    n_paths: int
    costs: np.ndarray
    rollout_seconds: float = 0.0
    solve_seconds: float = 0.0
    decisions: int = 0

    @property
    def rollout_seconds_per_decision(self) -> float:
        return self.rollout_seconds / max(self.decisions, 1)

    @property
    def solve_seconds_per_decision(self) -> float:
        return self.solve_seconds / max(self.decisions, 1)


def map_ordered(fn, items, workers: int = 1) -> list:
    """Apply ``fn`` over ``items`` preserving order; threads when workers > 1.

    Results are reduced in item order regardless of worker count, so any
    aggregation downstream is reproducible.
    """
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items))


def evaluate_policy_cost(case: GridCase, paths, policy, c_delta: float,
                         loss_cuts: int = DEFAULT_LOSS_CUTS,
                         tol: float = 1e-8, workers: int = 1) -> EvalStats:
    """Roll the policy out on every path and price the implementation.

    ``rollout_seconds`` times the policy; ``solve_seconds`` times building
    the second-stage LP plus solving it.  Solver failures are logged and
    the path skipped; the failure count is part of the returned stats.
    """
    paths = list(paths)

    def one(path):
        t0 = time.perf_counter()
        targets = policy.rollout(path)
        roll = time.perf_counter() - t0
        t0 = time.perf_counter()
        prob = build_second_stage(case, path, targets, c_delta, loss_cuts)
        res = ipm.solve(prob.lp, tol=tol)
        solve_t = time.perf_counter() - t0
        if not res.optimal:
            log.warning("evaluation solve failed (%s) on path %s", res.status, path.source_id)
            return None, 0.0, roll, solve_t
        return res.objective, deviation_l1(prob, res), roll, solve_t

    outcomes = map_ordered(one, paths, workers)
    costs = []
    max_dev = 0.0
    n_failed = 0
    t_roll = 0.0
    t_solve = 0.0
    for cost, dev, roll, solve_t in outcomes:
        t_roll += roll
        t_solve += solve_t
        if cost is None:
            n_failed += 1
            continue
        costs.append(cost)
        max_dev = max(max_dev, dev)
    costs = np.array(costs)
    mean = float(costs.mean()) if costs.size else float("nan")
    std = float(costs.std()) if costs.size else float("nan")
    return EvalStats(mean_cost=mean, std_cost=std, max_dev=max_dev,
                     n_failed=n_failed, n_paths=len(paths), costs=costs,
                     rollout_seconds=t_roll, solve_seconds=t_solve,
                     decisions=case.horizon * len(paths))
