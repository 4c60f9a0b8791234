"""Deterministic multi-period dispatch LP with volume-target tracking.

Given a grid case, one inflow path and a matrix of per-stage reservoir
volume targets, builds the LP whose optimal objective is the cost of
implementing those targets: thermal/hydro dispatch under DC power flow
with tangent-cut linearized losses, water balance along the cascade, and
an L1 deviation split (dev_pos/dev_neg) on each target row priced at the
deviation penalty.  The equality dual of a target row is exactly the
sensitivity of the optimal cost to that target, which is what the policy
trainer consumes.

One :class:`StageBlock` lays out the dispatch physics of a stage, and
every LP here and in :mod:`hydrodr.sddp` is assembled from it:

* columns: ``p`` (generators), ``x``, ``u``, ``s`` (volume, turbined and
  spilled water per hydro), ``fr``, ``to`` (directed flows per branch),
  ``th`` (bus angles), then ``dp``, ``dn`` (target deviations per hydro)
  when the block carries targets;
* equality rows: per hydro its water balance then its turbine link, the
  power balance per bus, the angle row per branch, then the target row
  per hydro when the block carries targets;
* inequality rows: the loss cuts of each branch, branch after branch.

The second-stage and extensive-form LPs place one block per stage on the
diagonal and couple each water row to the previous stage's volumes; the
SDDP stage LP puts volume-fixing rows and columns in front of one block
and an epigraph column with its cut rows after it.
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


def loss_cut_points(limit, n_cuts: int) -> np.ndarray:
    """Flow values where the quadratic loss curve is linearized, along the
    last axis (one row per entry of an array of limits)."""
    if n_cuts < 1:
        raise ValueError("need at least one tangent cut")
    limit = np.asarray(limit, dtype=float)
    if n_cuts == 1:
        return np.zeros(limit.shape + (1,))
    return np.linspace(-limit, limit, n_cuts, axis=-1)


def dcll_loss_cuts(branches, n_cuts: int) -> np.ndarray:
    """Tangent rows linearizing  fr + to >= alpha * fr^2  for each branch.

    Returns a (len(branches), n_cuts, 3) array of (coef_fr, coef_to, rhs)
    rows meaning ``coef_fr * f_fr + coef_to * f_to >= rhs``.  With zero
    conductance all cuts collapse to ``f_fr + f_to >= 0``.
    """
    alpha = np.array([br.loss_coef for br in branches])[:, None]
    fhat = loss_cut_points([br.limit for br in branches], n_cuts)
    return np.stack([1.0 - 2.0 * alpha * fhat, np.ones_like(fhat), -alpha * fhat * fhat], axis=-1)


class StageBlock:
    """One stage's columns and rows, laid out once for every LP built here
    (order in the module docstring).

    ``a_eq`` and ``a_in`` are the block's (rows, cols, vals) COO arrays;
    ``water_rows``, ``power_rows`` and ``target_rows`` locate the rows
    whose right-hand side varies by stage or path.  The water rows leave
    out the incoming volume: the caller adds a -1 entry on whichever
    column carries it.
    """

    def __init__(self, case: GridCase, loss_cuts: int = DEFAULT_LOSS_CUTS,
                 with_dev: bool = False):
        G, H, E, B = len(case.generators), case.n_hydros, len(case.branches), case.n_buses
        sizes = [("p", G), ("x", H), ("u", H), ("s", H), ("fr", E), ("to", E), ("th", B)]
        if with_dev:
            sizes += [("dp", H), ("dn", H)]
        ends = np.cumsum([size for _, size in sizes])
        self.cols = {name: np.arange(end - size, end) for (name, size), end in zip(sizes, ends)}
        self.n = int(ends[-1])
        p, x, u, s, fr, to, th = (self.cols[k] for k in ("p", "x", "u", "s", "fr", "to", "th"))

        bus_idx, gen_idx, hyd_idx = case.bus_index(), case.gen_index(), case.hydro_index()
        gen_bus = np.array([bus_idx[g.bus] for g in case.generators], dtype=int)
        fr_bus = np.array([bus_idx[br.from_bus] for br in case.branches], dtype=int)
        to_bus = np.array([bus_idx[br.to_bus] for br in case.branches], dtype=int)
        susceptance = np.array([br.b for br in case.branches])
        hyd_gen = [gen_idx[hyd.generator] for hyd in case.hydros]
        phi = np.array([hyd.phi for hyd in case.hydros])
        up_rows, up_cols = [], []
        for j, hyd in enumerate(case.hydros):
            ups = ([u[hyd_idx[g]] for g in hyd.upstream_turbine]
                   + [s[hyd_idx[g]] for g in hyd.upstream_spill])
            up_rows += [2 * j] * len(ups)
            up_cols += ups

        self.water_rows = 2 * np.arange(H)       # each followed by its turbine link
        self.power_rows = 2 * H + np.arange(B)
        angle_rows = 2 * H + B + np.arange(E)
        self.target_rows = 2 * H + B + E + np.arange(H if with_dev else 0)
        self.m_eq = 2 * H + B + E + self.target_rows.size
        w = self.water_rows
        eq = [(w, x, 1.0), (w, u, 1.0), (w, s, 1.0), (up_rows, up_cols, -1.0),
              (w + 1, u, 1.0), (w + 1, p[hyd_gen], -phi * case.stage_hours),
              (self.power_rows[gen_bus], p, 1.0), (self.power_rows[fr_bus], fr, -1.0),
              (self.power_rows[to_bus], to, -1.0),
              (angle_rows, fr, 1.0), (angle_rows, th[to_bus], -susceptance),
              (angle_rows, th[fr_bus], susceptance)]
        if with_dev:
            tr = self.target_rows
            eq += [(tr, x, 1.0), (tr, self.cols["dp"], 1.0), (tr, self.cols["dn"], -1.0)]
        self.a_eq = _coo(eq)

        cuts = dcll_loss_cuts(case.branches, loss_cuts).reshape(E * loss_cuts, 3)
        self.m_in = E * loss_cuts
        self.a_in = _coo([(np.arange(self.m_in), np.repeat(fr, loss_cuts), cuts[:, 0]),
                          (np.arange(self.m_in), np.repeat(to, loss_cuts), cuts[:, 1])])
        self.b_in = cuts[:, 2].copy()

        limit = np.array([br.limit for br in case.branches])
        self.lb, self.ub = np.full(self.n, -np.inf), np.full(self.n, np.inf)
        bounds = [(p, [g.pmin for g in case.generators], [g.pmax for g in case.generators]),
                  (x, case.vmin(), case.vmax()), (u, 0.0, np.inf), (s, 0.0, np.inf),
                  (fr, -limit, limit), (to, -limit, limit),
                  (th[bus_idx[case.reference_bus]], 0.0, 0.0)]
        if with_dev:
            bounds += [(self.cols["dp"], 0.0, np.inf), (self.cols["dn"], 0.0, np.inf)]
        for cols, lo, hi in bounds:
            self.lb[cols], self.ub[cols] = lo, hi

        self._demand = case.demand_matrix()
        self._energy_cost = case.cost_matrix() * case.stage_hours

    def rhs(self, stages, inflows) -> np.ndarray:
        """Equality right-hand sides, one row per entry of ``stages`` (an
        int or an index array): inflows on the water rows, demand on the
        power rows, zero elsewhere."""
        inflows = np.asarray(inflows, dtype=float)
        shape = np.shape(stages) + (self.water_rows.size,)
        if inflows.shape != shape:
            raise ValueError(f"inflows must be {shape}, got {inflows.shape}")
        b = np.zeros(shape[:-1] + (self.m_eq,))
        b[..., self.water_rows] = inflows
        b[..., self.power_rows] = self._demand[stages]
        return b

    def cost(self, stages) -> np.ndarray:
        """Objective coefficients of the dispatch columns for ``stages``;
        the deviation columns are left at zero."""
        c = np.zeros(np.shape(stages) + (self.n,))
        c[..., self.cols["p"]] = self._energy_cost[stages]
        c[..., self.cols["s"]] = SPILL_PENALTY
        return c

    def row_tags(self, stage: int, offset: int) -> dict:
        """Tags of the water, power and target rows of ``stage`` placed at
        equality row ``offset``."""
        return {(name, stage, k): offset + int(r)
                for name, rows in (("water", self.water_rows), ("power", self.power_rows),
                                   ("target", self.target_rows))
                for k, r in enumerate(rows)}


def _coo(entries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate (rows, cols, vals) groups; a scalar val fills its group."""
    rows, cols, vals = zip(*entries)
    return (np.concatenate(rows).astype(int), np.concatenate(cols).astype(int),
            np.concatenate([np.full(len(r), v, dtype=float) for r, v in zip(rows, vals)]))


_VAR_KEYS = (("generation", "p"), ("volume", "x"), ("turbine", "u"), ("spill", "s"),
             ("flow_fr", "fr"), ("flow_to", "to"), ("angle", "th"),
             ("dev_pos", "dp"), ("dev_neg", "dn"))


@dataclass
class MultiPeriodProblem:
    """Assembled LP plus the index maps needed to read the solution back."""
    lp: LinearProgram
    target_rows: np.ndarray          # (T, n_hydros) equality-row indices
    var_map: dict[str, np.ndarray]   # name -> (T, count) column indices
    c_delta: float
    targets: np.ndarray              # effective (possibly clipped) targets


@dataclass
class DualMap:
    """Per-(stage, hydro) sensitivity of the implementation cost to the
    volume target, USD/hm3."""
    lam: np.ndarray                  # (T, n_hydros)


def _horizon_lp(case: GridCase, path: ScenarioPath, loss_cuts: int,
                targets=None, c_delta: float = 0.0):
    """The T-stage LP: one stage block per stage on the diagonal, each
    water row also taking -1 on the previous stage's volume (stage 0 has
    the initial volumes on its rhs).  With ``targets`` the blocks carry the
    deviation columns and target rows, priced at ``c_delta``.

    Returns (lp, var_map, target_rows).
    """
    T = case.horizon
    blk = StageBlock(case, loss_cuts, with_dev=targets is not None)
    stages = np.arange(T)
    b_eq = blk.rhs(stages, path.inflows)
    b_eq[0, blk.water_rows] += case.v0()
    c = blk.cost(stages)
    if targets is not None:
        b_eq[:, blk.target_rows] = targets
        c[:, blk.cols["dp"]] = c_delta
        c[:, blk.cols["dn"]] = c_delta

    m, n = blk.m_eq, blk.n
    r, k, v = blk.a_eq
    x = blk.cols["x"]
    a_eq = sp.coo_matrix(
        (np.concatenate([np.tile(v, T), np.full(x.size * (T - 1), -1.0)]),
         (np.concatenate([(r + m * stages[:, None]).ravel(),
                          (blk.water_rows + m * stages[1:, None]).ravel()]),
          np.concatenate([(k + n * stages[:, None]).ravel(),
                          (x + n * stages[:-1, None]).ravel()]))),
        shape=(T * m, T * n))
    r, k, v = blk.a_in
    a_in = sp.coo_matrix((np.tile(v, T), ((r + blk.m_in * stages[:, None]).ravel(),
                                          (k + n * stages[:, None]).ravel())),
                         shape=(T * blk.m_in, T * n))
    row_tags = {tag: row for t in range(T) for tag, row in blk.row_tags(t, t * m).items()}
    lp = LinearProgram(c=c.ravel(), a_eq=a_eq, b_eq=b_eq.ravel(), a_in=a_in,
                       b_in=np.tile(blk.b_in, T), lb=np.tile(blk.lb, T),
                       ub=np.tile(blk.ub, T), row_tags=row_tags)
    var_map = {key: blk.cols[name] + n * stages[:, None]
               for key, name in _VAR_KEYS if name in blk.cols}
    return lp, var_map, blk.target_rows + m * stages[:, None]


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
    if c_delta <= case.max_marginal_cost():
        log.warning("deviation penalty %.3g is below the maximum marginal cost; "
                    "targets may distort the dispatch", c_delta)

    hi = TARGET_CLIP_FACTOR * case.vmax()
    clipped = np.clip(targets, 0.0, hi[None, :])
    n_clip = int(np.sum(clipped != targets))
    if n_clip:
        log.debug("clipped %d target entries into [0, %s]", n_clip, hi)

    lp, var_map, target_rows = _horizon_lp(case, path, loss_cuts, clipped, c_delta)
    lpdump.maybe_dump(lp, "second_stage")
    return MultiPeriodProblem(lp=lp, target_rows=target_rows, var_map=var_map,
                              c_delta=c_delta, targets=clipped)


def build_extensive(case: GridCase, path: ScenarioPath,
                    loss_cuts: int = DEFAULT_LOSS_CUTS):
    """Pure dispatch LP for one path, no targets: the extensive-form
    optimum of the deterministic problem.  Returns (lp, var_map)."""
    lp, var_map, _ = _horizon_lp(case, path, loss_cuts)
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
