"""Cutting-plane value iteration (single-cut SDDP) for lattice instances.

Works on stagewise-independent lattices only; the first stage must carry a
single deterministic inflow realization.  Each iteration runs one sampled
forward pass recording visited volumes, then a backward sweep that solves
every lattice realization at the visited point, averages objectives and
incoming-volume duals into one new cut per stage, and finally re-solves
stage one for the (non-decreasing) lower bound.  Simulation rolls the
frozen cut pools forward on fresh paths, which gives the statistical upper
bound paired with that lower bound.

A failed stage solve is counted, never fatal: a failed backward solve
drops that stage's cut, and a failed forward or bound solve ends its
iteration without the cuts or the bound it would have produced.
"""

from __future__ import annotations

import csv
import logging
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import ipm, lpdump
from .builder import DEFAULT_LOSS_CUTS, StageBlock
from .lp import LinearProgram
from .model import GridCase
from .scenarios import ScenarioSet, sample_paths

log = logging.getLogger(__name__)

BOUND_TOL = 1e-6          # relative lower-bound regression guard
STABLE_REL = 1e-4         # bound considered stable under 0.01% drift
STABLE_WINDOW = 10


class SddpError(RuntimeError):
    pass


@dataclass
class Cut:
    """Affine under-estimator of the expected cost-to-go at one stage:
    E[V_{stage+1}](x) >= intercept + slope . x."""
    stage: int
    intercept: float
    slope: np.ndarray

    def value(self, x) -> float:
        return self.intercept + float(self.slope @ np.asarray(x))


@dataclass
class SddpState:
    pools: list[list[Cut]]
    bound_trace: list[float] = field(default_factory=list)
    iterations: int = 0
    seed: int = 0
    stable_at: int | None = None
    failed_solves: int = 0

    @property
    def lower_bound(self) -> float:
        return self.bound_trace[-1] if self.bound_trace else float("-inf")

    def cut_counts(self) -> list[int]:
        return [len(p) for p in self.pools]


@dataclass
class StageSolution:
    total: float              # stage cost plus cost-to-go epigraph value
    stage_cost: float
    x_out: np.ndarray
    dual_in: np.ndarray       # d(total)/d(incoming volumes)


def _check_lattice(case: GridCase, lattice: ScenarioSet) -> None:
    if lattice.mode != "lattice":
        raise SddpError("SDDP requires a lattice scenario set (stagewise independence)")
    if lattice.horizon != case.horizon or lattice.n_hydros != case.n_hydros:
        raise SddpError("lattice dimensions do not match the case")
    if lattice.stages[0].values.shape[0] != 1:
        raise SddpError("stage 1 must carry a single deterministic inflow realization")


def _stage_lp(case: GridCase, t: int, x_in, inflow_row, cuts: list[Cut],
              blk: StageBlock):
    """One-stage dispatch LP: the stage block ``blk`` behind one fixing row
    and column per incoming volume (the rows' duals are the value-function
    slopes), then an epigraph column ``phi`` over the cut pool, whose rows
    follow the loss cuts."""
    H = case.n_hydros
    vin = np.arange(H)
    n = H + blk.n + 1
    cols = {"vin": vin, **{k: v + H for k, v in blk.cols.items()}, "phi": np.array([n - 1])}
    r, k, v = blk.a_eq
    a_eq = sp.coo_matrix((np.concatenate([np.ones(H), v, np.full(H, -1.0)]),
                          (np.concatenate([vin, r + H, blk.water_rows + H]),
                           np.concatenate([vin, k + H, vin]))),
                         shape=(H + blk.m_eq, n)).tocsr()
    # cut k: phi - slope . x >= intercept
    K = len(cuts)
    slopes = np.array([cut.slope for cut in cuts], dtype=float).reshape(K, H)
    r, k, v = blk.a_in
    a_in = sp.coo_matrix(
        (np.concatenate([v, np.hstack([np.ones((K, 1)), -slopes]).ravel()]),
         (np.concatenate([r, np.repeat(blk.m_in + np.arange(K), H + 1)]),
          np.concatenate([k + H, np.tile(np.concatenate([cols["phi"], cols["x"]]), K)]))),
        shape=(blk.m_in + K, n)).tocsr()
    row_tags = {("vin", j): j for j in range(H)} | blk.row_tags(t, H)
    lp = LinearProgram(
        c=np.concatenate([np.zeros(H), blk.cost(t), [1.0]]), a_eq=a_eq,
        b_eq=np.concatenate([np.asarray(x_in, dtype=float), blk.rhs(t, inflow_row)]),
        a_in=a_in, b_in=np.concatenate([blk.b_in, [cut.intercept for cut in cuts]]),
        lb=np.concatenate([np.full(H, -np.inf), blk.lb, [0.0]]),
        ub=np.concatenate([np.full(H, np.inf), blk.ub, [np.inf]]), row_tags=row_tags)
    lpdump.maybe_dump(lp, f"sddp_stage{t}")
    return lp, cols


def stage_solve(case: GridCase, t: int, x_in, inflow_row, cuts: list[Cut],
                loss_cuts: int = DEFAULT_LOSS_CUTS, tol: float = 1e-9, *,
                block: StageBlock | None = None) -> StageSolution:
    """Solve stage ``t`` at incoming volumes ``x_in``.  ``block`` is the
    case's ``StageBlock(case, loss_cuts)``, built once by callers that
    solve many stages; without it one is built for this solve."""
    if block is None:
        block = StageBlock(case, loss_cuts)
    lp, cols = _stage_lp(case, t, x_in, inflow_row, cuts, block)
    res = ipm.solve(lp, tol=tol)
    if not res.optimal:
        raise SddpError(f"stage {t} solve failed with status {res.status}")
    phi = float(res.x[cols["phi"][0]])
    dual_in = np.array([res.y_eq[res.row_tags[("vin", j)]] for j in range(case.n_hydros)])
    return StageSolution(total=res.objective, stage_cost=res.objective - phi,
                         x_out=res.x[cols["x"]].copy(), dual_in=dual_in)


def _sample_stage_indices(lattice: ScenarioSet, rng) -> list[int]:
    idx = [0]
    for st in lattice.stages[1:]:
        idx.append(int(rng.choice(st.probs.size, p=st.probs)))
    return idx


def sddp_train(case: GridCase, lattice: ScenarioSet, iters: int, seed: int,
               loss_cuts: int = DEFAULT_LOSS_CUTS, tol: float = 1e-9) -> tuple[SddpState, float]:
    """Run ``iters`` forward/backward iterations; returns (state, lower bound)."""
    _check_lattice(case, lattice)
    if iters < 1:
        raise SddpError("need at least one iteration")
    T = case.horizon
    v0 = case.v0()
    pools: list[list[Cut]] = [[] for _ in range(T)]
    state = SddpState(pools=pools, seed=seed)
    rng = np.random.default_rng(seed)
    blk = StageBlock(case, loss_cuts)

    def failed(exc: SddpError, it: int, step: str) -> None:
        state.failed_solves += 1
        log.warning("sddp iteration %d: %s skipped: %s", it, step, exc)

    for it in range(1, iters + 1):
        state.iterations = it
        idx = _sample_stage_indices(lattice, rng)
        visited = [v0]
        try:
            for t in range(T):
                sol = stage_solve(case, t, visited[t], lattice.stages[t].values[idx[t]],
                                  pools[t], loss_cuts, tol, block=blk)
                visited.append(sol.x_out)
        except SddpError as exc:
            failed(exc, it, "forward pass")
            continue

        for t in range(T - 1, 0, -1):
            st = lattice.stages[t]
            exp_val = 0.0
            exp_slope = np.zeros(case.n_hydros)
            try:
                for k in range(st.probs.size):
                    sol = stage_solve(case, t, visited[t], st.values[k], pools[t],
                                      loss_cuts, tol, block=blk)
                    exp_val += st.probs[k] * sol.total
                    exp_slope += st.probs[k] * sol.dual_in
            except SddpError as exc:
                failed(exc, it, f"cut for stage {t - 1}")
                continue
            intercept = exp_val - float(exp_slope @ visited[t])
            pools[t - 1].append(Cut(stage=t - 1, intercept=intercept, slope=exp_slope))

        try:
            first = stage_solve(case, 0, v0, lattice.stages[0].values[0], pools[0],
                                loss_cuts, min(tol, 1e-10), block=blk)
        except SddpError as exc:
            failed(exc, it, "lower bound")
            continue
        lb = first.total
        if state.bound_trace and lb < state.bound_trace[-1] - BOUND_TOL * (1.0 + abs(lb)):
            raise SddpError(
                f"lower bound regressed at iteration {it}: "
                f"{state.bound_trace[-1]:.9g} -> {lb:.9g}")
        state.bound_trace.append(lb)
        if (state.stable_at is None and len(state.bound_trace) > STABLE_WINDOW
                and abs(lb - state.bound_trace[-1 - STABLE_WINDOW])
                <= STABLE_REL * max(1.0, abs(lb))):
            state.stable_at = it
            log.info("bound stable (<%.2g%% drift over %d iterations) at iteration %d",
                     100 * STABLE_REL, STABLE_WINDOW, it)
    return state, state.lower_bound


@dataclass
class SimulationResult:
    mean_cost: float
    std_cost: float
    costs: np.ndarray
    n_failed: int
    stage_solves: int
    solve_seconds: float

    @property
    def seconds_per_stage_solve(self) -> float:
        return self.solve_seconds / max(self.stage_solves, 1)


def simulate(state: SddpState, case: GridCase, lattice: ScenarioSet,
             n_paths: int, seed: int, loss_cuts: int = DEFAULT_LOSS_CUTS,
             tol: float = 1e-9) -> SimulationResult:
    """Roll the cut-based policy on fresh sampled paths (one stage LP per
    decision); returns the statistical cost estimate."""
    _check_lattice(case, lattice)
    return simulate_paths(state, case, sample_paths(lattice, n_paths, seed),
                          loss_cuts=loss_cuts, tol=tol)


def simulate_paths(state: SddpState, case: GridCase, paths,
                   loss_cuts: int = DEFAULT_LOSS_CUTS,
                   tol: float = 1e-9) -> SimulationResult:
    """Same as :func:`simulate` but on an explicit path list, so the test
    set can be shared with policy evaluations."""
    costs = []
    n_failed = 0
    n_solves = 0
    t_solve = 0.0
    blk = StageBlock(case, loss_cuts)
    for path in paths:
        x = case.v0()
        total = 0.0
        try:
            for t in range(case.horizon):
                t0 = time.perf_counter()
                sol = stage_solve(case, t, x, path.inflows[t], state.pools[t],
                                  loss_cuts, tol, block=blk)
                t_solve += time.perf_counter() - t0
                n_solves += 1
                total += sol.stage_cost
                x = sol.x_out
        except SddpError as exc:
            n_failed += 1
            log.warning("simulation path %s failed: %s", path.source_id, exc)
            continue
        costs.append(total)
    costs = np.array(costs)
    return SimulationResult(mean_cost=float(costs.mean()) if costs.size else float("nan"),
                            std_cost=float(costs.std()) if costs.size else float("nan"),
                            costs=costs, n_failed=n_failed,
                            stage_solves=n_solves, solve_seconds=t_solve)


def export_cuts_csv(state: SddpState, fh) -> None:
    n_h = state.pools and max((c.slope.size for p in state.pools for c in p), default=0)
    writer = csv.writer(fh)
    writer.writerow(["stage", "intercept"] + [f"slope_{j}" for j in range(n_h)])
    for pool in state.pools:
        for cut in pool:
            writer.writerow([cut.stage, repr(cut.intercept)]
                            + [repr(float(s)) for s in cut.slope])
