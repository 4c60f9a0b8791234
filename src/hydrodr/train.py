"""Training loop: sample scenarios, solve the dispatch LP per rollout,
convert target duals into parameter gradients, apply Adam.

The batch gradient is the vector-Jacobian product of the stacked
target-row duals with the policy Jacobian, taken once for the whole batch
and divided by the number of successful solves.  Rollout and VJP run
outside the worker threads, so runs are reproducible for a fixed seed
regardless of worker count.  The update direction descends the sampled
cost.

Training and validation solve a batch's LPs with one
:func:`hydrodr.builder.solve_second_stage_batch` call (HiGHS dual simplex
on a persistent model); :func:`gradcheck` audits the gradient with the
interior-point solver of :mod:`hydrodr.ipm`, built and solved from scratch.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import ipm
from .builder import (build_second_stage, default_deviation_penalty, extract_duals,
                      evaluate_policy_cost, solve_second_stage_batch, DEFAULT_LOSS_CUTS)
from .model import GridCase
from .policy import Policy, init_params, spec_for_case
from .scenarios import ScenarioSet, split

log = logging.getLogger(__name__)


class TrainingError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    c_delta: float | None = None          # None -> default_deviation_penalty(case)
    seed: int = 0
    latent_dim: int = 16
    hidden_layers: int = 2
    patience: int = 10                    # validation evals without improvement
    eval_every: int = 5
    n_val: int = 64
    squash: bool = True
    loss_cuts: int = DEFAULT_LOSS_CUTS
    solver_tol: float = 1e-8
    max_failed_frac: float = 0.2
    workers: int = 1

    def validate(self) -> None:
        if self.epochs < 0 or self.batch_size < 1:
            raise TrainingError("epochs must be >= 0 and batch_size >= 1")
        if self.lr < 0:
            raise TrainingError("learning rate must be nonnegative")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise TrainingError("Adam betas must lie in (0, 1)")
        if self.adam_eps <= 0 or self.solver_tol <= 0:
            raise TrainingError("eps and solver tolerance must be positive")
        if self.c_delta is not None and self.c_delta <= 0:
            raise TrainingError("deviation penalty must be positive")


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    skipped: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n))


def adam_step(vec: np.ndarray, grad: np.ndarray, state: AdamState,
              config: TrainConfig) -> np.ndarray:
    """One bias-corrected Adam descent step; NaN gradients skip the update."""
    if not np.all(np.isfinite(grad)):
        state.skipped += 1
        log.warning("skipping Adam update: non-finite gradient")
        return vec
    state.t += 1
    state.m = config.beta1 * state.m + (1.0 - config.beta1) * grad
    state.v = config.beta2 * state.v + (1.0 - config.beta2) * grad * grad
    m_hat = state.m / (1.0 - config.beta1 ** state.t)
    v_hat = state.v / (1.0 - config.beta2 ** state.t)
    return vec - config.lr * m_hat / (np.sqrt(v_hat) + config.adam_eps)


@dataclass
class EpochRow:
    epoch: int
    train_loss: float
    val_mean: float | None
    val_std: float | None
    grad_norm: float
    seconds: float


@dataclass
class TrainReport:
    rows: list[EpochRow] = field(default_factory=list)
    solver_failures: int = 0
    wall_clock: float = 0.0
    best_epoch: int = 0
    best_val: float = float("inf")
    best_checkpoint: str = "initial"
    stopped_early: bool = False
    adam_skipped: int = 0                 # Adam steps skipped on a non-finite gradient
    clipped_targets: int = 0              # target entries clipped into range, all batches

    def curve(self) -> list[dict]:
        return [{"epoch": r.epoch, "train_loss": r.train_loss,
                 "val_mean": r.val_mean, "val_std": r.val_std,
                 "grad_norm": r.grad_norm, "seconds": r.seconds}
                for r in self.rows]


def _batch_pass(case, policy, batch, c_delta, loss_cuts, tol, workers=1):
    """Forward+solve+backward over one batch.

    One rollout, one :func:`solve_second_stage_batch` call and one VJP
    cover the whole batch; only the per-path HiGHS runs use ``workers``
    threads.  A failed or rejected path gets a zero cotangent row, and the
    summed gradient is divided by the number of successes.  Returns (mean
    gradient over successes, mean loss, n_failed, n_clipped), where
    n_clipped counts the target entries the LP clipped into range.
    """
    targets, tape = policy.rollout_with_tape(batch)
    solved = solve_second_stage_batch(case, batch, targets, c_delta, loss_cuts, tol, workers)
    sol = solved.solution
    lam, rejected = solved.duals()
    ok = sol.optimal
    for i, path in enumerate(batch):
        if not ok[i]:
            log.warning("training solve failed (%s) on path %s", sol.status[i], path.source_id)
        elif rejected[i] is not None:
            log.warning("training duals rejected (%s) on path %s", rejected[i], path.source_id)
            ok[i] = False
    n_failed = len(batch) - int(ok.sum())
    n_clipped = int(np.count_nonzero(solved.targets != targets))
    if not ok.any():
        return None, float("nan"), n_failed, n_clipped
    return (policy.gradient(tape, lam) / int(ok.sum()), float(np.mean(sol.objective[ok])),
            n_failed, n_clipped)


def train(case: GridCase, scenarios: ScenarioSet, policy_kind: str,
          config: TrainConfig) -> tuple[object, TrainReport]:
    """Fit a policy; returns (best params, report).

    Validation runs every ``eval_every`` epochs on a fixed seeded path set
    and the best-validation parameters are what is returned.  With
    ``n_val=0`` validation is disabled and the final parameters win.
    """
    config.validate()
    c_delta = config.c_delta if config.c_delta is not None else default_deviation_penalty(case)
    spec = spec_for_case(case, policy_kind, latent_dim=config.latent_dim,
                         hidden_layers=config.hidden_layers, squash=config.squash)
    params = init_params(spec, seed=config.seed)
    policy = Policy(params)
    sampler, val_paths, _ = split(scenarios, config.batch_size, config.n_val, 0,
                                  seed=config.seed)

    report = TrainReport()
    vec = policy.vector()
    state = AdamState.zeros(vec.size)
    best_vec = vec.copy()
    bad_evals = 0
    t_start = time.perf_counter()

    if config.n_val > 0:
        mean0, std0 = validate(policy.params, case, val_paths, c_delta,
                               loss_cuts=config.loss_cuts, tol=config.solver_tol,
                               workers=config.workers)
        report.best_val = mean0
        report.best_epoch = 0
        report.rows.append(EpochRow(0, float("nan"), mean0, std0, 0.0,
                                    time.perf_counter() - t_start))

    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        batch = sampler.next_batch()
        grad, loss, n_failed, n_clipped = _batch_pass(case, policy, batch, c_delta,
                                                      config.loss_cuts, config.solver_tol,
                                                      config.workers)
        report.solver_failures += n_failed
        report.clipped_targets += n_clipped
        if n_failed > config.max_failed_frac * len(batch):
            raise TrainingError(
                f"epoch {epoch}: {n_failed}/{len(batch)} solves failed "
                f"(> {config.max_failed_frac:.0%})")
        if grad is None:
            raise TrainingError(f"epoch {epoch}: no successful solve in the batch")
        vec = adam_step(vec, grad, state, config)
        policy = policy.with_vector(vec)

        val_mean = val_std = None
        if config.n_val > 0 and epoch % config.eval_every == 0:
            val_mean, val_std = validate(policy.params, case, val_paths, c_delta,
                                         loss_cuts=config.loss_cuts,
                                         tol=config.solver_tol,
                                         workers=config.workers)
            if val_mean < report.best_val:
                report.best_val = val_mean
                report.best_epoch = epoch
                report.best_checkpoint = f"epoch{epoch}"
                best_vec = vec.copy()
                bad_evals = 0
            else:
                bad_evals += 1
        report.rows.append(EpochRow(epoch, loss, val_mean, val_std,
                                    float(np.linalg.norm(grad)),
                                    time.perf_counter() - t0))
        if config.n_val > 0 and bad_evals >= config.patience:
            report.stopped_early = True
            log.info("early stop at epoch %d (no improvement over %d evals)",
                     epoch, config.patience)
            break

    report.adam_skipped = state.skipped
    report.wall_clock = time.perf_counter() - t_start
    if config.n_val > 0:
        final = policy.with_vector(best_vec)
    else:
        final = policy
        report.best_checkpoint = f"epoch{config.epochs}"
    return final.params, report


def validate(params, case: GridCase, val_paths, c_delta: float,
             loss_cuts: int = DEFAULT_LOSS_CUTS, tol: float = 1e-8,
             workers: int = 1):
    """Pure evaluation: (mean cost, std) of the policy on the given paths."""
    stats = evaluate_policy_cost(case, val_paths, Policy(params), c_delta,
                                 loss_cuts=loss_cuts, tol=tol, workers=workers)
    return stats.mean_cost, stats.std_cost


@dataclass
class GradcheckRow:
    coord: int
    analytic: float
    fd: float
    rel_err: float
    kink: bool

    @property
    def passed(self) -> bool:
        return not self.kink and np.isfinite(self.rel_err)


@dataclass
class GradcheckReport:
    rows: list[GradcheckRow]
    rel_tol: float

    @property
    def n_kink(self) -> int:
        return sum(r.kink for r in self.rows)

    @property
    def checked(self) -> list[GradcheckRow]:
        return [r for r in self.rows if not r.kink]

    @property
    def pass_rate(self) -> float:
        checked = self.checked
        if not checked:
            return 0.0
        return sum(r.rel_err <= self.rel_tol for r in checked) / len(checked)

    def as_dict(self) -> dict:
        return {"rel_tol": self.rel_tol, "n_coords": len(self.rows),
                "n_kink": self.n_kink, "pass_rate": self.pass_rate,
                "rows": [{"coord": r.coord, "analytic": r.analytic, "fd": r.fd,
                          "rel_err": r.rel_err, "kink": r.kink} for r in self.rows]}


def gradcheck(case: GridCase, path, params, n_coords: int = 20, eps: float = 1e-4,
              rel_tol: float = 1e-2, seed: int = 0, c_delta: float | None = None,
              loss_cuts: int = DEFAULT_LOSS_CUTS, solver_tol: float = 1e-10,
              kink_tol: float | None = None) -> GradcheckReport:
    """Compare the duality-chained gradient of theta -> dispatch cost with
    end-to-end central finite differences on random coordinates.

    Coordinates whose FD stencil crosses an active-set change are flagged
    as kinks and excluded from the pass rate.  Duals of an LP are piecewise
    constant in the targets, so any jump between the two stencil solves
    clearly above solver noise marks a region change; ``kink_tol`` sets
    that threshold.
    """
    c_delta = c_delta if c_delta is not None else default_deviation_penalty(case)
    if kink_tol is None:
        # LP duals are locally constant: anything beyond solver noise is a
        # region change.  Noise is ~1e-8 of the dual scale at solver_tol.
        kink_tol = max(1e-4, 1e-6 * c_delta)
    policy = Policy(params)
    targets, tape = policy.rollout_with_tape([path])
    prob = build_second_stage(case, path, targets[0], c_delta, loss_cuts)
    res = ipm.solve(prob.lp, tol=solver_tol)
    if not res.optimal:
        raise TrainingError(f"gradcheck base solve failed: {res.status}")
    lam = extract_duals(prob, res).lam
    g = policy.gradient(tape, lam[None])
    vec = policy.vector()

    rng = np.random.default_rng(seed)
    coords = rng.choice(vec.size, size=min(n_coords, vec.size), replace=False)
    g_scale = float(np.max(np.abs(g), initial=0.0))
    rows = []
    for i in sorted(int(c) for c in coords):
        step = eps * max(1.0, abs(vec[i]))
        qs, lams = [], []
        ok = True
        for sgn in (+1.0, -1.0):
            v2 = vec.copy()
            v2[i] += sgn * step
            pol2 = policy.with_vector(v2)
            prob2 = build_second_stage(case, path, pol2.rollout(path), c_delta, loss_cuts)
            res2 = ipm.solve(prob2.lp, tol=solver_tol)
            if not res2.optimal:
                ok = False
                break
            qs.append(res2.objective)
            lams.append(extract_duals(prob2, res2).lam)
        if not ok:
            rows.append(GradcheckRow(i, float(g[i]), float("nan"), float("inf"), kink=True))
            continue
        fd = (qs[0] - qs[1]) / (2.0 * step)
        kink = bool(np.max(np.abs(lams[0] - lams[1])) > kink_tol)
        zero_floor = 1e-7 * max(1.0, g_scale)
        if max(abs(fd), abs(g[i])) <= zero_floor:
            rel = 0.0                      # both numerically zero: agreement
        else:
            rel = abs(fd - g[i]) / max(abs(fd), abs(g[i]))
        rows.append(GradcheckRow(i, float(g[i]), float(fd), float(rel), kink=kink))
    return GradcheckReport(rows=rows, rel_tol=rel_tol)
