"""Persistent HiGHS dual-simplex models of LPs whose equality right-hand
side changes between solves.

A :class:`PersistentLP` passes one :class:`~hydrodr.lp.LinearProgram` to
HiGHS once per model and keeps the optimal basis of that template
instance.  It solves a batch of right-hand sides at once: the patched
right-hand sides are built as one stack, each path patches its equality
rows on a model of its own, clears the solver state and restarts dual
simplex from the template's basis, and the KKT recheck runs once over the
stack of solutions.  A result therefore depends on its right-hand side
alone, never on the solves made before it on the same model: the order of
paths and the number of workers cannot change it.

Results follow the package conventions of :mod:`hydrodr.lp`: HiGHS's row
duals are ``d(objective)/d(row bound)``, which is ``y_eq`` on equality rows
and ``y_in >= 0`` on the ``>=`` rows, and its column duals are the net
bound duals ``z``.  Every ``optimal`` result carries KKT residuals
recomputed by :class:`hydrodr.lp.KktCheck` on its patched LP, and is
downgraded to ``iteration_limit`` when they exceed ``10 * tol`` (the
threshold :func:`hydrodr.ipm.solve` applies).

The binding (``scipy.optimize._highspy._core``, SciPy >= 1.15) is imported
at the first model build, so a process that never builds a model (SDDP,
the acceptance oracles) does not load ``scipy.optimize``.
"""

from __future__ import annotations

import contextlib
import copy
import logging
import threading
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .lp import KktCheck, LinearProgram, LpDimensionError, SolveResult

log = logging.getLogger(__name__)

# HiGHS model statuses with a certificate; any other end of a solve
# (iteration or time limit, solve error, unbounded-or-infeasible) is an
# unclassified failure.
_STATUS = {"kOptimal": "optimal", "kInfeasible": "infeasible", "kUnbounded": "unbounded"}


def _status(h) -> str:
    return _STATUS.get(h.getModelStatus().name, "iteration_limit")


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


@dataclass
class BatchSolution:
    """Solutions of B instances of one template LP that differ in ``b_eq``.

    Rows of ``x``, ``y_eq``, ``y_in``, ``z`` and entries of ``objective``
    are NaN, and rows of ``kkt`` are inf, for paths whose solve did not end
    at a HiGHS optimum.  A path downgraded by the KKT gate keeps its
    vectors and residuals.
    """
    lp: LinearProgram                # the template
    b_eq: np.ndarray                 # (B, n_eq) equality right-hand sides
    status: list[str]
    iterations: np.ndarray           # (B,) simplex iterations
    x: np.ndarray                    # (B, n_vars)
    y_eq: np.ndarray                 # (B, n_eq)
    y_in: np.ndarray                 # (B, n_in)
    z: np.ndarray                    # (B, n_vars)
    objective: np.ndarray            # (B,)
    kkt: np.ndarray                  # (B, 3)

    @property
    def optimal(self) -> np.ndarray:
        return np.array([s == "optimal" for s in self.status], dtype=bool)

    def instance(self, i: int) -> LinearProgram:
        """Path ``i``'s LP: the template with its own ``b_eq`` (every
        other array shared)."""
        lp = copy.copy(self.lp)
        lp.b_eq = self.b_eq[i]
        return lp

    def result(self, i: int) -> SolveResult:
        """Path ``i``'s result, read like :func:`hydrodr.ipm.solve`'s."""
        out = SolveResult(status=self.status[i], iterations=int(self.iterations[i]),
                          row_tags=self.lp.row_tags)
        if np.isfinite(self.objective[i]):
            out.x, out.y_eq, out.y_in, out.z = self.x[i], self.y_eq[i], self.y_in[i], self.z[i]
            out.objective = float(self.objective[i])
            out.kkt = tuple(float(v) for v in self.kkt[i])
        return out


class PersistentLP:
    """HiGHS models of ``lp``, solved by dual simplex at feasibility
    tolerances ``tol`` and restarted from the template's optimal basis.

    One HiGHS model is not safe to share between threads; a
    :class:`PersistentLP` is: each path of a batch checks out a model of
    its own, built when none is idle.
    """

    def __init__(self, lp: LinearProgram, tol: float):
        if tol <= 0:
            raise ValueError("tol must be positive")
        from scipy.optimize._highspy import _core as hc
        self.lp, self.tol = lp, tol
        self.kkt = KktCheck(lp)
        a = sp.vstack([lp.a_eq, lp.a_in]).tocsc()
        model = hc.HighsLp()
        model.num_col_, model.num_row_ = lp.n_vars, a.shape[0]
        model.a_matrix_.num_col_, model.a_matrix_.num_row_ = lp.n_vars, a.shape[0]
        model.a_matrix_.format_ = hc.MatrixFormat.kColwise
        model.a_matrix_.start_, model.a_matrix_.index_ = a.indptr, a.indices
        model.a_matrix_.value_ = a.data
        model.col_cost_, model.col_lower_, model.col_upper_ = lp.c, lp.lb, lp.ub
        model.row_lower_ = np.concatenate([lp.b_eq, lp.b_in])
        model.row_upper_ = np.concatenate([lp.b_eq, np.full(lp.n_in, np.inf)])
        self._hc, self._model = hc, model
        self._models = ModelPool()
        with self._models.checkout(None, self._build):
            pass                         # the first model: a bad template raises here

    def _build(self):
        """A HiGHS model of the template, solved once; returns (model,
        optimal basis or None)."""
        hc = self._hc
        h = hc._Highs()
        for key, value in (("output_flag", False), ("solver", "simplex"),
                           ("simplex_strategy", 1), ("presolve", "off"), ("threads", 1),
                           ("primal_feasibility_tolerance", self.tol),
                           ("dual_feasibility_tolerance", self.tol)):
            if h.setOptionValue(key, value) != hc.HighsStatus.kOk:
                raise ValueError(f"HiGHS rejected option {key}={value!r}")
        if h.passModel(self._model) == hc.HighsStatus.kError:
            raise ValueError("HiGHS rejected the template LP")
        h.run()
        status = _status(h)
        if status != "optimal":
            log.warning("template LP ended %s; solves restart from the logical basis", status)
        basis = h.getBasis()
        return h, (basis if status == "optimal" and basis.valid else None)

    def solve(self, rows: np.ndarray, values: np.ndarray) -> tuple[LinearProgram, SolveResult]:
        """Set ``b_eq[rows] = values`` and solve: :meth:`solve_batch` on a
        batch of one.  Returns the patched LP (sharing every array but
        ``b_eq`` with the template) and its result."""
        batch = self.solve_batch(rows, np.asarray(values, dtype=float)[None])
        return batch.instance(0), batch.result(0)

    def solve_batch(self, rows: np.ndarray, values: np.ndarray,
                    workers: int = 1) -> BatchSolution:
        """Solve the B LPs ``b_eq[rows] = values[i]`` (``values`` is
        (B, len(rows))).  Only the per-path HiGHS runs go through
        :func:`map_ordered`; each writes its own rows of the batch arrays.
        A NaN or infinite value raises before any run."""
        lp = self.lp
        b_eq = np.repeat(lp.b_eq[None], len(values), axis=0)
        b_eq[:, rows] = values
        if not np.all(np.isfinite(b_eq[:, rows])):
            raise LpDimensionError("b_eq contains NaN/inf entries")
        B, m = len(b_eq), lp.n_eq
        x, z = np.full((B, lp.n_vars), np.nan), np.full((B, lp.n_vars), np.nan)
        y = np.full((B, m + lp.n_in), np.nan)
        objective = np.full(B, np.nan)
        row_list, bounds = rows.tolist(), b_eq[:, rows].tolist()

        def one(i):
            with self._models.checkout(None, self._build) as (h, basis):
                for r, v in zip(row_list, bounds[i]):
                    h.changeRowBounds(r, v, v)
                h.clearSolver()
                if basis is not None:
                    h.setBasis(basis)
                h.run()
                status = _status(h)
                iterations = h.getInfoValue("simplex_iteration_count")[1]
                if status == "optimal":
                    sol = h.getSolution()
                    x[i], y[i], z[i] = sol.col_value, sol.row_dual, sol.col_dual
            if status == "optimal":
                objective[i] = lp.c @ x[i]
            return status, iterations

        outcomes = map_ordered(one, range(B), workers)
        status = [s for s, _ in outcomes]
        kkt = np.full((B, 3), np.inf)
        ok = np.flatnonzero(np.isfinite(objective))
        if ok.size:
            kkt[ok] = self.kkt.residuals(b_eq[ok], x[ok], y[ok, :m], y[ok, m:], z[ok])
        for i in ok[np.max(kkt[ok], axis=1) > self.tol * 10]:
            log.warning("kkt residuals %s exceed tol=%g at a HiGHS optimum",
                        tuple(kkt[i]), self.tol)
            status[i] = "iteration_limit"
        return BatchSolution(lp=lp, b_eq=b_eq, status=status,
                             iterations=np.array([n for _, n in outcomes], dtype=int),
                             x=x, y_eq=y[:, :m], y_in=y[:, m:], z=z,
                             objective=objective, kkt=kkt)


class ModelPool:
    """Idle models of the most recently used key.

    :meth:`checkout` lends a model to one caller at a time, building one
    when none is idle, so concurrent workers each solve on their own.  A
    checkout under another key drops the idle models of the previous one.
    Which model serves a solve does not matter: every solve restarts from
    the template's basis.
    """

    def __init__(self):
        self._key = None
        self._idle: list = []
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def checkout(self, key, build):
        with self._lock:
            if key != self._key:
                self._key, self._idle = key, []
            model = self._idle.pop() if self._idle else None
        if model is None:
            model = build()
        try:
            yield model
        finally:
            with self._lock:
                if key == self._key:
                    self._idle.append(model)
