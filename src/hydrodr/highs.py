"""Persistent HiGHS dual-simplex models of LPs whose equality right-hand
side changes between solves.

A :class:`PersistentLP` passes one :class:`~hydrodr.lp.LinearProgram` to
HiGHS once and keeps the optimal basis of that template instance.  Each
solve patches the given equality rows, clears the solver state and
restarts dual simplex from that one basis, so a result depends on the
right-hand side alone, never on the solves made before it on the same
model: the order of paths and the number of workers cannot change it.

Results follow the package conventions of :mod:`hydrodr.lp`: HiGHS's row
duals are ``d(objective)/d(row bound)``, which is ``y_eq`` on equality rows
and ``y_in >= 0`` on the ``>=`` rows, and its column duals are the net
bound duals ``z``.  Every ``optimal`` result carries KKT residuals
recomputed by :func:`hydrodr.lp.check_kkt` on the patched LP, and is
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

import numpy as np
import scipy.sparse as sp

from .lp import LinearProgram, LpDimensionError, SolveResult, check_kkt

log = logging.getLogger(__name__)

# HiGHS model statuses with a certificate; any other end of a solve
# (iteration or time limit, solve error, unbounded-or-infeasible) is an
# unclassified failure.
_STATUS = {"kOptimal": "optimal", "kInfeasible": "infeasible", "kUnbounded": "unbounded"}


class PersistentLP:
    """One HiGHS model of ``lp``, solved by dual simplex at feasibility
    tolerances ``tol`` and restarted from the template's optimal basis.

    A model is not safe to share between threads; :class:`ModelPool`
    lends each model to one caller at a time.
    """

    def __init__(self, lp: LinearProgram, tol: float):
        if tol <= 0:
            raise ValueError("tol must be positive")
        from scipy.optimize._highspy import _core as hc
        self.lp, self.tol = lp, tol
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
        self._h = h = hc._Highs()
        for key, value in (("output_flag", False), ("solver", "simplex"),
                           ("simplex_strategy", 1), ("presolve", "off"), ("threads", 1),
                           ("primal_feasibility_tolerance", tol),
                           ("dual_feasibility_tolerance", tol)):
            if h.setOptionValue(key, value) != hc.HighsStatus.kOk:
                raise ValueError(f"HiGHS rejected option {key}={value!r}")
        if h.passModel(model) == hc.HighsStatus.kError:
            raise ValueError("HiGHS rejected the template LP")
        h.run()
        status = self._status()
        if status != "optimal":
            log.warning("template LP ended %s; solves restart from the logical basis", status)
        basis = h.getBasis()
        self._basis = basis if status == "optimal" and basis.valid else None

    def _status(self) -> str:
        return _STATUS.get(self._h.getModelStatus().name, "iteration_limit")

    def solve(self, rows: np.ndarray, values: np.ndarray) -> tuple[LinearProgram, SolveResult]:
        """Set ``b_eq[rows] = values`` and solve.  Returns the patched LP
        (sharing every array but ``b_eq`` with the template) and its
        result."""
        h = self._h
        lp = copy.copy(self.lp)
        lp.b_eq = self.lp.b_eq.copy()
        lp.b_eq[rows] = values
        if not np.all(np.isfinite(lp.b_eq[rows])):
            raise LpDimensionError("b_eq contains NaN/inf entries")
        for r, v in zip(rows.tolist(), lp.b_eq[rows].tolist()):
            h.changeRowBounds(r, v, v)
        h.clearSolver()
        if self._basis is not None:
            h.setBasis(self._basis)
        h.run()
        status = self._status()
        iterations = h.getInfo().simplex_iteration_count
        if status != "optimal":
            return lp, SolveResult(status=status, iterations=iterations,
                                   row_tags=dict(lp.row_tags))
        sol = h.getSolution()
        x = np.array(sol.col_value)
        y = np.array(sol.row_dual)
        result = SolveResult(status="optimal", x=x, y_eq=y[:lp.n_eq], y_in=y[lp.n_eq:],
                             z=np.array(sol.col_dual), objective=float(lp.c @ x),
                             iterations=iterations, row_tags=dict(lp.row_tags))
        result.kkt = check_kkt(lp, result)
        if max(result.kkt) > self.tol * 10:
            log.warning("kkt residuals %s exceed tol=%g at a HiGHS optimum", result.kkt, self.tol)
            result.status = "iteration_limit"
        return lp, result


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
