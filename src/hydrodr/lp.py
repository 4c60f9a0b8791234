"""Sparse linear-program container, result types and KKT checking.

The canonical problem shape used everywhere in this package is

    min  c.x
    s.t. A_eq x  = b_eq          (duals y_eq)
         A_in x >= b_in          (duals y_in >= 0)
         lb <= x <= ub           (net bound duals z)

Sign convention, fixed across the whole package and enforced by tests:
``y_eq[i] = d(optimal objective)/d(b_eq[i])``.  Raising the right-hand side
of an equality row by eps changes the optimal value by ``y_eq[i]*eps``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, IO, Mapping

import numpy as np
import scipy.sparse as sp


class LpDimensionError(ValueError):
    """Inconsistent block shapes, NaN entries or crossed bounds."""


def _csr(block, n_rows_hint, n_cols) -> sp.csr_matrix:
    if block is None:
        return sp.csr_matrix((0 if n_rows_hint is None else n_rows_hint, n_cols))
    out = sp.csr_matrix(block, dtype=float)
    return out


class LinearProgram:
    """Immutable-by-convention container for one LP instance.

    ``row_tags`` maps opaque hashable labels to equality-row indices so that
    callers can locate constraints of interest (e.g. volume-target rows)
    after the solve without knowing the assembly order.
    """

    def __init__(self, c, a_eq=None, b_eq=None, a_in=None, b_in=None,
                 lb=None, ub=None, row_tags: Mapping[Hashable, int] | None = None):
        self.c = np.asarray(c, dtype=float).ravel()
        n = self.c.size
        self.a_eq = _csr(a_eq, None, n)
        self.b_eq = (np.zeros(self.a_eq.shape[0]) if b_eq is None
                     else np.asarray(b_eq, dtype=float).ravel())
        self.a_in = _csr(a_in, None, n)
        self.b_in = (np.zeros(self.a_in.shape[0]) if b_in is None
                     else np.asarray(b_in, dtype=float).ravel())
        self.lb = np.full(n, -np.inf) if lb is None else np.asarray(lb, dtype=float).ravel()
        self.ub = np.full(n, np.inf) if ub is None else np.asarray(ub, dtype=float).ravel()
        self.row_tags: dict[Hashable, int] = dict(row_tags) if row_tags else {}
        self.validate()

    @property
    def n_vars(self) -> int:
        return self.c.size

    @property
    def n_eq(self) -> int:
        return self.a_eq.shape[0]

    @property
    def n_in(self) -> int:
        return self.a_in.shape[0]

    def validate(self) -> None:
        n = self.n_vars
        if self.a_eq.shape[1] != n or self.a_in.shape[1] != n:
            raise LpDimensionError("constraint matrices do not match len(c)")
        if self.b_eq.size != self.n_eq:
            raise LpDimensionError("b_eq length does not match A_eq rows")
        if self.b_in.size != self.n_in:
            raise LpDimensionError("b_in length does not match A_in rows")
        if self.lb.size != n or self.ub.size != n:
            raise LpDimensionError("bound vectors do not match len(c)")
        for name, arr in (("c", self.c), ("b_eq", self.b_eq), ("b_in", self.b_in)):
            if arr.size and not np.all(np.isfinite(arr)):
                raise LpDimensionError(f"{name} contains NaN/inf entries")
        for mat, name in ((self.a_eq, "A_eq"), (self.a_in, "A_in")):
            if mat.nnz and not np.all(np.isfinite(mat.data)):
                raise LpDimensionError(f"{name} contains NaN/inf entries")
        if np.any(np.isnan(self.lb)) or np.any(np.isnan(self.ub)):
            raise LpDimensionError("bounds contain NaN")
        if np.any(self.lb > self.ub):
            j = int(np.argmax(self.lb > self.ub))
            raise LpDimensionError(f"lb > ub at column {j}")
        for tag, row in self.row_tags.items():
            if not 0 <= row < self.n_eq:
                raise LpDimensionError(f"row tag {tag!r} points outside the equality block")


@dataclass
class SolveResult:
    """Primal/dual solution bundle returned by :func:`hydrodr.ipm.solve`.

    ``kkt`` holds (primal residual, dual residual, relative duality gap),
    all recomputable from scratch via :func:`check_kkt`.  ``z`` is the net
    bound dual ``zl - zu`` (positive at an active lower bound).  ``mu_trace``
    records the complementarity measure per iteration.
    """

    status: str
    x: np.ndarray | None = None
    y_eq: np.ndarray | None = None
    y_in: np.ndarray | None = None
    z: np.ndarray | None = None
    objective: float | None = None
    kkt: tuple[float, float, float] = (np.inf, np.inf, np.inf)
    iterations: int = 0
    mu_trace: list = field(default_factory=list)
    row_tags: dict = field(default_factory=dict)

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


class KktCheck:
    """KKT residuals of solutions of ``lp``, and of any LP that differs
    from it in ``b_eq`` alone, recomputed from scratch for a stack of
    solutions at once.

    Independent of solver internals: uses only the LP data and the
    returned primal/dual vectors.  Everything but ``b_eq`` is read from
    ``lp`` once: the transposed constraint matrices, the finite-bound masks
    and the scales of ``b_in`` and ``c``.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        self._a_eq_t, self._a_in_t = lp.a_eq.T, lp.a_in.T
        inf_lb, inf_ub = ~np.isfinite(lp.lb), ~np.isfinite(lp.ub)
        # z > 0 at a missing lower bound, or z < 0 at a missing upper bound,
        # pushes from a bound that does not exist: a dual violation
        self._push_lb, self._push_ub = inf_lb * 1.0, inf_ub * -1.0
        self._lb0 = np.where(inf_lb, 0.0, lp.lb)
        self._ub0 = np.where(inf_ub, 0.0, lp.ub)
        self._b_scale = max(1.0, float(np.max(np.abs(lp.b_in), initial=0.0)))
        self._c_scale = 1.0 + float(np.max(np.abs(lp.c), initial=0.0))

    def residuals(self, b_eq, x, y_eq, y_in, z) -> np.ndarray:
        """(B, 3) array of (primal_res, dual_res, gap) for the B solutions
        in the rows of ``x``, ``y_eq``, ``y_in`` and ``z``, with ``b_eq``
        (B, n_eq) their equality right-hand sides.  The gap is the
        normalized primal-dual objective difference."""
        lp = self.lp
        b_scale = np.maximum(self._b_scale, np.max(np.abs(b_eq), axis=1, initial=0.0))
        viol = np.max(np.maximum(lp.lb - x, x - lp.ub), axis=1, initial=0.0)
        if lp.n_eq:
            viol = np.maximum(viol, np.max(np.abs((lp.a_eq @ x.T).T - b_eq), axis=1))
        if lp.n_in:
            viol = np.maximum(viol, np.max(lp.b_in - (lp.a_in @ x.T).T, axis=1))
        primal_res = viol / (1.0 + b_scale)

        stat = lp.c - (self._a_eq_t @ y_eq.T).T - (self._a_in_t @ y_in.T).T - z
        push = np.maximum(z * self._push_lb, z * self._push_ub)
        dual_viol = np.max(np.maximum(np.abs(stat), push), axis=1, initial=0.0)
        if lp.n_in:
            dual_viol = np.maximum(dual_viol, np.max(-y_in, axis=1))
        dual_res = dual_viol / self._c_scale

        pobj = x @ lp.c
        z_lo = np.maximum(z, 0.0)
        dobj = (np.sum(b_eq * y_eq, axis=1) + y_in @ lp.b_in
                + z_lo @ self._lb0 - (z_lo - z) @ self._ub0)
        gap = np.abs(pobj - dobj) / (1.0 + np.abs(pobj))
        return np.stack((primal_res, dual_res, gap), axis=1)


def check_kkt(lp: LinearProgram, result: SolveResult) -> tuple[float, float, float]:
    """Recompute the KKT residuals (primal_res, dual_res, gap) of one
    ``result``: :meth:`KktCheck.residuals` on a stack of one."""
    x, y, yin, z = result.x, result.y_eq, result.y_in, result.z
    if x is None or y is None or yin is None or z is None:
        raise ValueError("result carries no primal/dual vectors")
    if x.size != lp.n_vars or y.size != lp.n_eq or yin.size != lp.n_in:
        raise LpDimensionError("result vectors do not match the LP dimensions")
    return tuple(KktCheck(lp).residuals(lp.b_eq[None], x[None], y[None], yin[None],
                                        z[None])[0].tolist())


def rhs_sensitivity(result: SolveResult, row_tags) -> dict:
    """Equality duals of the tagged rows, i.e. d(objective)/d(rhs) per tag.

    ``row_tags`` is an iterable of tags previously attached to the solved
    LinearProgram; raises KeyError for unknown tags.
    """
    if not result.optimal:
        raise ValueError(f"sensitivities require an optimal result, got {result.status!r}")
    out = {}
    for tag in row_tags:
        if tag not in result.row_tags:
            raise KeyError(f"unknown row tag {tag!r}")
        out[tag] = float(result.y_eq[result.row_tags[tag]])
    return out


def write_lp(lp: LinearProgram, fh: IO[str], name: str = "problem") -> None:
    """Dump in CPLEX LP text format for cross-checks with external solvers."""

    def term(coef, j, lead):
        sign = "+" if coef >= 0 else "-"
        if lead and coef >= 0:
            return f"{coef:.17g} x{j}"
        return f"{sign} {abs(coef):.17g} x{j}"

    def row_expr(mat_row):
        parts = []
        for k, j in enumerate(mat_row.indices):
            parts.append(term(mat_row.data[k], j, lead=(k == 0)))
        return " ".join(parts) if parts else "0 x0"

    fh.write(f"\\ {name}\nMinimize\n obj: ")
    terms = [term(lp.c[j], j, lead=(i == 0))
             for i, j in enumerate(np.flatnonzero(lp.c))]
    fh.write(" ".join(terms) if terms else "0 x0")
    fh.write("\nSubject To\n")
    for i in range(lp.n_eq):
        fh.write(f" eq{i}: {row_expr(lp.a_eq.getrow(i))} = {lp.b_eq[i]:.17g}\n")
    for i in range(lp.n_in):
        fh.write(f" in{i}: {row_expr(lp.a_in.getrow(i))} >= {lp.b_in[i]:.17g}\n")
    fh.write("Bounds\n")
    for j in range(lp.n_vars):
        lo, hi = lp.lb[j], lp.ub[j]
        if lo == hi:
            fh.write(f" x{j} = {lo:.17g}\n")
        elif np.isneginf(lo) and np.isposinf(hi):
            fh.write(f" x{j} free\n")
        else:
            lo_s = "-inf" if np.isneginf(lo) else f"{lo:.17g}"
            hi_s = "+inf" if np.isposinf(hi) else f"{hi:.17g}"
            fh.write(f" {lo_s} <= x{j} <= {hi_s}\n")
    fh.write("End\n")
