"""Mehrotra predictor-corrector interior-point method for sparse LPs.

The solver converts the general form (equalities, >= inequalities, box
bounds) into equality standard form with surplus variables and runs a
primal-dual path-following iteration for bounded variables.  Search
directions come from the regularized augmented system

    [ -(Theta + rho I)   A^T      ] [dx]   [ r_dual_hat ]
    [  A                 delta I  ] [dy] = [ r_primal   ],

a quasi-definite matrix factorized with SuperLU; iterative refinement
against the unregularized operator keeps equality duals accurate at the
requested tolerance.  Dual sign convention: d(objective)/d(b_eq) = y_eq.

Built once per solve, on the arrays of the CSR constraint matrix: the
standard form, a row id per nonzero and a stable CSR-to-CSC permutation,
the Ruiz factors, the scaled matrix and its transpose, the transpose of
the unscaled matrix for the residual check, the right-hand-side and cost
norms, the index sets of finite bounds, and the augmented matrix's
pattern with the positions of its diagonal.  Rewritten per iteration:
only that diagonal, in the augmented matrix's own ``data``, before the
same matrix goes to SuperLU.  The bound slacks and their duals live in
"bound space", one entry per finite bound (lower bounds, then upper).

Infeasible and unbounded instances are classified (not raised) by a
deterministic two-phase diagnosis that runs only when the main iteration
fails to converge.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .lp import LinearProgram, SolveResult, check_kkt

log = logging.getLogger(__name__)

_STEP_SCALE = 0.9995        # fraction-to-boundary damping
_MIN_MU = 1e-16
_DIVERGE = 1e40


@dataclass
class _Std:
    """Equality standard form min c.x s.t. Ax=b, lb<=x<=ub plus bookkeeping
    to undo surplus columns, fixed-variable elimination and empty-row drops."""

    c: np.ndarray
    a: sp.csr_matrix
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    n_orig: int
    m_eq: int
    m_in: int
    a_full: sp.csr_matrix       # standard form before presolve
    fixed_cols: np.ndarray      # bool over standard-form columns
    fixed_vals: np.ndarray
    kept_rows: np.ndarray       # bool over standard-form rows


def _pointers(counts: np.ndarray) -> np.ndarray:
    """Compressed-storage pointers for segments of the given lengths."""
    ptr = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr


def _with_surplus(a_eq: sp.csr_matrix, a_in: sp.csr_matrix) -> sp.csr_matrix:
    """CSR of [[A_eq, 0], [A_in, -I]]: each inequality row ends with its
    surplus column."""
    (m_eq, n), m_in = a_eq.shape, a_in.shape[0]
    ptr = _pointers(np.concatenate([np.diff(a_eq.indptr), np.diff(a_in.indptr) + 1]))
    surplus = ptr[m_eq + 1:] - 1
    rest = np.ones(ptr[-1], dtype=bool)
    rest[surplus] = False
    indices = np.empty(ptr[-1], dtype=np.int64)
    indices[rest] = np.concatenate([a_eq.indices, a_in.indices])
    indices[surplus] = np.arange(n, n + m_in)
    data = np.empty(ptr[-1])
    data[rest] = np.concatenate([a_eq.data, a_in.data])
    data[surplus] = -1.0
    return sp.csr_matrix((data, indices, ptr), shape=(m_eq + m_in, n + m_in))


def _standardize(lp: LinearProgram) -> _Std:
    n, m_eq, m_in = lp.n_vars, lp.n_eq, lp.n_in
    a = _with_surplus(lp.a_eq, lp.a_in) if m_in else lp.a_eq
    c = np.concatenate([lp.c, np.zeros(m_in)])
    b = np.concatenate([lp.b_eq, lp.b_in])
    lb = np.concatenate([lp.lb, np.zeros(m_in)])
    ub = np.concatenate([lp.ub, np.full(m_in, np.inf)])
    return _Std(c, a, b, lb, ub, n, m_eq, m_in, a_full=a,
                fixed_cols=np.zeros(c.size, dtype=bool),
                fixed_vals=np.zeros(c.size),
                kept_rows=np.ones(b.size, dtype=bool))


def _presolve(std: _Std) -> str | None:
    """Eliminate fixed columns and empty rows in place.

    Returns "infeasible" when an empty row has a nonzero right-hand side,
    else None.  Deliberately minimal so tagged-row duals stay recoverable.
    """
    fixed = np.isfinite(std.lb) & (std.lb == std.ub)
    if np.any(fixed):
        vals = np.where(fixed, std.lb, 0.0)
        std.b = std.b - std.a @ vals
        keep = ~fixed
        std.a = std.a[:, keep].tocsr()
        std.c = std.c[keep]
        std.lb = std.lb[keep]
        std.ub = std.ub[keep]
        std.fixed_cols = fixed
        std.fixed_vals = vals
    nnz_row = np.diff(std.a.indptr)
    empty = nnz_row == 0
    if np.any(empty):
        tol_b = 1e-9 * (1.0 + float(np.max(np.abs(std.b), initial=0.0)))
        if np.any(np.abs(std.b[empty]) > tol_b):
            return "infeasible"
        keep = ~empty
        std.a = std.a[keep].tocsr()
        std.b = std.b[keep]
        std.kept_rows = keep
    return None


def _seg_max(data: np.ndarray, indptr: np.ndarray, count: int) -> np.ndarray:
    """Max |value| per compressed segment, 1.0 for empty or all-zero ones."""
    if data.size == 0:
        return np.ones(count)
    starts = np.minimum(indptr[:-1], data.size - 1)
    out = np.maximum.reduceat(np.abs(data), starts)
    out = np.where(np.diff(indptr) > 0, out, 1.0)
    return np.where(out > 0.0, out, 1.0)


def _csc_order(col: np.ndarray, n: int):
    """Stable permutation from CSR storage order to CSC order (rows stay
    ascending within a column) and the CSC column pointers."""
    return np.argsort(col, kind="stable"), _pointers(np.bincount(col, minlength=n))


def _ruiz_scale(a: sp.csr_matrix, row: np.ndarray, perm: np.ndarray,
                col_ptr: np.ndarray, passes: int = 4):
    """Symmetric max-norm equilibration of ``a``; returns (row_scale, col_scale).

    ``row`` holds the row of every stored entry and ``perm``/``col_ptr``
    its CSC order (see ``_csc_order``).  Each pass rescales the entries
    rows first, then columns, as ``diags(rs) @ A`` then ``A @ diags(cs)``
    would.
    """
    m, n = a.shape
    dr = np.ones(m)
    dc = np.ones(n)
    work = a.data
    for _ in range(passes):
        rs = 1.0 / np.sqrt(_seg_max(work, a.indptr, m))
        work = rs[row] * work
        dr *= rs
        cs = 1.0 / np.sqrt(_seg_max(work[perm], col_ptr, n))
        work = work * cs[a.indices]
        dc *= cs
    return dr, dc


def _augmented(a: sp.csr_matrix, at: sp.csr_matrix):
    """Pattern of [[D, A^T], [A, R]] in CSC, rows ascending in every column
    and the diagonal zero; returns (matrix, positions of the diagonal)."""
    m, n = a.shape
    # column j < n: diagonal, then n + the rows of A's column j;
    # column n + i: the columns of A's row i, then the diagonal
    ptr = _pointers(np.concatenate([np.diff(at.indptr), np.diff(a.indptr)]) + 1)
    diag_pos = np.concatenate([ptr[:n], ptr[n + 1:] - 1])
    off = np.ones(ptr[-1], dtype=bool)
    off[diag_pos] = False
    indices = np.empty(ptr[-1], dtype=np.int64)
    indices[diag_pos] = np.arange(n + m)
    indices[off] = np.concatenate([at.indices + n, a.indices])
    data = np.zeros(ptr[-1])
    data[off] = np.concatenate([at.data, a.data])
    return sp.csc_matrix((data, indices, ptr), shape=(n + m, n + m)), diag_pos


def _bounds_only_solve(c, lb, ub):
    """Closed form for LPs with no constraint rows left after presolve."""
    x = np.where(c > 0, lb, np.where(c < 0, ub, np.clip(0.0, lb, ub)))
    if np.any(~np.isfinite(x)):
        return None, None, None, "unbounded"
    zl = np.maximum(c, 0.0)
    zu = np.maximum(-c, 0.0)
    return x, zl, zu, "optimal"


class _Core:
    """One interior-point run on a (reduced, scaled) standard-form LP."""

    def __init__(self, c, a, b, lb, ub, tol, max_iter):
        self.tol = tol
        self.max_iter = max_iter
        a0 = a.tocsr()
        if not a0.has_canonical_format:     # _augmented needs sorted rows
            a0 = a0.copy()
            a0.sum_duplicates()
        m, n = a0.shape
        self.m, self.n = m, n
        row = np.repeat(np.arange(m), np.diff(a0.indptr))
        perm, col_ptr = _csc_order(a0.indices, n)
        self.c0, self.a0, self.b0 = c, a0, b
        self.a0t = sp.csr_matrix((a0.data[perm], row[perm], col_ptr), shape=(n, m))
        self.dr, self.dc = _ruiz_scale(a0, row, perm, col_ptr)
        # (dr_i * a_ij) * dc_j is the operation order of diags(dr) @ A @
        # diags(dc); like that product, drop the entries that come out zero
        data = (self.dr[row] * a0.data) * self.dc[a0.indices]
        col, row_ptr = a0.indices, a0.indptr
        nonzero = data != 0.0
        if not nonzero.all():
            data, row, col = data[nonzero], row[nonzero], col[nonzero]
            row_ptr = _pointers(np.bincount(row, minlength=m))
            perm, col_ptr = _csc_order(col, n)
        self.a = sp.csr_matrix((data, col, row_ptr), shape=(m, n))
        self.at = sp.csr_matrix((data[perm], row[perm], col_ptr), shape=(n, m))
        self.b = self.dr * b
        self.c = self.dc * c
        with np.errstate(invalid="ignore"):
            self.lb = lb / self.dc
            self.ub = ub / self.dc
        self.jl = np.isfinite(self.lb)
        self.ju = np.isfinite(self.ub)
        self.il = np.flatnonzero(self.jl)
        self.iu = np.flatnonzero(self.ju)
        self.nl = self.il.size
        self.nb = self.nl + self.iu.size
        # bound space: column of each finite bound and the sign that turns
        # dx into the change of that bound's slack
        self.ib = np.concatenate([self.il, self.iu])
        self.sb = np.concatenate([np.ones(self.nl), -np.ones(self.iu.size)])
        self.lb0_l = lb[self.il]
        self.ub0_u = ub[self.iu]
        self.b_norm = 1.0 + float(np.max(np.abs(b), initial=0.0))
        self.c_norm = 1.0 + float(np.max(np.abs(c), initial=0.0))
        self.reg = 1e-10 * max(1.0, float(np.max(np.abs(data), initial=1.0)))
        self.mu_trace: list[float] = []
        self.kkt, self.diag_pos = _augmented(self.a, self.at)

    def _unstack(self, vb):
        """Bound-space vector -> (lower-bound part, upper-bound part) over
        the columns, zero off each bound set."""
        lo = np.zeros(self.n)
        lo[self.il] = vb[:self.nl]
        hi = np.zeros(self.n)
        hi[self.iu] = vb[self.nl:]
        return lo, hi

    def _mu(self, gb, zb):
        nl = self.nl
        return (float(gb[:nl] @ zb[:nl]) + float(gb[nl:] @ zb[nl:])) / self.nb

    def _max_step(self, vb, dvb):
        """Largest step in (0, 1] keeping vb + step * dvb >= 0.  The two
        bound blocks are reduced apart, so that a NaN ratio in one block
        does not hide the other block's limit."""
        ratio = np.full(vb.size, np.inf)
        np.divide(-vb, dvb, out=ratio, where=dvb < 0)
        nl = self.nl
        return min(1.0, float(ratio[:nl].min(initial=np.inf)),
                   float(ratio[nl:].min(initial=np.inf)))

    # -- residuals in the original (unscaled) data ------------------------
    def _true_residuals(self, x, y, zl, zu):
        xo = self.dc * x
        yo = self.dr * y
        zlo = zl / self.dc      # zl, zu are zero off their bound sets
        zuo = zu / self.dc
        rp = self.b0 - self.a0 @ xo
        rd = self.c0 - self.a0t @ yo - zlo + zuo
        rp_rel = float(np.abs(rp).max(initial=0.0)) / self.b_norm
        rd_rel = float(np.abs(rd).max(initial=0.0)) / self.c_norm
        pobj = float(self.c0 @ xo)
        dobj = float(self.b0 @ yo)
        dobj += float(np.sum(self.lb0_l * zlo[self.il]))
        dobj -= float(np.sum(self.ub0_u * zuo[self.iu]))
        gap_rel = abs(pobj - dobj) / (1.0 + abs(pobj))
        return rp_rel, rd_rel, gap_rel

    def _factor(self, d_diag):
        """LU of the augmented matrix with diagonal -(d_diag + reg), reg;
        the regularization grows 100x per failed attempt."""
        data = self.kkt.data
        reg = self.reg
        for _ in range(4):
            data[self.diag_pos[:self.n]] = -(d_diag + reg)
            data[self.diag_pos[self.n:]] = reg
            try:
                return splu(self.kkt)
            except RuntimeError:
                reg *= 100.0
        raise RuntimeError("augmented KKT matrix could not be factorized")

    def _solve_kkt(self, lu, d_diag, r1, r2):
        n = self.n
        rhs = np.concatenate([r1, r2])
        sol = lu.solve(rhs)
        dx, dy = sol[:n], sol[n:]
        # refinement vs the unregularized operator
        tol = 1e-12 * (1.0 + np.abs(rhs).max())
        res = np.empty_like(rhs)
        for _ in range(2):
            res[:n] = r1 - (self.at @ dy - d_diag * dx)
            res[n:] = r2 - self.a @ dx
            if np.abs(res).max() <= tol:
                break
            corr = lu.solve(res)
            dx = dx + corr[:n]
            dy = dy + corr[n:]
        return dx, dy

    def _r1(self, rd, tb):
        """Reduced dual right-hand side rd - tl + tu, where tl and tu are
        the lower and upper parts of the bound-space vector tb."""
        tl, tu = self._unstack(tb)
        return rd - tl + tu

    def _start(self):
        n, m = self.n, self.m
        if m:
            ones = np.ones(n)
            lu = self._factor(ones)
            sol = self._solve_kkt(lu, ones, np.zeros(n), self.b)
            x = sol[0]
            sol2 = self._solve_kkt(lu, ones, self.c, np.zeros(m))
            y = sol2[1]
            z = self.c - self.at @ y
        else:
            x = np.zeros(n)
            y = np.zeros(0)
            z = self.c.copy()
        span = self.ub - self.lb
        pad = np.where(self.jl & self.ju, np.minimum(0.4 * span, 1.0), 1.0)
        lo = np.where(self.jl, self.lb + pad, -np.inf)
        hi = np.where(self.ju, self.ub - pad, np.inf)
        x = np.clip(x, lo, hi)
        il, iu = self.il, self.iu
        gb = np.concatenate([x[il] - self.lb[il], self.ub[iu] - x[iu]])
        zb = np.concatenate([np.maximum(z[il], 0.0), np.maximum(-z[iu], 0.0)]) + 1.0
        return x, y, gb, zb

    def run(self):
        x, y, gb, zb = self._start()
        ib, sb = self.ib, self.sb
        status = "iteration_limit"
        it = 0
        stall = 0
        best_err = np.inf
        for it in range(1, self.max_iter + 1):
            zl, zu = self._unstack(zb)
            rp_rel, rd_rel, gap_rel = self._true_residuals(x, y, zl, zu)
            mu = self._mu(gb, zb) if self.nb else 0.0
            self.mu_trace.append(mu)
            err = max(rp_rel, rd_rel, gap_rel)
            if err <= self.tol:
                status = "optimal"
                break
            if not np.isfinite(err) or np.abs(x).max() > _DIVERGE or mu > _DIVERGE:
                status = "diverged"
                break
            if err < best_err * 0.999:
                best_err = err
                stall = 0
            else:
                stall += 1
                if stall > 30 or (mu < _MIN_MU and err > 1e3 * self.tol):
                    status = "diverged" if err > 1e-4 else "iteration_limit"
                    break

            rp = self.b - self.a @ x
            rd = self.c - self.at @ y - zl + zu
            d_diag = np.zeros(self.n)
            qb = zb / gb
            d_diag[self.il] = qb[:self.nl]
            d_diag[self.iu] += qb[self.nl:]
            try:
                lu = self._factor(d_diag)
            except RuntimeError:
                status = "diverged"
                break

            # predictor (affine scaling)
            rc = -gb * zb
            dx_a, dy_a = self._solve_kkt(lu, d_diag, self._r1(rd, rc / gb), rp)
            dg_a = dx_a[ib] * sb
            dz_a = (rc - zb * dg_a) / gb
            ap = self._max_step(gb, dg_a)
            ad = self._max_step(zb, dz_a)
            if self.nb:
                mu_aff = self._mu(gb + ap * dg_a, zb + ad * dz_a)
                sigma = min(max((max(mu_aff, 0.0) / max(mu, 1e-300)) ** 3, 1e-8), 1.0 - 1e-8)
            else:
                sigma = 0.0

            # corrector + centering
            rc = sigma * mu - gb * zb - dg_a * dz_a
            dx, dy = self._solve_kkt(lu, d_diag, self._r1(rd, rc / gb), rp)
            # SuperLU's factors keep its whole work space; drop them so the
            # next factorization does not run with two sets alive
            lu = None
            dg = dx[ib] * sb
            dz = (rc - zb * dg) / gb

            ap = min(_STEP_SCALE * self._max_step(gb, dg), 1.0)
            ad = min(_STEP_SCALE * self._max_step(zb, dz), 1.0)
            x = x + ap * dx
            gb = gb + ap * dg
            y = y + ad * dy
            zb = zb + ad * dz

        zl, zu = self._unstack(zb)
        xo = self.dc * x
        yo = self.dr * y if self.m else np.zeros(0)
        return status, xo, yo, zl / self.dc, zu / self.dc, it, self.mu_trace


def _run_core(c, a, b, lb, ub, tol, max_iter):
    if a.shape[0] == 0:
        x, zl, zu, status = _bounds_only_solve(c, lb, ub)
        if status != "optimal":
            return status, None, None, None, None, 0, []
        return status, x, np.zeros(0), zl, zu, 0, [0.0]
    core = _Core(c, a, b, lb, ub, tol, max_iter)
    return core.run()


def _diagnose(std: _Std, tol: float, max_iter: int) -> str:
    """Classify a non-converged instance as infeasible/unbounded via two
    auxiliary always-solvable LPs (primal and dual elasticized feasibility)."""
    m, n = std.a.shape
    b_scale = 1.0 + float(np.max(np.abs(std.b), initial=0.0))
    # phase 1: min 1.(p+q) s.t. Ax + p - q = b
    a1 = sp.hstack([std.a, sp.identity(m), -sp.identity(m)], format="csr")
    c1 = np.concatenate([np.zeros(n), np.ones(2 * m)])
    lb1 = np.concatenate([std.lb, np.zeros(2 * m)])
    ub1 = np.concatenate([std.ub, np.full(2 * m, np.inf)])
    status, x1, *_ = _run_core(c1, a1, std.b, lb1, ub1, max(tol, 1e-9), max_iter)
    if status == "optimal":
        if float(c1 @ x1) > max(1e-7, 100 * tol) * b_scale:
            return "infeasible"
    else:
        return "iteration_limit"
    # dual feasibility: A^T y + zl - zu + p - q = c with zl, zu >= 0
    jl = np.isfinite(std.lb)
    ju = np.isfinite(std.ub)
    sl = sp.identity(n, format="csc")[:, jl]
    su = sp.identity(n, format="csc")[:, ju]
    a2 = sp.hstack([std.a.T, sl, -su, sp.identity(n), -sp.identity(n)], format="csr")
    nl, nu = int(jl.sum()), int(ju.sum())
    c2 = np.concatenate([np.zeros(m + nl + nu), np.ones(2 * n)])
    lb2 = np.concatenate([np.full(m, -np.inf), np.zeros(nl + nu + 2 * n)])
    ub2 = np.full(m + nl + nu + 2 * n, np.inf)
    c_scale = 1.0 + float(np.max(np.abs(std.c), initial=0.0))
    status, x2, *_ = _run_core(c2, a2, std.c, lb2, ub2, max(tol, 1e-9), max_iter)
    if status == "optimal" and float(c2 @ x2) > max(1e-7, 100 * tol) * c_scale:
        return "unbounded"
    return "iteration_limit"


def solve(lp: LinearProgram, tol: float = 1e-8, max_iter: int = 200) -> SolveResult:
    """Solve ``lp`` to ``tol``; never raises for well-posed infeasible input.

    On ``optimal`` the recomputed KKT residuals satisfy
    ``max(primal, dual, gap) <= tol`` and ``y_eq`` follows the convention
    ``d(objective)/d(b_eq) = y_eq``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    lp.validate()
    std = _standardize(lp)
    early = _presolve(std)
    if early is not None:
        return SolveResult(status=early, row_tags=dict(lp.row_tags))

    status, x_red, y_red, zl_red, zu_red, iters, mu_trace = _run_core(
        std.c, std.a, std.b, std.lb, std.ub, tol, max_iter)

    if status in ("diverged", "iteration_limit"):
        status = _diagnose(std, tol, max_iter)
        log.info("ipm did not converge; diagnosis=%s", status)
    if status != "optimal":
        return SolveResult(status=status, iterations=iters,
                           mu_trace=mu_trace, row_tags=dict(lp.row_tags))

    # undo presolve
    ns = std.fixed_cols.size
    x_std = np.array(std.fixed_vals)
    x_std[~std.fixed_cols] = x_red
    y_std = np.zeros(std.kept_rows.size)
    y_std[std.kept_rows] = y_red
    z_std = np.zeros(ns)
    z_std[~std.fixed_cols] = zl_red - zu_red
    if np.any(std.fixed_cols):
        c_full = np.concatenate([lp.c, np.zeros(std.m_in)])
        fixed_idx = np.flatnonzero(std.fixed_cols)
        z_std[fixed_idx] = c_full[fixed_idx] - (std.a_full.T @ y_std)[fixed_idx]

    n = std.n_orig
    x = x_std[:n]
    y_eq = y_std[:std.m_eq]
    y_in = y_std[std.m_eq:]
    z = z_std[:n]

    result = SolveResult(status="optimal", x=x, y_eq=y_eq, y_in=y_in, z=z,
                         objective=float(lp.c @ x), iterations=iters,
                         mu_trace=mu_trace, row_tags=dict(lp.row_tags))
    result.kkt = check_kkt(lp, result)
    if max(result.kkt) > tol * 10:
        # belt-and-braces: never report optimal with residuals far off spec
        log.warning("kkt residuals %s exceed tol=%g after convergence", result.kkt, tol)
        result.status = "iteration_limit"
    return result
