"""Correctness checks made apart from ``hydrodr``'s own solver.

Each check is a plain function over numbers, so the benchmark's tests can
feed it corrupted inputs.  A check returns a list of failure messages; an
empty list means it passed.  The LPs themselves are re-solved with
SciPy's HiGHS (``scipy.optimize.linprog``), an independent solver.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

OBJ_RTOL = 1e-6          # IPM runs at tol 1e-8 (1e-9 for SDDP stages)
BOUND_RTOL = 1e-8        # SDDP's first-stage solve runs at tol 1e-10
DUAL_RTOL = 1e-6         # same slack hydrodr.builder.extract_duals allows


def highs_objective(lp, b_eq=None) -> float:
    """Optimal objective of a ``hydrodr.lp.LinearProgram`` by HiGHS.

    ``b_eq`` replaces the equality right-hand side.  Infeasible returns
    +inf (the value of an infeasible minimization); any other non-optimal
    status raises, since no check can use it.
    """
    res = linprog(lp.c,
                  A_ub=-lp.a_in if lp.n_in else None,
                  b_ub=-lp.b_in if lp.n_in else None,
                  A_eq=lp.a_eq if lp.n_eq else None,
                  b_eq=(lp.b_eq if b_eq is None else b_eq) if lp.n_eq else None,
                  bounds=np.column_stack([lp.lb, lp.ub]), method="highs")
    if res.status == 2:
        return float("inf")
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the check LP: {res.message}")
    return float(res.fun)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * (1.0 + max(abs(a), abs(b)))


def objectives_agree(label: str, ours, reference, rtol: float = OBJ_RTOL) -> list[str]:
    """Each objective equals the independent solver's to ``rtol``."""
    ours, reference = list(ours), list(reference)
    if len(ours) != len(reference) or not ours:
        return [f"{label}: {len(ours)} objectives against {len(reference)} references"]
    return [f"{label}[{i}]: {a!r} vs HiGHS {b!r}"
            for i, (a, b) in enumerate(zip(ours, reference)) if not _close(a, b, rtol)]


def mean_matches(label: str, reported: float, reference, rtol: float = OBJ_RTOL) -> list[str]:
    """A reported mean equals the mean of independently computed values."""
    ref = float(np.mean(reference))
    if not _close(reported, ref, rtol):
        return [f"{label}: reported {reported!r}, independent mean {ref!r}"]
    return []


def perturbations(rhs_rows: np.ndarray, pairs: int, seed: int) -> list[np.ndarray]:
    """Right-hand-side steps ``+d`` and ``-d`` for ``pairs`` random ``d``.

    Each entry is 1% of the row's scale; the sign pairs make a wrong-sign
    dual fail the subgradient test on one side of every pair.
    """
    rng = np.random.default_rng(seed)
    scale = 0.01 * (1.0 + np.abs(rhs_rows))
    out = []
    for _ in range(pairs):
        d = scale * rng.uniform(-1.0, 1.0, size=rhs_rows.size)
        out += [d, -d]
    return out


def subgradient_holds(label: str, q: float, lam: np.ndarray, deltas,
                      q_perturbed, rtol: float = OBJ_RTOL) -> list[str]:
    """Convexity of the LP value in its right-hand side:
    ``Q(b + delta) >= Q(b) + lam . delta`` for every step."""
    fails = []
    for k, (d, qp) in enumerate(zip(deltas, q_perturbed)):
        lin = q + float(np.dot(lam, d))
        if qp < lin - rtol * (1.0 + abs(q)):
            fails.append(f"{label}: step {k}: Q(b+d)={qp!r} < Q+lam.d={lin!r}")
    return fails


def duals_within_penalty(label: str, lam: np.ndarray, c_delta: float,
                         rtol: float = DUAL_RTOL) -> list[str]:
    """A target dual can never exceed the deviation penalty in magnitude."""
    worst = float(np.max(np.abs(lam), initial=0.0))
    if not np.all(np.isfinite(lam)) or worst > c_delta * (1.0 + rtol):
        return [f"{label}: |lambda| {worst!r} exceeds the penalty {c_delta!r}"]
    return []


def above_foresight(label: str, costs, foresight, rtol: float = OBJ_RTOL) -> list[str]:
    """No policy beats the perfect-foresight optimum of its own path."""
    costs, foresight = list(costs), list(foresight)
    if len(costs) != len(foresight) or not costs:
        return [f"{label}: {len(costs)} costs against {len(foresight)} optima"]
    return [f"{label}[{i}]: cost {c!r} below perfect foresight {f!r}"
            for i, (c, f) in enumerate(zip(costs, foresight))
            if c < f - rtol * (1.0 + abs(f))]


def bound_nondecreasing(trace, rtol: float = BOUND_RTOL) -> list[str]:
    """SDDP's lower bound never decreases between iterations."""
    trace = [float(v) for v in trace]
    if not trace:
        return ["sddp: empty bound trace"]
    return [f"sddp: bound fell at iteration {i + 2}: {a!r} -> {b!r}"
            for i, (a, b) in enumerate(zip(trace, trace[1:]))
            if b < a - rtol * (1.0 + abs(a))]


def bound_below_simulation(lower_bound: float, costs) -> list[str]:
    """The lower bound is at most the simulated mean plus 3 standard errors."""
    costs = np.asarray(costs, dtype=float)
    if costs.size < 2:
        return ["sddp: need at least two simulated paths"]
    se = float(costs.std(ddof=1)) / np.sqrt(costs.size)
    if lower_bound > float(costs.mean()) + 3.0 * se:
        return [f"sddp: lower bound {lower_bound!r} above simulated mean "
                f"{float(costs.mean())!r} + 3 SE ({se!r})"]
    return []
