"""Linear programming layer: problem container and a bundled simplex solver.

The bundled solver is a two-phase revised primal simplex over a dense basis
inverse.  Variables are shifted/mirrored/split to the computational standard
form (all nonnegative), finite upper bounds become explicit rows, and phase
one drives artificial variables out of the basis (redundant rows are
dropped).  Pricing is Dantzig's rule with a permanent switch to Bland's rule
after a long run of degenerate pivots, which guarantees termination.

``solve_lp_scipy`` exposes the same contract through scipy's HiGHS backend,
which MO uses unless a scenario asks for the bundled solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

LE, EQ, GE = "<=", "=", ">="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration-limit"

_PIVOT_TOL = 1e-7   # smallest acceptable pivot element
_DEGEN_TOL = 1e-9   # step sizes below this count as degenerate
_REFACTOR_EVERY = 100


@dataclass
class LpProblem:
    """min c @ x subject to A x (sense) b and lower <= x <= upper."""

    c: np.ndarray
    a: sp.csr_matrix
    senses: tuple
    b: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.a = sp.csr_matrix(self.a)
        self.b = np.asarray(self.b, dtype=float)
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        m, n = self.a.shape
        if len(self.c) != n or len(self.lower) != n or len(self.upper) != n:
            raise ValueError("column size mismatch")
        if len(self.b) != m or len(self.senses) != m:
            raise ValueError("row size mismatch")
        if not set(self.senses) <= {LE, EQ, GE}:
            unknown = next(s for s in self.senses if s not in (LE, EQ, GE))
            raise ValueError(f"unknown sense {unknown!r}")
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound above upper bound")

    @property
    def shape(self) -> tuple:
        return self.a.shape


@dataclass
class LpSolution:
    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    iterations: int = 0
    message: str = ""


def _solve_unconstrained(problem: LpProblem) -> LpSolution:
    # No rows: each variable independently sits at its cheapest bound.
    x = np.zeros(len(problem.c))
    for j, cj in enumerate(problem.c):
        lo, hi = problem.lower[j], problem.upper[j]
        if cj > 0:
            if not np.isfinite(lo):
                return LpSolution(UNBOUNDED, message=f"column {j} unbounded below")
            x[j] = lo
        elif cj < 0:
            if not np.isfinite(hi):
                return LpSolution(UNBOUNDED, message=f"column {j} unbounded above")
            x[j] = hi
        else:
            x[j] = lo if np.isfinite(lo) else (hi if np.isfinite(hi) else 0.0)
    return LpSolution(OPTIMAL, x=x, objective=float(problem.c @ x))


class _Standardizer:
    """Rewrites an LpProblem into min c'x, A x = b, x >= 0 with a recovery map."""

    def __init__(self, problem: LpProblem):
        a = problem.a.toarray()
        b = problem.b.copy()
        # Row equilibration: big-M rows otherwise swamp the absolute
        # feasibility tolerances.  Pure row scaling leaves solutions intact.
        scale = np.abs(a).max(axis=1, initial=0.0)
        scale[scale <= 0.0] = 1.0
        a = a / scale[:, None]
        b = b / scale
        n = a.shape[1]
        cols = []
        c_std = []
        ubounds = []  # (std_col, bound) rows to append
        self.recover = []  # per original var: (kind, payload, std indices)
        for j in range(n):
            lo, hi = problem.lower[j], problem.upper[j]
            col = a[:, j]
            cj = problem.c[j]
            if np.isfinite(lo):
                b -= col * lo
                idx = len(cols)
                cols.append(col)
                c_std.append(cj)
                if np.isfinite(hi):
                    ubounds.append((idx, hi - lo))
                self.recover.append(("shift", lo, (idx,)))
            elif np.isfinite(hi):
                b -= col * hi
                idx = len(cols)
                cols.append(-col)
                c_std.append(-cj)
                self.recover.append(("mirror", hi, (idx,)))
            else:
                ip, im = len(cols), len(cols) + 1
                cols.append(col)
                cols.append(-col)
                c_std.append(cj)
                c_std.append(-cj)
                self.recover.append(("split", 0.0, (ip, im)))
        a_std = np.column_stack(cols) if cols else np.zeros((a.shape[0], 0))
        senses = list(problem.senses)
        for idx, bound in ubounds:
            row = np.zeros(a_std.shape[1])
            row[idx] = 1.0
            a_std = np.vstack([a_std, row])
            b = np.append(b, bound)
            senses.append(LE)
        self.n_structural = a_std.shape[1]
        # slack / surplus columns
        m = a_std.shape[0]
        slack_cols = []
        self.slack_for_row = {}
        for i, s in enumerate(senses):
            if s == EQ:
                continue
            col = np.zeros(m)
            col[i] = 1.0 if s == LE else -1.0
            self.slack_for_row[i] = self.n_structural + len(slack_cols)
            slack_cols.append(col)
        if slack_cols:
            a_std = np.hstack([a_std, np.column_stack(slack_cols)])
            c_std.extend([0.0] * len(slack_cols))
        # make b nonnegative
        neg = b < 0
        a_std[neg] *= -1.0
        b[neg] = -b[neg]
        self.a = a_std
        self.b = b
        self.c = np.array(c_std)
        self.row_flipped = neg

    def restore(self, x_std: np.ndarray, n_orig: int) -> np.ndarray:
        x = np.zeros(n_orig)
        for j, (kind, payload, idx) in enumerate(self.recover):
            if kind == "shift":
                x[j] = payload + x_std[idx[0]]
            elif kind == "mirror":
                x[j] = payload - x_std[idx[0]]
            else:
                x[j] = x_std[idx[0]] - x_std[idx[1]]
        return x


def _core(a, b, c, basis, allowed, opt_tol, max_iters):
    """Revised simplex iterations; returns (status, basis, x_basic, iters)."""
    m, _ = a.shape
    binv = np.linalg.inv(a[:, basis])
    xb = binv @ b
    bland = False
    degenerate_run = 0
    iters = 0
    while iters < max_iters:
        if iters and iters % _REFACTOR_EVERY == 0:
            try:
                binv = np.linalg.inv(a[:, basis])
                xb = binv @ b
                np.clip(xb, 0.0, None, out=xb)
            except np.linalg.LinAlgError:
                return "numerical", basis, xb, iters
        reduced = c - (c[basis] @ binv) @ a
        reduced[basis] = 0.0
        eligible = allowed & (reduced < -opt_tol)
        if not eligible.any():
            return OPTIMAL, basis, xb, iters
        if bland:
            enter = int(np.flatnonzero(eligible)[0])
        else:
            masked = np.where(eligible, reduced, np.inf)
            enter = int(np.argmin(masked))
        direction = binv @ a[:, enter]
        pos = direction > _PIVOT_TOL
        if not pos.any():
            return UNBOUNDED, basis, xb, iters
        ratios = np.full(m, np.inf)
        ratios[pos] = xb[pos] / direction[pos]
        theta = ratios.min()
        near = np.flatnonzero(ratios <= theta + _DEGEN_TOL)
        if bland:
            leave = int(min(near, key=lambda i: basis[i]))
        else:
            leave = int(max(near, key=lambda i: direction[i]))
        xb = xb - theta * direction
        xb[leave] = theta
        np.clip(xb, 0.0, None, out=xb)
        basis[leave] = enter
        pivot_row = binv[leave] / direction[leave]
        binv -= np.outer(direction, pivot_row)
        binv[leave] = pivot_row
        degenerate_run = degenerate_run + 1 if theta <= _DEGEN_TOL else 0
        if degenerate_run > 2 * m + 10:
            bland = True
        iters += 1
    return ITERATION_LIMIT, basis, xb, iters


def solve_lp(
    problem: LpProblem,
    max_iterations: int = 50_000,
    feas_tol: float = 1e-6,
    opt_tol: float = 1e-7,
) -> LpSolution:
    """Bundled two-phase revised primal simplex.

    Returns an optimal basic solution or a definitive infeasible/unbounded
    status; hitting ``max_iterations`` is reported as such, never as a bogus
    answer.
    """
    m, n = problem.shape
    if m == 0:
        return _solve_unconstrained(problem)
    std = _Standardizer(problem)
    a, b, c = std.a, std.b, std.c
    m_std, n_real = a.shape

    # Phase 1 basis: usable slack columns, artificials elsewhere.
    basis = np.full(m_std, -1, dtype=int)
    art_rows = []
    for i in range(m_std):
        j = std.slack_for_row.get(i)
        if j is not None and a[i, j] > 0.5:
            basis[i] = j
        else:
            art_rows.append(i)
    n_art = len(art_rows)
    if n_art:
        art_block = np.zeros((m_std, n_art))
        for k, i in enumerate(art_rows):
            art_block[i, k] = 1.0
            basis[i] = n_real + k
        a = np.hstack([a, art_block])
    c1 = np.zeros(a.shape[1])
    c1[n_real:] = 1.0
    total_iters = 0

    if n_art:
        allowed = np.ones(a.shape[1], dtype=bool)
        status, basis, xb, iters = _core(a, b, c1, basis, allowed, opt_tol,
                                         max_iterations)
        total_iters += iters
        if status in (ITERATION_LIMIT, "numerical", UNBOUNDED):
            return LpSolution(ITERATION_LIMIT, iterations=total_iters,
                              message=f"phase 1 stopped: {status}")
        if float(c1[basis] @ xb) > feas_tol:
            return LpSolution(INFEASIBLE, iterations=total_iters,
                              message="phase 1 left positive artificials")
        # Pivot remaining artificials out; drop rows that prove redundant.
        try:
            binv = np.linalg.inv(a[:, basis])
        except np.linalg.LinAlgError:
            return LpSolution(ITERATION_LIMIT, iterations=total_iters,
                              message="singular basis after phase 1")
        drop_rows = []
        for i in range(m_std):
            if basis[i] < n_real:
                continue
            row = binv[i] @ a[:, :n_real]
            pivots = np.flatnonzero(np.abs(row) > 1e-8)
            pivots = [j for j in pivots if j not in set(basis)]
            if pivots:
                j = int(pivots[0])
                direction = binv @ a[:, j]
                pivot_row = binv[i] / direction[i]
                binv -= np.outer(direction, pivot_row)
                binv[i] = pivot_row
                basis[i] = j
            else:
                drop_rows.append(i)
        if drop_rows:
            keep = np.setdiff1d(np.arange(m_std), drop_rows)
            a = a[keep]
            b = b[keep]
            basis = basis[keep]
            m_std = len(keep)

    a = a[:, :n_real]
    c2 = c[:n_real] if len(c) >= n_real else np.concatenate([c, np.zeros(n_real - len(c))])
    allowed = np.ones(n_real, dtype=bool)
    status, basis, xb, iters = _core(a, b, c2, basis, allowed, opt_tol,
                                     max_iterations - total_iters)
    total_iters += iters
    if status in (ITERATION_LIMIT, "numerical"):
        return LpSolution(ITERATION_LIMIT, iterations=total_iters,
                          message=f"phase 2 stopped: {status}")
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, iterations=total_iters)

    x_std = np.zeros(n_real)
    x_std[basis] = xb
    x = std.restore(x_std, n)
    return LpSolution(OPTIMAL, x=x, objective=float(problem.c @ x),
                      iterations=total_iters)


def solve_lp_scipy(problem: LpProblem, time_limit: float | None = None) -> LpSolution:
    """Same contract as ``solve_lp`` but delegating to scipy's HiGHS."""
    from scipy.optimize import linprog

    senses = np.array(problem.senses)
    a = problem.a.tocsr()
    le = np.flatnonzero(senses == LE)
    ge = np.flatnonzero(senses == GE)
    eq = np.flatnonzero(senses == EQ)
    a_ub = b_ub = a_eq = b_eq = None
    if le.size or ge.size:
        # the LE rows, then the GE rows negated
        a_ub = a[np.concatenate((le, ge))]
        negated = a_ub.data[a_ub.indptr[le.size]:]
        np.negative(negated, out=negated)
        b_ub = np.concatenate((problem.b[le], -problem.b[ge]))
    if eq.size:
        a_eq = a[eq]
        b_eq = problem.b[eq]
    options = {"presolve": True}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    res = linprog(
        problem.c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
        bounds=np.column_stack((problem.lower, problem.upper)),
        method="highs", options=options,
    )
    status = {0: OPTIMAL, 1: ITERATION_LIMIT, 2: INFEASIBLE, 3: UNBOUNDED}.get(
        res.status, ITERATION_LIMIT
    )
    if status == OPTIMAL:
        return LpSolution(OPTIMAL, x=res.x, objective=float(res.fun),
                          iterations=int(res.nit), message=res.message)
    return LpSolution(status, iterations=int(getattr(res, "nit", 0) or 0),
                      message=res.message)
