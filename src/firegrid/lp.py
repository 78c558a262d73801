"""Linear programming layer: problem container and a bundled simplex solver.

The bundled solver is a two-phase revised primal simplex over a dense basis
inverse.  It takes the problems MO builds: at least one row, and a finite
lower bound on every column.  Each column is shifted to its lower bound, so
every variable is nonnegative; a finite upper bound becomes a unit row, each
inequality row gets a slack column, and phase one drives artificial
variables out of the basis (redundant rows are dropped).  Pricing is
Dantzig's rule with a permanent switch to Bland's rule after a long run of
degenerate pivots, which guarantees termination.

``solve_lp_scipy`` exposes the same contract through scipy's HiGHS backend,
for any ``LpProblem``; MO uses it unless a scenario asks for the bundled
solver.
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
TIME_LIMIT = "time-limit"

_PIVOT_TOL = 1e-7   # smallest acceptable pivot element
_FEAS_TOL = 1e-6    # phase one's largest artificial sum still feasible
_OPT_TOL = 1e-7     # reduced costs above -_OPT_TOL count as optimal
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


def _standard_form(problem: LpProblem) -> tuple:
    """``(a, b, c, slack_for_row)`` of min c'x, A x = b, x >= 0, with b >= 0:
    each column shifted to its lower bound, a unit row for each finite upper
    bound, and ``slack_for_row[i]`` the slack column of row i, or -1."""
    a = problem.a.toarray()
    b = problem.b.copy()
    # Row equilibration: big-M rows otherwise swamp the absolute
    # feasibility tolerances.  Pure row scaling leaves solutions intact.
    scale = np.abs(a).max(axis=1, initial=0.0)
    scale[scale <= 0.0] = 1.0
    a = a / scale[:, None]
    b = b / scale
    lower, n = problem.lower, a.shape[1]
    # Column by column, not ``b -= a @ lower``: a matrix product may round
    # differently, and the goldens were recorded with this order.
    for j in range(n):
        b -= a[:, j] * lower[j]
    bounded = np.flatnonzero(np.isfinite(problem.upper))
    units = np.zeros((len(bounded), n))
    units[np.arange(len(bounded)), bounded] = 1.0
    a = np.vstack([a, units])
    b = np.concatenate([b, problem.upper[bounded] - lower[bounded]])
    senses = np.array(list(problem.senses) + [LE] * len(bounded))
    # one slack column per inequality row, +1 on a LE row, -1 on a GE row
    rows = np.flatnonzero(senses != EQ)
    slacks = np.zeros((len(senses), len(rows)))
    slacks[rows, np.arange(len(rows))] = np.where(senses[rows] == LE, 1.0, -1.0)
    slack_for_row = np.full(len(senses), -1)
    slack_for_row[rows] = n + np.arange(len(rows))
    a = np.hstack([a, slacks])
    neg = b < 0
    a[neg] *= -1.0
    b[neg] = -b[neg]
    return a, b, np.concatenate([problem.c, np.zeros(len(rows))]), slack_for_row


def _core(a, b, c, basis, max_iters):
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
        eligible = reduced < -_OPT_TOL
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


def solve_lp(problem: LpProblem, max_iterations: int = 50_000) -> LpSolution:
    """Bundled two-phase revised primal simplex.

    Returns an optimal basic solution or a definitive infeasible/unbounded
    status; hitting ``max_iterations`` is reported as such, never as a bogus
    answer.  Takes the problems MO builds: at least one row, and a finite
    lower bound on every column; anything else raises ``ValueError``.
    """
    m, n = problem.shape
    if m == 0:
        raise ValueError("solve_lp needs at least one row")
    if not np.isfinite(problem.lower).all():
        raise ValueError("solve_lp needs a finite lower bound on every column")
    a, b, c, slack = _standard_form(problem)
    m_std, n_real = a.shape

    # Phase 1 basis: a row's slack where it is still +1 after the sign flip,
    # an artificial elsewhere.
    usable = slack >= 0
    usable[usable] = a[usable, slack[usable]] > 0.5
    basis = np.where(usable, slack, -1)
    art_rows = np.flatnonzero(~usable)
    total_iters = 0
    if len(art_rows):
        art_block = np.zeros((m_std, len(art_rows)))
        art_block[art_rows, np.arange(len(art_rows))] = 1.0
        basis[art_rows] = n_real + np.arange(len(art_rows))
        a = np.hstack([a, art_block])
        c1 = np.zeros(a.shape[1])
        c1[n_real:] = 1.0
        status, basis, xb, iters = _core(a, b, c1, basis, max_iterations)
        total_iters += iters
        if status in (ITERATION_LIMIT, "numerical", UNBOUNDED):
            return LpSolution(ITERATION_LIMIT, iterations=total_iters)
        if float(c1[basis] @ xb) > _FEAS_TOL:
            return LpSolution(INFEASIBLE, iterations=total_iters)
        # Pivot remaining artificials out; drop rows that prove redundant.
        try:
            binv = np.linalg.inv(a[:, basis])
        except np.linalg.LinAlgError:
            return LpSolution(ITERATION_LIMIT, iterations=total_iters)
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

    status, basis, xb, iters = _core(a[:, :n_real], b, c, basis,
                                     max_iterations - total_iters)
    total_iters += iters
    if status in (ITERATION_LIMIT, "numerical"):
        return LpSolution(ITERATION_LIMIT, iterations=total_iters)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, iterations=total_iters)

    x_std = np.zeros(n_real)
    x_std[basis] = xb
    x = problem.lower + x_std[:n]
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
    # linprog reports both of HiGHS's limits as status 1
    if res.status == 1 and res.message.startswith("Time limit"):
        status = TIME_LIMIT
    if status == OPTIMAL:
        return LpSolution(OPTIMAL, x=res.x, objective=float(res.fun),
                          iterations=int(res.nit))
    return LpSolution(status, iterations=int(getattr(res, "nit", 0) or 0))
