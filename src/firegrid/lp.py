"""Linear programming layer: problem container and a bundled simplex solver.

The bundled solver is a two-phase revised primal simplex over a dense basis
inverse.  It takes the problems MO builds: at least one row, a finite
lower bound on every column, and no inf or NaN in ``c``, A or ``b``.  Each
column is shifted to its lower bound, so every variable is nonnegative; a
finite upper bound becomes a unit row, each inequality row gets a slack
column, and phase one drives artificial variables out of the basis
(redundant rows are dropped).  Pricing is
Dantzig's rule with a permanent switch to Bland's rule after a long run of
degenerate pivots, which guarantees termination.

``solve_lp_scipy`` exposes the same contract through the HiGHS bundled with
scipy, for any ``LpProblem``; MO uses it unless a scenario asks for the
bundled solver.  It calls scipy's private binding
``scipy.optimize._highspy._core`` directly, with the model and options
``linprog`` would pass and ``linprog``'s input and result checks, because
``linprog``'s wrapper spends a sizeable share of a decision in Python on
results MO never reads.  A problem's rows are handed to HiGHS as stored,
row-wise, once, and shared with the problems ``LpProblem.with_columns``
derives from it.  An ``LpProblem`` holds A as numpy CSR arrays, and both
solvers work on numpy arrays alone.  So this module imports nothing from scipy
until the binding is loaded, or a problem is given A as a scipy or dense
matrix, or its ``a`` property is read; ``_highs`` finds the binding's
extension file without running any scipy package and loads it alone.
"""

from __future__ import annotations

import copy
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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


class Csr(NamedTuple):
    """A matrix's compressed sparse rows: the entries of row i are
    ``data[indptr[i]:indptr[i + 1]]``, in the columns at the same places of
    ``indices``."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray


class LpProblem:
    """min c @ x subject to A x (sense) b and lower <= x <= upper.

    A is stored once, as the CSR arrays ``data``, ``indices`` and ``indptr``
    of shape ``shape`` = (len(b), len(c)); the solvers read these rows as
    stored (HiGHS transposes them itself), the MPS writer alone reorders them
    by column.  ``a`` may be given as a ``Csr`` of such arrays, kept as they
    are, or as a scipy sparse matrix or a dense array, read into them once;
    only that case imports ``scipy.sparse``.  The ``a`` property is a scipy ``csr_matrix`` over the
    stored arrays, built on first read, for readers outside the solvers.
    """

    def __init__(self, c, a, senses, b, lower, upper):
        self.b = np.asarray(b, dtype=float)
        self.senses = senses
        m, n = self.shape = (len(self.b), len(c))
        self._set_columns(c, lower, upper)
        if not isinstance(a, Csr):
            import scipy.sparse as sp

            a = sp.csr_matrix(a)
            if a.shape[1] != n:
                raise ValueError("column size mismatch")
            a = Csr(a.data, a.indices, a.indptr)
        self.data = np.asarray(a.data, dtype=float)
        self.indices, self.indptr = np.asarray(a.indices), np.asarray(a.indptr)
        if len(self.indptr) != m + 1 or len(self.senses) != m:
            raise ValueError("row size mismatch")
        if (self.indptr[0] != 0 or np.any(np.diff(self.indptr) < 0)
                or not self.indptr[-1] == len(self.data) == len(self.indices)
                or np.any(self.indices < 0) or np.any(self.indices >= n)):
            raise ValueError("malformed CSR arrays")
        if not set(self.senses) <= {LE, EQ, GE}:
            unknown = next(s for s in self.senses if s not in (LE, EQ, GE))
            raise ValueError(f"unknown sense {unknown!r}")
        self._a = None
        # the row form ``solve_lp_scipy`` builds on first use, in a slot shared
        # with every problem derived by ``with_columns``
        self._rows = [None]

    def _set_columns(self, c, lower, upper):
        self.c, self.lower, self.upper = (np.asarray(v, dtype=float) for v in (c, lower, upper))
        if not len(self.c) == len(self.lower) == len(self.upper) == self.shape[1]:
            raise ValueError("column size mismatch")
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound above upper bound")

    @property
    def a(self):
        """A as a scipy ``csr_matrix`` over the stored arrays."""
        if self._a is None:
            import scipy.sparse as sp

            self._a = sp.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)
        return self._a

    def with_columns(self, c, lower, upper) -> LpProblem:
        """The same rows with new costs and column bounds.  The result
        shares this problem's arrays and row form, so HiGHS's copy of the
        rows is built once between them; neither problem's rows may change
        afterwards."""
        derived = copy.copy(self)
        derived._set_columns(c, lower, upper)
        return derived


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
    m, n = problem.shape
    a = np.zeros((m, n))
    # summed in place entry by entry, so duplicate entries add up as in
    # scipy's ``toarray``
    np.add.at(a, (np.repeat(np.arange(m), np.diff(problem.indptr)), problem.indices),
              problem.data)
    b = problem.b.copy()
    # Row equilibration: big-M rows otherwise swamp the absolute
    # feasibility tolerances.  Pure row scaling leaves solutions intact.
    scale = np.abs(a).max(axis=1, initial=0.0)
    scale[scale <= 0.0] = 1.0
    a = a / scale[:, None]
    b = b / scale
    lower = problem.lower
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
    lower bound on every column, and a finite ``c``, A and ``b``; anything
    else raises ``ValueError``.
    """
    _check_finite(problem)
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


_HIGHS = "scipy.optimize._highspy._core"


def _highs():
    """scipy's compiled HiGHS binding ``scipy.optimize._highspy._core``,
    loaded from its extension file alone.

    Importing it by name runs the whole ``scipy.optimize`` package first,
    about 0.2 s and 25 MB of peak memory for a module that is one file.
    So the file ``<scipy>/optimize/_highspy/_core<suffix>`` is loaded
    directly, with ``<scipy>`` found by ``find_spec`` without running any
    scipy module, the first of ``EXTENSION_SUFFIXES`` that exists, and
    registered in ``sys.modules`` under its full name before it runs, so a
    later ``import scipy.optimize`` finds and reuses this very module
    instead of loading the file again.  A module already in ``sys.modules``
    is returned as it is.  No scipy, or a scipy without the file, raises
    ``ImportError``, naming the path in the second case.
    """
    module = sys.modules.get(_HIGHS)
    if module is not None:
        return module
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("No module named 'scipy'", name="scipy")
    stem = os.path.join(scipy.submodule_search_locations[0], "optimize", "_highspy", "_core")
    suffixes = importlib.machinery.EXTENSION_SUFFIXES
    path = next((stem + s for s in suffixes if os.path.exists(stem + s)), None)
    if path is None:
        raise ImportError(f"scipy's HiGHS binding is missing: no file "
                          f"{stem + suffixes[0]}", name=_HIGHS, path=stem + suffixes[0])
    loader = importlib.machinery.ExtensionFileLoader(_HIGHS, path)
    spec = importlib.util.spec_from_file_location(_HIGHS, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_HIGHS] = module
    try:
        loader.exec_module(module)
    except BaseException:
        del sys.modules[_HIGHS]
        raise
    return module


class _RowForm:
    """An LP's rows as HiGHS reads them, loaded into one ``HighsLp``.

    The row layout is ``linprog``'s: the LE rows, then the GE rows negated,
    then the EQ rows, as compressed rows (``passModel`` transposes them into
    the columns ``linprog`` hands HiGHS), with row bounds (-inf, b) on the
    first ``n_ub`` rows and (b, b) on the rest.  It depends only on a
    problem's rows, so every problem ``with_columns`` derives shares it;
    ``solve_lp_scipy`` writes the column arrays before each solve.  The
    ``HighsLp`` comes from the binding ``_highs`` loads, without the
    ``scipy.optimize`` package.
    """

    def __init__(self, problem: LpProblem):
        _core = _highs()
        senses = np.array(problem.senses)
        le = np.flatnonzero(senses == LE)
        ge = np.flatnonzero(senses == GE)
        eq = np.flatnonzero(senses == EQ)
        self.n_ub = n_ub = le.size + ge.size
        # the chosen rows' entries, gathered by their indptr ranges
        order = np.concatenate((le, ge, eq))
        lengths = np.diff(problem.indptr)[order]
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        take = np.arange(indptr[-1]) + np.repeat(problem.indptr[order] - indptr[:-1], lengths)
        data = problem.data[take]
        ge_data = data[indptr[le.size]:indptr[n_ub]]
        np.negative(ge_data, out=ge_data)
        self.rhs = np.concatenate((problem.b[le], -problem.b[ge], problem.b[eq]))
        m, n = problem.shape
        self.lp = lp = _core.HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = n
        lp.num_row_ = lp.a_matrix_.num_row_ = m
        lp.a_matrix_.format_ = _core.MatrixFormat.kRowwise
        # the binding copies a list into these vectors faster than an array
        lp.a_matrix_.start_ = indptr.tolist()
        lp.a_matrix_.index_ = problem.indices[take].tolist()
        lp.a_matrix_.value_ = data.tolist()
        lp.row_lower_ = np.concatenate((np.full(n_ub, -np.inf), self.rhs[n_ub:])).tolist()
        lp.row_upper_ = self.rhs.tolist()


def _check_finite(problem: LpProblem):
    """Raise ``ValueError`` naming ``c``, ``a`` or ``b`` if it holds an inf
    or a NaN, as ``linprog`` does."""
    for name, values in (("c", problem.c), ("a", problem.data), ("b", problem.b)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must not contain values inf or nan")


# linprog's acceptance tolerance on an optimal point: 10 * sqrt(its tol 1e-9)
_CHECK_TOL = 10 * np.sqrt(1e-9)


def _passes_check(form: _RowForm, x, objective, row_value, lower, upper) -> bool:
    """``linprog``'s check of a point HiGHS calls optimal: nothing is NaN,
    and every column bound, LE/GE row and EQ row holds to ``_CHECK_TOL``.
    ``row_value`` is A x in ``form``'s row order."""
    residual = form.rhs - row_value
    if np.isnan(x).any() or np.isnan(objective) or np.isnan(residual).any():
        return False
    tol = _CHECK_TOL
    return bool(np.all((x >= lower - tol) & (x <= upper + tol))
                and not (residual[:form.n_ub] < -tol).any()
                and not (np.abs(residual[form.n_ub:]) > tol).any())


def solve_lp_scipy(problem: LpProblem, time_limit: float | None = None) -> LpSolution:
    """Same contract as ``solve_lp`` but solved by the HiGHS bundled with
    scipy, through its binding ``scipy.optimize._highspy._core``.

    HiGHS gets exactly the model and options ``linprog(method="highs",
    options={"presolve": True})`` hands it: the rows of ``_RowForm``, a NaN
    column bound read as no bound, presolve on, the dual simplex, no output,
    and ``time_limit`` only when one is given.  ``linprog`` itself is
    bypassed because its wrapper spends milliseconds a call in Python on
    results this function never reads (per-column bound duals).  What it
    checks is kept: a non-finite value in ``c``, ``a`` or ``b`` raises
    ``ValueError``, and an optimum that fails ``_passes_check`` reads
    ``iteration-limit``.  Each call solves cold in a fresh ``Highs``.  The
    binding is the extension file ``_highs`` loads alone: no call imports
    the ``scipy.optimize`` package.
    """
    _core = _highs()
    _check_finite(problem)
    if problem._rows[0] is None:
        problem._rows[0] = _RowForm(problem)
    form = problem._rows[0]
    # linprog reads a NaN bound as no bound
    lower = np.where(np.isnan(problem.lower), -np.inf, problem.lower)
    upper = np.where(np.isnan(problem.upper), np.inf, problem.upper)
    form.lp.col_cost_ = problem.c
    form.lp.col_lower_ = lower.tolist()
    form.lp.col_upper_ = upper.tolist()

    options = _core.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = int(_core.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
    options.highs_debug_level = int(_core.HighsDebugLevel.kHighsDebugLevelNone)
    options.output_flag = options.log_to_console = False
    if time_limit is not None:
        options.time_limit = float(time_limit)
    highs = _core._Highs()
    status = _core.HighsModelStatus
    if highs.passOptions(options) == _core.HighsStatus.kError:
        return LpSolution(ITERATION_LIMIT)
    if highs.passModel(form.lp) == _core.HighsStatus.kError:
        return LpSolution(INFEASIBLE)
    run_failed = highs.run() == _core.HighsStatus.kError
    model_status = highs.getModelStatus()
    iterations = 0
    if not run_failed:  # linprog reads no solution or count from a failed run
        info = highs.getInfo()
        iterations = int(info.simplex_iteration_count or info.ipm_iteration_count)
        if model_status == status.kOptimal:
            solution = highs.getSolution()
            x = np.array(solution.col_value)
            objective = info.objective_function_value
            if _passes_check(form, x, objective, np.array(solution.row_value),
                             lower, upper):
                return LpSolution(OPTIMAL, x=x, objective=float(objective),
                                  iterations=iterations)
            return LpSolution(ITERATION_LIMIT, iterations=iterations)
    mapped = {status.kTimeLimit: TIME_LIMIT, status.kInfeasible: INFEASIBLE,
              status.kModelError: INFEASIBLE, status.kUnbounded: UNBOUNDED}
    return LpSolution(mapped.get(model_status, ITERATION_LIMIT), iterations=iterations)
