"""Deterministic fluid intensity model and the receding-horizon controller.

The stochastic grid dynamics are smoothed into a linear system over a
continuous per-cell fire intensity.  Intensity follows a one-step recursion
lower bound, cumulative intensity is charged against a calibrated fuel
budget, and indicator variables switch cells off once their fuel crosses a
small threshold.  Assignments y(t, x), the number of the identical teams on
cell x in period t, enter the recursion as big-M relief terms.  The
controller re-solves the model from the current state at every decision
epoch (with y relaxed to [0, teams]), scores each cell by its time-zero
assignment y(0, x), and sends the real teams to the top-scoring burning cells.

Objective sign: the model minimizes sum_t sum_x (-R(x)) * I_t(x), the
intensity weighted by the positive importance of each cell.  Feeding the raw
nonpositive rewards through unchanged would pay the optimizer to inflate
intensity, detaching the solution from the dynamics (the zero-team
trajectory would no longer track the forward recursion), so the magnitudes
are used.

The model's layout, four column blocks I, F, Z and y of (T+1) x n
columns each and six row blocks, is declared once, in ``_pattern``; its
``columns`` map is how every reader finds a variable.

Known pathology (kept, by design): the indicator that vacates the intensity
recursion acts with a one-step lag, so a state containing burning cells with
almost no fuel left can make the model infeasible regardless of the
assignments.  The controller reports this and plays the fallback policy it
was given for that epoch (the scenario's distance-weighted heuristic) rather
than patching the formulation.
"""

from __future__ import annotations

import functools
import time
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# Unused here: the benchmark's tracer still wraps these three names on this
# module, and tests/test_bench_contract.py checks that they resolve.
from .heuristics import all_pairs_distances, fw_policy, fw_weights  # noqa: F401
from .lp import EQ, GE, LE, OPTIMAL, TIME_LIMIT, LpProblem, solve_lp, solve_lp_scipy
from .mdp import Action, FireState, RewardModel, SpreadModel, idle_action
from .milp import branch_and_bound

IBAR_CAP = 1e12
TIE_BREAK = 1e-6  # times max|c|: the cost that orders equal LP optima


@dataclass(frozen=True)
class Calibration:
    """Fluid-model constants derived from the MDP parameters.

    ``spread`` is the MDP's own spread model: its in-edges carry the
    transmission rates P(x, y) and its ``q`` the suppression rates Q(x),
    shared by all teams and periods.  ``ibar[t, x]`` is the
    no-intervention, infinite-fuel intensity upper bound obtained by
    iterating the recursion with all transmission rates at 1, and ``f0`` is
    the fluid fuel budget: delta plus the ibar sum over the first
    min(horizon, fuel(x)) periods.
    """

    horizon: int
    delta: float
    spread: SpreadModel
    ibar: np.ndarray
    f0: np.ndarray


def _in_edge_sums(spread: SpreadModel, values: np.ndarray) -> np.ndarray:
    """Per cell, the sum of the finite, non-negative ``values`` over its
    in-edge sources, added one slot of the spread's table at a time, so in
    in-edge order as a per-cell loop adds them.  A padding slot adds
    ``values[0] * 0.0 = 0.0``, which leaves such a sum unchanged."""
    acc = np.zeros(len(values))
    for source, edge in zip(spread.slot_source, spread.slot_rate > 0.0):
        acc += values[source] * edge
    return acc


def calibrate(
    spread: SpreadModel,
    state: FireState,
    horizon: int,
    delta: float = 0.1,
) -> Calibration:
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if delta <= 0:
        raise ValueError("delta must be positive")
    n = spread.spec.n_cells
    ibar = np.zeros((horizon + 1, n))
    ibar[0] = state.burning
    for t in range(1, horizon + 1):
        prev = ibar[t - 1]
        ibar[t] = np.minimum(prev + _in_edge_sums(spread, prev), IBAR_CAP)
    if ibar.max(initial=0.0) >= IBAR_CAP:
        warnings.warn(
            "intensity upper bounds hit the big-M cap; horizon or degree too large",
            RuntimeWarning,
            stacklevel=2,
        )
    cumulative = np.cumsum(ibar, axis=0)
    fuel = np.minimum(state.fuel, horizon)
    f0 = delta + cumulative[fuel, np.arange(n)]
    return Calibration(horizon=horizon, delta=delta, spread=spread, ibar=ibar, f0=f0)


@dataclass
class FluidModel:
    """LP/MILP encoding of the fluid dynamics for one planning epoch.

    ``columns`` maps each variable block, "I" (intensity), "F" (fuel), "Z"
    (indicators) and "y" (assignments), to its read-only (T+1, n) array of
    column indices: ``x[columns["F"]]`` is a solution's fuel trajectory.
    """

    problem: LpProblem
    integer_mask: np.ndarray
    columns: dict
    teams: int
    calibration: Calibration
    state: FireState

    def z_indices(self) -> np.ndarray:
        """The indicator columns Z(t, x), t-major."""
        return self.columns["Z"].ravel()


@dataclass(frozen=True)
class _Pattern:
    """The fluid model's layout without its state-dependent values.

    ``columns`` holds the column blocks that ``FluidModel.columns`` names
    and ``shape`` the matrix's (rows, columns).  ``indices`` holds the
    column of every entry that may be nonzero, sorted within each row, and
    ``indptr`` the row starts.  Entry j's value is ``table[take[j]]`` and
    row i's right-hand side ``table[rhs[i]]``, where a state's value table
    starts with ``constants`` (0, 1, -1, then -P(x, y) per in-edge) and
    continues with the relief ibar[t, x] Q(x) for t = 1..T, big-M, f0,
    f0 - delta, delta and the team count.
    """

    columns: dict
    shape: tuple
    indptr: np.ndarray
    indices: np.ndarray
    take: np.ndarray
    rhs: np.ndarray
    constants: np.ndarray
    senses: tuple


@functools.lru_cache(maxsize=16)
def _pattern(spread: SpreadModel, horizon: int) -> _Pattern:
    """The part of ``build_model``'s model that no state or team count
    changes: four column blocks, I(t, x), F(t, x), Z(t, x), then y(t, x),
    each t-major, and six row blocks, numbered in the order they are
    declared below, each with its sense and right-hand side.

    Cached by the spread model's identity.  Its in-edges come from the
    transposed slot table, cell-major and in in-edge order within a cell.
    """
    n = spread.spec.n_cells
    periods = horizon + 1
    size = periods * n
    i, f, z, y = (k * size + np.arange(size).reshape(periods, n) for k in range(4))
    for block in (i, f, z, y):
        block.setflags(write=False)
    rate = spread.slot_rate.T
    edge = rate > 0.0
    edge_cell = np.nonzero(edge)[0]
    edge_source = spread.slot_source.T[edge]
    constants = np.concatenate(([0.0, 1.0, -1.0], -rate[edge]))
    zero, one, minus_one, p_at = 0, 1, 2, 3
    # where the per-state values start in the value table
    relief_at, big_m_at, f0_at, f0_less_delta_at, delta_at, teams_at = (
        len(constants) + np.cumsum([0, horizon * n, n, n, n, 1]))
    cell = np.arange(n)

    entries = []  # (rows, columns, value-table slots), broadcast to one shape
    senses, rhs = [], []

    def row_block(shape, sense, rhs_at):
        """The next block of rows, with its sense and right-hand-side slots."""
        block = len(senses) + np.arange(np.prod(shape)).reshape(shape)
        senses.extend([sense] * block.size)
        rhs.append(np.broadcast_to(rhs_at, shape).ravel())
        return block

    def add(rows, cols, take):
        rows, cols, take = np.broadcast_arrays(rows, cols, take)
        entries.append((rows.ravel(), cols.ravel(), take.ravel()))

    # intensity recursion, t = 1..T:
    # I(t) - I(t-1) - sum_y P I(t-1, y) + relief y(t-1) + big-M Z(t-1) >= 0
    dyn = row_block((horizon, n), GE, zero)
    add(dyn, i[1:], one)
    add(dyn, i[:-1], minus_one)
    add(dyn[:, edge_cell], i[:-1, edge_source], p_at + np.arange(len(edge_cell)))
    add(dyn, y[:-1], relief_at + np.arange(horizon * n).reshape(horizon, n))
    add(dyn, z[:-1], big_m_at + cell)
    # cumulative fuel: F(t, x) + sum_{t' < t} I(t', x) = f0
    fuel = row_block((periods, n), EQ, f0_at + cell)
    add(fuel, f, one)
    later, earlier = np.tril_indices(periods, -1)
    add(fuel[later], i[earlier], one)
    # forcing pair F + delta Z >= delta and F + (f0 - delta) Z <= f0
    force_lo = row_block((periods, n), GE, delta_at)
    add(force_lo, f, one)
    add(force_lo, z, delta_at)
    force_hi = row_block((periods, n), LE, f0_at + cell)
    add(force_hi, f, one)
    add(force_hi, z, f0_less_delta_at + cell)
    # cutoff I(t+1, x) + f0 Z(t, x) <= f0, t = 0..T-1
    cutoff = row_block((horizon, n), LE, f0_at + cell)
    add(cutoff, i[1:], one)
    add(cutoff, z[:-1], f0_at + cell)
    # at most ``teams`` assignments per period: sum_x y(t, x) <= teams
    assign = row_block((periods, 1), LE, teams_at)
    add(assign, y, one)

    rows, cols, take = (np.concatenate(p) for p in zip(*entries))
    order = np.lexsort((cols, rows))
    n_rows = len(senses)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    return _Pattern(columns={"I": i, "F": f, "Z": z, "y": y}, shape=(n_rows, 4 * size),
                    indptr=indptr, indices=cols[order].astype(np.int32),
                    take=take[order], rhs=np.concatenate(rhs), constants=constants,
                    senses=tuple(senses))


def build_model(
    calibration: Calibration,
    state: FireState,
    rewards: RewardModel,
    teams: int,
) -> FluidModel:
    """Assemble the intensity model: recursion lower bounds, the cumulative
    fuel equation, the fuel/indicator forcing pair, the low-fuel intensity
    cutoff, and one row sum_x y(t, x) <= teams per period.  Time-zero
    intensity is fixed from the burning map.  Summing the identical teams
    into 0 <= y <= teams is exact: any such y splits into one assignment per
    team that sums to at most one over the cells.

    The layout (column and row blocks, the sparsity pattern, the constant
    coefficients 1, -1 and -P(x, y), and the senses) depends only on the
    spread model and the horizon; ``_pattern`` builds it once per such pair.
    Each call fills the value table with the state's relief ibar[t, x] Q(x),
    big-M, f0, f0 - delta, delta and the team count, reads the coefficients
    and right-hand sides from it, leaving out every coefficient that comes
    out zero, and sets costs, bounds and integrality per column block.
    """
    n = len(state.burning)
    spread = calibration.spread
    if len(calibration.f0) != n or spread.spec.n_cells != n:
        raise ValueError("calibration grid size mismatch")
    delta, f0, ibar = calibration.delta, calibration.f0, calibration.ibar
    pattern = _pattern(spread, calibration.horizon)
    big_m = f0 + _in_edge_sums(spread, f0)
    table = np.concatenate((pattern.constants,
                            (ibar[1:] * np.asarray(spread.q)).ravel(),
                            big_m, f0, f0 - delta, [delta, teams]))
    data = table[pattern.take]
    keep = data != 0.0
    kept_before = np.concatenate(([0], np.cumsum(keep)))
    a = sp.csr_matrix((data[keep], pattern.indices[keep], kept_before[pattern.indptr]),
                      shape=pattern.shape)

    cols = pattern.columns
    n_vars = pattern.shape[1]
    c = np.zeros(n_vars)
    c[cols["I"]] = -np.asarray(rewards.values)
    # I(0) is the burning map; Z is binary and y integer
    lower = np.zeros(n_vars)
    upper = np.full(n_vars, np.inf)
    lower[cols["I"][0]] = upper[cols["I"][0]] = state.burning
    upper[cols["Z"]] = 1.0
    upper[cols["y"]] = float(teams)
    mask = np.zeros(n_vars, dtype=bool)
    mask[cols["Z"]] = mask[cols["y"]] = True
    return FluidModel(
        problem=LpProblem(c, a, pattern.senses, table[pattern.rhs], lower, upper),
        integer_mask=mask, columns=dict(cols), teams=teams, calibration=calibration,
        state=state)


def relax_and_score(
    model: FluidModel,
    time_limit: float | None = None,
    backend: str = "highs",
    bnb_binary_cap: int = 64,
    node_limit: int | None = None,
):
    """Solve the model with assignments relaxed and rank cells by v(x).

    Returns ``(action, info)``; ``action`` is None when the relaxation (or
    the rounded re-solve) is infeasible, leaving the fallback decision to the
    caller.  Indicator variables stay binary when few enough to branch on
    within the budget; otherwise they are relaxed, rounded by thresholding
    the solved fuel at delta, fixed, and the LP re-solved once with ties
    broken; ``info["objective"]`` is the unperturbed cost.  ``backend`` is
    ``"highs"`` (every LP goes to HiGHS) or ``"bundled"`` (the dense simplex).

    ``time_limit`` is wall-clock seconds for the whole call, read as one
    deadline: each HiGHS LP gets what is left of it, branch and bound stops
    at it, and when nothing is left before the re-solve there is no action
    and the status is ``"time-limit"``.
    """
    problem, cols = model.problem, model.columns
    deadline = None if time_limit is None else time.monotonic() + time_limit

    def time_left():
        return None if deadline is None else max(deadline - time.monotonic(), 0.0)

    if backend == "bundled":
        lp_solver = solve_lp
    elif backend == "highs":
        lp_solver = lambda p: solve_lp_scipy(p, time_limit=time_left())  # noqa: E731
    else:
        raise ValueError(f"unknown backend {backend!r}: use \"highs\" or \"bundled\"")
    info = {"status": None, "objective": None, "mode": None}

    if cols["Z"].size <= bnb_binary_cap:
        info["mode"] = "branch-and-bound"
        z_mask = np.zeros(len(problem.c), dtype=bool)
        z_mask[cols["Z"]] = True
        res = branch_and_bound(
            problem, z_mask, deadline=deadline, node_limit=node_limit,
            lp_solver=lp_solver,
        )
        info["status"] = res.status
        if res.x is None:
            return None, info
        info["objective"] = res.objective
        x = res.x
    else:
        info["mode"] = "relax-round"
        sol = lp_solver(problem)
        info["status"] = sol.status
        if sol.status != OPTIMAL:
            return None, info
        if time_left() == 0.0:  # no time left for the re-solve
            info["status"] = TIME_LIMIT
            return None, info
        bits = np.where(sol.x[cols["F"]] <= model.calibration.delta + 1e-9, 1.0, 0.0)
        lower = problem.lower.copy()
        upper = problem.upper.copy()
        lower[cols["Z"]] = upper[cols["Z"]] = bits
        # The LP is degenerate in y(0, x): which optimum HiGHS returns depends
        # on its path.  Prefer higher-indexed cells; the index, not the fw
        # order, keeps the model free of the heuristics.
        c, y0 = problem.c.copy(), cols["y"][0]
        c[y0] -= TIE_BREAK * np.abs(c).max() * (1.0 + np.arange(len(y0)) / len(y0))
        fixed = LpProblem(c, problem.a, problem.senses, problem.b, lower, upper)
        refit = lp_solver(fixed)
        if refit.status != OPTIMAL:
            info["status"] = f"rounded-{refit.status}"
            return None, info
        info["objective"] = float(problem.c @ refit.x)
        x = refit.x

    return _action_from_scores(model.state, x[cols["y"][0]], model.teams), info


def _action_from_scores(state: FireState, v: np.ndarray, teams: int) -> Action:
    """Map fractional scores onto an executable action.

    Only burning cells are eligible (suppression does nothing elsewhere) and
    cells with exhausted fuel are skipped for the same reason: they
    extinguish on their own this step.  One team per positive-score cell in
    descending score order; surplus teams stack on the top cell.
    """
    burning = np.flatnonzero(state.burning)
    if not burning.size:
        return idle_action(teams)
    eligible = burning[state.fuel[burning] > 0]
    if not eligible.size:
        eligible = burning
    # a stable sort of the ascending cells: equal scores keep the lower cell first
    eligible = eligible[np.argsort(-v[eligible], kind="stable")]
    positive = eligible[v[eligible] > 1e-9]
    ranked = (positive if positive.size else eligible[:1]).tolist()
    targets = ranked[:teams]
    while len(targets) < teams:
        targets.append(ranked[0])
    return tuple(sorted(targets))


@dataclass
class MoConfig:
    """Receding-horizon controller settings (defaults follow the benchmark).

    Each is a scenario file's ``mo`` key; a value outside its range raises
    ``ValueError`` naming the key.

    ``horizon``: integer >= 1; 10.  The model's periods T after time zero.
    ``time_limit``: finite number > 0 or null; 60.  Wall-clock seconds for
        one decision's solve.  Every HiGHS LP gets what is left of it, branch
        and bound stops when it is spent, and relax-round with nothing left
        before its re-solve gives no action (status ``"time-limit"``), so the
        policy plays its fallback.  Null: no limit.
    ``delta``: finite number > 0; 0.1.  The fuel level at which a cell's
        indicator switches it off, also added to each fuel budget f0.
    ``backend``: "highs" or "bundled"; "highs".  Solve every LP with HiGHS,
        through ``scipy.optimize``, or with the dense simplex in ``lp.py``.
    ``bnb_binary_cap``: integer >= 0; 64.  Branch and bound keeps the
        indicators binary when there are at most this many; above it,
        relax-round.
    ``node_limit``: integer >= 1 or null; null.  Branch-and-bound nodes per
        decision.
    """

    horizon: int = 10
    time_limit: float | None = 60.0
    delta: float = 0.1
    backend: str = "highs"
    bnb_binary_cap: int = 64
    node_limit: int | None = None

    def __post_init__(self):
        # written ``not <in range>`` so that a NaN fails too
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.time_limit is not None and not 0.0 < self.time_limit < np.inf:
            raise ValueError("time_limit must be a finite number > 0 or null")
        if not 0.0 < self.delta < np.inf:
            raise ValueError("delta must be a finite number > 0")
        if self.backend not in ("highs", "bundled"):
            raise ValueError(f"unknown backend {self.backend!r}: "
                             "use \"highs\" or \"bundled\"")
        if self.bnb_binary_cap < 0:
            raise ValueError("bnb_binary_cap must be >= 0")
        if self.node_limit is not None and self.node_limit < 1:
            raise ValueError("node_limit must be >= 1 or null")


class MoPolicy:
    """Re-optimizing controller: calibrate, build, solve, take the first move.

    Plays ``fallback``, a policy ``(state, rng) -> action``, whenever the
    model comes back infeasible, counting those epochs in ``fallbacks``.
    ``last`` holds the latest solve's ``mode``, ``status`` and ``objective``
    from ``relax_and_score``, and whether the decision fell back.
    """

    def __init__(self, spread: SpreadModel, rewards: RewardModel, teams: int,
                 config: MoConfig, fallback):
        self.spread = spread
        self.rewards = rewards
        self.teams = teams
        self.config = config
        self.fallback = fallback
        if config.backend == "highs":
            # HiGHS comes with scipy.optimize, whose import takes about 0.2 s:
            # pay it here, not inside the first decision.
            import scipy.optimize  # noqa: F401
        self.reset()

    def reset(self):
        self.fallbacks = 0
        self.last = {}

    def fluid_model(self, state: FireState) -> FluidModel:
        """The model solved from ``state``, at the config's horizon and delta."""
        cfg = self.config
        calibration = calibrate(self.spread, state, cfg.horizon, delta=cfg.delta)
        return build_model(calibration, state, self.rewards, self.teams)

    def __call__(self, state: FireState, rng=None) -> Action:
        if not state.burning.any():
            return idle_action(self.teams)
        cfg = self.config
        action, info = relax_and_score(
            self.fluid_model(state), time_limit=cfg.time_limit, backend=cfg.backend,
            bnb_binary_cap=cfg.bnb_binary_cap, node_limit=cfg.node_limit)
        self.last = {"mode": info.get("mode"), "status": info.get("status"),
                     "objective": info.get("objective"), "fallback": action is None}
        if action is None:
            self.fallbacks += 1
            return self.fallback(state, rng)
        return action
