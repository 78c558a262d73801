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

Known pathology (kept, by design): the indicator that vacates the intensity
recursion acts with a one-step lag, so a state containing burning cells with
almost no fuel left can make the model infeasible regardless of the
assignments.  The controller reports this and plays the fallback policy it
was given for that epoch (the scenario's distance-weighted heuristic) rather
than patching the formulation.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# Unused here: the benchmark's tracer still wraps these three names on this
# module, and tests/test_bench_contract.py checks that they resolve.
from .heuristics import all_pairs_distances, fw_policy, fw_weights  # noqa: F401
from .lp import EQ, GE, LE, OPTIMAL, LpProblem, solve_lp, solve_lp_scipy
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
    ibar[0] = np.asarray(state.burning, dtype=float)
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
    fuel = np.minimum(np.asarray(state.fuel, dtype=np.int64), horizon)
    f0 = delta + cumulative[fuel, np.arange(n)]
    return Calibration(horizon=horizon, delta=delta, spread=spread, ibar=ibar, f0=f0)


@dataclass
class FluidModel:
    """LP/MILP encoding of the fluid dynamics for one planning epoch."""

    problem: LpProblem
    integer_mask: np.ndarray
    horizon: int
    n_cells: int
    teams: int
    calibration: Calibration
    state: FireState

    def z_index(self, t: int, x: int) -> int:
        return 2 * (self.horizon + 1) * self.n_cells + t * self.n_cells + x

    def y_index(self, t: int, x: int) -> int:
        return 3 * (self.horizon + 1) * self.n_cells + t * self.n_cells + x

    @property
    def n_vars(self) -> int:
        return 4 * (self.horizon + 1) * self.n_cells

    def z_indices(self) -> range:
        lo = self.z_index(0, 0)
        return range(lo, lo + (self.horizon + 1) * self.n_cells)

    def intensity(self, x: np.ndarray) -> np.ndarray:
        """Reshape a solution vector into the (T+1, n) intensity trajectory."""
        size = (self.horizon + 1) * self.n_cells
        return np.asarray(x[:size]).reshape(self.horizon + 1, self.n_cells)

    def fuel_values(self, x: np.ndarray) -> np.ndarray:
        size = (self.horizon + 1) * self.n_cells
        return np.asarray(x[size:2 * size]).reshape(self.horizon + 1, self.n_cells)

    def scores(self, x: np.ndarray) -> np.ndarray:
        """Per-cell time-zero assignment mass v(x) = y(0, x)."""
        start = self.y_index(0, 0)
        return np.asarray(x[start:start + self.n_cells])


@dataclass(frozen=True)
class _Pattern:
    """The fluid model's constraint matrix without its state-dependent values.

    ``indices`` holds the column of every entry that may be nonzero, sorted
    within each row, and ``indptr`` the row starts.  Entry j's value is
    ``table[take[j]]``, where a state's value table starts with
    ``constants`` (1, -1, then -P(x, y) per in-edge) and continues with the
    relief ibar[t, x] Q(x) for t = 1..T, big-M, f0, f0 - delta and delta.
    """

    indptr: np.ndarray
    indices: np.ndarray
    take: np.ndarray
    constants: np.ndarray
    senses: tuple


@functools.lru_cache(maxsize=16)
def _pattern(spread: SpreadModel, horizon: int) -> _Pattern:
    """The part of ``build_model``'s matrix that no state or team count
    changes: columns I(t, x), F(t, x), Z(t, x), then y(t, x), each t-major.

    Cached by the spread model's identity.  Its in-edges come from the
    transposed slot table, cell-major and in in-edge order within a cell.
    """
    n = spread.spec.n_cells
    steps = horizon * n  # cells x periods 1..T (or 0..T-1)
    size = (horizon + 1) * n  # cells x periods 0..T
    i_col, f_col, z_col, y_col = 0, size, 2 * size, 3 * size
    rate = spread.slot_rate.T
    edge = rate > 0.0
    edge_cell = np.nonzero(edge)[0]
    edge_source = spread.slot_source.T[edge]
    n_edges = len(edge_cell)
    # where the per-state values start in the value table
    relief_at = 2 + n_edges
    big_m_at = relief_at + steps
    f0_at = big_m_at + n
    f0_less_delta_at = f0_at + n
    delta_at = f0_less_delta_at + n

    parts = []  # (rows, columns, value-table slots), broadcast to one shape

    def add(rows, cols, take):
        rows, cols, take = np.broadcast_arrays(rows, cols, take)
        parts.append((rows.ravel(), cols.ravel(), take.ravel()))

    # intensity recursion, t = 1..T: row (t-1) n + x
    dyn = np.arange(steps).reshape(horizon, n)
    cell = np.arange(n)
    add(dyn, i_col + n + dyn, 0)
    add(dyn, i_col + dyn, 1)
    before = np.arange(horizon)[:, None] * n
    add(dyn[:, edge_cell], i_col + before + edge_source, 2 + np.arange(n_edges))
    add(dyn, y_col + dyn, relief_at + dyn)
    add(dyn, z_col + dyn, big_m_at + cell)
    # cumulative fuel: F(t, x) + sum_{t' < t} I(t', x) = f0
    fuel = steps + np.arange(size)
    add(fuel, f_col + np.arange(size), 0)
    later, earlier = np.tril_indices(horizon + 1, -1)
    add(steps + later[:, None] * n + cell, i_col + earlier[:, None] * n + cell, 0)
    # forcing pair F + delta Z >= delta and F + (f0 - delta) Z <= f0
    for row0, z_coef in ((steps + size, delta_at),
                         (steps + 2 * size, f0_less_delta_at + cell)):
        force = (row0 + np.arange(size)).reshape(horizon + 1, n)
        add(force, f_col + force - row0, 0)
        add(force, z_col + force - row0, z_coef)
    # cutoff I(t+1, x) + f0 Z(t, x) <= f0, t = 0..T-1
    cutoff = (steps + 3 * size + np.arange(steps)).reshape(horizon, n)
    add(cutoff, i_col + n + cutoff - cutoff[0, 0], 0)
    add(cutoff, z_col + cutoff - cutoff[0, 0], f0_at + cell)
    # at most ``teams`` assignments per period: row t, columns y(t, x)
    assign0 = 2 * steps + 3 * size
    t = np.arange(horizon + 1)[:, None]
    add(assign0 + t, y_col + t * n + cell, 0)

    rows, cols, take = (np.concatenate(p) for p in zip(*parts))
    order = np.lexsort((cols, rows))
    n_rows = assign0 + horizon + 1
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    senses = (GE,) * steps + (EQ,) * size + (GE,) * size + (LE,) * (size + steps + horizon + 1)
    constants = np.concatenate(([1.0, -1.0], -rate[edge]))
    return _Pattern(indptr=indptr, indices=cols[order].astype(np.int32), take=take[order],
                    constants=constants, senses=senses)


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

    The sparsity pattern, the constant coefficients (1, -1 and -P(x, y))
    and the senses depend only on the spread model and the horizon; they
    are built once per such pair and cached in the module.
    Each call fills in the state's values: the relief ibar[t, x] Q(x),
    big-M, f0, f0 - delta and delta, the right-hand sides, the time-zero
    intensity bounds and the assignment bounds, and leaves out every
    coefficient that comes out zero.
    """
    horizon = calibration.horizon
    n = len(state.burning)
    spread = calibration.spread
    if len(calibration.f0) != n or spread.spec.n_cells != n:
        raise ValueError("calibration grid size mismatch")
    delta = calibration.delta
    f0 = calibration.f0
    ibar = calibration.ibar
    pattern = _pattern(spread, horizon)
    big_m = f0 + _in_edge_sums(spread, f0)
    table = np.concatenate((pattern.constants,
                            (ibar[1:] * np.asarray(spread.q)).ravel(),
                            big_m, f0, f0 - delta, [delta]))
    data = table[pattern.take]
    keep = data != 0.0
    kept_before = np.concatenate(([0], np.cumsum(keep)))
    n_rows = len(pattern.senses)
    size = (horizon + 1) * n
    n_vars = 4 * size
    a = sp.csr_matrix((data[keep], pattern.indices[keep], kept_before[pattern.indptr]),
                      shape=(n_rows, n_vars))

    b = np.concatenate((np.zeros(horizon * n),  # recursion
                        np.tile(f0, horizon + 1),  # fuel
                        np.full(size, float(delta)),  # force_lo
                        np.tile(f0, 2 * horizon + 1),  # force_hi, cutoff
                        np.full(horizon + 1, float(teams))))  # assign
    c = np.zeros(n_vars)
    c[:size] = np.tile(-np.asarray(rewards.values), horizon + 1)
    # I_0 is the burning map; the binaries z, then the integers y, run last
    lower = np.zeros(n_vars)
    upper = np.full(n_vars, np.inf)
    lower[:n] = upper[:n] = np.asarray(state.burning, dtype=float)
    upper[2 * size:3 * size] = 1.0
    upper[3 * size:] = float(teams)
    mask = np.zeros(n_vars, dtype=bool)
    mask[2 * size:] = True
    return FluidModel(
        problem=LpProblem(c, a, pattern.senses, b, lower, upper), integer_mask=mask,
        horizon=horizon, n_cells=n, teams=teams, calibration=calibration, state=state)


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
    """
    problem = model.problem
    if backend == "bundled":
        lp_solver = solve_lp
    elif backend == "highs":
        lp_solver = lambda p: solve_lp_scipy(p, time_limit=time_limit)  # noqa: E731
    else:
        raise ValueError(f"unknown backend {backend!r}: use \"highs\" or \"bundled\"")
    z = model.z_indices()
    info = {"status": None, "objective": None, "mode": None}

    if len(z) <= bnb_binary_cap:
        info["mode"] = "branch-and-bound"
        z_mask = np.zeros(model.n_vars, dtype=bool)
        z_mask[z.start:z.stop] = True
        res = branch_and_bound(
            problem, z_mask, time_limit=time_limit, node_limit=node_limit,
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
        # z_index(t, x) runs t-major like the (T+1, n) fuel array
        fuel = model.fuel_values(sol.x)
        bits = np.where(fuel <= model.calibration.delta + 1e-9, 1.0, 0.0).ravel()
        lower = problem.lower.copy()
        upper = problem.upper.copy()
        lower[z.start:z.stop] = bits
        upper[z.start:z.stop] = bits
        # The LP is degenerate in y(0, x): which optimum HiGHS returns depends
        # on its path.  Prefer higher-indexed cells; the index, not the fw
        # order, keeps the model free of the heuristics.
        c, y0, n = problem.c.copy(), model.y_index(0, 0), model.n_cells
        c[y0:y0 + n] -= TIE_BREAK * np.abs(c).max() * (1.0 + np.arange(n) / n)
        fixed = LpProblem(c, problem.a, problem.senses, problem.b, lower, upper)
        refit = lp_solver(fixed)
        if refit.status != OPTIMAL:
            info["status"] = f"rounded-{refit.status}"
            return None, info
        info["objective"] = float(problem.c @ refit.x)
        x = refit.x

    return _action_from_scores(model.state, model.scores(x), model.teams), info


def _action_from_scores(state: FireState, v: np.ndarray, teams: int) -> Action:
    """Map fractional scores onto an executable action.

    Only burning cells are eligible (suppression does nothing elsewhere) and
    cells with exhausted fuel are skipped for the same reason: they
    extinguish on their own this step.  One team per positive-score cell in
    descending score order; surplus teams stack on the top cell.
    """
    burning = [x for x in range(len(state.burning)) if state.burning[x]]
    if not burning:
        return idle_action(teams)
    eligible = [x for x in burning if state.fuel[x] > 0]
    if not eligible:
        eligible = burning
    eligible.sort(key=lambda x: (-v[x], x))
    positive = [x for x in eligible if v[x] > 1e-9]
    ranked = positive if positive else eligible[:1]
    targets = list(ranked[:teams])
    while len(targets) < teams:
        targets.append(ranked[0])
    return tuple(sorted(targets))


@dataclass
class MoConfig:
    """Receding-horizon controller settings (defaults follow the benchmark).

    ``backend``: ``"highs"`` solves every LP with HiGHS, through
    ``scipy.optimize``; ``"bundled"`` uses the dense simplex in ``lp.py``.
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
        if 1 not in state.burning:
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
