"""Deterministic fluid intensity model and the receding-horizon controller.

The stochastic grid dynamics are smoothed into a linear system over a
continuous per-cell fire intensity.  Intensity follows a one-step recursion
lower bound, cumulative intensity is charged against a calibrated fuel
budget, and indicator variables switch cells off once their fuel crosses a
small threshold.  Suppression assignments enter the recursion as big-M
relief terms.  The controller re-solves the model from the current state at
every decision epoch (with team assignments relaxed to [0, 1]), scores each
cell by its time-zero assignment mass, and sends the real teams to the
top-scoring burning cells.

Objective sign: the model minimizes sum_t sum_x (-R(x)) * I_t(x), the
intensity weighted by the positive importance of each cell.  Feeding the raw
nonpositive rewards through unchanged would pay the optimizer to inflate
intensity, detaching the solution from the dynamics (the zero-team
trajectory would no longer track the forward recursion), so the magnitudes
are used.

Known pathology (kept, by design): the indicator that vacates the intensity
recursion acts with a one-step lag, so a state containing burning cells with
almost no fuel left can make the model infeasible regardless of the
assignments.  The controller reports this and falls back to the
distance-weighted heuristic for that epoch rather than patching the
formulation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .heuristics import all_pairs_distances, fw_policy, fw_weights
from .lp import EQ, GE, LE, OPTIMAL, LpProblem, solve_lp, solve_lp_scipy
from .mdp import Action, FireState, RewardModel, SpreadModel, idle_action
from .milp import branch_and_bound

IBAR_CAP = 1e12


@dataclass(frozen=True)
class Calibration:
    """Fluid-model constants derived from the MDP parameters.

    ``transmission[x]`` lists (y, rate) pairs with rate = P(x, y) for every
    in-neighbor y of x; ``suppression[x]`` is Q(x), shared by all teams and
    periods.  ``ibar[t, x]`` is the no-intervention, infinite-fuel intensity
    upper bound obtained by iterating the recursion with all transmission
    rates at 1, and ``f0`` is the fluid fuel budget: delta plus the ibar sum
    over the first min(horizon, fuel(x)) periods.
    """

    horizon: int
    delta: float
    transmission: tuple
    suppression: tuple
    ibar: np.ndarray
    f0: np.ndarray


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
        cur = prev.copy()
        for x in range(n):
            acc = 0.0
            for y, _ in spread.in_edges[x]:
                acc += prev[y]
            cur[x] += acc
        ibar[t] = np.minimum(cur, IBAR_CAP)
    if ibar.max(initial=0.0) >= IBAR_CAP:
        warnings.warn(
            "intensity upper bounds hit the big-M cap; horizon or degree too large",
            RuntimeWarning,
            stacklevel=2,
        )
    cumulative = np.cumsum(ibar, axis=0)
    fuel = np.minimum(np.asarray(state.fuel, dtype=np.int64), horizon)
    f0 = delta + cumulative[fuel, np.arange(n)]
    return Calibration(
        horizon=horizon,
        delta=delta,
        transmission=spread.in_edges,
        suppression=spread.q,
        ibar=ibar,
        f0=f0,
    )


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
    row_labels: list = field(repr=False, default_factory=list)

    def i_index(self, t: int, x: int) -> int:
        return t * self.n_cells + x

    def f_index(self, t: int, x: int) -> int:
        return (self.horizon + 1) * self.n_cells + t * self.n_cells + x

    def z_index(self, t: int, x: int) -> int:
        return 2 * (self.horizon + 1) * self.n_cells + t * self.n_cells + x

    def a_index(self, t: int, x: int, i: int) -> int:
        base = 3 * (self.horizon + 1) * self.n_cells
        return base + (t * self.n_cells + x) * self.teams + i

    @property
    def n_vars(self) -> int:
        return (self.horizon + 1) * self.n_cells * (3 + self.teams)

    def z_indices(self) -> range:
        lo = self.z_index(0, 0)
        return range(lo, lo + (self.horizon + 1) * self.n_cells)

    def a_indices(self) -> range:
        return range(3 * (self.horizon + 1) * self.n_cells, self.n_vars)

    def intensity(self, x: np.ndarray) -> np.ndarray:
        """Reshape a solution vector into the (T+1, n) intensity trajectory."""
        size = (self.horizon + 1) * self.n_cells
        return np.asarray(x[:size]).reshape(self.horizon + 1, self.n_cells)

    def fuel_values(self, x: np.ndarray) -> np.ndarray:
        size = (self.horizon + 1) * self.n_cells
        return np.asarray(x[size:2 * size]).reshape(self.horizon + 1, self.n_cells)

    def scores(self, x: np.ndarray) -> np.ndarray:
        """Per-cell time-zero assignment mass v(x) = sum_i A_0(x, i)."""
        v = np.zeros(self.n_cells)
        for cell in range(self.n_cells):
            for i in range(self.teams):
                v[cell] += x[self.a_index(0, cell, i)]
        return v


def build_model(
    calibration: Calibration,
    state: FireState,
    rewards: RewardModel,
    teams: int,
) -> FluidModel:
    """Assemble the intensity model: recursion lower bounds, the cumulative
    fuel equation, the fuel/indicator forcing pair, the low-fuel intensity
    cutoff, and one-cell-per-team rows.  Time-zero intensity is fixed from
    the burning map."""
    horizon = calibration.horizon
    n = len(state.burning)
    if len(calibration.f0) != n:
        raise ValueError("calibration grid size mismatch")
    delta = calibration.delta
    f0 = calibration.f0
    ibar = calibration.ibar
    transmission = calibration.transmission
    suppression = calibration.suppression

    shell = FluidModel(
        problem=None, integer_mask=None, horizon=horizon, n_cells=n,
        teams=teams, calibration=calibration, state=state,
    )
    n_vars = shell.n_vars
    c = np.zeros(n_vars)
    importance = -np.asarray(rewards.values)
    for t in range(horizon + 1):
        start = shell.i_index(t, 0)
        c[start:start + n] = importance

    rows, cols, vals = [], [], []
    senses, b, labels = [], [], []

    def add_row(entries, sense, rhs, label):
        i = len(b)
        for j, v in entries:
            if v != 0.0:
                rows.append(i)
                cols.append(j)
                vals.append(float(v))
        senses.append(sense)
        b.append(float(rhs))
        labels.append(label)

    # intensity recursion (one-step dynamics), t = 1..T
    for t in range(1, horizon + 1):
        for x in range(n):
            entries = [(shell.i_index(t, x), 1.0), (shell.i_index(t - 1, x), -1.0)]
            for y, rate in transmission[x]:
                entries.append((shell.i_index(t - 1, y), -rate))
            relief = ibar[t, x] * suppression[x]
            for i in range(teams):
                entries.append((shell.a_index(t - 1, x, i), relief))
            big_m = f0[x] + sum(f0[y] for y, _ in transmission[x])
            entries.append((shell.z_index(t - 1, x), big_m))
            add_row(entries, GE, 0.0, ("dyn", t, x))

    # cumulative fuel equation, t = 0..T
    for t in range(horizon + 1):
        for x in range(n):
            entries = [(shell.f_index(t, x), 1.0)]
            for tp in range(t):
                entries.append((shell.i_index(tp, x), 1.0))
            add_row(entries, EQ, f0[x], ("fuel", t, x))

    # fuel stays above delta unless the indicator is up
    for t in range(horizon + 1):
        for x in range(n):
            add_row([(shell.f_index(t, x), 1.0), (shell.z_index(t, x), delta)],
                    GE, delta, ("force_lo", t, x))

    # fuel at most delta once the indicator is up (else at most f0)
    for t in range(horizon + 1):
        for x in range(n):
            add_row([(shell.f_index(t, x), 1.0),
                     (shell.z_index(t, x), f0[x] - delta)],
                    LE, f0[x], ("force_hi", t, x))

    # exhausted fuel kills next-period intensity, t = 0..T-1
    for t in range(horizon):
        for x in range(n):
            add_row([(shell.i_index(t + 1, x), 1.0),
                     (shell.z_index(t, x), f0[x])],
                    LE, f0[x], ("cutoff", t, x))

    # each team sits on at most one cell per period
    for t in range(horizon + 1):
        for i in range(teams):
            add_row([(shell.a_index(t, x, i), 1.0) for x in range(n)],
                    LE, 1.0, ("assign", t, i))

    lower = np.zeros(n_vars)
    upper = np.full(n_vars, np.inf)
    for x in range(n):
        seed = 1.0 if state.burning[x] else 0.0
        lower[shell.i_index(0, x)] = seed
        upper[shell.i_index(0, x)] = seed
    for j in shell.z_indices():
        upper[j] = 1.0
    for j in shell.a_indices():
        upper[j] = 1.0

    a = sp.csr_matrix((vals, (rows, cols)), shape=(len(b), n_vars))
    problem = LpProblem(c, a, tuple(senses), np.array(b), lower, upper)
    mask = np.zeros(n_vars, dtype=bool)
    mask[list(shell.z_indices())] = True
    mask[list(shell.a_indices())] = True
    shell.problem = problem
    shell.integer_mask = mask
    shell.row_labels = labels
    return shell


def _pick_lp_solver(problem: LpProblem, backend: str, time_limit: float | None):
    if backend == "highs":
        return lambda p: solve_lp_scipy(p, time_limit=time_limit)
    if backend == "bundled":
        return solve_lp
    m, n = problem.shape
    if m <= 700 and n <= 1000:
        return solve_lp
    return lambda p: solve_lp_scipy(p, time_limit=time_limit)


def relax_and_score(
    model: FluidModel,
    teams: int | None = None,
    time_limit: float | None = None,
    backend: str = "auto",
    bnb_binary_cap: int = 64,
    node_limit: int | None = None,
):
    """Solve the model with assignments relaxed and rank cells by v(x).

    Returns ``(action, info)``; ``action`` is None when the relaxation (or
    the rounded re-solve) is infeasible, leaving the fallback decision to the
    caller.  Indicator variables stay binary when few enough to branch on
    within the budget; otherwise they are relaxed, rounded by thresholding
    the solved fuel at delta, fixed, and the LP re-solved once.
    """
    teams = model.teams if teams is None else teams
    problem = model.problem
    lp_solver = _pick_lp_solver(problem, backend, time_limit)
    z_list = list(model.z_indices())
    info = {"status": None, "objective": None, "mode": None}

    if len(z_list) <= bnb_binary_cap:
        info["mode"] = "branch-and-bound"
        z_mask = np.zeros(model.n_vars, dtype=bool)
        z_mask[z_list] = True
        res = branch_and_bound(
            problem, z_mask, time_limit=time_limit, node_limit=node_limit,
            tiers=[z_list], lp_solver=lp_solver,
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
        fuel = model.fuel_values(sol.x)
        lower = problem.lower.copy()
        upper = problem.upper.copy()
        delta = model.calibration.delta
        for t in range(model.horizon + 1):
            for cell in range(model.n_cells):
                j = model.z_index(t, cell)
                bit = 1.0 if fuel[t, cell] <= delta + 1e-9 else 0.0
                lower[j] = bit
                upper[j] = bit
        fixed = LpProblem(problem.c, problem.a, problem.senses, problem.b,
                          lower, upper)
        refit = lp_solver(fixed)
        if refit.status != OPTIMAL:
            info["status"] = f"rounded-{refit.status}"
            return None, info
        info["objective"] = refit.objective
        x = refit.x

    return _action_from_scores(model.state, model.scores(x), teams), info


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
    """Receding-horizon controller settings (defaults follow the benchmark)."""

    horizon: int = 10
    time_limit: float | None = 60.0
    delta: float = 0.1
    backend: str = "auto"
    bnb_binary_cap: int = 64
    node_limit: int | None = None

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValueError("time_limit must be positive or null")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.backend not in ("auto", "highs", "bundled"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.bnb_binary_cap < 0:
            raise ValueError("bnb_binary_cap must be >= 0")
        if self.node_limit is not None and self.node_limit < 1:
            raise ValueError("node_limit must be >= 1 or null")


class MoPolicy:
    """Re-optimizing controller: calibrate, build, solve, take the first move.

    Falls back to the deterministic distance-weighted heuristic whenever the
    model comes back infeasible, counting those epochs in ``fallbacks``.
    ``last`` holds the latest solve's ``mode``, ``status`` and ``objective``
    from ``relax_and_score``, and whether the decision fell back.
    """

    def __init__(
        self,
        spread: SpreadModel,
        rewards: RewardModel,
        teams: int,
        config: MoConfig | None = None,
    ):
        self.spread = spread
        self.rewards = rewards
        self.teams = teams
        self.config = config or MoConfig()
        self.weights = fw_weights(all_pairs_distances(spread), rewards)
        self.reset()

    def reset(self):
        self.fallbacks = 0
        self.last = {}

    def __call__(self, state: FireState, rng=None) -> Action:
        if 1 not in state.burning:
            return idle_action(self.teams)
        cfg = self.config
        calibration = calibrate(self.spread, state, cfg.horizon, delta=cfg.delta)
        model = build_model(calibration, state, self.rewards, self.teams)
        action, info = relax_and_score(
            model,
            time_limit=cfg.time_limit,
            backend=cfg.backend,
            bnb_binary_cap=cfg.bnb_binary_cap,
            node_limit=cfg.node_limit,
        )
        self.last = {"mode": info.get("mode"), "status": info.get("status"),
                     "objective": info.get("objective"), "fallback": action is None}
        if action is None:
            self.fallbacks += 1
            return fw_policy(state, self.weights, self.teams)
        return action
