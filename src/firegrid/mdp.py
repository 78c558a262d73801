"""Stochastic wildfire-suppression MDP on a grid.

State is a pair of per-cell vectors (burning flags, integer fuel).  One
decision epoch assigns each suppression team to a target cell; every cell
then transitions simultaneously using the pre-step state: an unburning cell
with fuel ignites with probability 1 - prod(1 - P(x,y)) over burning
neighbors y, a burning cell is extinguished with probability
1 - prod(1 - Q(x)) over the teams targeting it (or with certainty once its
fuel is exhausted).  Fuel drops by one per burning step.  The step reward
charges R(x) <= 0 for every cell burning in the pre-step state.

``Wildfire.step_arrays`` is the one kernel of the law: it maps the arrays
(burning uint8, fuel int64) and an action to the next arrays and the reward,
for all cells at once with numpy.  Each cell's survival product is formed
one in-edge slot of ``SpreadModel`` at a time, the teams on a burning cell
multiply in action order, and the reward adds R(x) over the burning cells
left to right, starting from 0.0.  ``Wildfire.step`` wraps the kernel for
tuple states: it converts the state to arrays and the result back to
tuples.  MCTS rollouts call the kernel directly and stay on arrays.  Exact
outcome distributions are enumerated only in the tests, from an independent
per-cell copy of the law, so they check this kernel rather than share it.

All step randomness comes from an explicit ``random.Random`` stream, so a
fixed seed reproduces a trajectory exactly.  The draw order is part of the
law: the kernel draws ``rng.random()`` once for every cell whose probability
of burning next lies strictly between 0 and 1, in ascending cell order, and
the cell burns when the draw is below that probability.  Cells whose
probability is 0 or 1 draw nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

IDLE = -1  # sentinel target for a team with nothing to suppress

Action = tuple  # tuple[int, ...]; one non-negative cell index (or IDLE) per team


class FireState(NamedTuple):
    """MDP state: per-cell burning flags (0/1) and integer fuel.

    Tuples of ints everywhere but inside an MCTS rollout, whose policy sees
    the kernel's arrays instead.
    """

    burning: tuple
    fuel: tuple


_OFFSETS = {
    "four": ((1, 0), (-1, 0), (0, 1), (0, -1)),
    "eight": ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)),
}


@dataclass(frozen=True)
class GridSpec:
    """Rectangular cell grid; ``neighborhood`` picks 4- or 8-connectivity.

    Cells are indexed row-major from the bottom-left corner: cell
    ``row * width + col`` sits at column ``col`` (0 = left) and row ``row``
    (0 = bottom).
    """

    width: int
    height: int
    neighborhood: str = "four"

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("grid dimensions must be >= 1")
        if self.neighborhood not in ("four", "eight"):
            raise ValueError(f"unknown neighborhood {self.neighborhood!r}")

    @property
    def n_cells(self) -> int:
        return self.width * self.height

    def index(self, col: int, row: int) -> int:
        if not (0 <= col < self.width and 0 <= row < self.height):
            raise ValueError(f"cell ({col}, {row}) outside grid")
        return row * self.width + col

    def coords(self, cell: int) -> tuple:
        return cell % self.width, cell // self.width

    def neighbors(self, cell: int) -> tuple:
        width, height = self.width, self.height
        col, row = cell % width, cell // width
        out = []
        for dc, dr in _OFFSETS[self.neighborhood]:
            c, r = col + dc, row + dr
            if 0 <= c < width and 0 <= r < height:
                out.append(r * width + c)
        return tuple(out)


class SpreadModel:
    """Transmission probabilities P(x, y) and suppression success Q(x).

    ``P(x, y)`` is the chance that a fire in y ignites x in one step; it is
    only allowed on pairs where y neighbors x.  ``Q(x)`` is the per-attempt
    success probability of one suppression team on x.

    ``in_edges[x]`` lists the (y, P(x, y)) pairs with P > 0, sorted by
    source cell y.  The same graph is padded into one slot table of shape
    ``(max degree, n)``: ``slot_source[j, x]`` and ``slot_rate[j, x]`` are
    the source and rate of x's j-th in-edge, and a padding slot has source 0
    and rate 0.0.  The simulator, the fluid model and the fw distances all
    read the graph from this table.  The simulator's survival products and
    the fluid model's in-edge sums walk it one slot at a time, so each
    per-cell product or sum is formed in in-edge order, as a per-cell loop
    forms it, and comes out identical to the last bit.  The table is
    read-only: readers share it and cache what they derive from it.
    """

    def __init__(self, spec: GridSpec, edges: dict, q: Sequence[float]):
        n = spec.n_cells
        if len(q) != n:
            raise ValueError("Q must have one entry per cell")
        for x, prob in enumerate(q):
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"Q({x}) = {prob} outside [0, 1]")
        incoming = [[] for _ in range(n)]
        neighbors = {}  # x -> spec.neighbors(x), computed once per cell
        for (x, y), prob in edges.items():
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"P({x}, {y}) = {prob} outside [0, 1]")
            if not (0 <= x < n and 0 <= y < n):
                raise ValueError(f"P({x}, {y}) names a cell outside [0, {n})")
            near = neighbors.get(x)
            if near is None:
                near = neighbors[x] = spec.neighbors(x)
            if y not in near:
                raise ValueError(f"P({x}, {y}) set but {y} is not a neighbor of {x}")
            if prob > 0.0:
                incoming[x].append((y, float(prob)))
        self.spec = spec
        self.q = tuple(float(v) for v in q)
        self.in_edges = tuple(tuple(sorted(v)) for v in incoming)
        degree = max(map(len, self.in_edges), default=0)
        self.slot_source = np.zeros((degree, n), dtype=np.intp)
        self.slot_rate = np.zeros((degree, n))
        for x, listed in enumerate(self.in_edges):
            for j, (y, prob) in enumerate(listed):
                self.slot_source[j, x] = y
                self.slot_rate[j, x] = prob
        self.slot_source.setflags(write=False)
        self.slot_rate.setflags(write=False)

    @classmethod
    def uniform(cls, spec: GridSpec, p: float, q: float) -> "SpreadModel":
        edges = {}
        for x in range(spec.n_cells):
            for y in spec.neighbors(x):
                edges[(x, y)] = p
        return cls(spec, edges, [q] * spec.n_cells)


@dataclass(frozen=True)
class RewardModel:
    """Per-cell burn cost; every value must be nonpositive."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        for x, v in enumerate(self.values):
            if not v <= 0.0:
                raise ValueError(f"R({x}) = {v} must be <= 0")

    def __getitem__(self, x: int) -> float:
        return self.values[x]

    def __len__(self) -> int:
        return len(self.values)


def idle_action(teams: int) -> Action:
    return (IDLE,) * teams


def burning_flags(burning) -> np.ndarray:
    """The burning flags of either state form as a uint8 array: an array is
    returned as it is, a tuple is copied into a read-only one."""
    if isinstance(burning, np.ndarray):
        return burning
    return np.frombuffer(bytes(burning), dtype=np.uint8)


def state_arrays(state: FireState) -> tuple:
    """The (burning uint8, fuel int64) arrays of a tuple state."""
    return burning_flags(state.burning), np.fromiter(state.fuel, np.int64, len(state.fuel))


def burning_cells(state: FireState) -> list:
    """The burning cells of either state form, ascending, as Python ints."""
    return np.flatnonzero(burning_flags(state.burning)).tolist()


class Wildfire:
    """Generative model G: samples (next state, reward) given (state, action).

    Pure value-in/value-out; a single instance can back any number of
    concurrent episodes as long as each uses its own random stream.
    """

    def __init__(self, spec: GridSpec, spread: SpreadModel, rewards: RewardModel):
        if spread.spec != spec:
            raise ValueError("spread model built for a different grid")
        if len(rewards) != spec.n_cells:
            raise ValueError("reward model size mismatch")
        self.spec = spec
        self.spread = spread
        self.rewards = rewards
        self._q = spread.q
        self._r = np.array(rewards.values)
        # per slot, the source and the factor 1 - P(x, y); padding keeps 1.0
        self._src = spread.slot_source
        self._keep = 1.0 - spread.slot_rate

    # -- transition law ------------------------------------------------

    def _burn_probs(self, lit: np.ndarray, fuel: np.ndarray, action: Action) -> np.ndarray:
        """Per-cell probability of burning next, from the pre-step burning
        mask ``lit`` and fuel array."""
        # survival product of every cell, one in-edge slot at a time
        survive = np.ones(len(lit))
        for factor in np.where(lit[self._src], self._keep, 1.0):
            survive *= factor
        probs = np.where(lit, 1.0, 1.0 - survive)
        q = self._q
        for target in action:
            if target >= 0 and lit[target]:
                probs[target] *= 1.0 - q[target]
        probs[fuel <= 0] = 0.0
        return probs

    def _check_action(self, action: Action):
        n = self.spec.n_cells
        for target in action:
            if target != IDLE and not 0 <= target < n:
                raise ValueError(f"action targets cell {target} outside grid")

    def step_arrays(self, burning: np.ndarray, fuel: np.ndarray, action: Action, rng) -> tuple:
        """Sample one transition on arrays: (next burning, next fuel, reward).

        ``burning`` is a uint8 array of 0/1 flags and ``fuel`` an int64
        array; neither is written.  The reward is the sum of R(x) over the
        pre-step burning cells, added left to right from 0.0.
        """
        self._check_action(action)
        lit = burning != 0
        probs = self._burn_probs(lit, fuel, action)
        burns = probs >= 1.0
        stochastic = np.flatnonzero((probs > 0.0) & (probs < 1.0))
        if stochastic.size:
            rand = rng.random
            draws = [rand() for _ in range(stochastic.size)]
            burns[stochastic] = np.array(draws) < probs[stochastic]
        next_fuel = fuel - (lit & (fuel > 0))
        charged = self._r[lit]
        # a float64 cumulative sum adds in sequence, where np.sum adds pairwise;
        # the leading 0.0 turns a sum of -0.0 into 0.0
        reward = 0.0 + float(np.add.accumulate(charged)[-1]) if charged.size else 0.0
        return burns.view(np.uint8), next_fuel, reward

    def step(self, state: FireState, action: Action, rng) -> tuple:
        """Sample one synchronous transition; returns (next_state, reward)."""
        burning, fuel, reward = self.step_arrays(*state_arrays(state), action, rng)
        return FireState(tuple(burning.tobytes()), tuple(fuel.tolist())), reward
