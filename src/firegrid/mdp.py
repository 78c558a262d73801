"""Stochastic wildfire-suppression MDP on a grid.

State is a pair of per-cell arrays (burning flags, integer fuel).  One
decision epoch assigns each suppression team to a target cell; every cell
then transitions simultaneously using the pre-step state: an unburning cell
with fuel ignites with probability 1 - prod(1 - P(x,y)) over burning
neighbors y, a burning cell is extinguished with probability
1 - prod(1 - Q(x)) over the teams targeting it (or with certainty once its
fuel is exhausted).  Fuel drops by one per burning step.  The step reward
charges R(x) <= 0 for every cell burning in the pre-step state.

``Wildfire.step_arrays`` is the one kernel of the law.  It steps a block of
B episodes at once, with numpy: the ``(B, n)`` arrays of burning flags
(bool) and fuel (int64), one action and one ``random.Random`` stream per
row, to the next ``(B, n)`` arrays and B rewards.  Each cell's survival
product is formed one in-edge slot of ``SpreadModel`` at a time, the teams
on a burning cell multiply in action order, and each row's reward adds R(x)
over its burning cells left to right, starting from 0.0, so every row comes
out bit for bit as it would alone.  A state is one row of a block:
``Wildfire.step``, MCTS rollouts and the initial-fire warm-up step blocks of
one row, and the harness plays a benchmark's heuristic episodes in
lockstep.  Exact outcome distributions are enumerated only in the tests,
from an independent per-cell copy of the law, so they check this kernel.

All step randomness comes from an explicit ``random.Random`` stream per
episode, so a fixed seed reproduces a trajectory exactly.  The draw order is
part of the law: the kernel draws the row's ``rng.random()`` once for every
cell whose probability of burning next lies strictly between 0 and 1, in
ascending cell order, and the cell burns when the draw is below that
probability.  Cells whose probability is 0 or 1 draw nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

IDLE = -1  # sentinel target for a team with nothing to suppress

Action = tuple  # tuple[int, ...]; one non-negative cell index (or IDLE) per team


class FireState(NamedTuple("_FireFields", [("burning", np.ndarray), ("fuel", np.ndarray)])):
    """MDP state: per-cell burning flags (bool) and fuel (int64), read-only.

    Any sequences are converted to those dtypes; an array that has its dtype
    is marked read-only and kept, not copied, so a row of the kernel's block
    is a state for free, and no code writes a block once its rows are states.
    Equality and the hash go by the fields' bytes, so states serve as tree
    keys.  ``state[0]``, unpacking and ``_replace`` work as on any NamedTuple.
    """

    __slots__ = ()

    def __new__(cls, burning, fuel):
        burning = np.asarray(burning, dtype=bool)
        fuel = np.asarray(fuel, dtype=np.int64)
        burning.flags.writeable = False
        fuel.flags.writeable = False
        return super().__new__(cls, burning, fuel)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __eq__(self, other):
        return (isinstance(other, FireState)
                and self.burning.tobytes() == other.burning.tobytes()
                and self.fuel.tobytes() == other.fuel.tobytes())

    def __ne__(self, other):  # tuple's own __ne__ would win over __eq__
        return not self == other

    def __hash__(self):
        return hash((self.burning.tobytes(), self.fuel.tobytes()))


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


def burning_cells(state: FireState) -> list:
    """The burning cells of a state, ascending, as Python ints."""
    return np.flatnonzero(state.burning).tolist()


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
        self._keep = (1.0 - spread.slot_rate)[:, np.newaxis]  # (max degree, 1, n)

    # -- transition law ------------------------------------------------

    def _slot_index(self, rows: int) -> np.ndarray:
        """The flat positions, in a C-ordered ``(rows, n)`` block, of every
        cell's in-edge slot sources: shape ``(max degree, rows * n)``.  One
        row, every rollout and tree step, reads the slot table itself:
        building its index costs about 3.3 µs a call on grid1_k20 (2-vCPU
        host), a tenth of a step."""
        if rows == 1:
            return self._src
        n = self.spec.n_cells
        offsets = n * np.arange(rows)[:, np.newaxis]
        return (self._src[:, np.newaxis] + offsets).reshape(len(self._src), rows * n)

    def _law(self, lit: np.ndarray, fueled: np.ndarray, actions) -> tuple:
        """The law's deterministic part for a block: the per-cell probability
        of burning next, shape ``(B, n)``, and the B rewards, from the
        pre-step masks of burning cells (``lit``) and of cells with fuel left
        (``fueled``) and the B actions."""
        rows, n = lit.shape
        sources = lit.reshape(-1)[self._slot_index(rows)].reshape(-1, rows, n)
        # multiply.reduce is sequential along the slot axis: each cell's
        # survival product is formed one in-edge slot at a time
        survive = np.multiply.reduce(np.where(sources, self._keep, 1.0), axis=0)
        probs = np.where(lit, 1.0, 1.0 - survive)
        q, r = self._q, self._r
        rewards = []
        for action, flags, row in zip(actions, lit, probs):
            for target in action:
                if target >= 0 and flags[target]:
                    row[target] *= 1.0 - q[target]
            charged = r[flags]
            # a float64 cumulative sum adds in sequence, where np.sum adds
            # pairwise; the leading 0.0 turns a sum of -0.0 into 0.0
            rewards.append(0.0 + float(np.add.accumulate(charged)[-1]) if charged.size else 0.0)
        probs[~fueled] = 0.0
        return probs, rewards

    def _check_action(self, action: Action):
        n = self.spec.n_cells
        for target in action:
            if target != IDLE and not 0 <= target < n:
                raise ValueError(f"action targets cell {target} outside grid")

    def step_arrays(self, burning: np.ndarray, fuel: np.ndarray, actions, rngs) -> tuple:
        """Sample one transition of a block of B episodes on arrays:
        (next burning, next fuel, rewards).

        ``burning`` is a ``(B, n)`` bool array and ``fuel`` a ``(B, n)`` int64
        array; neither is written, and new ones come back.  ``actions`` and
        ``rngs`` hold one action and one stream per row, and row b draws only
        from ``rngs[b]``.  ``rewards`` is a list of B floats: row b's is the sum
        of R(x) over its pre-step burning cells, added left to right from 0.0.
        """
        for action in actions:
            self._check_action(action)
        fueled = fuel > 0
        probs, rewards = self._law(burning, fueled, actions)
        burns = probs >= 1.0
        stochastic = (probs > 0.0) & ~burns
        # row b takes its draws from its own stream, one per stochastic cell;
        # flat positions ascend row by row, and by cell within a row
        draws = []
        for rng, row in zip(rngs, stochastic):
            rand = rng.random
            draws += [rand() for _ in range(np.count_nonzero(row))]
        if draws:
            cells = np.flatnonzero(stochastic)
            burns.reshape(-1)[cells] = np.array(draws) < probs.reshape(-1)[cells]
        next_fuel = fuel - (burning & fueled)
        return burns, next_fuel, rewards

    def step(self, state: FireState, action: Action, rng) -> tuple:
        """Sample one synchronous transition; returns (next_state, reward)."""
        burning, fuel, rewards = self.step_arrays(
            state.burning[np.newaxis], state.fuel[np.newaxis], (action,), (rng,))
        return FireState(burning[0], fuel[0]), rewards[0]
