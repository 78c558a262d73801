"""Baseline suppression policies: random targeting and the distance-weighted rule.

The weighted rule scores each cell by summing R(y) / D(x, y) over all other
cells, where D is the all-pairs shortest-path length using the transmission
probability P(x, y) as the length of the edge between adjacent cells; the
edges are read from the spread model's in-edge slot table.  Cells
sitting close (in that metric) to large-magnitude burn costs get the highest
suppression priority.  ``ScenarioConfig.weights`` builds the distances and
the weight map once per scenario; every fw policy, MCTS rollout and MO
fallback built from that scenario shares them read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import floyd_warshall

from .mdp import (
    Action,
    FireState,
    RewardModel,
    SpreadModel,
    burning_cells,
    idle_action,
)


@dataclass(frozen=True)
class WeightMap:
    """Per-cell score w and the derived suppression priority (-w).

    The priority never changes, so its order is precomputed here, as
    read-only intp arrays: ``order`` lists the cells by priority descending,
    ties toward the lower index, and ``tie_start[x]`` is the position in
    ``order`` where the run of cells sharing x's priority begins.  Ranking
    any burning set then takes one O(n) pass over ``order`` instead of
    comparing burning cells pairwise.
    """

    w: np.ndarray
    priority: np.ndarray
    order: np.ndarray = field(init=False, repr=False, compare=False)
    tie_start: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = self.priority
        order = np.argsort(-p, kind="stable")
        ranked = p[order]
        runs = np.zeros(len(p), dtype=np.intp)  # position of each run's first cell
        new_run = np.flatnonzero(ranked[1:] != ranked[:-1]) + 1
        runs[new_run] = new_run
        np.maximum.accumulate(runs, out=runs)
        tie_start = np.empty(len(p), dtype=np.intp)
        tie_start[order] = runs
        order.setflags(write=False)
        tie_start.setflags(write=False)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "tie_start", tie_start)


def all_pairs_distances(spread: SpreadModel) -> np.ndarray:
    """The dense ``(n, n)`` matrix D(x, y) of shortest paths under edge
    length P(x, y), exact, via Floyd-Warshall; +inf marks unreachable pairs.

    The edges are the spread model's in-edge slots: slot j of cell x is the
    edge x -> ``slot_source[j, x]``, and padding (rate 0.0) is no edge.
    """
    n = spread.spec.n_cells
    rate = spread.slot_rate
    edge = rate > 0.0
    cells = np.broadcast_to(np.arange(n), rate.shape)
    graph = csr_matrix((rate[edge], (cells[edge], spread.slot_source[edge])), shape=(n, n))
    dist = floyd_warshall(graph, directed=True)
    np.fill_diagonal(dist, 0.0)
    return dist


def fw_weights(d: np.ndarray, rewards: RewardModel) -> WeightMap:
    """Score w(x) = sum_{y != x} R(y) / D(x, y) from the distance matrix
    ``d``; priority ranks -w descending.

    The self term is excluded (D(x, x) = 0 would divide by zero) and
    unreachable cells contribute nothing.
    """
    r = np.asarray(rewards.values, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        contrib = r[np.newaxis, :] / d
    contrib[~np.isfinite(contrib)] = 0.0
    np.fill_diagonal(contrib, 0.0)
    w = contrib.sum(axis=1)
    return WeightMap(w=w, priority=-w)


def fw_policy(state: FireState, weights: WeightMap, teams: int) -> Action:
    """Deterministically cover the highest-priority burning cells.

    One team per cell down the priority order; once every burning cell is
    covered the remaining teams wrap back to the top.  Ties break toward the
    lower cell index, as in ``weights.order``.
    """
    order = weights.order
    cells = order[state.burning[order].nonzero()[0][:teams]].tolist()
    if not cells:
        return idle_action(teams)
    return tuple(sorted(cells[i % len(cells)] for i in range(teams)))


def _priority_ranks(burning: np.ndarray, cells: np.ndarray, weights: WeightMap) -> np.ndarray:
    """Competition ranks (1 = best) of the burning ``cells``, in their order.

    A cell's rank is one plus the number of burning cells of strictly higher
    priority, so cells with equal priority share a rank.  Counting the
    burning flags along ``weights.order`` gives that number at the start of
    every tie run: O(n) per call.
    """
    order = weights.order
    # ahead[i]: the number of burning cells among order[:i]
    ahead = np.zeros(len(order) + 1, dtype=np.intp)
    np.add.accumulate(burning[order], dtype=np.intp, out=ahead[1:])
    return 1 + ahead[weights.tie_start[cells]]


def _draw(totals: np.ndarray, rng) -> int:
    """An index drawn with probability proportional to its weight, given the
    running totals of non-negative weights: the first whose running total
    exceeds a uniform draw on [0, total).

    With r = ``rng.random()`` < 1, r * total rounds below the total (the
    last running total), so some index is always found; and a zero weight
    repeats the total before it, so the index found has a non-zero weight.
    """
    return int(totals.searchsorted(rng.random() * totals[-1], side="right"))


def fw_sample_policy(state: FireState, weights: WeightMap, teams: int, rng) -> Action:
    """Randomized variant of ``fw_policy`` used as the rollout policy.

    Burning cells are drawn without replacement with probability proportional
    to 1 / rank, where rank is the competition rank of the cell's priority;
    once the burning set is exhausted the remaining teams draw with
    replacement from the same distribution.  Ranks come from the priority
    order ``WeightMap`` precomputes, at O(n) per call.

    Each draw scales one ``rng.random()`` by the total weight and takes the
    first cell whose running total exceeds it.  The running totals come
    from a float64 cumulative sum (``np.add.accumulate``, as ``cumsum``), so
    they, and the total, add left to right on every Python.  A drawn cell's
    weight is set to 0.0 rather than removed; since x + 0.0 == x, every
    later running total is the one the remaining cells alone would give.
    """
    burning = state.burning
    cells = burning.nonzero()[0]
    if not cells.size:
        return idle_action(teams)
    base = 1.0 / _priority_ranks(burning, cells, weights)
    pool = base.copy()
    picks = []
    for _ in range(min(teams, cells.size)):
        pick = _draw(np.add.accumulate(pool), rng)
        picks.append(pick)
        pool[pick] = 0.0
    if teams > cells.size:
        totals = np.add.accumulate(base)
        picks.extend(_draw(totals, rng) for _ in range(teams - cells.size))
    return tuple(sorted(cells[picks].tolist()))


def random_policy(state: FireState, teams: int, rng) -> Action:
    """Uniform straw man: burning cells without replacement, extras with."""
    cells = burning_cells(state)
    if not cells:
        return idle_action(teams)
    take = min(teams, len(cells))
    chosen = rng.sample(cells, take)
    for _ in range(teams - take):
        chosen.append(cells[rng.randrange(len(cells))])
    return tuple(sorted(chosen))
