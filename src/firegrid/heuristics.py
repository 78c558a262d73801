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
from itertools import accumulate

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import floyd_warshall

from .mdp import Action, FireState, RewardModel, SpreadModel, burning_cells, idle_action


@dataclass(frozen=True)
class WeightMap:
    """Per-cell score w and the derived suppression priority (-w).

    The priority never changes, so its order is precomputed here: ``order``
    lists the cells by priority descending, ties toward the lower index, and
    ``tie_start[x]`` is the position in ``order`` where the run of cells
    sharing x's priority begins.  Ranking any burning set then takes one
    O(n) pass over ``order`` instead of comparing burning cells pairwise.
    """

    w: np.ndarray
    priority: np.ndarray
    order: tuple = field(init=False, repr=False, compare=False)
    tie_start: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = self.priority.tolist()
        order = sorted(range(len(p)), key=p.__getitem__, reverse=True)  # stable
        tie_start = [0] * len(p)
        start = 0
        for i, x in enumerate(order):
            if i and p[x] != p[order[i - 1]]:
                start = i
            tie_start[x] = start
        object.__setattr__(self, "order", tuple(order))
        object.__setattr__(self, "tie_start", tuple(tie_start))


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
    burning = state.burning
    cells = [x for x in weights.order if burning[x]]
    if not cells:
        return idle_action(teams)
    return tuple(sorted(cells[i % len(cells)] for i in range(teams)))


def _priority_ranks(burning, cells, weights: WeightMap) -> list:
    """Competition ranks (1 = best) of the burning ``cells``, in their order.

    A cell's rank is one plus the number of burning cells of strictly higher
    priority, so cells with equal priority share a rank.  Counting the
    burning flags along ``weights.order`` gives that number at the start of
    every tie run: O(n) per call.
    """
    # before[i]: one plus the number of burning cells among order[:i]
    before = list(accumulate([burning[x] for x in weights.order], initial=1))
    tie_start = weights.tie_start
    return [before[tie_start[x]] for x in cells]


def _weighted_index(weights, rng) -> int:
    """Index i drawn with probability weights[i] / sum(weights): the first
    whose running total exceeds a uniform draw on [0, sum), else the last.

    A plain scan: it stops at the pick, so it beats building every prefix
    sum in C (``accumulate``) and bisecting them.  The total is the builtin
    ``sum``, compensated from Python 3.12, so there the last bit of ``u``,
    and rarely the pick, may differ.  A left-to-right sum in Python takes
    several times as long on this, MCTS's hot path, so it waits for the
    array form of ROADMAP item 6."""
    u = rng.random() * sum(weights)
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if u < acc:
            return i
    return len(weights) - 1


def fw_sample_policy(state: FireState, weights: WeightMap, teams: int, rng) -> Action:
    """Randomized variant of ``fw_policy`` used as the rollout policy.

    Burning cells are drawn without replacement with probability proportional
    to 1 / rank, where rank is the competition rank of the cell's priority;
    once the burning set is exhausted the remaining teams draw with
    replacement from the same distribution.  Ranks come from the priority
    order ``WeightMap`` precomputes, at O(n) per call.
    """
    cells = burning_cells(state)
    if not cells:
        return idle_action(teams)
    ranks = _priority_ranks(state.burning, cells, weights)
    base = [1.0 / r for r in ranks]
    chosen = []
    pool, pool_weights = list(cells), list(base)
    for _ in range(min(teams, len(cells))):
        pick = _weighted_index(pool_weights, rng)
        del pool_weights[pick]
        chosen.append(pool.pop(pick))
    for _ in range(teams - len(cells)):
        chosen.append(cells[_weighted_index(base, rng)])
    return tuple(sorted(chosen))


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
