"""Best-first branch and bound over an LpProblem with integrality marks.

Meant as an exact reference for small instances: each node re-solves the LP
relaxation with tightened bounds on the caller's one LP solver, fractional
variables are branched most-fractional-first, and open nodes are expanded in
order of their relaxation's bound.  A child never bounds below its parent, so
the first integral node popped is optimal and ends the search.  A search
stopped before that has no integral point and reports the bound it reached.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

import numpy as np

from .lp import (INFEASIBLE, ITERATION_LIMIT, OPTIMAL, TIME_LIMIT, UNBOUNDED, LpProblem,
                 solve_lp)
# Unused here: the benchmark's tracer still wraps this name on this module,
# and tests/test_bench_contract.py checks that it resolves.
from .lp import solve_lp_scipy  # noqa: F401

NO_INCUMBENT = "no-incumbent"
_UNSOLVED = (ITERATION_LIMIT, TIME_LIMIT)  # LP statuses that prove nothing

_INT_TOL = 1e-6


@dataclass
class MilpSolution:
    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    bound: float | None = None
    nodes: int = 0


def _fractional(x, int_indices):
    """Branching variable: the fractional entry closest to one half (ties to
    the lowest index), or None when every entry is integral."""
    best, best_score = None, -1.0
    for j in int_indices:
        frac = abs(x[j] - round(x[j]))
        if frac <= _INT_TOL:
            continue
        score = 0.5 - abs(frac - 0.5)
        if score > best_score + 1e-12:
            best, best_score = j, score
    return best


def branch_and_bound(
    problem: LpProblem,
    integer_mask,
    deadline: float | None = None,
    node_limit: int | None = None,
    lp_solver=solve_lp,
) -> MilpSolution:
    """Minimize ``problem`` with the masked variables forced integral.

    Every node LP goes to ``lp_solver``.  ``deadline`` is a
    ``time.monotonic()`` instant that ends the whole search; a caller that
    hands ``lp_solver`` a time limit should derive it from the same instant.
    The first integral node popped is returned as ``optimal``, with its
    rounded objective as the bound.  The deadline or ``node_limit``, checked
    before a node branches, and a child LP that stops unsolved each end the
    search as ``no-incumbent``, with the bound of the node being expanded.
    """
    integer_mask = np.asarray(integer_mask, dtype=bool)
    int_indices = np.flatnonzero(integer_mask)
    int_list = int_indices.tolist()

    root = lp_solver(problem)
    nodes = 1
    if root.status == INFEASIBLE:
        return MilpSolution(INFEASIBLE, nodes=nodes)
    if root.status == UNBOUNDED:
        return MilpSolution(UNBOUNDED, nodes=nodes)
    if root.status in _UNSOLVED:
        return MilpSolution(NO_INCUMBENT, nodes=nodes)

    counter = 0
    # heap entries: (bound, tiebreak, lower, upper, relaxation)
    heap = [(root.objective, counter, problem.lower.copy(), problem.upper.copy(), root)]
    while heap:
        bound, _, lower, upper, relax = heapq.heappop(heap)
        j = _fractional(relax.x, int_list)
        if j is None:
            x = relax.x.copy()
            x[int_indices] = np.round(x[int_indices])
            obj = float(problem.c @ x)
            return MilpSolution(OPTIMAL, x=x, objective=obj, bound=obj, nodes=nodes)
        if ((deadline is not None and time.monotonic() >= deadline)
                or (node_limit is not None and nodes >= node_limit)):
            return MilpSolution(NO_INCUMBENT, bound=bound, nodes=nodes)
        value = relax.x[j]
        for lo_j, hi_j in ((lower[j], np.floor(value)), (np.ceil(value), upper[j])):
            child_lower = lower.copy()
            child_upper = upper.copy()
            child_lower[j] = lo_j
            child_upper[j] = hi_j
            if child_lower[j] > child_upper[j]:
                continue
            child = problem.with_columns(problem.c, child_lower, child_upper)
            sol = lp_solver(child)
            nodes += 1
            if sol.status in _UNSOLVED:
                # unsolved, the child must not prune a feasible subtree: stop
                # with this node's bound still open
                return MilpSolution(NO_INCUMBENT, bound=bound, nodes=nodes)
            if sol.status == OPTIMAL:
                counter += 1
                heapq.heappush(heap, (sol.objective, counter, child_lower, child_upper, sol))
    # every branch pruned infeasible without an integral point
    return MilpSolution(INFEASIBLE, nodes=nodes)
