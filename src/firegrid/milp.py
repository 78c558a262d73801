"""Best-first branch and bound over an LpProblem with integrality marks.

Meant as an exact reference for small instances: each node re-solves the LP
relaxation with tightened bounds, fractional variables are branched
most-fractional-first, and the incumbent / best open bound give the
optimality gap whenever a node or time limit stops the search early.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

import numpy as np

from .lp import (
    INFEASIBLE,
    ITERATION_LIMIT,
    OPTIMAL,
    UNBOUNDED,
    LpProblem,
    solve_lp,
    solve_lp_scipy,
)

NO_INCUMBENT = "no-incumbent"
TIME_LIMIT = "time-limit"
NODE_LIMIT = "node-limit"

_INT_TOL = 1e-6


@dataclass
class MilpSolution:
    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    bound: float | None = None
    gap: float | None = None
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


def _gap(incumbent, bound):
    if incumbent is None or bound is None:
        return None
    return abs(incumbent - bound) / max(1.0, abs(incumbent))


def branch_and_bound(
    problem: LpProblem,
    integer_mask,
    deadline: float | None = None,
    node_limit: int | None = None,
    lp_solver=solve_lp,
) -> MilpSolution:
    """Minimize ``problem`` with the masked variables forced integral.

    ``deadline`` is a ``time.monotonic()`` instant that ends the whole
    search, retries included; a caller that hands ``lp_solver`` a time limit
    should derive it from the same instant.  A search cut short, by the
    deadline, the node limit or a child LP that stays unsolved, reports that
    stop (``time-limit``, ``node-limit`` or ``iteration-limit``) with the best
    open bound, or ``no-incumbent`` when it found no integral point.
    """
    integer_mask = np.asarray(integer_mask, dtype=bool)
    int_indices = np.flatnonzero(integer_mask)
    int_list = int_indices.tolist()

    def time_left():
        return None if deadline is None else max(deadline - time.monotonic(), 0.0)

    def solve_node(node_problem):
        # A child LP stuck on iterations/numerics is retried on the alternate
        # backend, in the time left.
        sol = lp_solver(node_problem)
        left = time_left()
        if sol.status == ITERATION_LIMIT and left != 0.0:
            sol = solve_lp_scipy(node_problem, time_limit=left)
        return sol

    root = solve_node(problem)
    nodes = 1
    if root.status == INFEASIBLE:
        return MilpSolution(INFEASIBLE, nodes=nodes)
    if root.status == UNBOUNDED:
        return MilpSolution(UNBOUNDED, nodes=nodes)
    if root.status == ITERATION_LIMIT:
        return MilpSolution(NO_INCUMBENT, nodes=nodes)

    incumbent_x = None
    incumbent_obj = None
    counter = 0
    # heap entries: (bound, tiebreak, lower, upper, relaxation)
    heap = [(root.objective, counter, problem.lower.copy(), problem.upper.copy(), root)]
    stopped = None

    def out_of_budget():
        if time_left() == 0.0:
            return TIME_LIMIT
        if node_limit is not None and nodes >= node_limit:
            return NODE_LIMIT
        return None

    while heap:
        bound, _, lower, upper, relax = heapq.heappop(heap)
        if incumbent_obj is not None and bound >= incumbent_obj - 1e-9:
            continue
        j = _fractional(relax.x, int_list)
        if j is None:
            x = relax.x.copy()
            x[int_indices] = np.round(x[int_indices])
            obj = float(problem.c @ x)
            if incumbent_obj is None or obj < incumbent_obj - 1e-12:
                incumbent_obj, incumbent_x = obj, x
            continue
        stopped = out_of_budget()
        if stopped:
            heapq.heappush(heap, (bound, -1, lower, upper, relax))
            break
        value = relax.x[j]
        for lo_j, hi_j in ((lower[j], np.floor(value)), (np.ceil(value), upper[j])):
            child_lower = lower.copy()
            child_upper = upper.copy()
            child_lower[j] = lo_j
            child_upper[j] = hi_j
            if child_lower[j] > child_upper[j]:
                continue
            child = LpProblem(problem.c, problem.a, problem.senses, problem.b,
                              child_lower, child_upper)
            sol = solve_node(child)
            nodes += 1
            if sol.status == ITERATION_LIMIT:
                # unsolved, the child must not prune a feasible subtree: stop
                # with the parent's bound still open
                stopped = TIME_LIMIT if time_left() == 0.0 else ITERATION_LIMIT
                heapq.heappush(heap, (bound, -1, lower, upper, relax))
                break
            if sol.status != OPTIMAL:
                continue
            if incumbent_obj is not None and sol.objective >= incumbent_obj - 1e-9:
                continue
            counter += 1
            heapq.heappush(heap, (sol.objective, counter, child_lower, child_upper, sol))
        if stopped:
            break

    open_bound = min((entry[0] for entry in heap), default=None)
    if incumbent_obj is not None:
        bound = incumbent_obj if open_bound is None else min(open_bound, incumbent_obj)
        status = stopped if stopped else OPTIMAL
        return MilpSolution(status, x=incumbent_x, objective=incumbent_obj,
                            bound=bound, gap=_gap(incumbent_obj, bound), nodes=nodes)
    if stopped or open_bound is not None:
        return MilpSolution(NO_INCUMBENT,
                            bound=open_bound if open_bound is not None else root.objective,
                            nodes=nodes)
    # every branch pruned infeasible without an integral point
    return MilpSolution(INFEASIBLE, nodes=nodes)
