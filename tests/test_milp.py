import itertools
import time

import numpy as np
import pytest
import scipy.sparse as sp

from firegrid.lp import (GE, INFEASIBLE, ITERATION_LIMIT, LE, OPTIMAL, LpProblem,
                         LpSolution, solve_lp, solve_lp_scipy)
from firegrid.milp import NO_INCUMBENT, TIME_LIMIT, branch_and_bound


def lp(c, a, senses, b, lower=None, upper=None):
    c = np.asarray(c, dtype=float)
    n = len(c)
    lower = np.zeros(n) if lower is None else np.asarray(lower, dtype=float)
    upper = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
    return LpProblem(c, sp.csr_matrix(np.asarray(a, dtype=float)), tuple(senses),
                     np.asarray(b, dtype=float), lower, upper)


def exhaustive_binary_min(problem, mask):
    """Try every 0/1 combination of the masked variables, LP-solve the rest."""
    idx = np.flatnonzero(mask)
    best = None
    for bits in itertools.product((0.0, 1.0), repeat=len(idx)):
        lower = problem.lower.copy()
        upper = problem.upper.copy()
        lower[idx] = bits
        upper[idx] = bits
        sol = solve_lp(LpProblem(problem.c, problem.a, problem.senses,
                                 problem.b, lower, upper))
        if sol.status == OPTIMAL and (best is None or sol.objective < best):
            best = sol.objective
    return best


def test_integral_relaxation_returns_immediately():
    # relaxation optimum already lands on integers
    prob = lp([-1.0, -1.0], [[1.0, 0.0], [0.0, 1.0]], [LE, LE], [1.0, 1.0],
              upper=[1.0, 1.0])
    res = branch_and_bound(prob, [True, True])
    assert res.status == OPTIMAL
    assert res.gap == 0.0
    assert res.nodes == 1
    assert res.objective == pytest.approx(-2.0)


def test_knapsack_matches_exhaustive():
    weights = np.array([3.0, 5.0, 4.0, 2.0, 6.0])
    values = np.array([4.0, 6.0, 5.0, 3.0, 8.0])
    prob = lp(-values, weights.reshape(1, -1), [LE], [10.0],
              upper=np.ones(5))
    mask = np.ones(5, dtype=bool)
    res = branch_and_bound(prob, mask)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(exhaustive_binary_min(prob, mask))
    assert np.allclose(np.round(res.x), res.x, atol=1e-6)


def test_random_milps_match_exhaustive():
    rng = np.random.default_rng(11)
    for _ in range(8):
        n = int(rng.integers(3, 6))
        m = int(rng.integers(2, 5))
        a = rng.normal(size=(m, n)).round(2)
        b = rng.uniform(0.5, 2.5, size=m).round(2)
        c = rng.normal(size=n).round(2)
        prob = lp(c, a, [LE] * m, b, upper=np.ones(n))
        mask = rng.random(n) < 0.7
        res = branch_and_bound(prob, mask)
        expected = exhaustive_binary_min(prob, mask)
        if expected is None:
            assert res.status in (INFEASIBLE, NO_INCUMBENT)
        else:
            assert res.status == OPTIMAL
            assert res.objective == pytest.approx(expected, abs=1e-6)


def test_bound_never_exceeds_incumbent():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 4)).round(2)
    prob = lp(rng.normal(size=4).round(2), a, [LE] * 3,
              rng.uniform(1, 2, size=3), upper=np.ones(4))
    res = branch_and_bound(prob, np.ones(4, dtype=bool))
    if res.status == OPTIMAL:
        assert res.bound <= res.objective + 1e-9


def test_zero_time_limit_reports_no_incumbent_with_root_bound():
    weights = np.array([3.0, 5.0, 4.0])
    prob = lp(-np.array([4.0, 6.0, 5.0]), weights.reshape(1, -1), [LE], [6.0],
              upper=np.ones(3))
    root = solve_lp(prob)
    assert np.abs(root.x - np.round(root.x)).max() > 1e-6  # fractional root
    res = branch_and_bound(prob, np.ones(3, dtype=bool), deadline=time.monotonic())
    assert res.status == NO_INCUMBENT
    assert res.bound == pytest.approx(root.objective)


def test_integral_root_beats_zero_time_limit():
    prob = lp([-1.0], [[1.0]], [LE], [1.0], upper=[1.0])
    res = branch_and_bound(prob, [True], deadline=time.monotonic())
    assert res.status == OPTIMAL
    assert res.gap == 0.0


def test_a_stuck_node_stops_the_search_without_a_retry(monkeypatch):
    # min x, 2x >= 3, x integral in [0, 5]: the root is x = 1.5 and its x <= 1
    # child stops unsolved, on its iteration limit or on HiGHS's time limit.
    # No other solver takes that node over, nor is it pruned: the search
    # stops there, with the root's bound still open and no further LP solved
    prob = lp([1.0], [[2.0]], [GE], [3.0], upper=[5.0])
    highs = []

    def retry(problem, time_limit=None):
        highs.append(problem)
        return solve_lp_scipy(problem, time_limit=time_limit)

    monkeypatch.setattr("firegrid.milp.solve_lp_scipy", retry)
    for stuck in (ITERATION_LIMIT, TIME_LIMIT):
        solved = []

        def solver(problem):
            solved.append(problem.upper[0])
            if problem.upper[0] <= 1.0:
                return LpSolution(stuck)
            return solve_lp(problem)

        res = branch_and_bound(prob, [True], deadline=time.monotonic() + 60.0,
                               lp_solver=solver)
        assert res.status == NO_INCUMBENT
        assert res.bound == pytest.approx(1.5)
        assert res.nodes == len(solved) == 2 and solved[-1] == 1.0
    assert highs == []


def test_a_child_cut_off_by_the_deadline_leaves_its_subtree_open():
    # min x, 2x >= 3, x integral in [0, 5]: the root is x = 1.5; the x <= 1
    # child runs past the deadline, so the x = 2 of its sibling is not proven
    # optimal, nor may the search call the problem infeasible
    prob = lp([1.0], [[2.0]], [GE], [3.0], upper=[5.0])
    deadline = time.monotonic() + 0.5

    def solver(problem):
        if problem.upper[0] <= 1.0:
            time.sleep(max(deadline - time.monotonic(), 0.0) + 0.01)
            return LpSolution(ITERATION_LIMIT)
        return solve_lp(problem)

    res = branch_and_bound(prob, [True], deadline=deadline, lp_solver=solver)
    assert res.status in (TIME_LIMIT, NO_INCUMBENT)
    assert res.bound == pytest.approx(1.5)


def test_infeasible_milp():
    prob = lp([1.0], [[1.0], [1.0]], [GE, LE], [2.0, 1.0], upper=[5.0])
    res = branch_and_bound(prob, [True])
    assert res.status == INFEASIBLE


def test_integrality_gap_instance():
    # relaxation picks x = 0.5 pair; integral optimum strictly worse
    prob = lp([-1.0, -1.0], [[2.0, 2.0]], [LE], [2.0], upper=[1.0, 1.0])
    relax = solve_lp(prob)
    assert relax.objective == pytest.approx(-1.0)
    res = branch_and_bound(prob, [True, True])
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(-1.0)
    assert np.allclose(np.round(res.x), res.x, atol=1e-6)
