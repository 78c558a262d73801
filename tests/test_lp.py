import os

import numpy as np
import pytest
import scipy.sparse as sp

from firegrid.harness import episode_rng, load_scenario
from firegrid.lp import (
    EQ,
    GE,
    INFEASIBLE,
    ITERATION_LIMIT,
    LE,
    OPTIMAL,
    TIME_LIMIT,
    UNBOUNDED,
    LpProblem,
    solve_lp,
    solve_lp_scipy,
)

from oracles import enumerate_vertices


def lp(c, a, senses, b, lower=None, upper=None):
    c = np.asarray(c, dtype=float)
    n = len(c)
    lower = np.zeros(n) if lower is None else np.asarray(lower, dtype=float)
    upper = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
    return LpProblem(c, sp.csr_matrix(np.asarray(a, dtype=float)), tuple(senses),
                     np.asarray(b, dtype=float), lower, upper)


def check_feasible(problem: LpProblem, x: np.ndarray) -> float:
    """Largest constraint/bound violation of x; 0 means feasible."""
    ax = problem.a @ x
    worst = 0.0
    for i, s in enumerate(problem.senses):
        if s == LE:
            worst = max(worst, ax[i] - problem.b[i])
        elif s == GE:
            worst = max(worst, problem.b[i] - ax[i])
        else:
            worst = max(worst, abs(ax[i] - problem.b[i]))
    worst = max(worst, float(np.max(problem.lower - x, initial=0.0)))
    worst = max(worst, float(np.max(x - problem.upper, initial=0.0)))
    return worst


def test_simple_bounded_max():
    sol = solve_lp(lp([-1.0], [[1.0]], [LE], [3.0]))
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(-3.0)
    assert sol.x[0] == pytest.approx(3.0)


def test_infeasible_pair():
    sol = solve_lp(lp([0.0], [[1.0], [1.0]], [GE, LE], [2.0, 1.0]))
    assert sol.status == INFEASIBLE


def test_unbounded():
    sol = solve_lp(lp([-1.0], [[1.0]], [GE], [0.0]))
    assert sol.status == UNBOUNDED


def test_equality_with_upper_bounds():
    sol = solve_lp(lp([1.0, 2.0], [[1.0, 1.0]], [EQ], [1.0],
                      upper=[0.4, np.inf]))
    assert sol.status == OPTIMAL
    np.testing.assert_allclose(sol.x, [0.4, 0.6], atol=1e-9)
    assert sol.objective == pytest.approx(1.6)


def test_free_variable_split():
    # min x with x free and x >= -5 via a row: every column MO builds has a
    # finite lower bound, so the bundled simplex refuses it; HiGHS solves it
    prob = lp([1.0], [[1.0]], [GE], [-5.0],
              lower=[-np.inf], upper=[np.inf])
    with pytest.raises(ValueError, match="finite lower bound"):
        solve_lp(prob)
    sol = solve_lp_scipy(prob)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(-5.0)


def test_fixed_variable_bounds():
    prob = lp([1.0, 1.0], [[1.0, 1.0]], [GE], [2.0],
              lower=[1.5, 0.0], upper=[1.5, np.inf])
    sol = solve_lp(prob)
    assert sol.status == OPTIMAL
    np.testing.assert_allclose(sol.x, [1.5, 0.5], atol=1e-9)


def test_no_rows_solves_on_bounds():
    # every model MO builds has rows: the bundled simplex refuses a rowless
    # problem, HiGHS puts each column on its cheapest bound
    prob = lp([1.0, -1.0], np.zeros((0, 2)), [], [],
              lower=[0.0, 0.0], upper=[np.inf, 4.0])
    with pytest.raises(ValueError, match="at least one row"):
        solve_lp(prob)
    sol = solve_lp_scipy(prob)
    assert sol.status == OPTIMAL
    np.testing.assert_allclose(sol.x, [0.0, 4.0])


def test_iteration_limit_flagged():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(12, 8))
    prob = lp(rng.normal(size=8), a, [LE] * 12, rng.uniform(1, 2, size=12),
              upper=np.full(8, 5.0))
    sol = solve_lp(prob, max_iterations=1)
    assert sol.status == ITERATION_LIMIT
    assert sol.x is None


def test_highs_time_limit_reads_time_limit():
    # HiGHS reports its time and iteration limits as one linprog status; a
    # time limit must not read as an iteration limit
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios",
                        "grid1_k8.json")
    config = load_scenario(path)
    model = config.make_policy("mo").fluid_model(config.initial_state(episode_rng(0)))
    sol = solve_lp_scipy(model.problem, time_limit=1e-6)
    assert sol.status == TIME_LIMIT
    assert sol.x is None


def _random_lp(rng):
    n = int(rng.integers(2, 6))
    m = int(rng.integers(2, 8))
    a = rng.normal(size=(m, n)).round(3)
    b = rng.normal(loc=1.0, scale=1.0, size=m).round(3)
    c = rng.normal(size=n).round(3)
    senses = tuple(rng.choice([LE, GE], p=[0.7, 0.3]) for _ in range(m))
    upper = np.full(n, float(rng.uniform(0.5, 4.0)))
    return lp(c, a, senses, b, upper=upper)


def test_hundred_random_lps_match_vertex_enumeration():
    """Bundled simplex vs brute-force vertex enumeration on 100 boxed LPs."""
    rng = np.random.default_rng(42)
    solved = 0
    for _ in range(100):
        prob = _random_lp(rng)
        sol = solve_lp(prob)
        status, objective = enumerate_vertices(
            prob.c, prob.a.toarray(), prob.senses, prob.b,
            prob.lower, prob.upper)
        assert sol.status in (OPTIMAL, INFEASIBLE), sol.status
        assert sol.status == status
        if status == OPTIMAL:
            solved += 1
            assert sol.objective == pytest.approx(objective, abs=1e-6)
            assert check_feasible(prob, sol.x) <= 1e-6
    assert solved >= 50  # the generator should not be degenerate


def test_degenerate_lp_terminates():
    # many redundant constraints through the same vertex: classic cycling bait
    n = 4
    a = []
    b = []
    for i in range(n):
        row = np.zeros(n)
        row[i] = 1.0
        a.append(row)
        b.append(1.0)
    for _ in range(10):
        a.append(np.ones(n))
        b.append(float(n))
        a.append(np.arange(1, n + 1, dtype=float))
        b.append(float(n * (n + 1) / 2))
    prob = lp(-np.ones(n), np.array(a), [LE] * len(b), np.array(b))
    sol = solve_lp(prob)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(-float(n))


def test_scipy_bridge_matches_bundled():
    rng = np.random.default_rng(7)
    for _ in range(25):
        prob = _random_lp(rng)
        mine = solve_lp(prob)
        ref = solve_lp_scipy(prob)
        assert mine.status == ref.status
        if mine.status == OPTIMAL:
            assert mine.objective == pytest.approx(ref.objective, abs=1e-7)


def test_reported_solutions_are_feasible():
    rng = np.random.default_rng(3)
    for _ in range(50):
        prob = _random_lp(rng)
        sol = solve_lp(prob)
        if sol.status == OPTIMAL:
            assert check_feasible(prob, sol.x) <= 1e-6
