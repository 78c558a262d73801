import os

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from firegrid import lp as lp_module
from firegrid import mpsio
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
    LpSolution,
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


# -- the HiGHS binding against linprog -----------------------------------------

def linprog_reference(problem: LpProblem) -> LpSolution:
    """The problem solved by ``scipy.optimize.linprog``, as ``solve_lp_scipy``
    solved it before it called the HiGHS binding: the LE rows, then the GE
    rows negated as upper bounds, then the EQ rows, with presolve on."""
    from scipy.optimize import linprog

    senses = np.array(problem.senses)
    rows = {s: np.flatnonzero(senses == s) for s in (LE, GE, EQ)}
    a_ub = b_ub = a_eq = b_eq = None
    if rows[LE].size or rows[GE].size:
        a_ub = sp.vstack((problem.a[rows[LE]], -problem.a[rows[GE]]), format="csr")
        b_ub = np.concatenate((problem.b[rows[LE]], -problem.b[rows[GE]]))
    if rows[EQ].size:
        a_eq, b_eq = problem.a[rows[EQ]], problem.b[rows[EQ]]
    res = linprog(problem.c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=np.column_stack((problem.lower, problem.upper)),
                  method="highs", options={"presolve": True})
    status = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}.get(res.status, ITERATION_LIMIT)
    if status == OPTIMAL:
        return LpSolution(OPTIMAL, x=res.x, objective=float(res.fun), iterations=int(res.nit))
    return LpSolution(status, iterations=int(getattr(res, "nit", 0) or 0))


def assert_same_solve(problem: LpProblem):
    """``solve_lp_scipy`` and ``linprog`` agree to the last bit: status,
    iteration count, x and objective."""
    mine, ref = solve_lp_scipy(problem), linprog_reference(problem)
    assert (mine.status, mine.iterations) == (ref.status, ref.iterations)
    if ref.x is None:
        assert mine.x is None and mine.objective is None
    else:
        assert mine.x.tobytes() == ref.x.tobytes()
        assert np.float64(mine.objective).tobytes() == np.float64(ref.objective).tobytes()
    return mine.status


def test_highs_binding_matches_linprog_on_random_lps():
    rng = np.random.default_rng(11)
    seen = set()
    for _ in range(60):
        prob = _random_lp(rng)
        seen.add(assert_same_solve(prob))
        # unboxed, some of them are unbounded; with EQ rows, others infeasible
        seen.add(assert_same_solve(prob.with_columns(prob.c, prob.lower,
                                                     np.full(len(prob.c), np.inf))))
        senses = tuple(EQ if i % 3 == 0 else s for i, s in enumerate(prob.senses))
        seen.add(assert_same_solve(LpProblem(prob.c, prob.a, senses, prob.b,
                                             prob.lower, prob.upper)))
    assert seen == {OPTIMAL, INFEASIBLE, UNBOUNDED}


def test_highs_binding_matches_linprog_on_relax_round_lps(monkeypatch):
    # each decision's relaxed LP and its rounded re-solve, as MO hands them over
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios",
                        "grid1_k8.json")
    config = load_scenario(path)
    policy = config.make_policy("mo")
    solved = []

    def record(problem, time_limit=None):
        solved.append(problem)
        return solve_lp_scipy(problem, time_limit=time_limit)

    monkeypatch.setattr("firegrid.fluid.solve_lp_scipy", record)
    for seed in range(3):
        policy(config.initial_state(episode_rng(seed)))
    assert len(solved) == 6
    for problem in solved:
        assert assert_same_solve(problem) == OPTIMAL


def test_with_columns_solves_as_the_problem_built_from_scratch():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios",
                        "grid1_k8.json")
    config = load_scenario(path)
    model = config.make_policy("mo").fluid_model(config.initial_state(episode_rng(4)))
    problem = model.problem
    relaxed = solve_lp_scipy(problem)  # loads the rows that derived problems share
    assert relaxed.status == OPTIMAL
    # new costs, and the indicators fixed at their relaxed values rounded
    c = problem.c - np.random.default_rng(0).uniform(0.0, 1e-3, size=len(problem.c))
    z = model.columns["Z"]
    lower, upper = problem.lower.copy(), problem.upper.copy()
    lower[z] = upper[z] = np.round(relaxed.x[z])
    derived = problem.with_columns(c, lower, upper)
    assert derived._rows is problem._rows
    scratch = LpProblem(c, problem.a, problem.senses, problem.b, lower, upper)
    mine, ref = solve_lp_scipy(derived), solve_lp_scipy(scratch)
    assert (mine.status, mine.iterations) == (OPTIMAL, ref.iterations)
    assert mine.x.tobytes() == ref.x.tobytes()
    assert_same_solve(derived)


@pytest.mark.parametrize("where", ["c", "a", "b"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_highs_binding_rejects_non_finite_input(where, bad):
    prob = lp([1.0, 2.0], [[1.0, 1.0], [1.0, -1.0]], [GE, EQ], [1.0, 0.0])
    values = prob.a.data if where == "a" else getattr(prob, where)
    values[1] = bad
    with pytest.raises(ValueError, match=f"^{where} must not contain"):
        solve_lp_scipy(prob)


@pytest.mark.parametrize("solver", [solve_lp, solve_lp_scipy])
@pytest.mark.parametrize("where", ["c", "a", "b"])
def test_both_solvers_reject_non_finite_input(where, solver):
    for bad in (np.nan, np.inf, -np.inf):
        prob = lp([1.0, 2.0], [[1.0, 1.0], [1.0, -1.0]], [GE, EQ], [1.0, 0.0])
        values = prob.data if where == "a" else getattr(prob, where)
        values[1] = bad
        with pytest.raises(ValueError, match=f"^{where} must not contain"):
            solver(prob)


def test_an_optimum_violating_a_row_reads_iteration_limit(monkeypatch):
    # x = (1, 1) meets every bound and both rows of x0 + x1 >= 1, x0 - x1 = 0
    prob = lp([1.0, 2.0], [[1.0, 1.0], [1.0, -1.0]], [GE, EQ], [1.0, 0.0])
    form = lp_module._RowForm(prob)
    x, bounds = np.ones(2), (prob.lower, prob.upper)
    tol = lp_module._CHECK_TOL
    # row values in the form's order: the GE row negated, then the EQ row
    assert lp_module._passes_check(form, x, 3.0, np.array([-2.0, 0.0]), *bounds)
    assert lp_module._passes_check(form, x, 3.0, np.array([-1.0 - 0.5 * tol, 0.5 * tol]),
                                   *bounds)
    assert not lp_module._passes_check(form, x, 3.0, np.array([-1.0 + 2 * tol, 0.0]),
                                       *bounds)
    assert not lp_module._passes_check(form, x, 3.0, np.array([-2.0, 2 * tol]), *bounds)
    assert not lp_module._passes_check(form, x, 3.0, np.array([-2.0, np.nan]), *bounds)
    assert not lp_module._passes_check(form, x, np.nan, np.array([-2.0, 0.0]), *bounds)
    assert not lp_module._passes_check(form, np.array([1.0, -2 * tol]), 3.0,
                                       np.array([-2.0, 0.0]), *bounds)
    # and solve_lp_scipy reports an optimum that fails the check as unsolved
    assert solve_lp_scipy(prob).status == OPTIMAL
    monkeypatch.setattr(lp_module, "_passes_check", lambda *args: False)
    sol = solve_lp_scipy(prob)
    assert sol.status == ITERATION_LIMIT and sol.x is None


# -- the rows HiGHS is handed, and the MPS writer's columns ---------------------

def same_bits(mine, ref) -> bool:
    mine, ref = np.asarray(mine), np.asarray(ref)
    return mine.dtype.kind == ref.dtype.kind and mine.tobytes() == ref.astype(mine.dtype).tobytes()


def assert_row_form_is_scipys(problem: LpProblem):
    """``_RowForm`` hands HiGHS, bit for bit, the compressed rows of scipy's
    ``vstack([A_le, -A_ge, A_eq]).tocsr()`` and their bounds, ``linprog``'s
    layout, and the MPS writer's ``_columns`` are ``a.tocsc()``."""
    senses = np.array(problem.senses)
    a_le, a_ge, a_eq = (problem.a[np.flatnonzero(senses == s)] for s in (LE, GE, EQ))
    n_ub = a_le.shape[0] + a_ge.shape[0]
    rows = sp.vstack([a_le, -a_ge, a_eq]).tocsr()
    rhs = np.concatenate((problem.b[senses == LE], -problem.b[senses == GE],
                          problem.b[senses == EQ]))
    form = lp_module._RowForm(problem)
    matrix = form.lp.a_matrix_
    assert matrix.format_ == lp_module._highs().MatrixFormat.kRowwise
    assert matrix.start_ == rows.indptr.tolist()
    assert matrix.index_ == rows.indices.tolist()
    assert same_bits(matrix.value_, rows.data)
    assert same_bits(form.lp.row_lower_, np.concatenate((np.full(n_ub, -np.inf), rhs[n_ub:])))
    assert same_bits(form.lp.row_upper_, rhs)
    whole = problem.a.tocsc()
    start, index, value = mpsio._columns(problem)
    assert start.tolist() == whole.indptr.tolist()
    assert index.tolist() == whole.indices.tolist()
    assert same_bits(value, whole.data)


@pytest.mark.parametrize("name", ["grid1_k8", "grid2_k9", "grid1_k20", "tiny_explicit"])
def test_row_form_is_scipys_on_shipped_models(name):
    config = load_scenario(os.path.join(os.path.dirname(__file__), os.pardir, "scenarios",
                                        f"{name}.json"))
    policy = config.make_policy("mo")
    assert_row_form_is_scipys(policy.fluid_model(config.initial_state(episode_rng(0))).problem)


@st.composite
def csr_problems(draw):
    """Up to 7 rows of any mix of senses over up to 6 columns, as raw CSR
    arrays: a row's entries come in any column order, may repeat a column
    or hold an explicit zero, and a row or column may have none."""
    n = draw(st.integers(1, 6))
    senses = draw(st.lists(st.sampled_from([LE, GE, EQ]), min_size=1, max_size=7))
    value = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -1e-300, 3e7])
    rows = [draw(st.lists(st.tuples(st.integers(0, n - 1), value), max_size=5))
            for _ in senses]
    data = np.array([v for row in rows for _, v in row], dtype=float)
    indices = np.array([j for row in rows for j, _ in row], dtype=np.int32)
    indptr = np.concatenate(([0], np.cumsum([len(row) for row in rows])))
    b = np.array(draw(st.lists(value, min_size=len(senses), max_size=len(senses))))
    return LpProblem(np.ones(n), lp_module.Csr(data, indices, indptr), tuple(senses), b,
                     np.zeros(n), np.full(n, np.inf))


@given(csr_problems())
@settings(max_examples=300, deadline=None)
def test_row_form_is_scipys_on_any_csr_arrays(problem):
    assert_row_form_is_scipys(problem)


@pytest.mark.parametrize("data, indices, indptr, message", [
    ([1.0, 2.0], [0, 1], [0, 1, 2, 2], "row size mismatch"),
    ([1.0, 2.0], [0, 1], [1, 1, 2], "malformed"),
    ([1.0, 2.0], [0, 1], [0, 2, 1], "malformed"),
    ([1.0, 2.0], [0, 1], [0, 1, 1], "malformed"),
    ([1.0, 2.0], [0], [0, 1, 2], "malformed"),
    ([1.0, 2.0], [0, 2], [0, 1, 2], "malformed"),
    ([1.0, 2.0], [-1, 1], [0, 1, 2], "malformed"),
])
def test_inconsistent_csr_arrays_are_rejected(data, indices, indptr, message):
    a = lp_module.Csr(np.array(data), np.array(indices), np.array(indptr))
    with pytest.raises(ValueError, match=message):
        LpProblem(np.ones(2), a, (LE, LE), np.ones(2), np.zeros(2), np.ones(2))


def test_a_matrix_with_other_columns_than_c_is_rejected():
    with pytest.raises(ValueError, match="column size mismatch"):
        LpProblem(np.ones(3), sp.csr_matrix(np.ones((2, 2))), (LE, LE), np.ones(2),
                  np.zeros(3), np.ones(3))


def test_standard_form_sums_duplicate_entries_as_toarray_does():
    # row 0 holds column 1 three times and column 0 twice, out of order
    a = sp.csr_matrix((np.array([0.1, 0.2, -3.0, 0.7, 1e-17, 5.0]),
                       np.array([1, 0, 1, 0, 1, 2]), np.array([0, 5, 6])), shape=(2, 3))
    args = (np.array([1.0, -1.0, 0.5]), (LE, GE), np.array([1.0, 2.0]), np.zeros(3),
            np.array([np.inf, 4.0, np.inf]))
    duplicated = LpProblem(args[0], a, *args[1:])
    dense = LpProblem(args[0], a.toarray(), *args[1:])
    assert duplicated.data.size == 6 and dense.data.size == 3
    for mine, ref in zip(lp_module._standard_form(duplicated), lp_module._standard_form(dense)):
        assert same_bits(mine, ref)


# -- loading the HiGHS binding -------------------------------------------------

def _run_python(code: str, *args: str) -> str:
    import subprocess
    import sys

    here = os.path.dirname(__file__)
    path = os.pathsep.join((os.path.join(here, os.pardir, "src"), here))
    done = subprocess.run([sys.executable, "-W", "error", "-c", code, *args],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_highs_binding_is_one_module_before_and_after_scipy_optimize():
    # MO decides with scipy.optimize unloaded; linprog, imported afterwards,
    # runs on the very module MO loaded and agrees with it on MO's LPs
    code = (
        "import sys\n"
        "from firegrid import fluid, lp\n"
        "from firegrid.harness import episode_rng, load_scenario\n"
        "config = load_scenario(sys.argv[1])\n"
        "policy = config.make_policy('mo')\n"
        "solved = []\n"
        "def record(problem, time_limit=None):\n"
        "    solved.append((problem, lp.solve_lp_scipy(problem, time_limit=time_limit)))\n"
        "    return solved[-1][1]\n"
        "fluid.solve_lp_scipy = record\n"
        "policy(config.initial_state(episode_rng(0)))\n"
        "assert not policy.last['fallback']\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "core = lp._highs()\n"
        "from scipy.optimize import linprog\n"
        "from scipy.optimize._highspy import _highs_wrapper\n"
        "assert sys.modules['scipy.optimize._highspy._core'] is lp._highs() is core\n"
        "assert _highs_wrapper._h is core\n"
        "from test_lp import linprog_reference\n"
        "for problem, mine in solved:\n"
        "    ref = linprog_reference(problem)\n"
        "    assert (mine.status, mine.iterations) == (ref.status, ref.iterations)\n"
        "    assert mine.x.tobytes() == ref.x.tobytes()\n"
        "    assert mine.objective == ref.objective\n"
        "print(len(solved), mine.status)\n"
    )
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios", "grid1_k8.json")
    assert _run_python(code, path).split() == ["2", OPTIMAL]


def test_highs_loader_returns_the_module_scipy_optimize_imported():
    code = (
        "import scipy.optimize\n"
        "from scipy.optimize._highspy import _core\n"
        "from firegrid import lp\n"
        "print(lp._highs() is _core)\n"
    )
    assert _run_python(code).split() == ["True"]


def test_highs_loader_runs_no_scipy_module():
    # the binding's directory is found without running scipy's __init__: the
    # binding and the submodules it registers are all the scipy in the process
    code = (
        "import sys\n"
        "from firegrid import lp\n"
        "lp._highs()\n"
        "scipy = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "print(lp._HIGHS in scipy, [m for m in scipy if not m.startswith(lp._HIGHS)])\n"
    )
    assert _run_python(code).split() == ["True", "[]"]


def test_highs_loader_names_the_missing_extension_file(monkeypatch, tmp_path):
    import importlib.machinery
    import importlib.util
    import sys

    (tmp_path / "optimize" / "_highspy").mkdir(parents=True)
    monkeypatch.delitem(sys.modules, lp_module._HIGHS, raising=False)
    scipy_spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    scipy_spec.submodule_search_locations = [str(tmp_path)]
    find_spec = importlib.util.find_spec
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name, *args: scipy_spec if name == "scipy" else find_spec(name, *args))
    missing = os.path.join(str(tmp_path), "optimize", "_highspy",
                           "_core" + importlib.machinery.EXTENSION_SUFFIXES[0])
    with pytest.raises(ImportError) as raised:
        lp_module._highs()
    assert missing in str(raised.value)
    assert raised.value.path == missing
    # and without scipy at all, the error names scipy
    scipy_spec = None
    with pytest.raises(ImportError, match="No module named 'scipy'") as raised:
        lp_module._highs()
    assert raised.value.name == "scipy"
