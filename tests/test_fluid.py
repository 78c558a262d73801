import os
import time
import types
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from firegrid.fluid import (
    Calibration,
    MoConfig,
    MoPolicy,
    _action_from_scores,
    build_model,
    calibrate,
    relax_and_score,
)
from firegrid.harness import episode_rng, load_scenario, scenario_from_dict
from firegrid.heuristics import all_pairs_distances, fw_policy, fw_weights
from firegrid.lp import EQ, GE, LE, OPTIMAL, LpProblem, solve_lp, solve_lp_scipy
from firegrid.mdp import IDLE, FireState, GridSpec, RewardModel, SpreadModel, idle_action
from firegrid.milp import branch_and_bound
from firegrid.mpsio import write_mps

from oracles import (
    fluid_recursion,
    parse_mps,
    reference_action_from_scores,
    reference_build_model,
    reference_calibrate,
)


def uniform(k, h=None, p=0.06, q=0.8):
    spec = GridSpec(k, h or k)
    return spec, SpreadModel.uniform(spec, p, q)


# -- calibration ------------------------------------------------------------

def test_calibrate_no_burning_cells():
    spec, spread = uniform(2)
    state = FireState((0, 0, 0, 0), (5, 5, 5, 5))
    cal = calibrate(spread, state, 4)
    assert np.all(cal.ibar == 0.0)
    np.testing.assert_allclose(cal.f0, 0.1)


def test_calibrate_isolated_cell_no_edges():
    spec = GridSpec(2, 2)
    spread = SpreadModel(spec, {}, [0.8] * 4)  # no transmission at all
    state = FireState((1, 0, 0, 0), (9, 9, 9, 9))
    cal = calibrate(spread, state, 5)
    np.testing.assert_allclose(cal.ibar[:, 0], 1.0)


def test_calibrate_two_cell_doubling():
    # both cells of a 1x2 grid burning: each cap doubles per period
    spec, spread = uniform(2, 1)
    state = FireState((1, 1), (9, 9))
    cal = calibrate(spread, state, 2)
    np.testing.assert_allclose(cal.ibar[1], [2.0, 2.0])
    np.testing.assert_allclose(cal.ibar[2], [4.0, 4.0])


def test_calibrate_fuel_budget_truncates_at_fuel():
    spec, spread = uniform(2, 1)
    state = FireState((1, 1), (1, 9))
    cal = calibrate(spread, state, 3)
    # f0 = delta + sum of ibar over t = 0..min(T, fuel)
    assert cal.f0[0] == pytest.approx(0.1 + 1.0 + 2.0)
    assert cal.f0[1] == pytest.approx(0.1 + 1.0 + 2.0 + 4.0 + 8.0)


def test_calibration_reuses_mdp_rates():
    spec, spread = uniform(2)
    state = FireState((1, 0, 0, 0), (3,) * 4)
    cal = calibrate(spread, state, 2)
    assert cal.spread is spread


# -- model structure ---------------------------------------------------------

def test_variable_and_row_counts_single_cell():
    spec, spread = uniform(1)
    state = FireState((1,), (5,))
    rewards = RewardModel((-1.0,))
    cal = calibrate(spread, state, 1)
    for teams in (0, 1, 3):
        model = build_model(cal, state, rewards, teams)
        assert model.problem.shape == (10, 8)
        # row kinds from the oracle, whose row order build_model matches
        ref = summed_teams(reference_build_model(cal, state, rewards, max(teams, 1)),
                           1, 1, teams)
        assert model.problem.senses == ref.senses
        kinds = [label[0] for label in ref.row_labels]
        assert kinds.count("dyn") == 1
        assert kinds.count("fuel") == 2
        assert kinds.count("force_lo") == 2
        assert kinds.count("force_hi") == 2
        assert kinds.count("cutoff") == 1
        assert kinds.count("assign") == 2


def test_variable_counts_scale_exactly():
    # one assignment column y(t, x) per cell and period, whatever the teams
    spec, spread = uniform(2)
    state = FireState((1, 0, 0, 0), (4,) * 4)
    for teams in (0, 1, 3):
        model = build_model(calibrate(spread, state, 3), state,
                            RewardModel((-1.0,) * 4), teams)
        n = 4 * (3 + 1)
        assert model.problem.shape[1] == n * 4
        assert int(model.integer_mask.sum()) == n * 2
        np.testing.assert_array_equal(model.problem.upper[3 * n:], teams)


def test_zero_teams_model_feasible():
    spec, spread = uniform(2)
    state = FireState((1, 0, 0, 0), (9,) * 4)
    model = build_model(calibrate(spread, state, 3), state,
                        RewardModel((-1.0,) * 4), 0)
    sol = solve_lp(model.problem)
    assert sol.status == OPTIMAL


def test_non_burning_grid_objective_zero():
    spec, spread = uniform(2)
    state = FireState((0, 0, 0, 0), (5,) * 4)
    model = build_model(calibrate(spread, state, 3), state,
                        RewardModel((-2.0,) * 4), 1)
    sol = solve_lp(model.problem)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


def test_time_zero_intensity_fixed_from_burning_map():
    spec, spread = uniform(2)
    state = FireState((1, 0, 1, 0), (4,) * 4)
    model = build_model(calibrate(spread, state, 2), state,
                        RewardModel((-1.0,) * 4), 1)
    sol = solve_lp(model.problem)
    np.testing.assert_allclose(sol.x[model.columns["I"][0]], [1, 0, 1, 0],
                               atol=1e-9)


# -- solved-model invariants --------------------------------------------------

def _solved_small_milp():
    spec, spread = uniform(2)
    state = FireState((1, 1, 0, 0), (8, 8, 8, 8))
    model = build_model(calibrate(spread, state, 3), state,
                        RewardModel((-1.0, -2.0, -2.0, -4.0)), 1)
    res = branch_and_bound(model.problem, model.integer_mask)
    assert res.status == OPTIMAL
    return model, res


def test_fuel_accounting_exact():
    model, res = _solved_small_milp()
    intensity = res.x[model.columns["I"]]
    fuel = res.x[model.columns["F"]]
    f0 = model.calibration.f0
    for t in range(model.calibration.horizon + 1):
        expected = f0 - intensity[:t].sum(axis=0)
        np.testing.assert_allclose(fuel[t], expected, atol=1e-7)


def test_indicator_forces_fuel_band():
    model, res = _solved_small_milp()
    fuel = res.x[model.columns["F"]]
    delta = model.calibration.delta
    for t in range(model.calibration.horizon + 1):
        for cell in range(len(model.state.burning)):
            z = res.x[model.columns["Z"][t, cell]]
            if z > 0.5:
                assert fuel[t, cell] <= delta + 1e-7
            else:
                assert fuel[t, cell] >= delta - 1e-7


def test_milp_objective_bounded_by_relaxation():
    model, res = _solved_small_milp()
    relax = solve_lp(model.problem)
    assert relax.objective <= res.objective + 1e-9


def test_zero_team_trajectory_matches_forward_recursion():
    spec, spread = uniform(3)
    state = FireState((0, 0, 0, 0, 1, 0, 0, 0, 0), (20,) * 9)
    horizon = 4
    model = build_model(calibrate(spread, state, horizon), state,
                        RewardModel(tuple(-1.0 - 0.2 * i for i in range(9))), 0)
    res = branch_and_bound(model.problem, model.integer_mask)
    assert res.status == OPTIMAL
    oracle = fluid_recursion(spread, state, horizon)
    assert oracle is not None
    np.testing.assert_allclose(res.x[model.columns["I"]], oracle, atol=1e-6)


def test_recursion_rows_tight_where_intensity_positive():
    spec, spread = uniform(3)
    state = FireState((0, 1, 0, 0, 1, 0, 0, 0, 0), (15,) * 9)
    horizon = 3
    rewards = RewardModel(tuple(-1.0 - 0.1 * i for i in range(9)))
    cal = calibrate(spread, state, horizon)
    model = build_model(cal, state, rewards, 0)
    res = branch_and_bound(model.problem, model.integer_mask)
    assert res.status == OPTIMAL
    residual = model.problem.a @ res.x - model.problem.b
    intensity = res.x[model.columns["I"]]
    # row kinds from the oracle, whose row order build_model matches bit for bit
    labels = summed_teams(reference_build_model(cal, state, rewards, 1),
                          9, horizon, 0).row_labels
    assert len(labels) == len(residual)
    for row, label in enumerate(labels):
        if label[0] == "dyn":
            _, t, cell = label
            if intensity[t, cell] > 1e-9:
                assert abs(residual[row]) <= 1e-6


# -- relax-and-score ----------------------------------------------------------

def test_relax_and_score_single_burning_cell():
    spec, spread = uniform(2)
    state = FireState((0, 1, 0, 0), (6,) * 4)
    model = build_model(calibrate(spread, state, 3), state,
                        RewardModel((-1.0, -5.0, -1.0, -1.0)), 2)
    action, info = relax_and_score(model)
    assert action == (1, 1)
    assert info["status"] in (OPTIMAL, "optimal")


def test_relax_and_score_top_two_rule():
    # doctor the scores directly: the ranking rule is deterministic
    state = FireState((1, 1, 1, 0), (3, 3, 3, 3))
    v = np.array([0.9, 0.7, 0.1, 0.0])
    assert _action_from_scores(state, v, 2) == (0, 1)
    # fewer positive-score cells than teams: stack the surplus on the best
    v = np.array([0.9, 0.0, 0.0, 0.0])
    assert _action_from_scores(state, v, 3) == (0, 0, 0)
    # exhausted cells are skipped while alternatives remain
    state = FireState((1, 1, 0, 0), (0, 3, 3, 3))
    v = np.array([0.9, 0.7, 0.0, 0.0])
    assert _action_from_scores(state, v, 1) == (1,)


def test_relax_round_path_matches_bnb_on_small_instance():
    spec, spread = uniform(2)
    state = FireState((1, 1, 0, 0), (8,) * 4)
    model = build_model(calibrate(spread, state, 3), state,
                        RewardModel((-1.0, -2.0, -2.0, -4.0)), 1)
    exact, info_exact = relax_and_score(model)
    rounded, info_round = relax_and_score(model, bnb_binary_cap=0)
    assert info_exact["mode"] == "branch-and-bound"
    assert info_round["mode"] == "relax-round"
    assert exact == rounded


def test_bundled_and_exported_external_solve_agree():
    # same relaxation solved by the bundled simplex and by scipy reading the
    # exported file: time-zero assignment scores agree
    spec, spread = uniform(2)
    state = FireState((1, 1, 0, 0), (6, 4, 9, 9))
    model = build_model(calibrate(spread, state, 3), state,
                        RewardModel((-1.0, -3.0, -5.0, -9.0)), 1)
    relaxed = model.problem
    mine = solve_lp(relaxed)
    parsed, _, _ = parse_mps(write_mps(relaxed, model.integer_mask))
    external = solve_lp_scipy(parsed)
    assert mine.status == external.status == OPTIMAL
    assert mine.objective == pytest.approx(external.objective, abs=1e-7)
    y0 = model.columns["y"][0]
    np.testing.assert_allclose(mine.x[y0], external.x[y0], atol=1e-5)


def recording_highs(monkeypatch, pause=0.0):
    """Route MO's HiGHS calls through a recorder; returns the list of the
    time limits each call was handed.  Each call first sleeps ``pause``
    seconds and then solves with the limit it was given."""
    limits = []

    def solve(problem, time_limit=None):
        limits.append(time_limit)
        time.sleep(pause)
        return solve_lp_scipy(problem, time_limit=time_limit)

    monkeypatch.setattr("firegrid.fluid.solve_lp_scipy", solve)
    return limits


def test_time_limit_bounds_the_whole_relax_round_decision(monkeypatch):
    # one deadline per call: the re-solve gets only what the first LP left
    spec, spread = uniform(2)
    rewards = RewardModel((-1.0, -2.0, -2.0, -4.0))
    state = FireState((1, 1, 0, 0), (8,) * 4)
    model = build_model(calibrate(spread, state, 3), state, rewards, 1)
    limits = recording_highs(monkeypatch, pause=0.05)
    action, info = relax_and_score(model, time_limit=5.0, bnb_binary_cap=0)
    assert action is not None and info["status"] == OPTIMAL
    assert len(limits) == 2
    assert limits[0] <= 5.0 and limits[1] <= limits[0] - 0.05
    # nothing left after the first LP: no action, and MoPolicy falls back
    policy = MoPolicy(spread, rewards, 1,
                      MoConfig(horizon=3, time_limit=0.04, bnb_binary_cap=0),
                      fw_fallback(spread, rewards, 1))
    limits.clear()
    action = policy(state, None)
    assert len(limits) == 1 and limits[0] <= 0.04
    assert policy.fallbacks == 1
    assert policy.last["status"] == "time-limit" and policy.last["fallback"]
    assert state.burning[action[0]]


def test_a_highs_time_limit_reads_time_limit(monkeypatch):
    # HiGHS stopped on its time limit, in the first solve or in the re-solve
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios",
                        "grid1_k8.json")
    config = load_scenario(path)
    model = config.make_policy("mo").fluid_model(config.initial_state(episode_rng(0)))
    action, info = relax_and_score(model, time_limit=1e-6, bnb_binary_cap=0)
    assert action is None and info["status"] == "time-limit"
    calls = []

    def solve(problem, time_limit=None):
        calls.append(problem)
        return solve_lp_scipy(problem, time_limit=None if len(calls) == 1 else 1e-6)

    monkeypatch.setattr("firegrid.fluid.solve_lp_scipy", solve)
    action, info = relax_and_score(model, bnb_binary_cap=0)
    assert action is None and info["status"] == "rounded-time-limit"


def test_time_limit_bounds_every_branch_and_bound_node(monkeypatch):
    model, _ = _solved_small_milp()
    limits = recording_highs(monkeypatch, pause=0.001)
    action, info = relax_and_score(model, time_limit=30.0)
    assert info["mode"] == "branch-and-bound" and action is not None
    assert len(limits) > 1 and limits[0] <= 30.0
    assert all(later < earlier for earlier, later in zip(limits, limits[1:]))


def test_integer_columns_cost_nothing_on_tiny_explicit():
    # branch and bound returns the first integral node it pops; that node is
    # optimal only while rounding the integer columns cannot move c @ x
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios",
                        "tiny_explicit.json")
    config = load_scenario(path)
    model = config.make_policy("mo").fluid_model(config.initial_state(episode_rng(0)))
    assert model.integer_mask.any()
    assert not model.problem.c[model.integer_mask].any()


# -- the receding-horizon controller ------------------------------------------

def fw_fallback(spread, rewards, teams):
    """The fw policy a scenario hands its MO policy as the fallback."""
    weights = fw_weights(all_pairs_distances(spread), rewards)
    return lambda state, rng: fw_policy(state, weights, teams)


def corridor_policy(teams=1, horizon=4):
    spec = GridSpec(3, 1)
    spread = SpreadModel.uniform(spec, 0.3, 0.8)
    rewards = RewardModel((-1.0, -1.0, -10.0))
    return spec, spread, rewards, MoPolicy(
        spread, rewards, teams,
        MoConfig(horizon=horizon, time_limit=None, backend="bundled"),
        fw_fallback(spread, rewards, teams))


def test_mo_policy_idle_without_fire():
    _, _, _, policy = corridor_policy()
    assert policy(FireState((0, 0, 0), (5, 5, 5)), None) == idle_action(1)


def test_mo_policy_guards_the_expensive_side():
    # fire on the cheap end of a corridor pointing at a -10 cell: the team
    # goes to the burning cell adjacent to the expensive side
    _, _, _, policy = corridor_policy()
    state = FireState((1, 1, 0), (6, 6, 6))
    assert policy(state, None) == (1,)
    assert policy.fallbacks == 0


def test_mo_policy_deterministic():
    _, _, _, policy = corridor_policy()
    state = FireState((1, 1, 0), (6, 6, 6))
    first = policy(state, None)
    for _ in range(3):
        assert policy(state, None) == first


def test_mo_policy_rescues_one_doomed_cell_with_a_team():
    # one exhausted burning cell: the only feasible solutions park the team
    # on it, so the model solves and the mapped action skips the dead cell
    spec, spread = uniform(2)
    rewards = RewardModel((-1.0, -2.0, -2.0, -4.0))
    policy = MoPolicy(spread, rewards, 1,
                      MoConfig(horizon=3, time_limit=None, backend="bundled",
                               bnb_binary_cap=0),
                      fw_fallback(spread, rewards, 1))
    state = FireState((1, 1, 0, 0), (0, 8, 8, 8))
    action = policy(state, None)
    assert policy.fallbacks == 0
    assert action == (1,)  # the only burning cell with fuel left


def test_mo_policy_falls_back_on_infeasible_model():
    # two exhausted burning cells and one team: the indicator lag forces
    # intensity the fuel equation cannot fund, so the model is infeasible
    spec, spread = uniform(2)
    rewards = RewardModel((-1.0, -2.0, -2.0, -4.0))
    policy = MoPolicy(spread, rewards, 1,
                      MoConfig(horizon=3, time_limit=None, backend="bundled",
                               bnb_binary_cap=0),
                      fw_fallback(spread, rewards, 1))
    state = FireState((1, 1, 0, 0), (0, 0, 8, 8))
    action = policy(state, None)
    assert policy.fallbacks == 1
    weights = fw_weights(all_pairs_distances(spread), rewards)
    assert action == fw_policy(state, weights, 1)
    assert state.burning[action[0]]


def test_mo_policy_falls_back_when_the_solve_reports_nothing(monkeypatch):
    # a solve that gives no action and an empty info must still play fw and
    # describe the decision
    import firegrid.fluid

    monkeypatch.setattr(firegrid.fluid, "relax_and_score", lambda *a, **k: (None, {}))
    _, _, _, policy = corridor_policy()
    state = FireState((1, 1, 0), (6, 6, 6))
    action = policy(state, None)
    assert policy.fallbacks == 1
    assert state.burning[action[0]]
    assert policy.last == {"mode": None, "status": None, "objective": None,
                           "fallback": True}
    policy.reset()
    assert (policy.fallbacks, policy.last) == (0, {})


@st.composite
def scored_fires(draw):
    """A state on 1-16 cells, 0-3 teams and any finite score per cell, with
    scores that tie (0.0 and -0.0 among them) or sit at the 1e-9 cut."""
    n = draw(st.integers(1, 16))
    cells = lambda values: st.lists(values, min_size=n, max_size=n)  # noqa: E731
    state = FireState(tuple(draw(cells(st.integers(0, 1)))),
                      tuple(draw(cells(st.integers(0, 3)))))
    score = st.one_of(st.sampled_from([0.0, -0.0, 1e-9, 0.5]), st.floats(-2.0, 2.0))
    scores = np.array(draw(cells(score)))
    return state, scores, draw(st.integers(0, 3))


@given(scored_fires())
@settings(max_examples=200, deadline=None)
def test_action_from_scores_targets_only_burning_cells(case):
    state, scores, teams = case
    action = _action_from_scores(state, scores, teams)
    assert action == reference_action_from_scores(state, scores, teams)
    assert all(type(t) is int for t in action)
    assert len(action) == teams
    if 1 in state.burning:
        assert all(state.burning[x] for x in action)
    else:
        assert action == (IDLE,) * teams


def test_mo_policy_plays_the_fallback_it_was_given(monkeypatch):
    import firegrid.fluid

    monkeypatch.setattr(firegrid.fluid, "relax_and_score", lambda *a, **k: (None, {}))
    spec = GridSpec(3, 1)
    calls = []

    def fallback(state, rng):
        calls.append((state, rng))
        return (2,)

    policy = MoPolicy(SpreadModel.uniform(spec, 0.3, 0.8), RewardModel((-1.0,) * 3), 1,
                      MoConfig(horizon=2, time_limit=None), fallback)
    state, rng = FireState((1, 0, 1), (4, 4, 4)), object()
    assert policy(state, rng) == (2,)
    assert calls == [(state, rng)]


def test_mo_policy_fluid_model_uses_the_config():
    _, spread, rewards, policy = corridor_policy(teams=2, horizon=3)
    policy.config.delta = 0.25
    state = FireState((1, 1, 0), (6, 6, 6))
    model = policy.fluid_model(state)
    assert (model.calibration.horizon, model.teams, model.calibration.delta) == (3, 2, 0.25)
    expected = build_model(calibrate(spread, state, 3, delta=0.25), state, rewards, 2)
    assert (model.problem.a != expected.problem.a).nnz == 0
    np.testing.assert_array_equal(model.problem.b, expected.problem.b)


def test_mo_policy_infeasible_even_with_branching():
    spec, spread = uniform(2)
    rewards = RewardModel((-1.0, -2.0, -2.0, -4.0))
    state = FireState((1, 0, 0, 0), (0, 8, 8, 8))
    model = build_model(calibrate(spread, state, 3), state, rewards, 0)
    res = branch_and_bound(model.problem, model.integer_mask)
    assert res.status == "infeasible"
    assert fluid_recursion(spread, state, 3) is None


# -- the cached-pattern builder against the row-by-row oracle ------------------

@st.composite
def fluid_cases(draw):
    """A grid of up to 4 x 3 cells with per-edge P (0 drops the edge), per-cell
    Q (0 drops the relief), a random fire and fuel, horizon 1-4, 0-3 teams."""
    spec = GridSpec(draw(st.integers(1, 4)), draw(st.integers(1, 3)),
                    draw(st.sampled_from(["four", "eight"])))
    n = spec.n_cells
    probs = st.sampled_from([0.0, 0.06, 0.3, 1.0])
    edges = {(x, y): draw(probs) for x in range(n) for y in spec.neighbors(x)}
    q = draw(st.lists(st.sampled_from([0.0, 0.5, 0.8]), min_size=n, max_size=n))
    cells = lambda values: st.lists(values, min_size=n, max_size=n)  # noqa: E731
    state = FireState(tuple(draw(cells(st.integers(0, 1)))),
                      tuple(draw(cells(st.integers(0, 5)))))
    rewards = RewardModel(tuple(draw(cells(st.sampled_from([0.0, -1.0, -2.5, -10.0])))))
    return (SpreadModel(spec, edges, q), state, rewards, draw(st.integers(1, 4)),
            draw(st.integers(0, 3)), draw(st.sampled_from([0.1, 0.25, 1.0])))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def summed_teams(ref, n, horizon, teams):
    """The per-team oracle model with its identical teams summed into one
    column y(t, x) per cell and period, ``teams`` of them at most.

    ``ref`` is the oracle built for max(teams, 1) teams: y(t, x) takes the
    team-0 column of A(t, x, i), and the period's assign rows are summed into
    one.  The aggregated matrix does not depend on the team count, so a zero
    team model projects from a one team oracle.
    """
    size = (horizon + 1) * n
    per_team = max(teams, 1)
    kept = len(ref.b) - (horizon + 1) * per_team
    cols = np.concatenate((np.arange(3 * size), 3 * size + np.arange(size) * per_team))
    rows = sp.block_diag((sp.identity(kept),
                          sp.kron(sp.identity(horizon + 1), np.ones((1, per_team)))),
                         format="csr")
    a = sp.csr_matrix(rows @ ref.a[:, cols])
    a.sort_indices()
    periods = range(horizon + 1)
    return types.SimpleNamespace(
        a=a, c=ref.c[cols], senses=ref.senses[:kept] + (LE,) * (horizon + 1),
        b=np.concatenate((ref.b[:kept], np.full(horizon + 1, float(teams)))),
        lower=ref.lower[cols],
        upper=np.concatenate((ref.upper[:3 * size], np.full(size, float(teams)))),
        integer_mask=ref.integer_mask[cols],
        row_labels=ref.row_labels[:kept] + [("assign", t) for t in periods])


@given(fluid_cases())
@settings(max_examples=150, deadline=None)
def test_build_model_matches_the_row_by_row_oracle(case):
    spread, state, rewards, horizon, teams, delta = case
    cal = calibrate(spread, state, horizon, delta=delta)
    ibar, f0 = reference_calibrate(spread, state, horizon, delta=delta)
    assert same_bits(cal.ibar, ibar)
    assert same_bits(cal.f0, f0)
    model = build_model(cal, state, rewards, teams)
    ref = summed_teams(reference_build_model(cal, state, rewards, max(teams, 1)),
                       len(state.burning), horizon, teams)
    a, a_ref = model.problem.a, ref.a
    assert a.shape == a_ref.shape
    assert np.array_equal(a.indptr, a_ref.indptr)
    assert np.array_equal(a.indices, a_ref.indices)
    assert same_bits(a.data, a_ref.data)
    for name in ("b", "c", "lower", "upper"):
        assert same_bits(getattr(model.problem, name), getattr(ref, name)), name
    assert model.problem.senses == ref.senses
    assert np.array_equal(model.integer_mask, ref.integer_mask)


@st.composite
def spread_fires(draw):
    """A grid of up to 5 x 4 cells, four or eight neighbours, with P drawn
    from [0, 1] and often exactly 0 (no edge) or 1, given as ints, and a
    random fire."""
    spec = GridSpec(draw(st.integers(1, 5)), draw(st.integers(1, 4)),
                    draw(st.sampled_from(["four", "eight"])))
    n = spec.n_cells
    probs = st.one_of(st.sampled_from([0, 1]), st.floats(0.0, 1.0))
    edges = {(x, y): draw(probs) for x in range(n) for y in spec.neighbors(x)}
    cells = lambda values: st.lists(values, min_size=n, max_size=n)  # noqa: E731
    state = FireState(tuple(draw(cells(st.integers(0, 1)))),
                      tuple(draw(cells(st.integers(0, 5)))))
    return SpreadModel(spec, edges, [0.8] * n), edges, state, draw(st.integers(1, 4))


@given(spread_fires())
@settings(max_examples=150, deadline=None)
def test_slot_table_lists_the_in_edges_and_its_readers_sum_them_in_order(case):
    spread, edges, state, horizon = case
    n = spread.spec.n_cells
    for x in range(n):
        listed = sorted((y, p) for (cell, y), p in edges.items() if cell == x and p > 0.0)
        assert list(spread.in_edges[x]) == listed
        assert all(type(p) is float for _, p in spread.in_edges[x])
    degree = max(map(len, spread.in_edges), default=0)
    assert spread.slot_source.shape == spread.slot_rate.shape == (degree, n)
    assert spread.slot_source.dtype == np.intp
    for x, listed in enumerate(spread.in_edges):
        column = list(zip(spread.slot_source[:, x].tolist(), spread.slot_rate[:, x].tolist()))
        assert column == list(listed) + [(0, 0.0)] * (degree - len(listed))

    cal = calibrate(spread, state, horizon)
    ibar, f0 = reference_calibrate(spread, state, horizon)
    assert list(map(float.hex, cal.ibar.ravel())) == list(map(float.hex, ibar.ravel()))
    model = build_model(cal, state, RewardModel((-1.0,) * n), 1)
    for x, listed in enumerate(spread.in_edges):
        acc = 0.0
        for y, _ in listed:
            acc += f0[y]
        big_m = model.problem.a[x, model.columns["Z"][0, x]]  # row ("dyn", 1, x)
        assert float.hex(float(big_m)) == float.hex(float(f0[x] + acc))


def oracle_problem(cal, state, rewards, teams):
    """The per-team oracle model as an ``LpProblem``."""
    ref = reference_build_model(cal, state, rewards, teams)
    return LpProblem(ref.c, ref.a, ref.senses, ref.b, ref.lower, ref.upper)


@given(fluid_cases())
@settings(max_examples=100, deadline=None)
def test_summed_teams_keep_the_per_team_lp_optimum(case):
    spread, state, rewards, horizon, teams, delta = case
    cal = calibrate(spread, state, horizon, delta=delta)
    mine = solve_lp_scipy(build_model(cal, state, rewards, teams).problem)
    ref = solve_lp_scipy(oracle_problem(cal, state, rewards, teams))
    assert mine.status == ref.status
    if ref.status == OPTIMAL:
        assert mine.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-9)


# -- backend choice and the solver import -------------------------------------

def test_default_backend_solves_with_highs(monkeypatch):
    # a grid1 k=4 model (296 x 320) once went to the dense bundled simplex
    def bundled(problem):
        raise AssertionError("the default backend called the bundled simplex")

    monkeypatch.setattr("firegrid.fluid.solve_lp", bundled)
    config = scenario_from_dict({"family": "grid1", "k": 4, "teams": 2,
                                 "mo": {"horizon": 3, "time_limit": None}})
    assert "backend" not in config.mo
    policy = config.make_policy("mo")
    assert policy.config.backend == "highs"
    state = config.initial_state(episode_rng(0))
    action = policy(state, None)
    assert policy.fallbacks == 0
    assert all(state.burning[x] for x in action)


def test_relax_and_score_rejects_an_unknown_backend():
    # only "highs" and "bundled" name a solver; "auto" and misspellings are refused
    spec, spread = uniform(2)
    state = FireState((0, 1, 0, 0), (6,) * 4)
    model = build_model(calibrate(spread, state, 3), state,
                        RewardModel((-1.0, -5.0, -1.0, -1.0)), 2)
    for backend in ("auto", "autoo", "HIGHS"):
        with pytest.raises(ValueError, match=f"unknown backend '{backend}'"):
            relax_and_score(model, backend=backend)


def test_scipy_optimize_is_imported_with_the_mo_policy_not_the_package():
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = (
        "import sys\n"
        "import firegrid.cli\n"
        "from firegrid.harness import scenario_from_dict\n"
        "config = scenario_from_dict({'family': 'grid1', 'k': 3, 'teams': 1})\n"
        "print('scipy.optimize' in sys.modules)\n"
        "config.make_policy('fw')\n"
        "print('scipy.optimize' in sys.modules)\n"
        "config.make_policy('mo')\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert out == ["False", "False", "True"]


# -- pinned actions ------------------------------------------------------------

# The relaxed LP is degenerate in the time-zero assignments: turning HiGHS's
# presolve off, or hot-starting it, changes many actions while the objective
# agrees to 1e-15.  So these pin what HiGHS is handed, not only what it finds.
# Recorded with the row-by-row builder kept as ``oracles.reference_build_model``.
MO_K8_GOLDEN = {
    0: [(12, 20, 25, 28), (3, 11, 26, 27)],
    1: [(28, 42, 44, 52), (37, 42, 43, 48)],
    2: [(14, 15, 21, 30), (27, 35, 44, 45)],
}


@pytest.fixture(scope="module")
def k8_golden_play():
    """The scenario, its MO policy, and per golden seed the first two
    decisions as (state, action, the policy's ``last``), played with
    ``time_limit`` null."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios",
                        "grid1_k8.json")
    config = load_scenario(path)
    config = replace(config, mo=dict(config.mo, time_limit=None))
    policy = config.make_policy("mo")
    model = config.model()
    played = {}
    for seed in MO_K8_GOLDEN:
        rng = episode_rng(seed)
        state = config.initial_state(rng)
        played[seed] = []
        for _ in range(2):
            action = policy(state, rng)
            played[seed].append((state, action, dict(policy.last)))
            state, _ = model.step(state, action, rng)
    return config, policy, played


def test_golden_first_mo_decisions_on_grid1_k8(k8_golden_play):
    _, _, played = k8_golden_play
    for decisions in played.values():
        for _, _, last in decisions:
            assert last["mode"] == "relax-round"
            assert not last["fallback"]
    assert {seed: [action for _, action, _ in decisions]
            for seed, decisions in played.items()} == MO_K8_GOLDEN


def test_golden_states_play_the_same_on_the_per_team_model(k8_golden_play):
    # relax-round with the same tie-break on the per-team oracle, scored by
    # summing the teams: same action, same objective
    config, policy, played = k8_golden_play
    delta = policy.config.delta
    for decisions in played.values():
        for state, action, last in decisions:
            model = policy.fluid_model(state)
            n, teams = len(state.burning), model.teams
            size = model.columns["I"].size
            problem = oracle_problem(model.calibration, state, config.reward_model(), teams)
            relaxed = solve_lp_scipy(problem)
            fuel = relaxed.x[size:2 * size]
            lower, upper = problem.lower.copy(), problem.upper.copy()
            lower[2 * size:3 * size] = upper[2 * size:3 * size] = fuel <= delta + 1e-9
            c = problem.c.copy()
            c[3 * size:3 * size + n * teams] -= (
                1e-6 * np.abs(c).max() * np.repeat(1.0 + np.arange(n) / n, teams))
            refit = solve_lp_scipy(LpProblem(c, problem.a, problem.senses, problem.b,
                                             lower, upper))
            assert refit.status == OPTIMAL
            scores = refit.x[3 * size:3 * size + n * teams].reshape(n, teams).sum(axis=1)
            assert _action_from_scores(state, scores, teams) == action
            assert float(problem.c @ refit.x) == pytest.approx(last["objective"], rel=1e-12)
