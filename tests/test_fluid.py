import numpy as np
import pytest
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
from firegrid.heuristics import all_pairs_distances, fw_policy, fw_weights
from firegrid.lp import EQ, GE, LE, OPTIMAL, solve_lp, solve_lp_scipy
from firegrid.mdp import IDLE, FireState, GridSpec, RewardModel, SpreadModel, idle_action
from firegrid.milp import branch_and_bound
from firegrid.mpsio import parse_mps, write_mps

from oracles import fluid_recursion


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
    assert cal.transmission is spread.in_edges
    assert cal.suppression == spread.q


# -- model structure ---------------------------------------------------------

def test_variable_and_row_counts_single_cell():
    spec, spread = uniform(1)
    state = FireState((1,), (5,))
    model = build_model(calibrate(spread, state, 1), state,
                        RewardModel((-1.0,)), 1)
    assert model.problem.shape == (10, 8)
    kinds = [label[0] for label in model.row_labels]
    assert kinds.count("dyn") == 1
    assert kinds.count("fuel") == 2
    assert kinds.count("force_lo") == 2
    assert kinds.count("force_hi") == 2
    assert kinds.count("cutoff") == 1
    assert kinds.count("assign") == 2


def test_variable_counts_scale_exactly():
    spec, spread = uniform(2)
    state = FireState((1, 0, 0, 0), (4,) * 4)
    for teams in (0, 1, 3):
        model = build_model(calibrate(spread, state, 3), state,
                            RewardModel((-1.0,) * 4), teams)
        n = 4 * (3 + 1)
        assert model.problem.shape[1] == n * 3 + n * teams
        assert int(model.integer_mask.sum()) == n + n * teams


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
    np.testing.assert_allclose(model.intensity(sol.x)[0], [1, 0, 1, 0],
                               atol=1e-9)


# -- solved-model invariants --------------------------------------------------

def _solved_small_milp():
    spec, spread = uniform(2)
    state = FireState((1, 1, 0, 0), (8, 8, 8, 8))
    model = build_model(calibrate(spread, state, 3), state,
                        RewardModel((-1.0, -2.0, -2.0, -4.0)), 1)
    res = branch_and_bound(model.problem, model.integer_mask,
                           tiers=[list(model.z_indices()),
                                  list(model.a_indices())])
    assert res.status == OPTIMAL
    return model, res


def test_fuel_accounting_exact():
    model, res = _solved_small_milp()
    intensity = model.intensity(res.x)
    fuel = model.fuel_values(res.x)
    f0 = model.calibration.f0
    for t in range(model.horizon + 1):
        expected = f0 - intensity[:t].sum(axis=0)
        np.testing.assert_allclose(fuel[t], expected, atol=1e-7)


def test_indicator_forces_fuel_band():
    model, res = _solved_small_milp()
    fuel = model.fuel_values(res.x)
    delta = model.calibration.delta
    for t in range(model.horizon + 1):
        for cell in range(model.n_cells):
            z = res.x[model.z_index(t, cell)]
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
    res = branch_and_bound(model.problem, model.integer_mask,
                           tiers=[list(model.z_indices())])
    assert res.status == OPTIMAL
    oracle = fluid_recursion(spread, state, horizon)
    assert oracle is not None
    np.testing.assert_allclose(model.intensity(res.x), oracle, atol=1e-6)


def test_recursion_rows_tight_where_intensity_positive():
    spec, spread = uniform(3)
    state = FireState((0, 1, 0, 0, 1, 0, 0, 0, 0), (15,) * 9)
    horizon = 3
    model = build_model(calibrate(spread, state, horizon), state,
                        RewardModel(tuple(-1.0 - 0.1 * i for i in range(9))), 0)
    res = branch_and_bound(model.problem, model.integer_mask,
                           tiers=[list(model.z_indices())])
    assert res.status == OPTIMAL
    residual = model.problem.a @ res.x - model.problem.b
    intensity = model.intensity(res.x)
    for row, label in enumerate(model.row_labels):
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
    np.testing.assert_allclose(model.scores(mine.x), model.scores(external.x),
                               atol=1e-5)


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
    """A state on 1-16 cells, 0-3 teams and any finite score per cell."""
    n = draw(st.integers(1, 16))
    cells = lambda values: st.lists(values, min_size=n, max_size=n)  # noqa: E731
    state = FireState(tuple(draw(cells(st.integers(0, 1)))),
                      tuple(draw(cells(st.integers(0, 3)))))
    scores = np.array(draw(cells(st.floats(-2.0, 2.0))))
    return state, scores, draw(st.integers(0, 3))


@given(scored_fires())
@settings(max_examples=200, deadline=None)
def test_action_from_scores_targets_only_burning_cells(case):
    state, scores, teams = case
    action = _action_from_scores(state, scores, teams)
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
    assert (model.horizon, model.teams, model.calibration.delta) == (3, 2, 0.25)
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
