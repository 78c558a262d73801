import math
import os
import random
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from firegrid import mcts
from firegrid.harness import (
    ScenarioError,
    episode_rng,
    load_scenario,
    run_episode,
    scenario_from_dict,
)
from firegrid.heuristics import WeightMap, fw_sample_policy, random_policy
from firegrid.mcts import (
    MctsConfig,
    Planner,
    mutate,
    recombine,
    tournament_select,
)
from firegrid.mdp import (
    FireState,
    GridSpec,
    RewardModel,
    SpreadModel,
    Wildfire,
    idle_action,
)

from oracles import expectimax, reference_fw_sample, reference_step


def small_model(p=0.06, q=0.8, rewards=(-1.0, -2.0, -2.0, -10.0)):
    spec = GridSpec(2, 2)
    return Wildfire(spec, SpreadModel.uniform(spec, p, q), RewardModel(rewards))


def make_planner(model, teams=1, **overrides):
    """A planner proposing only rollout-policy actions unless ``overrides``
    set the genetic mix ``u_mutate`` and ``u_recombine``."""
    defaults = dict(budget_iterations=100, budget_seconds=None,
                    rollout="random", u_mutate=0.0, u_recombine=0.0, depth=3)
    defaults.update(overrides)
    config = MctsConfig(**defaults)

    def pi0(state, rng):
        return random_policy(state, teams, rng)

    return Planner(model, config, pi0)


# -- genetic operators -------------------------------------------------------

def test_mutate_single_team_always_moves(rng):
    state = FireState((1, 1, 1, 0), (2, 2, 2, 2))
    for _ in range(50):
        assert mutate((0,), state, rng) != (0,)


def test_mutate_without_alternatives_is_identity(rng):
    state = FireState((1, 0, 0, 0), (2, 2, 2, 2))
    assert mutate((0,), state, rng) == (0,)
    assert mutate((0, 0), state, rng) == (0, 0)


def test_mutate_targets_stay_burning(rng):
    state = FireState((1, 0, 1, 1), (2, 2, 2, 2))
    for _ in range(200):
        out = mutate((0, 2, 3, 0), state, rng)
        assert all(state.burning[c] for c in out)


def test_mutate_expected_change_count():
    # four teams: E[#selected | >= 1 selected] = 1 / (1 - (3/4)^4) ~ 1.4629;
    # a large burning pool keeps resample collisions negligible
    k = 40
    spec = GridSpec(k, 25)
    state = FireState((1,) * spec.n_cells, (2,) * spec.n_cells)
    action = (0, 1, 2, 3)
    rng = random.Random(15)
    n = 10_000
    total = 0
    for _ in range(n):
        out = mutate(action, state, rng)
        before = Counter(action)
        after = Counter(out)
        total += sum((after - before).values())
    expected = 1.0 / (1.0 - (3.0 / 4.0) ** 4)
    assert expected == pytest.approx(1.4628, abs=1e-3)
    assert abs(total / n - expected) <= 0.03


def test_recombine_identical_parents(rng):
    assert recombine((1, 2), (1, 2), rng) == (1, 2)


def test_recombine_entries_come_from_parents(rng):
    a, b = (0, 2, 5), (1, 2, 7)
    allowed = set(a) | set(b)
    for _ in range(100):
        assert set(recombine(a, b, rng)) <= allowed


def test_recombine_mixture_frequencies():
    # parents (x,x) and (y,y): multisets {x,x}, {y,y} each 1/4, {x,y} 1/2
    rng = random.Random(31)
    n = 20_000
    counts = Counter(recombine((2, 2), (7, 7), rng) for _ in range(n))
    se = math.sqrt(0.25 * 0.75 / n)
    assert abs(counts[(2, 2)] / n - 0.25) <= 3 * se
    assert abs(counts[(7, 7)] / n - 0.25) <= 3 * se


def test_recombine_length_mismatch(rng):
    with pytest.raises(ValueError):
        recombine((1,), (1, 2), rng)


def test_tournament_single_action(rng):
    assert tournament_select([(3,)], [(-5.0)], rng) == (3,)


def test_tournament_prefers_better_three_quarters():
    # better action wins whenever drawn at least once: 1 - (1/2)^2
    rng = random.Random(8)
    actions = [(0,), (1,)]
    qs = [-5.0, -500.0]
    n = 40_000
    wins = sum(tournament_select(actions, qs, rng) == (0,) for _ in range(n))
    se = math.sqrt(0.75 * 0.25 / n)
    assert abs(wins / n - 0.75) <= 3 * se


def test_tournament_uniform_on_ties():
    rng = random.Random(9)
    actions = [(0,), (1,), (2,)]
    qs = [-1.0, -1.0, -1.0]
    n = 30_000
    counts = Counter(tournament_select(actions, qs, rng) for _ in range(n))
    for action in actions:
        se = math.sqrt((1 / 3) * (2 / 3) / n)
        assert abs(counts[action] / n - 1 / 3) <= 3 * se


# -- action generation inside the tree ---------------------------------------

def count_proposals(monkeypatch, planner) -> Counter:
    """Counts every call ``planner._generate`` makes to ``mutate``,
    ``recombine`` and the rollout policy, retried proposals included."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(mcts, "mutate", counted("mutate", mcts.mutate))
    monkeypatch.setattr(mcts, "recombine", counted("recombine", mcts.recombine))
    planner.pi0 = counted("rollout", planner.pi0)
    return calls


def test_generation_branch_frequencies(monkeypatch):
    # every proposal, retries included, draws its branch afresh: 0.3, 0.3, 0.4
    k = 20
    spec = GridSpec(k, k)
    model = Wildfire(spec, SpreadModel.uniform(spec, 0.06, 0.8),
                     RewardModel((-1.0,) * spec.n_cells))
    state = FireState((1,) * spec.n_cells, (3,) * spec.n_cells)
    planner = make_planner(model, teams=4, u_mutate=0.3, u_recombine=0.3)
    rng = random.Random(77)
    node_rng = random.Random(78)
    planner._simulate(state, 3, node_rng)  # create the root node
    node = planner._nodes[state]
    node.edges.clear()
    seed_actions = [tuple(sorted(rng.sample(range(spec.n_cells), 4))) for _ in range(3)]
    for action in seed_actions:
        planner._simulate(state, 1, node_rng)  # grow visit counts a bit
    for action in seed_actions:
        if action not in node.edges:
            edge = node.edges[action] = mcts._Edge()
            edge.n, edge.q = 1.0, -1.0
    calls = count_proposals(monkeypatch, planner)
    for _ in range(10_000):
        planner._generate(node, state, rng)
    n = sum(calls.values())
    for branch, expected in (("mutate", 0.3), ("recombine", 0.3), ("rollout", 0.4)):
        se = math.sqrt(expected * (1 - expected) / n)
        assert abs(calls[branch] / n - expected) <= 3 * se, (branch, calls)


def test_generation_falls_back_without_actions(monkeypatch):
    model = small_model()
    state = FireState((1, 1, 0, 0), (3, 3, 3, 3))
    planner = make_planner(model, teams=1, u_mutate=1.0, u_recombine=0.0)
    rng = random.Random(5)
    planner._simulate(state, 3, rng)
    node = planner._nodes[state]
    node.edges.clear()
    calls = count_proposals(monkeypatch, planner)
    action = planner._generate(node, state, rng)
    assert calls == {"rollout": 1}
    assert state.burning[action[0]]


# -- rollout and simulate ----------------------------------------------------

def test_rollout_depth_zero_is_zero(rng):
    model = small_model()
    planner = make_planner(model)
    state = FireState((1, 0, 0, 0), (5, 5, 5, 5))
    assert planner._rollout(state, 0, rng) == 0.0


def test_rollout_terminal_is_zero(rng):
    model = small_model()
    planner = make_planner(model)
    state = FireState((0, 0, 0, 0), (5, 5, 5, 5))
    assert planner._rollout(state, 4, rng) == 0.0


def test_rollout_deterministic_burn(rng):
    # no spread, useless suppression: one cell burns -1 per step for 5 steps
    model = small_model(p=0.0, q=0.0, rewards=(-1.0, -1.0, -1.0, -1.0))
    planner = make_planner(model, depth=5)
    state = FireState((1, 0, 0, 0), (9, 9, 9, 9))
    assert planner._rollout(state, 5, rng) == pytest.approx(-5.0)


def test_simulate_depth_zero(rng):
    model = small_model()
    planner = make_planner(model)
    state = FireState((1, 0, 0, 0), (5, 5, 5, 5))
    assert planner._simulate(state, 0, rng) == 0.0


def test_first_visit_expands_and_rolls_out(rng):
    model = small_model()
    planner = make_planner(model)
    state = FireState((1, 0, 0, 0), (5, 5, 5, 5))
    planner._simulate(state, 3, rng)
    node = planner._nodes[state]
    assert node.n == 0.0
    assert node.edges == {}


def test_untried_action_selected_first(rng):
    model = small_model()
    planner = make_planner(model)
    state = FireState((1, 1, 0, 0), (5, 5, 5, 5))
    for _ in range(40):
        planner._simulate(state, 2, rng)
    node = planner._nodes[state]
    # every tried action has been visited at least once
    assert all(edge.n >= 1 for edge in node.edges.values())


def test_q_is_mean_of_backed_up_returns():
    # single candidate action: root Q must equal the running mean of every
    # return propagated through it (expansion rollout excluded)
    model = small_model(p=0.0, q=0.8, rewards=(-1.0, -1.0, -1.0, -1.0))
    state = FireState((1, 0, 0, 0), (5, 5, 5, 5))

    returns = []

    class Recorder(Planner):
        def _simulate(self, s, depth, rng, _top=[True]):
            is_top = _top[0]
            _top[0] = False
            try:
                q = Planner._simulate(self, s, depth, rng)
            finally:
                if is_top:
                    _top[0] = True
            if is_top:
                returns.append(q)
            return q

    config = MctsConfig(budget_iterations=400, budget_seconds=None,
                        rollout="random", u_mutate=0.0, u_recombine=0.0, depth=3)
    planner = Recorder(model, config, lambda s, r: (0,))
    rng = random.Random(12)
    result = planner.plan(state, rng)
    edge = planner._nodes[state].edges[(0,)]
    mean = sum(returns[1:]) / len(returns[1:])
    assert edge.q == pytest.approx(mean, rel=1e-12)
    assert result.action == (0,)


def test_a_tree_level_costs_no_stack_frame():
    # one burning cell, no team and no suppression: each iteration extends
    # one chain of nodes a level deeper, so a search that recursed once per
    # level would need about 100 frames on top of this one's
    spec = GridSpec(1, 1)
    model = Wildfire(spec, SpreadModel.uniform(spec, 0.06, 0.0), RewardModel((-1.0,)))
    config = MctsConfig(depth=100, budget_iterations=100, budget_seconds=None,
                        u_mutate=0.0, u_recombine=0.0)
    planner = Planner(model, config, lambda state, rng: ())
    frames, frame = 0, sys._getframe()
    while frame is not None:
        frames, frame = frames + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frames + 60)
    try:
        result = planner.plan(FireState((1,), (500,)), random.Random(0))
    finally:
        sys.setrecursionlimit(limit)
    assert len(planner._nodes) == 100
    assert (result.action, result.fallback, result.root_value) == ((), False, -100.0)


# -- widening ----------------------------------------------------------------

def test_widening_bounds_hold_everywhere():
    model = small_model()
    state = FireState((1, 1, 1, 1), (4, 4, 4, 4))
    planner = make_planner(model, teams=2, budget_iterations=800,
                           widen_k_action=1.0, widen_alpha_action=0.5,
                           widen_k_state=1.0, widen_alpha_state=0.4,
                           u_mutate=0.3, u_recombine=0.3)
    rng = random.Random(3)
    planner.plan(state, rng)
    checked = 0
    for s, node in planner._nodes.items():
        if node.n >= 1:
            assert len(node.edges) <= max(1.0, math.ceil(1.0 * node.n ** 0.5))
        for edge in node.edges.values():
            if edge.n >= 1:
                assert len(edge.children) <= max(1.0, math.ceil(1.0 * edge.n ** 0.4))
                checked += 1
    assert checked > 5


def test_state_widening_replays_known_children():
    # k' = alpha' -> tiny: after the first child no fresh samples are drawn
    model = small_model()
    state = FireState((1, 0, 0, 0), (6, 6, 6, 6))
    planner = make_planner(model, budget_iterations=300,
                           widen_k_state=1.0, widen_alpha_state=0.01)
    rng = random.Random(4)
    planner.plan(state, rng)
    for node in planner._nodes.values():
        for edge in node.edges.values():
            if edge.n >= 2:
                assert len(edge.children) <= 2


# -- planning ----------------------------------------------------------------

def test_plan_requires_non_terminal():
    planner = make_planner(small_model())
    with pytest.raises(ValueError):
        planner.plan(FireState((0, 0, 0, 0), (3, 3, 3, 3)), random.Random(0))


def test_plan_zero_budget_falls_back(rng):
    planner = make_planner(small_model(), budget_iterations=0)
    state = FireState((1, 0, 0, 0), (3, 3, 3, 3))
    result = planner.plan(state, rng)
    assert result.fallback
    assert result.action == (0,)


def test_plan_single_candidate_action(rng):
    planner = make_planner(small_model(), budget_iterations=50)
    state = FireState((0, 1, 0, 0), (3, 3, 3, 3))
    result = planner.plan(state, rng)
    assert result.action == (1,)


def test_plan_deterministic_under_seed():
    model = small_model()
    state = FireState((1, 1, 0, 1), (3, 2, 4, 2))
    actions = set()
    for _ in range(3):
        planner = make_planner(model, budget_iterations=500, u_mutate=0.3, u_recombine=0.3)
        result = planner.plan(state, random.Random(42))
        actions.add((result.action, result.iterations))
    assert len(actions) == 1


def test_plan_actions_target_burning_cells():
    model = small_model()
    state = FireState((1, 0, 1, 0), (3, 3, 3, 3))
    planner = make_planner(model, teams=2, budget_iterations=400,
                           u_mutate=0.3, u_recombine=0.3)
    result = planner.plan(state, random.Random(17))
    assert all(state.burning[c] for c in result.action)
    node = planner._nodes[state]
    for action in node.edges:
        assert all(state.burning[c] for c in action)


def test_tree_reuse_prunes_unreachable_states():
    model = small_model()
    s1 = FireState((1, 1, 0, 0), (3, 3, 3, 3))
    planner = make_planner(model, budget_iterations=300)
    rng = random.Random(6)
    planner.plan(s1, rng)
    node = planner._nodes[s1]
    child = next(iter(next(iter(node.edges.values())).children))
    if 1 not in child.burning:
        child = s1  # rare: sampled child already terminal, reuse root
    planner.plan(child, rng)
    assert child in planner._nodes or not planner._nodes
    assert s1 not in planner._nodes or child == s1


def test_plan_matches_expectimax_on_easy_instance():
    # two burning cells, one guarding a -10 cost: suppression choice is clear
    spec = GridSpec(2, 1)
    model = Wildfire(spec, SpreadModel.uniform(spec, 0.0, 0.8),
                     RewardModel((-1.0, -10.0)))
    state = FireState((1, 1), (3, 3))
    _, qs = expectimax(model, state, 3, teams=1)
    best = max(qs, key=qs.get)
    assert best == (1,)
    planner = make_planner(model, budget_iterations=3000, depth=3,
                           exploration_c=5.0)
    result = planner.plan(state, random.Random(2))
    assert result.action == best
    assert result.root_value == pytest.approx(qs[best], rel=0.1)


# -- every mcts block that loads plays ------------------------------------------

@st.composite
def mcts_blocks(draw):
    """An ``mcts`` block with values from the documented ranges, their
    closed ends included, so that a widening k of 0 is drawn too.  Depth and
    budgets stay small: every example plays a whole episode."""
    maybe = lambda key, values: {key: draw(values)} if draw(st.booleans()) else {}  # noqa: E731
    k = st.integers(0, 50) | st.floats(0.0, 50.0)
    u_mutate = draw(st.floats(0.0, 1.0))
    block = {"depth": draw(st.integers(1, 3)),
             "budget_iterations": draw(st.none() | st.integers(0, 5)),
             "budget_seconds": draw(st.none() | st.floats(0.0, 0.002)),
             "u_mutate": u_mutate,
             "u_recombine": draw(st.floats(0.0, 1.0 - u_mutate)),
             **maybe("exploration_c", st.floats(0.0, 100.0)),
             **maybe("widen_k_action", k),
             **maybe("widen_alpha_action", st.floats(0.0, 1.0)),
             **maybe("widen_k_state", k),
             **maybe("widen_alpha_state", st.floats(0.0, 1.0)),
             **maybe("gamma", st.floats(0.0, 1.0)),
             **maybe("rollout", st.sampled_from(["fw", "random"]))}
    if block["budget_iterations"] is None and block["budget_seconds"] is None:
        block["budget_iterations"] = 0
    return block


@given(mcts_blocks(), st.integers(0, 2 ** 31))
@example({"depth": 2, "budget_iterations": 5, "budget_seconds": None,
          "u_mutate": 0.3, "u_recombine": 0.3, "widen_k_action": 0}, 0)
@settings(max_examples=80, deadline=None)
def test_every_mcts_block_that_loads_plays_a_legal_episode(block, seed):
    # a block that does not load is refused whole, naming the mcts block
    try:
        config = scenario_from_dict({
            "family": "explicit", "k": 3, "teams": 2, "P_default": 0.3,
            "Q_default": 0.5, "rewards": [-1, -2, -3, -2, -3, -4, -3, -4, -10],
            "fuel": [2, 3, 2, 3, 3, 3, 2, 3, 2], "burning": [1, 1, 0, 0, 1, 0, 0, 0, 0],
            "mcts": block})
    except ScenarioError as exc:
        assert str(exc).startswith("field 'mcts"), exc
        assume(False)
    policy = config.make_policy("mcts")
    played = []

    def checked(state, rng):
        action = policy(state, rng)
        played.append((state, action))
        return action

    result = run_episode(config, checked, seed, "mcts")
    assert len(played) == result.steps > 0
    for state, action in played:
        assert len(action) == config.teams
        assert all(0 <= target < len(state.burning) and state.burning[target]
                   for target in action), (state, action)


def test_golden_first_decisions_on_k20_fire():
    # Recorded with the pairwise rollout ranking kept as
    # ``oracles.priority_ranks``: the search must draw the same stream.
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios",
                        "grid1_k20.json")
    config = load_scenario(path)
    config = replace(config, mcts=dict(config.mcts, budget_seconds=None,
                                       budget_iterations=10))
    state = config.initial_state(episode_rng(9))
    policy = config.make_policy("mcts")
    rng = random.Random("golden:mcts")
    first = policy(state, rng)
    state, _ = config.model().step(state, first, rng)
    second = policy(state, rng)
    assert [first, second] == [(184, 232, 253, 269), (113, 232, 292, 368)]
    assert policy.fallbacks == 0


def test_golden_first_decisions_on_k20_fire_with_random_rollouts():
    # No shipped scenario rolls out with ``random_policy``; this pins its
    # draws, and that its targets stay Python ints, on the same fire.
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios",
                        "grid1_k20.json")
    config = load_scenario(path)
    config = replace(config, mcts=dict(config.mcts, budget_seconds=None,
                                       budget_iterations=10, rollout="random"))
    state = config.initial_state(episode_rng(9))
    policy = config.make_policy("mcts")
    rng = random.Random("golden:mcts:random")
    first = policy(state, rng)
    state, _ = config.model().step(state, first, rng)
    second = policy(state, rng)
    assert [first, second] == [(89, 171, 183, 244), (34, 162, 169, 328)]
    assert all(type(t) is int for t in first + second)
    assert policy.fallbacks == 0


# -- array rollouts against the loop references ---------------------------------

@st.composite
def rollout_cases(draw):
    """A 1-4 x 1-4 grid with full-mantissa P and Q (some exactly 0 or 1),
    costs that include -0.0, priorities from few levels (so ranks tie), a
    fire of at least one cell, and a team count below, equal to or above
    its size."""
    spec = GridSpec(draw(st.integers(1, 4)), draw(st.integers(1, 4)),
                    draw(st.sampled_from(["four", "eight"])))
    n = spec.n_cells
    dense = st.integers(1, 2 ** 53 - 1).map(lambda i: i / 2 ** 53)
    prob = st.one_of(st.just(0.0), st.just(1.0), dense)
    edges = {(x, y): draw(prob) for x in range(n) for y in spec.neighbors(x)}
    q = draw(st.lists(prob, min_size=n, max_size=n))
    cost = st.one_of(st.just(-0.0), st.just(0.0), st.floats(-100.0, 0.0))
    rewards = draw(st.lists(cost, min_size=n, max_size=n))
    model = Wildfire(spec, SpreadModel(spec, edges, q), RewardModel(tuple(rewards)))
    levels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    priority = np.array(levels, dtype=float) * 0.37 - 0.5
    burning = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(any))
    fuel = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    teams = max(1, sum(burning) + draw(st.sampled_from([-2, -1, 0, 1, 3])))
    state = FireState(tuple(burning), tuple(fuel))
    return model, state, WeightMap(w=-priority, priority=priority), teams


@given(rollout_cases(), st.integers(0, 2 ** 31), st.sampled_from([1.0, 0.9]))
@settings(max_examples=60, deadline=None)
def test_array_rollout_matches_reference_step_and_fw_sample(case, seed, gamma):
    # every step of a rollout on arrays must reproduce the loop references
    # bit for bit: the same action, reward bits, next state and draws
    model, state, weights, teams = case
    depth = 6
    rng, ref_rng = random.Random(seed), random.Random(seed)
    burning, fuel = state.burning[None], state.fuel[None]  # a block of one row, as in a rollout
    ref_state = state
    ref_total, weight = 0.0, 1.0
    for _ in range(depth):
        if 1 not in ref_state.burning:
            break
        action = fw_sample_policy(FireState(burning[0], fuel[0]), weights, teams, rng)
        ref_action = reference_fw_sample(ref_state, weights.priority, teams, ref_rng)
        assert action == ref_action
        assert all(type(t) is int for t in action)
        burning, fuel, (reward,) = model.step_arrays(burning, fuel, (action,), (rng,))
        ref_state, ref_reward = reference_step(model, ref_state, action, ref_rng)
        assert reward.hex() == ref_reward.hex()
        assert FireState(burning[0], fuel[0]) == ref_state
        assert rng.getstate() == ref_rng.getstate()
        ref_total += weight * ref_reward
        weight *= gamma
    # the planner's own rollout plays the same steps and discounts them alike
    planner = Planner(model, MctsConfig(depth=depth, gamma=gamma, budget_iterations=1,
                                        budget_seconds=None),
                      lambda s, r: fw_sample_policy(s, weights, teams, r))
    rng = random.Random(seed)
    assert planner._rollout(state, depth, rng).hex() == ref_total.hex()
    assert rng.getstate() == ref_rng.getstate()
