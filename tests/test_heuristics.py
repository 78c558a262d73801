import math
import os
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firegrid.harness import episode_rng, load_scenario
from firegrid.heuristics import (
    WeightMap,
    _priority_ranks,
    all_pairs_distances,
    fw_policy,
    fw_sample_policy,
    fw_weights,
    random_policy,
)
from firegrid.mdp import (
    FireState,
    GridSpec,
    RewardModel,
    SpreadModel,
    burning_cells,
    idle_action,
)

from oracles import dijkstra, priority_ranks, reference_distances, reference_fw_sample

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def line_spread(n, p=0.06):
    spec = GridSpec(n, 1)
    return SpreadModel.uniform(spec, p, 0.8)


def test_distance_single_edge():
    d = all_pairs_distances(line_spread(2))
    assert d[0, 1] == pytest.approx(0.06)
    assert d[0, 0] == 0.0


def test_distance_two_edge_path():
    d = all_pairs_distances(line_spread(3))
    assert d[0, 2] == pytest.approx(0.12)


def test_distance_disconnected_is_inf():
    spec = GridSpec(2, 1)
    spread = SpreadModel(spec, {}, [0.8, 0.8])
    d = all_pairs_distances(spread)
    assert math.isinf(d[0, 1])


def test_distances_match_dijkstra_on_random_grids():
    rng = random.Random(5)
    for _ in range(4):
        spec = GridSpec(6, 6)
        edges = {}
        for x in range(spec.n_cells):
            for y in spec.neighbors(x):
                edges[(x, y)] = rng.choice([0.02, 0.05, 0.08, 0.3])
        spread = SpreadModel(spec, edges, [0.8] * spec.n_cells)
        d = all_pairs_distances(spread)
        for source in range(0, spec.n_cells, 7):
            ref = dijkstra(spec.n_cells, edges, source)
            np.testing.assert_allclose(d[source], ref, rtol=0, atol=1e-12)


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype == np.float64
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


@st.composite
def spread_graphs(draw):
    """A grid of 1x1 to 9x9 cells whose edges take their rates from a small
    drawn palette, some of them zero, with some cells cut off entirely."""
    spec = GridSpec(draw(st.integers(1, 9)), draw(st.integers(1, 9)),
                    draw(st.sampled_from(["four", "eight"])))
    # no edge, certain spread, the smallest subnormal, or any rate
    rates = st.one_of(st.sampled_from([0.0, 1.0, 5e-324]), st.floats(0.0, 1.0))
    palette = draw(st.lists(rates, min_size=1, max_size=6))
    isolated_share = draw(st.sampled_from([0.0, 0.0, 0.2, 0.6]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    isolated = {x for x in range(spec.n_cells) if rng.random() < isolated_share}
    edges = {}
    for x in range(spec.n_cells):
        for y in spec.neighbors(x):
            edges[(x, y)] = 0.0 if {x, y} & isolated else rng.choice(palette)
    return SpreadModel(spec, edges, [0.8] * spec.n_cells)


@given(spread_graphs())
@settings(max_examples=300, deadline=None)
def test_distances_are_bit_identical_to_scipy_floyd_warshall(spread):
    assert_same_bits(all_pairs_distances(spread), reference_distances(spread))


@pytest.mark.parametrize("name", ["tiny_explicit", "grid1_k8", "grid2_k9", "grid1_k20"])
def test_distances_are_bit_identical_to_scipy_on_shipped_scenarios(name):
    spread = load_scenario(os.path.join(SCENARIOS, f"{name}.json")).spread()
    assert_same_bits(all_pairs_distances(spread), reference_distances(spread))


def test_fw_weight_single_reward():
    # one -10 cell at distance 0.06: w = -10 / 0.06
    spec = GridSpec(2, 1)
    spread = SpreadModel.uniform(spec, 0.06, 0.8)
    rewards = RewardModel((0.0, -10.0))
    wm = fw_weights(all_pairs_distances(spread), rewards)
    assert wm.w[0] == pytest.approx(-10.0 / 0.06)
    assert wm.priority[0] == pytest.approx(10.0 / 0.06)


def test_fw_weight_zero_rewards():
    spread = line_spread(4)
    wm = fw_weights(all_pairs_distances(spread), RewardModel((0.0,) * 4))
    assert np.all(wm.w == 0.0)


def test_fw_weight_symmetry():
    # uniform rewards on a square grid: weights invariant under 90-degree turns
    spec = GridSpec(3, 3)
    spread = SpreadModel.uniform(spec, 0.06, 0.8)
    wm = fw_weights(all_pairs_distances(spread), RewardModel((-1.0,) * 9))
    rotate = [6, 3, 0, 7, 4, 1, 8, 5, 2]  # (col,row) -> (row, 2-col)
    np.testing.assert_allclose(wm.w, wm.w[rotate], rtol=1e-9)


def test_fw_weight_ranks_highest_near_big_penalty():
    # large negative reward in the lower-left corner: nearest cells rank first
    spec = GridSpec(4, 4)
    spread = SpreadModel.uniform(spec, 0.06, 0.8)
    values = [-0.01] * 16
    values[spec.index(0, 0)] = -100.0
    wm = fw_weights(all_pairs_distances(spread), RewardModel(tuple(values)))
    order = np.argsort(-wm.priority)
    top = set(order[:3])
    near = {spec.index(1, 0), spec.index(0, 1), spec.index(0, 0)}
    assert top <= near | {spec.index(1, 1)}
    far = spec.index(3, 3)
    assert wm.priority[far] < wm.priority[spec.index(1, 0)]


def test_fw_policy_stacks_on_single_burning_cell():
    spec = GridSpec(2, 2)
    spread = SpreadModel.uniform(spec, 0.06, 0.8)
    wm = fw_weights(all_pairs_distances(spread), RewardModel((-1, -2, -2, -4)))
    state = FireState((0, 1, 0, 0), (2, 2, 2, 2))
    assert fw_policy(state, wm, 3) == (1, 1, 1)


def test_fw_policy_takes_top_priority_burning_cells():
    spec = GridSpec(3, 1)
    spread = SpreadModel.uniform(spec, 0.06, 0.8)
    wm = fw_weights(all_pairs_distances(spread), RewardModel((-9.0, -1.0, -5.0)))
    state = FireState((1, 1, 1), (2, 2, 2))
    ordered = sorted(range(3), key=lambda x: (-wm.priority[x], x))
    assert fw_policy(state, wm, 2) == tuple(sorted(ordered[:2]))


def test_fw_policy_idle_when_nothing_burns():
    spec = GridSpec(2, 2)
    spread = SpreadModel.uniform(spec, 0.06, 0.8)
    wm = fw_weights(all_pairs_distances(spread), RewardModel((-1,) * 4))
    assert fw_policy(FireState((0,) * 4, (2,) * 4), wm, 2) == idle_action(2)


def test_fw_policy_scale_invariance():
    # scaling all rewards by c > 0 preserves the priority order, so actions match
    spec = GridSpec(3, 3)
    spread = SpreadModel.uniform(spec, 0.06, 0.8)
    base = tuple(-(1.0 + 0.3 * i) for i in range(9))
    wm1 = fw_weights(all_pairs_distances(spread), RewardModel(base))
    wm2 = fw_weights(all_pairs_distances(spread),
                     RewardModel(tuple(7.5 * v for v in base)))
    rng = random.Random(3)
    for _ in range(20):
        burning = tuple(rng.randint(0, 1) for _ in range(9))
        state = FireState(burning, (3,) * 9)
        assert fw_policy(state, wm1, 3) == fw_policy(state, wm2, 3)


def test_fw_policy_never_targets_unburning_cells():
    spec = GridSpec(3, 3)
    spread = SpreadModel.uniform(spec, 0.06, 0.8)
    wm = fw_weights(all_pairs_distances(spread),
                    RewardModel(tuple(-float(i + 1) for i in range(9))))
    rng = random.Random(11)
    for _ in range(30):
        burning = tuple(rng.randint(0, 1) for _ in range(9))
        state = FireState(burning, (2,) * 9)
        action = fw_policy(state, wm, 4)
        if 1 in burning:
            assert all(burning[cell] for cell in action)


def test_fw_sample_single_burning_cell_certain(rng):
    spec = GridSpec(2, 2)
    spread = SpreadModel.uniform(spec, 0.06, 0.8)
    wm = fw_weights(all_pairs_distances(spread), RewardModel((-1,) * 4))
    state = FireState((0, 0, 1, 0), (2,) * 4)
    for _ in range(10):
        assert fw_sample_policy(state, wm, 1, rng) == (2,)


def test_fw_sample_equal_priority_uniform_first_pick():
    # two tied burning cells: each drawn first with probability one half
    spec = GridSpec(2, 1)
    spread = SpreadModel.uniform(spec, 0.06, 0.8)
    wm = fw_weights(all_pairs_distances(spread), RewardModel((-3.0, -3.0)))
    assert wm.priority[0] == pytest.approx(wm.priority[1])
    state = FireState((1, 1), (2, 2))
    rng = random.Random(17)
    n = 100_000
    first = sum(fw_sample_policy(state, wm, 1, rng) == (0,) for _ in range(n))
    se = math.sqrt(0.25 / n)
    assert abs(first / n - 0.5) <= 3 * se


def test_fw_sample_idle_when_nothing_burns(rng):
    spec = GridSpec(2, 2)
    spread = SpreadModel.uniform(spec, 0.06, 0.8)
    wm = fw_weights(all_pairs_distances(spread), RewardModel((-1,) * 4))
    assert fw_sample_policy(FireState((0,) * 4, (2,) * 4), wm, 2, rng) == idle_action(2)


def test_random_policy_idle_when_nothing_burns(rng):
    assert random_policy(FireState((0, 0), (1, 1)), 2, rng) == idle_action(2)


def test_random_policy_covers_all_when_counts_match(rng):
    state = FireState((1, 0, 1, 1), (2, 2, 2, 2))
    for _ in range(20):
        assert random_policy(state, 3, rng) == (0, 2, 3)


def test_random_policy_hypergeometric_inclusion():
    # 10 burning cells, 4 teams drawn without replacement: each covered w.p. 0.4
    state = FireState((1,) * 10, (2,) * 10)
    rng = random.Random(23)
    n = 100_000
    hits = 0
    for _ in range(n):
        hits += 3 in random_policy(state, 4, rng)
    se = math.sqrt(0.4 * 0.6 / n)
    assert abs(hits / n - 0.4) <= 3 * se


def test_random_policy_extra_teams_with_replacement(rng):
    state = FireState((0, 1, 0, 1), (2,) * 4)
    for _ in range(20):
        action = random_policy(state, 5, rng)
        assert len(action) == 5
        assert set(action) <= {1, 3}
        assert {1, 3} <= set(action)


@given(st.integers(1, 6), st.integers(0, 2 ** 31))
@settings(max_examples=30, deadline=None)
def test_sample_policies_target_burning_cells(teams, seed):
    spec = GridSpec(3, 3)
    spread = SpreadModel.uniform(spec, 0.06, 0.8)
    wm = fw_weights(all_pairs_distances(spread),
                    RewardModel(tuple(-float(i + 1) for i in range(9))))
    rng = random.Random(seed)
    burning = tuple(rng.randint(0, 1) for _ in range(9))
    state = FireState(burning, (3,) * 9)
    for policy in (lambda s, r: fw_sample_policy(s, wm, teams, r),
                   lambda s, r: random_policy(s, teams, r)):
        action = policy(state, rng)
        if 1 in burning:
            assert all(burning[c] for c in action)
        else:
            assert action == idle_action(teams)


# -- rank precomputation --------------------------------------------------------

@st.composite
def ranked_fires(draw):
    """A small grid's priorities, drawn from few levels to force ties, and a
    burning set over its cells."""
    n = draw(st.integers(1, 5)) * draw(st.integers(1, 5))
    levels = draw(st.integers(1, 4))
    priority = draw(st.lists(st.integers(0, levels - 1), min_size=n, max_size=n))
    burning = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return np.array(priority, dtype=float) * 0.37 - 0.5, tuple(burning)


@given(ranked_fires())
@settings(max_examples=200, deadline=None)
def test_priority_ranks_match_pairwise_reference(fire):
    priority, burning = fire
    weights = WeightMap(w=-priority, priority=priority)
    flags = np.array(burning, dtype=bool)
    cells = np.flatnonzero(flags)
    assert _priority_ranks(flags, cells, weights).tolist() == priority_ranks(
        cells.tolist(), priority)


@given(ranked_fires(), st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_fw_policy_follows_priority_sort(fire, teams):
    priority, burning = fire
    weights = WeightMap(w=-priority, priority=priority)
    state = FireState(burning, (1,) * len(burning))
    cells = sorted(burning_cells(state), key=lambda x: (-priority[x], x))
    expected = idle_action(teams)
    if cells:
        expected = tuple(sorted(cells[i % len(cells)] for i in range(teams)))
    assert fw_policy(state, weights, teams) == expected


@given(ranked_fires(), st.integers(0, 6), st.integers(0, 2 ** 31))
@settings(max_examples=200, deadline=None)
def test_fw_sample_picks_burning_cells_and_covers_them_when_teams_suffice(fire, teams, seed):
    priority, burning = fire
    weights = WeightMap(w=-priority, priority=priority)
    state = FireState(burning, (1,) * len(burning))
    action = fw_sample_policy(state, weights, teams, random.Random(seed))
    cells = burning_cells(state)
    assert len(action) == teams
    if not cells:
        assert action == idle_action(teams)
        return
    assert set(action) <= set(cells)
    if teams >= len(cells):
        assert set(action) == set(cells)


def test_priority_ranks_match_reference_on_grid_weights():
    spec = GridSpec(6, 6)
    spread = SpreadModel.uniform(spec, 0.06, 0.8)
    wm = fw_weights(all_pairs_distances(spread),
                    RewardModel(tuple(-float(1 + x % 6 + x // 6) for x in range(36))))
    rng = random.Random(8)
    for _ in range(50):
        flags = np.array([rng.randint(0, 1) for _ in range(36)], dtype=bool)
        cells = np.flatnonzero(flags)
        assert _priority_ranks(flags, cells, wm).tolist() == priority_ranks(
            cells.tolist(), wm.priority)


def test_weight_map_order_is_priority_descending_then_index():
    priority = np.array([1.0, 3.0, 1.0, 2.0, 3.0])
    wm = WeightMap(w=-priority, priority=priority)
    assert wm.order.tolist() == [1, 4, 3, 0, 2]
    assert wm.tie_start.tolist() == [3, 0, 3, 2, 0]
    for built in (wm.order, wm.tie_start):
        assert built.dtype == np.intp and not built.flags.writeable


def k20_fire():
    config = load_scenario(os.path.join(SCENARIOS, "grid1_k20.json"))
    state = config.initial_state(episode_rng(9))
    weights = fw_weights(all_pairs_distances(config.spread()), config.reward_model())
    return config, state, weights


# Recorded with the pairwise ranking kept as ``oracles.priority_ranks``; the
# precomputed priority order must reproduce every draw.
FW_SAMPLE_GOLDEN = [
    (42, 273, 293, 367), (153, 229, 285, 293), (251, 273, 292, 293),
    (153, 289, 293, 306), (133, 206, 211, 293), (70, 253, 272, 290),
    (115, 253, 293, 324), (73, 131, 231, 250), (187, 227, 292, 293),
    (108, 115, 223, 272), (111, 151, 292, 365), (93, 102, 271, 293),
]
FW_SAMPLE_SURPLUS_GOLDEN = [
    (0, 37, 74, 74, 111, 148, 185, 222, 222),
    (0, 37, 37, 74, 111, 148, 148, 185, 222),
    (0, 37, 74, 111, 148, 185, 185, 185, 222),
    (0, 37, 74, 111, 148, 148, 148, 185, 222),
    (0, 37, 74, 111, 148, 148, 148, 185, 222),
    (0, 37, 74, 111, 148, 148, 148, 185, 222),
]


class TopDraws:
    """A stream whose every draw is the largest float below 1."""

    def random(self):
        return 1.0 - 2.0 ** -53


def test_fw_sample_top_draw_takes_the_last_remaining_cell():
    # r * total rounds below the total, so the draw always lands on the last
    # cell still in the pool, never on a drawn (zeroed) one, as the scan does
    priority = np.array([3.0, 1.0, 2.0, 1.0, 0.5])
    weights = WeightMap(w=-priority, priority=priority)
    state = FireState((1, 1, 0, 1, 1), (1,) * 5)
    assert fw_sample_policy(state, weights, 3, TopDraws()) == (1, 3, 4)
    assert fw_sample_policy(state, weights, 6, TopDraws()) == (0, 1, 3, 4, 4, 4)
    for teams in range(1, 7):
        assert fw_sample_policy(state, weights, teams, TopDraws()) == reference_fw_sample(
            state, priority, teams, TopDraws())


def test_reference_fw_sample_reproduces_golden_sequence_on_k20_fire():
    # the tuple oracle of the rollout property draws the recorded stream too
    config, state, weights = k20_fire()
    rng = random.Random("golden:fw_sample")
    draws = [reference_fw_sample(state, weights.priority, config.teams, rng)
             for _ in range(12)]
    assert draws == FW_SAMPLE_GOLDEN


def test_fw_sample_golden_sequence_on_k20_fire():
    config, state, weights = k20_fire()
    assert sum(state.burning) == 260
    rng = random.Random("golden:fw_sample")
    draws = [fw_sample_policy(state, weights, config.teams, rng) for _ in range(12)]
    assert draws == FW_SAMPLE_GOLDEN
    # seven burning cells and nine teams: the surplus draws with replacement
    small = state._replace(burning=tuple(
        1 if b and x % 37 == 0 else 0 for x, b in enumerate(state.burning)))
    draws = [fw_sample_policy(small, weights, 9, rng) for _ in range(6)]
    assert draws == FW_SAMPLE_SURPLUS_GOLDEN
