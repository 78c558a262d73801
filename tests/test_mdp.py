import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firegrid.mdp import (
    IDLE,
    FireState,
    GridSpec,
    RewardModel,
    SpreadModel,
    Wildfire,
    burning_cells,
    idle_action,
)
from oracles import (
    enumerate_transitions,
    extinguish_prob,
    ignition_prob,
    reference_burn_probs,
    reference_step,
)


def burn_probs(model, state, action):
    """The kernel's per-cell probabilities of burning next, for one state."""
    return model._law(state.burning[None], state.fuel[None] > 0, (action,))[0][0]


# -- the one state form -------------------------------------------------------

def test_fire_state_normalises_every_sequence_to_read_only_arrays(grid2x2, rng):
    # a kernel row view is taken as it is; the other forms are converted
    view, _ = grid2x2.step(FireState((1, 0, 1, 0), (2, 1, 0, 3)), (0, 0), rng)
    flags = np.array([1, 0, 1, 0], dtype=np.uint8)
    for state in (FireState((1, 0, 1, 0), (2, 1, 0, 3)),
                  FireState([1, 0, 1, 0], [2, 1, 0, 3]),
                  FireState(flags, flags.astype(np.int16) * 2),
                  FireState(*view)):
        assert (state.burning.dtype, state.fuel.dtype) == (bool, np.int64)
        for field in state:
            assert not field.flags.writeable
            with pytest.raises(ValueError):
                field[0] = 0
    assert flags.flags.writeable  # a converted input is copied, not frozen
    row = FireState(*view)
    assert row.burning is view.burning and row.fuel is view.fuel


def test_fire_states_compare_and_hash_by_value(grid2x2, rng):
    from_tuples = FireState((1, 0, 0, 0), (0, 0, 0, 0))
    from_lists = FireState([True, False, False, False], [0, 0, 0, 0])
    from_arrays = FireState(np.array([1, 0, 0, 0], dtype=np.uint8), np.zeros(4, np.int32))
    dead, _ = grid2x2.step(FireState((0, 0, 0, 0), (0, 0, 0, 0)), (), rng)
    for same in (from_lists, from_arrays):
        assert same == from_tuples and not same != from_tuples
        assert hash(same) == hash(from_tuples)
    assert len({from_tuples, from_lists, from_arrays}) == 1
    others = (FireState((0, 1, 0, 0), (0, 0, 0, 0)), FireState((1, 0, 0, 0), (0, 0, 0, 1)))
    for other in others:
        assert other != from_tuples and not other == from_tuples
    assert dead == FireState((0,) * 4, (0,) * 4) != from_tuples
    assert {from_tuples: 1, dead: 2}[FireState([0] * 4, [0] * 4)] == 2
    assert from_tuples != ((1, 0, 0, 0), (0, 0, 0, 0))  # only states compare equal


def test_fire_state_stays_a_named_tuple():
    state = FireState((1, 0), (3, 4))
    burning, fuel = state
    assert state[0] is burning is state.burning and state[1] is fuel is state.fuel
    assert 1 in state.burning and 1 not in FireState((0, 0), (3, 4)).burning
    replaced = state._replace(burning=(0, 1))
    assert type(replaced) is FireState
    assert replaced.burning.dtype == bool and not replaced.burning.flags.writeable
    assert replaced == FireState((0, 1), (3, 4))
    assert FireState._make([(0, 1), (3, 4)]) == replaced


def test_builtin_sum_counts_a_fire_of_more_than_255_cells():
    # bool flags: a uint8 array would wrap here (300 ones sum to 44)
    state = FireState((1,) * 300 + (0,) * 100, (2,) * 400)
    assert sum(state.burning) == 300
    assert burning_cells(state) == list(range(300))
    assert all(type(x) is int for x in burning_cells(state))


def test_grid_indexing_round_trip():
    spec = GridSpec(5, 3)
    for cell in range(spec.n_cells):
        col, row = spec.coords(cell)
        assert spec.index(col, row) == cell


def test_neighbors_stay_inside_grid():
    for neighborhood in ("four", "eight"):
        spec = GridSpec(4, 4, neighborhood)
        for cell in range(spec.n_cells):
            for y in spec.neighbors(cell):
                assert 0 <= y < spec.n_cells
        corner_degree = len(spec.neighbors(0))
        assert corner_degree == (2 if neighborhood == "four" else 3)


def test_spread_model_validation():
    spec = GridSpec(2, 2)
    with pytest.raises(ValueError):
        SpreadModel(spec, {(0, 3): 0.5}, [0.8] * 4)  # 3 not adjacent to 0
    with pytest.raises(ValueError):
        SpreadModel(spec, {(0, 1): 1.5}, [0.8] * 4)
    with pytest.raises(ValueError):
        SpreadModel(spec, {}, [0.8] * 3)


def test_spread_model_rejects_cells_outside_grid():
    # -1 would wrap to column 2 of the row below and file the edge under cell 8
    spec = GridSpec(3, 3)
    for pair in ((-1, 2), (2, -1), (9, 6), (8, 9)):
        with pytest.raises(ValueError, match=rf"P\({pair[0]}, {pair[1]}\) names a cell outside"):
            SpreadModel(spec, {pair: 0.5}, [0.8] * 9)


def test_reward_model_rejects_positive():
    with pytest.raises(ValueError):
        RewardModel((0.0, 0.5))
    with pytest.raises(ValueError, match="R\\(1\\) = nan must be <= 0"):
        RewardModel((0.0, float("nan")))


def test_ignition_prob_zero_fuel(grid2x2):
    state = FireState((0, 1, 1, 0), (0, 1, 1, 0))
    assert ignition_prob(grid2x2.spread, state, 0) == 0.0


def test_ignition_prob_single_neighbor(grid2x2):
    state = FireState((0, 1, 0, 0), (3, 1, 3, 3))
    assert ignition_prob(grid2x2.spread, state, 0) == pytest.approx(0.06)


def test_ignition_prob_two_neighbors(grid2x2):
    # frozen from 1 - (1 - 0.06)^2
    state = FireState((0, 1, 1, 0), (3, 1, 1, 3))
    assert ignition_prob(grid2x2.spread, state, 0) == pytest.approx(0.1164, abs=1e-12)


def test_extinguish_prob_zero_fuel_certain(grid2x2):
    state = FireState((1, 0, 0, 0), (0, 3, 3, 3))
    assert extinguish_prob(grid2x2.spread, state, idle_action(2), 0) == 1.0


def test_extinguish_prob_no_team(grid2x2):
    state = FireState((1, 0, 0, 0), (2, 3, 3, 3))
    assert extinguish_prob(grid2x2.spread, state, (2, 3), 0) == 0.0


def test_extinguish_prob_two_teams(grid2x2):
    # frozen from 1 - (1 - 0.8)^2, checked by enumerating the joint outcomes:
    # P(at least one of two independent 0.8 attempts) = 0.8*0.8 + 2*0.8*0.2
    state = FireState((1, 0, 0, 0), (2, 3, 3, 3))
    both = 0.8 * 0.8 + 2 * 0.8 * 0.2
    assert extinguish_prob(grid2x2.spread, state, (0, 0), 0) == pytest.approx(0.96)
    assert both == pytest.approx(0.96)


def test_step_decrements_fuel_only_while_burning(grid2x2, rng):
    state = FireState((1, 0, 0, 0), (3, 5, 5, 5))
    nxt, _ = grid2x2.step(state, idle_action(1), rng)
    assert nxt.fuel[0] == 2
    assert nxt.fuel[1] == 5


def test_step_reward_charges_pre_transition_set(grid2x2, rng):
    state = FireState((1, 1, 1, 1), (4, 4, 4, 4))
    rewards = RewardModel((-1.0,) * 4)
    model = Wildfire(grid2x2.spec, grid2x2.spread, rewards)
    _, reward = model.step(state, idle_action(1), rng)
    assert reward == -4.0


def test_step_rejects_bad_action(grid2x2, rng):
    state = FireState((1, 0, 0, 0), (3, 5, 5, 5))
    with pytest.raises(ValueError):
        grid2x2.step(state, (7,), rng)


def grid1_k8_block(rows):
    """grid1_k8's simulator and a ``rows``-row block of one fire whose
    neighbors would each draw: the cells of the bottom row burn."""
    spec = GridSpec(8, 8)
    model = Wildfire(spec, SpreadModel.uniform(spec, 0.06, 0.8), RewardModel((-1.0,) * 64))
    burning = np.zeros((rows, 64), dtype=bool)
    burning[:, :8] = True
    return model, burning, np.full((rows, 64), 5, dtype=np.int64)


@pytest.mark.parametrize("actions, streams", [(2, 3), (3, 2)])
def test_block_step_rejects_other_counts_before_any_draw(actions, streams):
    # zip would drop a row's action or stream; numpy would fail to broadcast
    model, burning, fuel = grid1_k8_block(3)
    rngs = [random.Random(seed) for seed in range(streams)]
    before = [rng.getstate() for rng in rngs]
    with pytest.raises(ValueError, match=f"3 rows .* {actions} actions and {streams} streams"):
        model.step_arrays(burning, fuel, [(0, 1, IDLE, 3)] * actions, rngs)
    assert [rng.getstate() for rng in rngs] == before


def test_block_step_rejects_a_bad_target_in_any_row_before_any_draw():
    # the target is checked where it is applied, after rows 0 and 1 were
    # read, and still before row 0's stream draws
    model, burning, fuel = grid1_k8_block(3)
    rngs = [random.Random(seed) for seed in range(3)]
    before = [rng.getstate() for rng in rngs]
    actions = [(0, 1, IDLE, 3), (IDLE,) * 4, (2, IDLE, 64, 5)]
    with pytest.raises(ValueError, match="action targets cell 64 outside grid"):
        model.step_arrays(burning, fuel, actions, rngs)
    assert [rng.getstate() for rng in rngs] == before


def test_zero_fuel_burning_cell_dies_in_one_step(grid2x2, rng):
    state = FireState((1, 0, 0, 0), (0, 0, 0, 0))
    nxt, _ = grid2x2.step(state, idle_action(0), rng)
    assert nxt == FireState((0, 0, 0, 0), (0, 0, 0, 0))


def test_enumerate_deterministic_state(grid2x2):
    # nothing burning: a single certain outcome
    state = FireState((0, 0, 0, 0), (2, 2, 2, 2))
    outs = enumerate_transitions(grid2x2, state, idle_action(1))
    assert len(outs) == 1
    assert outs[0][1] == 1.0
    assert outs[0][2] == 0.0


def test_enumerate_single_bernoulli(grid2x2):
    # one burning corner igniting exactly one fueled neighbor candidate;
    # suppression is off the burning cell so it keeps burning for sure
    state = FireState((1, 0, 0, 0), (0, 3, 0, 0))
    outs = enumerate_transitions(grid2x2, state, idle_action(0))
    probs = sorted(p for _, p, _ in outs)
    assert probs == pytest.approx([0.06, 0.94])


def test_enumerate_probabilities_sum_to_one(grid2x2):
    state = FireState((1, 1, 0, 0), (3, 3, 3, 3))
    outs = enumerate_transitions(grid2x2, state, (0, 1))
    assert len(outs) == 16
    assert sum(p for _, p, _ in outs) == pytest.approx(1.0, abs=1e-12)
    assert all(r == -3.0 for _, _, r in outs)


def test_enumerate_two_teams_all_burning_q08():
    # 2x2 all burning, one team doubled on a cell: that cell survives with
    # (1-0.8)^2, others with certainty; next fuel drops everywhere
    spec = GridSpec(2, 2)
    model = Wildfire(spec, SpreadModel.uniform(spec, 0.06, 0.8),
                     RewardModel((-1.0,) * 4))
    state = FireState((1, 1, 1, 1), (2, 2, 2, 2))
    outs = enumerate_transitions(model, state, (0, 0))
    assert len(outs) == 2
    by_burning = {tuple(s.burning.tolist()): p for s, p, _ in outs}
    assert by_burning[(1, 1, 1, 1)] == pytest.approx(0.2 ** 2)
    assert by_burning[(0, 1, 1, 1)] == pytest.approx(1 - 0.2 ** 2)


# -- sampled-frequency agreement with the exact law ------------------------

def test_step_frequencies_match_enumeration(grid2x2):
    state = FireState((1, 0, 1, 0), (2, 1, 0, 3))
    action = (0, 0)
    outs = enumerate_transitions(grid2x2, state, action)
    rng = random.Random(7)
    n = 40_000
    counts = {}
    for _ in range(n):
        nxt, _ = grid2x2.step(state, action, rng)
        counts[nxt] = counts.get(nxt, 0) + 1
    for nxt, prob, _ in outs:
        se = math.sqrt(prob * (1 - prob) / n)
        assert abs(counts.get(nxt, 0) / n - prob) <= 3 * se + 1e-9


# -- property tests ---------------------------------------------------------

@st.composite
def small_states(draw):
    burning = draw(st.lists(st.integers(0, 1), min_size=4, max_size=4))
    fuel = draw(st.lists(st.integers(0, 4), min_size=4, max_size=4))
    return FireState(tuple(burning), tuple(fuel))


@st.composite
def law_cases(draw):
    """A small grid with random P, Q, state and action."""
    spec = GridSpec(draw(st.integers(1, 3)), draw(st.integers(1, 3)),
                    draw(st.sampled_from(["four", "eight"])))
    n = spec.n_cells
    unit = st.floats(0.0, 1.0)
    edges = {(x, y): draw(unit) for x in range(n) for y in spec.neighbors(x)}
    q = draw(st.lists(unit, min_size=n, max_size=n))
    burning = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    fuel = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    action = draw(st.lists(st.sampled_from([-1, *range(n)]), max_size=3))
    return SpreadModel(spec, edges, q), FireState(tuple(burning), tuple(fuel)), tuple(action)


@given(law_cases())
@settings(max_examples=80, deadline=None)
def test_burn_next_probs_match_oracle_law(case):
    spread, state, action = case
    model = Wildfire(spread.spec, spread, RewardModel((0.0,) * spread.spec.n_cells))
    for x, prob in enumerate(burn_probs(model, state, action)):
        if state.burning[x]:
            expected = 1.0 - extinguish_prob(spread, state, action, x)
        else:
            expected = ignition_prob(spread, state, x)
        assert prob == pytest.approx(expected, abs=1e-12)


@st.composite
def step_cases(draw):
    """A 1-4 x 1-4 grid with explicit, uneven P (some exactly 0 or 1), random
    Q and non-integer costs, a state with burning cells out of fuel, and an
    action that may repeat a target or idle teams."""
    spec = GridSpec(draw(st.integers(1, 4)), draw(st.integers(1, 4)),
                    draw(st.sampled_from(["four", "eight"])))
    n = spec.n_cells
    # full 53-bit mantissas, so that a change in multiplication order shows
    dense = st.integers(1, 2 ** 53 - 1).map(lambda i: i / 2 ** 53)
    prob = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0), dense)
    edges = {(x, y): draw(prob) for x in range(n) for y in spec.neighbors(x)}
    q = draw(st.lists(prob, min_size=n, max_size=n))
    rewards = draw(st.lists(st.floats(-100.0, 0.0), min_size=n, max_size=n))
    burning = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    fuel = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    action = draw(st.lists(st.sampled_from([-1, *range(n)]), max_size=4))
    model = Wildfire(spec, SpreadModel(spec, edges, q), RewardModel(tuple(rewards)))
    return model, FireState(tuple(burning), tuple(fuel)), tuple(action)


@given(step_cases(), st.integers(0, 2 ** 31))
@settings(max_examples=150, deadline=None)
def test_step_matches_reference_step(case, seed):
    # the vectorised law must reproduce the per-cell loop bit for bit: the same
    # probabilities, next state and reward bits, and the same draws
    model, state, action = case
    rng, ref_rng = random.Random(seed), random.Random(seed)
    for _ in range(3):
        probs = burn_probs(model, state, action)
        assert [p.hex() for p in probs.tolist()] == [
            p.hex() for p in reference_burn_probs(model, state, action)]
        nxt, reward = model.step(state, action, rng)
        ref_nxt, ref_reward = reference_step(model, state, action, ref_rng)
        assert nxt == ref_nxt
        assert (nxt.burning.dtype, nxt.fuel.dtype) == (bool, np.int64)
        assert reward.hex() == ref_reward.hex()
        assert rng.getstate() == ref_rng.getstate()
        state = nxt


@st.composite
def block_cases(draw):
    """A model as in ``step_cases`` and a block of 1-5 rows on it, each a
    state and an action: fires of any size, zero-fuel cells, teams stacked
    on one cell or idle, and one row (a dead fire, or a fire burning
    everywhere with no team on it) where no cell's next state is uncertain."""
    model, _, _ = draw(step_cases())
    n = model.spec.n_cells
    flags, levels = st.integers(0, 1), st.integers(0, 3)
    row = st.tuples(st.lists(flags, min_size=n, max_size=n),
                    st.lists(levels, min_size=n, max_size=n),
                    st.lists(st.sampled_from([IDLE, *range(n)]), max_size=4))
    rows = [(FireState(tuple(b), tuple(f)), tuple(a))
            for b, f, a in draw(st.lists(row, min_size=1, max_size=5))]
    fuel = tuple(draw(st.lists(levels, min_size=n, max_size=n)))
    certain = draw(st.sampled_from([(FireState((0,) * n, fuel), ()),
                                    (FireState((1,) * n, fuel), (IDLE, IDLE))]))
    rows.insert(draw(st.integers(0, len(rows))), certain)
    stacked = draw(st.integers(0, n - 1))
    rows.insert(draw(st.integers(0, len(rows))),
                (FireState((1,) * n, (1,) * n), (stacked, stacked, stacked)))
    return model, rows


@given(block_cases(), st.integers(0, 2 ** 31))
@settings(max_examples=100, deadline=None)
def test_block_step_matches_reference_step_row_by_row(case, seed):
    # every row of one kernel call must be the per-cell loop on that row
    # alone: the same next state, reward bits and draws from its own stream
    model, rows = case
    rngs = [random.Random(seed + i) for i in range(len(rows))]
    ref_rngs = [random.Random(seed + i) for i in range(len(rows))]
    states = [state for state, _ in rows]
    actions = [action for _, action in rows]
    burning = np.stack([state.burning for state in states])
    fuel = np.stack([state.fuel for state in states])
    for _ in range(3):
        inputs, before = (burning, fuel), (burning.copy(), fuel.copy())
        burning, fuel, rewards = model.step_arrays(burning, fuel, actions, rngs)
        assert all(np.array_equal(a, b) for a, b in zip(inputs, before))  # not written
        assert burning.shape == fuel.shape == (len(rows), model.spec.n_cells)
        assert (burning.dtype, fuel.dtype) == (bool, np.int64)
        assert len(rewards) == len(rows)
        for i, action in enumerate(actions):
            ref_next, ref_reward = reference_step(model, states[i], action, ref_rngs[i])
            assert FireState(burning[i], fuel[i]) == ref_next
            assert type(rewards[i]) is float and rewards[i].hex() == ref_reward.hex()
            assert rngs[i].getstate() == ref_rngs[i].getstate()
            states[i] = ref_next


def test_burn_next_probs_multiply_in_in_edge_order():
    # up to eight burning in-neighbours with full-mantissa P: any other order
    # of the survival product changes the last bit of some of these cells
    spec = GridSpec(4, 4, "eight")
    for seed in range(40):
        rng = random.Random(seed)
        edges = {(x, y): rng.random() for x in range(16) for y in spec.neighbors(x)}
        model = Wildfire(spec, SpreadModel(spec, edges, [rng.random()] * 16),
                         RewardModel((0.0,) * 16))
        state = FireState(tuple(rng.randint(0, 1) for _ in range(16)), (2,) * 16)
        action = (rng.randrange(16), rng.randrange(16), IDLE)
        probs = burn_probs(model, state, action).tolist()
        assert [p.hex() for p in probs] == [
            p.hex() for p in reference_burn_probs(model, state, action)]


@given(small_states(), st.integers(0, 2 ** 31))
@settings(max_examples=60, deadline=None)
def test_fuel_never_increases(state, seed):
    spec = GridSpec(2, 2)
    model = Wildfire(spec, SpreadModel.uniform(spec, 0.2, 0.5),
                     RewardModel((-1.0,) * 4))
    rng = random.Random(seed)
    current = state
    for _ in range(6):
        nxt, _ = model.step(current, idle_action(1), rng)
        assert all(nf <= f for nf, f in zip(nxt.fuel, current.fuel))
        current = nxt


@given(small_states(), st.integers(0, 2 ** 31))
@settings(max_examples=60, deadline=None)
def test_exhausted_cells_never_reignite(state, seed):
    spec = GridSpec(2, 2)
    model = Wildfire(spec, SpreadModel.uniform(spec, 0.3, 0.5),
                     RewardModel((-1.0,) * 4))
    rng = random.Random(seed)
    current = state
    for _ in range(8):
        dead = [x for x in range(4) if current.fuel[x] == 0 and current.burning[x]]
        nxt, _ = model.step(current, idle_action(0), rng)
        for x in dead:
            assert not nxt.burning[x]
        for x in range(4):
            if current.fuel[x] == 0 and not current.burning[x]:
                assert not nxt.burning[x]
        current = nxt


@given(small_states(), st.integers(0, 2 ** 31))
@settings(max_examples=40, deadline=None)
def test_no_spread_without_transmission(state, seed):
    spec = GridSpec(2, 2)
    model = Wildfire(spec, SpreadModel.uniform(spec, 0.0, 0.0),
                     RewardModel((-1.0,) * 4))
    rng = random.Random(seed)
    current = state
    for _ in range(5):
        nxt, _ = model.step(current, idle_action(0), rng)
        assert set(burning_cells(nxt)) <= set(burning_cells(current))
        current = nxt


@given(small_states(), st.integers(0, 2 ** 31))
@settings(max_examples=40, deadline=None)
def test_reward_is_deterministic_given_state(state, seed):
    spec = GridSpec(2, 2)
    model = Wildfire(spec, SpreadModel.uniform(spec, 0.1, 0.5),
                     RewardModel((-1.0, -2.0, -3.0, -4.0)))
    expected = sum(-float(x + 1) for x in range(4) if state.burning[x])
    rng = random.Random(seed)
    assert all(model.step(state, idle_action(1), rng)[1] == expected for _ in range(5))


def test_same_seed_same_trajectory(grid2x2):
    state = FireState((1, 1, 0, 0), (3, 2, 4, 4))
    a = (0, 1)
    t1, t2 = [], []
    for out in (t1, t2):
        rng = random.Random(99)
        cur = state
        for _ in range(5):
            cur, r = grid2x2.step(cur, a, rng)
            out.append((cur, r))
    assert t1 == t2
