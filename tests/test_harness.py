import json
import math
import os
import random
import statistics
import time
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from firegrid import fluid, heuristics
from firegrid.harness import (
    MAX_CELLS,
    MAX_WARMUP_STEPS,
    POLICY_NAMES,
    ScenarioConfig,
    ScenarioError,
    branching_factor,
    episode_rng,
    _fire_size,
    gen_initial,
    grid1_rewards,
    grid2_rewards,
    initial_fire_stats,
    load_scenario,
    results_to_csv,
    run_benchmark,
    run_episode,
    scenario_from_dict,
    stats_to_csv,
    summary_to_csv,
)
from firegrid.mdp import IDLE, GridSpec, RewardModel, SpreadModel, Wildfire

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


# -- reward layouts -----------------------------------------------------------

def test_grid1_rewards_corners():
    r = grid1_rewards(8)
    spec = GridSpec(8, 8)
    assert r[spec.index(0, 0)] == -1.0
    assert r[spec.index(7, 7)] == -10.0


def test_grid1_rewards_linear_growth():
    # cell (2, 3) in 1-indexed (col, row) terms: -(1 + 1 + 2)
    r = grid1_rewards(8)
    spec = GridSpec(8, 8)
    assert r[spec.index(1, 2)] == -4.0
    assert r[spec.index(3, 0)] == -4.0


def test_grid1_override_only_touches_the_corner():
    r = grid1_rewards(12)
    spec = GridSpec(12, 12)
    assert r[spec.index(11, 11)] == -10.0
    assert r[spec.index(10, 11)] == -(1 + 10 + 11)


def test_grid2_rows_sum_to_minus_one():
    for k, lam in ((8, 0.1), (9, 0.4), (20, 0.2)):
        r = grid2_rewards(k, lam)
        spec = GridSpec(k, k)
        row_sum = sum(r[spec.index(c, 0)] for c in range(k))
        assert row_sum == pytest.approx(-1.0, abs=1e-12)


def test_grid2_costs_do_not_depend_on_how_sum_adds(monkeypatch):
    # the builtin sum of Python 3.12+ is compensated; the costs, and so every
    # grid2 episode, must come out as a left-to-right sum gives them
    from firegrid import harness

    monkeypatch.setattr(harness, "sum", math.fsum, raising=False)
    assert grid2_rewards(5, 0.2)[0] == -0.286763726302377


def test_grid2_small_lambda_is_uniform():
    k = 10
    r = grid2_rewards(k, 1e-9)
    assert all(v == pytest.approx(-1.0 / k, rel=1e-6) for v in r.values)


def test_grid2_decay_ratio():
    r = grid2_rewards(20, 0.2)
    spec = GridSpec(20, 20)
    ratio = r[spec.index(0, 0)] / r[spec.index(19, 0)]
    assert ratio == pytest.approx(math.exp(3.8), rel=1e-9)


def test_grid2_costs_fall_toward_the_right():
    r = grid2_rewards(9, 0.3)
    spec = GridSpec(9, 9)
    row = [r[spec.index(c, 4)] for c in range(9)]
    assert all(row[i] < row[i + 1] for i in range(8))


# -- initial-fire generators --------------------------------------------------

def grid1_k8():
    return scenario_from_dict({"family": "grid1", "k": 8, "P_default": 0.06,
                               "Q_default": 0.8})


def test_grid1_generator_scaled_fuel_levels():
    config = grid1_k8()
    spec = config.spec()
    state = config.initial_state(episode_rng(1))
    # floor(8 / 0.12) = 66 pre-scale; untouched cells end at floor(66 * 8^-0.25)
    assert int(8 / 0.12) == 66
    assert 8 ** -0.25 == pytest.approx(0.59460, abs=1e-5)
    untouched = int(66 * 8 ** -0.25)
    far_corner = spec.index(7, 7)
    assert state.fuel[far_corner] in (untouched, 0) or state.fuel[far_corner] <= untouched
    assert max(state.fuel) <= untouched


def test_grid1_generator_seed_burns_out():
    # after floor(k/2p) uncontrolled steps the ignition cell has consumed all
    # its fuel; the burning flag may linger one step (it extinguishes with
    # certainty on the next transition and can never reignite)
    config = grid1_k8()
    spec = config.spec()
    for seed in range(3):
        state = config.initial_state(episode_rng(seed))
        seed_cell = spec.index(0, 0)
        assert state.fuel[seed_cell] == 0


def test_grid1_generator_burn_region_connected():
    config = grid1_k8()
    spec = config.spec()
    untouched = int(66 * 8 ** -0.25)
    state = config.initial_state(episode_rng(7))
    touched = {x for x in range(64) if state.fuel[x] < untouched or state.burning[x]}
    assert spec.index(0, 0) in touched
    frontier = [spec.index(0, 0)]
    seen = {spec.index(0, 0)}
    while frontier:
        x = frontier.pop()
        for y in spec.neighbors(x):
            if y in touched and y not in seen:
                seen.add(y)
                frontier.append(y)
    assert seen == touched


def test_grid2_generator_center_and_fuel():
    config = scenario_from_dict({"family": "grid2", "k": 9, "P_default": 0.02,
                                 "Q_default": 0.8, "lambda": 0.2})
    spec = config.spec()
    assert int(9 / 0.08) == 112 == config.generation_horizon()
    state = config.initial_state(episode_rng(2))
    center = spec.index(4, 4)  # ceil(9/2) = 5 one-indexed
    touched = [x for x in range(81) if state.fuel[x] < int(112 * 9 ** -0.25)]
    assert center in touched or state.burning[center]
    assert 9 ** -0.25 == pytest.approx(0.57735, abs=1e-5)


def test_grid2_center_cell_for_k17():
    spec = GridSpec(17, 17)
    assert spec.index(math.ceil(17 / 2) - 1, math.ceil(17 / 2) - 1) == spec.index(8, 8)


# -- scenario documents --------------------------------------------------------

def explicit_doc(**overrides):
    doc = {
        "family": "explicit",
        "k": 2,
        "P_default": 0.0,
        "Q_default": 0.0,
        "teams": 0,
        "rewards": [-1.0, -1.0, -1.0, -1.0],
        "fuel": [3, 0, 0, 0],
        "burning": [1, 0, 0, 0],
        "seed": 5,
        "reps": 2,
    }
    doc.update(overrides)
    return doc


def test_scenario_round_trip(tmp_path):
    doc = explicit_doc()
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert load_scenario(str(path)).fuel == doc["fuel"]


def test_make_policy_rejects_unknown_name():
    # one spelling per policy: "MO" is not "mo"
    for name in ("nope", "MO"):
        with pytest.raises(ScenarioError, match=f"'policies': unknown policy '{name}'"):
            scenario_from_dict(explicit_doc()).make_policy(name)


def test_scenario_unknown_field_named():
    with pytest.raises(ScenarioError, match="bogus"):
        scenario_from_dict(explicit_doc(bogus=1))


def test_scenario_missing_lambda_named():
    with pytest.raises(ScenarioError, match="lambda"):
        scenario_from_dict({"family": "grid2", "k": 9, "P_default": 0.02,
                            "Q_default": 0.8, "teams": 2})


def test_scenario_bad_probability_named():
    with pytest.raises(ScenarioError, match="P_default"):
        scenario_from_dict(explicit_doc(P_default=1.5))


def test_scenario_wrong_array_length_named():
    with pytest.raises(ScenarioError, match="fuel"):
        scenario_from_dict(explicit_doc(fuel=[1, 2]))


def test_scenario_planner_blocks_validated_at_load():
    with pytest.raises(ScenarioError, match="mcts.budget_secs"):
        scenario_from_dict(explicit_doc(mcts={"budget_secs": 1.0}))
    with pytest.raises(ScenarioError, match="mcts.reuse_tree"):
        scenario_from_dict(explicit_doc(mcts={"reuse_tree": True}))
    with pytest.raises(ScenarioError, match="'mo': unknown backend"):
        scenario_from_dict(explicit_doc(mo={"backend": "cplex"}))
    with pytest.raises(ScenarioError, match="field 'mcts.depth': expected int, got str"):
        scenario_from_dict(explicit_doc(mcts={"depth": "deep"}))
    with pytest.raises(ScenarioError, match="'mo': must be an object"):
        scenario_from_dict(explicit_doc(mo=[3]))
    # one spelling per setting: u_mutate = u_recombine = 0 is no genetic
    # generation, the retry count is a constant, and "highs" is HiGHS
    for key, value in (("use_genetic", False), ("gen_retries", 3)):
        with pytest.raises(ScenarioError, match=f"^field 'mcts.{key}': unknown mcts option"):
            scenario_from_dict(explicit_doc(mcts={key: value}))
    with pytest.raises(ScenarioError, match="^field 'mo': unknown backend 'auto'"):
        scenario_from_dict(explicit_doc(mo={"backend": "auto"}))
    # every range rule names its key
    for options, message in (
        ({"exploration_c": -1.0}, "exploration_c must be >= 0"),
        ({"widen_k_action": 0}, "widen_k_action must be > 0"),
        ({"widen_k_action": -2.5}, "widen_k_action must be > 0"),
        ({"widen_k_state": 0.0}, "widen_k_state must be > 0"),
        ({"widen_alpha_action": 0.0}, r"widen_alpha_action must be in \(0, 1\]"),
        ({"widen_alpha_state": 1.5}, r"widen_alpha_state must be in \(0, 1\]"),
        ({"depth": 0}, "depth must be >= 1"),
        ({"gamma": 1.1}, r"gamma must be in \[0, 1\]"),
        ({"u_mutate": -0.5, "u_recombine": 1.2}, "u_mutate must be >= 0"),
        ({"u_recombine": -0.1}, "u_recombine must be >= 0"),
        ({"u_mutate": 0.6, "u_recombine": 0.6}, r"u_mutate \+ u_recombine must not exceed 1"),
        ({"budget_seconds": -1.0}, "budget_seconds must be a finite number >= 0"),
        ({"budget_seconds": math.inf}, "budget_seconds must be a finite number >= 0"),
        ({"budget_iterations": -5}, "budget_iterations must be >= 0"),
        ({"budget_seconds": None}, "budget_seconds and budget_iterations must not both be null"),
        ({"rollout": "greedy"}, "rollout: unknown rollout policy 'greedy'"),
    ):
        with pytest.raises(ScenarioError, match=f"^field 'mcts': {message}"):
            scenario_from_dict(explicit_doc(mcts=options))
    for options, message in (
        ({"delta": math.nan}, "delta must be a finite number > 0"),
        ({"delta": math.inf}, "delta must be a finite number > 0"),
        ({"delta": 0.0}, "delta must be a finite number > 0"),
        ({"time_limit": math.nan}, "time_limit must be a finite number > 0 or null"),
        ({"time_limit": math.inf}, "time_limit must be a finite number > 0 or null"),
        ({"time_limit": -1.0}, "time_limit must be a finite number > 0 or null"),
    ):
        with pytest.raises(ScenarioError, match=f"^field 'mo': {message}"):
            scenario_from_dict(explicit_doc(mo=options))
    # zero budgets stay legal: the search falls back to the rollout policy
    scenario_from_dict(explicit_doc(mcts={"budget_seconds": 0.0, "budget_iterations": 0}))


# -- episodes ------------------------------------------------------------------

def test_episode_without_fire_is_empty():
    config = scenario_from_dict(explicit_doc(burning=[0, 0, 0, 0]))
    res = run_episode(config, config.make_policy("random"), 1, "random")
    assert res.reward == 0.0
    assert res.steps == 0


def test_episode_burns_fuel_plus_one_steps():
    # no spread, no teams: a cell with fuel f burns f + 1 steps at -1 each
    config = scenario_from_dict(explicit_doc())
    res = run_episode(config, config.make_policy("random"), 1, "random")
    assert res.reward == -4.0
    assert res.steps == 4


def line_fire_doc(**overrides):
    """A 30 x 1 line, fuel 1 everywhere, the left cell burning, P 1 and Q 0:
    no cell's next state is uncertain, and the fire front moves one cell a
    step, so it burns for 31 steps.  An explicit fire's horizon is
    max(fuel) + 1 = 2, so the step cap is 20."""
    return explicit_doc(k=30, height=1, P_default=1.0, Q_default=0.0, teams=1,
                        rewards=[-1.0] * 30, fuel=[1] * 30, burning=[1] + [0] * 29,
                        **overrides)


def test_episode_stops_at_the_step_cap():
    config = scenario_from_dict(line_fire_doc())
    assert 10 * config.generation_horizon() == 20
    for name in ("random", "fw"):
        res = run_episode(config, config.make_policy(name), 1, name)
        # one burning cell at step 0, then two (the front and the one behind it)
        assert (res.steps, res.reward, res.step_cap_hit) == (20, -39.0, True)
        assert res.flags() == "step-cap"


def test_benchmark_block_stops_at_the_step_cap():
    config = scenario_from_dict(line_fire_doc(reps=3))
    results, _ = run_benchmark(config, ["random", "fw"])
    assert results_to_csv(results).splitlines()[2:] == [
        f"{name},{seed},-39.0,20,step-cap" for name in ("fw", "random") for seed in (5, 6, 7)]


def test_episode_deterministic():
    config = scenario_from_dict({"family": "grid1", "k": 4, "P_default": 0.06,
                                 "Q_default": 0.8, "teams": 2, "seed": 0})
    a = run_episode(config, config.make_policy("fw"), 9, "fw")
    b = run_episode(config, config.make_policy("fw"), 9, "fw")
    assert (a.reward, a.steps) == (b.reward, b.steps)


def test_initial_state_depends_only_on_seed():
    config = scenario_from_dict({"family": "grid1", "k": 5, "P_default": 0.06,
                                 "Q_default": 0.8, "teams": 2, "seed": 0})
    s1 = config.initial_state(episode_rng(4))
    s2 = config.initial_state(episode_rng(4))
    s3 = config.initial_state(episode_rng(5))
    assert s1 == s2
    assert s1 != s3


@pytest.mark.parametrize("doc", [
    {"family": "grid1", "k": 6, "teams": 2, "seed": 0},
    {"family": "grid2", "k": 7, "teams": 2, "seed": 0, "lambda": 0.2},
])
def test_initial_state_on_scenario_model_matches_own(doc):
    # the warm-up ignores rewards, so the scenario's simulator gives the fire
    # a zero-reward one would, and leaves the stream in the same place
    config = scenario_from_dict(doc)
    spec = config.spec()
    ignition = spec.index(0, 0) if doc["family"] == "grid1" else spec.index(3, 3)
    zero = Wildfire(spec, SpreadModel.uniform(spec, 0.06, 0.8),
                    RewardModel((0.0,) * spec.n_cells))
    for seed in range(4):
        own, shared = episode_rng(seed), episode_rng(seed)
        assert config.initial_state(shared) == gen_initial(
            zero, ignition, config.generation_horizon(), own)
        assert shared.getstate() == own.getstate()


# -- benchmark aggregation -------------------------------------------------------

def small_grid1():
    return scenario_from_dict({"family": "grid1", "k": 4, "P_default": 0.06,
                               "Q_default": 0.8, "teams": 2, "seed": 0,
                               "reps": 6})


def test_benchmark_policy_against_itself_zero_improvement():
    config = small_grid1()
    results, summary = run_benchmark(config, ["random"], reps=4)
    entry = summary.policies[0]
    assert entry.improvement_vs_random == pytest.approx(0.0)


def test_benchmark_paired_seeds_and_order_invariance():
    config = small_grid1()
    res_a, sum_a = run_benchmark(config, ["random", "fw"], reps=5)
    res_b, sum_b = run_benchmark(config, ["fw", "random"], reps=5)
    assert results_to_csv(res_a) == results_to_csv(res_b)
    assert summary_to_csv(sum_a) == summary_to_csv(sum_b)


def test_benchmark_jobs_do_not_change_results():
    # five seeds over 1, 2 and 3 workers, so the seed blocks are uneven; the
    # heuristics play each block in lockstep, MCTS one seed at a time, and
    # every episode must come out as its own run_episode does
    config = scenario_from_dict(work_budgets(
        {"family": "grid1", "k": 4, "P_default": 0.06, "Q_default": 0.8,
         "teams": 2, "seed": 0, "reps": 5}))
    names = ["random", "fw", "fw_sample", "mcts"]
    alone = [run_episode(config, config.make_policy(name), seed, name)
             for name in sorted(names) for seed in range(5)]
    summaries = set()
    for jobs in (1, 2, 3):
        results, summary = run_benchmark(config, names, jobs=jobs)
        assert results_to_csv(results) == results_to_csv(alone)
        summaries.add(summary_to_csv(summary))
    assert len(summaries) == 1


def recording_pool(monkeypatch):
    """Replace the benchmark's pool by one whose map runs in this process;
    returns the lists of pool sizes and of the tasks it was handed."""
    import multiprocessing

    from firegrid import harness

    sizes, tasks = [], []

    class Pool:
        def __init__(self, processes, initializer, initargs):
            sizes.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, items, chunksize=1):
            tasks.extend(items)
            return [func(item) for item in items]

    monkeypatch.setattr(harness, "_worker", None)
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: types.SimpleNamespace(Pool=Pool))
    return sizes, tasks


def test_benchmark_starts_no_more_workers_than_seeds(monkeypatch):
    # the pool is recorded, not started: its map runs in this process
    sizes, _ = recording_pool(monkeypatch)
    config = small_grid1()
    res, _ = run_benchmark(config, ["random", "fw"], reps=3, jobs=64)
    assert sizes == [3]
    assert results_to_csv(res) == results_to_csv(
        run_benchmark(config, ["random", "fw"], reps=3, jobs=1)[0])


def test_benchmark_pool_plays_each_planner_seed_as_its_own_task(monkeypatch):
    # no slow planner seed holds up another, and every task plays every
    # policy; without a planner there is one contiguous block of seeds per
    # worker
    _, tasks = recording_pool(monkeypatch)
    config = scenario_from_dict(work_budgets(
        {"family": "grid1", "k": 4, "P_default": 0.06, "Q_default": 0.8,
         "teams": 2, "seed": 0, "reps": 5}))
    for names, expected in ((["fw", "mcts", "random"], [[0], [1], [2], [3], [4]]),
                            (["fw", "random"], [[0, 1], [2, 3, 4]])):
        tasks.clear()
        results, summary = run_benchmark(config, names, jobs=2)
        assert tasks == expected
        alone, alone_summary = run_benchmark(config, names, jobs=1)
        assert results_to_csv(results) == results_to_csv(alone)
        assert summary_to_csv(summary) == summary_to_csv(alone_summary)


def test_benchmark_builds_each_policy_once(monkeypatch):
    config = small_grid1()
    built = []
    make_policy = ScenarioConfig.make_policy

    def counting(self, name):
        built.append(name)
        return make_policy(self, name)

    monkeypatch.setattr(ScenarioConfig, "make_policy", counting)
    for jobs in (1, 2):
        built.clear()
        run_benchmark(config, ["random", "fw"], reps=3, jobs=jobs)
        assert sorted(built) == ["fw", "random"]


@pytest.mark.parametrize("policies", [["fw"], ["random", "fw", "fw_sample"],
                                      ["fw", "mcts", "mo"]])
def test_benchmark_generates_each_fire_once(monkeypatch, policies):
    # one fire per seed whatever the policies and jobs, and no spread model
    # or simulator built: the scenario built its own when it loaded.  The
    # recorded pool runs its tasks in this process, where the calls count
    config = replace(small_grid1(), mcts={"budget_seconds": None, "budget_iterations": 20},
                     mo={"time_limit": None})
    recording_pool(monkeypatch)
    calls = []
    for owner, attr in ((ScenarioConfig, "initial_state"),
                        (SpreadModel, "__init__"), (Wildfire, "__init__")):
        original = getattr(owner, attr)

        def counting(self, *args, _name=f"{owner.__name__}.{attr}", _original=original):
            calls.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(owner, attr, counting)
    for jobs in (1, 2):
        calls.clear()
        run_benchmark(config, policies, reps=5, jobs=jobs)
        assert calls == ["ScenarioConfig.initial_state"] * 5


def test_benchmark_rejects_counts_below_one():
    config = small_grid1()
    for kwargs, flag in (({"reps": 0}, "reps"), ({"reps": -2}, "reps"),
                         ({"jobs": 0}, "jobs"), ({"jobs": -2}, "jobs")):
        with pytest.raises(ValueError, match=f"{flag} must be >= 1"):
            run_benchmark(config, ["random"], **kwargs)
    with pytest.raises(ValueError, match="reps must be >= 1"):
        initial_fire_stats(config, reps=0)


def test_benchmark_reused_planners_match_fresh_ones():
    # one policy object per benchmark, reset between episodes, must play
    # exactly as a policy built afresh for every episode
    config = scenario_from_dict(explicit_doc(
        k=3, teams=1, rewards=[-1.0, -2.0, -3.0, -2.0, -3.0, -4.0, -3.0, -4.0, -10.0],
        fuel=[3, 4, 3, 4, 5, 4, 3, 4, 3], burning=[0, 1, 0, 1, 1, 0, 0, 0, 0],
        P_default=0.3, Q_default=0.5,
        mcts={"budget_iterations": 30, "budget_seconds": None, "depth": 4},
        mo={"horizon": 3, "time_limit": None, "backend": "highs",
            "bnb_binary_cap": 0}))
    names = ["fw", "fw_sample", "mcts", "mo", "random"]
    fresh = [run_episode(config, config.make_policy(name), config.seed + r, name)
             for name in names for r in range(2)]
    assert "mo-fallback" in results_to_csv(fresh)  # counters must reset too
    for jobs in (1, 2):
        results, _ = run_benchmark(config, names, reps=2, jobs=jobs)
        assert results_to_csv(results) == results_to_csv(fresh)


def test_benchmark_fire_stats_match_regenerated_fires():
    config = small_grid1()
    _, summary = run_benchmark(config, ["random"], reps=6)
    stats = (summary.mean_burning, summary.max_burning,
             summary.mean_fuel_burning, summary.fuel_non_burnt)
    assert stats == initial_fire_stats(config, reps=6)


def test_fire_size_and_records_hold_python_ints():
    # numpy scalars would change the repr of what the CSVs and traces write
    config = load_scenario(SCENARIOS / "grid1_k20.json")
    state = config.initial_state(episode_rng(9))
    size = _fire_size(state)
    assert [type(v) for v in size] == [int, int]
    assert size == (sum(state.burning), sum(state.fuel[state.burning]))
    assert size[0] > 255
    records = []
    run_episode(config, config.make_policy("fw"), 9, "fw", records=records)
    assert records[0]["n_burning"] == size[0]
    assert all(type(r["n_burning"]) is int for r in records)
    assert all(type(t) is int for r in records for t in r["action"])


def test_quartiles_match_statistics_library():
    config = small_grid1()
    results, summary = run_benchmark(config, ["random"], reps=8)
    rewards = sorted(r.reward for r in results)
    q1, med, q3 = statistics.quantiles(rewards, n=4, method="inclusive")
    entry = summary.policies[0]
    assert entry.q1 == pytest.approx(q1)
    assert entry.median == pytest.approx(med)
    assert entry.q3 == pytest.approx(q3)


def test_initial_fire_stats_shapes():
    config = small_grid1()
    mean_burn, max_burn, mean_fuel, untouched = initial_fire_stats(config, reps=6)
    assert 0 < mean_burn <= 16
    assert mean_burn <= max_burn <= 16
    assert untouched == int(int(4 / 0.12) * 4 ** -0.25)
    assert 0 <= mean_fuel <= untouched


def test_csv_headers_versioned():
    config = small_grid1()
    results, summary = run_benchmark(config, ["random"], reps=2)
    assert results_to_csv(results).startswith("# firegrid results v1\n")
    assert summary_to_csv(summary).startswith("# firegrid summary v1\n")


def work_budgets(doc):
    """``doc`` with MCTS at 20 iterations and MO without a time limit."""
    return dict(doc, mcts=dict(doc.get("mcts", {}), budget_seconds=None,
                               budget_iterations=20),
                mo=dict(doc.get("mo", {}), time_limit=None))


def counting_distances(monkeypatch):
    """Count ``all_pairs_distances`` calls wherever the package looks it up,
    and fail any call made in a process other than this one."""
    calls = []
    original = heuristics.all_pairs_distances
    parent = os.getpid()

    def counting(spread):
        assert os.getpid() == parent, "a benchmark worker rebuilt the weight map"
        calls.append(spread)
        return original(spread)

    for module in (heuristics, fluid):
        monkeypatch.setattr(module, "all_pairs_distances", counting)
    return calls


def test_one_floyd_warshall_per_scenario(monkeypatch):
    calls = counting_distances(monkeypatch)
    doc = json.loads((SCENARIOS / "grid1_k8.json").read_text())
    config = scenario_from_dict(work_budgets(doc))
    run_benchmark(config, list(POLICY_NAMES), reps=1)
    assert len(calls) == 1
    run_benchmark(config, list(POLICY_NAMES), reps=1)
    assert len(calls) == 1
    calls.clear()
    stats_to_csv(load_scenario(str(SCENARIOS / "grid1_k8.json")), reps=2)
    assert calls == []


def test_replaced_scenario_builds_its_own_weights():
    config = small_grid1()
    other = replace(config, p_default=0.3)
    assert not np.array_equal(config.weights.w, other.weights.w)
    assert replace(config, seed=9).weights is not config.weights
    assert config.weights is config.weights


def test_benchmark_jobs_do_not_change_planner_results(monkeypatch):
    # MCTS at an iteration budget and MO's relax-round path through HiGHS on
    # a grid, built once in the parent: the forked workers reuse its map
    calls = counting_distances(monkeypatch)
    doc = work_budgets({"family": "grid1", "k": 4, "P_default": 0.06,
                        "Q_default": 0.8, "teams": 2, "seed": 0, "reps": 3})
    outputs = []
    for jobs in (1, 2):
        calls.clear()
        results, summary = run_benchmark(scenario_from_dict(doc), list(POLICY_NAMES),
                                         jobs=jobs)
        assert len(calls) == 1
        outputs.append((results, results_to_csv(results), summary_to_csv(summary)))
    assert outputs[0] == outputs[1]
    config, records = scenario_from_dict(doc), []
    run_episode(config, config.make_policy("mo"), 0, "mo", records=records)
    assert {r["mode"] for r in records} == {"relax-round"}


def test_tiny_p_default_rejected_before_warm_up():
    with pytest.raises(ScenarioError,
                       match=r"^field 'P_default': .* 4000000 steps, more than 10000"):
        scenario_from_dict({"family": "grid1", "k": 8, "P_default": 1e-6})
    # the longest admitted warm-up still loads
    longest = scenario_from_dict({"family": "grid2", "k": 8, "lambda": 0.2,
                                  "P_default": 8 / (4 * MAX_WARMUP_STEPS)})
    assert longest.generation_horizon() == MAX_WARMUP_STEPS


def test_grids_over_max_cells_rejected_before_they_are_built():
    # the rejection comes before the costs, the spread model or the weights
    for doc, name, cells in (({"k": 8, "height": 10**7}, "height", 8 * 10**7),
                             ({"k": 101}, "k", 101 * 101),
                             ({"k": 20_000, "P_default": 1.0}, "k", 20_000**2)):
        start = time.perf_counter()
        with pytest.raises(ScenarioError,
                           match=rf"^field '{name}': {cells} cells, more than 10000$"):
            scenario_from_dict(dict(doc, family="grid1"))
        assert time.perf_counter() - start < 1.0
    largest = scenario_from_dict({"family": "grid1", "k": 100})
    assert largest.spec().n_cells == MAX_CELLS


def test_subnormal_p_default_rejected_before_the_fw_weights_overflow():
    # at 1e-310, R / P_default overflows to -inf, which fw_weights would zero
    # as if the cell were unreachable: w = (0, 0, 0), and fw would pick cell 0
    doc = {"family": "explicit", "k": 3, "height": 1, "teams": 1,
           "rewards": [-1.0, -1.0, -10.0], "fuel": [5, 5, 5], "burning": [1, 1, 0]}
    with pytest.raises(ScenarioError, match=r"^field 'P_default': .* overflow"):
        scenario_from_dict(dict(doc, P_default=1e-310))
    config = scenario_from_dict(dict(doc, P_default=1e-300))
    assert np.all(np.isfinite(config.weights.w))
    assert config.make_policy("fw")(config.initial_state(None), None) == (1,)


# -- every action is legal ---------------------------------------------------------

@st.composite
def small_fires(draw):
    """An explicit scenario on a 1-4 x 1-4 grid with 0-3 teams."""
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n = width * height
    cells = lambda values: st.lists(values, min_size=n, max_size=n)  # noqa: E731
    try:
        return scenario_from_dict({
            "family": "explicit", "k": width, "height": height,
            "teams": draw(st.integers(0, 3)),
            "P_default": draw(st.floats(0.0, 1.0)), "Q_default": draw(st.floats(0.0, 1.0)),
            "rewards": draw(cells(st.floats(-10.0, 0.0))),
            "fuel": draw(cells(st.integers(0, 4))),
            "burning": draw(cells(st.integers(0, 1))),
            "mcts": {"budget_iterations": 5, "budget_seconds": None}})
    except ScenarioError as exc:
        # a subnormal P_default: the fw weights would overflow
        assert "'P_default'" in str(exc)
        assume(False)


@given(small_fires(), st.integers(0, 2 ** 31))
@settings(max_examples=60, deadline=None)
def test_every_action_is_legal(config, seed):
    state = config.initial_state(None)
    for name in ("random", "fw", "fw_sample", "mcts"):
        action = config.make_policy(name)(state, random.Random(seed))
        assert len(action) == config.teams, name
        for target in action:
            if 1 in state.burning:
                assert 0 <= target < len(state.burning) and state.burning[target], name
            else:
                assert target == IDLE, name


# -- branching factor ------------------------------------------------------------

def test_branching_factor_single_team():
    exact, _ = branching_factor(7.0, 1)
    assert exact == pytest.approx(7.0)


def test_branching_factor_small_case():
    exact, _ = branching_factor(10.0, 4)
    assert exact == pytest.approx(10_000 / 24.0)
    assert exact == pytest.approx(416.667, abs=1e-3)


def test_branching_factor_stirling_close():
    exact, approx = branching_factor(275.5, 4)
    assert approx == pytest.approx(exact, rel=0.05)


def test_branching_factor_validation():
    with pytest.raises(ValueError):
        branching_factor(5.0, 0)
    with pytest.raises(ValueError):
        branching_factor(-1.0, 2)
