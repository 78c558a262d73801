"""The names the benchmark in ``perfbench/`` reaches into the package by.

``perfbench/tracing.py`` replaces public names where their callers look them
up.  ``perfbench/reference.py`` reads ``make_policy("mcts").planner`` and
``EpisodeResult.mo_fallbacks`` and builds the fw weights from the scenario's
spread and rewards, and ``perfbench/worker.py`` rebuilds MO's
model from the policy's ``spread``, ``rewards``, ``teams`` and ``config``.
``perfbench/worker.py``'s workloads load shipped scenarios with overrides of
their own.  Renaming or rebinding one of them, or removing a scenario key
they still carry, would otherwise show only as a failing
``perfbench/run.py`` run.
"""

import importlib
import importlib.util
import random
from pathlib import Path

import pytest

from firegrid import fluid, harness, heuristics
from firegrid.mdp import RewardModel, SpreadModel

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def small_grid():
    return harness.scenario_from_dict({
        "family": "grid1", "k": 4, "teams": 2,
        "mcts": {"budget_iterations": 5, "budget_seconds": None},
        "mo": {"horizon": 3, "time_limit": None, "backend": "highs",
               "bnb_binary_cap": 0}})


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.targets()
    assert targets
    for owner, attr, name, _ in targets:
        assert callable(owner.__dict__.get(attr)), f"{name}: {owner.__name__}.{attr}"


def test_mcts_policy_exposes_its_planner():
    assert callable(small_grid().make_policy("mcts").planner.plan)


def test_fw_weights_rebuild_from_the_scenario_as_the_reference_layers_do():
    config = small_grid()
    weights = heuristics.fw_weights(heuristics.all_pairs_distances(config.spread()),
                                    config.reward_model())
    assert weights.w.tobytes() == config.weights.w.tobytes()


@pytest.mark.parametrize("name, rule", [
    ("random", "random_policy"),
    ("fw", "fw_policy"),
    ("fw_sample", "fw_sample_policy"),
])
def test_heuristic_policies_look_the_rule_up_at_call_time(monkeypatch, name, rule):
    # the tracer may replace ``heuristics.<rule>`` after the policy is built
    config = small_grid()
    policy = config.make_policy(name)
    calls = []
    original = getattr(heuristics, rule)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(heuristics, rule, counting)
    policy(config.initial_state(harness.episode_rng(0)), random.Random(0))
    assert len(calls) == 1


def test_mo_policy_exposes_what_the_benchmark_rebuilds_it_from():
    # as perfbench/worker.py's MO check: rebuild the model, solve it again
    config = small_grid()
    policy = config.make_policy("mo")
    assert isinstance(policy.spread, SpreadModel)
    assert isinstance(policy.rewards, RewardModel)
    assert policy.teams == config.teams
    cfg = policy.config
    state = config.initial_state(harness.episode_rng(0))
    calibration = fluid.calibrate(policy.spread, state, cfg.horizon, delta=cfg.delta)
    model = fluid.build_model(calibration, state, policy.rewards, policy.teams)
    again, info = fluid.relax_and_score(
        model, time_limit=cfg.time_limit, backend=cfg.backend,
        bnb_binary_cap=cfg.bnb_binary_cap, node_limit=cfg.node_limit)
    assert again == policy(state, random.Random(0))
    assert set(info) >= {"mode", "status", "objective"}


def test_mo_decision_goes_through_the_traced_names(monkeypatch):
    # the tracer times fluid.build_model_ms and lp.highs_* by wrapping these
    # names on the module; a decision that bypassed them would read zero
    config = small_grid()
    policy = config.make_policy("mo")
    calls = {}

    def counting(name, original):
        def traced(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        return traced

    for name in ("calibrate", "build_model", "solve_lp_scipy"):
        monkeypatch.setattr(fluid, name, counting(name, getattr(fluid, name)))
    policy(config.initial_state(harness.episode_rng(0)), random.Random(0))
    assert policy.last["mode"] == "relax-round"
    assert calls == {"calibrate": 1, "build_model": 1, "solve_lp_scipy": 2}


def test_episode_result_counts_mo_fallbacks():
    config = small_grid()
    result = harness.run_episode(config, config.make_policy("mo"), 0, "mo")
    assert result.mo_fallbacks == 0


def test_states_support_what_the_benchmark_checks_do_with_them():
    # perfbench/worker.py replays episodes through run_episode and steps its
    # own through Wildfire.step; its checks index, unpack and compare states,
    # and loop while 1 is in the burning flags
    config = small_grid()
    model, policy, seen = config.model(), config.make_policy("fw"), []

    def recording(state, rng):
        seen.append(state)
        return policy(state, rng)

    harness.run_episode(config, recording, 0, "fw")
    first = config.initial_state(harness.episode_rng(0))
    stepped, _ = model.step(first, policy(first, None), random.Random(0))
    dead, _ = model.step(first._replace(fuel=[0] * len(first.fuel)),
                         (-1,) * config.teams, random.Random(0))
    for state in (seen[0], seen[-1], stepped, dead):
        burning, fuel = state
        assert state[0] is burning and state[1] is fuel
        assert len(burning) == len(fuel) == config.spec().n_cells
    assert all(1 in state.burning for state in (seen[0], seen[-1], stepped))
    assert 1 not in dead.burning
    assert seen[0] == first and not seen[0] != first
    for state in (seen[-1], stepped, dead):
        assert state != first and not state == first


def test_every_benchmark_workload_loads_its_scenario(monkeypatch):
    # the constructor loads the scenario file and applies the workload's
    # overrides; no round is played
    monkeypatch.syspath_prepend(str(PERFBENCH))
    worker = importlib.import_module("worker")
    assert worker.WORKLOADS
    for name, workload in worker.WORKLOADS.items():
        assert isinstance(workload(0).config, harness.ScenarioConfig), name
