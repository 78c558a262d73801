"""The names the benchmark in ``perfbench/`` reaches into the package by.

``perfbench/tracing.py`` replaces public names where their callers look them
up.  ``perfbench/reference.py`` reads ``make_policy("mcts").planner`` and
``EpisodeResult.mo_fallbacks``, and ``perfbench/worker.py`` rebuilds MO's
model from the policy's ``spread``, ``rewards``, ``teams`` and ``config``.
Renaming or rebinding one of them would otherwise show only as a failing
``perfbench/run.py`` run.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from firegrid import fluid, harness, heuristics
from firegrid.mdp import RewardModel, SpreadModel

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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


def test_episode_result_counts_mo_fallbacks():
    config = small_grid()
    result = harness.run_episode(config, config.make_policy("mo"), 0, "mo")
    assert result.mo_fallbacks == 0
