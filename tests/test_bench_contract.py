"""The names the benchmark in ``perfbench/`` reaches into the package by.

``perfbench/tracing.py`` replaces public names where their callers look them
up, and ``perfbench/reference.py`` reads ``make_policy("mcts").planner``.
Renaming or rebinding one of them would otherwise show only as a failing
``perfbench/run.py --trace 1`` run.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from firegrid import harness, heuristics

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def small_grid():
    return harness.scenario_from_dict({
        "family": "grid1", "k": 4, "teams": 2,
        "mcts": {"budget_iterations": 5, "budget_seconds": None}})


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
