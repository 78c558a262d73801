"""Tests of the benchmark's own checks, and a smoke run of every workload.

    python -m pytest -q perfbench/test_perfbench.py

Each check is fed a corrupted input and must reject it; an untouched step
of the program must pass.  The smoke runs play one round of each workload.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from firegrid import fluid, harness  # noqa: E402

# 3 x 2 grid, cells 0 1 2 on the bottom row and 3 4 5 above them.
NEIGHBOURS = checks.neighbours4(3, 2)
COSTS = checks.grid1_costs(3, 2)
STATE = ((1, 0, 0, 0, 0, 0), (2, 3, 3, 3, 3, 3))


def test_grid_helpers_by_hand():
    assert NEIGHBOURS[0] == (1, 3)
    assert sorted(NEIGHBOURS[4]) == [1, 3, 5]
    assert COSTS == [-1.0, -2.0, -3.0, -2.0, -3.0, -10.0]


def test_legal_action_passes():
    assert checks.check_action(STATE, (0, 0), 2) == []
    assert checks.check_action(((0,) * 6, (3,) * 6), (-1, -1), 2) == []


@pytest.mark.parametrize("action", [(0, 1), (0,), (0, -1), (0, 6)])
def test_action_on_a_cell_not_burning_fails(action):
    assert checks.check_action(STATE, action, 2)


def test_off_by_one_reward_fails():
    assert checks.check_reward(STATE, -1.0, COSTS) == []
    assert checks.check_reward(STATE, -2.0, COSTS)
    assert checks.check_reward(STATE, 0.0, COSTS)


def test_law_abiding_transitions_pass():
    spread = ((1, 1, 0, 1, 0, 0), (1, 3, 3, 3, 3, 3))
    assert checks.check_transition(STATE, (-1, -1), spread, NEIGHBOURS) == []
    put_out = ((0, 0, 0, 0, 0, 0), (1, 3, 3, 3, 3, 3))
    assert checks.check_transition(STATE, (0, 0), put_out, NEIGHBOURS) == []


def test_ignition_with_no_burning_neighbour_fails():
    far = ((1, 0, 1, 0, 0, 0), (1, 3, 3, 3, 3, 3))
    assert any("no burning neighbour" in e
               for e in checks.check_transition(STATE, (-1, -1), far, NEIGHBOURS))


def test_fuel_and_extinction_faults_fail():
    unburnt_fuel = ((1, 0, 0, 0, 0, 0), (2, 3, 3, 3, 3, 3))
    assert checks.check_transition(STATE, (-1, -1), unburnt_fuel, NEIGHBOURS)
    went_out_alone = ((0, 0, 0, 0, 0, 0), (1, 3, 3, 3, 3, 3))
    assert checks.check_transition(STATE, (-1, -1), went_out_alone, NEIGHBOURS)
    empty = ((1, 0, 0, 0, 0, 0), (0, 3, 3, 3, 3, 3))
    burns_empty = ((1, 0, 0, 0, 0, 0), (0, 3, 3, 3, 3, 3))
    assert checks.check_transition(empty, (-1, -1), burns_empty, NEIGHBOURS)


def test_program_steps_pass_the_checks():
    config = harness.scenario_from_dict({"family": "grid1", "k": 6, "teams": 2})
    model, policy = config.model(), config.make_policy("random")
    rng = harness.episode_rng(0)
    state, steps = config.initial_state(rng), []
    while 1 in state.burning:
        action = policy(state, rng)
        nxt, reward = model.step(state, action, rng)
        steps.append((state, action, nxt, reward))
        state = nxt
    assert steps
    assert checks.check_steps(steps, checks.grid1_costs(6, 6),
                              checks.neighbours4(6, 6), 2) == []
    state, action, nxt, reward = steps[0]
    assert checks.check_steps([(state, action, nxt, reward + 1.0)],
                              checks.grid1_costs(6, 6), checks.neighbours4(6, 6), 2)


def test_mo_objective_rules():
    assert checks.check_mo_objective("branch-and-bound", 10.0, 10.0) == []
    assert checks.check_mo_objective("branch-and-bound", 10.5, 10.0)
    assert checks.check_mo_objective("relax-round", 10.5, 10.0, 9.0) == []
    assert checks.check_mo_objective("relax-round", 9.5, 10.0, 9.0)
    assert checks.check_mo_objective("relax-round", 10.0, 10.0, 10.5)
    assert checks.check_mo_objective("relax-round", None, 10.0)


def tiny_model():
    doc = json.loads((ROOT / "scenarios" / "tiny_explicit.json").read_text())
    config = harness.scenario_from_dict(doc)
    state = config.initial_state(random.Random(0))
    calibration = fluid.calibrate(config.spread(), state, 3)
    return fluid.build_model(calibration, state, config.reward_model(), config.teams)


def test_mo_cross_check_on_a_recorded_model():
    model = tiny_model()
    _, info = fluid.relax_and_score(model, backend="bundled")
    assert info["mode"] == "branch-and-bound"
    assert checks.check_mo_model(model, info) == []
    below = dict(info, objective=info["objective"] - 1e-3)
    assert checks.check_mo_model(model, below)
    _, rounded = fluid.relax_and_score(model, backend="highs", bnb_binary_cap=0)
    assert rounded["mode"] == "relax-round"
    assert checks.check_mo_model(model, rounded) == []
    assert checks.check_mo_model(model, dict(rounded, objective=rounded["objective"] - 1.0))


def test_mo_decision_without_an_objective_fails():
    # MoPolicy falls back to fw_policy when the solver returns no objective.
    model = tiny_model()
    _, info = fluid.relax_and_score(model, backend="bundled")
    assert checks.check_mo_model(model, dict(info, objective=None))


def test_planner_fallbacks_fail_the_run(monkeypatch):
    import worker

    monkeypatch.setattr(fluid, "relax_and_score", lambda *a, **k: (None, {}))
    workload = worker.MoTiny(0)
    workload.setup()
    rnd = worker.play_round(workload, record=True)
    assert rnd.fallbacks == rnd.decisions > 0
    assert any("fell back" in e for e in workload.check())


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0.001", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["paired_k20", "mcts_k20", "mo_k8", "mo_tiny"])
def test_smoke_one_round(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in line["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_bench(tmp_path, "mo_k8", 0)
    assert done.returncode != 0
    assert done.stdout == ""
