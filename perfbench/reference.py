"""Reference figures, not gated: the layer table of ROADMAP.md as medians.

    python3 perfbench/reference.py [--repeats 5]

Times each layer on the initial fire of episode seed 0 of the shipped
grids, plus ``run_benchmark`` on grid1_k20 at jobs=1 and jobs=2, and writes
``perfbench/results/reference.json``.  Every figure is the median of
``--repeats`` runs in this one process.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from firegrid import fluid, harness, heuristics  # noqa: E402
from firegrid.mdp import idle_action  # noqa: E402

import checks  # noqa: E402

GRIDS = ("grid1_k8", "grid2_k9", "grid1_k20")
MCTS_ITERATIONS = 20


def median_time(fn, repeats: int, inner: int = 1) -> float:
    """Median over ``repeats`` of the mean seconds per call of ``fn``."""
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        out.append((time.perf_counter() - t0) / inner)
    return statistics.median(out)


def layers(name: str, repeats: int) -> dict:
    config = harness.load_scenario(str(ROOT / "scenarios" / f"{name}.json"))
    config = replace(config,
                     mcts=dict(config.mcts, budget_seconds=None,
                               budget_iterations=MCTS_ITERATIONS),
                     mo=dict(config.mo, time_limit=None))
    model = config.model()
    state = config.initial_state(harness.episode_rng(0))
    rng = random.Random(0)
    weights = heuristics.fw_weights(heuristics.all_pairs_distances(config.spread()),
                                    config.reward_model())
    row = {"cells": len(state.burning), "burning": sum(state.burning)}
    row["step_us"] = 1e6 * median_time(
        lambda: model.step(state, idle_action(config.teams), rng), repeats, 200)
    row["fw_sample_us"] = 1e6 * median_time(
        lambda: heuristics.fw_sample_policy(state, weights, config.teams, rng),
        repeats, 20)

    planner = config.make_policy("mcts").planner

    def plan():
        planner.reset()
        planner.plan(state, random.Random(0))

    row["mcts_iterations_per_s"] = MCTS_ITERATIONS / median_time(plan, repeats)

    calibration = fluid.calibrate(config.spread(), state, config.mo["horizon"])
    built = fluid.build_model(calibration, state, config.reward_model(), config.teams)
    p = built.problem
    row["model_rows"], row["model_cols"] = p.shape
    row["model_nnz"] = int(p.a.nnz)
    row["build_model_ms"] = 1e3 * median_time(
        lambda: fluid.build_model(calibration, state, config.reward_model(), config.teams),
        repeats)
    row["relax_round_ms"] = 1e3 * median_time(
        lambda: fluid.relax_and_score(built, backend="highs"), repeats)
    z = list(built.z_indices())
    row["exact_milp_ms"] = 1e3 * median_time(
        lambda: checks.solve_reference(p.c, p.a, p.senses, p.b, p.lower, p.upper, z),
        repeats)

    if name != "grid1_k20":
        per_epoch, fallbacks = [], 0
        policy = config.make_policy("mo")
        for seed in range(3):
            t0 = time.perf_counter()
            result = harness.run_episode(config, policy, seed, "mo")
            per_epoch.append(1e3 * (time.perf_counter() - t0) / result.steps)
            fallbacks += result.mo_fallbacks
        row["mo_episode_ms_per_epoch_seeds_0_2"] = per_epoch
        row["mo_fallbacks_seeds_0_2"] = fallbacks
    return row


def paired_jobs(repeats: int) -> dict:
    config = harness.load_scenario(str(ROOT / "scenarios" / "grid1_k20.json"))
    out = {}
    for jobs in (1, 2):
        out[f"jobs{jobs}_s"] = median_time(
            lambda: harness.run_benchmark(config, ["random", "fw"], reps=16, jobs=jobs),
            repeats)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    report = {name: layers(name, args.repeats) for name in GRIDS}
    report["paired_k20_random_fw_16_reps"] = paired_jobs(args.repeats)
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    text = json.dumps(report, indent=1)
    (out / "reference.json").write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
