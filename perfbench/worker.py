"""Run one workload in a fresh interpreter and print its figures as JSON.

``run.py`` starts this script; see README.md.  The worker sets up (imports,
scenario load, policy construction, one untimed warm-up decision), then
repeats identical rounds of its workload until ``--seconds`` are spent,
then checks the outputs it recorded.  With ``--trace 1`` it alternates
untraced and traced rounds and reports per-layer figures instead.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from firegrid import fluid, harness  # noqa: E402


@dataclass
class Round:
    episodes: int = 0
    decisions: int = 0
    decision_s: list = field(default_factory=list)
    fallbacks: int = 0  # planner decisions that fell back to a heuristic
    outputs: list = field(default_factory=list)  # compared between rounds
    seconds: float = 0.0


class Workload:
    """A fixed unit of work (one round) made from the seed.

    Subclasses set ``scenario`` (a file under ``scenarios/``) and implement
    ``setup``, ``play`` and ``check``.  Every round repeats the same inputs,
    so its outputs and work counts must repeat exactly.
    """

    scenario = ""
    iterations = 10  # MCTS iteration budget written into every generated scenario
    operation = "decisions"  # the Round field counted in ``attempted``

    def __init__(self, seed: int):
        self.seed = seed
        with open(ROOT / "scenarios" / self.scenario, encoding="utf-8") as fh:
            self.source = json.load(fh)
        doc = self.overrides(dict(self.source))
        # Work budgets only: the same work per round under any load.
        doc["mcts"] = dict(doc.get("mcts", {}), budget_seconds=None,
                           budget_iterations=self.iterations)
        doc["mo"] = dict(doc.get("mo", {}), time_limit=None)
        if doc.get("neighborhood", "four") != "four":
            raise SystemExit("the checks assume 4-neighbourhoods")
        self.doc = doc
        self.config = harness.scenario_from_dict(doc)
        width = doc["k"]
        height = doc.get("height") or width
        self.neighbours = checks.neighbours4(width, height)
        if "rewards" in self.source:
            self.costs = [float(v) for v in self.source["rewards"]]
        else:
            self.costs = checks.grid1_costs(width, height)
        self.teams = doc["teams"]
        self.steps = []  # (state, action, next state, reward) of the first round
        self.fallbacks = 0

    def overrides(self, doc: dict) -> dict:
        return doc

    def step_and_record(self, model, state, action, rng, record: bool):
        nxt, reward = model.step(state, action, rng)
        if record:
            self.steps.append((state, action, nxt, reward))
        return nxt

    def check(self) -> list:
        return checks.check_steps(self.steps, self.costs, self.neighbours, self.teams)


class PairedK20(Workload):
    """``harness.run_benchmark`` with random and fw at jobs=1."""

    scenario = "grid1_k20.json"
    reps = 16
    policies = ("random", "fw")
    operation = "episodes"

    def overrides(self, doc):
        return dict(doc, seed=self.seed * self.reps, reps=self.reps)

    def setup(self):
        harness.run_benchmark(self.config, list(self.policies), reps=1, jobs=1)
        self.results = None

    def play(self, rnd: Round, record: bool):
        results, _ = harness.run_benchmark(self.config, list(self.policies), jobs=1)
        rnd.episodes = len(results)
        rnd.decisions = sum(r.steps for r in results)
        rnd.outputs = [(r.policy, r.seed, r.reward, r.steps, r.flags()) for r in results]
        if record:
            self.results = results

    def check(self) -> list:
        errors = []
        by_policy = {}
        for res in self.results:
            by_policy.setdefault(res.policy, []).append(res.reward)
            if res.step_cap_hit or res.steps < 1:
                errors.append(f"{res.policy} seed {res.seed}: hit the step cap or never stepped")
        means = {name: statistics.fmean(v) for name, v in by_policy.items()}
        if not means["fw"] > means["random"]:
            errors.append(f"fw mean {means['fw']} does not beat random {means['random']}")
        policies = {name: self.config.make_policy(name) for name in self.policies}
        for res in self.results:
            errors += self.replay(res, policies[res.policy])
        return errors

    def replay(self, res, policy) -> list:
        """Replay one episode through ``harness.run_episode``, recording what
        the policy saw and did, and check it against the law and the result."""
        seen = []

        def recording(state, rng):
            action = policy(state, rng)
            seen.append((state, action))
            return action

        again = harness.run_episode(self.config, recording, res.seed, res.policy)
        where = f"{res.policy} seed {res.seed}"
        if (again.reward, again.steps) != (res.reward, res.steps):
            return [f"{where}: replay gave {again.reward}/{again.steps} steps, "
                    f"benchmark {res.reward}/{res.steps}"]
        first = self.config.initial_state(harness.episode_rng(res.seed))
        if seen[0][0] != first:
            return [f"{where}: first decision did not see the initial fire"]
        if res.reward > checks.burn_cost(first.burning, self.costs) + 1e-9:
            return [f"{where}: reward {res.reward} above the initial fire's burn cost"]
        errors = []
        for i, (state, action) in enumerate(seen):
            errors += checks.check_action(state, action, self.teams)
            if i + 1 < len(seen):
                errors += checks.check_transition(state, action, seen[i + 1][0],
                                                  self.neighbours)
        total = sum(checks.burn_cost(state.burning, self.costs) for state, _ in seen)
        if abs(total - res.reward) > 1e-9 * max(1.0, abs(total)):
            errors.append(f"reward {res.reward}, burn costs sum to {total}")
        return [f"{where}: {e}" for e in errors[:3]]


class Prefixes(Workload):
    """The first ``decisions_per_fire`` decisions of one ``policy`` on each
    fire of the round; the benchmark steps these episodes itself."""

    policy_name = ""
    decisions_per_fire = 2

    def setup(self):
        self.policy = self.config.make_policy(self.policy_name)
        self.model = self.config.model()
        state, rng = next(self.fires())
        self.policy.reset()
        self.policy(state, rng)

    def fires(self):
        """Yields the round's (initial state, random stream) pairs."""
        raise NotImplementedError

    def play(self, rnd: Round, record: bool):
        policy, model = self.policy, self.model
        for state, rng in self.fires():
            policy.reset()
            for _ in range(self.decisions_per_fire):
                if 1 not in state.burning:
                    break
                t0 = time.perf_counter()
                action = policy(state, rng)
                rnd.decision_s.append(time.perf_counter() - t0)
                rnd.outputs.append(action)
                state = self.step_and_record(model, state, action, rng, record)
            rnd.episodes += 1
            rnd.fallbacks += policy.fallbacks
        rnd.decisions = len(rnd.decision_s)
        self.fallbacks += rnd.fallbacks

    def check(self) -> list:
        errors = super().check()
        if self.fallbacks:
            errors.append(f"{self.fallbacks} {self.policy_name} decisions fell back "
                          "to a heuristic")
        return errors


class MctsK20(Prefixes):
    """MCTS on fixed grid1_k20 fires; the seed drives the search and the
    transitions.  Fire size sets the cost of every rollout step, so the fires
    stay fixed, and both are near the grid's mean fire (263 burning cells over
    episode seeds 0-99), so that the decision median sits on one cost level."""

    scenario = "grid1_k20.json"
    policy_name = "mcts"
    fire_seeds = (9, 12)  # 260 and 261 burning cells

    def setup(self):
        self.fire_states = [self.config.initial_state(harness.episode_rng(s))
                            for s in self.fire_seeds]
        super().setup()

    def fires(self):
        for f, state in enumerate(self.fire_states):
            yield state, random.Random(f"perfbench:mcts_k20:{self.seed}:{f}")


class MoPrefixes(Prefixes):
    """``MoPolicy`` on the fires of episode seeds ``seed * n_fires + r``, each
    generated and stepped on its own episode stream as ``run_episode`` does."""

    policy_name = "mo"
    n_fires = 8
    cross_checks = 4  # first decisions re-solved and checked by scipy.optimize.milp

    def fires(self):
        for r in range(self.n_fires):
            rng = harness.episode_rng(self.seed * self.n_fires + r)
            yield self.config.initial_state(rng), rng

    def check(self) -> list:
        """Rebuilds the model of each of the first recorded decisions as
        ``MoPolicy`` does, solves it again, and cross-checks the objective."""
        errors = super().check()
        policy, cfg = self.policy, self.policy.config
        for i, (state, action, _, _) in enumerate(self.steps[:self.cross_checks]):
            calibration = fluid.calibrate(policy.spread, state, cfg.horizon, delta=cfg.delta)
            model = fluid.build_model(calibration, state, policy.rewards, policy.teams)
            again, info = fluid.relax_and_score(
                model, time_limit=cfg.time_limit, backend=cfg.backend,
                bnb_binary_cap=cfg.bnb_binary_cap, node_limit=cfg.node_limit)
            if again is None or tuple(again) != tuple(action):
                errors.append(f"decision {i}: re-solve gave {again}, policy played {action}")
            errors += [f"decision {i}: {e}" for e in checks.check_mo_model(model, info)]
        return errors


class MoK8(MoPrefixes):
    scenario = "grid1_k8.json"
    n_fires = 10
    decisions_per_fire = 3


class MoTiny(MoPrefixes):
    """Every tiny_explicit episode starts from the scenario's one fire, so
    every timed decision solves the same model; the seed drives the
    transition after it."""

    scenario = "tiny_explicit.json"
    n_fires = 4
    decisions_per_fire = 1
    cross_checks = 1


WORKLOADS = {
    "paired_k20": PairedK20,
    "mcts_k20": MctsK20,
    "mo_k8": MoK8,
    "mo_tiny": MoTiny,
}


def play_round(workload: Workload, record: bool) -> Round:
    rnd = Round()
    t0 = time.perf_counter()
    workload.play(rnd, record)
    rnd.seconds = time.perf_counter() - t0
    return rnd


def run_rounds(workload: Workload, seconds: float, tracer=None) -> tuple:
    """Whole rounds until the next one would overrun ``seconds`` (at least one).
    With a tracer, rounds alternate untraced and traced, in pairs."""
    plain, traced, counts = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(play_round(workload, record=not plain))
        if tracer is not None:
            before = tracer.counts()
            tracer.scope = "round"
            tracer.install(tracing.targets())
            traced.append(play_round(workload, record=False))
            tracer.uninstall()
            after = tracer.counts()
            counts.append({k: tuple(a - b for a, b in zip(v, before.get(k, (0, 0, 0))))
                           for k, v in after.items()})
        done = len(plain)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done > seconds:
            return plain, traced, counts


def end_to_end(rounds, setup_s: float, peak_rss_mb: float) -> dict:
    # Rates are totals over the timed time: the host's CPU speed drifts
    # between two levels, and a median would jump between them.
    seconds = sum(r.seconds for r in rounds)
    if rounds[0].decision_s:
        decision_ms = 1000 * statistics.median(t for r in rounds for t in r.decision_s)
    else:
        # The harness makes these decisions inside run_benchmark, out of
        # reach of a per-decision timer: use the wall time per decision.
        decision_ms = 1000 * seconds / sum(r.decisions for r in rounds)
    return {
        "setup_s": (setup_s, "s"),
        "episodes_per_s": (sum(r.episodes for r in rounds) / seconds, "1/s"),
        "decisions_per_s": (sum(r.decisions for r in rounds) / seconds, "1/s"),
        "decision_ms_p50": (decision_ms, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(tracer, plain, traced, decisions: int) -> dict:
    n = len(traced)
    spans = tracer.scopes

    def span(name):
        # Mean time per call over the traced rounds, or over set-up for the
        # layers that run only there.
        s = spans["round"].get(name)
        return s if s is not None else spans["setup"].get(name, tracing.Span())

    def per_round(name, i=None):
        s = spans["round"].get(name, tracing.Span())
        return (s.calls if i is None else s.work[i]) / n

    def mean(name, scale):
        s = span(name)
        return scale * s.total / s.calls if s.calls else 0.0

    plan = span("mcts.plan")
    bnb = span("milp.bnb")
    model = span("fluid.build_model")
    rollout = tracer.rollout_in_plan["round" if "mcts.plan" in spans["round"] else "setup"]
    overhead = 100.0 * (statistics.median(r.seconds for r in traced)
                        / statistics.median(r.seconds for r in plain) - 1.0)
    out = {
        "run.decisions": (decisions, "count"),
        "trace.overhead_pct": (overhead, "%"),
        "mdp.step_calls": (per_round("mdp.step"), "count"),
        "mdp.step_us": (mean("mdp.step", 1e6), "us"),
        "heuristics.fw_sample_calls": (per_round("heuristics.fw_sample"), "count"),
        "heuristics.fw_sample_us": (mean("heuristics.fw_sample", 1e6), "us"),
        "heuristics.fw_policy_us": (mean("heuristics.fw_policy", 1e6), "us"),
        "heuristics.random_policy_us": (mean("heuristics.random_policy", 1e6), "us"),
        "heuristics.distances_calls": (per_round("heuristics.distances"), "count"),
        "heuristics.distances_ms": (mean("heuristics.distances", 1e3), "ms"),
        "heuristics.fw_weights_ms": (mean("heuristics.fw_weights", 1e3), "ms"),
        "mcts.plan_ms": (mean("mcts.plan", 1e3), "ms"),
        "mcts.iterations": (per_round("mcts.plan", 0), "count"),
        "mcts.iterations_per_s": (plan.work[0] / plan.total if plan.total else 0.0, "1/s"),
        "mcts.self_ms": (1e3 * plan.self / plan.calls if plan.calls else 0.0, "ms"),
        "mcts.rollout_share": (rollout / plan.total if plan.total else 0.0, "ratio"),
        "mcts.fallbacks": (per_round("mcts.plan", 1), "count"),
        "fluid.calibrate_ms": (mean("fluid.calibrate", 1e3), "ms"),
        "fluid.build_model_ms": (mean("fluid.build_model", 1e3), "ms"),
        "fluid.model_rows": (model.work[0] / model.calls if model.calls else 0.0, "count"),
        "fluid.model_nnz": (model.work[1] / model.calls if model.calls else 0.0, "count"),
        "fluid.relax_and_score_ms": (mean("fluid.relax_and_score", 1e3), "ms"),
        "fluid.fallbacks": (per_round("fluid.relax_and_score", 0), "count"),
        "lp.highs_calls": (per_round("lp.highs"), "count"),
        "lp.highs_ms": (mean("lp.highs", 1e3), "ms"),
        "lp.highs_iterations": (per_round("lp.highs", 0), "count"),
        "lp.bundled_calls": (per_round("lp.bundled"), "count"),
        "lp.bundled_ms": (mean("lp.bundled", 1e3), "ms"),
        "lp.bundled_iterations": (per_round("lp.bundled", 0), "count"),
        "milp.bnb_calls": (per_round("milp.bnb"), "count"),
        "milp.bnb_ms": (mean("milp.bnb", 1e3), "ms"),
        "milp.bnb_self_ms": (1e3 * bnb.self / bnb.calls if bnb.calls else 0.0, "ms"),
        "milp.bnb_nodes": (per_round("milp.bnb", 0), "count"),
        "harness.make_policy_calls": (per_round("harness.make_policy"), "count"),
        "harness.make_policy_ms": (mean("harness.make_policy", 1e3), "ms"),
        "harness.initial_state_calls": (per_round("harness.initial_state"), "count"),
        "harness.initial_state_ms": (mean("harness.initial_state", 1e3), "ms"),
        "harness.initial_fire_stats_ms": (mean("harness.initial_fire_stats", 1e3), "ms"),
        "harness.run_episode_ms": (mean("harness.run_episode", 1e3), "ms"),
    }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(tracing.targets())
    workload.setup()
    setup_s = time.monotonic() - args.launched
    if tracer is not None:
        tracer.uninstall()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    plain, traced, counts = run_rounds(workload, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = workload.check()
    rounds = plain + traced
    if any(r.outputs != rounds[0].outputs for r in rounds):
        errors.append("rounds with identical inputs gave different outputs")
    if any(c != counts[0] for c in counts):
        errors.append("traced rounds did different work")
    if args.trace:
        metrics = per_layer(tracer, plain, traced, rounds[0].decisions)
    else:
        metrics = end_to_end(plain, setup_s, peak_rss_mb)
    result = {
        "correct": not errors,
        "attempted": sum(getattr(r, workload.operation) for r in rounds),
        "failed": sum(r.fallbacks for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "errors": errors[:20],
        "planner_fallbacks": workload.fallbacks,
        "rounds": [{"seconds": r.seconds, "episodes": r.episodes,
                    "decisions": r.decisions} for r in rounds],
        "scenario": workload.doc,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
