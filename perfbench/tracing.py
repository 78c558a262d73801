"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces each traced public name where its caller looks it
up at call time (a class attribute or a module global) with a wrapper that
records a span; ``uninstall`` puts the originals back.  A span's self time is
its duration minus the time covered by its child spans.  Spans are summed in
memory per name and per scope: ``"setup"`` for the set-up phase and
``"round"`` for the timed rounds.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class Span:
    __slots__ = ("calls", "total", "self", "work")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.work = [0.0, 0.0]  # iterations, nodes, rows ... read off results

    def add_work(self, amounts):
        for i, amount in enumerate(amounts):
            self.work[i] += amount


class Tracer:
    def __init__(self):
        self.scopes = {"setup": defaultdict(Span), "round": defaultdict(Span)}
        self.scope = "setup"
        self.rollout_in_plan = {"setup": 0.0, "round": 0.0}
        self._stack = []  # [name, child time] of the open spans
        self._saved = []

    def _wrap(self, fn, name, work=None):
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                span = self.scopes[self.scope][name]
                span.calls += 1
                span.total += dt
                span.self += dt - frame[1]
                if name == "heuristics.fw_sample" and any(
                        f[0] == "mcts.plan" for f in stack):
                    self.rollout_in_plan[self.scope] += dt
            if work is not None:
                span.add_work(work(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets):
        """``targets``: (owner, attribute, span name, work-of-result or None)."""
        for owner, attr, name, work in targets:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, work))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def counts(self) -> dict:
        """Calls and work per span name in the round scope."""
        return {name: (s.calls, *s.work) for name, s in self.scopes["round"].items()}


def targets():
    """Every traced name, looked up where the program's callers find it."""
    from firegrid import fluid, harness, heuristics, milp, mcts, mdp

    size = lambda model: (model.problem.shape[0], model.problem.a.nnz)  # noqa: E731
    iters = lambda sol: (sol.iterations,)  # noqa: E731
    return [
        (mdp.Wildfire, "step", "mdp.step", None),
        (heuristics, "fw_sample_policy", "heuristics.fw_sample", None),
        (heuristics, "fw_policy", "heuristics.fw_policy", None),
        (fluid, "fw_policy", "heuristics.fw_policy", None),
        (heuristics, "random_policy", "heuristics.random_policy", None),
        (heuristics, "all_pairs_distances", "heuristics.distances", None),
        (fluid, "all_pairs_distances", "heuristics.distances", None),
        (heuristics, "fw_weights", "heuristics.fw_weights", None),
        (fluid, "fw_weights", "heuristics.fw_weights", None),
        (mcts.Planner, "plan", "mcts.plan", lambda res: (res.iterations, res.fallback)),
        (fluid, "calibrate", "fluid.calibrate", None),
        (fluid, "build_model", "fluid.build_model", size),
        (fluid, "relax_and_score", "fluid.relax_and_score",
         lambda res: (res[0] is None,)),
        (fluid, "solve_lp_scipy", "lp.highs", iters),
        (milp, "solve_lp_scipy", "lp.highs", iters),
        (fluid, "solve_lp", "lp.bundled", iters),
        (fluid, "branch_and_bound", "milp.bnb", lambda res: (res.nodes,)),
        (harness.ScenarioConfig, "make_policy", "harness.make_policy", None),
        (harness.ScenarioConfig, "initial_state", "harness.initial_state", None),
        (harness, "initial_fire_stats", "harness.initial_fire_stats", None),
        (harness, "run_episode", "harness.run_episode", None),
    ]
