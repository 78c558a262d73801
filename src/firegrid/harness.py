"""Benchmark harness: scenario files, the initial-fire generator, episode loop.

Two scenario families mirror the benchmark grids.  The first seeds the
bottom-left corner of a k x k grid with linearly growing burn costs and a
-10 hotspot in the opposite corner; the second seeds the center with costs
decaying exponentially across columns.  Both let the fire spread uncontrolled
for a fuel-scaled warmup and then shrink all fuel by k**-0.25.

Benchmarks are paired: replication r of every policy starts from the
identical initial fire and the identical stream state, both drawn from a
stream seeded only by (seed + r).  A benchmark generates each seed's fire
once and plays every policy on it from a copy of the stream state.  A
benchmark's seeds are split into tasks, the same for any ``--jobs``: one seed
per task when a planner plays, else one block of seeds per worker.  Each task
warms up its fires together and then plays every policy, its episodes in
lockstep, each as one block of arrays through the simulator's kernel; a row
of a block draws only from its own stream, so a fire and an episode come out
as they would alone.  Transitions are not paired:
``random``, ``fw_sample`` and ``mcts`` draw from the stream the transitions
use, and a step draws once per cell whose next state is uncertain, so once
two policies' draws or states differ, their transitions read other draws.
Results and summaries serialize to CSV with a versioned header comment.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import operator
import random
import time
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from . import heuristics
from .fluid import IBAR_CAP, MoConfig, MoPolicy, cap_period
from .mcts import MctsConfig, MctsPolicy
from .mdp import (
    FireState,
    GridSpec,
    RewardModel,
    SpreadModel,
    Wildfire,
    idle_action,
)

RESULTS_SCHEMA = "# firegrid results v1"
SUMMARY_SCHEMA = "# firegrid summary v1"
STATS_SCHEMA = "# firegrid initial-fire-stats v1"

POLICY_NAMES = ("random", "fw", "fw_sample", "mcts", "mo")
MAX_WARMUP_STEPS = 10_000  # a grid scenario's generation_horizon(), an explicit fuel, at most
# A scenario's cells at most: ``ScenarioConfig.weights`` is built from a dense
# n x n float64 distance matrix, 800 MB at 10 000 cells, by an O(n^3)
# Floyd-Warshall.
MAX_CELLS = 10_000


class ScenarioError(ValueError):
    """Malformed scenario document; the message names the offending field."""


def _type_name(hint) -> str:
    if hint is type(None):
        return "null"
    if typing.get_origin(hint) is list:
        return "list of " + _type_name(typing.get_args(hint)[0])
    return " or ".join(map(_type_name, typing.get_args(hint))) or hint.__name__


def _json_type(value) -> str:
    if isinstance(value, list):
        entries = sorted({_json_type(v) for v in value})
        return "list of " + " and ".join(entries) if entries else "list"
    return _type_name(type(value))


def _type_matches(value, hint) -> bool:
    """JSON-level type check: ints pass for floats, bools only for bools, and
    ``list[T]`` needs a list whose every entry is a ``T``."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_type_matches(v, args[0]) for v in value)
    if args:  # a union such as ``float | None``
        return any(_type_matches(value, arg) for arg in args)
    if isinstance(value, bool):
        return hint is bool
    if isinstance(value, int) and hint is float:
        return True
    return isinstance(value, hint)


def _check_type(key: str, value, hint):
    if not _type_matches(value, hint):
        raise ScenarioError(f"field '{key}': expected {_type_name(hint)}, "
                            f"got {_json_type(value)}")


def _planner_config(cls, name: str, options):
    """Build ``cls`` (``MctsConfig`` or ``MoConfig``) from the scenario's
    ``name`` block, turning every bad key or value into a ``ScenarioError``."""
    if not isinstance(options, dict):
        raise ScenarioError(f"field '{name}': must be an object")
    hints = typing.get_type_hints(cls)
    for key, value in options.items():
        if key not in hints:
            raise ScenarioError(f"field '{name}.{key}': unknown {name} option")
        _check_type(f"{name}.{key}", value, hints[key])
    try:
        return cls(**options)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"field '{name}': {exc}") from exc


def grid1_rewards(k: int, height: int | None = None) -> RewardModel:
    """Burn cost -(1 + col + row) from the bottom-left, top-right forced to -10."""
    if k < 2:
        raise ScenarioError("field 'k': grid1 needs k >= 2")
    height = k if height is None else height
    values = []
    for row in range(height):
        for col in range(k):
            values.append(-float(1 + col + row))
    values[(height - 1) * k + (k - 1)] = -10.0
    return RewardModel(tuple(values))


def grid2_rewards(k: int, lam: float, height: int | None = None) -> RewardModel:
    """Column-only cost -C * exp(-lam * col), scaled so one row sums to -1."""
    if k < 2:
        raise ScenarioError("field 'k': grid2 needs k >= 2")
    if not lam > 0:  # a NaN fails too
        raise ScenarioError("field 'lambda': grid2 needs lambda > 0")
    height = k if height is None else height
    # left to right, as on Python 3.11: the builtin sum of 3.12+ compensates,
    # which moves the costs' last bits and so the episodes
    norm = functools.reduce(operator.add, (math.exp(-lam * i) for i in range(1, k + 1)), 0.0)
    if norm == 0.0:
        raise ScenarioError("field 'lambda': so large that every cost underflows to 0")
    row = [-math.exp(-lam * (col + 1)) / norm for col in range(k)]
    return RewardModel(tuple(row * height))


def gen_initial(model: Wildfire, ignition: int, steps: int, rngs) -> list[FireState]:
    """One fire per stream of ``rngs``: uniform fuel ``steps`` with only cell
    ``ignition`` burning, then ``steps`` uncontrolled transitions on
    ``model`` (its rewards go unused), then all fuel scaled by width**-0.25
    and floored.  The fires warm up together as one ``(B, n)`` block of the
    kernel, row b drawing only from ``rngs[b]``, so each comes out as it
    would alone; the states are row views of the final block."""
    spec = model.spec
    burning = np.zeros((len(rngs), spec.n_cells), dtype=bool)
    burning[:, ignition] = True
    fuel = np.full((len(rngs), spec.n_cells), steps, dtype=np.int64)
    idle = (idle_action(0),) * len(rngs)
    for _ in range(steps):
        burning, fuel, _ = model.step_arrays(burning, fuel, idle, rngs)
    fuel = (fuel * spec.width ** -0.25).astype(np.int64)
    return [FireState(flags, level) for flags, level in zip(burning, fuel)]


_BUILT = {"init": False, "repr": False, "compare": False}


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment, checked and built once when it is made.

    A scenario file is one JSON object; ``scenarios/*.json`` are examples.
    Every key is optional unless noted, and any other key is an error.

    ``family``: "grid1" (corner fire, burn cost -(1 + col + row), top right
        -10), "grid2" (center fire, cost falling as exp(-lambda * col), each
        row summing to -1) or "explicit" (fire and costs listed); "grid1".
    ``k``: integer >= 1, >= 2 for grid1 and grid2 without ``rewards``; 8.
        Grid width, and its height unless ``height`` is set.
    ``height``: integer >= 1 or null; null.  The grid may have at most
        ``MAX_CELLS`` (10 000) cells, k times the height.
    ``neighborhood``: "four" or "eight"; "four".
    ``P_default``: number in [0, 1], > 0 for grid1 and grid2; 0.06.  The
        chance that one burning neighbor ignites a cell in one step.  A grid
        fire warms up for ``generation_horizon()`` steps, floor(k / 2p) or
        floor(k / 4p), which may not exceed ``MAX_WARMUP_STEPS`` (10 000).
        The sum of |R| over all cells, divided by P_default, must be finite.
    ``Q_default``: number in [0, 1]; 0.8.  One team's chance of putting out
        its cell in one step.
    ``teams``: integer >= 0; 4.
    ``lambda``: number > 0 or null; null, and required for grid2.
    ``seed``: integer; 0.  Replication r plays episode seed ``seed + r``.
    ``reps``: integer >= 1; 64.  Replications of a benchmark.
    ``rewards``: list of finite numbers <= 0, one per cell row-major from
        the bottom left, or null; null (the family's costs), and required
        for explicit.
    ``fuel``, ``burning``: list of integers in [0, ``MAX_WARMUP_STEPS``]
        (10 000), the bound a grid fire's fuel has, and of 0 or 1, one per
        cell, or null; null, required for explicit and ignored otherwise.
    ``mcts``, ``mo``: object of ``MctsConfig`` or ``MoConfig`` fields; {}.

    A bad key or value raises ``ScenarioError`` naming it.  The simulator and
    both planner configs are built here; ``dataclasses.replace`` checks and
    builds them again.  ``weights``, the fw weight map every fw-based policy
    shares, is built on first use and then cached; a replaced copy starts
    without it.
    """

    family: str = "grid1"
    k: int = 8
    height: int | None = None
    neighborhood: str = "four"
    p_default: float = 0.06
    q_default: float = 0.8
    teams: int = 4
    lam: float | None = None
    seed: int = 0
    reps: int = 64
    rewards: list[float] | None = None
    fuel: list[int] | None = None
    burning: list[int] | None = None
    mcts: dict = field(default_factory=dict)
    mo: dict = field(default_factory=dict)
    _model: Wildfire = field(**_BUILT)
    _mcts: MctsConfig = field(**_BUILT)
    _mo: MoConfig = field(**_BUILT)

    def __post_init__(self):
        # the blocks first, so that a non-object block says "must be an object"
        built = {"_mcts": _planner_config(MctsConfig, "mcts", self.mcts),
                 "_mo": _planner_config(MoConfig, "mo", self.mo)}
        hints = typing.get_type_hints(ScenarioConfig)
        for f in fields(self):
            if f.init:
                _check_type(_JSON_KEYS.get(f.name, f.name), getattr(self, f.name),
                            hints[f.name])
        if self.family not in ("grid1", "grid2", "explicit"):
            raise ScenarioError(f"field 'family': unknown family {self.family!r}")
        if self.k < 1:
            raise ScenarioError("field 'k': must be >= 1")
        if self.height is not None and self.height < 1:
            raise ScenarioError("field 'height': must be >= 1")
        height = self.k if self.height is None else self.height
        n = self.k * height
        if n > MAX_CELLS:
            raise ScenarioError(f"field '{'k' if self.height is None else 'height'}': "
                                f"{n} cells, more than {MAX_CELLS}")
        if self.neighborhood not in ("four", "eight"):
            raise ScenarioError(
                f"field 'neighborhood': unknown neighborhood {self.neighborhood!r}")
        if not 0.0 <= self.p_default <= 1.0:
            raise ScenarioError("field 'P_default': must be in [0, 1]")
        if self.p_default == 0.0 and self.family != "explicit":
            raise ScenarioError(f"field 'P_default': {self.family} needs P_default > 0")
        if not 0.0 <= self.q_default <= 1.0:
            raise ScenarioError("field 'Q_default': must be in [0, 1]")
        if self.teams < 0:
            raise ScenarioError("field 'teams': must be >= 0")
        if self.reps < 1:
            raise ScenarioError("field 'reps': must be >= 1")
        if self.family == "grid2" and self.lam is None:
            raise ScenarioError("field 'lambda': required for grid2")
        if self.family != "explicit":
            # compared before int(): the quotient is inf for a subnormal P_default
            steps = self._warmup_quotient()
            if steps >= MAX_WARMUP_STEPS + 1:
                raise ScenarioError(
                    f"field 'P_default': so small that a fire warms up for "
                    f"{int(steps) if steps < math.inf else steps} steps, "
                    f"more than {MAX_WARMUP_STEPS}")
        spec = GridSpec(self.k, height, self.neighborhood)
        if self.family == "explicit":
            for name, arr in (("fuel", self.fuel), ("burning", self.burning)):
                if arr is None:
                    raise ScenarioError(f"field '{name}': required for explicit family")
                if len(arr) != n:
                    raise ScenarioError(f"field '{name}': expected {n} entries")
            # a grid fire's fuel has the same bound: the step cap stays within it
            if any(not 0 <= f <= MAX_WARMUP_STEPS for f in self.fuel):
                raise ScenarioError(
                    f"field 'fuel': entries must be in [0, {MAX_WARMUP_STEPS}]")
            if any(b not in (0, 1) for b in self.burning):
                raise ScenarioError("field 'burning': entries must be 0 or 1")
        if self.rewards is not None:
            if len(self.rewards) != n:
                raise ScenarioError("field 'rewards': wrong length")
            try:
                rewards = RewardModel(tuple(self.rewards))
            except ValueError as exc:
                raise ScenarioError(f"field 'rewards': {exc}") from exc
        elif self.family == "grid1":
            rewards = grid1_rewards(self.k, self.height)
        elif self.family == "grid2":
            rewards = grid2_rewards(self.k, self.lam, self.height)
        else:
            raise ScenarioError("field 'rewards': required for explicit family")
        # every path is at least P_default long: this bounds every fw weight
        if self.p_default > 0.0 and math.isinf(sum(map(abs, rewards.values)) / self.p_default):
            raise ScenarioError("field 'P_default': so small that the fw weights "
                                "overflow: sum |R| / P_default is inf")
        spread = SpreadModel.uniform(spec, self.p_default, self.q_default)
        period = cap_period(spread, built["_mo"].horizon)
        if period is not None:
            raise ScenarioError(
                f"field 'mo.horizon': the fluid model's intensity bounds reach the big-M "
                f"cap {IBAR_CAP:g} in period {period} on this grid, so the horizon "
                f"must be below {period}")
        built["_model"] = Wildfire(spec, spread, rewards)
        for name, value in built.items():
            object.__setattr__(self, name, value)

    # -- the built scenario ------------------------------------------------

    def spec(self) -> GridSpec:
        return self._model.spec

    def spread(self) -> SpreadModel:
        return self._model.spread

    def reward_model(self) -> RewardModel:
        return self._model.rewards

    def model(self) -> Wildfire:
        """The scenario's simulator; every episode and planner shares it."""
        return self._model

    def initial_state(self, rng) -> FireState:
        """``initial_states`` of the one stream ``rng``."""
        return self.initial_states([rng])[0]

    def initial_states(self, rngs) -> list[FireState]:
        """One initial fire per stream of ``rngs``: the explicit fire each
        time, or a grid family's fire, generated by ``gen_initial`` as one
        block: grid1 ignites the bottom-left cell, grid2 the center one."""
        if self.family == "explicit":
            return [FireState(self.burning, self.fuel)] * len(rngs)
        spec = self._model.spec
        if self.family == "grid1":
            ignition = spec.index(0, 0)
        else:
            ignition = spec.index(math.ceil(self.k / 2) - 1,
                                  math.ceil(spec.height / 2) - 1)
        return gen_initial(self._model, ignition, self.generation_horizon(), rngs)

    def generation_horizon(self) -> int:
        """Warm-up steps of ``gen_initial``, also its uniform fuel: floor(k /
        2p) for grid1, floor(k / 4p) for grid2.  An explicit fire burns out
        within max(fuel) + 1 steps."""
        if self.family == "explicit":
            return max(self.fuel, default=1) + 1
        return int(self._warmup_quotient())

    def _warmup_quotient(self) -> float:
        return self.k / ((2.0 if self.family == "grid1" else 4.0) * self.p_default)

    @functools.cached_property
    def weights(self) -> heuristics.WeightMap:
        """The fw weight map, from one Floyd-Warshall over the spread model."""
        return heuristics.fw_weights(heuristics.all_pairs_distances(self.spread()),
                                     self.reward_model())

    def make_policy(self, name: str):
        """Build policy ``name``, a callable ``(state, rng) -> action``.  The
        planners ``mcts`` and ``mo`` also carry ``reset()``, ``fallbacks``
        and ``last``, a dict about their latest decision."""
        if name not in POLICY_NAMES:
            raise ScenarioError(f"field 'policies': unknown policy {name!r}")
        teams = self.teams
        # rules are looked up on ``heuristics`` per call, so later wrappers see them
        if name == "random":
            def policy(state, rng):
                return heuristics.random_policy(state, teams, rng)
            return policy
        if name == "mcts":
            rollout = self.make_policy("fw_sample" if self._mcts.rollout == "fw" else "random")
            return MctsPolicy(self._model, teams, self._mcts, rollout)
        if name == "mo":
            return MoPolicy(self.spread(), self.reward_model(), teams, self._mo,
                            self.make_policy("fw"))
        weights = self.weights
        if name == "fw":
            def policy(state, rng):
                return heuristics.fw_policy(state, weights, teams)
            return policy

        def policy(state, rng):
            return heuristics.fw_sample_policy(state, weights, teams, rng)
        return policy


# scenario fields whose JSON key differs from the field name
_JSON_KEYS = {"p_default": "P_default", "q_default": "Q_default", "lam": "lambda"}


def scenario_from_dict(doc) -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ScenarioError("a scenario must be a JSON object")
    names = {_JSON_KEYS.get(f.name, f.name): f.name
             for f in fields(ScenarioConfig) if f.init}
    kwargs = {}
    for key, value in doc.items():
        if key not in names:
            raise ScenarioError(f"field {key!r}: unknown scenario field")
        kwargs[names[key]] = value
    return ScenarioConfig(**kwargs)


def load_scenario(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid JSON in {path}: {exc}") from exc
    return scenario_from_dict(doc)


# -- episodes and benchmarks ---------------------------------------------


@dataclass
class EpisodeResult:
    policy: str
    seed: int
    reward: float
    steps: int
    step_cap_hit: bool = False
    mo_fallbacks: int = 0
    mcts_fallbacks: int = 0

    def flags(self) -> str:
        parts = []
        if self.step_cap_hit:
            parts.append("step-cap")
        if self.mo_fallbacks:
            parts.append(f"mo-fallback={self.mo_fallbacks}")
        if self.mcts_fallbacks:
            parts.append(f"mcts-fallback={self.mcts_fallbacks}")
        return ";".join(parts)


@dataclass
class PolicySummary:
    policy: str
    mean: float
    median: float
    q1: float
    q3: float
    improvement_vs_random: float | None


@dataclass
class RunSummary:
    policies: list
    mean_burning: float
    max_burning: int
    mean_fuel_burning: float
    fuel_non_burnt: float


def episode_rng(seed: int) -> random.Random:
    return random.Random(f"firegrid-episode:{seed}")


def _fire_size(state: FireState) -> tuple:
    """(number of burning cells, fuel summed over them), as Python ints."""
    fuel = state.fuel[state.burning]
    return fuel.size, int(fuel.sum())


def _play(config: ScenarioConfig, policy, name: str, episodes,
          records: list | None = None) -> list:
    """Play ``policy`` over a block of episodes in lockstep; one
    ``EpisodeResult`` per episode, in order.

    ``episodes`` holds (seed, initial state, rng) triples, each rng
    positioned just after generation.  The block stays as the kernel's
    ``(B, n)`` arrays.  At every decision the policy sees each live row as a
    ``FireState`` of row views, with that row's stream, and then one kernel
    call steps all live rows into a new block.  A row leaves the block when
    its fire is out, or when it is still burning after the hard step cap,
    10x the generation horizon.  A policy with ``reset()`` is reset first and counts its
    fallbacks per episode, so it plays a block of one.  ``records`` is
    ``run_episode``'s.
    """
    if hasattr(policy, "reset"):
        if len(episodes) != 1:
            raise ValueError("a policy with reset() plays one episode at a time")
        policy.reset()
    model = config.model()
    cap = 10 * max(1, config.generation_horizon())
    burning = np.stack([state.burning for _, state, _ in episodes])
    fuel = np.stack([state.fuel for _, state, _ in episodes])
    rngs = [rng for _, _, rng in episodes]
    live = list(range(len(episodes)))  # the episode of each row of the block
    totals = [0.0] * len(episodes)
    ends = [None] * len(episodes)  # (steps, step cap hit) of each episode
    steps = 0
    while True:
        burning_rows = burning.any(axis=1)
        if not burning_rows.all():
            for row in np.flatnonzero(~burning_rows).tolist():
                ends[live[row]] = (steps, False)
            keep = np.flatnonzero(burning_rows)
            burning, fuel = burning[keep], fuel[keep]
            live = [live[row] for row in keep.tolist()]
        if not live:
            break
        if steps >= cap:
            for episode in live:
                ends[episode] = (steps, True)
            break
        actions = []
        for flags, level, episode in zip(burning, fuel, live):
            state = FireState(flags, level)
            t0 = None if records is None else time.perf_counter()
            action = policy(state, rngs[episode])
            if records is not None:
                records.append({"epoch": steps, "n_burning": int(np.count_nonzero(flags)),
                                "action": list(action),
                                "ms": 1e3 * (time.perf_counter() - t0),
                                **getattr(policy, "last", {})})
            actions.append(action)
        burning, fuel, rewards = model.step_arrays(
            burning, fuel, actions, [rngs[episode] for episode in live])
        for episode, reward in zip(live, rewards):
            totals[episode] += reward
        steps += 1
    return [EpisodeResult(
        policy=name,
        seed=seed,
        reward=total,
        steps=end[0],
        step_cap_hit=end[1],
        mo_fallbacks=policy.fallbacks if isinstance(policy, MoPolicy) else 0,
        mcts_fallbacks=policy.fallbacks if isinstance(policy, MctsPolicy) else 0,
    ) for (seed, _, _), total, end in zip(episodes, totals, ends)]


def run_episode(config: ScenarioConfig, policy, seed: int,
                policy_name: str = "?", *, records: list | None = None) -> EpisodeResult:
    """Play one full episode: generate the initial fire, then act until the
    fire is out or the hard step cap (10x the generation horizon) trips.

    The rng stream is seeded only by ``seed``; generation consumes a fixed
    prefix, so every policy sees the identical initial fire for a given seed.
    This is the one-episode case of the benchmark's lockstep loop.

    ``records``, when given, gets one dict per decision: ``epoch`` (from 0),
    ``n_burning``, ``action`` (target cells), ``ms`` (the policy call's wall
    clock) and then the items of the policy's ``last`` dict, if it has one.
    """
    rng = episode_rng(seed)
    state = config.initial_state(rng)
    return _play(config, policy, policy_name, [(seed, state, rng)], records)[0]


def _resumed(saved) -> random.Random:
    """A fresh stream at the saved ``getstate()`` of another."""
    rng = random.Random()
    rng.setstate(saved)
    return rng


def _play_seeds(config, policies, names, seeds):
    """Generate the initial fires of ``seeds`` once, as one warm-up block,
    and play ``policies[name]`` for every name in ``names`` on them as one
    lockstep block, each episode from a fresh copy of its stream as it stood
    after generation.  Returns (_fire_size of each fire, results)."""
    rngs = [episode_rng(seed) for seed in seeds]
    states = config.initial_states(rngs)
    fires = [(seed, state, rng.getstate()) for seed, state, rng in zip(seeds, states, rngs)]
    results = []
    for name in names:
        results += _play(config, policies[name], name,
                         [(seed, state, _resumed(saved)) for seed, state, saved in fires])
    return [_fire_size(state) for _, state, _ in fires], results


_worker = None  # in a benchmark's pool workers, its _play_seeds with all but the seeds bound


def _init_worker(play):
    global _worker
    _worker = play


def _seeds_task(seeds):
    return _worker(seeds)


def _check_count(flag: str, value: int):
    if value < 1:
        raise ValueError(f"{flag} must be >= 1, got {value}")


def initial_fire_stats(config: ScenarioConfig, reps: int | None = None):
    """Table-style statistics over the generated initial fires, which come
    from the benchmark's own generation path, ``_play_seeds`` with no policy.

    Returns (mean burning, max burning, mean fuel over burning cells, fuel
    level of never-burnt cells).  The last figure is the scaled initial fuel
    of an untouched cell as produced by the generator; the corresponding
    published figures disagree with that procedure, so it is reported rather
    than matched.
    """
    reps = config.reps if reps is None else reps
    _check_count("reps", reps)
    fires, _ = _play_seeds(config, {}, [], [config.seed + r for r in range(reps)])
    return _fire_stats(config, fires)


def _fire_stats(config: ScenarioConfig, fires):
    """``initial_fire_stats`` from the ``_fire_size`` of each fire, in seed order."""
    burn_counts = [cells for cells, _ in fires]
    fuel_means = [fuel / cells for cells, fuel in fires if cells]
    horizon = config.generation_horizon()
    untouched = int(horizon * config.k ** -0.25)
    return (
        float(np.mean(burn_counts)),
        int(np.max(burn_counts)),
        float(np.mean(fuel_means)) if fuel_means else 0.0,
        float(untouched),
    )


def run_benchmark(config: ScenarioConfig, policies, reps: int | None = None,
                  jobs: int = 1):
    """Paired-seed comparison of ``policies``; returns (results, RunSummary).

    Replication r of every policy uses seed ``config.seed + r``.  Each seed's
    initial fire is generated once and shared by all policies, which play it
    in turn from the same stream state.  So every policy sees the same fire
    and starts from the same stream, but a policy that draws from the stream
    (``random``, ``fw_sample``, ``mcts``) shifts the draws of the transitions
    after it.  A name given twice plays twice.  Each policy is built once per
    call.  The seeds are split into tasks, whatever ``jobs`` is: when a
    planner (``mcts``, ``mo``, a policy with ``reset()``) is among the
    policies, each seed is its own task, so no slow seed holds up others;
    otherwise there are ``min(jobs, reps)`` contiguous seed blocks.  A task
    warms up its fires once, as one block, and plays every policy on them in
    one lockstep block.  The tasks run in this process, or with ``jobs > 1`` in a pool of
    ``min(jobs, reps)`` processes.  Every episode draws only from its own
    stream, so results are the same for any ``jobs``: each equals
    ``run_episode`` for its (policy, seed).
    Results are merged in (policy, seed) order, so the output depends neither
    on scheduling nor on the order the policies were given.
    """
    reps = config.reps if reps is None else reps
    _check_count("reps", reps)
    _check_count("jobs", jobs)
    names = list(policies)
    built = {name: config.make_policy(name) for name in names}
    seeds = [config.seed + r for r in range(reps)]
    workers = min(jobs, reps)  # a worker beyond one per seed would sit idle
    if any(hasattr(policy, "reset") for policy in built.values()):
        tasks = [[seed] for seed in seeds]
    else:
        tasks = [seeds[w * reps // workers:(w + 1) * reps // workers] for w in range(workers)]
    play = functools.partial(_play_seeds, config, built, names)
    if workers > 1:
        import multiprocessing as mp

        # fork keeps workers importable from any entry point (pytest, stdin),
        # and hands them the scenario and the built policies unpickled: MCTS
        # rollout closures cannot be pickled
        with mp.get_context("fork").Pool(
                workers, initializer=_init_worker, initargs=(play,)) as pool:
            played = pool.map(_seeds_task, tasks, chunksize=1)
    else:
        played = list(map(play, tasks))
    fires = [fire for sizes, _ in played for fire in sizes]
    results = sorted((res for _, episodes in played for res in episodes),
                     key=lambda res: (res.policy, res.seed))

    by_policy = {}
    for res in results:
        by_policy.setdefault(res.policy, []).append(res.reward)
    random_mean = None
    if "random" in by_policy:
        random_mean = float(np.mean(by_policy["random"]))
    summaries = []
    for name in sorted(by_policy):
        rewards = np.asarray(by_policy[name])
        q1, med, q3 = np.percentile(rewards, [25, 50, 75], method="linear")
        improvement = None
        if random_mean is not None and random_mean != 0.0:
            improvement = 100.0 * (float(rewards.mean()) - random_mean) / abs(random_mean)
        summaries.append(PolicySummary(
            policy=name, mean=float(rewards.mean()), median=float(med),
            q1=float(q1), q3=float(q3), improvement_vs_random=improvement,
        ))
    mean_burn, max_burn, mean_fuel, untouched = _fire_stats(config, fires)
    summary = RunSummary(
        policies=summaries,
        mean_burning=mean_burn,
        max_burning=max_burn,
        mean_fuel_burning=mean_fuel,
        fuel_non_burnt=untouched,
    )
    return results, summary


def branching_factor(n_burning: float, teams: int):
    """Distinct team-to-burning-cell assignments: N**teams / teams!, plus its
    Stirling approximation (e N / teams)**teams / sqrt(2 pi teams)."""
    if teams < 1:
        raise ValueError("teams must be >= 1")
    if n_burning < 0:
        raise ValueError("n_burning must be >= 0")
    exact = n_burning ** teams / math.factorial(teams)
    if n_burning == 0:
        return exact, 0.0
    stirling = (math.e * n_burning / teams) ** teams / math.sqrt(2 * math.pi * teams)
    return exact, stirling


# -- CSV serialization ----------------------------------------------------


def results_to_csv(results) -> str:
    out = io.StringIO()
    out.write(RESULTS_SCHEMA + "\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["policy", "seed", "reward", "steps", "flags"])
    for res in results:
        writer.writerow([res.policy, res.seed, repr(res.reward), res.steps,
                         res.flags()])
    return out.getvalue()


def summary_to_csv(summary: RunSummary) -> str:
    out = io.StringIO()
    out.write(SUMMARY_SCHEMA + "\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["policy", "mean", "median", "q1", "q3",
                     "improvement_vs_random_pct"])
    for ps in summary.policies:
        writer.writerow([
            ps.policy, repr(ps.mean), repr(ps.median), repr(ps.q1), repr(ps.q3),
            "" if ps.improvement_vs_random is None else repr(ps.improvement_vs_random),
        ])
    writer.writerow([])
    _write_fire_stats(writer, summary.mean_burning, summary.max_burning,
                      summary.mean_fuel_burning, summary.fuel_non_burnt)
    return out.getvalue()


def stats_to_csv(config: ScenarioConfig, reps: int | None = None) -> str:
    out = io.StringIO()
    out.write(STATS_SCHEMA + "\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["statistic", "value"])
    _write_fire_stats(writer, *initial_fire_stats(config, reps))
    return out.getvalue()


def _write_fire_stats(writer, mean_burn, max_burn, mean_fuel, untouched):
    """The four labelled initial-fire statistic rows both CSVs end with."""
    writer.writerow(["mean_cells_burning", repr(mean_burn)])
    writer.writerow(["max_cells_burning", max_burn])
    writer.writerow(["mean_fuel_burning_cells", repr(mean_fuel)])
    writer.writerow(["fuel_non_burnt_cells", repr(untouched)])
