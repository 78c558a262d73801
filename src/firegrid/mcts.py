"""Monte Carlo tree search with double progressive widening.

Search statistics are keyed by state, so transpositions share one node.  Two
widening gates bound a node's branching: a node may only try a new action
while |A(s)| < k * N(s)**alpha, and a tried action may only sample a fresh
child state while |V(s,a)| < k' * N(s,a)**alpha' (at least one child is
always allowed); otherwise a stored child is replayed with its cached
reward.  A child's count is how often its edge led to it, sampled or
replayed: a child sampled once counts 1, the counts of an edge's children
sum to N(s,a), and a replay draws a child in proportion to its count.
Action selection maximizes Q(s,a) + c * sqrt(log N(s) / N(s,a)), with
untried actions taking priority.  Even if every visit adds an action, the
action gate stays open while N(s) < k**(1 / (1 - alpha)): a search of fewer
iterations tries a new action at every visit of the root.  That is 1 600
iterations at the shipped k = 40 and alpha = 0.5.

New candidate actions come from a genetic generator: with probability
``u_mutate`` a tournament-selected known action is mutated, with probability
``u_recombine`` two are crossed over, otherwise the rollout policy proposes
one.  A duplicate of a known action is re-drawn up to ``GEN_RETRIES`` times
and then returned as-is (the tree keeps a single copy of the statistics).

Tree nodes are keyed by ``FireState``, which hashes and compares its
arrays' bytes, and a child state is sampled through ``Wildfire.step``.  A
rollout steps the leaf's arrays as a block of one row through
``Wildfire.step_arrays``, and the rollout policy sees that row as a
``FireState``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import inf, log, sqrt

from .mdp import Action, FireState, Wildfire, burning_cells, idle_action


# duplicate proposals re-drawn by the action generator before one is kept
GEN_RETRIES = 10


@dataclass
class MctsConfig:
    """Search hyperparameters.  At the default action widening (k 40,
    alpha 0.5), a search of fewer than k**(1 / (1 - alpha)) = 1 600
    iterations tries a new action at every visit of the root.

    Each is a scenario file's ``mcts`` key; a value outside its range raises
    ``ValueError`` naming the key.

    ``exploration_c``: number >= 0; 50.  The UCB constant c.
    ``widen_k_action``, ``widen_alpha_action``: number > 0, and in (0, 1];
        40 and 0.5.  A node tries a new action while |A(s)| < k * N(s)**alpha.
    ``widen_k_state``, ``widen_alpha_state``: number > 0, and in (0, 1]; 40
        and 0.2.  An action samples a fresh child while
        |V(s,a)| < k' * N(s,a)**alpha'.
    ``depth``: integer >= 1; 10.  Steps simulated below the root, tree and
        rollout together.
    ``gamma``: number in [0, 1]; 1.  The discount per step.
    ``u_mutate``, ``u_recombine``: numbers >= 0 summing to at most 1; 0.3
        each.  The chances that a new action is a mutated or a recombined
        known action; the rollout policy proposes the rest.  Both 0: no
        genetic generation.
    ``budget_seconds``: finite number >= 0 or null; 60.  Wall clock per
        decision.
    ``budget_iterations``: integer >= 0 or null; null.  Simulations per
        decision.  At least one budget is set; the search stops at the first
        one spent, and a search with no iteration plays the rollout policy.
    ``rollout``: "fw" (fw_sample) or "random"; "fw".  The rollout policy,
        which also proposes actions.
    """

    exploration_c: float = 50.0
    widen_k_action: float = 40.0
    widen_alpha_action: float = 0.5
    widen_k_state: float = 40.0
    widen_alpha_state: float = 0.2
    depth: int = 10
    gamma: float = 1.0
    budget_seconds: float | None = 60.0
    budget_iterations: int | None = None
    u_mutate: float = 0.3
    u_recombine: float = 0.3
    rollout: str = "fw"

    def __post_init__(self):
        # written ``not <in range>`` so that a NaN fails too
        if not self.exploration_c >= 0.0:
            raise ValueError("exploration_c must be >= 0")
        for key in ("widen_k_action", "widen_k_state"):
            if not getattr(self, key) > 0.0:
                raise ValueError(f"{key} must be > 0")
        for key in ("widen_alpha_action", "widen_alpha_state"):
            if not 0.0 < getattr(self, key) <= 1.0:
                raise ValueError(f"{key} must be in (0, 1]")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        for key in ("u_mutate", "u_recombine"):
            if not getattr(self, key) >= 0.0:
                raise ValueError(f"{key} must be >= 0")
        if self.u_mutate + self.u_recombine > 1.0 + 1e-12:
            raise ValueError("u_mutate + u_recombine must not exceed 1")
        if self.budget_seconds is not None and not 0.0 <= self.budget_seconds < inf:
            raise ValueError("budget_seconds must be a finite number >= 0 or null")
        if self.budget_iterations is not None and self.budget_iterations < 0:
            raise ValueError("budget_iterations must be >= 0 or null")
        if self.budget_seconds is None and self.budget_iterations is None:
            raise ValueError("budget_seconds and budget_iterations must not both be null")
        if self.rollout not in ("fw", "random"):
            raise ValueError(f"rollout: unknown rollout policy {self.rollout!r}")


class _Edge:
    __slots__ = ("n", "q", "children")

    def __init__(self):
        self.n = 0.0
        self.q = 0.0
        # state -> [times this edge led to it, cached reward]; the counts sum to n
        self.children = {}


class _Node:
    __slots__ = ("n", "edges")

    def __init__(self):
        self.n = 0.0
        self.edges = {}  # action -> _Edge, in insertion order


@dataclass
class PlanResult:
    action: Action
    iterations: int
    fallback: bool = False
    root_value: float | None = None


def mutate(action: Action, state: FireState, rng) -> Action:
    """Resample a nonempty random subset of assignments onto other burning cells.

    Each team is independently selected with probability 1/|teams|,
    conditioned on at least one selection; a selected team moves to a
    uniformly random burning cell different from its current target (or
    stays put when no alternative exists).
    """
    teams = len(action)
    if teams == 0:
        return action
    burning = burning_cells(state)
    picked = None
    while not picked:
        picked = [i for i in range(teams) if rng.random() * teams < 1.0]
    out = list(action)
    for i in picked:
        options = [c for c in burning if c != out[i]]
        if options:
            out[i] = options[rng.randrange(len(options))]
    return tuple(sorted(out))


def recombine(a: Action, b: Action, rng) -> Action:
    """Uniform crossover: each slot keeps one parent's target at random."""
    if len(a) != len(b):
        raise ValueError("actions must have the same team count")
    return tuple(sorted(x if rng.random() < 0.5 else y for x, y in zip(a, b)))


def tournament_select(actions, q_values, rng) -> Action:
    """Binary tournament by Q rank: draw two with replacement, keep the better."""
    m = len(actions)
    if m == 0:
        raise ValueError("tournament over an empty action set")
    i = rng.randrange(m)
    j = rng.randrange(m)
    return actions[i] if q_values[i] >= q_values[j] else actions[j]


class Planner:
    """One search owner per planning call sequence; see ``plan``.

    ``pi0`` is the rollout/default policy, a callable (state, rng) -> action.
    The planner never mutates the generative model and may be used for many
    sequential episodes; distinct episodes running in parallel need distinct
    planners.
    """

    def __init__(self, model: Wildfire, config: MctsConfig, pi0):
        self.model = model
        self.config = config
        self.pi0 = pi0
        self._nodes = {}

    # -- public surface --------------------------------------------------

    def reset(self):
        self._nodes.clear()

    def plan(self, root: FireState, rng) -> PlanResult:
        """Run simulations from ``root`` until the budget runs out, then return
        the action with the best Q.  A zero/insufficient budget falls back to
        the rollout policy and flags it."""
        if not root.burning.any():
            raise ValueError("plan() requires a non-terminal root state")
        cfg = self.config
        self._prune_to(root)
        deadline = None
        if cfg.budget_seconds is not None:
            deadline = time.monotonic() + cfg.budget_seconds
        iterations = 0
        while True:
            if cfg.budget_iterations is not None and iterations >= cfg.budget_iterations:
                break
            if deadline is not None and time.monotonic() >= deadline:
                break
            self._simulate(root, cfg.depth, rng)
            iterations += 1
        node = self._nodes.get(root)
        if node is None or not node.edges:
            return PlanResult(self.pi0(root, rng), iterations, fallback=True)
        best_action, best_edge = max(node.edges.items(), key=lambda item: item[1].q)
        return PlanResult(best_action, iterations, root_value=best_edge.q)

    # -- internals --------------------------------------------------------

    def _prune_to(self, root: FireState):
        """Keep only statistics reachable from the new root (tree reuse)."""
        nodes = self._nodes
        if not nodes:
            return
        keep = set()
        frontier = [root]
        while frontier:
            state = frontier.pop()
            if state in keep:
                continue
            node = nodes.get(state)
            if node is None:
                continue
            keep.add(state)
            for edge in node.edges.values():
                frontier.extend(edge.children.keys())
        if len(keep) < len(nodes):
            self._nodes = {s: nodes[s] for s in keep}

    def _simulate(self, state: FireState, depth: int, rng) -> float:
        """One simulation of at most ``depth`` steps from ``state``: descend
        the tree to its first new node, roll out from there, then back the
        discounted return up the path, deepest step first.  A loop, not a
        recursion, so a tree as deep as ``depth`` needs no deep stack."""
        cfg = self.config
        nodes = self._nodes
        path = []  # (edge, reward) of each tree step, from the top
        q = 0.0
        while depth > 0:
            node = nodes.get(state)
            if node is None:
                nodes[state] = _Node()
                q = self._rollout(state, depth, rng)
                break
            if not state.burning.any():
                break  # terminal: zero reward forever after
            node.n += 1
            edges = node.edges
            if len(edges) < cfg.widen_k_action * node.n ** cfg.widen_alpha_action:
                action = self._generate(node, state, rng)
                if action not in edges:
                    edges[action] = _Edge()
            # UCB selection; untried actions take priority in insertion order
            best_action = best_edge = None
            best_score = None
            log_n = log(node.n) if node.n > 1.0 else 0.0
            c = cfg.exploration_c
            for action, edge in edges.items():
                if edge.n <= 0.0:
                    best_action, best_edge = action, edge
                    break
                score = edge.q + c * sqrt(log_n / edge.n)
                if best_score is None or score > best_score:
                    best_action, best_edge, best_score = action, edge, score
            edge = best_edge
            children = edge.children
            if len(children) < cfg.widen_k_state * edge.n ** cfg.widen_alpha_state or not children:
                state, reward = self.model.step(state, best_action, rng)
                record = children.setdefault(state, [0.0, reward])
            else:
                state, record = self._sample_child(edge, rng)
            record[0] += 1
            path.append((edge, record[1]))
            depth -= 1
        for edge, reward in reversed(path):
            q = reward + cfg.gamma * q
            edge.n += 1
            edge.q += (q - edge.q) / edge.n
        return q

    def _sample_child(self, edge: _Edge, rng):
        """A stored child and its record, drawn in proportion to its count."""
        u = rng.random() * edge.n
        acc = 0.0
        for state, record in edge.children.items():
            acc += record[0]
            if u < acc:
                break
        return state, record

    def _generate(self, node: _Node, state: FireState, rng) -> Action:
        """Propose a candidate action; see module docstring for the scheme."""
        cfg = self.config
        edges = node.edges
        u1, u2 = cfg.u_mutate, cfg.u_recombine
        actions = list(edges.keys())
        qs = [edge.q for edge in edges.values()]
        for _ in range(GEN_RETRIES + 1):
            u = rng.random()
            if u < u1 and len(actions) >= 1:
                candidate = mutate(tournament_select(actions, qs, rng), state, rng)
            elif u < u1 + u2 and len(actions) >= 2:
                first = tournament_select(actions, qs, rng)
                second = tournament_select(actions, qs, rng)
                candidate = recombine(first, second, rng)
            else:
                candidate = self.pi0(state, rng)
            if candidate not in edges:
                return candidate
        return candidate

    def _rollout(self, state: FireState, depth: int, rng) -> float:
        """Play ``pi0`` for up to ``depth`` steps on arrays; the discounted return."""
        step = self.model.step_arrays
        pi0 = self.pi0
        gamma = self.config.gamma
        rngs = (rng,)
        burning, fuel = state.burning[None], state.fuel[None]  # a block of one row
        total = 0.0
        weight = 1.0
        for _ in range(depth):
            if not burning.any():
                break
            action = pi0(FireState(burning[0], fuel[0]), rng)
            burning, fuel, rewards = step(burning, fuel, (action,), rngs)
            total += weight * rewards[0]
            weight *= gamma
        return total


class MctsPolicy:
    """One tree search per decision with ``rollout`` as the default policy.
    ``last`` holds the latest search's ``PlanResult`` figures."""

    def __init__(self, model: Wildfire, teams: int, config: MctsConfig, rollout):
        self.planner = Planner(model, config, rollout)
        self.teams = teams
        self.reset()

    def reset(self):
        self.planner.reset()
        self.fallbacks = 0
        self.last = {}

    def __call__(self, state: FireState, rng) -> Action:
        if not state.burning.any():
            return idle_action(self.teams)
        result = self.planner.plan(state, rng)
        if result.fallback:
            self.fallbacks += 1
        self.last = {"iterations": result.iterations, "fallback": result.fallback,
                     "root_value": result.root_value}
        return result.action
