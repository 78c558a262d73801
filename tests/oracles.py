"""Independent reference implementations used to check the package.

Everything here is deliberately written from first principles (and slowly):
Dijkstra instead of Floyd-Warshall, vertex enumeration instead of simplex,
exhaustive expectimax instead of tree search, a per-cell loop and exact
outcome enumeration instead of the vectorised transition law, pairwise
ranks and a list scan instead of the array fw_sample draw, a direct
forward recursion for the fluid dynamics, and the fixed-format MPS reader
that the package's writer is checked against.  None of it imports the
implementation paths it verifies beyond plain data containers.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
import types

import numpy as np


def dijkstra(n_cells, edges, source):
    """Single-source shortest paths; ``edges``: dict (x, y) -> length of the
    arc x -> y."""
    adjacency = {}
    for (x, y), w in edges.items():
        adjacency.setdefault(x, []).append((y, w))
    dist = [math.inf] * n_cells
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, x = heapq.heappop(heap)
        if d > dist[x]:
            continue
        for y, w in adjacency.get(x, []):
            nd = d + w
            if nd < dist[y]:
                dist[y] = nd
                heapq.heappush(heap, (nd, y))
    return dist


def enumerate_vertices(c, a, senses, b, lower, upper):
    """Brute-force LP solve by enumerating candidate vertices.

    All constraints and finite bounds become half-spaces (equalities give
    two); every n-subset with an invertible system contributes a candidate
    point.  Returns (status, objective) with status in {"optimal",
    "infeasible"}; problems must have finite optima by construction (bounded
    boxes).
    """
    a = np.asarray(a, dtype=float)
    m, n = a.shape
    rows = []
    rhs = []
    for i in range(m):
        if senses[i] in ("<=", "="):
            rows.append(a[i])
            rhs.append(b[i])
        if senses[i] in (">=", "="):
            rows.append(-a[i])
            rhs.append(-b[i])
    for j in range(n):
        if np.isfinite(upper[j]):
            e = np.zeros(n)
            e[j] = 1.0
            rows.append(e)
            rhs.append(upper[j])
        if np.isfinite(lower[j]):
            e = np.zeros(n)
            e[j] = -1.0
            rows.append(e)
            rhs.append(-lower[j])
    rows = np.asarray(rows)
    rhs = np.asarray(rhs)
    best = None
    for subset in itertools.combinations(range(len(rows)), n):
        g = rows[list(subset)]
        h = rhs[list(subset)]
        try:
            x = np.linalg.solve(g, h)
        except np.linalg.LinAlgError:
            continue
        if np.all(rows @ x <= rhs + 1e-8):
            value = float(c @ x)
            if best is None or value < best:
                best = value
    if best is None:
        return "infeasible", None
    return "optimal", best


def candidate_actions(state, teams):
    """All canonical team-to-burning-cell assignments (multisets)."""
    burning = [x for x in range(len(state.burning)) if state.burning[x]]
    if not burning:
        return [(-1,) * teams]
    return [tuple(combo) for combo in
            itertools.combinations_with_replacement(burning, teams)]


def expectimax(model, state, depth, teams, cache=None):
    """Exact finite-horizon value by full enumeration.

    V(s, 0) = 0; V(s, d) = max_a [ r(s) + sum_s' p(s, a, s') V(s', d-1) ]
    over the canonical burning-cell assignments.  Returns (value, q_by_action).
    """
    if cache is None:
        cache = {}
    key = (state, depth)
    if key in cache:
        return cache[key]
    if depth == 0 or 1 not in state.burning:
        result = (0.0, {})
        cache[key] = result
        return result
    qs = {}
    for action in candidate_actions(state, teams):
        total = 0.0
        for child, prob, reward in enumerate_transitions(model, state, action):
            value, _ = expectimax(model, child, depth - 1, teams, cache)
            total += prob * (reward + value)
        qs[action] = total
    result = (max(qs.values()), qs)
    cache[key] = result
    return result


def fluid_recursion(spread, state, horizon, delta=0.1):
    """Forward fluid trajectory with zero suppression, truncated by fuel.

    Recomputes the intensity caps and fuel budgets from scratch (transmission
    rates of one), then iterates the one-step recursion, zeroing a cell the
    period after its fuel reaches the threshold.  Returns the (T+1, n)
    intensity array or None when the dynamics force fuel below zero
    (the model is infeasible there).
    """
    n = spread.spec.n_cells
    ibar = np.zeros((horizon + 1, n))
    ibar[0] = np.asarray(state.burning, dtype=float)
    for t in range(1, horizon + 1):
        for x in range(n):
            ibar[t][x] = ibar[t - 1][x] + sum(ibar[t - 1][y] for y, _ in spread.in_edges[x])
    f0 = np.zeros(n)
    for x in range(n):
        f0[x] = delta + sum(ibar[t][x] for t in range(min(horizon, state.fuel[x]) + 1))
    intensity = np.zeros((horizon + 1, n))
    intensity[0] = np.asarray(state.burning, dtype=float)
    fuel = f0.copy()
    z = fuel <= delta + 1e-12
    for t in range(1, horizon + 1):
        fuel = fuel - intensity[t - 1]
        if np.any(fuel < -1e-9):
            return None
        for x in range(n):
            if z[x]:
                intensity[t][x] = 0.0
            else:
                intensity[t][x] = intensity[t - 1][x] + sum(
                    p * intensity[t - 1][y] for y, p in spread.in_edges[x]
                )
        z = z | (fuel <= delta + 1e-12)
    return intensity


def priority_ranks(cells, priority):
    """Competition ranks (1 = best) of ``cells`` by ``priority``, counted
    pairwise: one plus the number of cells of strictly higher priority."""
    return [1 + sum(1 for y in cells if priority[y] > priority[x]) for x in cells]


def weighted_index(weights, rng):
    """Index i drawn with probability weights[i] / sum(weights), as a list
    scan: the first whose running total exceeds a uniform draw on [0, total),
    else the last.  The total adds left to right from 0.0."""
    u = rng.random() * functools.reduce(operator.add, weights, 0.0)
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if u < acc:
            return i
    return len(weights) - 1


def reference_fw_sample(state, priority, teams, rng):
    """``fw_sample`` as a list loop: burning cells drawn without replacement with
    weight 1 / rank (``priority_ranks``), deleting each pick from the pool,
    then any surplus teams with replacement from the full weights."""
    cells = [x for x in range(len(state.burning)) if state.burning[x]]
    if not cells:
        return (-1,) * teams
    base = [1.0 / r for r in priority_ranks(cells, priority)]
    chosen = []
    pool, pool_weights = list(cells), list(base)
    for _ in range(min(teams, len(cells))):
        pick = weighted_index(pool_weights, rng)
        del pool_weights[pick]
        chosen.append(pool.pop(pick))
    for _ in range(teams - len(cells)):
        chosen.append(cells[weighted_index(base, rng)])
    return tuple(sorted(chosen))


def reference_action_from_scores(state, v, teams):
    """MO's action from its time-zero scores ``v``, as a per-cell loop: the
    burning cells with fuel left (all burning cells if none has), by score
    descending and then by index; one team per cell scoring above 1e-9,
    and surplus teams stacked on the first cell."""
    burning = [x for x in range(len(state.burning)) if state.burning[x]]
    if not burning:
        return (-1,) * teams
    eligible = [x for x in burning if state.fuel[x] > 0] or burning
    eligible.sort(key=lambda x: (-v[x], x))
    ranked = [x for x in eligible if v[x] > 1e-9] or eligible[:1]
    targets = ranked[:teams]
    while len(targets) < teams:
        targets.append(ranked[0])
    return tuple(sorted(targets))


def ignition_prob(spread, state, x):
    """P(unburning cell x ignites): 1 - prod(1 - P(x, y)) over its burning
    neighbours y, or 0 once x has no fuel."""
    if state.fuel[x] <= 0:
        return 0.0
    rates = dict(spread.in_edges[x])  # no entry: P(x, y) = 0
    keep = 1.0
    for y in spread.spec.neighbors(x):
        if state.burning[y]:
            keep *= 1.0 - rates.get(y, 0.0)
    return 1.0 - keep


def extinguish_prob(spread, state, action, x):
    """P(burning cell x stops burning) under ``action``: 1 - (1 - Q(x))**m
    with m the teams on x, or 1 once x has no fuel."""
    if state.fuel[x] <= 0:
        return 1.0
    return 1.0 - (1.0 - spread.q[x]) ** sum(1 for target in action if target == x)


def reference_burn_probs(model, state, action):
    """Per-cell probability of burning next, as a plain per-cell loop.

    Each cell's survival product runs over its in-edges in ascending source
    order; teams on one cell multiply in action order.
    """
    burning, fuel = state
    q = model.spread.q
    survive = {}
    for target in action:
        if target >= 0 and burning[target] and fuel[target] > 0:
            survive[target] = survive.get(target, 1.0) * (1.0 - q[target])
    probs = [0.0] * len(burning)
    for x in range(len(burning)):
        if burning[x]:
            if fuel[x] > 0:
                probs[x] = survive.get(x, 1.0)
        elif fuel[x] > 0:
            keep = 1.0
            for y, p in model.spread.in_edges[x]:
                if burning[y]:
                    keep *= 1.0 - p
            probs[x] = 1.0 - keep
    return probs


def _fuel_and_reward(model, state):
    """(next fuel, reward) of one step: fuel drops by one on burning cells
    that have some, and the reward adds R(x) over them left to right."""
    burning, fuel = state
    next_fuel = tuple(f - 1 if b and f > 0 else f for b, f in zip(burning, fuel))
    reward = 0.0
    for x in range(len(burning)):
        if burning[x]:
            reward += model.rewards.values[x]
    return next_fuel, reward


def reference_step(model, state, action, rng):
    """One ``Wildfire.step`` as a plain per-cell loop: (next state, reward).

    ``rng.random()`` is drawn once per cell whose burn probability lies
    strictly inside (0, 1), in ascending cell order.
    """
    probs = reference_burn_probs(model, state, action)
    next_burning = tuple(
        1 if (p >= 1.0 or (p > 0.0 and rng.random() < p)) else 0 for p in probs
    )
    next_fuel, reward = _fuel_and_reward(model, state)
    return type(state)(next_burning, next_fuel), reward


def enumerate_transitions(model, state, action):
    """Exact distribution of one step as (next state, probability, reward)
    triples: every cell whose ``reference_burn_probs`` lies strictly inside
    (0, 1) burns or not independently, one outcome per combination."""
    probs = reference_burn_probs(model, state, action)
    coins = [(x, p) for x, p in enumerate(probs) if 0.0 < p < 1.0]
    next_fuel, reward = _fuel_and_reward(model, state)
    outcomes = []
    for bits in itertools.product((0, 1), repeat=len(coins)):
        burning = [1 if p >= 1.0 else 0 for p in probs]
        prob = 1.0
        for (x, p), bit in zip(coins, bits):
            burning[x] = bit
            prob *= p if bit else 1.0 - p
        outcomes.append((type(state)(tuple(burning), next_fuel), prob, reward))
    return outcomes


def reference_calibrate(spread, state, horizon, delta=0.1, cap=1e12):
    """The fluid model's (ibar, f0) as a per-cell loop.

    ibar[t, x] is ibar[t-1, x] plus the sum of ibar[t-1, y] over the
    in-edges of x, summed in in-edge order, capped at ``cap``; f0[x] is delta
    plus the ibar sum over periods 0..min(horizon, fuel(x)).
    """
    n = len(state.burning)
    ibar = np.zeros((horizon + 1, n))
    ibar[0] = np.asarray(state.burning, dtype=float)
    for t in range(1, horizon + 1):
        prev = ibar[t - 1]
        cur = prev.copy()
        for x in range(n):
            acc = 0.0
            for y, _ in spread.in_edges[x]:
                acc += prev[y]
            cur[x] += acc
        ibar[t] = np.minimum(cur, cap)
    f0 = np.zeros(n)
    for x in range(n):
        acc = 0.0
        for t in range(min(horizon, state.fuel[x]) + 1):
            acc += ibar[t, x]
        f0[x] = delta + acc
    return ibar, f0


def reference_build_model(calibration, state, rewards, teams):
    """The fluid model's LP, one row at a time, as a namespace with ``c``,
    ``a`` (CSR), ``senses``, ``b``, ``lower``, ``upper``, ``integer_mask`` and
    ``row_labels``.

    Columns: intensity I(t, x), fuel F(t, x), indicator Z(t, x), then the
    assignments A(t, x, i), each block t-major.  Rows, in order: the
    intensity recursion (t = 1..T), the cumulative fuel equation, the
    fuel/indicator forcing pair, the low-fuel cutoff (t = 0..T-1) and one
    row per team and period.  Zero coefficients are left out.
    """
    import scipy.sparse as sp

    horizon = calibration.horizon
    n = len(state.burning)
    delta, f0, ibar = calibration.delta, calibration.f0, calibration.ibar
    transmission, suppression = calibration.spread.in_edges, calibration.spread.q
    size = (horizon + 1) * n

    def i_index(t, x):
        return t * n + x

    def f_index(t, x):
        return size + t * n + x

    def z_index(t, x):
        return 2 * size + t * n + x

    def a_index(t, x, i):
        return 3 * size + (t * n + x) * teams + i

    n_vars = size * (3 + teams)
    c = np.zeros(n_vars)
    importance = -np.asarray(rewards.values)
    for t in range(horizon + 1):
        c[i_index(t, 0):i_index(t, 0) + n] = importance

    rows, cols, vals = [], [], []
    senses, b, labels = [], [], []

    def add_row(entries, sense, rhs, label):
        i = len(b)
        for j, v in entries:
            if v != 0.0:
                rows.append(i)
                cols.append(j)
                vals.append(float(v))
        senses.append(sense)
        b.append(float(rhs))
        labels.append(label)

    for t in range(1, horizon + 1):
        for x in range(n):
            entries = [(i_index(t, x), 1.0), (i_index(t - 1, x), -1.0)]
            for y, rate in transmission[x]:
                entries.append((i_index(t - 1, y), -rate))
            relief = ibar[t, x] * suppression[x]
            for i in range(teams):
                entries.append((a_index(t - 1, x, i), relief))
            big_m = f0[x] + sum(f0[y] for y, _ in transmission[x])
            entries.append((z_index(t - 1, x), big_m))
            add_row(entries, ">=", 0.0, ("dyn", t, x))
    for t in range(horizon + 1):
        for x in range(n):
            entries = [(f_index(t, x), 1.0)]
            for tp in range(t):
                entries.append((i_index(tp, x), 1.0))
            add_row(entries, "=", f0[x], ("fuel", t, x))
    for t in range(horizon + 1):
        for x in range(n):
            add_row([(f_index(t, x), 1.0), (z_index(t, x), delta)],
                    ">=", delta, ("force_lo", t, x))
    for t in range(horizon + 1):
        for x in range(n):
            add_row([(f_index(t, x), 1.0), (z_index(t, x), f0[x] - delta)],
                    "<=", f0[x], ("force_hi", t, x))
    for t in range(horizon):
        for x in range(n):
            add_row([(i_index(t + 1, x), 1.0), (z_index(t, x), f0[x])],
                    "<=", f0[x], ("cutoff", t, x))
    for t in range(horizon + 1):
        for i in range(teams):
            add_row([(a_index(t, x, i), 1.0) for x in range(n)],
                    "<=", 1.0, ("assign", t, i))

    lower = np.zeros(n_vars)
    upper = np.full(n_vars, np.inf)
    lower[:n] = upper[:n] = np.asarray(state.burning, dtype=float)
    upper[2 * size:] = 1.0
    integer_mask = np.zeros(n_vars, dtype=bool)
    integer_mask[2 * size:] = True
    a = sp.csr_matrix((vals, (rows, cols)), shape=(len(b), n_vars))
    return types.SimpleNamespace(c=c, a=a, senses=tuple(senses), b=np.array(b),
                                 lower=lower, upper=upper,
                                 integer_mask=integer_mask, row_labels=labels)


_TAG_TO_SENSE = {"L": "<=", "E": "=", "G": ">="}


def parse_mps(text: str):
    """Inverse of ``firegrid.mpsio.write_mps``: returns (LpProblem,
    integer_mask, name).

    Accepts whitespace-delimited fixed MPS with N/L/G/E rows, INTORG/INTEND
    markers, one RHS set and UP/LO/FX/MI/PL/BV bounds.  RANGES sections are
    rejected.
    """
    import scipy.sparse as sp

    from firegrid.lp import LpProblem

    name = ""
    section = None
    row_order = []
    senses = {}
    objective_row = None
    col_order = []
    col_pos = {}
    coeffs = []  # (row, col, value)
    c_entries = {}
    rhs = {}
    bounds_lo = {}
    bounds_hi = {}
    integer_cols = set()
    in_integer = False

    for raw in text.splitlines():
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        head = raw[0] not in (" ", "\t")
        tokens = raw.split()
        if head:
            keyword = tokens[0].upper()
            if keyword == "NAME":
                name = tokens[1] if len(tokens) > 1 else ""
                continue
            if keyword == "ENDATA":
                break
            if keyword == "RANGES":
                raise ValueError("RANGES sections are not supported")
            if keyword in ("ROWS", "COLUMNS", "RHS", "BOUNDS"):
                section = keyword
                continue
            raise ValueError(f"unknown MPS section {keyword!r}")
        if section == "ROWS":
            tag, rname = tokens[0].upper(), tokens[1]
            if tag == "N":
                if objective_row is None:
                    objective_row = rname
                continue
            if tag not in _TAG_TO_SENSE:
                raise ValueError(f"unknown row type {tag!r}")
            senses[rname] = _TAG_TO_SENSE[tag]
            row_order.append(rname)
        elif section == "COLUMNS":
            if len(tokens) >= 3 and tokens[1] == "'MARKER'":
                if tokens[-1] == "'INTORG'":
                    in_integer = True
                elif tokens[-1] == "'INTEND'":
                    in_integer = False
                continue
            cname = tokens[0]
            if cname not in col_pos:
                col_pos[cname] = len(col_order)
                col_order.append(cname)
                if in_integer:
                    integer_cols.add(cname)
            for k in range(1, len(tokens) - 1, 2):
                rname, value = tokens[k], float(tokens[k + 1])
                if rname == objective_row:
                    c_entries[cname] = value
                else:
                    coeffs.append((rname, cname, value))
        elif section == "RHS":
            for k in range(1, len(tokens) - 1, 2):
                rhs[tokens[k]] = float(tokens[k + 1])
        elif section == "BOUNDS":
            btype = tokens[0].upper()
            cname = tokens[2]
            value = float(tokens[3]) if len(tokens) > 3 else None
            if btype == "UP":
                bounds_hi[cname] = value
            elif btype == "LO":
                bounds_lo[cname] = value
            elif btype == "FX":
                bounds_lo[cname] = value
                bounds_hi[cname] = value
            elif btype == "MI":
                bounds_lo[cname] = -np.inf
            elif btype == "PL":
                bounds_hi[cname] = np.inf
            elif btype == "BV":
                bounds_lo[cname] = 0.0
                bounds_hi[cname] = 1.0
                integer_cols.add(cname)
            else:
                raise ValueError(f"unknown bound type {btype!r}")
        elif section is not None:
            raise ValueError(f"data line outside a known section: {raw!r}")

    m, n = len(row_order), len(col_order)
    row_pos = {r: i for i, r in enumerate(row_order)}
    rows, cols, vals = [], [], []
    for rname, cname, value in coeffs:
        if rname not in row_pos:
            raise ValueError(f"coefficient references unknown row {rname!r}")
        rows.append(row_pos[rname])
        cols.append(col_pos[cname])
        vals.append(value)
    a = sp.csr_matrix((vals, (rows, cols)), shape=(m, n))
    c = np.zeros(n)
    for cname, value in c_entries.items():
        c[col_pos[cname]] = value
    b = np.zeros(m)
    for rname, value in rhs.items():
        if rname in row_pos:
            b[row_pos[rname]] = value
    lower = np.zeros(n)
    upper = np.full(n, np.inf)
    for cname, value in bounds_lo.items():
        lower[col_pos[cname]] = value
    for cname, value in bounds_hi.items():
        upper[col_pos[cname]] = value
    mask = np.array([cname in integer_cols for cname in col_order], dtype=bool)
    problem = LpProblem(c, a, tuple(senses[r] for r in row_order), b, lower, upper)
    return problem, mask, name
