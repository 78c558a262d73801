"""Output checks that the benchmark computes apart from the program.

Nothing here imports ``firegrid``: neighbours come from the grid size, burn
costs from the paper's formula (or the scenario file's listed rewards), and
the MO cross-check solves the recorded model with ``scipy.optimize.milp``.
Every check returns a list of error strings; an empty list means it passed.
States are ``(burning, fuel)`` pairs of per-cell sequences, cells indexed
row-major from the bottom-left corner, and ``-1`` is an idle team.
"""

from __future__ import annotations

import math

import numpy as np

IDLE = -1

# Relative tolerance of the solver cross-check.
OBJ_RTOL = 1e-6


def neighbours4(width: int, height: int) -> list:
    """4-neighbours of every cell of a ``width`` x ``height`` grid."""
    out = []
    for cell in range(width * height):
        col, row = cell % width, cell // width
        around = []
        for dc, dr in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            c, r = col + dc, row + dr
            if 0 <= c < width and 0 <= r < height:
                around.append(r * width + c)
        out.append(tuple(around))
    return out


def grid1_costs(width: int, height: int) -> list:
    """Burn cost -(1 + col + row), with -10 in the top-right corner."""
    costs = [-float(1 + cell % width + cell // width) for cell in range(width * height)]
    costs[-1] = -10.0
    return costs


def burn_cost(burning, costs) -> float:
    return math.fsum(costs[x] for x, b in enumerate(burning) if b)


def check_action(state, action, teams: int) -> list:
    """``teams`` entries, each a cell burning in ``state``; IDLE only when
    nothing burns."""
    burning = state[0]
    if len(action) != teams:
        return [f"action {action} has {len(action)} entries, expected {teams}"]
    any_burning = any(burning)
    errors = []
    for target in action:
        if target == IDLE:
            if any_burning:
                errors.append(f"action {action} idles a team while cells burn")
        elif not 0 <= target < len(burning) or not burning[target]:
            errors.append(f"action {action} targets cell {target}, which is not burning")
    return errors


def check_transition(state, action, nxt, neighbours) -> list:
    """The deterministic consequences of the paper's transition law."""
    burning, fuel = state
    nburning, nfuel = nxt
    errors = []
    for x in range(len(burning)):
        want = fuel[x] - 1 if burning[x] and fuel[x] > 0 else fuel[x]
        if nfuel[x] != want:
            errors.append(f"cell {x}: fuel {fuel[x]} -> {nfuel[x]}, expected {want}")
        if not nburning[x]:
            if burning[x] and fuel[x] > 0 and x not in action:
                errors.append(f"cell {x} with fuel {fuel[x]} went out with no team on it")
            continue
        if fuel[x] == 0:
            errors.append(f"cell {x} burns next with no fuel")
        elif not burning[x] and not any(burning[y] for y in neighbours[x]):
            errors.append(f"cell {x} ignited with no burning neighbour")
    return errors


def check_reward(state, reward: float, costs) -> list:
    want = burn_cost(state[0], costs)
    if not math.isclose(reward, want, rel_tol=1e-12, abs_tol=1e-9):
        return [f"reward {reward!r}, expected burn cost {want!r}"]
    return []


def check_steps(steps, costs, neighbours, teams: int) -> list:
    """Check ``(state, action, next_state, reward)`` records; stops at the
    first faulty step."""
    for i, (state, action, nxt, reward) in enumerate(steps):
        errors = (check_action(state, action, teams)
                  + check_transition(state, action, nxt, neighbours)
                  + check_reward(state, reward, costs))
        if errors:
            return [f"step {i}: {e}" for e in errors]
    return []


# -- MO cross-check ------------------------------------------------------------


def solve_reference(c, a, senses, b, lower, upper, integral) -> float:
    """Optimum of ``min c x`` with the ``integral`` columns integer, by HiGHS
    through ``scipy.optimize.milp``; raises if it finds no optimum."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    senses = np.asarray(senses)
    b = np.asarray(b, dtype=float)
    lo = np.where(senses == "<=", -np.inf, b)
    hi = np.where(senses == ">=", np.inf, b)
    integrality = np.zeros(len(c))
    integrality[list(integral)] = 1
    res = milp(c, constraints=LinearConstraint(a, lo, hi),
               bounds=Bounds(lower, upper), integrality=integrality,
               options={"mip_rel_gap": 1e-9})
    if res.status != 0:
        raise RuntimeError(f"reference solve failed: {res.message}")
    return float(res.fun)


def _tol(value: float) -> float:
    return OBJ_RTOL * max(1.0, abs(value))


def check_mo_objective(mode: str, objective: float, milp_opt: float,
                       lp_opt: float | None = None) -> list:
    """Branch and bound must reach the MILP optimum.  Relax-round fixes the
    indicators to a MILP-feasible point, so it can be no better than the
    optimum, and the LP relaxation no worse."""
    if objective is None:
        return [f"{mode}: no objective reported"]
    if mode == "branch-and-bound":
        if abs(objective - milp_opt) > _tol(milp_opt):
            return [f"branch-and-bound objective {objective!r} != milp optimum {milp_opt!r}"]
        return []
    errors = []
    if objective < milp_opt - _tol(milp_opt):
        errors.append(f"{mode} objective {objective!r} below milp optimum {milp_opt!r}")
    if lp_opt is not None and lp_opt > milp_opt + _tol(milp_opt):
        errors.append(f"LP relaxation {lp_opt!r} above milp optimum {milp_opt!r}")
    return errors


def check_mo_model(model, info) -> list:
    """Cross-check one recorded MO decision: ``model`` is the program's fluid
    model, ``info`` what the solver reported for it."""
    if info.get("objective") is None:
        return [f"{info.get('mode', 'MO')}: no objective reported"]
    p = model.problem
    z = list(model.z_indices())
    milp_opt = solve_reference(p.c, p.a, p.senses, p.b, p.lower, p.upper, z)
    lp_opt = None
    if info["mode"] != "branch-and-bound":
        lp_opt = solve_reference(p.c, p.a, p.senses, p.b, p.lower, p.upper, [])
    return check_mo_objective(info["mode"], info["objective"], milp_opt, lp_opt)
