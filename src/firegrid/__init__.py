"""Dynamic-resource-allocation planning toolkit for grid wildfire suppression.

Modules:
    mdp         -- grid state, stochastic transition law, rewards
    heuristics  -- random baseline and the distance-weighted priority rule
    mcts        -- tree search with double progressive widening
    fluid       -- fluid intensity MILP and the receding-horizon controller
    lp          -- LP problem container, bundled simplex, HiGHS binding
    milp        -- branch and bound over the LP solvers
    mpsio       -- fixed-format MPS writer
    harness     -- scenario generators, episode runner, paired benchmarks
    cli         -- command-line interface
"""

from .mdp import (
    Action,
    FireState,
    GridSpec,
    RewardModel,
    SpreadModel,
    Wildfire,
    idle_action,
)

__all__ = [
    "Action",
    "FireState",
    "GridSpec",
    "RewardModel",
    "SpreadModel",
    "Wildfire",
    "idle_action",
]

__version__ = "0.1.0"
