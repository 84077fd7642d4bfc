"""Exact solvers and verified reductions for finite zero-sum stochastic
games under the discounted and mean-payoff criteria.

Everything except the Monte Carlo simulator runs on exact rationals.  The
transforms module implements the reset transform and the mirrored double
game; the solvers module checks the induced value identities pair by pair
and uses them to solve games through a strategy-recovery oracle.
"""

from .errors import GameError
from .evaluate import (
    Distribution,
    SimulationResult,
    ValueVector,
    discounted_values,
    mean_values,
    recurrent_stationary,
    simulate_mean_payoff,
    unichain_stationary,
)
from .game import (
    MAX,
    MIN,
    Game,
    InducedChain,
    PositionalStrategy,
    State,
    StrategyPair,
    Transition,
    build_game,
    enumerate_strategies,
    game_to_json_dict,
    induced_chain,
    validate_game,
)
from .generate import GeneratorConfig, generate_game
from .serialize import (
    canonical_dumps,
    load_game,
    save_game,
    strategy_pair_from_json_dict,
    strategy_pair_to_json_dict,
    values_from_json_dict,
    values_to_json_dict,
)
from .solvers import (
    DISCOUNTED,
    MEAN,
    Certificate,
    Solution,
    VerificationReport,
    brute_force_solve,
    evaluate_pair,
    greedy_recovery_discounted,
    reference_recovery_oracle,
    strategic_via_recovery,
    strategy_iteration_discounted,
    verify_star,
    verify_star2,
)
from .transforms import (
    Reduction,
    beta_recurrent,
    decompose_mirror_strategies,
    mirror,
)

__version__ = "0.1.0"
