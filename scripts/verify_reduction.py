"""Exhaustively check both reduction identities over seeded random games.

For every generated game the script checks, at every strategy pair, that
the reset transform preserves the discounted value as a mean payoff, and
that the mirrored double game has the predicted values, zero optimum, and
balanced occupation masses.  ``verify_star2`` judges the double game's
pairs through its source pairs' records, and checks them one by one only
when those records' tests fail.

    python scripts/verify_reduction.py --games 30 --beta 1/2 --beta 9/10
"""

import argparse
import time
from fractions import Fraction

from smpg.game import parse_rational
from smpg.generate import GeneratorConfig, generate_game
from smpg.solvers import verify_star, verify_star2
from smpg.transforms import beta_recurrent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--games", type=int, default=30)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--beta", action="append", type=parse_rational,
                        help="repeatable; default 1/3, 1/2, 9/10")
    parser.add_argument("--skip-mirror", action="store_true",
                        help="only check the reset identity")
    args = parser.parse_args()
    betas = args.beta or [Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)]

    started = time.monotonic()
    pairs = violations = 0
    for seed in range(args.first_seed, args.first_seed + args.games):
        cfg = GeneratorConfig(
            states=(seed % 3) + 1,
            actions_per_state=(1, 2),
            transitions_per_action=(1, 2),
            reward_bound=3,
            denominator_bound=3,
            max_states_fraction=Fraction(1, 2),
            seed=seed,
        )
        game = generate_game(cfg)
        found_here = 0
        for beta in betas:
            for s0 in game.state_order:
                star = verify_star(game, beta, s0)
                pairs += star.pairs_checked
                found_here += len(star.violations)
                if not args.skip_mirror:
                    gb, reduction = beta_recurrent(game, beta, s0)
                    star2 = verify_star2(gb, reduction)
                    pairs += star2.pairs_checked
                    found_here += len(star2.violations)
        violations += found_here
        status = "ok" if found_here == 0 else f"{found_here} VIOLATIONS"
        print(f"seed {seed}: {status} ({len(game.states)} states)")
    elapsed = time.monotonic() - started
    print(f"\nchecked {pairs} strategy pairs in {elapsed:.1f}s; "
          f"violations: {violations}")
    return 0 if violations == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
