#!/usr/bin/env python3
"""Empirical goodness rates of sampled terminal families vs parameters.

Sweeps q below the default rate to show where sampled families start
failing the exhaustive check; a diagnostic, not a guarantee.
"""

import argparse
from itertools import combinations

from vcsndp import family as fam


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--terminals", type=int, default=6)
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--seeds", type=int, default=100)
    ap.add_argument("--mode", choices=fam.MODES, default=fam.GENERAL)
    args = ap.parse_args()

    terms = list(range(args.terminals))
    prs = [frozenset(c) for c in combinations(terms, 2)]
    default = fam.default_params(args.k, args.terminals, args.mode)
    print(f"default: p={default.p} q={default.q}")

    q = default.q
    while q >= 1:
        params = fam.override_params(args.k, args.terminals, args.mode,
                                     p=2 * args.k * q, q=q)
        hits = 0
        for seed in range(args.seeds):
            f = fam.sample_family(terms, params, seed)
            hits += fam.is_good_family(f, terms, prs).good
        print(f"q={q:5d} p={params.p:6d}: good {hits}/{args.seeds}")
        q //= 2


if __name__ == "__main__":
    main()
