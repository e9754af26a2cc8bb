#!/usr/bin/env python3
"""Low/high frequency band probes in both dissipation regimes.

Gain regime (alpha = 1): the low band decays algebraically at the L1 -> L2
rate and the high band exponentially, with fitted rate compared against
sigma(2R).  Loss regime (alpha = 1/2): the high-band bound costs beta
extra derivatives; the weighted ratio must stay bounded over four decades.
"""

import argparse
import sys

from fpplab.scenarios import run_scenario

GAIN_CONFIG = {
    "scenario": "lemma-verification",
    "model": {"n": 1, "m": 1.0, "alpha": 1.0, "theta": 5},
    "data": {"kind": "gaussian", "width": 0.5, "amplitude": 1.0},
    "fit": {"window": [1.0, 10000.0], "l_list": [0.0, 1.0], "falsify": True},
    "output_dir": "runs/band-probes-gain",
}

LOSS_CONFIG = {
    "scenario": "lemma-verification",
    "model": {"n": 1, "m": 1.0, "alpha": 0.5, "theta": 3},
    "data": {"kind": "gaussian", "width": 1.0, "amplitude": 1.0},
    "fit": {"window": [1.0, 10000.0], "l_list": [0.0], "beta": 1.0, "s": 4.0},
    "output_dir": "runs/band-probes-loss",
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-dir", default=None)
    args = parser.parse_args()
    ok = True
    for config in (GAIN_CONFIG, LOSS_CONFIG):
        out = args.output_dir and f"{args.output_dir}/{config['model']['alpha']}"
        summary = run_scenario(config, output_dir=out)
        ok = ok and summary.all_pass
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
