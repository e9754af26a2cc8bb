#!/usr/bin/env python3
"""Regularity-loss cap for alpha = 1/2 on data with a fixed Sobolev ceiling.

The spectral profile (1 + r^2)^(-2.3) lies in H^4 and nothing beyond
H^4.1.  Orders l <= n0 = 1.5 decay at the full predicted rate; the top
order l = s = 4 is visibly slower, exhibiting the loss of regularity in
the weakly dissipative high-frequency band.
"""

import argparse
import sys

from fpplab.scenarios import run_scenario

CONFIG = {
    "scenario": "regularity-loss-probe",
    "model": {"n": 1, "m": 1.0, "alpha": 0.5, "theta": 3},
    "data": {"kind": "power_tail", "exponent": 4.6, "amplitude": 1.0},
    "fit": {"window": [100.0, 10000.0], "l_list": [0.0, 0.5, 1.0, 1.5, 4.0],
            "tolerance": 0.05, "s": 4.0},
    "output_dir": "runs/regularity-loss",
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-dir", default=None)
    args = parser.parse_args()
    summary = run_scenario(CONFIG, output_dir=args.output_dir)
    return 0 if summary.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
