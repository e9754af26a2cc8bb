#!/usr/bin/env python3
"""Linear decay rates in the gain regime, oracle plus periodic-solver check.

Measures ||Lam^l u(t)||_L2 of the linear flow for a Gaussian spectral
profile and fits the log-log slopes against the predicted exponents
-n/(4 alpha) - l/(2 alpha); a large periodic box is run alongside and must
agree with the continuum oracle inside the contamination horizon.
"""

import argparse
import json
import sys

from fpplab.scenarios import run_scenario

CONFIG = {
    "scenario": "linear-decay",
    "model": {"n": 1, "m": 1.0, "alpha": 1.0, "theta": 5},
    "grid": {"n": 1, "points_per_dim": 8192, "box_length": 2000.0},
    "data": {"kind": "gaussian", "width": 1.0, "amplitude": 1.0},
    "run": {"scheme": "etd2", "dt": 2.0, "t_end": 10000.0,
            "enable_nonlinearity": False},
    "fit": {"window": [100.0, 10000.0], "l_list": [0.0, 1.0],
            "tolerance": [0.02, 0.03]},
    "output_dir": "runs/linear-decay",
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-dir", default=None)
    args = parser.parse_args()
    summary = run_scenario(CONFIG, output_dir=args.output_dir)
    print(json.dumps({f["label"]: f["slope"] for f in summary.fits}, indent=2))
    return 0 if summary.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
