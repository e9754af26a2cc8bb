#!/usr/bin/env python3
"""Small-data nonlinear run: decay rate and weighted-functional boundedness.

Integrates u_t - Lap(u_t) + (-Lap) u = u^6 from a small Gaussian on a large
periodic box, fits the L2 decay slope inside the contamination horizon, and
checks that the running rate-weighted sup functional stays bounded relative
to the data size.  Takes about 12 s on one Xeon core at the default
resolution.
"""

import argparse
import json
import math
import sys

from fpplab.scenarios import run_scenario

CONFIG = {
    "scenario": "nonlinear-smalldata",
    "model": {"n": 1, "m": 1.0, "alpha": 1.0, "theta": 5},
    "grid": {"n": 1, "points_per_dim": 4096, "box_length": 400.0 * math.pi},
    "data": {"kind": "gaussian", "width": 1.0, "amplitude": 0.01},
    "run": {"scheme": "etd2", "dt": 0.1, "t_end": 1000.0},
    "fit": {"window": [10.0, 500.0], "l_list": [0.0, 0.25, 0.5, 0.75, 1.0],
            "tolerance": 0.05},
    "output_dir": "runs/nonlinear-smalldata",
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-dir", default=None)
    parser.add_argument("--amplitude", type=float, default=None,
                        help="override the data amplitude (smallness sweep)")
    args = parser.parse_args()
    config = json.loads(json.dumps(CONFIG))
    if args.amplitude is not None:
        config["data"]["amplitude"] = args.amplitude
    summary = run_scenario(config, output_dir=args.output_dir)
    print(json.dumps(summary.functionals, indent=2, default=str))
    return 0 if summary.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
