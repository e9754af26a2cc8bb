"""Command-line front end.

Subcommands:

* ``run <config.json>``       execute a scenario, write artifacts, exit 0
                              only if every verdict passes;
* ``validate <config.json>``  parse the config, check its output_dir, and
                              print the regime report; run nothing;
* ``list-scenarios``          print the known scenario names.

Exit codes: 0 all verdicts pass, 1 verdict failure, 2 config error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .model import validate
from .oracle import OracleConvergenceError
from .scenarios import (EXIT_CONFIG_ERROR, EXIT_NUMERICAL_ERROR, EXIT_OK,
                        EXIT_VERDICT_FAIL, SCENARIOS, ConfigError, output_path,
                        parse_config, run_scenario)
from .solver import SolverBlowupError


def _load(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def _cmd_run(args) -> int:
    try:
        doc = _load(args.config)
        summary = run_scenario(doc, output_dir=args.output_dir, quiet=args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (OracleConvergenceError, SolverBlowupError, OverflowError,
            FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR
    return EXIT_OK if summary.all_pass else EXIT_VERDICT_FAIL


def _cmd_validate(args) -> int:
    try:
        cfg = parse_config(_load(args.config))
        output_path(cfg.output_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    report = validate(cfg.model, cfg.s)
    if not args.quiet:
        print(json.dumps({"scenario": cfg.scenario, "regime": report.to_dict()},
                         indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_list(args) -> int:
    for name in SCENARIOS:
        print(name)
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fpplab",
        description="Pseudo-spectral decay laboratory for a fractional "
                    "pseudo-parabolic equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config")
    p_run.add_argument("--output-dir", default=None)
    p_run.add_argument("--quiet", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="parse a config and print the regime report")
    p_val.add_argument("config")
    p_val.add_argument("--quiet", action="store_true")
    p_val.set_defaults(func=_cmd_validate)

    p_list = sub.add_parser("list-scenarios", help="print known scenario names")
    p_list.set_defaults(func=_cmd_list)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
