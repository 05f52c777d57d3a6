"""Command line entry point.

    spinor-efimov <task> --config <path> [--out <dir>]
                  [--format csv,json,svg] [--strict]

Exit status is 0 iff the run produced no errors; --strict also fails the
run on warnings.
"""

from __future__ import annotations

import argparse
import sys

from .config import FORMATS, TASKS, ConfigError, parse_config
from .runner import RunnerError, run, write_outputs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinor-efimov",
        description="Channel exponents, adiabatic potentials and Efimov "
                    "ladders for two-level bosons with multichannel "
                    "zero-range interactions.")
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--config", required=True, metavar="PATH",
                        help="run file (key = value lines)")
    parser.add_argument("--out", metavar="DIR",
                        help="output directory (overrides the config)")
    parser.add_argument("--format", metavar="LIST",
                        help=f"comma-separated subset of {','.join(FORMATS)} "
                             "(overrides the config)")
    parser.add_argument("--strict", action="store_true",
                        help="treat warnings as errors")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1

    try:
        cfg = parse_config(text, cli_task=args.task)
        if args.out is not None:
            cfg.out = args.out
        if args.format is not None:
            formats = tuple(p.strip() for p in args.format.split(","))
            bad = [p for p in formats if p not in FORMATS]
            if bad:
                print(f"error: unknown format(s) {bad}", file=sys.stderr)
                return 1
            cfg.formats = formats
        bundle = run(cfg)
        try:
            written = write_outputs(bundle, cfg.out, cfg.formats)
        except OSError as exc:
            print(f"error: cannot write outputs: {exc}", file=sys.stderr)
            return 1
    except (ConfigError, RunnerError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for warning in bundle.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    for path in written:
        print(path)
    if args.strict and bundle.warnings:
        print("error: warnings present in strict mode", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
