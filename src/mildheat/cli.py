"""Command-line surface: run experiments from config files, list the datum
catalog, and expose the slow trapezoid oracles."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import experiments, initial_data, oracles


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mildheat",
        description="Desk-scale experiments for heat and curvature-flow "
        "evolution of slowly oscillating data",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    sub.add_parser("list-data", help="list catalog datum ids")

    run = sub.add_parser("run", help="run one experiment config")
    run.add_argument("config")
    run.add_argument("--out-dir", default=".")

    run_all = sub.add_parser("run-all", help="run every *.cfg in a directory")
    run_all.add_argument("config_dir")
    run_all.add_argument("--out-dir", default=".")

    oracle = sub.add_parser(
        "oracle", help="evaluate a dense-trapezoid reference integral"
    )
    oracle.add_argument("function", choices=sorted(oracles.ORACLES))
    oracle.add_argument("arg", type=float)
    return p


def _run_one(path: str, out_dir: str) -> int:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = replace(experiments.parse_config(fh.read()), out_dir=out_dir)
    except OSError as exc:
        print(f"config-error: {exc}")
        return 2
    except (experiments.ConfigError, UnicodeDecodeError) as exc:
        print(f"config-error: {path}: {exc}")
        return 2
    result = experiments.run(cfg)
    if result.exit_code == 0:
        print(f"pass: {cfg.kind} {cfg.datum_id}")
    else:
        print(result.reason)
    return result.exit_code


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.verb == "list-data":
        for datum_id in initial_data.catalog():
            print(datum_id)
        return 0

    if args.verb == "run":
        return _run_one(args.config, args.out_dir)

    if args.verb == "run-all":
        try:
            names = sorted(
                f for f in os.listdir(args.config_dir) if f.endswith(".cfg")
            )
        except OSError as exc:
            print(f"config-error: {exc}")
            return 2
        if not names:
            print(f"config-error: no *.cfg files in {args.config_dir}")
            return 2
        worst = 0
        for name in names:
            out_dir = os.path.join(args.out_dir, os.path.splitext(name)[0])
            worst = max(worst, _run_one(os.path.join(args.config_dir, name), out_dir))
        return worst

    try:  # "oracle", the last of the verbs argparse allows
        value = oracles.ORACLES[args.function](args.arg)
    except ValueError as exc:
        print(f"config-error: {exc}")
        return 2
    print(f"{value:.15e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
