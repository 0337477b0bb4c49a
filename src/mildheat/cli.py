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
    run.add_argument("--out-dir", default=None)
    run.add_argument("--tol", type=float, default=None)

    run_all = sub.add_parser("run-all", help="run every *.cfg in a directory")
    run_all.add_argument("config_dir")
    run_all.add_argument("--out-dir", default=None)
    run_all.add_argument("--tol", type=float, default=None)

    oracle = sub.add_parser(
        "oracle", help="evaluate a dense-trapezoid reference integral"
    )
    oracle.add_argument("function", choices=sorted(oracles.ORACLES))
    oracle.add_argument("arg", type=float)
    return p


def _run_one(path: str, out_dir: str | None, tol: float | None) -> int:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = experiments.parse_config(fh.read())
        if tol is not None and "abs_tol" in experiments._reads(cfg.kind):
            cfg = replace(cfg, params={**cfg.params, "abs_tol": tol})
        if out_dir is not None:
            cfg = replace(cfg, out_dir=out_dir)
    except OSError as exc:
        print(f"config-error: {exc}")
        return 2
    except experiments.ConfigError as exc:
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
        return _run_one(args.config, args.out_dir, args.tol)

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
            path = os.path.join(args.config_dir, name)
            out_dir = args.out_dir
            if out_dir is not None:
                out_dir = os.path.join(out_dir, os.path.splitext(name)[0])
            code = _run_one(path, out_dir, args.tol)
            worst = max(worst, code)
        return worst

    if args.verb == "oracle":
        value = oracles.ORACLES[args.function](args.arg)
        print(f"{value:.15e}")
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
