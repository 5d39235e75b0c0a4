"""Command-line interface.

Subcommands:
  generate CONFIG        full pipeline: (solve ->) integrate -> assemble ->
                         verify -> export meshes and a JSON report
  check CSV              verify an externally supplied surface grid
                         (CSV header x,y,F_re,F_im,h)
  solve-gauss CONFIG     density solve only; writes the solved grid as CSV

Exit codes: 0 pass, 2 config error, 3 integrability failure, 4 residual
threshold failure, 5 I/O failure.
"""

import argparse
import sys

from .config import DEFAULT_TOLERANCES, load_config
from .errors import DomainError, SchemaError
from .pipeline import (
    EXIT_CONFIG,
    EXIT_IO,
    run_check,
    run_generate,
    run_solve,
)


def _load(path, log):
    try:
        return load_config(path), None
    except (SchemaError, DomainError) as exc:
        log(f"config error: {exc}")
        return None, EXIT_CONFIG
    except OSError as exc:
        log(f"I/O error: {exc}")
        return None, EXIT_IO


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nilsurf",
        description=(
            "Generate minimal surfaces in the 3-dimensional Heisenberg group "
            "from potential data, and verify surfaces with a differential-"
            "geometry residual suite."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser(
        "generate", help="run the full pipeline from a JSON config"
    )
    p_gen.add_argument("config", help="path to the JSON run configuration")

    p_check = sub.add_parser(
        "check", help="verify an external surface CSV (x,y,F_re,F_im,h)"
    )
    p_check.add_argument("csv", help="path to the surface CSV")
    p_check.add_argument(
        "--report", default=None, help="also write a JSON report to this path"
    )
    p_check.add_argument(
        "--margin",
        type=int,
        default=DEFAULT_TOLERANCES["margin"],
        help="boundary nodes excluded from max-norms, at least 1 "
        "(default %(default)s)",
    )
    p_check.add_argument(
        "--angle-cutoff",
        type=float,
        default=DEFAULT_TOLERANCES["angle_cutoff"],
        help="skip Gauss-map tension where the angle function is below this",
    )
    p_check.add_argument(
        "--residual-floor",
        type=float,
        default=DEFAULT_TOLERANCES["residual_floor"],
        help="absolute floor of the residual thresholds",
    )
    p_check.add_argument(
        "--threshold-scale",
        type=float,
        default=DEFAULT_TOLERANCES["threshold_scale"],
        help="multiplier on the h^2 residual thresholds",
    )

    p_solve = sub.add_parser(
        "solve-gauss", help="solve the integrability equation only"
    )
    p_solve.add_argument("config", help="path to the JSON run configuration")
    p_solve.add_argument(
        "--out", default=None, help="solution CSV path (default from config)"
    )
    return parser


def main(argv=None, log=print):
    args = build_parser().parse_args(argv)
    if args.command == "generate":
        config, err = _load(args.config, log)
        if config is None:
            return err
        code, _ = run_generate(config, log=log)
        return code
    if args.command == "check":
        code, _ = run_check(
            args.csv,
            report_path=args.report,
            margin=args.margin,
            angle_cutoff=args.angle_cutoff,
            residual_floor=args.residual_floor,
            threshold_scale=args.threshold_scale,
            log=log,
        )
        return code
    if args.command == "solve-gauss":
        config, err = _load(args.config, log)
        if config is None:
            return err
        code, _ = run_solve(config, out_path=args.out, log=log)
        return code
    raise AssertionError(f"unhandled command {args.command!r}")


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
