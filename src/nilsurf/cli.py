"""Command-line interface.

Subcommands:
  generate CONFIG        full pipeline: (solve ->) integrate -> assemble ->
                         verify -> export meshes and a JSON report
  check CSV              verify an externally supplied surface grid
                         (CSV header x,y,F_re,F_im,h)
  solve-gauss CONFIG     density solve only; writes the solved grid as CSV

Exit codes: 0 pass, 2 config error, 3 integrability failure, 4 residual
threshold failure, 5 I/O failure.

The `check` flags are the config's DEFAULT_TOLERANCES under their
tolerances.* names and follow the same rules (a NaN, an infinity, a
non-positive floor or scale, or a margin below 1 exits 2).  Every
failure, loading the configuration included, goes through
pipeline.guarded.
"""

import argparse

from .config import DEFAULT_TOLERANCES, load_config
from .pipeline import EXIT_PASS, guarded, run_check, run_generate, run_solve

CHECK_FLAG_HELP = {
    "margin": "boundary nodes excluded from max-norms, at least 1 "
    "(default %(default)s)",
    "angle_cutoff": "skip Gauss-map tension where the angle function is below this",
    "residual_floor": "absolute floor of the residual thresholds, positive",
    "threshold_scale": "positive multiplier on the h^2 residual thresholds",
}


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
    for key, default in DEFAULT_TOLERANCES.items():
        p_check.add_argument(
            "--" + key.replace("_", "-"),
            type=type(default),
            default=default,
            help=CHECK_FLAG_HELP[key],
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
    if args.command == "check":
        tolerances = {key: getattr(args, key) for key in DEFAULT_TOLERANCES}
        return run_check(args.csv, report_path=args.report, log=log, **tolerances)[0]
    code, config = guarded(lambda: (EXIT_PASS, load_config(args.config)), log)
    if code != EXIT_PASS:
        return code
    if args.command == "generate":
        return run_generate(config, log=log)[0]
    return run_solve(config, out_path=args.out, log=log)[0]
