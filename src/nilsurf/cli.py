"""Command-line interface.

Subcommands:
  generate CONFIG        full pipeline: (solve ->) integrate -> assemble ->
                         verify -> export meshes and a JSON report
  check CSV              verify an externally supplied surface grid
                         (CSV header x,y,F_re,F_im,h)
  solve-gauss CONFIG     density solve only; writes the solved grid as CSV

Exit codes: 0 pass, 2 config error, 3 integrability failure, 4 residual
threshold failure, 5 I/O failure.

The `check` flags are the config's CHECK_TOLERANCES under their
tolerances.* names and follow the same rules (a NaN, an infinity, a
non-positive floor or scale, or a margin below 1 exits 2).  Every
command exits 2 before writing anything when a file it would write is
the file it reads.  `_load` compares the report, a mesh, the solution or
--out with the configuration file; run_check compares its --report with
the surface CSV, and parse_config refuses a report path that is one of
the mesh paths.  Every failure, loading the configuration included, goes
through pipeline.guarded.
"""

import argparse
import os
import sys

from .config import CHECK_TOLERANCES, DEFAULT_TOLERANCES, load_config, mesh_path
from .errors import SchemaError
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
    for key in CHECK_TOLERANCES:
        default = DEFAULT_TOLERANCES[key]
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


def _load(args):
    """The command's configuration (None for check), once its outputs are safe.

    SchemaError if a file generate or solve-gauss would write is the
    configuration file it reads.  Nothing has been written at that point;
    parse_config and run_check refuse the other collisions themselves.
    """
    if args.command == "check":
        return None
    config = load_config(args.config)
    if args.command == "generate":
        outputs = [("outputs.report", config.report_path)]
        outputs += [
            ("outputs.mesh", mesh_path(config.mesh_pattern, t))
            for t in config.t_values
        ]
    elif args.out is not None:
        outputs = [("--out", args.out)]
    else:
        outputs = [("outputs.solution", config.solution_path)]
    for key, path in outputs:
        if os.path.exists(path) and os.path.samefile(path, args.config):
            raise SchemaError(key, f"{path!r} is the configuration file")
    return config


def main(argv=None, log=print):
    args = build_parser().parse_args(argv)
    code, config = guarded(lambda: (EXIT_PASS, _load(args)), log)
    if code != EXIT_PASS:
        return code
    if args.command == "check":
        tolerances = {key: getattr(args, key) for key in CHECK_TOLERANCES}
        return run_check(args.csv, report_path=args.report, log=log, **tolerances)[0]
    if args.command == "generate":
        return run_generate(config, log=log)[0]
    return run_solve(config, out_path=args.out, log=log)[0]


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
