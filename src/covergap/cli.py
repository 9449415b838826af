"""Command-line entry point for the experiment drivers.

Configuration comes from an optional JSON file plus flag overrides; flags
win. Exit codes: 0 success, 1 numerical failure, 2 usage error.
"""

import argparse
import sys

from .experiments import (
    UsageError,
    cmd_gap_sweep,
    cmd_lattice_count,
    cmd_sampler_validate,
    cmd_selberg_table,
    cmd_strong_convergence,
    cmd_truncation_study,
    load_config_file,
    make_config,
)

_COMMANDS = {
    "gap-sweep": cmd_gap_sweep,
    "strong-convergence": cmd_strong_convergence,
    "truncation-study": cmd_truncation_study,
    "selberg-table": cmd_selberg_table,
    "sampler-validate": cmd_sampler_validate,
    "lattice-count": cmd_lattice_count,
}


def _int_list(text):
    return [int(x) for x in text.split(",") if x]


def _float_list(text):
    return [float(x) for x in text.split(",") if x]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covergap",
        description="spectral-gap experiments on random covers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__.splitlines()[0].lower())
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--out", dest="output_dir", help="output directory")
        p.add_argument("--format", choices=["csv", "json"])
        p.add_argument("--t", type=float, help="kernel radius")
        p.add_argument("--grid-m", type=int, dest="grid_m",
                       help="target quadrature nodes")
        p.add_argument("--genus", type=int)
        p.add_argument("--n-list", type=_int_list, dest="n_list",
                       help="comma-separated cover degrees")
        p.add_argument("--samples-per-n", type=int, dest="samples_per_n")
        p.add_argument("--truncation-r-list", type=_int_list,
                       dest="truncation_r_list")
        p.add_argument("--eps-list", type=_float_list, dest="epsilon_list")
        p.add_argument("--t-list", type=_float_list, dest="t_list")
        p.add_argument("--real-r-list", type=_float_list, dest="real_r_list")
        p.add_argument("--imag-a-list", type=_float_list, dest="imag_a_list")
        p.add_argument("--radius-list", type=_float_list, dest="radius_list")
        p.add_argument("--n-max", type=int, dest="n_max")
        p.add_argument("--gof-draws", type=int, dest="gof_draws")
        p.add_argument("--require-transitive", dest="require_transitive",
                       action="store_const", const=True,
                       help="keep drawing until samples-per-n transitive "
                            "tuples per degree")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        file_values = load_config_file(args.config) if args.config else {}
        overrides = {k: v for k, v in vars(args).items()
                     if k not in ("command", "config")}
        cfg = make_config(file_values, overrides)
        result = _COMMANDS[args.command](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    for key in ("gap_data", "gap_summary", "gap_meta", "data", "summary", "meta"):
        if key in result:
            print(f"wrote {result[key]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
