"""Command-line entry point.

    sidenet run scenario.cfg [--seed N] [--out results.csv] [--stats s.csv]
    sidenet formulas --n 1,2,4,8 [--p 0.95] [--out table.csv]

Exit codes: 0 success, 1 invariant violation during a run, 2 bad usage or
scenario file.
"""

import argparse
import sys

from . import bench
from .config import ConfigError, load_scenario


def _int_list(text):
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers")
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("engine counts must be >= 1")
    return values


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sidenet",
        description="Desk-scale network-stack experiments with CSV output.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario file")
    run.add_argument("scenario", help="scenario config path")
    run.add_argument("--seed", type=int, default=None,
                     help="override the scenario seed")
    run.add_argument("--out", default="-",
                     help="results CSV path ('-' for stdout)")
    run.add_argument("--stats", default=None,
                     help="optional per-engine/fabric counters CSV path")

    formulas = sub.add_parser("formulas",
                              help="emit the spray batch-size table")
    formulas.add_argument("--n", type=_int_list, default=[1, 2, 4, 8],
                          help="comma-separated engine counts")
    formulas.add_argument("--p", type=float, default=0.95,
                          help="target success probability")
    formulas.add_argument("--out", default="-",
                          help="CSV path ('-' for stdout)")
    return parser


def cmd_run(args):
    try:
        scenario = load_scenario(args.scenario)
    except ConfigError as exc:
        print("sidenet: scenario error: %s" % exc, file=sys.stderr)
        return 2
    try:
        rows, stats_rows = bench.run_scenario(scenario,
                                              seed_override=args.seed)
    except bench.BenchError as exc:
        print("sidenet: invariant violation: %s" % exc, file=sys.stderr)
        return 1
    text = bench.write_csv(rows, args.out)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        print("wrote %d result rows to %s" % (len(rows), args.out))
    if args.stats and stats_rows:
        keys = sorted({k for row in stats_rows for k in row})
        normalized = [{k: row.get(k, "") for k in keys} for row in stats_rows]
        bench.write_csv(normalized, args.stats)
        print("wrote %d stats rows to %s" % (len(normalized), args.stats))
    elif args.stats:
        print("sidenet: %s scenarios keep no counters; %s not written"
              % (scenario.workload["kind"], args.stats), file=sys.stderr)
    return 0


def cmd_formulas(args):
    if not 0.0 < args.p < 1.0:
        print("sidenet: --p must be in (0, 1)", file=sys.stderr)
        return 2
    text = bench.write_csv(bench.formulas_rows(args.n, args.p), args.out)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        print("wrote formula table to %s" % args.out)
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    return cmd_formulas(args)


if __name__ == "__main__":
    sys.exit(main())
