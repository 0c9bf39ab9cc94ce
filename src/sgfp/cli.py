"""Command-line interface.

Exit codes: 0 success, 1 error (bad arguments included), 2 degenerate
input (regular graph or constant attributes), so scripts can tell
"undefined correlation" apart from failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import astuple, fields

from . import construct, experiments
from .classify import DEGENERATE, classify, threshold_estimate
from .errors import DegenerateGraphError, PreconditionViolatedError, SgfpError, UsageError
from .ingest import (opened, prop_own, read_attributes, read_edge_list, read_labels,
                     write_graph, write_node_values)
from .lp import max_failing_correlation
from .metrics import gap_report
from .randgen import gnp

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DEGENERATE = 2


def _out(args):
    """The command's output: the --output file, or stdout."""
    return opened(args.output or sys.stdout, "w")


def cmd_analyze(args) -> int:
    g = read_edge_list(args.graph)
    attrs = read_attributes(args.attrs, g, rational=args.rational)
    report = gap_report(g, attrs, per_node=args.per_node)
    text = report.to_json(include_per_node=args.per_node)  # raises before --output is opened
    with _out(args) as fh:
        fh.write(text + "\n")
    if report.r_da is None or report.r_ddelta is None:
        print("degenerate input: correlation undefined", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def cmd_classify(args) -> int:
    g = read_edge_list(args.graph)
    result = classify(g)
    text = result.to_json()
    with _out(args) as fh:
        fh.write(text + "\n")
    return EXIT_DEGENERATE if result.kind == DEGENERATE else EXIT_OK


def cmd_optimize(args) -> int:
    g = read_edge_list(args.graph)
    result = max_failing_correlation(g, args.epsilon)
    text = result.to_json(include_witness=args.witness)
    with _out(args) as fh:
        fh.write(text + "\n")
    return EXIT_OK


def cmd_threshold(args) -> int:
    g = read_edge_list(args.graph)
    est = threshold_estimate(g, grid=args.grid)
    text = est.to_json()
    with _out(args) as fh:
        fh.write(text + "\n")
    return EXIT_OK


def _columns(record_type) -> list[str]:
    return [f.name for f in fields(record_type)]


def cmd_census(args) -> int:
    if args.nmin > args.nmax:
        raise PreconditionViolatedError("nmin must be <= nmax")
    records = []
    for n in range(args.nmin, args.nmax + 1):
        record, infeasible = experiments._census(n, args.samples, args.seed,
                                                 epsilon=args.epsilon, jobs=args.jobs)
        if infeasible:
            print(f"warning: n={n}: {infeasible} of {args.samples} samples infeasible "
                  f"at epsilon={args.epsilon}", file=sys.stderr)
        records.append(record)
    with _out(args) as fh:
        experiments.write_csv(_columns(experiments.CensusRecord), map(astuple, records), fh)
    return EXIT_OK


def cmd_grow(args) -> int:
    rows = experiments.grow_table(args.steps)
    with _out(args) as fh:
        experiments.write_csv(experiments.GROW_COLUMNS, rows, fh)
    return EXIT_OK


def cmd_rewire_experiment(args) -> int:
    graphs = [(path, read_edge_list(path)) for path in args.graphs]
    records = experiments.rewire_experiment(graphs, args.seed,
                                            epsilon=args.epsilon)
    with _out(args) as fh:
        experiments.write_csv(_columns(experiments.RewireRecord), map(astuple, records), fh)
    return EXIT_OK


def cmd_propown(args) -> int:
    g = read_edge_list(args.graph)
    labels = read_labels(args.labels, g)
    values = prop_own(g, labels)
    with _out(args) as fh:
        write_node_values(g, [None if v is None else float(v) for v in values], fh)
    return EXIT_OK


def cmd_gen(args) -> int:
    attrs = None
    if args.kind == "gnp":
        g = gnp(args.n, args.p, args.seed)
    elif args.kind == "fig1":
        g, attrs = construct.example_graph_fig1()
    elif args.kind == "fig4":
        g, samples = construct.example_graph_fig4()
        attrs = samples[args.sample]
    else:
        g = {"star": construct.star, "knee": construct.knee,
             "path": construct.path}[args.kind](args.n)
    write_graph(g, args.output or sys.stdout)
    if attrs is not None and args.attrs_output:
        write_node_values(g, attrs, args.attrs_output)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports bad arguments as :class:`UsageError` (exit 1), not exit 2."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sgfp",
        description="Singular generalized friendship paradox toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", help="write to this file instead of stdout")

    p = sub.add_parser("analyze", help="gap/correlation report for a graph + attributes")
    p.add_argument("graph")
    p.add_argument("attrs")
    p.add_argument("--rational", action="store_true",
                   help="parse values as exact decimals (0.1 is 1/10, not the nearest double)")
    p.add_argument("--per-node", action="store_true")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("classify", help="exact pro-/anti-SGFP classification")
    p.add_argument("graph")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("optimize", help="LP search for a failing attribute sample")
    p.add_argument("graph")
    p.add_argument("--epsilon", type=float, default=0.001)
    p.add_argument("--witness", action="store_true")
    common(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("threshold", help="failing-correlation threshold estimate")
    p.add_argument("graph")
    p.add_argument("--grid", type=int, default=256)
    common(p)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("census", help="random-graph pro/anti census")
    p.add_argument("--nmin", type=int, default=3)
    p.add_argument("--nmax", type=int, default=10)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=0.001)
    p.add_argument("--jobs", type=int, default=1)
    common(p)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("grow", help="growth-construction curve data")
    p.add_argument("steps", type=int)
    common(p)
    p.set_defaults(func=cmd_grow)

    p = sub.add_parser("rewire-experiment", help="configuration-model rewiring study")
    p.add_argument("graphs", nargs="+")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=0.001)
    common(p)
    p.set_defaults(func=cmd_rewire_experiment)

    p = sub.add_parser("propown", help="derive shared-label proportion attribute")
    p.add_argument("graph")
    p.add_argument("labels")
    common(p)
    p.set_defaults(func=cmd_propown)

    p = sub.add_parser("gen", help="generate a named graph as an edge list")
    p.add_argument("kind", choices=["gnp", "star", "knee", "path", "fig1", "fig4"])
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sample", type=int, default=0, choices=range(3),
                   help="fig4 attribute sample index")
    p.add_argument("--attrs-output", help="also write the attribute CSV here")
    common(p)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except DegenerateGraphError as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except SgfpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
