"""Command-line interface: one row of :data:`COMMANDS` per subcommand.

Every call builds its argparse tree from the table afresh: a parser for every
subcommand, but arguments (``-h`` too) only for the one that its first
argument names, or for all when that names none (help, no or an unknown
command, an option first). One terminal-size probe serves all its help
formatters; nothing is kept between calls. A handler returns its text, alone
or with an exit code or an error that is raised once ``--output`` (or stdout)
holds the text. An empty path is a path, not an absent option. Exit codes:
0 success, 1 error (bad arguments included), 2 degenerate input (regular graph
or constant attributes).
"""

import argparse
import os
import sys
from operator import attrgetter

from . import construct, experiments
from .classify import DEGENERATE, classify, threshold_estimate
from .errors import DegenerateGraphError, PreconditionViolatedError, SgfpError, UsageError
from .ingest import (edge_list_text, node_values_text, opened, prop_own, read_attributes,
                     read_edge_list, read_labels)
from .lp import max_failing_correlation
from .metrics import gap_report
from .randgen import gnp

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DEGENERATE = 2


def cmd_analyze(args):
    g = read_edge_list(args.graph)
    report = gap_report(g, read_attributes(args.attrs, g, rational=args.rational),
                        per_node=args.per_node)
    text = report.to_json() + "\n"
    if report.r_da is None or report.r_ddelta is None:
        return text, DegenerateGraphError("correlation undefined")  # raised once text is written
    return text


def cmd_classify(args):
    result = classify(read_edge_list(args.graph))
    return result.to_json() + "\n", EXIT_DEGENERATE if result.kind == DEGENERATE else EXIT_OK


def cmd_optimize(args):
    result = max_failing_correlation(read_edge_list(args.graph), args.epsilon)
    return result.to_json(include_witness=args.witness) + "\n"


def cmd_threshold(args):
    g = read_edge_list(args.graph)
    if args.grid < 2:  # --grid is kept for compatibility; it changes nothing
        raise PreconditionViolatedError("grid must be >= 2")
    return threshold_estimate(g).to_json() + "\n"


def cmd_census(args):
    if args.nmin > args.nmax:
        raise PreconditionViolatedError("nmin must be <= nmax")
    records = []
    with experiments.census_pool(args.jobs, args.samples) as pool:  # one for every n
        for n in range(args.nmin, args.nmax + 1):
            row, infeasible = experiments.census(n, args.samples, args.seed, args.epsilon,
                                                 args.jobs, pool)
            if infeasible:
                print(f"warning: n={n}: {infeasible} of {args.samples} samples infeasible "
                      f"at epsilon={args.epsilon}", file=sys.stderr)
            records.append(row)
    return experiments.csv_text(experiments.CENSUS_COLUMNS,
                                map(attrgetter(*experiments.CENSUS_COLUMNS), records))


def cmd_grow(args):
    return experiments.csv_text(experiments.GROW_COLUMNS, experiments.grow_table(args.steps))


def cmd_rewire_experiment(args):
    graphs = [(path, read_edge_list(path)) for path in args.graphs]
    records = experiments.rewire_experiment(graphs, args.seed, epsilon=args.epsilon)
    return experiments.csv_text(experiments.REWIRE_COLUMNS,
                                map(attrgetter(*experiments.REWIRE_COLUMNS), records))


def cmd_propown(args):
    g = read_edge_list(args.graph)
    values = prop_own(g, read_labels(args.labels, g))
    return node_values_text(g, [None if v is None else float(v) for v in values])


#: The options each gen kind takes; it refuses any other that is given.
_GEN_OPTIONS = {"gnp": "n p seed", "star": "n", "knee": "n", "path": "n", "fig1": "",
                "fig4": "sample"}


def cmd_gen(args):
    for name, default in (("n", 8), ("p", 0.5), ("seed", 0), ("sample", 0)):
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif name not in _GEN_OPTIONS[args.kind].split():
            raise UsageError(f"sgfp gen: argument --{name}: {args.kind} does not use it")
    if None not in (args.output, args.attrs_output) and \
            os.path.realpath(args.output) == os.path.realpath(args.attrs_output):
        raise UsageError("sgfp gen: argument --attrs-output: the same file as --output")
    if args.kind == "fig1":
        g, attrs = construct.example_graph_fig1()
    elif args.kind == "fig4":
        g, samples = construct.example_graph_fig4()
        attrs = samples[args.sample]
    elif args.attrs_output is not None:
        raise UsageError(f"sgfp gen: argument --attrs-output: {args.kind} has no attributes")
    elif args.kind == "gnp":
        g = gnp(args.n, args.p, args.seed)
    else:
        g = getattr(construct, args.kind)(args.n)  # star, knee or path
    text = edge_list_text(g)  # raises on isolated nodes before any file is written
    if args.attrs_output is not None:
        with opened(args.attrs_output, "w") as fh:
            fh.write(node_values_text(g, attrs))
    return text


_FLAG = {"action": "store_true"}
_SEED = ("--seed", {"type": int, "default": 0})
_EPSILON = ("--epsilon", {"type": float, "default": 0.001})
_OUTPUT = ("--output", {"help": "write to this file instead of stdout"})

#: name -> (handler, help text, argument specs); every command also takes --output.
COMMANDS = {
    "analyze": (cmd_analyze, "gap/correlation report for a graph + attributes", [
        ("graph", {}), ("attrs", {}),
        ("--rational", {**_FLAG, "help": "parse values as exact decimals "
                                         "(0.1 is 1/10, not the nearest double)"}),
        ("--per-node", _FLAG)]),
    "classify": (cmd_classify, "exact pro-/anti-SGFP classification", [("graph", {})]),
    "optimize": (cmd_optimize, "LP search for a failing attribute sample", [
        ("graph", {}), _EPSILON, ("--witness", _FLAG)]),
    "threshold": (cmd_threshold, "failing-correlation threshold estimate", [
        ("graph", {}), ("--grid", {"type": int, "default": 256,
                                      "help": "at least 2; does not change the result"})]),
    "census": (cmd_census, "random-graph pro/anti census", [
        ("--nmin", {"type": int, "default": 3}), ("--nmax", {"type": int, "default": 10}),
        ("--samples", {"type": int, "default": 10000}), _SEED, _EPSILON,
        ("--jobs", {"type": int, "default": 1})]),
    "grow": (cmd_grow, "growth-construction curve data", [("steps", {"type": int})]),
    "rewire-experiment": (cmd_rewire_experiment, "configuration-model rewiring study", [
        ("graphs", {"nargs": "+"}), _SEED, _EPSILON]),
    "propown": (cmd_propown, "derive shared-label proportion attribute", [
        ("graph", {}), ("labels", {})]),
    "gen": (cmd_gen, "generate a named graph as an edge list", [
        ("kind", {"choices": list(_GEN_OPTIONS)}),
        ("--n", {"type": int}), ("--p", {"type": float}), ("--seed", {"type": int}),
        ("--sample", {"type": int, "choices": range(3), "help": "fig4 attribute sample index"}),
        ("--attrs-output", {"help": "also write the attribute CSV here"})]),
}


class _Parser(argparse.ArgumentParser):
    """Reports bad arguments as :class:`UsageError` (exit 1), not exit 2."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def main(argv=None) -> int:
    import shutil  # both loaded already; imported here as argparse imports shutil
    from functools import partial
    if argv is None:
        argv = sys.argv[1:]
    # Only the command argv names gets arguments, -h included: no other parser reads
    # them. Help, no or an unknown command and an option first give all nine theirs.
    named = argv[:1] if argv and argv[0] in COMMANDS else COMMANDS
    try:
        # The width HelpFormatter takes itself when given none, probed once, not per formatter.
        formatter = partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
        parser = _Parser(prog="sgfp", formatter_class=formatter,
                         description="Singular generalized friendship paradox toolkit")
        sub = parser.add_subparsers(dest="command", required=True)
        for name, (handler, help_text, specs) in COMMANDS.items():
            p = sub.add_parser(name, help=help_text, formatter_class=formatter,
                               add_help=name in named)
            if name in named:
                for flag, spec in (*specs, _OUTPUT):
                    p.add_argument(flag, **spec)
            p.set_defaults(handler=handler)
        args = parser.parse_args(argv)
        result = args.handler(args)
        text, status = result if isinstance(result, tuple) else (result, EXIT_OK)
        try:
            with opened(sys.stdout if args.output is None else args.output, "w") as fh:
                fh.write(text)
        except SgfpError:
            if getattr(args, "attrs_output", None) is not None:  # gen wrote it: leave neither file
                os.remove(args.attrs_output)
            raise
        if isinstance(status, SgfpError):
            raise status
        return status
    except DegenerateGraphError as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except SgfpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
