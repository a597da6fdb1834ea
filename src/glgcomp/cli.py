"""Command-line driver: build graphs, realize them, verify, and classify.

Exit codes: 0 success, 1 verification mismatch, 2 input error,
3 hypothesis unmet, 4 internal invariant violation, 5 budget exceeded.
"""

import argparse
import functools
import json
import sys

from .analysis import check_conditions, classify, single_extra_realization
from .errors import (BudgetExceeded, CompetitionMismatch, ConstructionFailed,
                     CyclicDigraph, GlgError, HypothesisNotMet, InvalidInput,
                     SchemaError)
from .glg_builder import (cocktail_party, generalized_line_graph,
                          weighted_graph_from_json)
from .graph_core import (digraph_from_json, digraph_to_dot, graph_from_json,
                         graph_json_text, graph_to_dot)
from .oracle import competition_number
from .realization import glg_realization, verify_realization
from .search import DEFAULT_BUDGET, SearchBudget


def _load(path):
    with open(path, "r", encoding="utf-8") as handle:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors; nesting
        # deeper than the decoder's recursion ends in RecursionError.
        try:
            obj = json.load(handle)
        except (ValueError, RecursionError) as exc:
            raise SchemaError("%s: not valid JSON (%s)" % (path, exc)) from exc
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError("%s: expected an object with a 'kind' field" % path)
    return obj


def _as_weighted(obj, where):
    kind = obj["kind"]
    if kind == "vertex_weighted_graph":
        return weighted_graph_from_json(obj)
    if kind == "graph":
        return graph_from_json(obj), {}
    raise SchemaError("%s: expected kind 'graph' or 'vertex_weighted_graph', "
                      "got %r" % (where, kind))


def _as_graph(obj, where):
    if obj["kind"] == "graph":
        return graph_from_json(obj)
    h, weights = _as_weighted(obj, where)
    return generalized_line_graph(h, weights).graph


def _write_text(text, path):
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _parse_edge(text):
    parts = text.split(",")
    if len(parts) != 2 or not all(parts):
        raise SchemaError("--edge expects two comma-separated labels")
    return parts[0], parts[1]


def _budget(args):
    if min(args.max_vertices, args.max_nodes) < 0:
        raise SchemaError("budget flags take non-negative integers")
    return SearchBudget(max_total_vertices=args.max_vertices,
                        max_nodes=args.max_nodes)


def _add_budget_args(sub):
    sub.add_argument("--max-vertices", type=int,
                     default=DEFAULT_BUDGET.max_total_vertices,
                     help="cap on base vertices plus extras in exact search")
    sub.add_argument("--max-nodes", type=int, default=DEFAULT_BUDGET.max_nodes)


def cmd_build(args):
    if args.what == "cp":
        result, _ = cocktail_party(args.m)
    else:
        h, weights = _as_weighted(_load(args.input), args.input)
        result = generalized_line_graph(h, weights).graph
    _write_text(graph_json_text(result) + "\n", args.output)
    if args.dot:
        _write_text(graph_to_dot(result), args.dot)
    return 0


def cmd_realize(args):
    h, weights = _as_weighted(_load(args.input), args.input)
    if args.mode == "two":
        edge = _parse_edge(args.edge) if args.edge else None
        result = glg_realization(h, weights, edge)
        cert = result.certificate
    else:
        if args.edge:
            raise SchemaError("--edge applies only to the 'two' mode")
        cert = single_extra_realization(h, weights)
    _write_text(cert.json_text() + "\n", args.output)
    if args.dot:
        _write_text(digraph_to_dot(cert.digraph, node_attrs={
            z: {"shape": "box"} for z in cert.added}), args.dot)
    return 0


def cmd_compnum(args):
    graph = _as_graph(_load(args.input), args.input)
    k, cert = competition_number(graph, _budget(args))
    if args.witness:
        _write_text(cert.json_text() + "\n", args.witness)
    if args.json:
        _write_text(json.dumps({"kind": "competition_number", "value": k},
                               sort_keys=True) + "\n", None)
    else:
        print("competition number: %d" % k)
    return 0


def cmd_verify(args):
    if args.k < 0:
        raise SchemaError("--k takes a non-negative integer")
    digraph = digraph_from_json(_load(args.digraph))
    graph = _as_graph(_load(args.graph), args.graph)
    try:
        cert = verify_realization(digraph, graph, args.k)
    except (CompetitionMismatch, CyclicDigraph, InvalidInput) as exc:
        print("INVALID: %s" % exc, file=sys.stderr)
        if isinstance(exc, CompetitionMismatch):
            for edge in sorted(exc.missing):
                print("missing edge: %s -- %s" % edge, file=sys.stderr)
            for edge in sorted(exc.extra):
                print("extra edge: %s -- %s" % edge, file=sys.stderr)
        return 1
    if args.json:
        _write_text(cert.json_text() + "\n", None)
    else:
        print("valid realization with %d extra vertices: %s"
              % (cert.k, ", ".join(cert.added) or "(none)"))
    return 0


def cmd_classify(args):
    h, weights = _as_weighted(_load(args.input), args.input)
    if args.conditions:
        _write_text(check_conditions(h, weights).json_text() + "\n", None)
        return 0
    verdict = classify(h, weights, _budget(args))
    if args.json:
        _write_text(verdict.json_text() + "\n", None)
    else:
        print("verdict: %s" % verdict.k_value)
        for claim, source in verdict.evidence:
            print("  - %s [%s]" % (claim, source))
    return 0


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="glgcomp",
        description="Competition-number toolkit for generalized line graphs")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("build", help="construct a graph and write it as JSON")
    p.add_argument("what", choices=["glg", "cp"])
    p.add_argument("input", nargs="?",
                   help="instance file (not used with 'cp')")
    p.add_argument("--m", type=int, default=None,
                   help="block size for 'cp'")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--dot", default=None)
    p.set_defaults(func=cmd_build)

    p = subs.add_parser("realize",
                        help="build a verified realization certificate")
    p.add_argument("mode", choices=["two", "one"],
                   help="two extras (always), or one extra under either of "
                        "the paper's sufficient conditions")
    p.add_argument("input")
    p.add_argument("--edge", default=None,
                   help="base edge 'u,v' pinning the extra pair (mode 'two')")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--dot", default=None)
    p.set_defaults(func=cmd_realize)

    p = subs.add_parser("compnum", help="exact competition number")
    p.add_argument("input")
    p.add_argument("--witness", default=None,
                   help="write the witness certificate here")
    p.add_argument("--json", action="store_true")
    _add_budget_args(p)
    p.set_defaults(func=cmd_compnum)

    p = subs.add_parser("verify",
                        help="check a digraph against a target graph")
    p.add_argument("digraph")
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("classify", help="decide the competition number")
    p.add_argument("input")
    p.add_argument("--json", action="store_true")
    p.add_argument("--conditions", action="store_true",
                   help="report condition flags instead of classifying")
    _add_budget_args(p)
    p.set_defaults(func=cmd_classify)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.command == "build":
        if args.what == "cp" and args.m is None:
            print("error: 'build cp' requires --m", file=sys.stderr)
            return 2
        if args.what != "cp" and not args.input:
            print("error: 'build %s' requires an input file" % args.what,
                  file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except HypothesisNotMet as exc:
        print("hypothesis not met: %s" % exc, file=sys.stderr)
        return 3
    except ConstructionFailed as exc:
        print("internal invariant violation: %s" % exc, file=sys.stderr)
        return 4
    except BudgetExceeded as exc:
        bounds = ""
        if exc.lower_bound is not None:
            bounds = " (lower bound %s)" % exc.lower_bound
        print("budget exceeded: %s%s" % (exc, bounds), file=sys.stderr)
        return 5
    except (GlgError, OSError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
