"""Command-line surface: generation, solving, auditing and perturbation.

Consumers are scripts and tests, so output bytes are deterministic for
fixed inputs and flags, and everything beyond ``gen``'s edge lists is JSON.

Exit codes: 0 success, 1 audit disagreement outside the errata whitelist,
2 usage error (unknown family, malformed file, exceeded budget, an input
too deep for the recursive searches, ...).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from . import __version__
from .audit import DEFAULT_SOLVER_CAP, audit_specs, report_to_dict
from .errors import DomchromError
from .families import generate, parse_family, parse_family_range
from .graph import Graph, format_edge_list, parse_dimacs, parse_edge_list
from .invariants import chromatic_number, domination_number, total_domination_number
from .perturb import dom_bondage, dom_stability
from .solver import DEFAULT_ORACLE_CAP, dom_chromatic


def _load_target(target: str, fmt: str | None) -> Graph:
    """Resolve a positional target: '-' for stdin, a readable file, or a
    family spec string.  An explicit ``--format`` always names a file."""
    if target == "-":
        text = sys.stdin.read()
        return parse_dimacs(text) if fmt == "dimacs" else parse_edge_list(text)
    if os.path.exists(target):
        with open(target, encoding="utf-8") as fh:
            text = fh.read()
        return parse_dimacs(text) if fmt == "dimacs" else parse_edge_list(text)
    if fmt is not None:
        raise DomchromError(f"file not found: {target}")
    return generate(parse_family(target))


def _non_negative_int(text: str) -> int:
    """argparse type for caps and budgets: a negative value would skip or
    fail every instance, so it is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative: {value}")
    return value


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    g = generate(parse_family(args.spec))
    sys.stdout.write(format_edge_list(g))
    return 0


def _cmd_solve(args) -> int:
    g = _load_target(args.target, args.format)
    if args.invariant is None:
        k, coloring = dom_chromatic(g)
        classes = coloring.classes()
        payload = {
            "k": k,
            "classes": [list(classes[c]) for c in sorted(classes)],
            "dominators": {str(c): v for c, v in sorted(coloring.dominators.items())},
        }
    else:
        fn = {
            "chi": chromatic_number,
            "gamma": domination_number,
            "gammat": total_domination_number,
        }[args.invariant]
        res = fn(g)
        payload = {
            "invariant": args.invariant,
            "value": res.value,
            "witness": list(res.witness),
        }
    _emit(payload, args.out)
    return 0


def _cmd_audit(args) -> int:
    specs = []
    for token in args.family:
        specs.extend(parse_family_range(token))
    report = audit_specs(
        specs,
        solver_cap=args.solver_cap,
        oracle_cap=args.oracle_cap,
        budget_ms=args.budget,
    )
    _emit(report_to_dict(report), args.out)
    return 0 if report.ok else 1


def _cmd_perturb(args) -> int:
    g = _load_target(args.target, args.format)
    if args.mode == "vertex":
        res = dom_stability(g, budget_ms=args.budget)
    else:
        res = dom_bondage(g, budget_ms=args.budget)
    _emit(asdict(res), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domchrom",
        description="Exact dominated-chromatic-number toolkit: generate "
        "family instances, solve, audit formula tables, and probe "
        "vertex/edge stability.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write a family instance as an edge list")
    p_gen.add_argument("spec", help="family spec, e.g. path:7 or circulant:12:1,3")
    p_gen.set_defaults(fn=_cmd_gen)

    p_solve = sub.add_parser("solve", help="solve a graph or family instance")
    p_solve.add_argument("target", help="family spec, file path, or '-' for stdin")
    group = p_solve.add_mutually_exclusive_group()
    group.add_argument(
        "--domchrom", action="store_true",
        help="dominated chromatic number with certificate (default)",
    )
    group.add_argument(
        "--invariant", choices=["chi", "gamma", "gammat"],
        help="classical invariant instead of the dominated chromatic number",
    )
    p_solve.add_argument("--format", choices=["edgelist", "dimacs"], default=None)
    p_solve.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p_solve.set_defaults(fn=_cmd_solve)

    p_audit = sub.add_parser("audit", help="audit formula tables against the solver")
    p_audit.add_argument(
        "--family", action="append", required=True,
        help="family range spec, e.g. cycle:4..12 (repeatable)",
    )
    p_audit.add_argument("--out", default=None, help="write the JSON report here")
    p_audit.add_argument(
        "--solver-cap", type=_non_negative_int, default=DEFAULT_SOLVER_CAP
    )
    p_audit.add_argument(
        "--oracle-cap", type=_non_negative_int, default=DEFAULT_ORACLE_CAP
    )
    p_audit.add_argument(
        "--budget", type=_non_negative_int, default=None, help="total budget in ms"
    )
    p_audit.set_defaults(fn=_cmd_audit)

    p_pert = sub.add_parser("perturb", help="minimum vertex/edge removals changing the value")
    p_pert.add_argument("target", help="family spec, file path, or '-' for stdin")
    p_pert.add_argument("--mode", choices=["vertex", "edge"], required=True)
    p_pert.add_argument("--format", choices=["edgelist", "dimacs"], default=None)
    p_pert.add_argument(
        "--budget", type=_non_negative_int, default=None,
        help="sweep budget in ms; without one the sweep has no time bound",
    )
    p_pert.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p_pert.set_defaults(fn=_cmd_perturb)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (DomchromError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # the exact searches recurse once per chosen vertex or class
        print("error: input too large for the recursive search", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
