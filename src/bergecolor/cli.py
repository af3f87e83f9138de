"""Command-line front end.

Subcommands: color, verify, gen, analyze.  Exit codes are stable:

    0  success / artifact valid
    1  invalid artifact or other tool error
    2  input could not be parsed
    3  input graph contains an induced square
    4  input graph is not Berge
    5  internal invariant violation (always a bug, never user error)

All file output is written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import asdict
from typing import Iterable, Iterator

from . import __version__
from .dimacs import read_col, write_col
from .errors import (
    BergeColorError,
    BergeViolation,
    DimacsError,
    InternalViolation,
    NotBerge,
    NotSquareFree,
    SpecError,
)
from .generators import (
    HyperprismSpec,
    PrismSpec,
    gen_hyperprism,
    gen_lk4_subdivision,
    gen_prism,
    gen_square_free_berge,
    sidecar_metadata,
)
from .graphs import contains_square, find_triads, is_berge, maximal_cliques
from .partition import GoodPartition, find_good_partition, verify_good_partition
from .recolor import (
    PartialColoring,
    coloring_from_json,
    coloring_to_lines,
    parse_coloring_lines,
)
from .solver import color, tree_to_dot, tree_to_json, verify_coloring

REPORT_SCHEMA = "bergecolor-report/1"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_NOT_SQUARE_FREE = 3
EXIT_NOT_BERGE = 4
EXIT_INTERNAL = 5


def _atomic_write(path: str, text: str | Iterable[str]) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _json_chunks(obj) -> Iterator[str]:
    """json.dumps(obj, indent=2, sort_keys=True) and a newline, in pieces,
    for documents with string keys.  An explicit stack keeps deep
    decomposition trees clear of the recursion limit, and streaming keeps
    their text (over 300 MB for a 600-vertex path, nearly all indentation)
    out of memory."""
    stack: list = [("\n", None), (obj, 0)]
    while stack:
        item, level = stack.pop()
        if level is None:
            yield item  # literal text
            continue
        if isinstance(item, dict) and item:
            entries = [(json.dumps(k) + ": ", v) for k, v in sorted(item.items())]
            brackets = "{}"
        elif isinstance(item, list) and item:
            entries = [("", v) for v in item]
            brackets = "[]"
        else:
            # ints skip json.dumps, as json's own encoder does: most of a tree
            yield int.__repr__(item) if type(item) is int else json.dumps(item)
            continue
        yield brackets[0]
        stack.append(("\n" + "  " * level + brackets[1], None))
        pad = "\n" + "  " * (level + 1)
        for i, (head, value) in reversed(list(enumerate(entries))):
            stack.append((value, level + 1))
            stack.append((("," if i else "") + pad + head, None))


def _write_json(path: str, obj) -> None:
    _atomic_write(path, _json_chunks(obj))


def _load_coloring(path: str) -> PartialColoring:
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return coloring_from_json(json.loads(text))
    return parse_coloring_lines(text)


def _fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def cmd_color(args) -> int:
    t0 = time.perf_counter()
    g = read_col(args.graph)
    report = {
        "schema": REPORT_SCHEMA,
        "command": "color",
        "input": {"path": args.graph, "n": g.n, "m": g.m},
        "checks": {"square_free": False, "berge": None},
        "status": "error",
    }
    trace: list | None = [] if args.trace else None
    try:
        result = color(
            g,
            berge_cap=args.berge_cap,
            trust_berge=args.trust_berge,
            trace=trace,
        )
    except NotSquareFree as e:
        report["status"] = "not-square-free"
        report["witness"] = list(e.witness) if e.witness else None
        _finish_report(args, report, t0)
        return _fail(str(e), EXIT_NOT_SQUARE_FREE)
    except NotBerge as e:
        report["checks"]["square_free"] = True
        report["checks"]["berge"] = False
        report["status"] = "not-berge"
        report["witness"] = [e.witness[0], list(e.witness[1])] if e.witness else None
        _finish_report(args, report, t0)
        return _fail(str(e), EXIT_NOT_BERGE)

    report["checks"]["square_free"] = True
    report["checks"]["berge"] = True if result.stats.berge_checked else None
    report["status"] = "success"
    report["omega"] = result.colors_used
    report["colors_used"] = result.colors_used
    report["stats"] = asdict(result.stats)
    del report["stats"]["berge_checked"]  # reported under "checks"
    _finish_report(args, report, t0)

    lines = coloring_to_lines(result.coloring)
    if args.output:
        _atomic_write(args.output, lines)
    else:
        sys.stdout.write(lines)
    if args.trace:
        _atomic_write(
            args.trace, "".join(json.dumps(ev, sort_keys=True) + "\n" for ev in trace)
        )
    if args.tree:
        if args.tree.endswith(".dot"):
            _atomic_write(args.tree, tree_to_dot(result.tree))
        else:
            _write_json(args.tree, tree_to_json(result.tree))
    print(
        f"colored {g.n} vertices with {result.colors_used} colors",
        file=sys.stderr,
    )
    return EXIT_OK


def _finish_report(args, report: dict, t0: float) -> None:
    report["wall_time_s"] = round(time.perf_counter() - t0, 6)
    if args.report:
        _write_json(args.report, report)


def cmd_verify(args) -> int:
    g = read_col(args.graph)
    if args.coloring:
        try:
            p = _load_coloring(args.coloring)
        except (ValueError, json.JSONDecodeError) as e:
            return _fail(f"bad coloring file: {e}", EXIT_PARSE)
        verdict = verify_coloring(g, p)
        if verdict.ok:
            print(f"coloring valid: {len(set(p.colors.values()))} colors")
            return EXIT_OK
        print(f"coloring invalid: {verdict.reason} {verdict.witness}")
        return EXIT_INVALID
    with open(args.partition) as fh:
        try:
            data = json.load(fh)
        except ValueError as e:  # malformed JSON or undecodable bytes
            return _fail(f"bad partition file: {e}", EXIT_PARSE)
    part = GoodPartition.from_json(data)
    verdict = verify_good_partition(g, part)
    if verdict.ok:
        print("partition valid")
        return EXIT_OK
    print(f"partition invalid: condition {verdict.condition}, {verdict.witness}")
    return EXIT_INVALID


def cmd_gen(args) -> int:
    params = args.params
    if args.construction == "prism":
        lengths = tuple(int(p) for p in params)
        g = gen_prism(PrismSpec(lengths))  # validates arity and parity
        meta = sidecar_metadata("prism", {"lengths": list(lengths)}, g)
    elif args.construction == "hyperprism":
        if len(params) != 3:
            raise SpecError("hyperprism takes three strips, e.g. '2,2 2 2'")
        strips = tuple(tuple(int(x) for x in p.split(",")) for p in params)
        g = gen_hyperprism(HyperprismSpec(strips))
        meta = sidecar_metadata(
            "hyperprism", {"strips": [list(s) for s in strips]}, g
        )
    elif args.construction == "lk4":
        lengths = tuple(int(p) for p in params)
        g = gen_lk4_subdivision(lengths)
        meta = sidecar_metadata("lk4", {"lengths": list(lengths)}, g)
    elif args.construction == "random":
        if len(params) != 1:
            raise SpecError("random takes one parameter: the vertex count")
        n = int(params[0])
        g = gen_square_free_berge(n, args.seed)
        meta = sidecar_metadata("random", {"n": n, "seed": args.seed}, g)
    else:
        raise SpecError(f"unknown construction {args.construction!r}")
    write_col(g, args.output, comment=f"bergecolor gen {args.construction}")
    _write_json(args.output + ".json", meta)
    print(f"wrote {args.output} ({g.n} vertices, {g.m} edges)", file=sys.stderr)
    return EXIT_OK


def cmd_analyze(args) -> int:
    g = read_col(args.graph)
    report = {
        "schema": REPORT_SCHEMA,
        "command": "analyze",
        "input": {"path": args.graph, "n": g.n, "m": g.m},
    }
    sq = contains_square(g)
    report["square_free"] = sq is None
    if sq is not None:
        report["square"] = list(sq)
    if g.n <= args.berge_cap:
        verdict = is_berge(g, cap=args.berge_cap)
        report["berge"] = verdict.ok
        if not verdict.ok:
            report["berge_witness"] = [verdict.witness[0], list(verdict.witness[1])]
    else:
        report["berge"] = None
    cliques = maximal_cliques(g)
    report["omega"] = max((len(c) for c in cliques), default=0)
    report["maximal_cliques"] = len(cliques)
    report["triads"] = len(find_triads(g))
    if report["square_free"]:
        report["good_partition"] = find_good_partition(g) is not None
    else:
        report["good_partition"] = None  # search needs a square-free graph
    out = json.dumps(report, indent=2, sort_keys=True)
    print(out)
    if args.report:
        _atomic_write(args.report, out + "\n")
    return EXIT_OK


def _int_at_least(lo: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its error message
    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bergecolor",
        description="Exact coloring of square-free Berge graphs.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("color", help="color a graph with omega colors")
    c.add_argument("graph", help="DIMACS .col file")
    c.add_argument("-o", "--output", help="coloring file (default: stdout)")
    c.add_argument("--report", help="write a JSON run report here")
    c.add_argument("--trace", help="write decomposition/swap events as JSON lines")
    c.add_argument("--tree", help="write the decomposition tree (.dot or .json)")
    c.add_argument(
        "--jobs",
        type=_int_at_least(1),
        default=1,
        help="accepted for compatibility and ignored: the solver runs sequentially",
    )
    c.add_argument(
        "--berge-cap",
        type=_int_at_least(0),
        default=64,
        metavar="N",
        help="verify Berge-ness only up to this many vertices (default 64)",
    )
    c.add_argument(
        "--trust-berge",
        action="store_true",
        help="skip the Berge check entirely",
    )
    c.set_defaults(func=cmd_color)

    v = sub.add_parser("verify", help="check a coloring or partition file")
    v.add_argument("graph", help="DIMACS .col file")
    grp = v.add_mutually_exclusive_group(required=True)
    grp.add_argument("--coloring", help="coloring file ('v i c' lines or JSON)")
    grp.add_argument("--partition", help="partition JSON file")
    v.set_defaults(func=cmd_verify)

    gn = sub.add_parser("gen", help="generate a test instance")
    gn.add_argument(
        "construction", choices=["prism", "hyperprism", "lk4", "random"]
    )
    gn.add_argument(
        "params",
        nargs="*",
        help="prism/lk4: rung lengths; hyperprism: comma lists per strip; "
        "random: vertex count",
    )
    gn.add_argument("-o", "--output", required=True, help="DIMACS output path")
    gn.add_argument("--seed", type=int, default=0, help="seed for random")
    gn.set_defaults(func=cmd_gen)

    an = sub.add_parser("analyze", help="report structure of a graph")
    an.add_argument("graph", help="DIMACS .col file")
    an.add_argument("--report", help="also write the JSON report here")
    an.add_argument("--berge-cap", type=_int_at_least(0), default=64, metavar="N")
    an.set_defaults(func=cmd_analyze)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DimacsError as e:
        return _fail(str(e), EXIT_PARSE)
    except NotSquareFree as e:
        return _fail(str(e), EXIT_NOT_SQUARE_FREE)
    except NotBerge as e:
        return _fail(str(e), EXIT_NOT_BERGE)
    except (InternalViolation, BergeViolation) as e:
        return _fail(f"internal violation: {e}", EXIT_INTERNAL)
    except BergeColorError as e:
        return _fail(str(e), EXIT_INVALID)
    except OSError as e:
        return _fail(str(e), EXIT_INVALID)


if __name__ == "__main__":
    sys.exit(main())
