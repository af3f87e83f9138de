"""Command-line front end.

Subcommands: color, verify, gen, analyze.  Exit codes are stable:

    0  success / artifact valid
    1  invalid artifact or other tool error
    2  input could not be parsed
    3  input graph contains an induced square
    4  input graph is not Berge (when the Berge check was skipped, a failed
       merge or a leaf left unpeeled shows it, and no hole is named)
    5  internal invariant violation (always a bug, never user error)

All file output is written atomically (temp file + rename), with the mode
the umask gives a new file, as `open(path, "w")` would.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import asdict

from . import __version__
from .dimacs import atomic_write, read_col, write_col
from .errors import (
    BergeColorError,
    BergeViolation,
    DimacsError,
    InternalViolation,
    NotBerge,
    NotSquareFree,
    PartitionParseError,
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
from .graphs import (
    _count_triads,
    contains_square,
    is_berge,
    maximal_cliques_in,
)
from .partition import GoodPartition, find_good_partition, verify_good_partition
from .recolor import coloring_from_json, coloring_to_lines, parse_coloring_lines
from .solver import color, tree_to_dot, tree_to_json, verify_coloring

REPORT_SCHEMA = "bergecolor-report/1"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_NOT_SQUARE_FREE = 3
EXIT_NOT_BERGE = 4
EXIT_INTERNAL = 5


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _load_coloring(path: str) -> dict[int, int]:
    """The file's coloring as an untrusted `{vertex: color}` dict, for
    `verify_coloring` to check."""
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
    except BergeColorError as e:
        # color() checks for squares first, so every other error comes later
        report["checks"]["square_free"] = True
        report["error"] = str(e)
        skipped = args.trust_berge or g.n > args.berge_cap
        # a square-free Berge input always has a reducing swap, and each of
        # its leaves is emptied by the peel or bipartite once true twins are
        # merged (see leaf_color), so with the Berge check skipped this
        # error blames the input, not the program
        if isinstance(e, BergeViolation) and skipped:
            report["checks"]["berge"] = False
            report["status"] = "not-berge"
            report["witness"] = None
            _finish_report(args, report, t0)
            return _fail(
                f"input is not Berge ({e}); the Berge check was skipped, "
                "so no odd hole or antihole was named",
                EXIT_NOT_BERGE,
            )
        # the Berge check, when it runs, comes before the solve
        report["checks"]["berge"] = None if skipped else True
        _finish_report(args, report, t0)
        raise e from None  # main maps it to its exit code

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
        atomic_write(args.output, lines)
    else:
        sys.stdout.write(lines)
    if args.trace:
        atomic_write(
            args.trace, "".join(json.dumps(ev, sort_keys=True) + "\n" for ev in trace)
        )
    if args.tree:
        if args.tree.endswith(".dot"):
            atomic_write(args.tree, tree_to_dot(result.tree))
        else:
            # one compact node per line: json's C encoder runs only without
            # indent, and the file stays diffable node by node
            doc = tree_to_json(result.tree)
            nodes = ",\n".join(json.dumps(node, sort_keys=True) for node in doc["nodes"])
            atomic_write(
                args.tree,
                f'{{"nodes": [\n{nodes}\n], "schema": {json.dumps(doc["schema"])}}}\n',
            )
    print(
        f"colored {g.n} vertices with {result.colors_used} colors",
        file=sys.stderr,
    )
    return EXIT_OK


def _finish_report(args, report: dict, t0: float) -> None:
    report["wall_time_s"] = round(time.perf_counter() - t0, 6)
    if args.report:
        atomic_write(args.report, _json_text(report))


def cmd_verify(args) -> int:
    g = read_col(args.graph)
    if args.coloring:
        try:
            colors = _load_coloring(args.coloring)
        # json raises RecursionError on arrays nested too deep
        except (ValueError, RecursionError) as e:
            return _fail(f"bad coloring file: {e}", EXIT_PARSE)
        verdict = verify_coloring(g, colors)
        if verdict.ok:
            print(f"coloring valid: {len(set(colors.values()))} colors")
            return EXIT_OK
        print(f"coloring invalid: {verdict.reason} {verdict.witness}")
        return EXIT_INVALID
    with open(args.partition) as fh:
        try:
            part = GoodPartition.from_json(json.load(fh), g.n)
        # malformed JSON, undecodable bytes, arrays nested too deep, or
        # anything but lists of integers under the five keys
        except (ValueError, RecursionError, PartitionParseError) as e:
            return _fail(f"bad partition file: {e}", EXIT_PARSE)
    verdict = verify_good_partition(g, part)
    if verdict.ok:
        print("partition valid")
        return EXIT_OK
    print(f"partition invalid: condition {verdict.condition}, {verdict.witness}")
    return EXIT_INVALID


def _int_params(texts) -> tuple[int, ...]:
    """Generator parameters as integers; any other text is a SpecError."""
    out = []
    for text in texts:
        try:
            out.append(int(text))
        except ValueError:
            raise SpecError(f"parameter {text!r} is not an integer") from None
    return tuple(out)


def cmd_gen(args) -> int:
    params = args.params
    if args.construction == "prism":
        lengths = _int_params(params)
        spec = PrismSpec(lengths)  # validates arity, parity and size
        g = gen_prism(spec)
        meta = sidecar_metadata("prism", {"lengths": list(lengths)}, g)
    elif args.construction == "hyperprism":
        if len(params) != 3:
            raise SpecError("hyperprism takes three strips, e.g. '2,2 2 2'")
        strips = tuple(_int_params(p.split(",")) for p in params)
        spec = HyperprismSpec(strips)
        g = gen_hyperprism(spec)
        meta = sidecar_metadata(
            "hyperprism", {"strips": [list(s) for s in strips]}, g
        )
    elif args.construction == "lk4":
        lengths = _int_params(params)
        g = gen_lk4_subdivision(lengths)
        meta = sidecar_metadata("lk4", {"lengths": list(lengths)}, g)
    elif args.construction == "random":
        if len(params) != 1:
            raise SpecError("random takes one parameter: the vertex count")
        (n,) = _int_params(params)
        g = gen_square_free_berge(n, args.seed)
        meta = sidecar_metadata("random", {"n": n, "seed": args.seed}, g)
    else:
        raise SpecError(f"unknown construction {args.construction!r}")
    write_col(g, args.output, comment=f"bergecolor gen {args.construction}")
    atomic_write(args.output + ".json", _json_text(meta))
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
        verdict = is_berge(g, cap=args.berge_cap, square_free=sq is None)
        report["berge"] = verdict.ok
        if not verdict.ok:
            report["berge_witness"] = [verdict.witness[0], list(verdict.witness[1])]
    else:
        report["berge"] = None
    cliques = maximal_cliques_in(g, g.full_mask)
    report["omega"] = max((q.bit_count() for q in cliques), default=0)
    report["maximal_cliques"] = len(cliques)
    report["triads"] = _count_triads(g)
    if report["square_free"]:
        report["good_partition"] = find_good_partition(g) is not None
    else:
        report["good_partition"] = None  # search needs a square-free graph
    out = _json_text(report)
    sys.stdout.write(out)
    if args.report:
        atomic_write(args.report, out)
    return EXIT_OK


def _int_at_least(lo: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its error message
    return parse


@functools.cache  # built once per process; parse_args leaves it unchanged
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
    c.add_argument("--trace", help="write one JSON object per merge swap, one per line")
    c.add_argument("--tree", help="write the decomposition tree (.dot or .json)")
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
    grp.add_argument(
        "--partition",
        help="partition JSON file; K1, K2, K3, L and R must cover every vertex, "
        "so a --tree node's partition, which covers only that node's core, "
        "verifies only at a root that peeled nothing",
    )
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
