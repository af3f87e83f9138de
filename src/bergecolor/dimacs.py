"""DIMACS .col graph files: `p edge <n> <m>` header, `e <u> <v>` edges, 1-based.
Also the atomic file write that every output of the package goes through."""

from __future__ import annotations

import os
import secrets
from typing import Iterable

from .errors import DimacsError
from .graphs import Graph

# The largest vertex count a problem line may declare.  The graph is
# allocated from the declared count before any edge is read, so without a
# bound an 18-byte header could claim hundreds of megabytes.
MAX_VERTICES = 1_000_000


def parse_col(text: str) -> Graph:
    lines = text.splitlines()
    n = None
    declared_m = 0
    # Well-formed edge lines, `e <u> <v>` after the problem line, are kept
    # as their line numbers and endpoint fields and converted and checked in
    # bulk by _edges.  Before any other error is raised, the edge lines
    # above it are checked, so the first bad line is the one reported.
    edge_lines: list[int] = []
    tails: list[str] = []
    heads: list[str] = []

    def fail(line_no: int, msg: str) -> DimacsError:
        _edges(lines, edge_lines, tails, heads, n)
        return DimacsError(line_no, msg)

    for line_no, raw in enumerate(lines, start=1):
        fields = raw.split()
        if not fields or fields[0].startswith("c"):
            continue
        if fields[0] == "e" and len(fields) == 3 and n is not None:
            edge_lines.append(line_no)
            tails.append(fields[1])
            heads.append(fields[2])
            continue
        line = raw.strip()
        if fields[0] == "p":
            if n is not None:
                raise fail(line_no, "duplicate problem line")
            if len(fields) != 4 or fields[1] != "edge":
                raise fail(line_no, f"malformed problem line: {line!r}")
            try:
                n, declared_m = int(fields[2]), int(fields[3])
            except ValueError:
                raise fail(line_no, f"non-integer sizes: {line!r}")
            if n < 0 or declared_m < 0:
                raise fail(line_no, "negative size")
            if n > MAX_VERTICES:
                raise fail(
                    line_no, f"{n} vertices is over the limit of {MAX_VERTICES}"
                )
        elif fields[0] == "e":
            if n is None:
                raise fail(line_no, "edge before problem line")
            raise fail(line_no, f"malformed edge line: {line!r}")
        else:
            raise fail(line_no, f"unknown line type {fields[0]!r}")
    if n is None:
        raise DimacsError(1, "missing problem line")
    return Graph(n, _edges(lines, edge_lines, tails, heads, n))


def _edges(
    lines: list[str],
    edge_lines: list[int],
    tails: list[str],
    heads: list[str],
    n: int | None,
) -> Iterable[tuple[int, int]]:
    """The 0-based endpoint pairs of the given edge lines, all converted and
    range-checked at once.  Only when that fails are the lines checked one
    by one, to raise the error of the first bad line."""
    try:
        us, vs = list(map(int, tails)), list(map(int, heads))
        ok = not us or (
            1 <= min(us) and max(us) <= n and 1 <= min(vs) and max(vs) <= n
            and not any(map(int.__eq__, us, vs))
        )
    except ValueError:
        ok = False
    if ok:
        return zip([u - 1 for u in us], [v - 1 for v in vs])
    for line_no, u, v in zip(edge_lines, tails, heads):
        line = lines[line_no - 1].strip()
        try:
            u, v = int(u), int(v)
        except ValueError:
            raise DimacsError(line_no, f"non-integer endpoint: {line!r}")
        if not (1 <= u <= n and 1 <= v <= n):
            raise DimacsError(line_no, f"endpoint out of range 1..{n}: {line!r}")
        if u == v:
            raise DimacsError(line_no, f"self-loop at {u}")
    raise AssertionError("a bulk check failed but no line is bad")


def read_col(path: str) -> Graph:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise DimacsError(line_no, f"non-ASCII byte {data[exc.start]:#04x}") from None
    return parse_col(text)


def format_col(g: Graph, comment: str | None = None) -> str:
    lines = []
    if comment:
        for piece in comment.splitlines():
            lines.append(f"c {piece}")
    lines.append(f"p edge {g.n} {g.m}")
    for u, v in g.edges():
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def write_col(g: Graph, path: str, comment: str | None = None) -> None:
    atomic_write(path, format_col(g, comment), encoding="ascii")


def atomic_write(path: str, text: str, encoding: str = "utf-8") -> None:
    """Write `text` to `path` so that readers never see a partial file: into
    a temp file with a unique name in the same directory, then renamed into
    place.  The temp file is created with mode 0o666, so the umask sets the
    file's mode as it would for `open(path, "w")`; on any failure it is
    removed."""
    data = text.encode(encoding)
    d = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(d, f".tmp-{secrets.token_hex(8)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
