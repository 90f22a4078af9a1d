"""Plain-text mixed graph files.

Format::

    # comment
    mixedgraph 4
    0 -- 1
    1 -> 2
    3 -> 2

The header names the vertex count; vertices are 0-based, and numbers are
written in ASCII decimal digits.  ``u -- v`` is an undirected edge,
``u -> v`` an arc from u to v.  Comments start with ``#`` (whole line or
trailing) and blank lines are ignored.  Serialization is
canonical: one line per edge, sorted by vertex pair, arcs written from
their tail.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import EdgeKind, MixedGraph

__all__ = ["MgParseError", "parse_mgfile", "serialize_mgfile"]


class MgParseError(ValueError):
    """Parse failure with a 1-based line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


def _strip(raw: str) -> str:
    return raw.split("#", 1)[0].strip()


def _number(token: str) -> int | None:
    """``token`` as an int, or None unless it is written as the format says.

    That is ASCII decimal digits after an optional minus sign, so that a
    negative number reaches the range checks; ``int`` alone also reads
    "+3", "1_2" and non-ASCII digits.
    """
    if not (token.isascii() and token.removeprefix("-").isdecimal()):
        return None
    try:
        return int(token)
    except ValueError:  # more digits than int converts
        return None


#: The kinds of (u, v) and (v, u) written by each edge operator.
_PAIR_KINDS = {
    "--": (int(EdgeKind.UNDIRECTED), int(EdgeKind.UNDIRECTED)),
    "->": (int(EdgeKind.ARC_OUT), int(EdgeKind.ARC_IN)),
}


#: Files written by ``serialize_mgfile`` with n <= 12 hold at most 198
#: distinct edge lines (66 undirected, 132 arcs), so a stream of them hits
#: this memo on nearly every line.  An entry of a short line takes about
#: 0.1 kB, so about 0.1 MB for 1024 of them.
@lru_cache(maxsize=1024)
def _edge_line(raw: str) -> tuple[int, int, int, int] | None:
    """What a line after the header says, whatever the file's vertex count.

    None for a blank or comment line, (u, v, kind of (u, v), kind of (v, u))
    for an edge; a line not written as either raises ValueError with the
    message, which the memo does not keep.  Nothing here depends on the
    file, so the range, self-loop and duplicate checks stay in
    ``parse_mgfile``.
    """
    parts = raw.split("#", 1)[0].split()
    if not parts:
        return None
    if len(parts) != 3 or parts[1] not in _PAIR_KINDS:
        raise ValueError(f"expected 'u -- v' or 'u -> v', got {_strip(raw)!r}")
    u, v = _number(parts[0]), _number(parts[2])
    if u is None or v is None:
        raise ValueError(f"bad vertex in {_strip(raw)!r}")
    return (u, v, *_PAIR_KINDS[parts[1]])


def parse_mgfile(text: str) -> MixedGraph:
    lines = text.splitlines()
    n: int | None = None
    header = 0  # the line of the header, once read
    table: list[list[int]] = []
    for i, raw in enumerate(lines, start=1):
        if n is None:
            parts = raw.split("#", 1)[0].split()
            if not parts:
                continue
            if len(parts) != 2 or parts[0] != "mixedgraph":
                raise MgParseError(i, "expected header 'mixedgraph <n>'")
            n = _number(parts[1])
            if n is None:
                raise MgParseError(i, f"bad vertex count {parts[1]!r}")
            if n < 0:
                raise MgParseError(i, "vertex count must be nonnegative")
            table = [[0] * n for _ in range(n)]
            header = i
            continue
        try:
            edge = _edge_line(raw)
        except ValueError as exc:
            raise MgParseError(i, str(exc)) from None
        if edge is None:
            continue
        u, v, kind, back = edge
        if not (0 <= u < n and 0 <= v < n):
            raise MgParseError(
                i, f"vertex out of range 0..{n - 1} in {_strip(raw)!r}"
            )
        if u == v:
            raise MgParseError(i, f"self-loop at vertex {u}")
        if table[u][v]:
            raise _duplicate(lines, header, i, u, v)
        table[u][v], table[v][u] = kind, back
    if n is None:
        raise MgParseError(max(len(lines), 1), "missing 'mixedgraph <n>' header")
    return MixedGraph._trusted(n, tuple(map(tuple, table)))


def _duplicate(lines: list[str], header: int, i: int, u: int, v: int) -> MgParseError:
    """The error for line i, which repeats the pair {u, v} of an earlier
    line; every line between the header and line i is blank or a valid edge."""
    first = next(
        j for j, raw in enumerate(lines[header:i - 1], start=header + 1)
        if (edge := _edge_line(raw)) and {edge[0], edge[1]} == {u, v}
    )
    return MgParseError(
        i, f"duplicate edge {min(u, v)},{max(u, v)} (first on line {first})"
    )


def serialize_mgfile(m: MixedGraph) -> str:
    lines = [f"mixedgraph {m.n}"]
    for u, v, kind in m.edges():  # arcs come tail first, as ARC_OUT
        lines.append(f"{u} -- {v}" if kind == EdgeKind.UNDIRECTED else f"{u} -> {v}")
    return "\n".join(lines) + "\n"
