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


def parse_mgfile(text: str) -> MixedGraph:
    lines = text.splitlines()
    n: int | None = None
    table: list[list[int]] = []
    seen: dict[tuple[int, int], int] = {}
    for i, raw in enumerate(lines, start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if n is None:
            if len(parts) != 2 or parts[0] != "mixedgraph":
                raise MgParseError(i, "expected header 'mixedgraph <n>'")
            n = _number(parts[1])
            if n is None:
                raise MgParseError(i, f"bad vertex count {parts[1]!r}")
            if n < 0:
                raise MgParseError(i, "vertex count must be nonnegative")
            table = [[0] * n for _ in range(n)]
            continue
        if len(parts) != 3 or parts[1] not in _PAIR_KINDS:
            raise MgParseError(
                i, f"expected 'u -- v' or 'u -> v', got {_strip(raw)!r}"
            )
        u, v = _number(parts[0]), _number(parts[2])
        if u is None or v is None:
            raise MgParseError(i, f"bad vertex in {_strip(raw)!r}")
        if not (0 <= u < n and 0 <= v < n):
            raise MgParseError(
                i, f"vertex out of range 0..{n - 1} in {_strip(raw)!r}"
            )
        if u == v:
            raise MgParseError(i, f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise MgParseError(
                i, f"duplicate edge {key[0]},{key[1]} (first on line {seen[key]})"
            )
        seen[key] = i
        table[u][v], table[v][u] = _PAIR_KINDS[parts[1]]
    if n is None:
        raise MgParseError(max(len(lines), 1), "missing 'mixedgraph <n>' header")
    return MixedGraph._trusted(n, tuple(map(tuple, table)))


def serialize_mgfile(m: MixedGraph) -> str:
    lines = [f"mixedgraph {m.n}"]
    for u, v, kind in m.edges():  # arcs come tail first, as ARC_OUT
        lines.append(f"{u} -- {v}" if kind == EdgeKind.UNDIRECTED else f"{u} -> {v}")
    return "\n".join(lines) + "\n"
