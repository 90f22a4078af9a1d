"""Mixed graphs and their Hermitian adjacency matrices.

A mixed graph has undirected edges and arcs (directed edges) on the same
vertex set, with at most one connection per vertex pair and no loops.  Its
Hermitian adjacency matrix H has

    h[u][v] = 1    if u and v are joined by an undirected edge,
    h[u][v] = i    if there is an arc u -> v,
    h[u][v] = -i   if there is an arc v -> u,
    h[u][v] = 0    otherwise,

so H is Hermitian and every eigenvalue is real.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import cache, cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "EdgeKind",
    "MixedGraph",
    "build",
    "converse",
    "decode",
    "hermitian_matrix",
    "underlying_graph",
    "induced",
    "coalescence",
    "make_knst",
    "is_connected",
    "connected_components",
    "join",
    "disjoint_union",
    "complete_graph",
    "path_graph",
    "cycle_graph",
    "star_graph",
]


class EdgeKind(IntEnum):
    """Connection kind between an ordered vertex pair (u, v)."""

    NONE = 0
    UNDIRECTED = 1
    ARC_OUT = 2  # arc u -> v, Hermitian entry i
    ARC_IN = 3   # arc v -> u, Hermitian entry -i

    def flipped(self) -> "EdgeKind":
        """The same connection seen from the other endpoint."""
        return EdgeKind(_FLIP[self])


# i-exponent of each nonzero entry (1 = i^0, i = i^1, -i = i^3), indexed by
# kind, and its inverse indexed by exponent; -1 = i^2 is not an entry.
_EXP_FROM_KIND = (None, 0, 1, 3)
_KIND_FROM_EXP = (int(EdgeKind.UNDIRECTED), int(EdgeKind.ARC_OUT), None, int(EdgeKind.ARC_IN))
# The unit i^e, indexed by e.
_UNIT_FROM_EXP = (1 + 0j, 1j, -1 + 0j, -1j)
# Hermitian entry for each EdgeKind value, indexed by kind.
_ENTRY = (0j, *(_UNIT_FROM_EXP[e] for e in _EXP_FROM_KIND[1:]))
# EdgeKind.flipped() as a table indexed by kind, for hot loops.
_FLIP = (0, 1, 3, 2)
# The kind of the same pair in the underlying graph, indexed by kind.
_UNDIRECTED_FROM_KIND = (0, 1, 1, 1)
# Kind byte -> "0" or "1" for "connected", to read a kind row as a binary numeral.
_CONNECTED_DIGIT = bytes.maketrans(b"\0\1\2\3", b"0111")
# Kind byte -> "1" for an arc u -> v, else "0", to read out-arcs the same way.
_OUT_DIGIT = bytes.maketrans(b"\0\1\2\3", b"0010")


def _not_kind(k: object) -> bool:
    """Whether ``k`` cannot stand in a kind table: not an int, or a bool."""
    return isinstance(k, bool) or not isinstance(k, int)


@dataclass(frozen=True)
class MixedGraph:
    """Immutable mixed graph on vertices 0..n-1.

    ``kinds[u][v]`` holds the EdgeKind value of the ordered pair (u, v).
    The table is consistent (``kinds[v][u]`` is the flipped kind) and has a
    zero diagonal.
    """

    n: int
    kinds: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(self.kinds) != self.n or any(len(row) != self.n for row in self.kinds):
            raise ValueError("kinds table must be n x n")
        n, kinds = self.n, self.kinds
        for u, row in enumerate(kinds):
            if _not_kind(row[u]):
                raise ValueError(f"bad kind {row[u]!r} at pair ({u}, {u})")
            if row[u] != EdgeKind.NONE:
                raise ValueError(f"self-loop at vertex {u}")
            for v in range(u + 1, n):
                k, back = row[v], kinds[v][u]
                if _not_kind(k) or not 0 <= k <= 3:
                    raise ValueError(f"bad kind {k!r} at pair ({u}, {v})")
                if back != _FLIP[k]:
                    raise ValueError(f"inconsistent kinds at pair ({u}, {v})")
                if _not_kind(back):  # equal to an int, such as 1.0 or True
                    raise ValueError(f"bad kind {back!r} at pair ({v}, {u})")

    @classmethod
    def _trusted(cls, n: int, kinds: tuple[tuple[int, ...], ...]) -> "MixedGraph":
        """A graph on a table that is valid by construction, built without
        ``__post_init__``.

        Only for tables taken from validated graphs by an operation that
        keeps them valid (restriction, relabeling, forgetting orientation,
        switching in ``apply_switch``), built symmetric from the kind
        alphabet (the census's orientation rows, which its tally builds
        into a graph only past the classifier's triangle stage), or filled
        pair by pair by ``parse_mgfile`` after it checks each edge; every
        other table goes through the public constructor.
        """
        g = object.__new__(cls)
        attrs = g.__dict__
        attrs["n"], attrs["kinds"] = n, kinds
        return g

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """Neighbour bitmask of each vertex: bit v of entry u is set when u
        and v are connected, whatever the kind.

        Built on first use and kept on the instance; it is not a field, so
        comparisons, hashing and the repr ignore it.
        """
        return tuple([int(bytes(row).translate(_CONNECTED_DIGIT)[::-1], 2) for row in self.kinds])

    @cached_property
    def out_arcs(self) -> tuple[int, ...]:
        """Out-arc bitmask of each vertex: bit v of entry u is set when there
        is an arc u -> v.  Built on first use and kept like ``adjacency``."""
        return tuple([int(bytes(row).translate(_OUT_DIGIT)[::-1], 2) for row in self.kinds])

    # -- basic queries ----------------------------------------------------

    def kind(self, u: int, v: int) -> EdgeKind:
        return EdgeKind(self.kinds[u][v])

    def edges(self) -> list[tuple[int, int, EdgeKind]]:
        """All connections as (u, v, kind) with u < v; arcs keep their tail first."""
        out = []
        for u in range(self.n):
            for v in range(u + 1, self.n):
                k = self.kinds[u][v]
                if k == EdgeKind.NONE:
                    continue
                if k == EdgeKind.ARC_IN:
                    out.append((v, u, EdgeKind.ARC_OUT))
                else:
                    out.append((u, v, EdgeKind(k)))
        return out

    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.adjacency)) // 2

    def neighbors(self, u: int) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if self.adjacency[u] >> v & 1)

    def is_undirected(self) -> bool:
        return all(k in (EdgeKind.NONE, EdgeKind.UNDIRECTED) for row in self.kinds for k in row)

    def relabel(self, perm: Sequence[int]) -> "MixedGraph":
        """Relabel via ``perm``: old vertex u becomes perm[u]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm must be a permutation of range(n)")
        table = [[0] * self.n for _ in range(self.n)]
        for u in range(self.n):
            pu = perm[u]
            row = self.kinds[u]
            for v in range(self.n):
                table[pu][perm[v]] = row[v]
        return MixedGraph._trusted(self.n, tuple(tuple(r) for r in table))

    def encode(self) -> str:
        """Row-major kind digits; a total order key for canonical choices."""
        return "".join(str(k) for row in self.kinds for k in row)


def build(n: int, edges: Iterable[tuple[int, int, str | EdgeKind]]) -> MixedGraph:
    """Build a mixed graph from an edge list.

    Parameters
    ----------
    n:
        Number of vertices (labeled 0..n-1).
    edges:
        Triples ``(u, v, kind)`` where kind is ``"undirected"`` or ``"arc"``
        (arc oriented u -> v), or an EdgeKind other than NONE.

    Raises
    ------
    ValueError
        On loops, out-of-range endpoints, an unknown kind or EdgeKind.NONE,
        or a vertex pair listed twice in either order (double arcs and
        parallel edges are rejected).
    """
    table = [[0] * n for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    for u, v, kind in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge endpoint out of range: ({u}, {v})")
        if u == v:
            raise ValueError(f"self-loop rejected: ({u}, {v})")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"pair listed twice: ({u}, {v})")
        seen.add(key)
        if isinstance(kind, EdgeKind) and kind != EdgeKind.NONE:
            k = kind
        elif kind == "undirected":
            k = EdgeKind.UNDIRECTED
        elif kind == "arc":
            k = EdgeKind.ARC_OUT
        else:
            raise ValueError(f"unknown edge kind {kind!r} for pair ({u}, {v})")
        table[u][v], table[v][u] = int(k), _FLIP[k]
    return MixedGraph(n, tuple(tuple(r) for r in table))


def decode(n: int, digits: str) -> MixedGraph:
    """Rebuild a mixed graph from its row-major kind digits (see ``encode``).

    Only ASCII 0-3 are kind digits: ``int`` also reads other Unicode digits.
    """
    if len(digits) != n * n:
        raise ValueError(f"expected {n * n} digits, got {len(digits)}")
    if not set(digits) <= set("0123"):
        raise ValueError(f"kind digits must be ASCII 0-3, got {digits!r}")
    kinds = tuple(
        tuple(int(digits[u * n + v]) for v in range(n)) for u in range(n)
    )
    return MixedGraph(n, kinds)


def converse(m: MixedGraph) -> MixedGraph:
    """Reverse every arc.  The Hermitian matrix conjugates entrywise, so the
    spectrum is preserved; converse pairs need not be switching equivalent."""
    return MixedGraph(m.n, tuple(tuple(_FLIP[k] for k in row) for row in m.kinds))


@cache
def _entry_array() -> np.ndarray:
    """``_ENTRY`` as a complex128 array, for fancy indexing by kind tables.

    Built on first use: numpy is imported only by the functions that build
    an array, so importing the package, classifying and checking
    equivalence never load it.
    """
    import numpy as np

    return np.array(_ENTRY, dtype=np.complex128)


def hermitian_matrix(m: MixedGraph) -> np.ndarray:
    """Hermitian adjacency matrix of ``m``: an (n, n) complex128 array read
    from ``kinds`` through the entry table."""
    import numpy as np

    return _entry_array()[np.array(m.kinds, dtype=np.intp).reshape(m.n, m.n)]


def underlying_graph(m: MixedGraph) -> MixedGraph:
    """Forget orientation: every connection becomes undirected."""
    table = tuple(tuple(map(_UNDIRECTED_FROM_KIND.__getitem__, row)) for row in m.kinds)
    return MixedGraph._trusted(m.n, table)


def induced(m: MixedGraph, vertices: Sequence[int] | Iterable[int]) -> MixedGraph:
    """Induced mixed subgraph, vertices relabeled 0.. in the given order.

    Sets are accepted and iterated in sorted order; duplicates are rejected.
    """
    vs = list(vertices)
    if isinstance(vertices, (set, frozenset)):
        vs = sorted(vs)
    if len(set(vs)) != len(vs):
        raise ValueError("duplicate vertices in selection")
    for v in vs:
        if not 0 <= v < m.n:
            raise ValueError(f"vertex {v} out of range")
    table = tuple([tuple([m.kinds[u][v] for v in vs]) for u in vs])
    return MixedGraph._trusted(len(vs), table)


def coalescence(m1: MixedGraph, u: int, m2: MixedGraph, v: int) -> MixedGraph:
    """Glue ``m1`` and ``m2`` by identifying vertex ``u`` of m1 with ``v`` of m2.

    The result keeps m1's labels 0..n1-1; m2's remaining vertices follow in
    order.  The identified vertex is a cut vertex whenever both parts have
    edges.  Vertex counts satisfy n = n1 + n2 - 1.
    """
    if not 0 <= u < m1.n:
        raise ValueError(f"vertex {u} out of range in first graph")
    if not 0 <= v < m2.n:
        raise ValueError(f"vertex {v} out of range in second graph")
    # m2's vertex v becomes u; the others follow m1's, in order.
    at = [u if w == v else m1.n + w - (w > v) for w in range(m2.n)]
    glued = [(at[a], at[b], kind) for a, b, kind in m2.edges()]
    return build(m1.n + m2.n - 1, m1.edges() + glued)


def make_knst(s: int, t: int) -> MixedGraph:
    """Oriented complete graph on s + t vertices.

    Vertices 0..s-1 and s..s+t-1 each induce an undirected clique; every pair
    across goes as an arc from the first block to the second.  Switching
    equivalent to the undirected complete graph, so the spectrum is
    {n-1, -1 (n-1 times)}.
    """
    if s < 0 or t < 0 or s + t == 0:
        raise ValueError("block sizes must be nonnegative and not both zero")
    n = s + t
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return build(n, [(a, b, "arc" if a < s <= b else "undirected") for a, b in pairs])


def _flood(adj: tuple[int, ...], comp: int) -> int:
    """Mask of the vertices joined to the vertex set ``comp`` by a path,
    flooded one frontier vertex at a time."""
    frontier = comp
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = adj[low.bit_length() - 1] & ~comp
        comp |= new
        frontier |= new
    return comp


def connected_components(m: MixedGraph) -> list[list[int]]:
    """Components of the underlying graph, each sorted, ordered by minimum vertex."""
    comps = []
    left = (1 << m.n) - 1
    while left:
        comp = _flood(m.adjacency, left & -left)  # from the smallest vertex left
        left ^= comp
        comps.append([v for v in range(m.n) if comp >> v & 1])
    return comps


def is_connected(m: MixedGraph) -> bool:
    """Whether the flood from vertex 0 reaches every vertex (true for n = 0)."""
    full = (1 << m.n) - 1
    return _flood(m.adjacency, full & 1) == full


def disjoint_union(g: MixedGraph, h: MixedGraph) -> MixedGraph:
    """Disjoint union; h's vertices are shifted by g.n."""
    return build(g.n + h.n, g.edges() + [(g.n + a, g.n + b, kind) for a, b, kind in h.edges()])


def join(g: MixedGraph, h: MixedGraph) -> MixedGraph:
    """Join of two undirected graphs: disjoint union plus all edges across.

    Raises ValueError when either input has an arc (the join construction is
    only used on undirected graphs here).
    """
    if not g.is_undirected() or not h.is_undirected():
        raise ValueError("join requires fully undirected inputs")
    base = disjoint_union(g, h)
    across = [(a, b, "undirected") for a in range(g.n) for b in range(g.n, base.n)]
    return build(base.n, base.edges() + across)


def complete_graph(n: int) -> MixedGraph:
    return build(n, [(a, b, "undirected") for a in range(n) for b in range(a + 1, n)])


def path_graph(n: int) -> MixedGraph:
    return build(n, [(i, i + 1, "undirected") for i in range(n - 1)])


def cycle_graph(n: int) -> MixedGraph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    edges = [(i, (i + 1) % n, "undirected") for i in range(n)]
    return build(n, edges)


def star_graph(leaves: int) -> MixedGraph:
    """Star with center 0 and the given number of leaves."""
    return build(leaves + 1, [(0, i, "undirected") for i in range(1, leaves + 1)])
