"""Structural classification of mixed graphs against spectral thresholds.

The decision procedures here implement the structure theorems behind two
exact predicates on connected mixed graphs M:

* ``classify_sqrt2``: the smallest Hermitian eigenvalue exceeds -sqrt(2)
  exactly when M is an oriented complete graph K_n[s, t] (two undirected
  cliques with all arcs crossing one way); the non-strict variant adds the
  holonomy -1 orientations of the 4-cycle once n >= 4.
* ``classify_threshold``: the smallest eigenvalue exceeds -(1+sqrt5)/2
  exactly when M falls into one of four families: a pinned catalog of
  orientations of four small graphs (H1), a coalescence of two oriented
  cliques at a cut vertex (H2 with both parts of size >= 3, H4 when one
  part is a single edge), or an oriented complete graph (H3).

Every verdict is backed by a certificate: accepted graphs carry enough data
to rebuild them from the family constructors, rejected graphs carry an
induced subgraph whose exact eigenvalue comparison already fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Iterator, Sequence

from .catalog import load_builtin, sporadic_underlying
from .graphs import (
    _EXP_FROM_KIND as _KEXP,
    _FLIP,
    _UNIT_FROM_EXP,
    EdgeKind,
    MixedGraph,
    build,
    complete_graph,
    disjoint_union,
    induced,
    is_connected,
    join,
    path_graph,
    star_graph,
    underlying_graph,
)
from .polynomials import IntPolynomial, Trichotomy
from .quadratic import NEG_GOLDEN, NEG_SQRT2
from .spectra import compare_lambda_min, eigenvalues, f_cubic
from .switching import SwitchDiagonal, apply_switch, switching_equivalent

__all__ = [
    "TriangleType",
    "QuadTag",
    "QuadClass",
    "Family",
    "KnstMatch",
    "NotKnst",
    "RejectWitness",
    "Certificate",
    "Sqrt2Verdict",
    "triangle_type",
    "quad_class",
    "find_forbidden_triangle",
    "find_forbidden_quadrangle",
    "recognize_knst",
    "find_induced",
    "underlying_family",
    "FamilyMatch",
    "classify_threshold",
    "classify_sqrt2",
    "FORBIDDEN_SUBGRAPHS",
]


class TriangleType(Enum):
    """The seven mixed triangles, named by arc count and shape.

    Smallest eigenvalues: -1 for the three unit-holonomy shapes (K3, K3_22,
    K3_23), -2 for the holonomy -1 shape (K3_21), -sqrt(3) for the four
    imaginary-holonomy shapes.
    """

    K3 = "K3"        # all undirected
    K3_1 = "K3_1"    # one arc
    K3_21 = "K3_21"  # two arcs in series (holonomy -1)
    K3_22 = "K3_22"  # two arcs into a common head
    K3_23 = "K3_23"  # two arcs out of a common tail
    K3_31 = "K3_31"  # directed 3-cycle
    K3_32 = "K3_32"  # three arcs, not a directed cycle


#: Exact smallest eigenvalue descriptions per triangle type.
TRIANGLE_LAMBDA = {
    TriangleType.K3: -1.0,
    TriangleType.K3_1: -(3 ** 0.5),
    TriangleType.K3_21: -2.0,
    TriangleType.K3_22: -1.0,
    TriangleType.K3_23: -1.0,
    TriangleType.K3_31: -(3 ** 0.5),
    TriangleType.K3_32: -(3 ** 0.5),
}

#: Triangle shapes that keep the smallest eigenvalue at -1 (holonomy one).
SAFE_TRIANGLES = frozenset(
    {TriangleType.K3, TriangleType.K3_22, TriangleType.K3_23}
)


def _holonomy_exp(m: MixedGraph, *cycle: int) -> int:
    """i-exponent of the product of Hermitian entries around ``cycle``."""
    return sum(
        _KEXP[m.kinds[u][v]] for u, v in zip(cycle, cycle[1:] + cycle[:1])
    ) % 4


def triangle_type(t: MixedGraph) -> TriangleType:
    """Type of a 3-vertex mixed graph whose underlying graph is a triangle."""
    if t.n != 3 or t.edge_count() != 3:
        raise ValueError("input must be a mixed triangle")
    und = sum(
        1 for u in range(3) for v in range(u + 1, 3) if t.kinds[u][v] == EdgeKind.UNDIRECTED
    )
    if und == 3:
        return TriangleType.K3
    if und == 2:
        return TriangleType.K3_1
    if und == 1:
        hol = _holonomy_exp(t, 0, 1, 2)
        if hol == 2:
            return TriangleType.K3_21
        # Unit holonomy: locate the vertex off the undirected edge.
        for z in range(3):
            x, y = [v for v in range(3) if v != z]
            if t.kinds[x][y] == EdgeKind.UNDIRECTED:
                if t.kinds[x][z] == EdgeKind.ARC_OUT:
                    return TriangleType.K3_22  # x -> z and y -> z
                return TriangleType.K3_23      # z -> x and z -> y
        raise AssertionError("unreachable")
    # Three arcs: a directed cycle or not.
    outdeg = [sum(1 for v in range(3) if t.kinds[u][v] == EdgeKind.ARC_OUT) for u in range(3)]
    return TriangleType.K3_31 if max(outdeg) == 1 else TriangleType.K3_32


class QuadTag(Enum):
    """Orientation classes of a quadrangle (underlying 4-cycle) by holonomy.

    Holonomy -1 splits by shape into the three types whose smallest
    eigenvalue is -sqrt(2); no other holonomy -1 shape exists.  Holonomy +1
    puts the smallest eigenvalue at -2, imaginary holonomy at -sqrt(2+sqrt2).
    """

    C4_1 = "C4_1"            # two arcs on adjacent cycle edges, same sense
    C4_2 = "C4_2"            # two arcs on opposite cycle edges, same sense
    C4_3 = "C4_3"            # four arcs, exactly one against the others
    PLUS_ONE = "plus-one"    # holonomy +1
    IMAGINARY = "imaginary"  # holonomy +-i


QUAD_LAMBDA = {
    QuadTag.C4_1: -(2 ** 0.5),
    QuadTag.C4_2: -(2 ** 0.5),
    QuadTag.C4_3: -(2 ** 0.5),
    QuadTag.PLUS_ONE: -2.0,
    QuadTag.IMAGINARY: -((2 + 2 ** 0.5) ** 0.5),
}

#: Quadrangle classes with smallest eigenvalue -sqrt(2) (holonomy -1).
SAFE_QUADS = frozenset({QuadTag.C4_1, QuadTag.C4_2, QuadTag.C4_3})


@dataclass(frozen=True)
class QuadClass:
    tag: QuadTag
    holonomy: complex
    cycle: tuple[int, int, int, int]


def _cycle_order4(m: MixedGraph, vs: tuple[int, ...]) -> tuple[int, ...] | None:
    """Cyclic order of a 4-subset inducing a quadrangle, else None."""
    adj = m.adjacency
    mask = sum(1 << v for v in vs)
    if any((adj[v] & mask).bit_count() != 2 for v in vs):
        return None
    a = vs[0]
    b, d = (v for v in vs if adj[a] >> v & 1)
    c = next(v for v in vs if v != a and not adj[a] >> v & 1)
    return (a, b, c, d)


def quad_class(q: MixedGraph) -> QuadClass:
    """Classify a 4-vertex mixed graph whose underlying graph is a 4-cycle."""
    if q.n != 4:
        raise ValueError("input must have 4 vertices")
    cyc = _cycle_order4(q, (0, 1, 2, 3))
    if cyc is None:
        raise ValueError("underlying graph is not a quadrangle")
    a, b, c, d = cyc
    exp = _holonomy_exp(q, *cyc)
    hol = _UNIT_FROM_EXP[exp]
    if exp == 0:
        return QuadClass(QuadTag.PLUS_ONE, hol, cyc)
    if exp != 2:
        return QuadClass(QuadTag.IMAGINARY, hol, cyc)
    arcs = [
        (x, y) for x, y in ((a, b), (b, c), (c, d), (d, a))
        if q.kinds[x][y] != EdgeKind.UNDIRECTED
    ]
    if len(arcs) == 4:
        return QuadClass(QuadTag.C4_3, hol, cyc)
    if len(arcs) == 2:
        shared = set(arcs[0]) & set(arcs[1])
        tag = QuadTag.C4_1 if shared else QuadTag.C4_2
        return QuadClass(tag, hol, cyc)
    raise AssertionError("holonomy -1 quadrangle with an odd arc count")


#: ``_BAD_TRIANGLE[k_uv][k_vw][k_uw]`` is true when the pairs (u, v), (v, w)
#: and (u, w) of these kinds close a triangle whose holonomy is not one, and
#: false when one of them is not connected.
_BAD_TRIANGLE = tuple(
    tuple(
        tuple(
            bool(a and b and c and (_KEXP[a] + _KEXP[b] + _KEXP[_FLIP[c]]) % 4)
            for c in range(4)
        )
        for b in range(4)
    )
    for a in range(4)
)


@lru_cache(maxsize=64)
def _above(n: int) -> tuple[tuple[int, ...], ...]:
    """``tuple(range(u + 1, n))`` for each u < n: the triangle scan's loops."""
    return tuple(tuple(range(u + 1, n)) for u in range(n))


def find_forbidden_triangle(m: MixedGraph) -> tuple[int, int, int] | None:
    """First triangle whose holonomy is not one, scanning lexicographically."""
    return _bad_triangle(m.kinds)


def _bad_triangle(kinds: tuple[tuple[int, ...], ...]) -> tuple[int, int, int] | None:
    """``find_forbidden_triangle`` on a bare kind table.  It reads rows u and v
    only: most census orientations leave here, before any graph is built."""
    above = _above(len(kinds))
    for u, ku in enumerate(kinds):
        for v in above[u]:
            if ku[v]:
                bad, kv = _BAD_TRIANGLE[ku[v]], kinds[v]
                for w in above[v]:
                    if bad[kv[w]][ku[w]]:
                        return (u, v, w)
    return None


def find_forbidden_quadrangle(m: MixedGraph) -> tuple[int, int, int, int] | None:
    """First induced quadrangle whose holonomy is not -1.

    Returns the cycle (a, b, c, d), b < d, on the lexicographically smallest
    sorted vertex set that induces such a quadrangle, or None.  Quadrangles
    are listed from their diagonals: for a < c non-adjacent, every
    non-adjacent pair b < d of common neighbours above a closes the induced
    quadrangle a-b-c-d, whose smallest vertex is a.  The first a with a
    forbidden quadrangle therefore holds the smallest set.  Only the set
    bits of ``~adj[a] & above`` are tried as c, so a complete graph, or a
    vertex joined to all above it, costs one mask per a.
    """
    n, kinds = m.n, m.kinds
    adj = m.adjacency
    full = (1 << n) - 1
    for a in range(n):
        above = full & -1 << (a + 1)
        found = []
        far = ~adj[a] & above
        while far:
            low = far & -far
            far ^= low
            c = low.bit_length() - 1
            common = adj[a] & adj[c] & above
            if not common & (common - 1):  # fewer than two common neighbours
                continue
            ka, kc = kinds[a], kinds[c]
            mids = []
            while common:
                mids.append((common & -common).bit_length() - 1)
                common &= common - 1
            for i, b in enumerate(mids):
                abc = _KEXP[ka[b]] + _KEXP[kinds[b][c]]  # i-exponent along a-b-c
                for d in mids[i + 1:]:
                    if not adj[b] >> d & 1 and (abc + _KEXP[kc[d]] + _KEXP[kinds[d][a]]) % 4 != 2:
                        found.append((a, b, c, d))
        if found:
            return min(found, key=sorted)
    return None


@dataclass(frozen=True)
class KnstMatch:
    """M equals the oriented complete graph K_n[s, t] with these sides."""

    s: int
    t: int
    s_side: tuple[int, ...]
    t_side: tuple[int, ...]


@dataclass(frozen=True)
class NotKnst:
    reason: str  # "not-complete" or "forbidden-triangle"
    witness: tuple[int, ...] | None


def _knst_on(m: MixedGraph, block: Sequence[int]) -> KnstMatch | None:
    """``recognize_knst(induced(m, block))`` if that matches, else None, read
    off m's bitmasks; ``block`` lists distinct vertices and no subgraph is
    built.  With T the out-arcs inside the block of its first vertex that
    sends any, it matches when the block is complete, every vertex outside T
    sends exactly T and no vertex of T sends any.  Sides are block-local."""
    adj, out = m.adjacency, m.out_arcs
    mask, t_mask = sum([1 << v for v in block]), 0
    for v in block:
        if out[v] & mask:
            t_mask = out[v] & mask
            break
    s_side, t_side = [], []
    for i, v in enumerate(block):
        if adj[v] & mask != mask ^ 1 << v:
            return None
        if t_mask >> v & 1:
            if out[v] & mask:
                return None
            t_side.append(i)
        elif out[v] & mask == t_mask:
            s_side.append(i)
        else:
            return None
    return KnstMatch(len(s_side), len(t_side), tuple(s_side), tuple(t_side))


def recognize_knst(m: MixedGraph) -> KnstMatch | NotKnst:
    """Recognize an oriented complete graph constructively (``_knst_on``).

    A complete graph fails exactly when a triangle has holonomy other than
    one; only then are the first missing pair and the lexicographically
    first such triangle looked up, to name the witness.
    """
    n, k = m.n, m.kinds
    if (match := _knst_on(m, range(n))) is not None:
        return match
    for u in range(n):
        for v in range(u + 1, n):
            if not k[u][v]:
                return NotKnst("not-complete", (u, v))
    return NotKnst("forbidden-triangle", find_forbidden_triangle(m))


def _embeddings(
    adj: tuple[int, ...], pattern: MixedGraph
) -> Iterator[tuple[int, ...]]:
    """Every induced embedding of ``pattern``'s underlying graph in the graph
    g whose neighbour bitmasks are ``adj`` (``g.adjacency``).

    An embedding lists distinct g-vertices, one per pattern vertex, adjacent
    exactly where the pattern's are.  Pattern vertex 0, 1, ... is assigned in
    turn, trying g-vertices in ascending order, so embeddings come out in
    lexicographic order; ``_embeddings(g.adjacency, g)`` yields the
    automorphisms of g's underlying graph in ``itertools.permutations`` order.
    """
    k, pattern_adj = pattern.n, pattern.adjacency

    def extend(chosen: tuple[int, ...], unused: int) -> Iterator[tuple[int, ...]]:
        i = len(chosen)
        if i == k:
            yield chosen
            return
        cands = unused
        for j, cj in enumerate(chosen):
            cands &= adj[cj] if pattern_adj[i] >> j & 1 else ~adj[cj]
        while cands:
            low = cands & -cands
            cands ^= low
            yield from extend(chosen + (low.bit_length() - 1,), unused ^ low)

    return extend((), (1 << len(adj)) - 1)


def find_induced(g: MixedGraph, pattern: MixedGraph) -> tuple[int, ...] | None:
    """Vertices of an induced undirected subgraph isomorphic to ``pattern``.

    Both graphs must be undirected; the pattern is limited to 6 vertices.
    Returns the lexicographically first embedding: g-vertices ordered to
    match the pattern's labels, or None.
    """
    if pattern.n > 6:
        raise ValueError("pattern limited to 6 vertices")
    if not g.is_undirected() or not pattern.is_undirected():
        raise ValueError("induced-subgraph search works on undirected graphs")
    return next(_embeddings(g.adjacency, pattern), None)


@dataclass(frozen=True)
class FamilyMatch:
    """Shape of an underlying graph relevant to the golden-ratio threshold.

    label is one of "complete", "two-cliques" (two cliques glued to one join
    vertex, sizes s >= t >= 1), "c4", "diamond", "k23-plus-edge",
    "k24-plus-2edges".  For two-cliques, ``parts`` holds the two clique
    vertex sets without the join vertex and ``cut_vertex`` the join vertex.
    For the four sporadic shapes, ``embedding`` is the first embedding in g
    of the shape's catalog labeling, found while recognizing it; H1 matching
    relabels by it.  It takes no part in comparisons or the repr.
    """

    label: str
    s: int = 0
    t: int = 0
    cut_vertex: int | None = None
    parts: tuple[tuple[int, ...], ...] = ()
    embedding: tuple[int, ...] = field(default=(), compare=False, repr=False)


def underlying_family(g: MixedGraph) -> FamilyMatch | None:
    """Recognize the underlying shapes admitting above-threshold orientations.

    The input must be undirected and connected.  Returns None when the graph
    is none of: complete, two cliques joined at one vertex, the 4-cycle, the
    diamond, K_{2,3} plus an edge, K_{2,4} plus two disjoint edges.
    """
    if not g.is_undirected():
        raise ValueError("underlying_family expects an undirected graph")
    if not is_connected(g):
        raise ValueError("underlying_family expects a connected graph")
    return _family_of(g)


def _family_of(g: MixedGraph) -> FamilyMatch | None:
    """``underlying_family`` of the underlying graph of a g already known
    connected; it reads only which pairs are connected, so g may be oriented."""
    return _shape_of(g.adjacency)[0]


#: A stream of classify calls meets the same underlying graph again and
#: again, in every orientation and switching of it, so its shape is memoized
#: on the adjacency tuple: the n <= 5 census's 1,091 forbidden-subgraph
#: rejects lie on 17 graphs.  An entry holds that tuple and a FamilyMatch or
#: a forbidden hit: 0.6 to 0.9 kB for n = 12, so at most about 0.9 MB.
@lru_cache(maxsize=1024)
def _shape_of(
    adjacency: tuple[int, ...]
) -> tuple[FamilyMatch | None, tuple[str, tuple[int, ...]] | None]:
    """(``_family_of``, None) of a connected graph with these neighbour
    bitmasks when it has a family shape, else (None, the first of
    ``FORBIDDEN_SUBGRAPHS`` induced in it as (name, first embedding))."""
    n = len(adjacency)
    full = (1 << n) - 1
    closed = [row | 1 << u for u, row in enumerate(adjacency)]
    hubs = [v for v in range(n) if closed[v] == full]
    if len(hubs) == n:
        return FamilyMatch("complete", s=max(n - 1, 0), t=0), None
    # Two cliques sharing one join vertex: the join vertex is the only one
    # adjacent to everything, and every other vertex's closed neighbourhood
    # without it is one of two complementary cliques.
    if len(hubs) == 1:
        v = hubs[0]
        rest = full & ~(1 << v)
        first = rest & closed[(rest & -rest).bit_length() - 1]
        if all(
            closed[u] & rest == (first if first >> u & 1 else rest & ~first)
            for u in range(n) if u != v
        ):
            c1 = tuple(u for u in range(n) if first >> u & 1)
            c2 = tuple(u for u in range(n) if u != v and not first >> u & 1)
            if len(c1) < len(c2):
                c1, c2 = c2, c1
            return FamilyMatch(
                "two-cliques", s=len(c1), t=len(c2), cut_vertex=v, parts=(c1, c2)
            ), None
    edges = sum(map(int.bit_count, adjacency)) // 2
    for label, pattern in sporadic_underlying().items():
        if n == pattern.n and edges == pattern.edge_count():
            hit = next(_embeddings(adjacency, pattern), None)
            if hit is not None:
                return FamilyMatch(label, embedding=hit), None
    for name, pattern in FORBIDDEN_SUBGRAPHS:
        hit = next(_embeddings(adjacency, pattern), None)
        if hit is not None:
            return None, (name, hit)
    return None, None


class Family(Enum):
    H1 = "H1"  # catalog of scattered orientations on four small graphs
    H2 = "H2"  # coalescence of two oriented cliques, both parts >= 3 vertices
    H3 = "H3"  # oriented complete graph K_n[s, t]
    H4 = "H4"  # coalescence of an edge with an oriented clique


@dataclass(frozen=True)
class RejectWitness:
    """An induced subgraph certifying rejection.

    kind: "triangle", "quadrangle", "forbidden-subgraph" or "threshold".
    ``comparison`` is the exact trichotomy of the witness subgraph's
    smallest eigenvalue against -(1+sqrt5)/2; by interlacing it bounds the
    full graph.  For kind "threshold" the witness is the whole graph.
    """

    kind: str
    pattern: str
    vertices: tuple[int, ...]
    comparison: Trichotomy
    lambda_min: float


@dataclass(frozen=True)
class H1Details:
    catalog_id: str
    perm: tuple[int, ...]  # relabeling onto the catalog representative
    diagonal: SwitchDiagonal


@dataclass(frozen=True)
class H2H4Details:
    cut_vertex: int
    block1: tuple[int, ...]  # cut vertex first, then the larger clique
    block2: tuple[int, ...]
    knst1: KnstMatch
    knst2: KnstMatch
    s: int
    t: int


@dataclass(frozen=True)
class H3Details:
    knst: KnstMatch


def _all_ints(values: tuple) -> bool:
    """Whether ``values`` is a tuple of values that can stand as vertex indices."""
    return isinstance(values, tuple) and all(isinstance(v, int) for v in values)


@dataclass(frozen=True)
class Certificate:
    """Verdict of classify_threshold with re-checkable evidence.

    An accept fills ``family`` and ``details`` and leaves ``witness`` None;
    a reject fills ``witness`` only.  ``verify`` checks every field.
    """

    accepted: bool
    family: Family | None
    details: H1Details | H2H4Details | H3Details | None
    witness: RejectWitness | None

    def verify(self, m: MixedGraph) -> bool:
        """Re-check the certificate against the graph it was issued for.

        Returns False, never raises, for a malformed certificate, such as
        details of another family's type, a vertex index that is not an int,
        or a slot filled that the verdict leaves empty.
        A reject witness must also be what it says it is: a triangle or
        quadrangle of the named type, the named forbidden subgraph, or the
        whole graph on a two-cliques shape, with its lambda_min within 1e-9.
        """
        if self.accepted:
            if self.witness is not None or m.n == 0:  # nothing to classify
                return False
            if self.family is Family.H3 and isinstance(self.details, H3Details):
                knst = self.details.knst
                return isinstance(knst, KnstMatch) and _knst_on(m, range(m.n)) == knst
            if self.family in (Family.H2, Family.H4) and isinstance(
                self.details, H2H4Details
            ):
                det = self.details
                ints = ((det.cut_vertex, det.s, det.t), det.block1, det.block2)
                if not all(map(_all_ints, ints)):
                    return False
                cut = (det.cut_vertex,)
                if det.block1[:1] != cut or det.block2[:1] != cut:
                    return False
                if sorted(det.block1 + det.block2[1:]) != list(range(m.n)):
                    return False
                if (len(det.block1) - 1, len(det.block2) - 1) != (det.s, det.t):
                    return False
                if min(det.s, det.t) < 1:  # a block of the cut vertex alone
                    return False
                if (self.family is Family.H4) != (det.t == 1):
                    return False
                across = sum(1 << b for b in det.block2[1:])
                if any(m.adjacency[a] & across for a in det.block1[1:]):
                    return False
                for block, knst in ((det.block1, det.knst1), (det.block2, det.knst2)):
                    if knst is None or _knst_on(m, block) != knst:
                        return False
                return _two_clique_bound(det.s, det.t)[0] is Trichotomy.GREATER
            if self.family is Family.H1 and isinstance(self.details, H1Details):
                record = load_builtin().by_id(self.details.catalog_id)
                if record is None or not _all_ints(self.details.perm):
                    return False
                if not isinstance(self.details.diagonal, SwitchDiagonal):
                    return False
                try:
                    relabeled = m.relabel(list(self.details.perm))
                    switched = apply_switch(relabeled, self.details.diagonal)
                except ValueError:  # not a permutation, or not applicable
                    return False
                return switched == record.graph()
            return False
        if self.family is not None or self.details is not None:
            return False
        w = self.witness
        if not isinstance(w, RejectWitness) or not _all_ints(w.vertices):
            return False
        try:
            if w.kind == "threshold":
                if w.vertices != tuple(range(m.n)) or w.pattern != "two-cliques":
                    return False
                fam = underlying_family(underlying_graph(m))
                if fam is None or fam.label != "two-cliques":
                    return False
                comparison, lam = _witness_spectrum(m)
            elif w.kind in ("triangle", "quadrangle"):
                vs, size = w.vertices, 3 if w.kind == "triangle" else 4
                if len(vs) != size or len(set(vs)) != size:
                    return False
                if not all(0 <= v < m.n for v in vs):
                    return False
                cycle = vs if size == 3 else _cycle_order4(m, vs)
                if cycle is None:
                    return False
                along = tuple(m.kinds[a][b] for a, b in zip(cycle, cycle[1:] + cycle[:1]))
                if not all(along):  # three vertices that are not a triangle
                    return False
                _, pattern, comparison, lam = _cycle_witness(along)
                if pattern != w.pattern:
                    return False
            elif w.kind == "forbidden-subgraph":
                sub = induced(m, w.vertices)
                named = [p for name, p in FORBIDDEN_SUBGRAPHS if name == w.pattern]
                if named != [underlying_graph(sub)]:
                    return False
                comparison, lam = _small_witness_spectrum(sub.kinds)
            else:
                return False
        except ValueError:  # bad vertices, or a disconnected graph
            return False
        return (
            comparison is w.comparison
            and comparison is not Trichotomy.GREATER
            and isinstance(w.lambda_min, (int, float))
            and abs(lam - w.lambda_min) <= 1e-9
        )

    def summary(self) -> str:
        if self.accepted:
            fam = self.family.value
            if self.family is Family.H3:
                return f"accept {fam} s={self.details.knst.s} t={self.details.knst.t}"
            if self.family in (Family.H2, Family.H4):
                return (
                    f"accept {fam} cut={self.details.cut_vertex}"
                    f" s={self.details.s} t={self.details.t}"
                )
            return f"accept {fam} catalog={self.details.catalog_id}"
        w = self.witness
        where = ",".join(str(v) for v in w.vertices)
        return (
            f"reject: induced {w.pattern} at ({where}),"
            f" exact {w.comparison.value}, lambda_min {w.lambda_min:.10f}"
        )


#: The five undirected graphs forcing the smallest eigenvalue to the
#: threshold or below in every orientation, searched smallest first.  None
#: contains an induced copy of an earlier one; K_{2,3}, K_2 v 3K_1 and
#: 2K_1 v K_3 each contain one, so a graph free of these is free of them.
FORBIDDEN_SUBGRAPHS: tuple[tuple[str, MixedGraph], ...] = (
    ("P_4", path_graph(4)),
    ("K_{1,3}", star_graph(3)),
    ("K_1 v K_{2,2}", join(build(1, []), join(build(2, []), build(2, [])))),
    (
        "K_2 v (K_2+K_1)",
        join(complete_graph(2), disjoint_union(complete_graph(2), build(1, []))),
    ),
    ("K_2 v K_{1,2}", join(complete_graph(2), star_graph(2))),
)


def _witness_spectrum(sub: MixedGraph) -> tuple[Trichotomy, float]:
    """Exact comparison against -(1+sqrt5)/2 and float lambda_min of ``sub``."""
    summary = eigenvalues(sub)
    return compare_lambda_min(summary.char_poly, NEG_GOLDEN), summary.lambda_min


@lru_cache(maxsize=4096)
def _small_witness_spectrum(
    kinds: tuple[tuple[int, ...], ...]
) -> tuple[Trichotomy, float]:
    """``_witness_spectrum`` memoized on the kind table of a small witness."""
    return _witness_spectrum(MixedGraph(len(kinds), kinds))


def _cycle_pattern(q: MixedGraph) -> str:
    """Triangle type or quadrangle tag of a mixed triangle or quadrangle."""
    return triangle_type(q).value if q.n == 3 else quad_class(q).tag.value


#: The key space is the 27 mixed triangles and 81 mixed quadrangles in
#: cyclic order, 108 keys: the classifier rejects on 20 and 61 of them and
#: ``Certificate.verify`` may read any, so with 128 entries the memo never
#: evicts.
@lru_cache(maxsize=128)
def _cycle_witness(along: tuple[int, ...]) -> tuple[str, str, Trichotomy, float]:
    """Kind, pattern, comparison and lambda_min of the reject witness on a
    triangle or induced quadrangle whose consecutive pairs, in cyclic order,
    have the kinds ``along``.  A triangle has no other pairs and an induced
    quadrangle has no chords, so ``along`` fixes the witness's kind table and
    with it every field ``_witness_from_subgraph`` would give but the vertices.
    """
    size = len(along)
    cycle = build(size, [(i, (i + 1) % size, EdgeKind(k)) for i, k in enumerate(along)])
    comparison, lam = _small_witness_spectrum(cycle.kinds)
    kind = "triangle" if size == 3 else "quadrangle"
    return kind, _cycle_pattern(cycle), comparison, lam


def _cycle_certificate(cycle: tuple[int, ...], along: tuple[int, ...]) -> Certificate:
    """Reject certificate of a forbidden triangle or induced quadrangle:
    ``cycle`` lists its vertices in cyclic order, ``along`` as for
    ``_cycle_witness``."""
    kind, pattern, comparison, lam = _cycle_witness(along)
    return Certificate(
        False, None, None, RejectWitness(kind, pattern, cycle, comparison, lam)
    )


def _witness_from_subgraph(
    m: MixedGraph, kind: str, vertices: tuple[int, ...], pattern: str | None = None
) -> RejectWitness:
    """Triangle, quadrangle or forbidden-subgraph reject witness on ``vertices``.

    These witnesses have at most five vertices and few distinct kind tables,
    so their spectra are memoized.  Without ``pattern``, a triangle or
    quadrangle (in cyclic order) is named from its kind table.  The
    classifier builds triangle and quadrangle certificates through
    ``_cycle_witness``, which must agree with this.
    """
    kinds = tuple(tuple(m.kinds[u][v] for v in vertices) for u in vertices)
    comparison, lam = _small_witness_spectrum(kinds)
    if pattern is None:
        pattern = _cycle_pattern(MixedGraph(len(kinds), kinds))
    return RejectWitness(kind, pattern, vertices, comparison, lam)


def classify_threshold(m: MixedGraph) -> Certificate:
    """Decide whether the smallest eigenvalue exceeds -(1+sqrt5)/2, structurally.

    Pipeline: reject on any triangle with holonomy != 1 or quadrangle with
    holonomy != -1 (their smallest eigenvalues already fail, so interlacing
    rejects); otherwise match the underlying graph against the families and
    either build an acceptance certificate or find a forbidden subgraph.

    Raises ValueError on an empty or disconnected graph.
    """
    _check_classifiable(m)
    return _classify(m)


def _check_classifiable(m: MixedGraph) -> None:
    """The precondition of both classifiers: m is nonempty and connected."""
    if m.n == 0:
        raise ValueError("empty graph cannot be classified")
    if not is_connected(m):
        raise ValueError("classification expects a connected graph")


@lru_cache(maxsize=256)
def _two_clique_bound(s: int, t: int) -> tuple[Trichotomy, float]:
    """The exact comparison of the smallest root of ``f_cubic(s, t)`` with
    -(1+sqrt5)/2, and that root: the block bound of two cliques at a cut
    vertex."""
    cubic = f_cubic(s, t)
    return compare_lambda_min(cubic, NEG_GOLDEN), _smallest_root(cubic)


def _smallest_root(cubic: IntPolynomial) -> float:
    """Smallest root of a monic integer cubic whose three roots are real.

    Viete's trigonometric form: with x = (y - a) / 3 the cubic
    x^3 + a x^2 + b x + c becomes y^3 + 3p y + q, where p = 3b - a^2 and
    q = 2a^3 - 9ab + 27c are exact integers, and its roots are
    y_k = 2 sqrt(-p) cos((arccos(-q / (2 (-p)^(3/2))) + 2 pi k) / 3); k = 1
    is the smallest.  Three distinct real roots make p < 0; for f_cubic(s, t),
    p = -(s^2 - st + t^2) - 2(s + t) - 1.  Subtracting a loses digits when
    |a| is large, and one Newton step on the cubic itself restores them, to
    within 1e-15 of the true root for every two-clique cubic with s < 60.
    """
    c, b, a, _ = cubic.coeffs
    p = 3 * b - a * a
    q = 2 * a**3 - 9 * a * b + 27 * c
    r = math.sqrt(-p)
    cos3 = max(-1.0, min(1.0, -q / (2 * -p * r)))
    x = (2 * r * math.cos((math.acos(cos3) + 2 * math.pi) / 3) - a) / 3
    return x - (((x + a) * x + b) * x + c) / ((3 * x + 2 * a) * x + b)


def _classify(m: MixedGraph) -> Certificate:
    """``classify_threshold`` of an m already known nonempty and connected.

    The census checks that once per underlying graph, since orienting a
    graph never changes its underlying graph.
    """
    k = m.kinds
    tri = find_forbidden_triangle(m)
    if tri is not None:
        u, v, w = tri
        return _cycle_certificate(tri, (k[u][v], k[v][w], k[w][u]))
    quad = find_forbidden_quadrangle(m)
    if quad is not None:
        a, b, c, d = quad
        return _cycle_certificate(quad, (k[a][b], k[b][c], k[c][d], k[d][a]))
    fam, forbidden = _shape_of(m.adjacency)
    if fam is None:
        if forbidden is None:
            raise RuntimeError(
                "graph outside all families contains no forbidden subgraph; "
                "this contradicts the classification theorem"
            )
        name, hit = forbidden
        return Certificate(
            False, None, None, _witness_from_subgraph(m, "forbidden-subgraph", hit, name)
        )
    if fam.label == "complete":
        match = _knst_on(m, range(m.n))
        if match is None:
            raise RuntimeError("complete graph with safe triangles must be K_n[s,t]")
        return Certificate(True, Family.H3, H3Details(match), None)
    if fam.label == "two-cliques":
        c1, c2 = fam.parts
        bound, lam = _two_clique_bound(fam.s, fam.t)
        if bound is not Trichotomy.GREATER:
            # Two cliques at a cut vertex form a chordal graph, and a chordal
            # mixed graph whose triangles all have holonomy one is balanced
            # (Reff, LAA 436 (2012); Guo and Mohar, JGT 85 (2017)), so m has
            # the spectrum of its underlying graph: -1 and the roots of the
            # cubic, whose smallest is below -1 here.  ``bound`` and ``lam``
            # are then lambda_min(m), exactly compared and as a float; verify
            # recomputes both.
            witness = RejectWitness(
                "threshold", "two-cliques", tuple(range(m.n)), bound, lam
            )
            return Certificate(False, None, None, witness)
        block1 = (fam.cut_vertex,) + c1
        block2 = (fam.cut_vertex,) + c2
        k1, k2 = _knst_on(m, block1), _knst_on(m, block2)
        if k1 is None or k2 is None:
            raise RuntimeError("clique block with safe triangles must be K_n[s,t]")
        family = Family.H4 if fam.t == 1 else Family.H2
        details = H2H4Details(fam.cut_vertex, block1, block2, k1, k2, fam.s, fam.t)
        return Certificate(True, family, details, None)
    # On each sporadic shape, the orientations free of forbidden triangles
    # and quadrangles form one labeled switching class: the screens fix the
    # holonomy of every cycle (Guo and Mohar, JGT 85 (2017)).  So m, relabeled
    # back along fam.embedding onto the catalog labels, switches to the
    # shape's first record with no automorphism tried.
    record = load_builtin().by_underlying(fam.label)[0]
    perm = [0] * m.n
    for canon_v, m_v in enumerate(fam.embedding):
        perm[m_v] = canon_v
    diagonal = switching_equivalent(m.relabel(perm), record.graph())
    if diagonal is None:
        raise RuntimeError(
            f"orientation of {fam.label} passed the local checks "
            "but is missing from the catalog"
        )
    return Certificate(True, Family.H1, H1Details(record.rec_id, tuple(perm), diagonal), None)


@dataclass(frozen=True)
class Sqrt2Verdict:
    """Outcome of the -sqrt(2) classification."""

    accepted: bool
    strict: bool
    family: str | None   # "Knst" or "C4" when accepted
    knst: KnstMatch | None
    comparison: Trichotomy
    note: str | None = None

    def summary(self) -> str:
        if self.accepted:
            if self.family == "Knst":
                return f"accept Knst s={self.knst.s} t={self.knst.t}"
            return "accept C4 (holonomy -1 quadrangle)"
        text = f"reject: exact {self.comparison.value} at -sqrt(2)"
        if self.note:
            text += f" ({self.note})"
        return text


def classify_sqrt2(m: MixedGraph, strict: bool = True) -> Sqrt2Verdict:
    """Classify against -sqrt(2).

    strict=True decides lambda_min > -sqrt(2): true exactly for oriented
    complete graphs.  strict=False decides membership in the known families
    with lambda_min >= -sqrt(2) (n >= 4): oriented complete graphs and the
    holonomy -1 quadrangles; for n <= 3 the non-strict theorem does not
    apply and the verdict reports the exact comparison with a scope note.
    """
    _check_classifiable(m)
    match = _knst_on(m, range(m.n))
    if match is not None:
        return Sqrt2Verdict(
            True, strict, "Knst", match, compare_lambda_min(m, NEG_SQRT2)
        )
    if not strict and m.n == 4:
        cyc = _cycle_order4(m, (0, 1, 2, 3))
        if cyc is not None and quad_class(m).tag in SAFE_QUADS:
            return Sqrt2Verdict(
                True, strict, "C4", None, compare_lambda_min(m, NEG_SQRT2)
            )
    note = None
    if not strict and m.n < 4:
        note = "outside the n >= 4 scope of the non-strict classification"
    return Sqrt2Verdict(
        False, strict, None, None, compare_lambda_min(m, NEG_SQRT2), note
    )
