"""Switching equivalence of mixed graphs.

Conjugating the Hermitian adjacency matrix by a diagonal matrix of units in
{1, -1, i, -i} preserves the spectrum.  When the conjugated matrix is again
the Hermitian matrix of a mixed graph (no entry lands on -1), the two graphs
are called switching equivalent.  This module provides the switch operation,
a linear-time equivalence decision with witness, perfect elimination
orderings, and the normalization of chordal mixed graphs whose triangles all
have holonomy one: their triangles span the cycle space, so such a graph is
balanced, and the equivalence search switches it onto its underlying graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graphs import (
    _EXP_FROM_KIND,
    _FLIP,
    _KIND_FROM_EXP,
    _UNIT_FROM_EXP,
    MixedGraph,
    underlying_graph,
)

__all__ = [
    "SwitchDiagonal",
    "NotChordalError",
    "BadTriangleError",
    "apply_switch",
    "switching_equivalent",
    "random_switch",
    "perfect_elimination_ordering",
    "normalize_chordal",
]


@dataclass(frozen=True)
class SwitchDiagonal:
    """Diagonal of units i^e, the witness object for switching equivalence.

    Stores the exponents e in 0..3; the constructor takes the units.
    """

    exps: tuple[int, ...]

    def __init__(self, units) -> None:
        exps = []
        for u in units:
            z = complex(u)
            if z not in _UNIT_FROM_EXP:
                raise ValueError(f"unit {u!r} not in {{1, -1, i, -i}}")
            exps.append(_UNIT_FROM_EXP.index(z))
        object.__setattr__(self, "exps", tuple(exps))

    @classmethod
    def from_exponents(cls, exps) -> "SwitchDiagonal":
        d = object.__new__(cls)
        object.__setattr__(d, "exps", tuple(e % 4 for e in exps))
        return d

    @property
    def units(self) -> tuple[complex, ...]:
        return tuple(_UNIT_FROM_EXP[e] for e in self.exps)

    def __len__(self) -> int:
        return len(self.exps)


def _switched_table(m: MixedGraph, exps) -> tuple[tuple[int, ...], ...]:
    """Kind table of D H D*; raises ValueError when an entry lands on -1."""
    n = m.n
    table = [[0] * n for _ in range(n)]
    for u in range(n):
        row = m.kinds[u]
        for v in range(u + 1, n):
            k = row[v]
            if k == 0:
                continue
            ku = _KIND_FROM_EXP[(_EXP_FROM_KIND[k] + exps[u] - exps[v]) % 4]
            if ku is None:
                raise ValueError(
                    f"diagonal is not applicable: entry at ({u}, {v}) becomes -1"
                )
            table[u][v] = ku
            table[v][u] = _FLIP[ku]
    return tuple(map(tuple, table))


def apply_switch(m: MixedGraph, d: SwitchDiagonal) -> MixedGraph:
    """The mixed graph with Hermitian matrix D H D*.

    The unit set {0, 1, i, -i} is not closed under conjugation by arbitrary
    diagonals (diag(1, -1) on an undirected edge gives -1), so the diagonal
    must be applicable to ``m``; otherwise ValueError names the offending
    pair.  The underlying graph is always preserved.
    """
    if len(d) != m.n:
        raise ValueError("diagonal length must match vertex count")
    return MixedGraph._trusted(m.n, _switched_table(m, d.exps))


def switching_equivalent(m1: MixedGraph, m2: MixedGraph) -> SwitchDiagonal | None:
    """Find D with D H(m1) D* = H(m2), or None.

    Requires the same labeled underlying graph (equivalence never changes
    which pairs are connected).  Within each connected component the first
    vertex's unit can be pinned to 1 (a global phase cancels in D H D*), and
    every other unit is then forced along a spanning tree.  Switching m1 by
    the forced diagonal, by the rule ``apply_switch`` uses, checks the
    remaining edges, so the search is O(n^2) with no backtracking.
    """
    if m1.adjacency != m2.adjacency:  # one mask per vertex, so also unequal n
        return None
    n, adj = m1.n, m1.adjacency
    exps = [None] * n
    for root in range(n):
        if exps[root] is not None:
            continue
        exps[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for v in range(n):
                if exps[v] is not None or not adj[u] >> v & 1:
                    continue
                # d_u h1 conj(d_v) = h2  =>  e_v = e_u + exp(h1) - exp(h2)
                e1 = _EXP_FROM_KIND[m1.kinds[u][v]]
                e2 = _EXP_FROM_KIND[m2.kinds[u][v]]
                exps[v] = (exps[u] + e1 - e2) % 4
                stack.append(v)
    try:
        switched = _switched_table(m1, exps)
    except ValueError:  # an edge lands on -1
        return None
    return SwitchDiagonal.from_exponents(exps) if switched == m2.kinds else None


def random_switch(
    m: MixedGraph, rng: random.Random, steps: int | None = None
) -> tuple[MixedGraph, SwitchDiagonal]:
    """Random walk over applicable single-vertex switches.

    Each step multiplies one vertex unit by a random unit that keeps all of
    its edge entries inside {1, i, -i} (the identity always qualifies, so a
    step never gets stuck).  Returns the switched graph and the accumulated
    diagonal, which is applicable to ``m`` by construction.
    """
    n = m.n
    if steps is None:
        steps = 3 * n + 5
    exps = [0] * n
    for _ in range(steps):
        if n == 0:
            break
        v = rng.randrange(n)
        # i-exponents of v's edges under the switch so far; the step adds g.
        now = [(_EXP_FROM_KIND[k] + exps[v] - exps[w]) % 4 for w, k in enumerate(m.kinds[v]) if k]
        g = rng.choice([g for g in range(4) if all(_KIND_FROM_EXP[(e + g) % 4] for e in now)])
        exps[v] = (exps[v] + g) % 4
    d = SwitchDiagonal.from_exponents(exps)
    return apply_switch(m, d), d


@dataclass(frozen=True)
class ChordlessCycle:
    """Witness that a graph is not chordal: an induced cycle of length >= 4."""

    vertices: tuple[int, ...]


class NotChordalError(ValueError):
    def __init__(self, cycle: ChordlessCycle) -> None:
        super().__init__(f"graph is not chordal: chordless cycle {cycle.vertices}")
        self.cycle = cycle


class BadTriangleError(ValueError):
    def __init__(self, triangle: tuple[int, int, int]) -> None:
        super().__init__(
            f"triangle {triangle} does not have holonomy one; "
            "the graph cannot switch to its underlying graph"
        )
        self.triangle = triangle


def _find_chordless_cycle(g: MixedGraph) -> ChordlessCycle | None:
    """Search a chordless cycle of length >= 4 (the non-chordality witness).

    For every vertex v with two non-adjacent neighbors x, y, a shortest x-y
    path avoiding the rest of N[v] closes into a chordless cycle through v.
    """
    n, adj = g.n, g.adjacency
    for v in range(n):
        nv = [w for w in range(n) if adj[v] >> w & 1]
        for ai in range(len(nv)):
            for bi in range(ai + 1, len(nv)):
                x, y = nv[ai], nv[bi]
                if adj[x] >> y & 1:
                    continue
                banned = {v} | {w for w in nv if w not in (x, y)}
                # BFS from x to y outside banned vertices.
                prev = {x: None}
                queue = [x]
                while queue:
                    cur = queue.pop(0)
                    if cur == y:
                        break
                    for w in range(n):
                        if w in banned or w in prev or not adj[cur] >> w & 1:
                            continue
                        prev[w] = cur
                        queue.append(w)
                if y not in prev:
                    continue
                path = []
                cur = y
                while cur is not None:
                    path.append(cur)
                    cur = prev[cur]
                cycle = tuple([v] + path[::-1])
                return ChordlessCycle(cycle)
    return None


def perfect_elimination_ordering(
    g: MixedGraph,
) -> tuple[int, ...] | ChordlessCycle:
    """Maximum-cardinality-search ordering, verified, or a chordless cycle.

    The input must be undirected.  On a chordal graph the returned ordering
    (v_1, ..., v_n) satisfies: the neighbors of v_i among v_{i+1}, ..., v_n
    form a clique.  On a non-chordal graph a ChordlessCycle witness of
    length >= 4 is returned instead.
    """
    if not g.is_undirected():
        raise ValueError("perfect elimination ordering is defined on undirected graphs")
    n, adj = g.n, g.adjacency
    weights = [0] * n
    picked = [False] * n
    selection = []
    for _ in range(n):
        best = -1
        for v in range(n):
            if not picked[v] and (best == -1 or weights[v] > weights[best]):
                best = v
        picked[best] = True
        selection.append(best)
        for w in range(n):
            if not picked[w] and adj[best] >> w & 1:
                weights[w] += 1
    peo = tuple(reversed(selection))
    for i, v in enumerate(peo):
        later = [w for w in peo[i + 1 :] if adj[v] >> w & 1]
        for a in range(len(later)):
            for b in range(a + 1, len(later)):
                if not adj[later[a]] >> later[b] & 1:
                    witness = _find_chordless_cycle(g)
                    if witness is None:
                        raise RuntimeError(
                            "PEO verification failed but no chordless cycle found"
                        )
                    return witness
    return peo


def normalize_chordal(m: MixedGraph) -> SwitchDiagonal:
    """Diagonal switching a chordal mixed graph onto its underlying graph.

    Works when the underlying graph is chordal and every triangle has
    holonomy one.  The triangles of a chordal graph span its cycle space, so
    then every cycle has holonomy one: the gain graph is balanced and
    switches onto its underlying graph (Reff, LAA 436 (2012); Guo & Mohar,
    JGT 85 (2017)).  ``switching_equivalent`` finds that diagonal along a
    spanning tree.

    Raises NotChordalError with a chordless cycle, checked first, or
    BadTriangleError with the first triangle whose holonomy is not one.
    """
    g = underlying_graph(m)
    peo = perfect_elimination_ordering(g)
    if isinstance(peo, ChordlessCycle):
        raise NotChordalError(peo)
    d = switching_equivalent(m, g)
    if d is not None:
        return d
    from .classify import find_forbidden_triangle  # local import to avoid a module cycle

    triangle = find_forbidden_triangle(m)
    if triangle is None:
        raise AssertionError(
            "chordal graph with unit-holonomy triangles is not switching "
            "equivalent to its underlying graph"
        )
    raise BadTriangleError(triangle)
