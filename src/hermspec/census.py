"""Brute-force verification of the threshold classifications.

This module plays the role of an independent oracle: it enumerates mixed
graphs exhaustively (all orientations of all connected underlying graphs up
to five vertices, plus targeted six-vertex sweeps), compares the structural
classifier against the exact eigenvalue comparison for every single graph,
and derives the pinned catalog of scattered orientations from scratch.

The spectrum of a mixed graph depends only on its switching class, which the
holonomies around a cycle basis fix (Reff, LAA 436 (2012); Guo & Mohar, JGT
85 (2017)).  Every exhaustive sweep over one underlying graph therefore keys
each orientation by the holonomies of its cotree edges, with respect to a
BFS spanning tree from vertex 0, and decides each class once.  The converse
of a mixed graph has the conjugate Hermitian matrix and so the same spectrum
(Guo & Mohar, JGT 85 (2017)), so a class and its converse class share one
decision: batched Faddeev-LeVerrier calls over one representative of each
converse pair give their characteristic polynomials, and each distinct
polynomial is compared once per process against -(1+sqrt5)/2 by the exact
integer Taylor-shift test, ``taylor_compare_min_root``.  The classifier
decides by Sturm chains, so oracle and classifier reach their verdicts by
different exact methods.  Random samples, which share few classes, are
decided the same way in blocks of orientations.  The catalog counts its
survivors by one rule, ``_orbits``: the smallest key over the shape's
automorphisms, of the encoding, of the smaller encoding of an orientation
and its converse, or of the class key.

An exhaustive sweep over one underlying graph keeps one dense verdict
table, ``_class_table``: an int8 code per class key, 0 while undecided, then
1, 2 or 3 for LESS, EQUAL or GREATER.  A key has one base-4 digit per
cotree edge, so it indexes the table directly.  The sweep runs in passes of
``_KEY_BLOCK`` orientations, ``_class_pass``: each pass reads the base-3
digits of its orientations, their edge i-exponents and their class keys in
int8 arithmetic mod 4, and decides its undecided classes in batches of at
most ``_BLOCK``, the batch that bounds the sweep's memory.  Two screens
then take every reject they can name, as the classifier does, by
interlacing.  The same exponents give every orientation's cycle verdict,
``_cycle_safe``: a triangle of holonomy other than one, or an induced
quadrangle of holonomy other than -1, fails the bound.  An induced
forbidden subgraph fails it in every orientation, so on a graph in which
``_shape_of`` finds one, every orientation is a reject.  A screened
orientation is checked against its class code alone, and built only to
name a mismatch.  Only the orientations past both screens, 254 of the
106,933 at n <= 5 and 63 of K_6's, get kind tables and are classified.
Their tables come from per-vertex row tables: row u depends only on the
digits of u's incident edges, so each distinct row is built once per
underlying graph and shared.

The six-vertex complete graph has 3^15 = 14,348,907 orientations in 2,187
passes, and 4^10 classes, a 1 MB table; its class keys are the holonomies
of the ten triangles through vertex 0.  Its sweep fills the table first,
from pooled decisions of the 524,800 keys that are the smaller of a class
and its converse, and then pools the passes, which only read it.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from itertools import combinations, islice, permutations
from multiprocessing import Pool
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .catalog import (
    Catalog,
    CatalogRecord,
    ReconciliationRow,
    SPORADIC_LABELS,
    sporadic_underlying,
)
from .classify import _bad_triangle, _check_classifiable, _classify, _embeddings, _shape_of
from .graphs import (
    _EXP_FROM_KIND,
    _FLIP,
    _UNIT_FROM_EXP,
    EdgeKind,
    MixedGraph,
    build,
    coalescence,
    complete_graph,
    converse,
    decode,
    underlying_graph,
)
from .polynomials import Trichotomy, taylor_compare_min_root
from .quadratic import NEG_GOLDEN
from .spectra import _char_poly_rows, char_poly, char_poly_rows, eigenvalues

__all__ = [
    "edge_list",
    "orientation_count",
    "orientation",
    "enumerate_orientations",
    "enumerate_connected_graphs",
    "iso_classes",
    "derive_scattered_catalog",
    "LevelStats",
    "K6Stats",
    "CensusReport",
    "verify_main_theorem",
]

_KIND_OF_DIGIT = (
    int(EdgeKind.UNDIRECTED), int(EdgeKind.ARC_OUT), int(EdgeKind.ARC_IN)
)

#: Rows per batched exact comparison: the char-poly batch of the class
#: sweeps and the orientation block of samples.  The (rows, n, n) complex
#: matrices of one batch set the sweeps' peak memory; larger batches find few
#: more repeated polynomials but hold more matrices at once.
_BLOCK = 3 ** 5

#: Orientations per class-key pass of an exhaustive sweep, whose low
#: ``_KEY_DIGITS`` base-3 digits every pass shares.  A pass holds its digits
#: and keys as arrays, a few tens of bytes per orientation, and pays its
#: fixed numpy overhead once per 27 blocks of ``_BLOCK``.
_KEY_DIGITS = 8
_KEY_BLOCK = 3 ** _KEY_DIGITS

#: i-exponent of orientation digits 0, 1, 2, and the unit i^h for h = 0..3.
_DIGIT_EXP = np.array([_EXP_FROM_KIND[k] for k in _KIND_OF_DIGIT], dtype=np.int8)
_UNIT = np.array(_UNIT_FROM_EXP)


def edge_list(g: MixedGraph) -> tuple[tuple[int, int], ...]:
    """Sorted vertex pairs carrying an edge; fixes the orientation digit order."""
    return tuple((u, v) for u, v, _ in g.edges())


def orientation_count(g: MixedGraph) -> int:
    return 3 ** g.edge_count()


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of a 1-d array, sorted: ``np.unique`` by a sort
    and a neighbour compare, without the ``numpy.ma`` import that the first
    ``np.unique`` of a process pays."""
    ordered = np.sort(values)
    keep = np.empty(len(ordered), dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


class _Rows(dict):
    """Kind-table rows of vertex u, keyed by the base-3 number that the
    digits of u's incident edges form (the edge to u's j-th neighbor gives
    digit j); each row is built on first use.

    Row u sets pair (u, v) to the kind of the digit of edge uv and row v
    sets (v, u) to its flip, so rows picked with one orientation's keys
    form a valid kind table, which ``orientation``, ``_oriented`` and the
    census tally build into a MixedGraph without re-validating it."""

    def __init__(self, n: int, u: int, neighbors: tuple[int, ...]) -> None:
        super().__init__()
        self.n, self.u, self.neighbors = n, u, neighbors

    def __missing__(self, key: int) -> tuple[int, ...]:
        row = [0] * self.n
        rem = key
        for v in self.neighbors:
            rem, digit = divmod(rem, 3)
            kind = _KIND_OF_DIGIT[digit]
            row[v] = kind if self.u < v else _FLIP[kind]
        out = self[key] = tuple(row)
        return out


_Links = tuple[tuple[int, int, int, int], ...]


#: One entry per underlying graph; the n=6 sample alone meets 112 graphs.
@lru_cache(maxsize=256)
def _row_tables(g: MixedGraph) -> tuple[_Links, np.ndarray, tuple[_Rows, ...]]:
    """Row tables of an undirected graph g, shared by its orientations.

    Row u of an orientation depends only on the digits of u's incident
    edges, so each distinct row is built once per graph.  Returns one
    (u, v, wu, wv) per edge in ``edge_list`` order, where edge digit x adds
    x * wu to u's row key and x * wv to v's; the same weights as an int64
    (edges, n) matrix, which turns a block of digit rows into row keys; and
    the ``_Rows`` of each vertex.
    """
    if not g.is_undirected():
        raise ValueError("can only orient an undirected graph")
    neighbors = [g.neighbors(u) for u in range(g.n)]
    links = tuple(
        (u, v, 3 ** neighbors[u].index(v), 3 ** neighbors[v].index(u))
        for u, v in edge_list(g)
    )
    weights = np.zeros((len(links), g.n), dtype=np.int64)
    for e, (u, v, wu, wv) in enumerate(links):
        weights[e, u], weights[e, v] = wu, wv
    return links, weights, tuple(_Rows(g.n, u, neighbors[u]) for u in range(g.n))


def orientation(g: MixedGraph, index: int) -> MixedGraph:
    """The index-th orientation of an undirected graph.

    Index digits in base 3 follow ``edge_list`` order, least significant
    first: 0 leaves the edge undirected, 1 directs it low->high, 2 high->low.
    A graph that already has an arc raises ValueError.
    """
    links, _, rows = _row_tables(g)
    if not 0 <= index < 3 ** len(links):
        raise ValueError(f"orientation index {index} out of range")
    keys = [0] * g.n
    rem = index
    for u, v, wu, wv in links:
        rem, digit = divmod(rem, 3)
        keys[u] += digit * wu
        keys[v] += digit * wv
    return MixedGraph._trusted(g.n, tuple(map(_Rows.__getitem__, rows, keys)))


_Kinds = tuple[tuple[int, ...], ...]


def _built(g: MixedGraph, digits: np.ndarray) -> Iterator[_Kinds]:
    """The kind tables of the orientations of g whose base-3 digits
    (``_digits``) are the rows of ``digits``, in order.

    Each vertex's rows are looked up for the whole block at once, and zip
    joins the per-vertex lists into kind tables.  Row keys are int64, which
    covers every graph with at most 39 edges.
    """
    _, weights, rows = _row_tables(g)
    keys = (digits @ weights).T.tolist()
    if not rows:  # the empty graph has one orientation, itself
        return iter([()] * len(digits))
    return zip(*[map(row.__getitem__, col) for row, col in zip(rows, keys)])


def _oriented(g: MixedGraph, indices: Sequence[int]) -> Iterator[MixedGraph]:
    """The orientations of g at ``indices``, in order, built in blocks of
    ``_BLOCK`` indices."""
    m, trusted = len(_row_tables(g)[0]), partial(MixedGraph._trusted, g.n)
    for start in range(0, len(indices), _BLOCK):
        yield from map(trusted, _built(g, _digits(indices[start:start + _BLOCK], m)))


def enumerate_orientations(g: MixedGraph) -> Iterator[MixedGraph]:
    """Yield every orientation of an undirected graph (at most 16 edges),
    in index order."""
    links, _, _ = _row_tables(g)
    if len(links) > 16:
        raise ValueError("orientation enumeration limited to 16 edges")
    yield from _oriented(g, range(3 ** len(links)))


def enumerate_connected_graphs(n: int) -> list[MixedGraph]:
    """Connected undirected graphs on exactly n labeled-canonical vertices.

    One representative per isomorphism class, chosen as the lexicographically
    smallest edge bitmask, sorted by (edge count, bitmask).  Limited to
    n <= 6, the census's reach.  Expected counts: 1, 1, 2, 6, 21, 112 for
    n = 1..6.
    """
    if not 1 <= n <= 6:
        raise ValueError("graph enumeration limited to 1 <= n <= 6")
    return list(_connected_graphs(n))


@lru_cache(maxsize=8)
def _connected_graphs(n: int) -> tuple[MixedGraph, ...]:
    """``enumerate_connected_graphs(n)`` by one-vertex augmentation: every
    connected graph has a non-cut vertex (a leaf of a spanning tree), so
    joining vertex n - 1 to each nonempty vertex set of each connected graph
    on n - 1 vertices meets every class.  Each candidate's edge bitmask (bit
    i for pair i of ``combinations(range(n), 2)``) becomes the smallest over
    its n! relabelings."""
    if n == 1:
        return (build(1, []),)
    pairs = list(combinations(range(n), 2))
    idx = {pair: i for i, pair in enumerate(pairs)}
    joins = [0]  # edge masks from vertex n - 1 to each vertex set, the empty one first
    for u in range(n - 1):
        joins += [join | 1 << idx[u, n - 1] for join in joins]
    canon = np.array([
        sum(1 << idx[e] for e in edge_list(g)) | join
        for g in _connected_graphs(n - 1) for join in joins[1:]
    ], dtype=np.int64)
    bits = (canon[:, None] >> np.arange(len(pairs))) & 1
    weights = np.int64(1) << np.arange(len(pairs), dtype=np.int64)
    for perm in permutations(range(n)):
        order = [idx[tuple(sorted((perm[u], perm[v])))] for u, v in pairs]
        np.minimum(canon, bits[:, order] @ weights, out=canon)
    reps = sorted(_distinct(canon).tolist(), key=lambda mask: (mask.bit_count(), mask))
    return tuple(build(n, [(u, v, "undirected") for i, (u, v) in enumerate(pairs) if mask >> i & 1])
                 for mask in reps)


@lru_cache(maxsize=256)
def _automorphisms(g: MixedGraph) -> tuple[tuple[int, ...], ...]:
    """Automorphisms of g's underlying graph in ``itertools.permutations`` order."""
    return tuple(_embeddings(g.adjacency, g))


def _orbits(g: MixedGraph, graphs: list[MixedGraph], key: Callable) -> dict:
    """Orientations of the labeled graph g, grouped in input order by the
    smallest key that ``key(relabelings)`` gives their relabelings by g's
    automorphisms: the classes under relabeling and the equivalence the key
    decides, which must commute with relabeling and keep the underlying
    graph, so that only automorphisms relate orientations."""
    auts = _automorphisms(g)
    keys = list(key([m.relabel(p) for m in graphs for p in auts]))
    orbits: dict = {}
    for i, m in enumerate(graphs):
        orbits.setdefault(min(keys[i * len(auts):(i + 1) * len(auts)]), []).append(m)
    return orbits


def _converse_encoding(m: MixedGraph) -> str:
    """``_orbits`` key of classes under relabeling and arc reversal."""
    return min(m.encode(), converse(m).encode())


def _switching_keys(g: MixedGraph, graphs: list[MixedGraph]) -> list[int]:
    """``_orbits`` key of classes under relabeling and switching: the
    ``_class_keys`` key of each orientation of the connected graph g."""
    exps = [[_EXP_FROM_KIND[m.kinds[u][v]] for m in graphs] for u, v in edge_list(g)]
    return _class_keys(g, np.array(exps, dtype=np.int8).reshape(-1, len(graphs))).tolist()


def iso_classes(graphs: list[MixedGraph]) -> dict[str, list[MixedGraph]]:
    """Group orientations of one labeled underlying graph by isomorphism.

    Keys are canonical encodings (minimum over relabelings by automorphisms
    of the underlying graph); the decoded key is the class representative.
    """
    if not graphs:
        return {}
    return _orbits(underlying_graph(graphs[0]), graphs, partial(map, MixedGraph.encode))


#: The n <= 5 census meets 278 distinct class polynomials, the K_6 class
#: table 480 and the n=6 sample about 2,700; an entry holds at most seven
#: ints and a verdict, about 0.25 kB, so at most about 1 MB.
@lru_cache(maxsize=4096)
def _poly_verdict(coeffs: tuple[int, ...]) -> Trichotomy:
    """Exact comparison of the smallest root of ``coeffs`` (high to low)
    against -(1+sqrt5)/2."""
    return taylor_compare_min_root(coeffs, NEG_GOLDEN)


def _decide(rows: np.ndarray) -> list[Trichotomy]:
    """Exact comparison against -(1+sqrt5)/2 of the smallest root of each row.

    Rows are characteristic polynomials, high to low, from one batched kernel
    call; each distinct one is decided once per process by
    ``taylor_compare_min_root``, which is exact for them because a Hermitian
    matrix has only real eigenvalues.  The classifier decides by Sturm
    chains instead, so the oracle shares no root-location code with what it
    checks.
    """
    return list(map(_poly_verdict, map(tuple, rows.tolist())))


def _decided(graphs: Iterable[MixedGraph]) -> Iterator[tuple[_Kinds, Trichotomy]]:
    """The kind table of each graph with its exact verdict, decided in
    blocks of ``_BLOCK``.

    For samples, which share few switching classes; the graphs must share
    one vertex count.
    """
    it = iter(graphs)
    while block := list(islice(it, _BLOCK)):
        yield from zip([m.kinds for m in block], _decide(char_poly_rows(block)))


_Edges = tuple[tuple[int, int], ...]


@lru_cache(maxsize=256)
def _spanning_tree(g: MixedGraph) -> tuple[_Edges, _Edges]:
    """BFS spanning tree of a connected g from vertex 0, and its cotree.

    Tree edges are (parent, child) pairs in visiting order; the cotree is
    every other edge as (u < v), in ``edge_list`` order.
    """
    seen = {0}
    tree = []
    queue = [0]
    for u in queue:
        for v in g.neighbors(u):
            if v not in seen:
                seen.add(v)
                tree.append((u, v))
                queue.append(v)
    in_tree = {(min(e), max(e)) for e in tree}
    return tuple(tree), tuple(e for e in edge_list(g) if e not in in_tree)


def _digits(indices: Iterable[int], m: int) -> np.ndarray:
    """Base-3 digits of each orientation index on m edges, in ``edge_list``
    order, one row per index."""
    rem = np.array(indices, dtype=np.int64)
    digits = np.empty((len(rem), m), dtype=np.int8)
    for e in range(m):
        digits[:, e] = rem % 3
        rem //= 3
    return digits


def _class_keys(g: MixedGraph, exps: np.ndarray) -> np.ndarray:
    """Switching-class key of each orientation of g, given by its edge
    i-exponents ``exps`` (``_DIGIT_EXP[digits.T]``: one row per edge in
    ``edge_list`` order, one column per orientation).

    With e(a, b) the i-exponent of H[a, b] and pot[v] the sum of those
    exponents along the ``_spanning_tree`` path from vertex 0 to v, cotree
    edge j = (a, b) has holonomy pot[a] + e(a, b) - pot[b] (mod 4), read as
    base-4 digit j, least significant first.  The cotree edges close a cycle
    basis, so the key fixes the switching class and with it the spectrum.

    Exponents, potentials and holonomies are int8, one row per edge or
    vertex, reduced mod 4 by ``& 3`` (two's complement keeps that right
    for negative sums); only the key itself is int64, shifted and or-ed in
    place from the last digit down.
    """
    tree, cotree = _spanning_tree(g)
    pos = {(u, v): e for e, (u, v, _, _) in enumerate(_row_tables(g)[0])}
    pot = np.zeros((g.n, exps.shape[1]), dtype=np.int8)
    for p, v in tree:
        if p < v:
            np.add(pot[p], exps[pos[p, v]], out=pot[v])
        else:
            np.subtract(pot[p], exps[pos[v, p]], out=pot[v])
        pot[v] &= 3
    keys = np.zeros(exps.shape[1], dtype=np.int64)
    for a, b in reversed(cotree):
        keys <<= 2
        keys |= (pot[a] + exps[pos[a, b]] - pot[b]) & 3
    return keys


#: One entry per underlying graph, as for ``_row_tables``.
@lru_cache(maxsize=256)
def _cycles(g: MixedGraph) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]:
    """Each triangle and each induced quadrangle of g, walked from its
    smallest vertex a to a's smaller cycle neighbour: the ``edge_list``
    positions of the edges the walk takes low to high, of those it takes
    high to low, and the holonomy exponent the classifier requires, 0 for a
    triangle (``_bad_triangle``) and 2 for a quadrangle
    (``find_forbidden_quadrangle``).  Every walk takes at least two edges
    low to high: its first, and one on the way from its second vertex to
    its last, which lies above it."""
    pos = {e: i for i, e in enumerate(edge_list(g))}
    adj = g.adjacency
    cycles = []
    for size, target in ((3, 0), (4, 2)):
        for vs in combinations(range(g.n), size):
            inside = sum(1 << v for v in vs)
            if any((adj[v] & inside).bit_count() != 2 for v in vs):
                continue  # not a triangle, or not an induced quadrangle
            walk = [vs[0]]
            while len(walk) < size:
                walk.append(next(v for v in vs if adj[walk[-1]] >> v & 1 and v not in walk))
            steps = list(zip(walk, walk[1:] + walk[:1]))
            cycles.append((
                tuple(pos[u, v] for u, v in steps if u < v),
                tuple(pos[v, u] for u, v in steps if u > v),
                target,
            ))
    return tuple(cycles)


def _cycle_safe(g: MixedGraph, exps: np.ndarray) -> np.ndarray:
    """The classifier's cycle verdict, ``_bad_triangle(table) is None and
    find_forbidden_quadrangle(m) is None``, of each orientation of g given
    as for ``_class_keys``: each of g's ``_cycles`` has its holonomy
    exponent, the signed sum of its edge exponents, equal to its target mod
    4, so the low two bits of the bitwise or of the differences are 0."""
    bits = np.zeros(exps.shape[1], dtype=np.int8)
    for up, down, target in _cycles(g):
        hol = exps[up[0]] + exps[up[1]]
        for e in up[2:]:
            hol += exps[e]
        for e in down:
            hol -= exps[e]
        if target:
            hol -= target
        bits |= hol
    return bits & 3 == 0


#: Bit 0 of each of the 32 base-4 digits an int64 class key can hold.
_LOW_BITS = int("01" * 32, 2)


def _converse_keys(keys: np.ndarray) -> np.ndarray:
    """The class key of the converse of each class in ``keys``.

    The converse conjugates H, which negates every holonomy, so each base-4
    digit h becomes (4 - h) mod 4: 0 and 2 stay, 1 and 3 swap, which flips
    the high bit of every digit whose low bit is set.  Conjugate matrices
    have the same spectrum, so a class and its converse share a verdict.
    """
    return keys ^ (keys & _LOW_BITS) << 1


def _class_matrices(g: MixedGraph, keys: np.ndarray) -> np.ndarray:
    """One Hermitian (n, n) class representative per key of ``_class_keys``
    on g.

    It has entry 1 on every tree edge and i^h on cotree edge (a, b), where h
    is the key's digit for that edge.  Switching by diag(i^pot) takes every
    orientation of the class to it.  h = 2 gives -1, which no mixed graph
    has, but only the spectrum is used.
    """
    tree, cotree = _spanning_tree(g)
    h = np.zeros((len(keys), g.n, g.n), dtype=np.complex128)
    for p, v in tree:
        h[:, p, v] = h[:, v, p] = 1
    for j, (a, b) in enumerate(cotree):
        h[:, a, b] = _UNIT[keys >> 2 * j & 3]
        h[:, b, a] = np.conj(h[:, a, b])
    return h


#: The verdict of each code of a ``_class_table``: 0 is undecided.
_VERDICTS = (None, Trichotomy.LESS, Trichotomy.EQUAL, Trichotomy.GREATER)
_CODE = {verdict: code for code, verdict in enumerate(_VERDICTS)}
_EQUAL, _GREATER = _CODE[Trichotomy.EQUAL], _CODE[Trichotomy.GREATER]


def _class_table(g: MixedGraph) -> np.ndarray:
    """An undecided verdict table of g: one int8 code per switching class,
    indexed by its ``_class_keys`` key, so 4^(cotree edges) entries; K_6's
    ten cotree edges give 1 MB."""
    return np.zeros(4 ** len(_spanning_tree(g)[1]), dtype=np.int8)


def _class_codes(g: MixedGraph, keys: np.ndarray) -> np.ndarray:
    """The verdict code of each class key of g (a pool task), decided by
    ``_decide`` in batches of at most ``_BLOCK`` keys."""
    codes = np.empty(len(keys), dtype=np.int8)
    for i in range(0, len(keys), _BLOCK):
        rows = _char_poly_rows(_class_matrices(g, keys[i:i + _BLOCK]))
        codes[i:i + _BLOCK] = [_CODE[v] for v in _decide(rows)]
    return codes


@lru_cache(maxsize=1)
def _low_digits() -> tuple[np.ndarray, np.ndarray]:
    """Base-3 digits of 0 .. _KEY_BLOCK - 1 on ``_KEY_DIGITS`` edges and
    their edge i-exponents, one row per edge: the low digits of every
    ``_class_pass``."""
    digits = np.ascontiguousarray(_digits(range(_KEY_BLOCK), _KEY_DIGITS).T)
    return digits, _DIGIT_EXP[digits]


def _class_pass(
    g: MixedGraph, start: int, table: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The base-3 digits (``_digits``), edge i-exponents and verdict codes
    of the orientations of g from ``start``, a multiple of ``_KEY_BLOCK``,
    up to the next multiple or the last orientation.

    The low ``_KEY_DIGITS`` digits come from ``_low_digits``; the others are
    the digits of start // _KEY_BLOCK throughout the pass.  Codes are read
    from ``table``, g's ``_class_table``.  Of each converse pair of keys the
    pass meets undecided, only the smaller is decided (``_class_codes``),
    and its code is written under both keys.  The converse of an
    orientation is an orientation, so every key written is met.
    """
    m = g.edge_count()
    low = min(m, _KEY_DIGITS)
    size = 3 ** low
    low_digits, low_exps = _low_digits()
    high = _digits([start // _KEY_BLOCK], m - low).T
    # Filled one edge row at a time, ten times cheaper than by orientation
    # rows; the digits go out transposed, as a view.
    digits = np.empty((m, size), dtype=np.int8)
    digits[:low], digits[low:] = low_digits[:low, :size], high
    exps = np.empty((m, size), dtype=np.int8)
    exps[:low], exps[low:] = low_exps[:low, :size], _DIGIT_EXP[high]
    keys = _class_keys(g, exps)
    fresh = keys[table[keys] == 0]
    fresh = _distinct(np.minimum(fresh, _converse_keys(fresh)))
    table[fresh] = table[_converse_keys(fresh)] = _class_codes(g, fresh)
    return digits.T, exps, table[keys]


def derive_scattered_catalog() -> Catalog:
    """Recompute the scattered-orientation catalog from scratch.

    For each of the four sporadic underlying graphs, every orientation is
    tested with the exact eigenvalue comparison of its switching class, and
    only the survivors are built; their three class counts are ``_orbits``
    counts, and the lexicographically smallest encoding of each
    isomorphism class becomes the pinned representative.  The result is
    deterministic, so regeneration must reproduce the shipped file byte for
    byte.
    """
    records: list[CatalogRecord] = []
    rows: list[ReconciliationRow] = []
    for label in SPORADIC_LABELS:
        g = sporadic_underlying()[label]
        table = _class_table(g)
        passes = range(0, orientation_count(g), _KEY_BLOCK)
        codes = np.concatenate([_class_pass(g, start, table)[2] for start in passes])
        survivors = [orientation(g, i) for i in np.flatnonzero(codes == _GREATER).tolist()]
        classes = iso_classes(survivors)
        reps = [decode(g.n, key) for key in sorted(classes)]
        for i, rep in enumerate(reps):
            lam = eigenvalues(rep).lambda_min
            records.append(
                CatalogRecord(
                    rec_id=f"{label}-{i + 1:02d}",
                    underlying=label,
                    n=rep.n,
                    encoded=rep.encode(),
                    char_coeffs=char_poly(rep).coeffs,
                    # stored at the file's 10-decimal precision so that
                    # parse(serialize(catalog)) round-trips exactly
                    lambda_min=float(f"{lam:.10f}"),
                )
            )
        rows.append(
            ReconciliationRow(
                underlying=label,
                labeled=len(survivors),
                iso_classes=len(classes),
                converse_classes=len(_orbits(g, reps, partial(map, _converse_encoding))),
                switch_iso_classes=len(_orbits(g, reps, partial(_switching_keys, g))),
            )
        )
    return Catalog(1, tuple(records), tuple(rows))


@dataclass
class LevelStats:
    """Classifier-vs-exact tally of one census sweep.

    One record serves every sweep: an exhaustive level over all connected
    n-vertex graphs, one six-vertex deep family graph (named by ``label``)
    and the n=6 random sample.
    """

    n: int
    underlying_graphs: int = 0
    orientations: int = 0
    classes: int = 0  # switching classes decided by the exact oracle
    polys: int = 0  # class char polys computed, one per converse pair of classes
    accepts: dict[str, int] = field(default_factory=dict)
    rejects: int = 0
    boundary_equal: int = 0
    mismatches: list[str] = field(default_factory=list)
    label: str = ""

    @property
    def accepted(self) -> int:
        return sum(self.accepts.values())


@dataclass
class K6Stats:
    """Sweep over all orientations of the complete graph K_6 (``_k6_sweep``).

    ``accepted`` and ``mismatches`` count what ``_tally_pass`` finds over
    every pass, as for any exhaustive sweep; the subsample draws seeded
    orientations and decides them one by one, with no class table."""

    total: int = 0
    accepted: int = 0
    mismatches: int = 0
    subsample: int = 0
    subsample_mismatches: list[str] = field(default_factory=list)


@dataclass
class CensusReport:
    n_max: int
    levels: list[LevelStats]
    deep_levels: list[LevelStats]
    k6: K6Stats | None
    sample: LevelStats | None
    elapsed_seconds: float

    @property
    def ok(self) -> bool:
        tallies = [*self.levels, *self.deep_levels, *([self.sample] if self.sample else [])]
        if any(t.mismatches for t in tallies):
            return False
        return self.k6 is None or not (self.k6.mismatches or self.k6.subsample_mismatches)

    def text(self) -> str:
        lines = [
            f"census: exhaustive classifier check up to {self.n_max} vertices"
            + (" with six-vertex deep sweep" if self.n_max == 6 else ""),
        ]

        def add(line: str, mismatches: list[str]) -> None:
            lines.append(line)
            lines.extend(f"  mismatch {enc}" for enc in mismatches[:10])

        for lv in self.levels:
            fams = " ".join(f"{k}={v}" for k, v in sorted(lv.accepts.items()))
            add(
                f"n={lv.n}: underlying={lv.underlying_graphs}"
                f" orientations={lv.orientations} polys={lv.polys} accepts[{fams}]"
                f" rejects={lv.rejects} boundary-equal={lv.boundary_equal}"
                f" mismatches={len(lv.mismatches)}",
                lv.mismatches,
            )
        for dl in self.deep_levels:
            add(
                f"deep {dl.label}: orientations={dl.orientations}"
                f" accepted={dl.accepted} boundary-equal={dl.boundary_equal}"
                f" mismatches={len(dl.mismatches)}",
                dl.mismatches,
            )
        if self.k6 is not None:
            add(
                f"deep K_6: orientations={self.k6.total} accepted={self.k6.accepted}"
                f" mismatches={self.k6.mismatches}"
                f" subsample={self.k6.subsample}"
                f" subsample-mismatches={len(self.k6.subsample_mismatches)}",
                self.k6.subsample_mismatches,
            )
        if self.sample is not None:
            add(
                f"sampled n=6: samples={self.sample.orientations}"
                f" accepted={self.sample.accepted}"
                f" boundary-equal={self.sample.boundary_equal}"
                f" mismatches={len(self.sample.mismatches)}",
                self.sample.mismatches,
            )
        lines.append(f"result: {'PASS' if self.ok else 'FAIL'}")
        lines.append(f"elapsed: {self.elapsed_seconds:.1f}s")
        return "\n".join(lines)


def _tally(decided: Iterable[tuple[_Kinds, Trichotomy]]) -> LevelStats:
    """Classify each orientation and compare it with its exact verdict.

    ``decided`` pairs the kind table of each orientation with the exact
    comparison of its smallest eigenvalue against -(1+sqrt5)/2: a sample's
    orientations (``_decided``), or those of an exhaustive sweep's pass that
    pass its screens (``_tally_pass``).  Counts accepts by family, rejects and
    exact-EQUAL boundaries, and records the encoding of every orientation
    whose verdict disagrees with the exact one.  ``n``, ``underlying_graphs``,
    ``classes``, ``polys`` and ``label`` are left for the caller.

    The verdict is ``_classify``'s.  Its triangle scan runs first on the
    bare table (``_bad_triangle``): most sampled orientations leave there, a
    reject with no graph built, and a mask-safe one always passes.  A table
    that passes is built into a MixedGraph, without re-validation, for
    ``_classify``, which is ``classify_threshold``'s body without its
    connectivity check.  So every orientation must orient a nonempty
    connected graph: ``_tally_underlying`` checks its graph once, and K_6's
    sweep and the samples orient ``complete_graph(6)`` and graphs from
    ``enumerate_connected_graphs``.
    """
    orientations = rejects = boundary_equal = 0
    accepts: dict[str, int] = {}
    mismatches = []
    bad_triangle, classify, trusted = _bad_triangle, _classify, MixedGraph._trusted
    greater, equal = Trichotomy.GREATER, Trichotomy.EQUAL
    for table, exact in decided:
        orientations += 1
        accepted = bad_triangle(table) is None and (
            cert := classify(trusted(len(table), table))
        ).accepted
        if accepted:
            family = cert.family.value
            accepts[family] = accepts.get(family, 0) + 1
        else:
            rejects += 1
        if exact is equal:
            boundary_equal += 1
        if accepted != (exact is greater):
            mismatches.append(trusted(len(table), table).encode())
    return LevelStats(
        0, orientations=orientations, accepts=accepts, rejects=rejects,
        boundary_equal=boundary_equal, mismatches=mismatches,
    )


def _tally_pass(g: MixedGraph, start: int, table: np.ndarray) -> LevelStats:
    """``_tally`` over the orientations of one ``_class_pass`` (a pool task).

    Two screens take every reject they can name, in the classifier's order:
    ``_cycle_safe`` those with a forbidden triangle or induced quadrangle,
    and on a graph in which ``_shape_of`` finds a forbidden subgraph, all
    the rest, since orienting keeps the underlying graph.  A screened
    orientation is a reject, counted as a boundary or a mismatch from its
    verdict code alone and built only to record a mismatch.  ``_tally``
    gets the rest."""
    digits, exps, codes = _class_pass(g, start, table)
    safe = _cycle_safe(g, exps) & (_shape_of(g.adjacency)[1] is None)
    cut = codes[~safe]
    wrong = _built(g, digits[~safe & (codes == _GREATER)])
    screened = LevelStats(
        0, orientations=len(cut), rejects=len(cut),
        boundary_equal=int(np.count_nonzero(cut == _EQUAL)),
        mismatches=[MixedGraph._trusted(g.n, t).encode() for t in wrong],
    )
    verdicts = map(_VERDICTS.__getitem__, codes[safe].tolist())
    return _merged(screened, [_tally(zip(_built(g, digits[safe]), verdicts))])


def _tally_underlying(g: MixedGraph) -> LevelStats:
    """``_tally_pass`` over every orientation of one underlying graph, with
    one ``_class_table`` (a pool task).  Raises ValueError when g is empty
    or disconnected."""
    _check_classifiable(g)
    table = _class_table(g)
    parts = [_tally_pass(g, start, table) for start in range(0, orientation_count(g), _KEY_BLOCK)]
    keys = np.flatnonzero(table)
    polys = int(np.count_nonzero(keys <= _converse_keys(keys)))
    return _merged(LevelStats(g.n, 1, classes=len(keys), polys=polys), parts)


def _merged(stats: LevelStats, parts: Iterable[LevelStats]) -> LevelStats:
    """``stats`` with the counts and mismatches of every part added in;
    mismatches end up sorted."""
    for part in parts:
        stats.underlying_graphs += part.underlying_graphs
        stats.orientations += part.orientations
        stats.classes += part.classes
        stats.polys += part.polys
        for family, count in part.accepts.items():
            stats.accepts[family] = stats.accepts.get(family, 0) + count
        stats.rejects += part.rejects
        stats.boundary_equal += part.boundary_equal
        stats.mismatches.extend(part.mismatches)
    stats.mismatches.sort()
    return stats


_K6 = complete_graph(6)


def _k6_sweep(pmap: Callable, rng: random.Random, subsample: int) -> K6Stats:
    """The K_6 deep sweep: its class table is filled first, from pooled
    decisions of the smaller key of each converse pair, so that every pass
    only reads it; then a seeded subsample is decided orientation by
    orientation."""
    table = _class_table(_K6)
    keys = np.arange(len(table), dtype=np.int64)
    canon = keys[keys <= _converse_keys(keys)]
    blocks = [canon[i:i + _KEY_BLOCK] for i in range(0, len(canon), _KEY_BLOCK)]
    table[canon] = table[_converse_keys(canon)] = np.concatenate(
        list(pmap(partial(_class_codes, _K6), blocks))
    )
    passes = pmap(partial(_tally_pass, _K6, table=table), range(0, 3 ** 15, _KEY_BLOCK))
    swept = _merged(LevelStats(6), passes)
    drawn = _tally(_decided(_oriented(_K6, [rng.randrange(3 ** 15) for _ in range(subsample)])))
    return K6Stats(
        total=swept.orientations, accepted=swept.accepted, mismatches=len(swept.mismatches),
        subsample=drawn.orientations, subsample_mismatches=drawn.mismatches,
    )


def _deep_family_graphs() -> list[tuple[str, MixedGraph]]:
    return [
        ("K_2.K_5", coalescence(complete_graph(2), 0, complete_graph(5), 0)),
        ("K_3.K_4", coalescence(complete_graph(3), 0, complete_graph(4), 0)),
        ("k24-plus-2edges", sporadic_underlying()["k24-plus-2edges"]),
    ]


def verify_main_theorem(
    n_max: int = 5,
    sample: int = 10000,
    seed: int = 0,
    jobs: int = 1,
) -> CensusReport:
    """Check the structural classifier against exact eigenvalue comparisons.

    Exhausts every orientation of every connected underlying graph with up
    to min(n_max, 5) vertices, one ``LevelStats`` per vertex count, merged
    from one ``_tally_underlying`` per graph.  With ``n_max=6`` the
    six-vertex deep sweep also exhausts the six-vertex family graphs by the
    same class passes (K_6 in ``K6Stats``, with a seeded subsample of at
    least 10,000, and one ``LevelStats`` each for the two clique
    coalescences and K_{2,4} plus two edges) and runs ``sample`` seeded
    random spot checks across all 112 connected six-vertex graphs, tallied
    in one more ``LevelStats``.
    """
    if not 1 <= n_max <= 6:
        raise ValueError("census covers 1 <= n_max <= 6")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if sample < 0:
        raise ValueError("sample must be nonnegative")
    t0 = time.monotonic()
    deep_levels: list[LevelStats] = []
    k6_stats: K6Stats | None = None
    sample_stats: LevelStats | None = None
    with Pool(jobs) if jobs > 1 else nullcontext() as pool:
        pmap = pool.map if pool is not None else map
        levels = [
            _merged(LevelStats(n), pmap(_tally_underlying, enumerate_connected_graphs(n)))
            for n in range(1, min(n_max, 5) + 1)
        ]
        if n_max == 6:
            rng = random.Random(seed)
            labels, graphs = zip(*_deep_family_graphs())
            deep_levels = [
                replace(part, label=label)
                for label, part in zip(labels, pmap(_tally_underlying, graphs))
            ]
            k6_stats = _k6_sweep(pmap, rng, subsample=max(sample, 10000))
            six = enumerate_connected_graphs(6)
            # Each sample draws its graph first, then one of its orientations.
            picks = (six[rng.randrange(len(six))] for _ in range(sample))
            sample_stats = replace(
                _tally(_decided(orientation(g, rng.randrange(orientation_count(g))) for g in picks)),
                n=6,
            )
    return CensusReport(
        n_max=n_max,
        levels=levels,
        deep_levels=deep_levels,
        k6=k6_stats,
        sample=sample_stats,
        elapsed_seconds=time.monotonic() - t0,
    )
