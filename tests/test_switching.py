from __future__ import annotations

import hashlib
import random
from collections import Counter

import pytest

from hermspec.census import orientation
from hermspec.classify import find_forbidden_triangle
from hermspec.graphs import (
    EdgeKind,
    MixedGraph,
    build,
    complete_graph,
    cycle_graph,
    disjoint_union,
    hermitian_matrix,
    make_knst,
    path_graph,
    underlying_graph,
)
from hermspec.spectra import char_poly
from hermspec.switching import (
    BadTriangleError,
    NotChordalError,
    SwitchDiagonal,
    apply_switch,
    normalize_chordal,
    perfect_elimination_ordering,
    random_switch,
    switching_equivalent,
)
from hermspec.switching import ChordlessCycle
from prop_suites import random_chordal


def _random_mixed(rng: random.Random, n: int, p: float = 0.6):
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append(
                    (u, v, rng.choice(
                        [EdgeKind.UNDIRECTED, EdgeKind.ARC_OUT, EdgeKind.ARC_IN]
                    ))
                )
    return build(n, edges)


def test_diagonal_validation():
    d = SwitchDiagonal([1, -1, 1j, -1j])
    assert d.exps == (0, 2, 1, 3)
    assert SwitchDiagonal.from_exponents([0, 5]).units == (1 + 0j, 1j)
    assert len(SwitchDiagonal([1] * 3)) == 3
    with pytest.raises(ValueError):
        SwitchDiagonal([1, 2])


def test_apply_switch_single_edge():
    e = build(2, [(0, 1, "undirected")])
    out = apply_switch(e, SwitchDiagonal([1, -1j]))
    assert out.kind(0, 1) == EdgeKind.ARC_OUT  # 1 * 1 * conj(-i) = i
    # diag(1, -1) would produce the entry -1, which no mixed graph has.
    with pytest.raises(ValueError, match="becomes -1"):
        apply_switch(e, SwitchDiagonal([1, -1]))
    with pytest.raises(ValueError):
        apply_switch(e, SwitchDiagonal([1, 1, 1]))


def test_switch_preserves_spectrum_and_underlying():
    rng = random.Random(31)
    for _ in range(80):
        m = _random_mixed(rng, rng.randrange(1, 8))
        out, d = random_switch(m, rng)
        switched = apply_switch(m, d)
        assert switched == out
        # apply_switch skips validation; its table must pass it anyway.
        assert MixedGraph(switched.n, switched.kinds) == switched
        assert underlying_graph(out) == underlying_graph(m)
        assert char_poly(out) == char_poly(m)


def test_random_switch_walk_is_pinned():
    # Pins every RNG draw of the walk: the classify_mix benchmark stream
    # is built from seeded walks and must not change.
    rng = random.Random(2024)
    digest = hashlib.sha256()
    for _ in range(300):
        m = _random_mixed(rng, rng.randrange(0, 10))
        out, d = random_switch(m, rng)
        digest.update(f"{out.encode()} {d.exps}\n".encode())
    assert digest.hexdigest() == (
        "cff4ccb7b05bf597f0435e1a8989f1a7eb37ff3c5846a21f6929aaf89aa59ca3"
    )


def test_switching_equivalent_finds_witness():
    rng = random.Random(32)
    for _ in range(60):
        m = _random_mixed(rng, rng.randrange(1, 8))
        out, _ = random_switch(m, rng)
        d = switching_equivalent(m, out)
        assert d is not None
        assert apply_switch(m, d) == out


def test_switching_equivalent_rejections():
    k3 = complete_graph(3)
    tilted = build(3, [(0, 1, "arc"), (0, 2, "undirected"), (1, 2, "undirected")])
    # Same underlying triangle, holonomy 1 vs i: provably inequivalent.
    assert switching_equivalent(k3, tilted) is None
    assert switching_equivalent(k3, path_graph(3)) is None
    assert switching_equivalent(k3, complete_graph(4)) is None
    # Same size and edge count, different labeled underlying graphs.
    assert switching_equivalent(path_graph(3), path_graph(3).relabel([1, 0, 2])) is None
    # A disconnected pair still works component by component.
    m = build(4, [(0, 1, "arc"), (2, 3, "arc")])
    out, _ = random_switch(m, random.Random(7))
    assert switching_equivalent(m, out) is not None


def test_perfect_elimination_ordering_chordal():
    for g in [complete_graph(5), path_graph(6), build(1, [])]:
        peo = perfect_elimination_ordering(g)
        assert isinstance(peo, tuple)
        assert sorted(peo) == list(range(g.n))
    with pytest.raises(ValueError):
        perfect_elimination_ordering(make_knst(1, 1))


def test_perfect_elimination_ordering_witness():
    for k in (4, 5, 6):
        witness = perfect_elimination_ordering(cycle_graph(k))
        assert isinstance(witness, ChordlessCycle)
        cyc = witness.vertices
        assert len(cyc) >= 4
        g = cycle_graph(k)
        # Consecutive vertices adjacent, all other pairs not.
        for i in range(len(cyc)):
            for j in range(i + 1, len(cyc)):
                adjacent = g.kind(cyc[i], cyc[j]) != EdgeKind.NONE
                consecutive = j - i == 1 or (i == 0 and j == len(cyc) - 1)
                assert adjacent == consecutive


def test_normalize_chordal_recovers_underlying():
    rng = random.Random(33)
    base = complete_graph(4)
    switched, _ = random_switch(base, rng)
    d = normalize_chordal(switched)
    assert apply_switch(switched, d) == base


def test_normalize_chordal_witnesses():
    with pytest.raises(NotChordalError) as err:
        normalize_chordal(cycle_graph(4))
    assert len(err.value.cycle.vertices) == 4
    spun = build(3, [(0, 1, "arc"), (1, 2, "undirected"), (0, 2, "undirected")])
    with pytest.raises(BadTriangleError) as err2:
        normalize_chordal(spun)
    assert sorted(err2.value.triangle) == [0, 1, 2]


def test_normalize_chordal_contract():
    # Seeded chordal inputs, connected or two components, both balanced
    # (switched from undirected) and randomly oriented.
    rng = random.Random(34)
    bases = []
    for n in range(1, 10):
        bases += [random_chordal(rng, n) for _ in range(120)]
    for _ in range(600):
        pair = (random_chordal(rng, rng.randrange(1, 7)) for _ in range(2))
        bases.append(disjoint_union(*pair))
    graphs = []
    for i, g in enumerate(bases):
        if i % 2:
            graphs.append(random_switch(g, rng)[0])
        else:
            graphs.append(orientation(g, rng.randrange(3 ** g.edge_count())))
    outcomes = Counter()
    for m in graphs:
        try:
            d = normalize_chordal(m)
        except BadTriangleError as err:
            assert find_forbidden_triangle(m) is not None, m.encode()
            u, v, w = err.triangle
            h = hermitian_matrix(m)
            assert h[u][v] and h[v][w] and h[w][u], m.encode()
            assert h[u][v] * h[v][w] * h[w][u] != 1, m.encode()
            outcomes["bad-triangle"] += 1
        else:
            assert find_forbidden_triangle(m) is None, m.encode()
            assert apply_switch(m, d) == underlying_graph(m), m.encode()
            outcomes["diagonal"] += 1
    assert outcomes["bad-triangle"] > 300 and outcomes["diagonal"] > 600
