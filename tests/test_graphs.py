from __future__ import annotations

import pickle
import random
from itertools import combinations

import numpy as np
import pytest
from prop_suites import random_mixed

from hermspec.graphs import (
    _ENTRY,
    _EXP_FROM_KIND,
    _FLIP,
    _KIND_FROM_EXP,
    _UNIT_FROM_EXP,
    EdgeKind,
    MixedGraph,
    build,
    coalescence,
    complete_graph,
    connected_components,
    converse,
    cycle_graph,
    decode,
    disjoint_union,
    hermitian_matrix,
    induced,
    is_connected,
    join,
    make_knst,
    path_graph,
    star_graph,
    underlying_graph,
)


def test_build_basic():
    m = build(3, [(0, 1, "undirected"), (1, 2, "arc")])
    assert m.kind(0, 1) == EdgeKind.UNDIRECTED
    assert m.kind(1, 2) == EdgeKind.ARC_OUT
    assert m.kind(2, 1) == EdgeKind.ARC_IN
    assert m.kind(0, 2) == EdgeKind.NONE
    assert m.edge_count() == 2


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        build(2, [(0, 0, "undirected")])
    with pytest.raises(ValueError):
        build(2, [(0, 5, "arc")])
    with pytest.raises(ValueError):
        build(3, [(0, 1, "arc"), (1, 0, "undirected")])
    with pytest.raises(ValueError, match="unknown edge kind"):
        build(2, [(0, 1, "loop")])
    with pytest.raises(ValueError, match="unknown edge kind"):
        build(2, [(0, 1, EdgeKind.NONE)])


def test_kinds_table_consistency_enforced():
    with pytest.raises(ValueError):
        MixedGraph(2, ((0, 2), (2, 0)))  # both claim an outgoing arc
    with pytest.raises(ValueError):
        MixedGraph(1, ((1,),))  # self-loop


def test_kinds_table_validation_messages():
    with pytest.raises(ValueError, match="self-loop at vertex 1"):
        MixedGraph(2, ((0, 0), (0, 1)))
    with pytest.raises(ValueError, match=r"bad kind 4 at pair \(0, 1\)"):
        MixedGraph(2, ((0, 4), (4, 0)))
    with pytest.raises(ValueError, match=r"bad kind -1 at pair \(0, 1\)"):
        MixedGraph(2, ((0, -1), (1, 0)))
    with pytest.raises(ValueError, match=r"bad kind 1\.5 at pair \(0, 1\)"):
        MixedGraph(2, ((0, 1.5), (1.5, 0)))
    with pytest.raises(ValueError, match=r"bad kind '1' at pair \(0, 1\)"):
        MixedGraph(2, ((0, "1"), ("1", 0)))
    with pytest.raises(ValueError, match=r"bad kind 1\.0 at pair \(1, 0\)"):
        MixedGraph(2, ((0, 1), (1.0, 0)))
    # A bool equals 0 or 1 but encodes as "True" or "False".
    with pytest.raises(ValueError, match=r"bad kind True at pair \(0, 1\)"):
        MixedGraph(2, ((0, True), (True, 0)))
    with pytest.raises(ValueError, match=r"bad kind True at pair \(1, 0\)"):
        MixedGraph(2, ((0, 1), (True, 0)))
    with pytest.raises(ValueError, match=r"bad kind False at pair \(0, 0\)"):
        MixedGraph(2, ((False, 0), (0, 0)))
    with pytest.raises(ValueError, match=r"inconsistent kinds at pair \(0, 1\)"):
        MixedGraph(2, ((0, 2), (2, 0)))
    with pytest.raises(ValueError, match=r"inconsistent kinds at pair \(1, 2\)"):
        MixedGraph(3, ((0, 1, 0), (1, 0, 3), (0, 3, 0)))
    for kinds in [((0, 1), (1,)), ((0, 1),), ((0, 1), (1, 0), (0, 0))]:
        with pytest.raises(ValueError, match="kinds table must be n x n"):
            MixedGraph(2, kinds)
    for k in range(4):
        flipped = int(EdgeKind(k).flipped())
        assert MixedGraph(2, ((0, k), (flipped, 0))).kinds[1][0] == flipped


def test_derived_graphs_pass_the_public_check():
    # induced, relabel and underlying_graph skip re-validation; their
    # tables must still be what the public constructor accepts.
    rng = random.Random(1207)
    for _ in range(400):
        n = rng.randrange(0, 9)
        m = random_mixed(rng, n, p=rng.uniform(0.1, 0.9))
        perm = list(range(n))
        rng.shuffle(perm)
        picked = rng.sample(range(n), rng.randrange(n + 1))
        for out in (
            induced(m, picked), induced(m, set(picked)), m.relabel(perm), underlying_graph(m)
        ):
            assert type(out.kinds) is tuple and all(type(row) is tuple for row in out.kinds)
            assert MixedGraph(out.n, out.kinds) == out


def test_hermitian_entries():
    m = build(3, [(0, 1, "undirected"), (1, 2, "arc")])
    h = hermitian_matrix(m)
    assert h[0, 1] == 1 and h[1, 0] == 1
    assert h[1, 2] == 1j and h[2, 1] == -1j
    assert h[0, 2] == 0


def test_entry_alphabet():
    # Every entry, unit and i-exponent table derives from one alphabet.
    assert _ENTRY[EdgeKind.NONE] == 0
    for k in (EdgeKind.UNDIRECTED, EdgeKind.ARC_OUT, EdgeKind.ARC_IN):
        e = _EXP_FROM_KIND[k]
        assert _ENTRY[k] == _UNIT_FROM_EXP[e] == 1j ** e
        assert _KIND_FROM_EXP[e] == k
        assert _ENTRY[_FLIP[k]] == _ENTRY[k].conjugate()
    assert _KIND_FROM_EXP[2] is None
    assert [e for e, k in enumerate(_KIND_FROM_EXP) if k is not None] == sorted(_EXP_FROM_KIND[1:])
    assert all(_UNIT_FROM_EXP[e] == 1j ** e for e in range(4))


def test_hermitian_matrix_is_hermitian_over_the_alphabet():
    rng = random.Random(15)
    for _ in range(200):
        n = rng.randrange(0, 10)
        m = random_mixed(rng, n, p=rng.uniform(0.1, 0.9))
        h = hermitian_matrix(m)
        assert h.shape == (n, n) and h.dtype == np.complex128
        assert (h == h.conj().T).all() and not h.diagonal().any()
        for u in range(n):
            for v in range(n):
                assert h[u, v] == _ENTRY[m.kinds[u][v]]


def test_encode_decode_round_trip():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randrange(1, 8)
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                k = rng.choice(
                    [None, EdgeKind.UNDIRECTED, EdgeKind.ARC_OUT, EdgeKind.ARC_IN]
                )
                if k is not None:
                    edges.append((u, v, k))
        m = build(n, edges)
        assert decode(n, m.encode()) == m
    # Only the ASCII digits encode writes are read back, never other Unicode
    # decimal digits (Arabic-Indic and fullwidth 3 and 2 here).
    for bad in ("0\u0663\u06620", "0\uff13\uff120", "0 10"):
        with pytest.raises(ValueError):
            decode(2, bad)


def test_relabel_moves_edges():
    m = build(3, [(0, 1, "arc")])
    r = m.relabel([2, 0, 1])  # old 0 -> new 2, old 1 -> new 0
    assert r.kind(2, 0) == EdgeKind.ARC_OUT
    assert r.kind(0, 2) == EdgeKind.ARC_IN
    assert r.edge_count() == 1


def test_induced_keeps_given_order():
    m = build(4, [(0, 1, "arc"), (1, 2, "undirected"), (2, 3, "arc")])
    sub = induced(m, (2, 1))
    assert sub.n == 2
    assert sub.kind(0, 1) == EdgeKind.UNDIRECTED
    sub2 = induced(m, (3, 2))
    assert sub2.kind(1, 0) == EdgeKind.ARC_OUT
    with pytest.raises(ValueError):
        induced(m, (1, 1))


def test_underlying_and_converse():
    m = build(3, [(0, 1, "arc"), (1, 2, "undirected")])
    g = underlying_graph(m)
    assert g.is_undirected() and g.edge_count() == 2
    c = converse(m)
    assert c.kind(0, 1) == EdgeKind.ARC_IN
    assert c.kind(1, 2) == EdgeKind.UNDIRECTED
    assert converse(c) == m


def test_constructors():
    assert complete_graph(4).edge_count() == 6
    assert path_graph(4).edge_count() == 3
    assert cycle_graph(5).edge_count() == 5
    assert star_graph(3).edge_count() == 3
    assert len(star_graph(3).neighbors(0)) == 3


def test_join_and_disjoint_union():
    g = join(complete_graph(2), complete_graph(2))
    assert g == complete_graph(4)
    u = disjoint_union(complete_graph(2), path_graph(2))
    assert u.n == 4 and u.kind(0, 1) and u.kind(2, 3) and not u.kind(1, 2)
    with pytest.raises(ValueError):
        join(build(2, [(0, 1, "arc")]), complete_graph(1))


def test_make_knst_pattern():
    m = make_knst(2, 3)
    assert m.n == 5
    for u in range(2):
        for v in range(2, 5):
            assert m.kind(u, v) == EdgeKind.ARC_OUT
    assert m.kind(0, 1) == EdgeKind.UNDIRECTED
    assert m.kind(3, 4) == EdgeKind.UNDIRECTED
    assert make_knst(0, 3) == complete_graph(3)
    with pytest.raises(ValueError):
        make_knst(0, 0)
    with pytest.raises(ValueError):
        make_knst(-1, 2)


def test_coalescence_glues_one_vertex():
    paw = coalescence(complete_graph(3), 0, path_graph(2), 0)
    assert paw.n == 4
    assert len(paw.neighbors(0)) == 3
    assert underlying_graph(paw).edge_count() == 4
    with pytest.raises(ValueError):
        coalescence(complete_graph(3), 7, path_graph(2), 0)


def test_connectivity():
    assert is_connected(complete_graph(3))
    assert not is_connected(disjoint_union(complete_graph(2), complete_graph(2)))
    comps = connected_components(disjoint_union(path_graph(2), path_graph(3)))
    assert [len(c) for c in comps] == [2, 3]
    assert is_connected(build(1, []))


def test_adjacency_matches_kinds():
    rng = random.Random(20)
    for _ in range(300):
        n = rng.randrange(0, 13)
        m = random_mixed(rng, n, p=rng.uniform(0.1, 0.9))
        fresh = MixedGraph(n, m.kinds)
        adj, out = m.adjacency, m.out_arcs
        assert type(adj) is tuple and len(adj) == n
        assert type(out) is tuple and len(out) == n
        for u in range(n):
            assert adj[u] == sum(1 << v for v in range(n) if m.kinds[u][v] != 0)
            assert out[u] == sum(1 << v for v in range(n) if m.kinds[u][v] == EdgeKind.ARC_OUT)
            assert m.neighbors(u) == tuple(v for v in range(n) if m.kinds[u][v] != 0)
            assert adj[u].bit_count() == len(m.neighbors(u))
        assert m.edge_count() == len(m.edges())
        # A cached mask takes no part in equality, hashing or the repr.
        assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)
        back = pickle.loads(pickle.dumps(m))
        assert back == m and back.adjacency == adj and back.out_arcs == out
        assert pickle.loads(pickle.dumps(fresh)).adjacency == adj


def _components_by_dfs(m):
    """The depth-first search over kind rows that ``connected_components``
    replaced, kept as its reference."""
    seen = [False] * m.n
    comps = []
    for s in range(m.n):
        if seen[s]:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in range(m.n):
                if not seen[y] and m.kinds[x][y] != EdgeKind.NONE:
                    seen[y] = True
                    stack.append(y)
        comps.append(sorted(comp))
    return comps


def test_connected_components_match_dfs_reference():
    graphs = []
    for n in range(6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [(u, v, "undirected") for i, (u, v) in enumerate(pairs) if mask >> i & 1]
            graphs.append(build(n, edges))
    rng = random.Random(2020)
    for _ in range(600):
        graphs.append(random_mixed(rng, rng.randrange(0, 13), p=rng.uniform(0.02, 0.5)))
    split = 0
    for m in graphs:
        want = _components_by_dfs(m)
        assert connected_components(m) == want, m.encode()
        assert is_connected(m) == (len(want) <= 1)
        split += len(want) > 1
    assert split > 600


# The table-filling constructors that predate building every graph through
# ``build``, kept as references for its edge lists.


def _empty_table(n: int) -> list[list[int]]:
    return [[0] * n for _ in range(n)]


def _set_pair(table: list[list[int]], u: int, v: int, kind: EdgeKind) -> None:
    table[u][v] = int(kind)
    table[v][u] = _FLIP[kind]


def _filled_coalescence(m1: MixedGraph, u: int, m2: MixedGraph, v: int) -> MixedGraph:
    if not 0 <= u < m1.n:
        raise ValueError(f"vertex {u} out of range in first graph")
    if not 0 <= v < m2.n:
        raise ValueError(f"vertex {v} out of range in second graph")
    n = m1.n + m2.n - 1
    table = _empty_table(n)
    for a in range(m1.n):
        for b in range(m1.n):
            table[a][b] = m1.kinds[a][b]
    mapping = {}
    nxt = m1.n
    for w in range(m2.n):
        if w == v:
            mapping[w] = u
        else:
            mapping[w] = nxt
            nxt += 1
    for a in range(m2.n):
        for b in range(m2.n):
            if a != b and m2.kinds[a][b] != EdgeKind.NONE:
                table[mapping[a]][mapping[b]] = m2.kinds[a][b]
    return MixedGraph(n, tuple(tuple(r) for r in table))


def _filled_make_knst(s: int, t: int) -> MixedGraph:
    if s < 0 or t < 0 or s + t == 0:
        raise ValueError("block sizes must be nonnegative and not both zero")
    n = s + t
    table = _empty_table(n)
    for a in range(n):
        for b in range(a + 1, n):
            if a < s and b >= s:
                _set_pair(table, a, b, EdgeKind.ARC_OUT)
            else:
                _set_pair(table, a, b, EdgeKind.UNDIRECTED)
    return MixedGraph(n, tuple(tuple(r) for r in table))


def _filled_disjoint_union(g: MixedGraph, h: MixedGraph) -> MixedGraph:
    n = g.n + h.n
    table = _empty_table(n)
    for a in range(g.n):
        for b in range(g.n):
            table[a][b] = g.kinds[a][b]
    for a in range(h.n):
        for b in range(h.n):
            table[g.n + a][g.n + b] = h.kinds[a][b]
    return MixedGraph(n, tuple(tuple(r) for r in table))


def _filled_join(g: MixedGraph, h: MixedGraph) -> MixedGraph:
    if not g.is_undirected() or not h.is_undirected():
        raise ValueError("join requires fully undirected inputs")
    base = _filled_disjoint_union(g, h)
    table = [list(row) for row in base.kinds]
    for a in range(g.n):
        for b in range(g.n, g.n + h.n):
            _set_pair(table, a, b, EdgeKind.UNDIRECTED)
    return MixedGraph(base.n, tuple(tuple(r) for r in table))


def _filled_complete_graph(n: int) -> MixedGraph:
    table = _empty_table(n)
    for a in range(n):
        for b in range(a + 1, n):
            _set_pair(table, a, b, EdgeKind.UNDIRECTED)
    return MixedGraph(n, tuple(tuple(r) for r in table))


def _same_result(new, old, *args):
    """Whether ``new`` and ``old`` give equal kind tables of plain ints, or
    raise the same error with the same message, on ``args``."""
    try:
        want = old(*args)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            new(*args)
        return str(got.value) == str(exc)
    got = new(*args)
    return got.n == want.n and got.kinds == want.kinds and all(
        type(k) is int for row in got.kinds for k in row
    )


def test_constructors_build_the_filled_tables():
    rng = random.Random(35)
    for _ in range(1000):
        g = random_mixed(rng, rng.randrange(0, 7), p=rng.uniform(0.1, 0.9))
        h = random_mixed(rng, rng.randrange(0, 7), p=rng.uniform(0.1, 0.9))
        assert _same_result(disjoint_union, _filled_disjoint_union, g, h)
        u, v = rng.randrange(-1, g.n + 1), rng.randrange(-1, h.n + 1)
        assert _same_result(coalescence, _filled_coalescence, g, u, h, v), (g, u, h, v)
        assert _same_result(join, _filled_join, g, h)  # raises unless both undirected
        g, h = underlying_graph(g), underlying_graph(h)
        assert _same_result(join, _filled_join, g, h)
    for n in range(-2, 9):
        assert _same_result(complete_graph, _filled_complete_graph, n)
    for s in range(-1, 6):
        for t in range(-1, 6):
            assert _same_result(make_knst, _filled_make_knst, s, t)
    with pytest.raises(ValueError, match="vertex count must be nonnegative"):
        complete_graph(-1)
