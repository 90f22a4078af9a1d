from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

from hermspec.catalog import load_builtin, sporadic_underlying
import hermspec.census as census
import hermspec.classify as classify
import hermspec.spectra as spectra
from hermspec.census import (
    enumerate_connected_graphs, enumerate_orientations, orientation, verify_main_theorem,
)
from hermspec.classify import (
    FORBIDDEN_SUBGRAPHS,
    Certificate,
    Family,
    H2H4Details,
    H3Details,
    KnstMatch,
    NotKnst,
    QuadTag,
    SAFE_QUADS,
    SAFE_TRIANGLES,
    TriangleType,
    TRIANGLE_LAMBDA,
    QUAD_LAMBDA,
    classify_sqrt2,
    classify_threshold,
    find_forbidden_quadrangle,
    find_forbidden_triangle,
    find_induced,
    quad_class,
    recognize_knst,
    triangle_type,
    underlying_family,
)
from hermspec.graphs import (
    _EXP_FROM_KIND as _KEXP,
    EdgeKind,
    MixedGraph,
    build,
    coalescence,
    complete_graph,
    connected_components,
    cycle_graph,
    disjoint_union,
    induced,
    is_connected,
    join,
    make_knst,
    path_graph,
    star_graph,
    underlying_graph,
)
from hermspec.mgfile import parse_mgfile
from hermspec.polynomials import Trichotomy
from hermspec.quadratic import NEG_GOLDEN
from hermspec.spectra import compare_lambda_min, eigenvalues, f_cubic
from hermspec.switching import SwitchDiagonal, random_switch


def test_triangle_census():
    counts = Counter()
    for t in enumerate_orientations(complete_graph(3)):
        tt = triangle_type(t)
        counts[tt] += 1
        lam = eigenvalues(t).lambda_min
        assert abs(lam - TRIANGLE_LAMBDA[tt]) < 1e-9
        assert (tt in SAFE_TRIANGLES) == (abs(lam + 1.0) < 1e-9)
    assert counts == {
        TriangleType.K3: 1,
        TriangleType.K3_1: 6,
        TriangleType.K3_21: 6,
        TriangleType.K3_22: 3,
        TriangleType.K3_23: 3,
        TriangleType.K3_31: 2,
        TriangleType.K3_32: 6,
    }


def test_triangle_type_validation():
    with pytest.raises(ValueError):
        triangle_type(path_graph(3))
    with pytest.raises(ValueError):
        triangle_type(complete_graph(4))


def test_quadrangle_census():
    counts = Counter()
    for q in enumerate_orientations(cycle_graph(4)):
        qc = quad_class(q)
        counts[qc.tag] += 1
        lam = eigenvalues(q).lambda_min
        assert abs(lam - QUAD_LAMBDA[qc.tag]) < 1e-9
        if qc.tag is QuadTag.PLUS_ONE:
            assert qc.holonomy == 1
        elif qc.tag in SAFE_QUADS:
            assert qc.holonomy == -1
        else:
            assert qc.holonomy in (1j, -1j)
    assert counts == {
        QuadTag.PLUS_ONE: 21,
        QuadTag.IMAGINARY: 40,
        QuadTag.C4_1: 8,
        QuadTag.C4_2: 4,
        QuadTag.C4_3: 8,
    }


def test_quad_class_validation():
    with pytest.raises(ValueError):
        quad_class(complete_graph(4))
    with pytest.raises(ValueError):
        quad_class(path_graph(4))
    with pytest.raises(ValueError):
        quad_class(complete_graph(3))


def test_forbidden_scans():
    assert find_forbidden_triangle(complete_graph(4)) is None
    assert find_forbidden_triangle(make_knst(3, 2)) is None
    bad = build(3, [(0, 1, "arc"), (1, 2, "undirected"), (0, 2, "undirected")])
    planted = disjoint_union(complete_graph(2), bad)
    assert find_forbidden_triangle(planted) == (2, 3, 4)
    assert find_forbidden_quadrangle(cycle_graph(4)) == (0, 1, 2, 3)
    safe_quad = build(
        4,
        [(0, 1, "arc"), (1, 2, "arc"), (2, 3, "undirected"), (0, 3, "undirected")],
    )
    assert find_forbidden_quadrangle(safe_quad) is None


# The triangle and quadrangle scans as they stood before they read lookup
# tables and set bits, kept verbatim as references: both scans must return
# the same tuple, or None, on every graph.


def _triangle_reference(m):
    n = m.n
    for u in range(n):
        ku = m.kinds[u]
        for v in range(u + 1, n):
            if not ku[v]:
                continue
            kv = m.kinds[v]
            for w in range(v + 1, n):
                if ku[w] and kv[w]:
                    if (_KEXP[ku[v]] + _KEXP[kv[w]] + _KEXP[m.kinds[w][u]]) % 4:
                        return (u, v, w)
    return None


def _quadrangle_reference(m):
    n = m.n
    adj = m.adjacency
    for a in range(n):
        above = -1 << (a + 1)
        found = []
        for c in range(a + 1, n):
            if adj[a] >> c & 1:
                continue
            common = adj[a] & adj[c] & above
            if not common & (common - 1):  # fewer than two common neighbours
                continue
            mids = [v for v in range(a + 1, n) if common >> v & 1]
            for i, b in enumerate(mids):
                for d in mids[i + 1:]:
                    if not adj[b] >> d & 1 and classify._holonomy_exp(m, a, b, c, d) != 2:
                        found.append((a, b, c, d))
        if found:
            return min(found, key=sorted)
    return None


def test_scans_match_their_loop_references():
    graphs = [
        m for n in range(1, 6) for g in enumerate_connected_graphs(n)
        for m in enumerate_orientations(g)
    ]
    assert len(graphs) == 106_933
    rng = random.Random(2424)
    for _ in range(3000):
        graphs.append(_random_mixed(rng, rng.randint(1, 12), rng.uniform(0.05, 1.0)))
    for n in range(1, 13):
        graphs.append(random_switch(make_knst(n // 3, n - n // 3), rng)[0])
    # Past n = 12, with and without a triangle to find; reorienting the last
    # pair of a triangle-safe form puts its first bad triangle at the end.
    for n in range(13, 17):
        graphs += [_random_mixed(rng, n, rng.uniform(0.05, 1.0)) for _ in range(40)]
        safe = random_switch(make_knst(n // 3, n - n // 3), rng)[0]
        table = [list(row) for row in safe.kinds]
        undirected = table[n - 2][n - 1] == EdgeKind.UNDIRECTED
        table[n - 2][n - 1] = EdgeKind.ARC_OUT if undirected else EdgeKind.UNDIRECTED
        table[n - 1][n - 2] = EdgeKind.ARC_IN if undirected else EdgeKind.UNDIRECTED
        graphs += [safe, MixedGraph(n, tuple(map(tuple, table)))]
        assert _triangle_reference(graphs[-2]) is None
        assert _triangle_reference(graphs[-1]) == (0, n - 2, n - 1)
    triangles = quadrangles = 0
    for m in graphs:
        want = _triangle_reference(m)
        assert find_forbidden_triangle(m) == want, m.encode()
        triangles += want is not None
        want = _quadrangle_reference(m)
        assert find_forbidden_quadrangle(m) == want, m.encode()
        quadrangles += want is not None
    # Both outcomes of both scans are well represented.
    assert triangles > 100_000 and len(graphs) - triangles > 3_000
    assert quadrangles > 5_000


def _quadrangle_by_subsets(m):
    """Reference scan: the first 4-subset, in combinations order, that
    induces a quadrangle whose holonomy is not -1."""
    for vs in combinations(range(m.n), 4):
        cyc = classify._cycle_order4(m, vs)
        if cyc is not None and classify._holonomy_exp(m, *cyc) != 2:
            return cyc
    return None


def _random_mixed(rng, n, density):
    edges = []
    for u, v in combinations(range(n), 2):
        if rng.random() < density:
            roll = rng.randrange(3)
            edges.append((u, v, "undirected") if roll == 0 else
                         (u, v, "arc") if roll == 1 else (v, u, "arc"))
    return build(n, edges)


def test_quadrangle_search_matches_subset_scan():
    graphs = [
        m for n in range(1, 6) for g in enumerate_connected_graphs(n)
        for m in enumerate_orientations(g)
    ]
    rng = random.Random(47)
    for _ in range(1500):
        graphs.append(_random_mixed(rng, rng.randint(4, 12), rng.uniform(0.1, 0.9)))
    for n in range(1, 13):
        graphs.append(complete_graph(n))
        graphs.append(random_switch(make_knst(n // 2, n - n // 2), rng)[0])
    for half in range(2, 7):
        kmm = join(build(half, []), build(half, []))
        graphs.append(kmm)
        for _ in range(20):
            graphs.append(random_switch(kmm, rng)[0])
            oriented = _random_mixed(rng, 2 * half, 1.0)
            graphs.append(build(2 * half, [
                (u, v, kind) for u, v, kind in oriented.edges()
                if kmm.kinds[u][v] and rng.random() < 0.9
            ]))
    found = 0
    for m in graphs:
        want = _quadrangle_by_subsets(m)
        assert find_forbidden_quadrangle(m) == want
        found += want is not None
    assert found > 1000


def test_reject_patterns_named_from_kind_table():
    seen = set()
    for g in enumerate_connected_graphs(4):
        for m in enumerate_orientations(g):
            w = classify_threshold(m).witness
            if w is None or w.kind not in ("triangle", "quadrangle"):
                continue
            sub = induced(m, w.vertices)
            name = triangle_type(sub).value if w.kind == "triangle" else quad_class(sub).tag.value
            assert w.pattern == name
            seen.add(name)
    assert len(seen) == 4 + 2  # forbidden triangle types, plus-one and imaginary


def test_block_bound_runs_sturm_once_per_block_size(monkeypatch):
    sturm_runs = []
    sturm = spectra.compare_min_root

    def counting(poly, c):
        sturm_runs.append(poly)
        return sturm(poly, c)

    monkeypatch.setattr(spectra, "compare_min_root", counting)
    spectra._compare_cached.cache_clear()
    classify._two_clique_bound.cache_clear()
    h4s = [
        coalescence(make_knst(3, 1), 0, complete_graph(2), 0),
        coalescence(make_knst(2, 2), 1, complete_graph(2), 1),
    ]
    for m in h4s:
        cert = classify_threshold(m)
        assert cert.family is Family.H4 and (cert.details.s, cert.details.t) == (3, 1)
        assert cert.verify(m)
    assert sturm_runs == [f_cubic(3, 1)]
    spectra._compare_cached.cache_clear()


def test_recognize_knst_positive():
    rng = random.Random(41)
    for s, t in [(1, 0), (3, 0), (2, 2), (4, 3), (1, 5)]:
        m = make_knst(s, t)
        match = recognize_knst(m)
        assert match == KnstMatch(s, t, tuple(range(s)), tuple(range(s, s + t)))
        # Still recognized after relabeling and switching.
        perm = list(range(m.n))
        rng.shuffle(perm)
        shuffled, _ = random_switch(m.relabel(perm), rng)
        got = recognize_knst(shuffled)
        # Switching can slide vertices between the sides but never leaves
        # the family, so only the total is pinned.
        assert isinstance(got, KnstMatch)
        assert got.s + got.t == s + t
        for x in got.s_side:
            for y in got.t_side:
                assert shuffled.kind(x, y).name == "ARC_OUT"


def test_recognize_knst_negative():
    res = recognize_knst(path_graph(3))
    assert isinstance(res, NotKnst) and res.reason == "not-complete"
    assert res.witness == (0, 2)
    spun = build(3, [(0, 1, "arc"), (1, 2, "arc"), (2, 0, "arc")])
    res2 = recognize_knst(spun)
    assert isinstance(res2, NotKnst) and res2.reason == "forbidden-triangle"
    # Complete underlying graph, but one lone arc makes a bad triangle.
    lone = build(
        4,
        [(0, 1, "arc")]
        + [(u, v, "undirected") for u in range(4) for v in range(u + 1, 4) if (u, v) != (0, 1)],
    )
    res3 = recognize_knst(lone)
    assert isinstance(res3, NotKnst) and res3.reason == "forbidden-triangle"


def test_recognize_knst_all_relabelings_of_k42():
    from itertools import permutations

    m = make_knst(2, 2)
    for perm in permutations(range(4)):
        got = recognize_knst(m.relabel(list(perm)))
        assert isinstance(got, KnstMatch)
        assert (got.s, got.t) == (2, 2)
        # Arcs go from every s_side vertex to every t_side vertex.
        g = m.relabel(list(perm))
        for x in got.s_side:
            for y in got.t_side:
                assert g.kind(x, y).name == "ARC_OUT"


def _recognize_knst_reference(m):
    """``recognize_knst`` with its first arc taken from ``m.edges()``."""
    n = m.n
    for u, v in combinations(range(n), 2):
        if not m.kinds[u][v]:
            return NotKnst("not-complete", (u, v))
    tri = find_forbidden_triangle(m)
    if tri is not None:
        return NotKnst("forbidden-triangle", tri)
    if n == 1:
        return KnstMatch(1, 0, (0,), ())
    arcs = [(u, v) for u, v, k in m.edges() if k.name == "ARC_OUT"]
    if not arcs:
        return KnstMatch(n, 0, tuple(range(n)), ())
    tail, head = arcs[0]
    row = [m.kind(tail, w).name for w in range(n)]
    s_side = [w for w in range(n) if w == tail or row[w] == "UNDIRECTED"]
    t_side = [w for w in range(n) if row[w] == "ARC_OUT"]
    if len(s_side) + len(t_side) != n:
        return NotKnst("forbidden-triangle", (tail, head, row.index("ARC_IN")))
    for side in (s_side, t_side):
        for x, y in combinations(side, 2):
            if m.kind(x, y).name != "UNDIRECTED":
                pivot = tail if tail not in (x, y) else head
                return NotKnst("forbidden-triangle", (pivot, x, y))
    for x in s_side:
        for y in t_side:
            if m.kind(x, y).name != "ARC_OUT":
                return NotKnst("forbidden-triangle", (x, y, tail if x != tail else head))
    return KnstMatch(len(s_side), len(t_side), tuple(s_side), tuple(t_side))


def test_recognize_knst_matches_edges_reference():
    matches = 0
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            for m in enumerate_orientations(g):
                got = recognize_knst(m)
                assert got == _recognize_knst_reference(m), m.encode()
                matches += isinstance(got, KnstMatch)
    assert matches == 1 + 3 + 7 + 15 + 31  # the H3 accepts of the census


def test_recognize_knst_matches_edges_reference_on_larger_complete_graphs():
    # Scrambled K_n[s, t] for n = 6..10, each also with one pair re-oriented,
    # which mostly plants a forbidden triangle.
    rng = random.Random(1720)
    for _ in range(200):
        n = rng.randint(6, 10)
        s = rng.randint(0, n)
        m, _ = random_switch(make_knst(s, n - s).relabel(rng.sample(range(n), n)), rng)
        u, v = rng.sample(range(n), 2)
        kinds = [list(row) for row in m.kinds]
        kind = rng.choice([EdgeKind.UNDIRECTED, EdgeKind.ARC_OUT, EdgeKind.ARC_IN])
        kinds[u][v], kinds[v][u] = kind, kind.flipped()
        flipped = MixedGraph(n, tuple(map(tuple, kinds)))
        for g in (m, flipped):
            got = recognize_knst(g)
            assert got == _recognize_knst_reference(g), g.encode()
        assert isinstance(recognize_knst(m), KnstMatch)


def _recognize_knst_rows(m):
    """The row-based ``recognize_knst`` that ``classify._knst_on`` replaced,
    kept verbatim as its reference."""
    n, k = m.n, m.kinds
    und, out, into = EdgeKind.UNDIRECTED, EdgeKind.ARC_OUT, EdgeKind.ARC_IN
    tail = next((u for u in range(n) if out in k[u]), None)
    in_s = [True] * n if tail is None else [
        w == tail or kind == und for w, kind in enumerate(k[tail])
    ]
    s_row = [und if side else out for side in in_s]
    t_row = [into if side else und for side in in_s]
    for x, side in enumerate(in_s):
        row = (s_row if side else t_row).copy()
        row[x] = 0
        if tuple(row) != k[x]:
            break
    else:
        s_side = tuple(w for w in range(n) if in_s[w])
        t_side = tuple(w for w in range(n) if not in_s[w])
        return KnstMatch(len(s_side), len(t_side), s_side, t_side)
    for u in range(n):
        for v in range(u + 1, n):
            if not k[u][v]:
                return NotKnst("not-complete", (u, v))
    return NotKnst("forbidden-triangle", find_forbidden_triangle(m))


def test_block_knst_matches_induced_reference():
    def check(m, block):
        want = _recognize_knst_rows(induced(m, block))
        got = classify._knst_on(m, block)
        assert got == (want if isinstance(want, KnstMatch) else None), (m.encode(), block)
        return got is not None

    matches = 0
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            for m in enumerate_orientations(g):
                matches += check(m, range(n))
    assert matches == 1 + 3 + 7 + 15 + 31
    # Switched and relabelled K_n[s, t], each also with one pair re-kinded,
    # and random blocks of both in random order.
    rng = random.Random(2525)
    matches = blocks = 0
    for _ in range(400):
        n = rng.randint(1, 12)
        s = rng.randint(0, n)
        m, _ = random_switch(make_knst(s, n - s).relabel(rng.sample(range(n), n)), rng)
        graphs = [m]
        if n > 1:
            u, v = rng.sample(range(n), 2)
            kinds = [list(row) for row in m.kinds]
            kind = rng.choice([EdgeKind.NONE, EdgeKind.UNDIRECTED, EdgeKind.ARC_OUT])
            kinds[u][v], kinds[v][u] = kind, kind.flipped()
            graphs.append(MixedGraph(n, tuple(map(tuple, kinds))))
        for g in graphs:
            matches += check(g, range(n))
            for _ in range(5):
                block = rng.sample(range(n), rng.randint(1, n))
                blocks += check(g, block)
    assert matches > 400 and 0 < blocks < 4000


def _oriented_clique(rng, size):
    s = rng.randint(0, size)
    return make_knst(s, size - s)


def test_h2_h4_classify_and_verify_build_no_induced_subgraph(monkeypatch):
    calls = []

    def counting(m, vertices):
        calls.append(tuple(vertices))
        return induced(m, vertices)

    monkeypatch.setattr(classify, "induced", counting)
    rng = random.Random(2526)
    families = Counter()
    for s, t in [(1, 1), (2, 1), (5, 1), (2, 2), (3, 2), (9, 1)]:
        for _ in range(5):
            a, b = _oriented_clique(rng, s + 1), _oriented_clique(rng, t + 1)
            m = coalescence(a, rng.randrange(s + 1), b, rng.randrange(t + 1))
            m, _ = random_switch(m.relabel(rng.sample(range(m.n), m.n)), rng)
            cert = classify_threshold(m)
            assert cert.family in (Family.H2, Family.H4) and cert.verify(m)
            families[cert.family] += 1
    assert calls == [] and families[Family.H2] == 10 and families[Family.H4] == 20
    # The patch is seen: a reject witness is still checked on its subgraph.
    p4 = path_graph(4)
    assert classify_threshold(p4).verify(p4) and calls == [(0, 1, 2, 3)]


def test_verify_rejects_a_knst_slot_that_is_no_match():
    p3 = path_graph(3)
    not_knst = recognize_knst(p3)
    assert isinstance(not_knst, NotKnst)
    assert not Certificate(True, Family.H3, H3Details(not_knst), None).verify(p3)
    # A coalescence at vertex 0 of a holonomy -1 triangle and an edge: the
    # triangle block is no K_n[s, t], so no value in its slot may verify.
    m = coalescence(build(3, [(0, 1, "arc"), (1, 2, "arc"), (0, 2, "undirected")]), 0,
                    complete_graph(2), 0)
    edge = KnstMatch(2, 0, (0, 1), ())
    for slot in (None, recognize_knst(induced(m, (0, 1, 2))), KnstMatch(3, 0, (0, 1, 2), ())):
        details = H2H4Details(0, (0, 1, 2), (0, 3), slot, edge, 2, 1)
        assert not Certificate(True, Family.H4, details, None).verify(m)
    h4 = coalescence(complete_graph(4), 0, complete_graph(2), 0)
    cert = classify_threshold(h4)
    for bad in (replace(cert.details, t=1.0), replace(cert.details, s="3")):
        assert not replace(cert, details=bad).verify(h4)


def test_find_induced():
    hit = find_induced(cycle_graph(5), path_graph(4))
    assert hit is not None
    g = cycle_graph(5)
    for i in range(4):
        for j in range(i + 1, 4):
            want = path_graph(4).kinds[i][j] != 0
            assert (g.kinds[hit[i]][hit[j]] != 0) == want
    assert find_induced(complete_graph(4), star_graph(3)) is None
    assert find_induced(complete_graph(4), complete_graph(3)) == (0, 1, 2)
    with pytest.raises(ValueError):
        find_induced(make_knst(1, 1), path_graph(2))
    with pytest.raises(ValueError):
        find_induced(complete_graph(7), complete_graph(7))


def test_automorphisms_match_permutation_filter():
    from itertools import permutations

    graphs = [g for n in range(1, 7) for g in enumerate_connected_graphs(n)]
    graphs += list(sporadic_underlying().values())
    for g in graphs:
        n = g.n
        want = tuple(
            p for p in permutations(range(n))
            if all(
                (g.kinds[u][v] != 0) == (g.kinds[p[u]][p[v]] != 0)
                for u in range(n) for v in range(u + 1, n)
            )
        )
        assert census._automorphisms(g) == want


#: Forbidden graphs that contain an induced copy of an entry of
#: ``FORBIDDEN_SUBGRAPHS``, so the search never names them first.
_REDUNDANT_FORBIDDEN = (
    ("K_{2,3}", join(build(2, []), build(3, []))),
    ("K_2 v 3K_1", join(complete_graph(2), build(3, []))),
    ("2K_1 v K_3", join(build(2, []), complete_graph(3))),
)


def test_embeddings_match_permutation_filter():
    from itertools import permutations

    rng = random.Random(22)
    graphs = [g for n in range(1, 7) for g in enumerate_connected_graphs(n)]
    graphs += [_random_mixed(rng, rng.randrange(1, 9), rng.uniform(0.2, 0.9)) for _ in range(40)]
    patterns = [p for _, p in FORBIDDEN_SUBGRAPHS] + list(sporadic_underlying().values())
    patterns += [p for _, p in _REDUNDANT_FORBIDDEN]
    patterns += [build(0, []), build(9, [])]  # empty, and larger than every g
    for g in graphs:
        for pattern in patterns:
            k = pattern.n
            pairs = [(i, j, pattern.kinds[i][j] != 0) for i in range(k) for j in range(i + 1, k)]
            want = [
                p for p in permutations(range(g.n), k)
                if all((g.kinds[p[i]][p[j]] != 0) == joined for i, j, joined in pairs)
            ]
            assert list(classify._embeddings(g.adjacency, pattern)) == want


def test_underlying_family():
    assert underlying_family(complete_graph(5)).label == "complete"
    bowtie = coalescence(complete_graph(3), 0, complete_graph(3), 0)
    fam = underlying_family(bowtie)
    assert (fam.label, fam.s, fam.t, fam.cut_vertex) == ("two-cliques", 2, 2, 0)
    paw = coalescence(complete_graph(3), 0, complete_graph(2), 0)
    fam2 = underlying_family(paw)
    assert (fam2.label, fam2.s, fam2.t) == ("two-cliques", 2, 1)
    assert underlying_family(cycle_graph(4)).label == "c4"
    for label, g in sporadic_underlying().items():
        assert underlying_family(g).label == label
        # Recognition is label-independent.
        perm = list(range(g.n))[::-1]
        assert underlying_family(g.relabel(perm)).label == label
    assert underlying_family(star_graph(3)) is None
    assert underlying_family(path_graph(4)) is None
    with pytest.raises(ValueError):
        underlying_family(make_knst(1, 1))
    with pytest.raises(ValueError):
        underlying_family(disjoint_union(complete_graph(2), complete_graph(2)))


def _family_by_components(g):
    """The two-cliques recognition by induced subgraph and components, kept
    as the reference for the neighbourhood-mask reading in ``_family_of``."""
    n = g.n
    if all(g.kinds[u][v] for u in range(n) for v in range(u + 1, n)):
        return classify.FamilyMatch("complete", s=max(n - 1, 0), t=0)
    for v in range(n):
        if len(g.neighbors(v)) != n - 1:
            continue
        rest = [w for w in range(n) if w != v]
        sub = induced(g, rest)
        comps = connected_components(sub)
        if len(comps) != 2:
            continue
        if all(sub.kinds[a][b] for comp in comps for a in comp for b in comp if a != b):
            c1 = tuple(rest[i] for i in comps[0])
            c2 = tuple(rest[i] for i in comps[1])
            if len(c1) < len(c2):
                c1, c2 = c2, c1
            return classify.FamilyMatch(
                "two-cliques", s=len(c1), t=len(c2), cut_vertex=v, parts=(c1, c2)
            )
    sizes = {"c4": 4, "diamond": 4, "k23-plus-edge": 5, "k24-plus-2edges": 6}
    for label, pattern in sporadic_underlying().items():
        if n == sizes[label] and g.edge_count() == pattern.edge_count():
            hit = find_induced(g, pattern)
            if hit is not None:
                return classify.FamilyMatch(label, embedding=hit)
    return None


def test_family_of_matches_component_reference():
    rng = random.Random(18)
    graphs = []
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            graphs += [g, g.relabel(rng.sample(range(n), n))]
    labels = Counter()
    for _ in range(600):
        # Two or three cliques glued at one vertex, relabeled, and near
        # misses one pair toggle away from such a coalescence.
        parts = [rng.randrange(2, 7) for _ in range(rng.choice((2, 2, 3)))]
        g = complete_graph(parts[0])
        for size in parts[1:]:
            if g.n + size - 1 <= 12:
                g = coalescence(g, 0, complete_graph(size), 0)
        if rng.random() < 0.6:
            u, v = rng.sample(range(g.n), 2)
            table = [list(row) for row in g.kinds]
            table[u][v] = table[v][u] = 1 - table[u][v]
            g = MixedGraph(g.n, tuple(map(tuple, table)))
            if not connected_components(g)[0] == list(range(g.n)):
                continue
        graphs.append(g.relabel(rng.sample(range(g.n), g.n)))
    for g in graphs:
        want = _family_by_components(g)
        got = classify._family_of(g)
        assert got == want, g.encode()
        if got is not None:
            assert got.parts == want.parts and got.embedding == want.embedding
        labels[None if got is None else got.label] += 1
    assert labels["two-cliques"] > 150 and labels[None] > 500 and len(labels) == 7


def test_family_of_reads_only_connections():
    # _classify hands the oriented graph to _family_of; the match, and the
    # embedding H1 matching relabels by, must be those of its underlying graph.
    graphs = [
        m for g in sporadic_underlying().values() for m in enumerate_orientations(g)
    ]
    rng = random.Random(1920)
    for _ in range(800):
        m = _random_mixed(rng, rng.randint(1, 12), rng.uniform(0.3, 1.0))
        if is_connected(m):
            graphs.append(m)
    labels = Counter()
    for m in graphs:
        got, want = classify._family_of(m), classify._family_of(underlying_graph(m))
        assert got == want, m.encode()
        if got is not None:
            assert got.parts == want.parts and got.embedding == want.embedding
        labels[None if got is None else got.label] += 1
    assert labels["k24-plus-2edges"] == 3 ** 10 and len(labels) == 7


def test_classify_accept_h3():
    cert = classify_threshold(make_knst(4, 3))
    assert cert.accepted and cert.family is Family.H3
    assert compare_lambda_min(make_knst(4, 3), NEG_GOLDEN) is Trichotomy.GREATER
    assert cert.summary() == "accept H3 s=4 t=3"
    assert cert.verify(make_knst(4, 3))
    # A graph with a different underlying shape must not verify.
    assert not cert.verify(path_graph(7))
    single = classify_threshold(build(1, []))
    assert single.accepted and single.family is Family.H3


def test_classify_accept_h2_h4():
    bowtie = coalescence(complete_graph(3), 0, complete_graph(3), 0)
    cert = classify_threshold(bowtie)
    assert cert.accepted and cert.family is Family.H2
    assert cert.summary() == "accept H2 cut=0 s=2 t=2"
    assert cert.verify(bowtie)
    paw = coalescence(complete_graph(3), 0, complete_graph(2), 0)
    cert2 = classify_threshold(paw)
    assert cert2.accepted and cert2.family is Family.H4
    assert cert2.details.t == 1
    assert cert2.verify(paw)


def test_verify_rejects_forged_h2_h4_fields():
    def forge(m, family, blocks, s, t, **changes):
        k1, k2 = (recognize_knst(induced(m, b)) for b in blocks)
        details = replace(
            H2H4Details(blocks[0][0], *blocks, k1, k2, s, t), **changes
        )
        return Certificate(True, family, details, None)

    # K_5.K_3 fails the block bound (lambda_min ~ -1.6262); claiming the
    # bowtie's sizes s = t = 2 must not make it verify.
    big = coalescence(complete_graph(5), 0, complete_graph(3), 0)
    blocks = ((0, 1, 2, 3, 4), (0, 5, 6))
    assert not forge(big, Family.H2, blocks, 2, 2).verify(big)
    assert not forge(big, Family.H2, blocks, 4, 2).verify(big)

    m = coalescence(make_knst(2, 2), 0, complete_graph(3), 0)
    blocks = ((0, 1, 2, 3), (0, 4, 5))
    assert forge(m, Family.H2, blocks, 3, 2).verify(m)
    assert not forge(m, Family.H2, blocks, 2, 3).verify(m)
    assert not forge(m, Family.H4, blocks, 3, 2).verify(m)
    k3 = recognize_knst(induced(m, blocks[1]))
    assert not forge(m, Family.H2, blocks, 3, 2, knst1=k3).verify(m)
    assert not forge(m, Family.H2, blocks, 3, 2, block2=(0, 4, 4)).verify(m)

    # K_3 split into itself and the cut vertex alone passes every block
    # check, but two cliques have sizes s, t >= 1: False, not a raise.
    tri = make_knst(3, 0)
    assert not forge(tri, Family.H2, ((0, 1, 2), (0,)), 2, 0).verify(tri)
    assert not forge(tri, Family.H2, ((0,), (0, 1, 2)), 0, 2).verify(tri)


def test_verify_h3_requires_a_partition():
    m = make_knst(3, 2)

    def forge(s, t, s_side, t_side):
        return Certificate(True, Family.H3, H3Details(KnstMatch(s, t, s_side, t_side)), None)

    assert forge(3, 2, (0, 1, 2), (3, 4)).verify(m)
    assert not forge(3, 2, (0, 0, 1), (3, 4)).verify(m)
    assert not forge(3, 2, (0, 1), (3, 4)).verify(m)
    assert not forge(2, 3, (0, 1, 2), (3, 4)).verify(m)
    # The empty graph has no smallest eigenvalue, so no accept verifies on it.
    assert forge(0, 0, (), ()).verify(build(0, [])) is False


def test_verify_h3_requires_the_true_split():
    # Every s/t split of K_n[s,t] is switching equivalent to K_n, so only the
    # split the graph's arcs actually show may verify.
    m = make_knst(4, 3)
    cert = classify_threshold(m)
    assert cert.verify(m)
    for s_side, t_side in [
        (tuple(range(7)), ()),
        ((0, 1), (2, 3, 4, 5, 6)),
        ((4, 5, 6), (0, 1, 2, 3)),
    ]:
        knst = KnstMatch(len(s_side), len(t_side), s_side, t_side)
        assert not replace(cert, details=H3Details(knst)).verify(m)
    assert not cert.verify(complete_graph(7))
    assert not cert.verify(make_knst(3, 4))


def test_verify_returns_false_on_malformed_input():
    m = load_builtin().records[0].graph()
    cert = classify_threshold(m)
    assert cert.family is Family.H1 and cert.verify(m)
    bad_details = [
        replace(cert.details, perm=cert.details.perm[:-1]),
        replace(cert.details, perm=(0,) * m.n),
        replace(cert.details, diagonal=SwitchDiagonal([1] * (m.n - 1))),
        # -1 at vertex 0 turns its undirected edges into -1 entries.
        replace(cert.details, diagonal=SwitchDiagonal([-1] + [1] * (m.n - 1))),
        replace(cert.details, perm=tuple(float(v) for v in cert.details.perm)),
        replace(cert.details, perm=None),
        replace(cert.details, diagonal=None),
    ]
    for details in bad_details:
        assert not replace(cert, details=details).verify(m)

    h4 = coalescence(complete_graph(4), 0, complete_graph(2), 0)
    cert = classify_threshold(h4)
    assert cert.family is Family.H4 and cert.verify(h4)
    det = cert.details
    bad_details = [
        replace(det, cut_vertex=float(det.cut_vertex)),
        replace(det, block1=det.block1[:1] + (float(det.block1[1]),) + det.block1[2:]),
        replace(det, block2=det.block2[:1] + (str(det.block2[1]),)),
        replace(det, block1=None),
        replace(det, block2=None),
    ]
    for details in bad_details:
        assert not replace(cert, details=details).verify(h4)

    p4 = path_graph(4)
    reject = classify_threshold(p4)
    assert reject.witness.vertices == (0, 1, 2, 3) and reject.verify(p4)
    for vertices in [(0, 0, 1, 2), (0, 1, 2, 9), (), (0.0, 1, 2, 3), ("0", 1, 2, 3), None]:
        witness = replace(reject.witness, vertices=vertices)
        assert not replace(reject, witness=witness).verify(p4)


def test_verify_checks_what_a_reject_witness_names():
    k3_21 = build(3, [(0, 1, "arc"), (1, 2, "arc"), (0, 2, "undirected")])
    c4 = cycle_graph(4)
    p5 = path_graph(5)
    two_cliques = coalescence(complete_graph(5), 0, complete_graph(3), 0)
    p4 = path_graph(4)
    forged = []
    for m in (k3_21, c4, p5, two_cliques, p4):
        cert = classify_threshold(m)
        assert not cert.accepted and cert.verify(m)
        w = cert.witness
        forged += [
            (m, replace(cert, witness=replace(w, lambda_min=5.0))),
            (m, replace(cert, witness=replace(w, lambda_min="-2"))),
            (m, replace(cert, witness=replace(w, kind="induced"))),
            (m, replace(cert, witness=replace(w, pattern="K3"))),
        ]
    assert classify_threshold(k3_21).witness.pattern == "K3_21"
    assert classify_threshold(c4).witness.pattern == "plus-one"
    for m, kind, pattern, vertices in [
        (k3_21, "quadrangle", "K3_21", (0, 1, 2)),
        (k3_21, "forbidden-subgraph", "K3_21", (0, 1, 2)),
        (c4, "quadrangle", "C4_1", (0, 1, 2, 3)),
        (c4, "triangle", "plus-one", (0, 1, 2, 3)),
        (c4, "forbidden-subgraph", "P_4", (0, 1, 2, 3)),
        # P_5's induced P_4 sits on the threshold, but it is no K_{1,3}.
        (p5, "forbidden-subgraph", "K_{1,3}", (1, 2, 3, 4)),
        (p5, "threshold", "two-cliques", (0, 1, 2, 3, 4)),
        (two_cliques, "threshold", "two-cliques", (0,)),
        (two_cliques, "threshold", "P_4", tuple(range(7))),
        (p4, "threshold", "two-cliques", (0, 1, 2, 3)),
    ]:
        cert = classify_threshold(m)
        witness = replace(cert.witness, kind=kind, pattern=pattern, vertices=vertices)
        forged.append((m, replace(cert, witness=witness)))
    forged.append((p4, replace(classify_threshold(p4), witness=("forbidden-subgraph",))))
    for m, bad in forged:
        assert bad.verify(m) is False, bad.witness

    rejects = 0
    for n in range(1, 5):
        for g in enumerate_connected_graphs(n):
            for m in enumerate_orientations(g):
                cert = classify_threshold(m)
                if not cert.accepted:
                    rejects += 1
                    assert cert.verify(m), m.encode()
    assert rejects == 1135


def test_verify_returns_false_when_details_do_not_fit_family():
    record = load_builtin().by_id("c4-01")
    m = record.graph()
    cert = classify_threshold(m)
    assert cert.family is Family.H1 and cert.verify(m)
    forged = [
        replace(cert, details=None),
        replace(cert, family=Family.H3),
        replace(cert, family=Family.H2),
        replace(cert, family=Family.H4),
    ]
    for bad in forged:
        assert not bad.verify(m)


def test_verify_checks_every_field_of_a_certificate():
    certs = [
        (m, classify_threshold(m))
        for n in range(1, 5)
        for g in enumerate_connected_graphs(n)
        for m in enumerate_orientations(g)
    ]
    accepts = [(m, c) for m, c in certs if c.accepted]
    rejects = [(m, c) for m, c in certs if not c.accepted]
    assert (len(accepts), len(rejects)) == (93, 1135)
    witness = rejects[0][1].witness
    for m, cert in accepts:
        assert cert.verify(m), m.encode()
        forged = [
            replace(cert, accepted=False),
            replace(cert, details=None),
            replace(cert, witness=witness),
        ]
        forged += [replace(cert, family=f) for f in Family if f is not cert.family]
        for bad in forged:
            assert bad.verify(m) is False, (m.encode(), bad)
    h3 = classify_threshold(make_knst(2, 1))
    for m, cert in rejects:
        assert replace(cert, family=h3.family, details=h3.details).verify(m) is False
        assert replace(cert, accepted=True).verify(m) is False


def test_witness_memo_matches_uncached_spectra():
    classify._cycle_witness.cache_clear()
    classify._small_witness_spectrum.cache_clear()
    rng = random.Random(31)
    graphs = enumerate_connected_graphs(5)
    rejects = 0
    for _ in range(300):
        g = rng.choice(graphs)
        m = orientation(g, rng.randrange(3 ** g.edge_count()))
        cert = classify_threshold(m)
        if cert.accepted:
            continue
        rejects += 1
        w = cert.witness
        assert w.kind != "threshold"
        sub = induced(m, w.vertices)
        assert w.comparison is compare_lambda_min(sub, NEG_GOLDEN)
        assert w.lambda_min == eigenvalues(sub).lambda_min
    info = classify._small_witness_spectrum.cache_info()
    assert rejects > 200 and info.hits > 0 and info.misses > 0


def _forbidden_cycles() -> set[tuple[int, ...]]:
    """The ``along`` kinds, in cyclic order, of every triangle and induced
    quadrangle whose smallest eigenvalue is at the threshold or below."""
    return {
        along
        for size in (3, 4)
        for along in product((1, 2, 3), repeat=size)
        if classify._cycle_witness.__wrapped__(along)[2] is not Trichotomy.GREATER
    }


def test_cycle_witness_key_space_is_the_forbidden_cycles():
    # Of the 27 mixed triangles and 81 mixed quadrangles, exactly the 20 and
    # 61 whose holonomy is not safe fail the threshold.  The census never
    # reaches the memo: its cycle mask takes every triangle and quadrangle
    # reject before _classify runs.
    safe = {t.value for t in SAFE_TRIANGLES} | {q.value for q in SAFE_QUADS}
    counts = Counter()
    for size in (3, 4):
        for along in product((1, 2, 3), repeat=size):
            kind, pattern, comparison, _ = classify._cycle_witness.__wrapped__(along)
            assert (comparison is Trichotomy.GREATER) == (pattern in safe), along
            counts[kind, comparison is Trichotomy.GREATER] += 1
    assert counts == {
        ("triangle", False): 20, ("triangle", True): 7,
        ("quadrangle", False): 61, ("quadrangle", True): 20,
    }
    classify._cycle_witness.cache_clear()
    assert verify_main_theorem(n_max=5).ok
    info = classify._cycle_witness.cache_info()
    assert info.hits + info.misses == 0
    assert info.currsize == info.misses <= 61


def test_cycle_witness_is_shared_across_relabelings_and_switchings():
    # The witness memo is keyed on the cycle's kinds alone, so relabeled and
    # switched copies of one reject miss it once per distinct kind sequence;
    # classify and verify each look it up once per copy.
    rng = random.Random(32)
    # A holonomy -1 triangle and a holonomy +1 quadrangle, each with a pendant arc.
    tri_reject = build(4, [(0, 1, "arc"), (1, 2, "arc"), (0, 2, "undirected"), (2, 3, "arc")])
    quad_reject = build(5, [(u, (u + 1) % 4, "undirected") for u in range(4)] + [(3, 4, "arc")])
    for m, kind in ((tri_reject, "triangle"), (quad_reject, "quadrangle")):
        classify._cycle_witness.cache_clear()
        shapes = set()
        for _ in range(20):
            g = _scrambled(m, rng)
            cert = classify_threshold(g)
            w = cert.witness
            assert w.kind == kind and cert.verify(g), g.encode()
            vs = w.vertices
            shapes.add(tuple(g.kinds[u][v] for u, v in zip(vs, vs[1:] + vs[:1])))
        info = classify._cycle_witness.cache_info()
        assert (info.misses, info.hits) == (len(shapes), 40 - len(shapes)), kind
        assert len(shapes) < 20


def test_cycle_certificate_memo_matches_unmemoized_witness():
    classify._cycle_witness.cache_clear()
    exits = Counter()
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            for m in enumerate_orientations(g):
                tri = find_forbidden_triangle(m)
                quad = None if tri else find_forbidden_quadrangle(m)
                if tri is None and quad is None:
                    continue
                kind = "triangle" if tri else "quadrangle"
                witness = classify._witness_from_subgraph(m, kind, tri or quad)
                cert = classify_threshold(m)
                assert cert == Certificate(False, None, None, witness)
                assert cert.verify(m)
                exits[kind] += 1
    assert exits == {"triangle": 104320, "quadrangle": 1268}
    # Each of the 20 forbidden triangles and 61 forbidden quadrangles misses
    # once, and the memo then holds exactly those; classify and verify each
    # look up every reject.
    info = classify._cycle_witness.cache_info()
    assert (info.misses, info.hits) == (81, 2 * 105588 - 81)
    for along in _forbidden_cycles():
        classify._cycle_witness(along)
    assert classify._cycle_witness.cache_info().misses == 81


def test_cycle_reject_verify_reads_the_witness_memo(monkeypatch):
    # Verify names a triangle or quadrangle reject by the kinds along its
    # cycle: once classify has warmed the memo, verify hits it and never calls
    # triangle_type or quad_class.  A witness that is no such cycle of m fails.
    tri = build(4, [(0, 1, "arc"), (1, 2, "arc"), (0, 2, "undirected"), (2, 3, "arc")])
    c4 = cycle_graph(4)
    diamond = build(4, [(u, (u + 1) % 4, "undirected") for u in range(4)] + [(0, 2, "arc")])
    tri_cert, c4_cert = classify_threshold(tri), classify_threshold(c4)
    assert tri_cert.verify(tri) and c4_cert.verify(c4)
    for m, cert, vertices, pattern in [
        (tri, tri_cert, (0, 1, 1), None),
        (tri, tri_cert, (0, 0, 1), None),
        (tri, tri_cert, (-4, 1, 2), None),  # row -4 is row 0: only the range check fails it
        (tri, tri_cert, (0, 1, 4), None),
        (tri, tri_cert, (1, 2, 3), None),  # not a triangle
        (tri, tri_cert, (0, 1, 2), "K3_31"),
        (c4, c4_cert, (0, 1, 2, 2), None),
        (c4, c4_cert, (-4, 1, 2, 3), None),
        (c4, c4_cert, (0, 1, 2, 4), None),
        (c4, c4_cert, (0, 1, 2, 3), "imaginary"),
        (diamond, c4_cert, (0, 1, 2, 3), None),  # a chorded quadrangle
    ]:
        w = replace(cert.witness, vertices=vertices, pattern=pattern or cert.witness.pattern)
        assert replace(cert, witness=w).verify(m) is False, w

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    graphs = [parse_mgfile(text) for text in workloads.generate_mix(1, 5000)]
    certified = [(m, classify_threshold(m)) for m in graphs]
    cycles = [
        (m, cert) for m, cert in certified
        if cert.witness is not None and cert.witness.kind in ("triangle", "quadrangle")
    ]
    assert {cert.witness.kind for _, cert in cycles} == {"triangle", "quadrangle"}
    misses = classify._cycle_witness.cache_info().misses

    def refuse(_):
        raise AssertionError("a cycle reject was named from its subgraph")

    monkeypatch.setattr(classify, "triangle_type", refuse)
    monkeypatch.setattr(classify, "quad_class", refuse)
    assert all(cert.verify(m) for m, cert in cycles)
    assert classify._cycle_witness.cache_info().misses == misses


def test_forbidden_memo_matches_unmemoized_search():
    # The forbidden-subgraph search is memoized with the shape on the
    # adjacency tuple; every certificate must equal the one a fresh search
    # over the patterns gives.
    classify._shape_of.cache_clear()
    rejects, graphs = 0, set()
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            for m in enumerate_orientations(g):
                cert = classify_threshold(m)
                if cert.witness is None or cert.witness.kind != "forbidden-subgraph":
                    continue
                u = underlying_graph(m)
                name, hit = next(
                    (name, hit) for name, p in FORBIDDEN_SUBGRAPHS
                    if (hit := find_induced(u, p)) is not None
                )
                witness = classify._witness_from_subgraph(m, "forbidden-subgraph", hit, name)
                assert cert == Certificate(False, None, None, witness), m.encode()
                assert cert.verify(m)
                rejects += 1
                graphs.add(g)
    assert (rejects, len(graphs)) == (1091, 17)
    # 1,345 orientations pass the triangle and quadrangle stages, on 29
    # underlying graphs.
    info = classify._shape_of.cache_info()
    assert (info.misses, info.hits) == (29, 1345 - 29)


def test_threshold_witness_is_not_cached():
    classify._small_witness_spectrum.cache_clear()
    m = coalescence(complete_graph(4), 0, complete_graph(4), 0)  # s = t = 3
    cert = classify_threshold(m)
    assert not cert.accepted and cert.witness.kind == "threshold"
    assert cert.verify(m)
    assert classify._small_witness_spectrum.cache_info().currsize == 0


def _scrambled(m, rng):
    """m randomly switched, then relabelled."""
    m, _ = random_switch(m, rng, steps=m.n)
    perm = list(range(m.n))
    rng.shuffle(perm)
    return m.relabel(perm)


def _oriented_two_cliques(rng, s, t):
    a, b = rng.randint(0, s + 1), rng.randint(0, t + 1)
    return coalescence(
        make_knst(a, s + 1 - a), rng.randrange(s + 1),
        make_knst(b, t + 1 - b), rng.randrange(t + 1),
    )


def test_threshold_witness_matches_direct_spectrum():
    # The classifier reads a threshold witness off f_cubic(s, t), by the
    # balance of two-clique graphs; check it against the graph's own spectrum.
    rng = random.Random(1717)
    shapes = [
        (s, t) for s in range(1, 11) for t in range(1, s + 1)
        if s + t + 1 <= 12
        and compare_lambda_min(f_cubic(s, t), NEG_GOLDEN) is not Trichotomy.GREATER
    ]
    assert len(shapes) == 18 and min(t for _, t in shapes) == 2
    for s, t in shapes:
        for _ in range(3):
            m = _scrambled(_oriented_two_cliques(rng, s, t), rng)
            cert = classify_threshold(m)
            w = cert.witness
            assert (w.kind, w.pattern, w.vertices) == ("threshold", "two-cliques", tuple(range(m.n)))
            comparison, lam = classify._witness_spectrum(m)
            assert w.comparison is comparison, (s, t, m.encode())
            assert abs(w.lambda_min - lam) <= 1e-9
            assert cert.verify(m)


def _failing_shapes(max_n: int) -> list[tuple[int, int]]:
    """(s, t) with s >= t >= 1, s + t + 1 <= max_n and f_cubic(s, t) failing."""
    return [
        (s, t) for s in range(1, max_n) for t in range(1, s + 1)
        if s + t + 1 <= max_n
        and compare_lambda_min(f_cubic(s, t), NEG_GOLDEN) is not Trichotomy.GREATER
    ]


def _clique_pair(s: int, t: int) -> MixedGraph:
    return coalescence(complete_graph(s + 1), 0, complete_graph(t + 1), 0)


def test_threshold_root_in_closed_form_matches_the_spectrum():
    shapes = _failing_shapes(12)
    assert len(shapes) == 18
    for s, t in shapes:
        m = _clique_pair(s, t)
        w = classify._classify(m).witness
        assert w.kind == "threshold"
        assert abs(w.lambda_min - eigenvalues(m).lambda_min) <= 1e-12, (s, t)
    # Exactly: the smallest root lies within 1e-15 of the float, for every
    # failing cubic with s < 60.
    delta = Fraction(1, 10**15)
    shapes = [(s, t) for s, t in _failing_shapes(120) if s < 60]
    assert len(shapes) == 1709
    for s, t in shapes:
        cubic = f_cubic(s, t)
        x = Fraction(classify._smallest_root(cubic))
        assert compare_lambda_min(cubic, x + delta) is Trichotomy.LESS, (s, t)
        assert compare_lambda_min(cubic, x - delta) is Trichotomy.GREATER, (s, t)


def test_threshold_summary_digits_are_unchanged():
    # The threshold root used to come from numpy.roots on the cubic's
    # companion matrix; the closed form must print the same ten decimals.
    import numpy as np

    shapes = _failing_shapes(40)
    assert len(shapes) == 340
    for s, t in shapes:
        cubic = f_cubic(s, t)
        before = float(min(np.roots(cubic.coeffs[::-1]).real))
        summary = classify_threshold(_clique_pair(s, t)).summary()
        assert summary.endswith(f", exact Less, lambda_min {before:.10f}"), (s, t, summary)
    # The printed digits on every failing cubic with s < 60.
    shapes = [(s, t) for s, t in _failing_shapes(120) if s < 60]
    assert len(shapes) == 1709
    for s, t in shapes:
        cubic = f_cubic(s, t)
        before = float(min(np.roots(cubic.coeffs[::-1]).real))
        assert f"{classify._smallest_root(cubic):.10f}" == f"{before:.10f}", (s, t)
    pinned = {
        (3, 3): "-1.6457513111",
        (4, 2): "-1.6261980685",
        (5, 3): "-1.6912677768",
        (9, 2): "-1.6771056371",
        (30, 8): "-1.8732952079",
        (20, 19): "-1.9107081456",
        # The exact root is -1.95481576334999751...: a float 2.5e-15 further
        # from zero would print -1.9548157634.
        (55, 33): "-1.9548157633",
    }
    for (s, t), lam in pinned.items():
        summary = classify_threshold(_clique_pair(s, t)).summary()
        assert summary.endswith(f"lambda_min {lam}"), (s, t, summary)


def test_one_triangle_scan_per_clique_family_classify_and_verify(monkeypatch):
    scans = []

    def counting(m):
        scans.append(m.n)
        return find_forbidden_triangle(m)

    monkeypatch.setattr(classify, "find_forbidden_triangle", counting)
    rng = random.Random(1718)
    cases = [(make_knst(4, 3), Family.H3), (make_knst(6, 0), Family.H3)]
    cases += [(_oriented_two_cliques(rng, s, t), f) for s, t, f in (
        (2, 2, Family.H2), (3, 2, Family.H2), (5, 1, Family.H4), (1, 1, Family.H4),
    )]
    for m, family in cases:
        m = _scrambled(m, rng)
        scans.clear()
        cert = classify_threshold(m)
        assert cert.family is family and cert.verify(m)
        assert scans == [m.n], (family, m.encode())


def test_one_sporadic_embedding_search_per_h1_classify(monkeypatch):
    records = load_builtin().records
    for record in records:  # warm the catalog and the other memos first
        classify_threshold(record.graph())
    searches = []
    embeddings = classify._embeddings

    def counting(g, pattern):
        searches.append(pattern)
        return embeddings(g, pattern)

    monkeypatch.setattr(classify, "_embeddings", counting)
    sporadic = list(sporadic_underlying().values())
    rng = random.Random(1719)
    for record in records:
        m = _scrambled(record.graph(), rng)
        classify._shape_of.cache_clear()  # a miss in the shape memo searches once
        searches.clear()
        cert = classify_threshold(m)
        assert cert.family is Family.H1 and cert.verify(m)
        assert len(searches) == 1 and searches[0] in sporadic
        searches.clear()  # a hit searches no more
        assert classify_threshold(m) == cert and searches == []


def test_shape_memo_matches_the_uncached_shape():
    rng = random.Random(24)
    graphs = []
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            graphs.append(g)
            graphs += [g.relabel(rng.sample(range(n), n)) for _ in range(30)]
    labels = Counter()
    for g in graphs:
        want, forbidden = classify._shape_of.__wrapped__(g.adjacency)
        fresh = None if want else next(
            (name, hit) for name, p in FORBIDDEN_SUBGRAPHS
            if (hit := next(classify._embeddings(g.adjacency, p), None)) is not None
        )
        assert forbidden == fresh, g.encode()
        for _ in range(2):  # a miss, then a hit
            got = classify._family_of(g)
            assert got == want, g.encode()
            if got is not None:
                assert got.parts == want.parts and got.embedding == want.embedding
        labels[None if want is None else want.label] += 1
    assert len(labels) == 7 and labels[None] > 2000
    info = classify._shape_of.cache_info()
    assert info.maxsize == 1024 and info.currsize <= 1024


def test_underlying_family_embedding_takes_no_part_in_equality():
    for label, g in sporadic_underlying().items():
        fam = underlying_family(g.relabel(list(range(g.n))[::-1]))
        assert fam == classify.FamilyMatch(label) and fam.embedding
        assert repr(fam) == repr(classify.FamilyMatch(label))


def test_classify_accept_h1_catalog():
    rng = random.Random(42)
    catalog = load_builtin()
    for record in catalog.records[::5]:
        m = record.graph()
        cert = classify_threshold(m)
        assert cert.accepted and cert.family is Family.H1
        assert cert.verify(m)
        # Scrambled copies land on some catalog record, with proof.
        perm = list(range(m.n))
        rng.shuffle(perm)
        scrambled, _ = random_switch(m.relabel(perm), rng)
        cert2 = classify_threshold(scrambled)
        assert cert2.accepted and cert2.family is Family.H1
        assert cert2.verify(scrambled)


def test_h1_accepts_name_the_first_record_of_their_shape():
    # A shape's scattered orientations form one class under relabeling and
    # switching (switch-iso=1), so the first record matches every one.
    accepts = 0
    for label, g in sporadic_underlying().items():
        for cert in map(classify_threshold, enumerate_orientations(g)):
            if cert.family is Family.H1:
                assert cert.details.catalog_id == f"{label}-01"
                accepts += 1
    assert accepts == 20 + 17 + 36 + 60


def test_screened_sporadic_orientations_form_one_labeled_switching_class():
    # An H1 classify makes one switching search, against the shape's first
    # record, with no automorphism of the shape tried.  It rests on this: on
    # each sporadic shape, the orientations free of forbidden triangles and
    # quadrangles are exactly those above the threshold, and all of them lie
    # in one switching class of the labeled shape.
    counts = {}
    for label, g in sporadic_underlying().items():
        orientations = list(enumerate_orientations(g))
        screened = [
            m for m in orientations
            if classify._bad_triangle(m.kinds) is None and find_forbidden_quadrangle(m) is None
        ]
        greater = [
            m for m, (_, exact) in zip(orientations, census._decided(orientations))
            if exact is Trichotomy.GREATER
        ]
        assert screened == greater, label
        assert len(set(census._switching_keys(g, screened))) == 1, label
        counts[label] = (len(orientations), len(screened))
    assert counts == {
        "c4": (81, 20),
        "diamond": (243, 17),
        "k23-plus-edge": (2187, 36),
        "k24-plus-2edges": (59049, 60),
    }


def test_h1_perm_inverts_the_shape_embedding(monkeypatch):
    # H1 classify relabels along the inverse of the shape's embedding and
    # tries no automorphism: every H1 perm of the n <= 5 census and of a
    # classify stream is that inverse, and the automorphism memo stays empty.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    graphs = [parse_mgfile(text) for text in workloads.generate_mix(1, 25000)]
    census._automorphisms.cache_clear()
    certified = []

    def recording(m):
        cert = classify._classify(m)
        certified.append((m, cert))
        return cert

    monkeypatch.setattr(census, "_classify", recording)
    assert verify_main_theorem(n_max=5).ok
    in_census = len(certified)
    certified += [(m, classify_threshold(m)) for m in graphs]
    h1 = [i for i, (_, cert) in enumerate(certified) if cert.family is Family.H1]
    for m, cert in (certified[i] for i in h1):
        embedding = classify._family_of(m).embedding
        assert [cert.details.perm[v] for v in embedding] == list(range(m.n))
    assert sum(i < in_census for i in h1) == 37 + 36 < len(h1)
    assert census._automorphisms.cache_info().currsize == 0


def test_classify_reject_witnesses():
    tilted = build(3, [(0, 1, "arc"), (1, 2, "undirected"), (0, 2, "undirected")])
    cert = classify_threshold(tilted)
    assert not cert.accepted
    assert cert.witness.kind == "triangle" and cert.witness.pattern == "K3_1"
    assert cert.witness.comparison is Trichotomy.LESS
    assert cert.verify(tilted)

    cert2 = classify_threshold(cycle_graph(4))
    assert cert2.witness.kind == "quadrangle"
    assert cert2.witness.pattern == "plus-one"
    assert cert2.verify(cycle_graph(4))

    cert3 = classify_threshold(star_graph(3))
    assert cert3.witness.kind == "forbidden-subgraph"
    assert cert3.witness.pattern == "K_{1,3}"
    assert cert3.verify(star_graph(3))

    # P_5 rejects through its induced P_4, which sits exactly on the threshold.
    cert4 = classify_threshold(path_graph(5))
    assert cert4.witness.pattern == "P_4"
    assert cert4.witness.comparison is Trichotomy.EQUAL
    assert "exact Equal" in cert4.summary()
    assert cert4.verify(path_graph(5))

    # Two cliques whose cubic bound fails: the witness is the whole graph.
    big = coalescence(complete_graph(5), 0, complete_graph(3), 0)
    cert5 = classify_threshold(big)
    assert not cert5.accepted
    assert cert5.witness.kind == "threshold"
    assert cert5.witness.comparison is Trichotomy.LESS
    assert cert5.verify(big)


def test_classify_invariant_under_random_switch():
    # Switching keeps the spectrum, so it must keep the verdict and family.
    rng = random.Random(44)
    graphs = [
        orientation(g, rng.randrange(3 ** g.edge_count()))
        for n in range(2, 6)
        for g in enumerate_connected_graphs(n)
        for _ in range(4)
    ]
    graphs += [make_knst(s, t) for s, t in [(1, 1), (3, 2), (4, 3), (2, 5)]]
    graphs += [
        coalescence(make_knst(s1, t1), 0, make_knst(s2, t2), 0)
        for s1, t1, s2, t2 in [(2, 1, 2, 0), (3, 1, 1, 1), (2, 2, 2, 1), (4, 2, 1, 2)]
    ]
    graphs += [record.graph() for record in load_builtin().records[::4]]
    families = Counter()
    for m in graphs:
        cert = classify_threshold(m)
        families[cert.family] += 1
        for _ in range(3):
            other = classify_threshold(random_switch(m, rng)[0])
            assert (other.accepted, other.family) == (cert.accepted, cert.family)
    assert set(families) == {None, Family.H1, Family.H2, Family.H3, Family.H4}


def test_classify_input_validation():
    with pytest.raises(ValueError):
        classify_threshold(disjoint_union(complete_graph(2), complete_graph(2)))
    with pytest.raises(ValueError):
        classify_threshold(build(0, []))


def test_certificates_match_exact_comparison():
    rng = random.Random(43)
    graphs = [
        make_knst(3, 2),
        coalescence(complete_graph(4), 0, complete_graph(3), 0),
        cycle_graph(5),
        star_graph(4),
        load_builtin().records[0].graph(),
    ]
    for m in graphs:
        cert = classify_threshold(m)
        exact = compare_lambda_min(m, NEG_GOLDEN)
        assert cert.accepted == (exact is Trichotomy.GREATER)
        assert cert.verify(m)


def test_forbidden_subgraphs_are_irredundant():
    # No entry contains an induced copy of an earlier one, so each can be
    # the first hit; each dropped graph contains an entry, so a graph free
    # of the list is free of it too.
    def contains(g, p):
        return next(classify._embeddings(g.adjacency, p), None) is not None

    for i, (name, g) in enumerate(FORBIDDEN_SUBGRAPHS):
        assert not any(contains(g, p) for _, p in FORBIDDEN_SUBGRAPHS[:i]), name
    for name, g in _REDUNDANT_FORBIDDEN:
        assert compare_lambda_min(g, NEG_GOLDEN) is not Trichotomy.GREATER, name
        hits = [kept for kept, p in FORBIDDEN_SUBGRAPHS if contains(g, p)]
        assert hits == {"K_{2,3}": ["K_{1,3}"], "K_2 v 3K_1": ["K_{1,3}"],
                        "2K_1 v K_3": ["K_2 v K_{1,2}"]}[name]


def test_forbidden_subgraphs_all_fail_threshold():
    assert len(FORBIDDEN_SUBGRAPHS) == 5
    names = [name for name, _ in FORBIDDEN_SUBGRAPHS]
    assert names[0] == "P_4"
    for name, g in FORBIDDEN_SUBGRAPHS:
        assert g.is_undirected()
        assert compare_lambda_min(g, NEG_GOLDEN) is not Trichotomy.GREATER, name


def test_classify_sqrt2_strict():
    v = classify_sqrt2(make_knst(3, 2))
    assert v.accepted and v.family == "Knst"
    assert v.comparison is Trichotomy.GREATER
    assert v.summary() == "accept Knst s=3 t=2"
    r = classify_sqrt2(path_graph(4))
    assert not r.accepted and r.comparison is Trichotomy.LESS


def test_classify_sqrt2_non_strict():
    minus_quad = build(
        4,
        [(0, 1, "arc"), (1, 2, "undirected"), (2, 3, "arc"), (0, 3, "undirected")],
    )
    assert quad_class(minus_quad).tag in SAFE_QUADS
    strict = classify_sqrt2(minus_quad, strict=True)
    assert not strict.accepted and strict.comparison is Trichotomy.EQUAL
    loose = classify_sqrt2(minus_quad, strict=False)
    assert loose.accepted and loose.family == "C4"
    assert loose.summary() == "accept C4 (holonomy -1 quadrangle)"
    # Small graphs sit outside the non-strict statement; the note says so.
    tiny = build(3, [(0, 1, "arc"), (1, 2, "undirected"), (0, 2, "undirected")])
    out = classify_sqrt2(tiny, strict=False)
    assert not out.accepted
    assert out.note is not None and "n >= 4" in out.note
