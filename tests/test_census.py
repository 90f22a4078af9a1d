from __future__ import annotations

import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from functools import partial
from itertools import combinations, permutations
from pathlib import Path

import numpy as np
import pytest

import hermspec
import hermspec.census as census
from hermspec.census import (
    CensusReport,
    K6Stats,
    LevelStats,
    edge_list,
    enumerate_connected_graphs,
    enumerate_orientations,
    iso_classes,
    orientation,
    orientation_count,
    verify_main_theorem,
)
from hermspec.catalog import sporadic_underlying
import hermspec.classify as classify
from hermspec.classify import Family, KnstMatch, find_forbidden_triangle, recognize_knst
from hermspec.graphs import (
    EdgeKind,
    MixedGraph,
    build,
    complete_graph,
    cycle_graph,
    disjoint_union,
    hermitian_matrix,
    is_connected,
    make_knst,
    path_graph,
    underlying_graph,
)
from hermspec.polynomials import IntPolynomial, Trichotomy, compare_min_root, taylor_compare_min_root
from hermspec.quadratic import NEG_GOLDEN, NEG_SQRT2, NEG_SQRT3
from hermspec.spectra import _char_poly_rows, char_poly, char_poly_rows
from hermspec.switching import switching_equivalent


def _exps(indices, m: int) -> np.ndarray:
    """Edge i-exponents of the orientations at ``indices`` of a graph with m
    edges, as the census kernels read them."""
    return census._DIGIT_EXP[census._digits(indices, m).T]


def test_orientation_indexing():
    g = path_graph(3)
    assert edge_list(g) == ((0, 1), (1, 2))
    assert orientation_count(g) == 9
    assert orientation(g, 0) == g
    m1 = orientation(g, 1)  # low digit orients the first edge low -> high
    assert m1.kind(0, 1) == EdgeKind.ARC_OUT
    assert m1.kind(1, 2) == EdgeKind.UNDIRECTED
    m6 = orientation(g, 6)  # 6 = 2 * 3: second edge high -> low
    assert m6.kind(0, 1) == EdgeKind.UNDIRECTED
    assert m6.kind(2, 1) == EdgeKind.ARC_OUT
    with pytest.raises(ValueError):
        orientation(g, 9)
    seen = {m.encode() for m in enumerate_orientations(g)}
    assert len(seen) == 9
    assert all(underlying_graph(m) == g for m in enumerate_orientations(g))
    assert list(enumerate_orientations(build(0, []))) == [build(0, [])]


def test_enumerate_orientations_validation():
    with pytest.raises(ValueError):
        list(enumerate_orientations(make_knst(1, 1)))
    with pytest.raises(ValueError):
        list(enumerate_orientations(complete_graph(7)))  # 21 edges
    # edge_list reads the arc 1 -> 0 as the pair (1, 0), which no digit
    # order of orientation() covers.
    with pytest.raises(ValueError):
        orientation(build(2, [(1, 0, "arc")]), 1)


#: (kind of (u, v), kind of (v, u)) for orientation digits 0, 1, 2 on u < v.
_DIGIT_KINDS = tuple(
    (int(k), int(k.flipped())) for k in (EdgeKind.UNDIRECTED, EdgeKind.ARC_OUT, EdgeKind.ARC_IN)
)


def _kinds_edge_by_edge(g: MixedGraph, index: int) -> tuple[tuple[int, ...], ...]:
    """Reference kind table of ``orientation(g, index)``, set one edge at a time."""
    kinds = [[0] * g.n for _ in range(g.n)]
    rem = index
    for u, v in edge_list(g):
        rem, digit = divmod(rem, 3)
        kinds[u][v], kinds[v][u] = _DIGIT_KINDS[digit]
    return tuple(map(tuple, kinds))


def test_orientations_match_edge_by_edge_reference():
    graphs = [g for n in range(1, 6) for g in enumerate_connected_graphs(n)]
    graphs += [g for _, g in census._deep_family_graphs()]
    for g in graphs:
        built = list(enumerate_orientations(g))
        indices = range(orientation_count(g))
        assert [m.kinds for m in built] == [_kinds_edge_by_edge(g, i) for i in indices]
        assert built == [orientation(g, i) for i in indices], g.encode()
    k6 = complete_graph(6)
    rng = random.Random(66)
    indices = [rng.randrange(3 ** 15) for _ in range(600)]
    ref = [_kinds_edge_by_edge(k6, i) for i in indices]
    assert [m.kinds for m in census._oriented(k6, indices)] == ref
    assert [orientation(k6, i).kinds for i in indices] == ref


def test_orientations_pass_the_public_check():
    # Orientations are built from row tables without re-validation; every
    # one must still be a table the public constructor accepts.
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            for m in enumerate_orientations(g):
                assert MixedGraph(m.n, m.kinds) == m and type(m.kinds) is tuple
    six = enumerate_connected_graphs(6)
    rng = random.Random(1206)
    for _ in range(2000):
        g = rng.choice(six)
        m = orientation(g, rng.randrange(orientation_count(g)))
        assert MixedGraph(m.n, m.kinds) == m and type(m.kinds) is tuple


def test_enumerate_connected_graphs_counts():
    for n, count in [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21), (6, 112)]:
        graphs = enumerate_connected_graphs(n)
        assert len(graphs) == count
        assert all(g.n == n and is_connected(g) and g.is_undirected() for g in graphs)
        ecs = [g.edge_count() for g in graphs]
        assert ecs == sorted(ecs)
    with pytest.raises(ValueError):
        enumerate_connected_graphs(0)
    with pytest.raises(ValueError):
        enumerate_connected_graphs(7)
    with pytest.raises(ValueError):
        enumerate_connected_graphs(8)


def _connected_graphs_by_mask_scan(n: int) -> list[MixedGraph]:
    """Reference: the smallest edge mask over all n! relabelings of every
    edge set on n vertices, kept when connected, sorted by (edge count,
    mask)."""
    pairs = list(combinations(range(n), 2))
    idx = {pair: i for i, pair in enumerate(pairs)}
    masks = np.arange(1 << len(pairs), dtype=np.int64)
    bits = (masks[:, None] >> np.arange(len(pairs))) & 1
    weights = np.int64(1) << np.arange(len(pairs), dtype=np.int64)
    canon = masks.copy()
    for perm in permutations(range(n)):
        order = [idx[tuple(sorted((perm[u], perm[v])))] for u, v in pairs]
        np.minimum(canon, bits[:, order] @ weights, out=canon)
    out = []
    for mask in np.unique(canon).tolist():
        g = build(n, [(u, v, "undirected") for i, (u, v) in enumerate(pairs) if mask >> i & 1])
        if is_connected(g):
            out.append((g.edge_count(), mask, g))
    return [g for _, _, g in sorted(out, key=lambda t: t[:2])]


def test_connected_graphs_match_mask_scan_reference():
    for n in range(1, 7):
        assert enumerate_connected_graphs(n) == _connected_graphs_by_mask_scan(n), n
    # Each call returns a fresh list, so a caller's edit reaches no other.
    enumerate_connected_graphs(6).clear()
    assert len(enumerate_connected_graphs(6)) == 112


def test_iso_classes_of_triangles():
    classes = iso_classes(list(enumerate_orientations(complete_graph(3))))
    assert len(classes) == 7
    assert sorted(len(v) for v in classes.values()) == [1, 2, 3, 3, 6, 6, 6]
    assert sum(len(v) for v in classes.values()) == 27


def _switching_orbits(g: MixedGraph, graphs: list[MixedGraph]) -> dict:
    return census._orbits(g, graphs, partial(census._switching_keys, g))


def test_switching_orbits_triangles_and_quads():
    tri = _switching_orbits(complete_graph(3), list(enumerate_orientations(complete_graph(3))))
    assert sorted((len(v) for v in tri.values()), reverse=True) == [14, 7, 6]
    quad = _switching_orbits(cycle_graph(4), list(enumerate_orientations(cycle_graph(4))))
    assert sorted(len(v) for v in quad.values()) == [20, 21, 40]
    for members in [*tri.values(), *quad.values()]:
        ref = char_poly(members[0])
        assert all(char_poly(m) == ref for m in members)


def test_switching_orbits_knst_all_equivalent():
    graphs = [make_knst(s, 5 - s) for s in range(6)]
    assert list(_switching_orbits(complete_graph(5), graphs).values()) == [graphs]


def test_orbits_validation():
    # An orientation of another vertex count is no orientation of g.
    with pytest.raises(ValueError):
        _switching_orbits(complete_graph(3), [complete_graph(2)])
    assert iso_classes([]) == {}


def _switching_iso_reference(graphs: list[MixedGraph]) -> list[list[MixedGraph]]:
    """Classes under relabeling and switching by pairwise search: each graph
    joins the first class whose first member some relabeling of it is
    switching equivalent to."""
    perms = list(permutations(range(graphs[0].n)))
    classes: list[list[MixedGraph]] = []
    for m in graphs:
        for members in classes:
            if any(switching_equivalent(m.relabel(p), members[0]) is not None for p in perms):
                members.append(m)
                break
        else:
            classes.append([m])
    return classes


def _encoded(classes) -> set[frozenset[str]]:
    return {frozenset(m.encode() for m in members) for members in classes}


def _swept(g: MixedGraph) -> tuple[list, np.ndarray]:
    """Every ``census._class_pass`` of g, in order, over one class table,
    and that table."""
    table = census._class_table(g)
    starts = range(0, orientation_count(g), census._KEY_BLOCK)
    return [census._class_pass(g, start, table) for start in starts], table


def _survivors(g: MixedGraph) -> list[MixedGraph]:
    """Orientations of g with lambda_min above -(1+sqrt5)/2."""
    codes = np.concatenate([codes for _, _, codes in _swept(g)[0]])
    return [orientation(g, i) for i in np.flatnonzero(codes == census._GREATER).tolist()]


def test_switching_orbits_match_pairwise_search():
    # Every orientation of K_3, C_4 and the diamond, then each sporadic
    # shape's scattered orientations, which form one class per shape.
    shapes = sporadic_underlying()
    cases = [(g, list(enumerate_orientations(g)))
             for g in (complete_graph(3), cycle_graph(4), shapes["diamond"])]
    cases += [(g, _survivors(g)) for g in shapes.values()]
    counts = []
    for g, graphs in cases:
        orbits = _switching_orbits(g, graphs)
        assert _encoded(orbits.values()) == _encoded(_switching_iso_reference(graphs)), g.encode()
        counts.append(len(orbits))
    assert counts == [3, 3, 7, 1, 1, 1, 1]


def test_switching_keys_are_class_keys():
    # The key _orbits reads for switching is _class_keys of the orientation's
    # own digits, so the catalog and the sweeps share one switching key.
    for n in range(1, 5):
        for g in enumerate_connected_graphs(n):
            keys = census._switching_keys(g, list(enumerate_orientations(g)))
            for i, key in enumerate(keys):
                ref = census._class_keys(g, _exps([i], g.edge_count()))
                assert [key] == ref.tolist(), (g.encode(), i)


def test_verify_small_census():
    report = verify_main_theorem(n_max=3)
    assert report.ok
    assert [lv.orientations for lv in report.levels] == [1, 3, 36]
    assert report.levels[1].accepts == {"H3": 3}
    assert report.levels[2].accepts == {"H3": 7, "H4": 9}
    assert report.levels[2].rejects == 20
    assert report.levels[2].boundary_equal == 0
    text = report.text()
    assert "result: PASS" in text
    assert "n=3: underlying=2 orientations=36" in text


def test_verify_validation():
    with pytest.raises(ValueError):
        verify_main_theorem(n_max=0)
    with pytest.raises(ValueError):
        verify_main_theorem(n_max=2, jobs=0)
    with pytest.raises(ValueError, match="sample"):
        verify_main_theorem(n_max=2, sample=-5)
    # The census checks connectivity once per underlying graph, not per
    # orientation.
    for g in (disjoint_union(complete_graph(2), complete_graph(2)), build(0, [])):
        with pytest.raises(ValueError):
            census._tally_underlying(g)


def test_census_reports_classifier_errors(monkeypatch):
    real = census._classify

    def rejects_h4(m):
        cert = real(m)
        if cert.family is Family.H4:
            return replace(cert, accepted=False, family=None, details=None)
        return cert

    monkeypatch.setattr(census, "_classify", rejects_h4)
    report = verify_main_theorem(n_max=3)
    assert not report.ok
    assert [len(lv.mismatches) for lv in report.levels] == [0, 0, 9]
    assert report.levels[2].accepts == {"H3": 7}
    assert "result: FAIL" in report.text()


def test_census_reports_triangle_stage_errors(monkeypatch):
    # The census runs the classifier's triangle scan on bare kind tables;
    # a scan that finds a triangle in the triangle-safe K_n[s, t] forms must
    # surface as mismatches, each recorded by the encoding of its orientation.
    real = census._bad_triangle
    forms = []

    def rejects_knst(table):
        m = MixedGraph(len(table), table)
        if isinstance(recognize_knst(m), KnstMatch):
            forms.append(m.encode())
            return (0, 1, 2)
        return real(table)

    monkeypatch.setattr(census, "_bad_triangle", rejects_knst)
    report = verify_main_theorem(n_max=3)
    assert not report.ok
    assert [len(lv.mismatches) for lv in report.levels] == [1, 3, 7]
    assert sorted(m for lv in report.levels for m in lv.mismatches) == sorted(forms)
    assert [lv.accepts for lv in report.levels] == [{}, {}, {"H4": 9}]
    assert "result: FAIL" in report.text()


def test_census_certificates_are_the_classifiers(monkeypatch):
    # Every orientation with n <= 5 gets exactly _classify's verdict.  An
    # orientation a screen rejects is counted with no graph built, and
    # _classify's witness for it is the screen's: the triangle _bad_triangle
    # finds or the quadrangle find_forbidden_quadrangle finds when the cycle
    # mask rejects it, else the forbidden subgraph _shape_of finds in its
    # graph.  Every other orientation gets a certificate equal to
    # _classify's, from a graph built only for the orientations that pass
    # both screens.
    mask, classified = census._cycle_safe, census._classify
    seen = Counter()

    def cycle(g, exps):
        safe = mask(g, exps)
        forbidden = classify._shape_of(g.adjacency)[1]
        digits = np.searchsorted(census._DIGIT_EXP, exps).astype(np.int64)
        indices = 3 ** np.arange(len(exps), dtype=np.int64) @ digits
        for i in indices[~safe if forbidden is None else slice(None)].tolist():
            m = orientation(g, i)
            witness = classify._classify(m).witness
            if (tri := classify._bad_triangle(m.kinds)) is not None:
                assert witness.kind == "triangle" and witness.vertices == tri
            elif (quad := classify.find_forbidden_quadrangle(m)) is not None:
                assert witness.kind == "quadrangle" and witness.vertices == quad
            else:
                assert witness.kind == "forbidden-subgraph"
                assert (witness.pattern, witness.vertices) == forbidden
            seen[witness.kind] += 1
        return safe

    def past_screens(m):
        cert = classified(m)
        assert find_forbidden_triangle(m) is None and classify.find_forbidden_quadrangle(m) is None
        assert classify._shape_of(m.adjacency)[1] is None
        assert cert == classify._classify(MixedGraph(m.n, m.kinds)), m.encode()
        seen["classified"] += 1
        return cert

    monkeypatch.setattr(census, "_cycle_safe", cycle)
    monkeypatch.setattr(census, "_classify", past_screens)
    report = verify_main_theorem(n_max=5)
    assert report.ok
    assert sum(lv.orientations for lv in report.levels) == 106_933
    assert seen == {
        "triangle": 104_320, "quadrangle": 1_268, "forbidden-subgraph": 1_091, "classified": 254,
    }


def _accepted_encodings(graphs) -> list[str]:
    """Sorted encodings of the orientations of ``graphs`` that the classifier
    accepts."""
    return sorted(
        m.encode() for g in graphs for m in enumerate_orientations(g)
        if classify.classify_threshold(m).accepted
    )


def test_census_reports_cycle_mask_errors(monkeypatch):
    # A mask that rejects every orientation must surface each orientation the
    # classifier accepts as a mismatch, recorded by its encoding.
    monkeypatch.setattr(census, "_cycle_safe", lambda g, exps: np.zeros(exps.shape[1], dtype=bool))
    report = verify_main_theorem(n_max=4)
    assert not report.ok
    for lv in report.levels:
        assert lv.mismatches == _accepted_encodings(enumerate_connected_graphs(lv.n))
        assert lv.accepts == {} and lv.rejects == lv.orientations
    assert [len(lv.mismatches) for lv in report.levels] == [1, 3, 16, 73]
    assert "result: FAIL" in report.text()


def test_census_reports_shape_screen_errors(monkeypatch):
    # A shape screen that finds P_4 in K_4 rejects all 81 orientations of a
    # family graph; each of the 15 it hides from H3 must surface as a
    # mismatch, recorded by its encoding, and the other graphs stay clean.
    real, k4 = census._shape_of, complete_graph(4)

    def p4_in_k4(adjacency):
        return (None, ("P_4", (0, 1, 2, 3))) if adjacency == k4.adjacency else real(adjacency)

    monkeypatch.setattr(census, "_shape_of", p4_in_k4)
    report = verify_main_theorem(n_max=4)
    assert not report.ok
    assert [lv.mismatches for lv in report.levels[:3]] == [[], [], []]
    assert report.levels[3].mismatches == _accepted_encodings([k4])
    assert len(report.levels[3].mismatches) == 15
    assert report.levels[3].accepts == {"H1": 37, "H4": 21}
    assert "result: FAIL" in report.text()


def test_screened_tally_matches_unscreened_reference(monkeypatch):
    # The screened sweep counts what _tally counts when it classifies every
    # orientation, with verdicts decided orientation by orientation.  K_5
    # minus an edge spans three key passes.  With every orientation masked
    # out, the boundaries and the GREATER orientations, now mismatches,
    # still come from the class verdicts.
    graphs = [g for n in range(1, 5) for g in enumerate_connected_graphs(n)]
    graphs.append(build(5, [(u, v, "undirected") for u, v in combinations(range(5), 2)
                            if (u, v) != (3, 4)]))
    assert orientation_count(graphs[-1]) > 2 * census._KEY_BLOCK
    refs = [census._tally(census._decided(enumerate_orientations(g))) for g in graphs]
    for g, ref in zip(graphs, refs):
        stats = census._tally_underlying(g)
        assert (stats.n, stats.underlying_graphs) == (g.n, 1)
        assert replace(stats, n=0, underlying_graphs=0, classes=0, polys=0) == ref, g.encode()
    monkeypatch.setattr(census, "_cycle_safe", lambda g, exps: np.zeros(exps.shape[1], dtype=bool))
    boundary = 0
    for g, ref in zip(graphs, refs):
        stats = census._tally_underlying(g)
        above = [m.encode() for m, (_, exact) in zip(enumerate_orientations(g),
                 census._decided(enumerate_orientations(g))) if exact is Trichotomy.GREATER]
        assert stats.rejects == stats.orientations == ref.orientations and stats.accepts == {}
        assert stats.boundary_equal == ref.boundary_equal and stats.mismatches == sorted(above)
        boundary += stats.boundary_equal
    assert boundary == 27


def test_census_pool_matches_serial():
    def body(report):
        return [line for line in report.text().splitlines() if not line.startswith("elapsed:")]

    pooled = verify_main_theorem(n_max=4, jobs=2)
    serial = verify_main_theorem(n_max=4)
    assert body(pooled) == body(serial)
    assert [lv.classes for lv in pooled.levels] == [lv.classes for lv in serial.levels]
    assert [lv.classes for lv in serial.levels] == [1, 1, 5, 90]
    assert [lv.polys for lv in pooled.levels] == [lv.polys for lv in serial.levels]
    assert [lv.polys for lv in serial.levels] == [1, 1, 4, 54]


_N4_TEXT = """\
census: exhaustive classifier check up to 4 vertices
n=1: underlying=1 orientations=1 polys=1 accepts[H3=1] rejects=0 boundary-equal=0 mismatches=0
n=2: underlying=1 orientations=3 polys=1 accepts[H3=3] rejects=0 boundary-equal=0 mismatches=0
n=3: underlying=2 orientations=36 polys=4 accepts[H3=7 H4=9] rejects=20 boundary-equal=0 mismatches=0
n=4: underlying=6 orientations=1188 polys=54 accepts[H1=37 H3=15 H4=21] rejects=1115 boundary-equal=27 mismatches=0
result: PASS"""

_N6_TEXT = """\
census: exhaustive classifier check up to 6 vertices with six-vertex deep sweep
n=1: underlying=1 orientations=1 polys=1 accepts[H3=1] rejects=0 boundary-equal=0 mismatches=0
n=2: underlying=1 orientations=3 polys=1 accepts[H3=3] rejects=0 boundary-equal=0 mismatches=0
n=3: underlying=2 orientations=36 polys=4 accepts[H3=7 H4=9] rejects=20 boundary-equal=0 mismatches=0
n=4: underlying=6 orientations=1188 polys=54 accepts[H1=37 H3=15 H4=21] rejects=1115 boundary-equal=27 mismatches=0
n=5: underlying=21 orientations=105705 polys=3091 accepts[H1=36 H2=49 H3=31 H4=45] rejects=105544 boundary-equal=165 mismatches=0
deep K_2.K_5: orientations=177147 accepted=93 boundary-equal=0 mismatches=0
deep K_3.K_4: orientations=19683 accepted=105 boundary-equal=0 mismatches=0
deep k24-plus-2edges: orientations=59049 accepted=60 boundary-equal=0 mismatches=0
deep K_6: orientations=14348907 accepted=63 mismatches=0 subsample=10000 subsample-mismatches=0
sampled n=6: samples=10000 accepted=0 boundary-equal=38 mismatches=0
result: PASS"""


def test_report_text_is_pinned():
    def body(report):
        return "\n".join(
            line for line in report.text().splitlines() if not line.startswith("elapsed:")
        )

    small = verify_main_theorem(n_max=4)
    assert body(small) == _N4_TEXT

    # The --nmax 6 report, with the counts of a clean run.
    n5 = LevelStats(
        5, 21, 105705, accepts={"H1": 36, "H2": 49, "H3": 31, "H4": 45},
        rejects=105544, boundary_equal=165, polys=3091,
    )

    def deep(orientations, accepts, label):
        return LevelStats(6, 1, orientations, accepts=accepts, label=label)

    report = CensusReport(
        n_max=6,
        levels=[*small.levels, n5],
        deep_levels=[
            deep(3 ** 11, {"H4": 93}, "K_2.K_5"),
            deep(3 ** 9, {"H2": 105}, "K_3.K_4"),
            deep(3 ** 10, {"H1": 60}, "k24-plus-2edges"),
        ],
        k6=K6Stats(total=3 ** 15, accepted=63, subsample=10000),
        sample=LevelStats(6, orientations=10000, rejects=10000, boundary_equal=38),
        elapsed_seconds=18.4,
    )
    assert report.ok
    assert body(report) == _N6_TEXT

    # Sample and K_6 subsample mismatches fail the run and are named.
    enc = orientation(complete_graph(6), 5).encode()
    for failing in (
        replace(report, sample=replace(report.sample, mismatches=[enc])),
        replace(report, k6=replace(report.k6, subsample_mismatches=[enc])),
    ):
        assert not failing.ok
        lines = body(failing).splitlines()
        assert lines[-1] == "result: FAIL"
        assert lines.count(f"  mismatch {enc}") == 1
        assert lines[lines.index(f"  mismatch {enc}") - 1].endswith("mismatches=1")


def test_class_representatives_share_the_spectrum():
    # Every orientation of every connected graph with n <= 5 has the char
    # poly of its switching-class representative.
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            tree, cotree = census._spanning_tree(g)
            assert len(tree) == n - 1 and len(tree) + len(cotree) == g.edge_count()
            total = orientation_count(g)
            for start in range(0, total, census._BLOCK):
                indices = range(start, min(start + census._BLOCK, total))
                keys = census._class_keys(g, _exps(indices, g.edge_count()))
                rows = _char_poly_rows(census._class_matrices(g, keys))
                ref = char_poly_rows([orientation(g, i) for i in indices])
                assert (rows == ref).all(), (g.encode(), start)


def test_class_verdicts_match_block_decide():
    # K_5's 3^10 orientations span nine key blocks of _KEY_BLOCK.
    for label, g in [("K_5", complete_graph(5)), *census._deep_family_graphs()[1:]]:
        passes, table = _swept(g)
        tables, verdicts = zip(*(
            pair for digits, _, codes in passes
            for pair in zip(census._built(g, digits), map(census._VERDICTS.__getitem__, codes))
        ))
        assert list(tables) == [m.kinds for m in enumerate_orientations(g)], label
        ref = [exact for _, exact in census._decided(enumerate_orientations(g))]
        assert list(verdicts) == ref, label
        assert np.count_nonzero(table) == {"K_5": 4 ** 6 - 1, "K_3.K_4": 256, "k24-plus-2edges": 1024}[label]
    # On K_6 the star at vertex 0 is the BFS tree, so the key holds the
    # holonomies of the triangles (0, a, b) as base-4 digits.
    k6 = complete_graph(6)
    rng = random.Random(9)
    exps = _exps([rng.randrange(3 ** 15) for _ in range(600)], 15)
    e, pos = exps.astype(np.int64), {pair: i for i, pair in enumerate(edge_list(k6))}
    ref = sum(
        (e[pos[0, a]] + e[pos[a, b]] - e[pos[0, b]]) % 4 * 4 ** j
        for j, (a, b) in enumerate(combinations(range(1, 6), 2))
    )
    assert (census._class_keys(k6, exps) == ref).all()
    # A pass takes its low digits from one shared table and its high digits
    # from its start; it must read as the digits of its indices, with the
    # codes its table holds for their keys.
    for g in (complete_graph(5), census._deep_family_graphs()[0][1], k6):
        m, table = g.edge_count(), census._class_table(g)
        last = orientation_count(g) - census._KEY_BLOCK
        for start in (0, last // census._KEY_BLOCK // 2 * census._KEY_BLOCK, last):
            digits, exps, codes = census._class_pass(g, start, table)
            want = census._digits(range(start, start + census._KEY_BLOCK), m)
            assert (digits == want).all() and (exps == census._DIGIT_EXP[want.T]).all()
            assert codes.all() and (codes == table[census._class_keys(g, exps)]).all()


def test_cycle_safe_is_the_classifiers_cycle_verdict(monkeypatch):
    # Every exhaustive sweep, K_6's too, rejects by the cycle mask, so the
    # mask must be the classifier's triangle and quadrangle scans: on every
    # orientation with n <= 5, on every orientation of K_{2,4} plus two
    # edges, on seeded K_6 orientations and on the first K_6 pass.  Its
    # triangle half, the mask over the triangles alone, must be the triangle
    # scan.
    def verdicts(g, indices):
        tables = [m.kinds for m in census._oriented(g, indices)]
        want = [classify._bad_triangle(t) is None
                and classify.find_forbidden_quadrangle(MixedGraph(g.n, t)) is None for t in tables]
        return census._cycle_safe(g, _exps(indices, g.edge_count())), want, tables

    graphs = [g for n in range(1, 6) for g in enumerate_connected_graphs(n)]
    passed = total = 0
    for g in [*graphs, sporadic_underlying()["k24-plus-2edges"]]:
        safe, want, tables = verdicts(g, range(orientation_count(g)))
        assert safe.tolist() == want, g.encode()
        if g.n <= 5:
            passed, total = passed + int(safe.sum()), total + len(tables)
    assert (passed, total) == (1345, 106933)
    k6 = complete_graph(6)
    assert [target for _, _, target in census._cycles(k6)] == [0] * 20  # no induced quadrangle
    rng = random.Random(31)
    for indices in ([rng.randrange(3 ** 15) for _ in range(2000)], range(census._KEY_BLOCK)):
        safe, want, _ = verdicts(k6, indices)
        assert safe.tolist() == want
    assert census._tally_pass(k6, 0, census._class_table(k6)).accepted == int(safe.sum()) == 3
    cycles = census._cycles
    monkeypatch.setattr(census, "_cycles", lambda g: tuple(c for c in cycles(g) if c[2] == 0))
    passed = total = 0
    for g in graphs:
        safe, _, tables = verdicts(g, range(orientation_count(g)))
        assert safe.tolist() == [classify._bad_triangle(t) is None for t in tables], g.encode()
        passed, total = passed + int(safe.sum()), total + len(tables)
    assert (passed, total) == (2613, 106933)


def test_k6_class_representatives_share_the_spectrum():
    # The class keys and matrices go through the census digit tables, which
    # are built from graphs._EXP_FROM_KIND and graphs._UNIT_FROM_EXP, while
    # char_poly reads each orientation's kinds through graphs._entry_array();
    # equal char polys tie the digit order to the one alphabet.
    rng = random.Random(6)
    indices = [rng.randrange(3 ** 15) for _ in range(600)]
    k6 = complete_graph(6)
    keys = census._class_keys(k6, _exps(indices, 15))
    rows = _char_poly_rows(census._class_matrices(k6, keys))
    for i, row in zip(indices, rows):
        assert char_poly(orientation(k6, i)).coeffs == tuple(row[::-1].tolist())


#: i-exponent of H[u, v], u < v, for orientation digits 0, 1, 2: 1, i, -i.
_DIGIT_EXPONENT = (0, 1, 3)


def _reference_keys(g: MixedGraph, tree, cotree, digits: np.ndarray) -> np.ndarray:
    """``census._class_keys`` written out in int64, reduced ``% 4`` once per
    holonomy."""
    pos = {e: i for i, e in enumerate(edge_list(g))}
    exps = np.array(_DIGIT_EXPONENT, dtype=np.int64)[digits]
    pot = np.zeros((len(digits), g.n), dtype=np.int64)
    for p, v in tree:
        pot[:, v] = pot[:, p] + (exps[:, pos[p, v]] if p < v else -exps[:, pos[v, p]])
    keys = np.zeros(len(digits), dtype=np.int64)
    for j, (a, b) in enumerate(cotree):
        keys += (pot[:, a] + exps[:, pos[a, b]] - pot[:, b]) % 4 * 4 ** j
    return keys


def test_class_keys_match_int64_reference():
    edge = path_graph(2)
    for digit, e in enumerate(_DIGIT_EXPONENT):
        assert hermitian_matrix(orientation(edge, digit))[0, 1] == 1j ** e
    graphs = [g for n in range(1, 6) for g in enumerate_connected_graphs(n)]
    graphs += [g for _, g in census._deep_family_graphs()]
    for g in graphs:
        tree, cotree = census._spanning_tree(g)
        digits = census._digits(range(orientation_count(g)), g.edge_count())
        keys = census._class_keys(g, census._DIGIT_EXP[digits.T])
        assert keys.dtype == np.int64
        assert (keys == _reference_keys(g, tree, cotree, digits)).all(), g.encode()
    rng = random.Random(27)
    digits = census._digits([rng.randrange(3 ** 15) for _ in range(600)], 15)
    k6 = complete_graph(6)
    tree, cotree = census._spanning_tree(k6)
    assert (census._class_keys(k6, census._DIGIT_EXP[digits.T])
            == _reference_keys(k6, tree, cotree, digits)).all()


def test_class_sweep_batches_stay_within_block(monkeypatch):
    # The class sweeps key _KEY_BLOCK orientations at a time but compute
    # char polys in batches of at most _BLOCK keys, the batch that bounds
    # their memory.
    batches = []
    real = census._char_poly_rows

    def recorded(h):
        batches.append(len(h))
        return real(h)

    monkeypatch.setattr(census, "_char_poly_rows", recorded)
    for g in (complete_graph(5), dict(census._deep_family_graphs())["k24-plus-2edges"]):
        assert orientation_count(g) >= 9 * census._KEY_BLOCK
        batches.clear()
        stats = census._tally_underlying(g)
        assert 0 < max(batches) <= census._BLOCK, g.encode()
        assert sum(batches) == stats.polys


def test_k6_class_blocks_dispatched(monkeypatch):
    # The K_6 sweep fills its class table before its passes, deciding only
    # the smaller key of each converse pair: of the 256 blocks of 4^6 keys,
    # the 16 whose top four digits are all even hold 2,080 such keys each,
    # and of the other 240 exactly half hold 4,096, so 524,800 in all.
    every = np.arange(4 ** 10, dtype=np.int64)
    canon = every[every <= census._converse_keys(every)]
    holding = sorted(set((canon // 4 ** 6).tolist()))
    assert len(holding) == 136 and len(canon) == 16 * 2080 + 120 * 4096 == 524800
    decided, rows, starts = [], [], []
    real_matrices, real_rows = census._class_matrices, census._char_poly_rows

    def matrices(g, keys):
        decided.extend(keys.tolist())
        return real_matrices(g, keys)

    def char_poly_rows(h):
        rows.append(len(h))
        return real_rows(h)

    def tally_pass(g, start, table):
        assert table.all()  # every pass only reads the table
        starts.append(start)
        if start == 0:
            assert np.flatnonzero(table == census._GREATER).tolist() == [0]
        return LevelStats(0)

    monkeypatch.setattr(census, "_class_matrices", matrices)
    monkeypatch.setattr(census, "_char_poly_rows", char_poly_rows)
    monkeypatch.setattr(census, "_tally_pass", tally_pass)
    census._k6_sweep(map, random.Random(0), subsample=0)
    assert decided == canon.tolist() and sum(rows) == 524800
    assert starts == list(range(0, 3 ** 15, census._KEY_BLOCK))


#: Run in a fresh interpreter, since sys.modules is shared by the whole process.
_CENSUS_MODULES = """\
import sys
from hermspec.census import verify_main_theorem

print(verify_main_theorem(5).ok, "numpy.ma" in sys.modules)
"""


def test_census_never_imports_numpy_ma():
    # The first np.unique of a process imports numpy.ma, which a fresh
    # census would pay for; the census finds distinct keys by a sort instead.
    src = str(Path(hermspec.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", _CENSUS_MODULES],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert done.stdout.split() == ["True", "False"]


def test_k6_class_table_and_chunk():
    k6 = complete_graph(6)
    (code,) = census._class_codes(k6, np.zeros(1, dtype=np.int64))
    assert code == census._GREATER
    # The first pass holds 3 of the 63 K_6[s,t] forms, all of class 0.
    stats = census._tally_pass(k6, 0, census._class_table(k6))
    assert (stats.accepted, stats.mismatches) == (3, [])
    forms = sorted(m.encode() for m in census._oriented(k6, range(census._KEY_BLOCK))
                   if classify.classify_threshold(m).accepted)
    assert len(forms) == 3
    # Class 0 marked LESS turns those 3 into mismatches.
    table = census._class_table(k6)
    table[0] = census._CODE[Trichotomy.LESS]
    stats = census._tally_pass(k6, 0, table)
    assert (stats.accepted, stats.mismatches) == (3, forms)
    # Orientation 1 (one arc, 0 -> 1) fails its triangles; marking its class
    # as above the threshold must show up as a mismatch.  A table holds one
    # code per converse pair, so the converse class is marked too.
    keys = census._class_keys(k6, _exps([1], 15))
    assert keys.tolist() == [1 + 4 + 16 + 64]
    table = census._class_table(k6)
    table[keys] = table[census._converse_keys(keys)] = census._GREATER
    stats = census._tally_pass(k6, 0, table)
    assert stats.accepted == 3 and orientation(k6, 1).encode() in stats.mismatches


def test_k6_pass_tally_matches_unscreened_reference():
    # K_6 goes through the screened pass of every exhaustive sweep: on pass 0
    # and two seeded passes, _tally_pass counts what _tally counts when it
    # classifies every orientation, with verdicts decided one by one.  Its 3
    # mask-safe orientations in pass 0 are classified, not accepted by the
    # mask.
    k6 = complete_graph(6)
    table = census._class_table(k6)
    rng = random.Random(37)
    starts = [0] + [rng.randrange(3 ** 7) * census._KEY_BLOCK for _ in range(2)]
    for start in starts:
        indices = range(start, start + census._KEY_BLOCK)
        ref = census._tally(census._decided(census._oriented(k6, indices)))
        assert census._tally_pass(k6, start, table) == ref, start
        if start == 0:
            assert ref.accepts == {"H3": 3} and ref.rejects == census._KEY_BLOCK - 3


def _class_polys(g: MixedGraph, keys) -> set[tuple[int, ...]]:
    rows = _char_poly_rows(census._class_matrices(g, keys))
    return set(map(tuple, np.unique(rows, axis=0).tolist()))


def test_taylor_oracle_matches_sturm_on_class_polynomials():
    # The census oracle decides by the Taylor test, the classifier by Sturm
    # chains; both must agree on every polynomial the census meets.
    census_polys = set()
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            keys = census._class_keys(g, _exps(range(orientation_count(g)), g.edge_count()))
            census_polys |= _class_polys(g, np.unique(keys))
    # A class and its converse share their char poly
    # (test_converse_classes_share_char_polys), so the converse-canonical
    # K_6 keys reach every K_6 class polynomial.
    every = np.arange(4 ** 10, dtype=np.int64)
    canon = every[every <= census._converse_keys(every)]
    k6_polys = set()
    for start in range(0, len(canon), census._KEY_BLOCK):
        k6_polys |= _class_polys(complete_graph(6), canon[start:start + census._KEY_BLOCK])
    golden = Counter()
    for row in census_polys | k6_polys:
        p = IntPolynomial(row[::-1])
        for c in (NEG_GOLDEN, NEG_SQRT2, NEG_SQRT3):
            exact = compare_min_root(p, c)
            assert taylor_compare_min_root(row, c) is exact, (row, c)
            if c is NEG_GOLDEN and row in census_polys:
                golden[exact] += 1
    assert (len(census_polys), len(k6_polys)) == (278, 480)
    assert golden == {Trichotomy.LESS: 262, Trichotomy.GREATER: 12, Trichotomy.EQUAL: 4}


def test_converse_classes_share_char_polys():
    # The converse of a mixed graph has the conjugate Hermitian matrix, so a
    # class key and its converse key give equal class char polys; the census
    # decides one of each pair and stores the verdict under both.
    classes, polys = [], []
    for n in range(1, 6):
        n_classes = n_polys = 0
        for g in enumerate_connected_graphs(n):
            exps = _exps(range(orientation_count(g)), g.edge_count())
            met = np.unique(census._class_keys(g, exps))
            converse = census._converse_keys(met)
            rows = _char_poly_rows(census._class_matrices(g, met))
            conv_rows = _char_poly_rows(census._class_matrices(g, converse))
            assert (rows == conv_rows).all(), g.encode()
            assert set(converse.tolist()) == set(met.tolist()), g.encode()
            assert np.flatnonzero(_swept(g)[1]).tolist() == met.tolist(), g.encode()
            n_classes += len(met)
            n_polys += int((met <= converse).sum())
        classes.append(n_classes)
        polys.append(n_polys)
    assert classes == [1, 1, 5, 90, 5990]
    assert polys == [1, 1, 4, 54, 3091]
    rng = np.random.default_rng(26)
    keys = rng.integers(0, 4 ** 10, size=20000, dtype=np.int64)
    converse = census._converse_keys(keys)
    shifts = 2 * np.arange(10)[:, None]  # digit by digit, h becomes (4 - h) mod 4
    assert ((converse >> shifts & 3) == (-(keys >> shifts) & 3)).all()
    k6 = complete_graph(6)
    rows = _char_poly_rows(census._class_matrices(k6, keys))
    assert (rows == _char_poly_rows(census._class_matrices(k6, converse))).all()
    # 1,024 of the 4^10 K_6 keys are their own converse; the rest pair up.
    every = np.arange(4 ** 10, dtype=np.int64)
    assert int((every <= census._converse_keys(every)).sum()) == 524800
