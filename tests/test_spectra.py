from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from hermspec.graphs import (
    EdgeKind,
    MixedGraph,
    build,
    coalescence,
    complete_graph,
    cycle_graph,
    disjoint_union,
    hermitian_matrix,
    join,
    make_knst,
    path_graph,
    star_graph,
)
from hermspec.polynomials import IntPolynomial, Trichotomy
from hermspec.quadratic import NEG_GOLDEN, NEG_SQRT2, NEG_SQRT3
from hermspec.spectra import (
    EquitablePartition,
    EquitableViolation,
    char_poly,
    char_poly_int_matrix,
    char_poly_rows,
    compare_lambda_min,
    eigenvalues,
    f_cubic,
    interlacing_holds,
    phi_cubic,
    quotient_contained_exactly,
    validate_equitable,
)

# ---------------------------------------------------------------------------
# Independent characteristic-polynomial oracle: expand det(xI - H) by the
# Leibniz formula with polynomial coefficients.  Entries are units and n <= 5,
# so complex float arithmetic is exact here.


def _poly_mul(p: list[complex], q: list[complex]) -> list[complex]:
    out = [0j] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _charpoly_leibniz(h: np.ndarray) -> list[int]:
    n = h.shape[0]
    total = [0j] * (n + 1)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length, j = 0, start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = [complex(sign)]
        for i in range(n):
            if perm[i] == i:
                term = _poly_mul(term, [-h[i][i], 1])
            else:
                term = _poly_mul(term, [-h[i][perm[i]]])
        for k, c in enumerate(term):
            total[k] += c
    out = []
    for c in total:
        assert abs(c.imag) < 1e-9
        out.append(round(c.real))
    return out


def _embed_real(h: np.ndarray) -> list[list[int]]:
    """Real symmetric 2n x 2n embedding [[Re, -Im], [Im, Re]] of the (n, n)
    Hermitian array H.

    Its characteristic polynomial is the square of char(H).  Built entry by
    entry in Python ints, it is the reference for the embedding that
    ``spectra._char_poly_rows`` builds in numpy.
    """
    n = len(h)
    out = [[0] * (2 * n) for _ in range(2 * n)]
    for u in range(n):
        for v in range(n):
            z = h[u, v]
            re, im = int(z.real), int(z.imag)
            out[u][v] = re
            out[u][n + v] = -im
            out[n + u][v] = im
            out[n + u][n + v] = re
    return out


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


def test_char_poly_matches_leibniz_oracle():
    rng = random.Random(11)
    for _ in range(120):
        m = _random_mixed(rng, rng.randrange(1, 6))
        h = hermitian_matrix(m)
        assert list(char_poly(m).coeffs) == _charpoly_leibniz(h)


def test_char_poly_known_graphs():
    assert char_poly(path_graph(2)).coeffs == (-1, 0, 1)
    assert char_poly(path_graph(4)).coeffs == (1, 0, -3, 0, 1)
    assert char_poly(cycle_graph(4)).coeffs == (0, 0, -4, 0, 1)
    # A directed triangle has holonomy +-i: char poly x^3 - 3x.
    tri = build(3, [(0, 1, "arc"), (1, 2, "arc"), (2, 0, "arc")])
    assert char_poly(tri).coeffs == (0, -3, 0, 1)
    assert char_poly(build(1, [])).coeffs == (0, 1)


def test_float_and_integer_paths_agree():
    # The one Faddeev-LeVerrier loop, run on the halved real embedding in
    # certified float64 and on Python ints, must agree coefficient by
    # coefficient; up to n = 13 the float certificate must hold.
    from hermspec.spectra import _faddeev_leverrier

    rng = random.Random(12)
    for _ in range(60):
        m = _random_mixed(rng, rng.randrange(2, 14))
        e = np.array(_embed_real(hermitian_matrix(m)), dtype=np.int64)
        norm = float(np.abs(e).sum(axis=1).max())
        fast = _faddeev_leverrier(e.astype(np.float64), 2, norm)
        assert fast is not None
        assert fast.tolist() == _faddeev_leverrier(e.astype(object), 2, None).tolist()


def test_char_poly_large_graph_uses_integer_path(monkeypatch):
    # With the float certificate's limit lowered, every run falls back to
    # the exact integer rerun.  It must match the certified float result and
    # the doubled real embedding, whose char poly is the square.
    rng = random.Random(13)
    m = _random_mixed(rng, 13, p=0.4)
    p = char_poly(m)
    monkeypatch.setattr("hermspec.spectra._EXACT_LIMIT", 1.0)
    assert char_poly(m) == p
    sq = char_poly_int_matrix(_embed_real(hermitian_matrix(m)))
    assert sq.coeffs == (p * p).coeffs


def test_batched_rows_match_scalar_char_poly():
    rng = random.Random(21)
    for n in range(1, 14):
        graphs = [_random_mixed(rng, n, p=rng.uniform(0.2, 0.9)) for _ in range(6)]
        rows = char_poly_rows(graphs)
        assert rows.shape == (6, n + 1)
        for g, row in zip(graphs, rows):
            assert tuple(row[::-1].tolist()) == char_poly(g).coeffs
    with pytest.raises(ValueError):
        char_poly_rows([])
    with pytest.raises(ValueError):
        char_poly_rows([path_graph(2), path_graph(3)])


def test_batched_rows_match_scalar_on_integer_rerun(monkeypatch):
    # The scalar polynomials come from the certified float path.  With the
    # certificate's limit lowered, every stack with an edge reruns on Python
    # ints, and must give the same rows.
    rng = random.Random(22)
    stacks = [
        [_random_mixed(rng, n, p=rng.uniform(0.2, 0.9)) for _ in range(4)]
        for n in range(2, 14)
    ]
    expected = [[char_poly(g).coeffs for g in graphs] for graphs in stacks]
    monkeypatch.setattr("hermspec.spectra._EXACT_LIMIT", 1.0)
    for graphs, polys in zip(stacks, expected):
        rows = char_poly_rows(graphs)
        assert rows.dtype == object
        assert [tuple(row[::-1].tolist()) for row in rows] == polys


def test_embed_real_square_identity():
    rng = random.Random(14)
    for _ in range(40):
        m = _random_mixed(rng, rng.randrange(1, 7))
        p = char_poly(m)
        sq = char_poly_int_matrix(_embed_real(hermitian_matrix(m)))
        assert sq.coeffs == (p * p).coeffs


def test_char_poly_int_matrix_validation():
    assert char_poly_int_matrix([[0, 1], [1, 0]]).coeffs == (-1, 0, 1)
    # Entries beyond 2**53 defeat float64: the exact rerun must start from
    # the original integers.
    big = char_poly_int_matrix([[2**60 + 1, 1], [1, 0]])
    assert big.coeffs == (-1, -(2**60 + 1), 1)
    with pytest.raises(ValueError):
        char_poly_int_matrix([[0, 1], [1]])


def test_eigenvalues_summary():
    s = eigenvalues(complete_graph(4))
    assert s.n == 4
    assert s.eigenvalues == tuple(sorted(s.eigenvalues, reverse=True))
    assert s.eigenvalues[0] == pytest.approx(3.0)
    assert s.lambda_min == pytest.approx(-1.0)
    assert s.char_poly.degree == 4
    st = eigenvalues(star_graph(3))
    assert st.lambda_min == pytest.approx(-np.sqrt(3))


def test_lambda_min_of_empty_graph_is_a_value_error():
    empty = eigenvalues(MixedGraph(0, ()))
    assert empty.eigenvalues == ()
    with pytest.raises(ValueError, match="empty graph has no smallest eigenvalue"):
        empty.lambda_min


def test_compare_lambda_min_exact_cases():
    assert compare_lambda_min(path_graph(4), NEG_GOLDEN) is Trichotomy.EQUAL
    assert compare_lambda_min(star_graph(3), NEG_SQRT3) is Trichotomy.EQUAL
    assert compare_lambda_min(complete_graph(3), NEG_SQRT2) is Trichotomy.GREATER
    assert compare_lambda_min(cycle_graph(4), NEG_GOLDEN) is Trichotomy.LESS
    assert compare_lambda_min(build(1, []), -1) is Trichotomy.GREATER
    # Accepts a polynomial directly.
    assert compare_lambda_min(IntPolynomial([-2, 0, 1]), NEG_SQRT2) is Trichotomy.EQUAL
    with pytest.raises(ValueError):
        compare_lambda_min(IntPolynomial([5]), 0)


def test_interlacing_on_samples():
    rng = random.Random(15)
    for _ in range(60):
        n = rng.randrange(2, 7)
        m = _random_mixed(rng, n)
        k = rng.randrange(1, n)
        subset = rng.sample(range(n), k)
        assert interlacing_holds(m, subset)


def test_equitable_partition_two_clique_quotient():
    bowtie = coalescence(complete_graph(3), 0, complete_graph(3), 0)
    part = validate_equitable(bowtie, [[0], [1, 2, 3, 4]])
    assert isinstance(part, EquitablePartition)
    assert part.quotient == ((0j, 4 + 0j), (1 + 0j, 1 + 0j))
    assert part.quotient_is_real()
    assert quotient_contained_exactly(part, bowtie) is True


def test_equitable_violation_witness():
    p3 = path_graph(3)
    bad = validate_equitable(p3, [[0, 1], [2]])
    assert isinstance(bad, EquitableViolation)
    assert bad.cell == 0
    assert bad.expected != bad.actual
    with pytest.raises(ValueError):
        validate_equitable(p3, [[0, 1], [1, 2]])


def test_equitable_imaginary_quotient_returns_none():
    arc = make_knst(1, 1)
    part = validate_equitable(arc, [[0], [1]])
    assert isinstance(part, EquitablePartition)
    assert not part.quotient_is_real()
    assert quotient_contained_exactly(part, arc) is None


def test_phi_cubic_values():
    for n in range(2, 10):
        assert phi_cubic(n)(-1) == 0
    assert phi_cubic(2).coeffs == (-1, -1, 1, 1)
    with pytest.raises(ValueError):
        phi_cubic(1)


def test_f_cubic_is_the_two_clique_factor():
    # (K_s u K_t) joined to one vertex: char poly = f * (x+1)^(s+t-2).
    for s, t in [(2, 3), (3, 3), (4, 2), (5, 1)]:
        g = join(
            build(1, []),
            disjoint_union(complete_graph(s), complete_graph(t)),
        )
        expect = f_cubic(s, t)
        for _ in range(s + t - 2):
            expect = expect * IntPolynomial([1, 1])
        assert char_poly(g).coeffs == expect.coeffs
    with pytest.raises(ValueError):
        f_cubic(0, 3)
