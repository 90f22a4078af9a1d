"""Spectral computations: exact characteristic polynomials, float eigenvalues,
exact threshold comparisons, interlacing, and equitable partitions.

Every classifier verdict, block bound and certificate check bottoms out in
``compare_lambda_min``, which is exact: the characteristic polynomial has
integer coefficients and root counts against the algebraic thresholds come
from integer Sturm chains (``polynomials.compare_min_root``).  The census
oracle decides its class polynomials by the separate Taylor-shift test
(``polynomials.taylor_compare_min_root``).  Floating eigenvalues are for
reporting and sanity checks only.

One Faddeev-LeVerrier loop computes every characteristic polynomial.  It
works on a stack of real integer matrices: 2n x 2n embeddings [[Re H, -Im H],
[Im H, Re H]] of Hermitian H, whose traces are twice the (real) traces of
H's products and are halved, or an integer matrix as given; a single matrix
is a stack of one.  The loop runs in float64 while a written bound
certifies the whole stack exact (every product entry and trace below 2**52,
every trace dividing evenly) and otherwise reruns on Python ints from the
original entries.

numpy is imported inside the functions that build an array, never at module
level: the exact comparisons, the cubics and everything the classifier's
accepts and threshold rejects call run without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

from .graphs import MixedGraph, _entry_array, hermitian_matrix, induced
from .polynomials import IntPolynomial, Trichotomy, _as_quadratic, compare_min_root
from .quadratic import QuadraticNumber

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SpectralSummary",
    "EquitablePartition",
    "EquitableViolation",
    "char_poly",
    "char_poly_rows",
    "char_poly_int_matrix",
    "eigenvalues",
    "compare_lambda_min",
    "interlacing_holds",
    "validate_equitable",
    "quotient_contained_exactly",
    "phi_cubic",
    "f_cubic",
]

#: Certified float bound: every integer below 2**53 is exact in float64, and
#: the factor 2 absorbs the rounding of the bound computations themselves.
_EXACT_LIMIT = 2.0**52


def _faddeev_leverrier(
    x: np.ndarray, trace_scale: int, norm: float | None
) -> np.ndarray | None:
    """Faddeev-LeVerrier on a stack of integer matrices ``x`` of shape
    (..., size, size); returns coefficient rows (..., steps + 1), high to low.

    With M_0 = I the loop forms M_k = X M_{k-1} + c_k I, where
    c_k = -tr(X M_{k-1}) / (trace_scale * k), for steps = size // trace_scale
    steps.  ``trace_scale`` is 1 for a plain matrix and 2 for the real
    embedding of a Hermitian matrix (see ``_char_poly_rows``).  Traces and
    diagonals go through a strided view of each product.  Each c_k is the
    floor of the quotient, so every M_k stays an integer matrix; that every
    trace divides evenly is checked once, after the loop.

    With ``norm`` (an upper bound on the largest absolute row sum of every
    matrix in the stack) the loop runs in float64 and certifies the whole
    stack: before each product, norm * max|M| < 2**52 keeps every product and
    partial sum of X M an integer below 2**52, exact in any summation order;
    after it, size * max|X M| < 2**52 does the same for the traces.  The new
    M then stays below 2**53; its bound for the next check uses
    |c_k| <= size * max|X M| / (trace_scale * k) + 1.  Returns None as soon
    as a check fails, or when a trace does not divide.  With ``norm=None``,
    x holds Python ints and the loop is exact by construction.
    """
    import numpy as np

    batch, size = x.shape[:-2], x.shape[-1]
    steps = size // trace_scale
    rows = np.empty(batch + (steps + 1,), dtype=x.dtype)
    rows[..., 0] = 1
    remainders = np.zeros_like(rows)
    m = np.eye(size, dtype=x.dtype)
    bound = 1.0  # at least every |entry| of every m
    for k in range(1, steps + 1):
        if norm is not None and norm * bound >= _EXACT_LIMIT:
            return None
        xm = x @ m
        diagonal = xm.reshape(batch + (-1,))[..., :: size + 1]
        trace = diagonal.sum(axis=-1)  # a scalar for a single matrix
        c = trace // -(trace_scale * k)
        if norm is not None:
            top = float(np.abs(xm).max())
            if size * top >= _EXACT_LIMIT:
                return None
            bound = top * (1 + size / (trace_scale * k)) + 1
        diagonal += np.asarray(c, dtype=x.dtype)[..., None]
        m = xm
        rows[..., k] = c
        remainders[..., k] = trace + c * (trace_scale * k)
    if remainders.any():
        if norm is not None:
            return None
        raise ArithmeticError("Faddeev-LeVerrier trace not divisible")
    return rows


def _int_rows(a: np.ndarray, trace_scale: int = 1) -> np.ndarray:
    """Characteristic polynomial rows of a stack of square integer matrices.

    ``a`` holds int64 or Python-int (object) entries.  The certified float64
    run comes first and its rows come back as int64; if it cannot certify the
    stack the same loop reruns on Python ints copied from ``a``, never from
    the float copy, and the rows come back as Python ints (object).
    """
    import numpy as np

    norm = np.abs(a).sum(axis=-1).max(initial=0)
    if norm < _EXACT_LIMIT:
        rows = _faddeev_leverrier(a.astype(np.float64), trace_scale, float(norm))
        if rows is not None:
            return rows.astype(np.int64)
    return _faddeev_leverrier(a.astype(object), trace_scale, None)


def _char_poly_rows(h: np.ndarray) -> np.ndarray:
    """det(xI - H), high to low, for a stack of Hermitian H of shape (..., n, n).

    Runs on the real embedding E = [[Re H, -Im H], [Im H, Re H]].  E maps
    products to products and tr E(X) = 2 Re tr X.  Each Faddeev-LeVerrier
    matrix M_k is a real polynomial in H, so H M_k is Hermitian and its trace
    is real: tr(E(H) E(M_k)) = 2 tr(H M_k).  Running n steps on E with every
    trace halved therefore yields char(H) itself.
    """
    import numpy as np

    n = h.shape[-1]
    e = np.empty(h.shape[:-2] + (2 * n, 2 * n), dtype=np.int64)
    e[..., :n, :n] = e[..., n:, n:] = h.real
    e[..., :n, n:] = -h.imag
    e[..., n:, :n] = h.imag
    return _int_rows(e, trace_scale=2)


def _poly(row: np.ndarray) -> IntPolynomial:
    return IntPolynomial(row[::-1].tolist())


def char_poly(m: MixedGraph) -> IntPolynomial:
    """Characteristic polynomial det(xI - H), exact integer coefficients."""
    return _poly(_char_poly_rows(hermitian_matrix(m)))


def char_poly_rows(graphs: Sequence[MixedGraph]) -> np.ndarray:
    """Characteristic polynomials of graphs that share one n, in one batch.

    Row i holds det(xI - H) of ``graphs[i]``, high to low: int64 when the
    float64 certificate holds for the whole stack, else Python ints.
    """
    import numpy as np

    if not graphs:
        raise ValueError("need at least one graph")
    kinds = np.array([g.kinds for g in graphs], dtype=np.intp)
    return _char_poly_rows(_entry_array()[kinds])


def char_poly_int_matrix(rows: Sequence[Sequence[int]]) -> IntPolynomial:
    """Exact characteristic polynomial of an arbitrary integer matrix."""
    import numpy as np

    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    a = np.array([[int(x) for x in row] for row in rows], dtype=object)
    return _poly(_int_rows(a.reshape(n, n)))


@dataclass(frozen=True)
class SpectralSummary:
    """Floating spectrum paired with the exact characteristic polynomial."""

    n: int
    eigenvalues: tuple[float, ...]  # descending
    char_poly: IntPolynomial

    @property
    def lambda_min(self) -> float:
        if not self.eigenvalues:
            raise ValueError("empty graph has no smallest eigenvalue")
        return self.eigenvalues[-1]


def eigenvalues(m: MixedGraph) -> SpectralSummary:
    """Eigenvalues (descending) with consistency checks against the char poly.

    The trace of H is zero, so the eigenvalues must sum to ~0 (1e-9), and
    their product must match the determinant read off the constant
    coefficient (1e-6 relative).  Violations raise RuntimeError.
    """
    import numpy as np

    h = hermitian_matrix(m)
    n = m.n
    if n == 0:
        return SpectralSummary(0, (), IntPolynomial([1]))
    w = np.linalg.eigvalsh(h)
    poly = _poly(_char_poly_rows(h))
    total = float(np.sum(w))
    if abs(total) > 1e-9 * max(1.0, float(np.max(np.abs(w)))) * n:
        raise RuntimeError(f"eigenvalue sum {total} violates zero trace")
    det = (-1) ** n * poly.coeffs[0]
    prod = float(np.prod(w))
    if abs(prod - det) > 1e-6 * max(1.0, abs(det)):
        raise RuntimeError(f"eigenvalue product {prod} does not match det {det}")
    return SpectralSummary(n, tuple(float(x) for x in w[::-1]), poly)


#: A classify stream meets few distinct polynomials here: 37 after three
#: 25,000-text classify_mix streams, 38 with an n <= 5 census as well, which
#: decides its own polynomials elsewhere.
@lru_cache(maxsize=1024)
def _compare_cached(poly: IntPolynomial, c: QuadraticNumber) -> Trichotomy:
    return compare_min_root(poly, c)


def compare_lambda_min(
    m: MixedGraph | IntPolynomial,
    c: QuadraticNumber | int | Fraction,
) -> Trichotomy:
    """Exact comparison of the smallest eigenvalue against the threshold c.

    Accepts a graph or its characteristic polynomial.  Everything is
    decided with integer and quadratic arithmetic; no floating point is
    involved.
    """
    if isinstance(m, IntPolynomial):
        poly = m
    else:
        poly = char_poly(m)
    if poly.degree == 0:
        raise ValueError("empty graph has no smallest eigenvalue")
    return _compare_cached(poly, _as_quadratic(c))


def interlacing_holds(
    m: MixedGraph, subset: Sequence[int], tol: float = 1e-8
) -> bool:
    """Check eigenvalue interlacing of an induced subgraph within tolerance.

    With eigenvalues descending, every mu_i of the m-vertex subgraph must
    satisfy lambda_i >= mu_i >= lambda_{i + n - m} up to ``tol``.
    """
    sub = induced(m, subset)
    lam = eigenvalues(m).eigenvalues
    mu = eigenvalues(sub).eigenvalues
    n, k = m.n, sub.n
    for i in range(k):
        if mu[i] > lam[i] + tol:
            return False
        if mu[i] < lam[i + n - k] - tol:
            return False
    return True


@dataclass(frozen=True)
class EquitablePartition:
    """A validated equitable partition with its exact quotient matrix."""

    cells: tuple[tuple[int, ...], ...]
    quotient: tuple[tuple[complex, ...], ...]

    def quotient_numpy(self) -> np.ndarray:
        import numpy as np

        return np.array(self.quotient, dtype=np.complex128)

    def quotient_is_real(self) -> bool:
        return all(z.imag == 0 for row in self.quotient for z in row)


@dataclass(frozen=True)
class EquitableViolation:
    """Witness that a partition is not equitable: this vertex's row sum
    toward ``target_cell`` differs from its cell's reference sum."""

    vertex: int
    cell: int
    target_cell: int
    expected: complex
    actual: complex


def validate_equitable(
    m: MixedGraph, cells: Sequence[Sequence[int]]
) -> EquitablePartition | EquitableViolation:
    """Validate an equitable partition of the Hermitian adjacency matrix.

    Row sums are compared exactly: they are Gaussian integers, exact in
    complex128.  On success the quotient's eigenvalues are verified to be
    contained in the spectrum of H (float check at 1e-8; the containment is
    a theorem, so failure raises).
    Not-a-partition input raises ValueError; an unbalanced partition returns
    an EquitableViolation naming the failing vertex and cell pair.
    """
    import numpy as np

    h = hermitian_matrix(m)
    cell_tuples = tuple(tuple(c) for c in cells)
    flat = [v for c in cell_tuples for v in c]
    if sorted(flat) != list(range(m.n)) or any(len(c) == 0 for c in cell_tuples):
        raise ValueError("cells must form a partition of the vertex set")
    s = len(cell_tuples)
    quotient = [[0j] * s for _ in range(s)]
    for i, cell in enumerate(cell_tuples):
        for j, other in enumerate(cell_tuples):
            sums = h[np.ix_(cell, other)].sum(axis=1)
            for v, total in zip(cell, sums):
                if total != sums[0]:
                    return EquitableViolation(v, i, j, complex(sums[0]), complex(total))
            # The common row sum is the quotient entry b_ij.
            quotient[i][j] = complex(sums[0])
    part = EquitablePartition(cell_tuples, tuple(tuple(row) for row in quotient))
    lam = np.linalg.eigvalsh(h)
    quo = np.linalg.eigvals(part.quotient_numpy())
    for z in quo:
        if min(abs(z - l) for l in lam) > 1e-8:
            raise RuntimeError(
                f"quotient eigenvalue {z} missing from the spectrum"
            )
    return part


def quotient_contained_exactly(
    part: EquitablePartition, m: MixedGraph
) -> bool | None:
    """Exact containment of quotient eigenvalues via polynomial gcd.

    Only available when the quotient matrix is real, and then it has integer
    entries; returns None otherwise.  True when char(quotient) divides
    char(H), i.e. every quotient eigenvalue is an eigenvalue of H with at
    least its multiplicity in the quotient.
    """
    if not part.quotient_is_real():
        return None
    rows = [[int(z.real) for z in row] for row in part.quotient]
    qpoly = char_poly_int_matrix(rows)
    try:
        char_poly(m).exact_div(qpoly)
    except ValueError:
        return False
    return True


def phi_cubic(n: int) -> IntPolynomial:
    """The cubic x^3 + (3-n)x^2 + (1-n)x - 1 used in the threshold analysis.

    It satisfies phi(-1) = 0 and phi(-(1+sqrt5)/2) = 1 - n for all n >= 2.
    The classifier's block bound uses ``f_cubic``, which is the actual
    block factor; phi is kept for the one-parameter family n = s + t.
    """
    if n < 2:
        raise ValueError("phi is defined for n >= 2")
    return IntPolynomial([-1, 1 - n, 3 - n, 1])


def f_cubic(s: int, t: int) -> IntPolynomial:
    """Characteristic factor of the two-clique quotient.

    The graph made of cliques K_s and K_t fully joined to one extra vertex
    has spectrum {-1 with multiplicity n-3} plus the roots of
    f(x) = x^3 + (2-t-s)x^2 + (st-2t-2s+1)x + (2st-s-t).
    """
    if s < 1 or t < 1:
        raise ValueError("block sizes must be at least 1")
    return IntPolynomial(
        [2 * s * t - s - t, s * t - 2 * t - 2 * s + 1, 2 - t - s, 1]
    )
