from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from hermspec.polynomials import (
    IntPolynomial,
    Trichotomy,
    compare_min_root,
    count_roots_at_most,
    taylor_compare_min_root,
)
from hermspec.quadratic import NEG_GOLDEN, NEG_SQRT2, NEG_SQRT3, QuadraticNumber
from hermspec.spectra import char_poly
from prop_suites import random_mixed


def test_normalization_and_basics():
    p = IntPolynomial([1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert p.coeffs[-1] == 2
    assert IntPolynomial([0, 0]).is_zero()
    assert IntPolynomial([]).coeffs == (0,)
    with pytest.raises(ValueError):
        IntPolynomial([1, 2.5])


def test_evaluation():
    p = IntPolynomial([-2, 0, 1])  # x^2 - 2
    assert p(3) == 7
    assert p(Fraction(1, 2)) == Fraction(-7, 4)
    v = p(QuadraticNumber(0, 1, 2))
    assert v.is_zero()


def test_arithmetic_matches_manual():
    p = IntPolynomial([1, 1])  # 1 + x
    q = IntPolynomial([-1, 1])  # -1 + x
    assert (p * q).coeffs == (-1, 0, 1)
    assert (p + q).coeffs == (0, 2)
    assert (p - p).is_zero()
    assert (3 * p).coeffs == (3, 3)


def test_exact_div():
    prod = IntPolynomial([-2, 0, 1]) * IntPolynomial([5, 1])
    assert prod.exact_div(IntPolynomial([5, 1])).coeffs == (-2, 0, 1)
    with pytest.raises(ValueError):
        IntPolynomial([1, 0, 1]).exact_div(IntPolynomial([1, 1]))
    # Quotient exists over Q but not over Z.
    with pytest.raises(ValueError):
        IntPolynomial([1, 1]).exact_div(IntPolynomial([2]))


def test_str():
    assert str(IntPolynomial([-2, 0, 1])) == "x^2 - 2"
    assert str(IntPolynomial([0])) == "0"
    assert str(IntPolynomial([3, -1])) == "-x + 3"


def test_compare_min_root_known_cases():
    x2m2 = IntPolynomial([-2, 0, 1])
    assert compare_min_root(x2m2, NEG_SQRT2) is Trichotomy.EQUAL
    assert compare_min_root(x2m2, Fraction(-3, 2)) is Trichotomy.GREATER
    assert compare_min_root(x2m2, -1) is Trichotomy.LESS
    # No real roots at all counts as GREATER.
    assert compare_min_root(IntPolynomial([1, 0, 1]), 100) is Trichotomy.GREATER
    # Repeated roots must not confuse the squarefree reduction:
    sq = IntPolynomial([-2, 0, 1]) * IntPolynomial([-2, 0, 1])
    assert compare_min_root(sq, NEG_SQRT2) is Trichotomy.EQUAL
    # Golden ratio conjugate is the smallest root of x^2 + x - 1... shifted:
    # x^2 - x - 1 has roots (1 +- sqrt 5)/2; min root equals -1/NEG_GOLDEN.
    fib = IntPolynomial([-1, -1, 1])
    assert compare_min_root(fib, NEG_GOLDEN) is Trichotomy.GREATER
    golden_min = IntPolynomial([-1, 1, 1])  # roots (-1 +- sqrt 5)/2
    assert compare_min_root(golden_min, NEG_GOLDEN) is Trichotomy.EQUAL
    with pytest.raises(ValueError):
        compare_min_root(IntPolynomial([0]), 0)


def test_taylor_compare_min_root_known_cases():
    taylor = taylor_compare_min_root  # coefficients high to low
    assert taylor([1, 0, -2], NEG_SQRT2) is Trichotomy.EQUAL
    assert taylor([1, 0, -2], Fraction(-3, 2)) is Trichotomy.GREATER
    assert taylor([1, 0, -2], -1) is Trichotomy.LESS
    # (x^2 - 2)^2: the double root at -sqrt2 leaves two zero coefficients.
    assert taylor([1, 0, -4, 0, 4], NEG_SQRT2) is Trichotomy.EQUAL
    # (x^2 - 2)(x + 2): -2 lies below the root at -sqrt2.
    assert taylor([1, 2, -2, -4], NEG_SQRT2) is Trichotomy.LESS
    assert taylor([1, 1, -1], NEG_GOLDEN) is Trichotomy.EQUAL
    assert taylor([1, -1, -1], NEG_GOLDEN) is Trichotomy.GREATER
    # int64 rows as the census passes them; leading zeros are dropped.
    assert taylor(np.array([0, 1, 0, -3], dtype=np.int64), NEG_SQRT3) is Trichotomy.EQUAL
    assert taylor([7], NEG_GOLDEN) is Trichotomy.GREATER
    with pytest.raises(ValueError):
        taylor([0, 0], 0)


def test_taylor_matches_sturm_on_random_graphs():
    # Characteristic polynomials of Hermitian matrices have only real roots,
    # where the Taylor test must agree with the Sturm comparison.
    rng = random.Random(1105)
    polys = {
        char_poly(random_mixed(rng, rng.randrange(2, 13), rng.choice((0.2, 0.4, 0.7))))
        for _ in range(1500)
    }
    equal = 0
    for p in polys:
        for c in (NEG_GOLDEN, NEG_SQRT2, NEG_SQRT3):
            exact = compare_min_root(p, c)
            assert taylor_compare_min_root(p.coeffs[::-1], c) is exact, (p.coeffs, c)
            equal += exact is Trichotomy.EQUAL
    assert (len(polys), equal) == (939, 53)


def _distinct_real_roots(coeffs: tuple[int, ...]) -> list[float]:
    roots = np.roots(list(reversed(coeffs)))
    real = sorted(float(r.real) for r in roots if abs(r.imag) < 1e-9)
    out: list[float] = []
    for r in real:
        if not out or abs(r - out[-1]) > 1e-7:
            out.append(r)
    return out


def test_root_counts_against_numpy():
    """Sturm counts agree with numpy's root finder on random polynomials."""
    rng = random.Random(20240917)
    checked = 0
    while checked < 400:
        deg = rng.randrange(1, 7)
        coeffs = [rng.randrange(-6, 7) for _ in range(deg)] + [rng.randrange(1, 7)]
        p = IntPolynomial(coeffs)
        roots = _distinct_real_roots(p.coeffs)
        c = Fraction(rng.randrange(-12, 13), 2)
        # Skip thresholds that land too close to a root for the float oracle.
        if any(abs(float(c) - r) < 1e-6 for r in roots):
            continue
        expected = sum(1 for r in roots if r < float(c))
        assert count_roots_at_most(p, c) == expected, (coeffs, c)
        if roots:
            want = (
                Trichotomy.LESS if roots[0] < float(c) else Trichotomy.GREATER
            )
            assert compare_min_root(p, c) is want
        checked += 1


def test_count_includes_threshold_root():
    p = IntPolynomial([-2, 0, 1]) * IntPolynomial([-5, 0, 1])
    assert count_roots_at_most(p, NEG_SQRT2) == 2  # -sqrt5 and -sqrt2 itself
    assert count_roots_at_most(p, Fraction(-3, 2)) == 1
    assert count_roots_at_most(p, 100) == 4


def test_sturm_on_products_of_known_factors():
    # Products of factors with known real roots, up to multiplicity three,
    # times a negative or non-unit constant and factors without real roots.
    # Roots are compared as floats of the same exact values, so a root that
    # is the threshold itself ties exactly.
    factors = (
        (IntPolynomial([-2, 0, 1]), (NEG_SQRT2, -NEG_SQRT2)),
        (IntPolynomial([-1, 1, 1]), (NEG_GOLDEN, -1 - NEG_GOLDEN)),
        (IntPolynomial([3, 2]), (Fraction(-3, 2),)),
        (IntPolynomial([1, 1, 1]) * IntPolynomial([1, 0, 0, 0, 1]), ()),
    )
    thresholds = (NEG_SQRT2, NEG_GOLDEN, Fraction(-3, 2), 0, 2)
    for *mults, k in itertools.product(range(4), range(4), range(4), range(2), (-3, 6)):
        p, roots = IntPolynomial([k]), set()
        for (f, rs), mult in zip(factors, mults):
            for _ in range(mult):
                p = p * f
            roots.update(float(r) for r in rs if mult)
        for t in thresholds:
            at_most = sum(1 for r in roots if r <= float(t))
            assert count_roots_at_most(p, t) == at_most, (p.coeffs, t)
            if at_most == 0:
                want = Trichotomy.GREATER
            elif at_most == 1 and float(t) in roots:
                want = Trichotomy.EQUAL
            else:
                want = Trichotomy.LESS
            assert compare_min_root(p, t) is want, (p.coeffs, t)
    # Two by hand: a triple root at -sqrt2 under a negative leading
    # coefficient, and a double root at the golden threshold below a triple
    # one at -3/2.
    x2m2 = IntPolynomial([-2, 0, 1])
    assert count_roots_at_most(-5 * x2m2 * x2m2 * x2m2, NEG_SQRT2) == 1
    assert compare_min_root(-5 * x2m2 * x2m2 * x2m2, NEG_SQRT2) is Trichotomy.EQUAL
    golden, lin = IntPolynomial([-1, 1, 1]), IntPolynomial([3, 2])
    q = -2 * golden * golden * lin * lin * lin
    assert count_roots_at_most(q, NEG_GOLDEN) == 1
    assert compare_min_root(q, NEG_GOLDEN) is Trichotomy.EQUAL
    assert count_roots_at_most(q, Fraction(-3, 2)) == 2
    assert compare_min_root(q, Fraction(-3, 2)) is Trichotomy.LESS
