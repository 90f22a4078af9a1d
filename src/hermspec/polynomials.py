"""Integer polynomials and exact root location.

The only root queries the package needs are of the form "how does the
smallest real root of an integer polynomial compare to an algebraic
threshold c", with c rational or quadratic (a + b sqrt d).  Two exact
methods answer them:

* ``compare_min_root``, for any integer polynomial, computes a Sturm chain
  over Fraction coefficients and evaluates its sign sequence with
  QuadraticNumber arithmetic.  The classifier, its certificates and its
  witnesses decide by it.
* ``taylor_compare_min_root``, for polynomials with only real roots such as
  characteristic polynomials of Hermitian matrices, shifts the polynomial to
  c in integer arithmetic and reads the signs of its Taylor coefficients by
  Descartes' rule.  The census oracle decides by it, so the oracle and the
  classifier reach their verdicts by different exact methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Union

from .quadratic import QuadraticNumber

__all__ = [
    "IntPolynomial",
    "Trichotomy",
    "compare_min_root",
    "count_roots_at_most",
    "taylor_compare_min_root",
]

Scalar = Union[int, float, complex, Fraction, QuadraticNumber]


class Trichotomy(Enum):
    """Exact outcome of comparing the smallest eigenvalue to a threshold."""

    LESS = "Less"
    EQUAL = "Equal"
    GREATER = "Greater"


@dataclass(frozen=True)
class IntPolynomial:
    """Polynomial with integer coefficients, constant term first.

    The representation is normalized: no trailing zero coefficients except
    for the zero polynomial, which is stored as (0,).
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int]) -> None:
        cs = []
        for c in coeffs:
            ci = int(c)
            if ci != c:
                raise ValueError(f"coefficient {c!r} is not an integer")
            cs.append(ci)
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [0]
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    def leading(self) -> int:
        return self.coeffs[-1]

    def __call__(self, x: Scalar) -> Scalar:
        out: Scalar = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def derivative(self) -> "IntPolynomial":
        if self.degree == 0:
            return IntPolynomial([0])
        return IntPolynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def exact_div(self, other: "IntPolynomial") -> "IntPolynomial":
        """Exact quotient self / other; raises if the division leaves a remainder."""
        q, r = _frac_divmod(_to_frac(self.coeffs), _to_frac(other.coeffs))
        if any(c != 0 for c in r):
            raise ValueError("division is not exact")
        out = []
        for c in q:
            if c.denominator != 1:
                raise ValueError("quotient is not an integer polynomial")
            out.append(c.numerator)
        return IntPolynomial(out or [0])

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                term = f"{mag}"
            else:
                xs = "x" if k == 1 else f"x^{k}"
                term = xs if mag == 1 else f"{mag}{xs}"
            parts.append((sign, term))
        first_sign, first_term = parts[0]
        text = ("-" if first_sign == "-" else "") + first_term
        for sign, term in parts[1:]:
            text += f" {sign} {term}"
        return text


# -- Fraction-coefficient helpers (internal) --------------------------------


def _to_frac(cs: Sequence[int]) -> list[Fraction]:
    return [Fraction(c) for c in cs]


def _frac_trim(cs: list[Fraction]) -> list[Fraction]:
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    if not cs:
        cs.append(Fraction(0))
    return cs


def _frac_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    a = _frac_trim(list(a))
    b = _frac_trim(list(b))
    if b == [Fraction(0)]:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    while True:
        r = _frac_trim(r)
        if r == [Fraction(0)] or len(r) - 1 < db:
            break
        shift = len(r) - 1 - db
        coef = r[-1] / lb
        q[shift] += coef
        for i in range(len(b)):
            r[shift + i] -= coef * b[i]
        r.pop()
    return _frac_trim(q), _frac_trim(r)


def _frac_normalize(cs: list[Fraction]) -> list[Fraction]:
    """Scale by a positive rational so coefficients are small coprime integers."""
    cs = _frac_trim(list(cs))
    if cs == [Fraction(0)]:
        return cs
    from math import gcd

    den = 1
    for c in cs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in cs]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    return [Fraction(c, g) for c in ints]


def _sturm_chain(p: list[Fraction]) -> list[list[Fraction]]:
    chain = [_frac_normalize(p)]
    dp = _frac_trim([k * c for k, c in enumerate(p)][1:] or [Fraction(0)])
    if dp != [Fraction(0)]:
        chain.append(_frac_normalize(dp))
        while True:
            _, r = _frac_divmod(chain[-2], chain[-1])
            if r == [Fraction(0)]:
                break
            chain.append(_frac_normalize([-c for c in r]))
    return chain


def _squarefree_part(p: IntPolynomial) -> list[Fraction]:
    """p / gcd(p, p') over the rationals, normalized to integer coefficients."""
    a = _to_frac(p.coeffs)
    b = _frac_trim([k * c for k, c in enumerate(a)][1:] or [Fraction(0)])
    # Euclidean gcd.
    x, y = _frac_trim(list(a)), b
    while y != [Fraction(0)]:
        _, r = _frac_divmod(x, y)
        x, y = y, r
    g = _frac_normalize(x)
    q, _ = _frac_divmod(a, g)
    return _frac_normalize(q)


def _eval_frac_poly(cs: Sequence[Fraction], x: QuadraticNumber) -> QuadraticNumber:
    out = QuadraticNumber(0, 0, x.d)
    for c in reversed(cs):
        out = out * x + c
    return out


def _sign_variations(signs: Iterable[int]) -> int:
    seq = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(seq, seq[1:]) if a * b < 0)


def _variations_at(chain: list[list[Fraction]], c: QuadraticNumber) -> int:
    return _sign_variations(_eval_frac_poly(q, c).sign() for q in chain)


def _variations_at_minus_inf(chain: list[list[Fraction]]) -> int:
    signs = []
    for q in chain:
        lead = q[-1]
        deg = len(q) - 1
        s = (lead > 0) - (lead < 0)
        signs.append(s if deg % 2 == 0 else -s)
    return _sign_variations(signs)


def _as_quadratic(c: QuadraticNumber | int | Fraction) -> QuadraticNumber:
    if isinstance(c, QuadraticNumber):
        return c
    return QuadraticNumber(Fraction(c), 0, 2)


def count_roots_at_most(p: IntPolynomial, c: QuadraticNumber | int | Fraction) -> int:
    """Number of distinct real roots of p in (-inf, c], exactly.

    Uses the Sturm chain of the squarefree part of p; the half-open count
    V(-inf) - V(c) includes c itself when p(c) = 0 (zero entries in the sign
    sequence are dropped, the standard convention).
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no root count")
    if p.degree == 0:
        return 0
    cq = _as_quadratic(c)
    sf = _squarefree_part(p)
    chain = _sturm_chain(sf)
    return _variations_at_minus_inf(chain) - _variations_at(chain, cq)


def compare_min_root(
    p: IntPolynomial, c: QuadraticNumber | int | Fraction
) -> Trichotomy:
    """Compare the smallest real root of p against c, exactly.

    GREATER means every real root exceeds c (or p has no real roots);
    EQUAL means c is a root and nothing lies below it; LESS otherwise.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no smallest root")
    leq = count_roots_at_most(p, c)
    if leq == 0:
        return Trichotomy.GREATER
    if leq == 1 and _eval_frac_poly(_to_frac(p.coeffs), _as_quadratic(c)).sign() == 0:
        return Trichotomy.EQUAL
    return Trichotomy.LESS


def _pair_sign(a: int, b: int, d: int) -> int:
    """Sign of a + b sqrt d for integers a, b and a non-square d > 0."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa == sb or sb == 0:
        return sa
    if sa == 0:
        return sb
    # Opposite signs: |a| against |b| sqrt d, never equal as d is no square.
    return sa if a * a > d * b * b else sb


def taylor_compare_min_root(
    coeffs: Sequence[int], c: QuadraticNumber | int | Fraction
) -> Trichotomy:
    """Compare the smallest root of a real-rooted integer polynomial with c.

    ``coeffs`` run from the leading coefficient down to the constant term,
    as Python or numpy integers.  With c = (u + v sqrt d) / w in integers,
    P(x) = w^deg p(x / w) has integer coefficients and w times the roots of
    p.  Horner passes over integer pairs (a, b), standing for a + b sqrt d,
    shift P by u + v sqrt d, so the pairs become the coefficients of
    q(y) = P(y + u + v sqrt d), whose roots are those of P less w c.

    Descartes' rule of signs is exact for a polynomial with only real roots
    (Basu, Pollack & Roy, *Algorithms in Real Algebraic Geometry*, ch. 2).
    The zero low-order coefficients of q count the multiplicity of c as a
    root; when the rest alternate strictly in sign, no root lies below c,
    which gives EQUAL if c is a root and GREATER if not.  Any other sign
    pattern gives LESS.  GREATER and EQUAL are sound for every polynomial;
    LESS is sound only when every root of p is real, as for the
    characteristic polynomial of a Hermitian matrix.
    """
    cs = [int(x) for x in coeffs]
    while cs and cs[0] == 0:
        cs.pop(0)
    if not cs:
        raise ValueError("zero polynomial has no smallest root")
    cq = _as_quadratic(c)
    w = lcm(cq.a.denominator, cq.b.denominator)
    u, v, d = int(cq.a * w), int(cq.b * w), cq.d
    deg = len(cs) - 1
    a = [x * w ** k for k, x in enumerate(cs)]
    b = [0] * len(a)
    for i in range(deg):
        for j in range(1, deg - i + 1):
            x, y = a[j - 1], b[j - 1]
            a[j] += u * x + d * v * y
            b[j] += u * y + v * x
    signs = [_pair_sign(x, y, d) for x, y in zip(a, b)]
    is_root = signs[-1] == 0
    while signs[-1] == 0:
        signs.pop()
    if all(s * t == -1 for s, t in zip(signs, signs[1:])):
        return Trichotomy.EQUAL if is_root else Trichotomy.GREATER
    return Trichotomy.LESS
