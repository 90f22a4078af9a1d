"""Integer polynomials and exact root location.

The only root queries the package needs are of the form "how does the
smallest real root of an integer polynomial compare to an algebraic
threshold c", with c rational or quadratic (a + b sqrt d).  Two exact
methods answer them:

* ``compare_min_root``, for any integer polynomial, builds a Sturm chain
  from one integer remainder sequence of p and p', divides it through by
  gcd(p, p'), and evaluates its signs at c by Horner passes over integer
  pairs.  The classifier, its certificates and its witnesses decide by it.
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
from math import gcd, lcm
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

    def __call__(self, x: Scalar) -> Scalar:
        out: Scalar = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

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
        q, r, s = _divmod(self.coeffs, other.coeffs)
        if r:
            raise ValueError("division is not exact")
        if any(c % s for c in q):
            raise ValueError("quotient is not an integer polynomial")
        return IntPolynomial([c // s for c in q])

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


# -- Integer remainder sequences (internal) ---------------------------------


def _divmod(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int], int]:
    """Long division in integers: (q, r, s) with s a = q b + r, deg r < deg b.

    Coefficients run constant first and b has a nonzero leading coefficient.
    A step where lead(b) does not divide the remainder's leading coefficient
    first scales quotient and remainder by |lead(b)|, so s > 0 is a power of
    |lead(b)| and r is a positive multiple of the rational remainder.  r is
    empty when the division is exact.
    """
    if not any(b):
        raise ZeroDivisionError("polynomial division by zero")
    lb, db = b[-1], len(b) - 1
    q, r, s = [0] * max(1, len(a) - db), list(a), 1
    while len(r) > db:
        c = r[-1]
        if c % lb:
            m = abs(lb)
            q, r, s, c = [m * x for x in q], [m * x for x in r], s * m, c * m
        t, shift = c // lb, len(r) - 1 - db
        q[shift] += t
        for i, y in enumerate(b):
            r[shift + i] -= t * y
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return q, r, s


def _primitive(cs: Sequence[int]) -> list[int]:
    g = gcd(*cs)
    return [c // g for c in cs]


def _sturm_chain(p: Sequence[int]) -> list[list[int]]:
    """Sturm chain of the squarefree part of p, in integer polynomials.

    One remainder sequence p, p', -rem, ... runs to gcd(p, p'), each member
    a positive multiple of the rational one, made primitive.  Dividing every
    member by the last one gives the chain of p / gcd(p, p'), whose members
    share no root, so a threshold that is a multiple root of p still counts.
    """
    chain = [_primitive(p), _primitive([k * c for k, c in enumerate(p)][1:])]
    while True:
        r = _divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append(_primitive([-c for c in r]))
    g = chain[-1]
    return [_divmod(f, g)[0] for f in chain]


def _point(c: QuadraticNumber | int | Fraction) -> tuple[int, int, int, int]:
    """(u, v, w, d) in integers with c = (u + v sqrt d) / w and w > 0."""
    cq = _as_quadratic(c)
    a, b = cq.a, cq.b
    w = lcm(a.denominator, b.denominator)
    return a.numerator * (w // a.denominator), b.numerator * (w // b.denominator), w, cq.d


def _sign_at(cs: Sequence[int], u: int, v: int, w: int, d: int) -> int:
    """Sign of the polynomial cs (constant first) at (u + v sqrt d) / w.

    Horner over integer pairs (a, b), standing for a + b sqrt d, gives
    w^deg times the value, which has the same sign as w > 0.
    """
    a, b, scale = cs[-1], 0, 1
    for x in reversed(cs[:-1]):
        scale *= w
        a, b = a * u + b * v * d + x * scale, a * v + b * u
    return QuadraticNumber(a, b, d).sign()


def _sign_variations(signs: Iterable[int]) -> int:
    seq = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(seq, seq[1:]) if a * b < 0)


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
    chain, point = _sturm_chain(p.coeffs), _point(c)
    at_c = _sign_variations(_sign_at(f, *point) for f in chain)
    at_minus_inf = _sign_variations(f[-1] * (-1) ** (len(f) - 1) for f in chain)
    return at_minus_inf - at_c


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
    if leq == 1 and _sign_at(p.coeffs, *_point(c)) == 0:
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
