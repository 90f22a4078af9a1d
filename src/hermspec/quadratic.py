"""Exact arithmetic in the real quadratic fields Q(sqrt d), d in {2, 3, 5}.

Numbers are stored as a + b*sqrt(d) with rational a, b.  Signs and
comparisons are decided by rational arithmetic only (comparing a^2 against
b^2 d with the appropriate sign case analysis), so no floating point enters
any threshold decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

__all__ = ["QuadraticNumber", "NEG_SQRT2", "NEG_SQRT3", "NEG_GOLDEN"]

_ALLOWED_D = (2, 3, 5)

Rat = Union[int, Fraction]


@dataclass(frozen=True)
class QuadraticNumber:
    """Exact a + b*sqrt(d) with a, b rational and d in {2, 3, 5}."""

    a: Fraction
    b: Fraction
    d: int

    def __init__(self, a: Rat, b: Rat = 0, d: int = 2) -> None:
        if d not in _ALLOWED_D:
            raise ValueError(f"d must be one of {_ALLOWED_D}, got {d}")
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "d", d)

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _coerce(x: "QuadraticNumber | Rat", d: int) -> "QuadraticNumber":
        if isinstance(x, QuadraticNumber):
            return x
        return QuadraticNumber(Fraction(x), 0, d)

    def _check_compatible(self, other: "QuadraticNumber") -> int:
        # Rationals (b == 0) live in every field; otherwise d must agree.
        if self.b != 0 and other.b != 0 and self.d != other.d:
            raise ValueError(f"cannot mix sqrt({self.d}) with sqrt({other.d})")
        return self.d if self.b != 0 else (other.d if other.b != 0 else self.d)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "QuadraticNumber | Rat") -> "QuadraticNumber":
        o = self._coerce(other, self.d)
        d = self._check_compatible(o)
        return QuadraticNumber(self.a + o.a, self.b + o.b, d)

    __radd__ = __add__

    def __neg__(self) -> "QuadraticNumber":
        return QuadraticNumber(-self.a, -self.b, self.d)

    def __sub__(self, other: "QuadraticNumber | Rat") -> "QuadraticNumber":
        return self + (-self._coerce(other, self.d))

    def __rsub__(self, other: Rat) -> "QuadraticNumber":
        return self._coerce(other, self.d) - self

    def __mul__(self, other: "QuadraticNumber | Rat") -> "QuadraticNumber":
        o = self._coerce(other, self.d)
        d = self._check_compatible(o)
        return QuadraticNumber(
            self.a * o.a + self.b * o.b * d,
            self.a * o.b + self.b * o.a,
            d,
        )

    __rmul__ = __mul__

    # -- sign and order -----------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1} via rational comparison of a^2 and b^2 d."""
        a, b, d = self.a, self.b, self.d
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # Opposite signs: |a| vs |b| sqrt(d) decides.
        lhs, rhs = a * a, b * b * d
        if lhs == rhs:
            return 0
        if a > 0:  # b < 0
            return 1 if lhs > rhs else -1
        return -1 if lhs > rhs else 1

    def _cmp(self, other: "QuadraticNumber | Rat") -> int:
        return (self - self._coerce(other, self.d)).sign()

    def __lt__(self, other: "QuadraticNumber | Rat") -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: "QuadraticNumber | Rat") -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: "QuadraticNumber | Rat") -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: "QuadraticNumber | Rat") -> bool:
        return self._cmp(other) >= 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadraticNumber):
            if self.b == 0 and other.b == 0:
                return self.a == other.a
            return self.d == other.d and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * float(self.d) ** 0.5

    def __repr__(self) -> str:
        if self.b == 0:
            return f"QuadraticNumber({self.a})"
        return f"QuadraticNumber({self.a} + {self.b}*sqrt({self.d}))"


#: -sqrt(2), the strict threshold of the second characterization.
NEG_SQRT2 = QuadraticNumber(0, -1, 2)
#: -sqrt(3), the smallest eigenvalue of the imaginary-holonomy triangles.
NEG_SQRT3 = QuadraticNumber(0, -1, 3)
#: -(1 + sqrt 5)/2, the golden-ratio threshold of the main characterization.
NEG_GOLDEN = QuadraticNumber(Fraction(-1, 2), Fraction(-1, 2), 5)
