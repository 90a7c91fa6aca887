"""Decompose a rational base g into sign * g0^h and its quadratic discriminant.

The decomposition g = sign * (g0_num/g0_den)^h with g0 positive, reduced and
not an exact power (h maximal) is what every density formula downstream keys
on, together with the fundamental discriminant of Q(sqrt(g0)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import factorize, valuation

__all__ = [
    "RationalBase",
    "BaseDecomposition",
    "decompose",
    "fundamental_discriminant",
    "is_fundamental_discriminant",
    "gamma_exponent",
    "as_base",
]

_EXCLUDED = "base must be a rational outside {-1, 0, 1}"


@dataclass(frozen=True)
class RationalBase:
    """A rational base g = g1/g2 in lowest terms, with g outside {-1, 0, 1}."""

    g1: int
    g2: int

    def __post_init__(self) -> None:
        if self.g2 < 1:
            raise ValueError("denominator must be positive")
        if math.gcd(abs(self.g1), self.g2) != 1:
            raise ValueError("g1/g2 must be in lowest terms")
        if self.g1 == 0 or (abs(self.g1) == 1 and self.g2 == 1):
            raise ValueError(_EXCLUDED)

    @classmethod
    def from_value(cls, value: int | str | Fraction) -> "RationalBase":
        q = Fraction(value)
        return cls(q.numerator, q.denominator)

    @property
    def sign(self) -> int:
        return -1 if self.g1 < 0 else 1

    def __str__(self) -> str:
        return str(self.g1) if self.g2 == 1 else f"{self.g1}/{self.g2}"


def as_base(g: "RationalBase | int | str | Fraction") -> RationalBase:
    """Coerce an int, "num/den" string, or Fraction to a RationalBase."""
    if isinstance(g, RationalBase):
        return g
    return RationalBase.from_value(g)


@dataclass(frozen=True)
class BaseDecomposition:
    """g written as sign * (g0_num/g0_den)^h with g0 > 0 not an exact power.

    ``disc`` is the fundamental discriminant of Q(sqrt(g0)).
    """

    base: RationalBase
    sign: int
    g0_num: int
    g0_den: int
    h: int
    disc: int

    @property
    def g0(self) -> Fraction:
        return Fraction(self.g0_num, self.g0_den)

    @property
    def v2_h(self) -> int:
        return valuation(2, self.h)


def decompose(base: BaseDecomposition | RationalBase | int | str | Fraction) -> BaseDecomposition:
    """Split g into sign * g0^h with h maximal and attach the discriminant.

    |g1| and g2 are each factored once; g0 and its discriminant are read from
    those factors, as g0 has the exponents e // h.  A decomposition is
    returned unchanged, so a caller that has one passes it on instead of g.
    """
    if isinstance(base, BaseDecomposition):
        return base
    base = as_base(base)
    num, den = factorize(abs(base.g1)).factors, factorize(base.g2).factors
    h = math.gcd(*(e for _, e in num + den))
    return BaseDecomposition(
        base=base,
        sign=base.sign,
        g0_num=math.prod(p ** (e // h) for p, e in num),
        g0_den=math.prod(p ** (e // h) for p, e in den),
        h=h,
        disc=_discriminant(num + den, h, 1),
    )


def fundamental_discriminant(value: Fraction | int) -> int:
    """Fundamental discriminant of Q(sqrt(g)) for a signed non-square rational."""
    q = Fraction(value)
    if q == 0:
        raise ValueError("discriminant of Q(sqrt(0)) is undefined")
    factors = factorize(abs(q.numerator)).factors + factorize(q.denominator).factors
    return _discriminant(factors, 1, -1 if q < 0 else 1)


def _discriminant(factors: tuple[tuple[int, int], ...], h: int, sign: int) -> int:
    """Fundamental discriminant of Q(sqrt(sign * prod p^(e // h))) over the (p, e) factors.

    Q(sqrt(a/b)) = Q(sqrt(ab)), so the field is fixed by the squarefree kernel
    k, the signed product of the p whose e // h is odd: the discriminant is k
    itself when k = 1 (mod 4), else 4k.
    """
    k = sign * math.prod(p for p, e in factors if e // h % 2)
    if k == 1:
        raise ValueError("g is a perfect square; the field collapses to Q")
    return k if k % 4 == 1 else 4 * k


def is_fundamental_discriminant(d: int) -> bool:
    """Whether d is the discriminant of a quadratic field (1 counts as trivial)."""
    if d % 4 == 1:
        return factorize(abs(d)).is_squarefree
    if d % 4 == 0:
        k = d // 4
        return k % 4 in (2, 3) and factorize(abs(k)).is_squarefree
    return False


def gamma_exponent(disc: int, d: int, h: int) -> int:
    """The 2-adic exponent max(0, v2(disc / (d*h))), defined for even d.

    disc/(d*h) need not be an integer; the valuation of the quotient is
    v2(disc) - v2(d) - v2(h).  For a fundamental discriminant and even d the
    result never exceeds 2.
    """
    if d % 2 != 0:
        raise ValueError("gamma_exponent is only defined for even d")
    gamma = max(0, valuation(2, disc) - valuation(2, d) - valuation(2, h))
    if gamma > 2:
        raise ArithmeticError(f"gamma = {gamma} exceeds 2 for disc={disc}, d={d}, h={h}")
    return gamma
