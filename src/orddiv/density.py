"""Exact closed-form density of primes p with d dividing the order of g mod p.

The density factors as epsilon1 * S(d, h) where S(d, h) is a generic factor
depending only on d and the power exponent h of the base, and epsilon1 is a
rational correction determined by a five-way case split on the 2-part of d
and on whether the discriminant of Q(sqrt(g0)) divides 4d.

``density_by_transfer`` evaluates the same quantity for negative bases purely
from positive-base densities via the order-flip relation, giving a second,
independent exact route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .arith import factorize, gcd_with_dinfty, valuation
from .base import BaseDecomposition, RationalBase, as_base, decompose, gamma_exponent

__all__ = [
    "DensityReport",
    "s_factor",
    "epsilon_table",
    "density",
    "density_by_transfer",
]

# Correction entry by (sign of g, gamma); gamma is the 2-adic exponent
# max(0, v2(disc/(d*h))).  For positive g this equals (-1/2)^(2^gamma).
_EPSILON_TABLE = {
    (1, 0): Fraction(-1, 2),
    (1, 1): Fraction(1, 4),
    (1, 2): Fraction(1, 16),
    (-1, 0): Fraction(1, 4),
    (-1, 1): Fraction(-1, 2),
    (-1, 2): Fraction(1, 16),
}


@dataclass(frozen=True)
class DensityReport:
    """Density of {p : d | ord_p(g)} with its exact factor breakdown; delta = epsilon1 * S."""

    decomposition: BaseDecomposition
    d: int
    s_factor: Fraction
    epsilon1: Fraction
    gamma: int | None
    case_label: str
    delta: Fraction = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", self.epsilon1 * self.s_factor)
        if not 0 < self.delta <= 1:
            raise ValueError(f"density {self.delta} out of range")


def s_factor(d: int, h: int) -> Fraction:
    """Generic factor S(d, h) = 1/(d * (h, d^inf)) * prod_{p|d} p^2/(p^2-1)."""
    if d < 1 or h < 1:
        raise ValueError("s_factor requires positive d and h")
    result = Fraction(1, d * gcd_with_dinfty(h, d))
    for p, _ in factorize(d).factors:
        result *= Fraction(p * p, p * p - 1)
    return result


def epsilon_table(sign: int, gamma: int) -> Fraction:
    """Two-row correction table keyed by the sign of g and gamma in {0, 1, 2}."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if gamma not in (0, 1, 2):
        raise ValueError(f"gamma must be in {{0, 1, 2}}, got {gamma}")
    return _EPSILON_TABLE[(sign, gamma)]


def _epsilon1_parts(
    decomposition: BaseDecomposition, d: int
) -> tuple[Fraction, str, int | None]:
    """epsilon1 with its case label and (when the table applies) gamma."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    sign = decomposition.sign
    disc = decomposition.disc
    h = decomposition.h
    if d % 2 == 1:
        return Fraction(1), "odd-d", None
    disc_div = (4 * d) % abs(disc) == 0
    if valuation(2, d) == 1:
        # the sign-dependent term vanishes unless g < 0 and h is even
        middle = Fraction(3 * (1 - sign) * (2**decomposition.v2_h - 1), 4)
        if not disc_div:
            return 1 + middle, "2||d-no-disc", None
        gamma = gamma_exponent(disc, d, h)
        return 1 + middle + epsilon_table(sign, gamma), "2||d-disc", gamma
    if not disc_div:
        return Fraction(1), "4|d-no-disc", None
    gamma = gamma_exponent(disc, d, h)
    # the correction for |g|, so always the positive-sign table row
    return 1 + epsilon_table(1, gamma), "4|d-disc", gamma


def density(g: BaseDecomposition | RationalBase | int | str | Fraction, d: int) -> DensityReport:
    """Exact density of primes p (with g a unit mod p) whose order is divisible by d."""
    dec = decompose(g)
    eps, label, gamma = _epsilon1_parts(dec, d)
    return DensityReport(
        decomposition=dec,
        d=d,
        s_factor=s_factor(d, dec.h),
        epsilon1=eps,
        gamma=gamma,
        case_label=label,
    )


def density_by_transfer(g: RationalBase | int | str | Fraction, d: int) -> Fraction:
    """Density for a negative base computed from positive-base densities only.

    Uses the order-flip transfer: for d = 2 (mod 4) the answer is
    delta(|g|, d/2) + delta(|g|, 2d) - delta(|g|, d), otherwise delta(|g|, d);
    |g| is decomposed once for all three.
    """
    base = as_base(g)
    if base.g1 > 0:
        raise ValueError("density_by_transfer requires a negative base")
    dec = decompose(RationalBase(-base.g1, base.g2))
    if d % 4 == 2:
        return density(dec, d // 2).delta + density(dec, 2 * d).delta - density(dec, d).delta
    return density(dec, d).delta
