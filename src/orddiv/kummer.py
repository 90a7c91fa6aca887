"""Degrees of Q(zeta_kr, g^(1/k)) and the divisor-indexed degree series.

The density of {p : d | ord_p(g)} equals the double sum over v | d^inf and
squarefree alpha | d of mu(alpha)/[Q(zeta_dv, g^(1/(alpha v))):Q].  This
module evaluates the degrees in closed form, truncates the series with a
rigorous tail bound (so that [partial, partial + tail] always brackets the
exact density), and exposes the three auxiliary divisor sums S1, S2, S3 both
as literal truncations and in closed form.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import (
    divisors_of_dinfty,
    euler_phi,
    squarefree_divisors,
    valuation,
)
from .base import (
    BaseDecomposition,
    RationalBase,
    as_base,
    decompose,
    gamma_exponent,
    is_fundamental_discriminant,
)
from .density import epsilon_table, s_factor

__all__ = [
    "degree_params",
    "degree",
    "SeriesEstimate",
    "series_partial",
    "tail_bound",
    "closed_sum_s1",
    "closed_sum_s2",
    "closed_sum_s3",
    "truncated_sum_s1",
    "truncated_sum_s2",
    "truncated_sum_s3",
    "s_sum_tail_bound",
]


@lru_cache(maxsize=None)
def degree_params(decomposition: BaseDecomposition) -> int:
    """Threshold modulus m: for g < 0 and odd r the degree halves when m | kr."""
    disc = abs(decomposition.disc)
    v2h = decomposition.v2_h
    if (v2h == 0 and disc % 8 == 4) or (v2h == 1 and disc % 8 == 0):
        return disc // 2
    return math.lcm(2 ** (v2h + 2), disc)


def _halving_threshold(h: int, r: int, disc: int) -> int:
    """n_r = lcm(2^(v2(h r)+1), |disc|): the degree halves at kr when n_r | kr."""
    return math.lcm(2 ** (valuation(2, h * r) + 1), abs(disc))


def degree(kr: int, k: int, decomposition: BaseDecomposition) -> int:
    """Degree [Q(zeta_kr, g^(1/k)) : Q] for k | kr.

    Equals phi(kr) * k / (eps * gcd(k, h)) with eps in {1/2, 1, 2}; the
    division is carried out in integers and checked exact.
    """
    if k < 1 or kr % k != 0:
        raise ValueError(f"degree requires k | kr, got kr={kr}, k={k}")
    r = kr // k
    h = decomposition.h
    if decomposition.sign < 0 and r % 2 == 1:
        if kr % degree_params(decomposition) == 0:
            eps_doubled = 4  # eps = 2
        elif k % 2 == 0 and k % 2 ** (decomposition.v2_h + 1) != 0:
            eps_doubled = 1  # eps = 1/2
        else:
            eps_doubled = 2  # eps = 1
    else:
        n_r = _halving_threshold(h, r, decomposition.disc)
        eps_doubled = 4 if kr % n_r == 0 else 2
    numerator = 2 * euler_phi(kr) * k
    denominator = eps_doubled * math.gcd(k, h)
    if numerator % denominator != 0:
        raise ArithmeticError(
            f"degree formula not integral at kr={kr}, k={k}, g={decomposition.base}"
        )
    return numerator // denominator


@dataclass(frozen=True)
class SeriesEstimate:
    """Partial degree series with a rigorous bound on the omitted tail.

    The exact density always lies in [partial, partial + tail_bound]; the
    bound is tail_bound(g, d, vmax), the exact weighted remainder.
    """

    d: int
    vmax: int
    partial: Fraction
    tail_bound: Fraction
    blocks: tuple[tuple[int, Fraction], ...]


def series_partial(
    g: RationalBase | int | str | Fraction, d: int, vmax: int
) -> SeriesEstimate:
    """Sum the degree series over v | d^inf, v <= vmax, recording per-v blocks.

    Each block is the inner Mobius sum at one v; blocks are provably
    nonnegative, so partial sums increase monotonically toward the density.
    """
    if vmax < 1:
        raise ValueError("vmax must be positive")
    dec = decompose(as_base(g))
    alphas = squarefree_divisors(d)
    blocks: list[tuple[int, Fraction]] = []
    partial = Fraction(0)
    for v in divisors_of_dinfty(d, vmax):
        block = Fraction(0)
        for alpha, mu in alphas:
            block += Fraction(mu, degree(d * v, alpha * v, dec))
        if block < 0:
            raise ArithmeticError(f"negative series block at v={v} for g={dec.base}")
        blocks.append((v, block))
        partial += block
    return SeriesEstimate(
        d=d,
        vmax=vmax,
        partial=partial,
        tail_bound=_series_tail(d, vmax, dec.h),
        blocks=tuple(blocks),
    )


def _tail_envelope(d: int, vmax: int, coefficient: Fraction) -> Fraction:
    """coefficient * (sum of 1/v^2 over v | d^inf with v > vmax), exactly.

    The sum over every v | d^inf is the Euler product prod_{l|d} l^2/(l^2-1)
    = d * S(d, 1); the terms up to vmax are subtracted from it.
    """
    head = sum(Fraction(1, v * v) for v in divisors_of_dinfty(d, vmax))
    return coefficient * (d * s_factor(d, 1) - head)


def _series_tail(d: int, vmax: int, h: int) -> Fraction:
    """The degree series tail past vmax for a base with power exponent h."""
    return _tail_envelope(d, vmax, Fraction(2 * h, euler_phi(d)))


def tail_bound(g: RationalBase | int | str | Fraction, d: int, vmax: int) -> Fraction:
    """Upper bound for the degree series omitted past vmax.

    Each block at v is at most 1/[Q(zeta_dv, g^(1/v)):Q] <= 2h/(phi(d) v^2),
    so the bound is (2h/phi(d)) times the exact sum of 1/v^2 over the
    omitted v | d^inf: 0 for d = 1, and flat between consecutive v | d^inf.
    """
    if vmax < 1:
        raise ValueError("vmax must be positive")
    return _series_tail(d, vmax, decompose(as_base(g)).h)


# ---------------------------------------------------------------------------
# Auxiliary divisor sums.  S1 substitutes the generic degree into the series;
# S2 restricts S1 to v with v2(v) >= v2(h) + k; S3 keeps the pairs (v, alpha)
# where the degree halves, i.e. where the threshold n_r with r = d/alpha
# divides dv.  Their closed forms multiply S(d, h) by 1, 4^(-k), and
# (-1/2)^(2^gamma) respectively (in the regimes where the restrictions bite;
# see each function).
# ---------------------------------------------------------------------------


def _truncated_sum(d: int, h: int, vmax: int, keep: Callable[[int, int], bool]) -> Fraction:
    """Generic-degree double sum over v | d^inf, v <= vmax, and the pairs keep(v, alpha) admits."""
    total = Fraction(0)
    alphas = squarefree_divisors(d)
    for v in divisors_of_dinfty(d, vmax):
        for alpha, mu in alphas:
            if keep(v, alpha):
                total += Fraction(mu * math.gcd(alpha * v, h), euler_phi(d * v) * alpha * v)
    return total


def truncated_sum_s1(d: int, h: int, vmax: int) -> Fraction:
    """Literal truncation of the generic-degree double sum."""
    return _truncated_sum(d, h, vmax, lambda v, alpha: True)


def truncated_sum_s2(d: int, h: int, k: int, vmax: int) -> Fraction:
    """As S1 but restricted to v with v2(v) >= v2(h) + k."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    cutoff = valuation(2, h) + k
    return _truncated_sum(d, h, vmax, lambda v, alpha: valuation(2, v) >= cutoff)


def truncated_sum_s3(d: int, h: int, disc: int, vmax: int) -> Fraction:
    """As S1 but keeping only pairs with lcm(2^(v2(h d/alpha)+1), |disc|) | dv."""
    if not is_fundamental_discriminant(disc):
        raise ValueError(f"{disc} is not a fundamental discriminant")
    return _truncated_sum(
        d, h, vmax, lambda v, alpha: d * v % _halving_threshold(h, d // alpha, disc) == 0
    )


def closed_sum_s1(d: int, h: int) -> Fraction:
    """Exact value of the S1 double sum: the generic factor S(d, h)."""
    return s_factor(d, h)


def closed_sum_s2(d: int, h: int, k: int) -> Fraction:
    """Exact value of the S2 double sum.

    For even d the 2-adic restriction scales the sum by exactly 4^(-k).  For
    odd d every admissible v is odd, so the restriction is either vacuous
    (h odd, k = 0) or empties the sum.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    s = s_factor(d, h)
    if d % 2 == 0:
        return s / 4**k
    return s if (k == 0 and h % 2 == 1) else Fraction(0)


def closed_sum_s3(d: int, h: int, disc: int) -> Fraction:
    """Exact value of the S3 double sum: epsilon2(disc) * S(d, h).

    epsilon2 is (-1/2)^(2^gamma) with gamma = max(0, v2(disc/(d h))) when d
    is even and disc | 4d, and 0 otherwise.
    """
    if not is_fundamental_discriminant(disc):
        raise ValueError(f"{disc} is not a fundamental discriminant")
    if d % 2 != 0 or (4 * d) % abs(disc) != 0:
        return Fraction(0)
    return epsilon_table(1, gamma_exponent(disc, d, h)) * s_factor(d, h)


def s_sum_tail_bound(d: int, h: int, vmax: int) -> Fraction:
    """Tail bound shared by the truncated S sums.

    Every v-term of S1 (and a fortiori of the restricted S2/S3) is bounded by
    2^omega(d) * h / (phi(d) v^2) in absolute value; the bound is that
    coefficient times the exact sum of 1/v^2 over v | d^inf past vmax.
    """
    if vmax < 1:
        raise ValueError("vmax must be positive")
    n_alphas = len(squarefree_divisors(d))
    return _tail_envelope(d, vmax, Fraction(n_alphas * h, euler_phi(d)))
