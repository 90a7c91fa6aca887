"""Degrees of Q(zeta_kr, g^(1/k)) and the divisor-indexed degree series.

The density of {p : d | ord_p(g)} equals the double sum over v | d^inf and
squarefree alpha | d of mu(alpha)/[Q(zeta_dv, g^(1/(alpha v))):Q].  This
module evaluates the degrees in closed form, sums the whole series exactly
over finitely many classes of v, truncates it with a rigorous tail bound (so
that [partial, partial + tail] always brackets the exact density), and gives
the three auxiliary divisor sums S1, S2, S3 both as exact class sums and in
closed form.
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
    factorize,
    gcd_with_dinfty,
    squarefree_divisors,
    valuation,
)
from .base import (
    BaseDecomposition,
    RationalBase,
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
    "series_exact",
    "tail_bound",
    "closed_sum_s1",
    "closed_sum_s2",
    "closed_sum_s3",
    "sum_s1",
    "sum_s2",
    "sum_s3",
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
    hr = h * r
    return math.lcm(2 * (hr & -hr), abs(disc))  # hr & -hr is 2^v2(hr)


def _eps_doubled(kr: int, k: int, decomposition: BaseDecomposition) -> int:
    """2 eps, for the degree phi(kr) k / (eps gcd(k, h)) of Q(zeta_kr, g^(1/k)) with k | kr.

    eps is 1/2, 1 or 2; degree and the series both take it from here.
    """
    r, h = kr // k, decomposition.h
    if decomposition.sign < 0 and r % 2 == 1:
        if kr % degree_params(decomposition) == 0:
            return 4  # eps = 2
        if k % 2 == 0 and k % (2 * (h & -h)) != 0:  # 2 * (h & -h) is 2^(v2(h)+1)
            return 1  # eps = 1/2
        return 2  # eps = 1
    return 4 if kr % _halving_threshold(h, r, decomposition.disc) == 0 else 2


def _not_integral(kr: int, k: int, h: int) -> ArithmeticError:
    return ArithmeticError(f"degree formula not integral at kr={kr}, k={k}, h={h}")


def degree(kr: int, k: int, decomposition: BaseDecomposition) -> int:
    """Degree [Q(zeta_kr, g^(1/k)) : Q] for k | kr.

    Equals phi(kr) * k / (eps * gcd(k, h)) with eps in {1/2, 1, 2}; the
    division is carried out in integers and checked exact.
    """
    if k < 1 or kr % k != 0:
        raise ValueError(f"degree requires k | kr, got kr={kr}, k={k}")
    numerator = 2 * euler_phi(kr) * k
    denominator = _eps_doubled(kr, k, decomposition) * math.gcd(k, decomposition.h)
    if numerator % denominator != 0:
        raise _not_integral(kr, k, decomposition.h)
    return numerator // denominator


@dataclass(frozen=True)
class SeriesEstimate:
    """Partial degree series with a rigorous bound on the omitted tail.

    The exact density always lies in [partial, partial + tail_bound];
    series_partial computes the bound, the exact weighted remainder, and
    tail_bound(g, d, vmax) reads it.
    """

    d: int
    vmax: int
    partial: Fraction
    tail_bound: Fraction
    blocks: tuple[tuple[int, Fraction], ...]


def series_partial(
    g: BaseDecomposition | RationalBase | int | str | Fraction, d: int, vmax: int
) -> SeriesEstimate:
    """Sum the degree series over v | d^inf, v <= vmax, recording per-v blocks.

    Each block is the inner Mobius sum at one v; blocks are provably
    nonnegative, so partial sums increase monotonically toward the density.
    The block at v is num[gcd(v, top)] / (unit v^2), from _class_numerators
    (the proof is at _two_adic_period); each class's sign is checked once.
    The partial and the tail (derived at tail_bound) share 1/v^2 = weight / lcm(vs)^2.
    """
    if vmax < 1:
        raise ValueError("vmax must be positive")
    dec = decompose(g)
    unit, top, num = _class_numerators(d, dec.h, _series_eps(d, dec), _two_adic_period(d, dec.h))
    for c, n in num.items():
        if n < 0:  # c is the first v of its class
            raise ArithmeticError(f"negative series block at v={c} for g={dec.base}")
    vs = divisors_of_dinfty(d, vmax)
    nums = [num[math.gcd(v, top)] for v in vs]
    lcm = math.lcm(*vs)
    den, weights = lcm * lcm, [(lcm // v) ** 2 for v in vs]
    tail = Fraction(2 * dec.h, euler_phi(d)) * (d * s_factor(d, 1) - Fraction(sum(weights), den))
    return SeriesEstimate(
        d=d,
        vmax=vmax,
        partial=Fraction(sum(n * w for w, n in zip(weights, nums)), unit * den),
        tail_bound=tail,
        blocks=tuple((v, Fraction(n, unit * v * v)) for v, n in zip(vs, nums)),
    )


def series_exact(g: BaseDecomposition | RationalBase | int | str | Fraction, d: int) -> Fraction:
    """The whole degree series, summed over every v | d^inf, as one Fraction (see _exact_sum)."""
    dec = decompose(g)
    return _exact_sum(d, dec.h, _series_eps(d, dec), _two_adic_period(d, dec.h))


def _series_eps(d: int, dec: BaseDecomposition) -> Callable[[int, int], int]:
    """The series' eps_doubled(v, alpha) for _class_numerators: 2 eps at kr = dv, k = alpha v."""
    return lambda v, alpha: _eps_doubled(d * v, alpha * v, dec)


def _two_adic_period(d: int, h: int) -> int:
    """2^(v2(d)+1) h: the period in v of the degree series' and S3's block numerators.

    The (v, alpha) term reads v only through gcd(alpha v, h), which is
    gcd(alpha gcd(v, h), h); through min(v2(alpha v), v2(h) + 1); and through
    whether a threshold n divides dv, with n = degree_params or n_r of
    _halving_threshold.  n's odd part is the odd part of disc, which is
    squarefree and divides dv exactly when it divides d, since v | d^inf has
    only primes of d.  For odd d every v is odd.  For even d, n's 2-part is
    at most 2^e with e = max(v2(h)+v2(d)+1, 3), as v2(r) <= v2(d) and
    v2(disc) <= 3; the test 2^e | dv asks v2(v) >= e - v2(d), and
    e - v2(d) <= max(v2(h) + 1, 2) <= v2(P).
    """
    return 2 * (d & -d) * h  # d & -d is 2^v2(d)


def _exact_sum(d: int, h: int, eps_doubled: Callable[[int, int], int], period: int) -> Fraction:
    """The double sum over every v | d^inf, as one Fraction, from _class_numerators.

    The block at v is num[c] / (unit v^2) with c = gcd(v, top), and the
    classes c are the divisors of top = prod_{l|d} l^E, E = v_l(P), for the
    period P.  With e = v_l(c), the class of c holds the v | d^inf with
    v_l(v) = e where e < E and v_l(v) >= E where e = E.  Its sum of 1/v^2 is
    W_c = prod_{l|d} of l^(-2e) (e < E) or of sum_{j>=E} l^(-2j) =
    l^(-2E) l^2/(l^2-1) (e = E), i.e. c^(-2) prod_{l : e = E} l^2/(l^2-1), and
    the series is the finite sum of num[c] W_c / unit.  Over unit top^2
    prod_{l|d} (l^2-1), W_c's numerator is (top/c)^2 times l^2 for each l with
    e = E (l does not divide top/c) and l^2-1 for each other l.
    """
    unit, top, nums = _class_numerators(d, h, eps_doubled, period)
    primes = factorize(d).primes()
    total = 0
    for c, num in nums.items():
        rest = top // c
        weight = rest * rest
        for ell in primes:
            weight *= ell * ell - 1 if rest % ell == 0 else ell * ell
        total += num * weight
    return Fraction(total, unit * top * top * math.prod(ell * ell - 1 for ell in primes))


def _class_numerators(
    d: int, h: int, eps_doubled: Callable[[int, int], int], period: int
) -> tuple[int, int, dict[int, int]]:
    """(unit, top, num): the double sum's block at v | d^inf is num[gcd(v, top)] / (unit v^2).

    A v | d^inf has only primes of d, so phi(dv) = phi(d) v.  With rad the
    radical of d and eps2 = eps_doubled(v, alpha), the (v, alpha) term
    1/deg(dv, alpha v) = eps2 gcd(alpha v, h) / (2 phi(dv) alpha v) is then
    eps2 gcd(alpha v, h) (rad/alpha) / (2 phi(d) rad v^2), over the unit
    2 phi(d) rad.  An eps2 of 0 leaves the term out.

    The caller's period P promises that the term reads v only through
    gcd(v, P), which is gcd(v, top) for top = gcd_with_dinfty(P, d).  So the
    classes are the divisors c of top, ascending, and each numerator is
    computed at v = c, the first v of its class.  Each term's degree is
    checked integral there, its numerator dividing unit c^2, and so
    unit v^2 for every v of the class.
    """
    alphas = squarefree_divisors(d)
    rad = alphas[-1][0]
    unit = 2 * euler_phi(d) * rad
    top = gcd_with_dinfty(period, d)
    num: dict[int, int] = {}
    for c in divisors_of_dinfty(d, top):
        if top % c == 0:
            den, total = unit * c * c, 0
            for alpha, mu in alphas:
                term = eps_doubled(c, alpha) * math.gcd(alpha * c, h) * (rad // alpha)
                if term and den % term:
                    raise _not_integral(d * c, alpha * c, h)
                total += mu * term
            num[c] = total
    return unit, top, num


def tail_bound(
    g: BaseDecomposition | RationalBase | int | str | Fraction, d: int, vmax: int
) -> Fraction:
    """Upper bound for the degree series omitted past vmax.

    Each block at v is at most 1/[Q(zeta_dv, g^(1/v)):Q] <= 2h/(phi(d) v^2),
    so the bound is (2h/phi(d)) times the exact sum of 1/v^2 over the
    omitted v | d^inf: 0 for d = 1, and flat between consecutive v | d^inf.
    The sum over every v | d^inf is the Euler product
    prod_{l|d} l^2/(l^2-1) = d * S(d, 1), and series_partial subtracts the
    terms v <= vmax from it.
    """
    return series_partial(g, d, vmax).tail_bound


# ---------------------------------------------------------------------------
# Auxiliary divisor sums, each summed exactly over every v | d^inf by
# _exact_sum.  S1 substitutes the generic degree phi(dv) alpha v /
# gcd(alpha v, h), the series' degree at eps = 1 (eps_doubled 2), into the
# series; S2 restricts S1 to v with v2(v) >= v2(h) + k; S3 keeps the pairs
# (v, alpha) where the degree halves, i.e. where the threshold n_r with
# r = d/alpha divides dv.  An excluded pair has eps_doubled 0.  The rule must
# read v only through gcd(v, period), as must the generic term, which reads
# gcd(v, h); so h | period.  Their closed forms multiply S(d, h) by 1, 4^(-k),
# and (-1/2)^(2^gamma) respectively (in the regimes where the restrictions
# bite; see each function).
# ---------------------------------------------------------------------------


def sum_s1(d: int, h: int) -> Fraction:
    """The generic-degree double sum over every v | d^inf."""
    return _exact_sum(d, h, lambda v, alpha: 2, h)


def sum_s2(d: int, h: int, k: int) -> Fraction:
    """As S1 but restricted to v with v2(v) >= v2(h) + k."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    cutoff = valuation(2, h) + k
    return _exact_sum(
        d, h, lambda v, alpha: 2 * (valuation(2, v) >= cutoff), math.lcm(h, 2**cutoff)
    )


def sum_s3(d: int, h: int, disc: int) -> Fraction:
    """As S1 but keeping only pairs with lcm(2^(v2(h d/alpha)+1), |disc|) | dv."""
    if not is_fundamental_discriminant(disc):
        raise ValueError(f"{disc} is not a fundamental discriminant")
    return _exact_sum(
        d,
        h,
        lambda v, alpha: 2 * (d * v % _halving_threshold(h, d // alpha, disc) == 0),
        _two_adic_period(d, h),
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

