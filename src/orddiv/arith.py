"""Exact number-theoretic primitives shared by every other module.

All densities and correction factors downstream are exact rationals; this
module supplies the integer side (factorization, totient, p-adic valuations)
plus the divisor enumerations the series and census code need.
Rationals are carried by ``fractions.Fraction`` throughout the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "Factorization",
    "is_prime",
    "factorize",
    "euler_phi",
    "valuation",
    "gcd_with_dinfty",
    "divisors_of_dinfty",
    "squarefree_divisors",
]

# Trial division handles everything below this; larger cofactors go to
# Pollard-Brent with a fixed parameter sweep so results are reproducible.
_TRIAL_LIMIT = 1_000_000

# Strong-pseudoprime witnesses: proven deterministic for n < 3.3e24.  Above it,
# as for factorize's cofactors of a large g, a pass means a strong probable prime.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin test to _MR_WITNESSES: exact for n < 3.3e24, else a probable-prime test."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """Return a nontrivial factor of composite odd n (deterministic sweep)."""
    # Brent's cycle variant; (y0, c) pairs are swept in a fixed order so the
    # returned factor never depends on external randomness.
    for c in range(1, 100):
        y, m = 2 + c, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"factor sweep exhausted for {n}")


@dataclass(frozen=True)
class Factorization:
    """A positive integer with its prime factorization in ascending order."""

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        prod = 1
        last = 1
        for p, e in self.factors:
            if p <= last or e <= 0:
                raise ValueError(f"malformed factorization of {self.value}")
            last = p
            prod *= p**e
        if prod != self.value or self.value < 1:
            raise ValueError(f"factors do not multiply to {self.value}")

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)


def factorize(n: int) -> Factorization:
    """Factor a positive integer; deterministic for a given input."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    m = n
    counts: dict[int, int] = {}
    for p in (2, 3, 5):
        while m % p == 0:
            counts[p] = counts.get(p, 0) + 1
            m //= p
    # wheel over residues coprime to 30
    p = 7
    increments = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while p <= _TRIAL_LIMIT and p * p <= m:
        while m % p == 0:
            counts[p] = counts.get(p, 0) + 1
            m //= p
        p += increments[i]
        i = (i + 1) % 8
    stack = [m] if m > 1 else []
    while stack:
        c = stack.pop()
        if c <= _TRIAL_LIMIT * _TRIAL_LIMIT or is_prime(c):
            # trial division already removed everything below the limit, so a
            # survivor below limit^2 must be prime
            counts[c] = counts.get(c, 0) + 1
            continue
        f = _pollard_brent(c)
        stack.append(f)
        stack.append(c // f)
    return Factorization(n, tuple(sorted(counts.items())))


@lru_cache(maxsize=None)
def _factorize_cached(n: int) -> Factorization:
    return factorize(n)


def euler_phi(n: int) -> int:
    """Euler totient: count of units modulo n."""
    result = n
    for p, _ in _factorize_cached(n).factors:
        result -= result // p
    return result


def valuation(p: int, n: int | Fraction) -> int:
    """p-adic valuation of a nonzero integer or rational (may be negative)."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    if isinstance(n, Fraction):
        return _int_valuation(p, n.numerator) - _int_valuation(p, n.denominator)
    return _int_valuation(p, n)


def _int_valuation(p: int, n: int) -> int:
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def gcd_with_dinfty(h: int, d: int) -> int:
    """The d-part of h: product over primes p | d of p^(valuation of h at p)."""
    if h < 1 or d < 1:
        raise ValueError("gcd_with_dinfty requires positive arguments")
    result = 1
    g = math.gcd(h, d)
    while g > 1:
        result *= g
        h //= g
        g = math.gcd(h, g)
    return result


def divisors_of_dinfty(d: int, bound: int) -> list[int]:
    """All integers v <= bound whose prime factors all divide d, ascending."""
    if d < 1 or bound < 1:
        raise ValueError("divisors_of_dinfty requires positive arguments")
    values = [1]
    for p in _factorize_cached(d).primes():
        extended = []
        for v in values:
            while v <= bound:
                extended.append(v)
                v *= p
        values = extended
    return sorted(values)


def squarefree_divisors(d: int) -> list[tuple[int, int]]:
    """Pairs (alpha, mu(alpha)) for the squarefree divisors of d, ascending, mu the Mobius function.

    These are exactly the divisors with nonzero Mobius weight, i.e. the
    support of every inclusion-exclusion sum in this package, and the only
    place the package reads mu.
    """
    pairs = [(1, 1)]
    for p in _factorize_cached(d).primes():
        pairs += [(a * p, -mu) for a, mu in pairs]
    return sorted(pairs)

