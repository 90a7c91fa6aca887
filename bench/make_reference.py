"""Regenerate bench/reference.json, the counts the benchmark's output gate compares against.

The counts come from a scalar route that shares no code with orddiv's census
kernel or verifiers: a plain sieve, then for every prime one Python ``pow``
per prime power l^a || d (d | ord_p(g) iff, for each l^a || d with
e = v_l(p-1) >= a, g^((p-1)/l^(e-a+1)) != 1 mod p).

    python3 bench/make_reference.py        # under a minute on one core
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from workloads import IDENTITY_PAIRS, SIZES, table_pairs  # noqa: E402


def primes_upto(n: int) -> list[int]:
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).tolist()


def prime_powers(d: int) -> list[tuple[int, int]]:
    out, ell = [], 2
    while d > 1:
        a = 0
        while d % ell == 0:
            d //= ell
            a += 1
        if a:
            out.append((ell, a))
        ell += 1
    return out


def count(g: int, d: int, primes: list[int], exclude_d: bool) -> tuple[int, int]:
    """(#{p : d | ord_p(g)}, #{p considered}) over odd p coprime to g (and to d if asked)."""
    num, den = Fraction(g).numerator, Fraction(g).denominator
    powers = prime_powers(d)
    counted = considered = 0
    for p in primes:
        if p == 2 or num % p == 0 or den % p == 0 or (exclude_d and d % p == 0):
            continue
        considered += 1
        pm1 = p - 1
        if pm1 % d:
            continue
        gbar = num * pow(den, -1, p) % p
        for ell, a in powers:
            e, t = 0, pm1
            while t % ell == 0:
                t //= ell
                e += 1
            if pow(gbar, pm1 // ell ** (e - a + 1), p) == 1:
                break
        else:
            counted += 1
    return counted, considered


def main() -> None:
    reference = {
        "how": "bench/make_reference.py: plain sieve plus one scalar pow per prime power of d",
        "pi": {},
        "census": {},
        "key_identity": {},
    }
    for size in SIZES.values():
        for key in ("census_x", "identity_x", "flip_x"):
            x = size[key]
            reference["pi"][str(x)] = len(primes_upto(x))
        x = size["census_x"]
        primes = primes_upto(x)
        reference["census"][str(x)] = {
            f"{g},{d}": list(count(g, d, primes, exclude_d=False)) for g, d in table_pairs()
        }
        x = size["identity_x"]
        primes = primes_upto(x)
        reference["key_identity"][str(x)] = {
            f"{g},{d}": count(g, d, primes, exclude_d=True)[0] for g, d in IDENTITY_PAIRS
        }
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
