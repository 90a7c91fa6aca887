import inspect
import math
import random
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from orddiv import arith
from orddiv.arith import (
    Factorization,
    divisors_of_dinfty,
    euler_phi,
    factorize,
    gcd_with_dinfty,
    is_prime,
    squarefree_divisors,
    valuation,
)


def as_dict(f: Factorization) -> dict:
    return dict(f.factors)


class TestFactorize:
    def test_examples(self):
        assert as_dict(factorize(12)) == {2: 2, 3: 1}
        assert as_dict(factorize(1)) == {}
        # the 10^8-th prime; its factorization is itself, certified by is_prime
        assert as_dict(factorize(2038074743)) == {2038074743: 1}
        assert is_prime(2038074743)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_invariants_hold(self):
        for n in (2, 97, 360, 2**20, 3**10 * 5**4, 999983):
            f = factorize(n)
            assert math.prod(p**e for p, e in f.factors) == n
            assert list(f.primes()) == sorted(f.primes())
            assert all(is_prime(p) for p in f.primes())

    def test_large_semiprime(self):
        # both factors above the trial-division limit
        p, q = 1_000_003, 1_000_033
        assert as_dict(factorize(p * q)) == {p: 1, q: 1}

    def test_pollard_brent_backtracks_when_a_batch_gcd_hits_n(self):
        # with c = 1 the batched product for this n reaches gcd n, so the factor
        # is recovered by the step-by-step backtrack from the saved ys
        p, q = 1_000_003, 1_000_133
        lines, first = inspect.getsourcelines(arith._pollard_brent)
        backtrack = first + next(i for i, line in enumerate(lines) if "ys = (ys * ys + c) % n" in line)
        ran = set()

        def local(frame, event, arg):
            if event == "line":
                ran.add((frame.f_lineno, frame.f_locals.get("c")))
            return local

        outer = sys.gettrace()
        sys.settrace(lambda frame, event, arg: local if frame.f_code is arith._pollard_brent.__code__ else None)
        try:
            factors = factorize(p * q)
        finally:
            sys.settrace(outer)
        assert as_dict(factors) == {p: 1, q: 1}
        assert (backtrack, 1) in ran

    def test_deterministic(self):
        n = 1_000_003 * 1_000_033 * 17
        assert factorize(n) == factorize(n)

    @given(st.integers(2, 10**6), st.integers(2, 10**6))
    def test_multiply_roundtrip(self, m, n):
        merged: dict = {}
        for part in (factorize(m), factorize(n)):
            for p, e in part.factors:
                merged[p] = merged.get(p, 0) + e
        assert as_dict(factorize(m * n)) == merged

    def test_malformed_factorization_rejected(self):
        with pytest.raises(ValueError):
            Factorization(6, ((3, 1), (2, 1)))
        with pytest.raises(ValueError):
            Factorization(6, ((2, 1),))


class TestIsPrime:
    def test_small(self):
        known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
        assert {n for n in range(2, 50) if is_prime(n)} == known
        assert not is_prime(1) and not is_prime(0)

    def test_strong_pseudoprimes(self):
        # composites that fool single-base tests
        for n in (2047, 1373653, 25326001, 3215031751, 3825123056546413051):
            assert not is_prime(n)


class TestEulerPhi:
    def test_examples(self):
        assert euler_phi(1) == 1
        assert euler_phi(8) == 4
        assert euler_phi(12) == 4

    def test_against_direct_count(self):
        for n in range(1, 300):
            direct = sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)
            assert euler_phi(n) == direct


class TestValuation:
    def test_integers(self):
        assert valuation(2, 12) == 2
        assert valuation(3, 12) == 1
        assert valuation(5, 12) == 0

    def test_rationals(self):
        assert valuation(2, Fraction(8, 12)) == 1
        assert valuation(3, Fraction(8, 12)) == -1
        assert valuation(2, Fraction(-8, 3)) == 3

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            valuation(2, 0)


class TestGcdWithDinfty:
    def test_examples(self):
        assert gcd_with_dinfty(12, 10) == 4
        assert gcd_with_dinfty(7, 1) == 1
        assert gcd_with_dinfty(2, 6) == 2

    def test_against_valuations(self):
        rng = random.Random(7)
        for _ in range(500):
            h = rng.randrange(1, 10**6)
            d = rng.randrange(1, 10**4)
            expected = math.prod(
                p ** valuation(p, h) for p in factorize(d).primes()
            )
            assert gcd_with_dinfty(h, d) == expected


class TestDivisorsOfDinfty:
    def test_examples(self):
        assert divisors_of_dinfty(2, 10) == [1, 2, 4, 8]
        assert divisors_of_dinfty(6, 13) == [1, 2, 3, 4, 6, 8, 9, 12]
        assert divisors_of_dinfty(1, 100) == [1]

    def test_membership_and_order(self):
        vs = divisors_of_dinfty(12, 500)
        assert vs == sorted(vs)
        for v in vs:
            assert set(sympy.primefactors(v)) <= {2, 3}
        assert all((v in vs) == (set(sympy.primefactors(v)) <= {2, 3})
                   for v in range(1, 501))

    @pytest.mark.parametrize("d,bound", [(2, 1000), (6, 1000), (30, 10**6)])
    def test_length_bound(self, d, bound):
        omega = len(factorize(d).primes())
        limit = (math.log(bound) / math.log(2) + 1) ** omega
        assert len(divisors_of_dinfty(d, bound)) <= limit


class TestSquarefreeDivisors:
    def test_mobius_support(self):
        for d in (1, 2, 12, 30, 36):
            pairs = squarefree_divisors(d)
            assert [a for a, _ in pairs] == sorted(
                a for a in sympy.divisors(d) if sympy.mobius(a) != 0
            )
            assert all(mu == sympy.mobius(a) for a, mu in pairs)

    def test_divisor_sum_identity(self):
        # sum of mu over the divisors of n vanishes except at n = 1
        for n in range(1, 10_001):
            assert sum(mu for _, mu in squarefree_divisors(n)) == (n == 1), n


class TestExactRationals:
    """Densities are carried as Fraction; spot-check the exactness contract."""

    @given(st.integers(-10**9, 10**9), st.integers(1, 10**9),
           st.integers(-10**9, 10**9), st.integers(1, 10**9))
    def test_addition_cross_multiplication(self, a, b, c, d):
        q = Fraction(a, b) + Fraction(c, d)
        assert q.numerator * (b * d) == (a * d + c * b) * q.denominator

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
    def test_always_reduced(self, a, b):
        q = Fraction(a, b)
        assert math.gcd(abs(q.numerator), q.denominator) == 1
        assert q.denominator >= 1
        assert Fraction(0, 5) == Fraction(0, 1)
