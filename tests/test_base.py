import math
import random
from fractions import Fraction

import pytest
import sympy

from orddiv import arith, base as base_module
from orddiv.arith import factorize, valuation
from orddiv.base import (
    RationalBase,
    as_base,
    decompose,
    fundamental_discriminant,
    gamma_exponent,
    is_fundamental_discriminant,
)


class TestRationalBase:
    @pytest.mark.parametrize("bad", [0, 1, -1, "1", Fraction(1), Fraction(-1)])
    def test_rejects_units_and_zero(self, bad):
        with pytest.raises(ValueError):
            as_base(bad)

    def test_reduced_only(self):
        with pytest.raises(ValueError):
            RationalBase(4, 6)
        with pytest.raises(ValueError):
            RationalBase(3, -2)

    def test_from_value(self):
        assert as_base("8/27") == RationalBase(8, 27)
        assert as_base(-4) == RationalBase(-4, 1)
        assert as_base(Fraction(-9, 5)) == RationalBase(-9, 5)


class TestDecompose:
    def test_examples(self):
        d4 = decompose(4)
        assert (d4.sign, d4.g0, d4.h) == (1, Fraction(2), 2)
        dm9 = decompose(-9)
        assert (dm9.sign, dm9.g0, dm9.h) == (-1, Fraction(3), 2)
        dc = decompose("8/27")
        assert (dc.sign, dc.g0, dc.h) == (1, Fraction(2, 3), 3)
        assert dc.sign * dc.g0**dc.h == Fraction(8, 27)

    def test_recomposition_random(self):
        rng = random.Random(20240809)
        seen = 0
        while seen < 1000:
            num = rng.randrange(-10**6, 10**6)
            den = rng.randrange(1, 10**6)
            q = Fraction(num, den)
            if q in (0, 1, -1):
                continue
            seen += 1
            dec = decompose(q)
            assert dec.sign * dec.g0**dec.h == q
            assert dec.g0 > 0
            assert math.gcd(dec.g0_num, dec.g0_den) == 1

    def test_h_maximality(self):
        rng = random.Random(99)
        for _ in range(300):
            q = Fraction(rng.randrange(2, 10**4)) ** rng.randrange(1, 4)
            if rng.random() < 0.5:
                q = 1 / q
            if rng.random() < 0.5:
                q = -q
            dec = decompose(q)
            exps = [e for _, e in factorize(abs(q.numerator)).factors]
            exps += [e for _, e in factorize(q.denominator).factors]
            # g0 itself is not an exact power
            assert math.gcd(*(e // dec.h for e in exps)) == 1
            # |g| is a perfect qth power for every prime q dividing h
            for prime, _ in factorize(dec.h).factors:
                assert all(e % prime == 0 for e in exps)

    @pytest.mark.parametrize("g", [360, Fraction(-45, 8), -Fraction(12, 35) ** 6])
    def test_factors_each_part_of_g_once(self, g, monkeypatch):
        # the discriminant is read from the factors of |g1| and g2, not from a
        # second factorization of g0
        calls = []

        def recorder(real):
            return lambda n: calls.append(n) or real(n)

        arith._factorize_cached.cache_clear()
        monkeypatch.setattr(arith, "factorize", recorder(arith.factorize))
        monkeypatch.setattr(base_module, "factorize", recorder(base_module.factorize))
        dec = decompose(g)
        assert calls == [abs(dec.base.g1), dec.base.g2]
        assert dec.disc == fundamental_discriminant(dec.g0)


class TestDiscriminant:
    def test_examples(self):
        assert fundamental_discriminant(2) == 8
        assert fundamental_discriminant(3) == 12
        assert fundamental_discriminant(Fraction(2, 3)) == 24

    def test_square_factors_collapse(self):
        # Q(sqrt(12)) = Q(sqrt(3)) and Q(sqrt(18)) = Q(sqrt(2))
        assert fundamental_discriminant(12) == 12
        assert fundamental_discriminant(18) == 8
        assert fundamental_discriminant(Fraction(45, 8)) == 40

    def test_rejects_squares(self):
        with pytest.raises(ValueError):
            fundamental_discriminant(4)
        with pytest.raises(ValueError):
            fundamental_discriminant(Fraction(9, 4))

    def test_fundamental_shape(self):
        rng = random.Random(5)
        for _ in range(400):
            num = rng.randrange(2, 10**5)
            den = rng.randrange(1, 10**3)
            g = math.gcd(num, den)
            num, den = num // g, den // g
            if Fraction(num, den) == 1 or _is_square_rational(num, den):
                continue
            disc = fundamental_discriminant(Fraction(num, den))
            assert disc % 4 in (0, 1)
            assert is_fundamental_discriminant(disc)
            odd_part = disc >> valuation(2, disc)
            assert factorize(odd_part).is_squarefree

    def test_against_sympy_core(self):
        # independent squarefree-kernel route for the same field invariant
        for n in (2, 3, 5, 6, 7, 10, 12, 18, 50, 99, 4802):
            kernel = int(sympy.ntheory.factor_.core(n))
            expected = kernel if kernel % 4 == 1 else 4 * kernel
            assert fundamental_discriminant(n) == expected

    def test_signed_variant(self):
        assert fundamental_discriminant(Fraction(-1, 2)) == -8
        assert fundamental_discriminant(-3) == -3
        assert fundamental_discriminant(-4) == -4
        assert fundamental_discriminant(-2) == -8
        assert fundamental_discriminant(Fraction(3)) == 12
        assert fundamental_discriminant(5) == 5
        for value in (-3, -4, -2, 5):
            assert is_fundamental_discriminant(fundamental_discriminant(value))


def _is_square_rational(num: int, den: int) -> bool:
    return math.isqrt(num) ** 2 == num and math.isqrt(den) ** 2 == den


class TestGammaExponent:
    def test_examples(self):
        assert gamma_exponent(8, 2, 1) == 2
        assert gamma_exponent(12, 6, 2) == 0
        assert gamma_exponent(8, 8, 1) == 0

    def test_rejects_odd_d(self):
        with pytest.raises(ValueError):
            gamma_exponent(8, 3, 1)

    def test_at_most_two(self):
        for disc in (5, 8, 12, 13, 24, 40, 17, 21):
            for d in range(2, 60, 2):
                for h in (1, 2, 3, 4, 8):
                    assert 0 <= gamma_exponent(disc, d, h) <= 2
