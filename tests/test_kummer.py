import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, strategies as st
from support import reference_series

from orddiv import kummer
from orddiv.arith import divisors_of_dinfty, euler_phi, squarefree_divisors, valuation
from orddiv.base import decompose
from orddiv.census import _powmod_vec, _small_primes
from orddiv.density import density, density_by_transfer, s_factor
from orddiv.kummer import (
    closed_sum_s1,
    closed_sum_s2,
    closed_sum_s3,
    degree,
    degree_params,
    series_exact,
    series_partial,
    sum_s1,
    sum_s2,
    sum_s3,
    tail_bound,
)

# spans positive/negative g, h odd / v2(h)=1 / v2(h)>=2, disc = 4, 0, odd mod 8,
# and bases with square factors (where the field Q(sqrt(g0)) collapses)
FIXTURE_BASES = (2, 3, 17, 4, 9, 16, -2, -3, -17, -4, -9, -16, 64, -64, 12, -12)


class TestDegree:
    # frozen via the cyclotomic/quadratic containments worked out by hand:
    # e.g. sqrt(2) lies in Q(zeta_8), (-4)^(1/2) = 2i, (1+i)^4 = -4,
    # sqrt(17) lies in Q(zeta_17), 9^(1/3) generates the same cubic as 3^(1/3).
    HAND_ORACLE = [
        (2, 1, 2, 1),
        (8, 8, 2, 16),
        (8, 4, 2, 8),
        (12, 12, 3, 24),
        (12, 2, 3, 4),
        (3, 3, 9, 6),
        (8, 2, 16, 4),
        (34, 2, 17, 16),
        (12, 2, 12, 4),
        (2, 2, -4, 2),
        (4, 2, -4, 2),
        (4, 4, -4, 2),
        (8, 8, -4, 8),
        (8, 8, -2, 16),
        (6, 2, -9, 4),
        (2, 2, -3, 2),
        (6, 2, -3, 2),
        (2, 2, -9, 2),
    ]

    @pytest.mark.parametrize("kr,k,g,expected", HAND_ORACLE)
    def test_hand_oracle(self, kr, k, g, expected):
        assert degree(kr, k, decompose(g)) == expected

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            degree(8, 3, decompose(2))

    def test_integral_and_bounded_quotient(self):
        pairs = [(kr, k) for kr in range(1, 10_001) for k in sympy.divisors(kr)]
        for g in FIXTURE_BASES:
            dec = decompose(g)
            h = dec.h
            for kr, k in pairs:
                deg = degree(kr, k, dec)
                assert deg > 0
                quotient_num = euler_phi(kr) * k
                assert quotient_num % deg == 0
                # quotient is eps * gcd(k, h) with eps in {1/2, 1, 2}
                assert (4 * quotient_num // deg) % math.gcd(k, h) == 0
                assert quotient_num // deg <= 2 * math.gcd(k, h)

    def test_threshold_modulus_frozen(self):
        # halving applies exactly when (v2(h), disc mod 8) is (0, 4) or (1, 0)
        expected = {2: 8, -2: 8, 3: 6, -3: 6, -4: 4, 9: 24, 16: 16, 17: 68}
        for g, m in expected.items():
            assert degree_params(decompose(g)) == m, g

    def test_statistical_splitting_oracle(self):
        # a prime splits completely in Q(zeta_kr, g^(1/k)) iff p = 1 (mod kr)
        # and g is a kth power residue; the density of such primes must be
        # 1/degree within 3 sigma of the Bernoulli model at x = 10^7
        primes = _small_primes(10_000_000)
        primes = primes[primes > 2]
        total = primes.size + 1  # put p = 2 back in the denominator
        cases = [
            (2, (8, 8), (12, 12)),
            (3, (12, 2), (3, 3)),
            (9, (3, 3), (12, 6)),
            (16, (8, 2),),
            (17, (34, 2), (17, 17)),
            (12, (12, 2),),
            (-2, (8, 8), (2, 2)),
            (-4, (2, 2), (8, 8)),
            (-9, (6, 2), (12, 6)),
        ]
        for g, *pairs in cases:
            dec = decompose(g)
            for kr, k in pairs:
                deg = degree(kr, k, dec)
                sel = primes[(primes - 1) % kr == 0]
                sel = sel[np.abs(g) % sel != 0]
                splits = int(
                    np.count_nonzero(_powmod_vec(g % sel, (sel - 1) // k, sel) == 1)
                )
                q = 1.0 / deg
                sigma = math.sqrt(q * (1 - q) / total)
                assert abs(splits / total - q) <= 3 * sigma, (g, kr, k)


TABLE_PAIRS = [
    (2, 2), (2, 4), (2, 8), (3, 11), (3, 12), (4, 5), (4, 6),
    (-2, 2), (-2, 4), (-2, 6), (-3, 5), (-3, 12), (-4, 2), (-4, 4),
    (-9, 2), (-9, 6),
]


class TestSeries:
    def test_hand_expansion(self):
        est = series_partial(2, 2, 8)
        assert est.partial == Fraction(45, 64)
        assert [b for _, b in est.blocks] == [
            Fraction(1, 2), Fraction(1, 8), Fraction(1, 16), Fraction(1, 64)
        ]

    def test_prefix_of_larger_run(self):
        assert series_partial(2, 2, 1).partial == Fraction(1, 2)

    def test_vmax_must_be_positive(self):
        # one guard in series_partial serves both entry points
        with pytest.raises(ValueError):
            series_partial(2, 2, 0)
        with pytest.raises(ValueError):
            tail_bound(2, 2, 0)

    def test_d_one(self):
        est = series_partial(7, 1, 1)
        assert est.partial == 1
        assert est.blocks == ((1, Fraction(1)),)

    def test_blocks_nonnegative_with_degree_upper_bound(self):
        for g, d in TABLE_PAIRS:
            dec = decompose(g)
            est = series_partial(g, d, 2**10)
            for v, block in est.blocks:
                assert block >= 0
                assert block <= Fraction(1, degree(d * v, v, dec))

    def test_partial_monotone_in_vmax(self):
        for g, d in ((2, 2), (-9, 6), (3, 12)):
            partials = [series_partial(g, d, 2**k).partial for k in range(0, 14, 2)]
            assert partials == sorted(partials)

    def test_bracket_all_table_rows(self):
        for g, d in TABLE_PAIRS:
            est = series_partial(g, d, 2**12)
            delta = density(g, d).delta
            assert est.partial <= delta <= est.partial + est.tail_bound, (g, d)

    def test_differential_sweep(self):
        # a seeded sample of integer and rational bases: the closed form lies
        # in the series bracket, and for g < 0 the transfer route agrees
        bases = [Fraction(g) for g in range(-64, 65) if g not in (-1, 0, 1)]
        bases += sorted({Fraction(a, b) for a in range(-16, 17) for b in range(2, 17) if a % b})
        pairs = random.Random(4).sample([(g, d) for g in bases for d in range(1, 49)], 2000)
        for g, d in pairs:
            delta = density(g, d).delta
            est = series_partial(g, d, 2**12)
            assert est.partial <= delta <= est.partial + est.tail_bound, (g, d)
            if g < 0:
                assert density_by_transfer(g, d) == delta, (g, d)


# squares, cubes and sixth powers of either sign, h = 1, and rational bases
EQUALITY_BASES = (
    2, 4, 8, 9, 64, 729, 12, -2, -4, -8, -9, -27, -64, -729,
    Fraction(1, 2), Fraction(9, 4), Fraction(-4, 9), Fraction(-1, 8), Fraction(27, 8),
)


class TestSeriesAgainstDefinition:
    def test_equals_reference_series(self):
        # the integer sums reproduce every block, partial sum and tail of the
        # term-by-term definition; the bracket around the closed form then
        # catches a wrong eps branch, which the definition shares
        for g in EQUALITY_BASES:
            for d in range(1, 61):
                for vmax in (1, 2, 7, 64, 1000, 2**14):
                    est = series_partial(g, d, vmax)
                    assert est == reference_series(g, d, vmax), (g, d, vmax)
                delta = density(g, d).delta
                assert est.partial <= delta <= est.partial + est.tail_bound, (g, d)

    def test_negative_block_raises(self, monkeypatch):
        # eps = 1/2 at alpha = 1 and eps = 2 at alpha = 2: the v = 1 block of
        # d = 2 is 2/4 - 4/4, and both terms still divide the unit
        monkeypatch.setattr(kummer, "_eps_doubled", lambda kr, k, dec: 1 if k % 2 else 4)
        with pytest.raises(ArithmeticError, match="negative series block at v=1"):
            series_partial(3, 2, 8)

    def test_non_integral_degree_raises(self, monkeypatch):
        # a degree of 2 phi(kr) k / (3 gcd(k, h)) is not an integer for kr a power of 2
        monkeypatch.setattr(kummer, "_eps_doubled", lambda kr, k, dec: 3)
        with pytest.raises(ArithmeticError, match="degree formula not integral at kr=2, k=1"):
            series_partial(3, 2, 8)

    def test_eps_calls_per_class(self, monkeypatch):
        # a block numerator depends on v only through gcd(v, 2^(v2(d)+1) h), so
        # the eps helper runs once per alpha and class, not once per alpha and v
        eps_doubled, calls = kummer._eps_doubled, []
        monkeypatch.setattr(
            kummer, "_eps_doubled", lambda kr, k, dec: calls.append(kr) or eps_doubled(kr, k, dec)
        )
        for g, d in ((-9, 6), (Fraction(-4, 9), 48), (64, 60)):
            calls.clear()
            period = 2 ** (valuation(2, d) + 1) * decompose(g).h
            vs = divisors_of_dinfty(d, 2**14)
            n_alphas = len(squarefree_divisors(d))
            n_classes = len({math.gcd(v, period) for v in vs})
            series_partial(g, d, 2**14)
            assert len(calls) <= n_alphas * n_classes < n_alphas * len(vs), (g, d)


class TestSeriesExact:
    # the fixture and equality bases, and high powers: h = 10, 9 and 12 of either sign
    BASES = sorted(set(EQUALITY_BASES + FIXTURE_BASES + (5**10, -(7**9), 2**12, -(2**12))))

    def test_equals_closed_form(self):
        # the degree series over every v | d^inf, one Kummer degree per term,
        # against the paper's epsilon1 S(d, h): two derivations, one Fraction
        for g in self.BASES:
            for d in range(1, 201):
                assert series_exact(g, d) == density(g, d).delta, (g, d)

    @given(st.integers(1, 50), st.integers(1, 50), st.integers(1, 12), st.sampled_from((1, -1)),
           st.integers(1, 200))
    def test_equals_closed_form_on_rational_powers(self, a, b, h, sign, d):
        assume(a != b)
        g = sign * Fraction(a, b) ** h
        assert series_exact(g, d) == density(g, d).delta


class TestTailBound:
    def test_dominates_true_tail(self):
        true_tail = Fraction(17, 24) - Fraction(45, 64)
        assert true_tail == Fraction(1, 192)
        assert tail_bound(2, 2, 8) >= true_tail

    def test_trivial_d(self):
        # d = 1 has the single block v = 1, so nothing is omitted
        for g, vmax in ((5, 1), (-4, 8), (Fraction(8, 27), 2**10)):
            assert tail_bound(g, 1, vmax) == 0
        assert series_partial(5, 1, 1).partial == 1

    def test_large_vmax_is_tiny(self):
        assert tail_bound(2, 2, 2**20) < Fraction(1, 10**10)

    def test_exact_weighted_remainder(self):
        # the bound is c * sum of 1/v^2 over v | d^inf past vmax, so it lies
        # within c/top above the same sum cut at top
        top = 10**7
        for d in range(1, 49):
            inverse_squares = [(v, Fraction(1, v * v)) for v in divisors_of_dinfty(d, top)]
            for g in (2, 64):
                c = Fraction(2 * decompose(g).h, euler_phi(d))
                for vmax in (1, 8, 2**10):
                    cut = c * sum(w for v, w in inverse_squares if v > vmax)
                    assert cut <= tail_bound(g, d, vmax) <= cut + c / top, (g, d, vmax)

    def test_never_undershoots(self):
        # bound at vmax must dominate what later partial sums pick up
        for g, d in ((2, 2), (-9, 6), (3, 12), (-2, 6)):
            small = series_partial(g, d, 2**6)
            big = series_partial(g, d, 2**14)
            assert big.partial - small.partial <= small.tail_bound


class TestClosedSums:
    def test_examples(self):
        assert closed_sum_s1(2, 1) == s_factor(2, 1) == Fraction(2, 3)
        assert closed_sum_s2(2, 1, 0) == Fraction(2, 3)
        assert closed_sum_s3(2, 1, 8) == Fraction(1, 24)
        assert closed_sum_s3(2, 1, 5) == 0

    def test_s3_rejects_non_fundamental(self):
        with pytest.raises(ValueError):
            closed_sum_s3(2, 1, 6)
        with pytest.raises(ValueError):
            sum_s3(2, 1, 20)

    def test_truncations_converge_examples(self):
        # the exact sums are the limits the truncations converge to
        assert sum_s1(2, 1) == Fraction(2, 3)
        assert sum_s2(2, 1, 1) == Fraction(1, 6)
        assert sum_s3(2, 1, 8) == Fraction(1, 24)

    def test_negative_discriminants(self):
        # signed fundamental discriminants go through the same closed form
        for disc in (-3, -4, -8, -24):
            for d in (2, 4, 6, 12):
                for h in (1, 2):
                    assert sum_s3(d, h, disc) == closed_sum_s3(d, h, disc), (disc, d, h)

    def test_s1_matches_series_with_generic_degree(self):
        # S1 is the series with phi(dv)*alpha*v/(alpha*v, h) in place of the
        # true degree; for d odd and squarefree g both coincide identically
        for g, d in ((7, 3), (5, 9), (11, 5)):
            assert decompose(g).h == 1
            assert sum_s1(d, 1) == series_exact(g, d)
