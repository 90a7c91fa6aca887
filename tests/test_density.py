from fractions import Fraction

import pytest

from orddiv import base as base_module
from orddiv.arith import factorize, valuation
from orddiv.base import decompose, fundamental_discriminant
from orddiv.density import (
    density,
    density_by_transfer,
    epsilon_table,
    s_factor,
)


class TestSFactor:
    def test_examples(self):
        assert s_factor(1, 7) == 1
        assert s_factor(2, 1) == Fraction(2, 3)
        assert s_factor(6, 2) == Fraction(1, 8)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            s_factor(0, 1)


class TestEpsilonTable:
    def test_all_entries(self):
        expected = {
            (1, 0): Fraction(-1, 2),
            (1, 1): Fraction(1, 4),
            (1, 2): Fraction(1, 16),
            (-1, 0): Fraction(1, 4),
            (-1, 1): Fraction(-1, 2),
            (-1, 2): Fraction(1, 16),
        }
        for (sign, gamma), value in expected.items():
            assert epsilon_table(sign, gamma) == value

    def test_positive_row_closed_form(self):
        for gamma in (0, 1, 2):
            assert epsilon_table(1, gamma) == Fraction(-1, 2) ** (2**gamma)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            epsilon_table(1, 3)
        with pytest.raises(ValueError):
            epsilon_table(2, 0)


class TestEpsilon1:
    def test_examples(self):
        for g, d, eps, label in ((2, 2, Fraction(17, 16), "2||d-disc"),
                                 (-4, 2, Fraction(2), "2||d-disc"),
                                 (3, 11, Fraction(1), "odd-d")):
            report = density(g, d)
            assert (report.epsilon1, report.case_label) == (eps, label)


class TestDensity:
    def test_examples(self):
        assert density(2, 8).delta == Fraction(1, 12)
        assert density(-9, 6).delta == Fraction(11, 32)
        assert density(7, 1).delta == 1
        assert density("8/27", 1).delta == 1

    def test_d_one_is_certain(self):
        for g in (2, -2, 5, "3/5", -10):
            report = density(g, 1)
            assert report.delta == 1
            assert report.case_label == "odd-d"

    def test_transfer_examples(self):
        assert density_by_transfer(-2, 6) == Fraction(17, 64)
        assert density_by_transfer(-2, 4) == Fraction(5, 12)
        assert density_by_transfer(-3, 5) == Fraction(5, 24)

    def test_transfer_rejects_positive(self):
        with pytest.raises(ValueError):
            density_by_transfer(2, 4)

    def test_transfer_decomposes_once(self, monkeypatch):
        # for d = 2 (mod 4) the three densities of |g| share one decomposition,
        # so |g1| and g2 are factored once each
        calls = []
        monkeypatch.setattr(base_module, "factorize", lambda n: calls.append(n) or factorize(n))
        for g in (-2, -3, -9, Fraction(-8, 27), -12, Fraction(-1, 3)):
            for d in range(1, 31):
                calls.clear()
                got = density_by_transfer(g, d)
                pos = -Fraction(g)
                assert calls == [pos.numerator, pos.denominator], (g, d)
                if d % 4 == 2:
                    want = density(pos, d // 2).delta + density(pos, 2 * d).delta - density(pos, d).delta
                else:
                    want = density(pos, d).delta
                assert got == want, (g, d)

    def test_transfer_consistency_grid(self):
        for g in range(-12, -1):
            for d in range(1, 31):
                assert density(g, d).delta == density_by_transfer(g, d), (g, d)

    def test_monotone_under_divisibility(self):
        for g in (2, -4, "8/27", -9):
            deltas = {d: density(g, d).delta for d in range(1, 49)}
            for d in range(1, 49):
                for dd in range(d, 49, d):
                    assert deltas[dd] <= deltas[d]

    def test_range(self):
        for g in (2, -2, 17, -30, "3/7", "-25/4"):
            for d in range(1, 40):
                assert 0 < density(g, d).delta <= 1

    def test_positive_base_specialization(self):
        # for g > 0 the correction is either 1 or 1 + (-1/2)^(2^gamma)
        for g in (2, 3, 5, 6, 12, 18):
            dec = decompose(g)
            for d in range(1, 49):
                report = density(g, d)
                if report.gamma is None:
                    assert report.epsilon1 == 1
                else:
                    assert report.epsilon1 == 1 + Fraction(-1, 2) ** (2**report.gamma)

    def test_odd_h_specialization(self):
        # with h odd, the same formula driven by the signed discriminant of
        # Q(sqrt(g)) itself reproduces the five-case value
        for g in (2, 3, 5, -2, -3, -5, -6, 10):
            dec = decompose(g)
            assert dec.h % 2 == 1
            disc_g = fundamental_discriminant(Fraction(g))
            for d in range(1, 49):
                expected = Fraction(1)
                if d % 2 == 0 and (4 * d) % abs(disc_g) == 0:
                    gamma = max(
                        0, valuation(2, disc_g) - valuation(2, d) - valuation(2, dec.h)
                    )
                    expected = 1 + Fraction(-1, 2) ** (2**gamma)
                assert density(g, d).epsilon1 == expected, (g, d)

    def test_report_consistency(self):
        report = density(-9, 6)
        assert report.delta == report.epsilon1 * report.s_factor
        assert report.case_label == "2||d-disc"
        assert report.gamma == 0
