"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -rA` to see the summary lines.
The order criterion (5) runs the census kernel itself and checks its counts
and hit primes against SymPy's exact orders, which share no code with
orddiv.  The census criterion (6) sieves sixteen rows to 10^8 and dominates
the runtime of the whole suite (17.9-19.6 s of it on two cores, 2026-10-19).
Its full-scale twin, the original experiment to FULL_SCALE_X, runs only with
ORDDIV_FULL_SCALE=1 (timed in BENCH_full_scale.json).
"""

import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest
from support import exact_order

from orddiv.arith import factorize
from orddiv.base import RationalBase, as_base
from orddiv.census import (
    CensusConfig,
    _class_primes,
    _order_hits,
    _residues,
    _small_primes,
    _unit_mask,
    run_census,
    verify_key_identity,
    verify_order_flip,
)
from orddiv.density import density, density_by_transfer
from orddiv.kummer import (
    closed_sum_s1,
    closed_sum_s2,
    closed_sum_s3,
    series_partial,
    sum_s1,
    sum_s2,
    sum_s3,
)
from orddiv.tables import FULL_SCALE_X, TABLE_NEGATIVE, TABLE_POSITIVE

ALL_ROWS = TABLE_POSITIVE + TABLE_NEGATIVE


def _report(number: int, name: str, elapsed: float, detail: str = "") -> None:
    suffix = f" — {detail}" if detail else ""
    print(f"ACCEPTANCE {number} ({name}): PASS in {elapsed:.2f}s{suffix}")


def test_criterion_1_table_fixtures():
    start = time.time()
    for row in ALL_ROWS:
        report = density(row.g, row.d)
        assert report.epsilon1 == row.epsilon1, (row.g, row.d)
        assert report.delta == row.delta, (row.g, row.d)
        assert report.decomposition.g0 == Fraction(row.g0_num, row.g0_den)
        assert report.decomposition.h == row.h
        assert report.decomposition.disc == row.disc
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(1, "table fixtures exact", elapsed, f"{len(ALL_ROWS)} rows")


def test_criterion_2_series_bracket():
    start = time.time()
    doublings = range(10, 17)
    for row in ALL_ROWS:
        delta = density(row.g, row.d).delta
        partials = []
        widths = []
        for k in doublings:
            est = series_partial(row.g, row.d, 2**k)
            assert all(b >= 0 for _, b in est.blocks)
            partials.append(est.partial)
            widths.append(est.tail_bound)
            assert est.partial <= delta <= est.partial + est.tail_bound
        assert partials == sorted(partials)
        # width must shrink at (at least) a factor-2-per-doubling rate across
        # the six doublings 2^10 -> 2^16
        assert widths[-1] * 2 ** (len(doublings) - 1) <= widths[0]
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(2, "series bracket + shrink rate", elapsed,
            f"vmax up to 2^16, {len(ALL_ROWS)} rows")


def test_criterion_3_transfer_identity():
    start = time.time()
    checked = 0
    for g in (2, 3, 5, 6, 7, 10, 12):
        for d in range(1, 37):
            direct = density(-g, d).delta
            assert direct == density_by_transfer(-g, d), (g, d)
            if d % 4 == 2:
                expected = (
                    density(g, d // 2).delta
                    + density(g, 2 * d).delta
                    - density(g, d).delta
                )
            else:
                expected = density(g, d).delta
            assert direct == expected, (g, d)
            checked += 1
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(3, "transfer identity exact", elapsed, f"{checked} (g, d) pairs")


def test_criterion_4_key_identity():
    start = time.time()
    pairs = [(2, 2), (2, 4), (2, 8), (3, 12), (-2, 6), (-4, 2), (-9, 6)]
    for g, d in pairs:
        report = verify_key_identity(g, d, 10**5)
        assert report.lhs == report.rhs, (g, d, report.lhs, report.rhs)
        assert all(count >= 0 for _, count in report.blocks)
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(4, "finite-x counting identity", elapsed,
            f"{len(pairs)} pairs at x=10^5")


def test_criterion_5_order_tests():
    # the census stages over [3, 10^5] against SymPy's exact order at every odd prime
    start = time.time()
    x = 10**5
    base_primes, primes = _small_primes(math.isqrt(x)), _small_primes(x)[1:]
    test_runs = 0
    for g in (2, 3, -2, -4, Fraction(1, 2)):
        base = as_base(g)
        orders = np.array([exact_order(g, p) or 0 for p in primes.tolist()])  # 0: p | g1 g2
        window = _unit_mask(3, x, base_primes, base.g1 * base.g2)
        considered = _class_primes(*window, 1)
        assert considered.tolist() == primes[orders != 0].tolist(), g
        for d in range(1, 49):
            ps = _class_primes(*window, d)
            hits = _order_hits(_residues(base.g1, base.g2, ps), ps, factorize(d).factors,
                               base.g1 * base.g2)
            assert hits.tolist() == primes[(orders != 0) & (orders % d == 0)].tolist(), (g, d)
            test_runs += 1
    for g in (2, 3, 5):
        assert verify_order_flip(g, 10**4)
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(5, "order tests", elapsed,
            f"{test_runs} (g, d) power-test runs against SymPy orders at {primes.size} odd primes"
            " + flip sweeps")


def test_criterion_6_empirical_census():
    start = time.time()
    worst_small = Fraction(0)
    worst_large = Fraction(0)
    lines = []
    for row in ALL_ROWS:
        g = RationalBase(row.g, 1)
        delta = row.delta
        small = run_census(CensusConfig(g, row.d, 10**6, segment_size=10**6))
        err_small = abs(small.ratio - delta)
        assert err_small < Fraction(1, 100), (row.g, row.d, float(err_small))
        large = run_census(
            CensusConfig(g, row.d, 10**8, segment_size=2 * 10**7, worker_count=2)
        )
        err_large = abs(large.ratio - delta)
        assert err_large < Fraction(2, 1000), (row.g, row.d, float(err_large))
        worst_small = max(worst_small, err_small)
        worst_large = max(worst_large, err_large)
        lines.append(
            f"    g={row.g:3d} d={row.d:2d}: |ratio-delta| = "
            f"{float(err_small):.2e} at 10^6, {float(err_large):.2e} at 10^8"
        )
    elapsed = time.time() - start
    print("\n".join(lines))
    _report(6, "empirical census", elapsed,
            f"worst error {float(worst_small):.2e} at 10^6, "
            f"{float(worst_large):.2e} at 10^8")


@pytest.mark.skipif(os.environ.get("ORDDIV_FULL_SCALE") != "1",
                    reason="full-scale census of 16 rows; set ORDDIV_FULL_SCALE=1")
def test_criterion_6_full_scale_census():
    # the original experiment: x is the 10^8-th prime, and each row's recorded
    # ratio is counted / pi(x) to 8 places, so counted must equal it times 10^8
    start = time.time()
    lines = []
    for row in ALL_ROWS:
        row_start = time.time()
        result = run_census(
            CensusConfig(RationalBase(row.g, 1), row.d, FULL_SCALE_X,
                         segment_size=5 * 10**7, worker_count=2)
        )
        assert result.counted == Fraction(row.experimental) * 10**8, (row.g, row.d)
        # the census leaves out 2 and the odd primes dividing g; pi(x) counts them
        odd_g = sum(p != 2 for p in factorize(abs(row.g)).primes())
        assert result.considered + 1 + odd_g == 10**8, (row.g, row.d)
        lines.append(f"    g={row.g:3d} d={row.d:2d}: counted {result.counted} "
                     f"in {time.time() - row_start:.2f}s")
    elapsed = time.time() - start
    print("\n".join(lines))
    _report(6, "full-scale census", elapsed,
            f"{len(ALL_ROWS)} rows equal the recorded ratios at x = {FULL_SCALE_X}")


def test_criterion_7_closed_sum_identities():
    # each S sum is summed exactly over every v | d^inf and equals its closed
    # form; S1's period h, S2's lcm(h, 2^(v2(h)+k)) and S3's 2^(v2(d)+1) h
    # each matter: a shorter period changes hundreds of these 21600 cases
    start = time.time()
    checked = 0
    for d in range(1, 61):
        for h in range(1, 25):
            assert sum_s1(d, h) == closed_sum_s1(d, h), (d, h)
            checked += 1
            for k in range(4):
                assert sum_s2(d, h, k) == closed_sum_s2(d, h, k), (d, h, k)
                checked += 1
            for disc in (5, 8, 12, 24, -3, -4, -8, 13, -7, 28):
                assert sum_s3(d, h, disc) == closed_sum_s3(d, h, disc), (d, h, disc)
                checked += 1
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(7, "closed-sum identities", elapsed, f"{checked} exact sums")


def test_criterion_8_degenerate_guards():
    start = time.time()
    for g in (2, -2, 7, "8/27", -10):
        assert density(g, 1).delta == 1
    for bad in (-1, 0, 1):
        with pytest.raises(ValueError):
            density(bad, 2)
    for g in (2, -4):
        deltas = {d: density(g, d).delta for d in range(1, 49)}
        for d in range(1, 49):
            for dd in range(d, 49, d):
                assert deltas[dd] <= deltas[d], (g, d, dd)
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(8, "degenerate inputs and monotonicity", elapsed)
