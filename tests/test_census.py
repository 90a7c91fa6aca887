import functools
import itertools
import json
import logging
import math
import random
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
import sympy
from support import exact_order, run_python
from sympy.ntheory import is_quad_residue

from orddiv import census
from orddiv.arith import divisors_of_dinfty, factorize, is_prime, squarefree_divisors, valuation
from orddiv.base import RationalBase, as_base
from orddiv.census import (
    _MAX_X_LIMIT,
    _POWMOD_BLOCK,
    CensusConfig,
    CheckpointError,
    _class_primes,
    _order_hits,
    _powmod_vec,
    _residues,
    _sieve_mask,
    _small_primes,
    _strip_vec,
    _two_adic_valuation,
    _unit_mask,
    run_census,
    verify_key_identity,
    verify_order_flip,
)


# (2^61 - 1)(2^89 - 1), a product of two primes out of Pollard-Brent's reach
_HARD_BASE = (2**61 - 1) * (2**89 - 1)


def _sieved(lo: int, hi: int, base_primes: np.ndarray) -> np.ndarray:
    """The odd primes in [lo, hi]: the sieve mask read with d = 1, every prime."""
    return _class_primes(*_sieve_mask(lo, hi, base_primes), 1)


def _units(lo: int, hi: int, base_primes: np.ndarray, g1g2: int) -> np.ndarray:
    """The odd primes in [lo, hi] not dividing g1g2: the unit mask read with d = 1."""
    return _class_primes(*_unit_mask(lo, hi, base_primes, g1g2), 1)


def _hit_primes(g: int | Fraction, d: int, x: int) -> list[int]:
    """The odd primes p <= x with d | ord_p(g), by the census stages over one segment."""
    g = Fraction(g)
    g1, g2 = g.numerator, g.denominator
    ps = _class_primes(*_unit_mask(3, x, _small_primes(math.isqrt(x)), g1 * g2), d)
    return _order_hits(_residues(g1, g2, ps), ps, factorize(d).factors, g1 * g2).tolist()


class TestReduceModP:
    """g mod p as the kernel reads it: g1 * g2^(-1), at the primes dividing neither."""

    def test_examples(self):
        assert _residues(1, 2, np.array([3])).tolist() == [2]
        assert _residues(2, 1, np.array([7])).tolist() == [2]
        assert _residues(-4, 1, np.array([5])).tolist() == [1]

    def test_rejects_dividing_primes(self):
        base = _small_primes(3)
        assert _units(3, 7, base, 3 * 5).tolist() == [7]
        assert _units(3, 7, base, 10 * 1).tolist() == [3, 7]
        assert exact_order(Fraction(3, 5), 5) is exact_order(10, 5) is None


class TestOrders:
    def test_full_order_examples(self):
        assert (exact_order(2, 7), exact_order(2, 11), exact_order(1, 13)) == (3, 10, 1)
        # the kernel's power tests find each order's divisors and nothing else
        for g, p, order in ((2, 7, 3), (2, 11, 10), (1, 13, 1)):
            assert [d for d in range(1, p) if p in _hit_primes(g, d, p)] == sympy.divisors(order)

    def test_order_record_invariants(self):
        for p in (5, 7, 11, 101, 99991):
            order = exact_order(2, p)
            assert (p - 1) % order == 0
            assert pow(2, order, p) == 1
            for q in sympy.primefactors(order):
                assert pow(2, order // q, p) != 1
            assert p in _hit_primes(2, order, p)

    def test_order_divisible_examples(self):
        assert 7 not in _hit_primes(2, 2, 7)
        assert 5 in _hit_primes(2, 4, 5)
        assert 11 not in _hit_primes(2, 3, 11)


class TestVectorOrders:
    def test_powmod_matches_pow(self):
        rng = np.random.default_rng(20)
        # moduli up to the cap, where (mod - 1)^2 is closest to 2^63
        mods = np.concatenate([
            rng.integers(2, _MAX_X_LIMIT + 1, 3000),
            _MAX_X_LIMIT - np.arange(1000),
            rng.integers(2, 1000, 1000),
        ])
        bases = rng.integers(-(2**40), 2**40, mods.size)
        exps = rng.integers(0, 2**40, mods.size)
        exps[::7] = 0
        bases[::5] = mods[::5] * rng.integers(-3, 4, mods[::5].size)
        got = _powmod_vec(bases, exps, mods)
        want = [pow(int(b), int(e), int(m)) for b, e, m in zip(bases, exps, mods)]
        assert got.tolist() == want
        empty = np.empty(0, dtype=np.int64)
        assert _powmod_vec(empty, empty, empty).size == 0

    def test_powmod_across_blocks_matches_pow(self):
        # two whole blocks and a ragged third, moduli up to the cap
        rng = np.random.default_rng(21)
        n = 2 * _POWMOD_BLOCK + 1234
        mods = rng.integers(2, _MAX_X_LIMIT + 1, n)
        mods[-2000:] = _MAX_X_LIMIT - np.arange(2000)
        bases = rng.integers(-(2**40), 2**40, n)
        exps = rng.integers(0, 2**34, n)
        exps[_POWMOD_BLOCK - 3 : _POWMOD_BLOCK + 3] = 0
        for exp in (exps, 2**34 - 1, 6, 1, 0, np.zeros(n, dtype=np.int64)):
            got = _powmod_vec(bases, exp, mods)
            want = [pow(int(b), int(e), int(m))
                    for b, e, m in zip(bases, np.broadcast_to(exp, n), mods)]
            assert got.tolist() == want

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_strip_matches_loop(self, q):
        rng = np.random.default_rng(22)
        values = np.concatenate([
            rng.integers(1, _MAX_X_LIMIT + 1, 5000),
            q ** np.arange(int(math.log(2**62, q)) + 1, dtype=np.int64),  # exact powers of q
            _MAX_X_LIMIT - np.arange(1000),
            rng.integers(1, 2**20, 1000) * q ** rng.integers(0, 11, 1000),
        ])
        before = values.copy()

        def strip(v):
            while v % q == 0:
                v //= q
            return v

        assert _strip_vec(values, q).tolist() == [strip(v) for v in values.tolist()]
        assert np.array_equal(values, before)

    @pytest.mark.parametrize("g", [2, -3, Fraction(1, 2), 2**70 + 1])
    def test_two_adic_valuation_matches_full_order(self, g):
        # y = g^m and p - y = (-g)^m for m the odd part of p - 1
        base = RationalBase.from_value(Fraction(g))
        ps = _small_primes(20_000)[1:]
        ps = ps[[(base.g1 * base.g2) % p != 0 for p in ps.tolist()]]
        y = _powmod_vec(_residues(base.g1, base.g2, ps), _strip_vec(ps - 1, 2), ps)
        for h, yh in ((Fraction(g), y), (-Fraction(g), ps - y)):
            want = [valuation(2, exact_order(h, p)) for p in ps.tolist()]
            assert _two_adic_valuation(yh, ps).tolist() == want

    # 256-slot windows: about 39 over [3, x], so each block's class read p = 1 (mod dv) and its
    # gather of g mod p from class d meet the window edges at every phase
    @pytest.mark.parametrize("block", [census._SIEVE_BLOCK, 256],
                             ids=[pytest.HIDDEN_PARAM, "block256"])
    @pytest.mark.parametrize("g, d", [(Fraction(8, 27), 4), (-9, 6), (7, 30), (7, 210),
                                      (Fraction(1, 2), 60)])
    def test_key_identity_matches_order_records(self, g, d, block, monkeypatch):
        monkeypatch.setattr(census, "_SIEVE_BLOCK", block)
        x = 20_000
        vs = divisors_of_dinfty(d, (x - 1) // d)
        lhs, blocks = 0, dict.fromkeys(vs, 0)
        for p in _small_primes(x)[1:].tolist():
            order = exact_order(g, p)
            if d % p == 0 or order is None:  # None: p divides g1 * g2
                continue
            lhs += order % d == 0
            for v in vs:
                if (p - 1) % (d * v) == 0:
                    for alpha, mu in squarefree_divisors(d):
                        blocks[v] += mu * ((p - 1) // order % (alpha * v) == 0)
        report = verify_key_identity(g, d, x)
        assert report.lhs == lhs
        assert report.blocks == tuple(blocks.items())


def _orders(g: int | Fraction, x: int) -> tuple[np.ndarray, np.ndarray]:
    """The odd primes p <= x and SymPy's ord_p(g) at each, 0 where p divides g1 * g2."""
    primes = _small_primes(x)[1:]
    return primes, np.array([exact_order(g, p) or 0 for p in primes.tolist()])


class TestTwoPartFromCharacter:
    """The l = 2 test read from (g/p): a non-residue is a hit, a residue with
    v2(p - 1) = v2(d) a miss, and only a residue with 2^(v2(d)+1) | p - 1 runs the ladder."""

    # 9/4 and 4 are squares; 10007 has 4|g1 g2| > _POWMOD_BLOCK, so every prime takes the ladder
    @pytest.mark.parametrize("g", [2, 3, -4, -9, 4, Fraction(9, 4), Fraction(-1, 3), 10007])
    def test_order_hits_match_sympy(self, g):
        x = 2 * 10**5
        primes, orders = _orders(g, x)
        base = as_base(g)
        considered = _units(3, x, _small_primes(math.isqrt(x)), base.g1 * base.g2)
        assert considered.tolist() == primes[orders != 0].tolist()
        for d in (2, 4, 8, 12, 48):
            assert _hit_primes(g, d, x) == primes[(orders != 0) & (orders % d == 0)].tolist(), d

    def test_table_reads_every_class_the_run_meets(self, monkeypatch):
        # with 256-element blocks the first 256 primes of g = 61 (period 244, 120 classes)
        # miss some class met later in the run; the table still holds every one
        monkeypatch.setattr(census, "_POWMOD_BLOCK", 256)
        g, x, period = 61, 2 * 10**5, 4 * 61
        ps = _class_primes(*_unit_mask(3, x, _small_primes(math.isqrt(x)), g), 2)
        chi = census._character(_residues(g, 1, ps), ps, period)
        assert np.unique(ps[:256] % period).size < np.unique(ps % period).size
        assert (chi != 0).all()
        assert chi.tolist() == [1 if is_quad_residue(g, p) else -1 for p in ps.tolist()]
        primes, orders = _orders(g, x)
        for d in (2, 4, 12):
            assert _hit_primes(g, d, x) == primes[(orders != 0) & (orders % d == 0)].tolist(), d

    @pytest.mark.parametrize("g, d", [(2, 4), (Fraction(-1, 3), 12), (-9, 2), (4, 8), (3, 48)])
    def test_ladder_runs_only_on_residues_with_two_part_to_spare(self, g, d, monkeypatch):
        tested = []
        power_test = census._power_test

        def record(gbar, ps, ell, a):
            if ell == 2:
                tested.append(ps.tolist())
            return power_test(gbar, ps, ell, a)

        monkeypatch.setattr(census, "_power_test", record)
        x = 10**5
        run_census(CensusConfig(g, d, x, segment_size=10**4))  # one run
        base, a = as_base(g), valuation(2, d)
        n = base.g1 * base.g2
        want = [p for p in _small_primes(x)[1:].tolist()
                if n % p and (p - 1) % d == 0 and (p - 1) % 2 ** (a + 1) == 0
                and is_quad_residue(n, p)]
        assert tested == [want]

    def test_odd_ladders_run_only_on_two_part_survivors(self, monkeypatch):
        # each odd l^a || d reads only the primes with d | p - 1 whose 2-part test passed
        tested = []
        power_test = census._power_test

        def record(gbar, ps, ell, a):
            if ell != 2:
                tested.append(ps.tolist())
            return power_test(gbar, ps, ell, a)

        monkeypatch.setattr(census, "_power_test", record)
        x = 10**5
        for g, d in ((3, 12), (Fraction(-1, 3), 12), (-9, 6), (4, 6)):
            tested.clear()
            run_census(CensusConfig(g, d, x, segment_size=10**4))  # one run
            primes, orders = _orders(g, x)
            two = 2 ** valuation(2, d)
            want = primes[(orders != 0) & ((primes - 1) % d == 0) & (orders % two == 0)]
            assert tested == [want.tolist()], (g, d)


class TestSieve:
    def test_segment_matches_simple_sieve(self):
        base = _small_primes(1000)
        whole = [int(p) for p in _small_primes(100_000) if p > 2]
        collected = []
        for lo in range(0, 100_001, 7919):
            hi = min(lo + 7918, 100_000)
            collected.extend(int(p) for p in _sieved(lo, hi, base))
        assert collected == whole

    def test_small_segments_near_the_cap_match_is_prime(self):
        base = _small_primes(math.isqrt(_MAX_X_LIMIT))
        for lo in (2_999_000_001, 2_999_990_001, _MAX_X_LIMIT - 10**4 + 1):
            hi = lo + 10**4 - 1
            want = [n for n in range(lo, hi + 1) if n % 2 and is_prime(n)]
            assert _sieved(lo, hi, base).tolist() == want

    @pytest.mark.parametrize("width", [10**4 + 1, 10**5, 2 * 10**5 + 7])
    def test_narrow_segments_match_simple_sieve(self, width):
        # masks of 5 * 10^3 to 10^5 slots, which the largest base primes (up to 3162)
        # cross only a few times
        x = 10**7
        base = _small_primes(math.isqrt(x))
        whole = _small_primes(x)
        for lo in (x - width + 1, 7_654_321, x // 2):
            hi = lo + width - 1
            got = _sieved(lo, hi, base)
            assert got.tolist() == whole[(whole >= lo) & (whole <= hi)].tolist()

    @pytest.mark.parametrize("lo, block, slots", [
        *[(lo, block, slots) for lo in (1_000_001, 1_000_000) for block, slots in (
            (4096, 3 * 4096),      # the run ends on a window edge
            (4096, 3 * 4096 + 1),  # one slot past one
            (4096, 3 * 4096 + 1000),  # inside one
            (4096, 1000),          # narrower than one window
            (256, 70 * 256 + 17),  # base primes past 256 skip whole windows
        )],
        # each base prime p >= 521 lies in a window past the first, and its first strike
        # p^2 in a later one: no window may strike p itself
        (3, 256, (521**2 - 3) // 2 + 1),
    ])
    def test_blocked_strikes_at_block_edges(self, monkeypatch, lo, block, slots):
        monkeypatch.setattr(census, "_SIEVE_BLOCK", block)
        hi = (lo | 1) + 2 * (slots - 1)  # slot i stands for (lo | 1) + 2i
        base = _small_primes(math.isqrt(hi))
        whole = _small_primes(hi)
        windows = _window_primes(lo, hi, base)
        assert len(windows) == -(-slots // block)
        assert np.concatenate(windows).tolist() == whole[whole >= lo].tolist()

    def test_blocked_strikes_near_the_cap_match_is_prime(self, monkeypatch):
        monkeypatch.setattr(census, "_SIEVE_BLOCK", 4096)
        lo = _MAX_X_LIMIT - 2 * (2 * 4096 + 5) + 1
        want = [n for n in range(lo, _MAX_X_LIMIT + 1, 2) if is_prime(n)]
        windows = _window_primes(lo, _MAX_X_LIMIT, _small_primes(math.isqrt(_MAX_X_LIMIT)))
        assert len(windows) == 3
        assert np.concatenate(windows).tolist() == want

    @pytest.mark.parametrize("width", [10**7, 5 * 10**7])
    def test_blocked_strikes_equal_one_block(self, width):
        # wide segments near 2 * 10^9, as a full-scale run sieves them, in windows of
        # _SIEVE_BLOCK slots and then in one sieve call as wide as the run
        lo = 2 * 10**9 + 1
        hi = lo + width - 1
        base = _small_primes(math.isqrt(hi))
        windows = _window_primes(lo, hi, base)
        assert len(windows) >= 5
        assert np.array_equal(np.concatenate(windows), _sieved(lo, hi, base))

    @pytest.mark.parametrize("block", [256, 4096])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_windows_at_segment_ends(self, monkeypatch, block, offset):
        # windows of 2 * block numbers from 3: window m ends at 2 * block * m + 2, and the
        # first segment ends one slot before it (offset -1), at it, or one slot after it
        m = -(-10**4 // (2 * block))
        size = 2 * block * m + 2 * offset
        x = 5 * size + 999
        config = functools.partial(CensusConfig, segment_size=size)

        def outputs():
            report = verify_key_identity(-9, 6, x)
            rows = ((2, 2), (-9, 6), (Fraction(8, 27), 4), (3, 11))
            return ([run_census(config(g, d, x)).segments for g, d in rows],
                    (report.lhs, report.rhs, report.blocks),
                    [verify_order_flip(g, x) for g in (3, Fraction(3, 5))])

        want = outputs()
        assert config(2, 2, x).segments()[0][1] == 2 * block * m + 2 + 2 * offset
        monkeypatch.setattr(census, "CensusConfig", config)
        monkeypatch.setattr(census, "_SIEVE_BLOCK", block)
        # one run of all 6 segments, then 2 runs of 3, the second at another phase of the windows
        for span in (census._TASK_SPAN, 3 * size):
            monkeypatch.setattr(census, "_TASK_SPAN", span)
            assert outputs() == want, span

    def test_class_read_keeps_p_one_mod_d(self):
        window = _sieve_mask(3, 10**7, _small_primes(math.isqrt(10**7)))
        primes = _small_primes(10**7)[1:]
        top = int(primes[-1])
        for d in (1, 2, 3, 12, 2**20, top, top + 1):
            want = primes[(primes - 1) % d == 0]
            assert np.array_equal(_class_primes(*window, d), want), d
        assert _class_primes(*window, 1).size == primes.size  # d = 1: every prime
        assert _class_primes(*window, 2**20).tolist() == [7 * 2**20 + 1]
        assert _class_primes(*window, 2**70).size == 0  # past int64: no arithmetic

    def test_unit_filter_reads_only_primes_up_to_g1g2(self, monkeypatch):
        # a prime past |g1 g2| cannot divide it; a g1 g2 past every prime tests them all
        sizes = []
        mod_vec = census._mod_vec
        monkeypatch.setattr(census, "_mod_vec", lambda n, mod: sizes.append(mod.size) or mod_vec(n, mod))
        base_primes, odd = _small_primes(100), _small_primes(10**4)[1:]
        assert _units(3, 10**4, base_primes, -15).tolist() == odd[odd > 5].tolist()
        assert _units(17, 10**4, base_primes, -15).tolist() == odd[odd >= 17].tolist()
        assert _units(3, 10**4, base_primes, _HARD_BASE).tolist() == odd.tolist()
        assert sizes == [5, odd.size]


class TestClassRead:
    """_class_primes reads exactly the primes p = 1 (mod d) of a window's mask."""

    X = 2 * 10**5

    def _windows(self, rng: random.Random):
        """(lo, hi, d): for odd and even d, windows of seeded width at a seeded place, one
        for each lo mod 2d (40 of them for d > 20; both parities of lo), a one-slot window at
        each, windows from 3, and then d at and past the window's end."""
        for d in (1, 2, 3, 4, 5, 6, 7, 11, 12, 30, 97, 210, 1024, 4099):
            base = 2 * d * rng.randrange(1, self.X // (2 * d) - 2)
            for r in rng.sample(range(2 * d), min(2 * d, 40)):
                lo = base + r
                yield lo, min(lo + rng.randrange(0, 4 * d + 200), self.X), d
                yield lo, lo | 1, d  # one slot: lo's odd start alone
            yield 3, rng.randrange(3, self.X), d
            yield 3, 3, d
        for hi in rng.sample(range(3, self.X), 20):
            lo = rng.randrange(0, hi + 1)
            for d in (hi - 1, hi, hi + 1, hi + rng.randrange(1, 10**6)):
                yield lo, hi, d

    def test_matches_filter_over_seeded_windows(self):
        primes = _small_primes(self.X)[1:]
        base = _small_primes(math.isqrt(self.X))
        seen = set()
        for lo, hi, d in self._windows(random.Random(30)):
            window = _sieve_mask(lo, hi, base)
            inside = primes[(primes >= lo) & (primes <= hi)]
            want = inside[(inside - 1) % d == 0]
            assert np.array_equal(_class_primes(*window, d), want), (lo, hi, d)
            seen.add((lo % 2, d % 2, want.size > 0))
            seen.add("one slot" if hi == lo | 1 else "d >= hi" if d >= hi else "wide")
        # every parity of lo and of d, each with and without a hit, and both edge cases
        assert len(seen) == 2 * 2 * 2 + 3


class TestRunCensus:
    def test_hand_enumeration(self):
        result = run_census(CensusConfig(RationalBase(2, 1), 2, 23, segment_size=10**4))
        assert (result.counted, result.considered) == (6, 8)

    def test_d_one_counts_everything(self):
        result = run_census(CensusConfig(RationalBase(2, 1), 1, 100, segment_size=10**4))
        assert (result.counted, result.considered) == (24, 24)

    def test_d_one_runs_no_residue_ladder(self, monkeypatch):
        # every prime counts at d = 1, so the census computes no g mod p (for 1/2, an inverse
        # ladder); a d = 2 census and both verifiers, which read g mod p, compute it once per
        # window, here one per task
        calls = []
        residues = census._residues
        monkeypatch.setattr(census, "_residues", lambda *a: calls.append(a[:2]) or residues(*a))
        result = run_census(CensusConfig(Fraction(1, 2), 1, 30_000, segment_size=10**4))
        assert (result.counted, result.considered, calls) == (3244, 3244, [])
        run_census(CensusConfig(Fraction(1, 2), 2, 30_000, segment_size=10**4))  # one task
        assert verify_order_flip(Fraction(1, 2), 30_000)
        assert verify_key_identity(Fraction(1, 2), 1, 30_000).lhs == 3244
        assert calls == [(1, 2)] * 3
        calls.clear()
        monkeypatch.setattr(census, "_TASK_SPAN", 2 * 10**4)  # a task of 2 segments, then of 1
        run_census(CensusConfig(Fraction(1, 2), 1, 30_000, segment_size=10**4))
        run_census(CensusConfig(Fraction(1, 2), 2, 30_000, segment_size=10**4))
        assert calls == [(1, 2)] * 2

    def test_rational_base(self):
        # ord_p(1/2) = ord_p(2), so censuses agree wherever both defined
        a = run_census(CensusConfig(RationalBase(1, 2), 4, 5000, segment_size=10**4))
        b = run_census(CensusConfig(RationalBase(2, 1), 4, 5000, segment_size=10**4))
        assert (a.counted, a.considered) == (b.counted, b.considered)

    def test_excludes_base_primes(self):
        result = run_census(CensusConfig(RationalBase(15, 1), 2, 100, segment_size=10**4))
        # 24 odd primes up to 100, minus p in {3, 5}
        assert result.considered == 22

    def test_deterministic_across_schedules(self):
        # (x, segment_size, worker_count); at 10^7 + 1001 in 10^7-wide segments the
        # last segment, and so the last run, is 999 numbers wide
        schedules = [(200_000, size, workers) for workers in (1, 4, 8) for size in (10**4, 10**6)]
        schedules += [(10**7 + 1001, 10**7 + 1001, 1), (10**7 + 1001, 10**7, 1)]
        reference = {}
        for x, segment_size, workers in schedules:
            cfg = CensusConfig(
                RationalBase(-9, 1), 6, x,
                segment_size=segment_size, worker_count=workers,
            )
            result = run_census(cfg)
            totals = (result.counted, result.considered)
            assert reference.setdefault(x, totals) == totals, (x, segment_size, workers)
        assert result.segments[-1].start == 10**7 + 3

    def test_pool_capped_at_pending_segments(self, monkeypatch):
        # the pool starts min(worker_count, runs, CPUs) processes; the runs and counts stay put
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(census, "ProcessPoolExecutor", RecordingPool)
        serial = run_census(CensusConfig(RationalBase(2, 1), 2, 30_000, segment_size=10**4))
        for cpus, expected in ((8, 3), (2, 2), (None, 1)):  # 3 runs; os.cpu_count() may be None
            monkeypatch.setattr(census.os, "cpu_count", lambda: cpus)
            cfg = CensusConfig(RationalBase(2, 1), 2, 30_000, segment_size=10**4, worker_count=5000)
            assert run_census(cfg).segments == serial.segments
            assert started.pop() == expected and not started

    def test_segment_ledger_sums(self):
        cfg = CensusConfig(RationalBase(2, 1), 2, 100_000, segment_size=10**4)
        result = run_census(cfg)
        assert [s.start for s in result.segments] == list(range(3, 100_001, 10**4))

    def test_partition_by_order_gcd(self):
        # every considered prime lands in exactly one gcd(ord, 2d) class, and
        # the d-divisible classes add up to the census count
        g, d, x = -9, 6, 10_000
        result = run_census(CensusConfig(g, d, x, segment_size=10**4))
        classes: dict[int, int] = {}
        for p in (int(q) for q in _small_primes(x) if q > 2):
            if 9 % p == 0:
                continue
            key = math.gcd(exact_order(g, p), 2 * d)
            classes[key] = classes.get(key, 0) + 1
        assert sum(classes.values()) == result.considered
        assert all((2 * d) % key == 0 for key in classes)
        from_classes = sum(c for key, c in classes.items() if key % d == 0)
        assert from_classes == result.counted

    @pytest.mark.parametrize("g", [Fraction(2**70 + 1), Fraction(-(3**45), 2**64)])
    @pytest.mark.parametrize("d", [2, 12])
    def test_bases_beyond_int64(self, g, d):
        # |g1| and g2 past 2^63 must reduce modulo each prime exactly
        x = 20_000
        counted = considered = 0
        for p in (int(q) for q in _small_primes(x) if q > 2):
            if (order := exact_order(g, p)) is None:
                continue
            considered += 1
            counted += order % d == 0
        result = run_census(CensusConfig(RationalBase.from_value(g), d, x, segment_size=10**4))
        assert (result.counted, result.considered) == (counted, considered)

    @pytest.mark.parametrize("d", [996, 997, 999, 1000, 1001, 2**63 - 1, 2**63, 2**70 + 1])
    def test_d_beyond_int64(self, d):
        # 997 is the last prime below 1000 and 7 a primitive root mod 997, so
        # only d = 996 divides some p - 1 <= 999 and ord_p(7); 166 odd primes
        # up to 1000 besides 7.  No d here enters int64 arithmetic.
        counted = int(d == 996)
        result = run_census(CensusConfig(RationalBase(7, 1), d, 1000, segment_size=10**4))
        assert (result.counted, result.considered) == (counted, 166)
        report = verify_key_identity(7, d, 1000)
        assert (report.lhs, report.rhs) == (counted, counted)

    @pytest.mark.parametrize("g", [_HARD_BASE, Fraction(1, _HARD_BASE)])
    @pytest.mark.parametrize("d", [2, 12])
    def test_base_out_of_factoring_reach(self, g, d):
        # the census, identity and flip read whether g is a unit mod p from
        # residues, so none of them waits on factoring g
        x = 10_000
        counted = considered = 0
        flips = []
        for p in _small_primes(x)[1:].tolist():
            if (order := exact_order(g, p)) is None:
                continue
            considered += 1
            counted += order % d == 0
            t, t_neg = valuation(2, order), valuation(2, exact_order(-Fraction(g), p))
            flips.append(t_neg == {0: 1, 1: 0}.get(t, t))
        result = run_census(CensusConfig(g, d, x, segment_size=10**4))
        assert (result.counted, result.considered) == (counted, considered)
        report = verify_key_identity(g, d, x)
        assert (report.lhs, report.rhs) == (counted, counted)
        assert verify_order_flip(g, x) is all(flips) is True

    def test_d_out_of_factoring_reach(self):
        # a d >= x divides no p - 1 <= x, so the census never factors it
        code = ("from orddiv.census import CensusConfig, run_census\n"
                f"print(run_census(CensusConfig(2, {_HARD_BASE}, 1000)).counted)")
        run = run_python("-c", code)
        assert (run.returncode, run.stdout) == (0, "0\n")

    def test_never_factors_g(self, monkeypatch):
        # d is factored once per run_census call (in this process, also for a pool run) and
        # once per verify_key_identity call; the flip reads no factors of d
        factored = []
        monkeypatch.setattr(census, "factorize", lambda n: factored.append(n) or factorize(n))
        g, d, x = Fraction(35, 11), 12, 20_000
        run_census(CensusConfig(g, d, x, segment_size=10**4, worker_count=2))
        verify_key_identity(g, d, x)
        verify_order_flip(g, x)
        assert factored == [d, d]

    @pytest.mark.parametrize("g", [2, "2", Fraction(2)])
    def test_config_coerces_g(self, g):
        config = CensusConfig(g, 2, 23, segment_size=10**4)
        assert (config.g, config.fingerprint) == (RationalBase(2, 1), "2/1|2|10000")
        result = run_census(config)
        assert (result.counted, result.considered) == (6, 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            CensusConfig(1, 2, 100)
        with pytest.raises(ValueError):
            CensusConfig(RationalBase(2, 1), 2, 2)
        with pytest.raises(ValueError):
            CensusConfig(RationalBase(2, 1), 2, 100, segment_size=100)
        with pytest.raises(ValueError):
            CensusConfig(RationalBase(2, 1), 2, 4_000_000_000)


# run_census(CensusConfig(2, 2, 30_000, segment_size=10**4, checkpoint_path=...)) writes these
_PINNED_CHECKPOINT = (
    b'{"segment_start": 3, "segment_end": 10002, "counted": 878, "considered": 1228, '
    b'"config_fingerprint": "2/1|2|10000"}\n'
    b'{"segment_start": 10003, "segment_end": 20002, "counted": 737, "considered": 1033, '
    b'"config_fingerprint": "2/1|2|10000"}\n'
    b'{"segment_start": 20003, "segment_end": 30000, "counted": 694, "considered": 983, '
    b'"config_fingerprint": "2/1|2|10000"}\n'
)


class TestTaskMemory:
    """A task holds one window's arrays at a time, however wide its run."""

    # (-4/9, 2) runs _residues' inverse ladder over every prime of a window, the census's
    # largest single _powmod_vec call; (10007, 4) takes the long-period path with no (g/p) table
    @pytest.mark.parametrize("g, d", [(2, 2), (-9, 6), (Fraction(-4, 9), 2), (10007, 4)])
    def test_task_peak_is_one_window(self, g, d):
        # a task that ran its stages over the whole 10^7-wide run traced about 24 MiB
        lo, hi = 10**7, 2 * 10**7
        config = CensusConfig(g, d, hi)
        base = _small_primes(math.isqrt(hi))
        count = functools.partial(census._count_run, config.g, d, config.d_factors)
        tracemalloc.start()
        try:
            census._run_task(count, base, config.g.g1 * config.g.g2, [(lo, hi)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


class TestCheckpoint:
    def _config(self, path, x=50_000):
        return CensusConfig(
            RationalBase(2, 1), 2, x, segment_size=10**4, checkpoint_path=path
        )

    def test_roundtrip_resume(self, tmp_path):
        path = tmp_path / "census.jsonl"
        full = run_census(self._config(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 5
        record = json.loads(lines[0])
        assert set(record) == {
            "segment_start", "segment_end", "counted", "considered",
            "config_fingerprint",
        }
        assert record["config_fingerprint"] == "2/1|2|10000"
        # truncate to simulate an interrupted run, then resume
        path.write_text("\n".join(lines[:2]) + "\n")
        resumed = run_census(self._config(path))
        assert (resumed.counted, resumed.considered) == (full.counted, full.considered)
        assert len(path.read_text().strip().splitlines()) == 5

    def test_completed_run_recounts_nothing(self, tmp_path):
        path = tmp_path / "census.jsonl"
        first = run_census(self._config(path))
        before = path.read_text()
        second = run_census(self._config(path))
        assert path.read_text() == before
        assert (second.counted, second.considered) == (first.counted, first.considered)

    def test_fingerprint_mismatch_aborts(self, tmp_path):
        path = tmp_path / "census.jsonl"
        run_census(self._config(path))
        other = CensusConfig(
            RationalBase(3, 1), 2, 50_000, segment_size=10**4, checkpoint_path=path
        )
        with pytest.raises(CheckpointError):
            run_census(other)

    def test_corrupt_line_aborts(self, tmp_path):
        path = tmp_path / "census.jsonl"
        run_census(self._config(path))
        path.write_text(path.read_text() + "{not json\n")
        with pytest.raises(CheckpointError):
            run_census(self._config(path))
        # a count that is not an int with 0 <= counted <= considered is as corrupt
        first, rest = _PINNED_CHECKPOINT.split(b"\n", 1)
        for counted in (b"-5", b"5000", b"true", b"1e3", b'"878"'):
            path.write_bytes(first.replace(b'"counted": 878', b'"counted": ' + counted) + b"\n" + rest)
            with pytest.raises(CheckpointError, match="line 1 is not a valid record"):
                run_census(self._config(path, x=30_000))

    def test_conflicting_counts_abort(self, tmp_path):
        path = tmp_path / "census.jsonl"
        run_census(self._config(path))
        lines = path.read_text().strip().splitlines()
        record = json.loads(lines[0])
        record["counted"] += 1
        path.write_text("\n".join(lines + [json.dumps(record)]) + "\n")
        with pytest.raises(CheckpointError, match=r"line 6 conflicting counts for segment \(3, 10002\)"):
            run_census(self._config(path))

    def test_torn_last_line_resumes(self, tmp_path, caplog):
        path = tmp_path / "census.jsonl"
        full = run_census(self._config(path))
        lines = path.read_text().splitlines(keepends=True)
        torn = lines[2][: len(lines[2]) // 2]
        path.write_text("".join(lines[:2]) + torn)
        with caplog.at_level(logging.WARNING, logger="orddiv.census"):
            resumed = run_census(self._config(path))
        assert (resumed.counted, resumed.considered) == (full.counted, full.considered)
        [warning] = caplog.records
        assert warning.name == "orddiv.census" and warning.levelno == logging.WARNING
        assert str(path) in warning.getMessage()
        assert f"{len(torn)} bytes" in warning.getMessage()
        records = path.read_text().splitlines()
        assert len(records) == 5
        assert [json.loads(r)["segment_start"] for r in records] == [
            s.start for s in full.segments
        ]

    def test_undecodable_line_names_it(self, tmp_path):
        path = tmp_path / "census.jsonl"
        run_census(self._config(path))
        path.write_bytes(path.read_bytes() + b"\xff\xfe\n")
        with pytest.raises(CheckpointError, match="line 6 is not a valid record"):
            run_census(self._config(path))

    @pytest.mark.parametrize("pending", [0, 1, 4])
    def test_pool_checkpoint_matches_serial(self, tmp_path, pending):
        serial_path, pool_path = tmp_path / "serial.jsonl", tmp_path / "pool.jsonl"

        def config(path, workers):
            return CensusConfig(
                RationalBase(2, 1), 2, 50_000, segment_size=10**4,
                worker_count=workers, checkpoint_path=path,
            )

        fresh = run_census(config(serial_path, 1))
        run_census(config(pool_path, 2))
        written = serial_path.read_bytes()
        assert pool_path.read_bytes() == written
        kept = written.splitlines(keepends=True)[: 5 - pending]
        pool_path.write_bytes(b"".join(kept))
        resumed = run_census(config(pool_path, 2))
        assert (resumed.counted, resumed.considered) == (fresh.counted, fresh.considered)
        assert resumed.segments == fresh.segments
        assert pool_path.read_bytes() == written

    def test_fsync_once_per_interval_and_before_return(self, tmp_path, monkeypatch):
        path = tmp_path / "census.jsonl"
        synced = []  # records on disk at each fsync: every record is flushed when written
        monkeypatch.setattr(census.os, "fsync", lambda fd: synced.append(path.read_bytes().count(b"\n")))
        # one clock reading at the start and one per record, 0.5 s apart: an
        # interval of 1 s passes at the 2nd and 4th of the 5 records
        clock = itertools.count(0.0, 0.5)
        monkeypatch.setattr(census.time, "monotonic", lambda: next(clock))
        run_census(self._config(path))
        assert synced == [2, 4, 5]
        path.unlink()
        synced.clear()
        monkeypatch.setattr(census.time, "monotonic", lambda: 0.0)
        run_census(self._config(path))
        assert synced == [5]
        synced.clear()
        run_census(self._config(path))  # a pure resume writes nothing
        assert synced == []

    def _write_foreign_after(self, path, valid_lines: int) -> None:
        """valid_lines records of the run, then one from a segmentation starting at 5."""
        record = {
            "segment_start": 5, "segment_end": 10_004,
            "counted": 1, "considered": 1,
            "config_fingerprint": "2/1|2|10000",
        }
        kept = _PINNED_CHECKPOINT.splitlines(keepends=True)[:valid_lines]
        path.write_bytes(b"".join(kept) + json.dumps(record).encode() + b"\n")

    def test_foreign_segmentation_aborts(self, tmp_path):
        path = tmp_path / "census.jsonl"
        self._write_foreign_after(path, 0)
        with pytest.raises(CheckpointError, match=r"line 1 segment \(5, 10004\)"):
            run_census(self._config(path))

    def test_foreign_segment_after_valid_record(self, tmp_path):
        path = tmp_path / "census.jsonl"
        self._write_foreign_after(path, 1)
        with pytest.raises(CheckpointError, match=r"line 2 segment \(5, 10004\)"):
            run_census(self._config(path))

    def test_record_bytes_pinned(self, tmp_path):
        # key order and spacing are part of the format: files written earlier must resume
        path = tmp_path / "census.jsonl"
        fresh = run_census(self._config(path, x=30_000))
        assert path.read_bytes() == _PINNED_CHECKPOINT
        assert run_census(self._config(path, x=30_000)) == fresh


def _record_kernel_calls(monkeypatch) -> list:
    """Returns the (lo, hi) of every sieve call made in this process from now on."""
    calls = []
    unit_mask = census._unit_mask
    monkeypatch.setattr(census, "_unit_mask",
                        lambda lo, hi, *a: calls.append((lo, hi)) or unit_mask(lo, hi, *a))
    return calls


def _window_primes(lo: int, hi: int, base_primes: np.ndarray) -> list[np.ndarray]:
    """The primes of each window of one task over [lo, hi], in order (g = 1, a unit everywhere)."""
    windows = []
    census._run_task(lambda run, lo, mask: windows.append(_class_primes(lo, mask, 1))
                     or np.zeros(1, dtype=np.int64), base_primes, 1, [(lo, hi)])
    return windows


def _split_verifier_segments(monkeypatch) -> list:
    """Make the verifiers' default config use 10^4-wide segments, one sieve call each;
    returns the sieve's calls."""
    monkeypatch.setattr(census, "CensusConfig", functools.partial(CensusConfig, segment_size=10**4))
    monkeypatch.setattr(census, "_TASK_SPAN", 10**4)
    return _record_kernel_calls(monkeypatch)


# Over the 20 segments of [3, 200000] in 10^4-wide segments: (_TASK_SPAN, sieve calls) for
# runs of one segment, then for runs of 3 (the last of 2), where one sieve feeds several segments
_VERIFIER_RUNS = ((10**4, 20), (3 * 10**4, 7))


class TestKeyIdentity:
    def test_exact_small(self):
        report = verify_key_identity(2, 2, 10_000)
        assert report.lhs == report.rhs
        assert report.holds

    def test_d_one_counts_considered(self):
        report = verify_key_identity(2, 1, 10_000)
        census = run_census(CensusConfig(RationalBase(2, 1), 1, 10_000, segment_size=10**4))
        assert report.lhs == report.rhs == census.considered

    def test_blocks_nonnegative(self):
        report = verify_key_identity(-9, 6, 50_000)
        assert report.holds
        assert all(count >= 0 for _, count in report.blocks)

    def test_lhs_matches_census(self):
        # for g = -9, d = 6 the excluded primes {2, 3} are skipped by the
        # census as well, so the direct counts must coincide
        report = verify_key_identity(-9, 6, 30_000)
        census = run_census(CensusConfig(RationalBase(-9, 1), 6, 30_000, segment_size=10**4))
        assert report.lhs == census.counted

    @pytest.mark.parametrize("d", [10_000, 2**63 - 1, 2**70 + 1])
    def test_d_beyond_x(self, d):
        report = verify_key_identity(2, d, 10_000)
        assert (report.lhs, report.rhs, report.blocks) == (0, 0, ((1, 0),))

    def test_rejects_large_x(self):
        # both verifiers share the census's bound, checked before any sieving
        with pytest.raises(ValueError, match="beyond supported bound"):
            verify_key_identity(2, 2, _MAX_X_LIMIT + 1)
        with pytest.raises(ValueError, match="beyond supported bound"):
            verify_order_flip(2, _MAX_X_LIMIT + 1)

    def test_rejects_small_x(self):
        with pytest.raises(ValueError, match="at least 3"):
            verify_key_identity(2, 2, 2)
        with pytest.raises(ValueError, match="at least 3"):
            verify_order_flip(2, 2)

    @pytest.mark.parametrize("g, d", [(2, 2), (-9, 6), (Fraction(8, 27), 4), (2, 2**70 + 1)])
    def test_segment_split_matches_one_segment(self, g, d, monkeypatch):
        whole = verify_key_identity(g, d, 200_000)
        kernel_calls = _split_verifier_segments(monkeypatch)
        for span, calls in _VERIFIER_RUNS:
            monkeypatch.setattr(census, "_TASK_SPAN", span)
            split = verify_key_identity(g, d, 200_000)
            assert len(kernel_calls) == calls
            kernel_calls.clear()
            assert (split.lhs, split.rhs, split.blocks) == (whole.lhs, whole.rhs, whole.blocks)
            assert split.holds

    @pytest.mark.parametrize("g, d, x", [(7, 210, 10**6), (3, 12, 5 * 10**5)])
    def test_ladders_per_block(self, g, d, x, monkeypatch):
        # omega(d) power tests for lhs, and for even d one character ladder (the window's
        # table of (g/p)); 2 + omega(d) ladders per block with a prime, none for an
        # empty block, and one inverse ladder per window when g2 != 1.  x is one window.
        calls = []
        powmod = census._powmod_vec
        monkeypatch.setattr(census, "_powmod_vec", lambda *a: calls.append(1) or powmod(*a))
        assert verify_key_identity(g, d, x).holds
        g = Fraction(g)
        # (p - 1)/d for the considered primes p = 1 (mod d)
        quotients = [k for k in range(1, (x - 1) // d + 1)
                     if sympy.isprime(k * d + 1) and g.numerator * g.denominator % (k * d + 1)]
        blocks = sum(any(q % v == 0 for q in quotients) for v in divisors_of_dinfty(d, (x - 1) // d))
        omega = len(sympy.primefactors(d))
        character = d % 2 == 0
        assert 0 < len(calls) <= omega + character + (2 + omega) * blocks + (g.denominator != 1)

    def test_matches_census_at_1e7(self):
        x = 10**7
        report = verify_key_identity(2, 2, x)
        assert report.holds
        assert report.lhs == run_census(CensusConfig(RationalBase(2, 1), 2, x)).counted
        assert verify_order_flip(3, x)


class TestOrderFlip:
    def test_specific_primes(self):
        # ord_7(2) = 3 is odd, so ord_7(-2) doubles to 6
        assert exact_order(2, 7) == 3
        assert exact_order(-2, 7) == 6
        # ord_5(2) = 4 is divisible by 4, so ord_5(-2) = 4
        assert exact_order(2, 5) == 4
        assert exact_order(-2, 5) == 4
        assert verify_order_flip(2, 7)

    def test_sweep(self):
        assert verify_order_flip(2, 10_000)
        assert verify_order_flip(Fraction(3, 5), 2_000)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            verify_order_flip(-2, 100)

    @pytest.mark.parametrize("g", [2, 3, Fraction(3, 5)])
    def test_examines_every_considered_prime(self, g, monkeypatch):
        # the relation holds at every prime, so only a count shows a prime the flip skipped;
        # _flip_run takes the valuations of g and -g at each prime it examines
        considered = run_census(CensusConfig(g, 1, 200_000)).considered
        examined = []
        valuation = census._two_adic_valuation
        monkeypatch.setattr(census, "_two_adic_valuation",
                            lambda y, ps: examined.append(ps.size) or valuation(y, ps))
        default_span = census._TASK_SPAN
        kernel_calls = _split_verifier_segments(monkeypatch)
        # one run of all 20 segments, then 20 runs of one
        for span, runs in ((default_span, 1), (10**4, 20)):
            monkeypatch.setattr(census, "_TASK_SPAN", span)
            assert verify_order_flip(g, 200_000)
            assert (len(kernel_calls), sum(examined)) == (runs, 2 * considered)
            kernel_calls.clear()
            examined.clear()

    @pytest.mark.parametrize("g", [3, Fraction(3, 5)])
    def test_segment_split_matches_one_segment(self, g, monkeypatch):
        whole = verify_order_flip(g, 200_000)
        kernel_calls = _split_verifier_segments(monkeypatch)
        for span, calls in _VERIFIER_RUNS:
            monkeypatch.setattr(census, "_TASK_SPAN", span)
            assert verify_order_flip(g, 200_000) is whole is True
            assert len(kernel_calls) == calls
            kernel_calls.clear()


class TestBatchedDriver:
    """One kernel call per run of consecutive segments gives each segment what its own call would."""

    # 10 segments, the last one short; the segment ends 10067, 30197 and 70457 are prime
    X, SEGMENT = 95_000, 10_065

    def _config(self, g, d, workers=1, path=None):
        return CensusConfig(g, d, self.X, segment_size=self.SEGMENT, worker_count=workers,
                            checkpoint_path=path)

    @pytest.mark.parametrize("g, d", [(2, 2), (Fraction(1, 2), 1), (-9, 6), (Fraction(8, 27), 4),
                                      (3, 95_000), (2, 2**70 + 1)])
    def test_runs_match_one_segment_per_task(self, g, d, tmp_path, monkeypatch):
        segments = self._config(g, d).segments()
        primes = set(_small_primes(self.X).tolist())
        assert self.X % self.SEGMENT
        assert [hi for _, hi in segments if hi in primes] == [10067, 30197, 70457]
        calls = _record_kernel_calls(monkeypatch)
        out = {}
        # runs of 10 segments (1 worker) or of 5 (2 workers), then runs of 3 that end mid-range
        for span in (census._TASK_SPAN, 3 * self.SEGMENT, self.SEGMENT):
            monkeypatch.setattr(census, "_TASK_SPAN", span)
            for workers in (1, 2):
                path = tmp_path / f"{span}-{workers}.jsonl"
                result = run_census(self._config(g, d, workers, path))
                out[span, workers] = result.segments, path.read_bytes()
        assert calls[:5] == [(3, 95_000),  # the pools' calls run in their workers
                             (3, 30197), (30198, 60392), (60393, 90587), (90588, 95_000)]
        assert len(calls) == 5 + 10
        single = out[self.SEGMENT, 1]
        assert [seg.start for seg in single[0]] == [lo for lo, _ in segments]
        assert all(value == single for value in out.values())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_resume_with_holes_matches_uninterrupted(self, workers, tmp_path, monkeypatch):
        path = tmp_path / "census.jsonl"
        config = self._config(-9, 6, workers, path)
        full = run_census(config)
        lines = path.read_bytes().splitlines(keepends=True)
        kept = lines[0:5:2]  # lines 1, 3 and 5: segments 2, 4 and 6 onwards are pending
        path.write_bytes(b"".join(kept))
        calls = _record_kernel_calls(monkeypatch)
        assert run_census(config) == full
        assert path.read_bytes() == b"".join(kept + lines[1:5:2] + lines[5:])
        if workers == 1:
            segments = config.segments()
            assert calls == [segments[1], segments[3], (segments[5][0], self.X)]
            done = [json.loads(line)["segment_start"] for line in kept]
            assert not any(lo <= start <= hi for lo, hi in calls for start in done)


class TestStatelessDriver:
    """Runs in one process see nothing of each other's kernel."""

    def test_interleaved_drivers(self):
        configs = [CensusConfig(RationalBase(2, 1), 2, 50_000, segment_size=10**4),
                   CensusConfig(RationalBase(3, 1), 12, 50_000, segment_size=10**4)]
        counts = [functools.partial(census._count_run, c.g, c.d, c.d_factors) for c in configs]
        alone = [list(census._map_segments(c, n, c.segments())) for c, n in zip(configs, counts)]
        drivers = [census._map_segments(c, n, c.segments()) for c, n in zip(configs, counts)]
        interleaved = [[], []]
        for _ in range(len(alone[0])):
            for out, driver in zip(interleaved, drivers):
                out.append(next(driver))
        assert interleaved == alone
        assert [next(driver, None) for driver in drivers] == [None, None]

    def test_threads_match_serial(self, monkeypatch):
        _split_verifier_segments(monkeypatch)
        calls = [functools.partial(run_census, CensusConfig(g, d, 200_000, segment_size=10**4))
                 for g, d in ((RationalBase(2, 1), 2), (RationalBase(3, 1), 12))]
        calls.append(functools.partial(verify_key_identity, -9, 6, 200_000))
        serial = [call() for call in calls]
        start = threading.Barrier(len(calls), timeout=60)

        def run_together(call):
            start.wait()
            return call()

        with ThreadPoolExecutor(max_workers=len(calls)) as pool:
            threaded = list(pool.map(run_together, calls, timeout=120))
        assert threaded == serial


class TestRecordTypes:
    def test_invariants_survive_optimize(self):
        # python -O strips assert statements; the invariants must not go with them
        code = (
            "from orddiv.census import SegmentCount\n"
            "SegmentCount(3, 10002, counted=5, considered=3)"
        )
        run = run_python("-O", "-c", code)
        assert run.returncode == 1
        assert "ValueError" in run.stderr

    def test_result_reprs_pinned(self):
        # the derived totals keep their declared place in repr
        result = run_census(CensusConfig(2, 2, 30_000, segment_size=10**4))
        assert repr(result) == (
            "CensusResult(counted=2309, considered=3244, segments=("
            "SegmentCount(start=3, end=10002, counted=878, considered=1228), "
            "SegmentCount(start=10003, end=20002, counted=737, considered=1033), "
            "SegmentCount(start=20003, end=30000, counted=694, considered=983)))"
        )
        report = verify_key_identity(-9, 6, 1000)
        assert repr(report) == (
            "KeyIdentityReport(g=RationalBase(g1=-9, g2=1), d=6, x=1000, lhs=58, rhs=58)"
        )
