"""Empirical prime census: count primes p <= x with d | ord_p(g).

The hot path is a segmented, odd-only sieve with vectorized modular
exponentiation over the primes of one sieve window at a time (int64
products stay below 2^63 for x up to 3e9, which covers the full
published-table scale).  A window is one cache-sized block of the mask,
struck by every base prime while it is in cache.  The exponentiation is a
3-bit-window ladder run in cache-sized blocks, and every bulk
exponentiation is `_powmod_vec`.
Divisibility of the order by d is decided per prime power l^a || d from the
l-free part of p - 1 and a single power test, never from a full order
computation.  Each stage returns the primes that pass it: each l^a || d, in
ascending l, narrows the array the next reads, so the odd-l ladders see only
the 2-part's survivors.  A stage narrows its parallel arrays (the primes
and g mod p) by taking one index into each.  For l = 2 the ladder runs only
at the residues of g with 2^(a+1) | p - 1: with e = v2(p - 1) >= a, a
non-residue has v2(ord_p g) = e, a hit, and a residue with e = a has
v2(ord_p g) < a, a miss.
The character (g/p) is the Jacobi symbol (g1 g2/p), periodic in p with period
4|g1 g2|; up to a period of _POWMOD_BLOCK each window reads it from a table
filled by Euler's criterion (a power test) at one prime of every class it
meets, and beyond it every prime takes the ladder.  A prime is left out when
g is not a unit modulo it, which the unit filter reads from the residue of
g1 * g2, testing only the primes up to |g1 g2|: g itself is never factored.

One driver maps runs of consecutive segments, serially or on a process pool of
at most one process per CPU.  A run is at most _TASK_SPAN numbers wide unless
a single segment is wider.  Its task walks it in windows of 2 * _SIEVE_BLOCK
numbers: it sieves each window, strikes the primes at which g is not a unit
and hands the window's odd-only mask to a reducer, which returns integer
counts that the task sums over the windows.  So a task's memory is bounded by
one window, whatever the run's width (see _TASK_SPAN).  d | ord_p(g) forces
p = 1 (mod d), so each reducer reads as primes only that class, every
lcm(2, d)/2-th slot of the mask (_class_primes): a d >= 3 target never lists
the primes it does not test.  Each reducer then runs the stages it needs:
`run_census` runs the power tests, computing g mod p only when d has prime
factors to test, splits its counts at the segment ends (considered being the
set slots of each segment) and checkpoints one JSON line per segment, so long
runs resume after a fingerprint check; `verify_key_identity` (class d) and
`verify_order_flip` (class 1, every prime) count on one worker, and decide
every order property by power tests too: identity block v reads class dv
from the mask and counts the primes where g^((p-1)/(rad(d) v)) has order
exactly rad(d), with no Mobius sum, and the order flip counts the primes
where its relation fails.  d is factored once per configuration
(`CensusConfig.d_factors`), and a d >= x_limit never.
The driver keeps no module state, so runs on threads of one process do not
see each other.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import logging
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .arith import divisors_of_dinfty, factorize
from .base import RationalBase, as_base

__all__ = [
    "CensusConfig",
    "CensusResult",
    "SegmentCount",
    "CheckpointError",
    "run_census",
    "verify_key_identity",
    "KeyIdentityReport",
    "verify_order_flip",
]

logger = logging.getLogger(__name__)

# (p-1)^2 must fit in int64 for the vectorized exponentiation.
_MAX_X_LIMIT = 3_000_000_000
# _powmod_vec's window width in exponent bits, and its block length in elements:
# a block's 8-row table of int64 powers is 2 MiB.
_WINDOW_BITS = 3
_POWMOD_BLOCK = 1 << 15
# A task sieves and counts its run one window of this many mask slots (twice
# as many numbers) at a time: a 1 MiB block of the bool mask, sized to L2 like
# _POWMOD_BLOCK's table, and about 130k primes near 10^7.
_SIEVE_BLOCK = 1 << 20
# The widest range one driver task takes when its segments are narrower:
# CensusConfig's default segment size.  It bounds only the work a killed task
# loses, not memory: a task holds one window's arrays at a time (its traced
# peaks: BENCH_census.json, record class_read, traced_task_peak_mib).
_TASK_SPAN = 10_000_000


class CheckpointError(RuntimeError):
    """Checkpoint file disagrees with the current run configuration."""


@dataclass(frozen=True)
class CensusConfig:
    g: RationalBase | int | str | Fraction
    d: int
    x_limit: int
    segment_size: int = 10_000_000
    worker_count: int = 1
    checkpoint_path: str | os.PathLike | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "g", as_base(self.g))
        if self.d < 1:
            raise ValueError("d must be positive")
        if self.x_limit < 3:
            raise ValueError("x_limit must be at least 3")
        if self.x_limit > _MAX_X_LIMIT:
            raise ValueError(f"x_limit beyond supported bound {_MAX_X_LIMIT}")
        if self.segment_size < 10_000:
            raise ValueError("segment_size must be at least 10^4")
        if self.worker_count < 1:
            raise ValueError("worker_count must be positive")

    @functools.cached_property
    def d_factors(self) -> tuple[tuple[int, int], ...]:
        """d's prime factors; () for a d >= x_limit, which divides no p - 1 in the
        census and is never factored."""
        return () if self.d >= self.x_limit else factorize(self.d).factors

    @property
    def fingerprint(self) -> str:
        return f"{self.g.g1}/{self.g.g2}|{self.d}|{self.segment_size}"

    def segments(self) -> list[tuple[int, int]]:
        bounds = []
        lo = 3
        while lo <= self.x_limit:
            hi = min(lo + self.segment_size - 1, self.x_limit)
            bounds.append((lo, hi))
            lo = hi + 1
        return bounds


@dataclass(frozen=True)
class SegmentCount:
    start: int
    end: int
    counted: int
    considered: int

    def __post_init__(self) -> None:
        values = tuple(vars(self).values())
        if any(type(v) is not int for v in values) or not 0 <= self.counted <= self.considered:
            raise ValueError(f"segment {values} needs int counts with 0 <= counted <= considered")


@dataclass(frozen=True)
class CensusResult:
    """Segment sums of counted = #{p : d | ord_p(g)} and considered = #{p : p odd, p coprime to g}."""

    counted: int = field(init=False)
    considered: int = field(init=False)
    segments: tuple[SegmentCount, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counted", sum(s.counted for s in self.segments))
        object.__setattr__(self, "considered", sum(s.considered for s in self.segments))

    @property
    def ratio(self) -> Fraction:
        if self.considered == 0:
            raise ZeroDivisionError("no primes considered")
        return Fraction(self.counted, self.considered)


# ---------------------------------------------------------------------------
# the census stages: sieve mask, unit filter, class read p = 1 (mod d), g mod p, power tests
# ---------------------------------------------------------------------------


def _small_primes(limit: int) -> np.ndarray:
    """Primes up to limit inclusive (plain sieve; the Python loop runs to sqrt(limit))."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def _sieve_mask(lo: int, hi: int, base_primes: np.ndarray) -> tuple[int, np.ndarray]:
    """(lo', mask): the odd-only sieve of [lo, hi], slot i standing for lo' + 2i, lo' the
    first odd number >= max(lo, 3), and True exactly at the primes.

    An odd prime p crosses off every p-th slot from that of its first odd
    multiple >= max(p^2, lo'), in one strided store.  A task calls it on one
    window of _SIEVE_BLOCK slots at a time (_run_task), so every base prime
    strikes the mask while it is in cache.
    """
    lo = max(lo, 3) | 1
    mask = np.ones(max(0, (hi - lo) // 2 + 1), dtype=bool)
    odd = base_primes[(base_primes > 2) & (base_primes * base_primes <= hi)]
    start = np.maximum(odd * odd, -(-lo // odd) * odd)
    slot = (start + odd * (start % 2 == 0) - lo) // 2
    # a prime whose first slot is past the mask strikes nothing (most of them on a narrow run)
    inside = slot < mask.size
    for p, i in zip(odd[inside].tolist(), slot[inside].tolist()):
        mask[i::p] = False
    return lo, mask


def _powmod_vec(basev: np.ndarray, exp: np.ndarray | int, mod: np.ndarray) -> np.ndarray:
    """Elementwise base^exp % mod for int64 arrays (mod < 2^31.5, exp >= 0 an array or one int).

    A fixed 3-bit-window (2^k-ary) exponentiation from the top window of
    exp.max(), run over blocks of _POWMOD_BLOCK elements so that each block's
    table of base^0 .. base^7 and its temporaries stay in cache.  Every
    element takes every step: per window three squarings, then one multiply
    by the table entry its window selects (about 1.33 products per exponent
    bit, where a bitwise ladder takes 2).
    """
    result = np.ones_like(mod)
    top = int(np.max(exp, initial=0))
    if not top:
        return result
    shifts = range(_WINDOW_BITS * ((top.bit_length() - 1) // _WINDOW_BITS), -1, -_WINDOW_BITS)
    width = min(_POWMOD_BLOCK, mod.size)
    # a window never selects a power above top, so a small exp builds a short table
    table = np.empty((min(1 << _WINDOW_BITS, top + 1), width), dtype=np.int64)
    table[0] = 1
    flat, cols = table.reshape(-1), np.arange(width)
    for lo in range(0, mod.size, _POWMOD_BLOCK):
        m = mod[lo : lo + _POWMOD_BLOCK]
        r = result[lo : lo + _POWMOD_BLOCK]
        e = exp if np.ndim(exp) == 0 else exp[lo : lo + _POWMOD_BLOCK]
        t, c = table[:, : m.size], cols[: m.size]
        np.remainder(basev[lo : lo + _POWMOD_BLOCK], m, out=t[1])
        for k in range(2, len(table)):
            np.multiply(t[k - 1], t[1], out=t[k])
            np.remainder(t[k], m, out=t[k])
        for shift in shifts:
            # table entry [window digit, column] of each element, read through the flat view
            power = flat.take(((e >> shift) & ((1 << _WINDOW_BITS) - 1)) * width + c)
            if shift == shifts[0]:
                r[...] = power
                continue
            for _ in range(_WINDOW_BITS):
                np.multiply(r, r, out=r)
                np.remainder(r, m, out=r)
            np.multiply(r, power, out=r)
            np.remainder(r, m, out=r)
    return result


def _mod_vec(n: int, mod: np.ndarray) -> np.ndarray:
    """Elementwise n % mod for any Python int n (mod < 2^31.5).

    The bits of n above its low k 31-bit limbs fit in int64 and are reduced
    first; each limb is then folded in by Horner, r = ((r << 31) + limb) % mod,
    which stays below 2^63.  An int64-sized n takes the single % pass (k = 0).
    """
    k = max(0, -(-(n.bit_length() - 63) // 31))
    r = (n >> (31 * k)) % mod
    for i in reversed(range(k)):
        r = ((r << 31) + ((n >> (31 * i)) & 0x7FFF_FFFF)) % mod
    return r


def _strip_vec(values: np.ndarray, q: int) -> np.ndarray:
    """values with every factor q divided out, elementwise (values >= 1, q >= 2).

    For q = 2 that is one division by each value's lowest set bit, v & -v.
    Otherwise each pass divides, and then tests, only the elements still
    divisible by q.
    """
    if q == 2:
        return values // (values & -values)
    out = values.copy()
    idx = np.flatnonzero(out % q == 0)
    while idx.size:
        out[idx] //= q
        idx = idx[out[idx] % q == 0]
    return out


def _residues(g1: int, g2: int, ps: np.ndarray) -> np.ndarray:
    """g1 * g2^(-1) mod p for every prime p in ps (none dividing g2)."""
    gbar = _mod_vec(g1, ps)
    if g2 != 1:
        gbar = gbar * _powmod_vec(_mod_vec(g2, ps), ps - 2, ps) % ps
    return gbar


def _unit_mask(lo: int, hi: int, base_primes: np.ndarray, g1g2: int) -> tuple[int, np.ndarray]:
    """_sieve_mask's (lo', mask) with the primes dividing g1 * g2 struck: True exactly at
    the odd primes at which g is a unit, read from the residue of g1 g2, so g is
    never factored.

    A prime past |g1 g2| divides no nonzero g1 g2, so only the primes up to
    min(|g1 g2|, hi) are tested; the clamp keeps a huge g1 g2 out of int64.
    """
    lo, mask = _sieve_mask(lo, hi, base_primes)
    top = min(abs(g1g2), hi)
    head = np.flatnonzero(mask[: max(0, (top - lo) // 2 + 1)])
    if head.size:
        mask[head[_mod_vec(g1g2, 2 * head + lo) == 0]] = False
    return lo, mask


def _class_primes(lo: int, mask: np.ndarray, d: int) -> np.ndarray:
    """The primes p = 1 (mod d) of a window's odd-only mask (slot i standing for lo + 2i,
    lo odd), ascending: one strided read of the class, whatever the other primes.

    With L = lcm(2, d) the odd p = 1 (mod d) are those = 1 (mod L), every
    (L/2)-th slot from the first, so d = 1 and d = 2 read every prime.  A d at
    or past the window's end divides no p - 1 there and enters no arithmetic,
    so it need not fit in int64.
    """
    if d >= lo + 2 * (mask.size - 1):
        return np.empty(0, dtype=np.int64)
    step = d if d % 2 else d // 2  # L/2 slots
    first = (1 - lo) // 2 % step
    primes = np.flatnonzero(mask[first::step])  # int64 indices, turned into primes in place
    primes *= 2 * step
    primes += lo + 2 * first
    return primes


def _character(gbar: np.ndarray, ps: np.ndarray, period: int) -> np.ndarray:
    """(g/p) at each p in ps as int8 1 or -1, read from a table of the classes mod period.

    Euler's criterion, g^((p-1)/2) = (g/p), fills each class ps meets at
    whichever of its primes the scatter keeps: one ladder over the classes met.
    """
    cls = ps % period
    at = np.full(period, -1, dtype=np.int64)
    at[cls] = np.arange(ps.size)
    classes = np.flatnonzero(at >= 0)
    reps = ps[at[classes]]
    table = np.zeros(period, dtype=np.int8)
    table[classes] = np.where(_powmod_vec(gbar[at[classes]], (reps - 1) // 2, reps) == 1, 1, -1)
    return table[cls]


def _two_part_test(gbar: np.ndarray, ps: np.ndarray, a: int, period: int) -> np.ndarray:
    """Whether 2^a | ord_p(g) at each p in ps, all with 2^a | p - 1, mostly from (g/p).

    With e = v2(p - 1) >= a there are three cases:
      * g is a non-residue mod p exactly when g^((p-1)/2) != 1, that is when
        v2(ord_p g) = e >= a: a hit;
      * a residue has v2(ord_p g) <= e - 1, so with e = a it is a miss;
      * only a residue with 2^(a+1) | p - 1 takes the ladder.
    """
    chi = _character(gbar, ps, period)
    keep = chi == -1
    todo = np.flatnonzero((chi == 1) & ((ps & ((2 << a) - 1)) == 1))  # 2^(a+1) | p - 1
    keep[todo] = _power_test(gbar.take(todo), ps.take(todo), 2, a)
    return keep


def _order_hits(gbar: np.ndarray, ps: np.ndarray, d_factors, g1g2: int) -> np.ndarray:
    """The primes of ps at which d | ord_p(g), all with d | p - 1, from gbar = g mod p.

    Each l^a || d, in ascending l, keeps the primes that pass its test, so an
    odd-l ladder reads only the 2-part's survivors; each narrowing takes one
    index into both arrays.  Each test is one _power_test, except that for
    l = 2 most primes need no ladder (_two_part_test).  The character (g/p) =
    (g1 g2^(-1)/p) = (g1 g2/p) is a Jacobi symbol, which by quadratic
    reciprocity depends on the odd p only through p mod 4|g1 g2|.  When that
    period is at most _POWMOD_BLOCK, (g/p) is read from a table by _character;
    for a longer period every prime takes the ladder.
    """
    for ell, a in d_factors:
        if ell == 2 and (period := 4 * abs(g1g2)) <= _POWMOD_BLOCK:
            passed = _two_part_test(gbar, ps, a, period)
        else:
            passed = _power_test(gbar, ps, ell, a)
        keep = np.flatnonzero(passed)
        ps, gbar = ps.take(keep), gbar.take(keep)
    return ps


def _power_test(gbar: np.ndarray, ps: np.ndarray, ell: int, a: int) -> np.ndarray:
    """Whether l^a | ord_p(g) at each p in ps, all with l^a | p - 1, by one ladder.

    l^a divides ord_p(g) exactly when g^((p-1)/l^(v_l(p-1)-a+1)) != 1, and that
    exponent is the l-free part of p - 1 times l^(a-1).
    """
    return _powmod_vec(gbar, _strip_vec(ps - 1, ell) * ell ** (a - 1), ps) != 1


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------


# A record is these keys, holding a SegmentCount's fields in order, then
# "config_fingerprint"; the key order is part of the checkpoint's bytes.
_RECORD_KEYS = ("segment_start", "segment_end", "counted", "considered")
# Each record is flushed as it is written, so a killed run loses none; an OS
# crash loses at most the records of the last interval, which resume recounts.
_FSYNC_INTERVAL_S = 1.0


def _load_checkpoint(
    path, fingerprint: str, segments: set[tuple[int, int]]
) -> tuple[dict[tuple[int, int], SegmentCount], int]:
    """Finished segments recorded at path, and the byte length of its complete lines.

    Each record is written together with its newline, so a final line without
    one is a write cut short by a kill: it is left out here with a warning, and
    cut off before the run appends.  Any bad newline-terminated line, and a
    path that cannot be read, aborts with CheckpointError.
    """
    done: dict[tuple[int, int], SegmentCount] = {}
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return done, 0
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read the checkpoint: {exc.strerror}") from None
    complete = data[: data.rfind(b"\n") + 1]
    if len(data) > len(complete):
        logger.warning(
            "%s: dropped a torn final line of %d bytes; its segment is recounted",
            path, len(data) - len(complete),
        )
    for lineno, line in enumerate(complete.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line.decode("utf-8"))
            seg = SegmentCount(*(record[name] for name in _RECORD_KEYS))
            seen_fp = record["config_fingerprint"]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: line {lineno} is not a valid record: {exc}")
        key = (seg.start, seg.end)
        if seen_fp != fingerprint:
            raise CheckpointError(
                f"{path}: line {lineno} fingerprint {seen_fp!r} does not match "
                f"current configuration {fingerprint!r}"
            )
        if key not in segments:
            raise CheckpointError(
                f"{path}: line {lineno} segment {key} does not match the "
                f"segmentation of x_limit={max(segments)[1]}"
            )
        if done.setdefault(key, seg) != seg:
            earlier = done[key]
            raise CheckpointError(
                f"{path}: line {lineno} conflicting counts for segment {key}: "
                f"{(earlier.counted, earlier.considered)} vs {(seg.counted, seg.considered)}"
            )
    return done, len(complete)


def _append_checkpoint(fh, seg: SegmentCount, fingerprint: str) -> None:
    record = dict(zip(_RECORD_KEYS, vars(seg).values()), config_fingerprint=fingerprint)
    fh.write(json.dumps(record) + "\n")
    fh.flush()


# ---------------------------------------------------------------------------
# the census driver
# ---------------------------------------------------------------------------


def _run_task(reduce, base_primes: np.ndarray, g1g2: int, run: list[tuple[int, int]]) -> list:
    """reduce(run, lo, mask), an int64 array of counts, summed over the windows of one
    run of consecutive segments, (lo, mask) being a window's _unit_mask.

    A window is 2 * _SIEVE_BLOCK numbers, one mask block, so each stage's arrays
    stay near cache size however wide the run.
    """
    lo, hi = run[0][0], run[-1][1]
    width = 2 * _SIEVE_BLOCK
    return sum(reduce(run, *_unit_mask(w, min(w + width - 1, hi), base_primes, g1g2))
               for w in range(lo, hi + 1, width)).tolist()


def _map_segments(config: CensusConfig, reduce, segments: list[tuple[int, int]]):
    """Yield _run_task's sum of reduce(run, lo, mask) for each run of consecutive segments
    in order, as a list of ints.

    A run never bridges a gap between segments, and holds at most _TASK_SPAN //
    segment_size of them (one if wider) and at most its share of them per
    worker, so a pool still gets a task per worker.  Serial for one worker or
    run, else on a pool of at most one process per CPU.
    """
    per_run = min(max(1, _TASK_SPAN // config.segment_size),
                  -(-len(segments) // config.worker_count))
    runs: list[list[tuple[int, int]]] = []
    for seg in segments:
        if runs and len(runs[-1]) < per_run and runs[-1][-1][1] + 1 == seg[0]:
            runs[-1].append(seg)
        else:
            runs.append([seg])
    task = functools.partial(_run_task, reduce, _small_primes(math.isqrt(config.x_limit)),
                             config.g.g1 * config.g.g2)
    if config.worker_count == 1 or len(runs) <= 1:
        yield from map(task, runs)
        return
    workers = min(config.worker_count, len(runs), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(task, runs)  # submits every run up front, yields in order


def _count_run(g: RationalBase, d: int, d_factors, run, lo: int, mask: np.ndarray) -> np.ndarray:
    """(counted, considered) for each segment of one run, from one window's unit mask,
    split at the segment ends.

    Only the class p = 1 (mod d) is read as primes; considered counts the set
    slots of each segment.  d = 1 counts every prime, so it computes no g mod p
    (for g2 != 1, no inverse ladder).
    """
    hits = _class_primes(lo, mask, d)
    if d_factors:
        hits = _order_hits(_residues(g.g1, g.g2, hits), hits, d_factors, g.g1 * g.g2)
    ends = [hi for _, hi in run]
    counts = np.zeros((len(run), 2), dtype=np.int64)
    counts[:, 0] = np.diff(np.searchsorted(hits, ends, side="right"), prepend=0)
    # segment k holds the slots [cuts[k-1], cuts[k]) of this window, none if it lies outside
    cuts = np.clip((np.array(ends) - lo) // 2 + 1, 0, mask.size).tolist()
    for k, (a, b) in enumerate(zip([0, *cuts], cuts)):
        if a < b:
            counts[k, 1] = np.count_nonzero(mask[a:b])
    return counts


def run_census(config: CensusConfig) -> CensusResult:
    """Count primes p <= x_limit (p odd, coprime to g) with d | ord_p(g).

    Totals are exact and identical for any worker_count / segment_size
    split.  With a checkpoint path, finished segments are appended as JSON
    lines and skipped on resume (fingerprint-validated; a final line torn by
    a kill is dropped and its segment recounted, and on any other
    inconsistency the run aborts rather than recounting).  A task's records
    are written as it finishes, each line flushed as it is written and
    fsynced within _FSYNC_INTERVAL_S, and all of them before the run
    returns; a killed run loses only the tasks in flight, each at most
    _TASK_SPAN numbers wide unless a single segment is wider.  Each worker
    holds one sieve window's arrays at a time, so memory does not grow with
    segment_size or x_limit.
    """
    segments = config.segments()
    done: dict[tuple[int, int], SegmentCount] = {}
    complete_bytes = 0
    if config.checkpoint_path is not None:
        done, complete_bytes = _load_checkpoint(config.checkpoint_path, config.fingerprint, set(segments))
    pending = [seg for seg in segments if seg not in done]
    with contextlib.ExitStack() as stack:
        log = None
        if config.checkpoint_path is not None and pending:
            try:
                log = stack.enter_context(open(config.checkpoint_path, "a", encoding="utf-8"))
                log.truncate(complete_bytes)
            except OSError as exc:
                raise CheckpointError(
                    f"{config.checkpoint_path}: cannot append to the checkpoint: {exc.strerror}"
                ) from None
            # run before the file closes: every record is on disk when the run ends, or fails
            stack.callback(os.fsync, log.fileno())
        synced_at = time.monotonic()
        count = functools.partial(_count_run, config.g, config.d, config.d_factors)
        driver = itertools.chain.from_iterable(_map_segments(config, count, pending))
        # strict: the driver is run to its end, which shuts its pool down
        for seg, counts in zip(pending, driver, strict=True):
            done[seg] = SegmentCount(*seg, *counts)
            if log is not None:
                _append_checkpoint(log, done[seg], config.fingerprint)
                if (now := time.monotonic()) - synced_at >= _FSYNC_INTERVAL_S:
                    os.fsync(log.fileno())
                    synced_at = now
    return CensusResult(tuple(done[seg] for seg in segments))


# ---------------------------------------------------------------------------
# exact finite-x verifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KeyIdentityReport:
    """Both sides of the finite-x counting identity; rhs is the sum of the per-v block counts."""

    g: RationalBase
    d: int
    x: int
    lhs: int
    rhs: int = field(init=False)
    blocks: tuple[tuple[int, int], ...] = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rhs", sum(count for _, count in self.blocks))

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


def _two_adic_valuation(y: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """v_2 of the order of y modulo p, elementwise, for y of 2-power order modulo p.

    That order is 2^k for the least k with y^(2^k) = 1, found by repeated squaring.
    """
    val = np.zeros(ps.size, dtype=np.int64)
    while (live := y != 1).any():
        val += live
        y = y * y % ps
    return val


def _identity_run(
    g: RationalBase, d: int, d_factors, vs: tuple[int, ...], run, lo: int, mask: np.ndarray
) -> np.ndarray:
    """lhs, then each v-block of verify_key_identity's rhs, over one window's primes
    p = 1 (mod d).

    Block v reads its primes p = 1 (mod dv) from the mask, a subset of class
    d, so searchsorted finds each in ps and gathers its g mod p.  A block with
    no such prime counts 0 and runs no ladder; any other block counts the
    y = g^((p-1)/(rad v)) of order exactly rad, in 2 + omega(d) ladders.  A d
    at or past the window's end reads nothing, so it may be past int64.
    """
    ps = _class_primes(lo, mask, d)
    gbar = _residues(g.g1, g.g2, ps)
    counts = [_order_hits(gbar, ps, d_factors, g.g1 * g.g2).size]
    ells = [ell for ell, _ in d_factors]
    rad = math.prod(ells)
    for v in vs:
        sel = _class_primes(lo, mask, d * v)
        if not sel.size:
            counts.append(0)
            continue
        y = _powmod_vec(gbar[np.searchsorted(ps, sel)], (sel - 1) // (rad * v), sel)
        exact = _powmod_vec(y, rad, sel) == 1
        for ell in ells:
            exact &= _powmod_vec(y, rad // ell, sel) != 1
        counts.append(int(np.count_nonzero(exact)))
    return np.array(counts, dtype=np.int64)


def verify_key_identity(
    g: RationalBase | int | str | Fraction, d: int, x: int
) -> KeyIdentityReport:
    """Check the exact finite-x identity between the direct order count and
    the census over residual indices r_p = (p - 1)/ord_p(g).

    lhs counts primes p <= x with d | ord_p(g), by the census's own test.
    rhs sums over v | d^inf the primes with p = 1 (mod dv) and (r_p, d^inf)
    = v, which the paper writes as sum mu(alpha) [alpha v | r_p] over
    squarefree alpha | d.  With y = g^((p-1)/(rad(d) v)), alpha v | r_p
    exactly when y^(rad(d)/alpha) = 1, i.e. y^rad(d) = 1 and y^(rad(d)/l) = 1
    for each prime l | alpha: that sum is the one predicate ord_p(y) = rad(d).
    Both sides range over the census's primes: odd, with g a unit mod p (read
    from the residue of g1 * g2, so g is never factored; no prime dividing d
    has p = 1 mod d).  Exact integer equality is expected for every input;
    both sides are sums over runs of segments, x and d bounded as in CensusConfig.
    """
    config = CensusConfig(g, d, x)
    # no factors: d = 1, whose only v is 1, or a d >= x, which has no prime to count
    vs = tuple(divisors_of_dinfty(d, (x - 1) // d)) if config.d_factors else (1,)
    reduce = functools.partial(_identity_run, config.g, d, config.d_factors, vs)
    lhs, *counts = map(sum, zip(*_map_segments(config, reduce, config.segments())))
    return KeyIdentityReport(config.g, d, x, lhs, tuple(zip(vs, counts)))


def _flip_run(g: RationalBase, run, lo: int, mask: np.ndarray) -> np.ndarray:
    """The number of primes of one window where verify_order_flip's relation fails, as
    an array of one count."""
    ps = _class_primes(lo, mask, 1)
    y = _powmod_vec(_residues(g.g1, g.g2, ps), _strip_vec(ps - 1, 2), ps)
    t, t_neg = _two_adic_valuation(y, ps), _two_adic_valuation(ps - y, ps)
    return np.count_nonzero(t_neg != np.where(t == 0, 1, np.where(t == 1, 0, t)), keepdims=True)


def verify_order_flip(g: RationalBase | int | str | Fraction, x: int) -> bool:
    """Check the order relation between g and -g at every odd prime p <= x.

    ord_p(-g) must be 2*ord_p(g), ord_p(g)/2, or ord_p(g) according to
    whether ord_p(g) is odd, 2 mod 4, or divisible by 4.  As g^2 = (-g)^2,
    the odd parts of the two orders agree, so the relation is one between
    their 2-adic valuations: 0 -> 1, 1 -> 0, and t -> t for t >= 2.  With m
    the odd part of p - 1 and y = g^m, the valuation for g is that of the
    order of y; as m is odd, (-g)^m = p - y, so one ladder serves both.
    """
    config = CensusConfig(g, 1, x)
    if config.g.g1 < 0:
        raise ValueError("verify_order_flip requires g > 0")
    failures = _map_segments(config, functools.partial(_flip_run, config.g), config.segments())
    return sum(count for [count] in failures) == 0
