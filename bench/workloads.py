"""The benchmark workloads: inputs, warm-up, one timed pass and its output gate.

Every call into orddiv goes through a module attribute (``census.run_census``,
``kummer.series_partial``, ...) so that the traced run can wrap those
attributes and see each call.  A pass is a list of operations; an operation
is one census run, one verifier call or one sweep pair, and it fails if it
raises or if any of its output checks fails.

Two workloads, with passes of about 20 s and 9 s:

* ``census_table`` -- the census layer.  All 16 table rows with 10^7-wide
  segments (kernel-bound), then two rows in 10^4-wide segments with a
  checkpoint and a pure resume (bound by per-segment fixed costs).
* ``exact_sweep`` -- everything else, run by two client processes.  The
  exact finite-x verifiers (a per-prime Python loop), a seeded (g, d) sample
  through the exact-Fraction layers, and the 16 table rows through the CLI.

On the 2-core shared host the benchmark was built on, single-threaded speed
drifts by 10-30 % over tens of seconds to minutes.  So a run measures for
45 s, and exact_sweep runs its operations on two client processes, whose
timings spread about half as wide as those of one process.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import multiprocessing
import os
import random
import resource
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

arith = importlib.import_module("orddiv.arith")
base = importlib.import_module("orddiv.base")
census = importlib.import_module("orddiv.census")
cli = importlib.import_module("orddiv.cli")
density = importlib.import_module("orddiv.density")
kummer = importlib.import_module("orddiv.kummer")
tables = importlib.import_module("orddiv.tables")

WORKERS = 2

# Input sizes.  "full" is what the benchmark measures; "smoke" runs the same
# code paths on inputs small enough for the benchmark's own tests.
SIZES = {
    "full": {
        "census_x": 20_000_000,
        "table_segment": 10_000_000,  # CensusConfig's default: 2 segments per row
        "small_segment": 10_000,
        "identity_x": 500_000,
        "flip_x": 100_000,
        "sweep_per_d": 48,
    },
    "smoke": {
        "census_x": 200_000,
        "table_segment": 100_000,
        "small_segment": 10_000,
        "identity_x": 5_000,
        "flip_x": 1_000,
        "sweep_per_d": 1,
    },
}

SEGMENT_ROWS = ((2, 8), (-9, 6))
IDENTITY_PAIRS = ((2, 2), (2, 4), (2, 8), (3, 12), (-2, 6), (-4, 2), (-9, 6))
FLIP_BASES = (2, 3, 5)
SWEEP_D = range(1, 49)
SWEEP_VMAX = 2**14


def table_pairs() -> list[tuple[int, int]]:
    return [(row.g, row.d) for row in tables.TABLE_POSITIVE + tables.TABLE_NEGATIVE]


def sweep_domain() -> list[Fraction]:
    """Integers in [-64, 64] and rationals a/b with |a| <= 16, 2 <= b <= 16, minus {-1, 0, 1}."""
    gs = [Fraction(g) for g in range(-64, 65) if g not in (-1, 0, 1)]
    gs += [Fraction(a, b) for a in range(-16, 17) for b in range(2, 17) if a and math.gcd(a, b) == 1]
    return gs


def ref_key(g, d: int) -> str:
    return f"{g},{d}"


def odd_primes_dividing(g, extra: int = 1) -> set[int]:
    q = Fraction(g)
    return set(arith.factorize(abs(q.numerator) * q.denominator * extra).primes()) - {2}


class Pass:
    """Counters and gate results of one pass over a workload's inputs."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.pairs = 0
        self.primes = 0
        self.stats: dict[str, float] = {}
        self.wall = 0.0
        self.cpu = 0.0

    def add(self, key: str, value: float) -> None:
        self.stats[key] = self.stats.get(key, 0) + value

    def merge(self, other: "Pass") -> None:
        """Fold in the counters of operations run in another process."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures
        self.pairs += other.pairs
        self.primes += other.primes
        for key, value in other.stats.items():
            self.add(key, value)

    @contextlib.contextmanager
    def operation(self, label: str):
        """One gated operation; a raise or a failed check marks it failed."""
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # the benchmark must keep running and report it
            self.failed += 1
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")


class GateError(AssertionError):
    pass


def check(cond: bool, what: str) -> None:
    if not cond:
        raise GateError(what)


def cpu_times() -> tuple[float, float]:
    """(CPU of this process, CPU of its reaped children), user + sys seconds."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


class Workload:
    name = ""
    tracer = None  # set by the traced run to the spans.Tracer recording this pass

    def __init__(self, seed: int, size: dict, reference: dict, out_dir: Path) -> None:
        self.rng = random.Random(seed)
        self.size = size
        self.reference = reference
        self.out_dir = out_dir

    def shuffled(self, items) -> list:
        items = list(items)
        self.rng.shuffle(items)
        return items


class CensusTable(Workload):
    """The census layer: kernel-bound table rows, then segment-bound checkpointed rows."""

    name = "census_table"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.x = self.size["census_x"]
        self.counts = self.reference["census"][str(self.x)]
        pi_x = self.reference["pi"][str(self.x)]
        self.expected_considered = {
            ref_key(g, d): pi_x - 1 - len(odd_primes_dividing(g)) for g, d in table_pairs()
        }
        self.rows = self.shuffled(table_pairs())
        self.segment_rows = self.shuffled(SEGMENT_ROWS)

    def warm_up(self) -> None:
        census.run_census(census.CensusConfig(g=base.as_base(2), d=6, x_limit=100_000))

    def run_pass(self, p: Pass, workers: int = WORKERS, segment_rows: bool = True) -> None:
        for g, d in self.rows:
            with p.operation(f"run_census g={g} d={d} workers={workers}"):
                self._census(p, "table", g, d, workers, self.size["table_segment"])
                p.pairs += 1
        if segment_rows:
            for g, d in self.segment_rows:
                self._checkpointed(p, g, d, workers)

    def _checkpointed(self, p: Pass, g: int, d: int, workers: int) -> None:
        """One row in small segments with a fresh checkpoint, then a resume from it."""
        seg = self.size["small_segment"]
        path = self.out_dir / f"checkpoint-{os.getpid()}-{g}-{d}.jsonl"
        path.unlink(missing_ok=True)
        try:
            with p.operation(f"run_census g={g} d={d} segment={seg} checkpoint"):
                first = self._census(p, "seg", g, d, workers, seg, path)
                p.pairs += 1
            records = path.read_bytes() if path.exists() else b""
            p.add("checkpoint_records", records.count(b"\n"))
            p.add("checkpoint_bytes", len(records))
            with p.operation(f"run_census g={g} d={d} segment={seg} resume"):
                again = self._census(p, "resume", g, d, workers, seg, path)
                check(again.segments == first.segments, "resumed segments differ from the first run")
        finally:
            path.unlink(missing_ok=True)

    def _census(self, p: Pass, part: str, g: int, d: int, workers: int, segment_size: int,
                checkpoint: Path | None = None):
        """Run one census and gate its totals; time and counts go into p.stats under part."""
        config = census.CensusConfig(
            g=base.as_base(g), d=d, x_limit=self.x, segment_size=segment_size,
            worker_count=workers, checkpoint_path=checkpoint,
        )
        cpu0 = cpu_times()
        t0 = time.perf_counter()
        result = census.run_census(config)
        wall = time.perf_counter() - t0
        cpu1 = cpu_times()
        key = ref_key(g, d)
        check(key in self.counts, f"no reference count for {key} at x={self.x}")
        got = [result.counted, result.considered]
        check(got == self.counts[key], f"(counted, considered) {got} != reference {self.counts[key]}")
        check(result.considered == self.expected_considered[key],
              f"considered {result.considered} != pi(x) - 1 - #odd primes of g")
        if part == "resume":
            p.add("resume_s", wall)
        else:
            p.add(f"{part}.run_wall", wall)
            p.add(f"{part}.parent_cpu", cpu1[0] - cpu0[0])
            p.add(f"{part}.worker_cpu", cpu1[1] - cpu0[1])
            p.add(f"{part}.segments", len(result.segments))
            p.add(f"{part}.considered", result.considered)
            p.add("counted", result.counted)
            p.primes += result.considered
        return result

    def working_set(self) -> str:
        return (f"{_segment_mib(self.size['table_segment'], self.x):.2f} MiB per table-row segment, "
                f"{_segment_mib(self.size['small_segment'], self.x):.3f} MiB per small segment")


def _segment_mib(segment: int, x: int) -> float:
    """Computed MiB one segment's kernel touches: the odd-only sieve mask
    plus about ten int64 arrays over the segment's primes."""
    return (segment // 2 + 10 * 8 * segment / math.log(x)) / 2**20


class ExactSweep(Workload):
    """Exact verifiers, a seeded (g, d) sample through the exact-Fraction layers, and the CLI."""

    name = "exact_sweep"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        ix, fx = self.size["identity_x"], self.size["flip_x"]
        self.lhs = self.reference["key_identity"][str(ix)]
        verifiers = []
        for g, d in IDENTITY_PAIRS:
            bad = odd_primes_dividing(g, d) | {2}
            verifiers.append((g, d, self.reference["pi"][str(ix)] - sum(q <= ix for q in bad)))
        for g in FLIP_BASES:
            bad = odd_primes_dividing(g) | {2}
            verifiers.append((g, None, self.reference["pi"][str(fx)] - sum(q <= fx for q in bad)))
        self.verifiers = self.shuffled(verifiers)
        # Stratified by d: the cost of a pair depends mostly on d, so every
        # seed does about the same work while still drawing fresh bases.
        domain = sweep_domain()
        self.pairs = self.shuffled(
            (self.rng.choice(domain), d) for d in SWEEP_D for _ in range(self.size["sweep_per_d"])
        )
        self.rows = self.shuffled(tables.TABLE_POSITIVE + tables.TABLE_NEGATIVE)

    def warm_up(self) -> None:
        census.verify_key_identity(2, 2, 1_000)
        census.verify_order_flip(2, 1_000)
        for g in (Fraction(-4, 9), Fraction(-12)):
            density.density(g, 6)
            density.density_by_transfer(g, 6)
            kummer.series_partial(g, 6, 64)
        _run_cli(["oracle", "-g", "-9", "-d", "6", "--vmax", "64", "--format", "json"])

    def run_pass(self, p: Pass) -> None:
        """Hand the operations to WORKERS client processes, a closed loop in which
        each client takes the next operation when its last one is done.  Two
        clients rather than one because single-threaded timings on the 2-core
        host spread about twice as wide as two-process ones."""
        ops = ([("verify", v) for v in self.verifiers] + [("sweep", pair) for pair in self.pairs]
               + [("cli", row) for row in self.rows])
        # fork, so that clients start from this process's warm, cleared and
        # (in the traced run) patched state; the benchmark process has no threads.
        with ProcessPoolExecutor(WORKERS, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_init_client, initargs=(self,)) as pool:
            for done, spans in pool.map(_client_op, ops, chunksize=4):
                p.merge(done)
                if self.tracer is not None:
                    self.tracer.adopt(spans)

    def run_op(self, p: Pass, kind: str, item) -> None:
        if kind == "verify":
            self._verify(p, *item)
        elif kind == "sweep":
            g, d = item
            with p.operation(f"sweep g={g} d={d}"):
                delta = density.density(g, d).delta
                est = kummer.series_partial(g, d, SWEEP_VMAX)
                p.add("series_blocks", len(est.blocks))
                check(est.partial <= delta <= est.partial + est.tail_bound,
                      f"delta {delta} outside [{est.partial}, partial + {est.tail_bound}]")
                if g < 0:
                    via = density.density_by_transfer(g, d)
                    check(via == delta, f"transfer {via} != direct {delta}")
                p.pairs += 1
        else:
            with p.operation(f"cli g={item.g} d={item.d}"):
                self._check_cli_row(p, item)
                p.pairs += 1

    def _verify(self, p: Pass, g: int, d: int | None, checked: int) -> None:
        if d is None:
            with p.operation(f"verify_order_flip g={g}"):
                ok = census.verify_order_flip(g, self.size["flip_x"])
                check(ok is True, f"verify_order_flip returned {ok!r}")
        else:
            with p.operation(f"verify_key_identity g={g} d={d}"):
                report = census.verify_key_identity(g, d, self.size["identity_x"])
                p.add("identity_primes", checked)
                check(report.holds, f"identity fails: lhs {report.lhs} != rhs {report.rhs}")
                want = self.lhs[ref_key(g, d)]
                check(report.lhs == want, f"lhs {report.lhs} != reference {want}")
        p.pairs += 1
        p.primes += checked

    def _check_cli_row(self, p: Pass, row) -> None:
        g, d = str(row.g), str(row.d)
        report = density.density(row.g, row.d)
        check(report.delta == row.delta, f"density {report.delta} != table {row.delta}")
        got = _run_cli(["density", "-g", g, "-d", d, "--format", "json"])
        dec = report.decomposition
        want = {
            "g": str(dec.base), "d": row.d, "h": dec.h, "disc": dec.disc,
            "case_label": report.case_label, "gamma": report.gamma,
            "epsilon1": str(report.epsilon1), "s_factor": str(report.s_factor),
            "delta": str(report.delta),
        }
        check({k: got.get(k) for k in want} == want, f"CLI density {got} != library {want}")
        est = kummer.series_partial(row.g, row.d, SWEEP_VMAX)
        p.add("series_blocks", len(est.blocks))
        got = _run_cli(["oracle", "-g", g, "-d", d, "--vmax", str(SWEEP_VMAX), "--format", "json"])
        want = {
            "d": row.d, "vmax": SWEEP_VMAX, "partial": str(est.partial),
            "tail_bound": str(est.tail_bound), "delta": str(report.delta), "bracket": "PASS",
            "blocks": [{"v": v, "block": str(b)} for v, b in est.blocks],
        }
        check({k: got.get(k) for k in want} == want, "CLI oracle JSON != library values")

    def working_set(self) -> str:
        x = self.size["identity_x"]
        return (f"{8 * (x + 1) / 2**20:.2f} MiB smallest-prime-factor table (int64, x={x}); "
                "the sweep's Fractions and lru_caches are a few hundred KB")


_CLIENT: dict = {}


def _init_client(workload: ExactSweep) -> None:
    _CLIENT["workload"] = workload


def _client_op(op: tuple) -> tuple[Pass, list]:
    """Run one operation in a client; return its counters and the spans it recorded."""
    workload = _CLIENT["workload"]
    tracer = workload.tracer
    first = len(tracer.spans) if tracer is not None else 0
    p = Pass()
    workload.run_op(p, *op)
    return p, tracer.spans[first:] if tracer is not None else []


def _run_cli(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    check(code == 0, f"cli {' '.join(argv)} exited {code}")
    return json.loads(buf.getvalue())


WORKLOADS = {w.name: w for w in (CensusTable, ExactSweep)}


def clear_caches() -> None:
    """Start every pass from empty lru_caches, as a fresh process would."""
    arith._factorize_cached.cache_clear()
    kummer.degree_params.cache_clear()
