"""orddiv benchmark: time calls into orddiv's public functions, check every output exactly.

    python3 bench/run.py --workload census_table --seed 1 --seconds 45 --trace 0

Run from (or inside) a checkout of the repository: orddiv is imported from
the checkout's ``src/``, never from an installed copy, and the command exits
non-zero without a result when ``src/orddiv`` is missing.

Load: a closed loop on the machine's 2 cores, with nothing else running.  On
census_table one process makes the census calls one after another, each
``run_census`` with 2 pool workers; on exact_sweep 2 client processes each
take the next operation when their last one is done.

Warm-state policy: all passes of a run happen in one warm process.  Import of
orddiv and numpy, input generation and a small warm-up call into each layer
the workload uses are set-up, timed as ``setup_s``: the median over this
process and four fresh child processes that repeat the same set-up.  Before
every pass the lru_caches ``arith._factorize_cached`` and
``kummer.degree_params`` are cleared and the garbage collector runs, so each
pass does the same work a fresh process would.  The census process pool is
started inside every ``run_census`` call and stays in ``wall_s``, because
users pay it on every call; exact_sweep's two clients are forked at the start
of every pass, also inside ``wall_s``.

Passes repeat while another pass is expected to end within ``--seconds``
(at least one pass); each end-to-end figure is the median over passes.  With
``--trace 1`` the run makes one untraced pass, then traced passes for
``--seconds``, then (on ``census_table``) one untraced 1-worker pass over the
table rows for ``census.scaling_eff_2w``, and prints the per-layer metrics;
spans go to ``bench/out/trace-<workload>-seed<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and units
come from ``BENCHMARK.json`` at the root of the checkout.  Any failed
operation makes the exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_CHILDREN = 4


def load_workloads():
    """Import orddiv from the checkout's src/ and return the workloads module."""
    src = ROOT / "src"
    if not (src / "orddiv" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'orddiv'} not found; run inside a checkout of orddiv")
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401  (its import is part of set-up)

    workloads = importlib.import_module("workloads")
    loaded = Path(workloads.census.__file__).resolve().parent
    if loaded != (src / "orddiv").resolve():
        raise SystemExit(f"error: orddiv was imported from {loaded}, not from {src}")
    return workloads


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(args):
    """Import, build inputs and warm up; returns (workloads module, workload, seconds taken)."""
    t0 = time.perf_counter()
    wl_mod = load_workloads()
    if args.workload not in wl_mod.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(wl_mod.WORKLOADS)}")
    reference = json.loads((BENCH / "reference.json").read_text())
    size = wl_mod.SIZES["smoke" if args.smoke else "full"]
    workload = wl_mod.WORKLOADS[args.workload](args.seed, size, reference, OUT)
    workload.warm_up()
    return wl_mod, workload, time.perf_counter() - t0


def repeat_set_up(args, n: int) -> list[float]:
    """Set-up seconds measured in n fresh child processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(n):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
        times.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
    return times


def timed_pass(wl_mod, workload, tracer=None, pass_no=0, **kwargs):
    wl_mod.clear_caches()
    gc.collect()
    p = wl_mod.Pass()
    cpu0 = sum(wl_mod.cpu_times())
    t0 = time.perf_counter()
    with tracer.pass_span(pass_no) if tracer else contextlib.nullcontext():
        workload.run_pass(p, **kwargs)
    p.wall = time.perf_counter() - t0
    p.cpu = sum(wl_mod.cpu_times()) - cpu0
    return p


def repeat_passes(wl_mod, workload, seconds: float, tracer=None) -> list:
    """Passes until another one would end after `seconds` (at least one)."""
    passes = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start
                         + statistics.median(p.wall for p in passes) <= seconds):
        passes.append(timed_pass(wl_mod, workload, tracer, len(passes)))
    return passes


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the peak of its largest reaped worker, in MiB.

    This is not the peak of the summed process tree: ru_maxrss of
    RUSAGE_CHILDREN is the largest single child's peak, so a second worker
    running at the same time is left out, and pages a forked worker shares
    with this process are counted in both terms (ru_maxrss is KiB)."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (me + kids) / 1024


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(p, calls, total, self_s, workers: int) -> dict:
    """Per-layer figures of one traced pass.  Census figures split the pass into
    its table rows (10^7-wide segments: kernel cost) and its checkpointed rows
    (10^4-wide segments: per-segment cost); resumed runs count only in resume_s."""
    s = p.stats.get
    segments = s("table.segments", 0) + s("seg.segments", 0)
    table_cpu = s("table.parent_cpu", 0.0) + s("table.worker_cpu", 0.0)
    m = {
        "census.run_census.calls": calls["census.run_census"],
        "census.run_census.s": total["census.run_census"],
        "census.segments_computed": segments,
        "census.primes_considered": s("table.considered", 0) + s("seg.considered", 0),
        "census.primes_counted": s("counted", 0),
        "census.cpu_ns_per_prime": ratio(1e9 * table_cpu, s("table.considered", 0)),
        "census.ms_per_segment": ratio(1e3 * s("seg.run_wall", 0.0), s("seg.segments", 0)),
        "census.parent_cpu_s": s("seg.parent_cpu", 0.0),
        "census.pool_busy_frac": ratio(s("table.worker_cpu", 0.0), s("table.run_wall", 0.0) * workers),
        "census.checkpoint_records": s("checkpoint_records", 0),
        "census.checkpoint_bytes": s("checkpoint_bytes", 0),
        "census.resume_s": s("resume_s", 0.0),
        "census.verify_key_identity.s": total["census.verify_key_identity"],
        "census.verify_key_identity.us_per_prime":
            ratio(1e6 * total["census.verify_key_identity"], s("identity_primes", 0)),
        "census.verify_order_flip.s": total["census.verify_order_flip"],
        "kummer.series_partial.calls": calls["kummer.series_partial"],
        "kummer.series_partial.s": total["kummer.series_partial"],
        "kummer.series_partial.blocks": s("series_blocks", 0),
        "kummer.tail_bound.s": total["kummer.tail_bound"],
        "density.density.s": total["density.density"],
        "density.density_by_transfer.s": total["density.density_by_transfer"],
        "arith.factorize.calls": calls["arith.factorize"],
        "arith.factorize.s": total["arith.factorize"],
        "base.decompose.calls": calls["base.decompose"],
        "base.decompose.s": total["base.decompose"],
        "cli.main.calls": calls["cli.main"],
        "cli.main.s": total["cli.main"],
    }
    m.update({f"{layer}.self_s": v for layer, v in self_s.items()})
    return m


def median_of(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def traced_run(args, wl_mod, workload) -> tuple[list, list, dict]:
    """One untraced pass, traced passes for --seconds, and on census_table an
    untraced 1-worker pass; returns (traced passes, other passes, per-layer values)."""
    spans_mod = importlib.import_module("spans")
    baseline = timed_pass(wl_mod, workload)
    tracer = spans_mod.Tracer({name: getattr(wl_mod, name) for name in spans_mod.LAYERS})
    tracer.install()
    workload.tracer = tracer
    try:
        passes = repeat_passes(wl_mod, workload, args.seconds, tracer)
    finally:
        workload.tracer = None
        tracer.uninstall()
    values = median_of([layer_metrics(p, *tracer.summary(i), wl_mod.WORKERS)
                        for i, p in enumerate(passes)])
    traced_wall = statistics.median(p.wall for p in passes)
    values["trace.overhead_frac"] = (traced_wall - baseline.wall) / baseline.wall
    values["census.scaling_eff_2w"] = 0.0
    extra = [baseline]
    if isinstance(workload, wl_mod.CensusTable):
        single = timed_pass(wl_mod, workload, workers=1, segment_rows=False)
        extra.append(single)
        values["census.scaling_eff_2w"] = (
            single.stats["table.run_wall"] / (2 * baseline.stats["table.run_wall"]))
    path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(path, workload=args.workload, seed=args.seed)
    print(f"# untraced pass wall (s): {baseline.wall:.3f}; spans written to {path}")
    return passes, extra, values


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        print(json.dumps({"setup_s": set_up(args)[2]}))
        return 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl_mod, workload, first_setup = set_up(args)
    OUT.mkdir(exist_ok=True)
    print(f"# orddiv benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={'smoke' if args.smoke else 'full'}")
    print(f"# machine: nproc={os.cpu_count()} arch={platform.machine()} "
          f"python={platform.python_version()} numpy={sys.modules['numpy'].__version__}")
    print(f"# working set: {workload.working_set()}")
    if args.trace:
        passes, extra, values = traced_run(args, wl_mod, workload)
        metric_specs = declared["per_layer"]
    else:
        passes, extra = repeat_passes(wl_mod, workload, args.seconds), []
        metric_specs = declared["end_to_end"]
        values = {
            "wall_s": statistics.median(p.wall for p in passes),
            "pairs_per_s": statistics.median(p.pairs / p.wall for p in passes),
            "primes_per_s": statistics.median(p.primes / p.wall for p in passes),
            "cpu_s": statistics.median(p.cpu for p in passes),
            "peak_rss_mb": peak_rss_mb(),  # before the set-up children below
        }
        values["setup_s"] = statistics.median([first_setup] + repeat_set_up(args, SETUP_CHILDREN))
    print(f"# passes: {len(passes)}, wall (s): " + " ".join(f"{p.wall:.3f}" for p in passes))

    attempted = sum(p.attempted for p in passes + extra)
    failed = sum(p.failed for p in passes + extra)
    for p in passes + extra:
        for line in p.failures:
            print(f"FAILED {line}", file=sys.stderr)
    metrics = {}
    for spec in metric_specs:
        metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
        print(f"{spec['name']:<40} {values[spec['name']]:.10g} {spec['unit']}")
    print(f"{'failed_frac':<40} {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
