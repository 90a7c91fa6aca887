"""Command-line surface: exact densities, series oracle, census, verification.

Subcommands
-----------
density   exact closed-form density report for one (g, d)
table     the bundled 16-row reference tables (2 = positive g, 3 = negative g)
oracle    degree series, exact and as a bracket, checked against the closed form
census    segmented prime census of d | ord_p(g) up to x (checkpointable)
verify    exact finite-x identity between the order count and the
          Mobius-weighted residual-index census

Exit codes: 0 success, 1 verification, bracket or exact-sum failure, checkpoint
error or closed output pipe, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from .base import RationalBase, as_base, decompose
from .census import CensusConfig, CheckpointError, run_census, verify_key_identity
from .density import density
from .kummer import series_exact, series_partial
from .tables import FOOTNOTES, table_rows

__all__ = ["main", "decimal_string"]


def decimal_string(q: Fraction) -> str:
    """Exact decimal rendering of a rational to 8 places, round-half-even."""
    sign = "-" if q < 0 else ""
    q = abs(q)
    scale = 10**8
    n, r = divmod(q.numerator * scale, q.denominator)
    if 2 * r > q.denominator or (2 * r == q.denominator and n % 2 == 1):
        n += 1
    whole, frac = divmod(n, scale)
    return f"{sign}{whole}.{frac:08d}"


def _parse_g(text: str) -> RationalBase:
    try:
        return as_base(Fraction(text))
    except ZeroDivisionError:  # its own message is only "Fraction(2, 0)"
        raise argparse.ArgumentTypeError(f"the denominator of {text!r} is zero") from None
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _thread_count(text: str) -> int:
    try:
        return _positive_int(text)
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentTypeError(f"{exc} (the default comes from ORDDIV_THREADS)")


# ---------------------------------------------------------------------------
# subcommands: each builds its rows, text lines and JSON document for _emit
# ---------------------------------------------------------------------------


def _emit(fmt: str, rows: list[dict], text: list[str], doc: dict | None = None) -> None:
    """Print rows as CSV, doc (by default the single row) as JSON, or the text lines."""
    if fmt == "json":
        print(json.dumps(rows[0] if doc is None else doc, indent=2))
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        print(buf.getvalue().rstrip("\n"))
    else:
        print("\n".join(text))


def _density_command(args) -> int:
    report = density(args.g, args.d)
    dec = report.decomposition
    payload = {
        "g": str(dec.base),
        "d": report.d,
        "g0": str(dec.g0),
        "h": dec.h,
        "disc": dec.disc,
        "case_label": report.case_label,
        "gamma": report.gamma,
        "epsilon1": str(report.epsilon1),
        "s_factor": str(report.s_factor),
        "delta": str(report.delta),
        "delta_decimal": decimal_string(report.delta),
    }
    lines = [
        f"g        = {payload['g']}",
        f"d        = {payload['d']}",
        f"g0       = {payload['g0']}   h = {payload['h']}   disc = {payload['disc']}",
        f"case     = {payload['case_label']}"
        + (f"   gamma = {payload['gamma']}" if payload["gamma"] is not None else ""),
        f"epsilon1 = {payload['epsilon1']}",
        f"S(d,h)   = {payload['s_factor']}",
        f"delta    = {payload['delta']} = {payload['delta_decimal']}",
    ]
    _emit(args.format, [payload], lines)
    return 0


def _table_command(args) -> int:
    rows = []
    notes_used = []
    for row in table_rows(args.which):
        rows.append(
            {
                "g": row.g,
                "g0": str(Fraction(row.g0_num, row.g0_den)),
                "h": row.h,
                "disc": row.disc,
                "d": row.d,
                "epsilon1": str(row.epsilon1),
                "delta": str(row.delta),
                "delta_decimal": decimal_string(row.delta),
                "experimental": row.experimental,
                "footnote": row.footnote or "",
            }
        )
        if row.footnote:
            notes_used.append(row.footnote)
    header = f"{'g':>4} {'g0':>4} {'h':>2} {'disc':>5} {'d':>3} {'eps1':>6} {'delta':>7} {'decimal':>11} {'full-scale':>11}"
    lines = [header, "-" * len(header)]
    for r in rows:
        mark = "*" if r["footnote"] else " "
        lines.append(
            f"{r['g']:>4} {r['g0']:>4} {r['h']:>2} {r['disc']:>5} {r['d']:>3} "
            f"{r['epsilon1']:>6} {r['delta']:>7} {r['delta_decimal']:>11} {r['experimental']:>11}{mark}"
        )
    for key in notes_used:
        lines.append(f"* {key}: {FOOTNOTES[key]}")
    doc = {"table": args.which, "rows": rows, "footnotes": {k: FOOTNOTES[k] for k in notes_used}}
    _emit(args.format, rows, lines, doc)
    return 0


def _oracle_command(args) -> int:
    dec = decompose(args.g)  # one factorization of g for all three routes
    estimate = series_partial(dec, args.d, args.vmax)
    delta = density(dec, args.d).delta
    exact = series_exact(dec, args.d)
    ok = estimate.partial <= delta <= estimate.partial + estimate.tail_bound
    payload = {
        "d": estimate.d,
        "vmax": estimate.vmax,
        "partial": str(estimate.partial),
        "partial_decimal": decimal_string(estimate.partial),
        "tail_bound": str(estimate.tail_bound),
        "delta": str(delta),
        "delta_decimal": decimal_string(delta),
        "exact": str(exact),
        "bracket": "PASS" if ok else "FAIL",
    }
    lines = [
        f"partial    = {payload['partial']} = {payload['partial_decimal']}  (over {len(estimate.blocks)} blocks, vmax={estimate.vmax})",
        f"tail bound ~ {float(estimate.tail_bound):.3e}",
        f"delta      = {payload['delta']} = {payload['delta_decimal']}",
        f"exact      = {payload['exact']}  ({'==' if exact == delta else '!='} delta, every v)",
        f"bracket    = {payload['bracket']}",
    ]
    blocks = [{"v": v, "block": str(b)} for v, b in estimate.blocks]
    _emit(args.format, [payload], lines, {**payload, "blocks": blocks})
    return 0 if ok and exact == delta else 1


def _census_command(args) -> int:
    config = CensusConfig(
        g=args.g,
        d=args.d,
        x_limit=args.x,
        segment_size=args.segment_size,
        worker_count=args.threads,
        checkpoint_path=args.checkpoint,
    )
    # density factors g and may never end on a huge one: run it first, so no count is lost
    delta = density(args.g, args.d).delta
    result = run_census(config)
    if result.considered == 0:
        raise ValueError(f"no odd prime p <= {args.x} is coprime to g = {args.g}")
    ratio = result.ratio
    payload = {
        "g": str(args.g),
        "d": args.d,
        "x": args.x,
        "counted": result.counted,
        "considered": result.considered,
        "ratio": decimal_string(ratio),
        "delta_exact": str(delta),
        "abs_error": decimal_string(abs(ratio - delta)),
    }
    lines = [
        f"counted    = {payload['counted']}",
        f"considered = {payload['considered']}",
        f"ratio      = {payload['ratio']}",
        f"delta      = {payload['delta_exact']} = {decimal_string(delta)}",
        f"|ratio-delta| = {payload['abs_error']}",
    ]
    _emit(args.format, [payload], lines)
    return 0


def _verify_command(args) -> int:
    report = verify_key_identity(args.g, args.d, args.x)
    payload = {
        "g": str(report.g),
        "d": report.d,
        "x": report.x,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "result": "PASS" if report.holds else "FAIL",
    }
    lines = [
        f"lhs (direct count of d | ord) = {report.lhs}",
        f"rhs (Mobius-weighted census)  = {report.rhs}",
        "blocks: " + "  ".join(f"v={v}:{c}" for v, c in report.blocks),
        f"result = {payload['result']}",
    ]
    blocks = [{"v": v, "count": c} for v, c in report.blocks]
    _emit(args.format, [payload], lines, {**payload, "blocks": blocks})
    return 0 if report.holds else 1


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orddiv",
        description="Densities of primes p for which d divides the order of g mod p.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("-g", type=_parse_g, required=True,
                       help="rational base, e.g. 2, -9, or 8/27; a negative "
                            "fraction takes the = form, -g=-3/5")
        p.add_argument("-d", type=_positive_int, required=True)
        p.add_argument("--format", choices=("text", "csv", "json"), default="text")

    p_density = sub.add_parser("density", help="exact closed-form density")
    add_common(p_density)
    p_density.set_defaults(run=_density_command)

    p_table = sub.add_parser("table", help="bundled reference tables")
    p_table.add_argument("which", type=int, choices=(2, 3))
    p_table.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_table.set_defaults(run=_table_command)

    p_oracle = sub.add_parser("oracle", help="degree series, exact and bracket, vs closed form")
    add_common(p_oracle)
    p_oracle.add_argument("--vmax", type=_positive_int, default=2**16)
    p_oracle.set_defaults(run=_oracle_command)

    p_census = sub.add_parser("census", help="prime census of d | ord_p(g)")
    add_common(p_census)
    p_census.add_argument("-x", type=_positive_int, required=True)
    # a string default goes through type= only when census parses, so a bad
    # value is a usage error of census alone
    p_census.add_argument(
        "--threads", type=_thread_count, default=os.environ.get("ORDDIV_THREADS", "1")
    )
    p_census.add_argument("--segment-size", type=_positive_int, default=CensusConfig.segment_size)
    p_census.add_argument("--checkpoint", default=None)
    p_census.set_defaults(run=_census_command)

    p_verify = sub.add_parser("verify", help="finite-x counting identity check")
    add_common(p_verify)
    p_verify.add_argument("-x", type=_positive_int, required=True)
    p_verify.set_defaults(run=_verify_command)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe must fail here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull and exit quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
