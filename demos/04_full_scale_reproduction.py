#!/usr/bin/env python3
"""Full-scale reproduction of the bundled reference tables (long run).

Re-runs the original experiment: census every table row up to the 10^8-th
prime, 2038074743, and compare with both the exact density and the ratio
recorded in the source tables.  The recorded ratio divides by pi(x), every
prime up to x (2 and the primes dividing g included), so it is printed next
to counted / pi(x); the density is compared with counted / considered.
Row timings at this scale are in BENCH_census.json (record class_read, key
full_scale); each row is checkpointed, so the script can be interrupted and
re-run at will.

    python demos/04_full_scale_reproduction.py [checkpoint_dir]

For a quicker taste, lower X below (e.g. 10**8 finishes in minutes).
"""

import pathlib
import sys
from fractions import Fraction

from orddiv import CensusConfig, RationalBase, run_census
from orddiv.arith import factorize
from orddiv.cli import decimal_string
from orddiv.tables import FULL_SCALE_X, TABLE_NEGATIVE, TABLE_POSITIVE

X = FULL_SCALE_X
checkpoint_dir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "full_scale_checkpoints")
checkpoint_dir.mkdir(exist_ok=True)

print(f"census of all 16 table rows up to x = {X}")
print(f"checkpoints in {checkpoint_dir}/ (safe to interrupt and restart)")
print(
    f"{'g':>4} {'d':>3} {'counted/pi(x)':>13} {'recorded':>12} "
    f"{'counted/cons.':>13} {'delta':>12} {'|ratio-delta|':>14}"
)
for row in TABLE_POSITIVE + TABLE_NEGATIVE:
    config = CensusConfig(
        g=RationalBase(row.g, 1),
        d=row.d,
        x_limit=X,
        segment_size=5 * 10**7,
        worker_count=2,
        checkpoint_path=checkpoint_dir / f"g{row.g}_d{row.d}.jsonl",
    )
    result = run_census(config)
    # the census leaves out 2 and the odd primes dividing g; pi(x) counts them
    pi_x = result.considered + 1 + sum(p != 2 for p in factorize(abs(row.g)).primes())
    ratio = result.ratio
    print(
        f"{row.g:>4} {row.d:>3} {decimal_string(Fraction(result.counted, pi_x)):>13} "
        f"{row.experimental:>12} {decimal_string(ratio):>13} {decimal_string(row.delta):>12} "
        f"{decimal_string(abs(ratio - row.delta)):>14}"
    )
