#!/usr/bin/env python3
"""The field-degree series as an independent oracle for the closed form.

The density equals a double sum of mu(alpha)/[Q(zeta_dv, g^(1/alpha v)) : Q]
over v | d^inf and squarefree alpha | d.  Truncating the v-sum gives a lower
bound; adding the rigorous tail bound gives an upper bound.  The bracket
must contain the closed-form value at every truncation point.  The tail is
the exact weighted remainder over the omitted v | d^inf, so it drops at
each such v that vmax passes (for d = 6: at every power of 2 or 3).
"""

from orddiv import density, series_partial

for g, d in ((2, 2), (-9, 6)):
    delta = density(g, d).delta
    print(f"g = {g}, d = {d}: exact density {delta} ~ {float(delta):.10f}")
    print(f"{'vmax':>8} {'partial':>14} {'partial+tail':>14} {'width':>12} bracket")
    for k in range(0, 18, 3):
        est = series_partial(g, d, 2**k)
        lo, hi = est.partial, est.partial + est.tail_bound
        ok = "PASS" if lo <= delta <= hi else "FAIL"
        print(f"{2**k:>8} {float(lo):>14.10f} {float(hi):>14.10f} "
              f"{float(est.tail_bound):>12.2e} {ok}")
        assert lo <= delta <= hi
    print()

# the per-v blocks of the series are themselves meaningful: each one is a
# nonnegative Chebotarev density, and the first few carry almost all mass
est = series_partial(2, 2, 64)
print("per-v blocks for g = 2, d = 2:")
for v, block in est.blocks:
    print(f"  v = {v:3d}: block = {block}")
print(f"partial sum {est.partial}  (exact density 17/24 = {17 / 24:.10f})")
