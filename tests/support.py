"""Helpers shared by the test modules.

`exact_order` is the tests' oracle for orders: SymPy's `n_order`, which
shares no code with orddiv.  `reference_series` is the degree series summed
term by term from `kummer.degree`, the tests' reference for the degrees.
`run_python` starts a child interpreter that imports the orddiv under test.
"""

import os
import subprocess
import sys
from fractions import Fraction

from sympy.ntheory import n_order

import orddiv
from orddiv.arith import divisors_of_dinfty, euler_phi, squarefree_divisors
from orddiv.base import decompose
from orddiv.density import s_factor
from orddiv.kummer import SeriesEstimate, degree


def exact_order(g: int | Fraction, p: int) -> int | None:
    """ord_p(g) for an odd prime p, or None when p divides the numerator or denominator of g."""
    g = Fraction(g)
    g1, g2 = g.numerator, g.denominator
    if g1 * g2 % p == 0:
        return None
    return n_order(g1 * pow(g2, -1, p) % p, p)


def reference_series(g: int | Fraction, d: int, vmax: int) -> SeriesEstimate:
    """series_partial by its definition, one Fraction added at a time.

    Each v-block sums Fraction(mu, degree(d v, alpha v)), the partial sum
    adds the blocks, and the tail is 2h/phi(d) times the sum of 1/v^2 over
    the v | d^inf past vmax, which is d S(d, 1) less the terms up to vmax.
    """
    dec = decompose(g)
    blocks, partial, head = [], Fraction(0), Fraction(0)
    for v in divisors_of_dinfty(d, vmax):
        block = Fraction(0)
        for alpha, mu in squarefree_divisors(d):
            block += Fraction(mu, degree(d * v, alpha * v, dec))
        blocks.append((v, block))
        partial += block
        head += Fraction(1, v * v)
    tail = Fraction(2 * dec.h, euler_phi(d)) * (d * s_factor(d, 1) - head)
    return SeriesEstimate(d, vmax, partial, tail, tuple(blocks))


def run_python(*args: str, env: dict[str, str] | None = None, **kwargs) -> subprocess.CompletedProcess:
    """sys.executable with args, timed out after 60 s; env adds to os.environ.

    Output is captured as text unless kwargs redirect stdout.
    """
    if "stdout" not in kwargs:
        kwargs.update(capture_output=True, text=True)
    env = dict(os.environ, **(env or {}), PYTHONPATH=os.path.dirname(os.path.dirname(orddiv.__file__)))
    return subprocess.run([sys.executable, *args], env=env, timeout=60, **kwargs)
