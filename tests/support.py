"""Helpers shared by the test modules.

`exact_order` is the tests' oracle for orders: SymPy's `n_order`, which
shares no code with orddiv.  `run_python` starts a child interpreter that
imports the orddiv under test.
"""

import os
import subprocess
import sys
from fractions import Fraction

from sympy.ntheory import n_order

import orddiv


def exact_order(g: int | Fraction, p: int) -> int | None:
    """ord_p(g) for an odd prime p, or None when p divides the numerator or denominator of g."""
    g = Fraction(g)
    g1, g2 = g.numerator, g.denominator
    if g1 * g2 % p == 0:
        return None
    return n_order(g1 * pow(g2, -1, p) % p, p)


def run_python(*args: str, env: dict[str, str] | None = None, **kwargs) -> subprocess.CompletedProcess:
    """sys.executable with args, timed out after 60 s; env adds to os.environ.

    Output is captured as text unless kwargs redirect stdout.
    """
    if "stdout" not in kwargs:
        kwargs.update(capture_output=True, text=True)
    env = dict(os.environ, **(env or {}), PYTHONPATH=os.path.dirname(os.path.dirname(orddiv.__file__)))
    return subprocess.run([sys.executable, *args], env=env, timeout=60, **kwargs)
