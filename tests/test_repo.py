"""Checks on files outside the package that name its API.

The README's library quick start is run as written, and the benchmark's
by-name hooks (``bench/spans.py`` wraps module attributes, ``bench/workloads.py``
clears lru_caches) must find every name they look up.
"""

import importlib
import importlib.util
import re
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_quick_start():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\s+```python\n(.*?)```", readme, re.S).group(1)
    ns: dict = {}
    exec(block, ns)
    report, est = ns["report"], ns["est"]
    assert report.delta == Fraction(11, 32)
    assert report.epsilon1 == Fraction(11, 4)
    assert report.case_label == "2||d-disc"
    assert est.partial <= report.delta <= est.partial + est.tail_bound


def test_bench_hooks_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, attr, _ in spans.TRACED_CALLS:
        assert callable(getattr(importlib.import_module(f"orddiv.{module}"), attr, None)), (module, attr)
    # the caches bench/workloads.py's clear_caches empties before every pass
    for module, attr in (("arith", "_factorize_cached"), ("kummer", "degree_params")):
        assert callable(getattr(importlib.import_module(f"orddiv.{module}"), attr).cache_clear)
