"""Checks on files outside the package that name its API.

The README's library quick start is run as written, demo 04 is run up to its
first census, and the benchmark's by-name hooks (``bench/spans.py`` wraps
module attributes, ``bench/workloads.py`` clears lru_caches) must find every
name they look up.
"""

import importlib
import importlib.util
import re
import runpy
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import orddiv
from orddiv.tables import FULL_SCALE_X

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


def test_demo_04_starts_the_full_scale_census(tmp_path, monkeypatch):
    # CI's demo step skips demo 04, so this shows its imports resolve and its
    # loop reaches the census of the first table row at full scale
    class Started(Exception):
        pass

    configs = []

    def record(config):
        configs.append(config)
        raise Started

    monkeypatch.setattr(orddiv, "run_census", record)
    monkeypatch.setattr(sys, "argv", ["04_full_scale_reproduction.py", str(tmp_path)])
    with pytest.raises(Started):
        runpy.run_path(str(ROOT / "demos" / "04_full_scale_reproduction.py"), run_name="__main__")
    [config] = configs
    assert (config.g, config.d, config.x_limit) == (orddiv.RationalBase(2, 1), 2, FULL_SCALE_X)
    assert config.checkpoint_path.parent == tmp_path


def test_bench_hooks_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, attr, _ in spans.TRACED_CALLS:
        assert callable(getattr(importlib.import_module(f"orddiv.{module}"), attr, None)), (module, attr)
    # the caches bench/workloads.py's clear_caches empties before every pass
    for module, attr in (("arith", "_factorize_cached"), ("kummer", "degree_params")):
        assert callable(getattr(importlib.import_module(f"orddiv.{module}"), attr).cache_clear)
