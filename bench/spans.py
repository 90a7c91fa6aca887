"""In-memory spans around calls into orddiv's modules, for the traced run.

A call is traced by replacing a function attribute in the module that looks
the call up (for example ``kummer.tail_bound``, which ``series_partial``
reads from its own module globals).  Only the benchmark process is patched;
orddiv's source is not touched.  Spans are kept in a list and written out
when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

LAYERS = ("census", "kummer", "density", "arith", "base", "cli")

# (module name, attribute, span name).  One function can be looked up from
# several modules; each lookup site is wrapped under the callee's span name.
TRACED_CALLS = (
    ("census", "run_census", "census.run_census"),
    ("census", "verify_key_identity", "census.verify_key_identity"),
    ("census", "verify_order_flip", "census.verify_order_flip"),
    ("kummer", "series_partial", "kummer.series_partial"),
    ("kummer", "tail_bound", "kummer.tail_bound"),
    ("density", "density", "density.density"),
    ("density", "density_by_transfer", "density.density_by_transfer"),
    ("cli", "main", "cli.main"),
    ("cli", "density", "density.density"),
    ("cli", "series_partial", "kummer.series_partial"),
    ("arith", "factorize", "arith.factorize"),
    ("base", "factorize", "arith.factorize"),
    ("density", "factorize", "arith.factorize"),
    ("census", "factorize", "arith.factorize"),
    ("kummer", "decompose", "base.decompose"),
    ("density", "decompose", "base.decompose"),
)


class Tracer:
    def __init__(self, modules: dict) -> None:
        self.modules = modules
        self.spans: list[list] = []  # [id, name, start_ns, end_ns, parent id, pass]
        self.pass_no = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> list:
        span = [len(self.spans), name, time.perf_counter_ns(), 0,
                self._stack[-1] if self._stack else None, self.pass_no]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[3] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def adopt(self, spans: list[list]) -> None:
        """Append spans recorded in a forked client process, renumbering their ids.

        A client's top-level spans point at the pass span it inherited at fork
        time; every other parent is a span of the same batch."""
        new_ids: dict[int, int] = {}
        for sid, name, start, end, parent, pass_no in spans:
            new_ids[sid] = len(self.spans)
            self.spans.append([new_ids[sid], name, start, end, new_ids.get(parent, parent), pass_no])

    def install(self) -> None:
        for module, attr, name in TRACED_CALLS:
            mod = self.modules[module]
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    @contextlib.contextmanager
    def pass_span(self, pass_no: int):
        self.pass_no = pass_no
        span = self._open("bench.pass")
        try:
            yield
        finally:
            self._close(span)

    def summary(self, pass_no: int) -> tuple[dict, dict, dict]:
        """(calls per span name, seconds per span name, self seconds per layer) for one pass."""
        spans = [s for s in self.spans if s[5] == pass_no]
        covered: dict[int, int] = defaultdict(int)
        for sid, _, start, end, parent, _ in spans:
            if parent is not None:
                covered[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_s = dict.fromkeys(LAYERS, 0.0)
        for sid, name, start, end, _, _ in spans:
            calls[name] += 1
            total[name] += (end - start) / 1e9
            layer = name.split(".")[0]
            if layer in self_s:
                self_s[layer] += (end - start - covered[sid]) / 1e9
        return calls, total, self_s

    def write(self, path, **labels) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, pass_no in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "pass": pass_no, **labels}) + "\n")
