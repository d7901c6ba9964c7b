"""Per-layer spans and counts, recorded from outside the program.

A wrapper is built once around every public function of the measured modules
and installed at every module attribute of the package that refers to it, so
the package's own internal calls (``model.cholesky_lower``,
``measures.cholesky_lower``, ...) pass through it. Spans are kept in memory as
(op, span, parent, name, start, end) and written out when the run ends.

Self time of a span is its duration minus the durations of its direct child
spans. The root span of an op is ``cli.main``, so ``cli.self_s`` is op time
minus every wrapped span below it.

Generator functions (``loops.iter_loops``) run only while their consumer
resumes them, so they are counted but not timed: their work is self time of
the wrapped function that iterates them.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from array import array

LAYERS = ("cli", "model", "_linalg", "measures", "sampling", "loops")


def metric_layer(module: str) -> str:
    """Metric names must start with a letter, so ``_linalg`` is reported as ``linalg``."""
    return module.lstrip("_")


class Tracer:
    """Wrappers, a span store and per-op counters for one traced run.

    Spans are recorded on the thread that created the tracer; a wrapped call
    made on any other thread runs untimed and is counted in ``off_thread``.
    """

    def __init__(self, package: str, targets, result_counters=None):
        self.package = package
        self.names: list[str] = []
        self.generators: set[str] = set()
        self.sites: dict[str, list[str]] = {}
        self.off_thread = 0
        self._result_counters = dict(result_counters or {})
        self._thread = threading.get_ident()
        self._stack: list = []
        self._span_ids = itertools.count()
        # span columns: op, span id, parent span id, name id, start, end
        self._columns = (array("i"), array("q"), array("q"), array("i"), array("d"), array("d"))
        self._wrappers = {}
        self._saved = []
        self.begin_op(-1)
        for layer in LAYERS:
            module = sys.modules.get(f"{package}.{layer}")
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                name = f"{metric_layer(layer)}.{attr}"
                self._wrappers[obj] = (name, self._wrap(name, obj))
        self.missing = sorted(set(targets) - set(self.names))

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self.sites[name] = []
        tracer = self
        if inspect.isgeneratorfunction(fn):
            self.generators.add(name)

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.calls[nid] += 1
                return fn(*args, **kwargs)

            return counted

        count_result = self._result_counters.get(name)
        stack, span_ids, thread = self._stack, self._span_ids, self._thread
        add_op, add_span, add_parent, add_name, add_start, add_end = (c.append for c in self._columns)
        perf_counter, get_ident = time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if get_ident() != thread:
                tracer.off_thread += 1
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            # frame: child seconds, span id, start
            frame = [0.0, next(span_ids), perf_counter()]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                child_s, span, start = frame
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                tracer.calls[nid] += 1
                tracer.self_s[nid] += duration - child_s
                add_op(tracer.op)
                add_span(span)
                add_parent(-1 if parent is None else parent[1])
                add_name(nid)
                add_start(start)
                add_end(end)
            if count_result is not None:
                tracer.counters[name] = tracer.counters.get(name, 0) + count_result(result)
            return result

        return traced

    def install(self) -> None:
        """Replace every package attribute that refers to a wrapped function."""
        modules = [m for n, m in list(sys.modules.items()) if n == self.package or n.startswith(self.package + ".")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    name, wrapper = self._wrappers[obj]
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrapper)
                    site = f"{module.__name__}.{attr}"
                    if site not in self.sites[name]:
                        self.sites[name].append(site)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, obj = self._saved.pop()
            setattr(module, attr, obj)

    def begin_op(self, op: int) -> None:
        self.op = op
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counters: dict[str, float] = {}

    def end_op(self) -> dict:
        """Calls, self seconds and result counters of the op that just ended."""
        out = {
            "calls": {n: c for n, c in zip(self.names, self.calls) if c},
            "self_s": {n: s for n, c, s in zip(self.names, self.calls, self.self_s) if c and n not in self.generators},
            "counters": dict(self.counters),
        }
        self.begin_op(-1)
        return out

    @property
    def span_count(self) -> int:
        return len(self._columns[0])

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("op\tspan\tparent\tname\tstart_s\tend_s\n")
            for op, span, parent, nid, start, end in zip(*self._columns):
                fh.write(f"{op}\t{span}\t{parent}\t{self.names[nid]}\t{start:.9f}\t{end:.9f}\n")
