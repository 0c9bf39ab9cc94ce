"""In-memory span tracing of named sgfp functions.

A span is ``[name, start, end, parent, call]``: ``parent`` is the index of
the enclosing traced span (-1 at top level) and ``call`` the index of the
CLI call that caused it, so spans of one call share an identifier. Spans
stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import Counter


class Tracer:
    """Wraps ``module.function`` targets of the sgfp package.

    A function is often imported by name into other modules (``delta`` is
    bound in ``graph``, ``metrics``, ``classify``, ``lp`` and
    ``experiments``), so the wrapper replaces every binding of the original
    object in every loaded ``sgfp`` module. A target that no longer exists
    is skipped and reports zero calls.
    """

    def __init__(self, targets):
        self.targets = list(targets)
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.call = -1
        self.scales: list[float] = []  # per call: rescaled / wall latency
        self._stack: list[int] = []
        self._patched: list[tuple[dict, str, object]] = []

    def install(self) -> None:
        originals = {}
        for target in self.targets:
            module_name, func_name = target.rsplit(".", 1)
            try:
                module = importlib.import_module(f"sgfp.{module_name}")
            except ImportError:
                continue
            fn = getattr(module, func_name, None)
            if callable(fn):
                originals[id(fn)] = self._wrap(target, fn)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "sgfp" or name.startswith("sgfp.")):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    namespace[attr] = wrapper
                    self._patched.append((namespace, attr, value))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            namespace[attr] = original
        self._patched.clear()

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        is_solve = name == "lp.solve"  # also count iterations and infeasible results
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.call]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if is_solve:
                counters["lp.solve.iterations"] += getattr(result, "iterations", 0) or 0
                counters["lp.solve.infeasible"] += getattr(result, "status", None) == "infeasible"
            return result

        return traced

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per target: (calls, self seconds); self = span minus child spans,
        rescaled by the factor of the CLI call the span belongs to."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {target: (0, 0.0) for target in self.targets}
        for i, (name, start, end, _, call) in enumerate(spans):
            scale = self.scales[call] if 0 <= call < len(self.scales) else 1.0
            calls, self_s = out[name]
            out[name] = (calls + 1, self_s + scale * ((end - start) - child[i]))
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
