"""Span tracing from outside the program, by wrapping module attributes.

A traced function is replaced at every fedtrend module attribute that holds
it, so calls made through names imported into other modules (for example
``baselines.compute_local_likelihood``) are recorded too.  Each call records
a span: name, start, end, parent span and the operation it belongs to.
Spans stay in memory until ``Tracer.write`` saves them once, at the end.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

#: Traced functions, by the module that defines them.
TRACED = {
    "corpus": ("load_corpus", "load_stopwords", "load_idf_table", "preprocess",
               "primary_keyword_set"),
    "bayes": ("compute_local_likelihood", "posterior_scores"),
    "baselines": ("pooled_likelihood", "centralized_oracle", "rank_by_total_count"),
    "secagg": ("make_shares", "combine_received", "aggregate", "validate_aggregate"),
    "netsim": ("run_round", "write_transcript"),
    "experiment": ("run_experiment", "write_outputs"),
    "cli": ("main",),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.distinct: dict[tuple[int, str], set] = defaultdict(set)  # (op, name)
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, key=None):
        spans, stack, distinct = self.spans, self._stack, self.distinct

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op]
            spans.append(span)
            if key is not None:
                distinct[self.op, name].add(key(*args, **kwargs))
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every ``TRACED`` function wherever ``modules`` hold it."""
        for owner, names in TRACED.items():
            for attr in names:
                fn = getattr(modules[owner], attr)
                name = f"{owner}.{attr}"
                key = (lambda doc, *a, **kw: doc.id) if attr == "primary_keyword_set" else None
                wrapper = self._wrap(fn, name, key)
                for module in modules.values():
                    for slot, value in list(vars(module).items()):
                        if value is fn:
                            self._restore.append((module, slot, value))
                            setattr(module, slot, wrapper)

    def uninstall(self) -> None:
        for module, slot, value in reversed(self._restore):
            setattr(module, slot, value)
        self._restore.clear()

    def per_op(self) -> dict[int, dict[str, dict[str, float]]]:
        """Per operation and span name: total seconds, self seconds, calls."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[int, dict] = defaultdict(
            lambda: defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        )
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            entry = out[op][name]
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            entry["calls"] += 1
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, handle)
