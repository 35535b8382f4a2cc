"""In-memory span tracing for the benchmark's traced run.

A span is ``[name, start, end, parent, instance]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``instance`` the workload instance it
belongs to. The pipelines open spans around their own public calls through
``Tracer.call``. Calls nested inside the program are reached by replacing
module attributes with wrappers (``patched``), which is done only for the
traced pass and undone after it. Untraced runs use ``NULL``, whose ``call``
adds nothing but one Python call.
"""

from __future__ import annotations

import contextlib
import functools
import json
import logging
from collections import Counter, defaultdict
from time import perf_counter


class _NullTracer:
    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


NULL = _NullTracer()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.instance = -1
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.instance]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, count=None):
        """``fn`` behind a span; ``count(counts, args)`` records work done."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(self.counts, args)
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def dump(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "instance"],
                       "names": names,
                       "spans": [[index[n], a, b, p, i] for n, a, b, p, i in self.spans]},
                      fh, separators=(",", ":"))


class _AugmentCounter(logging.Handler):
    """Counts the ``augment`` debug records of the min-cost flow solver."""

    def __init__(self, counts: Counter):
        super().__init__(logging.DEBUG)
        self.counts = counts

    def emit(self, record):
        if record.msg.startswith("augment"):
            self.counts["solvers.min_cost_flow.augmentations"] += 1


def _count_arcs(counts, args):
    counts["solvers.min_cost_flow.arcs"] += len(args[0].arcs)


def _count_points(counts, args):
    counts["currents.field_points"] += args[1].size // 2


@contextlib.contextmanager
def patched(tr: Tracer):
    """Route the nested engine calls through ``tr`` for the duration."""
    import current1d.approximation as approximation
    import current1d.currents as currents
    import current1d.flatnorm as flatnorm
    import current1d.homotopy as homotopy
    import current1d.transport as transport

    targets = [
        (transport, "min_cost_flow", "solvers.min_cost_flow", _count_arcs),
        (flatnorm, "simplex_lp", "solvers.simplex_lp", None),
        (approximation, "cluster", "approximation.cluster", None),
        (approximation, "interpolate_geodesic", "homotopy.interpolate_geodesic", None),
        (approximation, "d_inf", "currents.d_inf", None),
        (homotopy, "d_inf", "currents.d_inf", None),
        (currents, "d_inf", "currents.d_inf", None),
        (currents.ScalarField, "value", "currents.ScalarField.value", _count_points),
        (currents.ScalarField, "grad", "currents.ScalarField.grad", _count_points),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
    log = logging.getLogger("current1d.solvers")
    handler = _AugmentCounter(tr.counts)
    old_level, old_propagate = log.level, log.propagate
    try:
        for owner, attr, name, count in targets:
            setattr(owner, attr, tr.wrap(name, getattr(owner, attr), count))
        log.addHandler(handler)
        log.setLevel(logging.DEBUG)
        log.propagate = False
        yield tr
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
        log.removeHandler(handler)
        log.setLevel(old_level)
        log.propagate = old_propagate


def layer_times(spans: list[list]) -> tuple[dict, dict, float]:
    """Busy and self seconds per span name, and the top-level span total.

    Busy time counts only the outermost span of a name, so a layer that
    re-enters itself is not counted twice. A ``solvers.min_cost_flow`` span
    is also booked as ``.dense`` under ``transport.ae_norm`` and as
    ``.sparse`` under ``transport.minimal_filling``.
    """
    child = defaultdict(float)
    for name, a, b, parent, _ in spans:
        if parent >= 0:
            child[parent] += b - a
    busy, self_s = defaultdict(float), defaultdict(float)
    top = 0.0
    for k, (name, a, b, parent, _) in enumerate(spans):
        dur = b - a
        self_s[name] += dur - child[k]
        if parent < 0:
            top += dur
        p, nested = parent, False
        while p >= 0:
            if spans[p][0] == name:
                nested = True
                break
            p = spans[p][3]
        if nested:
            continue
        busy[name] += dur
        if name == "solvers.min_cost_flow" and parent >= 0:
            kind = {"transport.ae_norm": "dense",
                    "transport.minimal_filling": "sparse"}.get(spans[parent][0])
            if kind:
                busy[f"{name}.{kind}"] += dur
    return busy, self_s, top
