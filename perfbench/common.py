"""Measurement helpers shared by the perfbench workloads.

* percentiles that refuse to report a tail the sample cannot support;
* the host-speed probe that rescales measured times to a nominal host speed;
* a digest of an engine's result stream, for the per-seed correctness gate;
* :class:`Tracer`, which records spans with parent links around the public
  entry points of the layers, installed from outside (the layers are not
  edited and no private state is read);
* the result line the benchmark prints last.
"""
from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import statistics
import time
from typing import Callable, Iterable

MIN_TAIL = 10  # samples that must lie beyond a reported tail percentile

# A shared host's core speed swings by up to 60% in phases of seconds to
# minutes (CPU time tracks wall time, and cores swing mostly independently).
# A fixed pure-Python probe, timed in the same thread between chunks of the
# measured work, tracks those swings; each chunk's times are multiplied by
# PROBE_NOMINAL_NS over the probe's time around it. PROBE_NOMINAL_NS is the
# probe's time in the fast phase of a 4-vCPU 2.1 GHz host (about its 5th
# percentile there), so rescaled times read as that host's at full speed.
PROBE_NOMINAL_NS = 370_000
PROBE_EVERY_NS = 100_000_000  # measured time between two probes


def _probe_kernel() -> int:
    d: dict = {}
    s: set = set()
    acc = 0
    for i in range(1500):
        k = (i % 97, i % 13)
        d[k] = d.get(k, 0) + 1
        if i % 3:
            s.add(k)
        else:
            s.discard(k)
        acc += len(k)
    return acc + len(d) + len(s)


def probe_ns() -> int:
    """Fastest of three runs of the fixed probe kernel, with the collector off.

    The fastest of three drops a run that an interrupt happened to hit.
    """
    clock = time.perf_counter_ns
    gc.disable()
    try:
        best = None
        for _ in range(3):
            t0 = clock()
            _probe_kernel()
            t = clock() - t0
            best = t if best is None or t < best else best
        return best
    finally:
        gc.enable()


def rescale(times: list, probes: list[tuple[int, int]]) -> list[float]:
    """``times`` at nominal host speed.

    ``probes`` holds ``(i, ns)`` pairs: a probe timed just before
    ``times[i]``, in order, the first at index 0 and the last at
    ``len(times)``. The times between two probes are scaled by
    ``PROBE_NOMINAL_NS`` over the mean of the two.
    """
    out: list[float] = []
    for (i, a), (j, b) in zip(probes, probes[1:]):
        f = 2 * PROBE_NOMINAL_NS / (a + b)
        out += [t * f for t in times[i:j]]
    return out


def median(samples: Iterable[float]) -> float:
    return statistics.median(samples)


def tail_percentile(samples: Iterable[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0.5 < q < 1``) of ``samples``.

    Raises ``ValueError`` when fewer than ``MIN_TAIL`` samples lie beyond
    it: such a tail is one or two outliers, not a percentile.
    """
    xs = sorted(samples)
    rank = math.ceil(q * len(xs))  # 1-based
    beyond = len(xs) - rank
    if not xs or beyond < MIN_TAIL:
        raise ValueError(
            f"p{q * 100:g} of {len(xs)} samples has {beyond} beyond it; "
            f"{MIN_TAIL} are needed"
        )
    return xs[rank - 1]


def result_digest(events: Iterable[tuple]) -> str:
    """Order-free SHA-256 of result events such as ``(ts, x, y, op)``."""
    h = hashlib.sha256()
    for e in sorted(events):
        h.update(repr(e).encode())
        h.update(b"\n")
    return h.hexdigest()


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (KiB on Linux) in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def print_result(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Human-readable metric lines, then the one-line JSON result (last)."""
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed,
             "metrics": metrics}
        ),
        flush=True,
    )


class Tracer:
    """Spans with parent links around calls into the layers under test.

    A span is ``[name, tag, parent, start_ns, end_ns]``; ``parent`` is the
    index of the span open when it started, so nested calls (``expire``
    inside ``process``) attribute time to the right layer. Spans stay in
    memory until the caller aggregates them. :meth:`close` removes every
    wrapper the tracer installed.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._undo: list[Callable[[], None]] = []

    def call(self, name: str, tag, fn: Callable, args, kwargs):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        span = [name, tag, parent, time.perf_counter_ns(), 0]
        self.spans.append(span)
        self._open.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            span[4] = time.perf_counter_ns()

    def wrap(self, obj, attr: str, name: str, tag: Callable | None = None,
             after: Callable | None = None) -> None:
        """Record a span around every call of ``obj.attr``.

        ``obj`` is an instance (the wrapper shadows the bound method and is
        deleted again by :meth:`close`) or a class (the class attribute is
        replaced and restored). ``tag(*args, **kwargs)`` labels the span;
        ``after(result)`` sees each return value.
        """
        is_class = isinstance(obj, type)
        orig = getattr(obj, attr)
        tracer = self

        def traced(*args, **kwargs):
            t = tag(*args[is_class:], **kwargs) if tag else None
            out = tracer.call(name, t, orig, args, kwargs)
            if after is not None:
                after(out)
            return out

        self._set(obj, attr, traced)

    def hook(self, cls: type, attr: str, before: Callable) -> None:
        """Call ``before(*args)`` ahead of every call of ``cls.attr``.

        For methods called too often for a span each (counters only).
        """
        orig = getattr(cls, attr)

        def hooked(*args, **kwargs):
            before(*args, **kwargs)
            return orig(*args, **kwargs)

        self._set(cls, attr, hooked)

    def _set(self, obj, attr: str, value) -> None:
        if isinstance(obj, type) and attr in obj.__dict__:
            orig = obj.__dict__[attr]
            self._undo.append(lambda: setattr(obj, attr, orig))
        else:  # instance attribute, or a method inherited by ``obj``
            self._undo.append(lambda: delattr(obj, attr))
        setattr(obj, attr, value)

    def close(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- aggregation ---------------------------------------------------

    def self_ns(self) -> list[int]:
        """Per span: its duration minus the durations of its direct children."""
        out = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[2] is not None:
                out[s[2]] -= s[4] - s[3]
        return out

    def total_s(self, name: str, tag=None, self_time: bool = False) -> float:
        """Summed (self) time of spans called ``name`` (and tagged ``tag``)."""
        durs = self.self_ns() if self_time else [s[4] - s[3] for s in self.spans]
        return sum(
            d for s, d in zip(self.spans, durs)
            if s[0] == name and (tag is None or s[1] == tag)
        ) / 1e9

    def calls(self, name: str, tag=None) -> int:
        return sum(
            1 for s in self.spans
            if s[0] == name and (tag is None or s[1] == tag)
        )

    def child_total_s(self, name: str, parent_name: str, parent_tag=None,
                      tag=None) -> float:
        """Summed time of ``name`` spans directly under ``parent_name`` spans."""
        return sum(
            s[4] - s[3] for s in self.spans
            if s[0] == name and (tag is None or s[1] == tag) and s[2] is not None
            and self.spans[s[2]][0] == parent_name
            and (parent_tag is None or self.spans[s[2]][1] == parent_tag)
        ) / 1e9
