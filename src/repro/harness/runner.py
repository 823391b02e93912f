"""Measurement harness: throughput, per-tuple latency percentiles, index size.

Mirrors the paper's methodology (§5.1.1): process the stream tuple by tuple
in a closed loop, record the processing time of each *relevant* tuple (those
whose label is in Σ_Q — irrelevant tuples are discarded unmeasured, §5.2),
and report mean/percentile latency plus throughput (inverse of mean latency
in a closed system). The tuples that cross a slide boundary also pay for
expiry; their total time is the window-maintenance cost of Fig 6(b).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Sequence

from ..core.windows import Sgt

SIZE_PROBE_EVERY = 200  # tuples between two reads of the index size


@dataclass
class RunMetrics:
    """Outcome of feeding one stream through one engine."""

    n_tuples: int = 0
    n_relevant: int = 0
    elapsed_s: float = 0.0
    latencies_us: list[float] = field(default_factory=list)
    n_results: int = 0
    max_nodes: int = 0
    max_trees: int = 0
    failed: bool = False  # RSPQ budget exhaustion
    conflicts: int = 0
    expiry_s: float = 0.0  # time of the tuples that crossed a slide boundary
    n_expiries: int = 0  # number of such tuples

    @property
    def throughput(self) -> float:
        """Relevant tuples per second (closed-loop, §5.1.1)."""
        if self.elapsed_s == 0:
            return 0.0
        return self.n_relevant / self.elapsed_s

    def latency_quantile(self, q: float) -> float:
        """Latency quantile in microseconds (q in [0, 1])."""
        if not self.latencies_us:
            return 0.0
        xs = sorted(self.latencies_us)
        idx = min(len(xs) - 1, int(q * len(xs)))
        return xs[idx]

    @property
    def p50_us(self) -> float:
        return self.latency_quantile(0.50)

    @property
    def p99_us(self) -> float:
        return self.latency_quantile(0.99)

    @property
    def mean_us(self) -> float:
        if not self.latencies_us:
            return 0.0
        return sum(self.latencies_us) / len(self.latencies_us)


def run_engine(engine, stream: Sequence[Sgt]) -> RunMetrics:
    """Feed ``stream`` to ``engine`` (RAPQEngine/RSPQEngine API), measuring.

    A tuple whose timestamp crosses a multiple of ``engine.slide`` (the
    engine's own expiry test) counts towards ``expiry_s``/``n_expiries``.
    On :class:`repro.core.rspq.BudgetExceeded` the run stops and is flagged
    ``failed`` — Table 4's "query cannot be evaluated" outcome.
    """
    from ..core.rspq import BudgetExceeded

    m = RunMetrics()
    alphabet = engine.dfa.alphabet
    slide = engine.slide
    last_boundary = -math.inf
    t_start = time.perf_counter()
    try:
        for i, sgt in enumerate(stream):
            m.n_tuples += 1
            relevant = sgt.label in alphabet
            boundary = (sgt.ts // slide) * slide
            expires = boundary > last_boundary
            if expires:
                last_boundary = boundary
            t0 = time.perf_counter()
            engine.process(sgt)
            t1 = time.perf_counter()
            if relevant:
                m.n_relevant += 1
                m.latencies_us.append((t1 - t0) * 1e6)
            if expires:
                m.n_expiries += 1
                m.expiry_s += t1 - t0
            if i % SIZE_PROBE_EVERY == 0:
                m.max_nodes = max(m.max_nodes, engine.n_nodes)
                m.max_trees = max(m.max_trees, engine.n_trees)
    except BudgetExceeded:
        m.failed = True
    m.elapsed_s = time.perf_counter() - t_start
    m.max_nodes = max(m.max_nodes, engine.n_nodes)
    m.max_trees = max(m.max_trees, engine.n_trees)
    m.n_results = len(engine.results)
    m.conflicts = getattr(engine, "conflicts", 0)
    return m


def fmt_table(rows: list[dict], columns: list[str] | None = None) -> str:
    """Render rows as an aligned text table (job output, EXPERIMENTS.md)."""
    if not rows:
        return "(no rows)"
    columns = columns or list(rows[0])
    widths = {
        c: max(len(str(c)), *(len(_fmt(r.get(c))) for r in rows)) for c in columns
    }
    header = "  ".join(str(c).ljust(widths[c]) for c in columns)
    sep = "  ".join("-" * widths[c] for c in columns)
    body = "\n".join(
        "  ".join(_fmt(r.get(c)).ljust(widths[c]) for c in columns) for r in rows
    )
    return f"{header}\n{sep}\n{body}"


def _fmt(v) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 100:
            return f"{v:,.0f}"
        if abs(v) >= 1:
            return f"{v:.2f}"
        return f"{v:.4f}"
    return str(v)
