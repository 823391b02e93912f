"""Per-table experiment drivers (§5) — each returns printable row dicts.

Scale note: the paper runs 10-minute streams of real graphs (63M edges SO,
40M LDBC, 220M Yago) on a 32-core server; we run seconds-scale synthetic
streams (DESIGN.md §3). Row *shapes* (orderings, ratios, trends) are the
reproduction target, recorded against the paper's numbers in EXPERIMENTS.md.

Every driver takes a ``scale`` multiplier so jobs can run bigger sweeps than
the default test-sized ones.
"""
from __future__ import annotations

import time
from statistics import median

from ..core.queries import Query, make_query, workload
from ..core.rapq import RAPQEngine
from ..core.rspq import RSPQEngine
from ..core.windows import Sgt
from ..rpq_oracle import snapshot_edges
from ..streams.generators import dataset_stream, with_deletions
from ..streams.gmark import gmark_stream, gmark_workload
from .runner import RunMetrics, run_engine

# Window/slide defaults per dataset, in stream time units (the paper uses
# 1 month/1 day for SO, 10 days/1 day for LDBC, 10M/1M edges for Yago; we
# keep the same ~10:1 window:slide shape).
DATASET_WINDOWS = {"so": (60, 6), "ldbc": (100, 10), "yago": (100, 10)}
DEFAULT_EDGES = {"so": 3000, "ldbc": 4000, "yago": 4000}

RSPQ_BUDGET = 200_000
FIG10_RUNS = 5  # runs per Figure 10 stream; each row reports medians


def _rapq_run(q: Query, stream, window, slide) -> RunMetrics:
    return run_engine(RAPQEngine(q.dfa, window=window, slide=slide), stream)


def _rspq_run(q: Query, stream, window, slide, budget=RSPQ_BUDGET) -> RunMetrics:
    return run_engine(
        RSPQEngine(q.dfa, window=window, slide=slide, budget=budget), stream
    )


# ----------------------------------------------------------------------
# Table 1 — amortized complexity validation
# ----------------------------------------------------------------------

def table1_complexity(scale: float = 1.0) -> list[dict]:
    """Empirical check of the O(n·k²) / O(n²·k) amortized costs.

    Sweeps (a) window size |W| (∝ n, the distinct vertices in the window) at
    fixed k, and (b) automaton size k at fixed |W|, on the Yago-like stream;
    plus the deletion path at a fixed ratio. Reports mean/p99 per-tuple time
    — the paper's Table 1 is validated if mean latency grows ~linearly in
    |W| and stays polynomially modest in k.
    """
    from ..core.queries import query_from_text

    n_edges = int(6000 * scale)
    rows = []
    # Dense matching (3 of 8 labels, recursive) so the window content — and
    # hence n — actually grows with |W|; on a highly selective query the
    # per-tuple cost is dominated by fixed overhead and the trend vanishes.
    stream = gmark_stream(n_edges)
    q = query_from_text("(g0|g1|g2)*", name="star3")
    for w in (25, 50, 100, 200):
        m = _rapq_run(q, stream, window=w, slide=max(1, w // 10))
        rows.append(
            {
                "sweep": "|W| (k fixed)",
                "value": w,
                "mean_us": m.mean_us,
                "p99_us": m.p99_us,
                "throughput": m.throughput,
                "max_nodes": m.max_nodes,
            }
        )
    # k sweep: label chains of length 2/4/8 at fixed |W|.
    for k_labels in (2, 4, 8):
        text = " ".join(f"g{i % 8}" for i in range(k_labels))
        q_k = query_from_text(text, name=f"chain{k_labels}")
        m = _rapq_run(q_k, stream, window=100, slide=10)
        rows.append(
            {
                "sweep": "k (|W| fixed)",
                "value": q_k.k,
                "mean_us": m.mean_us,
                "p99_us": m.p99_us,
                "throughput": m.throughput,
                "max_nodes": m.max_nodes,
            }
        )
    # Deletion path (O(n²·k) bound).
    del_stream = with_deletions(stream, 0.05)
    m = _rapq_run(q, del_stream, window=100, slide=10)
    rows.append(
        {
            "sweep": "5% deletions",
            "value": 100,
            "mean_us": m.mean_us,
            "p99_us": m.p99_us,
            "throughput": m.throughput,
            "max_nodes": m.max_nodes,
        }
    )
    return rows


# ----------------------------------------------------------------------
# Table 2 / Table 3 — workload definitions
# ----------------------------------------------------------------------

def table2_queries() -> list[dict]:
    """The Table 2 templates with their minimal-DFA sizes per dataset."""
    rows = []
    from ..core.queries import TEMPLATES

    for name, template in TEMPLATES.items():
        per_ds = {}
        for ds in ("so", "ldbc", "yago"):
            qs = [q for q in workload(ds) if q.name == name]
            per_ds[ds] = qs[0].k if qs else "-"
        rows.append(
            {
                "query": name,
                "template": template,
                "k_so": per_ds["so"],
                "k_ldbc": per_ds["ldbc"],
                "k_yago": per_ds["yago"],
            }
        )
    return rows


def table3_labels() -> list[dict]:
    """Label bindings per dataset (corrected Table 3, see DESIGN.md)."""
    from ..core.queries import LABEL_BINDINGS

    return [
        {
            "graph": ds,
            "bindings": ", ".join(
                f"{k}={v}" for k, v in sorted(LABEL_BINDINGS[ds].items())
            ),
        }
        for ds in ("so", "ldbc", "yago")
    ]


# ----------------------------------------------------------------------
# Figure 4 (as a table) — throughput & tail latency per query per graph
# ----------------------------------------------------------------------

def fig4_throughput(datasets=("so", "ldbc", "yago"), scale: float = 1.0) -> list[dict]:
    rows = []
    for ds in datasets:
        window, slide = DATASET_WINDOWS[ds]
        stream = dataset_stream(ds, int(DEFAULT_EDGES[ds] * scale))
        for q in workload(ds):
            m = _rapq_run(q, stream, window, slide)
            rows.append(
                {
                    "dataset": ds,
                    "query": q.name,
                    "throughput_eps": m.throughput,
                    "p99_ms": m.p99_us / 1e3,
                    "mean_us": m.mean_us,
                    "results": m.n_results,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Figure 5 (as a table) — Δ index size per query on the SO-like graph
# ----------------------------------------------------------------------

def fig5_index_size(scale: float = 1.0) -> list[dict]:
    window, slide = DATASET_WINDOWS["so"]
    stream = dataset_stream("so", int(DEFAULT_EDGES["so"] * scale))
    rows = []
    for q in workload("so"):
        m = _rapq_run(q, stream, window, slide)
        rows.append(
            {
                "query": q.name,
                "max_trees": m.max_trees,
                "max_nodes": m.max_nodes,
                "throughput_eps": m.throughput,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Figure 6 (as a table) — |W| and β scalability on the Yago-like graph
# ----------------------------------------------------------------------

def fig6_scalability(scale: float = 1.0) -> list[dict]:
    from ..core.queries import query_from_text

    # The denser gMark stream, so that windows hold real state.
    stream = gmark_stream(int(6000 * scale))
    q = query_from_text("g0 (g1|g2)*", name="Q3-like")
    rows = []
    runs = [("|W|", w, w, 10) for w in (50, 100, 200, 400)]
    runs += [("beta", b, 100, b) for b in (5, 10, 20, 40)]
    for sweep, value, window, beta in runs:
        m = _rapq_run(q, stream, window, beta)
        rows.append({
            "sweep": sweep,
            "value": value,
            "p99_us": m.p99_us,
            "mean_us": m.mean_us,
            "throughput_eps": m.throughput,
            # Expiry runs inside the tuples that cross a slide boundary.
            "expiry_share_pct": round(100.0 * m.expiry_s / m.elapsed_s, 2)
            if m.elapsed_s
            else 0.0,
            "expiry_ms_per_slide": round(m.expiry_s * 1e3 / m.n_expiries, 3)
            if m.n_expiries
            else 0.0,
        })
    return rows


# ----------------------------------------------------------------------
# Figures 7-9 (as tables) — gMark query-size sweep
# ----------------------------------------------------------------------

def fig7_9_gmark(n_queries: int = 40, scale: float = 1.0) -> list[dict]:
    """DFA size vs query size; throughput vs k; throughput vs index size."""
    stream = gmark_stream(int(4000 * scale))
    rows = []
    for q in gmark_workload(n_queries):
        m = _rapq_run(q, stream, window=100, slide=10)
        rows.append(
            {
                "query": q.name,
                "size": q.size,
                "k": q.k,
                "throughput_eps": m.throughput,
                "max_nodes": m.max_nodes,
                "p99_us": m.p99_us,
            }
        )
    return rows


def gmark_summary(rows: list[dict]) -> list[dict]:
    """Aggregate fig7_9 rows: per query-size bucket, mean k and throughput."""
    buckets: dict[int, list[dict]] = {}
    for r in rows:
        buckets.setdefault(r["size"] // 4, []).append(r)
    out = []
    for b in sorted(buckets):
        rs = buckets[b]
        out.append(
            {
                "size_bucket": f"{b * 4}-{b * 4 + 3}",
                "n": len(rs),
                "mean_k": sum(r["k"] for r in rs) / len(rs),
                "max_k": max(r["k"] for r in rs),
                "mean_throughput_eps": sum(r["throughput_eps"] for r in rs) / len(rs),
            }
        )
    return out


# ----------------------------------------------------------------------
# Table 4 — simple path semantics feasibility + overhead
# ----------------------------------------------------------------------

def table4_simple_path(datasets=("so", "ldbc", "yago"), scale: float = 1.0) -> list[dict]:
    rows = []
    for ds in datasets:
        window, slide = DATASET_WINDOWS[ds]
        stream = dataset_stream(ds, int(DEFAULT_EDGES[ds] * scale))
        for q in workload(ds):
            base = _rapq_run(q, stream, window, slide)
            simple = _rspq_run(q, stream, window, slide)
            overhead = (
                simple.p99_us / base.p99_us if base.p99_us and not simple.failed else None
            )
            rows.append(
                {
                    "dataset": ds,
                    "query": q.name,
                    "restricted": q.dfa.has_containment_property,
                    "success": not simple.failed,
                    "p99_overhead": round(overhead, 2) if overhead else "-",
                    "conflicts": simple.conflicts,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Figure 10 (as a table) — explicit deletion ratio sweep
# ----------------------------------------------------------------------

def fig10_deletions(scale: float = 1.0, queries=("Q1", "Q2", "Q7", "Q11")) -> list[dict]:
    """Per query and deletion ratio, the median p99 and wall time of
    ``FIG10_RUNS`` runs, against the median of as many no-deletion runs.

    A pass takes ~10 ms at the default scale, so a single run's p99 is
    mostly host noise. The runs go round-robin over the streams, so a slow
    host phase hits the baseline and the deletion runs alike.
    """
    window, slide = DATASET_WINDOWS["yago"]
    base_stream = dataset_stream("yago", int(DEFAULT_EDGES["yago"] * scale))
    streams = {0.0: base_stream}
    for ratio in (0.02, 0.05, 0.10):
        streams[ratio] = with_deletions(base_stream, ratio)
    rows = []
    for name in queries:
        q = [x for x in workload("yago") if x.name == name][0]
        runs: dict[float, list[RunMetrics]] = {ratio: [] for ratio in streams}
        for _ in range(FIG10_RUNS):
            for ratio, stream in streams.items():
                runs[ratio].append(_rapq_run(q, stream, window, slide))
        p99 = {ratio: median(m.p99_us for m in ms) for ratio, ms in runs.items()}
        wall = {ratio: median(m.elapsed_s for m in ms) for ratio, ms in runs.items()}
        for ratio in list(streams)[1:]:
            rows.append(
                {
                    "query": name,
                    "del_ratio_pct": int(ratio * 100),
                    "p99_us": p99[ratio],
                    "p99_vs_no_del": round(p99[ratio] / p99[0.0], 2) if p99[0.0] else "-",
                    "wall_vs_no_del": round(wall[ratio] / wall[0.0], 2),
                }
            )
    return rows


# ----------------------------------------------------------------------
# Figure 11 (as a table) — incremental vs batch re-evaluation (needs Spark)
# ----------------------------------------------------------------------

def fig11_speedup(spark, queries=("Q1", "Q2", "Q11"), scale: float = 1.0) -> list[dict]:
    """Incremental Algorithm RAPQ vs per-slide batch re-evaluation (§5.6).

    Mirrors the paper's comparison: their in-memory incremental engine vs an
    emulation layer that re-evaluates the query over the window content on a
    DBMS after updates (Virtuoso). Here the incremental side is the Δ-tree
    RAPQ engine and the baseline re-runs the Spark DataFrame batch fixpoint
    on the window snapshot once per slide — already more generous than the
    paper's per-*tuple* re-evaluation. Result sets are asserted equal before
    any timing is reported. One untimed pass of the baseline runs before the
    timed ones, so no query's row carries the session's warm-up.

    The dataflow variant (``IncrementalRPQ``, the same Δ-tree engine sharded
    by root across Spark partitions) consumes one micro-batch per slide and
    reports its median batch time (collect plus state job), which leaves out
    the session's slow first job. Its results must equal the batch union. It
    is deliberately *not* the headline: at laptop scale its per-slide time is
    Spark's fixed per-job cost, not the algorithm's work, which hides the gap
    the paper measures (see EXPERIMENTS.md commentary).
    """
    from ..dataflow.batch_eval import batch_rapq
    from ..dataflow.incremental import IncrementalRPQ
    from ..dataflow.product_graph import SGT_SCHEMA, edges_df

    window, slide = 100, 25
    stream = dataset_stream("yago", int(1500 * scale))
    chunks: dict[int, list[Sgt]] = {}
    for t in stream:
        chunks.setdefault(t.ts // slide, []).append(t)

    def reevaluate(q: Query) -> tuple[set, set]:
        """Re-evaluate the window snapshot of every slide with Spark; returns
        the union of the per-slide results and the last slide's."""
        prefix: list[Sgt] = []
        results: set[tuple[str, str]] = set()
        snapshot: set[tuple[str, str]] = set()
        for b in sorted(chunks):
            prefix += chunks[b]
            snap = snapshot_edges(prefix, prefix[-1].ts, window)
            snapshot = {(r["x"], r["y"]) for r in batch_rapq(edges_df(spark, snap), q.dfa).collect()}
            results |= snapshot
        return results, snapshot

    qs = [[x for x in workload("yago") if x.name == name][0] for name in queries]
    # One untimed pass: the session's first batch jobs pay Spark's warm-up,
    # which would otherwise land on the first query's row.
    reevaluate(qs[0])
    rows = []
    for name, q in zip(queries, qs):
        # Incremental: Δ-tree engine, per-tuple.
        engine = RAPQEngine(q.dfa, window=window, slide=slide)
        t0 = time.perf_counter()
        for b in sorted(chunks):
            for t in chunks[b]:
                engine.process(t)
        incr_s = time.perf_counter() - t0
        inc_snapshot = engine.derivable_pairs()
        inc_results = set(engine.results)
        t0 = time.perf_counter()
        base_results, base_snapshot = reevaluate(q)
        batch_s = time.perf_counter() - t0
        # The per-slide baseline evaluates a subset of the eager engine's
        # snapshots, so its results must be contained in the incremental
        # ones (strict equality would require per-tuple re-evaluation,
        # which is what the paper's emulation did — and why it was slow).
        assert base_results <= inc_results, name
        assert base_snapshot <= inc_snapshot, name
        # Dataflow: one micro-batch per slide, so it reports the pairs of the
        # same snapshots the baseline evaluates.
        dataflow = IncrementalRPQ(spark, q.dfa, window)
        for b in sorted(chunks):
            batch = [(t.ts, t.src, t.dst, t.label, t.op) for t in chunks[b]]
            dataflow.process_batch(spark.createDataFrame(batch, SGT_SCHEMA))
        assert dataflow.results() == base_results, name
        dataflow_s = median(bt.collect_s + bt.state_job_s for bt in dataflow.batch_times)
        n = len(chunks)
        rows.append(
            {
                "query": name,
                "slides": n,
                "incremental_ms_per_slide": incr_s * 1e3 / n,
                "batch_reeval_ms_per_slide": batch_s * 1e3 / n,
                "dataflow_ms_per_slide": dataflow_s * 1e3,
                "speedup": round(batch_s / incr_s) if incr_s else "-",
            }
        )
    return rows
