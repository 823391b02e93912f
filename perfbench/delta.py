"""Δ-tree workloads: closed-loop runs of ``core/rapq.py`` and ``core/rspq.py``.

One client hands the engine the next tuple only after ``process()`` returns
(the paper's §5.1.1 method). The stream is generated during set-up; only the
``process()`` calls are timed. A run makes a fixed number of passes over the
stream, each on a fresh engine, and reports per metric the median of the
passes' values. Measured times are rescaled to nominal host speed by the
probe in :mod:`common`, timed about every 0.1 s of measured work. After every pass, outside the timed region, the engine's
result is checked against the brute-force oracle on the final window snapshot
and, on the workload's default seed, the digest of its result stream against
the one recorded in :mod:`workloads`.
"""
from __future__ import annotations

import gc
import time
from dataclasses import dataclass

from common import (
    PROBE_EVERY_NS, Tracer, median, metric, peak_rss_mb, probe_ns, rescale, result_digest,
    tail_percentile,
)
from repro.core.queries import LABEL_BINDINGS, make_query
from repro.core.rapq import RAPQEngine, SpanningTree
from repro.core.rspq import BudgetExceeded, RSPQEngine, RSPQTree
from repro.harness.experiments import RSPQ_BUDGET
from repro.rpq_oracle import rapq_pairs, rspq_pairs, snapshot_edges
from repro.streams.generators import DATASETS, with_deletions

PEAK_SAMPLES = 500  # index-size samples per traced pass (at slide boundaries)


@dataclass
class Setup:
    stream: list
    query: object
    gen_s: float
    compile_s: float


def set_up(wl, seed: int) -> Setup:
    t0 = time.perf_counter()
    stream = DATASETS[wl.dataset](n_edges=wl.n_edges, seed=seed)
    if wl.delete_ratio:
        # Deletion draws are seeded from the stream seed (+5, so the default
        # Yago seed 2 keeps ``with_deletions``' own default of 7).
        stream = with_deletions(stream, wl.delete_ratio, seed=seed + 5)
    t1 = time.perf_counter()
    query = make_query(wl.query, LABEL_BINDINGS[wl.dataset])
    t2 = time.perf_counter()
    return Setup(stream, query, t1 - t0, t2 - t1)


def new_engine(wl, query, on_result=None):
    if wl.engine == "rspq":
        return RSPQEngine(query.dfa, wl.window, wl.slide, budget=RSPQ_BUDGET,
                          on_result=on_result)
    return RAPQEngine(query.dfa, wl.window, wl.slide, on_result=on_result)


def n_passes(wl, seconds: float) -> int:
    """Passes of a run: the odd count nearest ``seconds`` over ``wl.pass_s``.

    It depends on ``--seconds`` and the workload only, never on the speed of
    the code under test, so two commits are measured over the same work.
    """
    n = max(1, round(seconds / wl.pass_s))
    return n + 1 - n % 2


def repeated_setup(wl, seed: int):
    """Set up at least 5 times and for at least 1 s; medians per phase.

    Each set-up starts from a collected heap that holds no earlier set-up, so
    the collector's work is the same in each. The total is rescaled to
    nominal host speed by a probe before and after each set-up; the
    per-phase times (traced runs only) are as measured.
    """
    totals, gens, compiles = [], [], []
    start = time.perf_counter()
    while len(totals) < 5 or (time.perf_counter() - start < 1.0 and len(totals) < 200):
        s = None
        gc.collect()
        p0 = probe_ns()
        t0 = time.perf_counter_ns()
        s = set_up(wl, seed)
        new_engine(wl, s.query)
        t1 = time.perf_counter_ns()
        totals.append(rescale([t1 - t0], [(0, p0), (1, probe_ns())])[0] / 1e9)
        gens.append(s.gen_s)
        compiles.append(s.compile_s)
    return s, median(totals), median(gens), median(compiles)


def run_pass(engine, stream, before=None) -> tuple[list[int], list[tuple[int, int]]]:
    """Feed ``stream`` through ``engine`` in a closed loop.

    Returns the ``process()`` time of each tuple in ns and the host-speed
    probes taken between tuples (see :func:`common.rescale`). ``before(sgt)``,
    if given, runs untimed ahead of each tuple. A ``BudgetExceeded`` ends the
    pass early: the tuples after it are not processed and count as failed.
    """
    clock = time.perf_counter_ns
    times: list[int] = []
    probes = [(0, probe_ns())]
    busy = 0
    try:
        for sgt in stream:
            if before is not None:
                before(sgt)
            t0 = clock()
            engine.process(sgt)
            dt = clock() - t0
            times.append(dt)
            busy += dt
            if busy >= PROBE_EVERY_NS:
                probes.append((len(times), probe_ns()))
                busy = 0
    except BudgetExceeded:
        pass
    if probes[-1][0] != len(times):
        probes.append((len(times), probe_ns()))
    return times, probes


def gate(wl, engine, query, stream, events, check_digest: bool) -> list[str]:
    """Correctness problems of one finished pass (empty list: all agree)."""
    last_ts = stream[-1].ts
    engine.expire(last_ts)
    problems = []
    # The engines keep only edges whose label is in the query's alphabet.
    snap = {e for e in snapshot_edges(stream, last_ts, wl.window) if e[2] in query.dfa.alphabet}
    if engine.graph.edge_set() != snap:
        problems.append("window graph differs from the snapshot G_{W,τ}")
    oracle = rspq_pairs if wl.engine == "rspq" else rapq_pairs
    want, got = oracle(snap, query.dfa), engine.derivable_pairs()
    if got != want:
        problems.append(
            f"derivable pairs differ from the oracle: {len(want - got)} missing, "
            f"{len(got - want)} extra"
        )
    digest = result_digest(events)
    print(f"# pass result: {len(got)} pairs derivable, {len(events)} result events, digest {digest}")
    if check_digest and digest != wl.digest:
        problems.append("result digest differs from the one recorded for the default seed")
    return problems


def _one_pass(wl, stream, query, check_digest: bool):
    events: list = []
    engine = new_engine(wl, query, on_result=lambda *e: events.append(e))
    gc.collect()
    times, probes = run_pass(engine, stream)
    problems = gate(wl, engine, query, stream, events, check_digest) if len(times) == len(stream) else []
    return times, probes, problems


def pass_metrics(wl, stream, relevant, times: list[float]) -> dict:
    """The timed end-to-end values of one pass (``times``: rescaled ns per tuple)."""
    lat, slides, cur = [], [], None
    for sgt, t in zip(stream, times):
        if sgt.label in relevant:
            lat.append(t)
        if sgt.ts // wl.slide != cur:
            cur = sgt.ts // wl.slide
            slides.append(0)
        slides[-1] += t
    return {
        "throughput_tps": len(times) / (sum(times) / 1e9),
        "latency_p50_us": median(lat) / 1e3,
        "latency_p99_us": tail_percentile(lat, 0.99) / 1e3,
        "batch_p50_ms": median(slides) / 1e6,
    }


def run(wl, seed: int, seconds: float, trace: bool):
    s, setup_s, gen_s, compile_s = repeated_setup(wl, seed)
    relevant = frozenset(s.query.dfa.alphabet)
    print(f"# {wl.name}: stream seed {seed}: {len(s.stream)} tuples, "
          f"{sum(t.label in relevant for t in s.stream)} relevant")
    print(f"# query {s.query.name} = {s.query.text}, |W|={wl.window}, beta={wl.slide}")
    if trace:
        return run_traced(wl, s, seed, gen_s, compile_s)
    check_digest = seed == wl.default_seed
    attempted = failed = 0
    problems: list[str] = []
    passes: list[dict] = []
    raw_s: list[float] = []
    for _ in range(n_passes(wl, seconds)):
        times, probes, probs = _one_pass(wl, s.stream, s.query, check_digest)
        attempted += len(s.stream)
        failed += len(s.stream) - len(times)
        problems += probs
        passes.append(pass_metrics(wl, s.stream, relevant, rescale(times, probes)))
        raw_s.append(round(sum(times) / 1e9, 3))
        if failed:
            break
    for p in problems:
        print(f"# GATE FAILED: {p}")
    metrics = {"setup_s": metric(setup_s, "s")}
    for name, unit in (("throughput_tps", "tuples/s"), ("latency_p50_us", "us"),
                       ("latency_p99_us", "us"), ("batch_p50_ms", "ms")):
        metrics[name] = metric(median(p[name] for p in passes), unit)
    metrics["peak_rss_mb"] = metric(peak_rss_mb(), "MB")
    print(f"# passes={len(passes)} (metric: median of the passes), pass times s: "
          f"{[round(len(s.stream) / p['throughput_tps'], 3) for p in passes]} at nominal "
          f"host speed, {raw_s} as measured, failed_frac={failed / attempted:.6g}")
    return not problems and not failed, attempted, failed, metrics


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------


def _install(tracer: Tracer, engine, counts: dict) -> None:
    """Wrap the engine's public entry points and count tree operations."""
    seen: set = set()

    def process_tag(sgt):
        return sgt.op

    def after_process(_):
        counts["distinct_relinks"] += len(seen)
        seen.clear()

    def expire_tag(tau, invalidate=False):
        return "delete" if invalidate else "boundary"

    tracer.wrap(engine, "process", "process", tag=process_tag, after=after_process)
    tracer.wrap(engine, "expire", "expire", tag=expire_tag)
    tracer.wrap(engine, "derivable_pairs", "derivable_pairs")
    g = engine.graph
    tracer.wrap(g, "insert", "graph.insert")
    tracer.wrap(g, "delete", "graph.delete")
    tracer.wrap(g, "expire", "graph.expire",
                after=lambda dead: counts.__setitem__("expired_edges", counts["expired_edges"] + len(dead)))

    def on_add(*_a, **_k):
        counts["nodes_created"] += 1

    def on_relink(tree, node, *_a, **_k):
        counts["relinks"] += 1
        seen.add((tree.root, node.key))

    def on_detach(*_a, **_k):
        counts["detaches"] += 1

    if isinstance(engine, RSPQEngine):
        tracer.hook(RSPQTree, "add_child", on_add)
        tracer.hook(RSPQTree, "detach", on_detach)
    else:
        tracer.hook(SpanningTree, "add", on_add)
        tracer.hook(SpanningTree, "relink", on_relink)


def _traced_pass(wl, stream, query):
    """One pass with spans and counters; peaks sampled at slide boundaries.

    Its ``process()`` times are taken as in an untraced pass, so the
    difference of the two is the tracing overhead.
    """
    engine = new_engine(wl, query)
    tracer = Tracer()
    counts = dict.fromkeys(
        ("distinct_relinks", "relinks", "nodes_created", "detaches", "expired_edges"), 0)
    peaks = {"nodes": 0, "trees": 0, "edges": 0}
    n_slides = stream[-1].ts // wl.slide + 1
    every = max(1, n_slides // PEAK_SAMPLES)
    cur_slide = None

    def sample_peaks(sgt):
        nonlocal cur_slide
        sl = sgt.ts // wl.slide
        if sl != cur_slide:
            cur_slide = sl
            if sl % every == 0:  # just before the boundary expiry
                peaks["nodes"] = max(peaks["nodes"], engine.n_nodes)
                peaks["trees"] = max(peaks["trees"], engine.n_trees)
                peaks["edges"] = max(peaks["edges"], engine.graph.n_edges)

    gc.collect()
    _install(tracer, engine, counts)
    times, probes = run_pass(engine, stream, before=sample_peaks)
    tracer.close()
    return engine, tracer, counts, peaks, times, probes


def run_traced(wl, s: Setup, seed, gen_s, compile_s):
    """One traced pass between two untraced ones.

    The first untraced pass warms the process up (the first pass of a process
    runs slower while its heap grows). Per-layer values are those of the
    traced pass; the overhead is its time minus that of the untraced pass
    after it, both at nominal host speed.
    """
    stream = s.stream
    check_digest = seed == wl.default_seed
    times, _, problems = _one_pass(wl, stream, s.query, check_digest)
    attempted, failed = len(stream), len(stream) - len(times)
    if not failed:
        engine, tr, c, peaks, traced_times, traced_probes = _traced_pass(wl, stream, s.query)
        budget_failures = int(len(traced_times) < len(stream))
        wall = sum(traced_times) / 1e9
        times, probes, probs = _one_pass(wl, stream, s.query, check_digest)
        problems += probs
        attempted += 2 * len(stream)
        failed += 2 * len(stream) - len(traced_times) - len(times)
        insert_s = tr.total_s("process", "+", self_time=True)
        out = {
            "windows.insert_s": tr.total_s("graph.insert"),
            "windows.expire_s": tr.total_s("graph.expire"),
            "windows.delete_s": tr.total_s("graph.delete"),
            "windows.edges_peak": peaks["edges"],
            "windows.expired_edges": c["expired_edges"],
            "trace.wall_s": wall,
        }
        if isinstance(engine, RSPQEngine):
            out.update({
                "rspq.insert_s": insert_s,
                "rspq.expire_s": tr.total_s("expire"),
                "rspq.extend_calls": engine.extend_calls,
                "rspq.conflicts": engine.conflicts,
                "rspq.unmark_calls": engine.unmark_calls,
                "rspq.nodes_created": c["nodes_created"],
                "rspq.detaches": c["detaches"],
                "rspq.occurrence_nodes_peak": peaks["nodes"],
                "rspq.budget_failures": budget_failures,
            })
        else:
            out.update({
                "rapq.insert_s": insert_s,
                "rapq.insert_pops": engine.insert_calls,
                "rapq.relinks": c["relinks"],
                "rapq.nodes_created": c["nodes_created"],
                "rapq.redundant_relink_frac":
                    1 - c["distinct_relinks"] / c["relinks"] if c["relinks"] else 0.0,
                "rapq.expire_boundary_s": tr.total_s("expire", "boundary"),
                "rapq.expire_boundary_calls": tr.calls("expire", "boundary"),
                "rapq.expiry_candidates": engine.expiry_scans,
                # A deletion's own invalidating expiry is its work; a slide
                # boundary it happened to cross is not.
                "rapq.delete_s": tr.total_s("process", "-")
                - tr.child_total_s("expire", "process", "-", tag="boundary"),
                "rapq.expire_delete_s": tr.total_s("expire", "delete"),
                "rapq.derivable_pairs_s": tr.total_s("derivable_pairs"),
                "rapq.index_nodes_peak": peaks["nodes"],
                "rapq.trees_peak": peaks["trees"],
            })
        out.update({
            "setup.stream_gen_s": gen_s,
            "setup.compile_s": compile_s,
            "trace.overhead_s": (sum(rescale(traced_times, traced_probes))
                                 - sum(rescale(times, probes))) / 1e9,
        })
    for p in problems:
        print(f"# GATE FAILED: {p}")
    if failed:  # a pass ended early: no per-layer values
        return False, attempted, failed, {}
    print("# per-layer values are those of the traced pass")
    return not problems, attempted, failed, out
