"""Benchmark for Figure 11: incremental evaluation vs batch re-evaluation.

Three cases, each timing one slide step on a warmed window:

* ``incremental_delta_tree`` — the Δ-tree RAPQ engine consumes one slide's
  worth of tuples (the paper's incremental side);
* ``batch_reevaluation`` — the Spark DataFrame fixpoint re-evaluates the
  whole window snapshot from scratch (the §5.6 Virtuoso-emulation baseline,
  one evaluation per slide instead of the paper's per-tuple);
* ``incremental_dataflow`` — the micro-batch IncrementalRPQ engine (the
  Δ-tree engine sharded by root across Spark partitions), included for
  transparency: at this scale its per-batch Spark job costs dominate, which
  is why the single Δ-tree engine is the headline incremental implementation.

The reproduced quantity is batch_reevaluation / incremental_delta_tree
(paper: up to three orders of magnitude).
"""
import pytest

from repro.core.queries import LABEL_BINDINGS, make_query
from repro.core.rapq import RAPQEngine
from repro.dataflow.batch_eval import batch_rapq
from repro.dataflow.incremental import IncrementalRPQ
from repro.dataflow.product_graph import SGT_SCHEMA, edges_df
from repro.rpq_oracle import snapshot_edges
from repro.streams.generators import dataset_stream

WINDOW, SLIDE = 100, 25
STREAM = dataset_stream("yago", 1200)
QUERY = make_query("Q2", LABEL_BINDINGS["yago"])


def _chunks():
    out = {}
    for t in STREAM:
        out.setdefault(t.ts // SLIDE, []).append(t)
    return [out[k] for k in sorted(out)]


def test_incremental_delta_tree_step(benchmark):
    chunks = _chunks()

    def setup():
        engine = RAPQEngine(QUERY.dfa, window=WINDOW, slide=SLIDE)
        for c in chunks[:-1]:
            for t in c:
                engine.process(t)
        return (engine,), {}

    def step(engine):
        for t in chunks[-1]:
            engine.process(t)
        return len(engine.results)

    benchmark.pedantic(step, setup=setup, rounds=3, iterations=1)


def test_batch_reevaluation_step(benchmark, spark):
    snapshot = snapshot_edges(STREAM, STREAM[-1].ts, WINDOW)
    edges = edges_df(spark, snapshot).localCheckpoint(eager=True)

    def step():
        return batch_rapq(edges, QUERY.dfa).count()

    benchmark.pedantic(step, rounds=3, iterations=1)


def test_incremental_dataflow_step(benchmark, spark):
    batches = [
        spark.createDataFrame(
            [(t.ts, t.src, t.dst, t.label, t.op) for t in c], SGT_SCHEMA
        ).localCheckpoint(eager=True)
        for c in _chunks()
    ]

    def setup():  # a fresh engine warmed up to the last slide for every round
        engine = IncrementalRPQ(spark, QUERY.dfa, WINDOW)
        for b in batches[:-1]:
            engine.process_batch(b)
        return (engine,), {}

    def step(engine):
        return len(engine.process_batch(batches[-1]))

    benchmark.pedantic(step, setup=setup, rounds=3, iterations=1)
