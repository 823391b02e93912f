"""Spark-free checks of the root-sharded Δ-tree engines behind IncrementalRPQ.

All shards of a partition run in-process over the same batches. Whatever
the shard count, the union of their result rows must be the same, must add
at each watermark exactly the snapshot pairs not emitted before, and must
stamp each pair with the minimum, over its final states, of the brute-force
best max-min timestamp at that watermark.
"""
import pytest

from repro.core.dfa import compile_regex
from repro.core.regex import parse
from repro.dataflow import incremental
from repro.dataflow.incremental import ShardEngine, shard_of
from repro.rpq_oracle import rapq_pairs

from .streams import best_timestamps, random_stream

# "(a|b)+" makes parallel edges with different labels drive one transition;
# "a* b*" has two final states, one of them the start state.
QUERIES = ["(a|b)+", "a b* c", "a* b*", "a b"]
WINDOW = 10


def run_shards(stream, dfa, n, batch_size):
    """Each batch's result rows from ``n`` shards, sorted."""
    shards = [ShardEngine(dfa, WINDOW, i, n) for i in range(n)]
    out = []
    for i in range(0, len(stream), batch_size):
        sgts = [(t.ts, t.src, t.dst, t.label, t.op) for t in stream[i : i + batch_size]]
        out.append(sorted(row for e in shards for row in e.advance(sgts)))
        assert all(shard_of(x, n) == e.shard for e in shards for x in e.trees)
    return out


def window_edges(prefix):
    """Snapshot edges at the last tuple's timestamp, with their timestamps."""
    tau = prefix[-1].ts
    latest = {(t.src, t.dst, t.label): t for t in prefix}
    return {e: t.ts for e, t in latest.items() if t.op == "+" and t.ts > tau - WINDOW}


@pytest.mark.parametrize("batch_size", [1, 4])
@pytest.mark.parametrize("seed", range(12))
def test_shards_match_oracle_for_any_shard_count(seed, batch_size):
    dfa = compile_regex(parse(QUERIES[seed % len(QUERIES)]))
    stream = random_stream(seed, n=40, n_vertices=5, delete_prob=0.2)
    runs = {n: run_shards(stream, dfa, n, batch_size) for n in (1, 2, 3, 5)}
    assert runs[2] == runs[1] and runs[3] == runs[1] and runs[5] == runs[1]
    emitted: set = set()
    for k, rows in enumerate(runs[1]):
        edges = window_edges(stream[: (k + 1) * batch_size])
        pairs = rapq_pairs(edges, dfa)
        assert {(x, y) for x, y, _ in rows} == pairs - emitted, f"batch {k}"
        emitted |= pairs
        for x, y, ts in rows:
            best = best_timestamps(edges, dfa, x)
            assert ts == min(
                best[(y, s)] for s in dfa.finals if (y, s) in best and (y, s) != (x, dfa.start)
            ), f"batch {k}: ({x}, {y})"


def test_advance_drains_its_partition(monkeypatch):
    """A task reads its whole partition, so PySpark may reuse its worker."""
    monkeypatch.setattr(incremental, "_skip_unchanged_zip_rereads", lambda: None)

    class Rows(list):
        add = list.extend

    dfa = compile_regex(parse("a b"))
    shards = [ShardEngine(dfa, WINDOW, i, 2) for i in range(2)]
    engines, rows = iter(shards), Rows()
    out = list(incremental._advance(engines, [(1, "x", "y", "a", "+"), (2, "y", "z", "b", "+")], rows))
    assert out == shards and next(engines, None) is None
    assert rows == [("x", "z", 1)]
