"""Incremental dataflow engine vs oracles, per micro-batch granularity."""
import pytest
from py4j.protocol import Py4JJavaError

from repro.core.dfa import compile_regex
from repro.core.regex import parse
from repro.dataflow.incremental import IncrementalRPQ
from repro.rpq_oracle import Sgt, rapq_pairs, snapshot_edges

SGT_SCHEMA = "ts LONG, src STRING, dst STRING, label STRING, op STRING"


def to_batch_df(spark, sgts):
    rows = [(t.ts, t.src, t.dst, t.label, t.op) for t in sgts]
    return spark.createDataFrame(rows, SGT_SCHEMA)


def run_batches(spark, sgts, dfa, window, batch_size):
    """Feed ``sgts`` in chunks; return (engine, reference result union)."""
    engine = IncrementalRPQ(spark, dfa, window)
    reference: set[tuple[str, str]] = set()
    for i in range(0, len(sgts), batch_size):
        chunk = sgts[i : i + batch_size]
        engine.process_batch(to_batch_df(spark, chunk))
        prefix = sgts[: i + len(chunk)]
        wm = max(t.ts for t in prefix)
        reference |= rapq_pairs(snapshot_edges(prefix, wm, window), dfa)
    return engine, reference


STREAM_A = [
    Sgt(1, "x", "y", "a"),
    Sgt(2, "y", "z", "b"),
    Sgt(3, "z", "w", "b"),
    Sgt(8, "x", "z", "a"),
    Sgt(12, "w", "x", "a"),
    Sgt(15, "z", "y", "b"),
    Sgt(21, "y", "y2", "b"),
    Sgt(24, "q", "x", "a"),
]


class TestIncrementalAppendOnly:
    # One (query, granularity) pair per regime keeps suite time bounded:
    # per-tuple batches, small micro-batches, one-shot batch.
    @pytest.mark.parametrize(
        "text,batch_size", [("a b*", 1), ("(a|b)+", 3), ("a b", 100)]
    )
    def test_matches_batch_reference(self, spark, text, batch_size):
        dfa = compile_regex(parse(text))
        engine, reference = run_batches(spark, STREAM_A, dfa, window=10, batch_size=batch_size)
        assert engine.results() == reference
        # Current state reflects the final snapshot exactly.
        wm = STREAM_A[-1].ts
        final_snap = snapshot_edges(STREAM_A, wm, 10)
        assert engine.derivable_pairs() == rapq_pairs(final_snap, dfa)

    def test_single_tuple_batches_equal_eager_semantics(self, spark):
        """batch_size=1 coincides with the Δ-tree engine's per-tuple results."""
        from repro.core.rapq import RAPQEngine

        dfa = compile_regex(parse("a b*"))
        tree_engine = RAPQEngine(dfa, window=10, slide=1)
        for t in STREAM_A:
            tree_engine.process(t)
        df_engine, _ = run_batches(spark, STREAM_A, dfa, window=10, batch_size=1)
        assert df_engine.results() == set(tree_engine.results)

    def test_expiry_drops_state(self, spark):
        dfa = compile_regex(parse("a"))
        stream = [Sgt(1, "x", "y", "a"), Sgt(50, "p", "q", "a")]
        engine, _ = run_batches(spark, stream, dfa, window=10, batch_size=1)
        assert engine.derivable_pairs() == {("p", "q")}
        assert engine.results() == {("x", "y"), ("p", "q")}  # append-only

    def test_edge_refresh_keeps_path_alive(self, spark):
        dfa = compile_regex(parse("a b"))
        stream = [
            Sgt(1, "x", "y", "a"),
            Sgt(9, "x", "y", "a"),   # refresh
            Sgt(13, "y", "z", "b"),  # within (3, 13] of the refresh
        ]
        engine, _ = run_batches(spark, stream, dfa, window=10, batch_size=1)
        assert ("x", "z") in engine.results()

    def test_stale_prefix_does_not_leak(self, spark):
        dfa = compile_regex(parse("a b"))
        stream = [
            Sgt(1, "x", "y", "a"),
            Sgt(30, "y", "z", "b"),  # prefix edge long expired
        ]
        engine, _ = run_batches(spark, stream, dfa, window=10, batch_size=1)
        assert engine.results() == set()


class TestBatchTimes:
    def test_one_record_per_batch_with_its_rows(self, spark):
        engine = IncrementalRPQ(spark, compile_regex(parse("a b*")), window=10)
        returned = [
            engine.process_batch(to_batch_df(spark, STREAM_A[i : i + 3]))
            for i in range(0, 9, 3)
        ]
        returned.append(engine.process_batch(to_batch_df(spark, [])))
        assert [b.rows for b in engine.batch_times] == [len(r) for r in returned]
        assert sum(map(len, returned)) > 0
        assert all(b.collect_s > 0 and b.state_job_s >= 0 for b in engine.batch_times)


class TestIncrementalDeletions:
    def test_delete_removes_derivation(self, spark):
        dfa = compile_regex(parse("a b"))
        stream = [
            Sgt(1, "x", "y", "a"),
            Sgt(2, "y", "z", "b"),
            Sgt(3, "x", "y", "a", "-"),
        ]
        engine, _ = run_batches(spark, stream, dfa, window=100, batch_size=1)
        assert engine.derivable_pairs() == set()
        assert engine.results() == {("x", "z")}  # appended before deletion

    def test_delete_with_alternative_path(self, spark):
        dfa = compile_regex(parse("a b"))
        stream = [
            Sgt(1, "x", "y", "a"),
            Sgt(2, "y", "z", "b"),
            Sgt(3, "x", "w", "a"),
            Sgt(4, "w", "z", "b"),
            Sgt(5, "x", "y", "a", "-"),
        ]
        engine, _ = run_batches(spark, stream, dfa, window=100, batch_size=1)
        assert engine.derivable_pairs() == {("x", "z")}

    def test_mixed_batch_with_deletion_recomputes(self, spark):
        dfa = compile_regex(parse("a*"))
        stream = [
            Sgt(1, "x", "y", "a"),
            Sgt(2, "y", "z", "a"),
            Sgt(4, "y", "z", "a", "-"),
            Sgt(5, "z", "w", "a"),
        ]
        engine, _ = run_batches(spark, stream, dfa, window=100, batch_size=2)
        wm = 5
        expected = rapq_pairs(snapshot_edges(stream, wm, 100), dfa)
        assert engine.derivable_pairs() == expected


class TestRandomizedSmall:
    @pytest.mark.parametrize("seed", range(2))
    def test_random_stream_vs_reference(self, spark, seed):
        import random

        rng = random.Random(seed)
        ts, sgts = 0, []
        for _ in range(18):
            ts += rng.randint(1, 3)
            sgts.append(
                Sgt(ts, f"v{rng.randint(0, 4)}", f"v{rng.randint(0, 4)}",
                    rng.choice("ab"))
            )
        dfa = compile_regex(parse("(a|b)+"))
        engine, reference = run_batches(spark, sgts, dfa, window=8, batch_size=4)
        assert engine.results() == reference


class TestMalformedInput:
    @pytest.mark.parametrize(
        "bad", [Sgt(3, "y", "z", "a"), Sgt(6, "y", "z", "a", "?")]
    )
    def test_bad_batch_raises_and_leaves_state(self, spark, bad):
        """An older batch or an unknown op is rejected before any state moves."""
        dfa = compile_regex(parse("a"))
        engine = IncrementalRPQ(spark, dfa, window=10)
        engine.process_batch(to_batch_df(spark, [Sgt(5, "x", "y", "a")]))
        with pytest.raises(ValueError):
            engine.process_batch(to_batch_df(spark, [bad]))
        assert engine.closure_rounds == 1
        engine.process_batch(to_batch_df(spark, [Sgt(7, "p", "q", "a")]))
        assert engine.results() == engine.derivable_pairs() == {("x", "y"), ("p", "q")}

    def test_failed_state_job_keeps_watermark_for_retry(self, spark):
        """A state job that fails moves neither the watermark nor the state."""
        sc = spark.sparkContext
        engine = IncrementalRPQ(spark, compile_regex(parse("a")), window=10)
        engine.process_batch(to_batch_df(spark, [Sgt(5, "x", "y", "a")]))
        state = engine.state
        engine.state = sc.parallelize([object()], 1)  # no advance
        batch = to_batch_df(spark, [Sgt(7, "p", "q", "a")])
        persisted = len(sc._jsc.getPersistentRDDs())
        with pytest.raises(Py4JJavaError):
            engine.process_batch(batch)
        assert engine.watermark == 5 and engine.closure_rounds == 1
        assert len(sc._jsc.getPersistentRDDs()) == persisted  # the failed state is dropped
        engine.state = state
        assert engine.process_batch(batch) == [("p", "q", 7)]
        assert engine.results() == engine.derivable_pairs() == {("x", "y"), ("p", "q")}

    def test_empty_batch_returns_nothing(self, spark):
        engine = IncrementalRPQ(spark, compile_regex(parse("a")), window=10)
        assert engine.process_batch(to_batch_df(spark, [])) == []
        assert engine.closure_rounds == 0 and engine.results() == set()
