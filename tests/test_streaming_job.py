"""End-to-end Structured Streaming job over a file-source sgt stream."""
import pytest

from repro.core.dfa import compile_regex
from repro.core.regex import parse
from repro.dataflow.streaming_job import (
    CHECKPOINT_MANAGER_KEY,
    FS_CHECKPOINT_MANAGER,
    run_stream_to_completion,
    start_streaming_rpq,
    write_sgt_file,
)
from repro.rpq_oracle import Sgt, rapq_pairs, snapshot_edges


STREAM = [
    Sgt(1, "x", "y", "a"),
    Sgt(2, "y", "z", "b"),
    Sgt(3, "z", "w", "b"),
    Sgt(9, "x", "z", "a"),
    Sgt(14, "w", "x", "a"),
    Sgt(16, "z", "y", "b"),
]


def reference_union(sgts, dfa, window, batch_size):
    out = set()
    for i in range(0, len(sgts), batch_size):
        prefix = sgts[: i + batch_size]
        wm = max(t.ts for t in prefix)
        out |= rapq_pairs(snapshot_edges(prefix, wm, window), dfa)
    return out


def test_streaming_rpq_end_to_end(spark, tmp_path):
    """A persistent RPQ over a file stream reproduces the reference union."""
    dfa = compile_regex(parse("a b*"))
    pairs, engine = run_stream_to_completion(
        spark, STREAM, dfa, window=10, work_dir=str(tmp_path), batch_size=2
    )
    assert pairs == reference_union(STREAM, dfa, 10, batch_size=2)
    wm = STREAM[-1].ts
    assert engine.derivable_pairs() == rapq_pairs(
        snapshot_edges(STREAM, wm, 10), dfa
    )


def test_streaming_with_deletion(spark, tmp_path):
    dfa = compile_regex(parse("a b"))
    stream = [
        Sgt(1, "x", "y", "a"),
        Sgt(2, "y", "z", "b"),
        Sgt(4, "x", "y", "a", "-"),
        Sgt(5, "p", "q", "a"),
    ]
    pairs, engine = run_stream_to_completion(
        spark, stream, dfa, window=100, work_dir=str(tmp_path), batch_size=1
    )
    assert pairs == {("x", "z")}           # appended before the deletion
    assert engine.derivable_pairs() == set()  # state reflects the deletion


def test_write_sgt_file_roundtrip(spark, tmp_path):
    path = str(tmp_path / "f.json")
    write_sgt_file(path, STREAM[:3])
    df = spark.read.json(path)
    assert df.count() == 3
    assert {r["src"] for r in df.collect()} == {"x", "y", "z"}


def start_and_drain(spark, tmp_path):
    """Start a persistent RPQ over one file, drain it and stop it."""
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    write_sgt_file(str(in_dir / "part-00000.json"), STREAM[:2])
    dfa = compile_regex(parse("a b*"))
    query, _, sink = start_streaming_rpq(spark, str(in_dir), dfa, window=10)
    try:
        query.processAllAvailable()
    finally:
        query.stop()
    return sink.pairs()


def test_checkpoint_manager_defaults_to_filesystem(spark, tmp_path):
    spark.conf.unset(CHECKPOINT_MANAGER_KEY)
    try:
        assert start_and_drain(spark, tmp_path) == {("x", "y"), ("x", "z")}
        assert spark.conf.get(CHECKPOINT_MANAGER_KEY) == FS_CHECKPOINT_MANAGER
    finally:
        spark.conf.unset(CHECKPOINT_MANAGER_KEY)


def test_checkpoint_manager_keeps_the_callers_choice(spark, tmp_path):
    mine = (
        "org.apache.spark.sql.execution.streaming.checkpointing."
        "FileContextBasedCheckpointFileManager"
    )
    spark.conf.set(CHECKPOINT_MANAGER_KEY, mine)
    try:
        assert start_and_drain(spark, tmp_path) == {("x", "y"), ("x", "z")}
        assert spark.conf.get(CHECKPOINT_MANAGER_KEY) == mine
    finally:
        spark.conf.unset(CHECKPOINT_MANAGER_KEY)
