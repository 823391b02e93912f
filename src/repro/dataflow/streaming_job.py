"""Structured Streaming entry point for persistent RPQ evaluation.

Realizes the paper's system model in Spark Structured Streaming: a persistent
query is *registered* (compiled to a DFA + an :class:`IncrementalRPQ` state),
then an unbounded stream of sgts drives incremental maintenance, emitting an
append-only stream of result pairs.

The source is a file stream of JSON-lines sgts (``ts, src, dst, label, op``)
— the stand-in for the paper's Kafka-like single in-order source. The file
source hands files over in modification-time order, and nothing reorders rows
across micro-batches, so files must arrive in stream order. Each micro-batch
is handed to ``IncrementalRPQ.process_batch`` via ``foreachBatch``, which
sorts the batch's rows by ``ts`` on the driver and advances the sharded
Δ-tree state; the ``(x, y, ts)`` rows it returns are appended to a
driver-side sink list.

Every trigger writes three write-ahead logs: the offset log, the commit log
and the file source's log. :func:`start_streaming_rpq` has them written
through Hadoop's ``FileSystem`` API rather than Spark's default for local
paths, ``FileContext``, which without the native Hadoop library starts a
shell subprocess for several metadata calls of each log write (DESIGN.md,
"Checkpoint logs").
"""
from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

from pyspark.sql import DataFrame, SparkSession

from ..core.dfa import DFA
from .incremental import IncrementalRPQ
from .product_graph import SGT_SCHEMA

CHECKPOINT_MANAGER_KEY = "spark.sql.streaming.checkpointFileManagerClass"
FS_CHECKPOINT_MANAGER = (
    "org.apache.spark.sql.execution.streaming.checkpointing."
    "FileSystemBasedCheckpointFileManager"
)


@dataclass
class ResultSink:
    """Append-only collector for result pairs emitted by the stream."""

    rows: list[tuple[str, str, int]] = field(default_factory=list)

    def pairs(self) -> set[tuple[str, str]]:
        return {(x, y) for x, y, _ in self.rows}


def write_sgt_file(path: str, sgts) -> None:
    """Serialize sgts as one JSON-lines file (atomic rename for the source)."""
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        for t in sgts:
            f.write(
                json.dumps(
                    {"ts": t.ts, "src": t.src, "dst": t.dst, "label": t.label, "op": t.op}
                )
                + "\n"
            )
    os.rename(tmp, path)


def start_streaming_rpq(spark: SparkSession, input_dir: str, dfa: DFA, window: int):
    """Register a persistent RPQ over a file-source sgt stream.

    Each micro-batch is one input file. Returns ``(query, engine, sink)``
    with a fresh :class:`ResultSink`; stop with ``query.stop()`` or drain
    with ``query.processAllAvailable()`` in tests.

    Sets the session's checkpoint file manager to the ``FileSystem``-based
    one unless the caller has set that key. Its atomic create is an
    existence check and a rename, which cannot detect a second writer; the
    query names no checkpoint location, so Spark gives it a directory of its
    own and there is none.
    """
    if spark.conf.get(CHECKPOINT_MANAGER_KEY, None) is None:
        spark.conf.set(CHECKPOINT_MANAGER_KEY, FS_CHECKPOINT_MANAGER)
    sink = ResultSink()
    engine = IncrementalRPQ(spark, dfa, window)
    source = spark.readStream.schema(SGT_SCHEMA).option("maxFilesPerTrigger", 1).json(input_dir)

    def handle_batch(batch_df: DataFrame, epoch_id: int) -> None:
        sink.rows.extend(engine.process_batch(batch_df))

    query = source.writeStream.foreachBatch(handle_batch).start()
    return query, engine, sink


def run_stream_to_completion(
    spark: SparkSession,
    sgts,
    dfa: DFA,
    window: int,
    work_dir: str,
    batch_size: int = 10,
) -> tuple[set[tuple[str, str]], IncrementalRPQ]:
    """Helper: write ``sgts`` as files of ``batch_size`` tuples, stream them
    all through a persistent RPQ, and return (result pairs, engine)."""
    in_dir = os.path.join(work_dir, "in")
    os.makedirs(in_dir, exist_ok=True)
    chunks = [sgts[i : i + batch_size] for i in range(0, len(sgts), batch_size)]
    # The file source hands files over in modification-time order; files
    # written in one burst can share an mtime, so give them distinct ones.
    t0 = time.time() - len(chunks)
    for i, chunk in enumerate(chunks):
        path = os.path.join(in_dir, f"part-{i:05d}.json")
        write_sgt_file(path, chunk)
        os.utime(path, (t0 + i, t0 + i))
    query, engine, sink = start_streaming_rpq(spark, in_dir, dfa, window)
    try:
        query.processAllAvailable()
    finally:
        query.stop()
    return sink.pairs(), engine
