"""Incremental dataflow RPQ engine: the Δ-tree RAPQ engine sharded by root.

The paper's prototype parallelizes Algorithm RAPQ across spanning trees
(§5.1.1), since given the window graph each tree ``T_x`` evolves on its own.
This module does the same on Spark with ``sc.defaultParallelism`` shards:
shard ``i`` of ``n`` creates trees only for the roots ``x`` with
``crc32(x) mod n == i`` (:func:`shard_of`; unlike ``hash``, stable across
processes). Every shard keeps its own copy of the window edges and sees every
tuple, so each tree grows exactly as in a single engine, and a pair
``(x, y)`` comes from the shard that owns ``x`` alone.

The state is an RDD with one shard engine per partition, persisted and
``localCheckpoint``-ed, so its lineage is one step long. Per micro-batch the
driver collects the batch once, sorted by ``ts``, and ships the rows in the
task closure; one ``mapPartitions`` advances every shard, and one JVM-side
action materializes the new state, after which the old one is unpersisted.
Each shard adds its new result rows to an accumulator, so the rows reach the
driver with that job's task results. Collecting them with a second action
would cost a second Python pass per partition, which dominates a small
batch's time. Spark merges a task's accumulator updates once, and the state
is computed once: its lineage is truncated, so nothing recomputes it.

Result semantics are Definition 9 at *micro-batch granularity*: at each batch
watermark, every pair derivable on the snapshot ``G_{W,τ}`` and not emitted
before is appended once, with ``ts`` the minimum over its final-state nodes'
best max-min timestamps (the root excluded). A pair derivable only between
two watermarks, such as one inserted and deleted within a batch, is not
emitted. With one-tuple batches this coincides with the Δ-tree engine's
per-tuple results, which the tests exercise. Deletions go through the
engine's own Delete (§3.2).
"""
from __future__ import annotations

import math
import os
import sys
import time
import zipfile
import zipimport
import zlib
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from pyspark import AccumulatorParam, SparkContext, SparkFiles
from pyspark.sql import DataFrame, SparkSession

from ..core.dfa import DFA
from ..core.rapq import RAPQEngine
from ..core.windows import Sgt, check_tuple

ResultRow = tuple[str, str, int]  # (x, y, ts)


def shard_of(root: str, n: int) -> int:
    """The shard, of ``n``, that owns the trees rooted at ``root``."""
    return zlib.crc32(root.encode()) % n


class ShardEngine(RAPQEngine):
    """A RAPQ engine that creates trees only for the roots of one shard."""

    def __init__(self, dfa: DFA, window: int, shard: int, n: int):
        super().__init__(dfa, window)
        self.shard, self.n = shard, n
        self.emitted: set[tuple[str, str]] = set()

    def _owns(self, root: str) -> bool:
        return shard_of(root, self.n) == self.shard

    def advance(self, sgts: list[tuple]) -> list[ResultRow]:
        """Process ``sgts`` (ts-sorted ``(ts, src, dst, label, op)`` tuples).

        Returns the pairs derivable at the last tuple's timestamp that were
        not emitted before, each with the minimum ts of its final-state nodes.
        """
        for t in sgts:
            self.process(Sgt(*t))
        new = []
        finals = self.dfa.finals
        for x, y in self.derivable_pairs() - self.emitted:
            tree = self.trees[x]
            # The root's ts is +∞, so it never wins the minimum.
            ts = min(tree.nodes[(y, s)].ts for s in finals if (y, s) in tree.nodes)
            new.append((x, y, int(ts)))
            self.emitted.add((x, y))
        return new


class _ListParam(AccumulatorParam):
    def zero(self, value):
        return []

    def addInPlace(self, a, b):
        a += b
        return a


def _skip_unchanged_zip_rereads() -> None:
    """Make ``zipimporter.invalidate_caches`` re-read only changed archives.

    PySpark's worker calls ``importlib.invalidate_caches()`` at the start of
    every task. Before Python 3.12 (gh-103200 made it lazy), each
    ``zipimporter`` on ``sys.path`` then re-parses its whole archive's central
    directory: with ``pyspark.zip``, the Spark jar and py4j that is about
    27k entries, some 0.25 s per task. The wrapper re-reads an archive only
    when its ``(st_mtime_ns, st_size)`` differs from its last read, so a
    re-shipped archive is still picked up. Installed once per process, from
    the functions that run in the workers. The first task of each worker
    still pays the full re-read; the next one reads each archive once, since
    importers over one archive share its directory; later tasks of a reused
    worker read nothing.
    """
    read = zipimport.zipimporter.invalidate_caches
    if sys.version_info >= (3, 12) or getattr(read, "skips_unchanged", False):
        return
    read_at: dict[str, tuple[int, int]] = {}  # archive -> stat key of its last read

    def invalidate_caches(self):
        try:
            st = os.stat(self.archive)
        except OSError:
            read_at.pop(self.archive, None)
            return read(self)
        key = (st.st_mtime_ns, st.st_size)
        files = zipimport._zip_directory_cache.get(self.archive)
        if files is not None and read_at.get(self.archive) == key:
            self._files = files
            return
        read(self)
        read_at[self.archive] = key

    invalidate_caches.skips_unchanged = True
    zipimport.zipimporter.invalidate_caches = invalidate_caches


def _advance(engines, sgts, rows):
    """Advance each shard engine of a partition by ``sgts``; yield it.

    Consumes the whole partition. PySpark reuses a Python worker only after a
    task has read all of its input; a worker that stops early is replaced by
    a fresh one, which re-installs the zip guard and pays its first re-read.
    """
    _skip_unchanged_zip_rereads()
    for engine in engines:
        rows.add(engine.advance(sgts))
        yield engine


def _derivable_pairs(engine: ShardEngine) -> set[tuple[str, str]]:
    _skip_unchanged_zip_rereads()
    return engine.derivable_pairs()


def _ship_package(sc: SparkContext) -> None:
    """Make ``repro`` importable in the Python workers, once per context."""
    if "repro.zip" in sc._python_includes:
        return
    src = Path(__file__).resolve().parents[2]
    path = os.path.join(SparkFiles.getRootDirectory(), "repro.zip")
    with zipfile.ZipFile(path, "w") as z:
        for f in (src / "repro").rglob("*.py"):
            z.write(f, f.relative_to(src))
    sc.addPyFile(path)


class BatchTimes(NamedTuple):
    """Where one micro-batch's time went, in seconds, and its row count."""

    collect_s: float  # collecting, sorting and checking the batch on the driver
    state_job_s: float  # the mapPartitions job that advances the shards
    rows: int  # result rows appended


class IncrementalRPQ:
    """Micro-batch incremental RPQ evaluation over a sliding window."""

    def __init__(self, spark: SparkSession, dfa: DFA, window: int):
        sc = spark.sparkContext
        _ship_package(sc)
        n = sc.defaultParallelism
        self.state = sc.parallelize([ShardEngine(dfa, window, i, n) for i in range(n)], n)
        self._new_rows = sc.accumulator([], _ListParam())
        self.rows: list[ResultRow] = []
        self.watermark: float = -math.inf
        self.closure_rounds = 0  # state-advancing Spark jobs
        self.batch_times: list[BatchTimes] = []  # one per completed batch

    def process_batch(self, batch: DataFrame) -> list[ResultRow]:
        """Consume one micro-batch of sgts; returns the newly appended rows.

        ``batch`` columns: ``ts, src, dst, label, op``. Raises ``ValueError``
        on an unknown ``op`` or a timestamp before the previous watermark
        (in-order streams, paper §2). If the state job fails, the watermark
        and the state stay as they were, so the batch can be retried.
        """
        t0 = time.perf_counter()
        cols = batch.select("ts", "src", "dst", "label", "op").collect()
        sgts = sorted(map(tuple, cols), key=itemgetter(0))
        for t in sgts:
            check_tuple(Sgt(*t), self.watermark)
        t1 = time.perf_counter()
        if not sgts:
            self.batch_times.append(BatchTimes(t1 - t0, 0.0, 0))
            return []
        acc = self._new_rows
        acc.value = []
        new = self.state.mapPartitions(lambda engines: _advance(engines, sgts, acc))
        new.persist().localCheckpoint()
        try:
            new._jrdd.count()  # runs the job in the JVM, without a Python pass
        except BaseException:
            new.unpersist()
            raise
        rows = acc.value
        self.watermark = sgts[-1][0]
        self.state.unpersist()
        self.state = new
        self.closure_rounds += 1
        self.rows += rows
        self.batch_times.append(BatchTimes(t1 - t0, time.perf_counter() - t1, len(rows)))
        return rows

    def results(self) -> set[tuple[str, str]]:
        """All pairs appended to the output stream so far."""
        return {(x, y) for x, y, _ in self.rows}

    def derivable_pairs(self) -> set[tuple[str, str]]:
        """Pairs witnessed by the current state (the last watermark's snapshot)."""
        return set(self.state.flatMap(_derivable_pairs).collect())
