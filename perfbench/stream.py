"""Dataflow workload: Structured Streaming micro-batches through ``dataflow/``.

The stream is written as JSON-lines files, one slide per file. A closed loop
with one client writes the next file only after
``query.processAllAvailable()`` has returned for the previous one, so each
trigger consumes exactly one file. The warm-up batches belong to set-up: they
fill the first window, after which the window and path state are at their
steady size and the JVM has compiled the hot paths. Spark runs ``local[2]`` with two shuffle partitions, and
all of its scratch space lives in the run's work directory.
"""
from __future__ import annotations

import os
import time

from common import Tracer, median, metric, peak_rss_mb, result_digest
from delta import set_up
from repro.rpq_oracle import rapq_pairs, snapshot_edges


def start_spark(work_dir: str):
    local = os.path.join(work_dir, "spark-local")
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        "--master local[2] --driver-memory 1g "
        f"--driver-java-options -Djava.io.tmpdir={local} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf spark.local.dir={local} pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "2")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.warehouse.dir", os.path.join(work_dir, "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then the gateway JVM, and wait until it has exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        proc = getattr(gateway, "proc", None)
        if proc is not None:
            proc.stdin.close()
            proc.wait(timeout=60)


def oracle_union(files: list[list], window: int, dfa) -> set:
    """Union of the batch results at each micro-batch watermark."""
    out: set = set()
    prefix: list = []
    for chunk in files:
        prefix += chunk
        out |= rapq_pairs(snapshot_edges(prefix, prefix[-1].ts, window), dfa)
    return out


def run(wl, seed: int, trace: bool, work_dir: str):
    import repro.dataflow.incremental as incremental
    from repro.dataflow.batch_eval import batch_rapq
    from repro.dataflow.product_graph import edges_df
    from repro.dataflow.streaming_job import start_streaming_rpq, write_sgt_file

    t_start = time.perf_counter()
    s = set_up(wl, seed)
    stream = s.stream
    t0 = time.perf_counter()
    spark = start_spark(work_dir)
    spark_s = time.perf_counter() - t0
    files = [stream[i:i + wl.batch_tuples] for i in range(0, len(stream), wl.batch_tuples)]
    print(f"# {wl.name}: {len(stream)} tuples in {len(files)} files ({wl.warmup_files} warm-up), "
          f"query {s.query.name} = {s.query.text}, |W|={wl.window}, seed={seed}")
    try:
        in_dir = os.path.join(work_dir, "in")
        os.makedirs(in_dir)
        query, engine, sink = start_streaming_rpq(spark, in_dir, s.query.dfa, wl.window)
        df_cls = type(spark.range(1))

        def feed(i: int) -> int:
            """Hand over file ``i``; returns the batch wall time in ns."""
            t = time.perf_counter_ns()
            write_sgt_file(os.path.join(in_dir, f"part-{i:05d}.json"), files[i])
            query.processAllAvailable()
            return time.perf_counter_ns() - t

        for i in range(wl.warmup_files):
            feed(i)
        setup_s = time.perf_counter() - t_start
        walls, traced, closure_rounds = [], [], 0
        tracer = Tracer()
        # The whole stream is one pass, longer than a run's --seconds. Traced
        # runs trace every other timed batch, from the second on, that has a
        # successor; its wall time minus the mean of its untraced neighbours'
        # is the tracing overhead.
        for i in range(wl.warmup_files, len(files)):
            on = trace and (i - wl.warmup_files) % 2 == 1 and i + 1 < len(files)
            if on:
                r0 = engine.closure_rounds
                tracer.wrap(incremental.IncrementalRPQ, "process_batch", "process_batch")
                tracer.wrap(df_cls, "localCheckpoint", "localCheckpoint")
            wall = feed(i)
            if on:
                tracer.close()
                closure_rounds += engine.closure_rounds - r0
            walls.append(wall)
            traced.append(on)
        progress = [p for p in query.recentProgress if p["numInputRows"] > 0]
        query.stop()
        timed = progress[wl.warmup_files:]
        if len(timed) != len(walls):
            raise RuntimeError(f"{len(timed)} triggers for {len(walls)} files")

        want = oracle_union(files, wl.window, s.query.dfa)
        problems = []
        if sink.pairs() != want:
            problems.append(f"sink pairs differ from the oracle union: "
                            f"{len(want - sink.pairs())} missing, {len(sink.pairs() - want)} extra")
        digest = result_digest(sink.rows)
        print(f"# result: {len(sink.rows)} sink rows, digest {digest}")
        if seed == wl.default_seed and digest != wl.digest:
            problems.append("result digest differs from the one recorded for the default seed")
        # Fig 11 baseline: one batch re-evaluation of the final window.
        snap = snapshot_edges(stream, stream[-1].ts, wl.window)
        t0 = time.perf_counter()
        batch_pairs = {(r["x"], r["y"]) for r in batch_rapq(edges_df(spark, snap), s.query.dfa).collect()}
        batch_rapq_s = time.perf_counter() - t0
        if batch_pairs != rapq_pairs(snap, s.query.dfa):
            problems.append("batch_rapq on the final window differs from the oracle")
    finally:
        stop_spark(spark)
    for p in problems:
        print(f"# GATE FAILED: {p}")
    attempted = len(stream)
    trig = [p["durationMs"]["triggerExecution"] for p in timed]
    if trace:
        on = [k for k, t in enumerate(traced) if t]
        on_wall = sum(walls[k] for k in on) / 1e9
        out = {
            "streaming.trigger_ms": float(sum(trig[k] for k in on)),
            "streaming.add_batch_ms": float(sum(timed[k]["durationMs"]["addBatch"] for k in on)),
            "streaming.overhead_s": on_wall - sum(trig[k] for k in on) / 1e3,
            "incremental.process_batch_s": tracer.total_s("process_batch"),
            "incremental.closure_rounds": closure_rounds,
            "incremental.local_checkpoints": tracer.calls("localCheckpoint"),
            "incremental.local_checkpoint_s": tracer.total_s("localCheckpoint"),
            "batch_eval.batch_rapq_s": batch_rapq_s,
            "setup.stream_gen_s": s.gen_s,
            "setup.compile_s": s.compile_s,
            "setup.spark_session_s": spark_s,
            "trace.wall_s": on_wall,
            "trace.overhead_s": sum(walls[k] - (walls[k - 1] + walls[k + 1]) / 2 for k in on) / 1e9,
        }
        print(f"# traced batches={len(on)} of {len(walls)} (every other one); per-layer values sum the traced batches")
        return not problems, attempted, 0, out
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "throughput_tps": metric(sum(len(f) for f in files[wl.warmup_files:]) / (sum(walls) / 1e9),
                                 "tuples/s"),
        # Every tuple of a file waits for its batch, so a tuple's latency is
        # its batch's wall time; the samples are the batches. The median of
        # equal-sized batches is the tuples' median. A handful of batches
        # cannot support a p99 (``tail_percentile`` refuses it); the result
        # still names every end-to-end metric, so this one is the slowest
        # timed batch, the largest latency any tuple saw.
        "latency_p50_us": metric(median(walls) / 1e3, "us"),
        "latency_p99_us": metric(max(walls) / 1e3, "us"),
        "batch_p50_ms": metric(float(median(trig)), "ms"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    print(f"# timed batches={len(walls)} (latency_p99_us is the slowest of them) failed_frac=0 "
          f"closure rounds={engine.closure_rounds} "
          f"batch walls ms={[round(w / 1e6) for w in walls]}")
    return not problems, attempted, 0, metrics
