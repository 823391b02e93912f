"""The benchmark's workloads and metrics: names, parameters and the reasons.

Later changes cite these names verbatim. ``digest`` is the SHA-256 of the
result stream (``(ts, x, y, op)`` events of the Δ-tree engines, ``(x, y, ts)``
sink rows of the dataflow job) on the workload's default seed with
``PYTHONHASHSEED=0``; the gate compares it only on the default seed.
"""
from __future__ import annotations

from dataclasses import dataclass

HASH_SEED = "0"  # PYTHONHASHSEED of every workload process


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "delta" (core/ Δ-tree engines) or "stream" (dataflow/)
    dataset: str
    n_edges: int
    default_seed: int
    query: str
    engine: str  # "rapq" | "rspq" | "incremental"
    window: int
    slide: int = 1
    delete_ratio: float = 0.0
    pass_s: float = 0.0  # nominal seconds of one pass (delta kind); sets the pass count
    batch_tuples: int = 0  # tuples per micro-batch file (stream kind)
    warmup_files: int = 0  # untimed first micro-batches (stream kind)
    digest: str = ""


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "so-q4-append",
            "Insert-bound: dense cyclic SO-like stream, Q4 (a2q|c2a|c2q)*, RAPQ, append-only; "
            "Insert propagation dominates and there are no deletions",
            "delta", "so", 3000, 0, "Q4", "rapq", window=60, slide=6, pass_s=5.5,
            digest="43ca7d93fb01e8a97d07fdaf5bbf2a987e083bd729f9e8bd06978cc5d9870653",
        ),
        Workload(
            "yago-q4-expiry-del",
            "Expiry- and deletion-bound: 126k-tuple Yago-like stream with 5% deletions, Q4, RAPQ, "
            "|W|=1000, beta=1; boundary expiry and Delete dominate, Insert is small",
            "delta", "yago", 120000, 2, "Q4", "rapq", window=1000, slide=1, delete_ratio=0.05,
            pass_s=20.0,
            digest="ed8f9ee1a5ef121cfd422c4f609c9e9460b4f8b2d014b2d93e3a794c1a8c7334",
        ),
        Workload(
            "so-q7-rspq",
            "The only run of core/rspq.py: SO-like stream, Q7 a2q c2a c2q*, RSPQ with conflicts "
            "and Unmark, beta=1, append-only",
            "delta", "so", 3000, 0, "Q7", "rspq", window=60, slide=1, pass_s=10.0,
            digest="3983a38dd2b08ddf7e8c1f52b0256c5a2c4b0d46f850fc7213e78fe27a6d1b8e",
        ),
        Workload(
            "yago-q2-stream",
            "The only run of dataflow/: Yago-like stream, Q2 happenedIn hasCapital*, |W|=100, "
            "Structured Streaming micro-batches of one 25-unit slide each",
            "stream", "yago", 3000, 2, "Q2", "incremental", window=100, batch_tuples=250,
            warmup_files=4,
            digest="3e9d4a166df5e2fcff7a2cb01bde05a7fd7be10cb1131c0d6c797e4c147e53ac",
        ),
    ]
}

END_TO_END = [  # (name, unit)
    ("setup_s", "s"),
    ("throughput_tps", "tuples/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("batch_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [  # (name, unit); every traced run reports all, 0 where a layer is idle
    ("rapq.insert_s", "s"),
    ("rapq.insert_pops", "count"),
    ("rapq.relinks", "count"),
    ("rapq.nodes_created", "count"),
    ("rapq.redundant_relink_frac", "ratio"),
    ("rapq.expire_boundary_s", "s"),
    ("rapq.expire_boundary_calls", "count"),
    ("rapq.expiry_candidates", "count"),
    ("rapq.delete_s", "s"),
    ("rapq.expire_delete_s", "s"),
    ("rapq.derivable_pairs_s", "s"),
    ("rapq.index_nodes_peak", "count"),
    ("rapq.trees_peak", "count"),
    ("windows.insert_s", "s"),
    ("windows.expire_s", "s"),
    ("windows.delete_s", "s"),
    ("windows.edges_peak", "count"),
    ("windows.expired_edges", "count"),
    ("rspq.insert_s", "s"),
    ("rspq.expire_s", "s"),
    ("rspq.extend_calls", "count"),
    ("rspq.conflicts", "count"),
    ("rspq.unmark_calls", "count"),
    ("rspq.nodes_created", "count"),
    ("rspq.detaches", "count"),
    ("rspq.occurrence_nodes_peak", "count"),
    ("rspq.budget_failures", "count"),
    ("streaming.trigger_ms", "ms"),
    ("streaming.add_batch_ms", "ms"),
    ("streaming.overhead_s", "s"),
    ("incremental.process_batch_s", "s"),
    ("incremental.closure_rounds", "count"),
    ("incremental.local_checkpoints", "count"),
    ("incremental.local_checkpoint_s", "s"),
    ("batch_eval.batch_rapq_s", "s"),
    ("setup.stream_gen_s", "s"),
    ("setup.compile_s", "s"),
    ("setup.spark_session_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
]
