"""Regenerate one of the paper's §5 tables: ``python jobs/run.py <name> [--scale S]``.

``<name>`` is the stem of its archived output under ``results/``: ``table1``
to ``table4``, ``fig4``, ``fig5``, ``fig6``, ``fig7_9``, ``fig10`` or
``fig11``. Only ``fig11`` needs Spark; ``spark-submit jobs/run.py fig11``
works as well as plain ``python``.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.harness import experiments as ex  # noqa: E402
from repro.harness.runner import fmt_table  # noqa: E402


def _fig7_9(scale: float) -> list[list[dict]]:
    rows = ex.fig7_9_gmark(scale=scale)
    return [ex.gmark_summary(rows), rows]


def _fig11(scale: float) -> list[list[dict]]:
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("repro-job")
        .config("spark.sql.shuffle.partitions", "4")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    try:
        return [ex.fig11_speedup(spark, scale=scale)]
    finally:
        spark.stop()


# name -> (printed title, scale -> the tables to print)
TABLES = {
    "table1": ("Table 1 — amortized cost validation (RAPQ; see EXPERIMENTS.md)",
               lambda s: [ex.table1_complexity(scale=s)]),
    "table2": ("Table 2 — real-world RPQ templates (k = minimal DFA states)",
               lambda s: [ex.table2_queries()]),
    "table3": ("Table 3 — label variable bindings per streaming graph",
               lambda s: [ex.table3_labels()]),
    "table4": ("Table 4 — simple path semantics: success + p99 overhead vs RAPQ",
               lambda s: [ex.table4_simple_path(scale=s)]),
    "fig4": ("Figure 4 (table) — Algorithm RAPQ throughput / p99 latency",
             lambda s: [ex.fig4_throughput(scale=s)]),
    "fig5": ("Figure 5 (table) — Δ index size on SO (size anti-correlates with throughput)",
             lambda s: [ex.fig5_index_size(scale=s)]),
    "fig6": ("Figure 6 (table) — |W| and β sweeps (gMark-like stream, Q3-like query)",
             lambda s: [ex.fig6_scalability(scale=s)]),
    "fig7_9": ("Figures 7-9 (tables) — synthetic gMark RPQ workload", _fig7_9),
    "fig10": ("Figure 10 (table) — p99 latency vs explicit deletion ratio",
              lambda s: [ex.fig10_deletions(scale=s)]),
    "fig11": ("Figure 11 (table) — incremental vs batch re-evaluation speedup", _fig11),
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("name", choices=TABLES, help="the table to regenerate")
    ap.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="stream-length multiplier relative to the default experiment size",
    )
    args = ap.parse_args()
    title, run = TABLES[args.name]
    print(title, flush=True)
    print("\n\n".join(fmt_table(rows) for rows in run(args.scale)))


if __name__ == "__main__":
    main()
