"""Figure 11 (as a table): incremental Δ-tree engine vs per-slide batch
re-evaluation (the Virtuoso-emulation baseline). Needs Spark."""
from _common import job_args

from repro.harness.experiments import fig11_speedup
from repro.harness.runner import fmt_table


def main() -> None:
    args, spark = job_args(__doc__, needs_spark=True)
    print("Figure 11 (table) — incremental vs batch re-evaluation speedup")
    print(fmt_table(fig11_speedup(spark, scale=args.scale)))
    spark.stop()


if __name__ == "__main__":
    main()
