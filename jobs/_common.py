"""Shared helpers for spark-submit job entry points.

Importing this module puts ``<repo>/src`` on ``sys.path``, so every job
(which imports it first) finds ``repro`` from any working directory.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


def job_args(description: str, needs_spark: bool = False):
    """Parse the common --scale flag (and build a SparkSession if needed)."""
    ap = argparse.ArgumentParser(description=description)
    ap.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="stream-length multiplier relative to the default experiment size",
    )
    args = ap.parse_args()
    spark = None
    if needs_spark:
        from pyspark.sql import SparkSession

        spark = (
            SparkSession.builder.appName("repro-job")
            .config("spark.sql.shuffle.partitions", "4")
            .config("spark.sql.autoBroadcastJoinThreshold", -1)
            .getOrCreate()
        )
    return args, spark
