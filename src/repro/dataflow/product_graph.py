"""Product graph construction as a DataFrame transformation (Definition 11).

The product graph ``P_{G,A}`` of the window snapshot and the query DFA is the
join of the edge relation with the DFA's transition relation on the label
column — the dataflow analogue of "simultaneously traversing G and A".
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..core.dfa import DFA

SGT_SCHEMA = "ts LONG, src STRING, dst STRING, label STRING, op STRING"


def transitions_df(spark: SparkSession, dfa: DFA) -> DataFrame:
    """The DFA transition relation ``δ`` as ``(src_s, label, dst_s)`` rows."""
    return spark.createDataFrame(
        dfa.transition_rows(), "src_s INT, label STRING, dst_s INT"
    )


def product_edges(edges: DataFrame, dfa: DFA) -> DataFrame:
    """Join edges with δ: rows ``(src_v, src_s, dst_v, dst_s)``.

    ``edges`` needs columns ``src, dst, label``. Labels outside Σ_Q drop out
    of the inner join, mirroring the engines' tuple discarding.
    """
    trans = transitions_df(edges.sparkSession, dfa)
    return edges.join(trans, on="label").select(
        F.col("src").alias("src_v"),
        F.col("src_s"),
        F.col("dst").alias("dst_v"),
        F.col("dst_s"),
    )


def edges_df(spark: SparkSession, edges) -> DataFrame:
    """Build an edge DataFrame from ``(src, dst, label)`` tuples."""
    rows = [(str(u), str(v), str(l)) for u, v, l in edges]
    return spark.createDataFrame(rows, "src STRING, dst STRING, label STRING")
