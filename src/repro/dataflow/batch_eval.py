"""Batch RPQ evaluation on a static snapshot with Spark DataFrame fixpoints.

This is (a) the paper's §3 "Batch Algorithm" — traverse the product graph
from every ``(x, s0)`` — expressed as a semi-naive Datalog-style fixpoint
over DataFrames, and (b) the re-evaluation baseline used in §5.6: the
Virtuoso emulation re-ran the query over the window content after updates,
which is exactly what :func:`batch_rapq` per snapshot does (see
``dataflow/incremental.py`` for the incremental engine it is compared to in
the Fig. 11 experiment).

The iteration joins the frontier with the product-edge relation until no new
``(x, v, s)`` fact appears. ``localCheckpoint`` truncates lineage each round
so plans stay bounded regardless of the product graph's diameter.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..core.dfa import DFA
from .product_graph import product_edges

MAX_ROUNDS = 200  # fixpoint rounds before batch_rapq gives up


def batch_rapq(edges: DataFrame, dfa: DFA) -> DataFrame:
    """Arbitrary-path RPQ result pairs ``(x, y)`` on a static edge snapshot.

    ``edges`` needs columns ``src, dst, label``. Returns a DataFrame with
    columns ``x, y`` — the distinct vertex pairs connected by a path of
    length ≥ 1 whose label is in L(R). The pair ``(x, x)`` is included only
    when a cycle reaches ``x`` in a non-start final state (engine-faithful
    semantics, DESIGN.md).
    """
    pe = product_edges(edges, dfa).distinct().localCheckpoint(eager=True)
    # Seed: one hop from every (x, s0).
    reach = (
        pe.filter(F.col("src_s") == dfa.start)
        .select(
            F.col("src_v").alias("x"),
            F.col("dst_v").alias("v"),
            F.col("dst_s").alias("s"),
        )
        .distinct()
        .localCheckpoint(eager=True)
    )
    frontier = reach
    for _ in range(MAX_ROUNDS):
        if frontier.isEmpty():
            break
        grown = (
            frontier.join(
                pe,
                (frontier["v"] == pe["src_v"]) & (frontier["s"] == pe["src_s"]),
            )
            .select(
                frontier["x"],
                pe["dst_v"].alias("v"),
                pe["dst_s"].alias("s"),
            )
            .distinct()
        )
        frontier = grown.exceptAll(reach).distinct().localCheckpoint(eager=True)
        if frontier.isEmpty():
            break
        reach = reach.union(frontier).localCheckpoint(eager=True)
    else:
        raise RuntimeError(f"fixpoint did not converge in {MAX_ROUNDS} rounds")
    finals = [int(f) for f in dfa.finals]
    return (
        reach.filter(F.col("s").isin(finals))
        .filter(~((F.col("v") == F.col("x")) & (F.col("s") == F.lit(dfa.start))))
        .select("x", F.col("v").alias("y"))
        .distinct()
    )
