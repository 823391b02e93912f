"""The DuckDB oracle (``repro.oracle.assert_equivalent``) on a tiny edge table."""
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent

EDGES = [
    ("v1", "v2", "a", 1),
    ("v2", "v3", "b", 2),
    ("v1", "v3", "a", 3),
    ("v3", "v1", "c", 4),
    ("v2", "v2", "a", 5),
]

PER_LABEL_SQL = (
    "SELECT label, COUNT(*) AS n, MAX(ts) AS last_ts FROM edges GROUP BY label"
)


@pytest.fixture
def edges(spark):
    return spark.createDataFrame(EDGES, "src string, dst string, label string, ts long")


class TestOracle:
    def test_assert_equivalent_on_aggregate(self, edges):
        got = edges.groupBy("label").agg(
            F.count("*").alias("n"), F.max("ts").alias("last_ts")
        )
        assert_equivalent(got, PER_LABEL_SQL, edges=edges)

    def test_assert_equivalent_catches_wrong_result(self, edges):
        wrong = edges.groupBy("label").agg(
            (F.count("*") + 1).alias("n"), F.max("ts").alias("last_ts")
        )
        with pytest.raises(AssertionError):
            assert_equivalent(wrong, PER_LABEL_SQL, edges=edges)
