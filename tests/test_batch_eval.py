"""Spark batch RPQ evaluator vs brute force and the DuckDB recursive CTE."""
import pandas as pd
import pytest

from repro.core.dfa import compile_regex
from repro.core.queries import make_query
from repro.core.regex import parse
from repro.dataflow.batch_eval import batch_rapq
from repro.dataflow.product_graph import edges_df, product_edges, transitions_df
from repro.oracle import assert_equivalent
from repro.rpq_oracle import product_edge_rows, rapq_pairs, recursive_cte_sql

EDGES_SMALL = [
    ("x", "y", "a"), ("y", "z", "b"), ("z", "x", "a"),
    ("y", "w", "c"), ("w", "w", "b"), ("x", "w", "a"),
    ("w", "y", "a"), ("z", "w", "c"),
]


def pairs_of(df):
    return {(r["x"], r["y"]) for r in df.collect()}


class TestProductGraph:
    def test_transitions_df_matches_dfa(self, spark):
        dfa = compile_regex(parse("a b*"))
        rows = {
            (r["src_s"], r["label"], r["dst_s"])
            for r in transitions_df(spark, dfa).collect()
        }
        assert rows == set(dfa.transition_rows())

    def test_product_edges_match_oracle_rows(self, spark):
        dfa = compile_regex(parse("(a|b)+"))
        e = edges_df(spark, EDGES_SMALL)
        got = {
            (r["src_v"], r["src_s"], r["dst_v"], r["dst_s"])
            for r in product_edges(e, dfa).collect()
        }
        assert got == set(product_edge_rows(EDGES_SMALL, dfa))

    def test_irrelevant_labels_drop_out(self, spark):
        dfa = compile_regex(parse("a"))
        e = edges_df(spark, [("x", "y", "zzz")])
        assert product_edges(e, dfa).isEmpty()


@pytest.mark.parametrize("text", ["a", "a b", "a*", "(a|b)+", "a b* c", "(a b)+"])
class TestBatchRapq:
    def test_matches_bruteforce(self, spark, text):
        dfa = compile_regex(parse(text))
        got = pairs_of(batch_rapq(edges_df(spark, EDGES_SMALL), dfa))
        assert got == rapq_pairs(EDGES_SMALL, dfa)

    def test_matches_duckdb_recursive_cte(self, spark, text):
        """Certify the Spark fixpoint against DuckDB via assert_equivalent."""
        dfa = compile_regex(parse(text))
        result = batch_rapq(edges_df(spark, EDGES_SMALL), dfa)
        pe = pd.DataFrame(
            product_edge_rows(EDGES_SMALL, dfa),
            columns=["src_v", "src_s", "dst_v", "dst_s"],
        )
        assert_equivalent(result, recursive_cte_sql(dfa), pe=pe)


class TestBatchRapqEdgeCases:
    def test_empty_graph(self, spark):
        dfa = compile_regex(parse("a"))
        assert batch_rapq(edges_df(spark, []), dfa).isEmpty()

    def test_table2_queries_on_so_labels(self, spark):
        """All Table 2 query shapes run through the dataflow evaluator."""
        edges = [
            ("u1", "u2", "a2q"), ("u2", "u3", "c2a"), ("u3", "u1", "c2q"),
            ("u2", "u4", "a2q"), ("u4", "u1", "c2a"),
        ]
        for name in ("Q1", "Q3", "Q9", "Q11"):
            q = make_query(name, {
                "a": "a2q", "b": "c2a", "c": "c2q",
                "a1": "a2q", "a2": "c2a", "a3": "c2q",
            })
            got = pairs_of(batch_rapq(edges_df(spark, edges), q.dfa))
            assert got == rapq_pairs(edges, q.dfa), name
