"""Harness/runner/experiment driver tests (small scales)."""
import pytest

from repro.core.queries import make_query
from repro.core.rapq import RAPQEngine
from repro.harness.experiments import (
    fig5_index_size,
    fig6_scalability,
    fig10_deletions,
    fig11_speedup,
    gmark_summary,
    table1_complexity,
    table2_queries,
    table3_labels,
    table4_simple_path,
)
from repro.harness.runner import RunMetrics, fmt_table, run_engine
from repro.rpq_oracle import Sgt
from repro.streams.generators import so_stream


class TestRunner:
    def test_run_engine_counts(self):
        q = make_query("Q1", {"a": "a2q"})
        stream = so_stream(300)
        m = run_engine(RAPQEngine(q.dfa, window=50, slide=5), stream)
        assert m.n_tuples == 300
        # Q1 only matches a2q (~1/3 of edges).
        assert 0 < m.n_relevant < 300
        assert len(m.latencies_us) == m.n_relevant
        assert m.throughput > 0
        assert m.p99_us >= m.p50_us > 0

    def test_expiry_time_is_that_of_the_boundary_tuples(self):
        q = make_query("Q1", {"a": "a2q"})
        engine = RAPQEngine(q.dfa, window=50, slide=5)
        expire, calls = engine.expire, []
        engine.expire = lambda *a, **k: calls.append(a) or expire(*a, **k)
        stream = [Sgt(ts, "u", "v", "a2q") for ts in (0, 1, 4, 5, 5, 9, 15)]
        m = run_engine(engine, stream)
        assert m.n_expiries == len(calls) == 3  # boundaries 0, 5, 15
        assert 0 < m.expiry_s < m.elapsed_s

    def test_metrics_quantiles(self):
        m = RunMetrics(latencies_us=[float(i) for i in range(1, 101)])
        assert m.p50_us == 51.0
        assert m.p99_us == 100.0
        assert m.mean_us == 50.5

    def test_budget_failure_flagged(self):
        from repro.core.rspq import RSPQEngine

        q = make_query("Q6", {"a": "a2q", "b": "c2a"})
        stream = so_stream(400, n_vertices=30)
        m = run_engine(RSPQEngine(q.dfa, window=100, slide=10, budget=50), stream)
        assert m.failed

    def test_fmt_table(self):
        s = fmt_table([{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}])
        lines = s.splitlines()
        assert lines[0].split() == ["a", "b"]
        assert "22" in lines[3]

    def test_fmt_table_empty(self):
        assert fmt_table([]) == "(no rows)"


class TestExperimentDrivers:
    """Small-scale smoke runs asserting the *shape* the paper reports."""

    def test_table1_window_cost_grows(self):
        rows = table1_complexity(scale=0.5)
        w_rows = [r for r in rows if r["sweep"] == "|W| (k fixed)"]
        assert len(w_rows) == 4
        # The amortized O(n·k²) bound: window state (∝ n) grows with |W|
        # and the per-tuple cost follows. max_nodes is deterministic; the
        # latency check is lenient to absorb timing noise.
        assert w_rows[-1]["max_nodes"] > w_rows[0]["max_nodes"] * 2
        assert w_rows[-1]["mean_us"] > w_rows[0]["mean_us"]

    def test_fig6_rows(self):
        rows = fig6_scalability(scale=0.1)
        assert [(r["sweep"], r["value"]) for r in rows] == [
            ("|W|", 50), ("|W|", 100), ("|W|", 200), ("|W|", 400),
            ("beta", 5), ("beta", 10), ("beta", 20), ("beta", 40),
        ]
        assert all(list(r) == ["sweep", "value", "p99_us", "mean_us", "throughput_eps",
                               "expiry_share_pct", "expiry_ms_per_slide"] for r in rows)
        assert all(0 < r["expiry_share_pct"] < 100 and r["expiry_ms_per_slide"] > 0
                   for r in rows)

    def test_table2_rows(self):
        rows = table2_queries()
        assert len(rows) == 11
        q11 = [r for r in rows if r["query"] == "Q11"][0]
        assert q11["k_so"] == 4
        q4 = [r for r in rows if r["query"] == "Q4"][0]
        assert q4["k_ldbc"] == "-"  # not formulable on LDBC

    def test_table3_rows(self):
        rows = table3_labels()
        assert [r["graph"] for r in rows] == ["so", "ldbc", "yago"]
        assert "a2q" in rows[0]["bindings"]

    def test_fig5_dense_queries_have_bigger_index(self):
        rows = fig5_index_size(scale=0.25)
        by_name = {r["query"]: r for r in rows}
        # Q4/Q9 cover all SO labels with recursion: larger index than Q11.
        assert by_name["Q4"]["max_nodes"] > by_name["Q11"]["max_nodes"]
        assert by_name["Q9"]["max_nodes"] > by_name["Q11"]["max_nodes"]

    def test_table4_restricted_queries_succeed(self):
        rows = table4_simple_path(datasets=("yago",), scale=0.2)
        by_name = {r["query"]: r for r in rows}
        # Q1 and Q4 have the containment property → always evaluable.
        assert by_name["Q1"]["restricted"] and by_name["Q1"]["success"]
        assert by_name["Q4"]["restricted"] and by_name["Q4"]["success"]
        # The near-acyclic Yago-like graph evaluates everything (paper row 1).
        assert all(r["success"] for r in rows)

    def test_fig10_deletion_rows_shape(self):
        rows = fig10_deletions(scale=0.15, queries=("Q1",))
        assert len(rows) == 3
        assert [r["del_ratio_pct"] for r in rows] == [2, 5, 10]

    def test_fig11_rows(self, spark):
        """The driver asserts that the per-slide batch baseline's results lie
        within the incremental engine's before it reports a row."""
        rows = fig11_speedup(spark, queries=("Q11",), scale=0.1)
        assert [list(r) for r in rows] == [["query", "slides", "incremental_ms_per_slide",
                                            "batch_reeval_ms_per_slide", "speedup"]]
        (row,) = rows
        assert row["query"] == "Q11" and row["slides"] > 0
        assert row["incremental_ms_per_slide"] > 0 and row["batch_reeval_ms_per_slide"] > 0
        assert isinstance(row["speedup"], int)

    def test_gmark_summary_buckets(self):
        rows = [
            {"size": 2, "k": 2, "throughput_eps": 10.0},
            {"size": 3, "k": 3, "throughput_eps": 20.0},
            {"size": 9, "k": 4, "throughput_eps": 30.0},
        ]
        out = gmark_summary(rows)
        assert out[0]["n"] == 2 and out[1]["n"] == 1


class TestStreamingRpqWorkloadSanity:
    def test_so_q11_highest_throughput(self):
        """Fig 4's most robust ordering: the non-recursive Q11 is fastest."""
        from repro.harness.experiments import fig4_throughput

        rows = fig4_throughput(datasets=("so",), scale=0.25)
        by_name = {r["query"]: r for r in rows}
        slowest = min(r["throughput_eps"] for r in rows)
        assert by_name["Q11"]["throughput_eps"] == max(
            r["throughput_eps"] for r in rows
        )
        assert by_name["Q11"]["throughput_eps"] > 2 * slowest
