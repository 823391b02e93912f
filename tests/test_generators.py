"""Stream generator and gMark workload tests (Table 3 properties)."""
import pytest

from repro.core.queries import LABEL_BINDINGS, workload
from repro.streams.generators import (
    LDBC_LABELS,
    SO_LABELS,
    dataset_stream,
    ldbc_stream,
    so_stream,
    with_deletions,
    yago_stream,
)
from repro.streams.gmark import gmark_stream, gmark_workload, random_rpq


def label_set(stream):
    return {t.label for t in stream}


class TestSoStream:
    def test_exactly_three_labels(self):
        assert label_set(so_stream(500)) <= set(SO_LABELS)
        assert label_set(so_stream(2000)) == set(SO_LABELS)

    def test_timestamps_fixed_rate_nondecreasing(self):
        s = so_stream(200, rate=10)
        ts = [t.ts for t in s]
        assert ts == sorted(ts)
        assert ts[0] == 0 and ts[-1] == (200 - 1) // 10

    def test_deterministic_in_seed(self):
        assert so_stream(300, seed=5) == so_stream(300, seed=5)
        assert so_stream(300, seed=5) != so_stream(300, seed=6)

    def test_cyclicity(self):
        """SO-like graphs must contain 2-cycles (back-edges every other edge)."""
        s = so_stream(2000, n_vertices=50)
        edges = {(t.src, t.dst) for t in s}
        assert any((v, u) in edges for (u, v) in edges)

    def test_no_self_loops(self):
        assert all(t.src != t.dst for t in so_stream(1000))

    def test_query_labels_covered(self):
        """Every Table 2 query on SO bindings matches some stream edges."""
        labels = label_set(so_stream(2000))
        for q in workload("so"):
            assert q.dfa.alphabet <= labels


class TestLdbcStream:
    def test_labels(self):
        assert label_set(ldbc_stream(3000)) == set(LDBC_LABELS)

    def test_type_discipline(self):
        """knows joins persons; replyOf joins messages; hasCreator m→p."""
        for t in ldbc_stream(3000):
            if t.label == "knows":
                assert t.src.startswith("p") and t.dst.startswith("p")
            elif t.label == "replyOf":
                assert t.src.startswith("m") and t.dst.startswith("m")
            elif t.label == "hasCreator":
                assert t.src.startswith("m") and t.dst.startswith("p")
            elif t.label == "likes":
                assert t.src.startswith("p") and t.dst.startswith("m")

    def test_replyof_acyclic(self):
        """replyOf points to older messages → reply chains are acyclic."""
        for t in ldbc_stream(3000):
            if t.label == "replyOf":
                assert int(t.src[1:]) > int(t.dst[1:])


class TestYagoStream:
    def test_label_richness(self):
        labels = label_set(yago_stream(5000))
        assert len(labels) > 50  # rich schema (~100 labels)
        assert {"happenedIn", "hasCapital", "participatedIn"} <= labels

    def test_mostly_forward_edges(self):
        fwd = sum(
            1 for t in yago_stream(3000) if int(t.src[1:]) < int(t.dst[1:])
        )
        assert fwd / 3000 > 0.85  # near-acyclic

    def test_table3_bindings_exist_in_streams(self):
        for ds in ("so", "ldbc", "yago"):
            labels = label_set(dataset_stream(ds, 4000))
            assert set(LABEL_BINDINGS[ds].values()) <= labels


class TestDeletions:
    def test_ratio_roughly_respected(self):
        base = so_stream(2000)
        stream = with_deletions(base, 0.1)
        dels = sum(1 for t in stream if t.op == "-")
        assert 100 <= dels <= 320  # ~10% of 2000, binomial spread

    def test_deletions_reference_previous_edges(self):
        base = so_stream(500)
        stream = with_deletions(base, 0.2)
        seen = set()
        for t in stream:
            if t.op == "-":
                assert (t.src, t.dst, t.label) in seen
            else:
                seen.add((t.src, t.dst, t.label))

    def test_zero_ratio_is_identity(self):
        base = so_stream(200)
        assert with_deletions(base, 0.0) == base


class TestGmark:
    def test_workload_sizes_span_range(self):
        ws = gmark_workload(100, (2, 20))
        sizes = [q.size for q in ws]
        assert min(sizes) >= 2
        assert max(sizes) <= 22  # grouping granularity may overshoot slightly
        assert len(ws) == 100

    def test_queries_compile_and_have_states(self):
        for q in gmark_workload(30):
            assert q.k >= 1

    def test_dfa_size_no_exponential_blowup(self):
        """Figure 7's observation: k stays small relative to |Q| in practice."""
        ws = gmark_workload(100, (2, 20))
        assert max(q.k for q in ws) <= 64

    def test_random_rpq_deterministic(self):
        import random

        assert random_rpq(10, random.Random(3)) == random_rpq(10, random.Random(3))

    def test_gmark_stream_shape(self):
        s = gmark_stream(1000)
        assert len(s) == 1000
        assert len(label_set(s)) == 8
