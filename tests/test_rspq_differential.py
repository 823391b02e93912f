"""Differential testing of Algorithm RSPQ against the simple-path oracle.

Same harness as the RAPQ differential suite: random small streams, eager
expiry (β=1), index-vs-batch-snapshot equality after each probe point and
final append-only result equality against the union-of-snapshots reference.
Graphs are kept tiny because the oracle enumerates all simple paths.
"""
import random

import pytest

from repro.core.dfa import compile_regex
from repro.core.regex import parse
from repro.core.rspq import RSPQEngine
from repro.rpq_oracle import (
    Sgt,
    rspq_pairs,
    snapshot_edges,
    streaming_reference,
)

from .streams import random_stream

QUERIES = [
    "a*",
    "a b*",
    "(a|b|c)*",
    "a b* c",
    "a b c*",
    "(a|b|c)+",
    "a b c",
    "(a b)+",  # lacks the containment property → conflicts on cyclic graphs
    "a* b*",   # likewise
]


def replay_and_check(query_text, stream, window, probe_every=4):
    dfa = compile_regex(parse(query_text))
    engine = RSPQEngine(dfa, window=window, slide=1, budget=2_000_000)
    for i, t in enumerate(stream):
        engine.process(t)
        if i % probe_every == probe_every - 1 or i == len(stream) - 1:
            snap = snapshot_edges(stream[: i + 1], t.ts, window)
            expected = rspq_pairs(snap, dfa)
            got = engine.derivable_pairs()
            assert got == expected, (
                f"{query_text} step {i} ts={t.ts}: index={sorted(got)} "
                f"batch={sorted(expected)} snap={sorted(snap)}"
            )
    return engine


@pytest.mark.parametrize("query", QUERIES)
@pytest.mark.parametrize("seed", range(5))
def test_append_only_invariant_and_final_results(query, seed):
    stream = random_stream(seed * 7919 + 13, n=35, n_vertices=5)
    window = [8, 15, 30][seed % 3]
    engine = replay_and_check(query, stream, window)
    expected_final = streaming_reference(stream, engine.dfa, window, simple=True)
    assert set(engine.results) == expected_final


@pytest.mark.parametrize("query", ["a*", "(a|b|c)+", "(a b)+", "a b c"])
@pytest.mark.parametrize("seed", range(6))
def test_with_explicit_deletions_invariant(query, seed):
    stream = random_stream((seed + 100) * 7919 + 13, n=40, n_vertices=5, delete_prob=0.25)
    window = [10, 20][seed % 2]
    replay_and_check(query, stream, window)


@pytest.mark.parametrize("seed", range(4))
def test_conflict_heavy_dense_cycles(seed):
    """(a b)+ on a dense 4-vertex two-label graph exercises Unmark heavily."""
    stream = random_stream((seed + 50) * 7919 + 13, n=45, n_vertices=4, labels=("a", "b"))
    engine = replay_and_check("(a b)+", stream, window=12, probe_every=3)
    # Sanity: this regime does produce conflicts.
    assert engine.extend_calls > 0


@pytest.mark.parametrize("seed", range(3))
def test_single_label_clique(seed):
    """a+ on a tiny dense single-label graph: maximal cyclicity."""
    stream = random_stream((seed + 200) * 7919 + 13, n=40, n_vertices=4, labels=("a",))
    replay_and_check("a+", stream, window=10, probe_every=3)


def test_rspq_equals_rapq_on_acyclic_stream():
    """On DAG streams simple and arbitrary semantics coincide (§4.1)."""
    from repro.core.rapq import RAPQEngine

    rng = random.Random(0)
    stream = []
    ts = 0
    for _ in range(40):
        ts += rng.randint(0, 2)
        i = rng.randint(0, 5)
        j = rng.randint(i + 1, 8)  # i < j: edges only "forward" → acyclic
        stream.append(Sgt(ts, f"v{i}", f"v{j}", rng.choice("ab")))
    for q in ["a*", "a b*", "(a|b)+"]:
        dfa = compile_regex(parse(q))
        rspq = RSPQEngine(dfa, window=15, slide=1)
        rapq = RAPQEngine(dfa, window=15, slide=1)
        for t in stream:
            rspq.process(t)
            rapq.process(t)
        assert set(rspq.results) == set(rapq.results)
        assert rspq.conflicts == 0
