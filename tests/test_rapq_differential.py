"""Differential testing of Algorithm RAPQ against brute-force oracles.

Random small streams are replayed with eager expiry (β=1). After every tuple
the Δ index must derive exactly the batch result on the current snapshot
(Lemma 1's invariants), and the final result set must equal the
union-of-snapshots reference (Definition 9). The per-step suites also
check the index's structure after every tuple (:func:`check_index`),
including under lazy expiry (β > 1).
"""
import math

import pytest

from repro.core.dfa import compile_regex
from repro.core.engine import NEG_INF
from repro.core.rapq import RAPQEngine, SpanningTree
from repro.core.regex import parse
from repro.rpq_oracle import (
    Sgt,
    rapq_pairs,
    snapshot_edges,
    streaming_reference,
)

from .streams import (
    best_timestamps,
    check_product_graph,
    process_checking_events,
    random_stream,
)

QUERIES = [
    "a*",
    "a b*",
    "a b* c*",
    "(a|b|c)*",
    "a b* c",
    "a* b*",
    "a b c*",
    "a? b*",
    "(a|b|c)+",
    "(a|b|c) b*",
    "a b c",
    "(a b)+",
]


def check_index(engine):
    """Assert the Δ index's structural invariants.

    Each tree holds exactly the product nodes its root reaches in the window
    graph, each with its best max-min path timestamp (§3.1). Every tree edge,
    stored once as the child's parent pointer, is a live window edge that
    drives the DFA transition, a child's ts is at most its parent's, each
    parent chain ends at the root, ``vertex_trees`` agrees with the trees'
    nodes, each tree's ``floor`` is a lower bound on its nodes' ts,
    and each finite floor has a floor-heap entry at or below it. The
    product-graph index agrees with the window (:func:`check_product_graph`).
    """
    dfa, edges = engine.dfa, engine.graph.edges
    check_product_graph(engine)
    lowest_entry: dict = {}
    for f, x in engine._floors:
        lowest_entry[x] = min(f, lowest_entry.get(x, math.inf))
    for x, tree in engine.trees.items():
        nodes = tree.nodes
        assert tree.root == x and tree.root_key == (x, dfa.start)
        root = nodes[tree.root_key]
        assert root.parent is None and root.ts == math.inf
        assert tree.floor <= min(node.ts for node in nodes.values()), f"T_{x}: floor too high"
        if tree.floor < math.inf:
            assert lowest_entry.get(x, math.inf) <= tree.floor, f"T_{x}: no heap entry for its floor"
        best = best_timestamps(edges, dfa, x)
        assert set(nodes) == set(best), f"T_{x} differs from the nodes its root reaches"
        for key, node in nodes.items():
            assert node.key == key
            assert node.ts == best[key], f"T_{x}: {key}.ts={node.ts}, best {best[key]}"
            if key == tree.root_key:
                continue
            (pu, ps), (v, t) = node.parent, key
            parent = nodes[node.parent]
            assert node.ts <= parent.ts
            assert any(
                dfa.delta(ps, lbl) == t and edges.get((pu, v, lbl), -math.inf) >= node.ts
                for lbl in dfa.alphabet
            ), f"T_{x}: tree edge {node.parent}->{key} is not a window edge"
            for _ in nodes:  # a chain longer than the tree would be a cycle
                if parent.parent is None:
                    break
                parent = nodes[parent.parent]
            assert parent is root, f"T_{x}: {key}'s parent chain ends at {parent.key}, not the root"
    vertex_trees: dict = {}
    for x, tree in engine.trees.items():
        for v, _ in tree.nodes:
            vertex_trees.setdefault(v, set()).add(x)
    assert engine.vertex_trees == vertex_trees


def replay_and_check(query_text, stream, window, every=5):
    """Replay ``stream`` with β = 1, probing every ``every``-th tuple and at the end.

    Per-step replays (``every=1``) also run :func:`check_index` and check the
    result events (:func:`process_checking_events`) each time.
    """
    dfa = compile_regex(parse(query_text))
    events = []
    engine = RAPQEngine(dfa, window=window, slide=1, on_result=lambda *e: events.append(e))
    for i, t in enumerate(stream):
        if every == 1:
            process_checking_events(engine, t, events)
        else:
            engine.process(t)
        if i % every == every - 1 or i == len(stream) - 1:
            if every == 1:
                check_index(engine)
            snap = snapshot_edges(stream[: i + 1], t.ts, window)
            expected = rapq_pairs(snap, dfa)
            got = engine.derivable_pairs()
            assert got == expected, (
                f"{query_text} step {i} ts={t.ts}: index={sorted(got)} "
                f"batch={sorted(expected)} snap={sorted(snap)}"
            )
    return engine


@pytest.mark.parametrize("query", QUERIES)
@pytest.mark.parametrize("seed", range(6))
def test_append_only_invariant_and_final_results(query, seed):
    stream = random_stream(seed, n=40)
    window = [8, 15, 30][seed % 3]
    engine = replay_and_check(query, stream, window)
    expected_final = streaming_reference(stream, engine.dfa, window)
    assert set(engine.results) == expected_final


@pytest.mark.parametrize("query", ["a*", "a b*", "(a|b|c)+", "a b c", "(a b)+"])
@pytest.mark.parametrize("seed", range(8))
def test_with_explicit_deletions_invariant(query, seed):
    """With deletions the index must still track the snapshot exactly."""
    stream = random_stream(seed, n=50, delete_prob=0.25)
    window = [10, 20][seed % 2]
    replay_and_check(query, stream, window)


@pytest.mark.parametrize("seed", range(4))
def test_dense_single_label_stress(seed):
    """Homogeneous dense graphs (the SO-graph regime) with a looping query."""
    stream = random_stream(seed, n=60, n_vertices=4, labels=("a",))
    replay_and_check("a*", stream, window=12)
    replay_and_check("a+", stream, window=12)


@pytest.mark.parametrize("seed", range(4))
def test_two_state_cycle_query_stress(seed):
    """(a b)+ forces state alternation around cycles (Figure 1 regime)."""
    stream = random_stream(seed, n=60, n_vertices=5, labels=("a", "b"))
    replay_and_check("(a b)+", stream, window=14)


@pytest.mark.parametrize("slide", [2, 5, 10])
@pytest.mark.parametrize("query", ["a b*", "(a|b|c)+"])
def test_lazy_expiry_sandwich(slide, query):
    """Lazy expiration (β>1) trades exactness for batched maintenance.

    Between boundaries the engine retains edges up to |W|+β old, so its
    result set is sandwiched between the eager references for |W| and
    |W|+β (§2: eager evaluation, lazy expiration). Completeness — every
    Definition-9 result — must always hold.
    """
    window = 15
    dfa = compile_regex(parse(query))
    stream = random_stream(3, n=60)
    engine = RAPQEngine(dfa, window=window, slide=slide)
    for i, t in enumerate(stream):
        engine.process(t)
        must_have = rapq_pairs(
            snapshot_edges(stream[: i + 1], t.ts, window), dfa
        )
        assert must_have <= engine.derivable_pairs()
    lower = streaming_reference(stream, dfa, window)
    upper = streaming_reference(stream, dfa, window + slide)
    assert lower <= set(engine.results) <= upper


@pytest.mark.parametrize("query", QUERIES)
@pytest.mark.parametrize("seed", range(6))
def test_append_only_per_step(query, seed):
    """The append-only suite, checked after every tuple."""
    stream = random_stream(seed, n=40)
    window = [8, 15, 30][seed % 3]
    replay_and_check(query, stream, window, every=1)


@pytest.mark.parametrize("query", ["a*", "a b*", "(a|b|c)+", "a b c", "(a b)+"])
@pytest.mark.parametrize("seed", range(8))
def test_with_explicit_deletions_per_step(query, seed):
    """The deletion suite, checked after every tuple."""
    stream = random_stream(seed, n=50, delete_prob=0.25)
    window = [10, 20][seed % 2]
    replay_and_check(query, stream, window, every=1)


@pytest.mark.parametrize("slide", [2, 5])
@pytest.mark.parametrize("query", ["a b*", "(a|b|c)+", "(a b)+"])
@pytest.mark.parametrize("seed", range(4))
def test_lazy_expiry_per_step(slide, query, seed):
    """β > 1: after every tuple the index is well formed and derives exactly
    the pairs of its own window graph. That graph (query labels only) lies
    between the eager snapshot and the one of the last boundary's window.
    The result events agree with the index (:func:`process_checking_events`)."""
    window = 12
    dfa = compile_regex(parse(query))
    stream = random_stream(seed, n=60, delete_prob=0.15)
    events = []
    engine = RAPQEngine(dfa, window=window, slide=slide, on_result=lambda *e: events.append(e))
    for i, t in enumerate(stream):
        process_checking_events(engine, t, events)
        check_index(engine)
        held = engine.graph.edge_set()
        lag = t.ts - (t.ts // slide) * slide
        eager, stale = (
            {e for e in snapshot_edges(stream[: i + 1], t.ts, w) if e[2] in dfa.alphabet}
            for w in (window, window + lag)
        )
        assert eager <= held <= stale
        assert engine.derivable_pairs() == rapq_pairs(held, dfa)


@pytest.mark.parametrize("first", ["a", "b"])
@pytest.mark.parametrize("deleted", ["a", "b"])
def test_parallel_edges_survive_each_others_deletion(first, deleted):
    """(x,y,a) and (x,y,b) both match (a|b)+: deleting either keeps (x,y)."""
    dfa = compile_regex(parse("(a|b)+"))
    other = "b" if first == "a" else "a"
    kept = "b" if deleted == "a" else "a"
    events = []
    engine = RAPQEngine(dfa, window=20, slide=1, on_result=lambda *e: events.append(e))
    engine.process(Sgt(1, "x", "y", first))
    engine.process(Sgt(2, "x", "y", other))
    engine.process(Sgt(3, "x", "y", deleted, "-"))
    check_index(engine)
    assert engine.derivable_pairs() == {("x", "y")}
    assert engine.graph.edge_set() == {("x", "y", kept)}
    engine.process(Sgt(4, "x", "y", kept, "-"))
    check_index(engine)
    assert engine.derivable_pairs() == set()
    assert events == [(1, "x", "y", "+"), (4, "x", "y", "-")]


@pytest.mark.parametrize("leaves", ["expiry", "delete-older", "delete-newer"])
def test_product_edge_keeps_the_surviving_parallel_edges_ts(leaves):
    """u→v:a (ts 1) and u→v:b (ts 3) both drive every transition of
    (a|b)+ to the final state: each product edge is kept once, at ts 3.
    When one of the two leaves the window, the product edge keeps the
    survivor's ts."""
    dfa = compile_regex(parse("(a|b)+"))
    s0, s = dfa.start, dfa.delta(dfa.start, "a")
    engine = RAPQEngine(dfa, window=5, slide=1)
    engine.process(Sgt(1, "u", "v", "a"))
    engine.process(Sgt(3, "u", "v", "b"))
    assert engine.succ == {("u", s0): {("v", s): 3}, ("u", s): {("v", s): 3}}
    if leaves == "expiry":
        engine.process(Sgt(6, "x", "y", "a"))  # lo = 1: u→v:a expires
        survivor = 3
    elif leaves == "delete-older":
        engine.process(Sgt(4, "u", "v", "a", "-"))
        survivor = 3
    else:
        engine.process(Sgt(4, "u", "v", "b", "-"))
        survivor = 1
    check_index(engine)
    assert engine.succ[("u", s0)] == {("v", s): survivor}
    assert engine.succ[("u", s)] == {("v", s): survivor}
    assert engine.trees["u"].nodes[("v", s)].ts == survivor


@pytest.mark.parametrize("query", ["a*", "(a|b|c)+", "(a b)+", "a b* c*"])
@pytest.mark.parametrize("slide", [1, 3])
@pytest.mark.parametrize("seed", range(6))
def test_each_node_settled_once_per_tuple(monkeypatch, query, slide, seed):
    """Best-first Insert relinks a (root, key) at most once per ``process()``."""
    relinked = []
    original = SpanningTree.relink

    def spy(tree, node, new_parent, ts):
        relinked.append((tree.root, node.key))
        return original(tree, node, new_parent, ts)

    monkeypatch.setattr(SpanningTree, "relink", spy)
    engine = RAPQEngine(compile_regex(parse(query)), window=15, slide=slide)
    for t in random_stream(seed, n=60, n_vertices=5, delete_prob=0.1):
        relinked.clear()
        engine.process(t)
        assert len(relinked) == len(set(relinked)), f"relinked twice at {t}"


class _UnscannableNodes(dict):
    """A tree's node dict that fails the test if expiry scans it."""

    def items(self):
        raise AssertionError("expiry scanned a tree whose floor is above lo")

    values = items


def test_expiry_skips_trees_above_the_floor():
    """Only the tree holding old nodes is scanned; the fresh one is skipped."""
    dfa = compile_regex(parse("a+"))
    engine = RAPQEngine(dfa, window=10, slide=1)
    engine.process(Sgt(1, "x", "y", "a"))
    engine.process(Sgt(5, "p", "q", "a"))
    fresh = engine.trees["p"]
    assert fresh.floor == 5
    fresh.nodes = _UnscannableNodes(fresh.nodes)
    engine.expire(12)  # lo = 2: only T_x has nodes at or below it
    assert "x" not in engine.trees
    assert engine.trees["p"] is fresh and set(fresh.nodes) == {
        ("p", dfa.start), ("q", dfa.delta(dfa.start, "a"))
    }


def test_deletion_rescans_tree_above_the_floor():
    """β = 5: a deleted tree edge forces a rescan of a tree whose floor is
    above lo; the marked subtree is first reconnected, then dropped."""
    dfa = compile_regex(parse("a+"))
    s = dfa.delta(dfa.start, "a")
    events = []
    engine = RAPQEngine(dfa, window=20, slide=5, on_result=lambda *e: events.append(e))
    for t in [Sgt(1, "x", "u", "a"), Sgt(1, "u", "y", "a"),
              Sgt(2, "y", "z", "a"), Sgt(3, "x", "y", "a")]:
        engine.process(t)
    tree = engine.trees["x"]
    assert tree.nodes[("y", s)].parent == ("x", dfa.start)
    assert tree.nodes[("z", s)].ts == 2
    assert tree.floor == 1 > 4 - engine.window
    engine.process(Sgt(4, "x", "y", "a", "-"))  # y and z reconnect through u
    check_index(engine)
    assert tree.nodes[("y", s)].parent == ("u", s)
    assert tree.nodes[("z", s)].ts == 1
    engine.process(Sgt(5, "x", "v", "b"))  # boundary: the deletion's scan re-armed T_x at 1
    assert tree.floor == 1 > 5 - engine.window
    engine.process(Sgt(6, "u", "y", "a", "-"))  # now y and z are unreachable
    check_index(engine)
    assert set(tree.nodes) == {("x", dfa.start), ("u", s)}
    assert {p for p in engine.derivable_pairs() if p[0] == "x"} == {("x", "u")}
    assert sorted(e for e in events if e[1] == "x" and e[3] == "-") == [
        (6, "x", "y", "-"), (6, "x", "z", "-")
    ]


def test_delete_marks_a_node_relinked_under_a_later_parent():
    """Delete marks the subtree under a deleted tree edge by walking parent
    pointers. (u,1) was relinked under (c,1), which was created after it,
    so ``tree.nodes`` lists (u,1) and its child (w,1) before their parent,
    two levels below the deleted tree edge x→v."""
    dfa = compile_regex(parse("a+"))
    s0, s = dfa.start, dfa.delta(dfa.start, "a")
    engine = RAPQEngine(dfa, window=10, slide=1)
    for t in [Sgt(1, "x", "u", "a"), Sgt(1, "u", "w", "a"),
              Sgt(2, "x", "v", "a"), Sgt(2, "v", "c", "a"), Sgt(3, "c", "u", "a")]:
        engine.process(t)
    tree = engine.trees["x"]
    parents = {k: n.parent for k, n in tree.nodes.items()}
    assert parents[("w", s)] == ("u", s) and parents[("u", s)] == ("c", s)
    assert parents[("c", s)] == ("v", s) and parents[("v", s)] == ("x", s0)
    order = list(tree.nodes)
    assert order.index(("u", s)) < order.index(("c", s))
    engine.process(Sgt(4, "x", "v", "a", "-"))  # u and w reconnect through x→u
    check_index(engine)
    assert {k: (n.ts, n.parent) for k, n in tree.nodes.items()} == {
        ("x", s0): (math.inf, None), ("u", s): (1, ("x", s0)), ("w", s): (1, ("u", s))
    }


class _UniterableTrees(dict):
    """An engine's tree map that fails the test if anything iterates it."""

    def __iter__(self):
        raise AssertionError("expiry iterated every tree")

    keys = values = items = __iter__


def test_boundary_with_no_due_tree_does_not_iterate_trees():
    dfa = compile_regex(parse("a+"))
    engine = RAPQEngine(dfa, window=10, slide=1)
    engine.process(Sgt(1, "x", "y", "a"))
    engine.process(Sgt(2, "p", "q", "a"))
    engine.trees = _UniterableTrees(engine.trees)
    engine.process(Sgt(5, "y", "z", "b"))  # boundary, lo = -5: no tree is due
    engine.expire(11)  # lo = 1: only T_x is due, reached without a sweep
    assert set(dict.keys(engine.trees)) == {"p"}


class _ScanLog(dict):
    """A tree's node dict that logs its root whenever expiry scans it."""

    def __init__(self, nodes, log, root):
        super().__init__(nodes)
        self.log, self.root = log, root

    def items(self):
        self.log.append(self.root)
        return super().items()


def replay_checking_scans(monkeypatch, query, window, slide, stream):
    """Replay ``stream``; every ``expire`` call must scan each tree whose
    floor is ≤ τ − |W| exactly once, and no other tree, and leave each tree
    it scanned and kept at its exact floor."""
    scans: list = []
    original_init = SpanningTree.__init__

    def init(tree, root, start_state):
        original_init(tree, root, start_state)
        tree.nodes = _ScanLog(tree.nodes, scans, root)

    monkeypatch.setattr(SpanningTree, "__init__", init)
    engine = RAPQEngine(compile_regex(parse(query)), window=window, slide=slide)
    original_expire = engine.expire
    calls = []

    def expire(tau, invalidate=False):
        lo = tau - engine.window
        due = sorted(x for x, tree in engine.trees.items() if tree.floor <= lo)
        scans.clear()
        original_expire(tau, invalidate)
        assert sorted(scans) == due, f"expire({tau}) scanned {sorted(scans)}, due {due}"
        for x in scans:
            if x in engine.trees:
                tree = engine.trees[x]
                assert tree.floor == min(n.ts for n in tree.nodes.values()), f"T_{x} not re-armed"
        calls.append((tau, due))

    engine.expire = expire
    for t in stream:
        engine.process(t)
        check_index(engine)
    return engine, calls


def test_stale_entry_of_gc_tree_recreated_under_same_root(monkeypatch):
    """T_x is GC'd by a deletion, leaving its old (3, x) entry, and re-created
    with floor 2; T_x is then scanned once per boundary where it is due."""
    engine, calls = replay_checking_scans(monkeypatch, "a+", 10, 1, [
        Sgt(2, "w", "v", "a"),
        Sgt(3, "x", "y", "a"),
        Sgt(4, "x", "y", "a", "-"),  # T_x pruned to a bare root and GC'd
        Sgt(5, "x", "w", "a"),  # T_x again: w at 5, v at min(2, 5)
        Sgt(12, "t", "t", "b"),  # lo = 2: v expires from T_w and T_x; T_x re-armed at 5
        Sgt(13, "t", "t", "b"),  # lo = 3: stale (3, x) pops; T_x's floor is 5, no scan
        Sgt(14, "t", "t", "b"),  # lo = 4: nothing due
        Sgt(15, "t", "t", "b"),  # lo = 5: w expires, T_x GC'd again
    ])
    assert [due for tau, due in calls if tau >= 12] == [["w", "x"], [], [], ["x"]]
    assert engine.trees == {}


def test_stale_entry_after_tightening_then_lowering(monkeypatch):
    """T_x's floor is tightened by an empty scan, then lowered by a new node
    with an old timestamp; the higher entry left behind pops together with
    the one the next scan re-arms T_x at, and T_x is scanned once."""
    engine, calls = replay_checking_scans(monkeypatch, "a+", 10, 1, [
        Sgt(1, "x", "u", "a"),
        Sgt(3, "p", "q", "a"),
        Sgt(4, "x", "u", "a"),  # u relinked at 4; floor stays 1
        Sgt(11, "t", "t", "b"),  # lo = 1: empty scan tightens the floor to 4
        Sgt(11, "x", "p", "a"),  # p at 11, q at min(3, 11): floor back to 3
        Sgt(13, "t", "t", "b"),  # lo = 3: q expires from T_x and T_p; T_x re-armed at 4
        Sgt(14, "t", "t", "b"),  # lo = 4: both (4, x) entries pop; u expires, T_x re-armed at 11
        Sgt(15, "t", "t", "b"),  # lo = 5: floor 11, not due
        Sgt(16, "t", "t", "b"),  # lo = 6: not due
    ])
    assert [due for tau, due in calls if tau >= 11] == [["x"], ["p", "x"], ["x"], [], []]
    dfa = engine.dfa
    assert set(engine.trees["x"].nodes) == {("x", dfa.start), ("p", dfa.delta(dfa.start, "a"))}


@pytest.mark.parametrize("slide", [1, 3])
@pytest.mark.parametrize("seed", range(8))
def test_expiry_scans_exactly_the_due_trees(monkeypatch, slide, seed):
    replay_checking_scans(monkeypatch, "(a|b|c)+", 12, slide,
                          random_stream(seed, n=80, n_vertices=6, delete_prob=0.15))


def check_no_boundary_reconnection(engine, lo):
    """Brute force: no node with a finite ``ts ≤ lo`` has a surviving parent,
    a node with ``ts > lo`` over a window edge with ``ts > lo`` that drives
    the DFA transition into it. Eager Insert guarantees this, so expiry
    reconnects only Delete's −∞ marks."""
    dfa = engine.dfa
    for x, tree in engine.trees.items():
        nodes = tree.nodes
        for (v, t), node in nodes.items():
            if not NEG_INF < node.ts <= lo:
                continue
            for (u, w, lbl), e_ts in engine.graph.edges.items():
                if w != v or e_ts <= lo:
                    continue
                for s in range(dfa.n_states):
                    parent = nodes.get((u, s))
                    assert not (dfa.delta(s, lbl) == t and parent is not None and parent.ts > lo), (
                        f"T_{x}: {(v, t)} at ts {node.ts} ≤ {lo} has a surviving parent {(u, s)}"
                    )


@pytest.mark.parametrize("query", ["(a|b|c)+", "a b* c"])
@pytest.mark.parametrize("slide", [1, 3])
@pytest.mark.parametrize("seed", range(6))
def test_expiry_reconnects_only_deletion_marks(query, slide, seed):
    """Before every ``expire``, an expired node with a finite ts has no
    surviving parent over a window edge, and ``_expire_tree`` seeds Insert
    only from keys that Delete marked −∞."""
    engine = RAPQEngine(compile_regex(parse(query)), window=12, slide=slide)
    original_expire, original_expire_tree, original_insert = (
        engine.expire, engine._expire_tree, engine._insert
    )
    marked: set = set()
    reconnecting = []

    def expire(tau, invalidate=False):
        check_no_boundary_reconnection(engine, tau - engine.window)
        original_expire(tau, invalidate)

    def expire_tree(tree, lo, results):
        marked.clear()
        marked.update(k for k, n in tree.nodes.items() if n.ts == NEG_INF)
        reconnecting.append(True)
        try:
            return original_expire_tree(tree, lo, results)
        finally:
            reconnecting.pop()

    def insert(tree, seeds, results):
        if reconnecting:
            assert {ckey for _, _, ckey in seeds} <= marked, "reconnected an unmarked node"
        original_insert(tree, seeds, results)

    engine.expire, engine._expire_tree, engine._insert = expire, expire_tree, insert
    stream = random_stream(seed, n=80, n_vertices=6, delete_prob=0.2)
    for t in stream:
        engine.process(t)
    assert any(t.op == "-" for t in stream)
