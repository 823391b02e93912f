"""Algorithm RAPQ unit tests: crafted scenarios from the paper + invariants."""
import pytest

from repro.core.dfa import compile_regex
from repro.core.rapq import RAPQEngine
from repro.core.regex import parse
from repro.core.rspq import RSPQEngine
from repro.rpq_oracle import Sgt, rapq_pairs


def engine_for(text, window=100, slide=1):
    return RAPQEngine(compile_regex(parse(text)), window=window, slide=slide)


class TestBasics:
    def test_single_matching_edge(self):
        e = engine_for("a")
        got = e.process(Sgt(1, "x", "y", "a"))
        assert got == {("x", "y")}
        assert set(e.results) == {("x", "y")}

    def test_irrelevant_label_discarded(self):
        e = engine_for("a")
        assert e.process(Sgt(1, "x", "y", "zzz")) == set()
        assert e.n_trees == 0
        assert e.graph.n_edges == 0  # §5.2: tuples outside Σ_Q are dropped

    def test_two_hop_concat(self):
        e = engine_for("a b")
        assert e.process(Sgt(1, "x", "y", "a")) == set()
        assert e.process(Sgt(2, "y", "z", "b")) == {("x", "z")}

    def test_out_of_order_edge_within_window(self):
        """A later arrival completes a path whose prefix edge is older."""
        e = engine_for("a b")
        assert e.process(Sgt(1, "y", "z", "b")) == set()
        assert e.process(Sgt(2, "x", "y", "a")) == {("x", "z")}

    def test_star_transitivity(self):
        e = engine_for("a*")
        e.process(Sgt(1, "x", "y", "a"))
        got = e.process(Sgt(2, "y", "z", "a"))
        assert ("x", "z") in got and ("y", "z") in got

    def test_cycle_terminates_and_reports(self):
        e = engine_for("a+")
        e.process(Sgt(1, "x", "y", "a"))
        got = e.process(Sgt(2, "y", "x", "a"))
        assert ("x", "x") in got and ("y", "x") in got

    def test_results_are_monotonic_append_only(self):
        e = engine_for("a", window=2)
        e.process(Sgt(1, "x", "y", "a"))
        e.process(Sgt(50, "p", "q", "a"))  # (x,y) long expired from window
        assert set(e.results) == {("x", "y"), ("p", "q")}

    def test_duplicate_edge_refreshes(self):
        e = engine_for("a b", window=5)
        e.process(Sgt(1, "x", "y", "a"))
        e.process(Sgt(4, "x", "y", "a"))  # refresh
        got = e.process(Sgt(8, "y", "z", "b"))
        # Refreshed prefix at ts=4 is within (3, 8] so the path is alive.
        assert got == {("x", "z")}


class TestPaperExamples:
    Q1 = "(follows mentions)+"

    def test_figure1_pair_xy_at_t18(self):
        """Figure 1: at t=18 the pair (x,y) is connected by bold edges."""
        e = engine_for(self.Q1, window=15)
        stream = [
            Sgt(4, "y", "u", "mentions"),
            Sgt(10, "u", "v", "follows"),
            Sgt(13, "x", "y", "follows"),
            Sgt(18, "v", "y", "mentions"),
        ]
        for t in stream:
            e.process(t)
        assert ("x", "y") in e.results

    def test_second_invariant_node_appears_once(self):
        """Lemma 1(2): a (v,s) node appears at most once per tree."""
        e = engine_for(self.Q1, window=100)
        stream = [
            Sgt(1, "x", "y", "follows"),
            Sgt(2, "y", "u", "mentions"),
            Sgt(3, "x", "u", "mentions"),  # no transition from s0 on mentions
            Sgt(4, "u", "v", "follows"),
            Sgt(5, "v", "y", "mentions"),
        ]
        for t in stream:
            e.process(t)
        tx = e.trees["x"]
        keys = list(tx.nodes)
        assert len(keys) == len(set(keys))
        # (y,2) reachable twice in the product graph but indexed once.
        assert sum(1 for k in keys if k[0] == "y") <= 2

    def test_example_32_expiry_reconnection(self):
        """Example 3.2: when the old path expires, (u,2) reconnects via (z,1).

        Timeline compressed to the relevant edges of Figures 1-2: the path
        x→y→u has min-ts 4 and expires at t=19 (|W|=15); edge (z,u) at t=14
        provides the alternative parent.
        """
        e = engine_for(self.Q1, window=15)
        stream = [
            Sgt(4, "y", "u", "mentions"),
            Sgt(10, "u", "v", "follows"),
            Sgt(13, "x", "y", "follows"),
            Sgt(13, "x", "z", "follows"),
            Sgt(14, "z", "u", "mentions"),
            Sgt(18, "v", "y", "mentions"),
        ]
        for t in stream:
            e.process(t)
        # Before expiry both witnesses exist; at t=19 the y→u edge (ts=4)
        # expires, yet (u,2) must survive through (z,1).
        e.process(Sgt(19, "w", "u", "follows"))
        tx = e.trees["x"]
        f = e.dfa.delta(e.dfa.delta(0, "follows"), "mentions")
        assert ("u", f) in tx.nodes
        snapshot = e.graph.edge_set()
        assert e.derivable_pairs() == rapq_pairs(snapshot, e.dfa)


class TestExpiry:
    def test_expired_pairs_leave_index_but_not_results(self):
        e = engine_for("a", window=5)
        e.process(Sgt(1, "x", "y", "a"))
        e.process(Sgt(20, "p", "q", "a"))
        assert e.derivable_pairs() == {("p", "q")}
        assert set(e.results) == {("x", "y"), ("p", "q")}

    def test_tree_garbage_collected(self):
        e = engine_for("a", window=5)
        e.process(Sgt(1, "x", "y", "a"))
        assert e.n_trees == 1
        e.process(Sgt(20, "p", "q", "a"))
        assert "x" not in e.trees

    def test_bare_root_tree_not_kept(self):
        """``a*`` on a self-loop: the only product edge leads back to the
        root, so ``T_u`` gains nothing and is not kept past its tuple."""
        e = engine_for("a*", window=5)
        e.process(Sgt(1, "u", "u", "a"))
        for ts in range(2, 20):
            e.process(Sgt(ts, "p", "q", "b"))
        assert e.trees == {}
        assert e.vertex_trees == {}

    def test_lazy_expiry_with_slide(self):
        """With β=10, nodes expire only when τ crosses a slide boundary."""
        e = engine_for("a", window=5, slide=10)
        e.process(Sgt(1, "x", "y", "a"))
        e.process(Sgt(9, "m", "n", "a"))  # boundary 0 already passed; no expiry
        assert ("x", "y") in e.derivable_pairs()
        e.process(Sgt(11, "p", "q", "a"))  # boundary 10: lo=5, ts=1 expires
        assert ("x", "y") not in e.derivable_pairs()

    def test_reconnection_preserves_subtree(self):
        """A chain whose head expires reconnects from a newer incoming edge."""
        e = engine_for("a*", window=10)
        e.process(Sgt(1, "x", "y", "a"))
        e.process(Sgt(8, "y", "z", "a"))
        e.process(Sgt(9, "w", "y", "a"))
        # At τ=12 edge (x,y,ts=1) expires; y and z remain reachable from w.
        e.process(Sgt(12, "q", "r", "a"))
        assert e.derivable_pairs() == rapq_pairs(e.graph.edge_set(), e.dfa)
        assert ("w", "z") in e.derivable_pairs()


class TestPerTupleProductEdges:
    def test_every_tree_gets_the_same_edge_list(self, monkeypatch):
        e = engine_for("a*")
        e.process(Sgt(1, "x", "u", "a"))
        e.process(Sgt(2, "y", "u", "a"))
        seen = []
        step = e._process_edge

        def spy(tree, edges, tau, results):
            seen.append((tree.root, edges))
            step(tree, edges, tau, results)

        monkeypatch.setattr(e, "_process_edge", spy)
        e.process(Sgt(3, "u", "v", "a"))
        assert sorted(root for root, _ in seen) == ["u", "x", "y"]
        assert all(edges is seen[0][1] for _, edges in seen)

    def test_one_label_two_transitions_seed_one_insert(self, monkeypatch):
        """In ``a* b*``, ``b`` drives s0→s1 and s1→s1. ``T_x`` holds ``u``
        in both states at different ts: one Insert gets both seeds, and
        ``(v, s1)`` takes the larger cap."""
        e = engine_for("a* b*")
        s0 = e.dfa.start
        s1 = e.dfa.by_label["b"][s0]
        assert e.dfa.by_label["b"] == {s0: s1, s1: s1}
        e.process(Sgt(1, "x", "u", "a"))  # (u, s0) at ts 1
        e.process(Sgt(2, "x", "u", "b"))  # (u, s1) at ts 2
        calls = []
        insert = e._insert

        def spy(tree, seeds, results):
            calls.append((tree.root, sorted(seeds)))
            insert(tree, seeds, results)

        monkeypatch.setattr(e, "_insert", spy)
        e.process(Sgt(3, "u", "v", "b"))
        assert [c for c in calls if c[0] == "x"] == [
            ("x", [(1, ("u", s0), ("v", s1)), (2, ("u", s1), ("v", s1))])
        ]
        node = e.trees["x"].nodes[("v", s1)]
        assert (node.ts, node.parent) == (2, ("u", s1))
        assert e.derivable_pairs() == rapq_pairs(e.graph.edge_set(), e.dfa)


class TestExplicitDeletions:
    def test_delete_tree_edge_removes_derived_pair(self):
        e = engine_for("a b", window=100)
        e.process(Sgt(1, "x", "y", "a"))
        e.process(Sgt(2, "y", "z", "b"))
        assert ("x", "z") in e.results
        e.process(Sgt(3, "x", "y", "a", "-"))
        assert e.derivable_pairs() == set()
        # Implicit-window + negative-tuple semantics: result invalidated.
        assert ("x", "z") not in e.results

    def test_delete_with_alternative_path_keeps_pair(self):
        e = engine_for("a b", window=100)
        e.process(Sgt(1, "x", "y", "a"))
        e.process(Sgt(2, "y", "z", "b"))
        e.process(Sgt(3, "x", "w", "a"))
        e.process(Sgt(4, "w", "z", "b"))
        e.process(Sgt(5, "x", "y", "a", "-"))
        assert ("x", "z") in e.derivable_pairs()
        assert ("x", "z") in e.results

    def test_delete_non_tree_edge_cheap(self):
        """Deleting a non-tree edge only updates the window content."""
        e = engine_for("a*", window=100)
        e.process(Sgt(1, "x", "y", "a"))
        e.process(Sgt(2, "x", "y", "a"))  # refresh: same (u,v,label)
        before = e.derivable_pairs()
        e.process(Sgt(3, "q", "q2", "zzz", "-"))  # absent edge: no-op
        assert e.derivable_pairs() == before

    def test_delete_parallel_edge_of_another_transition_leaves_tree(self):
        """u→v:a and u→v:b both lead to v's final state F, from different
        states of u. T_u reaches (v, F) from (u, s0) over a; deleting
        u→v:b (which drives only (u, s1) → (v, F)) cuts no tree edge, so
        (v, F) is neither marked nor rebuilt."""
        e = engine_for("a | c b", window=100)
        e.process(Sgt(1, "u", "v", "a"))
        e.process(Sgt(2, "u", "v", "b"))
        tree = e.trees["u"]
        (final,) = e.dfa.finals
        node = tree.nodes[("v", final)]
        assert node.parent == ("u", e.dfa.start)
        e.process(Sgt(3, "u", "v", "b", "-"))
        assert tree.nodes[("v", final)] is node and tree.floor == 1
        assert e.expiry_scans == 0

    def test_delete_then_reinsert(self):
        e = engine_for("a", window=100)
        e.process(Sgt(1, "x", "y", "a"))
        e.process(Sgt(2, "x", "y", "a", "-"))
        assert e.derivable_pairs() == set()
        e.process(Sgt(3, "x", "y", "a"))
        assert e.derivable_pairs() == {("x", "y")}


    def test_delete_invalidates_cycle_pair_when_root_is_final(self):
        """(x, x) via a cycle ending in a final state other than the root's
        dies with the cycle, although the root state itself is final."""
        events = []
        e = RAPQEngine(compile_regex(parse("a* b?")), window=100,
                       on_result=lambda *ev: events.append(ev))
        assert e.dfa.start in e.dfa.finals
        e.process(Sgt(1, "x", "y", "a"))
        e.process(Sgt(2, "y", "x", "b"))
        assert ("x", "x") in e.derivable_pairs()
        e.process(Sgt(3, "y", "x", "b", "-"))
        assert ("x", "x") not in e.derivable_pairs()
        assert ("x", "x") not in e.results
        assert (3, "x", "x", "-") in events


    @pytest.mark.parametrize("engine_type", [RAPQEngine, RSPQEngine])
    def test_delete_under_lazy_expiry_stays_inside_its_slide(self, engine_type):
        """β = 5: a deletion at ts 12 runs its expiry pass at the boundary
        at 10, so x→y (ts 1) stays in the window until the boundary at 15,
        and only the deleted pair is invalidated."""
        events = []
        e = engine_type(compile_regex(parse("a")), window=10, slide=5,
                        on_result=lambda *ev: events.append(ev))
        for t in [Sgt(1, "x", "y", "a"), Sgt(10, "p", "q", "a"), Sgt(12, "p", "q", "a", "-")]:
            e.process(t)
        assert events == [(1, "x", "y", "+"), (10, "p", "q", "+"), (12, "p", "q", "-")]
        assert ("x", "y", "a") in e.graph.edges
        assert e.derivable_pairs() == {("x", "y")}
        e.process(Sgt(15, "u", "v", "b"))  # boundary: lo = 5
        assert e.graph.n_edges == 0 and e.derivable_pairs() == set()


class TestMetrics:
    def test_counters_grow(self):
        e = engine_for("a*")
        e.process(Sgt(1, "x", "y", "a"))
        e.process(Sgt(2, "y", "z", "a"))
        assert e.insert_calls > 0
        assert e.n_nodes >= 3
        assert e.n_trees == 2

    def test_index_size_reflects_partial_results(self):
        """Fig 5 rationale: tree index size tracks partial-result count."""
        dense = engine_for("(a|b|c)*")
        sparse = engine_for("a b c")
        stream = [
            Sgt(i, f"v{i % 4}", f"v{(i + 1) % 4}", lbl)
            for i, lbl in enumerate(["a", "b", "c"] * 6)
        ]
        for t in stream:
            dense.process(t)
            sparse.process(t)
        assert dense.n_nodes >= sparse.n_nodes


class TestMalformedInput:
    def test_out_of_order_timestamp_rejected(self):
        e = engine_for("a b")
        e.process(Sgt(5, "x", "y", "a"))
        e.process(Sgt(5, "y", "z", "b"))  # equal timestamps are in order
        with pytest.raises(ValueError, match="out-of-order"):
            e.process(Sgt(4, "z", "w", "a"))
        with pytest.raises(ValueError, match="out-of-order"):
            e.process(Sgt(4, "x", "y", "a", "-"))

    def test_out_of_order_irrelevant_label_rejected(self):
        e = engine_for("a")
        e.process(Sgt(5, "x", "y", "zzz"))
        with pytest.raises(ValueError, match="out-of-order"):
            e.process(Sgt(4, "x", "y", "a"))

    @pytest.mark.parametrize("op", ["*", "", "+-", "delete"])
    def test_unknown_op_rejected(self, op):
        e = engine_for("a")
        with pytest.raises(ValueError, match="unknown op"):
            e.process(Sgt(1, "x", "y", "a", op))
        assert e.n_trees == 0 and e.graph.n_edges == 0

    @pytest.mark.parametrize("window,slide", [(0, 1), (-5, 1), (10, 0), (10, -1)])
    @pytest.mark.parametrize("engine_type", [RAPQEngine, RSPQEngine])
    def test_window_and_slide_below_one_rejected(self, engine_type, window, slide):
        with pytest.raises(ValueError, match="at least 1"):
            engine_type(compile_regex(parse("a")), window=window, slide=slide)
