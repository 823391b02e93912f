"""Algorithm RSPQ unit tests: conflicts, markings, paper Example 4.2."""
import pytest

from repro.core.dfa import compile_regex
from repro.core.regex import parse
from repro.core.rspq import BudgetExceeded, RSPQEngine
from repro.rpq_oracle import Sgt, rspq_pairs


def engine_for(text, window=100, slide=1, budget=None):
    return RSPQEngine(compile_regex(parse(text)), window=window, slide=slide, budget=budget)


class TestBasics:
    def test_single_edge(self):
        e = engine_for("a")
        assert e.process(Sgt(1, "x", "y", "a")) == {("x", "y")}

    def test_two_hop(self):
        e = engine_for("a b")
        e.process(Sgt(1, "x", "y", "a"))
        assert e.process(Sgt(2, "y", "z", "b")) == {("x", "z")}

    def test_cycle_not_simple(self):
        """(x,x) via x→y→x repeats x: excluded under simple semantics."""
        e = engine_for("a+")
        e.process(Sgt(1, "x", "y", "a"))
        got = e.process(Sgt(2, "y", "x", "a"))
        assert ("y", "x") in got
        assert ("x", "x") not in e.results

    def test_matches_oracle_on_acyclic(self):
        e = engine_for("a b*")
        stream = [
            Sgt(1, "x", "y", "a"),
            Sgt(2, "y", "z", "b"),
            Sgt(3, "z", "w", "b"),
        ]
        for t in stream:
            e.process(t)
        edges = {(t.src, t.dst, t.label) for t in stream}
        assert e.derivable_pairs() == rspq_pairs(edges, e.dfa)

    def test_irrelevant_label_discarded(self):
        e = engine_for("a")
        e.process(Sgt(1, "x", "y", "q"))
        assert e.n_trees == 0


class TestPaperExample42:
    """The running example of §4: Q1 = (follows mentions)+ on Figure 1."""

    Q1 = "(follows mentions)+"

    def stream(self):
        return [
            Sgt(13, "x", "y", "follows"),
            Sgt(13, "y", "u", "mentions"),
            Sgt(13, "x", "z", "follows"),
            Sgt(14, "z", "u", "mentions"),
            Sgt(15, "u", "v", "follows"),
            Sgt(18, "v", "y", "mentions"),
        ]

    def test_conflict_detected_and_pair_found(self):
        """Without conflict handling (x,y) would be missed (Example 4.2);
        Unmark re-explores via (z,1) and finds the simple path x,z,u,v,y."""
        e = engine_for(self.Q1, window=15)
        for t in self.stream():
            e.process(t)
        assert ("x", "y") in e.results
        assert e.conflicts > 0

    def test_final_state_matches_simple_path_oracle(self):
        e = engine_for(self.Q1, window=100)
        for t in self.stream():
            e.process(t)
        edges = {(t.src, t.dst, t.label) for t in self.stream()}
        assert e.derivable_pairs() == rspq_pairs(edges, e.dfa)

    def test_no_alternative_no_pair(self):
        """Drop the x→z→u detour: the only witness revisits y, so no (x,y)."""
        e = engine_for(self.Q1, window=100)
        for t in self.stream():
            if t.src == "z" or t.dst == "z":
                continue
            e.process(t)
        assert ("x", "y") not in e.results
        assert ("u", "y") in e.results  # u,v,y is simple


class TestMarkings:
    def test_conflict_free_single_occurrence(self):
        """Without conflicts each (v,s) occurs once (matches RAPQ invariant)."""
        e = engine_for("(a|b|c)*", window=100)
        stream = [
            Sgt(1, "x", "y", "a"),
            Sgt(2, "y", "z", "b"),
            Sgt(3, "x", "z", "c"),
            Sgt(4, "z", "y", "a"),
        ]
        for t in stream:
            e.process(t)
        for tree in e.trees.values():
            for key, occs in tree.nodes.items():
                assert len(occs) == 1, (tree.root, key)

    def test_budget_exceeded_raises(self):
        e = engine_for("(a b)+", window=1000, budget=3)
        # Dense alternating-labels clique quickly exceeds 3 Extend calls.
        stream = [
            Sgt(1, "v0", "v1", "a"),
            Sgt(2, "v1", "v2", "b"),
            Sgt(3, "v2", "v0", "a"),
            Sgt(4, "v0", "v2", "b"),
            Sgt(5, "v2", "v1", "a"),
            Sgt(6, "v1", "v0", "b"),
            Sgt(7, "v0", "v1", "b"),
            Sgt(8, "v1", "v2", "a"),
        ]
        with pytest.raises(BudgetExceeded):
            for t in stream:
                e.process(t)

    def test_engine_unusable_after_budget_exceeded(self):
        """A tuple that overran the budget left the index half-updated: every
        later ``process`` call raises, whatever the tuple."""
        e = engine_for("(a b)+", window=1000, budget=3)
        stream = [
            Sgt(1, "v0", "v1", "a"),
            Sgt(2, "v1", "v2", "b"),
            Sgt(3, "v2", "v0", "a"),
            Sgt(4, "v0", "v2", "b"),
            Sgt(5, "v2", "v1", "a"),
            Sgt(6, "v1", "v0", "b"),
        ]
        with pytest.raises(BudgetExceeded):
            for t in stream:
                e.process(t)
        for t in [Sgt(9, "p", "q", "a"), Sgt(9, "p", "q", "zzz"), Sgt(10, "v0", "v1", "a", "-")]:
            with pytest.raises(BudgetExceeded, match="unusable"):
                e.process(t)

    def test_extend_counter_grows(self):
        e = engine_for("a*")
        e.process(Sgt(1, "x", "y", "a"))
        e.process(Sgt(2, "y", "z", "a"))
        assert e.extend_calls > 0


class TestExpiry:
    def test_window_expiry_removes_pairs(self):
        e = engine_for("a", window=5)
        e.process(Sgt(1, "x", "y", "a"))
        e.process(Sgt(20, "p", "q", "a"))
        assert e.derivable_pairs() == {("p", "q")}
        assert set(e.results) == {("x", "y"), ("p", "q")}

    def test_reconnection_after_expiry(self):
        e = engine_for("a*", window=10)
        e.process(Sgt(1, "x", "y", "a"))
        e.process(Sgt(8, "y", "z", "a"))
        e.process(Sgt(9, "w", "y", "a"))
        e.process(Sgt(12, "q", "r", "a"))  # (x,y,ts=1) expires at 12
        assert ("w", "z") in e.derivable_pairs()
        edges = e.graph.edge_set()
        assert e.derivable_pairs() == rspq_pairs(edges, e.dfa)


    def test_bare_root_tree_not_kept(self):
        """``a*`` on a self-loop: the only product edge leads back to the
        root, so ``T_u`` gains nothing and is not kept past its tuple."""
        e = engine_for("a*", window=5)
        e.process(Sgt(1, "u", "u", "a"))
        for ts in range(2, 20):
            e.process(Sgt(ts, "p", "q", "b"))
        assert e.trees == {}
        assert e.vertex_trees == {}


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

    def test_one_label_two_transitions_extend_both_occurrences(self, monkeypatch):
        """In ``a* b*``, ``b`` drives s0→s1 and s1→s1. ``T_x`` holds ``u``
        in both states: the new edge ``u→v:b`` extends both occurrences."""
        e = engine_for("a* b*")
        s0 = e.dfa.start
        s1 = e.dfa.by_label["b"][s0]
        assert e.dfa.by_label["b"] == {s0: s1, s1: s1}
        e.process(Sgt(1, "x", "u", "a"))  # (u, s0) at ts 1
        e.process(Sgt(2, "x", "u", "b"))  # (u, s1) at ts 2
        calls = []
        extend = e._extend

        def spy(tree, parent, key, edge_ts, results, ctx=None):
            if ctx is None and tree.root == "x":  # a top-level Extend
                calls.append((parent.key, key, edge_ts))
            extend(tree, parent, key, edge_ts, results, ctx)

        monkeypatch.setattr(e, "_extend", spy)
        e.process(Sgt(3, "u", "v", "b"))
        assert sorted(calls) == [(("u", s0), ("v", s1), 3), (("u", s1), ("v", s1), 3)]
        assert ("v", s1) in e.trees["x"].nodes
        assert e.derivable_pairs() == rspq_pairs(e.graph.edge_set(), e.dfa)


class TestExplicitDeletions:
    def test_delete_invalidates(self):
        e = engine_for("a b", window=100)
        e.process(Sgt(1, "x", "y", "a"))
        e.process(Sgt(2, "y", "z", "b"))
        e.process(Sgt(3, "x", "y", "a", "-"))
        assert e.derivable_pairs() == set()

    def test_delete_with_alternative(self):
        e = engine_for("a b", window=100)
        e.process(Sgt(1, "x", "y", "a"))
        e.process(Sgt(2, "y", "z", "b"))
        e.process(Sgt(3, "x", "w", "a"))
        e.process(Sgt(4, "w", "z", "b"))
        e.process(Sgt(5, "x", "y", "a", "-"))
        assert ("x", "z") in e.derivable_pairs()

    def test_delete_parallel_edge_of_another_transition_leaves_tree(self):
        """As in RAPQ: deleting u→v:b, which drives only (u, s1) → (v, F),
        leaves the occurrence of (v, F) that hangs off (u, s0) over u→v:a."""
        e = engine_for("a | c b", window=100)
        e.process(Sgt(1, "u", "v", "a"))
        e.process(Sgt(2, "u", "v", "b"))
        tree = e.trees["u"]
        (final,) = e.dfa.finals
        (occurrence,) = tree.nodes[("v", final)]
        assert occurrence.parent is tree.root_node
        e.process(Sgt(3, "u", "v", "b", "-"))
        assert tree.nodes[("v", final)] == [occurrence] and tree.floor == 1


class TestMalformedInput:
    def test_out_of_order_timestamp_rejected(self):
        e = engine_for("a b")
        e.process(Sgt(5, "x", "y", "a"))
        e.process(Sgt(5, "y", "z", "b"))  # equal timestamps are in order
        with pytest.raises(ValueError, match="out-of-order"):
            e.process(Sgt(4, "z", "w", "a"))
        with pytest.raises(ValueError, match="out-of-order"):
            e.process(Sgt(4, "x", "y", "a", "-"))

    @pytest.mark.parametrize("op", ["*", "", "+-", "delete"])
    def test_unknown_op_rejected(self, op):
        e = engine_for("a")
        with pytest.raises(ValueError, match="unknown op"):
            e.process(Sgt(1, "x", "y", "a", op))
        assert e.graph.n_edges == 0
