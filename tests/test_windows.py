"""WindowGraph (snapshot graph G_{W,τ}) unit tests."""
from repro.core.windows import WindowGraph


def make_graph(window=10):
    return WindowGraph(window)


class TestInsert:
    def test_insert_and_lookup(self):
        g = make_graph()
        g.insert("a", "b", "l", 5)
        assert g.edges == {("a", "b", "l"): 5}

    def test_reinsert_refreshes_timestamp(self):
        g = make_graph()
        g.insert("a", "b", "l", 5)
        g.insert("a", "b", "l", 9)
        assert g.edges[("a", "b", "l")] == 9
        assert g.n_edges == 1

    def test_refresh_moves_edge_to_end_of_arrival_order(self):
        g = make_graph()
        g.insert("a", "b", "l", 1)
        g.insert("b", "c", "l", 2)
        g.insert("a", "b", "l", 3)
        assert list(g.edges.items()) == [(("b", "c", "l"), 2), (("a", "b", "l"), 3)]

    def test_parallel_labels_are_distinct_edges(self):
        g = make_graph()
        g.insert("a", "b", "l1", 5)
        g.insert("a", "b", "l2", 6)
        assert g.n_edges == 2


class TestExpiry:
    def test_expire_drops_old_edges(self):
        g = make_graph(window=10)
        g.insert("a", "b", "l", 1)
        g.insert("b", "c", "l", 8)
        dead = g.expire(11)  # lo = 1: ts <= 1 expires
        assert dead == [("a", "b", "l")]
        assert g.edge_set() == {("b", "c", "l")}

    def test_expire_boundary_is_inclusive(self):
        # Window is (τ-|W|, τ]: an edge with ts == τ-|W| is out.
        g = make_graph(window=5)
        g.insert("a", "b", "l", 5)
        assert g.expire(10) == [("a", "b", "l")]

    def test_refreshed_edge_outlives_later_arrival(self):
        g = make_graph(window=5)
        g.insert("a", "b", "l", 1)
        g.insert("b", "c", "l", 2)
        g.insert("a", "b", "l", 4)  # refresh: now newer than (b, c)
        assert g.expire(7) == [("b", "c", "l")]
        assert g.edge_set() == {("a", "b", "l")}

    def test_expire_keeps_fresh(self):
        g = make_graph(window=5)
        g.insert("a", "b", "l", 6)
        assert g.expire(10) == []
        assert g.n_edges == 1


class TestDelete:
    def test_delete_present(self):
        g = make_graph()
        g.insert("a", "b", "l", 1)
        assert g.delete("a", "b", "l")
        assert g.n_edges == 0

    def test_delete_absent(self):
        g = make_graph()
        assert not g.delete("a", "b", "l")

    def test_delete_only_named_label(self):
        g = make_graph()
        g.insert("a", "b", "l1", 1)
        g.insert("a", "b", "l2", 1)
        g.delete("a", "b", "l1")
        assert g.edge_set() == {("a", "b", "l2")}
