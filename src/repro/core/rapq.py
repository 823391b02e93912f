"""Algorithm RAPQ — incremental RPQ evaluation under arbitrary path semantics.

Implements the paper's §3 algorithms over the Δ tree index (Definition 12),
on the engine skeleton of :mod:`repro.core.engine`:

* **RAPQ** (:meth:`RAPQEngine._process_edge`, run per tree by
  :meth:`~repro.core.engine.DeltaEngine.process`) — per-tuple traversal of
  the product graph, guided by the query DFA: every tree that holds the new
  edge's source gets the same list of its product edges, built once per
  tuple, and seeds Insert from those that would create or raise a node;
* **Insert** (:meth:`RAPQEngine._insert`) — tree extension with timestamp
  maintenance, run best-first (a widest-path Dijkstra) so that each node is
  settled at most once per tuple and tree, over the product-graph
  out-edges the engine keeps (``DeltaEngine.succ``);
* **ExpiryRAPQ** (:meth:`RAPQEngine._expire_tree`) — prune one tree's expired
  nodes and reconnect those that Delete marked −∞ through every surviving
  product-graph in-edge (``DeltaEngine.pred``). Under eager Insert a node
  that expires at a slide boundary has no surviving parent over a valid
  edge, so it is dropped without a probe. The shared
  driver :meth:`~repro.core.engine.DeltaEngine.expire` visits only the trees
  whose timestamp floor (``SpanningTree.floor``) is due, and re-arms each
  scanned tree at its exact floor;
* **Delete** (:meth:`RAPQEngine._mark_deleted`) — explicit deletions via
  negative tuples: mark the subtree under a deleted tree edge, found by
  walking parent pointers (:func:`~repro.core.engine.below_tops`), and let
  the shared expiry machinery reconnect or drop it (§3.2).

A tree keeps its nodes in one map keyed by ``(v, s)``
(``SpanningTree.nodes``), probed per state through the DFA's ``by_label``.
Each tree node ``(v, s)`` stores its parent pointer ``(v, s).pt``, the only
record of its tree edge (Definition 12), and the timestamp of its best
witnessing path from the root ``(x, s0)``: the maximum, over the paths in
the window, of the minimum edge timestamp along the path (Definition 9,
§3.1). Insert pops its worklist maximum-timestamp-first, so a node's first
improvement in a tuple is already its best one; reconnection after a
deletion runs the same routine from every surviving in-edge at once. The
differential tests verify the resulting invariant after every tuple: after
expiry at time τ the index derives exactly the batch result on the snapshot
``G_{W,τ}``.
"""
from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Callable

from .dfa import DFA
from .engine import INF, NEG_INF, DeltaEngine, Key, below_tops


@dataclass(slots=True)
class _Node:
    """A Δ-index tree node: vertex-state pair with parent pointer and ts.

    The parent pointer ``(v, t).pt`` is the only record of the tree edge
    (Definition 12); nodes hold no child links.
    """

    key: Key
    ts: float
    parent: Key | None


class SpanningTree:
    """A spanning tree ``T_x`` rooted at ``(x, s0)`` (Definition 12)."""

    __slots__ = ("root", "root_key", "nodes", "floor")

    def __init__(self, root: str, start_state: int):
        self.root = root
        self.root_key: Key = (root, start_state)
        # (v, s) -> node: the node-lookup index (§5.1.1)
        self.nodes: dict[Key, _Node] = {
            self.root_key: _Node(self.root_key, INF, None)
        }
        # Lower bound on every node's ts: expiry skips the tree while it is
        # above the window's lower edge, and each scan sets it exactly.
        # Relinks only raise ts, so only ``add`` and Delete's −∞ marking
        # have to lower it.
        self.floor: float = INF

    def add(self, key: Key, ts: float, parent: Key) -> _Node:
        if ts < self.floor:
            self.floor = ts
        node = _Node(key, ts, parent)
        self.nodes[key] = node
        return node

    def relink(self, node: _Node, new_parent: Key, ts: float) -> None:
        node.parent = new_parent
        node.ts = ts

    @property
    def size(self) -> int:
        return len(self.nodes)


class RAPQEngine(DeltaEngine):
    """Persistent RPQ evaluation under arbitrary path semantics (§3), with
    the :class:`~repro.core.engine.DeltaEngine` parameters."""

    tree_type = SpanningTree
    cycle_results = True

    def __init__(
        self,
        dfa: DFA,
        window: int,
        slide: int = 1,
        on_result: Callable[[int, str, str, str], None] | None = None,
    ):
        super().__init__(dfa, window, slide, on_result)
        # metrics
        self.insert_calls = 0
        self.expiry_scans = 0

    # ------------------------------------------------------------------
    # Algorithm RAPQ
    # ------------------------------------------------------------------

    def _process_edge(
        self, tree: SpanningTree, edges: list[tuple[Key, Key]], tau: int,
        results: set[tuple[str, str]],
    ) -> None:
        """Insert the new edge's product edges ``(u, s) → (v, t)`` into
        ``tree``: each one whose ``(u, s)`` the tree holds seeds Insert if it
        would create or raise ``(v, t)``.

        Most visits seed nothing, so a visit builds no tuple and no list
        until its first seed, and calls :meth:`_insert` only with one.
        """
        get = tree.nodes.get
        seeds = None
        for ukey, vkey in edges:
            node = get(ukey)
            if node is None:
                continue
            ts = node.ts
            cand = ts if ts < tau else tau
            existing = get(vkey)
            if existing is None or existing.ts < cand:
                if seeds is None:
                    seeds = [(cand, ukey, vkey)]
                else:
                    seeds.append((cand, ukey, vkey))
        if seeds is not None:
            self._insert(tree, seeds, results)

    # ------------------------------------------------------------------
    # Algorithm Insert (best-first)
    # ------------------------------------------------------------------

    def _insert(
        self,
        tree: SpanningTree,
        seeds: list[tuple[float, Key, Key]],
        results: set[tuple[str, str]],
    ) -> None:
        """Extend ``tree`` from ``seeds``, each ``(ts, parent, child)``.

        The paper's recursive **Insert**, run as one best-first search: the
        worklist is a max-heap on the candidate timestamp ``min(e.ts,
        parent.ts)``, ties broken by push order. Every candidate pushed
        while expanding a node is at most that node's timestamp, so pops come
        in non-increasing order and a node's first creation or relink in a
        call is its best one (a bottleneck Dijkstra, Pollack 1960). Later
        entries for a settled node fail line 8's guard and are dropped. Each
        new final-state node adds its pair to ``results``.

        A settled node expands over its product-graph out-edges in
        ``self.succ``, with no transition lookup: parallel window edges that
        drive the same transition are one product edge at their latest ts,
        so they push one heap entry.
        """
        nodes = tree.nodes
        finals = self.dfa.finals
        succ = self.succ
        root = tree.root
        heap = [(-cand, seq, pkey, ckey) for seq, (cand, pkey, ckey) in enumerate(seeds)]
        heapify(heap)
        seq = len(heap)
        pops = 0
        while heap:
            neg, _, pkey, ckey = heappop(heap)
            pops += 1
            cand = -neg
            node = nodes.get(ckey)
            if node is None:
                node = tree.add(ckey, cand, pkey)
                self._track(ckey[0], root)
                if ckey[1] in finals:
                    results.add((root, ckey[0]))
            elif node.ts < cand:
                tree.relink(node, pkey, cand)
            else:
                continue  # settled earlier in this call — do not expand
            # Expand along the product-graph out-edges of the child (lines 7-11).
            outs = succ.get(ckey)
            if not outs:
                continue
            for wkey, w_ts in outs.items():
                child_cand = cand if cand < w_ts else w_ts
                existing = nodes.get(wkey)
                if existing is None or existing.ts < child_cand:
                    seq += 1
                    heappush(heap, (-child_cand, seq, ckey, wkey))
        self.insert_calls += pops

    # ------------------------------------------------------------------
    # Algorithm ExpiryRAPQ
    # ------------------------------------------------------------------

    def _expire_tree(
        self, tree: SpanningTree, lo: float, results: set[tuple[str, str]]
    ) -> list[Key]:
        """The paper's **ExpiryRAPQ** on one tree; returns the pruned keys.

        Collect the potentially expired set P (nodes with ``ts ≤ lo``),
        prune it, then re-``Insert`` the pruned nodes that Delete marked
        with ``ts = −∞`` from every still-valid parent over a product-graph
        in-edge (``pred``), all in one best-first :meth:`_insert` call, so
        reconnected nodes get their best timestamps.

        The other pruned nodes are dropped without a probe. Insert is eager,
        so each node holds its best max-min timestamp over the window graph
        (DESIGN.md, "Boundary expiry"). A valid edge from a surviving parent
        would give it a timestamp above ``lo``, so a node with a finite
        ``ts ≤ lo`` has no such parent. Only a −∞ mark hides a node's best
        timestamp. The marks exist only while Delete has set the tree's
        floor to −∞, so a boundary scan looks for none.

        The same pass re-arms the tree at its exact floor, the least ts
        above ``lo``; reconnected nodes lower it through ``add``.
        """
        nodes = tree.nodes
        deleted = tree.floor == NEG_INF
        candidates = []
        floor = INF
        for key, node in nodes.items():
            ts = node.ts
            if ts <= lo:
                candidates.append(key)
            elif ts < floor:
                floor = ts
        tree.floor = floor
        if not candidates:
            return candidates
        marked = [key for key in candidates if nodes[key].ts == NEG_INF] if deleted else ()
        # Descendants of an expired node are expired too (child ts ≤
        # parent ts), so every surviving node is a valid parent.
        for key in candidates:
            del nodes[key]
        self.expiry_scans += len(candidates)
        pred = self.pred
        seeds = []
        for ckey in marked:
            for pkey, e_ts in pred.get(ckey, {}).items():
                parent = nodes.get(pkey)
                if parent is not None:
                    p_ts = parent.ts
                    seeds.append((e_ts if e_ts < p_ts else p_ts, pkey, ckey))
        if seeds:
            self._insert(tree, seeds, results)
        return candidates

    # ------------------------------------------------------------------
    # Algorithm Delete (§3.2)
    # ------------------------------------------------------------------

    def _mark_deleted(self, tree: SpanningTree, u: str, v: str, label: str) -> bool:
        """Mark with ``ts = −∞`` the subtree under each deleted tree edge.

        The edge ``(u, v, label)`` is a tree edge of ``tree`` where
        ``(v, t).pt == (u, s)`` with ``t = δ(s, label)`` (Definition 13).
        Returns whether any subtree was marked.
        """
        nodes = tree.nodes
        tops = [
            (v, t)
            for s, t in self.dfa.by_label[label].items()
            if (node := nodes.get((v, t))) is not None and node.parent == (u, s)
        ]
        if not tops:
            return False
        for key in below_tops(tops, tree.root_key, nodes, lambda k: nodes[k].parent):
            nodes[key].ts = NEG_INF
        return True
