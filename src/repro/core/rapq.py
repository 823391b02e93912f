"""Algorithm RAPQ — incremental RPQ evaluation under arbitrary path semantics.

Implements the paper's §3 algorithms over the Δ tree index (Definition 12):

* **RAPQ** (:meth:`RAPQEngine.process`) — per-tuple traversal of the product
  graph, guided by the query DFA;
* **Insert** (:meth:`RAPQEngine._insert`) — tree extension with timestamp
  maintenance, run best-first (a widest-path Dijkstra) so that each node is
  settled at most once per tuple and tree;
* **ExpiryRAPQ** (:meth:`RAPQEngine.expire`) — lazy window expiry at slide
  boundaries with subtree reconnection; a per-tree lower bound on node
  timestamps (``SpanningTree.floor``), kept in a min-heap of ``(floor,
  root)`` entries, lets it visit only the trees that may have something to
  expire;
* **Delete** (:meth:`RAPQEngine._delete`) — explicit deletions via negative
  tuples, reusing the expiry machinery (§3.2).

Each tree node ``(v, s)`` stores the timestamp of its best witnessing path
from the root ``(x, s0)``: the maximum, over the paths in the window, of the
minimum edge timestamp along the path (Definition 9, §3.1). Insert pops its
worklist maximum-timestamp-first, so a node's first improvement in a tuple is
already its best one; reconnection after expiry runs the same routine from
every surviving in-edge at once. The differential tests verify the resulting
invariant after every tuple: after expiry at time τ the index derives exactly
the batch result on the snapshot ``G_{W,τ}``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from operator import attrgetter
from typing import Callable, Iterable

from ..rpq_oracle import Sgt
from .dfa import DFA
from .windows import WindowGraph, check_tuple

INF = math.inf
NEG_INF = -math.inf

Key = tuple[str, int]  # (vertex, automaton state)


@dataclass(slots=True)
class _Node:
    """A Δ-index tree node: vertex-state pair with parent pointer and ts."""

    key: Key
    ts: float
    parent: Key | None
    children: set[Key] = field(default_factory=set)


class SpanningTree:
    """A spanning tree ``T_x`` rooted at ``(x, s0)`` (Definition 12)."""

    __slots__ = ("root", "root_key", "nodes", "states_of", "floor")

    def __init__(self, root: str, start_state: int):
        self.root = root
        self.root_key: Key = (root, start_state)
        self.nodes: dict[Key, _Node] = {
            self.root_key: _Node(self.root_key, INF, None)
        }
        # vertex -> set of states it appears in (node-lookup index, §5.1.1)
        self.states_of: dict[str, set[int]] = {root: {start_state}}
        # Lower bound on every node's ts: expiry skips the tree while it is
        # above the window's lower edge. Relinks only raise ts, so only
        # ``add`` and Delete's −∞ marking have to lower it.
        self.floor: float = INF

    def add(self, key: Key, ts: float, parent: Key) -> _Node:
        if ts < self.floor:
            self.floor = ts
        node = _Node(key, ts, parent)
        self.nodes[key] = node
        self.nodes[parent].children.add(key)
        self.states_of.setdefault(key[0], set()).add(key[1])
        return node

    def relink(self, node: _Node, new_parent: Key, ts: float) -> None:
        if node.parent is not None and node.parent in self.nodes:
            self.nodes[node.parent].children.discard(node.key)
        node.parent = new_parent
        node.ts = ts
        self.nodes[new_parent].children.add(node.key)

    def remove(self, key: Key) -> None:
        node = self.nodes.pop(key)
        if node.parent is not None and node.parent in self.nodes:
            self.nodes[node.parent].children.discard(key)
        states = self.states_of.get(key[0])
        if states is not None:
            states.discard(key[1])
            if not states:
                del self.states_of[key[0]]

    def subtree_keys(self, key: Key) -> list[Key]:
        """All keys in the subtree rooted at ``key`` (including it)."""
        out = [key]
        stack = [key]
        while stack:
            k = stack.pop()
            for c in self.nodes[k].children:
                out.append(c)
                stack.append(c)
        return out

    @property
    def size(self) -> int:
        return len(self.nodes)


class RAPQEngine:
    """Persistent RPQ evaluation under arbitrary path semantics (§3).

    Parameters
    ----------
    dfa:
        the (minimal) query automaton.
    window:
        |W|, the window length in time units.
    slide:
        β, the slide interval; expiry runs when the stream time crosses a
        multiple of β (lazy expiration, eager evaluation).
    on_result:
        optional callback ``(ts, x, y, op)`` invoked for every appended
        (``op='+'``) or invalidated (``op='-'``) result.
    """

    def __init__(
        self,
        dfa: DFA,
        window: int,
        slide: int = 1,
        on_result: Callable[[int, str, str, str], None] | None = None,
    ):
        self.dfa = dfa
        self.window = window
        self.slide = max(1, slide)
        self.graph = WindowGraph(window)
        self.trees: dict[str, SpanningTree] = {}
        # vertex -> roots of trees containing it in some state
        self.vertex_trees: dict[str, set[str]] = {}
        self.results: dict[tuple[str, str], int] = {}  # pair -> first ts
        # Min-heap of (floor, root). Every tree with a finite floor has an
        # entry at or below it. Entries for an older floor or a GC'd tree are
        # stale: expire scans a popped root only if its current floor is due.
        self._floors: list[tuple[float, str]] = []
        self.on_result = on_result
        self._last_boundary = NEG_INF
        self._tau: float = NEG_INF  # timestamp of the previous tuple
        # metrics
        self.insert_calls = 0
        self.expiry_scans = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def process(self, sgt: Sgt) -> set[tuple[str, str]]:
        """Consume one streaming graph tuple; returns newly reported pairs.

        Raises ``ValueError`` on an unknown ``op`` or on a timestamp older
        than the previous tuple's.
        """
        check_tuple(sgt, self._tau)
        tau = self._tau = sgt.ts
        boundary = (tau // self.slide) * self.slide
        if boundary > self._last_boundary:
            self._last_boundary = boundary
            self.expire(boundary)
        if sgt.op == "-":
            self._delete(sgt.src, sgt.dst, sgt.label, tau)
            return set()
        if not self._relevant(sgt.label):
            return set()
        self.graph.insert(sgt.src, sgt.dst, sgt.label, tau)
        return self._process_edge(sgt.src, sgt.dst, sgt.label, tau)

    def run(self, stream: Iterable[Sgt]) -> set[tuple[str, str]]:
        """Convenience: process a whole stream, returning the result set."""
        for sgt in stream:
            self.process(sgt)
        return set(self.results)

    def derivable_pairs(self) -> set[tuple[str, str]]:
        """Pairs currently witnessed by the index (final-state nodes).

        After ``expire(τ)`` this equals the batch result on ``G_{W,τ}`` —
        the invariant the differential tests check.
        """
        return {
            (x, v)
            for x, tree in self.trees.items()
            for v in tree.states_of
            if self._derivable(x, v)
        }

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    @property
    def n_nodes(self) -> int:
        return sum(t.size for t in self.trees.values())

    # ------------------------------------------------------------------
    # Algorithm RAPQ
    # ------------------------------------------------------------------

    def _relevant(self, label: str) -> bool:
        """Tuples whose label is not in Σ_Q are discarded (§5.2)."""
        return label in self.dfa.alphabet

    def _owns(self, root: str) -> bool:
        """May this engine create ``T_root``? A sharded subclass owns a subset."""
        return True

    def _process_edge(
        self, u: str, v: str, label: str, tau: int
    ) -> set[tuple[str, str]]:
        results: set[tuple[str, str]] = set()
        # A new path can start at u if δ(s0, label) is defined: materialize
        # T_u so the generic traversal below extends it (Δ's root set).
        if label in self.dfa.start_labels and u not in self.trees and self._owns(u):
            self.trees[u] = SpanningTree(u, self.dfa.start)
            self.vertex_trees.setdefault(u, set()).add(u)
        trans = self.dfa.trans
        for x in list(self.vertex_trees.get(u, ())):
            tree = self.trees.get(x)
            if tree is None:
                continue
            nodes = tree.nodes
            seeds = []
            for s in tree.states_of.get(u, ()):
                t = trans.get((s, label))
                if t is None:
                    continue
                cand = min(tau, nodes[(u, s)].ts)
                existing = nodes.get((v, t))
                if existing is None or existing.ts < cand:
                    seeds.append((cand, (u, s), (v, t)))
            if seeds:
                self._insert(tree, seeds, results)
        self._report(results, tau)
        return results

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
        """
        nodes = tree.nodes
        trans = self.dfa.trans
        finals = self.dfa.finals
        out_adj = self.graph.out_adj
        vertex_trees = self.vertex_trees
        root = tree.root
        floor = tree.floor
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
                vertex_trees.setdefault(ckey[0], set()).add(root)
                if ckey[1] in finals:
                    results.add((root, ckey[0]))
            elif node.ts < cand:
                tree.relink(node, pkey, cand)
            else:
                continue  # settled earlier in this call — do not expand
            # Expand along window out-edges of the child vertex (lines 7-11).
            cv, cs = ckey
            outs = out_adj.get(cv)
            if not outs:
                continue
            for (w, lbl), w_ts in outs.items():
                q = trans.get((cs, lbl))
                if q is None:
                    continue
                child_cand = cand if cand < w_ts else w_ts
                existing = nodes.get((w, q))
                if existing is None or existing.ts < child_cand:
                    seq += 1
                    heappush(heap, (-child_cand, seq, ckey, (w, q)))
        self.insert_calls += pops
        if tree.floor < floor:
            heappush(self._floors, (tree.floor, root))

    def _report(self, pairs: set[tuple[str, str]], tau: int) -> None:
        for pair in pairs:
            if pair not in self.results:
                self.results[pair] = tau
                if self.on_result is not None:
                    self.on_result(tau, pair[0], pair[1], "+")

    # ------------------------------------------------------------------
    # Algorithm ExpiryRAPQ
    # ------------------------------------------------------------------

    def expire(self, tau: float, invalidate: bool = False) -> set[tuple[str, str]]:
        """Remove expired nodes, reconnecting subtrees through valid edges.

        Follows the paper's **ExpiryRAPQ** per tree: collect the potentially
        expired set P (nodes with ``ts ≤ τ − |W|``; a tree whose ``floor``
        lies above that bound has none and is not visited, because only the
        trees whose floor-heap entries are due get popped), prune it, then
        re-``Insert`` the pruned nodes from every still-valid parent over a
        still-valid window edge, all in one best-first :meth:`_insert` call
        per tree, so reconnected nodes get their best timestamps. Nodes that
        cannot be reconnected are gone for good; with ``invalidate=True``
        (the explicit-deletion path) their final-state members are returned
        and reported as negative results.
        """
        self.graph.expire(int(tau) if tau != NEG_INF else 0)
        lo = tau - self.window
        trans = self.dfa.trans
        finals = self.dfa.finals
        in_adj = self.graph.in_adj
        invalidated: set[tuple[str, str]] = set()
        floors = self._floors
        due = []
        while floors and floors[0][0] <= lo:
            due.append(heappop(floors)[1])
        # Every tree with floor ≤ lo had an entry ≤ lo, so all were popped;
        # dict.fromkeys drops duplicates and keeps pop order.
        for x in dict.fromkeys(due):
            tree = self.trees.get(x)
            if tree is None or tree.floor > lo:
                continue  # stale entry
            nodes = tree.nodes
            candidates = [key for key, node in nodes.items() if node.ts <= lo]
            if not candidates:
                # Tighten the bound only after an empty scan: after one that
                # expired nodes, the old floor is still ≤ lo and still valid.
                tree.floor = min(map(attrgetter("ts"), nodes.values()))
                heappush(floors, (tree.floor, x))
                continue
            # Descendants of an expired node are expired too (child ts ≤
            # parent ts), so every surviving node is a valid parent.
            for key in candidates:
                tree.remove(key)
            seeds = []
            for (v, t) in candidates:
                self.expiry_scans += 1
                for (uu, lbl), e_ts in in_adj.get(v, {}).items():
                    for s in tree.states_of.get(uu, ()):
                        if trans.get((s, lbl)) == t:
                            seeds.append((min(e_ts, nodes[(uu, s)].ts), (uu, s), (v, t)))
            reconnection_results: set[tuple[str, str]] = set()
            if seeds:
                self._insert(tree, seeds, reconnection_results)
            # Maintain the reverse index and collect invalidations.
            for (v, t) in candidates:
                if (v, t) in nodes:
                    continue
                if t in finals:
                    invalidated.add((x, v))
                if not tree.states_of.get(v):
                    roots = self.vertex_trees.get(v)
                    if roots is not None:
                        roots.discard(x)
                        if not roots:
                            del self.vertex_trees[v]
            # Reconnection may discover pairs not previously reported.
            self._report(reconnection_results, int(tau) if tau != NEG_INF else 0)
            # Garbage-collect trees reduced to a bare root.
            if tree.size == 1:
                del self.trees[x]
                roots = self.vertex_trees.get(x)
                if roots is not None:
                    roots.discard(x)
                    if not roots:
                        del self.vertex_trees[x]
            else:  # floor unchanged and ≤ lo: due again at the next boundary
                heappush(floors, (tree.floor, x))
        if invalidate:
            for x, v in invalidated:
                if (x, v) in self.results and not self._derivable(x, v):
                    del self.results[(x, v)]
                    if self.on_result is not None:
                        self.on_result(int(tau), x, v, "-")
        return invalidated

    def _derivable(self, x: str, v: str) -> bool:
        """Is ``(x, v)`` witnessed by a final-state node other than the root?

        The root itself is never a result: results come from paths of length
        ≥ 1 (a cycle back to ``(x, s0)`` re-uses the root node, matching the
        paper's Insert, which only reports newly created nodes).
        """
        tree = self.trees.get(x)
        if tree is None:
            return False
        return any(
            s in self.dfa.finals and (v, s) != tree.root_key
            for s in tree.states_of.get(v, ())
        )

    # ------------------------------------------------------------------
    # Algorithm Delete (§3.2)
    # ------------------------------------------------------------------

    def _delete(self, u: str, v: str, label: str, tau: int) -> set[tuple[str, str]]:
        """Process a negative tuple: mark affected subtrees expired, re-expire.

        A deleted edge matters only where it is a *tree edge* (Definition 13):
        ``(v, t).pt == (u, s)`` with ``t = δ(s, label)``. The subtree under
        each such ``(v, t)`` is marked with ``ts = −∞`` and the regular expiry
        machinery reconnects or drops it.
        """
        if not self.graph.delete(u, v, label):
            return set()
        touched = False
        for x in list(self.vertex_trees.get(v, ())):
            tree = self.trees.get(x)
            if tree is None:
                continue
            for t in list(tree.states_of.get(v, ())):
                node = tree.nodes.get((v, t))
                if node is None or node.parent is None:
                    continue
                pu, ps = node.parent
                if pu == u and self.dfa.delta(ps, label) == t:
                    for key in tree.subtree_keys((v, t)):
                        tree.nodes[key].ts = NEG_INF
                    tree.floor = NEG_INF
                    heappush(self._floors, (NEG_INF, x))
                    touched = True
        if not touched:
            return set()
        return self.expire(tau, invalidate=True)
