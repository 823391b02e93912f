"""The Δ-tree engine skeleton shared by Algorithms RAPQ (§3) and RSPQ (§4).

Both engines keep one spanning tree ``T_x`` per root ``x`` over the product
of the window graph and the query DFA (Definition 12). The engine keeps that
product graph's out-edges ``succ`` and in-edges ``pred`` in step with the
window graph (§5.1.1's lookup indexes); they are the only adjacency either
engine walks. The paper builds RSPQ as RAPQ plus markings and conflicts and
reuses the §3 machinery for ExpiryRSPQ and Delete (§4.1, §3.2);
:class:`DeltaEngine` is that machinery: the per-tuple driver, the expiry
driver and the Delete driver.

A subclass sets ``tree_type``: a tree with ``root``, ``nodes`` (its nodes,
keyed by product pair ``(v, s)``: §5.1.1's node-lookup index, probed per
state through the DFA's ``by_label``), ``floor`` (a lower bound on its
nodes' ts) and ``size``. It provides the per-tree step
of a new edge, ``_process_edge(tree, edges, tau, results)`` (Insert, or
Extend/Unmark), the per-tree "prune and reconnect" step ``_expire_tree``,
which also sets the tree's ``floor`` to the exact least ts it leaves,
Delete's tree-edge marking ``_mark_deleted`` and the result predicate
``_derivable``.

``process`` builds a new window edge's product edges ``((u, s), (v, t))``
once per tuple (``_sync_product`` returns them, in ``DFA.by_label`` order)
and hands that one list to the step of every tree that holds ``u``. The
step adds the pairs the tree gains to ``results``; ``process`` keeps the
floor heap and drops a tree it created for this tuple that gained nothing.
"""
from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Callable, Iterable

from .dfa import DFA
from .windows import Sgt, WindowGraph, check_tuple

INF = math.inf
NEG_INF = -math.inf

Key = tuple[str, int]  # (vertex, automaton state)


def below_tops(tops, root, members, parent_of: Callable) -> list:
    """The ``members`` whose parent chain meets one of ``tops`` (tops included).

    Trees store each tree edge once, as the child's parent pointer
    (Definition 12), so Delete finds the subtrees under its deleted tree
    edges by walking up: each member's chain is followed until it meets a
    top, the ``root`` or a member already resolved, and the whole walked
    chain takes that answer. Every member is resolved once: O(tree size).
    """
    hit = dict.fromkeys(tops, True)
    hit[root] = False
    for m in members:
        chain = []
        while m not in hit:
            chain.append(m)
            m = parent_of(m)
        if chain:
            hit.update(dict.fromkeys(chain, hit[m]))
    return [m for m, below in hit.items() if below]


class DeltaEngine:
    """Persistent RPQ evaluation over a sliding window with a Δ-tree index.

    Parameters
    ----------
    dfa:
        the (minimal) query automaton.
    window:
        |W|, the window length in time units; at least 1.
    slide:
        β, the slide interval; expiry runs when the stream time crosses a
        multiple of β (lazy expiration, eager evaluation). At least 1: a
        smaller window or slide raises ``ValueError``.
    on_result:
        optional callback ``(ts, x, y, op)`` invoked for every appended
        (``op='+'``) or invalidated (``op='-'``) result.
    """

    tree_type: type

    def __init__(
        self,
        dfa: DFA,
        window: int,
        slide: int = 1,
        on_result: Callable[[int, str, str, str], None] | None = None,
    ):
        if window < 1 or slide < 1:
            raise ValueError(f"window and slide must be at least 1, got {window} and {slide}")
        self.dfa = dfa
        self.window = window
        self.slide = slide
        self.graph = WindowGraph(window)
        # The window's product graph: succ[(u, s)] = {(v, t): ts} and its
        # inverse pred[(v, t)] = {(u, s): ts} for every window edge u→v:label
        # with δ(s, label) = t, ts being the latest among the parallel edges
        # u→v that drive s→t.
        self.succ: dict[Key, dict[Key, int]] = {}
        self.pred: dict[Key, dict[Key, int]] = {}
        self.trees: dict = {}
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

    def process(self, sgt: Sgt) -> set[tuple[str, str]]:
        """Consume one streaming graph tuple; returns newly reported pairs.

        Raises ``ValueError`` on an unknown ``op`` or on a timestamp older
        than the previous tuple's.
        """
        check_tuple(sgt, self._tau)
        self._begin_tuple()
        tau = self._tau = sgt.ts
        boundary = (tau // self.slide) * self.slide
        if boundary > self._last_boundary:
            self._last_boundary = boundary
            self.expire(boundary)
        u, v, label = sgt.src, sgt.dst, sgt.label
        if sgt.op == "-":
            self._delete(u, v, label)
            return set()
        if label not in self.dfa.alphabet:
            return set()  # tuples whose label is not in Σ_Q are discarded (§5.2)
        self.graph.insert(u, v, label, tau)
        edges = self._sync_product(u, v, label)
        # A new path can start at u if δ(s0, label) is defined: materialize
        # T_u so the per-edge step extends it (Δ's root set).
        created = None
        if label in self.dfa.start_labels and u not in self.trees and self._owns(u):
            created = self.trees[u] = self.tree_type(u, self.dfa.start)
            self._track(u, u)
        results: set[tuple[str, str]] = set()
        trees, floors = self.trees, self._floors
        for x in list(self.vertex_trees.get(u, ())):
            tree = trees[x]
            floor = tree.floor
            self._process_edge(tree, edges, tau, results)
            if tree.floor < floor:  # a new node lowered it: keep an entry at or below
                heappush(floors, (tree.floor, x))
        # A new tree that gained nothing (e.g. `a*` on a self-loop u→u:a) has
        # no floor-heap entry, so expiry would never reach it: drop it now.
        if created is not None and created.size == 1:
            del trees[u]
            self._untrack(u, u)
        self._report(results, tau)
        return results

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
        finals = self.dfa.finals
        return {
            (x, v)
            for x, tree in self.trees.items()
            for v, s in tree.nodes
            if s in finals and self._derivable(x, v)
        }

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    @property
    def n_nodes(self) -> int:
        return sum(t.size for t in self.trees.values())

    def _begin_tuple(self) -> None:
        """Called by ``process`` for each valid tuple, before any other work."""

    def _owns(self, root: str) -> bool:
        """May this engine create ``T_root``? A sharded subclass owns a subset."""
        return True

    def _report(self, pairs: set[tuple[str, str]], tau: int) -> None:
        for pair in pairs:
            if pair not in self.results:
                self.results[pair] = tau
                if self.on_result is not None:
                    self.on_result(tau, pair[0], pair[1], "+")

    # ------------------------------------------------------------------
    # expiry driver (ExpiryRAPQ / ExpiryRSPQ)
    # ------------------------------------------------------------------

    def expire(self, tau: int, invalidate: bool = False) -> None:
        """Remove expired nodes, reconnecting subtrees through valid edges.

        Only the trees whose floor-heap entries are ``≤ τ − |W|`` are popped;
        a tree whose ``floor`` lies above that bound has no node to expire
        and is not visited. Each due tree goes through the subclass's
        ``_expire_tree``, which prunes the nodes with ``ts ≤ τ − |W|``,
        reconnects what it can and re-arms the tree at its exact floor; a
        tree left with only its root is dropped. Keys that lost every node
        are gone for good; with ``invalidate=True`` (the explicit-deletion
        path, run at the last slide boundary) the pairs of their final-state
        members are reported as negative results when no longer derivable,
        and the pass's events carry the deletion tuple's ts.
        """
        for u, v, label in self.graph.expire(tau):
            self._sync_product(u, v, label)
        lo = tau - self.window
        stamp = self._tau if invalidate else tau
        finals = self.dfa.finals
        states = range(self.dfa.n_states)
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
            reconnected: set[tuple[str, str]] = set()
            pruned = self._expire_tree(tree, lo, reconnected)
            if pruned:
                # Maintain the reverse index and collect invalidations.
                nodes = tree.nodes
                for v, t in pruned:
                    if (v, t) in nodes:
                        continue  # reconnected
                    if invalidate and t in finals:
                        invalidated.add((x, v))
                    for s in states:
                        if (v, s) in nodes:
                            break
                    else:
                        self._untrack(v, x)
                # Reconnection may discover pairs not previously reported.
                if reconnected:
                    self._report(reconnected, stamp)
                # Garbage-collect trees reduced to a bare root.
                if tree.size == 1:
                    del self.trees[x]
                    self._untrack(x, x)
                    continue
            # _expire_tree re-armed the tree at its exact floor, above lo:
            # it is next due when the window reaches its oldest node, not at
            # the next boundary.
            heappush(floors, (tree.floor, x))
        for x, v in invalidated:
            if (x, v) in self.results and not self._derivable(x, v):
                del self.results[(x, v)]
                if self.on_result is not None:
                    self.on_result(stamp, x, v, "-")

    def _sync_product(self, u: str, v: str, label: str) -> list[tuple[Key, Key]]:
        """Bring ``succ`` and ``pred`` in line with the window after
        ``u→v:label`` was inserted, refreshed or removed.

        Each product edge ``(u, s) → (v, t)`` the label drives takes the
        latest ts among the parallel window edges ``u→v`` that drive
        ``s → t``: an inserted or refreshed edge is the window's latest, and
        after a removal the ts is recomputed from the edges left. The
        product edge is dropped only when none of them is left. Returns the
        label's product edges ``((u, s), (v, t))``, in ``by_label`` order.
        """
        window_edges = self.graph.edges
        ts = window_edges.get((u, v, label))  # None once the edge is removed
        by_label = self.dfa.by_label
        succ, pred = self.succ, self.pred
        edges = []
        for s, t in by_label[label].items():
            latest = ts
            if latest is None:  # removed: the latest parallel edge left, if any
                for lbl, step in by_label.items():
                    e_ts = window_edges.get((u, v, lbl)) if step.get(s) == t else None
                    if e_ts is not None and (latest is None or e_ts > latest):
                        latest = e_ts
            ukey, vkey = (u, s), (v, t)
            edges.append((ukey, vkey))
            if latest is not None:
                succ.setdefault(ukey, {})[vkey] = latest
                pred.setdefault(vkey, {})[ukey] = latest
                continue
            # Already gone if a parallel edge expired along with this one.
            for index, a, b in ((succ, ukey, vkey), (pred, vkey, ukey)):
                out = index.get(a, {})
                out.pop(b, None)
                if not out:
                    index.pop(a, None)
        return edges

    def _track(self, v: str, x: str) -> None:
        """``T_x`` now holds vertex ``v``: record it in the reverse index."""
        roots = self.vertex_trees.get(v)
        if roots is None:
            self.vertex_trees[v] = {x}
        else:
            roots.add(x)

    def _untrack(self, v: str, x: str) -> None:
        """``T_x`` no longer holds vertex ``v``: drop it from the reverse index."""
        roots = self.vertex_trees.get(v)
        if roots is not None:
            roots.discard(x)
            if not roots:
                del self.vertex_trees[v]

    # ------------------------------------------------------------------
    # Algorithm Delete (§3.2)
    # ------------------------------------------------------------------

    def _delete(self, u: str, v: str, label: str) -> None:
        """Process a negative tuple: mark affected subtrees expired, re-expire.

        A deleted edge matters only where it is a *tree edge* (Definition
        13). The subclass marks the subtree under each such edge with
        ``ts = −∞``, found by :func:`below_tops`; the tree's floor drops to
        −∞, so the regular expiry machinery visits it and reconnects or
        drops the marked nodes. That pass runs at the last slide boundary,
        as lazy expiry does: the window graph does not expire early, and
        only the trees Delete marked are due.
        """
        if not self.graph.delete(u, v, label):
            return
        self._sync_product(u, v, label)
        touched = False
        for x in list(self.vertex_trees.get(v, ())):
            tree = self.trees.get(x)
            if tree is not None and self._mark_deleted(tree, u, v, label):
                tree.floor = NEG_INF
                heappush(self._floors, (NEG_INF, x))
                touched = True
        if touched:
            self.expire(self._last_boundary, invalidate=True)
