"""Algorithm RSPQ — incremental RPQ evaluation under simple path semantics (§4).

Key differences from Algorithm RAPQ (paper §4.1):

* a vertex may be visited in the same DFA state more than once in a tree when
  a **conflict** is present, so a tree maps each ``(v, s)`` key to a list of
  *occurrence nodes* (``RSPQTree.nodes``), not to one node;
* each tree maintains a set of **markings** ``M_x`` — keys with no
  conflict-predecessor descendants — used to prune repeat visits whenever
  safe;
* a conflict (Definition 16: the prefix path visits vertex ``v`` first in
  state ``q``, is extended to state ``t`` at ``v``, and ``[q] ⊉ [t]``)
  triggers **Unmark**, which removes the ancestors' markings and re-explores
  the traversals they had pruned.

In the absence of conflicts every key occurs once and the behaviour (and
amortized cost) matches RAPQ. In their presence the traversal may be
exponential — the general problem is NP-hard [54] — so the engine carries a
per-tuple step budget; exceeding it raises :class:`BudgetExceeded`, which the
Table 4 harness reports as "query not evaluable on this graph".

Ambiguity resolutions vs. the paper's pseudocode (validated by differential
tests against the exhaustive simple-path oracle, see DESIGN.md):

* check order in **Extend**: conflict first, then product-cycle
  (``t ∈ p[v]``), then the marking prune;
* **ExpiryRSPQ** (:meth:`RSPQEngine._expire_tree`) reconnects only
  *marked* expired keys (unmarked keys were fully re-explored when they were
  unmarked — the paper's Line 6 rationale). An occurrence does not record
  which edge created it, so Delete also marks with −∞ an occurrence reached
  over a parallel edge (another label driving the same transition) that
  remains. The Line 6 rationale does not cover such an occurrence, so on the
  deletion path each surviving parent of a pruned occurrence is first
  re-extended over the product edge that still leads there, if any. We skip
  the optional parent re-marking step (Lines 12–14), which affects only
  pruning opportunity, never results;
* a new edge extends every live occurrence of its source, also one that
  lazy expiry (β > 1) keeps past ``τ − |W|`` until the next boundary, so
  that, as in RAPQ, the index derives exactly the pairs of its own window
  graph.

The per-tuple, expiry and Delete drivers are RAPQ's, shared through
:class:`repro.core.engine.DeltaEngine`: the per-tuple step
(:meth:`RSPQEngine._process_edge`) receives the new edge's product edges,
built once per tuple, and keeps those whose source the tree holds.
Occurrence timestamps obey the same child ≤ parent order as RAPQ's nodes,
so the same per-tree floors apply. As in RAPQ, each tree edge is stored
once, as the occurrence's parent pointer: Delete finds the subtrees to mark
by walking those pointers up (:func:`~repro.core.engine.below_tops`), and
ExpiryRSPQ detaches the expired occurrences one by one, since they already
include every expired occurrence's descendants. Extend, re-exploration and Delete's re-extension
walk the engine's product graph (``succ``, ``pred``), as RAPQ's Insert and
reconnection do: parallel edges that drive the same transition are one
product edge at their latest ts.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable

from .dfa import DFA
from .engine import INF, NEG_INF, DeltaEngine, Key, below_tops


class BudgetExceeded(RuntimeError):
    """Raised when a single tuple exceeds the engine's Extend-call budget."""


@dataclass(eq=False, repr=False)
class _PathNode:
    """One occurrence of a ``(v, s)`` key on a root-to-leaf path.

    The parent pointer is the only record of the tree edge; occurrences
    hold no child links. ``eq=False``: nodes compare and hash by identity,
    so Delete's parent walk can key a dict by occurrence.
    """

    key: Key
    ts: float
    parent: "_PathNode | None"

    def __repr__(self) -> str:  # non-recursive (parent omitted)
        return f"_PathNode({self.key}, ts={self.ts})"


class RSPQTree:
    """Spanning tree ``T_x`` with occurrence nodes and markings ``M_x``."""

    __slots__ = ("root", "root_node", "nodes", "marked", "floor")

    def __init__(self, root: str, start_state: int):
        self.root = root
        self.root_node = _PathNode((root, start_state), INF, None)
        # (v, s) -> its live occurrences: the node-lookup index (§5.1.1)
        self.nodes: dict[Key, list[_PathNode]] = {
            (root, start_state): [self.root_node]
        }
        self.marked: set[Key] = set()
        # Lower bound on every occurrence's ts (see ``SpanningTree.floor``).
        # Occurrences never change ts, so only ``add_child`` and Delete's −∞
        # marking have to lower it.
        self.floor: float = INF

    def add_child(self, parent: _PathNode, key: Key, ts: float) -> _PathNode:
        if ts < self.floor:
            self.floor = ts
        node = _PathNode(key, ts, parent)
        self.nodes.setdefault(key, []).append(node)
        return node

    def detach(self, node: _PathNode) -> None:
        """Remove one live occurrence node; its descendants must go too."""
        occs = self.nodes[node.key]
        occs.remove(node)
        if not occs:
            del self.nodes[node.key]

    @property
    def size(self) -> int:
        return sum(len(v) for v in self.nodes.values())


class _PathCtx:
    """Root-to-node path context: ordered states per vertex, O(1) updates."""

    __slots__ = ("states_by_vertex",)

    def __init__(self) -> None:
        self.states_by_vertex: dict[str, list[int]] = {}

    @classmethod
    def from_node(cls, node: _PathNode) -> "_PathCtx":
        chain = []
        cur: _PathNode | None = node
        while cur is not None:
            chain.append(cur.key)
            cur = cur.parent
        ctx = cls()
        for v, s in reversed(chain):
            ctx.push(v, s)
        return ctx

    def push(self, v: str, s: int) -> None:
        self.states_by_vertex.setdefault(v, []).append(s)

    def pop(self, v: str) -> None:
        states = self.states_by_vertex[v]
        states.pop()
        if not states:
            del self.states_by_vertex[v]

    def states(self, v: str) -> list[int]:
        return self.states_by_vertex.get(v, [])


class RSPQEngine(DeltaEngine):
    """Persistent RPQ evaluation under simple path semantics (§4): the
    :class:`~repro.core.engine.DeltaEngine` parameters plus a per-tuple
    Extend ``budget``; keeps conflict statistics. ``process`` raises
    :class:`BudgetExceeded` on the tuple that overruns the budget and on
    every call after it."""

    tree_type = RSPQTree

    def __init__(
        self,
        dfa: DFA,
        window: int,
        slide: int = 1,
        budget: int | None = None,
        on_result: Callable[[int, str, str, str], None] | None = None,
    ):
        super().__init__(dfa, window, slide, on_result)
        self.budget = budget
        # Conflict cascades nest Extend/Unmark frames; the default CPython
        # limit (1000) is far too low for the NP-hard regime the budget caps.
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 100_000))
        # metrics
        self.extend_calls = 0
        self.conflicts = 0
        self.unmark_calls = 0
        self._tuple_extend_calls = 0

    def _begin_tuple(self) -> None:
        """Start a tuple's Extend budget. A tuple that overran it stopped part
        way, leaving the index inconsistent: the engine is then unusable and
        every later call raises :class:`BudgetExceeded`."""
        if self.budget is not None and self._tuple_extend_calls > self.budget:
            raise BudgetExceeded("an earlier tuple exceeded the Extend budget; engine unusable")
        self._tuple_extend_calls = 0

    # ------------------------------------------------------------------
    # Algorithm RSPQ (per-tuple traversal)
    # ------------------------------------------------------------------

    def _process_edge(
        self, tree: RSPQTree, edges: list[tuple[Key, Key]], tau: int,
        results: set[tuple[str, str]],
    ) -> None:
        """Extend every occurrence ``(u, s)`` of ``tree`` with ``(v, t)``, for
        each product edge ``(u, s) → (v, t)`` of the new edge; the states are
        those ``u`` occurs in before the first Extend, in ``by_label`` order."""
        nodes = tree.nodes
        for ukey, vkey in [e for e in edges if e[0] in nodes]:
            for node in list(nodes[ukey]):
                self._extend(tree, node, vkey, tau, results)

    # ------------------------------------------------------------------
    # Algorithm Extend
    # ------------------------------------------------------------------

    def _extend(
        self,
        tree: RSPQTree,
        parent: _PathNode,
        key: Key,
        edge_ts: float,
        results: set[tuple[str, str]],
        ctx: _PathCtx | None = None,
    ) -> None:
        """Try to extend the prefix path ending at ``parent`` with ``key``.

        ``ctx`` carries the prefix path's vertex→states view when called
        recursively; top-level callers pass ``None`` and it is derived from
        the parent chain.
        """
        self.extend_calls += 1
        self._tuple_extend_calls += 1
        if self.budget is not None and self._tuple_extend_calls > self.budget:
            raise BudgetExceeded(
                f"tuple exceeded {self.budget} Extend calls (conflict blow-up)"
            )
        if ctx is None:
            ctx = _PathCtx.from_node(parent)
        v, t = key
        prior_states = ctx.states(v)
        if prior_states:
            q = prior_states[0]  # FIRST(p[v])
            if not self.dfa.contains(q, t):
                # Conflict at v between q and t: the ancestors' prunes were
                # unsafe — unmark them and re-explore (Algorithm Unmark).
                self.conflicts += 1
                self._unmark(tree, parent, results)
                return
            if t in prior_states:
                return  # cycle in the product graph along p
        if key in tree.marked:
            return
        p_ts = parent.ts
        node = tree.add_child(parent, key, edge_ts if edge_ts < p_ts else p_ts)
        if len(tree.nodes[key]) == 1:  # first occurrence of (v,t) in T_x
            tree.marked.add(key)
        self._track(v, tree.root)
        # A revisit of the root vertex is never reported: the containment
        # shortcut that justifies traversing revisits (Theorem 4, "only if")
        # degenerates to the empty path when the revisited vertex is x
        # itself, and simple paths here have length ≥ 1.
        if t in self.dfa.finals and v != tree.root:
            results.add((tree.root, v))
        ctx.push(v, t)
        try:
            for wkey, w_ts in self.succ.get(key, {}).items():
                self._extend(tree, node, wkey, w_ts, results, ctx)
        finally:
            ctx.pop(v)

    # ------------------------------------------------------------------
    # Algorithm Unmark
    # ------------------------------------------------------------------

    def _unmark(
        self,
        tree: RSPQTree,
        last: _PathNode,
        results: set[tuple[str, str]],
    ) -> None:
        """Remove markings along the prefix path and re-explore pruned paths."""
        self.unmark_calls += 1
        queue: list[Key] = []
        cur: _PathNode | None = last
        while cur is not None and cur.key in tree.marked:
            tree.marked.discard(cur.key)
            queue.append(cur.key)
            cur = cur.parent
        for key in queue:
            self._reexplore(tree, key, results)

    def _reexplore(self, tree: RSPQTree, key: Key, results: set[tuple[str, str]]) -> None:
        """Extend every occurrence of a product-graph predecessor of ``key``
        (``pred``) with ``key``."""
        for pkey, e_ts in self.pred.get(key, {}).items():
            for pnode in list(tree.nodes.get(pkey, ())):
                self._extend(tree, pnode, key, e_ts, results)

    # ------------------------------------------------------------------
    # Algorithm ExpiryRSPQ
    # ------------------------------------------------------------------

    def _expire_tree(
        self, tree: RSPQTree, lo: float, results: set[tuple[str, str]]
    ) -> set[Key]:
        """**ExpiryRSPQ** on one tree; returns the keys of pruned occurrences.

        Detaches every occurrence with ``ts ≤ lo``, which includes each
        one's whole subtree (child ts ≤ parent ts, and Delete marks whole
        subtrees −∞), then reconnects the marked keys that lost all their
        occurrences. On the deletion path (Delete set the tree's floor to
        −∞) it first re-extends each surviving parent of a pruned
        occurrence over the product edge that still leads there (see the
        module docstring).
        The scan also re-arms the tree at its exact floor; occurrences that
        reconnection adds lower it through ``add_child``.
        """
        deleted = tree.floor == NEG_INF
        expired = []
        floor = INF
        for occs in tree.nodes.values():
            for n in occs:
                ts = n.ts
                if ts <= lo:
                    expired.append(n)
                elif ts < floor:
                    floor = ts
        tree.floor = floor
        if not expired:
            return set()
        pruned = {n.key for n in expired}
        was_marked = pruned & tree.marked
        # Pruned occurrences whose parent survives: the tops of Delete's marks.
        cut = [(n.parent, n.key) for n in expired if n.parent.ts > lo] if deleted else ()
        for n in expired:
            tree.detach(n)
        tree.marked -= {k for k in pruned if k not in tree.nodes}
        for parent, key in cut:
            # Delete cannot tell parallel edges that drive the same transition
            # apart: re-extend the parent over the product edge if one remains.
            e_ts = self.succ.get(parent.key, {}).get(key)
            if e_ts is not None:
                self._extend(tree, parent, key, e_ts, results)
        for key in was_marked:
            if key not in tree.nodes:
                self._reexplore(tree, key, results)
        return pruned

    def derivable_pairs(self) -> set[tuple[str, str]]:
        """The base's pairs without the root vertex (see :meth:`_derivable`)."""
        return {(x, v) for x, v in super().derivable_pairs() if x != v}

    def _derivable(self, x: str, v: str) -> bool:
        """Is ``(x, v)`` witnessed by a final-state occurrence at ``v ≠ x``?

        Occurrences at the root vertex are never results (see :meth:`_extend`).
        """
        tree = self.trees.get(x)
        if tree is None or v == x:
            return False
        return any((v, s) in tree.nodes for s in self.dfa.finals)

    # ------------------------------------------------------------------
    # Explicit deletions (§3.2 applied to RSPQ)
    # ------------------------------------------------------------------

    def _mark_deleted(self, tree: RSPQTree, u: str, v: str, label: str) -> bool:
        """Mark with ``ts = −∞`` the subtree under each occurrence ``(v, t)``
        whose parent is an occurrence ``(u, s)`` with ``δ(s, label) = t``."""
        tops = [
            node
            for s, t in self.dfa.by_label[label].items()
            for node in tree.nodes.get((v, t), ())
            if (p := node.parent) is not None and p.key == (u, s)
        ]
        if not tops:
            return False
        members = (n for occs in tree.nodes.values() for n in occs)
        for n in below_tops(tops, tree.root_node, members, attrgetter("parent")):
            n.ts = NEG_INF
        return True
