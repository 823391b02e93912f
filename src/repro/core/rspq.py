"""Algorithm RSPQ — incremental RPQ evaluation under simple path semantics (§4).

Key differences from Algorithm RAPQ (paper §4.1):

* a vertex may be visited in the same DFA state more than once in a tree when
  a **conflict** is present, so trees hold *occurrence nodes* rather than
  unique ``(v, s)`` keys;
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
* **ExpiryRSPQ** reconnects only *marked* expired keys (unmarked keys were
  fully re-explored when they were unmarked — the paper's Line 6 rationale);
  we skip the optional parent re-marking step (Lines 12–14), which affects
  only pruning opportunity, never results.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..rpq_oracle import Sgt
from .dfa import DFA
from .windows import WindowGraph, check_tuple

INF = math.inf
NEG_INF = -math.inf

Key = tuple[str, int]


class BudgetExceeded(RuntimeError):
    """Raised when a single tuple exceeds the engine's Extend-call budget."""


@dataclass(eq=False, repr=False)
class _PathNode:
    """One occurrence of a ``(v, s)`` key on a root-to-leaf path.

    ``eq=False``: nodes compare by identity — structural equality would
    recurse through the parent/children links.
    """

    key: Key
    ts: float
    parent: "_PathNode | None"
    children: list["_PathNode"] = field(default_factory=list)
    dead: bool = False  # detached during expiry

    def __repr__(self) -> str:  # non-recursive (parent/children omitted)
        return f"_PathNode({self.key}, ts={self.ts}, dead={self.dead})"


class RSPQTree:
    """Spanning tree ``T_x`` with occurrence nodes and markings ``M_x``."""

    __slots__ = ("root", "root_node", "occ", "marked", "by_vertex")

    def __init__(self, root: str, start_state: int):
        self.root = root
        self.root_node = _PathNode((root, start_state), INF, None)
        self.occ: dict[Key, list[_PathNode]] = {
            (root, start_state): [self.root_node]
        }
        self.marked: set[Key] = set()
        # vertex -> keys present (hash-based node lookup index, §5.1.1)
        self.by_vertex: dict[str, set[Key]] = {root: {(root, start_state)}}

    def occurrences(self, key: Key) -> list[_PathNode]:
        return self.occ.get(key, [])

    def vertex_keys(self, v: str) -> list[Key]:
        return list(self.by_vertex.get(v, ()))

    def add_child(self, parent: _PathNode, key: Key, ts: float) -> _PathNode:
        node = _PathNode(key, ts, parent)
        parent.children.append(node)
        self.occ.setdefault(key, []).append(node)
        self.by_vertex.setdefault(key[0], set()).add(key)
        return node

    def detach(self, node: _PathNode) -> None:
        """Remove one occurrence node (its subtree must be handled first)."""
        if node.parent is not None:
            try:
                node.parent.children.remove(node)
            except ValueError:
                pass
        occs = self.occ.get(node.key)
        if occs is not None:
            try:
                occs.remove(node)
            except ValueError:
                pass
            if not occs:
                del self.occ[node.key]
                keys = self.by_vertex.get(node.key[0])
                if keys is not None:
                    keys.discard(node.key)
                    if not keys:
                        del self.by_vertex[node.key[0]]
        node.dead = True

    @property
    def size(self) -> int:
        return sum(len(v) for v in self.occ.values())

    def keys(self) -> Iterable[Key]:
        return self.occ.keys()


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


class RSPQEngine:
    """Persistent RPQ evaluation under simple path semantics (§4).

    Mirrors :class:`repro.core.rapq.RAPQEngine`'s interface: ``process``,
    ``run``, ``derivable_pairs``, ``expire``; plus conflict statistics and a
    per-tuple Extend budget.
    """

    def __init__(
        self,
        dfa: DFA,
        window: int,
        slide: int = 1,
        budget: int | None = None,
        on_result: Callable[[int, str, str, str], None] | None = None,
    ):
        self.dfa = dfa
        self.window = window
        self.slide = max(1, slide)
        self.budget = budget
        # Conflict cascades nest Extend/Unmark frames; the default CPython
        # limit (1000) is far too low for the NP-hard regime the budget caps.
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 100_000))
        self.graph = WindowGraph(window)
        self.trees: dict[str, RSPQTree] = {}
        self.vertex_trees: dict[str, set[str]] = {}
        self.results: dict[tuple[str, str], int] = {}
        self.on_result = on_result
        self._last_boundary = NEG_INF
        self._tau: float = NEG_INF
        # metrics
        self.extend_calls = 0
        self.conflicts = 0
        self.unmark_calls = 0
        self._tuple_extend_calls = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def process(self, sgt: Sgt) -> set[tuple[str, str]]:
        """Consume one sgt; returns newly reported pairs.

        Raises :class:`BudgetExceeded` when the per-tuple Extend budget is
        exhausted (conflict-heavy executions; §4's NP-hard regime), and
        ``ValueError`` on an unknown ``op`` or on a timestamp older than the
        previous tuple's.
        """
        check_tuple(sgt, self._tau)
        tau = self._tau = sgt.ts
        self._tuple_extend_calls = 0
        boundary = (tau // self.slide) * self.slide
        if boundary > self._last_boundary:
            self._last_boundary = boundary
            self.expire(boundary)
        if sgt.op == "-":
            self._delete(sgt.src, sgt.dst, sgt.label, tau)
            return set()
        if sgt.label not in self.dfa.alphabet:
            return set()
        self.graph.insert(sgt.src, sgt.dst, sgt.label, tau)
        return self._process_edge(sgt.src, sgt.dst, sgt.label, tau)

    def run(self, stream: Iterable[Sgt]) -> set[tuple[str, str]]:
        for sgt in stream:
            self.process(sgt)
        return set(self.results)

    def derivable_pairs(self) -> set[tuple[str, str]]:
        """Pairs currently witnessed by a final-state occurrence node."""
        out = set()
        for x, tree in self.trees.items():
            for (v, s) in tree.keys():
                if s in self.dfa.finals and v != tree.root:
                    out.add((x, v))
        return out

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    @property
    def n_nodes(self) -> int:
        return sum(t.size for t in self.trees.values())

    # ------------------------------------------------------------------
    # Algorithm RSPQ (per-tuple traversal)
    # ------------------------------------------------------------------

    def _process_edge(
        self, u: str, v: str, label: str, tau: int
    ) -> set[tuple[str, str]]:
        results: set[tuple[str, str]] = set()
        if label in self.dfa.start_labels and u not in self.trees:
            self.trees[u] = RSPQTree(u, self.dfa.start)
            self.vertex_trees.setdefault(u, set()).add(u)
        lo = tau - self.window
        for x in list(self.vertex_trees.get(u, ())):
            tree = self.trees.get(x)
            if tree is None:
                continue
            for (uu, s) in tree.vertex_keys(u):
                t = self.dfa.delta(s, label)
                if t is None:
                    continue
                for node in list(tree.occurrences((u, s))):
                    if node.dead or node.ts <= lo:
                        continue
                    self._extend(tree, node, (v, t), tau, results)
        self._report(results, tau)
        return results

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
        if parent.dead:
            return
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
        node = tree.add_child(parent, key, min(edge_ts, parent.ts))
        if len(tree.occ[key]) == 1:  # first occurrence of (v,t) in T_x
            tree.marked.add(key)
        self.vertex_trees.setdefault(v, set()).add(tree.root)
        # A revisit of the root vertex is never reported: the containment
        # shortcut that justifies traversing revisits (Theorem 4, "only if")
        # degenerates to the empty path when the revisited vertex is x
        # itself, and simple paths here have length ≥ 1.
        if t in self.dfa.finals and v != tree.root:
            results.add((tree.root, v))
        ctx.push(v, t)
        try:
            for w, lbl, w_ts in list(self.graph.out_edges(v)):
                r = self.dfa.delta(t, lbl)
                if r is None:
                    continue
                self._extend(tree, node, (w, r), w_ts, results, ctx)
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
        for (v, t) in queue:
            # Re-explore every window edge into v that was pruned because
            # (v, t) was marked: extend each valid occurrence of a matching
            # predecessor with (v, t).
            for w, lbl, e_ts in list(self.graph.in_edges(v)):
                for (wv, q2) in tree.vertex_keys(w):
                    if self.dfa.delta(q2, lbl) != t:
                        continue
                    for pnode in list(tree.occurrences((w, q2))):
                        if pnode.dead:
                            continue
                        self._extend(tree, pnode, (v, t), e_ts, results)

    def _report(self, pairs: set[tuple[str, str]], tau: int) -> None:
        for pair in pairs:
            if pair not in self.results:
                self.results[pair] = tau
                if self.on_result is not None:
                    self.on_result(tau, pair[0], pair[1], "+")

    # ------------------------------------------------------------------
    # Algorithm ExpiryRSPQ
    # ------------------------------------------------------------------

    def expire(self, tau: float, invalidate: bool = False) -> set[tuple[str, str]]:
        self.graph.expire(int(tau) if tau != NEG_INF else 0)
        lo = tau - self.window
        invalidated: set[tuple[str, str]] = set()
        for x in list(self.trees):
            tree = self.trees[x]
            expired_nodes = [
                n
                for occs in tree.occ.values()
                for n in occs
                if n.ts <= lo and n.parent is not None
            ]
            if not expired_nodes:
                continue
            expired_keys = {n.key for n in expired_nodes}
            was_marked = expired_keys & tree.marked
            # Prune: drop every expired occurrence (subtrees of expired nodes
            # are themselves expired since child.ts <= parent.ts).
            for n in expired_nodes:
                self.expiry_detach(tree, n)
            tree.marked -= {k for k in expired_keys if k not in tree.occ}
            # Reconnect marked keys that lost all occurrences: their pruned
            # alternatives were never explored, so scan incoming edges.
            reconnection_results: set[tuple[str, str]] = set()
            for key in was_marked:
                v, t = key
                if key in tree.occ:
                    continue
                tree.marked.discard(key)
                for w, lbl, e_ts in list(self.graph.in_edges(v)):
                    for (wv, q2) in tree.vertex_keys(w):
                        if self.dfa.delta(q2, lbl) != t:
                            continue
                        for pnode in list(tree.occurrences((w, q2))):
                            if pnode.dead or pnode.ts <= lo:
                                continue
                            self._extend(tree, pnode, key, e_ts, reconnection_results)
            self._report(reconnection_results, int(tau) if tau != NEG_INF else 0)
            # Invalidations + reverse-index maintenance.
            for key in expired_keys:
                if key in tree.occ:
                    continue
                v, t = key
                if t in self.dfa.finals:
                    invalidated.add((x, v))
                if not tree.by_vertex.get(v):
                    roots = self.vertex_trees.get(v)
                    if roots is not None:
                        roots.discard(x)
                        if not roots:
                            del self.vertex_trees[v]
            if tree.size == 1:
                del self.trees[x]
                roots = self.vertex_trees.get(x)
                if roots is not None:
                    roots.discard(x)
                    if not roots:
                        del self.vertex_trees[x]
        if invalidate and invalidated:
            still = self.derivable_pairs()
            for x, v in invalidated:
                if (x, v) in self.results and (x, v) not in still:
                    del self.results[(x, v)]
                    if self.on_result is not None:
                        self.on_result(int(tau), x, v, "-")
        return invalidated

    def expiry_detach(self, tree: RSPQTree, node: _PathNode) -> None:
        """Detach ``node`` and its whole subtree from the tree."""
        stack = [node]
        order = []
        while stack:
            n = stack.pop()
            order.append(n)
            stack.extend(n.children)
        for n in reversed(order):  # leaves first
            if not n.dead:
                tree.detach(n)

    # ------------------------------------------------------------------
    # Explicit deletions (§3.2 applied to RSPQ)
    # ------------------------------------------------------------------

    def _delete(self, u: str, v: str, label: str, tau: int) -> set[tuple[str, str]]:
        if not self.graph.delete(u, v, label):
            return set()
        touched = False
        for x in list(self.vertex_trees.get(v, ())):
            tree = self.trees.get(x)
            if tree is None:
                continue
            for (vv, t) in tree.vertex_keys(v):
                for node in list(tree.occurrences((v, t))):
                    p = node.parent
                    if p is None:
                        continue
                    if p.key[0] == u and self.dfa.delta(p.key[1], label) == t:
                        stack = [node]
                        while stack:
                            n = stack.pop()
                            n.ts = NEG_INF
                            stack.extend(n.children)
                        touched = True
        if not touched:
            return set()
        return self.expire(tau, invalidate=True)
