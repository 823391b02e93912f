"""Sliding-window snapshot graph ``G_{W,τ}`` (Definitions 4-5).

Maintains the multiset of window edges with in/out adjacency for the Δ-index
engines. An edge is identified by ``(u, v, label)``; re-arrival refreshes its
timestamp (the window keeps the latest one). Expiry drops edges whose
timestamp left the window interval; explicit deletion (§3.2) removes an edge
immediately regardless of timestamp.

Edges are kept in arrival order, so expiry stops at the first edge still in
the window. This needs non-decreasing timestamps, which the engines enforce
with :func:`check_tuple`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

Edge = tuple[str, str, str]  # (src, dst, label)


def check_tuple(sgt, last_ts: float) -> None:
    """Reject a tuple with an unknown ``op`` or a timestamp before ``last_ts``."""
    if sgt.op not in ("+", "-"):
        raise ValueError(f"unknown op {sgt.op!r} in {sgt}; expected '+' or '-'")
    if sgt.ts < last_ts:
        raise ValueError(f"out-of-order tuple {sgt}: ts {sgt.ts} < previous ts {last_ts}")


@dataclass
class WindowGraph:
    """The window content as an adjacency-indexed edge set with timestamps."""

    window: int  # |W| in time units

    # (u,v,label) -> ts, in arrival order (hence in timestamp order)
    edges: dict[Edge, int] = field(default_factory=dict)
    out_adj: dict[str, dict[tuple[str, str], int]] = field(default_factory=dict)
    in_adj: dict[str, dict[tuple[str, str], int]] = field(default_factory=dict)

    def insert(self, u: str, v: str, label: str, ts: int) -> None:
        """Add or refresh edge ``(u, v, label)`` at time ``ts``.

        ``ts`` must be at least that of every earlier insert. A refreshed
        edge moves to the end of the arrival order.
        """
        self.edges.pop((u, v, label), None)
        self.edges[(u, v, label)] = ts
        self.out_adj.setdefault(u, {})[(v, label)] = ts
        self.in_adj.setdefault(v, {})[(u, label)] = ts

    def delete(self, u: str, v: str, label: str) -> bool:
        """Explicitly remove an edge; returns whether it was present."""
        if (u, v, label) not in self.edges:
            return False
        del self.edges[(u, v, label)]
        self._drop_adj(u, v, label)
        return True

    def _drop_adj(self, u: str, v: str, label: str) -> None:
        outs = self.out_adj.get(u)
        if outs is not None:
            outs.pop((v, label), None)
            if not outs:
                del self.out_adj[u]
        ins = self.in_adj.get(v)
        if ins is not None:
            ins.pop((u, label), None)
            if not ins:
                del self.in_adj[v]

    def expire(self, tau: int) -> list[Edge]:
        """Drop edges with ``ts ≤ τ − |W|``; returns the expired edges."""
        lo = tau - self.window
        dead = []
        for e, ts in self.edges.items():
            if ts > lo:
                break  # every later edge arrived later
            dead.append(e)
        for u, v, label in dead:
            del self.edges[(u, v, label)]
            self._drop_adj(u, v, label)
        return dead

    def out_edges(self, u: str):
        """Iterate ``(v, label, ts)`` over out-edges of ``u``."""
        for (v, label), ts in self.out_adj.get(u, {}).items():
            yield v, label, ts

    def in_edges(self, v: str):
        """Iterate ``(u, label, ts)`` over in-edges of ``v``."""
        for (u, label), ts in self.in_adj.get(v, {}).items():
            yield u, label, ts

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def edge_set(self) -> set[Edge]:
        """The current snapshot's edges (for oracle comparisons)."""
        return set(self.edges)
