"""Streaming graph tuples (Definition 2) and the sliding-window snapshot
graph ``G_{W,τ}`` (Definitions 4-5).

Maintains the window edges as an arrival-ordered log; the Δ-index engines
keep the only adjacency, that of the product graph (:mod:`repro.core.engine`).
An edge is identified by ``(u, v, label)``; re-arrival refreshes its
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


@dataclass(frozen=True, order=True, slots=True)
class Sgt:
    """A streaming graph tuple (Definition 2): ``(τ, (u, v), label, op)``."""

    ts: int
    src: str
    dst: str
    label: str
    op: str = "+"  # "+" insert, "-" delete


def check_tuple(sgt, last_ts: float) -> None:
    """Reject a tuple with an unknown ``op`` or a timestamp before ``last_ts``."""
    if sgt.op not in ("+", "-"):
        raise ValueError(f"unknown op {sgt.op!r} in {sgt}; expected '+' or '-'")
    if sgt.ts < last_ts:
        raise ValueError(f"out-of-order tuple {sgt}: ts {sgt.ts} < previous ts {last_ts}")


@dataclass
class WindowGraph:
    """The window content as an arrival-ordered edge set with timestamps."""

    window: int  # |W| in time units

    # (u,v,label) -> ts, in arrival order (hence in timestamp order)
    edges: dict[Edge, int] = field(default_factory=dict)

    def insert(self, u: str, v: str, label: str, ts: int) -> None:
        """Add or refresh edge ``(u, v, label)`` at time ``ts``.

        ``ts`` must be at least that of every earlier insert. A refreshed
        edge moves to the end of the arrival order.
        """
        self.edges.pop((u, v, label), None)
        self.edges[(u, v, label)] = ts

    def delete(self, u: str, v: str, label: str) -> bool:
        """Explicitly remove an edge; returns whether it was present."""
        if (u, v, label) not in self.edges:
            return False
        del self.edges[(u, v, label)]
        return True

    def expire(self, tau: int) -> list[Edge]:
        """Drop edges with ``ts ≤ τ − |W|``; returns the expired edges."""
        lo = tau - self.window
        dead = []
        for e, ts in self.edges.items():
            if ts > lo:
                break  # every later edge arrived later
            dead.append(e)
        for e in dead:
            del self.edges[e]
        return dead

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def edge_set(self) -> set[Edge]:
        """The current snapshot's edges (for oracle comparisons)."""
        return set(self.edges)
