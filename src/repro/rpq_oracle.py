"""Reference (oracle) implementations of RPQ semantics for testing.

These are deliberately naive, obviously-correct implementations used to
differentially test the incremental engines and the Spark dataflow layer:

* :func:`rapq_pairs` — batch RPQ under *arbitrary* path semantics on a static
  edge set: BFS over the product graph (paper §3, "Batch Algorithm").
* :func:`rspq_pairs` — batch RPQ under *simple* path semantics: exhaustive
  DFS enumeration of simple paths through the product graph (exponential;
  test-scale graphs only).
* :func:`streaming_reference` — the streaming result of Definition 9 under
  the implicit window model: the union of batch results over the snapshot
  graphs at every event time (eager evaluation, β = 1).
* :func:`recursive_cte_sql` — a DuckDB ``WITH RECURSIVE`` reachability query
  over a product-edge table, for use with ``repro.oracle.assert_equivalent``.

All semantics use paths of length ≥ 1 (see DESIGN.md).
"""
from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from .core.dfa import DFA
from .core.windows import Edge, Sgt


def rapq_pairs(edges: Iterable[Edge], dfa: DFA) -> set[tuple[str, str]]:
    """Arbitrary-path batch result: pairs connected in the product graph.

    Standard BFS from every ``(x, s0)`` node over product edges; a pair
    ``(x, y)`` is produced when ``(y, s_f)`` is reached via ≥ 1 edge.
    """
    adj: dict[str, list[tuple[str, str]]] = {}
    for u, v, label in edges:
        adj.setdefault(u, []).append((v, label))
    vertices = set(adj)
    for outs in list(adj.values()):
        vertices.update(v for v, _ in outs)

    out: set[tuple[str, str]] = set()
    for x in vertices:
        seen = {(x, dfa.start)}
        queue = deque([(x, dfa.start)])
        while queue:
            u, s = queue.popleft()
            for v, label in adj.get(u, ()):
                t = dfa.delta(s, label)
                if t is None or (v, t) in seen:
                    continue
                seen.add((v, t))
                if t in dfa.finals:
                    out.add((x, v))
                queue.append((v, t))
    return out


def rspq_pairs(edges: Iterable[Edge], dfa: DFA) -> set[tuple[str, str]]:
    """Simple-path batch result by exhaustive DFS (no repeated *vertices*).

    Exponential in the worst case — callers keep graphs tiny. The start
    vertex is on the path, so a path may not return to it (a simple path
    visits every vertex at most once, including the endpoints).
    """
    adj: dict[str, list[tuple[str, str]]] = {}
    for u, v, label in edges:
        adj.setdefault(u, []).append((v, label))
    vertices = set(adj)
    for outs in list(adj.values()):
        vertices.update(v for v, _ in outs)

    out: set[tuple[str, str]] = set()

    def dfs(x: str, u: str, s: int, visited: set[str]) -> None:
        for v, label in adj.get(u, ()):
            if v in visited:
                continue
            t = dfa.delta(s, label)
            if t is None:
                continue
            if t in dfa.finals:
                out.add((x, v))
            visited.add(v)
            dfs(x, v, t, visited)
            visited.remove(v)

    for x in vertices:
        dfs(x, x, dfa.start, {x})
    return out


def snapshot_edges(
    stream: Sequence[Sgt], tau: int, window: int
) -> set[Edge]:
    """Edges of the snapshot graph ``G_{W,τ}`` (Definition 5).

    An edge ``(u, v, label)`` is present iff its *latest* operation with
    timestamp in ``(τ − |W|, τ]`` is an insert; an explicit delete removes the
    edge (negative-tuples model, §3.2). Tuples are applied in stream order.
    """
    state: dict[Edge, tuple[int, str]] = {}
    for t in stream:
        if t.ts > tau:
            break
        state[(t.src, t.dst, t.label)] = (t.ts, t.op)
    lo = tau - window
    return {
        e
        for e, (ts, op) in state.items()
        if op == "+" and lo < ts <= tau
    }


def streaming_reference(
    stream: Sequence[Sgt],
    dfa: DFA,
    window: int,
    *,
    simple: bool = False,
) -> set[tuple[str, str]]:
    """Definition 9 result set: union of batch results over all snapshots.

    Snapshots change only at event times, so evaluating at each tuple's
    timestamp (eager, β = 1) is exhaustive for the union.
    """
    evaluate = rspq_pairs if simple else rapq_pairs
    out: set[tuple[str, str]] = set()
    for i, t in enumerate(stream):
        # Evaluate over the *prefix* ending at tuple i: timestamps may
        # repeat, and an eager engine sees the state after each arrival,
        # before later same-timestamp tuples (including deletions) apply.
        out |= evaluate(snapshot_edges(stream[: i + 1], t.ts, window), dfa)
    return out


def product_edge_rows(
    edges: Iterable[Edge], dfa: DFA
) -> list[tuple[str, int, str, int]]:
    """Rows ``(src_v, src_s, dst_v, dst_s)`` of the product graph (Def. 11)."""
    rows = []
    for u, v, label in edges:
        for (s, lbl), t in dfa.trans.items():
            if lbl == label:
                rows.append((u, s, v, t))
    return sorted(rows)


def recursive_cte_sql(dfa: DFA, table: str = "pe") -> str:
    """DuckDB SQL computing arbitrary-path RPQ pairs from a product-edge table.

    ``table`` must have columns ``src_v, src_s, dst_v, dst_s``. Used with
    ``repro.oracle.assert_equivalent`` to certify the Spark batch evaluator.
    Output columns: ``x, y``.

    The final WHERE excludes a cycle landing back on ``(x, s0)``: the engines
    (like the paper's Insert) reuse the root node and never report that pair
    (nonempty-path semantics, see DESIGN.md).
    """
    finals = ", ".join(str(f) for f in sorted(dfa.finals)) or "-1"
    return f"""
WITH RECURSIVE reach(x, v, s) AS (
    SELECT src_v AS x, dst_v AS v, dst_s AS s
    FROM {table} WHERE src_s = {dfa.start}
  UNION
    SELECT r.x, e.dst_v, e.dst_s
    FROM reach r JOIN {table} e ON r.v = e.src_v AND r.s = e.src_s
)
SELECT DISTINCT x, v AS y FROM reach
WHERE s IN ({finals}) AND NOT (v = x AND s = {dfa.start})
""".strip()
