"""Synthetic streaming graphs mirroring the paper's datasets (§5.1.2).

Each generator returns a list of :class:`repro.core.windows.Sgt` with
non-decreasing integer timestamps at a fixed arrival rate (``rate`` edges per
time unit — the paper's fixed-rate timestamp assignment for Yago2s/gMark).
All generators are deterministic in ``seed``.

Substitutions for the paper's datasets (rationale in DESIGN.md §3):

* :func:`so_stream` ~ Stackoverflow: homogeneous (one vertex type), exactly
  three labels (``a2q``, ``c2a``, ``c2q``), dense and highly cyclic —
  preferential attachment over a small vertex set plus explicit back-edges.
* :func:`ldbc_stream` ~ LDBC SNB update stream: typed vertices
  (person/post/comment), recursion confined to ``knows`` and ``replyOf``,
  sparse.
* :func:`yago_stream` ~ Yago2s RDF: ~100 labels, each matching ~1% of edges,
  near-acyclic (vertex ids mostly increase along edges).
"""
from __future__ import annotations

import numpy as np

from ..core.windows import Sgt

SO_LABELS = ("a2q", "c2a", "c2q")
LDBC_LABELS = ("knows", "replyOf", "hasCreator", "likes")


def _emit(rows, rate: int) -> list[Sgt]:
    """Attach fixed-rate timestamps: ``rate`` sgts per time unit."""
    return [
        Sgt(i // rate, str(u), str(v), str(l))
        for i, (u, v, l) in enumerate(rows)
    ]


def so_stream(
    n_edges: int = 5000,
    n_vertices: int = 300,
    rate: int = 10,
    seed: int = 0,
) -> list[Sgt]:
    """Dense cyclic homogeneous stream over the three SO interaction labels.

    Skewed (Zipf-like) endpoint choice concentrates edges on hub users —
    the paper attributes SO's difficulty to exactly this density+cyclicity.
    Every other edge is flipped to point "backwards", so label-matched cycles
    are abundant.
    """
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, n_vertices + 1)
    w = 1.0 / ranks**0.8
    w /= w.sum()
    us = rng.choice(n_vertices, size=n_edges, p=w)
    vs = rng.choice(n_vertices, size=n_edges, p=w)
    labels = rng.choice(SO_LABELS, size=n_edges)
    rows = []
    for i in range(n_edges):
        u, v = int(us[i]), int(vs[i])
        if u == v:
            v = (v + 1) % n_vertices
        if i % 2 == 1:  # back-edge: close cycles aggressively
            u, v = v, u
        rows.append((f"u{u}", f"u{v}", labels[i]))
    return _emit(rows, rate)


def ldbc_stream(
    n_edges: int = 5000,
    n_persons: int = 200,
    rate: int = 10,
    seed: int = 1,
) -> list[Sgt]:
    """Heterogeneous social-network update stream (LDBC SNB shape).

    Edge mix (≈): 25% person-knows-person, 25% person-likes-post,
    25% post/comment-hasCreator-person, 25% comment-replyOf-post/comment.
    Messages are created over time, so ``replyOf`` chains point backwards to
    recent messages — recursion exists but stays shallow and acyclic, which
    is why LDBC is the paper's fastest dataset.
    """
    rng = np.random.default_rng(seed)
    rows = []
    n_messages = 0
    for i in range(n_edges):
        kind = rng.random()
        if kind < 0.25:
            u, v = rng.choice(n_persons, 2, replace=False)
            rows.append((f"p{u}", f"p{v}", "knows"))
        elif kind < 0.5 or n_messages == 0:
            m = n_messages
            n_messages += 1
            rows.append((f"m{m}", f"p{rng.integers(n_persons)}", "hasCreator"))
        elif kind < 0.75:
            m = rng.integers(max(1, n_messages))
            rows.append((f"p{rng.integers(n_persons)}", f"m{m}", "likes"))
        else:
            # A new comment replying to a recent message.
            m = n_messages
            n_messages += 1
            lo = max(0, m - 50)
            target = rng.integers(lo, m)
            rows.append((f"m{m}", f"m{target}", "replyOf"))
    return _emit(rows, rate)


def yago_stream(
    n_edges: int = 5000,
    n_vertices: int = 2000,
    n_labels: int = 100,
    rate: int = 10,
    seed: int = 2,
) -> list[Sgt]:
    """Sparse, label-rich, near-acyclic RDF-like stream.

    The first three labels are the Table 3 bindings (``happenedIn``,
    ``hasCapital``, ``participatedIn``) and receive a modest share of edges
    so the Table 2 queries have non-trivial but selective matches; the
    remaining ~97 labels share the rest (each ~1% selectivity, like Yago2s'
    rich schema). 90% of edges go from a lower to a higher vertex id
    (near-acyclicity ⇒ conflict-freedom for RSPQ, Table 4 row 1).
    """
    rng = np.random.default_rng(seed)
    named = ["happenedIn", "hasCapital", "participatedIn"]
    others = [f"rel{i}" for i in range(n_labels - len(named))]
    p_named = 0.08
    rows = []
    for _ in range(n_edges):
        u = int(rng.integers(n_vertices))
        v = int(rng.integers(n_vertices))
        if u == v:
            v = (v + 1) % n_vertices
        if rng.random() < 0.9 and u > v:  # mostly "forward" edges
            u, v = v, u
        if rng.random() < p_named * len(named):
            label = named[int(rng.integers(len(named)))]
        else:
            label = others[int(rng.integers(len(others)))]
        rows.append((f"e{u}", f"e{v}", label))
    return _emit(rows, rate)


DATASETS = {
    "so": so_stream,
    "ldbc": ldbc_stream,
    "yago": yago_stream,
}


def dataset_stream(name: str, n_edges: int, rate: int = 10, seed: int | None = None) -> list[Sgt]:
    """Uniform accessor used by the experiment harness."""
    gen = DATASETS[name]
    kwargs = {"n_edges": n_edges, "rate": rate}
    if seed is not None:
        kwargs["seed"] = seed
    return gen(**kwargs)


def with_deletions(stream: list[Sgt], ratio: float, seed: int = 7) -> list[Sgt]:
    """Inject explicit deletions: re-emit a previously seen edge as a
    negative tuple with probability ``ratio`` per position (§5.4's method:
    "reinserting a previously consumed edge as a negative tuple")."""
    rng = np.random.default_rng(seed)
    out: list[Sgt] = []
    seen: list[Sgt] = []
    for t in stream:
        if seen and rng.random() < ratio:
            victim = seen[int(rng.integers(len(seen)))]
            out.append(Sgt(t.ts, victim.src, victim.dst, victim.label, "-"))
        out.append(t)
        seen.append(t)
    return out
