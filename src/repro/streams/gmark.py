"""gMark-style synthetic RPQ workload and graph (§5.1.2, Figures 7-9).

The paper uses gMark [12] with an LDBC-like schema to generate 100 RPQs of
size 2–20, where size = number of labels + number of ``*``/``+``
occurrences, built by "grouping labels into concatenations and alternations
of size up to 3 where each group has a 50% probability of having * and +".
This module reimplements that recipe over a configurable label alphabet and
provides a matching graph stream (reusing the LDBC-like generator's shape
with a larger label set).
"""
from __future__ import annotations

import random

import numpy as np

from ..core.queries import Query, query_from_text
from ..core.windows import Sgt

GMARK_LABELS = tuple(f"g{i}" for i in range(8))


def random_rpq(size: int, rng: random.Random, labels=GMARK_LABELS) -> str:
    """One random RPQ of the given size following the paper's recipe.

    Groups of 1–3 labels are combined by concatenation or alternation;
    each group gets ``*`` or ``+`` with probability 50%. The budget
    counts labels and star/plus occurrences.
    """
    parts: list[str] = []
    remaining = size
    while remaining > 0:
        group_n = min(rng.randint(1, 3), remaining)
        group_labels = [rng.choice(labels) for _ in range(group_n)]
        starred = remaining - group_n >= 1 and rng.random() < 0.5
        joiner = "|" if rng.random() < 0.5 else " "
        body = joiner.join(group_labels)
        remaining -= group_n
        if starred:
            parts.append(f"({body}){rng.choice('*+')}")
            remaining -= 1
        elif group_n > 1:
            parts.append(f"({body})")
        else:
            parts.append(body)
    return " ".join(parts)


def gmark_workload(
    n_queries: int = 100,
    size_range: tuple[int, int] = (2, 20),
    seed: int = 11,
    labels=GMARK_LABELS,
) -> list[Query]:
    """The Figure 7–9 workload: ``n_queries`` RPQs with sizes in range."""
    rng = random.Random(seed)
    out = []
    lo, hi = size_range
    for i in range(n_queries):
        size = lo + (i * (hi - lo)) // max(1, n_queries - 1)
        text = random_rpq(size, rng, labels)
        out.append(query_from_text(text, name=f"G{i}"))
    return out


def gmark_stream(
    n_edges: int = 5000,
    n_vertices: int = 800,
    rate: int = 10,
    seed: int = 12,
    labels=GMARK_LABELS,
) -> list[Sgt]:
    """LDBC-schema-like graph over the gMark label alphabet.

    Moderately sparse with some cyclicity: 70% forward edges (by vertex id)
    and uniform labels over a small alphabet, so recursive queries have
    matches without SO-level blow-up.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_edges):
        u = int(rng.integers(n_vertices))
        v = int(rng.integers(n_vertices))
        if u == v:
            v = (v + 1) % n_vertices
        if rng.random() < 0.7 and u > v:
            u, v = v, u
        label = labels[int(rng.integers(len(labels)))]
        rows.append((f"n{u}", f"n{v}", label))
    return [
        Sgt(i // rate, u, v, l) for i, (u, v, l) in enumerate(rows)
    ]
