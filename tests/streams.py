"""Random small streams and a brute-force timestamp oracle shared by the suites."""
import math
import random

from repro.rpq_oracle import Sgt


def random_stream(seed, n=40, n_vertices=6, labels=("a", "b", "c"),
                  max_gap=3, delete_prob=0.0):
    """A random small stream with non-decreasing integer timestamps.

    With ``delete_prob > 0`` a tuple may instead delete a random live edge.
    """
    rng = random.Random(seed)
    verts = [f"v{i}" for i in range(n_vertices)]
    ts = 0
    stream = []
    live = []
    for _ in range(n):
        ts += rng.randint(0, max_gap)
        if live and rng.random() < delete_prob:
            u, v, lbl = rng.choice(live)
            stream.append(Sgt(ts, u, v, lbl, "-"))
            live.remove((u, v, lbl))
        else:
            u, v = rng.choice(verts), rng.choice(verts)
            lbl = rng.choice(labels)
            stream.append(Sgt(ts, u, v, lbl))
            if (u, v, lbl) not in live:
                live.append((u, v, lbl))
    return stream


def best_timestamps(edges, dfa, root):
    """Brute-force max-min path timestamp of every product node from ``root``.

    ``edges`` maps ``(u, v, label)`` to its timestamp; the root's is +∞.
    """
    best = {(root, dfa.start): math.inf}
    changed = True
    while changed:
        changed = False
        for (u, v, label), ts in edges.items():
            for s in range(dfa.n_states):
                if (u, s) not in best:
                    continue
                t = dfa.delta(s, label)
                if t is None:
                    continue
                cand = min(best[(u, s)], ts)
                if best.get((v, t), -math.inf) < cand:
                    best[(v, t)] = cand
                    changed = True
    return best
