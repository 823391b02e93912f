"""Random small streams shared by the differential suites."""
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
