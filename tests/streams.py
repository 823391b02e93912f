"""Random small streams, a brute-force timestamp oracle, and the
product-graph index and result-event checks shared by the suites."""
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


def check_product_graph(engine):
    """Assert the engine's product-graph index matches its window graph.

    ``succ`` equals the one rebuilt from the window edges, each product edge
    with the latest ts of its parallel edges; ``pred`` is exactly its
    inverse; and neither map keeps an empty entry.
    """
    succ: dict = {}
    for (u, v, lbl), ts in engine.graph.edges.items():
        for (s, a), t in engine.dfa.trans.items():
            if a == lbl:
                out = succ.setdefault((u, s), {})
                out[(v, t)] = max(ts, out.get((v, t), -math.inf))
    assert engine.succ == succ, "succ differs from the window's product graph"
    pred: dict = {}
    for ukey, out in engine.succ.items():
        for vkey, ts in out.items():
            pred.setdefault(vkey, {})[ukey] = ts
    assert engine.pred == pred, "pred is not the inverse of succ"
    for name, index in (("succ", engine.succ), ("pred", engine.pred)):
        assert all(index.values()), f"{name} keeps an empty entry"


def process_checking_events(engine, sgt, events):
    """``engine.process(sgt)``, then assert that the result events it emitted
    agree with the index.

    ``events`` is the list the engine's ``on_result`` appends to. After the
    tuple every derivable pair is a result, no pair retracted with ``-`` is
    still derivable, and only a deletion retracts. A deletion that crosses
    no slide boundary retracts exactly the pairs it made underivable.
    """
    before, seen = engine.derivable_pairs(), len(events)
    crosses = (sgt.ts // engine.slide) * engine.slide > engine._last_boundary
    engine.process(sgt)
    after = engine.derivable_pairs()
    assert after <= set(engine.results), f"{sgt}: derivable pairs not reported"
    minus = {(x, y) for _, x, y, op in events[seen:] if op == "-"}
    assert not minus & after, f"{sgt}: retracted pairs still derivable: {sorted(minus & after)}"
    if sgt.op == "+":
        assert not minus, f"{sgt}: an insertion retracted {sorted(minus)}"
    elif not crosses:
        assert minus == before - after, (
            f"{sgt}: retracted {sorted(minus)}, lost {sorted(before - after)}"
        )
