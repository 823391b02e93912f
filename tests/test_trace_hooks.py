"""The benchmark's traced run counts tree operations by hooking tree methods
(``SpanningTree.add``/``relink``, ``RSPQTree.add_child``/``detach``) and
reading engine counters. A rename of any of them would break only
``perfbench/run.py --trace 1``, which the test suite does not run, so this
runs the traced pass itself on the head of two benchmark streams."""
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import delta  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HEAD = 700  # tuples traced: past the first window (ts 69 > |W| = 60), so nodes expire


def traced_head(name):
    wl = WORKLOADS[name]
    s = delta.set_up(wl, wl.default_seed)
    engine, _, counts, _, times, _ = delta._traced_pass(wl, s.stream[:HEAD], s.query)
    assert len(times) == HEAD
    return engine, counts


def test_rapq_trace_counts_nodes_and_relinks():
    engine, counts = traced_head("so-q4-append")
    # The work RAPQ does on this head is pinned: a change that speeds up a
    # step must not change what it does. RAPQ's counts do not depend on the
    # hash seed; RSPQ's do (the order of the trees a tuple visits), so they
    # are not pinned below.
    assert (engine.insert_calls, counts["relinks"], counts["nodes_created"],
            engine.expiry_scans) == (109_840, 60_430, 39_989, 4_600), counts


def test_rspq_trace_counts_nodes_detaches_and_extends():
    engine, counts = traced_head("so-q7-rspq")
    assert counts["nodes_created"] > 0 and counts["detaches"] > 0, counts
    assert engine.extend_calls > 0
