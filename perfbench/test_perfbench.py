"""Tests of the benchmark's own code: percentiles, span arithmetic, digests
and the correctness gate. Run with ``python3 -m pytest perfbench -q``."""
from __future__ import annotations

import dataclasses
import gc
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import common  # noqa: E402
import delta  # noqa: E402
from common import Tracer, result_digest, tail_percentile  # noqa: E402
from workloads import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def test_tail_percentile_needs_ten_samples_beyond():
    xs = list(range(1, 1001))  # 1000 samples: p99 is the 990th, 10 beyond
    assert tail_percentile(reversed(xs), 0.99) == 990
    with pytest.raises(ValueError):
        tail_percentile(xs[:999], 0.99)  # only 9 beyond
    assert tail_percentile(range(20), 0.5) == 9
    with pytest.raises(ValueError):
        tail_percentile(range(19), 0.5)
    with pytest.raises(ValueError):
        tail_percentile([], 0.99)


class _Fake:
    def outer(self):
        self.inner()
        self.inner()
        return "done"

    def inner(self):
        return None


def test_span_self_time_excludes_children(monkeypatch):
    ticks = iter([0, 10, 30, 40, 45, 100])  # outer, inner, inner, outer
    monkeypatch.setattr(common.time, "perf_counter_ns", lambda: next(ticks))
    obj, tr = _Fake(), Tracer()
    seen = []
    tr.wrap(obj, "outer", "outer", after=seen.append)
    tr.wrap(obj, "inner", "inner", tag=lambda: "t")
    assert obj.outer() == "done"
    assert seen == ["done"]
    assert [s[2] for s in tr.spans] == [None, 0, 0]  # parent links
    assert tr.self_ns() == [75, 20, 5]
    assert tr.total_s("outer") == 100e-9
    assert tr.total_s("outer", self_time=True) == 75e-9
    assert tr.calls("inner", "t") == 2
    assert tr.child_total_s("inner", "outer") == 25e-9
    tr.close()
    assert "outer" not in vars(obj) and "inner" not in vars(obj)


def test_class_hook_is_restored():
    calls = []
    tr = Tracer()
    tr.hook(_Fake, "inner", lambda *a: calls.append(a))
    _Fake().outer()
    tr.close()
    _Fake().outer()
    assert len(calls) == 2 and _Fake.inner is _Fake.__dict__["inner"]


def test_pass_count_is_odd_and_set_by_seconds_only():
    wl = dataclasses.replace(WORKLOADS["so-q4-append"], pass_s=4.0)
    secs = (0.5, 4, 5.9, 8, 10, 12.5, 20)
    assert [delta.n_passes(wl, sec) for sec in secs] == [1, 1, 1, 3, 3, 3, 5]


def test_rescale_uses_the_probes_around_each_chunk():
    nominal = common.PROBE_NOMINAL_NS
    # Two chunks: probes at full speed around the first, twice as slow
    # after it, so the second chunk's mean probe is 1.5x nominal.
    probes = [(0, nominal), (2, nominal), (3, 2 * nominal)]
    assert common.rescale([10, 20, 30], probes) == [10, 20, 20]
    assert common.rescale([], [(0, nominal)]) == []


def test_probe_is_timed_with_the_collector_on_again():
    assert common.probe_ns() > 0
    assert gc.isenabled()


_DIGEST_SCRIPT = """
import dataclasses, sys
sys.path[:0] = [{here!r}, {src!r}]
import delta
from common import result_digest
from workloads import WORKLOADS
wl = dataclasses.replace(WORKLOADS["so-q4-append"], n_edges=600)
s = delta.set_up(wl, 0)
events = []
engine = delta.new_engine(wl, s.query, on_result=lambda *e: events.append(e))
for t in s.stream:
    engine.process(t)
print(len(events), result_digest(events))
"""


def test_digest_stable_across_hash_seeds():
    code = _DIGEST_SCRIPT.format(here=HERE, src=os.path.join(ROOT, "src"))
    out = {
        hs: subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONHASHSEED=hs),
        ).stdout.split()
        for hs in ("1", "2")
    }
    assert int(out["1"][0]) > 0
    assert out["1"] == out["2"]


def _finished_pass(seed: int, n_edges: int = 400):
    wl = dataclasses.replace(WORKLOADS["so-q4-append"], n_edges=n_edges)
    s = delta.set_up(wl, seed)
    events: list = []
    engine = delta.new_engine(wl, s.query, on_result=lambda *e: events.append(e))
    for t in s.stream:
        engine.process(t)
    return wl, s.stream, s.query, engine, events


def test_gate_fails_when_one_pair_is_dropped():
    wl, stream, query, engine, events = _finished_pass(seed=1)
    assert delta.gate(wl, engine, query, stream, events, check_digest=False) == []
    full = engine.derivable_pairs()
    dropped = sorted(full)[0]
    engine.derivable_pairs = lambda: full - {dropped}
    problems = delta.gate(wl, engine, query, stream, events, check_digest=False)
    assert len(problems) == 1 and "1 missing" in problems[0]


def test_gate_checks_the_digest():
    wl, stream, query, engine, events = _finished_pass(seed=0)
    wl = dataclasses.replace(wl, digest=result_digest(events))
    assert delta.gate(wl, engine, query, stream, events, check_digest=True) == []
    problems = delta.gate(wl, engine, query, stream, events[1:], check_digest=True)
    assert problems == ["result digest differs from the one recorded for the default seed"]
    assert delta.gate(wl, engine, query, stream, events[1:], check_digest=False) == []


def test_benchmark_json_matches_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == [n for n, _ in END_TO_END]
    assert [m["unit"] for m in bench["end_to_end"]] == [u for _, u in END_TO_END]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == PER_LAYER
