"""Record the benchmark's baseline: per-metric median and quartiles over runs.

    python3 perfbench/baseline.py --workload so-q4-append --runs 10 [--out FILE]
    python3 perfbench/baseline.py --workload so-q4-append --runs 10 --repeat [--out FILE]

Runs ``run.py`` once per seed ``0 .. runs-1`` for each named workload (by
default those ``BENCHMARK.json`` lists), one process at a time, plus one
traced run on the workload's default seed. With ``--repeat`` it instead runs
the default seed ``runs`` times, which separates the host's noise from the
seeds' differences in work. Prints each metric's median, quartiles and spread
(interquartile distance over the median) and, with ``--out``, writes them as
JSON, with the traced phase shares (other entries already in that file are
kept).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

from workloads import WORKLOADS  # noqa: E402


def run(name: str, seed: int | None, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
           "--seconds", str(seconds), "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, cwd=ROOT)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not res["correct"] or res["failed"]:
        raise SystemExit(f"{name} seed {seed}: run failed\n{proc.stdout}")
    return res["metrics"]


def listed_workloads() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def summarize(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0,
                "values": values}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def phase_shares(traced: dict) -> dict:
    """Time metrics as shares of the traced wall time (dataflow: of Σ trigger)."""
    wall = traced["trace.wall_s"]["value"]
    shares = {
        name: m["value"] / wall
        for name, m in traced.items()
        if m["unit"] == "s" and m["value"] and not name.startswith(("setup.", "trace.", "batch_eval."))
    }
    if traced["streaming.trigger_ms"]["value"]:
        shares["streaming.add_batch_ms"] = (
            traced["streaming.add_batch_ms"]["value"] / traced["streaming.trigger_ms"]["value"]
        )
    return shares


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=list(WORKLOADS))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--repeat", action="store_true",
                    help="run the default seed --runs times instead of seeds 0 .. runs-1")
    ap.add_argument("--out")
    args = ap.parse_args()
    record = {"workloads": {}}
    if args.out and os.path.exists(args.out):
        with open(args.out) as f:
            record = json.load(f)
    record.update(python=platform.python_version(), machine=platform.machine(),
                  cpus=os.cpu_count())
    for name in args.workload or listed_workloads():
        seeds = [WORKLOADS[name].default_seed] * args.runs if args.repeat else list(range(args.runs))
        runs = [run(name, seed, args.seconds, 0) for seed in seeds]
        metrics = {m: dict(summarize([r[m]["value"] for r in runs]), unit=runs[0][m]["unit"])
                   for m in runs[0]}
        for m, s in metrics.items():
            print(f"{name:20s} {m:16s} median {s['median']:12.6g} {s['unit']:9s} "
                  f"q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} spread {s['spread']:.4f}", flush=True)
        traced = run(name, None, args.seconds, 1)
        shares = phase_shares(traced)
        print(f"{name:20s} phase shares {json.dumps({k: round(v, 3) for k, v in shares.items()})}",
              flush=True)
        entry = record["workloads"].setdefault(name, {})
        entry.update({
            "params": {k: v for k, v in dataclasses.asdict(WORKLOADS[name]).items() if k != "digest"},
            "seconds": args.seconds,
            "repeat_default_seed" if args.repeat else "across_seeds": {"seeds": seeds, "metrics": metrics},
            "traced_default_seed": {k: v["value"] for k, v in traced.items()},
            "phase_shares": shares,
        })
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
