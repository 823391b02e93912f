"""RPQ stream benchmark: run one workload, or all of them, and print metrics.

    python3 perfbench/run.py --workload so-q4-append [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all

Run from the repository root. A single-workload run prints its metrics by
name with their units; its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics,
or with ``--trace 1`` the per-layer ones). It exits 1 when a correctness gate
fails or a tuple fails, and 2 when the program under ``src/`` is missing.
``--workload all`` runs every workload in its own process and prints a table.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

from common import metric, print_result  # noqa: E402
from workloads import END_TO_END, HASH_SEED, PER_LAYER, WORKLOADS  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=None,
                    help="stream seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=8.0,
                    help="nominal timed duration: sets a Δ-tree run's fixed pass count "
                         "(the dataflow run is always one pass of its stream)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def run_one(args) -> int:
    wl = WORKLOADS[args.workload]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    seed = wl.default_seed if args.seed is None else args.seed
    print(f"# workload={wl.name} seed={seed} PYTHONHASHSEED={os.environ['PYTHONHASHSEED']} "
          f"seconds={args.seconds:g} trace={args.trace}")
    work = os.path.join(WORK, str(os.getpid()))
    os.makedirs(work)
    try:
        if wl.kind == "delta":
            import delta

            correct, attempted, failed, out = delta.run(wl, seed, args.seconds, bool(args.trace))
        else:
            import stream

            correct, attempted, failed, out = stream.run(wl, seed, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:  # another run still uses it
            pass
    if args.trace:
        metrics = {name: metric(out.pop(name, 0), unit) for name, unit in PER_LAYER}
        if out:
            raise RuntimeError(f"per-layer values without a declared metric: {sorted(out)}")
    else:
        metrics = {name: out[name] for name, _ in END_TO_END}
    print_result(correct, attempted, failed, metrics)
    return 0 if correct and not failed else 1


def run_all(args) -> int:
    """Each workload in its own process; a table of every metric."""
    status, rows = 0, []
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0:
            status = 1
        if not lines or not lines[-1].startswith("{"):
            rows.append((name, "error", float("nan"), f"exit {proc.returncode}"))
            continue
        res = json.loads(lines[-1])
        rows.append((name, "correct", float(res["correct"]), "bool"))
        rows.append((name, "failed_frac", res["failed"] / res["attempted"], "ratio"))
        rows += [(name, m, v["value"], v["unit"]) for m, v in res["metrics"].items()]
    print(f"\n{'workload':20s} {'metric':32s} {'value':>16s} unit")
    for name, m, v, unit in rows:
        print(f"{name:20s} {m:32s} {v:>16.6g} {unit}")
    return status


def main() -> int:
    args = parse_args()
    if args.workload == "all":
        return run_all(args)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program at {os.path.join(ROOT, 'src', 'repro')}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Fix string hashing (set iteration order) before any work starts.
        os.makedirs(WORK, exist_ok=True)
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONDONTWRITEBYTECODE="1",
                   TMPDIR=WORK)
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
