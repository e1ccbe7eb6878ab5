"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/record.py --seeds 1-10 --out bench/BENCH_1.json
    python3 bench/record.py --seeds 1-5 --workloads cli_session

Runs ``bench/run.py`` once per workload and seed, one run at a time, with
``run_seconds`` from BENCHMARK.json.  For every end-to-end metric it
reports the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread (q3 - q1) / median next to the steadiness target: a third of the
metric's bound, or the whole bound for ``setup_s``.  ``--trace-seed`` adds
one traced run per workload for the per-layer metrics.  Each workload's
entry keeps the environment its worker recorded.  Nothing is written
unless ``--out`` is given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    lines = proc.stdout.splitlines()
    env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
    return json.loads(lines[-1]), env


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"), help="e.g. 1-10")
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()

    report = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result, env = run(workload, seed, 0)
            runs.append(result)
            print(f"{workload} seed {seed}: attempted {result['attempted']} failed {result['failed']}", flush=True)
        summary = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[name] = {
                "unit": metric["unit"],
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": spread,
                "bound": metric["bound"],
                "values": values,
            }
            # setup_s, process start-up, gets its whole bound; the rest a third
            target = metric["bound"] if name == "setup_s" else metric["bound"] / 3
            ok = spread < target
            steady = steady and ok
            print(f"  {name:<16} median {med:12.6g} {metric['unit']:<5} spread {spread:7.4f}  target < {target:.4f} {'ok' if ok else 'WIDE'}")
        entry = {
            "end_to_end": summary,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "env": env,
        }
        if args.trace_seed is not None:
            traced, _ = run(workload, args.trace_seed, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
