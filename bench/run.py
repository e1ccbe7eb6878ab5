"""altbase benchmark: one closed-loop caller, four workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload orbits --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

Each run starts fresh worker interpreters (``bench/worker.py``).  Several
set-up-only workers time ``setup_s`` from spawn to the first op; one more
worker sets up the same way and then runs op groups for ``--seconds``
seconds of op time, checking every result.  With ``--trace 0`` the last
stdout line holds the end-to-end metrics; with ``--trace 1`` the worker runs
the same groups untraced and then traced, and the line holds the per-layer
metrics.  Metric names and units come from ``BENCHMARK.json``.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("orbits", "density_build", "stats_queries", "cli_session")
SETUP_PROBES = 5  # set-up-only workers per run, besides the measuring one
TIME_LIMIT_S = 170.0  # per workload
# One caller, one thread: numpy's BLAS would otherwise start a thread per core.
THREAD_SETTINGS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def load_spec() -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "altbase" / "__init__.py").is_file():
        raise BenchError(f"no altbase sources under {ROOT / 'src'}; run from a full checkout")
    with open(spec_path, encoding="utf-8") as fh:
        return json.load(fh)


def spawn(args: list[str], deadline: float) -> tuple[float, list[dict]]:
    """Run one worker; return its spawn time and its JSON stdout lines."""
    env = dict(os.environ, **THREAD_SETTINGS)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker exceeded the run's time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = [json.loads(ln) for ln in out.splitlines() if ln.startswith("{")]
    return t0, lines


def percentile(sorted_values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict, deadline: float) -> dict:
    base_args = ["--workload", name, "--seed", str(seed)]
    setups = []  # (seconds, scale to the reference speed)
    for _ in range(0 if trace else SETUP_PROBES):
        t0, lines = spawn([*base_args, "--mode", "setup"], deadline)
        setups.append((lines[0]["ready"] - t0, lines[0]["scale"]))
    t0, lines = spawn([*base_args, "--mode", "run", "--seconds", str(seconds), "--trace", str(int(trace))], deadline)
    setups.append((lines[0]["ready"] - t0, lines[0]["scale"]))
    raw = lines[-1]
    attempted, failed = len(raw["latencies"]), raw["failed"]
    if not attempted:
        raise BenchError("no op completed")

    if trace:
        values = raw["per_layer"]
        wanted = spec["per_layer"]
    else:
        lats = sorted(raw["scaled"])
        p90, above = percentile(lats, 0.9)
        values = {
            "setup_s": statistics.median(t * scale for t, scale in setups),
            "ops_per_s": attempted / math.fsum(lats),
            "latency_p50_ms": statistics.median(lats) * 1e3,
            "latency_p90_ms": p90 * 1e3,
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
        unscaled = sorted(raw["latencies"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload {name}  seed {seed}  trace {int(trace)}")
    print(f"env {json.dumps(raw['env'])}")
    for key, metric in metrics.items():
        print(f"  {key:<44} {metric['value']:>16.6g} {metric['unit']}")
    if not trace:
        print(f"  latency_p90_ms: {above} of {attempted} samples above it")
        print(f"  setup_s: median of {len(setups)} set-ups")
        print(
            f"  unscaled: setup_s {statistics.median(t for t, _ in setups):.6g}"
            f"  ops_per_s {attempted / math.fsum(unscaled):.6g}"
            f"  latency_p50_ms {statistics.median(unscaled) * 1e3:.6g}"
            f"  latency_p90_ms {percentile(unscaled, 0.9)[0] * 1e3:.6g}"
            f"  gauge median {raw['gauge_median'] * 1e6:.4g} us"
        )
    print(f"  fail_frac {failed / attempted:.6g} ({failed} of {attempted} ops)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None, help="op time per run (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        spec = load_spec()
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        if not (seconds > 0):
            raise BenchError("--seconds must be positive")
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {
            n: run_workload(n, args.seed, seconds, bool(args.trace), spec, time.perf_counter() + TIME_LIMIT_S)
            for n in names
        }
    except (BenchError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
