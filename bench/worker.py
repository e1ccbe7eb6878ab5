"""Benchmark worker: set up one workload in a fresh interpreter, then measure it.

Started by ``run.py``; not meant to be run by hand.  The first stdout line
is ``{"ready": t, "scale": s}`` with ``t`` from ``time.perf_counter`` (the
system-wide monotonic clock on Linux), so the parent can time set-up from
the moment it spawned this process; ``s`` converts that time to the
reference speed (see ``INTERPRETER_GAUGE``).  With ``--mode run`` the last
line holds the measurements: every op latency, raw and scaled, the failure
count, the peak RSS and the environment, plus the per-layer metrics when
``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
LIBRARY_MODULES = ("altbase", "altbase.core", "altbase.oracle", "altbase.measure", "altbase.digitset", "altbase.expr")
LAYERS = ("core", "oracle", "measure", "digitset", "expr", "cli")
CLI_COMMANDS = ("expand", "density", "measure", "freq", "entropy", "compare", "orbit", "graph", "error_exit")
ANCHOR_REPEATS = 3
PROBE_REPEATS = 5
MAX_REPORTED_ERRORS = 5
# A run continues past --seconds until it has this many ops per second of
# budget (100 at 25 s), so that at least 10 samples lie above the 90th
# percentile; only cli_session, at about 4 op/s, ever needs it.
MIN_OPS_PER_S = 4
GAUGE_ROUNDS = 12  # 4-7 ms
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def emit(doc: dict) -> None:
    print(json.dumps(doc), flush=True)


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def key(self):
        return self.a * self.b


def work_gauge() -> float:
    """Time of fixed interpreter work: the machine's speed at this moment.

    Objects, method calls, sorting, dicts and tuples, like the library's
    own Python code.  Under this machine's contention the library's ops slow
    down by the power 1.09 of this gauge, against 1.23 of a tight arithmetic
    loop, so it corrects them more closely.
    """
    t0 = time.perf_counter()
    for _ in range(GAUGE_ROUNDS):
        items = [_Item(i * 0.5, (i * 7) % 11) for i in range(300)]
        items.sort(key=_Item.key)
        table = {}
        for it in items:
            table[it.b, round(it.a)] = it.key()
        sum(v for v in table.values())
        tuple(sorted(table))
    return time.perf_counter() - t0


def interpreter_gauge() -> float:
    """Wall time of a bare interpreter start, for workloads whose ops are processes.

    An in-process loop tracks the speed of fresh processes poorly.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, capture_output=True, check=True, timeout=60)
    return time.perf_counter() - t0


# Gauges are read outside the timed region and run no library code, so a
# change to the program cannot move them.  The second entry is the gauge's
# typical reading on the machine that recorded bench/BENCH_0.json; times are
# reported at that machine's speed.  Op groups are scaled by the gauge of
# their workload.  Set-up is mostly interpreter start and the numpy import,
# so on every workload it is scaled by the bare interpreter, read right
# after set-up.
INTERPRETER_GAUGE = (interpreter_gauge, 0.065)
GAUGES = {"cli_session": INTERPRETER_GAUGE}
DEFAULT_GAUGE = (work_gauge, 3.9e-3)
SETUP_GAUGE_READINGS = 3
GAUGE_PERIOD_S = 0.1  # a group starts with a reading when the last is this old
GAUGE_WINDOW_S = 1.0  # readings this close in time give a group's local speed


def scaled(tally: "Tally", reference: float) -> list[float]:
    """Latencies multiplied by reference / (mean gauge reading near their group).

    The machine slows down in bursts.  Readings taken at regular times
    sample those bursts in proportion to their length, so their mean tracks
    the average slow-down that an op spanning them pays; their median would
    leave the bursts out.  Every group starts within GAUGE_PERIOD_S of a
    reading, so its window is never empty.
    """
    t, g = tally.gauge_times, tally.gauges
    lo = hi = 0
    local = []
    for now in tally.group_times:
        while t[lo] < now - GAUGE_WINDOW_S:
            lo += 1
        while hi < len(t) and t[hi] <= now + GAUGE_WINDOW_S:
            hi += 1
        local.append(statistics.fmean(g[lo:hi]))
    return [lat * reference / local[k] for lat, k in zip(tally.latencies, tally.group_of)]


class Tally:
    """Latencies and verdicts of the ops run so far, and the gauge readings between groups."""

    def __init__(self):
        self.latencies: list[float] = []
        self.group_of: list[int] = []  # group index of each latency
        self.group_times: list[float] = []  # start of each group
        self.gauges: list[float] = []
        self.gauge_times: list[float] = []
        self.failed = 0
        self.groups = 0
        self.errors = 0

    @property
    def op_time(self) -> float:
        return math.fsum(self.latencies)


def run_group(group, tally: Tally, tracer=None) -> None:
    """Drive one op group, timing each yielded call and nothing else."""
    lats: list[float] = []
    result = None
    verdicts = None
    try:
        while True:
            name, fn, args = group.send(result)
            if tracer is not None:
                tracer.active = True
                idx = tracer.open(name)
            t0 = time.perf_counter()
            try:
                result = fn(*args)
            finally:
                lats.append(time.perf_counter() - t0)
                if tracer is not None:
                    tracer.close(idx)
                    tracer.active = False
    except StopIteration as stop:
        verdicts = stop.value
    except Exception as exc:  # an op or its check raised: the group's ops failed
        group.close()
        tally.errors += 1
        if tally.errors <= MAX_REPORTED_ERRORS:
            print(f"op failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    if verdicts is None or len(verdicts) != len(lats):
        verdicts = [False] * len(lats)
    tally.latencies.extend(lats)
    tally.group_of.extend([tally.groups] * len(lats))
    tally.failed += verdicts.count(False)
    tally.groups += 1


def run_groups(groups, budget: float, min_ops: int, gauge) -> Tally:
    """Closed loop with one caller: each group starts after the previous one ends.

    Stops at the first group boundary after ``budget`` seconds of op time
    and ``min_ops`` ops, or after a wall-time guard that keeps the whole run
    inside its time limit when checks or the program are slow.
    """
    tally = Tally()
    guard = time.perf_counter() + 2.0 * budget + 20.0
    for group in groups:
        now = time.perf_counter()
        if (tally.op_time >= budget and len(tally.latencies) >= min_ops) or now > guard:
            group.close()
            break
        if not tally.gauge_times or now - tally.gauge_times[-1] >= GAUGE_PERIOD_S:
            tally.gauge_times.append(now)
            tally.gauges.append(gauge())
        tally.group_times.append(time.perf_counter())
        run_group(group, tally)
    return tally


def run_paired(workload, seed: int, budget: float, tracer, modules) -> tuple[Tally, Tally]:
    """Every group twice, back to back: untraced, then traced on the same inputs.

    The two runs of a group lie at most seconds apart, so the machine's drift
    cancels in the ratio of their times, the tracing overhead.  Stops after
    ``budget`` seconds of untraced op time, or at the wall-time guard.
    """
    untraced, traced = Tally(), Tally()
    guard = time.perf_counter() + 4.0 * budget + 20.0
    for plain, spanned in zip(workload.groups(seed), workload.groups(seed)):
        if untraced.op_time >= budget or time.perf_counter() > guard:
            plain.close()
            spanned.close()
            break
        run_group(plain, untraced)
        tracer.install(modules)
        try:
            run_group(spanned, traced, tracer)
        finally:
            tracer.uninstall()
    return untraced, traced


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def median_wall(argv, env, repeats=PROBE_REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def anchor_probes() -> dict:
    """Slot-0 density builds on the roadmap's anchor bases, untraced."""
    import altbase
    import workloads

    out = {}
    for label, expression in (("s13", workloads.S13), ("period5", workloads.P5), ("period8", workloads.P8)):
        map_ = altbase.compose_map(workloads.parse_base(expression), 0)
        times = []
        for _ in range(ANCHOR_REPEATS):
            t0 = time.perf_counter()
            altbase.gora_density(map_)
            times.append(time.perf_counter() - t0)
        out[f"measure.gora_density.{label}_slot0_ms"] = statistics.median(times) * 1e3
    return out


# span name -> f(args, result): the work one call did, in the unit its metric counts
HOOKS = {
    "core.greedy_expand": lambda a, r: len(r.digits),
    "core.lazy_expand": lambda a, r: len(r.digits),
    "oracle.birkhoff_frequency": lambda a, r: a[3],
    "oracle.empirical_histogram": lambda a, r: a[0].p * a[3],  # orbit steps
    "measure.compose_map": lambda a, r: r.branch_count,
    "measure.gora_density": lambda a, r: r.K * r.M,  # endpoint-orbit points
    "digitset.delta_set": lambda a, r: (len(r.digits), math.prod(m + 1 for m in a[0].alphabets)),
}


def per_layer(tracer, untraced: Tally, traced: Tally, workload) -> dict:
    """Per-layer metrics from the traced pass; 0 where a workload never calls the layer."""
    spans = tracer.spans
    total = math.fsum(e - s for _, s, e, parent in spans if parent < 0)
    selfs = tracer.layer_self()
    extra = tracer.extra
    calls = tracer.calls

    def rate(name, unit_counts):
        t = math.fsum(tracer.durations(name))
        return sum(unit_counts) / t if t else 0.0

    def ncalls(name):
        return len(tracer.durations(name))

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = selfs.get(layer, 0.0)
        m[f"{layer}.share"] = selfs.get(layer, 0.0) / total if total else 0.0
    m["core.greedy_step.calls"] = calls["core.greedy_step"]
    m["core.lazy_step.calls"] = calls["core.lazy_step"]
    m["core.greedy_expand.digits_per_s"] = rate("core.greedy_expand", extra["core.greedy_expand"])
    m["core.lazy_expand.digits_per_s"] = rate("core.lazy_expand", extra["core.lazy_expand"])
    m["core.evaluate.p50_us"] = tracer.p50("core.evaluate") * 1e6
    m["core.new_base.p50_us"] = tracer.p50("core.new_base") * 1e6
    m["oracle.birkhoff_frequency.steps_per_s"] = rate("oracle.birkhoff_frequency", extra["oracle.birkhoff_frequency"])
    m["oracle.empirical_histogram.steps_per_s"] = rate("oracle.empirical_histogram", extra["oracle.empirical_histogram"])
    m["oracle.lex_greatest.p50_us"] = tracer.p50("oracle.lex_greatest") * 1e6
    m["oracle.lex_least.p50_us"] = tracer.p50("oracle.lex_least") * 1e6
    m["measure.compose_map.p50_us"] = tracer.p50("measure.compose_map") * 1e6
    branches = extra["measure.compose_map"]
    m["measure.compose_map.branches_mean"] = statistics.fmean(branches) if branches else 0.0
    m["measure.gora_density.calls"] = ncalls("measure.gora_density")
    m["measure.gora_density.p50_ms"] = tracer.p50("measure.gora_density") * 1e3
    m["measure.gora_density.orbit_points"] = sum(extra["measure.gora_density"])
    for name in ("slot_densities", "frequency", "mu_product"):
        m[f"measure.{name}.p50_ms"] = tracer.p50(f"measure.{name}") * 1e3
    for name in ("density_eval", "measure_interval", "preimage"):
        m[f"measure.{name}.p50_us"] = tracer.p50(f"measure.{name}") * 1e6
    queries = ncalls("measure.frequency") + ncalls("measure.mu_product")
    m["measure.builds_per_query"] = m["measure.gora_density.calls"] / queries if queries else 0.0
    delta = extra["digitset.delta_set"]
    m["digitset.delta_set.p50_ms"] = tracer.p50("digitset.delta_set") * 1e3
    m["digitset.delta_set.digits_mean"] = statistics.fmean(d for d, _ in delta) if delta else 0.0
    m["digitset.compare_transforms.p50_ms"] = tracer.p50("digitset.compare_transforms") * 1e3
    m["digitset.blocks_sum"] = sum(b for _, b in delta)
    m["digitset.compare_transforms.greedy_steps"] = calls[("digitset.compare_transforms", "core.greedy_step")]
    m["expr.parse_base_list.p50_us"] = tracer.p50("expr.parse_base_list") * 1e6
    m["expr.parse_expression.p50_us"] = tracer.p50("expr.parse_expression") * 1e6
    for command in CLI_COMMANDS:
        m[f"cli.{command}.p50_ms"] = tracer.p50(f"cli.{command}") * 1e3
    if workload.name == "cli_session":
        env = child_env()
        bare = median_wall([sys.executable, "-c", "pass"], env)
        m["cli.interpreter_ms"] = bare * 1e3
        m["cli.import_ms"] = (median_wall([sys.executable, "-c", "import altbase.cli"], env) - bare) * 1e3
        m["cli.output_bytes"] = statistics.fmean(workload.stdout_bytes) if workload.stdout_bytes else 0.0
    else:
        m["cli.interpreter_ms"] = m["cli.import_ms"] = m["cli.output_bytes"] = 0.0
    m.update(anchor_probes())
    m["trace.overhead_frac"] = traced.op_time / untraced.op_time - 1.0
    return m


def environment() -> dict:
    """The machine and the library stack a run measured."""
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in THREAD_VARIABLES},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    tracer = None
    if args.workload == "cli_session":
        from cli_session import CliSession

        workload = CliSession(ROOT, OUT / "cli", child_env())
        workload.setup()
    else:
        import workloads

        workload = workloads.LIBRARY_WORKLOADS[args.workload]()
        if args.trace:
            # parsing happens only here, so the expr spans come from set-up
            from tracing import Tracer

            tracer = Tracer(HOOKS)
            modules = [sys.modules[name] for name in LIBRARY_MODULES]
            tracer.install(modules)
            tracer.active = True
        workload.setup()
        if tracer is not None:
            tracer.active = False
            tracer.uninstall()
    workload.warm_up()
    ready = time.perf_counter()
    setup_gauge, setup_reference = INTERPRETER_GAUGE
    setup_reading = statistics.median(setup_gauge() for _ in range(SETUP_GAUGE_READINGS))
    emit({"ready": ready, "scale": setup_reference / setup_reading})
    if args.mode == "setup":
        return 0

    if not args.trace:
        gauge, reference = GAUGES.get(args.workload, DEFAULT_GAUGE)
        min_ops = math.ceil(MIN_OPS_PER_S * args.seconds)
        tally = run_groups(workload.groups(args.seed), budget=args.seconds, min_ops=min_ops, gauge=gauge)
        result = {
            "latencies": tally.latencies,
            "scaled": scaled(tally, reference),
            "gauge_median": statistics.median(tally.gauges),
            "failed": tally.failed,
        }
    else:
        from tracing import Tracer

        tracer = tracer or Tracer(HOOKS)
        # cli spans are timed around each command's process; nothing to wrap
        modules = [] if args.workload == "cli_session" else [sys.modules[name] for name in LIBRARY_MODULES]
        workload.stdout_bytes = []
        untraced, traced = run_paired(workload, args.seed, args.seconds / 2, tracer, modules)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        result = {
            "latencies": untraced.latencies + traced.latencies,
            "failed": untraced.failed + traced.failed,
            "per_layer": per_layer(tracer, untraced, traced, workload),
        }
    if args.workload == "cli_session":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # largest command
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["peak_rss_mb"] = rss_kb / 1024.0
    result["env"] = environment()
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
