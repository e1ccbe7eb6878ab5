"""Tests of the benchmark itself.

The file name keeps it out of the default ``pytest`` collection (these
tests start many interpreters and take about a minute).  Run with:

    PYTHONPATH=src python -m pytest -q bench/check_bench.py
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import altbase  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from cli_session import EXIT_PARSE, CliSession  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for name, unit in wanted.items():
        assert any(ln.split()[:1] == [name] and ln.endswith(" " + unit) for ln in lines), name
    assert any(ln.strip().startswith("fail_frac 0 (0 of ") for ln in lines)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "orbits", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(ln.startswith("{") for ln in proc.stdout.splitlines())


def test_corrupted_expansion_counts_as_failed(monkeypatch):
    real = altbase.greedy_expand

    def corrupted(b, x, n):
        digits = list(real(b, x, n).digits)
        digits[0] = (digits[0] + 1) % (b.alphabets[0] + 1)
        return altbase.DigitWord(tuple(digits), 0)

    monkeypatch.setattr(altbase, "greedy_expand", corrupted)
    w = workloads.Orbits()
    w.setup()
    tally = worker.Tally()
    worker.run_group(w._expansion(w.bases[0], 0.3, lazy=False), tally)
    assert len(tally.latencies) == 2  # greedy_expand, then evaluate
    assert tally.failed == 1


def test_raising_op_counts_as_failed(monkeypatch):
    def broken(*args):
        raise altbase.SingularSystem("injected")

    monkeypatch.setattr(altbase, "slot_densities", broken)
    w = workloads.DensityBuild()
    w.setup()
    tally = worker.Tally()
    for group in itertools.islice(w.groups(1), 2):
        worker.run_group(group, tally)
    assert len(tally.latencies) == 2 and tally.failed == 2


def test_unexpected_cli_exit_code_counts_as_failed(tmp_path):
    session = CliSession(ROOT, tmp_path, worker.child_env())
    tally = worker.Tally()
    worker.run_group(session._error(EXIT_PARSE, ["entropy", "--base", "2"]), tally)
    assert len(tally.latencies) == 1 and tally.failed == 1


def _plain(arg):
    if isinstance(arg, (list, tuple)):
        return [_plain(a) for a in arg]
    if isinstance(arg, altbase.IntervalMeasureQuery):  # has no value repr
        return (arg.slot, arg.a, arg.b)
    return repr(arg)


def _first_inputs(workload, seed, groups=8):
    out = []
    for group in itertools.islice(workload.groups(seed), groups):
        _, _, args = next(group)
        out.append(_plain(args))
        group.close()
    return out


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_determines_inputs(name, tmp_path):
    if name == "cli_session":
        w = CliSession(ROOT, tmp_path, {})
        w.setup()
    else:
        w = workloads.LIBRARY_WORKLOADS[name]()
        w.setup()
        w.warm_up()
    assert _first_inputs(w, 1) == _first_inputs(w, 1)
    assert _first_inputs(w, 1) != _first_inputs(w, 2)


def test_builds_per_query_is_the_query_weighted_period():
    w = workloads.StatsQueries()
    w.setup()
    w.warm_up()
    rounds = len(w.bases)  # one round per base
    tracer = Tracer()
    tracer.install([sys.modules[m] for m in worker.LIBRARY_MODULES])
    tally = worker.Tally()
    try:
        for group in itertools.islice(w.groups(1), rounds * (2 + w.POINT_GROUPS)):
            worker.run_group(group, tally, tracer)
    finally:
        tracer.uninstall()
    assert tally.failed == 0
    queries = {b.p: max(b.alphabets) + 2 for b in w.bases}  # frequency per digit, one mu_product
    builds = len(tracer.durations("measure.gora_density"))
    asked = len(tracer.durations("measure.frequency")) + len(tracer.durations("measure.mu_product"))
    assert asked == sum(queries.values())
    assert builds / asked == pytest.approx(sum(p * q for p, q in queries.items()) / asked)


def test_paired_trace_times_the_same_ops_twice():
    w = workloads.StatsQueries()
    w.setup()
    w.warm_up()
    tracer = Tracer()
    modules = [sys.modules[m] for m in worker.LIBRARY_MODULES]
    original = altbase.frequency
    untraced, traced = worker.run_paired(w, 1, 0.05, tracer, modules)
    assert untraced.groups == traced.groups >= 1
    assert len(untraced.latencies) == len(traced.latencies)
    assert untraced.failed == traced.failed == 0
    roots = [name for name, _, _, parent in tracer.spans if parent < 0]
    assert len(roots) == len(traced.latencies)  # the untraced runs leave no spans
    assert altbase.frequency is original and sys.modules["altbase.measure"].frequency is original


def test_self_time_excludes_children():
    t = Tracer()
    t.spans[:] = [["a.f", 0.0, 10.0, -1], ["b.g", 1.0, 4.0, 0], ["a.h", 5.0, 6.0, 0], ["b.k", 2.0, 3.0, 1]]
    assert t.self_times() == [6.0, 2.0, 1.0, 1.0]
    assert t.layer_self() == {"a": 7.0, "b": 3.0}
