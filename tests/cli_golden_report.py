"""The density-derived reals of the golden corpus against the orbit-of-1 density.

For every golden run of ``density``, ``measure`` and ``freq`` that exits 0,
JSON or text, it prints each real number the run records next to the same
quantity from ``tests/reference.py::orbit_of_one_density`` (float) and from
``orbit_of_one_density_exact`` (exact rationals on the same float betas),
with the relative distance of the recorded and the orbit-of-1 value from
the exact one.  ``measure`` values and ``freq`` frequencies have all three.
A ``density`` run's ``c``, ``d`` and ``C`` are Góra's own quantities with no
orbit-of-1 counterpart, so only the recorded value is listed; the density
they define is compared at every sample of its CSV, rebuilt and checked
against the recorded hash first, in two summary rows.  It changes nothing.

    PYTHONPATH=src python tests/cli_golden_report.py
"""

import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import re
import tempfile
from bisect import bisect_right
from fractions import Fraction

import cli_golden
from altbase import cli
from altbase.measure import EPS_GEO
from reference import orbit_of_one_density, orbit_of_one_density_exact

_NUMBER = re.compile(r"[-+]?[0-9][0-9.e+-]*")


def _float_mass(steps, a, b):
    """Integral over [a, b) of the sum of v * chi_[0, t) over the (t, v) steps."""
    return math.fsum(v * max(0.0, min(t, b) - a) for t, v in steps)


def _exact_mass(slot, a, b):
    """Integral over [a, b) of one slot of orbit_of_one_density_exact, as a Fraction."""
    ts, tails, mass = slot
    a, b = Fraction(a), Fraction(b)
    pts = [a] + [t for t in ts if a < t < b] + [b]
    return sum(tails[bisect_right(ts, lo)] * (hi - lo) for lo, hi in zip(pts, pts[1:])) / mass


def _frequency(base, digit, mass_of):
    """measure.frequency with each slot's interval mass from ``mass_of(slot, a, b)``."""
    total = 0
    for i, (beta, m) in enumerate(zip(base.betas, base.alphabets)):
        if digit <= m:
            hi = 1.0 if digit == m else (digit + 1) / beta
            total += mass_of(i, digit / beta, hi)
    return total / base.p


def _recorded(record):
    """The payload of a JSON run, or the same keys read back from a text run."""
    out = record["stdout"]
    if "--json" in record["argv"]:
        return json.loads(out)["payload"]
    lines = out.splitlines()
    if record["argv"][0] == "density":
        return {
            "C": float(re.search(r"C=(\S+),", lines[0]).group(1)),
            "c": [float(v) for v in lines[1].split()[1:]],
            "d": [float(v) for v in lines[2].split()[1:]],
        }
    key = "value" if record["argv"][0] == "measure" else "frequency"
    return {key: float(_NUMBER.findall(lines[0])[-1])}


def _csv_rows(argv, workdir, digest):
    """The (x, density) rows of a density run's CSV, rebuilt and checked against its hash."""
    here = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)
        data = pathlib.Path("d.csv").read_bytes()
        os.remove("d.csv")
    finally:
        os.chdir(here)
    if hashlib.sha256(data).hexdigest() != digest:
        raise SystemExit(f"the rebuilt CSV of {argv} does not match its recorded hash")
    return [tuple(map(float, row.split(","))) for row in data.decode().splitlines()[1:]]


def relative_gap(value, exact):
    """|value - exact| relative to exact, or absolute where exact is 0."""
    return abs(value - exact) / abs(exact) if exact else abs(value)


def _csv_summaries(where, name, rows, steps, exact_slot):
    """The worst relative gaps of a density CSV from the exact density, in two rows.

    The CSV samples both sides of every threshold at EPS_SNAP, and Góra's
    thresholds sit up to EPS_GEO from the exact step points, so samples
    within EPS_GEO of a step point are summarised apart from the rest.
    """
    ts, tails, mass = exact_slot
    cuts = sorted({float(t) for t in ts} | {t for t, _ in steps})
    worst = {True: [0.0, 0.0, 0], False: [0.0, 0.0, 0]}
    for x, h in rows:
        exact = float(Fraction(tails[bisect_right(ts, Fraction(x))], mass))
        k = bisect_right(cuts, x)
        near = any(abs(x - cuts[j]) < EPS_GEO for j in (k - 1, k) if 0 <= j < len(cuts))
        acc = worst[near]
        acc[0] = max(acc[0], relative_gap(h, exact))
        acc[1] = max(acc[1], relative_gap(math.fsum(v for t, v in steps if x < t), exact))
        acc[2] += 1
    for near, text in ((False, "clear of"), (True, "within EPS_GEO of")):
        rec, flo, n = worst[near]
        yield where + (f"{name}: worst of {n} samples {text} a step", rec, flo, 0.0)


def report_rows(workdir):
    """(line, argv text, quantity, recorded, orbit of 1, exact) for every reported real."""
    golden = [json.loads(line) for line in cli_golden.CORPUS.read_text("utf-8").splitlines()]
    parser = cli.build_parser()
    for k, record in enumerate(golden):
        argv = record["argv"]
        if argv[0] not in ("density", "measure", "freq") or record["exit"] != 0:
            continue
        args = parser.parse_args(argv)
        base = cli._parse_base(args)
        floats = orbit_of_one_density(base)
        exacts = orbit_of_one_density_exact(base)
        got = _recorded(record)
        where = (k, " ".join(argv[:1] + argv[3:]), args.base)
        if argv[0] == "measure":
            a, b = cli._parse_interval(args.interval)
            yield where + ("value", got["value"], _float_mass(floats[args.slot], a, b),
                           float(_exact_mass(exacts[args.slot], a, b)))
        elif argv[0] == "freq":
            flo = _frequency(base, args.digit, lambda i, a, b: _float_mass(floats[i], a, b))
            exa = _frequency(base, args.digit, lambda i, a, b: _exact_mass(exacts[i], a, b))
            yield where + ("frequency", got["frequency"], flo, float(exa))
        else:
            for name in ("c", "d"):
                for j, v in enumerate(got[name]):
                    yield where + (f"{name}[{j}]", v, None, None)
            yield where + ("C", got["C"], None, None)
            if args.csv:
                rows = _csv_rows(argv, workdir, record["files"][args.csv])
                yield from _csv_summaries(where, args.csv, rows, floats[args.slot], exacts[args.slot])


def main():
    print("| line | run | base | quantity | recorded | orbit of 1 | exact "
          "| rel. recorded | rel. orbit of 1 |")
    print("|---|---|---|---|---|---|---|---|---|")
    with tempfile.TemporaryDirectory() as tmp:
        for k, run, base, name, rec, flo, exact in report_rows(tmp):
            if flo is None:
                cells = (repr(rec), "-", "-", "-", "-")
            elif ": worst" in name:
                cells = ("-", "-", "-", f"{rec:.2e}", f"{flo:.2e}")
            else:
                cells = (repr(rec), repr(flo), repr(exact), f"{relative_gap(rec, exact):.2e}",
                         f"{relative_gap(flo, exact):.2e}")
            print(f"| {k} | `{run}` | `{base}` | {name} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
