"""Command-line front end.

Bases and points are given as arithmetic expressions (see altbase.expr),
so irrational inputs like ``(1+sqrt(13))/2`` keep full double precision.
Every command prints a human-readable summary by default and a
deterministic JSON document with ``--json``; plot data goes to CSV files.
A command returns its base, payload and lines; ``main`` renders them.
``run``, the process entry point, runs ``main`` with the cyclic collector
off and ends the process as soon as stdout and stderr are flushed.

Exit codes: 0 success, 1 standard output closed early (as by ``| head``)
or an unexpected error (after its traceback), 2 expression parse error,
3 domain error, 4 numeric failure, 5 input over the size bound
(core.ENUMERATION_BOUND).
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from itertools import chain, islice
from typing import NoReturn

# measure, digitset and oracle are imported only by the commands that use them
import altbase.core as core
from .core import EPS_SNAP, AlternateBase, StatePoint, check_size
from .errors import AltBaseError, DomainError, ParseError
from .expr import _parse_list, parse_base_list, parse_expression

SCHEMA_VERSION = "1"
SAMPLES_PER_UNIT = 2048
# JSON pieces written at a time: about 4,000 trajectory entries, 0.25 MB
_JSON_BATCH = 4096
# what a command returns: the base, the JSON payload and the human-readable lines
_Output = tuple[AlternateBase, dict, Iterable[str]]


# the escapes of a JSON string: quote, backslash and the controls U+0000-U+001F; every
# other ASCII character maps to itself, which keeps str.translate on its fast path
_JSON_ESCAPES = str.maketrans(
    {chr(c): chr(c) for c in range(0x20, 0x80)}
    | {'"': '\\"', "\\": "\\\\"}
    | {chr(c): f"\\u{c:04x}" for c in range(0x20)}
)


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _to_json(value) -> Iterator[str]:
    """Minimal deterministic JSON emitter, in pieces; reals carry 17 significant digits.

    A dict yields a piece per key and an iterator a piece per element, so
    an iterator in the document (the orbit trajectory) runs while it is
    written; any other value is one piece.
    """
    if isinstance(value, dict):
        sep = "{"
        for k, v in value.items():
            yield sep + _json_text(str(k)) + ":"
            yield from _to_json(v)
            sep = ","
        yield "}" if sep == "," else "{}"
    elif isinstance(value, Iterator):
        sep = "["
        for v in value:
            yield sep + _json_text(v)
            sep = ","
        yield "]" if sep == "," else "[]"
    else:
        yield _json_text(value)


def _json_text(value) -> str:
    """The JSON text of one value, whole."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"cannot serialize {value!r}")
        return _fmt(value)
    if isinstance(value, str):
        return '"' + value.translate(_JSON_ESCAPES) + '"'
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_json_text(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{_json_text(str(k))}:{_json_text(v)}" for k, v in value.items()) + "}"
    raise TypeError(f"cannot serialize {type(value)!r}")


# each CSV's header and row template: "%.17g" % v is _fmt(v) for every float, "%d" % k is str(k)
_CSV_DENSITY = ("x,density", "%.17g,%.17g\n")
_CSV_ORBIT = ("step,slot,x,digit", "%d,%d,%.17g,%d\n")
_CSV_GRAPH = ("x,y,branch_index,slot", "%.17g,%.17g,%d,%d\n")


def _write_csv(path: str, schema: tuple[str, str], rows: Iterable[tuple]) -> Iterator[tuple]:
    """Write the rows to a CSV file by the schema's template, yielding each one once written."""
    header, template = schema
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(template % row)
            yield row


def _parse_base(args) -> AlternateBase:
    return core.new_base(parse_base_list(args.base))


def _digit_string(digits) -> str:
    if all(d <= 9 for d in digits):
        return "".join(str(d) for d in digits)
    return ",".join(str(d) for d in digits)


def _check_at_least(option: str, value: int, least: int) -> None:
    """Reject a count below ``least``."""
    if value < least:
        raise DomainError(f"{option} must be at least {least}, got {value}")


def _sample_grid(lo: float, hi: float, cuts: Iterable[float], per_unit: int) -> list[float]:
    """Uniform samples of [lo, hi) plus both sides of every cut, those inside [lo, hi)."""
    n = max(2, int(round(per_unit * (hi - lo))))
    pts = [lo + (hi - lo) * k / n for k in range(n)]
    pts += [q for c in cuts for q in (c - EPS_SNAP, c + EPS_SNAP)]
    return sorted({q for q in pts if lo <= q < hi})


def cmd_expand(args) -> _Output:
    base = _parse_base(args)
    x = parse_expression(args.x)
    expand = core.greedy_expand if args.mode == "greedy" else core.lazy_expand
    word = expand(base, x, args.digits)
    value = core.evaluate(base, word)
    prod = math.prod(base.beta(k) for k in range(len(word)))
    residual_bound = base.xsup(len(word)) / prod
    payload = {
        "mode": args.mode,
        "x": x,
        "digits": list(word.digits),
        "value": value,
        "residual_bound": residual_bound,
    }
    lines = [
        f"digits: {_digit_string(word.digits)}",
        f"partial value: {_fmt(value)}",
        f"residual bound: {_fmt(residual_bound)}",
    ]
    return base, payload, lines


def cmd_density(args) -> _Output:
    import altbase.measure as measure
    _check_at_least("--samples", args.samples, 1)
    base = _parse_base(args)
    pw = measure.compose_map(base, args.slot)
    spec = measure.gora_density(pw, args.truncation)
    if args.csv:
        check_size(max(2, args.samples) + 2 * len(spec.thresholds), "the CSV", "row ")
        pts = _sample_grid(0.0, 1.0, spec.thresholds, args.samples)
        # the density depends on x only through bisect_left(ts, x): one evaluation per index
        ts = spec.thresholds
        at = {bisect_left(ts, x): x for x in pts}
        y = {k: measure.density_eval(spec, x) for k, x in at.items()}
        for _ in _write_csv(args.csv, _CSV_DENSITY, ((x, y[bisect_left(ts, x)]) for x in pts)):
            pass
    payload = {
        "slot": args.slot,
        "K": spec.K,
        "c": list(spec.c),
        "d": list(spec.d),
        "C": spec.C,
        "slope": spec.B,
        "truncation": spec.M,
    }
    lines = [
        f"slot {args.slot}: K={spec.K}, C={_fmt(spec.C)}, slope={_fmt(spec.B)}",
        "c: " + " ".join(_fmt(c) for c in spec.c),
        "d: " + " ".join(_fmt(d) for d in spec.d),
    ]
    if args.csv:
        lines.append(f"density samples written to {args.csv}")
    return base, payload, lines


def _parse_interval(text: str) -> tuple[float, ...]:
    values = _parse_list(text)
    if len(values) != 2:
        raise ParseError("interval needs two comma-separated expressions", 0)
    return values


def cmd_measure(args) -> _Output:
    import altbase.measure as measure
    base = _parse_base(args)
    a, b = _parse_interval(args.interval)
    spec = measure.gora_density(measure.compose_map(base, args.slot), args.truncation)
    value = measure.measure_interval(spec, a, b)
    line = f"measure of slot {args.slot} interval [{_fmt(a)}, {_fmt(b)}): {_fmt(value)}"
    return base, {"slot": args.slot, "a": a, "b": b, "value": value}, [line]


def cmd_freq(args) -> _Output:
    import altbase.measure as measure
    if args.empirical is not None:
        # compiled before the density solve loads numpy, so it adds nothing to the peak RSS
        import altbase.oracle as oracle
    base = _parse_base(args)
    x0 = None if args.x0 is None else parse_expression(args.x0)
    value = measure.frequency(base, args.digit)
    payload = {"digit": args.digit, "frequency": value}
    lines = [f"digit {args.digit} frequency: {_fmt(value)}"]
    if args.empirical is not None:
        emp = oracle.birkhoff_frequency(base, x0, args.digit, args.empirical, args.seed)
        payload["empirical"] = emp
        payload["iterations"] = args.empirical
        payload["seed"] = args.seed
        lines.append(f"empirical over {args.empirical} steps: {_fmt(emp)}")
    return base, payload, lines


def cmd_entropy(args) -> _Output:
    base = _parse_base(args)
    value = core.entropy(base)
    return base, {"entropy": value}, [f"entropy: {_fmt(value)}"]


def cmd_compare(args) -> _Output:
    import altbase.digitset as digitset
    base = _parse_base(args)
    report = digitset.compare_transforms(base)
    payload = {
        "coincide": not report.intervals,
        "intervals": [list(iv) for iv in report.intervals],
        "witnesses": [
            {"x": w.x, "blocked_image": w.delta_image, "period_image": w.composed_image}
            for w in report.witnesses
        ],
    }
    lines = []
    if not report.intervals:
        lines.append("the blocked and period transformations coincide")
    else:
        lines.append(f"{len(report.intervals)} disagreement interval(s):")
        for iv, w in zip(report.intervals, report.witnesses):
            lines.append(
                f"  [{_fmt(iv[0])}, {_fmt(iv[1])})"
                f"  witness x={_fmt(w.x)}: {_fmt(w.delta_image)} vs {_fmt(w.composed_image)}"
            )
    return base, payload, lines


def cmd_orbit(args) -> _Output:
    _check_at_least("--steps", args.steps, 0)
    base = _parse_base(args)
    x = parse_expression(args.x)
    check_size(args.steps, "the orbit", "step ")
    step = core.greedy_step if args.mode == "greedy" else core.lazy_step
    if args.steps:
        step(base, StatePoint(0, x))  # a start outside the domain raises before the CSV opens

    def rows():
        s = StatePoint(0, x)
        for k in range(args.steps):
            nxt, d = step(base, s)
            yield k, s.slot, s.value, d
            s = nxt

    # one pass: with --csv each row is written to the file as it is rendered
    trajectory = _write_csv(args.csv, _CSV_ORBIT, rows()) if args.csv else rows()
    payload = {
        "mode": args.mode,
        "x": x,
        "steps": args.steps,
        "trajectory": ({"step": k, "slot": i, "x": v, "digit": d} for k, i, v, d in trajectory),
    }
    lines = (f"{k}: slot {i} x={_fmt(v)} digit {d}" for k, i, v, d in trajectory)
    if args.csv:
        lines = chain(lines, [f"trajectory written to {args.csv}"])
    return base, payload, lines


def _graph_rows(base: AlternateBase, kind: str, per_unit: int):
    """(x, y, digit, slot) samples of every branch, extra ones only at its own interior ends."""
    for i, (b, m) in enumerate(zip(base.betas, base.alphabets)):
        if kind == "greedy":
            ends = [k / b for k in range(m + 1)] + [base.xmax[i]]
        else:
            ends = [0.0] + [(base.xsup(i + 1) + k) / b for k in range(m + 1)]
        for k in range(m + 1):
            inner = ends[max(k, 1) : min(k + 2, m + 1)]
            for x in _sample_grid(ends[k], ends[k + 1], inner, per_unit):
                yield x, b * x - k, k, i


def cmd_graph(args) -> _Output:
    _check_at_least("--samples", args.samples, 1)
    base = _parse_base(args)
    kinds = ("greedy", "lazy") if args.mode == "both" else (args.mode,)
    # closed forms, checked before any slot's cuts are listed
    check_size(max(base.alphabets) + 1, "a one-base map", "branch ")
    # a branch of width w gets at most per_unit * w + 2 uniform samples and 2 at its ends
    rows = sum(args.samples * x + 4 * (m + 1) for x, m in zip(base.xmax, base.alphabets))
    check_size(len(kinds) * rows, "the CSV", "row ")
    written = []
    for kind in kinds:
        stem, ext = os.path.splitext(args.csv)
        path = f"{stem}_{kind}{ext or '.csv'}" if args.mode == "both" else args.csv
        for _ in _write_csv(path, _CSV_GRAPH, _graph_rows(base, kind, args.samples)):
            pass
        written.append(path)
    lines = [f"graph samples written to {p}" for p in written]
    return base, {"mode": args.mode, "files": written}, lines


# each command's function, help and options besides --base and --json, in listing order
_COMMANDS = {
    "expand": (cmd_expand, "greedy or lazy digit expansion", [
        ("--x", dict(required=True, help="point to expand")),
        ("--mode", dict(choices=("greedy", "lazy"), default="greedy")),
        ("--digits", dict(type=int, default=16))]),
    "density": (cmd_density, "invariant density data for one slot", [
        ("--slot", dict(type=int, default=0)),
        ("--truncation", dict(type=int, default=None)),
        ("--samples", dict(type=int, default=SAMPLES_PER_UNIT)),
        ("--csv", dict(default=None))]),
    "measure": (cmd_measure, "invariant measure of an interval", [
        ("--slot", dict(type=int, default=0)),
        ("--interval", dict(required=True, help="two expressions: a,b")),
        ("--truncation", dict(type=int, default=None))]),
    "freq": (cmd_freq, "digit frequency, closed form and empirical", [
        ("--digit", dict(type=int, required=True)),
        ("--empirical", dict(type=int, default=None, help="orbit length")),
        ("--x0", dict(default=None)),
        ("--seed", dict(type=int, default=0))]),
    "entropy": (cmd_entropy, "entropy of the dynamics", []),
    "compare": (cmd_compare, "blocked vs period transformation", []),
    "orbit": (cmd_orbit, "trajectory of one point", [
        ("--x", dict(required=True)),
        ("--steps", dict(type=int, default=20)),
        ("--mode", dict(choices=("greedy", "lazy"), default="greedy")),
        ("--csv", dict(default=None))]),
    "graph": (cmd_graph, "sampled transformation graphs as CSV", [
        ("--mode", dict(choices=("greedy", "lazy", "both"), default="both")),
        ("--samples", dict(type=int, default=SAMPLES_PER_UNIT, help="samples per unit length")),
        ("--csv", dict(required=True))]),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone, which prints the same bytes:
    its metavar names all eight in the usage that an unrecognized argument prints."""
    ap = argparse.ArgumentParser(prog="altbase", description=__doc__)
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else [command]:
        fn, help_text, options = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--base", required=True, help="comma-separated base expressions")
        p.add_argument("--json", action="store_true", help="emit a JSON document")
        for flag, kw in options:
            p.add_argument(flag, **kw)
        p.set_defaults(fn=fn)
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a named command gets its own subparser only; anything else lists or rejects all eight
    args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        base, payload, lines = args.fn(args)
        # rendering stays inside the try: orbit makes its rows while they are printed
        if args.json:
            doc = {
                "schema_version": SCHEMA_VERSION,
                "command": args.command,
                "base": list(base.betas),
                "payload": payload,
            }
            pieces = chain(_to_json(doc), ["\n"])
            while batch := "".join(islice(pieces, _JSON_BATCH)):
                sys.stdout.write(batch)
        else:
            for line in lines:
                print(line)
    except AltBaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


def run() -> NoReturn:
    """The process entry point: ends the process with ``main()``'s exit code, or argparse's
    status after help or a usage error, 1 if stdout closes early.

    The collector is off throughout, and ``os._exit`` skips the interpreter's
    finalization: when ``main`` returns, every output is written and every
    CSV closed by reference counting, so only the flushes of stdout and
    stderr are left; the OS reclaims the rest. Any other exception
    propagates, so the interpreter prints its traceback and exits 1. This
    lives here, not in ``main``, which in-process callers share.
    """
    gc.disable()
    # one BLAS thread for the small solves, set before numpy loads; a value the user set is kept
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    try:
        try:
            code = main()
        except SystemExit as exc:  # only argparse exits, always with an int status
            code = exc.code
        sys.stdout.flush()  # a closed pipe raises here
    except BrokenPipeError:
        # the Python docs' recipe: what stdout still buffers goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stdout.flush()
        code = 1
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
