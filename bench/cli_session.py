"""The cli_session workload: the README's command forms, one fresh interpreter each.

Commands run one after another, never in parallel, as ``python -m
altbase.cli ... --json`` against the checkout's ``src``.  The corpus also
holds three commands that must fail with a documented exit code.  This
module uses only the standard library, so the worker's own set-up does not
import numpy.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import subprocess
import sys

from criteria import PPR5, criterion9_ppr5_ok

POOL = (  # expression, period, largest digit
    ("(1+sqrt(13))/2,(5+sqrt(13))/6", 2, 2),
    (PPR5, 3, 2),
    ("phi*phi", 1, 2),
    ("1.3,2.7,1.9,3.4,1.15", 5, 3),
)
OVERSIZED = ",".join(["10"] * 8)  # 11^8 digit blocks, above the 10^7 bound
EXIT_PARSE, EXIT_DOMAIN, EXIT_RESOURCE = 2, 3, 5
EMPIRICAL_STEPS = 50_000
COMMAND_TIMEOUT_S = 60
GRAPH_HEADER = "x,y,branch_index,slot"


def _num(rng: random.Random, lo: float, hi: float) -> str:
    return repr(rng.uniform(lo, hi))


class CliSession:
    name = "cli_session"

    def __init__(self, root, out_dir, env):
        self.root = root
        self.out = out_dir
        self.env = env
        self.stdout_bytes: list[int] = []

    def setup(self) -> None:
        self.out.mkdir(parents=True, exist_ok=True)

    def warm_up(self) -> None:
        self.run(["entropy", "--base", POOL[0][0], "--json"])

    def run(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "altbase.cli", *argv],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=COMMAND_TIMEOUT_S,
        )

    def groups(self, seed: int):
        # 13 commands per base.  freq, the slowest form, comes twice, so the
        # 90th percentile falls inside the freq commands instead of on the
        # edge between freq and graph.
        rng = random.Random(seed)
        for k in itertools.count():
            base, p, top = POOL[k % len(POOL)]
            x = _num(rng, 0.0, 1.0)
            a, b = sorted((rng.random(), rng.random()))
            csv = str(self.out / "out.csv")
            yield self._ok("expand", ["--base", base, "--x", x, "--mode", "greedy", "--digits", str(rng.randint(5, 40))])
            yield self._ok("expand", ["--base", base, "--x", _num(rng, 1e-9, 1.0), "--mode", "lazy", "--digits", str(rng.randint(5, 40))])
            yield self._ok("density", ["--base", base, "--slot", str(rng.randrange(p)), "--csv", csv])
            yield self._ok("measure", ["--base", base, "--slot", str(rng.randrange(p)), "--interval", f"{a!r},{b!r}"])
            yield self._ok("freq", ["--base", base, "--digit", str(rng.randint(0, top)), "--empirical", str(EMPIRICAL_STEPS)])
            yield self._ok("entropy", ["--base", base])
            yield self._ok("compare", ["--base", base])
            yield self._ok("freq", ["--base", base, "--digit", str(rng.randint(0, top)), "--empirical", str(EMPIRICAL_STEPS)])
            yield self._ok("orbit", ["--base", base, "--x", x, "--steps", str(rng.randint(10, 50)), "--csv", csv])
            yield self._ok("graph", ["--base", base, "--csv", csv])
            yield self._error(EXIT_PARSE, ["expand", "--base", f"{base}+*2", "--x", x])
            yield self._error(EXIT_DOMAIN, ["expand", "--base", base, "--x", _num(rng, 5.0, 9.0)])
            yield self._error(EXIT_RESOURCE, ["compare", "--base", OVERSIZED])

    def _ok(self, command, argv):
        proc = yield f"cli.{command}", self.run, ([command, *argv, "--json"],)
        self.stdout_bytes.append(len(proc.stdout.encode()))
        if proc.returncode != 0:
            return [False]
        try:
            doc = json.loads(proc.stdout)
        except ValueError:
            return [False]
        ok = doc.get("schema_version") == "1" and doc.get("command") == command
        return [ok and _payload_ok(command, argv, doc["base"], doc["payload"])]

    def _error(self, code, argv):
        proc = yield "cli.error_exit", self.run, (argv,)
        self.stdout_bytes.append(len(proc.stdout.encode()))
        return [proc.returncode == code and proc.stdout == "" and proc.stderr.startswith("error:")]


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def _header(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.readline().rstrip("\n")


def _payload_ok(command, argv, base, payload) -> bool:
    """Command-specific checks that need no library call."""
    if command == "expand":
        return len(payload["digits"]) == int(_arg(argv, "--digits"))
    if command == "density":
        return payload["K"] == len(payload["c"]) == len(payload["d"]) - 1 and _header(_arg(argv, "--csv")) == "x,density"
    if command == "measure":
        return 0.0 <= payload["value"] <= 1.0
    if command == "freq":
        return 0.0 <= payload["frequency"] <= 1.0 and 0.0 <= payload["empirical"] <= 1.0
    if command == "entropy":
        return abs(payload["entropy"] - math.log(math.prod(base)) / len(base)) <= 1e-12
    if command == "compare":
        if _arg(argv, "--base") == PPR5:
            return not payload["coincide"] and criterion9_ppr5_ok(payload["intervals"])
        return payload["coincide"] if len(base) <= 2 else payload["coincide"] == (not payload["intervals"])
    if command == "orbit":
        rows = payload["trajectory"]
        return len(rows) == int(_arg(argv, "--steps")) and _header(_arg(argv, "--csv")) == "step,slot,x,digit"
    if command == "graph":
        return len(payload["files"]) == 2 and all(_header(f) == GRAPH_HEADER for f in payload["files"])
    return False
