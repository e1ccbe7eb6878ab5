"""Golden corpus of CLI runs: argv, exit code, stdout, stderr and written files.

``tests/data/cli_golden.jsonl`` holds one run per line.  The test suite
replays every argv in-process and asserts the same bytes, and runs one line
of each command form and error exit through a child ``python -m altbase.cli``;
a change that alters any of them is a change of the CLI's output, not a
refactor.

Regenerate (only when an output change is intended) with

    PYTHONPATH=src python tests/cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import tempfile

from altbase.cli import main

CORPUS = pathlib.Path(__file__).parent / "data" / "cli_golden.jsonl"

BASES = (
    "(1+sqrt(13))/2,(5+sqrt(13))/6",
    "phi,phi,sqrt(5)",
    "phi*phi",
    "1.3,2.7,1.9,3.4,1.15",
    "2",
)

FORMS = (
    ("expand", "--x", "(1+sqrt(5))/5", "--digits", "24"),
    ("expand", "--x", "(1+sqrt(5))/5", "--digits", "24", "--mode", "lazy"),
    ("density", "--slot", "0", "--csv", "d.csv", "--samples", "64"),
    ("measure", "--interval", "1/4,3/4"),
    ("freq", "--digit", "1"),
    ("freq", "--digit", "0", "--empirical", "20000", "--x0", "0.4142135623730951"),
    ("entropy",),
    ("compare",),
    ("orbit", "--x", "0.25", "--steps", "12", "--mode", "lazy"),
    ("graph", "--csv", "g.csv", "--samples", "16"),
)

ERRORS = (
    ("expand", "--base", "2+*3", "--x", "0.5"),  # 2: expression parse error
    ("expand", "--base", "0.5", "--x", "0.1"),  # 3: domain error
    ("measure", "--base", "2", "--interval", "3/4,1/4"),  # 3: domain error
    ("density", "--base", "phi*phi", "--truncation", "2"),  # 4: numeric failure
    ("compare", "--base", "1000000.5,1000000.5"),  # 5: enumeration too large
)

# measure at the interval edges: an empty interval, all of [0, 1), and an end at 1
EDGE_INTERVALS = ("0.5,0.5", "0,1", "0.25,1")


def argvs() -> list[list[str]]:
    runs = [[form[0], "--base", base, *form[1:], "--json"] for base in BASES for form in FORMS]
    text = [[form[0], "--base", BASES[0], *form[1:]] for form in FORMS]
    edges = [
        ["measure", "--base", base, "--interval", iv, "--json"]
        for base in (BASES[0], BASES[3])
        for iv in EDGE_INTERVALS
    ]
    return runs + [list(argv) for argv in ERRORS] + text + edges


def run_cli(argv: list[str], workdir: str) -> dict:
    """Run ``main(argv)`` in ``workdir``; capture streams and hash written files."""
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        files = {
            name: hashlib.sha256(pathlib.Path(name).read_bytes()).hexdigest()
            for name in sorted(os.listdir("."))
        }
        for name in files:
            os.remove(name)
    finally:
        os.chdir(here)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "files": files}


if __name__ == "__main__":
    CORPUS.parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp, CORPUS.open("w", encoding="utf-8") as fh:
        for argv in argvs():
            fh.write(json.dumps(run_cli(argv, tmp), sort_keys=True) + "\n")
