"""Every tolerance, bound and scale in the package is a named constant.

A float literal below 1e-6 or above 1e6 in magnitude, or an integer
literal of magnitude 10^4 or more, is a tolerance, a bound or a scale.
Written bare inside a function it is a magic number with no reason
attached; it belongs in an UPPER_CASE module- or class-level assignment
with a comment saying why it has its value.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "altbase"
CONSTANT_NAME = re.compile(r"_?[A-Z][A-Z0-9_]*")


def _extreme(value) -> bool:
    if type(value) is int:
        return abs(value) >= 10**4
    return type(value) is float and (0 < abs(value) < 1e-6 or abs(value) > 1e6)


def bare_extreme_literals(tree: ast.Module) -> list[int]:
    """Line numbers of extreme float and integer literals outside named constants."""
    named = set()
    scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    for scope in scopes:
        for stmt in scope.body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            else:
                continue
            if all(isinstance(t, ast.Name) and CONSTANT_NAME.fullmatch(t.id) for t in targets):
                named.update(id(n) for n in ast.walk(stmt))
    return sorted(
        n.lineno
        for n in ast.walk(tree)
        if isinstance(n, ast.Constant) and _extreme(n.value) and id(n) not in named
    )


def test_checker_tells_named_from_bare():
    src = (
        "TOL = 1e-12\n"
        "class A:\n"
        "    _BIG: float = 1e10\n"
        "    def f(self, x):\n"
        "        return x < -1e-14 or x > 2.0**-52 + 0.5\n"
        "def g(x):\n"
        "    lim = 1e7\n"
        "    return x > lim + 1e-6\n"
        "CAP = 100000\n"
        "def h(n):\n"
        "    return 9999 < n < 10000 or n == -10**5 or n == -20000\n"
    )
    assert bare_extreme_literals(ast.parse(src)) == [5, 7, 11, 11]


def test_no_bare_extreme_float_literals():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = {}
    for path in paths:
        lines = bare_extreme_literals(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if lines:
            found[path.name] = lines
    assert found == {}
