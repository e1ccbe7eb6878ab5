"""Alternate bases and their greedy and lazy transformations.

An alternate base is a finite tuple (beta_0, ..., beta_{p-1}) of reals > 1
applied cyclically: position n of an expansion uses beta_{n mod p}.  The
module provides the one-step transformations on the disjoint-union phase
space, full digit expansions, value reconstruction and the reflection that
conjugates the greedy system to the lazy one.

All arithmetic is double precision.  Floor/ceil arguments within EPS_SNAP
of an integer are snapped to that integer so that points intended to sit on
a branch endpoint land on the correct branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, Union

from .errors import AlphabetError, DomainError

EPS_SNAP = 1e-12


def snap_floor(y: float) -> int:
    return math.floor(y + EPS_SNAP)


def snap_ceil(y: float) -> int:
    return math.ceil(y - EPS_SNAP)


class StatePoint(NamedTuple):
    """A point of the phase space: (slot, value) with value in slot's interval."""

    slot: int
    value: float


@dataclass(frozen=True)
class AlternateBase:
    """A validated alternate base with cached derived quantities.

    Construct through :func:`new_base`.  ``alphabets[i]`` is the largest digit
    usable at positions congruent to i, ``xmax[i]`` the supremum of values
    representable over the cyclic alphabets starting at slot i, and
    ``product`` the slope of one full period.
    """

    betas: tuple[float, ...]
    product: float
    alphabets: tuple[int, ...]
    xmax: tuple[float, ...]

    @property
    def p(self) -> int:
        return len(self.betas)

    def beta(self, n: int) -> float:
        return self.betas[n % len(self.betas)]

    def alphabet(self, n: int) -> int:
        return self.alphabets[n % len(self.betas)]

    def xsup(self, n: int) -> float:
        return self.xmax[n % len(self.betas)]

    def __repr__(self) -> str:  # keep reprs short in test output
        body = ", ".join(format(b, ".12g") for b in self.betas)
        return f"AlternateBase(({body}))"


def new_base(betas: Sequence[float]) -> AlternateBase:
    """Validate a tuple of bases and cache alphabets, product and suprema.

    Every entry must be a finite real strictly greater than 1.  The supremum
    xmax[i] is computed in closed form as the value of the all-maximal digit
    word read cyclically from slot i, divided by (product - 1).
    """
    bs = tuple(float(b) for b in betas)
    if not bs:
        raise DomainError("an alternate base needs at least one component")
    for b in bs:
        if not math.isfinite(b) or b <= 1.0:
            raise DomainError(f"base component {b!r} is not a real > 1")
    p = len(bs)
    # snap_ceil: a base a hair above an integer (expression float noise) counts as that integer
    alphabets = tuple(snap_ceil(b) - 1 for b in bs)
    product = math.prod(bs)
    xmax = []
    for i in range(p):
        # weight of digit k in the blocked word starting at slot i is the
        # product of the bases at slots i+k+1 .. i+p-1
        top = 0.0
        weight = 1.0
        for k in range(p - 1, -1, -1):
            top += alphabets[(i + k) % p] * weight
            weight *= bs[(i + k) % p]
        xmax.append(top / (product - 1.0))
    return AlternateBase(bs, product, alphabets, tuple(xmax))


def shift_base(base: AlternateBase, n: int) -> AlternateBase:
    """Cyclic rotation: slot 0 of the result is slot n of ``base``.

    Cached fields are rotated rather than recomputed, so rotating by the
    period returns a base whose floats are bitwise identical.
    """
    p = base.p
    k = n % p
    if k == 0:
        return base
    rot = lambda t: t[k:] + t[:k]
    return AlternateBase(rot(base.betas), base.product, rot(base.alphabets), rot(base.xmax))


def _clamp(base: AlternateBase, s: StatePoint) -> float:
    """``s.value`` pulled into [0, xmax] of its slot; NaN or more than EPS_SNAP outside raises."""
    hi = base.xmax[s.slot % base.p]
    x = s.value
    if not (-EPS_SNAP <= x <= hi + EPS_SNAP):
        raise DomainError(f"state value {x!r} outside [0, {hi!r}] at slot {s.slot}")
    return min(max(x, 0.0), hi)


def _greedy_digit(y: float, m: int) -> int:
    """The greedy digit for y = beta*x: the snapped floor of y, kept within [0, m]."""
    d = snap_floor(y)
    if d > m:
        return m  # beta*x snapped onto ceil(beta), or x in the extension [1, xmax)
    return d if d > 0 else 0


def greedy_step(base: AlternateBase, s: StatePoint) -> tuple[StatePoint, int]:
    """One application of the extended greedy transformation.

    Returns the next state and the digit emitted at this position, the
    maximal digit not exceeding beta*x.  On the extension [1, xmax) that is
    always the maximal alphabet digit, since beta*x >= beta exceeds it.
    """
    p = base.p
    i = s.slot % p
    y = base.betas[i] * _clamp(base, s)
    digit = _greedy_digit(y, base.alphabets[i])
    nxt = y - digit
    if abs(nxt) < EPS_SNAP:
        nxt = 0.0
    j = (i + 1) % p
    hi = base.xmax[j]
    if nxt > hi:
        nxt = hi  # float drift at the very top of the domain
    return StatePoint(j, nxt), digit


def lazy_step(base: AlternateBase, s: StatePoint) -> tuple[StatePoint, int]:
    """One application of the lazy transformation.

    Small values (x <= xmax - 1) emit digit 0; otherwise the least digit
    keeping the remainder representable, ceil(beta*x - xmax_next).
    """
    p = base.p
    i = s.slot % p
    x = _clamp(base, s)
    b = base.betas[i]
    m = base.alphabets[i]
    j = (i + 1) % p
    hi_next = base.xmax[j]
    if x <= base.xmax[i] - 1.0 + EPS_SNAP:
        digit = 0
    else:
        digit = snap_ceil(b * x - hi_next)
        if digit < 0:
            digit = 0
        elif digit > m:
            digit = m
    nxt = b * x - digit
    if nxt > hi_next:
        nxt = hi_next
    return StatePoint(j, nxt), digit


@dataclass(frozen=True)
class DigitWord:
    """A finite digit string read in the base rotated by ``base_offset``."""

    digits: tuple[int, ...]
    base_offset: int = 0

    def __len__(self) -> int:
        return len(self.digits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.digits)


def _expand(step, base: AlternateBase, x: float, n: int) -> DigitWord:
    if n < 0:
        raise DomainError("digit count must be nonnegative")
    s = StatePoint(0, x)
    out = []
    for _ in range(n):
        s, d = step(base, s)
        out.append(d)
    return DigitWord(tuple(out), 0)


def greedy_expand(base: AlternateBase, x: float, n: int) -> DigitWord:
    """First n digits of the greedy expansion of x, starting at slot 0."""
    return _expand(greedy_step, base, x, n)


def lazy_expand(base: AlternateBase, x: float, n: int) -> DigitWord:
    """First n digits of the lazy expansion of x, starting at slot 0."""
    if not x > 0.0:
        raise DomainError(f"lazy expansion needs 0 < x <= xmax, got {x!r}")
    return _expand(lazy_step, base, x, n)


def evaluate(base: AlternateBase, w: DigitWord, with_max_tail: bool = False) -> float:
    """Value of a digit word: sum of a_n over the running base products.

    With ``with_max_tail`` the value of the all-maximal continuation is
    added, turning the partial sum into an upper bound for every number
    whose expansion starts with ``w``.
    """
    off = w.base_offset
    total = 0.0
    prod = 1.0
    for k, d in enumerate(w.digits):
        m = base.alphabet(off + k)
        if not (0 <= d <= m):
            raise AlphabetError(f"digit {d} at position {k} exceeds alphabet bound {m}")
        prod *= base.beta(off + k)
        total += d / prod
    if with_max_tail:
        total += base.xsup(off + len(w.digits)) / prod
    return total


def phi(base: AlternateBase, s: StatePoint) -> StatePoint:
    """Reflection (i, x) -> (i, xmax[i] - x); applying it twice is the identity.

    It carries the greedy system onto the lazy one: reflecting, stepping
    lazily and reflecting back equals one greedy step.
    """
    i = s.slot % base.p
    return StatePoint(i, base.xmax[i] - _clamp(base, s))


BetaSource = Union[Iterable[float], Callable[[int], float]]


class CantorBaseStream:
    """Pull-based sequence of bases beta_n > 1, materialized on demand.

    Accepts an iterable or a callable n -> beta_n.  Entries are validated
    as they are drawn.
    """

    def __init__(self, source: BetaSource):
        if callable(source):
            self._fn = source
            self._it = None
        else:
            self._fn = None
            self._it = iter(source)
        self._prefix: list[float] = []

    @classmethod
    def periodic(cls, base: AlternateBase) -> "CantorBaseStream":
        return cls(lambda n: base.betas[n % base.p])

    def beta(self, n: int) -> float:
        while len(self._prefix) <= n:
            k = len(self._prefix)
            if self._fn is not None:
                b = float(self._fn(k))
            else:
                try:
                    b = float(next(self._it))
                except StopIteration:
                    raise DomainError(f"base stream exhausted at index {k}") from None
            if not math.isfinite(b) or b <= 1.0:
                raise DomainError(f"base stream produced {b!r} at index {k}, need > 1")
            self._prefix.append(b)
        return self._prefix[n]


def greedy_expand_cantor(seq: CantorBaseStream, x: float, n: int) -> DigitWord:
    """Greedy digits of x in an arbitrary base sequence, on the unit interval."""
    if not (0.0 <= x < 1.0):
        raise DomainError(f"greedy expansion over a base stream needs x in [0,1), got {x!r}")
    if n < 0:
        raise DomainError("digit count must be nonnegative")
    out = []
    for k in range(n):
        b = seq.beta(k)
        y = b * x
        d = _greedy_digit(y, snap_ceil(b) - 1)
        x = y - d
        if -EPS_SNAP < x < EPS_SNAP:
            x = 0.0
        out.append(d)
    return DigitWord(tuple(out), 0)
