"""Alternate bases and their greedy and lazy transformations.

An alternate base is a finite tuple (beta_0, ..., beta_{p-1}) of reals > 1
applied cyclically: position n of an expansion uses beta_{n mod p}.  The
module provides the one-step transformations on the disjoint-union phase
space, full digit expansions, value reconstruction, the entropy and the
reflection that conjugates the greedy system to the lazy one.

All arithmetic is double precision.  Floor/ceil arguments within EPS_SNAP
of an integer are snapped to that integer so that points intended to sit on
a branch endpoint land on the correct branch.
"""

from __future__ import annotations

import math
import operator
from itertools import count, cycle, islice, repeat
from numbers import Integral
from operator import attrgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, Union

from .errors import AlphabetError, DomainError, SearchTooLarge

EPS_SNAP = 1e-12
# the most elements of any list, table, enumeration or CSV whose size comes from the input
ENUMERATION_BOUND = 10**7


def snap_ceil(y: float) -> int:
    return math.ceil(y - EPS_SNAP)


def check_size(count: float, what: str, unit: str = "") -> None:
    """Raise SearchTooLarge if ``count``, a closed-form size, exceeds ENUMERATION_BOUND."""
    if count > ENUMERATION_BOUND:
        raise SearchTooLarge(f"{what} exceeds the {ENUMERATION_BOUND:.0e} {unit}bound")


def check_enumeration_bound(base: AlternateBase, n: int, what: str) -> None:
    """Refuse positions 0..n-1 of ``base`` if they have over ENUMERATION_BOUND digit tuples."""
    total = 1
    for k in range(n):
        total *= base.alphabet(k) + 1
        if total > ENUMERATION_BOUND:
            break
    check_size(total, what)


class _Record:
    """Base of the package's immutable value types.

    A subclass names its fields (two or more, after any it inherits), in
    order, in ``__slots__``.  Instances take them positionally or by
    keyword, with ``_defaults`` for omitted ones, then run the ``_check``
    hook.  ``==``, ``hash``, repr, pickle and copy go over the fields in
    order, and no field can be set or deleted.  The standard library's
    record decorator would do the same, but it imports ``inspect``, which
    adds about 25 ms to every CLI process.
    """

    __slots__ = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        cls._fields = getattr(cls, "_fields", ()) + cls.__dict__.get("__slots__", ())
        # each slot's own setter, which bypasses __setattr__
        cls._setters = tuple(getattr(cls, f).__set__ for f in cls._fields)
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args: object, **kwargs: object) -> None:
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        for put, value in zip(setters, args):
            put(self, value)
        self._check()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Field values of a call that uses keywords or defaults, in field order."""
        name = cls.__qualname__
        if len(args) > len(cls._fields):
            raise TypeError(f"{name}() takes {len(cls._fields)} arguments, {len(args)} given")
        values = list(args)
        for field in cls._fields[len(args) :]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in cls._defaults:
                values.append(cls._defaults[field])
            else:
                raise TypeError(f"{name}() missing argument {field!r}")
        if kwargs:
            raise TypeError(f"{name}() got unexpected or repeated arguments {sorted(kwargs)}")
        return values

    def _check(self) -> None:
        """Raise if the field values are invalid; every value is valid by default."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __reduce__(self) -> tuple:
        return self.__class__, tuple(getattr(self, f) for f in self._fields)


class StatePoint(NamedTuple):
    """A point of the phase space: (slot, value) with value in slot's interval."""

    slot: int
    value: float


class AlternateBase(_Record):
    """A validated alternate base with cached derived quantities.

    Construct through :func:`new_base`.  ``alphabets[i]`` is the largest digit
    usable at positions congruent to i, ``xmax[i]`` the supremum of values
    representable over the cyclic alphabets starting at slot i, and
    ``product`` the slope of one full period.
    """

    __slots__ = ("betas", "product", "alphabets", "xmax")
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

    Every entry must be a finite real > 1, not within EPS_SNAP of 1 (whose
    alphabet would snap to {0}), and so must their product.  The
    supremum xmax[i] is computed in closed form as the value of the
    all-maximal digit word read cyclically from slot i, divided by (product - 1).
    """
    bs = tuple(float(b) for b in betas)
    if not bs:
        raise DomainError("an alternate base needs at least one component")
    for b in bs:
        if not math.isfinite(b) or b <= 1.0:
            raise DomainError(f"base component {b!r} is not a real > 1")
        if snap_ceil(b) == 1:
            raise DomainError(f"base component {b!r} is within {EPS_SNAP:g} of 1: its only digit is 0")
    p = len(bs)
    # snap_ceil: a base a hair above an integer (expression float noise) counts as that integer
    alphabets = tuple(snap_ceil(b) - 1 for b in bs)
    product = math.prod(bs)
    if not math.isfinite(product):
        raise DomainError(f"the product of the base components overflows to {product!r}")
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


def _clamp(base: AlternateBase, slot: int, x: float) -> float:
    """``x`` pulled into [0, xmax] of ``slot``; NaN or more than EPS_SNAP outside raises."""
    hi = base.xmax[slot % len(base.xmax)]
    if not (-EPS_SNAP <= x <= hi + EPS_SNAP):
        raise DomainError(f"state value {x!r} outside [0, {hi!r}] at slot {slot}")
    return 0.0 if x < 0.0 else hi if x > hi else x


# StatePoint(i, x) without the Python-level NamedTuple.__new__ call
_new_state = tuple.__new__


def greedy_step(base: AlternateBase, s: StatePoint) -> tuple[StatePoint, int]:
    """One application of the extended greedy transformation.

    Returns the next state and the digit emitted at this position, the
    maximal digit not exceeding beta*x.  On the extension [1, xmax) that is
    always the maximal alphabet digit, since beta*x >= beta exceeds it.
    """
    slot, x = s
    xm = base.xmax
    p = len(xm)
    i = slot % p
    j = i + 1 if i + 1 < p else 0
    (digit,), x = _greedy_loop(((base.betas[i], base.alphabets[i], xm[j]),), _clamp(base, slot, x))
    return _new_state(StatePoint, (j, x)), digit


def lazy_step(base: AlternateBase, s: StatePoint) -> tuple[StatePoint, int]:
    """One application of the lazy transformation.

    Small values (x <= xmax - 1) emit digit 0; otherwise the least digit
    keeping the remainder representable, ceil(beta*x - xmax_next).
    """
    slot, x = s
    xm = base.xmax
    p = len(xm)
    i = slot % p
    j = i + 1 if i + 1 < p else 0
    slots = ((base.betas[i], base.alphabets[i], xm[j], xm[i] - 1.0 + EPS_SNAP),)
    (digit,), x = _lazy_loop(slots, _clamp(base, slot, x))
    return _new_state(StatePoint, (j, x)), digit


class DigitWord(_Record):
    """A finite digit string read in the base rotated by ``base_offset``."""

    __slots__ = ("digits", "base_offset")
    _defaults = {"base_offset": 0}
    digits: tuple[int, ...]
    base_offset: int

    def __len__(self) -> int:
        return len(self.digits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.digits)


def _digit_count(n: int) -> int:
    if n < 0:
        raise DomainError("digit count must be nonnegative")
    n = operator.index(n)  # a float count raises TypeError, as range(n) does
    check_size(n, "the expansion", "digit ")
    return n


def _greedy_loop(slots: Iterable[tuple[float, int, float]], x: float) -> tuple[list[int], float]:
    """Digits and last remainder of greedy steps over (beta, alphabet, cap) triples.

    x already lies in the first domain.  A remainder below EPS_SNAP is 0 (the
    snapped floor may exceed beta*x by a hair), one above cap is cap.  The
    orbit statistics' tally loop (oracle._orbit_tally) inlines this digit
    rule; tests pin both to one reference rule.
    """
    out = []
    for beta, m, hi in slots:
        y = beta * x
        d = int(y + EPS_SNAP)  # the snapped floor, as y >= 0
        if d > m:
            d = m  # beta*x snapped onto ceil(beta), or x in the extension [1, xmax)
        x = y - d
        if x < EPS_SNAP:
            x = 0.0
        elif x > hi:
            x = hi
        out.append(d)
    return out, x


def _greedy_run(base: AlternateBase, x: float, n: int) -> tuple[list[int], float]:
    """Digits and last remainder of n greedy steps from slot 0, for a count n >= 0.

    The start is checked once (n = 0 takes no step and checks nothing); each
    remainder is capped at the next slot's xmax, as greedy_step caps it.
    """
    if not n:
        return [], x
    xm = base.xmax
    slots = islice(cycle(zip(base.betas, base.alphabets, xm[1:] + xm[:1])), n)
    return _greedy_loop(slots, _clamp(base, 0, x))


def greedy_expand(base: AlternateBase, x: float, n: int) -> DigitWord:
    """First n digits of the greedy expansion of x, starting at slot 0."""
    return DigitWord(tuple(_greedy_run(base, x, _digit_count(n))[0]), 0)


def _lazy_loop(
    slots: Iterable[tuple[float, int, float, float]], x: float
) -> tuple[list[int], float]:
    """Digits and last remainder of lazy steps over (beta, alphabet, cap, small) tuples.

    x already lies in the first domain.  x <= small (xmax - 1 + EPS_SNAP)
    emits digit 0, anything larger snap_ceil(beta*x - cap) written out and
    kept within [0, alphabet].  A remainder above cap is cap, one below 0 is 0.
    """
    out = []
    ceil, eps = math.ceil, EPS_SNAP
    for beta, m, hi, small in slots:
        if x <= small:
            d = 0
        else:
            d = ceil(beta * x - hi - eps)
            if d < 0:
                d = 0
            elif d > m:
                d = m
        x = beta * x - d
        if x > hi:
            x = hi
        elif x < 0.0:
            x = 0.0
        out.append(d)
    return out, x


def lazy_expand(base: AlternateBase, x: float, n: int) -> DigitWord:
    """First n digits of the lazy expansion of x, starting at slot 0."""
    if not x > 0.0:
        raise DomainError(f"lazy expansion needs 0 < x <= xmax, got {x!r}")
    n = _digit_count(n)
    if not n:
        return DigitWord((), 0)
    xm = base.xmax
    slots = zip(base.betas, base.alphabets, xm[1:] + xm[:1], [h - 1.0 + EPS_SNAP for h in xm])
    return DigitWord(tuple(_lazy_loop(islice(cycle(slots), n), _clamp(base, 0, x))[0]), 0)


def evaluate(base: AlternateBase, w: DigitWord) -> float:
    """Value of a digit word: sum of a_n over the running base products."""
    digits, betas, alphabets = tuple(w.digits), base.betas, base.alphabets
    p = len(betas)
    i = w.base_offset % p
    # C-level passes: a float digit makes the sum a float; the slice from j holds slot i+j's digits
    if not isinstance(sum(digits), Integral):
        bad = next(d for d in digits if not isinstance(d, Integral))
        raise AlphabetError(f"digit {bad!r} is not an integer")
    for j in range(min(p, len(digits))):
        run = digits[j::p]
        if min(run) < 0 or max(run) > alphabets[(i + j) % p]:
            k = next(k for k, d in enumerate(digits) if not 0 <= d <= alphabets[(i + k) % p])
            m = alphabets[(i + k) % p]
            raise AlphabetError(f"digit {digits[k]} at position {k} exceeds alphabet bound {m}")
    total = 0.0
    prod = 1.0
    for d, beta in zip(digits, cycle(betas[i:] + betas[:i])):
        prod *= beta
        total += d / prod
    return total


def entropy(base: AlternateBase) -> float:
    """Average information per digit: log of the period product over the period."""
    return math.log(base.product) / base.p


def phi(base: AlternateBase, s: StatePoint) -> StatePoint:
    """Reflection (i, x) -> (i, xmax[i] - x); applying it twice is the identity.

    It carries the greedy system onto the lazy one: reflecting, stepping
    lazily and reflecting back equals one greedy step.
    """
    i = s.slot % base.p
    return StatePoint(i, base.xmax[i] - _clamp(base, s.slot, s.value))


BetaSource = Union[Iterable[float], Callable[[int], float]]


class CantorBaseStream:
    """Pull-based sequence of bases beta_n > 1, materialized on demand.

    Accepts an iterable or a callable n -> beta_n, such as ``base.beta``
    for an alternate base.  Entries are validated as they are drawn.
    """

    def __init__(self, source: BetaSource):
        self._it = map(source, count()) if callable(source) else iter(source)
        self._prefix: list[float] = []

    def beta(self, n: int) -> float:
        if n < 0:
            raise DomainError(f"base stream index {n} is negative")
        while len(self._prefix) <= n:
            k = len(self._prefix)
            try:
                b = float(next(self._it))
            except StopIteration:
                raise DomainError(f"base stream exhausted at index {k}") from None
            if not math.isfinite(b) or b <= 1.0:
                self._it = repeat(b)  # a retry is refused too, not handed the next entry
                raise DomainError(f"base stream produced {b!r} at index {k}, need > 1")
            self._prefix.append(b)
        return self._prefix[n]


def greedy_expand_cantor(seq: CantorBaseStream, x: float, n: int) -> DigitWord:
    """Greedy digits of x in an arbitrary base sequence, on the unit interval."""
    if not (0.0 <= x < 1.0):
        raise DomainError(f"greedy expansion over a base stream needs x in [0,1), got {x!r}")
    n = _digit_count(n)
    if n:
        seq.beta(n - 1)  # draws and checks entries 0 .. n-1 in order
    bs = seq._prefix[:n]
    alphabet = {b: snap_ceil(b) - 1 for b in set(bs)}
    # cap 1.0: a digit capped at the alphabet (beta a hair above an integer) leaves a
    # remainder above 1 that would otherwise grow by beta each step until it overflows
    digits, _ = _greedy_loop(zip(bs, map(alphabet.__getitem__, bs), repeat(1.0)), x)
    return DigitWord(tuple(digits), 0)
