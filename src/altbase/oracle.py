"""Independent oracles: exhaustive tuple searches and orbit statistics.

The searches here deliberately avoid the one-step transformations of
:mod:`altbase.core`; they characterize the same digit strings through their
defining extremal property (lexicographically greatest value-bounded tuple,
or least tuple whose maximal continuation still reaches the target), so the
two routes can be checked against each other.
"""

from __future__ import annotations

import math
import operator
import struct
from itertools import chain, cycle, islice
from numbers import Integral
from typing import Iterator, Optional

from .core import (
    EPS_SNAP, AlternateBase, StatePoint, _digit_count, _Record, check_enumeration_bound, check_size
)
from .errors import AlphabetError, DomainError

# Orbits are iterated with a deterministic one-ulp dither.  Multiplication
# by an exactly representable slope (an integer base like 2) is lossless in
# binary floating point, so the undithered orbit of every double collapses
# onto a dyadic point and its statistics are maximally atypical.  Expanding
# maps are stochastically stable, so a perturbation at the last mantissa bit
# leaves the invariant statistics unchanged far below the tolerances used
# here while restoring generic behavior.  The dither stream is seeded from
# the bit pattern of the starting point, keeping every run reproducible.  It
# is generated in blocks of _DITHER_BLOCK draws with numpy uint64 arithmetic
# and equals the SplitMix64 uniform(-DITHER_AMPLITUDE, DITHER_AMPLITUDE)
# stream bit for bit.
DITHER_AMPLITUDE = 2.0**-52
_DITHER_SALT = 0xD1B54A32D192ED03
_DITHER_BLOCK = 4096


class SplitMix64:
    """Seedable 64-bit generator (algorithm id: ``splitmix64``).

    The update is the standard splitmix64 finalizer, so any implementation
    of the same algorithm reproduces the stream bit for bit.
    """

    _MASK = (1 << 64) - 1
    _GAMMA = 0x9E3779B97F4A7C15
    _MIX1 = 0xBF58476D1CE4E5B9
    _MIX2 = 0x94D049BB133111EB

    def __init__(self, seed: int):
        self._state = seed & self._MASK

    def next_u64(self) -> int:
        self._state = (self._state + self._GAMMA) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * self._MIX1) & self._MASK
        z = ((z ^ (z >> 27)) * self._MIX2) & self._MASK
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        # 53 significant bits, uniform in [lo, hi)
        u = (self.next_u64() >> 11) * 2.0**-53
        return lo + u * (hi - lo)


class TupleSearchResult(_Record):
    __slots__ = ("digits", "value")
    digits: tuple[int, ...]
    value: float


def _prefix_products(base: AlternateBase, n: int) -> list[float]:
    prods = [1.0]
    for k in range(n):
        prods.append(prods[-1] * base.beta(k))
    return prods


def lex_greatest(base: AlternateBase, x: float, n: int) -> TupleSearchResult:
    """Lexicographically greatest digit tuple whose value stays <= x.

    Each position takes the largest digit that keeps the prefix's value <= x.
    The search never backtracks: a prefix <= x stays <= x under the all-zero
    completion, since v + 0.0 == v.
    """
    if not (-EPS_SNAP <= x <= base.xmax[0] + EPS_SNAP):
        raise DomainError(f"x={x!r} outside [0, xmax)")
    n = _digit_count(n)
    check_enumeration_bound(base, n, f"{n}-digit enumeration")
    prods = _prefix_products(base, n)
    digits = []
    value = 0.0
    for k in range(n):
        for c in range(base.alphabet(k), -1, -1):
            v = value + c / prods[k + 1]
            if v <= x:
                digits.append(c)
                value = v
                break
        else:
            raise DomainError(f"no admissible tuple below x={x!r}")
    return TupleSearchResult(tuple(digits), value)


def lex_least(base: AlternateBase, x: float, n: int) -> TupleSearchResult:
    """Lexicographically least tuple whose maximal continuation reaches x.

    Ascending depth-first enumeration; a prefix is viable only while its
    value plus the all-maximal tail is still >= x.
    """
    if not (0.0 < x <= base.xmax[0] + EPS_SNAP):
        raise DomainError(f"x={x!r} outside (0, xmax]")
    n = _digit_count(n)
    check_enumeration_bound(base, n, f"{n}-digit enumeration")
    prods = _prefix_products(base, n)
    digits = [0] * n
    values = [0.0] * (n + 1)

    def descend(k: int, acc: float) -> bool:
        if k == n:
            return True
        for c in range(base.alphabet(k) + 1):
            v = acc + c / prods[k + 1]
            if v + base.xsup(k + 1) / prods[k + 1] >= x:
                digits[k] = c
                values[k + 1] = v
                if descend(k + 1, v):
                    return True
        return False

    if not descend(0, 0.0):
        raise DomainError(f"no admissible tuple reaching x={x!r}")
    return TupleSearchResult(tuple(digits), values[n])


_BELOW_ONE = math.nextafter(1.0, 0.0)


def _dither_blocks(seed: int) -> Iterator[list[float]]:
    """Successive ``SplitMix64(seed).uniform(-DITHER_AMPLITUDE, DITHER_AMPLITUDE)``
    draws, ``_DITHER_BLOCK`` at a time.

    Array arithmetic on uint64 wraps modulo 2**64 like the masked Python
    integers of :class:`SplitMix64`, and the float steps are the same IEEE
    operations in the same order, so the draws are identical bit for bit.
    """
    import numpy as np  # imported here so that numpy-free commands start faster

    u64 = np.uint64
    # counter offsets 1..B times the splitmix64 increment, wrapped mod 2**64
    offsets = np.arange(1, _DITHER_BLOCK + 1, dtype=u64) * u64(SplitMix64._GAMMA)
    lo, hi = -DITHER_AMPLITUDE, DITHER_AMPLITUDE
    state = u64(seed)
    while True:
        z = state + offsets
        state = z[-1]
        z ^= z >> u64(30)
        z *= u64(SplitMix64._MIX1)
        z ^= z >> u64(27)
        z *= u64(SplitMix64._MIX2)
        z ^= z >> u64(31)
        yield (lo + (z >> u64(11)) * 2.0**-53 * (hi - lo)).tolist()


def _orbit_tally(
    base: AlternateBase, x0: float, steps: int, digit: int, slot: int, bins: int
) -> tuple[int, list[int]]:
    """``steps`` steps of the dithered greedy orbit of (0, x0): how many digits
    equal ``digit``, and the ``bins``-bin histogram over [0,1) of the points
    seen at ``slot`` (-1 for either: no digit is negative, no slot is -1).

    The restricted transformation on [0,1); each step's point is clamped
    back into [0,1) after the dither is added.
    """
    (bits,) = struct.unpack("<Q", struct.pack("<d", x0))
    dither = chain.from_iterable(_dither_blocks(bits ^ _DITHER_SALT))
    at_slot = [i == slot for i in range(base.p)]
    per_slot = tuple(zip(base.betas, map(float, base.alphabets), at_slot))
    counts = [0] * bins
    hits = 0
    eps, below_one, fbins = EPS_SNAP, _BELOW_ONE, float(bins)
    # float == float is the fastest compare; no digit above every alphabet is ever hit
    digit = float(min(digit, max(base.alphabets) + 1))
    x = x0
    for (beta, top, seen), u in zip(islice(cycle(per_slot), steps), dither):
        if seen:
            k = int(x * fbins)
            if k >= bins:
                k = bins - 1
            counts[k] += 1
        # core._greedy_loop's digit rule inlined (a call costs 12-18% per step) as a
        # float floor: for y >= 0 it has the value of int(y + eps), and alphabets
        # below 2**53 are exact floats, so y - d and d == digit are unchanged
        y = beta * x
        d = (y + eps) // 1.0
        if d > top:
            d = top
        if d == digit:
            hits += 1
        x = y - d + u
        if x < 0.0:
            x = 0.0
        elif x >= 1.0:
            x = below_one
    return hits, counts


def birkhoff_frequency(
    base: AlternateBase,
    x0: Optional[float],
    digit: int,
    N: int,
    seed: int = 0,
) -> float:
    """Fraction of the first N greedy digits of x0 equal to ``digit``.

    The orbit carries the one-ulp dither described above, so the result
    approximates the almost-sure frequency even for integer bases.  With
    ``x0=None`` a uniform random starting point is drawn from the splitmix64
    stream for ``seed``; the seed plays no other role.  Deterministic starts
    should be generic; sqrt(2) - 1 is a reasonable default.
    """
    if not isinstance(digit, Integral):
        raise AlphabetError(f"digit {digit!r} is not an integer")
    if digit < 0:
        raise DomainError("digits are nonnegative")
    N = operator.index(N)  # a float count raises TypeError, as range(n) does
    if N < 1:
        raise DomainError("N must be positive")
    if x0 is None:
        x0 = SplitMix64(seed).uniform()
    if not (0.0 <= x0 < 1.0):
        raise DomainError(f"starting point {x0!r} outside [0,1)")
    return _orbit_tally(base, x0, N, int(digit), -1, 0)[0] / N


class EmpiricalStats(_Record):
    __slots__ = ("counts", "iterations", "start")
    counts: tuple[int, ...]
    iterations: int
    start: StatePoint


def empirical_histogram(
    base: AlternateBase,
    slot: int,
    x0: float,
    N: int,
    bins: int,
) -> EmpiricalStats:
    """Histogram over [0,1) of the orbit values seen at one slot.

    Collects the N values the greedy orbit of (0, x0) takes at steps
    congruent to ``slot`` modulo the period, binned uniformly.
    """
    N, slot, bins = operator.index(N), operator.index(slot), operator.index(bins)
    if N < 0:
        raise DomainError("N must be non-negative")
    if not (0.0 <= x0 < 1.0):
        raise DomainError(f"starting point {x0!r} outside [0,1)")
    if bins < 1:
        raise DomainError("need at least one bin")
    if not (0 <= slot < base.p):
        raise DomainError(f"slot {slot} outside [0, {base.p})")
    check_size(bins, "the histogram", "bin ")
    counts = _orbit_tally(base, x0, slot + N * base.p, -1, slot, bins)[1]
    return EmpiricalStats(tuple(counts), N, StatePoint(0, x0))
