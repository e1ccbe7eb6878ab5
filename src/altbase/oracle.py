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
from dataclasses import dataclass
from itertools import chain, cycle, islice
from operator import countOf, itemgetter
from typing import Iterator, Optional

from .core import EPS_SNAP, AlternateBase, StatePoint
from .errors import DomainError, SearchTooLarge

ENUMERATION_BOUND = 10**7

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

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] by rejection."""
        span = hi - lo + 1
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            u = self.next_u64()
            if u < limit:
                return lo + u % span


@dataclass(frozen=True)
class TupleSearchResult:
    digits: tuple[int, ...]
    value: float


def check_enumeration_bound(base: AlternateBase, n: int, what: str) -> None:
    """Raise SearchTooLarge if positions 0..n-1 have over ENUMERATION_BOUND digit tuples."""
    total = 1
    for k in range(n):
        total *= base.alphabet(k) + 1
        if total > ENUMERATION_BOUND:
            raise SearchTooLarge(f"{what} enumeration exceeds the {ENUMERATION_BOUND:.0e} bound")


def _prefix_products(base: AlternateBase, n: int) -> list[float]:
    prods = [1.0]
    for k in range(n):
        prods.append(prods[-1] * base.beta(k))
    return prods


def lex_greatest(base: AlternateBase, x: float, n: int) -> TupleSearchResult:
    """Lexicographically greatest digit tuple whose value stays <= x.

    Descending depth-first enumeration; a prefix is abandoned as soon as its
    own value (its cheapest completion) already exceeds x.
    """
    if not (-EPS_SNAP <= x <= base.xmax[0] + EPS_SNAP):
        raise DomainError(f"x={x!r} outside [0, xmax)")
    check_enumeration_bound(base, n, f"{n}-digit")
    prods = _prefix_products(base, n)
    digits = [0] * n
    values = [0.0] * (n + 1)

    def descend(k: int, acc: float) -> bool:
        if k == n:
            return True
        for c in range(base.alphabet(k), -1, -1):
            v = acc + c / prods[k + 1]
            if v <= x:
                digits[k] = c
                values[k + 1] = v
                if descend(k + 1, v):
                    return True
        return False

    if not descend(0, 0.0):
        raise DomainError(f"no admissible tuple below x={x!r}")
    return TupleSearchResult(tuple(digits), values[n])


def lex_least(base: AlternateBase, x: float, n: int) -> TupleSearchResult:
    """Lexicographically least tuple whose maximal continuation reaches x.

    Ascending depth-first enumeration; a prefix is viable only while its
    value plus the all-maximal tail is still >= x.
    """
    if not (0.0 < x <= base.xmax[0] + EPS_SNAP):
        raise DomainError(f"x={x!r} outside (0, xmax]")
    check_enumeration_bound(base, n, f"{n}-digit")
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


def _greedy_orbit(base: AlternateBase, x0: float) -> Iterator[tuple[int, float, int]]:
    """The dithered greedy orbit of (0, x0): ``(slot, x, digit)`` forever.

    The restricted transformation on [0,1); each step's point is clamped
    back into [0,1) after the dither is added.
    """
    (bits,) = struct.unpack("<Q", struct.pack("<d", x0))
    dither = chain.from_iterable(_dither_blocks(bits ^ _DITHER_SALT))
    slots = cycle(tuple(zip(range(base.p), base.betas, base.alphabets)))
    x = x0
    for (i, beta, top), u in zip(slots, dither):
        # the digit rule of core._greedy_loop inlined: a call here costs 12-18%
        # per step (1e5-step orbits on sqrt13, 2-vCPU Xeon VM)
        y = beta * x
        d = int(y + EPS_SNAP)
        if d > top:
            d = top
        yield i, x, d
        x = y - d + u
        if x < 0.0:
            x = 0.0
        elif x >= 1.0:
            x = _BELOW_ONE


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
    N = operator.index(N)  # a float count raises TypeError, as range(n) does
    if N < 1:
        raise DomainError("N must be positive")
    if x0 is None:
        x0 = SplitMix64(seed).uniform()
    if not (0.0 <= x0 < 1.0):
        raise DomainError(f"starting point {x0!r} outside [0,1)")
    digits = map(itemgetter(2), islice(_greedy_orbit(base, x0), N))
    return countOf(digits, digit) / N


@dataclass(frozen=True)
class EmpiricalStats:
    counts: tuple[int, ...]
    iterations: int
    seed: Optional[int]
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
    N = operator.index(N)
    if N < 0:
        raise DomainError("N must be non-negative")
    if not (0.0 <= x0 < 1.0):
        raise DomainError(f"starting point {x0!r} outside [0,1)")
    if bins < 1:
        raise DomainError("need at least one bin")
    if not (0 <= slot < base.p):
        raise DomainError(f"slot {slot} outside [0, {base.p})")
    counts = [0] * bins
    p = base.p
    for _, x, _ in islice(_greedy_orbit(base, x0), slot, slot + N * p, p):
        k = int(x * bins)
        if k >= bins:
            k = bins - 1
        counts[k] += 1
    return EmpiricalStats(tuple(counts), N, None, StatePoint(0, x0))
