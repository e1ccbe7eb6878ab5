"""Plain reference versions of fast library paths, for equality tests.

Each one is the straightforward scalar loop: exhaustive tuple enumeration
for the pruned lexicographic searches, and one SplitMix64 draw per step for
the dithered orbit statistics, and one masked numpy sum per entry of the
density's correction matrix.  The sorted-key lookups of altbase.measure are
given in their numpy.searchsorted form.
"""

import math
import struct

import numpy as np

from altbase.core import EPS_SNAP
from altbase.errors import DomainError
from altbase.measure import EPS_GEO
from altbase.oracle import (
    _DITHER_SALT,
    DITHER_AMPLITUDE,
    SplitMix64,
    TupleSearchResult,
    _prefix_products,
)


def _enumerate_naive(base, n):
    """All digit tuples with their values, in lexicographic order."""
    prods = _prefix_products(base, n)

    def rec(k, prefix, acc):
        if k == n:
            yield prefix, acc
            return
        for c in range(base.alphabet(k) + 1):
            yield from rec(k + 1, prefix + (c,), acc + c / prods[k + 1])

    yield from rec(0, (), 0.0)


def lex_greatest_naive(base, x, n):
    best = None
    for digits, v in _enumerate_naive(base, n):
        if v <= x:
            best = (digits, v)  # lex order of enumeration makes the last hit greatest
    if best is None:
        raise DomainError(f"no admissible tuple below x={x!r}")
    return TupleSearchResult(*best)


def lex_least_naive(base, x, n):
    tail = base.xsup(n) / _prefix_products(base, n)[n]
    for digits, v in _enumerate_naive(base, n):
        if v + tail >= x:
            return TupleSearchResult(digits, v)
    raise DomainError(f"no admissible tuple reaching x={x!r}")


def _dither_stream(x0):
    (bits,) = struct.unpack("<Q", struct.pack("<d", x0))
    return SplitMix64(bits ^ _DITHER_SALT)


def _step(base, i, x, uniform):
    """One dithered greedy step at slot i: (digit, next point)."""
    y = base.betas[i] * x
    d = int(y + EPS_SNAP)
    if d > base.alphabets[i]:
        d = base.alphabets[i]
    x = y - d + uniform(-DITHER_AMPLITUDE, DITHER_AMPLITUDE)
    if x < 0.0:
        x = 0.0
    elif x >= 1.0:
        x = math.nextafter(1.0, 0.0)
    return d, x


def birkhoff_frequency_reference(base, x0, digit, N, seed=0):
    if x0 is None:
        x0 = SplitMix64(seed).uniform()
    uniform = _dither_stream(x0).uniform
    x = x0
    count = 0
    for n in range(N):
        d, x = _step(base, n % base.p, x, uniform)
        if d == digit:
            count += 1
    return count / N


def empirical_histogram_reference(base, slot, x0, N, bins):
    uniform = _dither_stream(x0).uniform
    counts = [0] * bins
    x = x0
    i = 0
    remaining = N
    while remaining > 0:
        if i == slot:
            counts[min(int(x * bins), bins - 1)] += 1
            remaining -= 1
        _, x = _step(base, i, x, uniform)
        i = (i + 1) % base.p
    return tuple(counts)


def branch_of_reference(map_, x):
    k = int(np.searchsorted(map_.endpoints, x, side="right")) - 1
    return min(max(k, 0), map_.branch_count - 1)


def left_limit_reference(map_, x):
    k = int(np.searchsorted(map_.endpoints, x, side="left")) - 1
    k = min(max(k, 0), map_.branch_count - 1)
    return map_.slope * (x - map_.endpoints[k])


def snap_to_breakpoints_reference(x, endpoints):
    k = int(np.searchsorted(endpoints, x, side="left"))
    for j in (k - 1, k):
        if 0 <= j < len(endpoints) and abs(endpoints[j] - x) <= EPS_GEO:
            return endpoints[j]
    return x


def density_eval_reference(spec, x):
    total = spec.d[0]
    k = int(np.searchsorted(spec.thresholds, x, side="left"))
    for w in spec.weights[k:]:
        total += w
    return total / spec.C


def measure_interval_reference(spec, a, b):
    total = spec.d[0] * (b - a)
    k = int(np.searchsorted(spec.thresholds, a, side="right"))
    for t, w in zip(spec.thresholds[k:], spec.weights[k:]):
        total += w * (min(t, b) - a)
    return total / spec.C


def correction_matrix_reference(orbits, cs, B, M):
    """S[i, j] = sum of B^-(m+1) over the orbit points orbits[i][m] above cs[j]."""
    powers = B ** -np.arange(1, M + 1)
    S = np.zeros((len(cs), len(cs)))
    for i, orbit in enumerate(orbits):
        hits = np.asarray(orbit)
        for j, c in enumerate(cs):
            S[i, j] = float(powers[hits > c].sum())
    return S
