"""Blocked digit sets and single-base expansions over general digits.

Blocking one period of an alternate-base expansion into a single digit
turns it into a representation in the product base over the digit set
formed by the weighted digit blocks.  This module builds that digit set,
checks the maximal-gap condition that makes a digit set usable, implements
the greedy and lazy single-base transformations over a general digit set,
and decides where the blocked transformation disagrees with one period of
the alternate-base dynamics.
"""

from __future__ import annotations

import bisect
import math
from numbers import Integral
from operator import lt, sub
from typing import Sequence

from .core import EPS_SNAP, AlternateBase, _greedy_loop, _Record, check_enumeration_bound
from .errors import AlphabetError, DomainError, NotAllowable

# collisions of distinct digit blocks are exact in theory but inexact in
# floats; values this close (relative to the top digit) are merged
DEDUP_REL = 1e-9
AGREE_TOL = 1e-9
MIN_CELL = 1e-12
# a largest gap equal to top/(beta-1) in exact arithmetic may exceed it by rounding
GAP_SLACK = 1e-12
# compare_transforms decides a cell from its greedy cylinder only if the cell is wider
# than this (times the largest xmax, at least 1), so that no snap, cap or rounding of a
# period step can act at its midpoint, and if the cylinder-to-digit gap lies farther than
# this margin (times max(1, B) and that xmax) from the tolerance, beyond any rounding of
# the two images; either bound only picks the path, never the result
WALK_MIN_WIDTH = 1e-9
WALK_MARGIN = 1e-12


class DigitSet(_Record):
    """Strictly ascending digits starting at 0, paired with the base beta."""

    __slots__ = ("digits", "beta")
    digits: tuple[float, ...]
    beta: float

    def _check(self) -> None:
        ds = self.digits
        if len(ds) < 2 or ds[0] != 0.0 or not all(map(lt, ds, ds[1:])):
            raise AlphabetError("a digit set needs two or more digits, ascending strictly from 0.0")
        if not 1.0 < self.beta < math.inf:
            raise DomainError(f"digit set base {self.beta!r} is not a finite real > 1")

    @property
    def top(self) -> float:
        return self.digits[-1]

    @property
    def xsup(self) -> float:
        """Supremum of values representable over these digits."""
        return self.top / (self.beta - 1.0)


def f_beta(base: AlternateBase, digits: Sequence[int]) -> float:
    """Weight of one digit block: sum of c_i times the product of later bases."""
    p = base.p
    if len(digits) != p:
        raise AlphabetError(f"expected {p} digits, got {len(digits)}")
    total = 0.0
    weight = 1.0
    for i in range(p - 1, -1, -1):
        c = digits[i]
        if not isinstance(c, Integral):
            raise AlphabetError(f"digit {c!r} at slot {i} is not an integer")
        if not (0 <= c <= base.alphabets[i]):
            raise AlphabetError(f"digit {c} at slot {i} exceeds bound {base.alphabets[i]}")
        total += c * weight
        weight *= base.betas[i]
    return total


def _all_block_values(base: AlternateBase) -> list[float]:
    """f-values of every digit block, in lexicographic block order."""
    check_enumeration_bound(base, base.p, "digit-block enumeration")
    # slot i steps by c * (product of bases i+1 .. p-1); each slot's table is built once
    steps = []
    w = 1.0
    for beta, m in zip(reversed(base.betas), reversed(base.alphabets)):
        steps.append([c * w for c in range(m + 1)])
        w *= beta
    values = [0.0]
    for table in reversed(steps):
        values = [v + s for v in values for s in table]
    return values


def delta_set(base: AlternateBase) -> DigitSet:
    """The sorted, deduplicated set of digit-block weights, over the product base."""
    return _digit_set(base, _all_block_values(base))


def _digit_set(base: AlternateBase, block_values: list[float]) -> DigitSet:
    """delta_set from the block values already enumerated."""
    vals = sorted(block_values)
    tol = DEDUP_REL * max(1.0, vals[-1])
    if min(map(sub, vals[1:], vals)) > tol:
        return DigitSet(tuple(vals), base.product)
    merged = [0.0]
    for v in vals[1:]:
        if v - merged[-1] > tol:
            merged.append(v)
    return DigitSet(tuple(merged), base.product)


def is_allowable(ds: DigitSet) -> bool:
    """Maximal-gap condition: every consecutive gap at most top/(beta-1)."""
    gap = max(b - a for a, b in zip(ds.digits, ds.digits[1:]))
    return gap <= ds.xsup + GAP_SLACK


def tilde(ds: DigitSet) -> DigitSet:
    """Mirror image {top - d}; an involution, and allowability-preserving."""
    return DigitSet(tuple(sorted(ds.top - d for d in ds.digits)), ds.beta)


def _check_delta_domain(ds: DigitSet, x: float, open_left: bool) -> float:
    hi = ds.xsup
    if not (-EPS_SNAP <= x <= hi + EPS_SNAP):
        raise DomainError(f"{x!r} outside the expansion domain [0, {hi!r})")
    if open_left and x <= 0.0:
        raise DomainError("lazy expansions need a positive value")
    return min(max(x, 0.0), hi)


def _require_allowable(ds: DigitSet) -> None:
    if not is_allowable(ds):
        raise NotAllowable("digit set violates the maximal-gap condition")


def greedy_delta_step(ds: DigitSet, x: float) -> tuple[float, float]:
    """Greedy step over a digit set: subtract the largest digit below beta*x."""
    _require_allowable(ds)
    x = _check_delta_domain(ds, x, open_left=False)
    y = ds.beta * x
    k = bisect.bisect_right(ds.digits, y + EPS_SNAP) - 1
    d = ds.digits[max(k, 0)]
    r = y - d
    if r < 0.0:
        r = 0.0  # the snapped digit may exceed y by a hair more than EPS_SNAP
    return r, d


def lazy_delta_step(ds: DigitSet, x: float) -> tuple[float, float]:
    """Lazy step: subtract the least digit whose maximal tail still reaches x."""
    _require_allowable(ds)
    x = _check_delta_domain(ds, x, open_left=True)
    z = ds.beta * x - ds.xsup
    k = bisect.bisect_left(ds.digits, z - EPS_SNAP)
    d = ds.digits[min(k, len(ds.digits) - 1)]
    return ds.beta * x - d, d


def nondecreasing_by_criterion(base: AlternateBase) -> bool:
    """Closed-form test for monotonicity of the block-weight map.

    The map respects lexicographic block order exactly when, for every cut
    position j in 1..p-2, the all-maximal weight of the suffix from j does
    not exceed the weight of a bare increment at j.  Periods of one or two
    have nothing to check.
    """
    p = base.p
    lhs = 0.0
    weight = 1.0
    for j in range(p - 1, 0, -1):
        lhs += base.alphabets[j] * weight
        weight *= base.betas[j]  # product of bases j .. p-1, the increment at j
        if j < p - 1 and lhs > weight + AGREE_TOL:
            return False
    return True


class Witness(_Record):
    __slots__ = ("x", "delta_image", "composed_image")
    x: float
    delta_image: float
    composed_image: float


class DisagreementReport(_Record):
    """Where the blocked transformation undercuts one period of the dynamics.

    ``intervals`` are maximal half-open stretches of the common domain on
    which the two maps differ; each carries one sampled witness with both
    images.  An empty report means the maps coincide.
    """

    __slots__ = ("intervals", "witnesses")
    intervals: tuple[tuple[float, float], ...]
    witnesses: tuple[Witness, ...]

    def __bool__(self) -> bool:
        return bool(self.intervals)


def _suffix_min_values(values: list[float]) -> list[float]:
    """Values that are strictly smaller than everything lexicographically later."""
    out = []
    running = math.inf
    for v in reversed(values):
        if v < running:
            out.append(v)
            running = v
    out.reverse()
    return out


def compare_transforms(base: AlternateBase) -> DisagreementReport:
    """Detect where the blocked greedy map differs from one greedy period.

    Both maps are affine with the same slope between breakpoints, so it is
    enough to merge the two exact breakpoint grids and compare the maps at
    one midpoint per cell.  Disagreeing cells are coalesced into maximal
    intervals; slivers below 1e-12 are numerical artifacts and dropped.

    One greedy period subtracts the lexicographically greatest block of
    value at most B*x, that is the largest cylinder start (suffix-minimal
    block value) v at most B*x, and the blocked map the largest digit d, so
    a cell agrees iff |v - d| <= AGREE_TOL*max(1, B).  The images are
    computed only for witnesses and where WALK_MIN_WIDTH or WALK_MARGIN
    leaves the computed decision in doubt.
    """
    block_values = _all_block_values(base)
    ds = _digit_set(base, block_values)
    _require_allowable(ds)
    B = base.product
    xb = base.xmax[0]
    starts = _suffix_min_values(block_values)
    cuts = {0.0, xb}
    cuts.update(d / B for d in ds.digits)
    cuts.update(v / B for v in starts)
    grid = sorted(c for c in cuts if -EPS_SNAP <= c < xb - MIN_CELL)
    grid.append(xb)
    # every midpoint lies in [0, xb] within [0, xsup], so neither step clamps it, and as the
    # midpoints ascend the indices of the largest digit <= B*mid + EPS_SNAP and of the
    # largest cylinder start <= B*mid (starts[0] is the zero block) only move forward
    xm = base.xmax
    period = list(zip(base.betas, base.alphabets, xm[1:] + xm[:1]))
    digits = ds.digits + (math.inf,)
    starts.append(math.inf)
    k = j = 0
    tol = AGREE_TOL * max(1.0, B)
    scale = max(1.0, max(xm))
    wide = WALK_MIN_WIDTH * scale
    margin = WALK_MARGIN * max(1.0, B) * scale

    intervals: list[list[float]] = []
    witnesses: list[Witness] = []
    for lo, hi in zip(grid, grid[1:]):
        if hi - lo < MIN_CELL:
            continue
        mid = 0.5 * (lo + hi)
        y = B * mid
        v = y + EPS_SNAP
        while digits[k + 1] <= v:
            k += 1
        while starts[j + 1] <= y:
            j += 1
        gap = abs(starts[j] - digits[k])
        if hi - lo > wide and abs(gap - tol) > margin:  # the walk is sure of the decision
            if gap <= tol:
                continue
            if intervals and abs(intervals[-1][1] - lo) <= MIN_CELL:
                intervals[-1][1] = hi
                continue
        delta_img = y - digits[k]
        if delta_img < 0.0:
            delta_img = 0.0  # the snapped digit may exceed y by a hair more than EPS_SNAP
        _, comp_img = _greedy_loop(period, mid)
        if abs(delta_img - comp_img) <= tol:
            continue
        if intervals and abs(intervals[-1][1] - lo) <= MIN_CELL:
            intervals[-1][1] = hi
        else:
            intervals.append([lo, hi])
            witnesses.append(Witness(mid, delta_img, comp_img))
    return DisagreementReport(
        tuple((lo, hi) for lo, hi in intervals),
        tuple(witnesses),
    )


def compare_transforms_lazy(base: AlternateBase) -> DisagreementReport:
    """Disagreement of the lazy pair, by conjugation through the reflection.

    The blocked digit set is mirror symmetric, so reflecting the greedy
    disagreement through x -> xsup - x gives exactly the stretches where the
    lazy maps differ; witnesses are conjugated the same way.
    """
    greedy = compare_transforms(base)
    xb = base.xmax[0]
    intervals = tuple(sorted((xb - hi, xb - lo) for lo, hi in greedy.intervals))
    witnesses = tuple(
        Witness(xb - w.x, xb - w.delta_image, xb - w.composed_image)
        for w in reversed(greedy.witnesses)
    )
    return DisagreementReport(intervals, witnesses)
