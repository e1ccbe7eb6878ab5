"""Invariant densities of composed expanding maps and derived statistics.

One period of the greedy dynamics, watched from a fixed slot, is a
piecewise-linear expanding map of the unit interval with constant slope
(the product of the bases) whose branches all start at height zero.  Its
unique absolutely continuous invariant density is a finite combination of
indicator steps built from the forward orbits of the endpoints of the
branches that do not reach height one.  This module constructs that map by
breakpoint refinement, evaluates the density in closed form, integrates it
over intervals, and uses it for digit frequencies.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from itertools import cycle, islice, pairwise
from numbers import Integral

from .core import AlternateBase, _Record, check_size
from .errors import AlphabetError, DomainError, SingularSystem, TruncationTooShallow

# branch images within this distance of the codomain top count as onto, and
# orbit points this close to a breakpoint are pulled onto it (left limits)
EPS_GEO = 1e-9
SERIES_TAIL = 1e-15
# pulled-back breakpoints this close to the last one or the branch end are that point
MERGE_GAP = 1e-14
# Id - S with a larger 1-norm condition number gives no trustworthy weights; it is read
# off the weight solve when the weights are positive, else from np.linalg.cond
COND_MAX = 1e10
# rounding in S, M terms each off by 2^-53, moves the weights by up to max(y) |S|_1 M 2^-53
# relative; above this bound they are noise (K = 1 has cond 1, so COND_MAX cannot see it)
FORWARD_ERROR_MAX = 1e-4


class PiecewiseLinearMap(_Record):
    """Constant-slope map of [0,1) with branches x -> slope * (x - a_k) on [a_k, a_{k+1}).

    ``endpoints`` holds a_0 = 0 < a_1 < ... < a_K = 1, so branch k lives
    between endpoints k and k+1.  Every branch width is at most 1/slope,
    which keeps the family closed under composition.
    """

    __slots__ = ("endpoints", "slope")
    endpoints: tuple[float, ...]
    slope: float

    def _check(self) -> None:
        # the bisect lookups need strictly ascending endpoints; branch widths go unchecked
        e = self.endpoints
        ends_ok = len(e) >= 2 and e[0] == 0.0 and e[-1] == 1.0
        if not (ends_ok and all(map(operator.lt, e, e[1:])) and 1.0 < self.slope < math.inf):
            raise DomainError(
                "need endpoints ascending strictly from 0.0 to 1.0 and a finite"
                f" slope above 1, got {e!r} and {self.slope!r}"
            )

    @property
    def branch_count(self) -> int:
        return len(self.endpoints) - 1

    def branch_of(self, x: float) -> int:
        k = bisect_right(self.endpoints, x) - 1
        return min(max(k, 0), self.branch_count - 1)

    def branch_image_top(self, k: int) -> float:
        return self.slope * (self.endpoints[k + 1] - self.endpoints[k])

    def __call__(self, x: float) -> float:
        if not (0.0 <= x < 1.0):
            raise DomainError(f"{x!r} outside [0, 1)")
        return self.slope * (x - self.endpoints[self.branch_of(x)])


def compose_map(base: AlternateBase, slot: int) -> PiecewiseLinearMap:
    """One full period of the greedy dynamics as seen from ``slot``.

    The returned map applies the base of ``slot`` first and the base of
    ``slot + p - 1`` last, acting on [0,1) with slope equal to the period
    product.  Each later base refines the partition so far: its cuts, pulled
    back through the slope s so far, split every branch they fall inside.
    """
    p = base.p
    if not (0 <= slot < p):
        raise DomainError(f"slot {slot} outside [0, {p})")
    # branches grow like the slope product, not the digit-block count: bound cuts and passes
    check_size(max(base.alphabets) + 1, "composed-map branch count")
    s = base.betas[slot]
    # the first base's cuts k / beta, then 1
    pts = [k / s for k in range(base.alphabets[slot] + 1)] + [1.0]
    for j in range(1, p):
        b, m = base.beta(slot + j), base.alphabet(slot + j)
        check_size(len(pts) * (m + 1), "composed-map branch count")
        cuts = [k / b for k in range(1, m + 1)]
        refined: list[float] = []
        for lo, hi in zip(pts, pts[1:]):
            refined.append(lo)
            for bl in cuts:
                q = lo + bl / s
                if q >= hi - MERGE_GAP:
                    break
                if q - refined[-1] > MERGE_GAP:
                    refined.append(q)
        refined.append(1.0)
        pts = refined
        s *= b
    return PiecewiseLinearMap(tuple(pts), s)


class DensitySpec(_Record):
    """Closed-form invariant density of a constant-slope branch-zero map.

    The density is (1/C) * (d[0] + sum_j d[j] * sum_m chi_[0, orbit[j-1][m-1]]
    / B^m), truncated at depth M.  ``thresholds``/``weights`` hold the same
    data flattened and sorted for evaluation: the density at x is
    (d[0] + sum of weights with threshold >= x) / C.  The K x K correction
    matrix S that gives ``d`` is a step of the build and is not kept; it
    follows from ``orbit``, ``c``, ``B`` and ``M``.
    """

    __slots__ = ("K", "c", "orbit", "d", "C", "B", "M", "thresholds", "weights")
    K: int
    c: tuple[float, ...]
    orbit: tuple[tuple[float, ...], ...]
    d: tuple[float, ...]
    C: float
    B: float
    M: int
    thresholds: tuple[float, ...]
    weights: tuple[float, ...]


def default_truncation(B: float) -> int:
    """The least M >= 15 ln 10 / ln B with B^-M <= SERIES_TAIL * (B - 1), from its closed form."""
    log_b, tail = math.log(B), SERIES_TAIL * (B - 1.0)
    M = max(math.ceil(15.0 * math.log(10.0) / log_b), math.ceil(-math.log(tail) / log_b) - 2)
    while B ** (-M) > tail:
        M += 1
    return M


def _endpoint_orbits(map_: PiecewiseLinearMap, cs: list[float], M: int) -> list[tuple[float, ...]]:
    """The first M points of the orbit of each cut, left limits at breakpoints.

    A point within EPS_GEO of a breakpoint is pulled onto it, the lower
    neighbour first, by one bisect_left; a point on no breakpoint steps by its
    branch formula.  From breakpoint k the orbit goes on at the image top of
    the branch ending at down[k], the lower one of two within EPS_GEO.  So the
    points after a snap onto k depend on k alone, and an orbit that snaps onto
    a breakpoint it met before (its cut's breakpoint counts as met before the
    first point) has closed a cycle: the rest of its M points are copied from
    the stretch since the first visit.
    """
    e = map_.endpoints
    n = len(e)
    s = map_.slope
    # lo[k] = e[branch_of(y)] for a y on no breakpoint, with k = bisect_left(e, y)
    lo = (e[0],) + e[:-1] + (e[-2],)
    down = [k - 1 if k and e[k] - e[k - 1] <= EPS_GEO else k for k in range(n)]
    nxt = [s * (e[j] - e[j - 1]) if j else 0.0 for j in down]
    orbits = []
    for c in cs:
        k = bisect_left(e, c)  # every cut is a breakpoint
        y = nxt[k]
        # where the points after each snapped breakpoint begin
        start = {k: 0}
        orb = []
        for _ in range(M):
            k = bisect_left(e, y)
            if k and abs(e[k - 1] - y) <= EPS_GEO:
                k -= 1
            elif k == n or not abs(e[k] - y) <= EPS_GEO:
                orb.append(y)
                y = s * (y - lo[k])
                continue
            orb.append(e[k])
            if k in start:
                orb += islice(cycle(orb[start[k]:]), M - len(orb))
                break
            start[k] = len(orb)
            y = nxt[k]
        orbits.append(tuple(orb))
    return orbits


def gora_density(map_: PiecewiseLinearMap, M: int | None = None) -> DensitySpec:
    """Invariant density data for a map produced by :func:`compose_map`.

    Branches whose image stops short of the codomain top contribute their
    right endpoint c_j; the truncated geometric series over the forward
    orbit of each c_j (left limits at breakpoints) yields the correction
    matrix S, the weights d and the normalization C; S is not kept.  A map
    with only onto branches has the constant density 1.  Weights y > 0 from
    (Id - S)^T y = 1 give the condition number without an inverse;
    np.linalg.cond decides otherwise.  Weights that rounding in S could move
    by more than FORWARD_ERROR_MAX raise, whatever the condition number.
    """
    B = map_.slope
    if M is None:
        M = default_truncation(B)
    if M < 1:
        raise DomainError("truncation depth must be positive")
    if B ** (-M) > SERIES_TAIL * (B - 1.0):
        raise TruncationTooShallow(
            f"depth {M} leaves a geometric tail above {SERIES_TAIL:g} for slope {B!r}"
        )
    cs = [hi for lo, hi in pairwise(map_.endpoints) if B * (hi - lo) < 1.0 - EPS_GEO]
    K = len(cs)
    if K == 0:
        return DensitySpec(0, (), (), (1.0,), 1.0, B, M, (), ())
    # S, turned into Id - S in place, and LAPACK's copy of it (80 MB each at the bound),
    # then the K x M endpoint-orbit table
    check_size(K * K, "the K x K correction matrix", "entry ")
    check_size(K * M, "the K x M endpoint-orbit table", "entry ")

    orbits = _endpoint_orbits(map_, cs, M)

    import numpy as np  # imported here so that numpy-free commands start faster

    H = np.array(orbits)
    powers = B ** np.arange(-1.0, -M - 0.5, -1.0)
    S = _correction_matrix(H, cs, powers)
    s_norm = np.maximum.reduce(np.add.reduce(S, axis=0))  # |S|_1, as S >= 0
    # Id - S in the buffer of S, the bits of np.eye(K) - S (signed zeros too)
    A = np.subtract(0.0, S, out=S)
    A.reshape(-1)[:: K + 1] += 1.0
    try:
        y = np.linalg.solve(A.T, np.ones(K))
    except np.linalg.LinAlgError:
        cond = err = math.inf
    else:
        y_max = np.maximum.reduce(y)  # ufunc reductions skip the ndarray.max/min/sum wrappers
        err = y_max * s_norm * M * 2.0**-53
        # y > 0 makes the Z-matrix A an M-matrix with A^-1 >= 0, so |A^-1|_1 = max(y) (NaN fails)
        if np.minimum.reduce(y) > 0.0:
            cond = np.maximum.reduce(np.add.reduce(np.abs(A, out=A), axis=0)) * y_max
        else:
            cond = np.linalg.cond(A, 1)
    if cond > COND_MAX:
        raise SingularSystem("Id - S is singular or too ill-conditioned")
    if err > FORWARD_ERROR_MAX:
        raise SingularSystem(f"rounding in S may move the weights by {err:.3g} relative")
    dtail = y.tolist()

    # flattened in (j, m) order; H is clipped in place only now, S being built from the raw points
    T = np.minimum(H, 1.0, out=H).ravel()
    W = np.multiply(y[:, None], powers).ravel()  # np.multiply.outer's products, at less cost
    # argsort's default kind: another kind may put the weights of tied thresholds in another order
    order = T.argsort()
    thresholds = tuple(T.take(order).tolist())
    weights = tuple(W.take(order).tolist())
    # C adds 1 and then each W * T left to right in (j, m) order, as np.add.accumulate does in
    # W's buffer (np.sum adds pairwise, which gives other bits)
    np.multiply(W, T, out=W)
    W[0] += 1.0
    C = float(np.add.accumulate(W, out=W)[-1])
    if C <= 0.0:
        raise SingularSystem(f"normalization constant came out nonpositive ({C!r})")
    return DensitySpec(K, tuple(cs), tuple(orbits), (1.0, *dtail), C, B, M, thresholds, weights)


def _correction_matrix(H, cs, powers):
    """K x K array: S[i, j] sums powers[m] over H[i, m] > cs[j], H the K x M orbit table.

    With orbit i sorted into ``ranked`` and r the number of its points at or
    below cs[j], those are the points at or above ranked[r] (none when
    r == M).  Cuts that share a rank share the sum, so a row takes one
    masked sum per distinct rank, each the same numpy sum as a sum per
    entry would be.  The ranks come from ``sorted`` and ``bisect``, which
    load no numpy sort or search kernels that the build does not use anyway.
    """
    import numpy as np

    M = len(powers)
    S = np.empty((len(cs), len(cs)))
    for i, hits in enumerate(H):
        ranked = sorted(hits.tolist())
        row = []
        last = -1
        for c in cs:
            r = bisect_right(ranked, c)
            if r != last:
                last = r
                total = float(powers[hits >= ranked[r]].sum()) if r < M else 0.0
            row.append(total)
        S[i] = row  # one row at a time: K rows of Python floats would outweigh S
    return S


def density_eval(spec: DensitySpec, x: float) -> float:
    """Density value at x (indicators taken over closed intervals [0, t])."""
    if not (0.0 <= x < 1.0):
        raise DomainError(f"{x!r} outside [0,1)")
    total = spec.d[0]
    k = bisect_left(spec.thresholds, x)
    for w in spec.weights[k:]:
        total += w
    return total / spec.C


def _check_interval(a: float, b: float) -> None:
    """Raise DomainError unless 0 <= a <= b <= 1 (NaN fails)."""
    if not (0.0 <= a <= b <= 1.0):
        raise DomainError(f"bad interval [{a!r}, {b!r})")


def measure_interval(spec: DensitySpec, a: float, b: float) -> float:
    """Exact integral of the density over [a, b).

    A threshold t above a adds w * (min(t, b) - a): the thresholds below b
    add w * (t - a) and the rest w * (b - a), summed left to right.
    """
    _check_interval(a, b)
    ts, ws = spec.thresholds, spec.weights
    total = spec.d[0] * (b - a)
    k = bisect_right(ts, a)
    j = bisect_left(ts, b, k)
    for t, w in zip(ts[k:j], ws[k:j]):
        total += w * (t - a)
    width = b - a
    for w in ws[j:]:
        total += w * width
    return total / spec.C


def preimage(map_: PiecewiseLinearMap, a: float, b: float) -> list[tuple[float, float]]:
    """Disjoint ascending intervals mapped into [a, b) by the map."""
    _check_interval(a, b)
    e = map_.endpoints
    da = a / map_.slope
    db = b / map_.slope
    out = []
    for lo, top in zip(e, e[1:]):
        hi = lo + db
        if top < hi:
            hi = top
        lo += da
        if hi > lo:
            out.append((lo, hi))
    return out


def slot_densities(base: AlternateBase) -> tuple[DensitySpec, ...]:
    """The invariant density of every slot's period map."""
    return tuple(gora_density(compose_map(base, i)) for i in range(base.p))


def frequency(base: AlternateBase, digit: int) -> float:
    """Almost-sure frequency of a digit in greedy expansions.

    Averages, across slots, the invariant mass of the set of points that
    emit the digit at that slot.  A digit above a slot's alphabet m emits
    nowhere there; the top digit m, capped, emits on all of [m/beta, 1).
    """
    if not isinstance(digit, Integral):
        raise AlphabetError(f"digit {digit!r} is not an integer")
    if digit < 0:
        raise DomainError("digits are nonnegative")
    total = 0.0
    # only the densities of slots where the digit occurs are built
    for i, (beta, m) in enumerate(zip(base.betas, base.alphabets)):
        if digit <= m:
            hi = 1.0 if digit == m else (digit + 1) / beta
            total += measure_interval(gora_density(compose_map(base, i)), digit / beta, hi)
    return total / base.p


class IntervalMeasureQuery(_Record):
    """A per-slot interval query for the product-space measure."""

    __slots__ = ("slot", "a", "b")
    slot: int
    a: float
    b: float


def mu_product(base: AlternateBase, queries: list[IntervalMeasureQuery]) -> float:
    """Measure of a disjoint union of per-slot intervals, averaged over slots."""
    seen = set()
    for q in queries:
        if not (0 <= q.slot < base.p):
            raise DomainError(f"slot {q.slot} outside [0, {base.p})")
        if q.slot in seen:
            raise DomainError(f"duplicate slot {q.slot} in query")
        seen.add(q.slot)
        _check_interval(q.a, q.b)
    # only the queried slots' densities are built; += because sum() of floats is
    # compensated from Python 3.12 on
    total = 0.0
    for q in queries:
        total += measure_interval(gora_density(compose_map(base, q.slot)), q.a, q.b)
    return total / base.p
