"""Plain reference versions of fast library paths, for equality tests.

Each one is the straightforward scalar loop: exhaustive tuple enumeration
for the pruned lexicographic searches, and one SplitMix64 draw per step for
the dithered orbit statistics, and one masked numpy sum per entry of the
density's correction matrix.  The sorted-key lookups of altbase.measure are
given in their numpy.searchsorted form.  The endpoint orbits of the density
take one _modified_step call (two snaps by snap_to_breakpoints_reference,
three bisects) per point, and
gora_density_reference builds the whole DensitySpec around them, with its
normalisation indexed per entry.  The greedy and lazy steps are the
one-call-per-digit versions (a StatePoint per step, every state clamped and
checked, slots taken mod p) that the expansions, evaluate and the period
value behind compare_transforms must equal; greedy_digit_reference is the
one greedy digit rule they, the expansion over a base stream and the
orbit statistics inline, and the dithered reference step takes its digit
from it.
The period map is built as a chain of two-map compositions, each one a
validated map.  The monotonicity criterion is recomputed from scratch for
every cut, and orbit_of_one_density is the paper's density from the greedy
orbits of 1, an independent check of the composed-map construction.
"""

import math
import struct
from bisect import bisect_left
from numbers import Integral

import numpy as np

from altbase.core import EPS_SNAP, DigitWord, StatePoint, snap_ceil
from altbase.errors import AlphabetError, DomainError, SingularSystem, TruncationTooShallow
from altbase.digitset import AGREE_TOL
from altbase.measure import (
    COND_MAX,
    EPS_GEO,
    MERGE_GAP,
    SERIES_TAIL,
    DensitySpec,
    PiecewiseLinearMap,
    _correction_matrix,
    default_truncation,
    single_map,
)
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
    d = greedy_digit_reference(y, base.alphabets[i])
    x = y - d + uniform(-DITHER_AMPLITUDE, DITHER_AMPLITUDE)
    if x < 0.0:
        x = 0.0
    elif x >= 1.0:
        x = math.nextafter(1.0, 0.0)
    return d, x


def dithered_orbit_reference(base, x0, steps):
    """(slot, x, digit) at each of the first steps points of the dithered orbit of (0, x0)."""
    uniform = _dither_stream(x0).uniform
    out = []
    x = x0
    for n in range(steps):
        i = n % base.p
        d, nxt = _step(base, i, x, uniform)
        out.append((i, x, d))
        x = nxt
    return out


def birkhoff_frequency_reference(base, x0, digit, N, seed=0):
    if x0 is None:
        x0 = SplitMix64(seed).uniform()
    return sum(1 for _, _, d in dithered_orbit_reference(base, x0, N) if d == digit) / N


def empirical_histogram_reference(base, slot, x0, N, bins):
    counts = [0] * bins
    for i, x, _ in dithered_orbit_reference(base, x0, slot + N * base.p):
        if i == slot:
            counts[min(int(x * bins), bins - 1)] += 1
    return tuple(counts)


def branch_of_reference(map_, x):
    k = int(np.searchsorted(map_.endpoints, x, side="right")) - 1
    return min(max(k, 0), map_.branch_count - 1)


def left_limit_reference(map_, x):
    k = int(np.searchsorted(map_.endpoints, x, side="left")) - 1
    k = min(max(k, 0), map_.branch_count - 1)
    return map_.slope * (x - map_.endpoints[k])


def snap_to_breakpoints_reference(x, endpoints):
    """x pulled onto a breakpoint within EPS_GEO, the lower neighbour checked first."""
    k = bisect_left(endpoints, x)
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


def _modified_step(map_, x):
    """One orbit step with the left-limit convention at breakpoints."""
    x = snap_to_breakpoints_reference(x, map_.endpoints)
    if x in map_.endpoints and x > 0.0:
        y = map_.left_limit(x)
    else:
        y = map_.slope * (x - map_.endpoints[map_.branch_of(x)])
    return snap_to_breakpoints_reference(y, map_.endpoints)


def endpoint_orbits_reference(map_, cs, M):
    orbits = []
    for c in cs:
        x = map_.left_limit(snap_to_breakpoints_reference(c, map_.endpoints))
        x = snap_to_breakpoints_reference(x, map_.endpoints)
        orb = [x]
        for _ in range(M - 1):
            x = _modified_step(map_, x)
            orb.append(x)
        orbits.append(tuple(orb))
    return orbits


def gora_density_reference(map_, M=None):
    B = map_.slope
    if M is None:
        M = default_truncation(B)
    if M < 1:
        raise DomainError("truncation depth must be positive")
    if B ** (-M) > SERIES_TAIL * (B - 1.0):
        raise TruncationTooShallow(
            f"depth {M} leaves a geometric tail above {SERIES_TAIL:g} for slope {B!r}"
        )
    cs = [
        map_.endpoints[k + 1]
        for k in range(map_.branch_count)
        if map_.branch_image_top(k) < 1.0 - EPS_GEO
    ]
    K = len(cs)
    if K == 0:
        return DensitySpec(0, (), (), (), (1.0,), 1.0, B, M, (), ())
    orbits = endpoint_orbits_reference(map_, cs, M)
    powers = B ** -np.arange(1, M + 1)
    S = _correction_matrix(orbits, cs, powers)
    A = np.eye(K) - S
    if np.linalg.cond(A, 1) > COND_MAX:
        raise SingularSystem("Id - S is singular or too ill-conditioned")
    dtail = np.linalg.solve(A.T, np.ones(K))
    d = (1.0,) + tuple(float(v) for v in dtail)
    C = 1.0
    thresholds = []
    weights = []
    pw = powers.tolist()
    for j in range(K):
        for m in range(M):
            t = min(orbits[j][m], 1.0)
            w = d[j + 1] * pw[m]
            C += w * t
            thresholds.append(t)
            weights.append(w)
    order = np.argsort(thresholds)
    thresholds = tuple(float(thresholds[k]) for k in order)
    weights = tuple(float(weights[k]) for k in order)
    if C <= 0.0:
        raise SingularSystem(f"normalization constant came out nonpositive ({C!r})")
    return DensitySpec(K, tuple(cs), tuple(orbits), S, d, C, B, M, thresholds, weights)


def _compose_reference(outer, inner):
    """outer after inner: the inner partition refined by outer's pulled-back breakpoints."""
    s = inner.slope
    pts = []
    a = inner.endpoints
    b = outer.endpoints
    for k in range(inner.branch_count):
        lo, hi = a[k], a[k + 1]
        pts.append(lo)
        for bl in b[1:-1]:
            q = lo + bl / s
            if q >= hi - MERGE_GAP:
                break
            if q - pts[-1] > MERGE_GAP:
                pts.append(q)
    pts.append(1.0)
    return PiecewiseLinearMap(tuple(pts), s * outer.slope)


def compose_map_reference(base, slot):
    """The period map of ``slot`` as a chain of p - 1 two-map compositions."""
    p = base.p
    acc = single_map(base.betas[slot])
    for j in range(1, p):
        acc = _compose_reference(single_map(base.betas[(slot + j) % p]), acc)
    return acc


def composed_period_value_reference(base, x):
    """One greedy period from slot 0 by p greedy_step_reference calls."""
    s = StatePoint(0, x)
    for _ in range(base.p):
        s, _ = greedy_step_reference(base, s)
    return s.value


def _clamp_reference(base, s):
    hi = base.xmax[s.slot % base.p]
    x = s.value
    if not (-EPS_SNAP <= x <= hi + EPS_SNAP):
        raise DomainError(f"state value {x!r} outside [0, {hi!r}] at slot {s.slot}")
    return min(max(x, 0.0), hi)


def greedy_step_reference(base, s):
    p = base.p
    i = s.slot % p
    y = base.betas[i] * _clamp_reference(base, s)
    digit = math.floor(y + EPS_SNAP)
    if digit > base.alphabets[i]:
        digit = base.alphabets[i]
    elif digit < 0:
        digit = 0
    nxt = y - digit
    if nxt < EPS_SNAP:
        nxt = 0.0
    j = (i + 1) % p
    hi = base.xmax[j]
    if nxt > hi:
        nxt = hi
    return StatePoint(j, nxt), digit


def lazy_step_reference(base, s):
    p = base.p
    i = s.slot % p
    x = _clamp_reference(base, s)
    b = base.betas[i]
    m = base.alphabets[i]
    j = (i + 1) % p
    hi_next = base.xmax[j]
    if x <= base.xmax[i] - 1.0 + EPS_SNAP:
        digit = 0
    else:
        digit = math.ceil(b * x - hi_next - EPS_SNAP)
        if digit < 0:
            digit = 0
        elif digit > m:
            digit = m
    nxt = b * x - digit
    if nxt > hi_next:
        nxt = hi_next
    return StatePoint(j, nxt), digit


def _expand_reference(step, base, x, n):
    if n < 0:
        raise DomainError("digit count must be nonnegative")
    s = StatePoint(0, x)
    out = []
    for _ in range(n):
        s, d = step(base, s)
        out.append(d)
    return DigitWord(tuple(out), 0)


def greedy_expand_reference(base, x, n):
    return _expand_reference(greedy_step_reference, base, x, n)


def lazy_expand_reference(base, x, n):
    if not x > 0.0:
        raise DomainError(f"lazy expansion needs 0 < x <= xmax, got {x!r}")
    return _expand_reference(lazy_step_reference, base, x, n)


def evaluate_reference(base, w, with_max_tail=False):
    for d in w.digits:
        if not isinstance(d, Integral):
            raise AlphabetError(f"digit {d!r} is not an integer")
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


def greedy_digit_reference(y, m):
    """The greedy digit for y = beta*x: the snapped floor of y, kept within [0, m]."""
    d = math.floor(y + EPS_SNAP)
    if d > m:
        return m  # beta*x snapped onto ceil(beta), or x in the extension [1, xmax)
    return d if d > 0 else 0


def greedy_expand_cantor_reference(seq, x, n):
    """Greedy digits over a base stream, each base drawn when its digit is taken."""
    if not (0.0 <= x < 1.0):
        raise DomainError(f"greedy expansion over a base stream needs x in [0,1), got {x!r}")
    if n < 0:
        raise DomainError("digit count must be nonnegative")
    out = []
    for k in range(n):
        b = seq.beta(k)
        y = b * x
        d = greedy_digit_reference(y, snap_ceil(b) - 1)
        x = y - d
        if x < EPS_SNAP:
            x = 0.0
        elif x > 1.0:
            x = 1.0
        out.append(d)
    return DigitWord(tuple(out), 0)


def nondecreasing_by_criterion_reference(base):
    """The criterion with the suffix weights summed afresh for every cut j."""
    p = base.p
    for j in range(1, p - 1):
        lhs = 0.0
        weight = 1.0
        for i in range(p - 1, j - 1, -1):
            lhs += base.alphabets[i] * weight
            weight *= base.betas[i]
        if lhs > weight + AGREE_TOL:
            return False
    return True


def orbit_of_one_density(base, M=None):
    """Per slot, the density as (t, v) steps from the greedy orbits of 1.

    The orbit of 1 started at slot j visits (s, t, w): t = 1, w = 1 at s = j,
    then a = floor(beta_s * t), t -> beta_s * t - a, w -> w / beta_s and
    s -> s + 1, until t == 0 or after p * (M + 2) steps.  Each step moves
    w * a / beta_s into G[s+1, j]; every column of G sums to the expansion of
    1, so G is column-stochastic, and c = G c with sum(c) = 1.  The slot-i
    density is proportional to the sum of c_j * w * chi_[0, t) over the orbit
    points at slot i; each slot is normalised to mass 1 on [0, 1).
    """
    p = base.p
    if M is None:
        M = default_truncation(base.product)
    G = np.zeros((p, p))
    points = [[] for _ in range(p)]
    for j in range(p):
        s, t, w = j, 1.0, 1.0
        for _ in range(p * (M + 2)):
            points[s].append((j, t, w))
            beta = base.betas[s]
            a = math.floor(beta * t)
            G[(s + 1) % p, j] += w * a / beta
            t = beta * t - a
            w /= beta
            s = (s + 1) % p
            if t == 0.0:
                break
    A = G - np.eye(p)
    A[-1] = 1.0
    rhs = np.zeros(p)
    rhs[-1] = 1.0
    c = np.linalg.solve(A, rhs).tolist()
    out = []
    for pts in points:
        steps = [(t, c[j] * w) for j, t, w in pts]
        mass = math.fsum(t * v for t, v in steps)
        out.append(tuple((t, v / mass) for t, v in steps))
    return out


def step_density_eval(steps, x):
    """Value at x of the sum of v * chi_[0, t) over the (t, v) steps."""
    return math.fsum(v for t, v in steps if x < t)
