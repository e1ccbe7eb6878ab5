"""Plain reference versions of fast library paths, for equality tests.

Each one is the straightforward scalar loop: exhaustive tuple enumeration
for the pruned lexicographic searches, and one SplitMix64 draw per step for
the dithered orbit statistics, and one masked numpy sum per entry of the
density's correction matrix.  The sorted-key lookups of altbase.measure are
given in their numpy.searchsorted form; measure_interval_reference and
preimage_reference keep the per-threshold and per-branch min() of the
query kernels, and compare_transforms_reference takes each cell's blocked
image from the clamped per-point greedy_delta_step_reference and its period
through the clamped _greedy_run, over a digit set and cylinder starts
built from the per-block enumeration block_values_reference, the plain
dedup loop digit_set_reference and suffix_min_reference.  The endpoint
orbits of the density take one _modified_step call (two snaps by
snap_to_breakpoints_reference, three bisects) per point, and
gora_density_reference builds the whole DensitySpec around them, with its
normalisation indexed per entry, and returns the orbits and its correction
matrix S beside the spec, which keeps neither.  The greedy and lazy steps
are the one-call-per-digit versions (a StatePoint per step, every state clamped and
checked, slots taken mod p) that the expansions, evaluate and the period
value behind compare_transforms must equal; greedy_digit_reference is the
one greedy digit rule that core's greedy loop and the orbit statistics
write out, and the dithered reference step takes its digit from it.
The period map is built as a chain of two-map compositions of one-base
maps, each one a validated map.  The monotonicity criterion is recomputed
from scratch for every cut, nondecreasing_bruteforce decides monotonicity
over every digit block, and orbit_of_one_density is the paper's density
from the greedy orbits of 1, an independent check of the composed-map
construction; orbit_of_one_density_exact is the same construction in
exact arithmetic.  cross_slot_residual is the one-step transfer-operator
check between consecutive slots, which needs no composed map.
quasi_greedy_one and is_greedy_word are the shift's admissibility test for
greedy words, is_greedy_word_linear the same test with no suffix copies, and
count_greedy_words counts the words it accepts.
graph_rows_reference samples each branch of the graph against every cut of
its slot.
"""

import math
import operator
import struct
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate
from numbers import Integral

import numpy as np

from altbase.core import (
    EPS_SNAP,
    DigitWord,
    StatePoint,
    _greedy_run,
    check_enumeration_bound,
    snap_ceil,
)
from altbase.errors import AlphabetError, DomainError, SingularSystem, TruncationTooShallow
from altbase.digitset import (
    AGREE_TOL,
    DEDUP_REL,
    MIN_CELL,
    DigitSet,
    DisagreementReport,
    Witness,
    _require_allowable,
)
from altbase.measure import (
    COND_MAX,
    EPS_GEO,
    FORWARD_ERROR_MAX,
    MERGE_GAP,
    SERIES_TAIL,
    DensitySpec,
    PiecewiseLinearMap,
    _correction_matrix,
    default_truncation,
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


def branch_image_tops(map_):
    """slope * (a_{k+1} - a_k) for each branch k: the top of its image, 1.0 when it is onto."""
    e = map_.endpoints
    return [map_.slope * (hi - lo) for lo, hi in zip(e, e[1:])]


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


def _check_interval_reference(a, b):
    if not (0.0 <= a <= b <= 1.0):
        raise DomainError(f"bad interval [{a!r}, {b!r})")


def measure_interval_reference(spec, a, b):
    """Each threshold above a adds w * (min(t, b) - a), left to right."""
    _check_interval_reference(a, b)
    total = spec.d[0] * (b - a)
    k = int(np.searchsorted(spec.thresholds, a, side="right"))
    for t, w in zip(spec.thresholds[k:], spec.weights[k:]):
        total += w * (min(t, b) - a)
    return total / spec.C


def preimage_reference(map_, a, b):
    """Per branch k: [e_k + a/s, min(e_k + b/s, e_{k+1})), kept when nonempty."""
    _check_interval_reference(a, b)
    out = []
    s = map_.slope
    for k in range(map_.branch_count):
        lo = map_.endpoints[k] + a / s
        hi = min(map_.endpoints[k] + b / s, map_.endpoints[k + 1])
        if hi > lo:
            out.append((lo, hi))
    return out


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
        y = left_limit_reference(map_, x)
    else:
        y = map_.slope * (x - map_.endpoints[map_.branch_of(x)])
    return snap_to_breakpoints_reference(y, map_.endpoints)


def endpoint_orbits_reference(map_, cs, M):
    orbits = []
    for c in cs:
        x = left_limit_reference(map_, snap_to_breakpoints_reference(c, map_.endpoints))
        x = snap_to_breakpoints_reference(x, map_.endpoints)
        orb = [x]
        for _ in range(M - 1):
            x = _modified_step(map_, x)
            orb.append(x)
        orbits.append(tuple(orb))
    return orbits


def gora_density_reference(map_, M=None):
    """(spec, orbits, S): the DensitySpec of the map, and the endpoint orbits and the
    correction matrix behind its weights, which the spec does not keep."""
    B = map_.slope
    if M is None:
        M = default_truncation(B)
    if M < 1:
        raise DomainError("truncation depth must be positive")
    if B ** (-M) > SERIES_TAIL * (B - 1.0):
        raise TruncationTooShallow(
            f"depth {M} leaves a geometric tail above {SERIES_TAIL:g} for slope {B!r}"
        )
    cs = [e for e, top in zip(map_.endpoints[1:], branch_image_tops(map_)) if top < 1.0 - EPS_GEO]
    K = len(cs)
    if K == 0:
        return DensitySpec(0, (), (1.0,), 1.0, B, M, (), ()), [], np.zeros((0, 0))
    orbits = endpoint_orbits_reference(map_, cs, M)
    powers = B ** -np.arange(1, M + 1)
    S = _correction_matrix(np.array(orbits), cs, powers)
    A = np.eye(K) - S
    try:
        dtail = np.linalg.solve(A.T, np.ones(K))
    except np.linalg.LinAlgError:
        raise SingularSystem("Id - S is singular or too ill-conditioned") from None
    # the density is equivalent to Lebesgue measure, so every weight is positive
    if not dtail.min() > 0.0:
        raise SingularSystem("a weight of Id - S came out nonpositive")
    if np.linalg.cond(A, 1) > COND_MAX:
        raise SingularSystem("Id - S is singular or too ill-conditioned")
    err = dtail.max() * np.linalg.norm(S, 1) * M * 2.0**-53
    if err > FORWARD_ERROR_MAX:
        raise SingularSystem(f"rounding in S may move the weights by {err:.3g} relative")
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
    return DensitySpec(K, tuple(cs), d, C, B, M, thresholds, weights), orbits, S


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


def one_base_map_reference(beta):
    """The one-base map x -> beta*x mod its digit on [0, 1): cuts k/beta below 1, then 1."""
    return PiecewiseLinearMap(tuple(k / beta for k in range(snap_ceil(beta))) + (1.0,), beta)


def compose_map_reference(base, slot):
    """The period map of ``slot`` as a chain of p - 1 two-map compositions."""
    p = base.p
    acc = one_base_map_reference(base.betas[slot])
    for j in range(1, p):
        acc = _compose_reference(one_base_map_reference(base.betas[(slot + j) % p]), acc)
    return acc


def composed_period_value_reference(base, x):
    """One greedy period from slot 0 by p greedy_step_reference calls."""
    s = StatePoint(0, x)
    for _ in range(base.p):
        s, _ = greedy_step_reference(base, s)
    return s.value


def greedy_delta_step_reference(ds, x):
    """The greedy step over a digit set, its start clamped into [0, xsup] and checked."""
    hi = ds.xsup
    if not (-EPS_SNAP <= x <= hi + EPS_SNAP):
        raise DomainError(f"{x!r} outside the expansion domain [0, {hi!r})")
    y = ds.beta * min(max(x, 0.0), hi)
    k = bisect_right(ds.digits, y + EPS_SNAP) - 1
    d = ds.digits[max(k, 0)]
    r = y - d
    if r < 0.0:
        r = 0.0
    return r, d


def block_values_reference(base):
    """The value of every digit block in lexicographic order, each one v + c * w."""
    check_enumeration_bound(base, base.p, "digit-block enumeration")
    p = base.p
    suffix_weight = [1.0] * (p + 1)
    for i in range(p - 1, -1, -1):
        suffix_weight[i] = suffix_weight[i + 1] * base.betas[i]
    values = [0.0]
    for i in range(p):
        w = suffix_weight[i + 1]
        values = [v + c * w for v in values for c in range(base.alphabets[i] + 1)]
    return values


def digit_set_reference(base):
    """delta_set by one dedup pass over the sorted block values."""
    vals = sorted(block_values_reference(base))
    tol = DEDUP_REL * max(1.0, vals[-1])
    merged = [0.0]
    for v in vals[1:]:
        if v - merged[-1] > tol:
            merged.append(v)
    return DigitSet(tuple(merged), base.product)


def nondecreasing_bruteforce(base):
    """Monotonicity by full lexicographic enumeration of digit blocks."""
    vals = block_values_reference(base)
    return all(a <= b + AGREE_TOL for a, b in zip(vals, vals[1:]))


def suffix_min_reference(values):
    """The values strictly below the minimum of all lexicographically later values."""
    later = list(accumulate(reversed(values), min, initial=math.inf))[::-1]
    return [v for v, m in zip(values, later[1:]) if v < m]


def compare_transforms_cells_reference(base, ds):
    """The (lo, hi, midpoint) cells of compare_transforms' merged breakpoint grid."""
    B = base.product
    xb = base.xmax[0]
    cuts = {0.0, xb}
    cuts.update(d / B for d in ds.digits)
    cuts.update(v / B for v in suffix_min_reference(block_values_reference(base)))
    grid = sorted(c for c in cuts if -EPS_SNAP <= c < xb - MIN_CELL)
    grid.append(xb)
    return [(lo, hi, 0.5 * (lo + hi)) for lo, hi in zip(grid, grid[1:]) if hi - lo >= MIN_CELL]


def compare_transforms_reference(base):
    """compare_transforms with one clamped greedy_delta_step_reference and one clamped
    _greedy_run period per cell midpoint."""
    ds = digit_set_reference(base)
    _require_allowable(ds)
    B = base.product

    intervals = []
    witnesses = []
    for lo, hi, mid in compare_transforms_cells_reference(base, ds):
        delta_img, _ = greedy_delta_step_reference(ds, mid)
        _, comp_img = _greedy_run(base, mid, base.p)
        if abs(delta_img - comp_img) <= AGREE_TOL * max(1.0, B):
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


def _solve_scaled(A, rhs):
    """det(A) * x, up to sign, for A x = rhs with integer A and rhs.

    Fraction-free Gauss-Jordan elimination (Bareiss): every division is
    exact, and each diagonal entry ends as the last pivot, +-det(A).
    """
    n = len(A)
    rows = [list(row) + [r] for row, r in zip(A, rhs)]
    prev = 1
    for k in range(n):
        piv = next(r for r in range(k, n) if rows[r][k])
        rows[k], rows[piv] = rows[piv], rows[k]
        pk = rows[k][k]
        for r in range(n):
            if r != k:
                f = rows[r][k]
                rows[r] = [(pk * a - f * b) // prev for a, b in zip(rows[r], rows[k])]
        prev = pk
    return [row[n] for row in rows]


def orbit_of_one_density_exact(base, M=None):
    """orbit_of_one_density in exact rational arithmetic on the same float betas.

    The orbits take the same steps and stop at the same cap, or where the
    exact t is 0.  Per slot it returns (ts, tails, mass): the step points
    ascending, and integers with the density at x equal to
    tails[bisect_right(ts, x)] / mass.  Each beta is N / q with q a power of
    two, so every t is dyadic.  Orbit j divides its weights by the beta
    numerators N only: w_n = W_n / D_j, with W_n an integer and D_j the
    product of every N it meets.  Writing c_j = D_j * u_j gives the p x p
    system integer entries; fraction-free elimination gives u times one
    integer, which each slot's normalisation cancels.  Exact sums do not
    depend on order, so one suffix sum over the sorted steps gives every
    value.
    """
    p = base.p
    if M is None:
        M = default_truncation(base.product)
    ratios = [b.as_integer_ratio() for b in base.betas]
    g = [[0] * p for _ in range(p)]
    D = []
    points = [[] for _ in range(p)]
    for j in range(p):
        s, T, e = j, 1, 0  # t = T / 2^e
        visits = []
        for _ in range(p * (M + 2)):
            N, q = ratios[s]
            y, e_y = N * T, e + q.bit_length() - 1
            a = y >> e_y
            visits.append((s, T, e, a))
            T, e = y - (a << e_y), e_y
            s = (s + 1) % p
            if T == 0:
                break
        # W_n = (q's of the steps before n) * (N's of the steps from n on)
        met = [ratios[v[0]] for v in visits]
        nums = list(accumulate((N for N, _ in reversed(met)), operator.mul, initial=1))
        dens = accumulate((q for _, q in met), operator.mul, initial=1)
        W = [n * d for n, d in zip(reversed(nums), dens)]
        D.append(W[0])
        for n, (s, T, e, a) in enumerate(visits):
            g[(s + 1) % p][j] += W[n + 1] * a
            points[s].append((T, e, j, W[n]))
    A = [[g[r][j] - (D[j] if r == j else 0) for j in range(p)] for r in range(p - 1)] + [D]
    U = _solve_scaled(A, [0] * (p - 1) + [1])
    out = []
    for pts in points:
        E = max(e for _, e, _, _ in pts)
        steps = sorted((T << (E - e), U[j] * w) for T, e, j, w in pts)
        tails = list(accumulate((v for _, v in reversed(steps)), initial=0))[::-1]
        mass = sum(T * v for T, v in steps)  # 2^E times the sum of t * v
        ts = [Fraction(T, 1 << E) for T, _ in steps]
        out.append((ts, [t << E for t in tails], mass))
    return out


def quasi_greedy_one(base, i, n):
    """First n digits of the quasi-greedy expansion of 1 in the base shifted by i.

    The left-continuous greedy orbit of 1: a = snap_ceil(beta*t) - 1, the
    largest digit leaving t -> beta*t - a above 0, so a finite greedy
    expansion of 1 continues, as the quasi-greedy one does, instead of
    ending in zeros.
    """
    t, out = 1.0, []
    for k in range(i, i + n):
        y = base.beta(k) * t
        a = snap_ceil(y) - 1
        out.append(a)
        t = y - a
    return tuple(out)


def is_greedy_word(base, word):
    """Whether ``word``, read from slot 0 and followed by zeros, is a greedy expansion.

    It is when every suffix word[n:] is lexicographically at most the first
    len(word) - n quasi-greedy digits of 1 in the base shifted by n (Parry
    1960; Charlier-Cisternino 2021, "Expansions in Cantor real bases").
    """
    N, p = len(word), base.p
    bounds = [quasi_greedy_one(base, j, N) for j in range(p)]
    return all(word[n:] <= bounds[n % p][: N - n] for n in range(N))


def is_greedy_word_linear(base, word):
    """is_greedy_word without copying a suffix: each one is walked digit by digit
    against its bound and the walk stops at the first difference, so a word costs
    time linear in its length unless its suffixes follow their bounds far.
    """
    N, p = len(word), base.p
    bounds = [quasi_greedy_one(base, j, N) for j in range(p)]
    for n in range(N):
        bound = bounds[n % p]
        for k in range(N - n):
            if word[n + k] != bound[k]:
                if word[n + k] > bound[k]:
                    return False
                break
    return True


def count_greedy_words(base, N):
    """The number of words of length N that is_greedy_word accepts.

    A walk over the digits keeps, for each suffix still equal to its
    quasi-greedy bound, the bound's slot and how far it has matched; walks
    at the same position with the same matches are counted once.
    """
    p = base.p
    bounds = [quasi_greedy_one(base, j, N) for j in range(p)]
    memo = {}

    def count(k, tight):
        if k == N:
            return 1
        if (k, tight) not in memo:
            total = 0
            for c in range(base.alphabet(k) + 1):
                matched = []
                for j, off in tight + ((k % p, 0),):
                    if c > bounds[j][off]:
                        break
                    if c == bounds[j][off]:
                        matched.append((j, off + 1))
                else:
                    total += count(k + 1, tuple(matched))
            memo[k, tight] = total
        return memo[k, tight]

    return count(0, ())


def step_table(keys, values, first, rank):
    """x -> first + the sum of values[rank(keys, x):], keys ascending, by one lookup.

    density_eval sums up to 2,128 weights per call and step_density_eval 72
    steps, too slow for the 10^5-10^6 preimages of the period-8 base; the
    table gives the same step function up to summation order.
    """
    sums = list(accumulate(reversed(values), initial=first))[::-1]
    return lambda x: sums[rank(keys, x)]


def cross_slot_residual(base, densities):
    """Per slot i, the L1 norm on [0, 1) of h_{i+1} - P_i h_i.

    densities[i] = (cuts, h): slot i's density h, constant between its
    ascending cuts.  P_i is the transfer operator of the one-base greedy map
    of beta_i on [0, 1): (P_i h)(y) is the sum of h((a + y)/beta_i)/beta_i
    over the digits a with (a + y)/beta_i < 1.  The paper's T_beta
    invariance ties each slot to the next, P_i h_i = h_{i+1}.  Both sides
    are constant between the points of one merged grid (slot i+1's cuts,
    the images beta_i*t - a of slot i's cuts t and the branch tops
    beta_i - a), so one midpoint per cell gives the integral exactly.
    """
    p = base.p
    out = []
    for i in range(p):
        beta, digits = base.betas[i], range(base.alphabets[i] + 1)
        cuts, h = densities[i]
        next_cuts, h_next = densities[(i + 1) % p]
        grid = {0.0, 1.0, *next_cuts}
        grid.update(beta * t - a for t in cuts for a in digits)
        grid.update(beta - a for a in digits)
        grid = sorted(y for y in grid if 0.0 <= y <= 1.0)
        terms = []
        for lo, hi in zip(grid, grid[1:]):
            y = 0.5 * (lo + hi)
            pushed = sum(h((a + y) / beta) for a in digits if (a + y) / beta < 1.0) / beta
            terms.append(abs(h_next(y) - pushed) * (hi - lo))
        out.append(math.fsum(terms))
    return out


def step_density_eval(steps, x):
    """Value at x of the sum of v * chi_[0, t) over the (t, v) steps."""
    return math.fsum(v for t, v in steps if x < t)


def _sample_grid_reference(lo, hi, cuts, per_unit):
    n = max(2, int(round(per_unit * (hi - lo))))
    pts = [lo + (hi - lo) * k / n for k in range(n)]
    for c in cuts:
        for q in (c - EPS_SNAP, c + EPS_SNAP):
            if lo <= q < hi:
                pts.append(q)
    return sorted(set(pts))


def graph_rows_reference(base, kind, per_unit):
    """The (x, y, digit, slot) rows of one graph file, each branch sampled against every cut."""
    rows = []
    for i in range(base.p):
        b = base.betas[i]
        m = base.alphabets[i]
        if kind == "greedy":
            ends = [k / b for k in range(m + 1)] + [base.xmax[i]]
        else:
            ends = [0.0] + [(base.xsup(i + 1) + k) / b for k in range(m + 1)]
        for k in range(m + 1):
            lo, hi = ends[k], ends[k + 1]
            for x in _sample_grid_reference(lo, hi, ends[1:-1], per_unit):
                if lo <= x < hi:
                    rows.append((x, b * x - k, k, i))
    return rows
