"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
happen; without ``-s`` they appear in the captured-output section of any
failure report.
"""

import math

from altbase.core import (
    StatePoint,
    entropy,
    greedy_expand,
    greedy_step,
    lazy_expand,
    lazy_step,
    new_base,
    phi,
    shift_base,
)
from altbase.digitset import (
    compare_transforms,
    delta_set,
    greedy_delta_step,
    is_allowable,
    nondecreasing_by_criterion,
)
from altbase.measure import (
    compose_map,
    frequency,
    gora_density,
    measure_interval,
    preimage,
    slot_densities,
)
from altbase.oracle import SplitMix64, birkhoff_frequency, empirical_histogram, lex_greatest, lex_least
from helpers import PHI, SQRT13, base13, correction_matrix, randint, random_base
from reference import nondecreasing_bruteforce, one_base_map_reference

X5 = (1.0 + math.sqrt(5.0)) / 5.0


def report(num, name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {name}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_01_digit_regression():
    b = base13()
    ok = greedy_expand(b, X5, 5).digits == (1, 0, 1, 0, 2)
    ok = ok and lazy_expand(b, X5, 5).digits == (0, 1, 1, 1, 2)
    report(1, "greedy 10102 / lazy 01112 digit regression", ok)


def test_criterion_02_boundary_values():
    b = base13()
    ok = abs(b.xmax[0] - (5 + 7 * SQRT13) / 18) < 1e-12
    ok = ok and abs(b.xmax[1] - (2 + SQRT13) / 3) < 1e-12
    rng = SplitMix64(201)
    for _ in range(100):
        rb = random_base(rng, pmin=1, pmax=4, lo=1.1, hi=5.0)
        for i in range(rb.p):
            residual = rb.xmax[i] * rb.betas[i] - rb.alphabets[i] - rb.xmax[(i + 1) % rb.p]
            ok = ok and abs(residual) < 1e-12
    report(2, "xmax closed forms and cyclic recurrence", ok)


def test_criterion_03_gora_example():
    b = base13()
    spec = gora_density(compose_map(b, 0))
    b0 = b.betas[0]
    ok = spec.K == 3
    ok = ok and max((abs(v) for row in correction_matrix(spec) for v in row), default=0.0) < 1e-15
    ok = ok and all(abs(dv - 1.0) < 1e-12 for dv in spec.d)
    ok = ok and abs(spec.C - (1 + 3 / b0**2)) < 1e-12
    got = measure_interval(spec, 0.0, 1 / b0)
    ok = ok and abs(got - (13 + SQRT13) / 26) < 1e-9
    report(3, "closed-form density data and (13+sqrt13)/26 interval mass", ok)


def test_criterion_04_invariance():
    b = base13()
    rng = SplitMix64(202)
    specs = slot_densities(b)
    ok = True
    for slot in range(2):
        m = compose_map(b, slot)
        for _ in range(100):
            u, v = rng.uniform(0, 1), rng.uniform(0, 1)
            a, c = min(u, v), max(u, v)
            pulled = sum(measure_interval(specs[slot], lo, hi) for lo, hi in preimage(m, a, c))
            ok = ok and abs(pulled - measure_interval(specs[slot], a, c)) < 1e-8
    # one-step pushforward relation between consecutive slots
    for i in range(2):
        step = one_base_map_reference(b.betas[(i - 1) % 2])
        for _ in range(100):
            u, v = rng.uniform(0, 1), rng.uniform(0, 1)
            a, c = min(u, v), max(u, v)
            pulled = sum(
                measure_interval(specs[(i - 1) % 2], lo, hi) for lo, hi in preimage(step, a, c)
            )
            ok = ok and abs(pulled - measure_interval(specs[i], a, c)) < 1e-8
    report(4, "measure invariance under exact preimages", ok)


def test_criterion_05_classical_reduction():
    beta = PHI**2
    spec = gora_density(compose_map(new_base((beta,)), 0))
    orbit = [1.0]
    for _ in range(119):
        y = beta * orbit[-1]
        orbit.append(y - math.floor(y + 1e-12))
    norm = sum(min(t, 1.0) / beta**n for n, t in enumerate(orbit))
    ok = True
    from altbase.measure import density_eval

    for k in range(512):
        x = (k + 0.5) / 512
        h = sum(1.0 / beta**n for n, t in enumerate(orbit) if x < t) / norm
        ok = ok and abs(density_eval(spec, x) - h) < 1e-9
    report(5, "golden-ratio-squared density matches the classical series", ok)


def test_criterion_06_ergodic_consistency():
    b = base13()
    x0 = math.sqrt(2) - 1
    N = 10**6
    emp = birkhoff_frequency(b, x0, 0, N)
    ok = abs(emp - frequency(b, 0)) < 5e-3
    spec = slot_densities(b)[0]
    hist = empirical_histogram(b, 0, x0, N, 64)
    for k, c in enumerate(hist.counts):
        expect = measure_interval(spec, k / 64, (k + 1) / 64)
        ok = ok and abs(c / N - expect) < 5e-3
    report(6, "Birkhoff frequency and 64-bin histogram vs closed forms", ok)


def test_criterion_07_oracle_equivalence():
    rng = SplitMix64(203)
    ok = True
    for _ in range(20):
        b = random_base(rng, pmin=1, pmax=3, lo=1.05, hi=3.0)
        for _ in range(10):
            x = rng.uniform(1e-9, b.xmax[0] - 1e-9)
            n = randint(rng, 1, 8)
            ok = ok and greedy_expand(b, x, n).digits == lex_greatest(b, x, n).digits
            ok = ok and lazy_expand(b, x, n).digits == lex_least(b, x, n).digits
    report(7, "transformations equal exhaustive lexicographic searches", ok)


def _guarded_points(b, rng, count, horizon):
    pts = []
    cuts_by_slot = []
    for i in range(b.p):
        beta, m = b.betas[i], b.alphabets[i]
        cuts_by_slot.append([k / beta for k in range(m + 1)] + [1.0, 0.0, b.xmax[i]])
    while len(pts) < count:
        x = rng.uniform(1e-6, b.xmax[0] - 1e-6)
        s = StatePoint(0, x)
        good = True
        for _ in range(horizon):
            if min(abs(s.value - c) for c in cuts_by_slot[s.slot]) <= 1e-9:
                good = False
                break
            s, _ = greedy_step(b, s)
        if good:
            pts.append(x)
    return pts


def test_criterion_08_conjugacy_complement_shift():
    b = base13()
    rng = SplitMix64(204)
    horizon = 16
    ok = True
    for x in _guarded_points(b, rng, 1000, horizon):
        g = StatePoint(0, x)
        l = phi(b, g)
        for _ in range(horizon):
            g, dg = greedy_step(b, g)
            l, dl = lazy_step(b, l)
            mirrored = phi(b, g)
            ok = ok and mirrored.slot == l.slot and abs(mirrored.value - l.value) < 1e-9
            ok = ok and dg + dl == b.alphabets[(g.slot - 1) % b.p]
    # digit complement through the expansion interface
    for x in _guarded_points(b, rng, 200, horizon):
        a = greedy_expand(b, x, horizon).digits
        ap = lazy_expand(b, b.xmax[0] - x, horizon).digits
        ok = ok and all(u + v == b.alphabet(k) for k, (u, v) in enumerate(zip(a, ap)))
    # dropping the first digit shifts the base
    shifted = shift_base(b, 1)
    for _ in range(1000):
        x = rng.uniform(0, b.xmax[0])
        word = greedy_expand(b, x, 8).digits
        s, first = greedy_step(b, StatePoint(0, x))
        ok = ok and word[0] == first
        ok = ok and word[1:] == greedy_expand(shifted, s.value, 7).digits
    report(8, "reflection conjugacy, digit complement, shift commutation", ok)


def test_criterion_09_blocked_transform_decision():
    # golden-ratio pair base: exactly one disagreement interval
    b = new_base((PHI, PHI, math.sqrt(5)))
    B = math.sqrt(5) * PHI**2
    rep = compare_transforms(b)
    ok = len(rep.intervals) == 1
    lo, hi = rep.intervals[0]
    ok = ok and abs(lo - (math.sqrt(5) + 2) / B) < 1e-9
    ok = ok and abs(hi - (math.sqrt(5) * PHI + 1) / B) < 1e-9
    img, _ = greedy_delta_step(delta_set(b), 0.75)
    s = StatePoint(0, 0.75)
    for _ in range(3):
        s, _ = greedy_step(b, s)
    ok = ok and abs(img - 0.15) < 1e-2 and abs(s.value - 0.77) < 1e-2
    # collision base coincides
    ok = ok and not compare_transforms(new_base((1.5, 1.5, 4.0)))
    # every period-2 base coincides
    rng = SplitMix64(205)
    for _ in range(25):
        ok = ok and not compare_transforms(random_base(rng, pmin=2, pmax=2))
    # disagreement confined to the extension region
    rep = compare_transforms(new_base((math.sqrt(5) / 2, math.sqrt(6) / 2, math.sqrt(7) / 2)))
    ok = ok and bool(rep.intervals)
    ok = ok and all(lo >= 1.0 for lo, _ in rep.intervals)
    ok = ok and abs(rep.intervals[0][0] - 1.28) < 1e-2
    ok = ok and abs(rep.intervals[-1][1] - 1.44) < 1e-2
    report(9, "blocked-vs-period disagreement intervals", ok)


def test_criterion_10_criterion_soundness():
    rng = SplitMix64(206)
    ok = True
    for _ in range(200):
        b = random_base(rng, pmin=1, pmax=4, lo=1.05, hi=3.0)
        mono = nondecreasing_by_criterion(b)
        ok = ok and mono == nondecreasing_bruteforce(b)
        if mono:
            ok = ok and not compare_transforms(b)
    for _ in range(100):
        b = random_base(rng, pmin=1, pmax=4, lo=1.05, hi=5.0)
        ok = ok and is_allowable(delta_set(b))
    report(10, "monotonicity criterion, sufficiency, allowability", ok)


def test_criterion_11_entropy():
    got = entropy(base13())
    ok = abs(got - 0.5 * math.log((3 + SQRT13) / 2)) < 1e-12
    report(11, "entropy of the square-root-13 base", ok)
