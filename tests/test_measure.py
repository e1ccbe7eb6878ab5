import bisect
import itertools
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import cli_golden
import reference
from altbase import core, measure
from altbase.core import StatePoint, entropy, greedy_step, lazy_expand, lazy_step, new_base, phi
from altbase.errors import (
    AlphabetError,
    DomainError,
    SearchTooLarge,
    SingularSystem,
    TruncationTooShallow,
)
from altbase.expr import parse_base_list
from altbase.measure import (
    EPS_GEO,
    DensitySpec,
    IntervalMeasureQuery,
    PiecewiseLinearMap,
    _endpoint_orbits,
    compose_map,
    density_eval,
    frequency,
    gora_density,
    measure_interval,
    mu_product,
    preimage,
    slot_densities,
)
from altbase.oracle import SplitMix64, birkhoff_frequency
from helpers import (
    BASE13_BETAS,
    PHI,
    SQRT13,
    base13,
    base_phi2,
    correction_matrix,
    endpoint_orbits,
    randint,
    random_base,
)
from reference import (
    branch_image_tops,
    branch_of_reference,
    compose_map_reference,
    correction_matrix_reference,
    count_greedy_words,
    cross_slot_residual,
    density_eval_reference,
    endpoint_orbits_reference,
    gora_density_reference,
    is_greedy_word,
    measure_interval_reference,
    one_base_map_reference,
    orbit_of_one_density,
    orbit_of_one_density_exact,
    step_density_eval,
    step_table,
)


def classical_density_oracle(beta, npts=512, terms=120):
    """Normalized classical density from the orbit of 1, computed from scratch."""
    orbit = [1.0]
    for _ in range(terms - 1):
        y = beta * orbit[-1]
        orbit.append(y - math.floor(y + 1e-12))
    norm = sum(min(t, 1.0) / beta**n for n, t in enumerate(orbit))
    xs = [(k + 0.5) / npts for k in range(npts)]
    return xs, [
        sum(1.0 / beta**n for n, t in enumerate(orbit) if x < t) / norm for x in xs
    ]


class TestComposeMap:
    def test_sqrt13_breakpoints(self):
        b = base13()
        m = compose_map(b, 0)
        b0, b1 = b.betas
        expected = (0.0, 1 / (b1 * b0), 1 / b0, (b1 + 1) / (b1 * b0), 2 / b0, 1.0)
        assert m.endpoints == pytest.approx(expected, abs=1e-12)
        assert m.slope == pytest.approx(b.product, abs=1e-12)

    def test_doubling_map_branches_are_onto(self):
        m = compose_map(new_base((2,)), 0)
        assert m.endpoints == (0.0, 0.5, 1.0)
        assert m.slope == 2.0
        assert all(top == 1.0 for top in branch_image_tops(m))

    def test_three_fold_composition_pointwise(self):
        b = new_base((PHI, PHI, math.sqrt(5)))
        m = compose_map(b, 0)
        assert m.slope == pytest.approx(math.sqrt(5) * PHI**2, abs=1e-12)
        rng = SplitMix64(21)
        for _ in range(1000):
            x = rng.uniform(0, 1)
            s = StatePoint(0, x)
            for _ in range(3):
                s, _ = greedy_step(b, s)
            assert m(x) == pytest.approx(s.value, abs=1e-9)

    def test_branch_width_bound(self):
        rng = SplitMix64(22)
        for _ in range(30):
            b = random_base(rng, pmax=4)
            m = compose_map(b, randint(rng, 0, b.p - 1))
            for k in range(m.branch_count):
                assert m.endpoints[k + 1] - m.endpoints[k] <= 1 / m.slope + 1e-12

    def test_huge_alphabet_is_refused(self):
        # the first refinement pass would make 10^12 branches and exhaust memory
        with pytest.raises(SearchTooLarge, match="composed-map branch"):
            compose_map(new_base((1000000.5, 1000000.5)), 1)

    def test_alphabet_over_the_bound_is_refused(self):
        with pytest.raises(SearchTooLarge, match="composed-map branch"):
            compose_map(new_base((2e7,)), 0)

    def test_single_map_over_the_bound_is_refused(self, monkeypatch):
        # the one-base map is the period map of a period-1 base
        single = lambda beta: compose_map(new_base((beta,)), 0)
        with pytest.raises(SearchTooLarge, match="composed-map branch"):
            single(1000000000.5)  # would list 10^9 endpoints
        monkeypatch.setattr(core, "ENUMERATION_BOUND", 10)
        assert single(9.5).branch_count == 10
        with pytest.raises(SearchTooLarge, match="composed-map branch"):
            single(10.5)

    @pytest.mark.parametrize("beta", [math.nan, math.inf], ids=["nan", "inf"])
    def test_single_map_rejects_non_finite(self, beta):
        with pytest.raises(DomainError):
            compose_map(new_base((beta,)), 0)

    @pytest.mark.parametrize(
        "endpoints, slope",
        [
            ((0.0, 0.5, 0.4, 1.0), 3.0),  # gora_density gave C near 2 for this one
            ((0.0, 0.5, 0.5, 1.0), 3.0),
            ((0.0,), 3.0),
            ((0.1, 0.5, 1.0), 3.0),
            ((0.0, 0.5, 0.9), 3.0),
            ((0.0, math.nan, 1.0), 3.0),
            ((0.0, 0.5, 1.0), 1.0),
            ((0.0, 0.5, 1.0), math.inf),
            ((0.0, 0.5, 1.0), math.nan),
        ],
    )
    def test_map_rejects_bad_endpoints_and_slopes(self, endpoints, slope):
        with pytest.raises(DomainError):
            PiecewiseLinearMap(endpoints, slope)


class TestGoraDensity:
    def test_sqrt13_slot0(self):
        b = base13()
        m = compose_map(b, 0)
        spec = gora_density(m)
        b0 = b.betas[0]
        assert spec.K == 3
        assert spec.c == pytest.approx((1 / b0, 2 / b0, 1.0), abs=1e-12)
        assert max(abs(v) for row in correction_matrix(m, spec) for v in row) < 1e-15
        assert spec.d == pytest.approx((1.0, 1.0, 1.0, 1.0), abs=1e-12)
        assert spec.C == pytest.approx(1 + 3 / b0**2, abs=1e-12)

    def test_onto_map_is_uniform(self):
        spec = gora_density(compose_map(new_base((2,)), 0))
        assert (spec.K, spec.c, spec.thresholds) == (0, (), ())
        assert spec.C == 1.0
        assert density_eval(spec, 0.7321) == 1.0

    def test_phi2_matches_classical_series(self):
        beta = PHI**2
        spec = gora_density(compose_map(new_base((beta,)), 0))
        xs, expected = classical_density_oracle(beta)
        for x, h in zip(xs, expected):
            assert density_eval(spec, x) == pytest.approx(h, abs=1e-9)

    def test_density_values_sqrt13(self):
        spec = gora_density(compose_map(base13(), 0))
        b0 = base13().betas[0]
        assert density_eval(spec, 0.2) == pytest.approx((1 + 3 / b0) / (1 + 3 / b0**2), abs=1e-12)
        assert density_eval(spec, 0.9) == pytest.approx(1 / (1 + 3 / b0**2), abs=1e-12)

    def test_density_nonincreasing(self):
        rng = SplitMix64(23)
        for _ in range(10):
            b = random_base(rng)
            spec = gora_density(compose_map(b, 0))
            xs = sorted(rng.uniform(0, 1) for _ in range(200))
            vals = [density_eval(spec, x) for x in xs]
            for u, v in zip(vals, vals[1:]):
                assert u >= v - 1e-12

    def test_truncation_convergence(self):
        b = base13()
        m = compose_map(b, 0)
        spec1 = gora_density(m, 40)
        spec2 = gora_density(m, 80)
        bound = spec1.B ** (-40.0) * spec1.K / (spec1.C * (spec1.B - 1))
        rng = SplitMix64(24)
        for _ in range(100):
            x = rng.uniform(0, 1)
            assert abs(density_eval(spec1, x) - density_eval(spec2, x)) <= bound + 1e-15

    def test_too_shallow(self):
        with pytest.raises(TruncationTooShallow):
            gora_density(compose_map(base_phi2(), 0), 3)

    def test_default_truncation_is_the_least_depth_meeting_its_tail_rule(self):
        def meets(B, M):
            return B ** (-M) <= measure.SERIES_TAIL * (B - 1.0)

        def stepped(B):  # the earlier rule: up from 15 ln 10 / ln B, one at a time, to a cap
            M = max(1, math.ceil(15.0 * math.log(10.0) / math.log(B)))
            while not meets(B, M) and M < 100000:
                M += 1
            return M

        rng = SplitMix64(41)
        checked = 0
        for _ in range(2000):
            B = 1.0 + 10.0 ** rng.uniform(-3.5, 3.0)
            M, floor = measure.default_truncation(B), math.ceil(15.0 * math.log(10.0) / math.log(B))
            assert meets(B, M) and (M == floor or not meets(B, M - 1))
            earlier = stepped(B)
            if meets(B, earlier):
                assert M == earlier
                checked += 1
        assert checked > 1900
        # below a slope of about 1.0004 the cap stopped the earlier rule short of its own check
        assert not meets(1.0001, stepped(1.0001))
        assert gora_density(compose_map(new_base((1.0001,)), 0)).M == 437514

    def test_correction_matrix_over_the_bound_is_refused(self, monkeypatch):
        # K equal branches of image top 1/2 all stop short of 1; 3162^2 <= 10^7 < 3163^2
        class Built(Exception):
            pass

        def refuse(*args):
            raise Built

        monkeypatch.setattr(measure, "_endpoint_orbits", refuse)
        for K, raised in ((3162, Built), (3163, SearchTooLarge)):
            m = PiecewiseLinearMap(tuple(k / K for k in range(K)) + (1.0,), K / 2)
            with pytest.raises(raised):
                gora_density(m)

    def test_endpoint_orbit_table_over_the_bound_is_refused(self, monkeypatch):
        # two half-width branches of slope 1.5 both stop short of 1: K = 2, so M = 5 * 10^6 is the last depth
        class Built(Exception):
            pass

        def refuse(*args):
            raise Built

        monkeypatch.setattr(measure, "_endpoint_orbits", refuse)
        m = PiecewiseLinearMap((0.0, 0.5, 1.0), 1.5)
        for M, raised in ((5 * 10**6, Built), (5 * 10**6 + 1, SearchTooLarge)):
            with pytest.raises(raised):
                gora_density(m, M)

    def test_weight_solve_residual(self):
        rng = SplitMix64(29)
        for _ in range(20):
            m = compose_map(random_base(rng, pmax=4), 0)
            spec = gora_density(m)
            S = correction_matrix(m, spec)
            for row in S:
                for entry in row:
                    assert 0.0 <= entry <= 1 / (spec.B - 1)
            for i in range(spec.K):
                lhs = spec.d[i + 1] - sum(S[j][i] * spec.d[j + 1] for j in range(spec.K))
                assert abs(lhs - 1.0) < 1e-9


class TestMeasureInterval:
    def test_sqrt13_known_interval_mass(self):
        b = base13()
        spec = gora_density(compose_map(b, 0))
        got = measure_interval(spec, 0.0, 1 / b.betas[0])
        assert got == pytest.approx((13 + SQRT13) / 26, abs=1e-9)

    def test_normalization(self):
        rng = SplitMix64(25)
        for _ in range(20):
            spec = gora_density(compose_map(random_base(rng), 0))
            assert measure_interval(spec, 0.0, 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_null_interval(self):
        spec = gora_density(compose_map(base13(), 0))
        assert measure_interval(spec, 0.4, 0.4) == 0.0

    def test_bad_interval(self):
        spec = gora_density(compose_map(base13(), 0))
        with pytest.raises(DomainError):
            measure_interval(spec, 0.5, 0.2)


class TestPreimage:
    def test_full_domain(self):
        m = compose_map(base13(), 0)
        pieces = preimage(m, 0.0, 1.0)
        assert pieces[0][0] == 0.0
        assert pieces[-1][1] == pytest.approx(1.0)
        total = sum(hi - lo for lo, hi in pieces)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_single_branch(self):
        m = compose_map(new_base((2,)), 0)
        assert preimage(m, 0.0, 0.5) == [(0.0, 0.25), (0.5, 0.75)]

    def test_sqrt13_total_length(self):
        b = base13()
        m = compose_map(b, 0)
        pieces = preimage(m, 0.0, 1 / b.betas[0])
        reaching = sum(1 for top in branch_image_tops(m) if top >= 1 / b.betas[0])
        assert sum(hi - lo for lo, hi in pieces) == pytest.approx(
            reaching * (1 / b.betas[0]) / b.product, abs=1e-12
        )

    def test_invariance_random_intervals(self):
        b = base13()
        rng = SplitMix64(26)
        for slot in range(2):
            m = compose_map(b, slot)
            spec = gora_density(m)
            for _ in range(50):
                a = rng.uniform(0, 1)
                c = rng.uniform(0, 1)
                a, c = min(a, c), max(a, c)
                pulled = sum(measure_interval(spec, lo, hi) for lo, hi in preimage(m, a, c))
                assert pulled == pytest.approx(measure_interval(spec, a, c), abs=1e-8)

    def test_single_step_pullback(self):
        # the slot-i measure is the pushforward of the slot-(i-1) measure
        b = base13()
        specs = slot_densities(b)
        rng = SplitMix64(27)
        for i in range(2):
            step = one_base_map_reference(b.betas[(i - 1) % 2])
            for _ in range(50):
                a = rng.uniform(0, 1)
                c = rng.uniform(0, 1)
                a, c = min(a, c), max(a, c)
                pulled = sum(
                    measure_interval(specs[(i - 1) % 2], lo, hi) for lo, hi in preimage(step, a, c)
                )
                assert pulled == pytest.approx(measure_interval(specs[i], a, c), abs=1e-8)


class TestFrequency:
    def test_digit_beyond_alphabets(self):
        assert frequency(base13(), 5) == 0.0

    def test_binary_half(self):
        assert frequency(new_base((2,)), 0) == pytest.approx(0.5, abs=1e-12)

    def test_top_digit_takes_the_sliver_above_an_integer(self):
        # alphabet 2: on [3/beta, 1) the greedy digit is capped at 2, so digit 3 never occurs
        b = new_base((3 + 1e-13,))
        (spec,) = slot_densities(b)
        assert frequency(b, 3) == 0.0
        assert frequency(b, 2) == measure_interval(spec, 2 / b.betas[0], 1.0)
        assert sum(frequency(b, d) for d in range(3)) == 1.0

    def test_huge_digit(self):
        assert frequency(new_base((2.5, 1.5)), 10**400) == 0.0

    def test_against_ergodic_average(self):
        b = base13()
        f = frequency(b, 0)
        emp = birkhoff_frequency(b, math.sqrt(2) - 1, 0, 2 * 10**5)
        assert emp == pytest.approx(f, abs=5e-3)

    def test_completeness(self):
        rng = SplitMix64(28)
        for _ in range(10):
            b = random_base(rng)
            top = max(b.alphabets)
            assert sum(frequency(b, d) for d in range(top + 1)) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_non_integer_digit(self):
        b = new_base((1.5, 2.5))
        for digit in (0.5, 1.0, np.float64(1.0), "1"):
            with pytest.raises(AlphabetError, match="not an integer"):
                frequency(b, digit)

    def test_integer_types_agree(self):
        b = new_base((1.5, 2.5))
        assert frequency(b, True) == frequency(b, np.int64(1)) == frequency(b, 1)
        assert frequency(b, np.uint8(0)) == frequency(b, False) == frequency(b, 0)

    @pytest.mark.parametrize(
        "text", ["(1+sqrt(13))/2,(5+sqrt(13))/6", "phi,phi,sqrt(5)", "phi*phi", "1.3,2.7,1.9,3.4,1.15"]
    )
    def test_equals_the_sum_over_all_slot_densities(self, text):
        b = new_base(parse_base_list(text))
        specs = slot_densities(b)
        for d in range(max(b.alphabets) + 2):
            masses = [
                measure_interval(spec, d / beta, 1.0 if d == m else (d + 1) / beta)
                for spec, beta, m in zip(specs, b.betas, b.alphabets)
                if d <= m
            ]
            assert frequency(b, d) == sum(masses) / b.p

    def test_builds_only_the_slots_where_the_digit_occurs(self, monkeypatch):
        # alphabets 1, 1, 2: digit 2 occurs only at slot 2
        b = new_base((PHI, PHI, math.sqrt(5)))
        expected = measure_interval(slot_densities(b)[2], 2 / b.betas[2], 1.0) / 3
        built = []

        def counted(map_, *args):
            built.append(map_)
            return gora_density(map_, *args)

        monkeypatch.setattr(measure, "gora_density", counted)
        assert frequency(b, 2) == expected
        assert len(built) == 1


class TestEntropyAndProduct:
    def test_entropy_values(self):
        assert entropy(new_base((2,))) == pytest.approx(math.log(2), abs=1e-12)
        assert entropy(base_phi2()) == pytest.approx(2 * math.log(PHI), abs=1e-12)
        assert entropy(base13()) == pytest.approx(0.5 * math.log((3 + SQRT13) / 2), abs=1e-12)

    @pytest.mark.parametrize(
        "betas, top", [(BASE13_BETAS, 10), ((1.3, 2.7, 1.9, 3.4, 1.15), 4)], ids=["sqrt13", "period5"]
    )
    def test_entropy_is_the_growth_rate_of_greedy_words(self, betas, top):
        # each branch of the period map of betas * n is one greedy word of length p * n, so the
        # count grows like B^n and log(count) / (p * n) tends to entropy(base) from above, as 1/n;
        # top keeps the largest map (862k branches for period 5) well within the branch bound
        base = new_base(betas)
        h, B, p = entropy(base), base.product, base.p
        counts = [compose_map(new_base(betas * n), 0).branch_count for n in range(1, top + 1)]
        gaps = [math.log(c) / (p * n) - h for n, c in enumerate(counts, 1)]
        assert all(0.0 < later < g for g, later in zip(gaps, gaps[1:]))
        assert all(n * g <= 1.5 * gaps[0] for n, g in enumerate(gaps, 1))
        errors = [abs(c / prev - B) / B for prev, c in zip(counts, counts[1:])]
        assert all(later < e for e, later in zip(errors, errors[1:]))
        assert errors[-1] < 1e-5
        # the same words counted a second way, by the suffix check against the quasi-greedy
        # expansions of 1, and that count checked on every word of length 8
        assert [count_greedy_words(base, p * n) for n in range(1, 5)] == counts[:4]
        words = itertools.product(*(range(base.alphabet(k) + 1) for k in range(8)))
        assert sum(is_greedy_word(base, w) for w in words) == count_greedy_words(base, 8)

    def test_mu_product_full(self):
        b = base13()
        full = [IntervalMeasureQuery(i, 0.0, 1.0) for i in range(2)]
        assert mu_product(b, full) == pytest.approx(1.0, abs=1e-10)

    def test_mu_product_single_slot(self):
        b = base13()
        assert mu_product(b, [IntervalMeasureQuery(0, 0.0, 1.0)]) == pytest.approx(0.5, abs=1e-12)

    def test_mu_product_known_interval(self):
        b = base13()
        q = IntervalMeasureQuery(0, 0.0, 1 / b.betas[0])
        assert mu_product(b, [q]) == pytest.approx((13 + SQRT13) / 52, abs=1e-9)

    def test_mu_product_builds_only_queried_slots(self, monkeypatch):
        b = new_base((PHI, PHI, math.sqrt(5)))
        expected = measure_interval(slot_densities(b)[1], 0.2, 0.7) / 3
        built = []

        def counted(map_, *args):
            built.append(map_)
            return gora_density(map_, *args)

        monkeypatch.setattr(measure, "gora_density", counted)
        assert mu_product(b, [IntervalMeasureQuery(1, 0.2, 0.7)]) == expected
        assert len(built) == 1
        assert mu_product(b, []) == 0.0
        assert len(built) == 1

    def test_mu_product_duplicate_slot(self):
        b = base13()
        qs = [IntervalMeasureQuery(0, 0, 0.5), IntervalMeasureQuery(0, 0.5, 1)]
        with pytest.raises(DomainError):
            mu_product(b, qs)


def _with_neighbours(keys):
    """Each key and the doubles one ulp below and above it."""
    out = set()
    for t in keys:
        out.update((math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf)))
    return sorted(out)


LOOKUP_BASES = {
    "sqrt13": base13,
    "phi_phi_sqrt5": lambda: new_base((PHI, PHI, math.sqrt(5))),
    "period5": lambda: new_base((1.3, 2.7, 1.9, 3.4, 1.15)),
}


class TestLookupsMatchSearchsorted:
    """The bisect lookups agree bit for bit with numpy.searchsorted, ties included."""

    @pytest.fixture(params=sorted(LOOKUP_BASES))
    def maps_and_specs(self, request):
        base = LOOKUP_BASES[request.param]()
        maps = [compose_map(base, i) for i in range(base.p)]
        return [(m, gora_density(m)) for m in maps]

    def test_map_lookups(self, maps_and_specs):
        rng = SplitMix64(41)
        for m, spec in maps_and_specs:
            pts = _with_neighbours(m.endpoints + spec.thresholds)
            pts += [rng.uniform(0.0, 1.0) for _ in range(200)]
            for x in pts:
                assert m.branch_of(x) == branch_of_reference(m, x)

    def test_density_lookups(self, maps_and_specs):
        for m, spec in maps_and_specs:
            pts = [x for x in _with_neighbours(m.endpoints + spec.thresholds) if 0.0 <= x < 1.0]
            for x in pts:
                assert density_eval(spec, x) == density_eval_reference(spec, x)
            for a, b in zip(pts, pts[1:] + [1.0]):
                for lo, hi in ((a, a), (a, b), (a, 1.0)):
                    assert measure_interval(spec, lo, hi) == measure_interval_reference(spec, lo, hi)

    def test_thresholds_have_ties(self, maps_and_specs):
        # side="left" and side="right" differ only on ties, so the keys must have some
        assert any(len(set(s.thresholds)) < len(s.thresholds) for _, s in maps_and_specs)

    def test_duplicated_thresholds(self):
        t = (0.0, 0.25, 0.5, 0.5, 0.5, 0.75, 0.75)
        w = (0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125)
        spec = DensitySpec(1, (0.5,), (1.0, 1.0), 1.7, 2.0, len(t), t, w)
        pts = _with_neighbours(t + (1.0,))
        for x in pts:
            if 0.0 <= x < 1.0:
                assert density_eval(spec, x) == density_eval_reference(spec, x)
        for a in pts:
            for b in pts:
                if 0.0 <= a <= b <= 1.0:
                    assert measure_interval(spec, a, b) == measure_interval_reference(spec, a, b)


# every slot of these is checked bit for bit against the per-entry S
NAMED_BASES = (
    "(1+sqrt(13))/2,(5+sqrt(13))/6",
    "phi,phi,sqrt(5)",
    "phi*phi",
    "1.3,2.7,1.9,3.4,1.15",
    "1.3,2.7,1.9,3.4,1.15,2.2,1.7,2.9",
    "1.5,1.5,4",
    "sqrt(5)/2,sqrt(6)/2,sqrt(7)/2",
    "2",
    "3+1.5e-12",
    "1.5,2.5",
)
# upper end of the random betas per period, so the branch count stays small
RANDOM_HI = {1: 4.0, 2: 3.2, 3: 2.6, 4: 2.2, 5: 2.0, 6: 1.9, 7: 1.85, 8: 1.75}


def _bitwise_bases():
    named = [(text, new_base(parse_base_list(text))) for text in NAMED_BASES]
    rng = SplitMix64(43)
    rand = []
    for k in range(42):
        p = 1 + k % 7
        rand.append((f"random{k:02d}-p{p}", random_base(rng, p, p, hi=RANDOM_HI[p])))
    # two random period-8 bases, drawn after the others so that those stay as they were
    rand += [(f"random{k}-p8", random_base(rng, 8, 8, hi=RANDOM_HI[8])) for k in (42, 43)]
    return named + rand


BITWISE_BASES = _bitwise_bases()


class TestCorrectionMatrix:
    """S from one masked sum per threshold rank equals the per-entry sums bit for bit."""

    @pytest.mark.parametrize("base", [b for _, b in BITWISE_BASES], ids=[t for t, _ in BITWISE_BASES])
    def test_matches_reference(self, base, monkeypatch):
        for slot in range(base.p):
            m = compose_map(base, slot)
            spec = gora_density(m)
            S = correction_matrix(m, spec)
            ref = correction_matrix_reference(endpoint_orbits(m, spec), spec.c, spec.B, spec.M)
            assert S.shape == ref.shape == (spec.K, spec.K) and S.tobytes() == ref.tobytes()
            # the build turns its S into Id - S in place, so it gets a copy
            with monkeypatch.context() as mp:
                mp.setattr(measure, "_correction_matrix", lambda H, cs, powers: ref.copy())
                rebuilt = gora_density(m)
            assert (rebuilt.d, rebuilt.C) == (spec.d, spec.C)
            assert (rebuilt.thresholds, rebuilt.weights) == (spec.thresholds, spec.weights)

    @pytest.mark.parametrize("text", ["(1+sqrt(13))/2,(5+sqrt(13))/6", "phi,phi,sqrt(5)", "1.5,1.5,4"])
    def test_cuts_on_orbit_points(self, text):
        # a rank taken with the wrong side differs only where a cut equals an orbit point
        base = new_base(parse_base_list(text))
        found = False
        for slot in range(base.p):
            m = compose_map(base, slot)
            spec = gora_density(m)
            found |= any(c in orbit for orbit in endpoint_orbits(m, spec) for c in spec.c)
        assert found


def _float_bits(values):
    return tuple(float(v).hex() for v in values)


def _spec_bits(spec, orbits, S):
    """Every field of a DensitySpec, floats as hex, then the orbits, then S as its shape and
    entries."""
    return (
        spec.K, spec.M, spec.B.hex(), spec.C.hex(), _float_bits(spec.c), _float_bits(spec.d),
        _float_bits(spec.thresholds), _float_bits(spec.weights),
        tuple(_float_bits(o) for o in orbits), S.shape, _float_bits(S.ravel()),
    )


def _with_matrix(m, M=None):
    """gora_density's spec and the orbits and S that the helpers rebuild for it, as the
    reference returns them."""
    spec = gora_density(m, M)
    return spec, endpoint_orbits(m, spec), correction_matrix(m, spec)


def _density_outcome(build, m, M):
    """_spec_bits of what build returns, or the type and message of the error it raises."""
    try:
        return _spec_bits(*build(m, M))
    except (SingularSystem, TruncationTooShallow) as e:
        return type(e).__name__, str(e)


def _cuts(m):
    return [e for e, top in zip(m.endpoints[1:], branch_image_tops(m)) if top < 1.0 - EPS_GEO]


def _assert_matches_reference(m, M=None):
    assert _density_outcome(_with_matrix, m, M) == _density_outcome(gora_density_reference, m, M)
    depth = M or measure.default_truncation(m.slope)
    got = _endpoint_orbits(m, _cuts(m), depth)
    assert tuple(_float_bits(o) for o in got) == tuple(
        _float_bits(o) for o in endpoint_orbits_reference(m, _cuts(m), depth)
    )


# bases within 1e-13 to 1e-6 of an integer, where EPS_SNAP and EPS_GEO decide branches
NEAR_INTEGER_BASES = [
    (n + sign * 10.0**-k,) for n in (2, 3, 5) for k in (6, 8, 10, 12, 13) for sign in (1, -1)
] + [(2 + 1e-9, 1.5), (3 - 1e-7, 2 + 1e-11), (1.5, 2 - 1e-12, 3 + 1e-8)]


def _close_breakpoint_map(gap, land):
    """Slope 3 with breakpoints 0.5 and 0.5 + gap; the last cut's left limit is 0.5 + land."""
    upper = 0.5 + gap
    return PiecewiseLinearMap((0.0, 1 / 3, 0.5, upper, upper + (0.5 + land) / 3, 1.0), 3.0)


def _close_chain_map(chain, land):
    """Slope 3 with breakpoints 4e-10 and ``chain``; the cut 4e-10 + land/3 lands at ``land``."""
    v = 4e-10 + land / 3
    ends = (0.0, 4e-10, v) + ((v + 1 / 3,) if v + 1 / 3 < chain[0] else ()) + chain
    return PiecewiseLinearMap(ends + (chain[-1] + 1 / 3, 1.0), 3.0)


# endpoint orbits that snap back onto a breakpoint they met before: Parry bases, and
# 2+1e-10, whose orbit sticks on one breakpoint
CYCLING_BASES = ("(1+sqrt(13))/2,(5+sqrt(13))/6", "phi,phi,sqrt(5)", "2+1e-10")


def _returning_map():
    """Slope 2 with breakpoints 0.5 and 0.8: the cut 0.8 goes to 0.6, 0.2, 0.4 and back onto 0.8."""
    return PiecewiseLinearMap((0.0, 0.5, 0.8, 1.0), 2.0)


class TestEndpointOrbitsMatchReference:
    """One bisect per orbit point gives the one-_modified_step-per-point orbits bit for bit;
    so does copying the stretch since a repeated breakpoint."""

    @pytest.mark.parametrize("text", NAMED_BASES + ("2+1.5e-12",))
    def test_named_bases(self, text):
        base = new_base(parse_base_list(text))
        for slot in range(base.p):
            _assert_matches_reference(compose_map(base, slot))

    def test_random_bases(self):
        rng = SplitMix64(2027)
        for k in range(112):
            p = 1 + k % 8
            base = random_base(rng, p, p, hi=RANDOM_HI[p])
            for slot in range(base.p):
                _assert_matches_reference(compose_map(base, slot))

    @pytest.mark.parametrize("M", [None, 200])
    def test_near_integer_bases(self, M):
        for betas in NEAR_INTEGER_BASES:
            base = new_base(betas)
            for slot in range(base.p):
                _assert_matches_reference(compose_map(base, slot), M)

    @pytest.mark.parametrize("gap", [5e-10, 9e-10])
    @pytest.mark.parametrize("land", [-3e-10, 2e-10, 5e-10, 7e-10, 1.2e-9])
    @pytest.mark.parametrize("M", [None, 200])
    def test_breakpoints_closer_than_eps_geo(self, gap, land, M):
        _assert_matches_reference(_close_breakpoint_map(gap, land), M)

    def test_second_snap_moves_to_the_lower_breakpoint(self):
        # the case above with land = 7e-10: 0.5 + 7e-10 lies within EPS_GEO of both breakpoints
        # and snaps onto the upper one; the step from there snaps again, onto 0.5
        m = _close_breakpoint_map(5e-10, 7e-10)
        assert endpoint_orbits(m, gora_density(m))[-2][:3] == (m.endpoints[3], 0.5, 0.5)

    def test_snap_between_close_breakpoints(self):
        # a chain of three breakpoints, each within EPS_GEO of the next, and one within EPS_GEO
        # of 0; a cut's orbit starts at each land, on and one ulp beside every breakpoint
        chain = (0.5, 0.5 + 5e-10, 0.5 + 1e-9)
        near_zero = (4e-10, 1e-9, 1.2e-9, 1.4e-9)
        for land in _with_neighbours((1.0,) + chain + near_zero):
            if land < 1.0 - 2 * EPS_GEO:
                for M in (None, 200):
                    _assert_matches_reference(_close_chain_map(chain, land), M)

    def test_points_past_the_last_breakpoint(self):
        # a branch wider than 1/slope maps past 1, where branch_of clamps to the last branch
        m = PiecewiseLinearMap((0.0, 0.3, 1.0), 2.5)
        assert endpoint_orbits(m, gora_density(m))[0][:3] == (0.75, 1.125, 2.0625)
        _assert_matches_reference(m)

    def test_equal_first_points_give_equal_rows(self):
        # an endpoint orbit depends on its first point alone, so the cuts of branches with equal
        # image tops could share one stepped orbit (597 of the 2,186 rows here repeat one)
        bases = [new_base(parse_base_list(t)) for t in cli_golden.BASES]
        repeated = 0
        for base in bases + list(_orbit_random_bases().values()):
            for slot in range(base.p):
                m = compose_map(base, slot)
                first = {}
                for row in endpoint_orbits(m, gora_density(m)):
                    repeated += row[0] in first
                    assert first.setdefault(row[0], row) == row
        assert repeated > 0


    @pytest.mark.parametrize("M", [None, 200, 10**4])
    @pytest.mark.parametrize("text", CYCLING_BASES)
    def test_cycling_bases(self, text, M):
        base = new_base(parse_base_list(text))
        for slot in range(base.p):
            m = compose_map(base, slot)
            _assert_matches_reference(m, M)
            # the thresholds repeat with the orbits, so ties decide the argsort order
            spec = gora_density(m, M)
            assert spec.K > 0 and len(set(spec.thresholds)) * 10 < len(spec.thresholds)

    @pytest.mark.parametrize("M", [None, 200, 10**4])
    def test_orbit_returns_to_its_own_cut(self, M):
        m = _returning_map()
        assert _cuts(m) == [0.8, 1.0]
        orbit = endpoint_orbits(m, gora_density(m, M))[0]
        assert orbit[3] == 0.8 and orbit[4:8] == orbit[:4]
        _assert_matches_reference(m, M)

    def test_repeated_breakpoint_stops_the_stepping(self, monkeypatch):
        # one bisect per point would be 3 * 10^4 on slot 0 of the sqrt(13) pair
        m = compose_map(base13(), 0)
        cs = _cuts(m)
        calls = []

        def counted(*args):
            calls.append(args)
            return bisect.bisect_left(*args)

        monkeypatch.setattr(measure, "bisect_left", counted)
        orbits = _endpoint_orbits(m, cs, 10**4)
        assert len(cs) == 3 and len(calls) < 4 * len(cs)
        assert [len(o) for o in orbits] == [10**4] * 3


class TestComposeMapMatchesReference:
    """One refinement pass gives the chain of two-map compositions bit for bit."""

    @staticmethod
    def _assert_slots_match(base):
        for slot in range(base.p):
            got, ref = compose_map(base, slot), compose_map_reference(base, slot)
            assert _float_bits(got.endpoints) == _float_bits(ref.endpoints)
            assert got.slope.hex() == ref.slope.hex()

    @pytest.mark.parametrize("text", NAMED_BASES + ("2+1.5e-12",))
    def test_named_bases(self, text):
        self._assert_slots_match(new_base(parse_base_list(text)))

    def test_near_integer_bases(self):
        for betas in NEAR_INTEGER_BASES:
            self._assert_slots_match(new_base(betas))

    def test_random_bases(self):
        # 1,800 slot maps
        rng = SplitMix64(2028)
        for k in range(400):
            p = 1 + k % 8
            self._assert_slots_match(random_base(rng, p, p, hi=RANDOM_HI[p]))

    @pytest.mark.parametrize(
        "betas",
        [(1.5,) * 24, (1.1,) * 24, (2.1,) * 15, (1.5, 1.1) * 12],
        ids=["1.5x24", "1.1x24", "2.1x15", "1.5,1.1x12"],
    )
    def test_long_periods(self, betas):
        # up to 2^24 digit blocks per period but at most 106,007 branches: the
        # branch count, not the block count, decides whether a map is built
        base = new_base(betas)
        got, ref = compose_map(base, 0), compose_map_reference(base, 0)
        assert _float_bits(got.endpoints) == _float_bits(ref.endpoints)
        assert got.slope.hex() == ref.slope.hex()

    def test_wide_random_bases(self):
        # betas up to 3.5 give alphabets up to 3 and hundreds of branches per slot
        rng = SplitMix64(2029)
        for k in range(48):
            p = 1 + k % 6
            self._assert_slots_match(random_base(rng, p, p, hi=3.5))


# relative gap allowed between density_eval and the orbit-of-1 density away from thresholds
ORBIT_OF_ONE_REL = 1e-10
GRID = 3000


def _orbit_of_one_gaps(base):
    """Per slot, the largest relative gap between the two densities and the points compared.

    The grid points are the GRID cell midpoints at least EPS_GEO from every
    threshold of either density, where closed and open indicators agree.
    """
    out = []
    for spec, steps in zip(slot_densities(base), orbit_of_one_density(base)):
        keys = sorted(set(spec.thresholds) | {t for t, _ in steps})
        worst, n = 0.0, 0
        for k in range(GRID):
            x = (k + 0.5) / GRID
            j = bisect.bisect_left(keys, x)
            if (j < len(keys) and keys[j] - x < EPS_GEO) or (j and x - keys[j - 1] < EPS_GEO):
                continue
            got = density_eval(spec, x)
            worst = max(worst, abs(got - step_density_eval(steps, x)) / got)
            n += 1
        out.append((worst, n))
    return out


# Against exact rational arithmetic on the same float betas, slot 1 of random15-p8 has the
# orbit-of-1 density within 1.3e-16 and gora_density 1.06e-10 off at x = 0.67517.  Góra's
# construction run exactly on the float composed map gives gora_density's value, and the gap
# is the weight B^-8 of one 8th orbit point: the map's endpoint rounding, grown by the slope
# 17.65 at each step, moves that point across x.  A strict xfail until item 1 Stage B.
KNOWN_GAP = pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="gora_density off by 1.06e-10"
)


# The near-integer FOUND in CHANGES.md: gora_density snaps the cut 1.0 onto a breakpoint
# within EPS_GEO below it (0.99999999995 on 2+1e-10), and the cut's orbit sticks there,
# while the orbit of 1 grows from about 1e-10.  On the 3,000-point grid the worst relative
# gaps are 4.8e-7 on 2+1e-10 and 0.17 on slot 0 of 2.000000001,1.5.  A strict xfail until
# item 1 Stage B or a snap fix.
NEAR_INTEGER_GAP = pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="gora_density's orbit sticks at a snapped cut"
)


def _orbit_of_one_bases():
    """The named bases but 3+1.5e-12 (pinned on its own below), two bases within 1e-9 of
    an integer (strict xfails) and 40 seeded random bases."""
    named = [text for text in NAMED_BASES if text not in ("2", "3+1.5e-12")]
    bases = [pytest.param(new_base(parse_base_list(text)), id=text) for text in named]
    for text in ("2+1e-10", "2.000000001,1.5"):
        bases.append(pytest.param(new_base(parse_base_list(text)), id=text, marks=NEAR_INTEGER_GAP))
    for name, base in _orbit_random_bases().items():
        bases.append(pytest.param(base, id=name, marks=KNOWN_GAP if name == "random15-p8" else ()))
    return bases


def _orbit_random_bases():
    """40 seeded random bases, of periods 1 to 8 in turn, by name."""
    rng = SplitMix64(44)
    out = {}
    for k in range(40):
        p = 1 + k % 8
        out[f"random{k:02d}-p{p}"] = random_base(rng, p, p, hi=RANDOM_HI[p])
    return out


class TestOrbitOfOneDensity:
    """The composed-map density agrees with the paper's density from the greedy orbits of 1."""

    @pytest.mark.parametrize("base", _orbit_of_one_bases())
    def test_matches_density_eval(self, base):
        for worst, n in _orbit_of_one_gaps(base):
            assert n >= GRID - 10
            assert worst <= ORBIT_OF_ONE_REL

    @pytest.mark.parametrize("text", ["2", "3", "2,3", "5,2,4"])
    def test_integer_bases_are_uniform(self, text):
        # 1 has the one-digit expansion beta, so every orbit of 1 ends at 0 at once
        base = new_base(parse_base_list(text))
        assert all(steps == ((1.0, 1.0),) for steps in orbit_of_one_density(base))
        assert all(worst == 0.0 for worst, _ in _orbit_of_one_gaps(base))

    def test_just_above_three(self):
        # the one cut, 1.0, lies within EPS_GEO of the breakpoint 3/beta, so its orbit starts and
        # stays there and the density is flat; the exact orbit of 1 grows from 1.5e-12 instead,
        # and the two differ by up to 3.9e-9 relative near 0 (ROADMAP item 5)
        base = new_base(parse_base_list("3+1.5e-12"))
        m = compose_map(base, 0)
        spec = gora_density(m)
        assert spec.K == 1 and set(endpoint_orbits(m, spec)[0]) == {m.endpoints[3]}
        assert len({density_eval(spec, (k + 0.5) / GRID) for k in range(GRID)}) == 1


# relative gap allowed between the float orbit-of-1 density and the same construction in exact
# arithmetic; the worst gaps are 7.3e-15 on the first base, 4.7e-13 on period 5, 4.0e-15 on period 8
EXACT_REL = 1e-12


class TestOrbitOfOneExact:
    """The float orbit-of-1 density against its exact rational twin on the same float betas."""

    @pytest.mark.parametrize("text", NAMED_BASES + ("2+1e-10", "2.000000001,1.5"))
    def test_float_within_exact(self, text):
        base = new_base(parse_base_list(text))
        xs = [(k + 0.5) / 400 for k in range(400)] + [0.99999999996]
        exact_slots = orbit_of_one_density_exact(base)
        for (ts, tails, mass), steps in zip(exact_slots, orbit_of_one_density(base)):
            for x in xs:
                exact = tails[bisect.bisect_right(ts, x)] / mass
                assert abs(step_density_eval(steps, x) - exact) <= EXACT_REL * exact

    @pytest.mark.parametrize("text", ["2", "2,3", "5,2,4"])
    def test_integer_bases_are_exactly_uniform(self, text):
        for ts, tails, mass in orbit_of_one_density_exact(new_base(parse_base_list(text))):
            assert ts == [1] and tails == [mass, 0]


# relative bound on |P h - h| for the transfer operator P of the period map
RESIDUAL_REL = 1e-12


def _transfer(m, h):
    """P h: x -> (1/B) * sum of h(e_k + x/B) over the branches whose image top exceeds x."""
    B = m.slope
    branches = list(zip(m.endpoints, branch_image_tops(m)))
    return lambda x: sum(h(e + x / B) for e, top in branches if top > x) / B


class TestTransferOperatorResidual:
    """Both densities are fixed points of the period map's transfer operator.

    At 300 seeded points per slot, |P h - h| <= RESIDUAL_REL * h, with h(x)
    from density_eval and from the orbits of 1, and P h from their tables.
    """

    @pytest.mark.parametrize("text", NAMED_BASES)
    def test_residual(self, text):
        base = new_base(parse_base_list(text))
        rng = SplitMix64(45)
        for slot, (spec, steps) in enumerate(zip(slot_densities(base), orbit_of_one_density(base))):
            m = compose_map(base, slot)
            table = step_table(spec.thresholds, spec.weights, spec.d[0], bisect.bisect_left)
            gora = _transfer(m, table)
            ts, vs = zip(*sorted(steps))
            paper = _transfer(m, step_table(ts, vs, 0.0, bisect.bisect_right))
            for _ in range(300):
                x = rng.uniform(0.0, 1.0)
                hx = density_eval(spec, x)
                assert abs(gora(x) / spec.C - hx) <= RESIDUAL_REL * hx
                hx = step_density_eval(steps, x)
                assert abs(paper(x) - hx) <= RESIDUAL_REL * hx


# L1 bound on h_{i+1} - P_i h_i for slot densities of mass 1
CROSS_SLOT_L1 = 1e-12


def _cross_slot_bases():
    """The golden bases and random15-p8.  On random15-p8, gora_density's 1.06e-10 gap
    (KNOWN_GAP) sits on an interval too narrow to move the L1 norm: it reads 9.9e-15."""
    golden = [pytest.param(new_base(parse_base_list(t)), id=t) for t in cli_golden.BASES]
    return golden + [pytest.param(_orbit_random_bases()["random15-p8"], id="random15-p8")]


def _spec_steps(spec):
    """(thresholds, h) of a DensitySpec, h(x) by one table lookup."""
    table = step_table(spec.thresholds, spec.weights, spec.d[0], bisect.bisect_left)
    return spec.thresholds, lambda x: table(x) / spec.C


class TestCrossSlotResidual:
    """Each slot's density is the one-step transfer of the slot before it.

    The exact L1 residual of tests/reference.py, for gora_density and for the
    orbits of 1; it needs only the single bases, not the composed period map.
    """

    @pytest.mark.parametrize("base", _cross_slot_bases())
    def test_residual(self, base):
        gora = [_spec_steps(spec) for spec in slot_densities(base)]
        paper = []
        for steps in orbit_of_one_density(base):
            ts, vs = zip(*sorted(steps))
            paper.append((ts, step_table(ts, vs, 0.0, bisect.bisect_right)))
        assert max(cross_slot_residual(base, gora)) <= CROSS_SLOT_L1
        assert max(cross_slot_residual(base, paper)) <= CROSS_SLOT_L1


# relative gap allowed between |Id - S|_1 * max(y) and np.linalg.cond(Id - S, 1)
CERTIFICATE_REL = 1e-12


def _certificate_bases():
    """The golden bases, random15-p8, three bases within 1e-9 of an integer and 200 seeded
    random bases of periods 1 to 8."""
    texts = cli_golden.BASES + ("2+1e-10", "2.000000001,1.5", "3+1.5e-12")
    bases = [(text, new_base(parse_base_list(text))) for text in texts]
    bases.append(("random15-p8", _orbit_random_bases()["random15-p8"]))
    rng = SplitMix64(46)
    for k in range(200):
        p = 1 + k % 8
        bases.append((f"random{k:03d}-p{p}", random_base(rng, p, p, hi=RANDOM_HI[p])))
    return bases


def _guarded_maps():
    """Every slot map of the golden bases and of 40 seeded random bases, and slot 0 of
    (1.5,)*14, where K = 302 and the inverse dominated the build."""
    bases = [new_base(parse_base_list(t)) for t in cli_golden.BASES]
    bases += _orbit_random_bases().values()
    return [compose_map(b, slot) for b in bases for slot in range(b.p)] + [
        compose_map(new_base((1.5,) * 14), 0)
    ]


class TestConditionCertificate:
    """The weights y of (Id - S)^T y = 1 certify the condition number checked against COND_MAX.

    S >= 0 makes Id - S a Z-matrix, and y > 0 then makes it an M-matrix with a
    nonnegative inverse, whose 1-norm is max(y).
    """

    def test_weights_are_positive_and_give_the_condition_number(self):
        checked = 0
        for text, base in _certificate_bases():
            for slot, spec in enumerate(slot_densities(base)):
                if spec.K == 0:
                    continue
                y = np.array(spec.d[1:])
                A = np.eye(spec.K) - correction_matrix(compose_map(base, slot), spec)
                assert y.min() > 0.0, (text, slot)
                cond = np.linalg.norm(A, 1) * y.max()
                assert cond == pytest.approx(np.linalg.cond(A, 1), rel=CERTIFICATE_REL), (text, slot)
                checked += 1
        assert checked > 900

    def test_no_inverse_is_taken(self, monkeypatch):
        maps = _guarded_maps()
        expected = [_density_outcome(gora_density_reference, m, None) for m in maps]
        assert expected[-1][0] == 302  # K of (1.5,)*14 slot 0

        def refuse(*args, **kwargs):
            raise AssertionError("the weight solve certifies the condition number")

        monkeypatch.setattr(np.linalg, "cond", refuse)
        monkeypatch.setattr(np.linalg, "inv", refuse)
        assert [_density_outcome(_with_matrix, m, None) for m in maps] == expected


def _near_integer_random_bases():
    """60 seeded random bases of periods 1 to 6, each with one component 1e-9 to 1e-4 from 2
    or 3, on either side."""
    rng = SplitMix64(47)
    bases = []
    for k in range(60):
        p = 1 + k % 6
        betas = list(random_base(rng, p, p, hi=RANDOM_HI[p]).betas)
        near = randint(rng, 2, 3) + (-1) ** randint(rng, 0, 1) * 10.0 ** -rng.uniform(4.0, 9.0)
        betas[randint(rng, 0, p - 1)] = near
        bases.append((f"near{k:02d}-p{p}", new_base(betas)))
    return bases


class TestPositiveWeights:
    """Every weight d[1:] is positive, as the density is equivalent to Lebesgue measure (Góra
    2009); gora_density's condition certificate rests on it and raises without it."""

    def test_every_weight_is_positive(self):
        # the weights are solved here apart from the build, whose own check would raise
        checked = 0
        for text, base in _certificate_bases() + _near_integer_random_bases():
            for slot, spec in enumerate(slot_densities(base)):
                if spec.K == 0:
                    continue
                S = correction_matrix(compose_map(base, slot), spec)
                y = np.linalg.solve((np.eye(spec.K) - S).T, np.ones(spec.K))
                assert y.min() > 0.0, (text, slot)
                assert spec.d[1:] == tuple(y.tolist()), (text, slot)
                checked += 1
        assert checked > 1000


# slot 1 of 2.000000001,1.5 has K = 2 cuts
K2_MAP = compose_map(new_base((2.000000001, 1.5)), 1)


def _outcomes_with_matrix(monkeypatch, S):
    """_density_outcome of the reference and of gora_density on K2_MAP with S in place of
    the correction matrix; gora_density may not call np.linalg.cond."""
    assert len(_cuts(K2_MAP)) == len(S) == 2

    def patch(H, cs, powers):
        return S.copy()  # gora_density overwrites its S

    def refuse(*args):
        raise AssertionError("the weight solve certifies the condition number")

    monkeypatch.setattr(measure, "_correction_matrix", patch)
    monkeypatch.setattr(reference, "_correction_matrix", patch)
    expected = _density_outcome(gora_density_reference, K2_MAP, None)
    monkeypatch.setattr(np.linalg, "cond", refuse)
    return expected, _density_outcome(_with_matrix, K2_MAP, None)


class TestUncertifiedWeights:
    """Where the solve certifies nothing, the build raises as the reference does."""

    def test_singular_matrix_raises_from_the_solve(self, monkeypatch):
        expected, got = _outcomes_with_matrix(monkeypatch, np.eye(2))
        assert got == expected == ("SingularSystem", "Id - S is singular or too ill-conditioned")

    def test_negative_weights_raise(self, monkeypatch):
        # spectral radius 2: the weights solve to -1, -1, though cond_1(Id - S) is only 3
        expected, got = _outcomes_with_matrix(monkeypatch, np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert got == expected == ("SingularSystem", "a weight of Id - S came out nonpositive")

    @pytest.mark.parametrize("eps, raises", [(1e-9, False), (1e-10, True)])
    def test_certified_condition_number_on_either_side_of_cond_max(self, monkeypatch, eps, raises):
        # the weights solve to about 1/eps each, so the condition number is about 2/eps
        S = np.array([[0.0, 1.0 - eps], [1.0 - eps, 0.0]])
        expected, got = _outcomes_with_matrix(monkeypatch, S)
        assert got == expected
        assert (got[0] == "SingularSystem") == raises


def _lazy_frequency(base, a):
    """Lazy digit-a frequency: (1/p) times the sum over slots i of the greedy mass of m_i - a.

    core.phi carries the lazy orbit onto a greedy one, and a lazy digit a at
    slot i onto the greedy digit m_i - a.
    """
    total = 0.0
    for spec, beta, m in zip(slot_densities(base), base.betas, base.alphabets):
        if a <= m:
            g = m - a
            total += measure_interval(spec, g / beta, 1.0 if g == m else (g + 1) / beta)
    return total / base.p


LAZY_BASES = ["(1+sqrt(13))/2,(5+sqrt(13))/6", "1.3,2.7,1.9,3.4,1.15"]


class TestLazyFrequency:
    """The lazy system is the greedy one reflected by core.phi (ROADMAP item 6)."""

    @pytest.mark.parametrize("text", LAZY_BASES)
    def test_reflection_pairs_the_digits(self, text):
        base = new_base(parse_base_list(text))
        s = StatePoint(0, math.sqrt(2) - 1)
        for _ in range(2000):
            t, d = lazy_step(base, s)
            g, e = greedy_step(base, phi(base, s))
            assert e == base.alphabets[s.slot] - d
            assert phi(base, g).value == pytest.approx(t.value, abs=1e-9)
            s = t

    @pytest.mark.parametrize("text", LAZY_BASES)
    def test_matches_digit_counts_of_long_lazy_words(self, text):
        base = new_base(parse_base_list(text))
        n = 2 * 10**5
        counts = np.bincount(lazy_expand(base, math.sqrt(2) - 1, n).digits)
        freqs = [_lazy_frequency(base, a) for a in range(max(base.alphabets) + 1)]
        assert sum(freqs) == pytest.approx(1.0, abs=1e-10)
        assert counts / n == pytest.approx(freqs, abs=5e-3)
        # the lazy frequencies are not the greedy ones
        assert max(abs(f - frequency(base, a)) for a, f in enumerate(freqs)) > 0.05


class TestLazyDensity:
    """Slot i's lazy density is the greedy one reflected, x -> xmax_i - x (ROADMAP item 6)."""

    BINS = 32
    POINTS_PER_SLOT = 5 * 10**4
    BURN_IN = 100  # steps that carry the start into the support (xmax_i - 1, xmax_i]

    @pytest.mark.parametrize("text", LAZY_BASES)
    def test_orbit_histograms_match_the_reflected_greedy_mass(self, text):
        base = new_base(parse_base_list(text))
        s = StatePoint(0, math.sqrt(2) - 1)
        for _ in range(self.BURN_IN * base.p):
            s, _ = lazy_step(base, s)
        points = [[] for _ in range(base.p)]
        for _ in range(self.POINTS_PER_SLOT * base.p):
            points[s.slot].append(s.value)
            s, _ = lazy_step(base, s)
        offsets = np.arange(self.BINS + 1) / self.BINS
        for spec, top, xs in zip(slot_densities(base), base.xmax, points):
            counts, _ = np.histogram(xs, bins=top - 1.0 + offsets)
            assert len(xs) == self.POINTS_PER_SLOT and counts.sum() == len(xs)
            # bin (top - 1 + a, top - 1 + b] reflects onto [1 - b, 1 - a)
            mass = [measure_interval(spec, 1.0 - b, 1.0 - a) for a, b in zip(offsets, offsets[1:])]
            assert counts / len(xs) == pytest.approx(mass, abs=5e-3)


class TestCorrectionMatrixStorage:
    """A DensitySpec keeps no K x K array; tests rebuild S with helpers.correction_matrix."""

    def test_spec_holds_no_matrix(self):
        m = compose_map(new_base((1.3, 2.7, 1.9, 3.4, 1.15)), 0)
        spec = gora_density(m)
        # the step density alone: neither S nor the K x M endpoint-orbit table
        assert DensitySpec._fields == ("K", "c", "d", "C", "B", "M", "thresholds", "weights")
        assert spec.K > 0
        assert all(type(getattr(spec, name)) in (int, float, tuple) for name in DensitySpec._fields)
        S = correction_matrix(m, spec)
        assert (S.ndim, S.dtype, S.shape) == (2, np.float64, (spec.K, spec.K))

    def test_separate_builds_equal_and_hash_equal(self):
        m = compose_map(new_base((PHI, PHI, math.sqrt(5))), 1)
        first, second = gora_density(m), gora_density(m)
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)

    def test_every_field_is_compared(self):
        spec = gora_density(compose_map(new_base((PHI, PHI, math.sqrt(5))), 1))
        values = {name: getattr(spec, name) for name in DensitySpec._fields}
        twin = DensitySpec(**values)
        assert twin == spec and hash(twin) == hash(spec)
        changed = {
            "K": spec.K + 1, "c": spec.c[1:], "d": spec.d[1:],
            "C": spec.C * 2, "B": spec.B * 2, "M": spec.M + 1,
            "thresholds": spec.thresholds[1:], "weights": spec.weights[1:],
        }
        assert changed.keys() == values.keys()
        for name, value in changed.items():
            assert DensitySpec(**{**values, name: value}) != spec, name


# K = 1 with cut 1/phi^2, whose orbit 1/phi, 1/phi^2, ... gives S = sum of phi^-(2m+1) = 1:
# Id - S is singular, but in floats 1 - S is 4.4e-16 and its condition number is 1
PHI_SINGULAR_MAP = PiecewiseLinearMap((0.0, 1 - 1 / PHI, 1.0), PHI)
# the forward-error bounds of real bases stay below this (2.3e-14 on 3,000 benchmark bases)
FORWARD_ERROR_SEEN = 1e-12


def _forward_error(m, spec):
    """max(y) |S|_1 M 2^-53, the bound gora_density checks against FORWARD_ERROR_MAX."""
    return max(spec.d[1:]) * np.linalg.norm(correction_matrix(m, spec), 1) * spec.M * 2.0**-53


class TestForwardErrorGate:
    """Weights that rounding in S could move by more than FORWARD_ERROR_MAX raise."""

    def test_singular_k1_map_raises(self):
        got = _density_outcome(_with_matrix, PHI_SINGULAR_MAP, None)
        assert got == _density_outcome(gora_density_reference, PHI_SINGULAR_MAP, None)
        assert got[0] == "SingularSystem" and got[1].startswith("rounding in S may move")
        assert SingularSystem.exit_code == 4

    def test_real_bases_stay_far_below_the_gate(self):
        bounds = []
        for _, base in _certificate_bases():
            for slot, spec in enumerate(slot_densities(base)):
                if spec.K:
                    bounds.append(_forward_error(compose_map(base, slot), spec))
        assert len(bounds) > 900
        assert max(bounds) < FORWARD_ERROR_SEEN < measure.FORWARD_ERROR_MAX

    def test_gate_compares_the_bound(self, monkeypatch):
        m = compose_map(base13(), 1)
        bound = _forward_error(m, gora_density(m))
        monkeypatch.setattr(measure, "FORWARD_ERROR_MAX", bound)
        gora_density(m)
        monkeypatch.setattr(measure, "FORWARD_ERROR_MAX", bound * (1 - 1e-9))
        with pytest.raises(SingularSystem, match="rounding in S"):
            gora_density(m)


def _left_to_right_normalisation(m, spec):
    """1 plus every weight times its threshold, added one at a time in (j, m) order."""
    powers = spec.B ** -np.arange(1, spec.M + 1)
    T = np.minimum(endpoint_orbits(m, spec), 1.0).ravel()
    W = np.multiply.outer(spec.d[1:], powers).ravel()
    C = 1.0
    for v in (W * T).tolist():
        C += v
    return C


class TestNormalisationSum:
    """C is the left-to-right sum, taken by np.add.accumulate without a list of floats."""

    def test_matches_the_left_to_right_loop(self):
        checked = 0
        for _, base in BITWISE_BASES:
            for slot, spec in enumerate(slot_densities(base)):
                assert spec.C.hex() == _left_to_right_normalisation(compose_map(base, slot), spec).hex()
                checked += spec.K > 0
        assert checked > 100

    def test_accumulate_adds_left_to_right(self):
        rng = np.random.default_rng(26)
        for n in (1, 2, 3, 7, 100, 1001, 20000):
            for signs in (1.0, rng.choice((-1.0, 1.0), n)):
                values = signs * 10.0 ** rng.uniform(-11.0, 11.0, n)
                total = 0.0
                for v in values.tolist():
                    total += v
                assert np.add.accumulate(values)[-1].hex() == total.hex()


def _traced(call):
    """(result, held bytes, peak bytes) that tracemalloc sees while call() runs."""
    assert not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


PERIOD8 = (1.3, 2.7, 1.9, 3.4, 1.15, 2.2, 1.7, 2.9)


class TestBuildMemory:
    """A build holds Id - S and LAPACK's copy at most, and a spec holds no K x K array and no
    endpoint-orbit table."""

    def test_period8_specs_hold_under_2_mib(self):
        slot_densities(new_base((1.5, 2.5)))  # loads what a first build loads
        specs, held, _ = _traced(lambda: slot_densities(new_base(PERIOD8)))
        assert sum(s.K**2 for s in specs) == 386526
        assert held < 2 * 2**20

    def test_deep_k1_build_holds_two_float_tuples_per_point(self):
        # the thresholds and weights take a tuple slot and a float object each, 2 * (8 + 24) B
        # a point; a spec that kept the orbit table too would hold 96 B and peak at 136 B
        M = 10**5
        m = compose_map(new_base((2.5,)), 0)
        gora_density(compose_map(new_base((1.5, 2.5)), 0))  # loads what a first build loads
        spec, held, peak = _traced(lambda: gora_density(m, M))
        assert (spec.K, len(spec.thresholds)) == (1, M)
        assert held <= 64 * M + 2**16
        assert peak < 120 * M

    def test_one_build_peaks_under_two_matrices(self):
        m = compose_map(new_base(PERIOD8), 5)
        gora_density(compose_map(new_base((1.5, 2.5)), 0))
        spec, _, peak = _traced(lambda: gora_density(m))
        assert spec.K == 304
        assert peak < 2 * spec.K**2 * 8


# The child prints the numpy submodules loaded by the density build, the
# closed-form frequency and a dithered orbit, beyond those of import numpy.
_NUMPY_MODULES_PROBE = """
import sys
import numpy

def loaded():
    return {m for m in sys.modules if m.startswith("numpy.")}

before = loaded()
from altbase import birkhoff_frequency, frequency, new_base, slot_densities
b = new_base((1.3, 2.7, 1.9, 3.4, 1.15))
slot_densities(b)
frequency(b, 1)
birkhoff_frequency(b, 0.3, 1, 10**4)
print(" ".join(sorted(loaded() - before)))
"""


def test_density_and_orbits_load_no_further_numpy_module():
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_MODULES_PROBE],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    )
    assert proc.stdout == "\n"
