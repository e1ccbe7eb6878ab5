import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altbase.core import EPS_SNAP, StatePoint, _greedy_run, greedy_step, lazy_step, new_base
from altbase.digitset import (
    AGREE_TOL,
    MIN_CELL,
    WALK_MARGIN,
    WALK_MIN_WIDTH,
    DigitSet,
    compare_transforms,
    compare_transforms_lazy,
    delta_set,
    f_beta,
    greedy_delta_step,
    is_allowable,
    lazy_delta_step,
    nondecreasing_by_criterion,
    tilde,
)
from altbase import digitset
from altbase.errors import AlphabetError, DomainError, NotAllowable, SearchTooLarge
from altbase.oracle import SplitMix64
from helpers import BASE13_BETAS, PHI, base13, randint, random_base
import reference
from reference import (
    block_values_reference,
    compare_transforms_cells_reference,
    compare_transforms_reference,
    composed_period_value_reference,
    digit_set_reference,
    nondecreasing_bruteforce,
    nondecreasing_by_criterion_reference,
    suffix_min_reference,
)

R5 = math.sqrt(5)


def base_pps5():
    return new_base((PHI, PHI, R5))


def base_324():
    return new_base((1.5, 1.5, 4.0))


def base_567():
    return new_base((math.sqrt(5) / 2, math.sqrt(6) / 2, math.sqrt(7) / 2))


def phi_digit_set():
    return DigitSet((0.0, 1.0, PHI + 1 / PHI, PHI**2), PHI)


class TestFBeta:
    def test_weighted_sum(self):
        assert f_beta(base_pps5(), (0, 1, 2)) == pytest.approx(R5 + 2, abs=1e-12)

    def test_zero(self):
        assert f_beta(base_pps5(), (0, 0, 0)) == 0.0

    def test_integer_collision_pair(self):
        b = base_324()
        assert f_beta(b, (0, 1, 3)) == pytest.approx(7.0, abs=1e-12)
        assert f_beta(b, (1, 0, 0)) == pytest.approx(6.0, abs=1e-12)

    def test_bad_tuple(self):
        with pytest.raises(AlphabetError):
            f_beta(base_pps5(), (0, 1))
        with pytest.raises(AlphabetError):
            f_beta(base_pps5(), (2, 0, 0))

    @pytest.mark.parametrize("digits", [[1.5, 0.5], [1.0, 0], [0, 0.0], [1, "1"]])
    def test_rejects_non_integer_digits(self, digits):
        # 1.5 and 0.5 lie within the alphabets 2 and 1 and used to give 2.75
        with pytest.raises(AlphabetError, match="not an integer"):
            f_beta(new_base((2.5, 1.5)), digits)

    def test_accepts_bool_and_numpy_integers(self):
        b = new_base((2.5, 1.5))
        want = f_beta(b, (1, 1))
        assert f_beta(b, (True, True)) == want
        assert f_beta(b, (np.int64(1), np.uint8(1))) == want


class TestDeltaSet:
    def test_integers_up_to_13(self):
        ds = delta_set(base_324())
        assert ds.digits == pytest.approx(tuple(float(k) for k in range(14)), abs=1e-12)

    def test_sqrt13(self):
        b = base13()
        b1 = b.betas[1]
        ds = delta_set(b)
        assert ds.digits == pytest.approx((0, 1, b1, b1 + 1, 2 * b1, 2 * b1 + 1), abs=1e-12)
        assert ds.xsup == pytest.approx(b.xmax[0], abs=1e-10)

    def test_binary(self):
        assert delta_set(new_base((2,))).digits == (0.0, 1.0)

    def test_enumeration_bound(self):
        with pytest.raises(SearchTooLarge):
            delta_set(new_base((1e6, 1e6)))


class TestAllowable:
    def test_phi_example(self):
        assert is_allowable(phi_digit_set())

    def test_two_point_sets(self):
        assert is_allowable(DigitSet((0.0, 10.0), 2.0))
        assert not is_allowable(DigitSet((0.0, 10.0), 3.0))

    def test_blocked_sets_always_allowable(self):
        rng = SplitMix64(31)
        for _ in range(100):
            b = random_base(rng, pmax=4, lo=1.05, hi=5.0)
            assert is_allowable(delta_set(b))


class TestDigitSetInvariant:
    """A digit set holds two or more digits ascending strictly from 0.0, over a finite base > 1."""

    @pytest.mark.parametrize(
        "digits",
        [(), (0.0,), (1.0, 2.0), (-1.0, 0.0, 1.0), (0.0, 1.0, 1.0), (0.0, 2.0, 1.0), (0.0, math.nan)],
        ids=["empty", "one_digit", "no_zero", "below_zero", "repeated", "descending", "nan"],
    )
    def test_rejects_digits(self, digits):
        with pytest.raises(AlphabetError):
            DigitSet(digits, 2.0)

    @pytest.mark.parametrize("beta", [1, 1.0, 0.5, -2.0, math.inf, math.nan])
    def test_rejects_base(self, beta):
        # beta = 1 used to divide by zero in xsup, and one digit made max() raise in is_allowable
        with pytest.raises(DomainError):
            DigitSet((0.0, 1.0), beta)


class TestTilde:
    def test_phi_example(self):
        dt = tilde(phi_digit_set())
        assert dt.digits == pytest.approx((0.0, 1 - 1 / PHI, PHI, PHI**2), abs=1e-12)

    def test_two_point_fixed(self):
        ds = DigitSet((0.0, 3.5), 2.0)
        assert tilde(ds).digits == ds.digits

    def test_blocked_sets_self_mirrored(self):
        rng = SplitMix64(32)
        for _ in range(50):
            ds = delta_set(random_base(rng))
            assert tilde(ds).digits == pytest.approx(ds.digits, abs=1e-9)

    @given(st.lists(st.floats(0.01, 50.0), min_size=1, max_size=8), st.floats(1.1, 9.0))
    @settings(max_examples=80, deadline=None)
    def test_involution(self, gaps, beta):
        digits = [0.0]
        for g in gaps:
            digits.append(digits[-1] + g)
        ds = DigitSet(tuple(digits), beta)
        back = tilde(tilde(ds))
        assert back.digits == pytest.approx(ds.digits, abs=1e-12)


class TestDeltaSteps:
    def test_known_image_at_three_quarters(self):
        b = base_pps5()
        ds = delta_set(b)
        img, d = greedy_delta_step(ds, 0.75)
        assert img == pytest.approx(0.1545084971874733, abs=1e-9)
        assert d == pytest.approx(R5 + 2, abs=1e-12)

    def test_zero(self):
        assert greedy_delta_step(delta_set(base13()), 0.0) == (0.0, 0.0)

    def test_doubling(self):
        img, d = greedy_delta_step(DigitSet((0.0, 1.0), 2.0), 0.7)
        assert (img, d) == (pytest.approx(0.4), 1.0)

    def test_lazy_maximal_fixed_point(self):
        ds = phi_digit_set()
        img, d = lazy_delta_step(ds, ds.xsup)
        assert d == ds.top
        assert img == pytest.approx(ds.xsup, abs=1e-12)

    def test_lazy_branch_structure(self):
        # digit switches at the three interior breakpoints of the mirrored set
        dt = tilde(phi_digit_set())
        cuts = (PHI / (PHI - 1), (PHI + 3) / PHI, (2 * PHI - 1) / (PHI - 1))
        eps = 1e-6
        expected = (0.0, dt.digits[1], dt.digits[2], dt.digits[3])
        for k, c in enumerate(cuts):
            _, before = lazy_delta_step(dt, c - eps)
            _, after = lazy_delta_step(dt, c + eps)
            assert before == pytest.approx(expected[k], abs=1e-9)
            assert after == pytest.approx(expected[k + 1], abs=1e-9)

    def test_greedy_lazy_conjugate(self):
        ds = phi_digit_set()
        dt = tilde(ds)
        for x in (0.3, 0.75, 1.9, 2.4):
            g, _ = greedy_delta_step(ds, x)
            l, _ = lazy_delta_step(dt, ds.xsup - x)
            assert l == pytest.approx(ds.xsup - g, abs=1e-9)

    def test_domain_errors(self):
        ds = delta_set(base13())
        with pytest.raises(DomainError):
            greedy_delta_step(ds, ds.xsup + 0.5)
        with pytest.raises(DomainError):
            lazy_delta_step(ds, 0.0)

    def test_greedy_rejects_nan(self):
        with pytest.raises(DomainError):
            greedy_delta_step(delta_set(base13()), math.nan)

    def test_greedy_remainder_never_negative(self):
        # 2.5*x + EPS_SNAP floors to 2 although 2.5*x - 2 = -1.000088900582341e-12
        ds = delta_set(new_base((2.5,)))
        assert greedy_delta_step(ds, 0.7999999999995999) == (0.0, 2.0)
        assert greedy_delta_step(ds, 0.0) == (0.0, 0.0)

    def test_lazy_rejects_nan(self):
        with pytest.raises(DomainError):
            lazy_delta_step(delta_set(base13()), math.nan)


class TestNondecreasing:
    def test_period_two_always(self):
        rng = SplitMix64(33)
        for _ in range(20):
            assert nondecreasing_by_criterion(random_base(rng, pmin=2, pmax=2))

    def test_known_nonmonotone_bases(self):
        assert not nondecreasing_by_criterion(base_324())
        assert not nondecreasing_by_criterion(base_pps5())
        assert not nondecreasing_bruteforce(base_324())
        assert not nondecreasing_bruteforce(base_567())

    def test_integer_blocks_monotone(self):
        assert nondecreasing_bruteforce(new_base((2.0, 2.0)))

    def test_one_pass_matches_per_cut_sums(self):
        rng = SplitMix64(39)
        verdicts = []
        for k in range(2400):
            p = 1 + k % 8
            b = random_base(rng, pmin=p, pmax=p, lo=1.05, hi=3.0)
            verdicts.append(nondecreasing_by_criterion(b))
            assert verdicts[-1] == nondecreasing_by_criterion_reference(b)
        assert verdicts.count(True) > 400 and verdicts.count(False) > 400

    def test_criterion_matches_bruteforce(self):
        rng = SplitMix64(34)
        for _ in range(100):
            b = random_base(rng, pmin=1, pmax=4, lo=1.05, hi=3.0)
            assert nondecreasing_by_criterion(b) == nondecreasing_bruteforce(b)


class TestCompareTransforms:
    def test_phi_phi_sqrt5_interval(self):
        rep = compare_transforms(base_pps5())
        B = R5 * PHI**2
        assert len(rep.intervals) == 1
        lo, hi = rep.intervals[0]
        assert lo == pytest.approx((R5 + 2) / B, abs=1e-9)
        assert hi == pytest.approx((R5 * PHI + 1) / B, abs=1e-9)
        w = rep.witnesses[0]
        assert w.delta_image < w.composed_image

    def test_collision_base_coincides(self):
        assert not compare_transforms(base_324())

    def test_allowability_checked_once(self, monkeypatch):
        calls = []
        real = digitset.is_allowable
        monkeypatch.setattr(digitset, "is_allowable", lambda ds: calls.append(ds) or real(ds))
        assert compare_transforms(base_pps5())
        assert len(calls) == 1

    def test_not_allowable_set_rejected(self, monkeypatch):
        gappy = DigitSet((0.0, 1.0, 5.0), 3.0)
        monkeypatch.setattr(digitset, "_digit_set", lambda base, block_values: gappy)
        with pytest.raises(NotAllowable):
            compare_transforms(base_pps5())

    def test_period_two_coincides(self):
        rng = SplitMix64(35)
        for _ in range(20):
            assert not compare_transforms(random_base(rng, pmin=2, pmax=2))

    def test_sqrt567_disagrees_above_one(self):
        rep = compare_transforms(base_567())
        assert rep.intervals
        assert all(lo >= 1.0 for lo, _ in rep.intervals)
        lo, hi = rep.intervals[0]
        assert lo == pytest.approx(1.28, abs=1e-2)
        assert hi == pytest.approx(1.44, abs=1e-2)

    def test_monotone_implies_coincide(self):
        rng = SplitMix64(36)
        for _ in range(60):
            b = random_base(rng, pmin=1, pmax=4, lo=1.05, hi=3.0)
            if nondecreasing_by_criterion(b):
                assert not compare_transforms(b)

    def test_inequality_direction(self):
        # the blocked map never exceeds one period of the dynamics
        for b in (base_pps5(), base_567(), base13()):
            ds = delta_set(b)
            xb = b.xmax[0]
            for k in range(1, 1000):
                x = k * xb / 1000
                g, _ = greedy_delta_step(ds, x)
                s = StatePoint(0, x)
                for _ in range(b.p):
                    s, _ = greedy_step(b, s)
                assert g <= s.value + 1e-9

    def test_lazy_inequality_direction(self):
        for b in (base_pps5(), base_567()):
            ds = delta_set(b)
            xb = b.xmax[0]
            for k in range(1, 1000):
                x = k * xb / 1000
                l, _ = lazy_delta_step(ds, x)
                s = StatePoint(0, x)
                for _ in range(b.p):
                    s, _ = lazy_step(b, s)
                assert l >= s.value - 1e-9

    def test_lazy_comparison_is_mirror(self):
        for b in (base_pps5(), base_324(), base_567(), base13()):
            greedy_rep = compare_transforms(b)
            lazy_rep = compare_transforms_lazy(b)
            assert bool(greedy_rep) == bool(lazy_rep)
            xb = b.xmax[0]
            mirrored = sorted((xb - hi, xb - lo) for lo, hi in greedy_rep.intervals)
            for got, exp in zip(lazy_rep.intervals, mirrored):
                assert got == pytest.approx(exp, abs=1e-12)

    def test_lazy_witnesses_certify_disagreement(self):
        b = base_pps5()
        for w in compare_transforms_lazy(b).witnesses:
            ds = delta_set(b)
            img, _ = lazy_delta_step(ds, w.x)
            s = StatePoint(0, w.x)
            for _ in range(b.p):
                s, _ = lazy_step(b, s)
            assert img == pytest.approx(w.delta_image, abs=1e-9)
            assert s.value == pytest.approx(w.composed_image, abs=1e-9)
            assert abs(img - s.value) > 1e-6


def _report_bits(rep):
    return (
        tuple((lo.hex(), hi.hex()) for lo, hi in rep.intervals),
        tuple((w.x.hex(), w.delta_image.hex(), w.composed_image.hex()) for w in rep.witnesses),
    )


def _period_bases():
    rng = SplitMix64(37)
    named = [base_pps5(), base_324(), base_567(), base13(), new_base((1.3, 2.7, 1.9, 3.4, 1.15))]
    return named + [random_base(rng, pmin=1, pmax=5, lo=1.05, hi=3.0) for _ in range(30)]


def _digit_at_scaled_midpoint(h, B):
    """The digit e > h with B * mid + EPS_SNAP == e, mid the midpoint of the cell [h/B, e/B]."""
    e = h + 2 * EPS_SNAP
    for _ in range(100):
        v = B * (0.5 * (h / B + e / B)) + EPS_SNAP
        if v == e:
            assert e / B - h / B >= MIN_CELL
            return e
        e = v
    raise AssertionError(f"no such digit above {h!r} for B = {B!r}")


# density_build's beta ranges (bench/workloads.py BETA_HI): uniform in [1.1, hi(p)]
BUILD_BETA_HI = {1: 4.0, 2: 3.5, 3: 3.0, 4: 2.6, 5: 2.3, 6: 2.1, 7: 1.95, 8: 1.85}


@pytest.fixture(scope="module")
def report_bases():
    """Criterion 9's three bases, the benchmark's period-5 and period-8 bases and
    200 bases of periods 1-8 drawn as density_build draws them."""
    rng = SplitMix64(39)
    named = [base_pps5(), base_324(), base_567(), base13()]
    named += [new_base((1.3, 2.7, 1.9, 3.4, 1.15)), new_base((1.3, 2.7, 1.9, 3.4, 1.15, 2.2, 1.7, 2.9))]
    drawn = []
    for k in range(200):
        p = k % 8 + 1
        drawn.append(new_base([rng.uniform(1.1, BUILD_BETA_HI[p]) for _ in range(p)]))
    return named + drawn


R2, R3 = math.sqrt(2), math.sqrt(3)
# betas with exact block collisions, integers and quadratic irrationals, each one scaled
# by one of SCALES
NAMED_BETAS = (PHI, PHI * PHI, 2.0, 3.0, 4.0, 1 + R2, R3, R5, *BASE13_BETAS, 1.5, 2.5)
SCALES = (1.0, 1 + 1e-12, 1 - 1e-12, 1 + 1e-9, 1 - 1e-9)
NEAR_INTEGER_BETAS = ((2 + 1e-10,) * 3, (3 - 1e-10, 2 + 1e-10), (2 - 1e-10, 4 + 1e-10, 2 - 1e-10))


@pytest.fixture(scope="module")
def widened_bases():
    """1.5,1.5,4; bases of periods 1-4 drawn from NAMED_BETAS times SCALES; bases of
    periods 1-3 drawn from 2, 3 and 4 moved by 1e-10 either way; NEAR_INTEGER_BETAS."""
    rng = SplitMix64(41)

    def pick(seq):
        return seq[randint(rng, 0, len(seq) - 1)]

    named = [[pick(NAMED_BETAS) * pick(SCALES) for _ in range(k % 4 + 1)] for k in range(240)]
    near = [[pick((2, 3, 4)) + pick((-1e-10, 1e-10)) for _ in range(k % 3 + 1)] for k in range(90)]
    return [base_324()] + [new_base(betas) for betas in named + near + list(NEAR_INTEGER_BETAS)]


class TestPeriodValueMatchesStepReference:
    """compare_transforms takes one greedy period from core's loop, bit for bit p greedy steps,
    and its blocked step inline, bit for bit the clamped per-point step."""

    def test_period_remainder(self):
        rng = SplitMix64(38)
        for b in _period_bases():
            xb = b.xmax[0]
            cuts = [d / b.product for d in delta_set(b).digits if d / b.product <= xb]
            pts = [0.0, xb, 1.0] + cuts + [rng.uniform(0.0, xb) for _ in range(200)]
            pts += [math.nextafter(c, math.inf) for c in cuts]
            pts += [math.nextafter(c, -math.inf) for c in cuts[1:]]
            for x in pts:
                got = _greedy_run(b, x, b.p)[1]
                assert got.hex() == composed_period_value_reference(b, x).hex()

    def test_reports(self, monkeypatch, report_bases):
        got = [_report_bits(compare_transforms(b)) for b in report_bases]
        got_lazy = [_report_bits(compare_transforms_lazy(b)) for b in report_bases]
        monkeypatch.setattr(
            reference, "_greedy_run", lambda b, x, n: (None, composed_period_value_reference(b, x))
        )
        assert got == [_report_bits(compare_transforms_reference(b)) for b in report_bases]
        monkeypatch.setattr(digitset, "compare_transforms", compare_transforms_reference)
        assert got_lazy == [_report_bits(compare_transforms_lazy(b)) for b in report_bases]
        assert sum(bool(rep[0]) for rep in got) > 20
        assert {b.p for b in report_bases} == set(range(1, 9))

    def test_reports_on_widened_corpus(self, monkeypatch, widened_bases):
        got = [_report_bits(compare_transforms(b)) for b in widened_bases]
        got_lazy = [_report_bits(compare_transforms_lazy(b)) for b in widened_bases]
        monkeypatch.setattr(
            reference, "_greedy_run", lambda b, x, n: (None, composed_period_value_reference(b, x))
        )
        assert got == [_report_bits(compare_transforms_reference(b)) for b in widened_bases]
        monkeypatch.setattr(digitset, "compare_transforms", compare_transforms_reference)
        assert got_lazy == [_report_bits(compare_transforms_lazy(b)) for b in widened_bases]
        assert sum(bool(rep[0]) for rep in got) > 10

    def test_enumeration_matches_referees(self, report_bases, widened_bases):
        for b in report_bases + widened_bases:
            values = digitset._all_block_values(b)
            assert [v.hex() for v in values] == [v.hex() for v in block_values_reference(b)]
            assert digitset._suffix_min_values(values) == suffix_min_reference(values)
            got = [d.hex() for d in delta_set(b).digits]
            assert got == [d.hex() for d in digit_set_reference(b).digits], b

    def test_reports_with_snapped_digits(self, monkeypatch):
        # Halfway between each two digits, a digit h and a digit e just above it with
        # B * mid + EPS_SNAP == e exactly at the midpoint of the cell [h/B, e/B]: the snap
        # and the tie both take e, the blocked image y - e < 0 is floored at 0, and the
        # cell starts a disagreement, so its witness shows the floored image.
        rng = SplitMix64(40)
        bases = [new_base((rng.uniform(1.1, 1.8),)) for _ in range(20)] + [new_base((1.3, 1.2))]
        got, want = [], []
        for b, ds in [(b, delta_set(b)) for b in bases]:  # built before _digit_set is patched
            extra = []
            for a, c in zip(ds.digits, ds.digits[1:]):
                h = 0.5 * (a + c)
                extra += [h, _digit_at_scaled_midpoint(h, ds.beta)]
            tied = DigitSet(tuple(sorted(ds.digits + tuple(extra))), ds.beta)
            monkeypatch.setattr(digitset, "_digit_set", lambda base, values: tied)
            monkeypatch.setattr(reference, "digit_set_reference", lambda base: tied)
            got.append(_report_bits(compare_transforms(b)))
            want.append(_report_bits(compare_transforms_reference(b)))
        assert got == want
        assert all(any(w[1] == (0.0).hex() for w in rep[1]) for rep in got)

    def test_midpoints_need_no_clamp(self, report_bases):
        # compare_transforms takes the blocked step at each midpoint unclamped
        for b in report_bases:
            ds = delta_set(b)
            for _, _, mid in compare_transforms_cells_reference(b, ds):
                assert 0.0 <= mid <= ds.xsup, (b, mid)


@pytest.fixture
def period_calls(monkeypatch):
    """The midpoints at which compare_transforms runs core's greedy period."""
    calls = []
    real = digitset._greedy_loop
    monkeypatch.setattr(digitset, "_greedy_loop", lambda period, x: calls.append(x) or real(period, x))
    return calls


def _unsure_midpoints(b, ds):
    """Midpoints of the cells that the cylinder walk leaves to the computed images: cells
    no wider than WALK_MIN_WIDTH and cells whose cylinder-to-digit gap lies within
    WALK_MARGIN of the tolerance, both scaled as compare_transforms scales them."""
    B = b.product
    scale = max(1.0, max(b.xmax))
    tol = AGREE_TOL * max(1.0, B)
    starts = suffix_min_reference(block_values_reference(b))
    out = []
    for lo, hi, mid in compare_transforms_cells_reference(b, ds):
        y = B * mid
        v = starts[bisect_right(starts, y) - 1]
        d = ds.digits[bisect_right(ds.digits, y + EPS_SNAP) - 1]
        if hi - lo <= WALK_MIN_WIDTH * scale or abs(abs(v - d) - tol) <= WALK_MARGIN * max(1.0, B) * scale:
            out.append(mid)
    return out


class TestCylinderWalk:
    """compare_transforms decides a cell by its greedy cylinder's block value and runs one
    greedy period only for a witness or where the walk is unsure of the computed decision."""

    def test_one_period_per_witness(self, period_calls, report_bases):
        for b in report_bases:
            period_calls.clear()
            rep = compare_transforms(b)
            assert period_calls == [w.x for w in rep.witnesses], b

    def test_periods_where_the_walk_is_unsure(self, period_calls, widened_bases):
        extra = 0
        for b in widened_bases:
            period_calls.clear()
            rep = compare_transforms(b)
            unsure = _unsure_midpoints(b, delta_set(b))
            assert period_calls == sorted(set(unsure) | {w.x for w in rep.witnesses}), b
            extra += len(period_calls) - len(rep.witnesses)
        assert extra > 20
        period_calls.clear()
        assert not compare_transforms(base_324()) and period_calls == []

    @pytest.mark.parametrize("where", ["narrow_inside", "gap_below_tol", "gap_above_tol"])
    def test_built_digit_sets(self, monkeypatch, period_calls, where):
        # Digits added to the blocked set of one-slot bases: a tied pair [h/B, e/B] whose
        # snapped digit acts at the midpoint, inside a disagreement opened at a quarter
        # point; or one digit above digit 0 by the tolerance -+ half the walk's margin.
        rng = SplitMix64(42)
        bases = [new_base((rng.uniform(1.1, 1.8),)) for _ in range(12)]
        for b, ds in [(b, delta_set(b)) for b in bases]:  # built before _digit_set is patched
            B = ds.beta
            if where == "narrow_inside":
                a, c = ds.digits[:2]
                h = 0.5 * (a + c)
                extra = (a + 0.25 * (c - a), h, _digit_at_scaled_midpoint(h, B))
            else:
                sign = -1.0 if where == "gap_below_tol" else 1.0
                extra = (max(1.0, B) * (AGREE_TOL + sign * 0.5 * WALK_MARGIN * max(1.0, max(b.xmax))),)
            built = DigitSet(tuple(sorted(ds.digits + extra)), B)
            monkeypatch.setattr(digitset, "_digit_set", lambda base, values: built)
            monkeypatch.setattr(reference, "digit_set_reference", lambda base: built)
            period_calls.clear()
            rep = compare_transforms(b)
            assert _report_bits(rep) == _report_bits(compare_transforms_reference(b))
            unsure = _unsure_midpoints(b, built)
            assert period_calls == sorted(set(unsure) | {w.x for w in rep.witnesses})
            assert len(unsure) == (1 if where == "narrow_inside" else 2)
            assert len(rep.witnesses) == (0 if where == "gap_below_tol" else 1)
