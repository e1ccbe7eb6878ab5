import copy
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altbase import core
from altbase.core import (
    EPS_SNAP,
    AlternateBase,
    CantorBaseStream,
    DigitWord,
    StatePoint,
    evaluate,
    greedy_expand,
    greedy_expand_cantor,
    greedy_step,
    lazy_expand,
    lazy_step,
    new_base,
    phi,
    shift_base,
)
from altbase.digitset import DigitSet, DisagreementReport, Witness
from altbase.errors import AlphabetError, DomainError, SearchTooLarge
from altbase.expr import parse_base_list
from altbase.measure import (
    DensitySpec,
    IntervalMeasureQuery,
    PiecewiseLinearMap,
    compose_map,
    gora_density,
)
from altbase.oracle import EmpiricalStats, SplitMix64, TupleSearchResult, lex_greatest
from cli_golden import BASES as GOLDEN_BASES
from helpers import BASE13_BETAS, PHI, SQRT13, base13, base_phi2, randint, random_base
from reference import (
    evaluate_reference,
    greedy_digit_reference,
    greedy_expand_cantor_reference,
    greedy_expand_reference,
    greedy_step_reference,
    is_greedy_word,
    is_greedy_word_linear,
    lazy_expand_reference,
    lazy_step_reference,
    quasi_greedy_one,
)

X5 = (1.0 + math.sqrt(5.0)) / 5.0


class TestNewBase:
    def test_sqrt13_xmax(self):
        b = base13()
        assert b.xmax[0] == pytest.approx((5 + 7 * SQRT13) / 18, abs=1e-12)
        assert b.xmax[1] == pytest.approx((2 + SQRT13) / 3, abs=1e-12)
        assert b.product == pytest.approx((3 + SQRT13) / 2, abs=1e-12)
        assert b.alphabets == (2, 1)

    def test_integer_base(self):
        b = new_base((2,))
        assert b.xmax == (1.0,)
        assert b.alphabets == (1,)

    def test_phi_squared(self):
        b = base_phi2()
        assert b.xmax[0] == pytest.approx(2 / (PHI**2 - 1), abs=1e-12)

    def test_rejects_bad_components(self):
        with pytest.raises(DomainError):
            new_base(())
        with pytest.raises(DomainError):
            new_base((2.0, 1.0))
        with pytest.raises(DomainError):
            new_base((0.5,))

    def test_rejects_a_component_within_eps_snap_of_one(self):
        # its alphabet would snap to 0, leaving every xmax at 0
        for betas in [(1 + 1e-13,), (1 + 1e-12,), (2.5, 1 + 1e-13)]:
            with pytest.raises(DomainError, match=re.escape(f"base component {betas[-1]!r} is within")):
                new_base(betas)
        assert new_base((1 + 2 * EPS_SNAP,)).alphabets == (1,)

    def test_rejects_an_overflowing_product(self):
        for betas in [(1e200, 1e200), (1e308, 10.0)]:
            with pytest.raises(DomainError, match="overflows"):
                new_base(betas)
        b = new_base((1e154, 1e154))
        assert math.isfinite(b.product) and all(map(math.isfinite, b.xmax))


class TestShift:
    def test_rotation_by_one(self):
        b = base13()
        s = shift_base(b, 1)
        assert s.betas == (BASE13_BETAS[1], BASE13_BETAS[0])
        assert s.xmax == (b.xmax[1], b.xmax[0])

    def test_identity_and_full_cycle(self):
        b = base13()
        assert shift_base(b, 0) == b
        assert shift_base(b, 2) == b
        assert shift_base(b, -1) == shift_base(b, 1)


class TestSteps:
    def test_first_greedy_digit_sqrt13(self):
        _, d = greedy_step(base13(), StatePoint(0, X5))
        assert d == 1

    def test_zero_is_fixed(self):
        b = base13()
        for i in range(2):
            s, d = greedy_step(b, StatePoint(i, 0.0))
            assert s == StatePoint((i + 1) % 2, 0.0)
            assert d == 0

    def test_greedy_phi2_point(self):
        s, d = greedy_step(base_phi2(), StatePoint(0, 0.9))
        assert d == 2
        assert s.value == pytest.approx(0.9 * PHI**2 - 2, abs=1e-12)
        # same digit through the independent search route
        assert lex_greatest(base_phi2(), 0.9, 1).digits == (2,)

    def test_first_lazy_digit_sqrt13(self):
        _, d = lazy_step(base13(), StatePoint(0, X5))
        assert d == 0

    def test_lazy_maximal_point(self):
        b = base13()
        s, d = lazy_step(b, StatePoint(0, b.xmax[0]))
        assert d == b.alphabets[0]
        assert s.value == pytest.approx(b.xmax[1], abs=1e-12)

    def test_lazy_phi2_point(self):
        b = base_phi2()
        s, d = lazy_step(b, StatePoint(0, 0.5))
        assert d == 1
        assert s.value == pytest.approx(PHI**2 * 0.5 - 1, abs=1e-12)
        # conjugate route: reflect, step greedily, reflect back
        g, dg = greedy_step(b, phi(b, StatePoint(0, 0.5)))
        assert phi(b, g).value == pytest.approx(s.value, abs=1e-12)

    def test_out_of_domain(self):
        b = base13()
        with pytest.raises(DomainError):
            greedy_step(b, StatePoint(0, b.xmax[0] + 0.01))
        with pytest.raises(DomainError):
            lazy_step(b, StatePoint(0, -0.01))


EXTENSION_BASES = {
    "sqrt13": BASE13_BETAS,
    "phi_phi_sqrt5": (PHI, PHI, math.sqrt(5)),
    "period5": (1.3, 2.7, 1.9, 3.4, 1.15),
    "three_plus": (3 + 1.5e-12,),
    "two_plus": (2 + 1.5e-12,),
}


@pytest.mark.parametrize("betas", EXTENSION_BASES.values(), ids=EXTENSION_BASES.keys())
def test_greedy_step_on_extension(betas):
    """On [1, xmax) and at xmax the greedy step emits the maximal digit m
    and moves to beta*x - m, capped at the next slot's xmax."""
    b = new_base(betas)
    checked = 0
    for i in range(b.p):
        hi = b.xmax[i]
        if not 1.0 < hi:
            continue
        j = (i + 1) % b.p
        for x in (1.0, math.nextafter(1.0, 2.0), 0.5 * (1.0 + hi), math.nextafter(hi, 0.0), hi):
            s, d = greedy_step(b, StatePoint(i, x))
            assert d == b.alphabets[i]
            assert s == StatePoint(j, min(b.betas[i] * x - d, b.xmax[j]))
            checked += 1
    assert checked


# beta*x a hair below an integer: floor(beta*x + EPS_SNAP) overshoots beta*x by
# slightly more than EPS_SNAP (2.5*OVERSHOOT_X - 2 == -1.000088900582341e-12)
OVERSHOOT_X = 0.7999999999995999


class TestGreedyRemainderSnap:
    """A greedy remainder below EPS_SNAP is 0, so a valid state never leaves the domain."""

    def test_greedy_step(self):
        assert greedy_step(new_base((2.5,)), StatePoint(0, OVERSHOOT_X)) == (StatePoint(0, 0.0), 2)

    def test_greedy_expand(self):
        # a kept remainder would grow by beta each step until the digits went negative
        assert greedy_expand(new_base((2.5,)), OVERSHOOT_X, 60).digits == (2,) + (0,) * 59
        # the first step of this sqrt13 point overshoots the same way
        assert greedy_expand(base13(), 0.8685170918208954, 60).digits == (2,) + (0,) * 59

    def test_greedy_expand_cantor(self):
        seq = CantorBaseStream(new_base((2.5,)).beta)
        assert greedy_expand_cantor(seq, OVERSHOOT_X, 1200).digits == (2,) + (0,) * 1199


@pytest.mark.parametrize("betas", EXTENSION_BASES.values(), ids=EXTENSION_BASES.keys())
def test_step_and_expansion_digits_are_greedy_digit(betas):
    """greedy_step, greedy_expand and greedy_expand_cantor run core's greedy loop, which
    writes the greedy digit rule out; it must stay that rule."""
    b = new_base(betas)
    s = StatePoint(0, math.sqrt(2) - 1)
    x0, digits = s.value, []
    for _ in range(10**4):
        nxt, d = greedy_step(b, s)
        assert d == greedy_digit_reference(b.betas[s.slot] * s.value, b.alphabets[s.slot])
        digits.append(d)
        s = nxt
    assert greedy_expand(b, x0, 10**4).digits == tuple(digits)
    # the reference loop takes each digit from greedy_digit_reference
    got = greedy_expand_cantor(CantorBaseStream(b.beta), x0, 10**4)
    assert got == greedy_expand_cantor_reference(CantorBaseStream(b.beta), x0, 10**4)


class TestNaNRejected:
    """NaN lies in no slot's domain; every state entry point raises DomainError."""

    def test_greedy_step(self):
        with pytest.raises(DomainError):
            greedy_step(base13(), StatePoint(0, math.nan))

    def test_lazy_step(self):
        with pytest.raises(DomainError):
            lazy_step(base13(), StatePoint(1, math.nan))

    def test_phi(self):
        with pytest.raises(DomainError):
            phi(base13(), StatePoint(0, math.nan))

    def test_greedy_expand(self):
        with pytest.raises(DomainError):
            greedy_expand(base13(), math.nan, 5)

    def test_lazy_expand(self):
        with pytest.raises(DomainError):
            lazy_expand(base13(), math.nan, 5)


class TestExpand:
    def test_sqrt13_digit_regression(self):
        b = base13()
        assert greedy_expand(b, X5, 5).digits == (1, 0, 1, 0, 2)
        assert lazy_expand(b, X5, 5).digits == (0, 1, 1, 1, 2)

    def test_zero_expands_to_zeros(self):
        assert greedy_expand(base13(), 0.0, 7).digits == (0,) * 7

    def test_dyadic(self):
        assert greedy_expand(new_base((2,)), 0.625, 4).digits == (1, 0, 1, 0)

    def test_lazy_at_supremum(self):
        b = base13()
        assert lazy_expand(b, b.xmax[0], 6).digits == (2, 1, 2, 1, 2, 1)

    def test_lazy_point3(self):
        # value pinned by the exhaustive lexicographic search
        b = base13()
        assert lazy_expand(b, 0.3, 6).digits == (0, 0, 1, 1, 1, 0)

    def test_lazy_rejects_zero(self):
        with pytest.raises(DomainError):
            lazy_expand(base13(), 0.0, 3)


EXPANSIONS = {
    "greedy": lambda n: greedy_expand(base13(), 0.3, n),
    "lazy": lambda n: lazy_expand(base13(), 0.3, n),
    "cantor": lambda n: greedy_expand_cantor(CantorBaseStream(lambda k: 2.5), 0.3, n),
}


@pytest.mark.parametrize("expand", EXPANSIONS.values(), ids=EXPANSIONS.keys())
class TestDigitCountBound:
    def test_over_the_bound(self, expand):
        with pytest.raises(SearchTooLarge, match="digit bound"):
            expand(10**7 + 1)

    def test_float_count_is_still_a_type_error(self, expand):
        with pytest.raises(TypeError):
            expand(2e7)

    def test_boundary(self, expand, monkeypatch):
        monkeypatch.setattr(core, "ENUMERATION_BOUND", 10)
        assert len(expand(10)) == 10
        with pytest.raises(SearchTooLarge):
            expand(11)


class TestArgumentCheckOrder:
    """n = 0 takes no step, so x is not checked; n < 0 and lazy's x <= 0 always raise."""

    @pytest.mark.parametrize("x", [math.nan, -1.0, math.inf, 10.0])
    def test_zero_digits_of_any_point(self, x):
        assert greedy_expand(base13(), x, 0) == DigitWord((), 0)

    @pytest.mark.parametrize("x", [math.inf, 10.0])
    def test_zero_lazy_digits_above_domain(self, x):
        assert lazy_expand(base13(), x, 0) == DigitWord((), 0)

    @pytest.mark.parametrize("x", [math.nan, -1.0, 0.0, math.inf, 0.3])
    def test_negative_count(self, x):
        with pytest.raises(DomainError, match="digit count"):
            greedy_expand(base13(), x, -1)
        if x > 0.0:
            with pytest.raises(DomainError, match="digit count"):
                lazy_expand(base13(), x, -1)

    def test_count_must_be_an_integer(self):
        for expand in (greedy_expand, lazy_expand):
            for n in (0.0, 2.5):
                with pytest.raises(TypeError):
                    expand(base13(), 0.3, n)
            with pytest.raises(DomainError, match="digit count"):
                expand(base13(), 0.3, -1.5)

    @pytest.mark.parametrize("x", [math.nan, -1.0, 0.0])
    def test_lazy_point_before_count(self, x):
        for n in (-1, 0, 3):
            with pytest.raises(DomainError, match="lazy expansion needs"):
                lazy_expand(base13(), x, n)


REFERENCE_BASES = {
    **EXTENSION_BASES,
    "phi2": (PHI * PHI,),
    "two": (2.0,),
    "period8": (1.3, 2.7, 1.9, 3.4, 1.15, 2.2, 1.7, 2.9),
}
_RNG = SplitMix64(606)
REFERENCE_BASES.update(
    (f"random{k}", random_base(_RNG, pmin=1, pmax=4, lo=1.05, hi=4.5).betas) for k in range(40)
)


def _lazy_snap_points(beta, hi_next, m):
    """Points x where beta*x - hi_next lies within EPS_SNAP above a digit k = 0..m.

    Per k: the offsets 0.25, 0.5 and 0.75 EPS_SNAP, and the points within 16 ulps of
    k + EPS_SNAP where beta*x - hi_next - EPS_SNAP rounds to the integer k itself.
    """
    pts = []
    for k in range(m + 1):
        pts += [(k + hi_next + t * core.EPS_SNAP) / beta for t in (0.25, 0.5, 0.75)]
        x = (k + hi_next + core.EPS_SNAP) / beta
        for _ in range(16):
            x = math.nextafter(x, -math.inf)
        for _ in range(33):
            if beta * x - hi_next - core.EPS_SNAP == k:
                pts.append(x)
            x = math.nextafter(x, math.inf)
    return pts


def _probe_points(b, i):
    """Greedy and lazy cuts of slot i, 1, xmax-1 and xmax, each exact, one ulp and
    1e-13 either side, plus the extension, EPS_SNAP-near misses, NaN and inf; the
    lazy digit-0 threshold xmax - 1 + EPS_SNAP and one ulp either side; and the
    points where the lazy digit's argument sits within EPS_SNAP above an integer."""
    beta, m, hi = b.betas[i], b.alphabets[i], b.xmax[i]
    hi_next = b.xmax[(i + 1) % b.p]
    cuts = [k / beta for k in range(m + 1)] + [(k + hi_next) / beta for k in range(m + 1)]
    cuts += [1.0, hi - 1.0, hi, hi - 1.0 + core.EPS_SNAP]
    pts = []
    for c in cuts:
        pts += [c, math.nextafter(c, -math.inf), math.nextafter(c, math.inf), c - 1e-13, c + 1e-13]
    pts += [0.5 * (1.0 + hi), -0.5e-12, hi + 0.5e-12, -2e-12, hi + 2e-12]
    pts += _lazy_snap_points(beta, hi_next, m)
    pts += [math.nan, math.inf, -math.inf]
    return pts


def _bits(r):
    """A result with every float as its hex string and every type named."""
    if isinstance(r, float):
        return r.hex()
    if isinstance(r, tuple):
        return type(r).__name__, tuple(_bits(v) for v in r)
    if isinstance(r, DigitWord):
        return "DigitWord", _bits(r.digits), r.base_offset
    return type(r).__name__, r


def _outcome(f, *args):
    try:
        return _bits(f(*args))
    except (DomainError, AlphabetError) as e:
        return type(e).__name__, str(e)


@pytest.mark.parametrize("betas", REFERENCE_BASES.values(), ids=REFERENCE_BASES.keys())
class TestMatchesStepReference:
    """Steps, expansions and evaluate equal the one-call-per-digit reference bit for bit."""

    def test_steps(self, betas):
        b = new_base(betas)
        for i in range(b.p):
            for x in _probe_points(b, i):
                for slot in (i, i + b.p, i - b.p):
                    s = StatePoint(slot, x)
                    assert _outcome(greedy_step, b, s) == _outcome(greedy_step_reference, b, s)
                    assert _outcome(lazy_step, b, s) == _outcome(lazy_step_reference, b, s)

    def test_expansions_and_evaluate(self, betas):
        b = new_base(betas)
        for k, x in enumerate(_probe_points(b, 0)):
            for n in (0, 1, 7, 60, 1000) if k % 16 == 0 else (0, 1, 7, 60):
                for expand, reference in (
                    (greedy_expand, greedy_expand_reference),
                    (lazy_expand, lazy_expand_reference),
                ):
                    got = _outcome(expand, b, x, n)
                    assert got == _outcome(reference, b, x, n)
                    if got[0] != "DigitWord":
                        continue
                    w = DigitWord(expand(b, x, n).digits, (0, 1, -1, b.p + 1)[k % 4])
                    assert _outcome(evaluate, b, w) == _outcome(evaluate_reference, b, w)


class TestEvaluate:
    def test_greedy_partial_sums(self):
        b = base13()
        w = greedy_expand(b, X5, 5)
        v = evaluate(b, w)
        prod = b.betas[0] ** 3 * b.betas[1] ** 2
        assert 0 <= X5 - v < b.xsup(5) / prod

    def test_zeros(self):
        assert evaluate(base13(), DigitWord((0, 0, 0))) == 0.0

    def test_lazy_sandwich(self):
        b = base13()
        w = lazy_expand(b, X5, 5)
        assert evaluate(b, w) <= X5 <= evaluate_reference(b, w, with_max_tail=True)

    def test_offset_word(self):
        b = base13()
        w = DigitWord((1, 2), base_offset=1)
        assert evaluate(b, w) == pytest.approx(1 / b.betas[1] + 2 / (b.betas[1] * b.betas[0]))

    def test_alphabet_violation(self):
        with pytest.raises(AlphabetError):
            evaluate(base13(), DigitWord((3,)))
        with pytest.raises(AlphabetError):
            evaluate(base13(), DigitWord((0, 2)))
        with pytest.raises(AlphabetError, match="digit -1 at position 2 exceeds"):
            evaluate(base13(), DigitWord((1, 0, -1, 0)))

    @pytest.mark.parametrize(
        "digits", [(0.5, 0.25), (1, 0.0), (1, math.nan), (np.float64(1.0),)], ids=repr
    )
    def test_non_integer_digits(self, digits):
        with pytest.raises(AlphabetError, match="is not an integer"):
            evaluate(base13(), DigitWord(digits))

    def test_integral_digit_types(self):
        b = base13()
        want = evaluate(b, DigitWord((1, 0, 1, 1)))
        for digits in ((True, False, 1, True), (np.int64(1), np.int8(0), np.uint8(1), np.int16(1))):
            assert evaluate(b, DigitWord(digits)) == want


class TestPhi:
    def test_endpoints(self):
        b = base13()
        assert phi(b, StatePoint(0, 0.0)) == StatePoint(0, b.xmax[0])
        assert phi(b, StatePoint(0, 0.5)).value == pytest.approx(
            (5 + 7 * SQRT13) / 18 - 0.5, abs=1e-12
        )

    def test_involution(self):
        b = base13()
        s = StatePoint(1, 0.8123)
        assert phi(b, phi(b, s)).value == pytest.approx(s.value, abs=1e-15)

    def test_conjugacy_sample(self):
        b = base13()
        s = StatePoint(0, 0.75)
        g, _ = greedy_step(b, s)
        l, _ = lazy_step(b, phi(b, s))
        assert phi(b, g).value == pytest.approx(l.value, abs=1e-12)
        assert g.slot == l.slot


class TestCantor:
    def test_harmonic_stream(self):
        seq = CantorBaseStream(lambda n: 1 + 1 / (n + 1))
        word = greedy_expand_cantor(seq, 0.5, 4)
        assert word.digits == (1, 0, 0, 0)
        # exhaustive check over the 2^4 digit tuples
        betas = [1 + 1 / (n + 1) for n in range(4)]
        best = None
        for bits in range(16):
            tup = tuple((bits >> (3 - k)) & 1 for k in range(4))
            v, prod = 0.0, 1.0
            for c, beta in zip(tup, betas):
                prod *= beta
                v += c / prod
            if v <= 0.5:
                best = tup
        assert word.digits == best

    def test_zero(self):
        seq = CantorBaseStream(lambda n: 1.5)
        assert greedy_expand_cantor(seq, 0.0, 5).digits == (0,) * 5

    def test_periodic_matches_alternate(self):
        b = base13()
        seq = CantorBaseStream(b.beta)
        assert greedy_expand_cantor(seq, X5, 5).digits == greedy_expand(b, X5, 5).digits

    def test_bad_stream(self):
        seq = CantorBaseStream(iter([2.0, 1.0]))
        with pytest.raises(DomainError):
            greedy_expand_cantor(seq, 0.5, 2)

    @pytest.mark.parametrize("source", [lambda n: (0.5, 3.0)[n], [0.5, 3.0]], ids=["callable", "list"])
    def test_refused_entry_stays_refused(self, source):
        seq = CantorBaseStream(source)
        for _ in range(2):
            with pytest.raises(DomainError, match="produced 0.5 at index 0"):
                seq.beta(0)

    def test_exhausted_stream(self):
        seq = CantorBaseStream(iter([2.0]))
        with pytest.raises(DomainError):
            greedy_expand_cantor(seq, 0.5, 2)

    @pytest.mark.parametrize("source, drawn", [([2.5, 3.5], 2), ([2.5], 0)], ids=["drawn", "fresh"])
    def test_negative_index_is_refused(self, source, drawn):
        # a negative index must not read the drawn prefix from its end
        seq = CantorBaseStream(source)
        for n in range(drawn):
            seq.beta(n)
        for n in (-1, -3):
            with pytest.raises(DomainError, match="negative"):
                seq.beta(n)
        assert seq.beta(0) == 2.5

    def test_remainder_capped_at_one(self):
        # 3+1e-13 has alphabet 2, so from just below 1 the capped digit leaves a remainder
        # above 1; uncapped it grew by beta each step until int() met inf
        seq = CantorBaseStream(lambda n: 3 + 1e-13)
        assert greedy_expand_cantor(seq, 0.99999999999999, 1200).digits == (2,) * 1200
        seq = CantorBaseStream(lambda n: (3 + 1e-13, 5.5)[n % 2])
        assert greedy_expand_cantor(seq, 0.99999999999999, 8).digits == (2, 5, 1, 2, 2, 1, 1, 0)


def _cantor_outcome(expand, stream, x, n):
    try:
        return expand(stream(), x, n)
    except DomainError as e:
        return str(e)


def _random_betas(seed, n):
    rng = SplitMix64(seed)
    return [rng.uniform(1.05, 4.0) for _ in range(n)]


# fresh stream factories: an iterable stream is used up by one expansion
CANTOR_STREAMS = {
    "periodic_sqrt13": lambda: CantorBaseStream(base13().beta),
    "periodic_period5": lambda: CantorBaseStream(new_base((1.3, 2.7, 1.9, 3.4, 1.15)).beta),
    "harmonic": lambda: CantorBaseStream(lambda n: 1 + 1 / (n + 1)),
    "integers": lambda: CantorBaseStream(lambda n: 2 + n % 3),
    "random_list": lambda: CantorBaseStream(_random_betas(61, 1200)),
    "random_callable": lambda: CantorBaseStream(lambda n: 1.01 + (n * 0.6180339887) % 3.0),
    "near_integer": lambda: CantorBaseStream(lambda n: (3 + 1e-13, 3 - 1e-13, 2 + 1e-12)[n % 3]),
}


class TestCantorMatchesReference:
    """greedy_expand_cantor runs core's greedy loop; its words and errors are those of the
    loop that drew one base per digit."""

    @pytest.mark.parametrize("name", sorted(CANTOR_STREAMS))
    def test_words(self, name):
        stream = CANTOR_STREAMS[name]
        rng = SplitMix64(62)
        xs = [0.0, 0.5, math.sqrt(2) - 1, math.nextafter(1.0, 0.0)]
        for x in xs + [rng.uniform() for _ in range(6)]:
            for n in (0, 1, 7, 1200):
                got = greedy_expand_cantor(stream(), x, n)
                assert got == greedy_expand_cantor_reference(stream(), x, n)

    def test_overshoot(self):
        stream = lambda: CantorBaseStream(new_base((2.5,)).beta)
        for n in (0, 1, 7, 1200):
            got = greedy_expand_cantor(stream(), OVERSHOOT_X, n)
            assert got == greedy_expand_cantor_reference(stream(), OVERSHOOT_X, n)

    @pytest.mark.parametrize(
        "source",
        [[2.0], [2.0, 1.0], [2.5, 3.0, math.nan], [1.5, math.inf], lambda n: 2.0 - n, []],
        ids=["exhausted", "one", "nan", "inf", "callable_drops_to_one", "empty"],
    )
    def test_bad_streams(self, source):
        stream = lambda: CantorBaseStream(source)
        for x, n in ((0.5, 0), (0.5, 1), (0.5, 2), (0.5, 7), (0.25, 1200), (1.0, 3), (0.5, -1)):
            got = _cantor_outcome(greedy_expand_cantor, stream, x, n)
            assert got == _cantor_outcome(greedy_expand_cantor_reference, stream, x, n)


class TestInvariants:
    def test_domain_closure_long_orbits(self):
        b = base13()
        rng = SplitMix64(101)
        for _ in range(2):
            s = StatePoint(0, rng.uniform(0, b.xmax[0]))
            t = StatePoint(0, rng.uniform(1e-9, b.xmax[0]))
            for _ in range(10**6):
                s, _ = greedy_step(b, s)  # raises if the orbit ever escapes
                t, _ = lazy_step(b, t)

    def test_partial_sum_sandwiches(self):
        b = base13()
        rng = SplitMix64(7)
        for _ in range(100):
            x = rng.uniform(0, b.xmax[0])
            n = randint(rng, 1, 12)
            w = greedy_expand(b, x, n)
            v = evaluate(b, w)
            prod = math.prod(b.beta(k) for k in range(n))
            assert v <= x < v + b.xsup(n) / prod + 1e-12
            if x > 0:
                wl = lazy_expand(b, x, n)
                assert evaluate(b, wl) <= x + 1e-12
                assert evaluate_reference(b, wl, with_max_tail=True) >= x - 1e-12

    def test_digit_words_respect_alphabets(self):
        rng = SplitMix64(8)
        for _ in range(25):
            b = random_base(rng)
            x = rng.uniform(0, b.xmax[0])
            for k, d in enumerate(greedy_expand(b, x, 10).digits):
                assert 0 <= d <= b.alphabet(k)

    def test_shift_commutation(self):
        b = base13()
        rng = SplitMix64(9)
        for _ in range(200):
            x = rng.uniform(0, b.xmax[0])
            n = randint(rng, 2, 10)
            whole = greedy_expand(b, x, n).digits
            s, first = greedy_step(b, StatePoint(0, x))
            rest = greedy_expand(shift_base(b, 1), s.value, n - 1).digits
            assert whole[0] == first
            assert whole[1:] == rest

    def test_p1_reduction(self):
        b = base_phi2()
        beta = b.betas[0]
        rng = SplitMix64(10)
        for _ in range(100):
            x = rng.uniform(0, 1)
            word = greedy_expand(b, x, 8).digits
            y, classical = x, []
            for _ in range(8):
                d = math.floor(beta * y + 1e-12)
                classical.append(d)
                y = beta * y - d
            assert word == tuple(classical)

    @given(st.lists(st.floats(1.1, 5.0), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_xmax_recurrence(self, betas):
        b = new_base(betas)
        p = b.p
        for i in range(p):
            lhs = b.xmax[i] * b.betas[i] - b.alphabets[i]
            assert lhs == pytest.approx(b.xmax[(i + 1) % p], abs=1e-12)

    @given(st.lists(st.floats(1.1, 5.0), min_size=1, max_size=4), st.integers(-5, 9))
    @settings(max_examples=40, deadline=None)
    def test_shift_round_trip(self, betas, n):
        b = new_base(betas)
        assert shift_base(b, n % b.p) == shift_base(b, n)
        assert shift_base(shift_base(b, n), -n) == b


class TestGreedyWordsAreAdmissible:
    """Long greedy expansions pass the shift's suffix check against the expansions of 1."""

    @pytest.mark.parametrize("text", GOLDEN_BASES)
    def test_long_expansions_pass(self, text):
        base = new_base(parse_base_list(text))
        rng = SplitMix64(43)
        for n, words in ((10**3, 10), (10**4, 2)):
            for _ in range(words):
                word = greedy_expand(base, rng.uniform(0.0, 1.0), n).digits
                assert is_greedy_word_linear(base, word)
                if n == 10**3:
                    assert is_greedy_word(base, word)

    def test_planted_suffix_is_rejected(self):
        # from position 100 the word copies the bound of slot 100 for 20 digits or more and
        # then exceeds it by one at a digit below its alphabet bound
        base = base13()
        word = list(greedy_expand(base, 0.3, 1000).digits)
        bound = quasi_greedy_one(base, 100, 900)
        k = next(k for k in range(20, 900) if bound[k] < base.alphabet(100 + k))
        word[100 : 100 + k + 1] = bound[:k] + (bound[k] + 1,)
        assert evaluate(base, DigitWord(tuple(word))) >= 0.0  # every digit within its alphabet
        assert not is_greedy_word_linear(base, word) and not is_greedy_word(base, tuple(word))


# One value of each record type: its field names, field values and repr.
RECORDS = [
    (AlternateBase, ("betas", "product", "alphabets", "xmax"),
     ((2.5, 1.5), 3.75, (2, 1), (1.2, 0.8)), "AlternateBase((2.5, 1.5))"),
    (DigitWord, ("digits", "base_offset"), ((1, 0, 2), 1),
     "DigitWord(digits=(1, 0, 2), base_offset=1)"),
    (PiecewiseLinearMap, ("endpoints", "slope"), ((0.0, 0.5, 1.0), 2.0),
     "PiecewiseLinearMap(endpoints=(0.0, 0.5, 1.0), slope=2.0)"),
    (DensitySpec, ("K", "c", "orbit", "d", "C", "B", "M", "thresholds", "weights"),
     (0, (), (), (1.0,), 1.0, 2.0, 51, (), ()),
     "DensitySpec(K=0, c=(), orbit=(), d=(1.0,), C=1.0, B=2.0, M=51, thresholds=(),"
     " weights=())"),
    (IntervalMeasureQuery, ("slot", "a", "b"), (1, 0.25, 0.75),
     "IntervalMeasureQuery(slot=1, a=0.25, b=0.75)"),
    (TupleSearchResult, ("digits", "value"), ((1, 0), 0.5),
     "TupleSearchResult(digits=(1, 0), value=0.5)"),
    (EmpiricalStats, ("counts", "iterations", "start"), ((3, 1), 4, StatePoint(0, 0.25)),
     "EmpiricalStats(counts=(3, 1), iterations=4, start=StatePoint(slot=0, value=0.25))"),
    (DigitSet, ("digits", "beta"), ((0.0, 1.0), 2.0), "DigitSet(digits=(0.0, 1.0), beta=2.0)"),
    (Witness, ("x", "delta_image", "composed_image"), (0.25, 0.5, 0.75),
     "Witness(x=0.25, delta_image=0.5, composed_image=0.75)"),
    (DisagreementReport, ("intervals", "witnesses"), (((0.0, 0.5),), (Witness(0.25, 0.5, 0.75),)),
     "DisagreementReport(intervals=((0.0, 0.5),), witnesses=(Witness(x=0.25, delta_image=0.5,"
     " composed_image=0.75),))"),
]


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
class TestRecords:
    """The ten immutable value types keep the contract of frozen records."""

    def test_keyword_construction_and_repr(self, cls, names, values, text):
        record = cls(*values)
        assert cls(**dict(zip(names, values))) == record
        assert tuple(getattr(record, name) for name in names) == values
        assert tuple(cls.__annotations__) == names
        assert repr(record) == text

    def test_fields_cannot_be_set_or_deleted(self, cls, names, values, text):
        record = cls(*values)
        for name in names + ("extra",):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert not hasattr(record, "__dict__")
        assert tuple(getattr(record, name) for name in names) == values

    def test_pickle_and_deepcopy_round_trip(self, cls, names, values, text):
        record = cls(*values)
        for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert type(twin) is cls
            assert twin == record and hash(twin) == hash(record)
            assert repr(twin) == repr(record)

    def test_equality_goes_over_the_fields(self, cls, names, values, text):
        record = cls(*values)
        assert record == cls(*values) and hash(record) == hash(cls(*values))
        assert record != values

    def test_wrong_arguments_raise_type_error(self, cls, names, values, text):
        for args, kwargs in [
            (values + (None,), {}),
            ((), dict(zip(names[1:], values[1:]))),
            (values, {names[0]: values[0]}),
            (values, {"unknown": 1}),
        ]:
            with pytest.raises(TypeError):
                cls(*args, **kwargs)


class TestRecordDefaultsAndChecks:
    def test_digit_word_offset_defaults_to_zero(self):
        assert DigitWord((1, 2)) == DigitWord(digits=(1, 2)) == DigitWord((1, 2), 0)
        assert DigitWord((1, 2)).base_offset == 0
        assert DigitWord((1, 2)) != DigitWord((1, 2), 1)
        assert DigitWord((1, 2), 0.5) != TupleSearchResult((1, 2), 0.5)

    def test_keyword_construction_is_validated(self):
        with pytest.raises(DomainError, match="ascending strictly"):
            PiecewiseLinearMap(slope=2.0, endpoints=(0.0, 0.7, 0.5, 1.0))
        with pytest.raises(AlphabetError, match="two or more digits"):
            DigitSet(beta=2.0, digits=(0.0,))

    def test_pickled_density_keeps_its_fields(self):
        spec = gora_density(compose_map(base13(), 0))
        for twin in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
            assert twin == spec
            assert repr(twin) == repr(spec)
