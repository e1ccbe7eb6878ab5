import math
import struct
import warnings
from itertools import chain, islice

import numpy as np
import pytest

from altbase.core import (
    EPS_SNAP,
    _greedy_run,
    greedy_expand,
    lazy_expand,
    new_base,
    shift_base,
)
from altbase import oracle
from altbase.errors import AlphabetError, DomainError, SearchTooLarge
from altbase.oracle import (
    _DITHER_BLOCK,
    DITHER_AMPLITUDE,
    SplitMix64,
    _dither_blocks,
    _orbit_tally,
    birkhoff_frequency,
    empirical_histogram,
    lex_greatest,
    lex_least,
)
from helpers import BASE13_BETAS, PHI, base13, randint, random_base
from reference import (
    birkhoff_frequency_reference,
    dithered_orbit_reference,
    empirical_histogram_reference,
    lex_greatest_naive,
    lex_least_naive,
)

X5 = (1.0 + math.sqrt(5.0)) / 5.0


class TestSplitMix:
    def test_reference_stream(self):
        # published splitmix64 outputs for seed 0
        r = SplitMix64(0)
        assert [r.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_uniform_range(self):
        r = SplitMix64(99)
        vals = [r.uniform(2.0, 3.0) for _ in range(1000)]
        assert all(2.0 <= v < 3.0 for v in vals)

    def test_randint_bounds(self):
        r = SplitMix64(5)
        vals = {randint(r, 1, 4) for _ in range(200)}
        assert vals == {1, 2, 3, 4}

    @pytest.mark.parametrize(
        "seed",
        [0, 2**64 - 1, struct.unpack("<Q", struct.pack("<d", math.sqrt(2) - 1))[0]],
        ids=["zero", "wraparound", "bits_sqrt2m1"],
    )
    def test_block_dither_equals_scalar_stream(self, seed):
        n = 3 * _DITHER_BLOCK + 5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            blocked = list(islice(chain.from_iterable(_dither_blocks(seed)), n))
        r = SplitMix64(seed)
        scalar = [r.uniform(-DITHER_AMPLITUDE, DITHER_AMPLITUDE) for _ in range(n)]
        assert blocked == scalar


class TestLexSearch:
    def test_sqrt13_extremal_tuples(self):
        b = base13()
        assert lex_greatest(b, X5, 5).digits == (1, 0, 1, 0, 2)
        assert lex_least(b, X5, 5).digits == (0, 1, 1, 1, 2)

    def test_zero_and_supremum(self):
        b = base13()
        assert lex_greatest(b, 0.0, 4).digits == (0, 0, 0, 0)
        assert lex_least(b, b.xmax[0], 4).digits == (2, 1, 2, 1)

    @pytest.mark.parametrize("x", [-EPS_SNAP, -1e-14, -5e-324])
    def test_negative_x_within_snap(self, x):
        # inside the domain check, but no digit keeps even the first prefix <= x
        b = base13()
        for n in (1, 4):
            with pytest.raises(DomainError):
                lex_greatest(b, x, n)
        res = lex_greatest(b, x, 0)
        assert (res.digits, res.value) == ((), 0.0)

    def test_phi_phi_sqrt5_prefix(self):
        b = new_base((PHI, PHI, math.sqrt(5)))
        assert lex_greatest(b, 0.75, 3).digits == greedy_expand(b, 0.75, 3).digits

    def test_prefix_stability(self):
        b = base13()
        rng = SplitMix64(11)
        for _ in range(50):
            x = rng.uniform(0, b.xmax[0])
            full = lex_greatest(b, x, 8).digits
            for m in (2, 5, 7):
                assert lex_greatest(b, x, m).digits == full[:m]

    def test_pruned_equals_naive(self):
        rng = SplitMix64(12)
        for _ in range(60):
            b = random_base(rng)
            n = randint(rng, 1, 6)
            x = rng.uniform(0, b.xmax[0])
            assert lex_greatest(b, x, n) == lex_greatest_naive(b, x, n)
            if x > 0:
                assert lex_least(b, x, n) == lex_least_naive(b, x, n)

    def test_matches_transformations(self):
        rng = SplitMix64(13)
        for _ in range(60):
            b = random_base(rng)
            n = randint(rng, 1, 8)
            x = rng.uniform(1e-6, b.xmax[0] - 1e-6)
            assert lex_greatest(b, x, n).digits == greedy_expand(b, x, n).digits
            assert lex_least(b, x, n).digits == lazy_expand(b, x, n).digits

    def test_enumeration_bound(self):
        b = new_base((1e6, 1e6))
        with pytest.raises(SearchTooLarge):
            lex_greatest(b, 0.5, 3)

    @pytest.mark.parametrize("search", [lex_greatest, lex_least])
    @pytest.mark.parametrize("n", [-1, -3])
    def test_negative_count_is_refused(self, search, n):
        with pytest.raises(DomainError, match="digit count"):
            search(new_base((2.5, 1.5)), 0.5, n)


class TestBirkhoff:
    def test_absent_digit(self):
        assert birkhoff_frequency(base13(), 0.3, 9, 1000) == 0.0

    def test_dyadic_digits_of_generic_point(self):
        f = birkhoff_frequency(new_base((2,)), 1 / math.pi, 1, 10**6)
        assert f == pytest.approx(0.5, abs=0.01)

    def test_matches_closed_form(self):
        from altbase.measure import frequency

        b = base13()
        f = birkhoff_frequency(b, math.sqrt(2) - 1, 0, 2 * 10**5)
        assert f == pytest.approx(frequency(b, 0), abs=5e-3)

    def test_random_start_is_seeded(self):
        b = base13()
        a = birkhoff_frequency(b, None, 0, 1000, seed=4)
        c = birkhoff_frequency(b, None, 0, 1000, seed=4)
        assert a == c

    def test_frequencies_sum_to_one(self):
        # N a power of two keeps every count/N exact in binary
        b = base13()
        N = 2**14
        total = sum(birkhoff_frequency(b, 0.3125, d, N) for d in range(3))
        assert total == 1.0

    def test_float_count_rejected(self):
        # a float N raises TypeError before any range check, as range(n) does
        for N in (1000.0, 0.5, -1.0):
            with pytest.raises(TypeError):
                birkhoff_frequency(base13(), 0.3, 0, N)
        with pytest.raises(DomainError):
            birkhoff_frequency(base13(), 0.3, 0, 0)
        assert birkhoff_frequency(base13(), 0.3, 0, np.int64(1000)) == birkhoff_frequency(
            base13(), 0.3, 0, 1000
        )

    def test_non_integer_digit_rejected(self):
        # 1.0 == 1, so a float digit would be counted as an integer one
        for digit in (0.5, 1.0, np.float64(1.0), "1"):
            with pytest.raises(AlphabetError):
                birkhoff_frequency(base13(), 0.3, digit, 1000)

    def test_negative_digit_rejected(self):
        with pytest.raises(DomainError):
            birkhoff_frequency(base13(), 0.3, -1, 1000)

    def test_digit_reaches_the_loop_as_int(self, monkeypatch):
        seen = []

        def spy(base, x0, steps, digit, slot, bins):
            seen.append(type(digit))
            return 0, []

        monkeypatch.setattr(oracle, "_orbit_tally", spy)
        for digit in (np.int64(1), np.uint8(1), True, 1):
            birkhoff_frequency(base13(), 0.3, digit, 1000)
        assert seen == [int] * 4


class TestHistogram:
    def test_empty(self):
        st = empirical_histogram(base13(), 0, 0.3, 0, 8)
        assert sum(st.counts) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(DomainError):
            empirical_histogram(base13(), 0, 0.3, -1, 8)

    def test_float_count_rejected(self):
        for N in (1000.0, 0.5, -1.0):
            with pytest.raises(TypeError):
                empirical_histogram(base13(), 0, 0.3, N, 8)
        st = empirical_histogram(base13(), 0, 0.3, np.int64(1000), 8)
        assert st.counts == empirical_histogram(base13(), 0, 0.3, 1000, 8).counts

    def test_non_integer_slot_and_bins_rejected(self):
        # a float slot would match no step of the loop and leave every bin empty
        for slot in (1.5, 1.0, np.float64(0.0)):
            with pytest.raises(TypeError):
                empirical_histogram(base13(), slot, 0.3, 100, 8)
        for bins in (8.0, 0.5):
            with pytest.raises(TypeError):
                empirical_histogram(base13(), 0, 0.3, 100, bins)

    def test_slot_and_bins_reach_the_loop_as_int(self, monkeypatch):
        seen = []

        def spy(base, x0, steps, digit, slot, bins):
            seen.append((type(steps), type(slot), type(bins)))
            return 0, [0] * bins

        monkeypatch.setattr(oracle, "_orbit_tally", spy)
        st = empirical_histogram(base13(), np.int64(1), 0.3, np.int64(100), np.int32(8))
        assert seen == [(int, int, int)] and st.counts == (0,) * 8

    def test_bins_over_the_bound_refused(self):
        # the bin list takes its length from the caller: refused before it is built
        with pytest.raises(SearchTooLarge, match="bin bound"):
            empirical_histogram(new_base((2.5,)), 0, 0.3, 10, 10**7 + 1)
        with pytest.raises(DomainError):  # the argument checks come first
            empirical_histogram(new_base((2.5,)), 0, 1.5, 10, 10**7 + 1)

    def test_counts_sum(self):
        st = empirical_histogram(base13(), 1, 0.371, 5000, 16)
        assert sum(st.counts) == 5000
        assert st.iterations == 5000

    def test_sqrt13_matches_density(self):
        from altbase.measure import measure_interval, slot_densities

        b = base13()
        N, bins = 2 * 10**5, 32
        spec = slot_densities(b)[0]
        st = empirical_histogram(b, 0, math.sqrt(2) - 1, N, bins)
        for k, c in enumerate(st.counts):
            expect = measure_interval(spec, k / bins, (k + 1) / bins)
            assert c / N == pytest.approx(expect, abs=5e-3)

    def test_doubling_map_uniform(self):
        st = empirical_histogram(new_base((2,)), 0, 1 / math.pi, 2 * 10**5, 16)
        for c in st.counts:
            assert c / (2 * 10**5) == pytest.approx(1 / 16, abs=5e-3)


ORBIT_BASES = {
    "sqrt13": BASE13_BETAS,
    "two": (2.0,),
    "phi_phi_sqrt5": (PHI, PHI, math.sqrt(5)),
    "period5": (1.3, 2.7, 1.9, 3.4, 1.15),
    # near-integer bases: the snapped floor and the alphabet cap decide digits here
    "three_plus": (3 + 1e-13,),
    "three_minus": (3 - 1e-13,),
    "two_plus": (2 + 1e-12,),
}
BELOW_ONE = math.nextafter(1.0, 0.0)


@pytest.mark.parametrize("betas", ORBIT_BASES.values(), ids=ORBIT_BASES.keys())
class TestOrbitMatchesScalarReference:
    """The block-dithered orbit reproduces the one-draw-per-step loop exactly."""

    def test_birkhoff_seeded_start(self, betas):
        b = new_base(betas)
        for d in range(max(b.alphabets) + 1):
            got = birkhoff_frequency(b, None, d, 3000, seed=7)
            assert got == birkhoff_frequency_reference(b, None, d, 3000, seed=7)

    def test_birkhoff_across_blocks(self, betas):
        b = new_base(betas)
        N = (_DITHER_BLOCK + 1) * b.p
        for d in (0, 1):
            got = birkhoff_frequency(b, math.sqrt(2) - 1, d, N)
            assert got == birkhoff_frequency_reference(b, math.sqrt(2) - 1, d, N)

    def test_birkhoff_at_the_ends_of_the_interval(self, betas):
        b = new_base(betas)
        N = 500 * b.p + 1  # one step into a period
        for x0 in (0.0, BELOW_ONE):
            for d in range(max(b.alphabets) + 2):
                assert birkhoff_frequency(b, x0, d, N) == birkhoff_frequency_reference(b, x0, d, N)

    def test_histogram_across_blocks(self, betas):
        b = new_base(betas)
        N = _DITHER_BLOCK + 1
        for slot in {0, b.p - 1}:
            st = empirical_histogram(b, slot, 0.371, N, 16)
            assert st.counts == empirical_histogram_reference(b, slot, 0.371, N, 16)


PIN_STEPS = 10**4 + 1  # not a multiple of the period 2, 3 or 5
PIN_BINS = 2**16


@pytest.mark.parametrize("betas", ORBIT_BASES.values(), ids=ORBIT_BASES.keys())
def test_orbit_digit_is_greedy_digit(betas):
    """The orbit loop and core's greedy loop inline the greedy digit rule; both must stay it.

    The reference orbit takes each digit from greedy_digit_reference.  Every digit
    count and every slot's fine histogram of the loop must equal the reference's,
    which fixes the digit and the point of every step.
    """
    b = new_base(betas)
    rotated = [shift_base(b, i) for i in range(b.p)]
    for x0 in (math.sqrt(2) - 1, 0.0, BELOW_ONE):
        orbit = dithered_orbit_reference(b, x0, PIN_STEPS)
        for d in range(max(b.alphabets) + 2):
            hits, _ = _orbit_tally(b, x0, PIN_STEPS, d, -1, 0)
            assert hits == sum(1 for _, _, e in orbit if e == d)
        for slot in range(b.p):
            _, counts = _orbit_tally(b, x0, PIN_STEPS, -1, slot, PIN_BINS)
            expect = [0] * PIN_BINS
            for i, x, _ in orbit:
                if i == slot:
                    expect[min(int(x * PIN_BINS), PIN_BINS - 1)] += 1
            assert counts == expect
        for i, x, d in orbit:
            assert _greedy_run(rotated[i], x, 1)[0] == [d]
