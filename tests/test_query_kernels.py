"""The query kernels equal their reference loops bit for bit.

measure_interval and preimage sum and clip with the operations of
reference.measure_interval_reference and reference.preimage_reference, and
compare_transforms takes its period from core's loop as
reference.compare_transforms_reference does through _greedy_run, and its
blocked step inline where the referee calls greedy_delta_step_reference.  Floats
are compared by float.hex, or a list of them by the bytes of its
array('d'); an error by its type and message.
"""

import math
import os
import pathlib
import subprocess
import sys
from array import array
from itertools import chain

import pytest

import cli_golden
from altbase import measure
from altbase.core import new_base
from altbase.digitset import compare_transforms
from altbase.errors import AltBaseError, DomainError
from altbase.expr import parse_base_list
from altbase.measure import (
    DensitySpec,
    IntervalMeasureQuery,
    compose_map,
    gora_density,
    measure_interval,
    mu_product,
    preimage,
)
from altbase.oracle import SplitMix64
from helpers import randint, random_base
from reference import (
    branch_image_tops,
    compare_transforms_reference,
    measure_interval_reference,
    preimage_reference,
)

NAN = math.nan
BAD_INTERVALS = ((NAN, 0.5), (0.2, NAN), (NAN, NAN), (0.6, 0.4), (-0.1, 0.5), (0.5, 1.5))


def _bases():
    """The golden bases and 200 random bases of period 1 to 6."""
    rng = SplitMix64(171)
    golden = [new_base(parse_base_list(text)) for text in cli_golden.BASES]
    return golden + [random_base(rng, pmin=1, pmax=6) for _ in range(200)]


def _clamped_spec():
    """A hand-made spec with tied thresholds and three clamped to 1.0."""
    t = (0.0, 0.125, 0.5, 0.5, 0.75, 1.0, 1.0, 1.0)
    w = (0.5, -0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125, 0.00390625)
    return DensitySpec(1, (0.5,), (1.0, 1.0), 1.5, 2.0, len(t), t, w)


@pytest.fixture(scope="module")
def maps_and_specs():
    pairs = []
    for b in _bases():
        for i in range(b.p):
            m = compose_map(b, i)
            pairs.append((m, gora_density(m)))
    return pairs


def _ends(keys, rng):
    """0, 1, some keys (each tied key among them), their float neighbours and random points."""
    keys = sorted(k for k in keys if 0.0 <= k <= 1.0)
    tied = sorted({k for k, nxt in zip(keys, keys[1:]) if k == nxt})
    picked = set(tied[:2])
    for _ in range(min(2, len(keys))):
        picked.add(keys[randint(rng, 0, len(keys) - 1)])
    pts = {0.0, 1.0, rng.uniform(0.0, 1.0)}
    for k in picked:
        pts.update((k, math.nextafter(k, -math.inf), math.nextafter(k, math.inf)))
    return sorted(q for q in pts if 0.0 <= q <= 1.0)


def _intervals(pts):
    """Each point as an empty interval, as either end against 0 and 1, and paired with the next."""
    out = [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    for a, b in zip(pts, pts[1:] + [1.0]):
        out += [(a, a), (0.0, a), (a, 1.0), (a, b)]
    return out


def _mass_bits(spec, a, b):
    return measure_interval(spec, a, b).hex(), measure_interval_reference(spec, a, b).hex()


def _pieces_bits(map_, a, b):
    def bits(pieces):
        return array("d", chain.from_iterable(pieces)).tobytes()

    return bits(preimage(map_, a, b)), bits(preimage_reference(map_, a, b))


class TestMeasureInterval:
    def test_random_and_golden_densities(self, maps_and_specs):
        rng = SplitMix64(172)
        on_threshold = 0
        for _, spec in maps_and_specs:
            keys = set(spec.thresholds)
            for a, b in _intervals(_ends(spec.thresholds, rng)):
                got, want = _mass_bits(spec, a, b)
                assert got == want, (spec.B, a, b)
                on_threshold += b in keys
        assert on_threshold > 1000

    def test_densities_have_ties(self, maps_and_specs):
        assert sum(len(set(s.thresholds)) < len(s.thresholds) for _, s in maps_and_specs) > 100

    def test_ties_and_thresholds_clamped_to_one(self):
        spec = _clamped_spec()
        pts = sorted({q for t in spec.thresholds + (0.3,) for q in (t, math.nextafter(t, 2.0))})
        pts = [q for q in pts if q <= 1.0]
        for a in pts:
            for b in pts:
                if a <= b:
                    got, want = _mass_bits(spec, a, b)
                    assert got == want, (a, b)

    def test_all_onto_map(self):
        spec = gora_density(compose_map(new_base((2.0, 3.0)), 0))
        assert spec.K == 0 and spec.thresholds == ()
        for a, b in ((0.0, 0.0), (0.0, 1.0), (0.25, 1.0), (0.5, 0.5), (0.3, 0.7)):
            got, want = _mass_bits(spec, a, b)
            assert got == want

    @pytest.mark.parametrize("a, b", BAD_INTERVALS)
    def test_bad_interval_message(self, a, b):
        spec = _clamped_spec()
        with pytest.raises(DomainError) as got:
            measure_interval(spec, a, b)
        with pytest.raises(DomainError) as want:
            measure_interval_reference(spec, a, b)
        assert str(got.value) == str(want.value) == f"bad interval [{a!r}, {b!r})"


class TestPreimage:
    def test_random_and_golden_maps(self, maps_and_specs):
        rng = SplitMix64(173)
        for m, spec in maps_and_specs:
            # the cut images a = slope * (e - e_k) put ends on branch tops
            tops = branch_image_tops(m)
            for a, b in _intervals(_ends(list(spec.thresholds) + tops, rng)):
                got, want = _pieces_bits(m, a, b)
                assert got == want, (m.slope, a, b)

    @pytest.mark.parametrize("a, b", BAD_INTERVALS)
    def test_bad_interval_message(self, a, b):
        m = compose_map(new_base((2.5,)), 0)
        with pytest.raises(DomainError) as got:
            preimage(m, a, b)
        with pytest.raises(DomainError) as want:
            preimage_reference(m, a, b)
        assert str(got.value) == str(want.value)


def _report_or_error(fn, base):
    try:
        rep = fn(base)
    except AltBaseError as exc:
        return type(exc), str(exc)
    return (
        tuple((lo.hex(), hi.hex()) for lo, hi in rep.intervals),
        tuple((w.x.hex(), w.delta_image.hex(), w.composed_image.hex()) for w in rep.witnesses),
    )


# (1000000.5, 1000000.5) has about 10^12 digit blocks.  Each referee on the path of
# compare_transforms_reference must refuse it before enumerating; the child caps its own
# address space, so a referee that lost its bound fails with MemoryError in the child
# instead of exhausting the memory of the test run.
HUGE_BETAS = (1000000.5, 1000000.5)
CHILD_ADDRESS_SPACE = 512 * 2**20
_REFEREES_PROBE = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (LIMIT, resource.getrlimit(resource.RLIMIT_AS)[1]))
import reference
from altbase.core import new_base
from altbase.errors import AltBaseError

for name in ("block_values_reference", "digit_set_reference", "compare_transforms_reference"):
    try:
        getattr(reference, name)(new_base(BETAS))
        print(name, "returned")
    except AltBaseError as exc:
        print(name, type(exc).__name__, exc)
"""


class TestCompareTransforms:
    def test_reports_match_reference(self):
        bases = _bases()
        got = [_report_or_error(compare_transforms, b) for b in bases]
        assert got == [_report_or_error(compare_transforms_reference, b) for b in bases]
        assert sum(bool(rep[0]) for rep in got) > 10  # some reports disagree somewhere

    def test_referees_refuse_a_huge_base_within_a_memory_cap(self):
        tests = pathlib.Path(__file__).resolve().parent
        src = str(tests.parent / "src")
        path = os.pathsep.join(filter(None, [src, str(tests), os.environ.get("PYTHONPATH")]))
        head = f"LIMIT = {CHILD_ADDRESS_SPACE}\nBETAS = {HUGE_BETAS!r}\n"
        proc = subprocess.run(
            [sys.executable, "-c", head + _REFEREES_PROBE],
            env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1"),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        kind, message = _report_or_error(compare_transforms, new_base(HUGE_BETAS))
        assert kind.__name__ == "SearchTooLarge"
        assert proc.stdout.splitlines() == [
            f"{name} SearchTooLarge {message}"
            for name in ("block_values_reference", "digit_set_reference", "compare_transforms_reference")
        ]


class TestMuProductChecksFirst:
    @pytest.mark.parametrize("a, b", BAD_INTERVALS)
    def test_bad_later_interval_builds_nothing(self, monkeypatch, a, b):
        built = []

        def counted(map_, *args):
            built.append(map_)
            return gora_density(map_, *args)

        monkeypatch.setattr(measure, "gora_density", counted)
        base = new_base(parse_base_list(cli_golden.BASES[1]))
        queries = [IntervalMeasureQuery(0, 0.1, 0.2), IntervalMeasureQuery(2, a, b)]
        with pytest.raises(DomainError, match=r"^bad interval \["):
            mu_product(base, queries)
        assert built == []

    def test_masses_add_left_to_right(self):
        base = new_base(parse_base_list(cli_golden.BASES[3]))
        queries = [IntervalMeasureQuery(i, 0.1 * i, 0.3 + 0.1 * i) for i in (4, 0, 2, 3)]
        total = 0.0
        for q in queries:
            total += measure_interval(gora_density(compose_map(base, q.slot)), q.a, q.b)
        assert mu_product(base, queries).hex() == (total / base.p).hex()
