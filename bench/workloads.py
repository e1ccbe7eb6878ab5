"""The three library workloads: seeded inputs, op groups and output checks.

A workload is set up once (:meth:`setup`, timed as part of ``setup_s``) and
then yields op groups from :meth:`groups`.  A group is a generator that
yields ``(name, function, args)`` for each op, receives the op's result, and
finally returns one verdict per op.  Only the yielded call is timed; input
preparation and checks run between yields, outside the timed region.  One op
is one public call.

Inputs come from ``random.Random(seed)``, never from the library's own
generator, so a change to the program cannot change its inputs.
"""

from __future__ import annotations

import itertools
import math
import random

import altbase
from altbase import expr
from criteria import PPR5, criterion9_ppr5_ok

S13 = "(1+sqrt(13))/2,(5+sqrt(13))/6"
PHI2 = "phi*phi"
TWO = "2"
P5 = "1.3,2.7,1.9,3.4,1.15"
P8 = "1.3,2.7,1.9,3.4,1.15,2.2,1.7,2.9"
COLLISION = "1.5,1.5,4"
SQRT567 = "sqrt(5)/2,sqrt(6)/2,sqrt(7)/2"

EXPANSION_DIGITS = 1000
LEX_DIGITS = 14  # keeps every orbit base under the 10^7 enumeration bound
# Criterion 6 compares Birkhoff averages with the closed form at 5e-3.  At
# 2.5e5 steps the worst case (base 2, digit frequency 1/2) has a standard
# error of 1e-3, so a correct program fails this check with odds near 1e-6.
BIRKHOFF_STEPS = 250_000
BIRKHOFF_TOL = 5e-3
HISTOGRAM_STEPS = 150_000  # orbit steps; samples per slot = steps // p
HISTOGRAM_BINS = 64
ROUNDOFF = 1e-12  # slack for comparing two float summations of one series
MASS_TOL = 1e-9


def parse_base(text: str) -> altbase.AlternateBase:
    return altbase.new_base(expr.parse_base_list(text))


def partial_sum(base, digits) -> tuple[float, float]:
    """Value of a digit string and the product of its bases, summed here."""
    v, prod = 0.0, 1.0
    for k, d in enumerate(digits):
        prod *= base.beta(k)
        v += d / prod
    return v, prod


def sandwich_ok(base, x: float, digits, lazy: bool) -> bool:
    """Partial sums bracket x: v <= x < v + tail (greedy), v < x <= v + tail (lazy)."""
    if not all(0 <= d <= base.alphabet(k) for k, d in enumerate(digits)):
        return False
    v, prod = partial_sum(base, digits)
    tail = base.xsup(len(digits)) / prod
    slack = ROUNDOFF * max(1.0, x)
    if lazy:
        return v - slack < x <= v + tail + slack
    return v - slack <= x < v + tail + slack


class Orbits:
    """Per-step Python loops of ``core`` and ``oracle`` on four fixed bases."""

    name = "orbits"
    EXPRESSIONS = (S13, PPR5, TWO, P5)

    def setup(self) -> None:
        self.bases = [parse_base(e) for e in self.EXPRESSIONS]
        self._freq: dict = {}
        self._dens: dict = {}

    def warm_up(self) -> None:
        for b in self.bases:
            altbase.evaluate(b, altbase.greedy_expand(b, 0.5, 8))

    def frequency(self, i: int, digit: int) -> float:
        if (i, digit) not in self._freq:
            self._freq[i, digit] = altbase.frequency(self.bases[i], digit)
        return self._freq[i, digit]

    def density(self, i: int, slot: int):
        if i not in self._dens:
            self._dens[i] = altbase.slot_densities(self.bases[i])
        return self._dens[i][slot]

    def groups(self, seed: int):
        # Per base, one round is 10 ops: a lex pair (~30 us), 2 evaluates
        # (~0.3 ms), 2 expansions (~2 ms), a histogram (~0.25 s) and 3
        # Birkhoff orbits (~0.3 s).  The median falls in the middle of the
        # expansions and the 90th percentile in the middle of the Birkhoff
        # orbits, away from the edge of any op class.  Cheap groups sit
        # between the orbits, so wherever a run stops, its op mix is close to
        # a whole number of rounds.
        rng = random.Random(seed)
        for k in itertools.count():
            i = k % len(self.bases)
            b = self.bases[i]

            def point():
                return rng.uniform(0.0, b.xmax[0]) or b.xmax[0]

            yield self._lex(b, point())
            yield self._birkhoff(i, rng.random(), rng.randint(0, max(b.alphabets)))
            yield self._expansion(b, point(), lazy=False)
            yield self._birkhoff(i, rng.random(), rng.randint(0, max(b.alphabets)))
            yield self._expansion(b, point(), lazy=True)
            yield self._birkhoff(i, rng.random(), rng.randint(0, max(b.alphabets)))
            yield self._histogram(i, rng.randrange(b.p), rng.random())

    def _expansion(self, b, x, lazy):
        if lazy:
            word = yield "op.lazy_expand", altbase.lazy_expand, (b, x, EXPANSION_DIGITS)
        else:
            word = yield "op.greedy_expand", altbase.greedy_expand, (b, x, EXPANSION_DIGITS)
        value = yield "op.evaluate", altbase.evaluate, (b, word)
        return [
            len(word.digits) == EXPANSION_DIGITS and sandwich_ok(b, x, word.digits, lazy),
            abs(value - partial_sum(b, word.digits)[0]) <= ROUNDOFF * max(1.0, x),
        ]

    def _lex(self, b, x):
        hi = yield "op.lex_greatest", altbase.lex_greatest, (b, x, LEX_DIGITS)
        lo = yield "op.lex_least", altbase.lex_least, (b, x, LEX_DIGITS)
        return [
            sandwich_ok(b, x, hi.digits, lazy=False) and abs(hi.value - partial_sum(b, hi.digits)[0]) <= ROUNDOFF,
            sandwich_ok(b, x, lo.digits, lazy=True) and abs(lo.value - partial_sum(b, lo.digits)[0]) <= ROUNDOFF,
        ]

    def _birkhoff(self, i, x0, digit):
        emp = yield "op.birkhoff_frequency", altbase.birkhoff_frequency, (self.bases[i], x0, digit, BIRKHOFF_STEPS)
        return [abs(emp - self.frequency(i, digit)) < BIRKHOFF_TOL]

    def _histogram(self, i, slot, x0):
        b = self.bases[i]
        n = HISTOGRAM_STEPS // b.p
        stats = yield "op.empirical_histogram", altbase.empirical_histogram, (b, slot, x0, n, HISTOGRAM_BINS)
        spec = self.density(i, slot)
        ok = sum(stats.counts) == n and len(stats.counts) == HISTOGRAM_BINS
        for k, c in enumerate(stats.counts):
            expect = altbase.measure_interval(spec, k / HISTOGRAM_BINS, (k + 1) / HISTOGRAM_BINS)
            ok = ok and abs(c / n - expect) < BIRKHOFF_TOL
        return [ok]


# Upper end of the uniform beta range per period.  Wider ranges make a
# period-7 or period-8 base cost up to 20 s (the branch count grows with the
# period product); these keep the product below ~60, so one run sees a few
# hundred distinct bases.
BETA_HI = {1: 4.0, 2: 3.5, 3: 3.0, 4: 2.6, 5: 2.3, 6: 2.1, 7: 1.95, 8: 1.85}
BETA_LO = 1.1
# Bases of one period are drawn in blocks that cover [BETA_LO, BETA_HI) evenly
# in every slot (a Latin hypercube).  The cost of a build follows the period
# product, a sum of logs, so every seed then sees nearly the same cost mix and
# the latency quantiles do not move with the seed.
BLOCK = 16
# Stream positions of the fixed bases, each used once per run.  Positions
# 2, 10 and 18 fall on period 3 in the period cycle, 4 on period 5, 7 on 8.
FIXED_POSITIONS = {2: PPR5, 4: P5, 7: P8, 10: COLLISION, 18: SQRT567}


class DensityBuild:
    """The construction path of ``measure`` and ``digitset``, one new base per group."""

    name = "density_build"

    def setup(self) -> None:
        self.fixed = {pos: parse_base(e) for pos, e in FIXED_POSITIONS.items()}
        self.warm = parse_base("1.5,2.5")

    def warm_up(self) -> None:
        altbase.slot_densities(self.warm)
        altbase.compare_transforms(self.warm)

    def groups(self, seed: int):
        rng = random.Random(seed)
        pending: dict[int, list] = {p: [] for p in BETA_HI}
        for k in itertools.count():
            p = k % 8 + 1
            if not pending[p]:
                pending[p] = _stratified_betas(rng, p)
            betas = pending[p].pop()
            b = self.fixed.get(k) or altbase.new_base(betas)
            yield self._group(b, FIXED_POSITIONS.get(k))

    def _group(self, b, expression):
        specs = yield "op.slot_densities", altbase.slot_densities, (b,)
        ds = yield "op.delta_set", altbase.delta_set, (b,)
        report = yield "op.compare_transforms", altbase.compare_transforms, (b,)
        return [
            len(specs) == b.p
            and all(abs(altbase.measure_interval(s, 0.0, 1.0) - 1.0) <= MASS_TOL for s in specs),
            ds.digits[0] == 0.0
            and all(a < c for a, c in zip(ds.digits, ds.digits[1:]))
            and ds.beta == b.product
            and altbase.is_allowable(ds),
            _report_ok(b, report, expression),
        ]


def _stratified_betas(rng: random.Random, p: int) -> list[list[float]]:
    """BLOCK bases of period p, one per stratum of the beta range in every slot."""
    width = (BETA_HI[p] - BETA_LO) / BLOCK
    columns = []
    for _ in range(p):
        strata = list(range(BLOCK))
        rng.shuffle(strata)
        columns.append([BETA_LO + (j + rng.random()) * width for j in strata])
    return [list(row) for row in zip(*columns)]


def _report_ok(b, report, expression) -> bool:
    """Interval sanity, criterion 10's sufficient condition and criterion 9's decisions."""
    ivs = report.intervals
    ok = len(report.witnesses) == len(ivs)
    ok = ok and all(0.0 <= lo < hi <= b.xmax[0] for lo, hi in ivs)
    ok = ok and all(h0 <= l1 for (_, h0), (l1, _) in zip(ivs, ivs[1:]))
    if b.p <= 2 or altbase.nondecreasing_by_criterion(b):
        ok = ok and not ivs
    if expression == PPR5:
        ok = ok and criterion9_ppr5_ok(ivs)
    elif expression == COLLISION:
        ok = ok and not ivs
    elif expression == SQRT567:
        ok = ok and bool(ivs) and all(lo >= 1.0 for lo, _ in ivs)
        ok = ok and abs(ivs[0][0] - 1.28) < 1e-2 and abs(ivs[-1][1] - 1.44) < 1e-2
    return ok


class StatsQueries:
    """The query path of ``measure`` on four fixed bases."""

    name = "stats_queries"
    EXPRESSIONS = (S13, PPR5, PHI2, P5)
    POINT_GROUPS = 2  # per base and round; see groups()
    INTERVALS = 4  # measure_interval calls per point group

    def setup(self) -> None:
        self.bases = [parse_base(e) for e in self.EXPRESSIONS]

    def warm_up(self) -> None:
        # users build a density once and query it many times
        self.maps = [[altbase.compose_map(b, i) for i in range(b.p)] for b in self.bases]
        self.specs = [[altbase.gora_density(m) for m in ms] for ms in self.maps]
        for b in self.bases:
            altbase.frequency(b, 0)

    def groups(self, seed: int):
        # One round over the four bases has 17 frequency/mu_product queries
        # (each rebuilds every slot density today) and 48 point queries on
        # prebuilt densities: 8 preimage (~5 us), 8 density_eval (~10 us)
        # and 32 measure_interval (~25 us).  The median falls in the middle
        # of the measure_interval calls, the 90th percentile inside the
        # phi,phi,sqrt(5) builds.
        rng = random.Random(seed)
        for k in itertools.count():
            i = k % len(self.bases)
            b = self.bases[i]
            yield self._frequencies(b)
            yield self._points(i, rng)
            yield self._mu(b, rng)
            yield self._points(i, rng)

    def _frequencies(self, b):
        fs = []
        for d in range(max(b.alphabets) + 1):
            fs.append((yield "op.frequency", altbase.frequency, (b, d)))
        ok = abs(math.fsum(fs) - 1.0) <= MASS_TOL and all(0.0 <= f <= 1.0 for f in fs)
        return [ok] * len(fs)

    def _mu(self, b, rng):
        slots = sorted(rng.sample(range(b.p), rng.randint(1, b.p)))
        queries = []
        for s in slots:
            a, c = sorted((rng.random(), rng.random()))
            queries.append(altbase.IntervalMeasureQuery(s, a, c))
        value = yield "op.mu_product", altbase.mu_product, (b, queries)
        return [0.0 <= value <= 1.0 + ROUNDOFF]

    def _points(self, i, rng):
        slot = rng.randrange(self.bases[i].p)
        map_, spec = self.maps[i][slot], self.specs[i][slot]
        dens = yield "op.density_eval", altbase.density_eval, (spec, rng.random())
        verdicts = [math.isfinite(dens) and dens >= 0.0]
        for _ in range(self.INTERVALS):
            a, c = sorted((rng.random(), rng.random()))
            mass = yield "op.measure_interval", altbase.measure_interval, (spec, a, c)
            verdicts.append(-ROUNDOFF <= mass <= 1.0 + ROUNDOFF)
        pieces = yield "op.preimage", altbase.preimage, (map_, a, c)
        return verdicts + [_preimage_ok(map_, pieces, a, c)]


def _preimage_ok(map_, pieces, a, c) -> bool:
    """Pieces ascend, do not overlap, and the map sends each midpoint into [a, c)."""
    ok = all(lo < hi for lo, hi in pieces)
    ok = ok and all(h0 <= l1 for (_, h0), (l1, _) in zip(pieces, pieces[1:]))
    for lo, hi in pieces:
        y = map_(0.5 * (lo + hi))
        ok = ok and a - ROUNDOFF <= y < c + ROUNDOFF
    return ok


LIBRARY_WORKLOADS = {w.name: w for w in (Orbits, DensityBuild, StatsQueries)}
