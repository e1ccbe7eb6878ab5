"""Shared test utilities: reproducible random bases and points."""

import math

from altbase import measure
from altbase.core import new_base
from altbase.oracle import SplitMix64

SQRT13 = math.sqrt(13)
PHI = (1.0 + math.sqrt(5.0)) / 2.0

BASE13_BETAS = ((1.0 + SQRT13) / 2.0, (5.0 + SQRT13) / 6.0)


def base13():
    return new_base(BASE13_BETAS)


def base_phi2():
    return new_base((PHI * PHI,))


def correction_matrix(spec):
    """The K x K correction matrix S behind a DensitySpec's weights, as gora_density builds it.

    A DensitySpec does not keep S; the production kernel rebuilds it from
    the orbits (as the K x M array the build makes), cuts, slope and depth
    that the spec does keep.
    """
    import numpy as np

    H = np.array(spec.orbit)
    return measure._correction_matrix(H, spec.c, spec.B ** -np.arange(1, spec.M + 1))


def randint(rng: SplitMix64, lo: int, hi: int) -> int:
    """Uniform integer in [lo, hi] by rejection."""
    span = hi - lo + 1
    limit = (1 << 64) - ((1 << 64) % span)
    while True:
        u = rng.next_u64()
        if u < limit:
            return lo + u % span


def random_base(rng: SplitMix64, pmin=1, pmax=3, lo=1.1, hi=3.0):
    """A random base whose components stay clear of integers.

    Components within 1e-3 of an integer are resampled so that alphabet
    sizes are unambiguous under floating-point noise.
    """
    p = randint(rng, pmin, pmax)
    betas = []
    while len(betas) < p:
        b = rng.uniform(lo, hi)
        if abs(b - round(b)) > 1e-3:
            betas.append(b)
    return new_base(betas)


def interior_point(rng: SplitMix64, lo: float, hi: float, margin=1e-6) -> float:
    return rng.uniform(lo + margin, hi - margin)


def greedy_breakpoint_distance(base, slot: int, x: float) -> float:
    """Distance from x to the nearest branch endpoint of the slot's step map."""
    b = base.betas[slot]
    m = base.alphabets[slot]
    cuts = [k / b for k in range(m + 1)] + [1.0, base.xmax[slot], 0.0]
    return min(abs(x - c) for c in cuts)
