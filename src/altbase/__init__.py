"""Expansions of real numbers in alternate bases and their dynamics."""

from .core import (
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
from .digitset import (
    DigitSet,
    DisagreementReport,
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
from .errors import (
    AlphabetError,
    AltBaseError,
    DomainError,
    NotAllowable,
    ParseError,
    SearchTooLarge,
    SingularSystem,
    TruncationTooShallow,
)
from .measure import (
    DensitySpec,
    IntervalMeasureQuery,
    PiecewiseLinearMap,
    compose_map,
    density_eval,
    entropy,
    frequency,
    gora_density,
    measure_interval,
    mu_product,
    preimage,
    slot_densities,
)
from .oracle import (
    EmpiricalStats,
    SplitMix64,
    TupleSearchResult,
    birkhoff_frequency,
    empirical_histogram,
    lex_greatest,
    lex_least,
)

__version__ = "0.1.0"
