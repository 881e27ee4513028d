"""Exact-arithmetic verification of the shifted Rogers-Ramanujan-Gordon
partition identities.

Four independent computations of the same formal power series are provided:
the congruence-product recursion, a partition-counting dynamic program, a
standard-monomial count for a graded monomial quotient, and the limit of a
stage-indexed coefficient family. Verifying an identity instance means
computing all four to a truncation order and certifying coefficientwise
equality in exact integer arithmetic.
"""

from .families import (
    CoefficientFamily,
    Side,
    family_at_stage,
    family_limit,
    family_step,
    verify_expansion,
    verify_family_match,
)
from .hilbert import (
    MonomialIdealSpec,
    QuotientSpec,
    expand_generators,
    gordon_quotient,
    hp_series,
    standard_monomial_count,
    verify_hp_identities,
    verify_hp_recursion,
)
from .partitions import (
    GordonParams,
    Partition,
    allowed_residues,
    count_gordon,
    count_modular,
    enumerate_gordon,
    gordon_series,
    iter_partitions,
    satisfies_gordon,
)
from .products import ProductIndex, base_product, product_series
from .qseries import INFINITE, NonDivisibleError, TruncatedSeries, first_mismatch

__all__ = [
    "CoefficientFamily",
    "GordonParams",
    "INFINITE",
    "MonomialIdealSpec",
    "NonDivisibleError",
    "Partition",
    "ProductIndex",
    "QuotientSpec",
    "Side",
    "TruncatedSeries",
    "allowed_residues",
    "base_product",
    "count_gordon",
    "count_modular",
    "enumerate_gordon",
    "expand_generators",
    "family_at_stage",
    "family_limit",
    "family_step",
    "first_mismatch",
    "gordon_quotient",
    "gordon_series",
    "hp_series",
    "iter_partitions",
    "product_series",
    "satisfies_gordon",
    "standard_monomial_count",
    "verify_expansion",
    "verify_family_match",
    "verify_hp_identities",
    "verify_hp_recursion",
]

__version__ = "0.1.0"
