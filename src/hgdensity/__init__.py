"""Exact densities of p-adically bounded primes for 2F1 hypergeometric series."""

from .arith import (
    HGParams,
    ResidueSet,
    euler_phi,
    frac_part,
    least_residue,
    mod_order,
    normalize_params,
)
from .density import (
    DensityRecord,
    bounded_prime_test,
    bounded_residues,
    density,
    is_union_of_cyclic,
    pointwise_condition,
    record,
    subgroup_union_size,
    zero_density_criterion,
)
from .padic import (
    BoundednessVerdict,
    DigitExpansion,
    Verdict,
    coefficient_valuations,
    digit_bounded,
    empirical_bounded,
    normalized_digit_limit,
    padic_digits,
)

__all__ = [
    "HGParams",
    "ResidueSet",
    "DensityRecord",
    "DigitExpansion",
    "BoundednessVerdict",
    "Verdict",
    "euler_phi",
    "frac_part",
    "least_residue",
    "mod_order",
    "normalize_params",
    "bounded_prime_test",
    "bounded_residues",
    "density",
    "is_union_of_cyclic",
    "pointwise_condition",
    "record",
    "subgroup_union_size",
    "zero_density_criterion",
    "coefficient_valuations",
    "digit_bounded",
    "empirical_bounded",
    "normalized_digit_limit",
    "padic_digits",
]

__version__ = "0.1.0"
