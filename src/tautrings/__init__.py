"""Exact-arithmetic computation of tautological cohomology rings.

Layers, bottom up: partition/Schur/Littlewood-Richardson combinatorics;
exact rational linear algebra; a free graded-commutative algebra engine
on sorted generator-id tuples, with the one derivation routine,
quotients, Koszul complexes and bigraded DGAs; brute-force tensor
invariants, whose Lie-algebra action goes through that routine; the
parametrized spectral-sequence model; and the final ring presentations.
"""

from .partitions import (
    CapExceeded,
    Partition,
    enumerate_partitions,
    lr_coefficient,
    schur_dim,
    schur_product_expand,
)
from .linalg import QMatrix, subspace_equal
from .graded import (
    BigradedDGA,
    GeneratorSet,
    fgca_dims,
    koszul_cohomology_dims,
    quotient_dims,
)
from .invariants import (
    TensorSpaceSpec,
    gl_invariant_basis,
    sigma_matrix,
    sl_invariant_basis,
    verify_fundamental_theorems,
)
from .model import (
    ACAlgebraSpec,
    ModelParams,
    OracleMismatch,
    PaperGradedSpaces,
    ac_invariant_dims_bruteforce,
    ac_invariant_dims_formula,
    build_D_dga,
    build_spaces,
    e2_bruteforce_oracle,
    e2_oracle_check,
    e3_zero_column,
    gh_target_dims,
    lambda_relations,
    minimal_M,
)
from .rings import (
    blockdiff_cohomology,
    diff_cohomology,
    mt_cohomology,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded", "Partition", "enumerate_partitions", "lr_coefficient",
    "schur_dim", "schur_product_expand", "QMatrix", "subspace_equal",
    "TensorSpaceSpec", "gl_invariant_basis", "sl_invariant_basis",
    "sigma_matrix", "verify_fundamental_theorems", "GeneratorSet",
    "BigradedDGA", "fgca_dims", "quotient_dims", "koszul_cohomology_dims",
    "ModelParams", "PaperGradedSpaces", "ACAlgebraSpec", "OracleMismatch",
    "minimal_M", "build_spaces", "build_D_dga", "e3_zero_column",
    "ac_invariant_dims_bruteforce", "ac_invariant_dims_formula",
    "gh_target_dims", "e2_bruteforce_oracle", "e2_oracle_check",
    "lambda_relations", "mt_cohomology", "diff_cohomology",
    "blockdiff_cohomology",
]
