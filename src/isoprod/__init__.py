"""Integral homology of surfaces isogenous to a higher product with abelian group.

The library computes H_1 (and the full graded homology) of the quotient of
a product of two curves by the diagonal action of a finite abelian group,
given the two generating systems of the covers.  Two independent methods
are provided: a closed-form computation through the exterior square of
the group and the bilinear 2-cocycle of a central extension, and a
Reidemeister-Schreier rewriting oracle.  ``isoprod.cli.compute`` runs them
and cross-checks the answers.
"""

from .abelian import (
    AbElement,
    FinAbGroup,
    Wedge2,
    pairwise_wedge_sum,
    subgroup_generated,
    wedge,
)
from .cocycle import (
    ExtensionCocycle,
    WedgeQuotient,
    commutator_quotient,
    h1_cocycle,
    kernel_basis,
    wedge_relator,
)
from .families import (
    FamilyCase,
    builtin_case,
    builtin_cases,
    full_homology,
    genus,
    surface_invariants,
)
from .intlattice import (
    IntMatrix,
    InvariantFactors,
    abelian_invariants,
    kernel_basis_mod_p,
    smith_normal_form,
)
from .oracle import (
    CosetTable,
    SchreierData,
    coset_table,
    kernel_h1,
    relation_matrix,
    rewrite_relator,
    schreier_transversal,
)
from .presentation import (
    DifferenceMap,
    GeneratingSystem,
    InvalidCaseError,
    Letter,
    OrbifoldPresentation,
    ProductPresentation,
    ValidationReport,
    Word,
    commutator,
    free_reduce,
    freeness_check,
    gen,
    validate_generating_system,
)

__version__ = "0.1.0"

__all__ = [
    "AbElement",
    "CosetTable",
    "DifferenceMap",
    "ExtensionCocycle",
    "FamilyCase",
    "FinAbGroup",
    "GeneratingSystem",
    "IntMatrix",
    "InvalidCaseError",
    "InvariantFactors",
    "Letter",
    "OrbifoldPresentation",
    "ProductPresentation",
    "SchreierData",
    "ValidationReport",
    "Wedge2",
    "WedgeQuotient",
    "Word",
    "abelian_invariants",
    "builtin_case",
    "builtin_cases",
    "commutator",
    "commutator_quotient",
    "coset_table",
    "free_reduce",
    "freeness_check",
    "full_homology",
    "gen",
    "genus",
    "h1_cocycle",
    "kernel_basis",
    "kernel_basis_mod_p",
    "kernel_h1",
    "pairwise_wedge_sum",
    "relation_matrix",
    "rewrite_relator",
    "schreier_transversal",
    "smith_normal_form",
    "subgroup_generated",
    "surface_invariants",
    "validate_generating_system",
    "wedge",
    "wedge_relator",
]
