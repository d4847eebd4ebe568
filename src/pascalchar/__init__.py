"""Character sums over Pascal's triangle mod p.

Exact arithmetic for the row sums T(n) and their cumulative sums phi(n)
twisted by a Dirichlet character mod p, residue-occurrence counting through
the group ring of discrete logs, row-regular/row-dominant classification,
growth-rate diagnostics, and a random model of the fundamental domain.
"""

__version__ = "0.1.0"

from .bounds_asymptotics import (
    AlphaSequence,
    BoundReport,
    GrowthProfile,
    alpha_sequence,
    bound_report,
    bounded_growth_check,
    convergence_ratio,
    growth_profile,
    psi,
    row_dominant_witness,
    vartheta,
    vartheta_report,
)
from .char_sequences import (
    A_count_bruteforce,
    A_count_formula,
    A_count_formula_all,
    CountVector,
    FundamentalTables,
    T_chi,
    a_row,
    build_tables,
    phi_and_T,
    phi_chi,
)
from .characters import (
    Character,
    Comparison,
    CycInt,
    UnityOrZero,
    abs_compare,
    character,
    conjugate,
    cyclotomic_coeffs,
    group,
)
from .classification import (
    ClassificationRecord,
    MeanReport,
    Verdict,
    classify,
    fundamental_scatter,
    mean_report,
    scan,
)
from .core_arith import (
    DigitString,
    PrimeContext,
    is_prime,
    least_primitive_root,
    lucas_binom,
    make_context,
    row_mod_p,
    to_digits,
)
from .errors import (
    IndexOutOfRange,
    LimitExceeded,
    NotPrime,
    NotRowDominant,
    OrderMismatch,
    PascalCharError,
    UndefinedTheta,
    WeilViolation,
)
from .random_model import (
    ModelConfig,
    ModelStats,
    closed_form_Y,
    closed_form_char,
    run_model,
    sample_domain,
)

__all__ = [
    "__version__",
    "AlphaSequence", "BoundReport", "GrowthProfile", "alpha_sequence",
    "bound_report", "bounded_growth_check", "convergence_ratio",
    "growth_profile", "psi", "row_dominant_witness", "vartheta",
    "vartheta_report",
    "A_count_bruteforce", "A_count_formula", "A_count_formula_all",
    "CountVector", "FundamentalTables", "T_chi", "a_row", "build_tables",
    "phi_and_T", "phi_chi",
    "Character", "Comparison", "CycInt", "UnityOrZero",
    "abs_compare", "character", "conjugate", "cyclotomic_coeffs", "group",
    "ClassificationRecord", "MeanReport", "Verdict", "classify",
    "fundamental_scatter", "mean_report", "scan",
    "DigitString", "PrimeContext", "is_prime", "least_primitive_root",
    "lucas_binom", "make_context", "row_mod_p", "to_digits",
    "IndexOutOfRange", "LimitExceeded", "NotPrime", "NotRowDominant",
    "OrderMismatch", "PascalCharError", "UndefinedTheta", "WeilViolation",
    "ModelConfig", "ModelStats", "closed_form_Y", "closed_form_char",
    "run_model", "sample_domain",
]
