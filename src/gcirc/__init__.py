"""g-circulant and cyclic matrices over GF(2^m): exact construction,
MDS/involutory/orthogonal/semi-involutory/semi-orthogonal checking, and
theorem-pruned exhaustive search."""

from .circulant import (
    CyclicSpec,
    GCirculantSpec,
    build_circulant,
    build_cyclic,
    build_g_circulant,
    build_left_circulant,
    involutory_g_filter,
    involutory_rows,
    left_circulant_involutory_conditions,
    shifted_convolution,
    square_is_identity,
    square_structured,
)
from .errors import (
    BadDegreeError,
    ConfigError,
    DimensionError,
    GcircError,
    NotCoprimeError,
    NotKCycleError,
    OutOfRangeError,
    ParseError,
    RecheckError,
    ReducibleModulusError,
    ResumeTokenError,
    SingularMatrixError,
    SpaceTooLargeError,
)
from .field import GF2m, is_irreducible
from .matrix import Matrix, Permutation
from .modular import (
    SqrtOneSolutions,
    crt_sqrt_one_solutions,
    factorize,
    mod_inverse,
    predicted_sqrt_one_count,
    sqrt_one_solutions,
)
from .properties import (
    DiagonalPair,
    PropertyReport,
    detect_semi_involutory,
    detect_semi_orthogonal,
    diagonal_power_scalar,
    full_report,
    is_mds,
    rescale_pair,
)
from .search import (
    RowSpace,
    RowSpaceKind,
    SearchJob,
    SearchResult,
    Target,
    run_search,
    target_satisfied,
)

__version__ = "0.1.0"
