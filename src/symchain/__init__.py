"""symchain: exact symmetric squares of chain complexes of free modules.

Coefficient backends: ZZ, QQ, GF(p), the integers localized at a prime,
and graded polynomial rings over QQ.  All arithmetic is exact.
"""

from .scalars import GF, QQ, Ring, Scalar, ZLoc, ZZ, graded_poly, two_is_unit
from .linalg import SparseMatrix, SNFResult, invariant_factors, kernel_basis, smith_normal_form
from .complexes import (
    ChainMap,
    FreeComplex,
    Homotopy,
    direct_sum,
    is_chain_map,
    is_homotopy,
    identity_map,
    koszul,
    mapping_cone,
    shift,
    tensor,
    tensor_map,
    unit_complex,
    validate,
    zero_complex,
    zero_map,
)
from .sym2 import (
    PresentedComplex,
    SplitDecomposition,
    alpha,
    base_change,
    induced_homotopy,
    shift_iso,
    split_decomposition,
    sum_decomposition_iso,
    sym2,
    sym2_base_change_iso,
    sym2_map,
    weak_sym2,
)
from .homology import (
    FpAbelianGroup,
    HomologyReport,
    QuasiIsoVerdict,
    homology,
    homology_presented,
    inf_h,
    is_exact,
    is_quasi_iso,
)
from .series import (
    RankSeries,
    is_minimal,
    minimal_model,
    minimize,
    poinc_check,
    rank_series,
    verify_series_identity,
)
from .theorems import (
    VerdictReport,
    check_s2fpd01,
    check_s2fpd02,
    check_symm07,
    check_symm07pp,
    check_symm09,
    run_paper_corpus,
)
from .io import parse, serialize

__version__ = "0.1.0"
