"""Exact lattice arithmetic for integral invariant-cycle failure certificates.

The package verifies, with integer arithmetic only, the finite
computations behind double-cover degenerations of elliptic surfaces:
Kodaira fiber bookkeeping under quadratic base change, Shioda-Tate and
Mordell-Weil discriminant accounting, even-lattice classification in
rank two, and the specialization-index argument that turns a
discriminant mismatch into a failure certificate for the integral
invariant cycle property.
"""

from .kodaira import (
    FiberTokenError,
    KodairaFiber,
    base_change_source,
    delta,
    euler_number,
    fiber,
    fiber_profile,
    is_star,
    quadratic_base_change_fiber,
)
from .lattice import (
    BinaryEvenForm,
    GramLattice,
    LatticeError,
    NotDivisibleError,
    NotEvenError,
    NotPerfectSquareRatioError,
    NotPositiveDefiniteError,
    enumerate_even_overlattices,
    enumerate_even_posdef_binary,
    is_isometric_binary,
    reduce_binary,
    root_gram,
    smith_normal_form,
    sublattice_index_from_discs,
)
from .mordell_weil import (
    PicardTooSmallError,
    check_disc_consistency,
    mw_rank,
    mwl_denominator_bound,
    mwl_discriminant,
    shioda_tate,
)
from .surfaces import (
    BranchSpec,
    SurfaceConfig,
    SurfaceError,
    UnknownLabelError,
    invariants,
    quadratic_base_change,
)
from .transcendental import (
    ExclusionFact,
    NothingSurvivesError,
    VERDICT_FAILS,
    VERDICT_HOLDS_POSSIBLE,
    candidate_classes,
    double_cover_disc_candidates,
    resolve_disc,
    rigidity_transfer,
    shioda_inose_unscale,
    specialization_index,
)
from .pipeline import (
    PipelineContradictionError,
    PipelineError,
    build_pipeline_spec,
    render_text,
    report_exit_code,
    run_custom,
    run_example,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryEvenForm",
    "BranchSpec",
    "ExclusionFact",
    "FiberTokenError",
    "GramLattice",
    "KodairaFiber",
    "LatticeError",
    "NotDivisibleError",
    "NotEvenError",
    "NotPerfectSquareRatioError",
    "NotPositiveDefiniteError",
    "NothingSurvivesError",
    "PicardTooSmallError",
    "PipelineContradictionError",
    "PipelineError",
    "SurfaceConfig",
    "SurfaceError",
    "UnknownLabelError",
    "VERDICT_FAILS",
    "VERDICT_HOLDS_POSSIBLE",
    "base_change_source",
    "build_pipeline_spec",
    "candidate_classes",
    "check_disc_consistency",
    "delta",
    "double_cover_disc_candidates",
    "enumerate_even_overlattices",
    "enumerate_even_posdef_binary",
    "euler_number",
    "fiber",
    "fiber_profile",
    "invariants",
    "is_isometric_binary",
    "is_star",
    "mw_rank",
    "mwl_denominator_bound",
    "mwl_discriminant",
    "quadratic_base_change",
    "quadratic_base_change_fiber",
    "reduce_binary",
    "render_text",
    "report_exit_code",
    "resolve_disc",
    "rigidity_transfer",
    "root_gram",
    "run_custom",
    "run_example",
    "shioda_inose_unscale",
    "shioda_tate",
    "smith_normal_form",
    "specialization_index",
    "sublattice_index_from_discs",
    "__version__",
]
