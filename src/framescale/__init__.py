"""Nearly equal norm Parseval frames, repaired via radial isotropic scaling."""

from .frames import (
    ENPF_TOL,
    Frame,
    FrameMetrics,
    dist_sq,
    frame_metrics,
    frame_operator,
    generate_enpf,
    perturb_frame,
    renormalize,
)
from .majorization import majorizes, transport_distance
from .polytope import (
    MembershipResult,
    all_d_subsets_independent,
    basis_polytope_membership,
    numerical_rank,
    shrunk_polytope_membership,
    uniform_coefficients,
)
from .repair import (
    AuditCheck,
    AuditRecord,
    PerturbationBudget,
    RepairReport,
    audit_lemma_chain,
    perturb_to_general_position,
    repair,
    rescale_preserving_norms,
    reverify,
)
from .scaling import (
    DiagonalScaling,
    ScalingConvergenceError,
    ScalingSolution,
    diagonalize_transform,
    isotropy_residual,
    scaling_gradient,
    scaling_hessian,
    scaling_potential,
    solve_radial_isotropic,
)

__version__ = "0.1.0"

__all__ = [
    "ENPF_TOL",
    "Frame",
    "FrameMetrics",
    "dist_sq",
    "frame_metrics",
    "frame_operator",
    "generate_enpf",
    "perturb_frame",
    "renormalize",
    "majorizes",
    "transport_distance",
    "MembershipResult",
    "all_d_subsets_independent",
    "basis_polytope_membership",
    "numerical_rank",
    "shrunk_polytope_membership",
    "uniform_coefficients",
    "AuditCheck",
    "AuditRecord",
    "PerturbationBudget",
    "RepairReport",
    "audit_lemma_chain",
    "perturb_to_general_position",
    "repair",
    "rescale_preserving_norms",
    "reverify",
    "DiagonalScaling",
    "ScalingConvergenceError",
    "ScalingSolution",
    "diagonalize_transform",
    "isotropy_residual",
    "scaling_gradient",
    "scaling_hessian",
    "scaling_potential",
    "solve_radial_isotropic",
]
