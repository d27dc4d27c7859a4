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
    all_d_subsets_independent,
    basis_polytope_membership,
    numerical_rank,
)
from .repair import (
    AuditCheck,
    AuditRecord,
    RepairReport,
    audit_lemma_chain,
    perturb_to_general_position,
    repair,
    reverify,
)
from .scaling import (
    ScalingConvergenceError,
    ScalingSolution,
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
    "all_d_subsets_independent",
    "basis_polytope_membership",
    "numerical_rank",
    "AuditCheck",
    "AuditRecord",
    "RepairReport",
    "audit_lemma_chain",
    "perturb_to_general_position",
    "repair",
    "reverify",
    "ScalingConvergenceError",
    "ScalingSolution",
    "scaling_gradient",
    "scaling_hessian",
    "scaling_potential",
    "solve_radial_isotropic",
]
