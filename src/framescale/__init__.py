"""Nearly equal norm Parseval frames, repaired via radial isotropic scaling."""

from .frames import (
    Frame,
    FrameMetrics,
    dist_sq,
    frame_metrics,
    generate_enpf,
    perturb_frame,
    renormalize,
)
from .polytope import all_d_subsets_independent, basis_polytope_membership
from .repair import (
    AuditCheck,
    AuditRecord,
    RepairReport,
    audit_lemma_chain,
    perturb_to_general_position,
    repair,
    reverify,
)
from .scaling import ScalingConvergenceError, ScalingSolution, solve_radial_isotropic

__version__ = "0.1.0"

__all__ = [
    "Frame",
    "FrameMetrics",
    "dist_sq",
    "frame_metrics",
    "generate_enpf",
    "perturb_frame",
    "renormalize",
    "all_d_subsets_independent",
    "basis_polytope_membership",
    "AuditCheck",
    "AuditRecord",
    "RepairReport",
    "audit_lemma_chain",
    "perturb_to_general_position",
    "repair",
    "reverify",
    "ScalingConvergenceError",
    "ScalingSolution",
    "solve_radial_isotropic",
]
