"""Every test module must import, and the public API is pinned.

A test module that fails to import is reported by pytest as one collection
error beside the passing count, and ``--continue-on-collection-errors`` lets
the run go on, so every test in it silently stops running. Importing each
module here turns that into a failed test named after the module.
"""

import importlib
from pathlib import Path

import pytest

import framescale

MODULES = sorted(path.stem for path in Path(__file__).parent.glob("test_*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(name)


PUBLIC_API = [
    "AuditCheck",
    "AuditRecord",
    "ENPF_TOL",
    "Frame",
    "FrameMetrics",
    "RepairReport",
    "ScalingConvergenceError",
    "ScalingSolution",
    "all_d_subsets_independent",
    "audit_lemma_chain",
    "basis_polytope_membership",
    "dist_sq",
    "frame_metrics",
    "frame_operator",
    "generate_enpf",
    "majorizes",
    "numerical_rank",
    "perturb_frame",
    "perturb_to_general_position",
    "renormalize",
    "repair",
    "reverify",
    "scaling_gradient",
    "scaling_hessian",
    "scaling_potential",
    "solve_radial_isotropic",
    "transport_distance",
]


def test_public_api_is_pinned():
    # A change to the public API must edit this list.
    assert sorted(framescale.__all__) == PUBLIC_API
    assert [name for name in PUBLIC_API if not hasattr(framescale, name)] == []
