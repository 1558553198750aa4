"""Numerical geometry of the seven-dimensional EBCV family of metrics.

The metrics are homogeneous only when m = 0 or l = 0; for m*l != 0 the
scalar curvature varies with position.
"""

from __future__ import annotations

from . import tolerances

# perfbench/tracer.py, the only reader of jets, wraps the methods of jets.Jet
# and finds the module among those loaded.
from . import jets  # noqa: F401
from .curvature import ricci_frame, riemann_frame, scalar_curvature
from .errors import (
    DomainViolation,
    EbcvError,
    InconclusiveClassification,
    InsufficientSamples,
    MalformedFieldInput,
    ModeMismatch,
    TooFewSamples,
)
from .frames import (
    BCVClassification,
    ModelParams,
    bcv_classify,
    bcv_frame,
    bracket_frame,
    coframe_matrix,
    frame_matrix,
    k_factor,
    levi_civita_frame,
    metric_matrix,
    sample_domain_points,
    structure_constants,
)
from .geodesics import (
    CircleVerdict,
    CotangentState,
    Trajectory,
    circle_check,
    closed_form_trajectory,
    frame_momenta,
    hamiltonian,
    integrate,
    poisson_check,
)
from .homogeneous import (
    StructureClass,
    ambrose_singer_check,
    char_connection_tensor,
    classify_structure,
    parallelism_residuals,
)
from .killing import (
    PolyVectorField,
    basis_rank,
    frame_unit_field,
    killing_basis_m0,
    killing_residual,
    pde_residuals,
)
from .published_tables import load_tables
from .verify import VerifyReport, run_verify

__all__ = [
    "tolerances",
    "EbcvError",
    "DomainViolation",
    "InconclusiveClassification",
    "ModeMismatch",
    "TooFewSamples",
    "MalformedFieldInput",
    "InsufficientSamples",
    "ModelParams",
    "BCVClassification",
    "bcv_classify",
    "bcv_frame",
    "bracket_frame",
    "coframe_matrix",
    "frame_matrix",
    "k_factor",
    "levi_civita_frame",
    "metric_matrix",
    "sample_domain_points",
    "structure_constants",
    "riemann_frame",
    "ricci_frame",
    "scalar_curvature",
    "StructureClass",
    "ambrose_singer_check",
    "char_connection_tensor",
    "classify_structure",
    "parallelism_residuals",
    "PolyVectorField",
    "basis_rank",
    "frame_unit_field",
    "killing_basis_m0",
    "killing_residual",
    "pde_residuals",
    "CircleVerdict",
    "CotangentState",
    "Trajectory",
    "circle_check",
    "closed_form_trajectory",
    "frame_momenta",
    "hamiltonian",
    "integrate",
    "poisson_check",
    "load_tables",
    "VerifyReport",
    "run_verify",
]
