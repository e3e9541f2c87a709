"""crsphere: exact operator algebra and spectral solvers for the critical
CR GJMS operator on the sphere.

The package has four layers: the Heisenberg group model with its exact
left-invariant operator algebra (heisenberg), the bigraded spherical
harmonics and eigentables (harmonics, spectral), the parametrix chain in
exact-diagonal and perturbed-matrix regimes (galerkin, parametrix), and the
zero CR Q-curvature solver (qcurvature).  The cli module wires them into
reproducible command-line runs.
"""

import importlib

from .errors import (
    CapExceededError,
    ConfigError,
    CrsphereError,
    DimensionMismatchError,
    NumericalError,
    ObstructionError,
)
from .harmonics import HarmonicBasis, dim_hpq
from .poly import Poly
from .scalars import QI, parse_qi

__version__ = "0.1.0"

# The floating layers load numpy, and only heisenberg-selftest needs the
# Heisenberg model; they are imported on first use, so the exact layers (and
# the CLI commands built on them) start without.
_LAZY = {
    "heisenberg": (
        "Dilation", "GroupElement", "LeftInvariantOp", "box_b", "box_b_bar", "dilate",
        "group_inv", "group_mul", "model_identity_suite", "sublaplacian_model",
    ),
    "parametrix": (
        "ParametrixChain", "build_chain_diagonal", "build_chain_matrix", "hatted_gjms",
        "smoothing_residual", "spectrum_diagonal",
    ),
    "qcurvature": (
        "ContactPerturbation", "QData", "SolveReport", "qhat", "solvability_check",
        "solve_zero_q", "total_q",
    ),
    "spectral": (
        "DiagonalOperator", "SpectralFunction", "Truncation", "critical_gjms", "l_mu",
        "pluriharmonic_proj", "reeb_t", "sublaplacian", "szego", "szego_bar",
    ),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    module = _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
