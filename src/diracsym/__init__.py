"""Exact toolkit for Dirac-type equations in even spatial dimension:
gamma-system construction, discrete-symmetry intertwiner solving,
classification, spectral certificates, and reproducible JSON output.
"""

from .exact import ExactMatrix, ExactScalar, nullspace, rank
from .clifford import (
    GammaSystem,
    base_system,
    extend,
    monomial_basis,
    system_for,
)
from .models import DiracModel, doubled, generator, model_for
from .symmetry import (
    CANDIDATES,
    CLASSIFY_ORDER,
    VARIANTS,
    ClassificationRecord,
    SymmetryCandidate,
    TauSolution,
    classify,
    composite_candidate,
    model_for_variant,
    solve_tau,
    verify_tau,
)
from .spectra import (
    DensityState,
    FiberState,
    MassProfile,
    RepLabel,
    density_evolve,
    dispersion_check,
    evolution_operator,
    little_group_labels,
    load_mass_profile,
    profile_apply_P2,
    sqrt_dirac_fiber,
)
from .certificate import make_certificate, verify_certificate

__version__ = "0.1.0"

__all__ = [
    "ExactMatrix",
    "ExactScalar",
    "nullspace",
    "rank",
    "GammaSystem",
    "base_system",
    "extend",
    "monomial_basis",
    "system_for",
    "DiracModel",
    "doubled",
    "generator",
    "model_for",
    "CANDIDATES",
    "CLASSIFY_ORDER",
    "VARIANTS",
    "ClassificationRecord",
    "SymmetryCandidate",
    "TauSolution",
    "classify",
    "composite_candidate",
    "model_for_variant",
    "solve_tau",
    "verify_tau",
    "DensityState",
    "FiberState",
    "MassProfile",
    "RepLabel",
    "density_evolve",
    "dispersion_check",
    "evolution_operator",
    "little_group_labels",
    "load_mass_profile",
    "profile_apply_P2",
    "sqrt_dirac_fiber",
    "make_certificate",
    "verify_certificate",
    "__version__",
]
