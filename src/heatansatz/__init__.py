"""Exact series solutions of the heat equation driven by rational profiles.

The package builds polynomial coefficient tables in a graded ring,
assembles parity-symmetric series solutions psi(z, t) of psi_t =
(1/2) psi_zz, verifies them order by order and on numeric grids, and
maps them to odd Burgers flows through the logarithmic derivative.
"""

from .ansatz import (
    AnsatzSpec,
    PhiTable,
    ansatz_to_jet,
    general_phi_table,
    jet_phi_remainders,
    jet_phi_table,
)
from .dynsys import (
    DynState,
    IntegrationError,
    MobiusParam,
    PoleError,
    RationalH,
    chazy4_residual,
    heat_system_field,
    ode_residual,
    rational_top,
    reduced_initial_state,
    rk4_integrate,
)
from .grpoly import (
    FamilyMismatchError,
    GradedPoly,
    NonHomogeneousError,
    VariableFamily,
)
from .operators import (
    BasisDecomposition,
    annihilator,
    basis_elements,
    decompose_basis,
    derivative_chain,
    euler_operator,
    expand_basis,
    is_annihilated,
    jet_derivative,
    weighted_derivative,
)
from .solution import (
    BurgersSolution,
    GridSpec,
    SeriesSolution,
    assemble_psi,
    burgers_residual,
    closed_form_0ansatz,
    closed_form_1ansatz,
    cole_hopf,
    diffusion_residual_numeric,
    exp_r,
    gamma_ratio_coeff,
    heat_residual_series,
    rescale_to_mu,
    residual_report,
)

__all__ = [
    "AnsatzSpec",
    "BasisDecomposition",
    "BurgersSolution",
    "DynState",
    "FamilyMismatchError",
    "GradedPoly",
    "GridSpec",
    "IntegrationError",
    "MobiusParam",
    "NonHomogeneousError",
    "PhiTable",
    "PoleError",
    "RationalH",
    "SeriesSolution",
    "VariableFamily",
    "annihilator",
    "ansatz_to_jet",
    "assemble_psi",
    "basis_elements",
    "burgers_residual",
    "chazy4_residual",
    "closed_form_0ansatz",
    "closed_form_1ansatz",
    "cole_hopf",
    "decompose_basis",
    "derivative_chain",
    "diffusion_residual_numeric",
    "euler_operator",
    "exp_r",
    "expand_basis",
    "gamma_ratio_coeff",
    "general_phi_table",
    "heat_residual_series",
    "heat_system_field",
    "is_annihilated",
    "jet_derivative",
    "jet_phi_remainders",
    "jet_phi_table",
    "ode_residual",
    "rational_top",
    "reduced_initial_state",
    "rescale_to_mu",
    "residual_report",
    "rk4_integrate",
    "weighted_derivative",
]

__version__ = "0.1.0"
