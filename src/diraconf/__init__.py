"""Bound states of the Dirac equation with Coulomb plus linear confining
potentials: the exact preservation mechanism, its effective-operator
explanation, its uniqueness, and the antiparticle counterpart.

Natural units hbar = c = 1 throughout; masses default to 1.
"""

__version__ = "0.1.0"

from .ansatz import (
    AnsatzParams,
    build_ansatz,
    evaluate_spinor,
    nu_expanded,
    nu_fine_tuned,
    radial_residual,
    residual_grid,
)
from .coulomb import (
    CouplingSet,
    dirac_coulomb_energy,
    dirac_coulomb_ground_state,
    expectation_anticomm_p2_r,
    expectation_inv_r,
    expectation_r,
    radial_wavefunction,
    schrodinger_energy,
)
from .errors import (
    BracketError,
    ConditionViolationError,
    ConvergenceError,
    DomainError,
    NormalizationError,
    WrongStateError,
)
from .fw_effective import (
    AntiparticlePotential,
    EffectiveShift,
    UniquenessReport,
    antiparticle_effective,
    antiparticle_spectrum_airy,
    first_order_shift,
    preservation_scan,
    reference_cancellation,
    shift_from_expectations,
)
from .quantum_numbers import (
    check_state,
    decompose_kappa,
    enumerate_kappa,
    kappa_from_lj,
    radial_nodes,
    sigma_dot_L_plus_one_eigenvalue,
)
from .radial_solver import (
    BoundState,
    PotentialSpec,
    RadialGrid,
    ScalarBoundState,
    ShiftStudy,
    airy_grid,
    coulomb_grid,
    coulomb_plus_linear,
    coulomb_potential,
    find_bound_state,
    integrate_radial,
    shift_convergence_study,
    solve_schrodinger_radial,
)
from .rescale import (
    BagCase,
    RescaleProfile,
    bag_model_case,
    build_rescaled_state,
    check_ratio_condition,
    fine_tune_v2,
    gamma_energy_relation,
    h_profile,
)
from .special_functions import (
    QuadratureResult,
    airy_negative_zeros,
    gamma_fn,
    integrate_adaptive,
    kummer_U,
)


def __getattr__(name):
    # ``kernel_backend`` is looked up, not bound at import: the kernel
    # backend is selected on the first kernel call, which this triggers
    if name == "kernel_backend":
        from ._kernels import backend
        return backend()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
