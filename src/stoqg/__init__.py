"""Spectral Galerkin simulator and enstrophy lab for stochastically forced
quasi-geostrophic flow on the unit square."""

__version__ = "0.1.0"

from .spectral import (  # noqa: F401
    Basis,
    GridField,
    ParameterError,
    SpectralField,
    build_basis,
    dealias_resolution,
    derivative_x,
    derivative_y,
    field_from_modes,
    from_grid,
    gradient_norm,
    grid_max_norm,
    jacobian,
    laplace_invert,
    parseval_norm,
    to_grid,
    zero_field,
)
from .noise import (  # noqa: F401
    NoiseSpectrum,
    SummabilityError,
    analytic_convolution_variance,
    build_spectrum,
    phi_alpha,
    spectrum_from_list,
    trace,
)
from .dynamics import (  # noqa: F401
    BlowupError,
    EnsembleRecord,
    InitialCondition,
    ModelParams,
    SimConfig,
    convolution_sup_norms,
    run_ensemble,
    simulate_path,
    snap_output_times,
)
from .analysis import (  # noqa: F401
    DIRICHLET_C1,
    BoundEnvelope,
    BoundReport,
    EnstrophyTrace,
    asymptotics_check,
    estimate_enstrophy,
    fit_and_validate_bound,
    gamma_threshold,
    holder_exponent_fit,
    lemma1_pathwise_check,
    theorem2_envelope,
    theorem2_shape,
    trace_class_envelope,
    validate_bound,
)
