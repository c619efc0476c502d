"""Spectral Galerkin simulator and enstrophy lab for stochastically forced
quasi-geostrophic flow on the unit square.

Exported here: the basis, the model and ensemble runner, and the analysis
functions. The command line and the benchmark import the modules directly."""

__version__ = "0.1.0"

from .spectral import Basis  # noqa: F401
from .noise import (  # noqa: F401
    SummabilityError,
    build_spectrum,
    linear_law,
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
    run_ensemble,
    snap_output_times,
)
from .analysis import (  # noqa: F401
    DIRICHLET_C1,
    EnstrophyTrace,
    asymptotics_check,
    estimate_enstrophy,
    fit_and_validate_bound,
    gamma_threshold,
    holder_exponent_fit,
    linear_oracle_check,
    theorem2_shape,
    trace_class_envelope,
    validate_bound,
)
