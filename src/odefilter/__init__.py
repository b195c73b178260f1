"""Gaussian ODE filtering with Taylor, Fourier, and hybrid Taylor-Fourier priors."""

from .errors import (
    ContractViolation,
    CsvFormatError,
    DivergedSolveError,
    SingularUpdateError,
)
from .filtering import (
    GaussianBelief,
    MeasurementModel,
    ProjectionPair,
    TransitionModel,
    predict,
    update,
)
from .fourier import (
    FourierParams,
    bessel_i,
    fourier_init,
    fourier_projections,
    fourier_state_space,
    fourier_transition,
    fourier_weights,
)
from .hybrid import (
    HybridConfig,
    TrainNoise,
    TrainPolicy,
    hybrid_solve,
    predict_forward,
    train_fourier,
)
from .problems import by_name, cosine, constant, fhn, linear, rk4_reference, vdp
from .solver import IVProblem, StateSpaceModel, Trajectory, solve
from .taylor import (
    TaylorParams,
    ibm_transition,
    taylor_init,
    taylor_projections,
    taylor_state_space,
)

__all__ = [
    "ContractViolation",
    "CsvFormatError",
    "DivergedSolveError",
    "SingularUpdateError",
    "GaussianBelief",
    "MeasurementModel",
    "ProjectionPair",
    "TransitionModel",
    "predict",
    "update",
    "FourierParams",
    "bessel_i",
    "fourier_init",
    "fourier_projections",
    "fourier_state_space",
    "fourier_transition",
    "fourier_weights",
    "HybridConfig",
    "TrainNoise",
    "TrainPolicy",
    "hybrid_solve",
    "predict_forward",
    "train_fourier",
    "by_name",
    "cosine",
    "constant",
    "fhn",
    "linear",
    "rk4_reference",
    "vdp",
    "IVProblem",
    "StateSpaceModel",
    "Trajectory",
    "solve",
    "TaylorParams",
    "ibm_transition",
    "taylor_init",
    "taylor_projections",
    "taylor_state_space",
]
