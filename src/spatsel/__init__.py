"""Two-step sample-selection estimation with spatial differencing."""

from .dataset import (
    ClusteredDataset,
    CsvSchema,
    NeighborhoodGraph,
    build_neighborhoods,
    load_adjacency,
    load_csv,
    write_csv,
)
from .differencing import (
    DifferenceOperator,
    fixed_effect_operator,
    kernel_operator,
    pairwise_operator,
)
from .estimator import TwoStepFit, heckman_classic, two_step_fit, variance_two_step
from .exceptions import EstimationError, SeparationError, ValidationError
from .inference import BootstrapResult, wild_cluster_bootstrap
from .montecarlo import (
    GridConfig,
    SimCell,
    SimResult,
    generate_sample,
    run_cell,
    run_tables,
)
from .numerics import (
    MillsValue,
    inverse_mills,
    inverse_mills_derivative,
    normal_cdf,
    normal_pdf,
)
from .probit import ProbitFit, ProbitSpec, fit_probit, predict_index

__all__ = [
    "BootstrapResult",
    "ClusteredDataset",
    "CsvSchema",
    "DifferenceOperator",
    "EstimationError",
    "GridConfig",
    "MillsValue",
    "NeighborhoodGraph",
    "ProbitFit",
    "ProbitSpec",
    "SeparationError",
    "SimCell",
    "SimResult",
    "TwoStepFit",
    "ValidationError",
    "build_neighborhoods",
    "fit_probit",
    "fixed_effect_operator",
    "generate_sample",
    "heckman_classic",
    "inverse_mills",
    "inverse_mills_derivative",
    "kernel_operator",
    "load_adjacency",
    "load_csv",
    "normal_cdf",
    "normal_pdf",
    "pairwise_operator",
    "predict_index",
    "run_cell",
    "run_tables",
    "two_step_fit",
    "variance_two_step",
    "wild_cluster_bootstrap",
    "write_csv",
]

__version__ = "0.1.0"
