"""Sufficient dimension reduction for matrix- and tensor-valued predictors.

The central row/column subspaces of a regression Y | X with matrix X are
estimated by slicing the response, fitting one rank-1 support matrix
machine per slice under a Kronecker-factored covariance model, and
aggregating the slice directions by principal components.  The same
pipeline generalizes to order-K tensors with one subspace per mode.
"""

from .data import MatrixDataset, TensorDataset
from .errors import (
    DegenerateDirection,
    InfeasibleLabels,
    PsmmError,
    SampleTooSmall,
    SingularCovariance,
    TooFewSlices,
)
from .matnorm import (
    TensorNormParams,
    flipflop_fit,
    gaussian_loglik,
    sample_mean,
    sym_inv_sqrt,
    whiten,
)
from .pipeline import (
    PsmmConfig,
    SliceLabelSet,
    SubspaceEstimate,
    TensorSubspaceEstimate,
    aggregate_directions,
    fit_psmm,
    fit_pstm,
    fit_psvm_baseline,
    reduce,
    select_dimension_bic,
    slice_labels,
    symmetric_triple,
)
from .qp import (
    SvmDualProblem,
    SvmDualSolution,
    dual_objective_value,
    kkt_residual_value,
    recover_bias,
    solve_svm_dual,
)
from .smm import (
    TensorDirectionSet,
    fit_rank1_smm,
    init_directions,
    mode_k_contract,
    objective_eval,
    update_u,
    update_v,
)
from .synth import (
    BenchmarkResult,
    BenchmarkRow,
    SyntheticInstance,
    gen_model,
    model_response,
    run_benchmark,
    sample_matrix_normal,
    subspace_distance,
)

__version__ = "0.1.0"
