"""Training-free function approximation with localized Hermite kernels.

The library estimates a function from scattered labeled samples that live
on an unknown low-dimensional set inside a high-dimensional space, using a
single weighted-sum pass with a localized polynomial kernel: no training
loop, no eigen-decomposition, and only the intrinsic dimension as a prior.
The same kernels convert exactly into shallow Gaussian networks, which
compose along DAGs with controlled error propagation.  An experiment
harness reproduces a noisy helix reconstruction study end to end.
"""

from .hermite import (
    QuadratureRule,
    gauss_hermite_rule,
    hermite_matrix,
)
from .kernels import (
    KernelForm,
    KernelTable,
    compile_kernel,
    eval_kernel,
    filter_h,
    kernel_form,
)
from .estimator import (
    Curve,
    Dataset,
    EstimatorConfig,
    ZERO_MASS,
    QuadratureConvergenceError,
    continuous_operator_on_curve,
    estimate_batch,
    guarded_ratio,
    ratio_reconstruction,
    read_dataset_csv,
    value_and_unit_passes,
    write_dataset_csv,
)
from .gaussian_net import (
    GaussianNetwork,
    poly_to_gaussian,
    prefab_kernel_network,
    read_network_json,
    shallow_net_estimate,
    write_network_json,
)
from .deep_net import (
    Dag,
    DagNode,
    PropagationReport,
    build_deep_approx,
    dag_from_doc,
    eval_gfunction,
    make_pooling,
    propagation_gap,
    read_dag_json,
    write_dag_json,
)
from .experiments import (
    NOISE_MODELS,
    UNBIAS_FACTOR,
    ExperimentConfig,
    ExperimentReport,
    HelixSpec,
    TrialReport,
    bernstein_demo,
    gen_training,
    heat_value_and_unit_passes,
    run_experiment,
    write_report,
)

__version__ = "0.1.0"

__all__ = [
    "QuadratureRule",
    "gauss_hermite_rule",
    "hermite_matrix",
    "KernelForm",
    "KernelTable",
    "compile_kernel",
    "eval_kernel",
    "filter_h",
    "kernel_form",
    "Curve",
    "Dataset",
    "EstimatorConfig",
    "ZERO_MASS",
    "QuadratureConvergenceError",
    "continuous_operator_on_curve",
    "estimate_batch",
    "guarded_ratio",
    "ratio_reconstruction",
    "read_dataset_csv",
    "value_and_unit_passes",
    "write_dataset_csv",
    "GaussianNetwork",
    "poly_to_gaussian",
    "prefab_kernel_network",
    "read_network_json",
    "shallow_net_estimate",
    "write_network_json",
    "Dag",
    "DagNode",
    "PropagationReport",
    "build_deep_approx",
    "dag_from_doc",
    "eval_gfunction",
    "make_pooling",
    "propagation_gap",
    "read_dag_json",
    "write_dag_json",
    "NOISE_MODELS",
    "UNBIAS_FACTOR",
    "ExperimentConfig",
    "ExperimentReport",
    "HelixSpec",
    "TrialReport",
    "bernstein_demo",
    "gen_training",
    "heat_value_and_unit_passes",
    "run_experiment",
    "write_report",
    "__version__",
]
