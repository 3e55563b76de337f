"""Parameter-free variance-reduced finite-sum optimization, with baselines,
exact oracle-call accounting, and a numerical verification suite."""

from .core import (
    FiniteSumProblem,
    NonFiniteGradientError,
    OracleCounter,
    as_param_vector,
    finite_difference_gradient,
    full_gradient,
)
from .data import Dataset, format_libsvm, generate_synthetic, parse_libsvm
from .optimizers import (
    AdaSpiderConfig,
    RunTrace,
    adagrad_norm_run,
    adaspider_run,
    adaspider_step_size,
    select_output,
    sgd_run,
    spider_run,
    spiderboost_run,
    svrg_run,
)
from .problems import (
    MLPClassificationProblem,
    QuadraticProblem,
    RegularizedERM,
    kaiming_uniform_scaled_init,
    nonconvex_regularizer,
    nonconvex_regularizer_grad,
)

__all__ = [
    "AdaSpiderConfig",
    "Dataset",
    "FiniteSumProblem",
    "MLPClassificationProblem",
    "NonFiniteGradientError",
    "OracleCounter",
    "QuadraticProblem",
    "RegularizedERM",
    "RunTrace",
    "adagrad_norm_run",
    "adaspider_run",
    "adaspider_step_size",
    "as_param_vector",
    "finite_difference_gradient",
    "format_libsvm",
    "full_gradient",
    "generate_synthetic",
    "kaiming_uniform_scaled_init",
    "nonconvex_regularizer",
    "nonconvex_regularizer_grad",
    "parse_libsvm",
    "select_output",
    "sgd_run",
    "spider_run",
    "spiderboost_run",
    "svrg_run",
]
