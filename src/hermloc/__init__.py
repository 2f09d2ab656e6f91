"""Training-free function approximation with localized Hermite kernels.

The library estimates a function from scattered labeled samples that live
on an unknown low-dimensional set inside a high-dimensional space, using a
single weighted-sum pass with a localized polynomial kernel: no training
loop, no eigen-decomposition, and only the intrinsic dimension as a prior.
The same kernels convert exactly into shallow Gaussian networks, which
compose along DAGs with controlled error propagation.  An experiment
harness reproduces a noisy helix reconstruction study end to end.
"""

from . import deep_net, estimator, experiments, gaussian_net, hermite, kernels
from .hermite import *
from .kernels import *
from .estimator import *
from .gaussian_net import *
from .deep_net import *
from .experiments import *

__version__ = "0.1.0"

# each module's export list, as its star import above takes it
__all__ = [
    *hermite.__all__,
    *kernels.__all__,
    *estimator.__all__,
    *gaussian_net.__all__,
    *deep_net.__all__,
    *experiments.__all__,
    "__version__",
]
