"""Mutual-information regularized optimal transport on sampled domains.

The solvers couple two point clouds by maximizing a kernel-density
estimate of the mutual information of the transport plan, optionally
fused with a conventional transport cost. On top of the couplings sit two
projection maps (plan-weighted means and density-ratio weighted means),
retrieval scoring, and label-transfer pipelines with an unsupervised
bandwidth validation loop.

NumPy is the only runtime dependency: importing the package loads no
SciPy module, which keeps short runs such as one CLI call quick to start.
The Sinkhorn scaling loop, whose Newton steps finish a solve where
sweeps stall, lives in :mod:`infoot.sinkhorn`. ``infoot.BACKEND``
is the constant ``"python"``, which benchmark results record.

Each module's ``__all__`` lists its public names, and ``infoot.__all__``
is their union. The function ``sinkhorn`` shadows its module as a
package attribute; ``importlib.import_module("infoot.sinkhorn")`` returns
the module.
"""

from . import (datasets, kernels, pipelines, points, projection, solver,
               sinkhorn as _transport)
from ._version import __version__
from .datasets import *
from .kernels import *
from .pipelines import *
from .points import *
from .projection import *
from .sinkhorn import *
from .solver import *

BACKEND = "python"

__all__ = ["__version__", "BACKEND", *points.__all__, *kernels.__all__,
           *_transport.__all__, *solver.__all__, *projection.__all__,
           *datasets.__all__, *pipelines.__all__]
