"""Model-order estimation for discrete-time linear systems.

The toolkit synthesizes benchmark responses, builds their Hankel
responses matrices, decides numerical rank under explicit tolerance
policies (with an exact rational oracle for noise-free verification),
and compares the rank-based order estimate against AIC and
covariance-determinant baselines.  A registry of seeded experiments
regenerates the canonical figure/table datasets as CSV.
"""

__version__ = "0.1.0"

from . import estimators, experiments, hankel, rank, signals
from .signals import *  # noqa: F403
from .hankel import *  # noqa: F403
from .rank import *  # noqa: F403
from .estimators import *  # noqa: F403
from .experiments import *  # noqa: F403

__all__ = ["__version__", *signals.__all__, *hankel.__all__, *rank.__all__,
           *estimators.__all__, *experiments.__all__]
