"""Delta-guided decoding: steer a base model with the logit delta of a tuned twin.

The package splits into small layers:

- ``core``: vocabularies, decode configuration, and the distribution math
  (logit combination, temperature softmax, nucleus filter, token choice).
- ``scorers``: local next-token scorers, mainly smoothed n-gram models.
- ``remote``: wire protocol for scoring against another process.
- ``decoder``: the decode loop itself plus per-step instrumentation.
- ``analysis``: trajectory diagnostics (replay agreement, delta geometry,
  token-category frequencies, length statistics).
- ``metrics``: answer extraction and pooled accuracy estimators.
- ``harness``: campaign manifests, datasets, memory estimates, sweeps.

The package exports each module's ``__all__`` and ``__version__``.
"""

from . import analysis, core, decoder, harness, metrics, remote, scorers
from .analysis import *  # noqa: F403
from .core import *  # noqa: F403
from .decoder import *  # noqa: F403
from .harness import *  # noqa: F403
from .metrics import *  # noqa: F403
from .remote import *  # noqa: F403
from .scorers import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"]
for _module in (analysis, core, decoder, harness, metrics, remote, scorers):
    __all__ += _module.__all__
del _module
