"""Performance analysis toolkit for a two-user power-domain downlink that
shares its waveform with radar sensing.

Closed-form outage probabilities, ergodic communication rates, and sensing
rates are implemented next to independent Monte Carlo oracles, and the
sensing-communication rate regions of the integrated and frequency-division
architectures can be computed and compared.

Each module lists its public names in its own ``__all__``; the package
re-exports exactly those.
"""

import os
import sys

# OpenBLAS starts a worker per extra CPU when numpy loads it, and each idle
# worker spins for about 60 ms; no matrix here exceeds 256 x 256.  Load it
# single-threaded unless the user set a thread count or imported numpy first.
if "numpy" not in sys.modules and not any(
    v in os.environ for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from . import analytic, channel, config, montecarlo, region, specfun
from .analytic import *  # noqa: F401,F403
from .channel import *  # noqa: F401,F403
from .config import *  # noqa: F401,F403
from .montecarlo import *  # noqa: F401,F403
from .region import *  # noqa: F401,F403
from .specfun import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *analytic.__all__,
    *channel.__all__,
    *config.__all__,
    *montecarlo.__all__,
    *region.__all__,
    *specfun.__all__,
]
