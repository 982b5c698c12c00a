"""Performance analysis toolkit for a two-user power-domain downlink that
shares its waveform with radar sensing.

Closed-form outage probabilities, ergodic communication rates, and sensing
rates are implemented next to independent Monte Carlo oracles, and the
sensing-communication rate regions of the integrated and frequency-division
architectures can be computed and compared.

Each module lists its public names in its own ``__all__``; the package
re-exports exactly those.
"""

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
