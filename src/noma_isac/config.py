"""System parameters and shared value types.

All powers (fading variances, noise powers, transmit power) are treated as
dimensionless normalized ratios; dB quantities are converted once at the
interface boundary via :func:`db_to_linear`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .specfun import _elementwise, _float_or_array

__all__ = [
    "ISAC", "Mode", "ResourceSplit", "SystemConfig", "baseline_config", "comm_factors",
    "db_to_linear", "fdsac", "make_config", "validate_config",
]

#: The scalar float fields of SystemConfig, in config-file order.
FLOAT_FIELDS = (
    "rho1",
    "rho2",
    "alpha_n",
    "alpha_f",
    "sigma2_c",
    "sigma2_s",
    "target_rate_n",
    "target_rate_f",
)
#: The integer fields of SystemConfig, in config-file order.
INT_FIELDS = ("num_rx_antennas", "frame_length")


@dataclass(frozen=True)
class SystemConfig:
    """Static parameters of the two-user downlink with a co-located sensing array.

    rho1, rho2          variances of the two unordered Rayleigh channels
    alpha_n, alpha_f    power-allocation factors of the near/far user;
                        alpha_n + alpha_f = 1 and alpha_n < alpha_f
    sigma2_c, sigma2_s  communication / sensing noise powers
    num_rx_antennas     receive array size M
    frame_length        symbols per radar pulse / communication frame L
    target_rate_n/_f    outage target rates in bits/s/Hz
    sensing_eigenvalues spectrum of the target-response correlation matrix;
                        at most num_rx_antennas nonnegative entries
    """

    rho1: float
    rho2: float
    alpha_n: float
    alpha_f: float
    sigma2_c: float
    sigma2_s: float
    num_rx_antennas: int
    frame_length: int
    target_rate_n: float
    target_rate_f: float
    sensing_eigenvalues: tuple[float, ...]

    @property
    def rho3(self) -> float:
        """Rate parameter of the ordered far-user gain, rho1*rho2/(rho1+rho2)."""
        return self.rho1 * self.rho2 / (self.rho1 + self.rho2)

    @property
    def sensing_rank(self) -> int:
        """Number of strictly positive sensing eigenvalues."""
        return sum(1 for lam in self.sensing_eigenvalues if lam > 0.0)


@dataclass(frozen=True)
class ResourceSplit:
    """Bandwidth fraction kappa and power fraction mu given to communications."""

    kappa: float
    mu: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.kappa <= 1.0:
            raise ValueError("kappa must lie in [0, 1]")
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError("mu must lie in [0, 1]")


@dataclass(frozen=True)
class Mode:
    """Operating mode: integrated (no split) or frequency-division with a split."""

    split: Optional[ResourceSplit] = None

    @property
    def is_isac(self) -> bool:
        return self.split is None

    @property
    def tag(self) -> str:
        return "isac" if self.split is None else "fdsac"


#: Integrated sensing and communications: full band and full power for both.
ISAC = Mode()


def fdsac(kappa: float, mu: float) -> Mode:
    """Frequency-division mode giving fractions (kappa, mu) to communications."""
    return Mode(ResourceSplit(kappa, mu))


def comm_factors(mode: Mode) -> tuple[float, float]:
    """(kappa_t, mu_t) entering the communication formulas; (1, 1) when integrated."""
    if mode.split is None:
        return 1.0, 1.0
    return mode.split.kappa, mode.split.mu


def has_comm_resources(kappa, mu):
    """True where communications get both bandwidth and power; elementwise for arrays.

    Without either (kappa = 0 or mu = 0) outage is certain and the ergodic
    rates are zero.
    """
    return (kappa != 0.0) & (mu != 0.0)


def check_power(p: float | np.ndarray) -> np.ndarray:
    """Return p as an array, raising ValueError unless every power in it is
    positive and finite."""
    p = np.asarray(p, dtype=float)
    if not np.all((0.0 < p) & (p < math.inf)):
        raise ValueError("p must be positive and finite")
    return p


def validate_config(cfg: SystemConfig) -> SystemConfig:
    """Check every invariant of `cfg` and return it unchanged.

    Raises ValueError naming the first violated invariant.
    """
    for name in FLOAT_FIELDS:
        if not math.isfinite(getattr(cfg, name)):
            raise ValueError(f"{name} must be finite")
    if not all(math.isfinite(lam) for lam in cfg.sensing_eigenvalues):
        raise ValueError("sensing_eigenvalues must be finite")
    if not cfg.rho1 > 0.0:
        raise ValueError("rho1 must be positive")
    if not cfg.rho2 > 0.0:
        raise ValueError("rho2 must be positive")
    if not cfg.sigma2_c > 0.0:
        raise ValueError("sigma2_c must be positive")
    if not cfg.sigma2_s > 0.0:
        raise ValueError("sigma2_s must be positive")
    if not 0.0 < cfg.alpha_n < 1.0:
        raise ValueError("alpha_n must lie in (0, 1)")
    if not 0.0 < cfg.alpha_f < 1.0:
        raise ValueError("alpha_f must lie in (0, 1)")
    if abs((cfg.alpha_n + cfg.alpha_f) - 1.0) > math.ulp(1.0):
        raise ValueError("alpha_n + alpha_f must equal 1")
    if not cfg.alpha_n < cfg.alpha_f:
        raise ValueError("alpha_n >= alpha_f")
    for name in INT_FIELDS:
        if not (isinstance(getattr(cfg, name), int) and getattr(cfg, name) >= 1):
            raise ValueError(f"{name} must be a positive integer")
    if cfg.target_rate_n < 0.0:
        raise ValueError("target_rate_n must be nonnegative")
    if cfg.target_rate_f < 0.0:
        raise ValueError("target_rate_f must be nonnegative")
    if len(cfg.sensing_eigenvalues) > cfg.num_rx_antennas:
        raise ValueError("sensing_eigenvalues longer than num_rx_antennas")
    if any(lam < 0.0 for lam in cfg.sensing_eigenvalues):
        raise ValueError("sensing_eigenvalues must be nonnegative")
    return cfg


def db_to_linear(x_db: float | Sequence[float] | np.ndarray) -> float | np.ndarray:
    """Convert dB values to linear power ratios, 10**(x_db/10), elementwise;
    a float gives a float."""
    return _float_or_array(_elementwise(lambda x: 10.0 ** (x / 10.0), np.asarray(x_db, dtype=float)))


def make_config(
    rho1: float,
    rho2: float,
    alpha_n: float,
    alpha_f: float,
    sigma2_c: float = 1.0,
    sigma2_s: float = 1.0,
    num_rx_antennas: int = 8,
    frame_length: int = 30,
    target_rate_n: float = 0.0,
    target_rate_f: float = 0.0,
    sensing_eigenvalues: Sequence[float] = (),
) -> SystemConfig:
    """Build and validate a SystemConfig from keyword-friendly arguments."""
    return validate_config(
        SystemConfig(
            rho1=float(rho1),
            rho2=float(rho2),
            alpha_n=float(alpha_n),
            alpha_f=float(alpha_f),
            sigma2_c=float(sigma2_c),
            sigma2_s=float(sigma2_s),
            num_rx_antennas=int(num_rx_antennas),
            frame_length=int(frame_length),
            target_rate_n=float(target_rate_n),
            target_rate_f=float(target_rate_f),
            sensing_eigenvalues=tuple(float(v) for v in sensing_eigenvalues),
        )
    )


def baseline_config() -> SystemConfig:
    """Reference operating point used by the demo sweeps and the selftest."""
    return make_config(
        rho1=0.9,
        rho2=0.2,
        alpha_n=0.2,
        alpha_f=0.8,
        sigma2_c=1.0,
        sigma2_s=1.0,
        num_rx_antennas=8,
        frame_length=30,
        target_rate_n=0.8,
        target_rate_f=0.8,
        sensing_eigenvalues=(5.0, 3.0, 3.5, 2.5, 1.5, 2.0, 1.0, 0.5),
    )
