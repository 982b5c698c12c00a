"""Closed-form outage, ergodic-rate and sensing-rate expressions with their
high-SNR asymptotics, plus the diversity/slope reference table.

Conventions for degenerate frequency-division splits: zero communication
resources (kappa = 0 or mu = 0) mean outage probability 1 and zero ergodic
rate; zero sensing bandwidth (kappa = 1) means zero sensing rate, taken as
the continuous limit of the general expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import Mode, SystemConfig, check_power, comm_factors, has_comm_resources
from .specfun import EULER_GAMMA, log2_det_i_plus_scaled, psi_term

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class Thresholds:
    """SINR thresholds and outage feasibility for one mode.

    gamma_bar_n/f   SINR targets 2^(rate/kappa_t) - 1; 0 at a zero rate and
                    +inf where the power overflows or kappa_t = 0
    vartheta        far-user gain threshold; +inf when allocation infeasible
    theta           near-user gain threshold max(gamma_bar_n/alpha_n, vartheta)
    feasible        True iff kappa_t, mu_t > 0 and alpha_f > gamma_bar_f * alpha_n
    """

    gamma_bar_n: float
    gamma_bar_f: float
    vartheta: float
    theta: float
    feasible: bool


def _chis(cfg: SystemConfig, kappa_t, mu_t) -> tuple:
    # chi_b = kappa_t*sigma2_c/(mu_t*rho_b), elementwise for arrays.
    scale = kappa_t * cfg.sigma2_c / mu_t
    return scale / cfg.rho1, scale / cfg.rho2, scale / cfg.rho3


def thresholds(cfg: SystemConfig, mode: Mode) -> Thresholds:
    """Decoding thresholds for both users under the given mode.

    This is the single decoding rule: outage is certain wherever `feasible`
    is False, which includes every mode without communication resources.
    """
    kappa_t, mu_t = comm_factors(mode)

    def gamma_bar(rate: float) -> float:
        if rate == 0.0:
            return 0.0
        try:
            return 2.0 ** (rate / kappa_t) - 1.0
        except ArithmeticError:  # kappa_t = 0, or the power overflows
            return math.inf

    gbar_n = gamma_bar(cfg.target_rate_n)
    gbar_f = gamma_bar(cfg.target_rate_f)
    feasible = has_comm_resources(kappa_t, mu_t) and cfg.alpha_f > gbar_f * cfg.alpha_n
    if feasible:
        vartheta = gbar_f / (cfg.alpha_f - cfg.alpha_n * gbar_f)
    else:
        vartheta = math.inf
    theta = max(gbar_n / cfg.alpha_n, vartheta)
    return Thresholds(
        gamma_bar_n=gbar_n,
        gamma_bar_f=gbar_f,
        vartheta=vartheta,
        theta=theta,
        feasible=feasible,
    )


def outage_probability(cfg: SystemConfig, mode: Mode, p: float) -> tuple[float, float]:
    """Exact outage probabilities (near user, far user) at transmit power p.

    P_N = (1 - e^{-chi1*theta/p})(1 - e^{-chi2*theta/p}) and
    P_F = 1 - e^{-chi3*vartheta/p} on the feasible branch; (1, 1) otherwise.
    """
    check_power(p)
    th = thresholds(cfg, mode)
    if not th.feasible:
        return 1.0, 1.0
    chi1, chi2, chi3 = _chis(cfg, *comm_factors(mode))
    p_out_n = -math.expm1(-chi1 * th.theta / p) * -math.expm1(-chi2 * th.theta / p)
    p_out_f = -math.expm1(-chi3 * th.vartheta / p)
    return p_out_n, p_out_f


def outage_asymptotic(cfg: SystemConfig, mode: Mode, p: float) -> tuple[float, float]:
    """High-SNR outage approximations chi1*chi2*theta^2/p^2 and chi3*vartheta/p."""
    check_power(p)
    th = thresholds(cfg, mode)
    if not th.feasible:
        raise ValueError("asymptote undefined")
    chi1, chi2, chi3 = _chis(cfg, *comm_factors(mode))
    p_out_n = chi1 * chi2 * th.theta**2 / p**2
    p_out_f = chi3 * th.vartheta / p
    return p_out_n, p_out_f


def ergodic_rates(cfg: SystemConfig, mode: Mode, p: float) -> tuple[float, float]:
    """Exact ergodic rates (near user, far user) in bits/s/Hz."""
    ecr_n, ecr_f = split_ergodic_rates(cfg, *comm_factors(mode), p)
    return float(ecr_n), float(ecr_f)


def split_ergodic_rates(
    cfg: SystemConfig, kappa: float | np.ndarray, mu: float | np.ndarray, p: float
) -> tuple[np.ndarray, np.ndarray]:
    """Exact ergodic rates (near user, far user) with fractions kappa of the
    band and mu of the power given to communications.

    R_N = kappa/ln2 * (psi3 - psi2 - psi1) with psi_b evaluated at scale
    alpha_n*p; R_F subtracts the same kernel at scale p from psi3.  Broadcasts
    over arrays of kappa and mu; zero where either is zero.
    """
    check_power(p)
    kappa, mu = np.broadcast_arrays(kappa, mu)
    ecr_n = np.zeros(kappa.shape)
    ecr_f = np.zeros(kappa.shape)
    on = has_comm_resources(kappa, mu)
    kappa_on = kappa[on]
    chi1, chi2, chi3 = _chis(cfg, kappa_on, mu[on])
    scale_n = cfg.alpha_n * p
    psi3 = psi_term(chi3, scale_n)
    ecr_n[on] = kappa_on / _LN2 * (psi3 - psi_term(chi2, scale_n) - psi_term(chi1, scale_n))
    ecr_f[on] = kappa_on / _LN2 * (psi3 - psi_term(chi3, p))
    return ecr_n, ecr_f


def ergodic_rates_asymptotic(cfg: SystemConfig, mode: Mode, p: float) -> tuple[float, float]:
    """High-SNR ergodic-rate approximations.

    The near-user asymptote grows like kappa_t*log2(p); the far-user one is
    the constant interference ceiling -kappa_t*log2(alpha_n).
    """
    check_power(p)
    kappa_t, mu_t = comm_factors(mode)
    if not has_comm_resources(kappa_t, mu_t):
        return 0.0, 0.0
    offset = kappa_t * cfg.sigma2_c / (mu_t * cfg.alpha_n * (cfg.rho1 + cfg.rho2))
    ecr_n = kappa_t * math.log2(p) - kappa_t * EULER_GAMMA / _LN2 - kappa_t * math.log2(offset)
    ecr_f = -kappa_t * math.log2(cfg.alpha_n)
    return ecr_n, ecr_f


def sensing_rate(cfg: SystemConfig, mode: Mode, p: float) -> float:
    """Sensing rate in bits/s/Hz.

    Integrated mode spreads the full power over the whole band, which is the
    frequency-division expression with nothing given to communications
    (kappa = mu = 0), bit for bit.
    """
    kappa, mu = (0.0, 0.0) if mode.is_isac else (mode.split.kappa, mode.split.mu)
    return float(split_sensing_rate(cfg, kappa, mu, p))


def split_sensing_rate(
    cfg: SystemConfig, kappa: float | np.ndarray, mu: float | np.ndarray, p: float
) -> np.ndarray:
    """Sensing rate with fractions kappa of the band and mu of the power given
    to communications, and the rest to sensing.

    (1-kappa)/L * sum_a log2(1 + (1-mu)*p*L*lambda_a/((1-kappa)*sigma2_s)).
    Broadcasts over arrays of kappa and mu; at kappa = 1 the continuous
    limit is zero.  Raises FloatingPointError where the sensing SNR overflows.
    """
    check_power(p)
    kappa, mu = np.broadcast_arrays(kappa, mu)
    big_l = cfg.frame_length
    rate = np.zeros(kappa.shape)
    on = kappa != 1.0
    kappa_s = 1.0 - kappa[on]
    with np.errstate(over="raise"):
        c = (1.0 - mu[on]) * p * big_l / (kappa_s * cfg.sigma2_s)
        rate[on] = kappa_s * log2_det_i_plus_scaled(c, cfg.sensing_eigenvalues) / big_l
    return rate


def sensing_rate_asymptotic(cfg: SystemConfig, mode: Mode, p: float) -> float:
    """High-SNR sensing-rate approximation over the positive eigenvalues.

    Slope in log2(p) is r/L for the integrated mode and (1-kappa)*r/L under
    frequency division.  Degenerate splits with no sensing resource return
    the exact zero rate.
    """
    check_power(p)
    lam = [v for v in cfg.sensing_eigenvalues if v > 0.0]
    r = len(lam)
    big_l = cfg.frame_length
    if r == 0:
        return 0.0
    if mode.is_isac:
        const = math.fsum(math.log2(big_l * v / cfg.sigma2_s) for v in sorted(lam))
        return r / big_l * math.log2(p) + const / big_l
    kappa, mu = mode.split.kappa, mode.split.mu
    if kappa == 1.0 or mu == 1.0:
        return 0.0
    const = math.fsum(
        math.log2((1.0 - mu) * v * big_l / ((1.0 - kappa) * cfg.sigma2_s))
        for v in sorted(lam)
    )
    return (1.0 - kappa) * r / big_l * math.log2(p) + (1.0 - kappa) * const / big_l


def sum_rate(cfg: SystemConfig, mode: Mode, p: float) -> float:
    """Sum ergodic communication rate of the user pair."""
    ecr_n, ecr_f = ergodic_rates(cfg, mode, p)
    return ecr_n + ecr_f


@dataclass(frozen=True)
class ReferenceEntry:
    """Diversity orders and high-SNR slopes of one system variant."""

    system: str
    diversity_nu: float
    slope_nu: float
    diversity_fu: float
    slope_fu: float
    slope_sum: float
    slope_sensing: float


def reference_table(cfg: SystemConfig, kappa: float) -> tuple[ReferenceEntry, ReferenceEntry]:
    """Reference diversity/slope entries for the integrated and split systems.

    Sensing slopes are parameterized by the positive-eigenvalue count r and
    the frame length L; communication slopes by the bandwidth fraction.
    """
    r = float(cfg.sensing_rank)
    big_l = float(cfg.frame_length)
    isac_entry = ReferenceEntry(
        system="isac",
        diversity_nu=2.0,
        slope_nu=1.0,
        diversity_fu=1.0,
        slope_fu=0.0,
        slope_sum=1.0,
        slope_sensing=r / big_l,
    )
    fdsac_entry = ReferenceEntry(
        system="fdsac",
        diversity_nu=2.0,
        slope_nu=kappa,
        diversity_fu=1.0,
        slope_fu=0.0,
        slope_sum=kappa,
        slope_sensing=(1.0 - kappa) * r / big_l,
    )
    return isac_entry, fdsac_entry
