"""Closed-form outage, ergodic-rate and sensing-rate expressions with their
high-SNR asymptotics, plus the diversity/slope reference table.

Conventions for degenerate cases: an infeasible allocation, or no
communication resources (kappa = 0 or mu = 0), means outage probability 1,
exact and asymptotic; no communication resources also means zero ergodic
rate; zero sensing bandwidth (kappa = 1) means zero sensing rate, taken as
the continuous limit of the general expression.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import Mode, SystemConfig, check_power, comm_factors, has_comm_resources
from .specfun import EULER_GAMMA, _elementwise, _float_or_array, log2_det_i_plus_scaled, psi_term

__all__ = [
    "ReferenceEntry", "Thresholds", "ergodic_rates", "ergodic_rates_asymptotic", "outage_asymptotic",
    "outage_probability", "reference_table", "sensing_rate", "sensing_rate_asymptotic",
    "split_ergodic_rates", "split_sensing_rate", "sum_rate", "thresholds",
]

_LN2 = math.log(2.0)

#: A float, or an array of them that the result follows elementwise.
_Floats = float | np.ndarray

# libm per element; numpy's vectorised versions may differ in the last place.
_expm1 = partial(_elementwise, math.expm1)
_log2 = partial(_elementwise, math.log2)


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


def _noise_ratio(cfg: SystemConfig, kappa_t, mu_t):
    # kappa_t*sigma2_c/mu_t in numpy floats, under numpy's error state.
    return np.multiply(kappa_t, cfg.sigma2_c) / mu_t


def _ratio_chis(cfg: SystemConfig, ratio) -> tuple:
    # chi_b = kappa_t*sigma2_c/(mu_t*rho_b) from the noise ratio.
    return ratio / cfg.rho1, ratio / cfg.rho2, ratio / cfg.rho3


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


def outage_probability(cfg: SystemConfig, mode: Mode, p: _Floats) -> tuple[_Floats, _Floats]:
    """Exact outage probabilities (near user, far user) at transmit power p.

    P_N = (1 - e^{-chi1*theta/p})(1 - e^{-chi2*theta/p}) and
    P_F = 1 - e^{-chi3*vartheta/p} on the feasible branch; (1, 1) otherwise.
    Elementwise over an array of powers; a float p gives floats.
    """
    p = check_power(p)
    th = thresholds(cfg, mode)
    if not th.feasible:
        return _float_or_array(np.ones(p.shape)), _float_or_array(np.ones(p.shape))
    chi1, chi2, chi3 = _ratio_chis(cfg, _noise_ratio(cfg, *comm_factors(mode)))
    p_out_n = -_expm1(-chi1 * th.theta / p) * -_expm1(-chi2 * th.theta / p)
    p_out_f = -_expm1(-chi3 * th.vartheta / p)
    return _float_or_array(p_out_n), _float_or_array(p_out_f)


def outage_asymptotic(cfg: SystemConfig, mode: Mode, p: _Floats) -> tuple[_Floats, _Floats]:
    """High-SNR outage approximations chi1*chi2*theta^2/p^2 and chi3*vartheta/p
    on the feasible branch; (1, 1) otherwise, like outage_probability.

    Raises OverflowError where p^2 overflows."""
    p = check_power(p)
    th = thresholds(cfg, mode)
    if not th.feasible:
        return _float_or_array(np.ones(p.shape)), _float_or_array(np.ones(p.shape))
    chi1, chi2, chi3 = _ratio_chis(cfg, _noise_ratio(cfg, *comm_factors(mode)))
    p_out_n = chi1 * chi2 * th.theta**2 / _elementwise(lambda x: x**2, p)
    p_out_f = chi3 * th.vartheta / p
    return _float_or_array(p_out_n), _float_or_array(p_out_f)


def ergodic_rates(cfg: SystemConfig, mode: Mode, p: _Floats) -> tuple[_Floats, _Floats]:
    """Exact ergodic rates (near user, far user) in bits/s/Hz."""
    ecr_n, ecr_f = split_ergodic_rates(cfg, *comm_factors(mode), p)
    return _float_or_array(ecr_n), _float_or_array(ecr_f)


def split_ergodic_rates(
    cfg: SystemConfig, kappa: _Floats, mu: _Floats, p: _Floats
) -> tuple[np.ndarray, np.ndarray]:
    """Exact ergodic rates (near user, far user) with fractions kappa of the
    band and mu of the power given to communications.

    R_N = kappa/ln2 * (psi3 - psi2 - psi1) with psi_b evaluated at scale
    alpha_n*p; R_F subtracts the same kernel at scale p from psi3.  Broadcasts
    over arrays of kappa, mu and p; zero where kappa or mu is zero.
    """
    kappa, mu, p = np.broadcast_arrays(kappa, mu, check_power(p))
    on = has_comm_resources(kappa, mu)
    near, far = _psi_brackets(cfg, _noise_ratio(cfg, kappa[on], mu[on]), p[on])
    factor = kappa[on] / _LN2
    ecr_n, ecr_f = np.zeros(kappa.shape), np.zeros(kappa.shape)
    ecr_n[on] = factor * near
    ecr_f[on] = factor * far
    return ecr_n, ecr_f


def _psi_brackets(cfg: SystemConfig, ratio: np.ndarray, p: _Floats) -> tuple[np.ndarray, np.ndarray]:
    # The rates over kappa/ln2 at noise ratios kappa*sigma2_c/mu and powers p
    # (broadcast): near = psi3 - psi2 - psi1 at scale alpha_n*p, and
    # far = psi3 - psi3 at scale p.
    chi1, chi2, chi3 = _ratio_chis(cfg, ratio)
    scale_n = cfg.alpha_n * p
    if not all(np.all(v > 0.0) for v in (chi1, chi2, chi3, scale_n)):
        # A subnormal product rounded to 0, where Ei(-chi/scale) is undefined.
        raise FloatingPointError("underflow to 0 in kappa*sigma2_c/(mu*rho_b) or alpha_n*p")
    psi3 = psi_term(chi3, scale_n)
    near = psi3 - psi_term(chi2, scale_n)
    near -= psi_term(chi1, scale_n)
    return near, psi3 - psi_term(chi3, p)


def ergodic_rates_asymptotic(cfg: SystemConfig, mode: Mode, p: _Floats) -> tuple[_Floats, _Floats]:
    """High-SNR ergodic-rate approximations.

    The near-user asymptote grows like kappa_t*log2(p); the far-user one is
    the constant interference ceiling -kappa_t*log2(alpha_n).
    """
    p = check_power(p)
    kappa_t, mu_t = comm_factors(mode)
    if not has_comm_resources(kappa_t, mu_t):
        return _float_or_array(np.zeros(p.shape)), _float_or_array(np.zeros(p.shape))
    log2_offset = _log2_quotient((kappa_t, cfg.sigma2_c), (mu_t, cfg.alpha_n, cfg.rho1 + cfg.rho2))
    ecr_n = kappa_t * _log2(p) - kappa_t * EULER_GAMMA / _LN2 - kappa_t * log2_offset
    ecr_f = np.full(p.shape, -kappa_t * math.log2(cfg.alpha_n))
    return _float_or_array(ecr_n), _float_or_array(ecr_f)


def _log2_quotient(numerator: tuple, denominator: tuple) -> float:
    # log2 of the product of the positive numerator factors over that of the
    # denominator's; where the quotient is not a positive normal float, the
    # fsum of the factors' log2s.
    scale = math.prod(denominator)
    quotient = math.prod(numerator) / scale if scale else 0.0
    if sys.float_info.min <= quotient < math.inf:
        return math.log2(quotient)
    return math.fsum([*map(math.log2, numerator), *(-math.log2(v) for v in denominator)])


def _sensing_split(mode: Mode) -> tuple[float, float]:
    # Integrated mode spreads the full power over the whole band: the
    # frequency-division expressions with nothing given to communications.
    return (0.0, 0.0) if mode.is_isac else (mode.split.kappa, mode.split.mu)


def sensing_rate(cfg: SystemConfig, mode: Mode, p: _Floats) -> _Floats:
    """Sensing rate in bits/s/Hz.

    Integrated mode is the frequency-division expression at kappa = mu = 0,
    bit for bit.
    """
    return _float_or_array(split_sensing_rate(cfg, *_sensing_split(mode), p))


def split_sensing_rate(cfg: SystemConfig, kappa: _Floats, mu: _Floats, p: _Floats) -> np.ndarray:
    """Sensing rate with fractions kappa of the band and mu of the power given
    to communications, and the rest to sensing.

    (1-kappa)/L * sum_a log2(1 + (1-mu)*p*L*lambda_a/((1-kappa)*sigma2_s)).
    Broadcasts over arrays of kappa, mu and p; at kappa = 1 the continuous
    limit is zero.  Raises FloatingPointError where the sensing SNR overflows.
    """
    kappa, mu, p = np.broadcast_arrays(kappa, mu, check_power(p))
    big_l = cfg.frame_length
    rate = np.zeros(kappa.shape)
    on = kappa != 1.0
    kappa_s = 1.0 - kappa[on]
    with np.errstate(over="raise"):
        c = (1.0 - mu[on]) * p[on] * big_l / (kappa_s * cfg.sigma2_s)
        rate[on] = kappa_s * log2_det_i_plus_scaled(c, cfg.sensing_eigenvalues) / big_l
    return rate


def sensing_rate_asymptotic(cfg: SystemConfig, mode: Mode, p: _Floats) -> _Floats:
    """High-SNR sensing-rate approximation over the positive eigenvalues.

    Slope in log2(p) is (1-kappa)*r/L, which is r/L for the integrated mode
    (kappa = mu = 0).  Degenerate splits with no sensing resource return the
    exact zero rate.
    """
    p = check_power(p)
    kappa, mu = _sensing_split(mode)
    lam = [v for v in cfg.sensing_eigenvalues if v > 0.0]
    r = len(lam)
    big_l = cfg.frame_length
    if r == 0 or kappa == 1.0 or mu == 1.0:
        return _float_or_array(np.zeros(p.shape))

    # Each term is log2 of the SNR (1 - mu) * v * L / ((1 - kappa) * sigma2_s).
    sensing_noise = (1.0 - kappa, cfg.sigma2_s)
    const = math.fsum(_log2_quotient((1.0 - mu, v, big_l), sensing_noise) for v in sorted(lam))
    slope = (1.0 - kappa) * r / big_l
    return _float_or_array(slope * _log2(p) + (1.0 - kappa) * const / big_l)


def sum_rate(cfg: SystemConfig, mode: Mode, p: _Floats) -> _Floats:
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

    The diversity orders are 2 (near) and 1 (far), the far user's slope is 0,
    and the near user's and the sum slope are the band given to
    communications.  The sensing slope is r / L times the band not taken from
    sensing, for the positive-eigenvalue count r and the frame length L.  The
    integrated row is the split row with the whole band given to both.
    """
    r = float(cfg.sensing_rank)
    big_l = float(cfg.frame_length)
    return tuple(  # type: ignore[return-value]
        ReferenceEntry(
            system=system,
            diversity_nu=2.0,
            slope_nu=band,
            diversity_fu=1.0,
            slope_fu=0.0,
            slope_sum=band,
            slope_sensing=(1.0 - taken) * r / big_l,
        )
        for system, band, taken in (("isac", 1.0, 0.0), ("fdsac", kappa, kappa))
    )
