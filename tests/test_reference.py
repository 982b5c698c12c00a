"""An exact reference for the closed-form columns.

Each cell is evaluated in mpmath at 50 digits from the same float inputs the
package takes: the config fields, the float powers from db_to_linear and the
fractions kappa and mu (the grid's np.linspace for the region).  The
reference is written from the closed forms as analytic.py states them, not
from the package's code.  With chi_b = kappa*sigma2_c/(mu*rho_b),
rho3 = rho1*rho2/(rho1 + rho2), gbar = 2^(rate/kappa) - 1,
vartheta = gbar_f/(alpha_f - alpha_n*gbar_f) and
theta = max(gbar_n/alpha_n, vartheta):

- pout_n = (1 - e^(-chi1*theta/p))(1 - e^(-chi2*theta/p)), asymptote
  chi1*chi2*theta^2/p^2; pout_f = 1 - e^(-chi3*vartheta/p), asymptote
  chi3*vartheta/p;
- ecr_n = kappa/ln2 * (psi3 - psi2 - psi1) at scale alpha_n*p and
  ecr_f = kappa/ln2 * (psi3 at scale alpha_n*p - psi3 at scale p), with
  psi_b = Ei(-chi_b/s) * e^(chi_b/s) at scale s; zero at kappa = 0 or mu = 0.
  Asymptotes kappa*log2(p) - kappa*gamma/ln2
  - kappa*log2(kappa*sigma2_c/(mu*alpha_n*(rho1 + rho2))) and
  -kappa*log2(alpha_n);
- sensing = (1-kappa)/L * sum_a log2(1 + (1-mu)*p*L*lambda_a/((1-kappa)*sigma2_s)),
  zero at kappa = 1, and its asymptote drops the 1 + over the positive
  lambda_a (zero at kappa = 1 or mu = 1); ISAC senses at kappa = mu = 0;
- region rate_s is the sensing rate and rate_c = ecr_n + ecr_f.

Per column the tests bound the largest relative error and the number of
cells whose 12 significant digits differ from those of the correctly
rounded reference.  The bounds are measured values: a change to the closed
forms may tighten them, never loosen them.  tests/table_diff.py reads the
*_columns functions to judge changed table cells.
"""

import numpy as np
import pytest

from noma_isac import (
    ISAC,
    baseline_config,
    db_to_linear,
    ergodic_rates,
    ergodic_rates_asymptotic,
    fdsac,
    fdsac_frontier,
    outage_asymptotic,
    outage_probability,
    sensing_rate,
    sensing_rate_asymptotic,
)

mpmath = pytest.importorskip("mpmath")
mpf = mpmath.mpf

GRID_N = 21
#: p_db: {column: (largest relative error, cells whose '%.12g' differs)}
REGION_BOUNDS = {
    5.0: {"rate_s": (3.3e-16, 0), "rate_c": (5.7e-13, 5)},
    -60.0: {"rate_s": (3.9e-16, 0), "rate_c": (3.8e-16, 0)},
    -100.0: {"rate_s": (4.1e-16, 0), "rate_c": (3.4e-16, 0)},
}
SWEEP_DB = np.arange(9) * 5.0  # the CLI's default sweep, 0 to 40 dB
#: column: (largest relative error in either mode, cells whose '%.12g' differs)
SWEEP_BOUNDS = {
    "pout_n_analytic": (2.7e-16, 0),
    "pout_f_analytic": (1.9e-16, 0),
    "pout_n_asym": (1.9e-16, 0),
    "pout_f_asym": (1.3e-16, 0),
    "ecr_n_analytic": (4.4e-15, 0),
    "ecr_f_analytic": (4.8e-15, 0),
    "ecr_sum_analytic": (4.5e-15, 0),
    "ecr_n_asym": (1.3e-15, 0),
    "ecr_f_asym": (3.8e-17, 0),
    "sr_isac": (1.9e-16, 0),
    "sr_isac_asym": (1.3e-16, 0),
    "sr_fdsac": (1.9e-16, 0),
    "sr_fdsac_asym": (1.3e-16, 0),
}


def _psi(chi, scale):
    z = chi / scale
    return mpmath.ei(-z) * mpmath.exp(z)


def _chis(cfg, kappa, mu):
    rho1, rho2 = mpf(cfg.rho1), mpf(cfg.rho2)
    ratio = kappa * mpf(cfg.sigma2_c) / mu
    return ratio / rho1, ratio / rho2, ratio * (rho1 + rho2) / (rho1 * rho2)


def _sensing(cfg, kappa, mu, p, asymptotic):
    big_l = cfg.frame_length
    lam = [mpf(v) for v in cfg.sensing_eigenvalues if not asymptotic or v > 0.0]
    if kappa == 1 or (asymptotic and (mu == 1 or not lam)):
        return mpf(0)
    snr = (1 - mu) * p * big_l / ((1 - kappa) * mpf(cfg.sigma2_s))
    terms = [mpmath.log(snr * v if asymptotic else 1 + snr * v, 2) for v in lam]
    return (1 - kappa) / big_l * mpmath.fsum(terms)


def _rates(cfg, kappa, mu, p):
    if kappa == 0 or mu == 0:
        return mpf(0), mpf(0)
    chi1, chi2, chi3 = _chis(cfg, kappa, mu)
    scale_n = mpf(cfg.alpha_n) * p
    factor = kappa / mpmath.log(2)
    psi3 = _psi(chi3, scale_n)
    return factor * (psi3 - _psi(chi2, scale_n) - _psi(chi1, scale_n)), factor * (psi3 - _psi(chi3, p))


def outage_columns(cfg, kappa, mu, p):
    """Reference outage cells at communication fractions kappa, mu (1, 1 for ISAC)."""
    kappa, mu, p = mpf(kappa), mpf(mu), mpf(p)
    alpha_n, alpha_f = mpf(cfg.alpha_n), mpf(cfg.alpha_f)
    gbar_n, gbar_f = (2 ** (mpf(rate) / kappa) - 1 for rate in (cfg.target_rate_n, cfg.target_rate_f))
    assert kappa > 0 and mu > 0 and alpha_f > gbar_f * alpha_n  # the feasible branch only
    vartheta = gbar_f / (alpha_f - alpha_n * gbar_f)
    theta = max(gbar_n / alpha_n, vartheta)
    chi1, chi2, chi3 = _chis(cfg, kappa, mu)
    return {
        "pout_n_analytic": -mpmath.expm1(-chi1 * theta / p) * -mpmath.expm1(-chi2 * theta / p),
        "pout_f_analytic": -mpmath.expm1(-chi3 * vartheta / p),
        "pout_n_asym": chi1 * chi2 * theta**2 / p**2,
        "pout_f_asym": chi3 * vartheta / p,
    }


def ecr_columns(cfg, kappa, mu, p):
    """Reference ergodic-rate cells at communication fractions kappa, mu (1, 1 for ISAC)."""
    kappa, mu, p = mpf(kappa), mpf(mu), mpf(p)
    near, far = _rates(cfg, kappa, mu, p)
    rho_sum = mpf(cfg.rho1) + mpf(cfg.rho2)
    offset = mpmath.log(kappa * mpf(cfg.sigma2_c) / (mu * mpf(cfg.alpha_n) * rho_sum), 2)
    return {
        "ecr_n_analytic": near,
        "ecr_f_analytic": far,
        "ecr_sum_analytic": near + far,
        "ecr_n_asym": kappa * mpmath.log(p, 2) - kappa * mpmath.euler / mpmath.log(2) - kappa * offset,
        "ecr_f_asym": -kappa * mpmath.log(mpf(cfg.alpha_n), 2),
    }


def sensing_columns(cfg, kappa, mu, p):
    """Reference sensing cells, the fdsac ones at fractions kappa, mu."""
    kappa, mu, p = mpf(kappa), mpf(mu), mpf(p)
    return {
        "sr_isac": _sensing(cfg, mpf(0), mpf(0), p, False),
        "sr_isac_asym": _sensing(cfg, mpf(0), mpf(0), p, True),
        "sr_fdsac": _sensing(cfg, kappa, mu, p, False),
        "sr_fdsac_asym": _sensing(cfg, kappa, mu, p, True),
    }


def region_columns(cfg, kappa, mu, p):
    """Reference region cells of the grid point (kappa, mu)."""
    kappa, mu, p = mpf(kappa), mpf(mu), mpf(p)
    rate_c = mpmath.fsum(_rates(cfg, kappa, mu, p))
    return {"rate_s": _sensing(cfg, kappa, mu, p, False), "rate_c": rate_c}


def _errors(got, exact):
    # The largest relative error over the nonzero references, and the count
    # of cells whose '%.12g' differs from the correctly rounded reference.
    assert len(got) == len(exact)
    assert all(g == 0.0 for g, r in zip(got, exact) if r == 0)
    rel = max((float(abs(mpf(g) - r) / abs(r)) for g, r in zip(got, exact) if r != 0), default=0.0)
    return rel, sum("%.12g" % g != "%.12g" % float(r) for g, r in zip(got, exact))


def test_region_columns_against_the_exact_reference():
    cfg, fractions = baseline_config(), np.linspace(0.0, 1.0, GRID_N).tolist()
    for p_db, bounds in REGION_BOUNDS.items():
        p = db_to_linear(p_db)
        frontier = fdsac_frontier(cfg, p, GRID_N)
        with mpmath.workdps(50):
            reference = [region_columns(cfg, kappa, mu, p) for kappa in fractions for mu in fractions]
            for column, (max_rel, max_cells) in bounds.items():
                got = getattr(frontier, column).tolist()
                rel, cells = _errors(got, [r[column] for r in reference])
                assert rel <= max_rel, (p_db, column)
                assert cells <= max_cells, (p_db, column)


@pytest.mark.parametrize("split", [None, (0.5, 0.5)], ids=["isac", "fdsac"])
def test_sweep_columns_against_the_exact_reference(split):
    cfg, powers = baseline_config(), db_to_linear(SWEEP_DB)
    mode = ISAC if split is None else fdsac(*split)
    kappa, mu = split or (1.0, 1.0)
    ecr_n, ecr_f = ergodic_rates(cfg, mode, powers)
    got = dict(
        zip(("pout_n_analytic", "pout_f_analytic"), outage_probability(cfg, mode, powers)),
        **dict(zip(("pout_n_asym", "pout_f_asym"), outage_asymptotic(cfg, mode, powers))),
        ecr_n_analytic=ecr_n,
        ecr_f_analytic=ecr_f,
        ecr_sum_analytic=ecr_n + ecr_f,
        **dict(zip(("ecr_n_asym", "ecr_f_asym"), ergodic_rates_asymptotic(cfg, mode, powers))),
    )
    if split is not None:  # the sensing table holds both modes, at the split's fractions
        got.update(
            sr_isac=sensing_rate(cfg, ISAC, powers),
            sr_isac_asym=sensing_rate_asymptotic(cfg, ISAC, powers),
            sr_fdsac=sensing_rate(cfg, mode, powers),
            sr_fdsac_asym=sensing_rate_asymptotic(cfg, mode, powers),
        )
    with mpmath.workdps(50):
        reference = [
            {**outage_columns(cfg, kappa, mu, p), **ecr_columns(cfg, kappa, mu, p),
             **sensing_columns(cfg, kappa, mu, p)}
            for p in powers.tolist()
        ]
        for column, values in got.items():
            rel, cells = _errors(values.tolist(), [r[column] for r in reference])
            max_rel, max_cells = SWEEP_BOUNDS[column]
            assert rel <= max_rel, (split, column)
            assert cells <= max_cells, (split, column)
