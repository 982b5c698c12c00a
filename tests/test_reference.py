"""An exact reference for the region's closed-form columns.

Each grid point's rate_s and rate_c is evaluated in mpmath at 50 digits
from the same float inputs the package takes: the config fields, the float
power from db_to_linear and the grid fractions of np.linspace.  The
reference is written from the closed forms as analytic.py states them, not
from the package's code:

- rate_s = (1-kappa)/L * sum_a log2(1 + (1-mu)*p*L*lambda_a/((1-kappa)*sigma2_s)),
  zero at kappa = 1;
- rate_c = R_N + R_F, with R_N = kappa/ln2 * (psi3 - psi2 - psi1) at scale
  alpha_n*p and R_F = kappa/ln2 * (psi3 at scale alpha_n*p - psi3 at scale
  p), zero at kappa = 0 or mu = 0;
- psi_b = Ei(-chi_b/s) * e^(chi_b/s) at scale s, chi_b = kappa*sigma2_c/(mu*rho_b)
  and rho3 = rho1*rho2/(rho1 + rho2).

Per column the test bounds the largest relative error and the number of
cells whose 12 significant digits differ from those of the correctly
rounded reference.  The bounds are today's values: a change to the closed
forms may tighten them, never loosen them.
"""

import numpy as np
import pytest

from noma_isac import baseline_config, db_to_linear, fdsac_frontier

mpmath = pytest.importorskip("mpmath")

GRID_N = 21
P_DB = 5.0
# column: (largest relative error, cells whose '%.12g' differs)
BOUNDS = {"rate_s": (3.3e-16, 0), "rate_c": (5.7e-13, 5)}


def _reference(cfg, p: float, fractions: np.ndarray) -> dict:
    mpf = mpmath.mpf
    rho1, rho2 = mpf(cfg.rho1), mpf(cfg.rho2)
    rhos = (rho1, rho2, rho1 * rho2 / (rho1 + rho2))
    p, alpha_n, sigma2_c, sigma2_s = mpf(p), mpf(cfg.alpha_n), mpf(cfg.sigma2_c), mpf(cfg.sigma2_s)
    big_l = cfg.frame_length
    eigenvalues = [mpf(v) for v in cfg.sensing_eigenvalues]

    def psi(chi, scale):
        z = chi / scale
        return mpmath.ei(-z) * mpmath.exp(z)

    rate_s, rate_c = [], []
    for kappa in map(mpf, fractions.tolist()):
        for mu in map(mpf, fractions.tolist()):
            if kappa == 1:
                rate_s.append(mpf(0))
            else:
                snr = (1 - mu) * p * big_l / ((1 - kappa) * sigma2_s)
                terms = [mpmath.log(1 + snr * v, 2) for v in eigenvalues]
                rate_s.append((1 - kappa) / big_l * mpmath.fsum(terms))
            if kappa == 0 or mu == 0:
                rate_c.append(mpf(0))
                continue
            chi1, chi2, chi3 = (kappa * sigma2_c / (mu * rho) for rho in rhos)
            near = psi(chi3, alpha_n * p) - psi(chi2, alpha_n * p) - psi(chi1, alpha_n * p)
            far = psi(chi3, alpha_n * p) - psi(chi3, p)
            rate_c.append(kappa / mpmath.log(2) * (near + far))
    return {"rate_s": rate_s, "rate_c": rate_c}


def test_region_columns_against_the_exact_reference():
    cfg, p = baseline_config(), db_to_linear(P_DB)
    frontier = fdsac_frontier(cfg, p, GRID_N)
    with mpmath.workdps(50):
        reference = _reference(cfg, p, np.linspace(0.0, 1.0, GRID_N))
        for column, (max_rel, max_cells) in BOUNDS.items():
            got = getattr(frontier, column).tolist()
            exact = reference[column]
            assert len(got) == len(exact) == GRID_N**2
            assert all(g == 0.0 for g, r in zip(got, exact) if r == 0)
            rel = max(float(abs(mpmath.mpf(g) - r) / abs(r)) for g, r in zip(got, exact) if r != 0)
            cells = sum("%.12g" % g != "%.12g" % float(r) for g, r in zip(got, exact))
            assert rel <= max_rel, column
            assert cells <= max_cells, column
