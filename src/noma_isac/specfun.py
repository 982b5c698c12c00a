"""Special-function kernels behind the closed-form rate expressions.

Only the negative real axis of the exponential integral is ever needed:
every closed form evaluates Ei(-chi/scale) with chi, scale > 0.  One array
kernel evaluates it elementwise; the scalar entry points wrap that kernel.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["EULER_GAMMA", "exp_int_ei", "log2_det_i_plus_scaled", "psi_term"]

#: Euler-Mascheroni constant gamma = 0.5772156649015329...
EULER_GAMMA = float(np.euler_gamma)

# Branch switches for Ei(-z): ascending series up to _SERIES_CUTOFF,
# continued fraction above it, asymptotic expansion from _ASYMPTOTIC_CUTOFF.
# The series and the continued fraction agree to better than 1e-12 relative
# at their crossover; the asymptotic expansion's first omitted term is below
# 6/z**3 relative there, so it matches the continued fraction to rounding.
_SERIES_CUTOFF = 5.0
_ASYMPTOTIC_CUTOFF = 1e16
_MAX_ITER = 500


def exp_int_ei(x: float) -> float:
    """Exponential integral Ei(x) on the negative real axis.

    Ei(x) = -int_{-x}^{inf} e^{-t}/t dt for x < 0; strictly negative,
    vanishing as x -> -inf and diverging to -inf as x -> 0-.
    """
    if not x < 0.0:
        raise ValueError(f"exp_int_ei requires x < 0, got {x!r}")
    return float(_ei_neg(np.array([-x]), scaled=False)[0])


def psi_term(chi: float | np.ndarray, scale: float | np.ndarray) -> float | np.ndarray:
    """Fading-average kernel Ei(-chi/scale) * exp(chi/scale).

    Strictly negative for all positive inputs. Large ratios are evaluated in
    pre-scaled form so the product never overflows.  Broadcasts over arrays
    of chi and scale; scalar inputs give a float.  The kernel sees only the
    ratio chi/scale and evaluates each distinct ratio once.
    """
    chi = np.asarray(chi, dtype=float)
    scale = np.asarray(scale, dtype=float)
    if not np.all(chi > 0.0):
        raise ValueError("psi_term requires chi > 0")
    if not np.all(scale > 0.0):
        raise ValueError("psi_term requires scale > 0")
    z = chi / scale
    distinct, inverse = np.unique(z, return_inverse=True)
    return _float_or_array(_ei_neg(distinct, scaled=True)[inverse].reshape(z.shape))


def log2_det_i_plus_scaled(
    c: float | np.ndarray, eigenvalues: Sequence[float]
) -> float | np.ndarray:
    """log2 det(I + c*R) for a Hermitian PSD R given through its spectrum.

    Equals fsum_a ln(1 + c*lambda_a) / ln 2: the natural-log terms are summed
    exactly and rounded once, so the result does not depend on the ordering
    of the input list.  Broadcasts over an array of c; a scalar c gives a
    float.

    Each row's terms t_1 <= ... <= t_m are summed by a TwoSum cascade
    (Knuth; Ogita, Rump & Oishi 2005): s_i + q_i = s_{i-1} + t_i, and the
    errors q_i by a second one, e_i + g_i = e_{i-1} + q_i, so that
    sum t = hi + lo + G exactly, with (hi, lo) = TwoSum(s_m, e_m) and
    G = sum g_i.  The bound B = 2 * fl(sum |g_i|) >= |G| holds for m < 2**51.
    hi is the correctly rounded sum when B = 0, or when
    -d_down/2 < lo - B and lo + B < d_up/2, d being the gaps from hi to its
    float neighbours.  Other rows, rows with non-finite terms and zero sums
    (which take fsum's sign of zero) are summed by math.fsum.
    """
    c = np.asarray(c, dtype=float)
    if np.any(c < 0.0):
        raise ValueError("c must be nonnegative")
    lam = np.sort(np.asarray(eigenvalues, dtype=float))
    if lam.size and lam[0] < 0.0:
        raise ValueError("eigenvalues must be nonnegative")
    terms = np.log1p(c.reshape(-1, 1) * lam)
    return _float_or_array((_exact_row_sums(terms) / math.log(2.0)).reshape(c.shape))


def _exact_row_sums(terms: np.ndarray) -> np.ndarray:
    # math.fsum of each row of a 2-D array, bit for bit; see
    # log2_det_i_plus_scaled for the rule.
    rows, m = terms.shape
    if m == 0:
        return np.zeros(rows)
    s, e, bound = terms[:, 0], np.zeros(rows), np.zeros(rows)
    with np.errstate(invalid="ignore"):  # inf - inf: those rows go to fsum
        for i in range(1, m):
            s, q = _two_sum(s, terms[:, i])
            e, g = _two_sum(e, q)
            bound += np.abs(g)
        hi, lo = _two_sum(s, e)
        bound *= 2.0
        d_up = np.nextafter(hi, math.inf) - hi
        d_down = hi - np.nextafter(hi, -math.inf)
        # Rounding is monotone and d/2 is a float (or rounds to 0, the safe
        # side), so a comparison that holds in floats holds exactly.
        exact = (bound == 0.0) | ((lo + bound < d_up / 2.0) & (lo - bound > -d_down / 2.0))
    redo = np.flatnonzero(~(exact & (hi != 0.0) & np.isfinite(hi)))
    hi[redo] = [math.fsum(row) for row in terms[redo].tolist()]
    return hi


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # s + err == a + b exactly, with s = fl(a + b) (Knuth's TwoSum).
    s = a + b
    b_virtual = s - a
    return s, (a - (s - b_virtual)) + (b - b_virtual)


def _elementwise(fn, x: np.ndarray) -> np.ndarray:
    # libm through the math module, per element, in the shape of x: numpy's
    # vectorised exp, log, expm1, log2 and power may differ from it in the
    # last place, and the scalar results are the reference.
    return np.fromiter(map(fn, x.ravel().tolist()), dtype=float, count=x.size).reshape(x.shape)


def _float_or_array(x: np.ndarray) -> float | np.ndarray:
    # Float in, float out: a 0-d result is returned as a Python float.
    return float(x) if x.ndim == 0 else x


def _ei_neg(z: np.ndarray, scaled: bool) -> np.ndarray:
    # Ei(-z) for a 1-D array of z > 0, times e^z when scaled.  Above the
    # series branch the pieces are e^z * E1(z) = -e^z * Ei(-z): by continued
    # fraction, or, where Lentz's iteration stalls because z + 2i rounds to
    # z, by Abramowitz & Stegun 5.1.51, 1/z * sum_k (-1)^k k!/z^k.
    low = z <= _SERIES_CUTOFF
    big = z >= _ASYMPTOTIC_CUTOFF
    mid = ~low & ~big
    z_low, z_big = z[low], z[big]
    out = np.empty_like(z)
    out[low] = _ei_neg_series(z_low)
    out[mid] = -_e1_scaled_cf(z[mid])
    out[big] = -(1.0 - (1.0 - 2.0 / z_big) / z_big) / z_big
    if scaled:
        out[low] *= _elementwise(math.exp, z_low)
    else:
        out[~low] *= _elementwise(math.exp, -z[~low])
    return out


def _ei_neg_series(z: np.ndarray) -> np.ndarray:
    # Ei(-z) = gamma + ln z + sum_{k>=1} (-z)^k / (k * k!), per element
    # until its term falls below 1e-17 of its running total.
    out = np.empty_like(z)
    idx = np.arange(z.size)
    total = EULER_GAMMA + _elementwise(math.log, z)
    c = np.ones_like(z)
    for k in range(1, _MAX_ITER):
        c = c * (-z / k)
        term = c / k
        total = total + term
        done = np.abs(term) <= 1e-17 * np.abs(total)
        out[idx[done]] = total[done]
        live = ~done
        idx, z, c, total = idx[live], z[live], c[live], total[live]
        if not idx.size:
            return out
    raise ArithmeticError(f"Ei series did not converge at z={z[0]!r}")


def _e1_scaled_cf(z: np.ndarray) -> np.ndarray:
    # e^z * E1(z) by modified Lentz continued fraction, per element until
    # its update factor rounds to 1.
    out = np.empty_like(z)
    idx = np.arange(z.size)
    b = z + 1.0
    c = np.full_like(z, 1.0 / 1e-300)
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        a = -float(i) * float(i)
        b = b + 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h = h * delta
        done = np.abs(delta - 1.0) < 1e-16
        out[idx[done]] = h[done]
        live = ~done
        idx, z, b, c, d, h = idx[live], z[live], b[live], c[live], d[live], h[live]
        if not idx.size:
            return out
    raise ArithmeticError(f"E1 continued fraction did not converge at z={z[0]!r}")
