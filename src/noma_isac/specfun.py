"""Special-function kernels behind the closed-form rate expressions.

Only the negative real axis of the exponential integral is ever needed:
every closed form evaluates Ei(-chi/scale) with chi, scale > 0.  One array
kernel evaluates it elementwise; the scalar entry points wrap that kernel.
"""

from __future__ import annotations

import math
import sys
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


def exp_int_ei(x: float | np.ndarray) -> float | np.ndarray:
    """Exponential integral Ei(x) on the negative real axis.

    Ei(x) = -int_{-x}^{inf} e^{-t}/t dt for x < 0; strictly negative,
    vanishing as x -> -inf and diverging to -inf as x -> 0-.  Broadcasts
    over an array of x; a scalar x gives a float.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(x < 0.0):
        raise ValueError("exp_int_ei requires x < 0")
    return _float_or_array(_ei_neg(-x.ravel(), scaled=False).reshape(x.shape))


def psi_term(chi: float | np.ndarray, scale: float | np.ndarray) -> float | np.ndarray:
    """Fading-average kernel Ei(-chi/scale) * exp(chi/scale).

    Strictly negative for all positive inputs. Large ratios are evaluated in
    pre-scaled form so the product never overflows.  Broadcasts over arrays
    of chi and scale; scalar inputs give a float.  The kernel sees only the
    normal ratios chi/scale; fdsac_frontier passes each distinct one once.
    """
    chi = np.asarray(chi, dtype=float)
    scale = np.asarray(scale, dtype=float)
    if not np.all(chi > 0.0):
        raise ValueError("psi_term requires chi > 0")
    if not np.all(scale > 0.0):
        raise ValueError("psi_term requires scale > 0")
    z = np.asarray(chi / scale)
    # Below the normal range ln z loses bits, and at 0 it is undefined; there
    # Ei(-z) * e^z is gamma + ln z to rounding, with ln z = ln chi - ln scale.
    tiny = z < sys.float_info.min
    z[tiny] = 1.0
    psi = _ei_neg(z.ravel(), scaled=True).reshape(z.shape)
    ln = [_elementwise(math.log, np.broadcast_to(v, z.shape)[tiny]) for v in (chi, scale)]
    psi[tiny] = EULER_GAMMA + (ln[0] - ln[1])
    return _float_or_array(psi)


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
    terms = c.reshape(-1, 1) * lam
    sums = _exact_row_sums(np.log1p(terms, out=terms))
    return _float_or_array((sums / math.log(2.0)).reshape(c.shape))


def _exact_row_sums(terms: np.ndarray) -> np.ndarray:
    # math.fsum of each row of a 2-D array, bit for bit; see
    # log2_det_i_plus_scaled for the rule.  The cascade steps in seven
    # row-length buffers: the running sums s and e, a spare that takes each
    # next one in turn, the errors q and g, one scratch row and the bound.
    rows, m = terms.shape
    if m == 0:
        return np.zeros(rows)
    s, spare, q, g, scratch = (np.empty(rows) for _ in range(5))
    e, bound = np.zeros(rows), np.zeros(rows)
    s[:] = terms[:, 0]
    with np.errstate(invalid="ignore"):  # inf - inf: those rows go to fsum
        for i in range(1, m):
            _two_sum(s, terms[:, i], spare, q, scratch)
            s, spare = spare, s
            _two_sum(e, q, spare, g, scratch)
            e, spare = spare, e
            bound += np.abs(g, out=g)
        _two_sum(s, e, spare, q, scratch)
        hi, lo, d_up, d_down = spare, q, s, e
        bound *= 2.0
        np.nextafter(hi, math.inf, out=d_up)
        d_up -= hi
        np.nextafter(hi, -math.inf, out=d_down)
        np.subtract(hi, d_down, out=d_down)
        # Rounding is monotone and d/2 is a float (or rounds to 0, the safe
        # side), so a comparison that holds in floats holds exactly:
        # |lo| + B stays inside half the gap on either side.
        d_up /= 2.0
        d_down /= -2.0
        exact = np.less(np.add(lo, bound, out=scratch), d_up)
        exact &= np.greater(np.subtract(lo, bound, out=scratch), d_down)
        exact |= bound == 0.0
    exact &= hi != 0.0
    exact &= np.isfinite(hi)
    redo = np.flatnonzero(~exact)
    hi[redo] = [math.fsum(row) for row in terms[redo].tolist()]
    return hi


def _two_sum(a: np.ndarray, b: np.ndarray, s: np.ndarray, err: np.ndarray, scratch: np.ndarray):
    # s + err == a + b exactly, with s = fl(a + b) (Knuth's TwoSum), written
    # into s and err; s, err and scratch must not overlap a or b.
    np.add(a, b, out=s)
    np.subtract(s, a, out=err)  # b_virtual
    np.subtract(s, err, out=scratch)
    np.subtract(a, scratch, out=scratch)
    np.subtract(b, err, out=err)
    err += scratch


def _elementwise(fn, x: np.ndarray) -> np.ndarray:
    # libm through the math module, per element, in the shape of x: numpy's
    # vectorised exp, log, expm1, log2 and power may differ from it in the
    # last place, and the scalar results are the reference.  A memoryview
    # yields the Python floats one at a time, where tolist would hold them all.
    return np.fromiter(map(fn, memoryview(x.ravel())), float, x.size).reshape(x.shape)


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
    # Ei(-z) = gamma + ln z + sum_{k>=1} (-z)^k / (k * k!), until each term
    # is at most 1e-17 of its total, tested every 8 steps and at step
    # _MAX_ITER - 1.  Once the test holds, the total is frozen: it
    # fails while k < z (for z >= 1, |term| >= 1/96 there and |total| < 50),
    # and from k >= z on the terms shrink, so each later one stays below 1e-17
    # of the total, under half its ulp: adding it rounds back to the total.
    total = EULER_GAMMA + _elementwise(math.log, z)
    neg, c = -z, np.ones_like(z)
    for k in range(1, _MAX_ITER):
        c *= neg / k
        term = c / k
        total += term
        if k % 8 == 0 or k == _MAX_ITER - 1:
            live = ~(np.abs(term) <= 1e-17 * np.abs(total))
            if not live.any():
                return total
    raise ArithmeticError(f"Ei series did not converge at z={z[live][0]!r}")


def _e1_scaled_cf(z: np.ndarray, stuck: bool = False) -> np.ndarray:
    # e^z * E1(z) by modified Lentz continued fraction: h at the first step
    # whose update factor delta is 1 (the floats next to 1 lie more than
    # 1e-16 from it), captured, as h is not shown to stay put after it.  For
    # a few z above 1e8 delta sticks at 1 - 2**-53 instead; only elements
    # that miss 1 for _MAX_ITER - 1 steps run again, stuck, to take the first
    # step with delta at either.  Once at most half the stepped elements are
    # live, the live ones move to the front and only they step on, with
    # their places in `at` (None before the first move): each element's
    # recurrence is its own, so no bit changes.
    out, at, live = np.empty_like(z), None, np.ones(z.size, bool)
    b = z + 1.0
    c = np.full_like(b, 1.0 / 1e-300)
    d = 1.0 / b
    h, delta, hit = d.copy(), np.empty_like(b), np.empty(b.size, bool)
    for i in range(1, _MAX_ITER):
        # In place: b += 2, d = 1 / (a*d + b), c = b + a/c, h *= c*d.
        a = -float(i) * float(i)
        b += 2.0
        d *= a
        d += b
        np.divide(1.0, d, out=d)
        np.divide(a, c, out=c)
        c += b
        np.multiply(c, d, out=delta)
        h *= delta
        np.equal(delta, 1.0, out=hit)
        if stuck:
            hit |= delta == 1.0 - 2.0**-53
        hit &= live
        got = np.flatnonzero(hit)
        out[got if at is None else at[got]] = h[got]
        live ^= hit
        left = np.count_nonzero(live)
        if not left:
            return out
        if 2 * left <= live.size:
            keep = np.flatnonzero(live)
            at = keep if at is None else at[keep]
            for v in (b, c, d, h):
                v[:left] = v[keep]
            b, c, d, h, delta, hit, live = (v[:left] for v in (b, c, d, h, delta, hit, live))
            live[:] = True
    stalled = np.flatnonzero(live) if at is None else at[live]
    if stuck:
        raise ArithmeticError(f"E1 continued fraction did not converge at z={z[stalled][0]!r}")
    out[stalled] = _e1_scaled_cf(z[stalled], stuck=True)
    return out
