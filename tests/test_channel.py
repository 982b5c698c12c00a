"""Fading distributions against their sampler, plus array geometry checks.

The ordered-gain CDF/PDF closed forms below act as oracles for the Monte
Carlo sampler and vice versa; both are checked against direct numerical
integration.
"""

import dataclasses
import math
from typing import Union

import numpy as np
import pytest
from scipy import integrate

from noma_isac import channel
from noma_isac.channel import (
    _steering_vector,
    CorrelationMatrix,
    Target,
    TargetScene,
    build_correlation,
    gain_samples,
    scene_eigenvalues,
    trial_uniforms,
)
from noma_isac.config import SystemConfig, baseline_config

CFG = baseline_config()

ArrayLike = Union[float, np.ndarray]


def _check_nonnegative(x: np.ndarray) -> None:
    if np.any(x < 0.0):
        raise ValueError("x must be nonnegative")


def cdf_near(x: ArrayLike, cfg: SystemConfig) -> ArrayLike:
    """CDF of the near-user gain: (1 - e^{-x/rho1})(1 - e^{-x/rho2})."""
    xv = np.asarray(x, dtype=float)
    _check_nonnegative(xv)
    out = -np.expm1(-xv / cfg.rho1) * -np.expm1(-xv / cfg.rho2)
    return float(out) if np.isscalar(x) else out


def cdf_far(x: ArrayLike, cfg: SystemConfig) -> ArrayLike:
    """CDF of the far-user gain: 1 - e^{-x/rho3} with rho3 = rho1*rho2/(rho1+rho2)."""
    xv = np.asarray(x, dtype=float)
    _check_nonnegative(xv)
    out = -np.expm1(-xv / cfg.rho3)
    return float(out) if np.isscalar(x) else out


def pdf_near(x: ArrayLike, cfg: SystemConfig) -> ArrayLike:
    """Density of the near-user gain.

    f_N(x) = e^{-x/rho1}/rho1 + e^{-x/rho2}/rho2 - e^{-x/rho3}/rho3.
    """
    xv = np.asarray(x, dtype=float)
    _check_nonnegative(xv)
    out = (
        np.exp(-xv / cfg.rho1) / cfg.rho1
        + np.exp(-xv / cfg.rho2) / cfg.rho2
        - np.exp(-xv / cfg.rho3) / cfg.rho3
    )
    return float(out) if np.isscalar(x) else out


def pdf_far(x: ArrayLike, cfg: SystemConfig) -> ArrayLike:
    """Density of the far-user gain: e^{-x/rho3}/rho3."""
    xv = np.asarray(x, dtype=float)
    _check_nonnegative(xv)
    out = np.exp(-xv / cfg.rho3) / cfg.rho3
    return float(out) if np.isscalar(x) else out


def test_sampler_respects_ordering():
    gn, gf = gain_samples(CFG, seed=3, start=0, count=100_000)
    assert np.all(gn >= gf)
    assert np.all(gf >= 0.0)


def test_sampler_is_a_pure_function_of_seed_and_index():
    gn, gf = gain_samples(CFG, seed=5, start=0, count=1000)
    # Arbitrary splits reproduce the same trials.
    gn_a, gf_a = gain_samples(CFG, seed=5, start=0, count=137)
    gn_b, gf_b = gain_samples(CFG, seed=5, start=137, count=863)
    assert np.array_equal(np.concatenate([gn_a, gn_b]), gn)
    assert np.array_equal(np.concatenate([gf_a, gf_b]), gf)
    # A single trial read on its own sees the same stream.
    gn_42, gf_42 = gain_samples(CFG, seed=5, start=42, count=1)
    assert gn_42[0] == gn[42] and gf_42[0] == gf[42]
    # Different seeds decorrelate.
    gn_c, _ = gain_samples(CFG, seed=6, start=0, count=1000)
    assert not np.array_equal(gn_c, gn)


def _whole_block_gains(cfg, seed, start, count):
    # The inverse-CDF transform of all of a block's uniforms at once, which
    # the sampler's tiles must reproduce to the bit.
    u = trial_uniforms(seed, start, count)
    e1 = -cfg.rho1 * np.log1p(-u[:, 0])
    e2 = -cfg.rho2 * np.log1p(-u[:, 1])
    return np.maximum(e1, e2), np.minimum(e1, e2)


@pytest.mark.parametrize("tile", [channel._TILE, 7])
def test_tiled_gains_equal_the_whole_block_transform(monkeypatch, tile):
    monkeypatch.setattr(channel, "_TILE", tile)
    cfg = dataclasses.replace(CFG, rho1=0.7, rho2=1.3)
    for start in (0, 7, tile - 3):
        for count in (1, tile - 1, tile, tile + 1, 3 * tile + 5):
            tiled = gain_samples(cfg, 11, start, count)
            whole = _whole_block_gains(cfg, 11, start, count)
            assert [a.tobytes() for a in tiled] == [a.tobytes() for a in whole]


def test_trial_uniforms_shape_and_range():
    u = trial_uniforms(seed=1, start=10, count=50)
    assert u.shape == (50, 4)
    assert np.all((u >= 0.0) & (u < 1.0))


def test_empirical_means_match_survival_integrals():
    # E gain_f = integral of 1-F_F = rho3; E gain_n = rho1+rho2-rho3.
    n = 10_000_000
    gn, gf = gain_samples(CFG, seed=11, start=0, count=n)
    rho3 = CFG.rho3
    mean_f_expected = rho3
    mean_n_expected = CFG.rho1 + CFG.rho2 - rho3
    # Standard errors from the sample itself, 4-sigma bands.
    assert abs(gf.mean() - mean_f_expected) < 4.0 * gf.std() / math.sqrt(n)
    assert abs(gn.mean() - mean_n_expected) < 4.0 * gn.std() / math.sqrt(n)


def test_empirical_cdf_matches_closed_form_at_quantiles():
    n = 1_000_000
    gn, gf = gain_samples(CFG, seed=13, start=0, count=n)
    for q in np.linspace(0.05, 0.95, 10):
        x_n = float(np.quantile(gn, q))
        x_f = float(np.quantile(gf, q))
        for x, cdf, sample in ((x_n, cdf_near, gn), (x_f, cdf_far, gf)):
            prob = cdf(x, CFG)
            emp = np.count_nonzero(sample <= x) / n
            se = math.sqrt(prob * (1.0 - prob) / n)
            assert abs(emp - prob) <= 3.0 * se


def test_cdf_boundaries():
    assert cdf_near(0.0, CFG) == 0.0
    assert cdf_far(0.0, CFG) == 0.0
    assert cdf_near(1e9, CFG) == pytest.approx(1.0, abs=1e-12)
    assert cdf_far(1e9, CFG) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        cdf_near(-1e-9, CFG)
    with pytest.raises(ValueError):
        cdf_far(-1.0, CFG)


def test_cdf_near_formula_value():
    # (1-e^{-x/rho1})(1-e^{-x/rho2}) at x=0.5 with the baseline variances.
    expected = (1.0 - math.exp(-0.5 / 0.9)) * (1.0 - math.exp(-0.5 / 0.2))
    assert cdf_near(0.5, CFG) == pytest.approx(expected, rel=1e-14)


def test_cdf_far_formula_value_and_median():
    rho3 = CFG.rho3
    assert cdf_far(0.3, CFG) == pytest.approx(1.0 - math.exp(-0.3 / rho3), rel=1e-14)
    assert cdf_far(rho3 * math.log(2.0), CFG) == pytest.approx(0.5, rel=1e-14)


def test_max_gain_is_stochastically_larger():
    rng = np.random.default_rng(17)
    xs = 10.0 ** rng.uniform(-3.0, 1.5, size=100)
    assert np.all(cdf_near(xs, CFG) <= cdf_far(xs, CFG) + 1e-15)


def test_pdfs_normalize_to_one():
    hi = 50.0 * max(CFG.rho1, CFG.rho2)
    total_n, _ = integrate.quad(lambda x: pdf_near(x, CFG), 0.0, hi, limit=200)
    total_f, _ = integrate.quad(lambda x: pdf_far(x, CFG), 0.0, hi, limit=200)
    assert total_n == pytest.approx(1.0, abs=1e-8)
    assert total_f == pytest.approx(1.0, abs=1e-8)


def test_pdfs_are_cdf_derivatives():
    rng = np.random.default_rng(19)
    h = 1e-7
    for x in rng.uniform(0.01, 3.0, size=20):
        fd_n = (cdf_near(x + h, CFG) - cdf_near(x - h, CFG)) / (2.0 * h)
        fd_f = (cdf_far(x + h, CFG) - cdf_far(x - h, CFG)) / (2.0 * h)
        assert fd_n == pytest.approx(pdf_near(x, CFG), rel=1e-6, abs=1e-9)
        assert fd_f == pytest.approx(pdf_far(x, CFG), rel=1e-6, abs=1e-9)


def test_pdf_far_at_zero_and_nonnegativity():
    assert pdf_far(0.0, CFG) == pytest.approx(1.0 / CFG.rho3, rel=1e-14)
    xs = np.linspace(0.0, 10.0, 400)
    assert np.all(pdf_near(xs, CFG) >= 0.0)
    assert np.all(pdf_far(xs, CFG) >= 0.0)
    with pytest.raises(ValueError):
        pdf_near(-0.5, CFG)


def test_steering_vector_geometry():
    assert np.array_equal(_steering_vector(0.0, 4), np.ones(4, dtype=complex))
    v = _steering_vector(0.7, 8)
    assert np.allclose(np.abs(v), 1.0)
    v2 = _steering_vector(math.pi / 2, 2)
    assert v2[0] == pytest.approx(1.0)
    assert v2[1].real == pytest.approx(-1.0, abs=1e-12)
    assert v2[1].imag == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        _steering_vector(0.0, 0)


def test_scene_and_target_invariants():
    with pytest.raises(ValueError):
        Target(strength=0.0, aoa=0.0)
    with pytest.raises(ValueError):
        Target(strength=1.0, aoa=2.0)
    with pytest.raises(ValueError):
        TargetScene(targets=())


def test_single_target_correlation_is_rank_one():
    scene = TargetScene(targets=(Target(strength=2.0, aoa=0.4),))
    m = 6
    corr = build_correlation(scene, m)
    lam = corr.eigenvalues()
    assert np.count_nonzero(lam > 1e-9) == 1
    assert lam[-1] == pytest.approx(m * 2.0, rel=1e-12)


def test_multi_target_rank_and_trace():
    scene = TargetScene(
        targets=(
            Target(strength=1.0, aoa=-0.9),
            Target(strength=2.0, aoa=0.1),
            Target(strength=0.5, aoa=1.0),
        )
    )
    m = 8
    corr = build_correlation(scene, m)
    assert np.linalg.matrix_rank(corr.entries, tol=1e-9) == 3
    assert np.trace(corr.entries).real == pytest.approx(m * 3.5, rel=1e-12)


def test_trace_example_two_targets():
    scene = TargetScene(targets=(Target(strength=1.0, aoa=0.2), Target(strength=2.0, aoa=-0.5)))
    corr = build_correlation(scene, 8)
    assert np.trace(corr.entries).real == pytest.approx(24.0, rel=1e-12)


def test_scene_eigenvalues_descending_and_bounded():
    scene = TargetScene(targets=(Target(strength=1.5, aoa=0.3), Target(strength=1.0, aoa=-0.2)))
    lam = scene_eigenvalues(scene, 8)
    assert len(lam) == 8
    assert all(a >= b for a, b in zip(lam, lam[1:]))
    assert all(v >= 0.0 for v in lam)


def test_correlation_matrix_validation():
    good = np.eye(3, dtype=complex)
    CorrelationMatrix(entries=good)
    with pytest.raises(ValueError):
        CorrelationMatrix(entries=np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(ValueError):
        CorrelationMatrix(entries=-np.eye(2, dtype=complex))
