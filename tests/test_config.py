"""Configuration types, validation messages, and mode plumbing."""

import dataclasses
import math

import pytest

from noma_isac.config import (
    FLOAT_FIELDS,
    ISAC,
    Mode,
    ResourceSplit,
    baseline_config,
    comm_factors,
    db_to_linear,
    fdsac,
    make_config,
    validate_config,
)


def test_baseline_config_is_valid():
    cfg = baseline_config()
    assert validate_config(cfg) is cfg
    assert cfg.rho1 == 0.9 and cfg.rho2 == 0.2
    assert cfg.alpha_n == 0.2 and cfg.alpha_f == 0.8
    assert cfg.num_rx_antennas == 8 and cfg.frame_length == 30
    assert cfg.sensing_eigenvalues == (5.0, 3.0, 3.5, 2.5, 1.5, 2.0, 1.0, 0.5)
    assert cfg.sensing_rank == 8


def test_validate_is_idempotent():
    cfg = baseline_config()
    assert validate_config(validate_config(cfg)) == cfg


def test_equal_power_split_rejected():
    cfg = dataclasses.replace(baseline_config(), alpha_n=0.5, alpha_f=0.5)
    with pytest.raises(ValueError, match="alpha_n >= alpha_f"):
        validate_config(cfg)


def test_zero_rho1_rejected():
    cfg = dataclasses.replace(baseline_config(), rho1=0.0)
    with pytest.raises(ValueError, match="rho1 must be positive"):
        validate_config(cfg)


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("rho2", -1.0, "rho2 must be positive"),
        ("sigma2_c", 0.0, "sigma2_c must be positive"),
        ("sigma2_s", 0.0, "sigma2_s must be positive"),
        ("alpha_n", 0.0, "alpha_n must lie"),
        ("alpha_f", 1.0, "alpha_f must lie"),
        ("num_rx_antennas", 0, "num_rx_antennas"),
        ("frame_length", 0, "frame_length"),
        ("target_rate_n", -0.1, "target_rate_n"),
        ("target_rate_f", -0.1, "target_rate_f"),
        ("sensing_eigenvalues", (1.0, -2.0), "nonnegative"),
    ],
)
def test_field_invariants(field, value, message):
    cfg = dataclasses.replace(baseline_config(), **{field: value})
    with pytest.raises(ValueError, match=message):
        validate_config(cfg)


@pytest.mark.parametrize(
    "field,value",
    [
        *((name, bad) for name in FLOAT_FIELDS for bad in (math.nan, math.inf, -math.inf)),
        ("sensing_eigenvalues", (1.0, math.nan)),
        ("sensing_eigenvalues", (math.inf,)),
    ],
)
def test_non_finite_values_rejected(field, value):
    cfg = dataclasses.replace(baseline_config(), **{field: value})
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        validate_config(cfg)


def test_allocation_must_sum_to_one():
    cfg = dataclasses.replace(baseline_config(), alpha_n=0.2, alpha_f=0.7)
    with pytest.raises(ValueError, match="must equal 1"):
        validate_config(cfg)


def test_spectrum_cannot_exceed_antenna_count():
    cfg = dataclasses.replace(baseline_config(), num_rx_antennas=4)
    with pytest.raises(ValueError, match="longer than num_rx_antennas"):
        validate_config(cfg)


def test_rho3_combines_the_unordered_variances():
    cfg = baseline_config()
    assert cfg.rho3 == pytest.approx(0.9 * 0.2 / 1.1, rel=1e-15)


def test_db_to_linear():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == 10.0
    assert db_to_linear(5.0) == pytest.approx(3.1622776601683795, rel=1e-15)
    assert db_to_linear(-10.0) == pytest.approx(0.1, rel=1e-15)


def test_resource_split_bounds():
    ResourceSplit(kappa=0.0, mu=1.0)
    with pytest.raises(ValueError):
        ResourceSplit(kappa=-0.1, mu=0.5)
    with pytest.raises(ValueError):
        ResourceSplit(kappa=0.5, mu=1.5)


def test_mode_tags_and_factors():
    assert ISAC.is_isac and ISAC.tag == "isac"
    assert comm_factors(ISAC) == (1.0, 1.0)
    mode = fdsac(0.25, 0.75)
    assert not mode.is_isac and mode.tag == "fdsac"
    assert comm_factors(mode) == (0.25, 0.75)
    assert mode == Mode(ResourceSplit(0.25, 0.75))


def test_make_config_casts_and_validates():
    cfg = make_config(rho1=1, rho2=2, alpha_n="0.3", alpha_f=0.7, sensing_eigenvalues=[1, 2])
    assert isinstance(cfg.rho1, float) and cfg.sensing_eigenvalues == (1.0, 2.0)
    with pytest.raises(ValueError):
        make_config(rho1=1.0, rho2=1.0, alpha_n=0.6, alpha_f=0.4)


def test_configs_are_immutable():
    cfg = baseline_config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.rho1 = 2.0  # type: ignore[misc]
    assert math.isclose(cfg.alpha_n + cfg.alpha_f, 1.0)
