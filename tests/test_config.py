"""Configuration types, validation messages, and mode plumbing."""

import dataclasses
import math

import numpy as np
import pytest

from noma_isac.config import (
    FLOAT_FIELDS,
    ISAC,
    Mode,
    ResourceSplit,
    SystemConfig,
    baseline_config,
    comm_factors,
    db_to_linear,
    fdsac,
)


def test_baseline_config_is_valid():
    cfg = baseline_config()
    assert cfg.rho1 == 0.9 and cfg.rho2 == 0.2
    assert cfg.alpha_n == 0.2 and cfg.alpha_f == 0.8
    assert cfg.num_rx_antennas == 8 and cfg.frame_length == 30
    assert cfg.sensing_eigenvalues == (5.0, 3.0, 3.5, 2.5, 1.5, 2.0, 1.0, 0.5)
    assert cfg.sensing_rank == 8


def test_validate_is_idempotent():
    # replace() validates again, and a validated config passes unchanged.
    cfg = baseline_config()
    assert dataclasses.replace(dataclasses.replace(cfg)) == cfg


def test_equal_power_split_rejected():
    with pytest.raises(ValueError, match="alpha_n >= alpha_f"):
        dataclasses.replace(baseline_config(), alpha_n=0.5, alpha_f=0.5)


def test_zero_rho1_rejected():
    with pytest.raises(ValueError, match="rho1 must be positive"):
        dataclasses.replace(baseline_config(), rho1=0.0)


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
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(baseline_config(), **{field: value})


@pytest.mark.parametrize(
    "field,value",
    [
        *((name, bad) for name in FLOAT_FIELDS for bad in (math.nan, math.inf, -math.inf)),
        ("sensing_eigenvalues", (1.0, math.nan)),
        ("sensing_eigenvalues", (math.inf,)),
    ],
)
def test_non_finite_values_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        dataclasses.replace(baseline_config(), **{field: value})


def test_allocation_must_sum_to_one():
    with pytest.raises(ValueError, match="must equal 1"):
        dataclasses.replace(baseline_config(), alpha_n=0.2, alpha_f=0.7)


def test_spectrum_cannot_exceed_antenna_count():
    with pytest.raises(ValueError, match="longer than num_rx_antennas"):
        dataclasses.replace(baseline_config(), num_rx_antennas=4)


def test_rho3_combines_the_unordered_variances():
    cfg = baseline_config()
    assert cfg.rho3 == pytest.approx(0.9 * 0.2 / 1.1, rel=1e-15)


def test_db_to_linear_over_a_grid_is_libm_per_value():
    grid = [-30.0, -2.5, 0.0, 5.0, 17.3, 40.0, 3080.0]
    assert db_to_linear(grid).tolist() == [10.0 ** (x / 10.0) for x in grid]
    assert isinstance(db_to_linear(5.0), float)


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
    cfg = SystemConfig(rho1=1, rho2=2, alpha_n="0.3", alpha_f=0.7, sensing_eigenvalues=[1, 2])
    assert isinstance(cfg.rho1, float) and cfg.sensing_eigenvalues == (1.0, 2.0)
    with pytest.raises(ValueError):
        SystemConfig(rho1=1.0, rho2=1.0, alpha_n=0.6, alpha_f=0.4)


@pytest.mark.parametrize("count", [8.7, 8.0, "8"])
def test_integer_fields_take_integers_only(count):
    with pytest.raises(ValueError, match="num_rx_antennas must be a positive integer"):
        SystemConfig(rho1=1.0, rho2=1.0, alpha_n=0.3, alpha_f=0.7, num_rx_antennas=count)
    cfg = SystemConfig(rho1=1.0, rho2=1.0, alpha_n=0.3, alpha_f=0.7, num_rx_antennas=np.int64(8))
    assert type(cfg.num_rx_antennas) is int and cfg.num_rx_antennas == 8


def test_replace_rejects_an_invalid_config():
    # No closed form or estimator can be handed this config.
    with pytest.raises(ValueError, match="^rho2 must be positive$"):
        dataclasses.replace(baseline_config(), alpha_n=0.9, alpha_f=0.1, rho2=-0.2)


def test_configs_are_immutable():
    cfg = baseline_config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.rho1 = 2.0  # type: ignore[misc]
    assert math.isclose(cfg.alpha_n + cfg.alpha_f, 1.0)
