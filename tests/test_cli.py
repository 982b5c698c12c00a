"""Command-line surface: config parsing, table schemas, determinism, and
exit codes."""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import Future
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import noma_isac
from noma_isac import cli, montecarlo, region, table
from noma_isac.cli import dump_config, load_config_file, main
from noma_isac.config import baseline_config, db_to_linear
from noma_isac.region import containment_check, fdsac_frontier, isac_corner

CFG = baseline_config()


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "system.cfg"
    path.write_text(dump_config(CFG), encoding="utf-8")
    return str(path)


def _read_csv(path):
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln]
    header = lines[0].split(",")
    rows = []
    trailer = None
    for ln in lines[1:]:
        if ln.startswith("#"):
            trailer = ln
            continue
        rows.append(dict(zip(header, ln.split(","))))
    return header, rows, trailer


# ------------------------------------------------------------- config files

def test_config_roundtrip(tmp_path):
    path = tmp_path / "sys.cfg"
    path.write_text(dump_config(CFG), encoding="utf-8")
    assert load_config_file(str(path)) == CFG


def test_config_with_a_byte_order_mark_loads(tmp_path):
    # As Windows Notepad saves UTF-8.
    path = tmp_path / "bom.cfg"
    path.write_text("\ufeff" + dump_config(baseline_config()), encoding="utf-8")
    assert load_config_file(str(path)) == baseline_config()


def test_config_with_scene_derives_spectrum(tmp_path):
    text = "\n".join(
        [
            "rho1 = 0.9",
            "rho2 = 0.2",
            "alpha_n = 0.2",
            "alpha_f = 0.8",
            "sigma2_c = 1.0",
            "sigma2_s = 1.0",
            "num_rx_antennas = 8",
            "frame_length = 30",
            "target_rate_n = 0.8",
            "target_rate_f = 0.8",
            "target.strength = 2.0",
            "target.aoa = 0.4",
            "target.strength = 1.0",
            "target.aoa = -0.3",
        ]
    )
    path = tmp_path / "scene.cfg"
    path.write_text(text, encoding="utf-8")
    cfg = load_config_file(str(path))
    assert len(cfg.sensing_eigenvalues) == 8
    assert sum(cfg.sensing_eigenvalues) == pytest.approx(8 * 3.0, rel=1e-9)
    assert cfg.sensing_rank == 2


def test_config_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("rho1 = 0.9\nrho1 = 0.8\n", encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate key"):
        load_config_file(str(bad))
    bad.write_text("rho1 = abc\n", encoding="utf-8")
    with pytest.raises(ValueError, match="must be a number"):
        load_config_file(str(bad))
    bad.write_text(dump_config(CFG) + "mystery = 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown keys"):
        load_config_file(str(bad))
    bad.write_text("rho1 = 0.9\n", encoding="utf-8")
    with pytest.raises(ValueError, match="missing key"):
        load_config_file(str(bad))


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("rho1", "abc", "key 'rho1' must be a number, got 'abc'"),
        ("num_rx_antennas", "1e3", "key 'num_rx_antennas' must be an integer"),
        ("sensing_eigenvalues", "1, x", "key 'sensing_eigenvalues' must be a number, got 'x'"),
        ("", "5", "expected key=value, got '= 5'"),
        ("", "", "expected key=value, got '='"),
    ],
)
def test_config_error_names_its_line(tmp_path, capsys, key, value, message):
    # A bad value, or a line with an empty key, is reported at its line,
    # counting comment and blank lines.  The empty key's line comes last.
    lines = ["# system", "", *dump_config(CFG).splitlines(), "# end"]
    at = next((i for i, ln in enumerate(lines) if key and ln.startswith(key + " =")), len(lines))
    lines[at : at + 1] = [f"{key} = {value}".strip()]
    path = tmp_path / "bad.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["sensing", "--config", str(path), "--output", str(tmp_path / "sr.csv")]) == 1
    assert capsys.readouterr().err == f"error: {path}:{at + 1}: {message}\n"


def test_scene_with_explicit_spectrum_exits_one(tmp_path, capsys):
    # The explicit spectrum would silently win over the scene.
    path = tmp_path / "both.cfg"
    path.write_text(dump_config(CFG) + "target.strength = 2.0\ntarget.aoa = 0.4\n", encoding="utf-8")
    assert main(["sensing", "--config", str(path), "--output", str(tmp_path / "sr.csv")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {path}: ")
    assert "'sensing_eigenvalues'" in err and "target.strength" in err
    assert not (tmp_path / "sr.csv").exists()


def test_undecodable_config_file_names_the_file(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(dump_config(CFG).encode() + b"# caf\xe9 \xff\n")
    assert main(["outage", "--config", str(path), "--output", str(tmp_path / "o.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config file {str(path)!r}: ")
    assert "can't decode byte" in err and err.count("\n") == 1


def test_scene_with_zero_antennas_names_the_file(tmp_path, capsys):
    for count in ("0", "-3"):
        lines = dump_config(CFG).replace("num_rx_antennas = 8", f"num_rx_antennas = {count}").splitlines()
        text = [ln for ln in lines if not ln.startswith("sensing_eigenvalues")]
        path = tmp_path / "scene.cfg"
        path.write_text("\n".join(text + ["target.strength = 2.0", "target.aoa = 0.4"]), encoding="utf-8")
        assert main(["sensing", "--config", str(path), "--output", str(tmp_path / "sr.csv")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: num_rx_antennas must be a positive integer\n"


@pytest.mark.parametrize("spectrum", ["1,,2", "1, 2,", ",", "1, ,2"])
def test_empty_eigenvalue_item_is_rejected(tmp_path, spectrum):
    lines = [ln for ln in dump_config(CFG).splitlines() if not ln.startswith("sensing_eigenvalues")]
    path = tmp_path / "gap.cfg"
    path.write_text("\n".join(lines + [f"sensing_eigenvalues = {spectrum}"]), encoding="utf-8")
    with pytest.raises(ValueError, match=r"^.*: key 'sensing_eigenvalues' must be a number, got ''$"):
        load_config_file(str(path))


def test_empty_spectrum_round_trips(tmp_path):
    cfg = dataclasses.replace(CFG, sensing_eigenvalues=())
    path = tmp_path / "empty.cfg"
    path.write_text(dump_config(cfg), encoding="utf-8")
    assert "sensing_eigenvalues = \n" in dump_config(cfg)
    assert load_config_file(str(path)) == cfg


def test_missing_config_file_exits_one(tmp_path, capsys):
    rc = main(["outage", "--config", str(tmp_path / "nope.cfg"), "--output", "-"])
    assert rc == 1
    assert "cannot read config file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["outage", "--trials", "-1"],
        ["ecr", "--trials", "-1"],
        ["sensing", "--snr-db-step", "0"],
        ["region", "--grid-n", "1"],
        ["selftest", "--trials", "0"],
    ],
)
def test_missing_config_file_is_the_only_error(tmp_path, capsys, argv):
    # The config is loaded before any option is checked, on every subcommand.
    path = str(tmp_path / "nope.cfg")
    assert main([argv[0], "--config", path, *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config file {path!r}: ") and err.count("\n") == 1


def test_invalid_config_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(dump_config(CFG).replace("alpha_n = 0.2", "alpha_n = 0.8").replace("alpha_f = 0.8", "alpha_f = 0.2"), encoding="utf-8")
    rc = main(["outage", "--config", str(path), "--output", "-"])
    assert rc == 1
    assert "alpha_n >= alpha_f" in capsys.readouterr().err


def test_usage_error_exits_one(capsys):
    assert main([]) == 1
    assert main(["outage", "--config"]) == 1
    assert main(["outage", "--no-such-flag"]) == 1
    capsys.readouterr()


def test_region_power_overflow_exits_one(cfg_file, tmp_path, capsys):
    # 10**(4000/10) overflows a float.
    out = tmp_path / "region.csv"
    rc = main(["region", "--config", cfg_file, "--p-db", "4000", "--grid-n", "5", "--output", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --p-db") and err.count("\n") == 1


# kappa * sigma2_c is subnormal, and the per-trial SNR overflows.
_UNDERFLOWING_KAPPA = [
    ["ecr", "--mode", "fdsac", "--kappa", "1e-320", "--trials", "1000"],
    ["outage", "--mode", "fdsac", "--kappa", "1e-308", "--trials", "1000"],
]


@pytest.mark.parametrize(
    "argv,option",
    [
        (["outage", "--seed", "-1", "--trials", "10"], "--seed"),
        (["ecr", "--seed", str(2**64)], "--seed"),
        (["selftest", "--seed", "-1"], "--seed"),
        (["region", "--p-db", "inf"], "--p-db"),
        (["region", "--p-db", "nan"], "--p-db"),
        (["region", "--p-db", "-4000"], "--p-db"),
        (["outage", "--snr-db-max", "nan"], "--snr-db-max"),
        (["ecr", "--snr-db-min=-inf"], "--snr-db-min"),
        (["sensing", "--snr-db-max", "4000"], "--snr-db-max"),
        (["sensing", "--snr-db-step", "inf"], "--snr-db-step"),
        (["outage", "--snr-db-step", "nan"], "--snr-db-step"),
        (["outage", "--trials", "-1"], "--trials"),
        (["selftest", "--trials", "0"], "--trials"),
        (["outage", "--workers", "0"], "--workers"),
        (["ecr", "--workers", "-3", "--trials", "10"], "--workers"),
        # 10**308 is finite, but the sensing SNR (1 - mu) * p * L overflows.
        (["sensing", "--snr-db-min", "3080", "--snr-db-max", "3080"], "--snr-db-max"),
        (["sensing", "--snr-db-min", "3000", "--snr-db-step", "40", "--snr-db-max", "3080"],
         "--snr-db-max"),
        (["region", "--p-db", "3080", "--grid-n", "5"], "--p-db"),
        # p**2 in the outage asymptote overflows above about 1541 dB.
        (["outage", "--snr-db-min", "1545", "--snr-db-max", "1545"], "--snr-db-max"),
        (["outage", "--snr-db-min", "1545", "--snr-db-max", "1545", "--trials", "100"],
         "--snr-db-max"),
        *((argv, "--kappa") for argv in _UNDERFLOWING_KAPPA),
        (["region", "--grid-n", "1"], "--grid-n"),
        (["region", "--grid-n", "-3"], "--grid-n"),
        # Grids with more points than a numpy array can index.
        (["outage", "--snr-db-step", "5e-324"], "--snr-db-step"),
        (["outage", "--snr-db-step", "1e-300"], "--snr-db-step"),
        (["region", "--grid-n", "100000000000000000000"], "--grid-n"),
        # Split fractions outside [0, 1], in every mode.
        (["outage", "--mode", "isac", "--kappa", "2"], "--kappa"),
        (["outage", "--mode", "fdsac", "--mu", "nan", "--trials", "10"], "--mu"),
        (["ecr", "--kappa", "-0.5"], "--kappa"),
        (["ecr", "--mode", "fdsac", "--mu", "1.5"], "--mu"),
        (["sensing", "--kappa", "nan"], "--kappa"),
        (["sensing", "--mu", "-1"], "--mu"),
    ],
)
def test_out_of_range_options_exit_one(cfg_file, capsys, argv, option):
    rc = main([argv[0], "--config", cfg_file, *argv[1:]])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    if argv in _UNDERFLOWING_KAPPA:
        # A float fault names every input in effect, the option among them.
        assert err.startswith("error: --snr-db-max ") and f", {option} {argv[4]}, " in err
    else:
        assert err.startswith(f"error: {option} ")


def test_squared_power_overflow_prints_the_reason_alone(cfg_file, capsys):
    # Python's float ** raises OverflowError with (errno, text) above about
    # 1541 dB, where p**2 in the outage asymptote overflows.
    rc = main(["outage", "--config", cfg_file, "--snr-db-min", "1600", "--snr-db-max", "1600"])
    assert rc == 1
    inputs = f"--snr-db-max 1600.0 dB, --snr-db-min 1600.0 dB, --config {cfg_file}"
    assert capsys.readouterr() == ("", f"error: {inputs}: out of range: Numerical result out of range\n")


@pytest.mark.parametrize(
    "argv,line",
    [
        # '%g' would print -9.99989e-321: six digits of a subnormal.
        (["ecr", "--kappa=-1e-320"], "error: --kappa -1e-320 must lie in [0, 1]"),
        (["sensing", "--mu", "-1"], "error: --mu -1.0 must lie in [0, 1]"),
        (["region", "--p-db", "-4000"], "error: --p-db -4000.0 dB is not a positive finite power"),
        (["outage", "--snr-db-step", "1e-300"],
         "error: --snr-db-step 1e-300 gives more points than an array holds"),
    ],
)
def test_option_errors_print_the_value_by_repr(cfg_file, capsys, argv, line):
    assert main([argv[0], "--config", cfg_file, *argv[1:]]) == 1
    assert capsys.readouterr().err == line + "\n"


_GRID = "--snr-db-max 40.0 dB, --snr-db-min 0.0 dB"


@pytest.mark.parametrize("command", ["outage", "ecr"])
def test_subnormal_noise_power_names_the_config_in_isac_mode(tmp_path, capsys, command):
    # p / sigma2_c overflows; --kappa is not in effect in isac mode.
    path = tmp_path / "subnormal.cfg"
    path.write_text(dump_config(dataclasses.replace(CFG, sigma2_c=5e-323)), encoding="utf-8")
    assert main([command, "--config", str(path), "--trials", "1000"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {_GRID}, --config {path}: out of range: overflow encountered in divide\n"


@pytest.mark.parametrize("kappa", ["0.5", "1e-320", "0"])
@pytest.mark.parametrize("command", ["outage", "ecr"])
def test_subnormal_noise_power_names_the_config_in_fdsac_mode(tmp_path, capsys, command, kappa):
    # sigma2_c is subnormal: the fault, wherever it happens, names the split
    # and the file.  At kappa 0 no noise power is formed, and the run succeeds.
    path = tmp_path / "subnormal.cfg"
    path.write_text(dump_config(dataclasses.replace(CFG, sigma2_c=5e-323)), encoding="utf-8")
    argv = [command, "--config", str(path), "--mode", "fdsac", "--kappa", kappa, "--trials", "1000"]
    rc = main(argv)
    out, err = capsys.readouterr()
    if kappa == "0":
        assert rc == 0 and out.count("\n") == 10
        assert all(line.startswith("warning: ") for line in err.splitlines())
        return
    assert rc == 1
    assert out == ""
    inputs = f"{_GRID}, --kappa {float(kappa)!r}, --mu 0.5, --config {path}"
    assert err.startswith(f"error: {inputs}: out of range: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "sigma2_c",
    [
        pytest.param(5e-323, id="5e-323-the noise power sigma2_c 5e-323 is subnormal"),
        # Normal, but half of it, at the selftest's 0.5/0.5 split, is not.
        pytest.param(
            3e-308,
            id="3e-308-the selftest's split kappa 0.5 makes the noise power kappa * sigma2_c subnormal",
        ),
    ],
)
def test_selftest_rejects_a_subnormal_noise_power(tmp_path, capsys, sigma2_c):
    path = tmp_path / "subnormal.cfg"
    path.write_text(dump_config(dataclasses.replace(CFG, sigma2_c=sigma2_c)), encoding="utf-8")
    assert main(["selftest", "--config", str(path), "--trials", "1000"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --config {path}: out of range: overflow encountered in divide\n"


_FDSAC = ["--mode", "fdsac"]


@pytest.mark.parametrize(
    "sigma2_c,argv,inputs,fault",
    [
        (5e-308, ["selftest", "--trials", "1000"], "", "overflow encountered in divide"),
        (5e-308, ["outage", "--trials", "1000"], _GRID, "overflow encountered in divide"),
        (1.0, ["ecr", *_FDSAC, "--mu", "1e-320"], f"{_GRID}, --kappa 0.5, --mu 1e-320",
         "overflow encountered in divide"),
        # chi = kappa * sigma2_c / mu overflows in the outage closed forms.
        (1.0, ["outage", *_FDSAC, "--mu", "1e-320"], f"{_GRID}, --kappa 0.5, --mu 1e-320",
         "overflow encountered in scalar divide"),
        (1.0, ["outage", "--snr-db-min=-3000", "--snr-db-max=-3000"],
         "--snr-db-max -3000.0 dB, --snr-db-min -3000.0 dB", "divide by zero encountered in divide"),
        (5e-323, ["ecr", *_FDSAC, "--kappa", "1e-5"], f"{_GRID}, --kappa 1e-05, --mu 0.5",
         "underflow to 0 in kappa*sigma2_c/(mu*rho_b) or alpha_n*p"),
        (1e-5, ["ecr", *_FDSAC, "--kappa", "1e-320"], f"{_GRID}, --kappa 1e-320, --mu 0.5",
         "underflow to 0 in kappa*sigma2_c/(mu*rho_b) or alpha_n*p"),
        *(
            (1e-5, ["outage", *_FDSAC, "--kappa", "1e-320", "--trials", "1000", "--workers", workers],
             f"{_GRID}, --kappa 1e-320, --mu 0.5", "divide by zero encountered in divide")
            for workers in ("1", "2")
        ),
    ],
)
def test_float_faults_name_the_inputs_in_effect(tmp_path, capfd, sigma2_c, argv, inputs, fault):
    # One line, with no numpy warning from any thread, and numpy's error
    # state as it was.
    path = tmp_path / "system.cfg"
    path.write_text(dump_config(dataclasses.replace(CFG, sigma2_c=sigma2_c)), encoding="utf-8")
    state = np.geterr()
    assert main([*argv, "--config", str(path)]) == 1
    assert np.geterr() == state
    captured = capfd.readouterr()
    assert captured.out == ""
    named = f"{inputs}, --config {path}" if inputs else f"--config {path}"
    assert captured.err == f"error: {named}: out of range: {fault}\n"


@pytest.mark.parametrize("mode", ["isac", "fdsac"])
def test_closed_forms_at_a_subnormal_noise_power_succeed(tmp_path, mode):
    path = tmp_path / "system.cfg"
    path.write_text(dump_config(dataclasses.replace(CFG, sigma2_c=5e-323)), encoding="utf-8")
    out = tmp_path / "ecr.csv"
    assert main(["ecr", "--config", str(path), "--mode", mode, "--output", str(out)]) == 0
    _, rows, _ = _read_csv(out)
    assert len(rows) == 9 and all(math.isfinite(float(v)) for row in rows for v in row.values())


@pytest.mark.parametrize("error", [MemoryError(), MemoryError("Unable to allocate 18.6 GiB")])
def test_out_of_memory_exits_one_with_one_line(cfg_file, tmp_path, capsys, monkeypatch, error):
    # A grid too large for the host; no huge grid is allocated here.
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "FrontierSweep", fail)
    out = tmp_path / "region.csv"
    rc = main(["region", "--config", cfg_file, "--grid-n", "50000", "--output", str(out)])
    assert rc == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and not out.exists()
    assert err.startswith("error: out of memory") and err.count("\n") == 1
    assert str(error) in err


@pytest.mark.parametrize("command", ["outage", "ecr"])
@pytest.mark.parametrize("kappa", ["0", "1e-300"])
def test_tiny_but_normal_noise_power_succeeds(cfg_file, tmp_path, command, kappa):
    out = tmp_path / "table.csv"
    argv = [command, "--config", cfg_file, "--mode", "fdsac", "--kappa", kappa, "--trials", "1000"]
    assert main(argv + ["--output", str(out)]) == 0
    _, rows, _ = _read_csv(out)
    assert len(rows) == 9 and all(math.isfinite(float(v)) for row in rows for v in row.values())


def test_ecr_at_largest_finite_power_succeeds(cfg_file, tmp_path):
    out = tmp_path / "ecr.csv"
    argv = ["ecr", "--config", cfg_file, "--snr-db-min", "3080", "--snr-db-max", "3080"]
    assert main(argv + ["--output", str(out)]) == 0
    _, rows, _ = _read_csv(out)
    assert all(math.isfinite(float(v)) for v in rows[0].values())


@pytest.mark.parametrize("workers,grid", [("1", ["3080", "3080"]), ("2", ["3070", "3080"])])
def test_monte_carlo_overflow_names_the_option(cfg_file, tmp_path, capfd, workers, grid):
    # mu * p * gain overflows in the Monte Carlo kernel at 10**307.5 and up;
    # the sweep fails before writing, with no numpy warning from any process.
    out = tmp_path / "ecr.csv"
    rc = main([
        "ecr", "--config", cfg_file, "--snr-db-min", grid[0], "--snr-db-max", grid[1],
        "--trials", "1000", "--workers", workers, "--output", str(out),
    ])
    assert rc == 1
    captured = capfd.readouterr()
    assert captured.out == ""
    inputs = f"--snr-db-max 3080.0 dB, --snr-db-min {grid[0]}.0 dB, --config {cfg_file}"
    assert captured.err == f"error: {inputs}: out of range: overflow encountered in multiply\n"
    assert not out.exists()


def test_region_at_tiny_power_succeeds(cfg_file, tmp_path):
    # At -300 dB the exponential-integral arguments reach ~1e31, beyond the
    # continued fraction's reach; the asymptotic branch takes them.
    out = tmp_path / "region.csv"
    rc = main(["region", "--config", cfg_file, "--p-db", "-300", "--grid-n", "5", "--output", str(out)])
    assert rc == 0
    _, rows, trailer = _read_csv(out)
    assert len(rows) > 1 + 25
    assert trailer is not None and "containment: contained" in trailer


@pytest.mark.parametrize("argv", [
    ["region", "--p-db", "-100", "--grid-n", "401"],
    ["ecr", "--snr-db-min", "-160", "--snr-db-max", "-100", "--snr-db-step", "0.01"],
])
def test_stalled_continued_fraction_inputs_succeed(cfg_file, tmp_path, argv):
    # Each command meets ratios where the continued fraction's update factor
    # would stick next to 1 and never round to it; the asymptotic branch
    # takes them.
    out = tmp_path / "table.csv"
    assert main([*argv, "--config", cfg_file, "--output", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text.count("\n") > 6000 and "nan" not in text and "inf" not in text


# ------------------------------------------------------------------- sweeps

def test_outage_table_analytic_only(cfg_file, tmp_path):
    out = tmp_path / "outage.csv"
    rc = main(
        ["outage", "--config", cfg_file, "--output", str(out), "--trials", "0"]
    )
    assert rc == 0
    header, rows, _ = _read_csv(out)
    assert header == [
        "snr_db",
        "pout_n_analytic",
        "pout_f_analytic",
        "pout_n_asym",
        "pout_f_asym",
    ]
    assert len(rows) == 9
    assert [float(r["snr_db"]) for r in rows] == [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0]
    # Asymptote approaches the exact value at the top of the sweep.
    last = rows[-1]
    assert float(last["pout_f_asym"]) / float(last["pout_f_analytic"]) == pytest.approx(1.0, abs=0.02)


def test_outage_table_with_trials(cfg_file, tmp_path):
    out = tmp_path / "outage_mc.csv"
    rc = main(
        [
            "outage", "--config", cfg_file, "--output", str(out),
            "--trials", "50000", "--seed", "9", "--snr-db-max", "20",
        ]
    )
    assert rc == 0
    header, rows, _ = _read_csv(out)
    assert header[-4:] == ["pout_n_mc", "pout_f_mc", "mc_stderr_n", "mc_stderr_f"]
    for row in rows:
        exact = float(row["pout_n_analytic"])
        emp = float(row["pout_n_mc"])
        se = math.sqrt(max(exact * (1.0 - exact), 1e-12) / 50000)
        assert abs(exact - emp) <= 4.0 * se


def test_isac_outage_never_worse_than_split(cfg_file, tmp_path):
    out_i = tmp_path / "isac.csv"
    out_f = tmp_path / "fdsac.csv"
    main(["outage", "--config", cfg_file, "--output", str(out_i), "--mode", "isac"])
    main(
        [
            "outage", "--config", cfg_file, "--output", str(out_f),
            "--mode", "fdsac", "--kappa", "0.5", "--mu", "0.5",
        ]
    )
    _, rows_i, _ = _read_csv(out_i)
    _, rows_f, _ = _read_csv(out_f)
    for ri, rf in zip(rows_i, rows_f):
        assert float(ri["pout_n_analytic"]) <= float(rf["pout_n_analytic"])
        assert float(ri["pout_f_analytic"]) <= float(rf["pout_f_analytic"])


def test_infeasible_allocation_warns_and_emits_ones(tmp_path, capsys):
    text = dump_config(CFG).replace("target_rate_f = 0.8", "target_rate_f = 3")
    text = text.replace("alpha_n = 0.2", "alpha_n = 0.45").replace("alpha_f = 0.8", "alpha_f = 0.55")
    path = tmp_path / "infeasible.cfg"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "outage.csv"
    rc = main(["outage", "--config", str(path), "--output", str(out), "--snr-db-max", "10"])
    assert rc == 0
    assert "infeasible" in capsys.readouterr().err
    _, rows, _ = _read_csv(out)
    for row in rows:
        assert float(row["pout_n_analytic"]) == 1.0
        assert float(row["pout_f_analytic"]) == 1.0
        assert float(row["pout_n_asym"]) == 1.0


@pytest.mark.parametrize("trials", ["0", "2000"])
def test_overflowing_threshold_warns_and_emits_ones(tmp_path, capsys, trials):
    # With target_rate_f = 2, kappa = 0.001 asks for an SINR of 2**2000 - 1.
    path = tmp_path / "rate2.cfg"
    path.write_text(dump_config(CFG).replace("target_rate_f = 0.8", "target_rate_f = 2"), encoding="utf-8")
    out = tmp_path / "outage.csv"
    argv = ["outage", "--config", str(path), "--output", str(out), "--mode", "fdsac", "--kappa", "0.001"]
    rc = main(argv + ["--trials", trials, "--snr-db-max", "10"])
    assert rc == 0
    assert "infeasible" in capsys.readouterr().err
    header, rows, _ = _read_csv(out)
    assert len(rows) == 3
    for row in rows:
        assert all(row[name] == "1" for name in header if name.startswith("pout_"))


def test_ecr_table_and_flattening(cfg_file, tmp_path):
    out = tmp_path / "ecr.csv"
    rc = main(["ecr", "--config", cfg_file, "--output", str(out)])
    assert rc == 0
    header, rows, _ = _read_csv(out)
    assert header[:6] == [
        "snr_db",
        "ecr_n_analytic",
        "ecr_f_analytic",
        "ecr_sum_analytic",
        "ecr_n_asym",
        "ecr_f_asym",
    ]
    by_snr = {float(r["snr_db"]): r for r in rows}
    # Far-user curve flattens at high SNR.
    assert float(by_snr[40.0]["ecr_f_analytic"]) - float(by_snr[35.0]["ecr_f_analytic"]) < 0.1
    # Sum-rate slope on the log2 power axis over 30->40 dB.
    slope = (
        float(by_snr[40.0]["ecr_sum_analytic"]) - float(by_snr[30.0]["ecr_sum_analytic"])
    ) / (10.0 / (10.0 * math.log10(2.0)))
    assert 0.95 <= slope <= 1.05


def test_isac_ecr_dominates_split(cfg_file, tmp_path):
    out_i = tmp_path / "ecr_i.csv"
    out_f = tmp_path / "ecr_f.csv"
    main(["ecr", "--config", cfg_file, "--output", str(out_i)])
    main(["ecr", "--config", cfg_file, "--output", str(out_f), "--mode", "fdsac"])
    _, rows_i, _ = _read_csv(out_i)
    _, rows_f, _ = _read_csv(out_f)
    for ri, rf in zip(rows_i, rows_f):
        assert float(ri["ecr_n_analytic"]) >= float(rf["ecr_n_analytic"])
        assert float(ri["ecr_f_analytic"]) >= float(rf["ecr_f_analytic"])


def test_sensing_table(cfg_file, tmp_path):
    out = tmp_path / "sensing.csv"
    rc = main(["sensing", "--config", cfg_file, "--output", str(out)])
    assert rc == 0
    header, rows, _ = _read_csv(out)
    assert header == ["snr_db", "sr_isac", "sr_isac_asym", "sr_fdsac", "sr_fdsac_asym"]
    for row in rows:
        assert float(row["sr_isac"]) >= float(row["sr_fdsac"])
    last = rows[-1]
    assert abs(float(last["sr_isac"]) - float(last["sr_isac_asym"])) < 1e-3


@pytest.mark.parametrize("flag", ["--mode", "--workers", "--trials", "--seed"])
def test_sensing_takes_no_sweep_controls(cfg_file, capsys, flag):
    # The sensing rate is closed form only; these flags belong to outage/ecr.
    value = "isac" if flag == "--mode" else "2"
    assert main(["sensing", "--config", cfg_file, flag, value]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_sensing_zero_split_equals_integrated(cfg_file, tmp_path):
    out = tmp_path / "sensing0.csv"
    main(["sensing", "--config", cfg_file, "--output", str(out), "--kappa", "0", "--mu", "0"])
    _, rows, _ = _read_csv(out)
    for row in rows:
        assert row["sr_fdsac"] == row["sr_isac"]


# ------------------------------------------------------------------- region

def test_region_table_and_verdict(cfg_file, tmp_path):
    out = tmp_path / "region.csv"
    rc = main(["region", "--config", cfg_file, "--output", str(out), "--grid-n", "21"])
    assert rc == 0
    header, rows, trailer = _read_csv(out)
    assert header == ["kind", "kappa", "mu", "rate_s", "rate_c"]
    kinds = [r["kind"] for r in rows]
    assert kinds[0] == "corner"
    grid_rows = [r for r in rows if r["kind"] == "grid"]
    pareto_rows = [r for r in rows if r["kind"] == "pareto"]
    assert len(grid_rows) == 441
    assert 0 < len(pareto_rows) <= len(grid_rows)
    assert any(r["kappa"] == "0" and r["mu"] == "0" for r in grid_rows)
    assert any(r["kappa"] == "1" and r["mu"] == "1" for r in grid_rows)
    assert trailer is not None and "containment: contained" in trailer


def test_region_json_document(cfg_file, tmp_path):
    out = tmp_path / "region.json"
    rc = main(
        ["region", "--config", cfg_file, "--output", str(out), "--grid-n", "11", "--format", "json"]
    )
    assert rc == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["metadata"]["containment"]["verdict"] == "contained"
    assert doc["metadata"]["config"]["rho1"] == 0.9
    assert len(doc["rows"]) == 1 + 121 + len([r for r in doc["rows"] if r["kind"] == "pareto"])



@pytest.mark.parametrize("p_db,fault", [
    ("3045", "overflow encountered in divide"),
    ("3050", "overflow encountered in multiply"),
    ("3060", "overflow encountered in multiply"),
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("to_file", [True, False])
def test_region_sensing_overflow_writes_nothing(cfg_file, tmp_path, capfd, p_db, fault, fmt, to_file):
    # The sensing SNR overflows only in the last blocks of kappa rows, after
    # the CSV rows of the first ones could have been written: at 3045 dB in
    # its division by (1 - kappa)*sigma2_s, from 3050 dB in its product with
    # an eigenvalue.  The run fails before the output is opened, with the
    # error of the first block that overflows.
    out = tmp_path / f"region.{fmt}"
    argv = ["region", "--config", cfg_file, "--grid-n", "401", "--format", fmt, "--p-db", p_db]
    argv += ["--output", str(out) if to_file else "-"]
    expected = f"error: --p-db {float(p_db)!r} dB, --config {cfg_file}: out of range: {fault}\n"
    for existing in (None, b"kept\n") if to_file else (None,):
        if existing is not None:
            out.write_bytes(existing)
        assert main(argv) == 1
        captured = capfd.readouterr()
        assert captured.out == "" and captured.err == expected
        assert out.read_bytes() == existing if existing is not None else not out.exists()


def _region_bytes(capsys, argv, output):
    # The bytes main writes for argv to the file `output` or, at None, to stdout.
    if output is None:
        assert main([*argv, "--output", "-"]) == 0
        return capsys.readouterr().out.encode()
    assert main([*argv, "--output", str(output)]) == 0
    return output.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("p_db", ["-60", "5", "40"])
@pytest.mark.parametrize("grid_n", [2, 3, 67, 101])
def test_region_bytes_do_not_depend_on_the_blocks(
    cfg_file, tmp_path, capsys, monkeypatch, grid_n, p_db, fmt
):
    # The frontier's blocks of kappa rows (one row at tile 7, 14 or 9 rows at
    # tile 1000, which grids 67 and 101 do not fill evenly) and the writer's
    # blocks of table rows, which end at each frontier block, against the
    # defaults.  One-row writer blocks run at grids 2 and 3, where they are
    # cheap; at grids 67 and 101, 300 rows do not fill the frontier's blocks,
    # and at tile 7, whose psi table takes a second at grid 101, they end at
    # each one-row block as 4096 rows would.  The settings take turns at
    # writing to a file and to stdout, and the formats start on either.
    argv = ["region", "--config", cfg_file, "--grid-n", str(grid_n), "--p-db", p_db, "--format", fmt]
    out = tmp_path / f"region.{fmt}"
    expected = _region_bytes(capsys, argv, out)
    settings = [
        (tile, block_rows)
        for tile in (7, 1000, region._TILE)
        for block_rows in (1 if grid_n <= 3 else 300, 4096)
        if not (tile == 7 and grid_n > 3 and block_rows == 4096)
    ]
    for turn, (tile, block_rows) in enumerate(settings, start=int(fmt == "json")):
        with monkeypatch.context() as patch:
            patch.setattr(region, "_TILE", tile)
            patch.setattr(table, "_BLOCK_ROWS", block_rows)
            assert _region_bytes(capsys, argv, out if turn % 2 else None) == expected


# -------------------------------------------------------------- determinism

def test_outputs_are_byte_deterministic(cfg_file, tmp_path):
    # Seven points; each leaf's powers run on one, two or four threads.
    args = [
        "outage", "--config", cfg_file, "--trials", "30000", "--seed", "4",
        "--snr-db-max", "30",
    ]
    paths = [tmp_path / f"o{i}.csv" for i in range(4)]
    for path, workers in zip(paths, ("1", "1", "2", "4")):
        assert main(args + ["--output", str(path), "--workers", workers]) == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0].count(b"\n") == 1 + 7
    assert blobs[0] == blobs[1] == blobs[2] == blobs[3]


def test_json_outputs_are_byte_deterministic(cfg_file, tmp_path):
    args = [
        "ecr", "--config", cfg_file, "--trials", "10000", "--seed", "12",
        "--snr-db-max", "30", "--format", "json",
    ]
    paths = [tmp_path / f"e{workers}.json" for workers in ("1", "2", "4")]
    for path, workers in zip(paths, ("1", "2", "4")):
        assert main(args + ["--output", str(path), "--workers", workers]) == 0
    assert len(json.loads(paths[0].read_text(encoding="utf-8"))["rows"]) == 7
    assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()


def _json_document(columns, metadata, labels=None):
    # The whole document dumped at once, each labelled column's codes
    # replaced by their labels first.
    labels = labels or {}
    cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()]
    cells = [[labels[key][i] for i in c] if key in labels else c for key, c in zip(columns, cells)]
    doc = {"metadata": metadata, "rows": [dict(zip(columns, row)) for row in zip(*cells)]}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("block_rows", [1, 2, 3, 4096])
@pytest.mark.parametrize("rows", [0, 1, 3, 7])
def test_json_table_is_the_json_dumps_document(tmp_path, monkeypatch, rows, block_rows):
    # The block writer against the whole document dumped at once, on cells
    # whose encodings hold separators, quotes, escapes and "%", in one block
    # of rows or several.  The labelled columns hold str labels, and None,
    # nan and the int 3, whose codes come out of order and skip one.
    monkeypatch.setattr(table, "_BLOCK_ROWS", block_rows)
    columns = {
        "z%s key": np.array([1.5, -0.0, 1e-320, math.nan, 5e-324, -1e300, 1e16])[:rows],
        'a, "b"': np.array([3, 0, 2, 3, 0, 2, 3])[:rows],
        "m": np.array([2, 1, 0, 0, 2, 1, 2])[:rows],
        "inf": (math.inf, -math.inf, 2.5, 0.1, -7.0, 1e-7, 123456789.0)[:rows],
    }
    labels = {'a, "b"': ["x, y", "unused", "\u00e9", "\0%s\n"], "m": [None, math.nan, 3]}
    metadata = {"command": "t", "grid": [1.0, 2.5], "nested": {"b": None, "a": "q"}}
    out = tmp_path / "t.json"
    table._write_table(str(out), "json", columns, metadata, None, labels)
    assert out.read_text(encoding="utf-8") == _json_document(columns, metadata, labels)


def _row_template_csv(columns, trailer=None, labels=None):
    # The CSV writer before whole-column formatting: one "%" template per
    # row, "%s" for a column whose first cell is a string, else "%.12g".  A
    # labelled column is expanded first, to its labels' text: None is "", a
    # str is itself and a number is "%.12g".
    labels = labels or {}
    values = []
    for key, column in columns.items():
        if key in labels:
            text = [v if isinstance(v, str) else "" if v is None else "%.12g" % v for v in labels[key]]
            column = [text[code] for code in column]
        values.append(column.tolist() if isinstance(column, np.ndarray) else column)
    formats = ("%s" if col and isinstance(col[0], str) else "%.12g" for col in values)
    template = ",".join(formats) + "\n"
    lines = [",".join(columns) + "\n", *(template % row for row in zip(*values))]
    return "".join(lines + (["# " + trailer + "\n"] if trailer else []))


def _hard_cells():
    # Cells where a digit-by-digit formatter goes wrong: signed zeros,
    # subnormals, the fixed/exponential boundaries and their neighbours,
    # non-finite values, and values at or next to a 12-digit half-way point.
    up, down = (lambda v: np.nextafter(v, math.inf)), (lambda v: np.nextafter(v, -math.inf))
    edges = [1e-4, 999999999999.5, 1e12, 9.999999999995e-5, 99999.9999999, 0.5, 1.0, 10.0]
    cells = [0.0, -0.0, 5e-324, -2.5e-310, math.nan, math.inf, -math.inf, 1e300, -1e-300]
    cells += [f(v) for v in edges for f in (float, up, down)]
    rng = np.random.default_rng(12)
    for k in range(-3, 17):
        for m in rng.integers(10**11, 10**12, 4).tolist():
            half = (m + 0.5) * 10.0**-k
            cells += [half, up(half), down(half), -half]
    return np.array(cells)


@pytest.mark.parametrize("block_rows", [1, 3, table._BLOCK_ROWS])
def test_csv_table_is_the_row_template_output(tmp_path, monkeypatch, block_rows):
    # The column writer against the per-row template, on float arrays, lists
    # mixing Python ints and floats, and labelled columns whose labels are
    # ASCII, non-ASCII, holding "," and "%", or mixing None, floats, nan and
    # the int 3.  No label holds NUL: the writer pads its cells with NUL.
    monkeypatch.setattr(table, "_BLOCK_ROWS", block_rows)
    floats = _hard_cells()
    n = floats.size
    texts = ["x, y", "100%", "%s", "\u00e9\u4e2d", "", "grid"]
    labels = {
        "ascii": ["corner", "grid", "", "0.5"],
        "wide": ["\u00e9", "ok", "\u4e2d\u6587"],
        "text": texts,
        "split": [None, 0.1, -0.0, math.nan, 3, 1e-320, 2 / 3],
    }
    columns = {
        "f%s": floats,
        "ints": [[3, -7, 10**15, 2**53 + 1, 0][i % 5] if i % 2 else float(i) / 7 for i in range(n)],
        **{key: np.arange(n) % len(labels[key]) for key in labels},
        "neg": -floats[::-1],
    }
    out = tmp_path / "t.csv"
    table._write_table(str(out), "csv", columns, {}, lambda: "containment: contained, x = 1", labels)
    expected = _row_template_csv(columns, "containment: contained, x = 1", labels)
    assert out.read_bytes() == expected.encode()
    empty = {key: col[:0] for key, col in columns.items()}
    table._write_table(str(out), "csv", empty, {}, None, labels)
    assert out.read_bytes() == _row_template_csv(empty).encode()


def _region_before_labels(cfg, p_db, grid_n, fmt):
    # The region table as cmd_region built it before labelled columns: the
    # split fractions recovered by np.unique and formatted once into str
    # cells for CSV, and object arrays holding None at the corner for JSON.
    p = db_to_linear(p_db)
    corner, frontier = isac_corner(cfg, p), fdsac_frontier(cfg, p, grid_n)
    report = containment_check(corner, frontier)
    verdict = "contained" if report.holds else "not contained"
    grid_size, pareto = frontier.rate_s.size, frontier.pareto
    n = frontier.fractions.size
    rows = np.concatenate(([0], np.arange(1, grid_size + 1), pareto + 1))

    def column(at_corner, values):
        return np.concatenate(([at_corner], values))[rows]

    def split_column(values):
        if fmt == "json":
            return column(None, values)
        distinct, inverse = np.unique(values, return_inverse=True)
        return np.array(["", *("%.12g" % v for v in distinct.tolist())])[column(0, inverse + 1)]

    columns = {
        "kind": np.array(["corner", "grid", "pareto"]).repeat([1, grid_size, pareto.size]),
        "kappa": split_column(np.repeat(frontier.fractions, n)),
        "mu": split_column(np.tile(frontier.fractions, n)),
        "rate_s": column(corner.rate_s, frontier.rate_s),
        "rate_c": column(corner.rate_c, frontier.rate_c),
    }
    if fmt == "csv":
        trailer = f"containment: {verdict}, max_violation = {'%.12g' % report.max_violation}"
        return _row_template_csv(columns, trailer)
    meta = {
        "command": "region",
        "config": dataclasses.asdict(cfg),
        "p_db": p_db,
        "grid_n": grid_n,
        "containment": {"verdict": verdict, "max_violation": report.max_violation},
    }
    return _json_document(columns, meta)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("grid_n", [2, 3, 21])
@pytest.mark.parametrize("p_db", [-30.0, 5.0, 40.0])
def test_region_table_is_the_unique_sorted_construction(cfg_file, tmp_path, fmt, grid_n, p_db):
    out = tmp_path / f"region.{fmt}"
    argv = ["region", "--config", cfg_file, "--format", fmt, "--grid-n", str(grid_n)]
    assert main(argv + ["--p-db", str(p_db), "--output", str(out)]) == 0
    expected = _region_before_labels(CFG, p_db, grid_n, fmt)
    assert out.read_text(encoding="utf-8") == expected


def _region_traced_peak(cfg_file, tmp_path, grid_n):
    # Traced bytes per grid point of a CSV region, after a warm-up run.
    argv = ["region", "--config", cfg_file, "--grid-n", str(grid_n), "--output", str(tmp_path / "r.csv")]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / grid_n**2


def test_region_command_traced_peak_per_grid_point(cfg_file, tmp_path):
    # CSV rows are written a block of kappa rows at a time, which keeps only
    # its Pareto survivors, so the peak is the psi brackets' table (about 24
    # bytes per distinct ratio, some 0.65 of the points) and one block's
    # temporaries: 30 bytes a point at grid 401.  With the full grid's rates
    # and Pareto sweep it peaks at 42 bytes a point.
    assert _region_traced_peak(cfg_file, tmp_path, 401) <= 4 * 8


def test_region_command_traced_peak_at_grid_801(cfg_file, tmp_path):
    # The block's share shrinks as the grid grows: 20 bytes a point.
    assert _region_traced_peak(cfg_file, tmp_path, 801) <= 3 * 8


def test_float_cells_traced_peak_per_cell():
    # A block's cells: 32 bytes each, the digit groups as uint16 and one
    # column of gather indices at a time, about 92 bytes a cell in all.  With
    # a full intp gather index and the digit groups as floats it is 277.
    values = np.random.default_rng(5).uniform(0.0, 3.0, 8192)
    table._g12_cells(values)
    tracemalloc.start()
    try:
        table._g12_cells(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / values.size <= 128


def _indices_quad_table():
    # The digit table as built from np.indices over four digits, all at once.
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1)
    lead, trail = digits == 0, digits == 0
    for j in range(1, 4):
        lead[j] &= lead[j - 1]
        trail[3 - j] &= trail[4 - j]
    pads = np.stack([np.zeros_like(lead), lead, trail], axis=1).reshape(4, -1)
    places = np.where(pads, 0, np.tile(digits + ord("0"), 3)).astype("<u4")
    return (places << np.array([[0], [8], [16], [24]], "<u4")).sum(axis=0, dtype="<u4")


def test_quad_table_equals_the_indices_construction():
    quads = table._quad_table()
    assert quads.dtype == np.dtype("<u4") and not quads.flags.writeable
    assert quads.tobytes() == _indices_quad_table().tobytes()
    assert quads[[table._LEAD, table._TRAIL]].tolist() == [0, 0]


def test_quad_table_build_traced_peak():
    # Built a digit at a time, a fresh build holds the 117 KiB table and a
    # few 39 KiB rows; through (4, 30000) temporaries it peaks at 1292 KiB.
    table._quad_table()
    table._quad_table.cache_clear()
    tracemalloc.start()
    try:
        table._quad_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 512 << 10


def test_outage_command_traced_peak_is_a_few_leaves(cfg_file, tmp_path):
    # The Monte Carlo oracle holds its walk's working set, a few float64
    # arrays of a leaf of montecarlo._TILE trials: the command's peak is
    # bounded by 16 of them (2 MiB).  With leaves of 2**18 trials it peaks
    # near 5.1 MiB.
    argv = ["outage", "--config", cfg_file, "--trials", "1000000", "--output", str(tmp_path / "o.csv")]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * montecarlo._TILE


def _table_text(fmt, columns, metadata=None):
    # The table _write_table writes to stdout.
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        table._write_table("-", fmt, columns, metadata or {})
    return out.getvalue()


@pytest.mark.parametrize("shift", [-1.0, 1.0])
def test_csv_float_cells_survive_a_wrong_exponent_estimate(monkeypatch, shift):
    # log10 off by one for every cell: each cell is checked against the
    # exact scaled value and, where the estimate is wrong, still comes out
    # as Python's "%.12g".
    powers = [10.0**k * (1.0 - j * 1e-13) for k in range(-4, 13) for j in (0, 1, 5, 50)]
    values = np.concatenate([_hard_cells(), powers, np.nextafter(powers, math.inf)])
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    lines = _table_text("csv", {"v": values}).splitlines()
    assert lines == ["v", *("%.12g" % v for v in values.tolist())]


def _near_tie(m, k, side):
    half = (m + 0.5) * 10.0**-k
    return float(np.nextafter(half, side * math.inf)) if side else half


_TIES = st.builds(
    _near_tie, st.integers(10**11, 10**12 - 1), st.integers(-4, 17), st.sampled_from([-1, 0, 1])
)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.lists(st.floats() | _TIES, min_size=1, max_size=40))
@example([0.0, 1.5, 2.5, 3.5])  # a zero at the first cell
@example([1.5, 2.5, 3.5, 1e-05, -0.0])  # and at the last
@example([1.5, 2.5, -0.0, 0.0, 3.5, math.nan, -0.0])  # at a block edge
@example([0.25, -0.0, 1e11, 123.456])  # no slow cell
@example([0.25, 1e-05, math.inf, -1.5e300])  # slow cells no wider than the rest
@example([-2.2250738585072014e-308, 1.5])  # 19-byte slow cells
@example([0.5, -5e-324])
@example([-1.7976931348623157e308])
@example([1e-05, -1e300, math.nan])  # a block where every cell is slow
@example([0.5, 1e-05, 2.5])  # one slow cell between fast ones
def test_csv_float_cells_are_python_percent_g(values):
    # Over blocks of three rows.
    with mock.patch.object(table, "_BLOCK_ROWS", 3):
        lines = _table_text("csv", {"v": np.array(values, dtype=float)}).splitlines()
    assert lines == ["v", *("%.12g" % v for v in values)]


def test_zero_cells_take_the_fast_path(monkeypatch):
    slow = []
    text_cells = table._text_cells
    monkeypatch.setattr(table, "_text_cells", lambda text: slow.append(text) or text_cells(text))
    assert _table_text("csv", {"v": np.array([0.0, -0.0, 0.5])}) == "v\n0\n-0\n0.5\n"
    assert slow == []


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.lists(st.floats(), max_size=40))
def test_json_float_cells_are_json_dumps(values):
    # Any floats, the empty table included, over blocks of three rows.
    metadata = {"command": "t"}
    with mock.patch.object(table, "_BLOCK_ROWS", 3):
        text = _table_text("json", {"v": np.array(values, dtype=float)}, metadata)
    assert text == _json_document({"v": values}, metadata)


class _InlinePool:
    # Stands in for ThreadPoolExecutor: records max_workers, starts nothing.
    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn):
        future = Future()
        future.set_result(fn())
        return future


@pytest.mark.parametrize("workers,started", [(1, []), (2, [2]), (3, [3]), (50, [8])])
def test_workers_start_at_most_one_thread_per_leaf(
    cfg_file, tmp_path, monkeypatch, workers, started
):
    # 2000 trials walked down to leaves of at most 300: eight leaves.
    monkeypatch.setattr(montecarlo, "_TILE", 300)
    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    args = ["ecr", "--config", cfg_file, "--trials", "2000", "--snr-db-max", "10"]
    serial, threaded = tmp_path / "serial.csv", tmp_path / "threaded.csv"
    assert main(args + ["--output", str(serial)]) == 0
    assert _InlinePool.sizes == []
    assert main(args + ["--output", str(threaded), "--workers", str(workers)]) == 0
    assert _InlinePool.sizes == started
    assert threaded.read_bytes() == serial.read_bytes()


@pytest.mark.parametrize("command", ["outage", "ecr"])
def test_workers_draw_each_block_once_in_process(cfg_file, tmp_path, monkeypatch, command):
    # Three blocks of 1000 trials for nine powers on four threads.
    monkeypatch.setattr(montecarlo, "_CHUNK", 1000)
    draws, draw = [], montecarlo.gain_samples

    def counting(cfg, seed, start, count, **kwargs):
        draws.append((start, count))
        return draw(cfg, seed, start, count, **kwargs)

    monkeypatch.setattr(montecarlo, "gain_samples", counting)
    argv = [command, "--config", cfg_file, "--trials", "2500", "--workers", "4"]
    assert main(argv + ["--output", str(tmp_path / "t.csv")]) == 0
    assert draws == [(0, 1000), (1000, 1000), (2000, 500)]


def test_importing_the_cli_loads_no_executor():
    # The thread pool is imported only when a sweep uses one.
    code = "import sys, noma_isac.cli; print('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(noma_isac.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=60)
    assert run.returncode == 0 and run.stdout == b"False\n"


@pytest.mark.parametrize("argv", [["region", "--grid-n", "201"], ["outage", "--snr-db-step", "0.001"]])
def test_closed_stdout_stops_the_command_quietly(cfg_file, argv):
    # Each table is larger than a pipe buffer, so the command is still writing
    # when the reader closes stdout after one line, as `| head -1` does.
    env = {**os.environ, "PYTHONPATH": str(Path(noma_isac.__file__).resolve().parents[1])}
    with subprocess.Popen(
        [sys.executable, "-m", "noma_isac", *argv, "--config", cfg_file],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as child:
        assert child.stdout.readline().startswith(b"kind," if argv[0] == "region" else b"snr_db,")
        child.stdout.close()
        stderr = child.stderr.read()
        assert child.wait(timeout=60) == 1
    assert stderr == b""


def test_csv_uses_twelve_significant_digits(cfg_file, tmp_path):
    out = tmp_path / "ecr.csv"
    main(["ecr", "--config", cfg_file, "--output", str(out), "--snr-db-max", "5"])
    _, rows, _ = _read_csv(out)
    value = rows[0]["ecr_n_analytic"]
    assert len(value.replace("-", "").replace(".", "").replace("e", "").lstrip("0")) <= 13
    assert float(value) > 0.0


# ----------------------------------------------------------------- selftest

def test_selftest_passes_and_is_deterministic(cfg_file, capsys):
    rc1 = main(["selftest", "--config", cfg_file, "--trials", "100000", "--seed", "1"])
    report1 = capsys.readouterr().out
    rc2 = main(["selftest", "--config", cfg_file, "--trials", "100000", "--seed", "1"])
    report2 = capsys.readouterr().out
    assert rc1 == 0 and rc2 == 0
    assert report1 == report2
    assert report1.count("PASS") == 10
    assert "result: 10/10 checks passed" in report1


def test_selftest_gives_every_verdict_at_zero_far_target_rate(tmp_path, capsys):
    # The far user's closed-form outage is exactly 0: no log of it is taken.
    path = tmp_path / "zero_rate.cfg"
    path.write_text(dump_config(dataclasses.replace(CFG, target_rate_f=0.0)), encoding="utf-8")
    rc = main(["selftest", "--config", str(path), "--trials", "20000"])
    out, err = capsys.readouterr()
    assert "error:" not in out + err
    verdicts = [ln for ln in out.splitlines() if ln.startswith(("PASS  ", "FAIL  "))]
    assert len(verdicts) == 10 and rc in (0, 2)


def test_selftest_gives_every_verdict_at_a_subnormal_eigenvalue(tmp_path, capsys):
    # The sensing asymptote's SNR term underflows to 0 for the eigenvalue
    # 5e-324: no log of that 0 is taken.
    cfg = dataclasses.replace(CFG, sensing_eigenvalues=(5e-324, 9.97), frame_length=17, sigma2_s=5.54)
    path = tmp_path / "subnormal.cfg"
    path.write_text(dump_config(cfg), encoding="utf-8")
    rc = main(["selftest", "--config", str(path), "--trials", "20000"])
    out, err = capsys.readouterr()
    assert "error:" not in out + err
    verdicts = [ln for ln in out.splitlines() if ln.startswith(("PASS  ", "FAIL  "))]
    assert len(verdicts) == 10 and rc in (0, 2)


def test_selftest_rejects_corrupted_config(tmp_path, capsys):
    text = dump_config(CFG).replace("alpha_n = 0.2", "alpha_n = 0.8")
    text = text.replace("alpha_f = 0.8", "alpha_f = 0.2")
    path = tmp_path / "corrupt.cfg"
    path.write_text(text, encoding="utf-8")
    rc = main(["selftest", "--config", str(path)])
    assert rc == 1
    assert "alpha_n >= alpha_f" in capsys.readouterr().err
