"""Command-line surface: config parsing, table schemas, determinism, and
exit codes."""

import json
import math

import pytest

from noma_isac import cli
from noma_isac.cli import dump_config, load_config_file, main
from noma_isac.config import baseline_config

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


def test_missing_config_file_exits_one(tmp_path, capsys):
    rc = main(["outage", "--config", str(tmp_path / "nope.cfg"), "--output", "-"])
    assert rc == 1
    assert "cannot read config file" in capsys.readouterr().err


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
        # kappa * sigma2_c is subnormal, and the per-trial SNR overflows.
        (["ecr", "--mode", "fdsac", "--kappa", "1e-320", "--trials", "1000"], "--kappa"),
        (["outage", "--mode", "fdsac", "--kappa", "1e-308", "--trials", "1000"], "--kappa"),
        (["region", "--grid-n", "1"], "--grid-n"),
        (["region", "--grid-n", "-3"], "--grid-n"),
    ],
)
def test_out_of_range_options_exit_one(cfg_file, capsys, argv, option):
    rc = main([argv[0], "--config", cfg_file, *argv[1:]])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {option} ") and err.count("\n") == 1


@pytest.mark.parametrize("error", [MemoryError(), MemoryError("Unable to allocate 18.6 GiB")])
def test_out_of_memory_exits_one_with_one_line(cfg_file, tmp_path, capsys, monkeypatch, error):
    # A grid too large for the host; no huge grid is allocated here.
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "fdsac_frontier", fail)
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
    assert captured.err.startswith("error: --snr-db-max 3080 dB is out of range")
    assert captured.err.count("\n") == 1
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


# -------------------------------------------------------------- determinism

def test_outputs_are_byte_deterministic(cfg_file, tmp_path):
    # Seven points: two and four workers give uneven slices of the grid.
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


class _InlinePool:
    # Stands in for ProcessPoolExecutor: records max_workers, starts nothing.
    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("workers,started", [(1, []), (2, [2]), (3, [3]), (50, [3])])
def test_workers_start_at_most_one_process_per_point(
    cfg_file, tmp_path, monkeypatch, workers, started
):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    args = ["ecr", "--config", cfg_file, "--trials", "2000", "--snr-db-max", "10"]
    serial, sliced = tmp_path / "serial.csv", tmp_path / "sliced.csv"
    assert main(args + ["--output", str(serial)]) == 0
    assert _InlinePool.sizes == []
    assert main(args + ["--output", str(sliced), "--workers", str(workers)]) == 0
    assert _InlinePool.sizes == started
    assert sliced.read_bytes() == serial.read_bytes()


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


def test_selftest_rejects_corrupted_config(tmp_path, capsys):
    text = dump_config(CFG).replace("alpha_n = 0.2", "alpha_n = 0.8")
    text = text.replace("alpha_f = 0.8", "alpha_f = 0.2")
    path = tmp_path / "corrupt.cfg"
    path.write_text(text, encoding="utf-8")
    rc = main(["selftest", "--config", str(path)])
    assert rc == 1
    assert "alpha_n >= alpha_f" in capsys.readouterr().err
