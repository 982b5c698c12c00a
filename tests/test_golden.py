"""Byte-level guard on what the package writes.

Each CLI data file and the stdout of each demo is pinned by its SHA-256
digest.  A refactor that keeps the numbers keeps these digests; a change
that moves any output byte has to update the digest here on purpose.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import noma_isac
from noma_isac.cli import dump_config, main
from noma_isac.config import baseline_config

_DEMOS = Path(__file__).resolve().parents[1] / "demos"
_SPLIT = ("--mode", "fdsac", "--kappa", "0.5", "--mu", "0.5")


def _sweep(command, fmt, split, trials):
    return (command, "--format", fmt, *(_SPLIT if split else ()), "--trials", str(trials))


_TABLES = {
    "outage-csv-isac-0": (
        _sweep("outage", "csv", False, 0),
        "62d583cedde308595ea2a98933e0321f39231c6374ebcc62865767ba962c578e",
    ),
    "outage-csv-isac-20000": (
        _sweep("outage", "csv", False, 20000),
        "6933ebd9b7dcc179ffb20c36706006af0a43d8a6c0d452da3f4d46d90076cd56",
    ),
    "outage-csv-fdsac-0": (
        _sweep("outage", "csv", True, 0),
        "8a261c2f81d1b31a82979c094f2039d754087d53dd9a057687b79d97971fd2e6",
    ),
    "outage-csv-fdsac-20000": (
        _sweep("outage", "csv", True, 20000),
        "3d87251bb96c27d0c40cafcc21896e70dd08db07f2de896310c4aa3a4f5d01f7",
    ),
    "outage-json-isac-0": (
        _sweep("outage", "json", False, 0),
        "943506e7bc3adc3e717c2b52a37edb732c883d1a17ba147a11c6b3613c0d6074",
    ),
    "outage-json-isac-20000": (
        _sweep("outage", "json", False, 20000),
        "2f4067aa9df0df902fa584611e5e1941ec45f3e7cacb12484a3022e6b02bcdd1",
    ),
    "outage-json-fdsac-0": (
        _sweep("outage", "json", True, 0),
        "bd5f04a56e5886dc75f4ceb9bc0fd598d89ed035b8319f19f83d913fef41c801",
    ),
    "outage-json-fdsac-20000": (
        _sweep("outage", "json", True, 20000),
        "d9d87f396a2d6a2643aa22cc086636fb9b280ebdb34610b357b7a4ce0b7ea6a8",
    ),
    "ecr-csv-isac-0": (
        _sweep("ecr", "csv", False, 0),
        "42ae6dfb9f4b7ef3a90ad2159605fa1ffe6cd95504153dfada7088e1f1b409fc",
    ),
    "ecr-csv-isac-20000": (
        _sweep("ecr", "csv", False, 20000),
        "6624c60102e44d7fb817f46e6f8422e7ac8ae2d3a98b542aa9d4f75b68cefaa4",
    ),
    "ecr-csv-fdsac-0": (
        _sweep("ecr", "csv", True, 0),
        "d48a8aafe8db7a7e23cb87e5fb692bbc063722d2464649ccb46c14ee79d22dd8",
    ),
    "ecr-csv-fdsac-20000": (
        _sweep("ecr", "csv", True, 20000),
        "21225dd87c4477679111f76208cd03f0af5d98226980d729f7669f972d781817",
    ),
    "ecr-json-isac-0": (
        _sweep("ecr", "json", False, 0),
        "b2a532337c63c68a4eed34e8209974c51782ffc8f7c7f968f340a4e607525b44",
    ),
    "ecr-json-isac-20000": (
        _sweep("ecr", "json", False, 20000),
        "f91ee737ae2a017e13dba4ef2084f4b20c5cc1ab331d9539eac1bf0fb0d8c34b",
    ),
    "ecr-json-fdsac-0": (
        _sweep("ecr", "json", True, 0),
        "36f2e8ed844223c926a9d2e3a3d1a9745ad66ab80de60e6c27726473a76a760d",
    ),
    "ecr-json-fdsac-20000": (
        _sweep("ecr", "json", True, 20000),
        "f35b422879e807938eac0034a4535d9cd9823b5353eccbda9313561af4f3ec22",
    ),
    "sensing-csv": (
        ("sensing", "--format", "csv"),
        "c4f5a6a4a79ad61e0fdde686a1101a038605d48671e5f6d0a5aeba8088e6f6aa",
    ),
    "sensing-json": (
        ("sensing", "--format", "json"),
        "6115fc7cda026287b31b7e920e757b08896247016c041b3850d2c9b275fd7cb2",
    ),
    "region-csv": (
        ("region", "--format", "csv", "--grid-n", "21"),
        "3778b741cf55e08db975bfcdda6d4640cb45eafd935b45dfdb8f8d366b7f7207",
    ),
    "region-json": (
        ("region", "--format", "json", "--grid-n", "21"),
        "6478e22e90388c6a8cbbbfb280c01e98a360ba9770512a356a59ba4749e195df",
    ),
    # The benchmarked region_grid output (perfbench/digests.json).
    "region-csv-401": (
        ("region", "--format", "csv", "--p-db", "5", "--grid-n", "401"),
        "0c93e38331244904d726194618ca2f7f53b206c22a61080c047f34f31d1e8ed5",
    ),
    # The largest powers whose squares, in the outage asymptote, stay finite.
    "outage-csv-1540db-0": (
        ("outage", "--snr-db-min", "1540", "--snr-db-max", "1540"),
        "710c899bdce6b5a47c4c3e37a5546f19c569e1a2a655e386a3e60f6019f4c84f",
    ),
    "outage-csv-1540db-1000": (
        ("outage", "--snr-db-min", "1540", "--snr-db-max", "1540", "--trials", "1000"),
        "f366cd6ab5bf98fec1d309e96795f6ac12ff0abb8b4f69f3c672b07a6d5c869a",
    ),
}

_DEMO_STDOUT = {
    "communication_performance": "011b6ea01f0d55fb76cc5156cdc4cb80247840fb926a924ec381e3a747307b8f",
    "rate_region": "6b9c1350fcc96c07472985d987ea6cec1939fbe19a34d4f8165fd4d0075d05ff",
    "reproducible_simulation": "ab64afd45f561e6df6d06c0c1ef55627a7a01e0d71f43512efd7efc1ca5c744c",
    "sensing_performance": "b2d6b08ad21b51702ae795fbbb2b231e5349a8611ff89e1d0a73024a06e099a8",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", sorted(_TABLES))
def test_cli_table_bytes_are_pinned(case, tmp_path):
    argv, digest = _TABLES[case]
    cfg = tmp_path / "system.cfg"
    cfg.write_text(dump_config(baseline_config()), encoding="utf-8")
    out = tmp_path / "table"
    assert main([*argv, "--config", str(cfg), "--output", str(out)]) == 0
    assert _sha256(out.read_bytes()) == digest


@pytest.mark.parametrize("demo", sorted(_DEMO_STDOUT))
def test_demo_stdout_is_pinned(demo):
    env = {**os.environ, "PYTHONPATH": str(Path(noma_isac.__file__).resolve().parents[1])}
    run = subprocess.run(
        [sys.executable, "-W", "error", str(_DEMOS / f"{demo}.py")],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert run.returncode == 0
    assert run.stderr == b""
    assert _sha256(run.stdout) == _DEMO_STDOUT[demo]
