"""tests/table_diff.py judges Monte Carlo cells against the exact statistics
of the same trials."""

import json

import table_diff
from noma_isac import ISAC, baseline_config, db_to_linear, gain_samples
from noma_isac.cli import dump_config, main


def test_monte_carlo_cells_get_a_verdict(tmp_path, capsys):
    # Of two `ecr` tables, the new one has one ecr_n_mc cell set to its
    # reference and one ecr_f_mc cell moved 1e-9 relative away from it.
    cfg = baseline_config()
    config = tmp_path / "system.cfg"
    config.write_text(dump_config(cfg), encoding="utf-8")
    old = tmp_path / "old.json"
    assert main(["ecr", "--config", str(config), "--format", "json", "--trials", "2000",
                 "--output", str(old)]) == 0
    doc = json.loads(old.read_text(encoding="utf-8"))
    meta, near, far = doc["metadata"], doc["rows"][1], doc["rows"][6]
    gains = gain_samples(cfg, meta["seed"], 0, meta["trials"])
    with table_diff.mpmath.workdps(50):
        exact_n = table_diff.sample_columns(cfg, ISAC, db_to_linear(near["snr_db"]), *gains)
        exact_f = table_diff.sample_columns(cfg, ISAC, db_to_linear(far["snr_db"]), *gains)
    assert near["ecr_n_mc"] != float(exact_n["ecr_n_mc"])
    near["ecr_n_mc"] = float(exact_n["ecr_n_mc"])
    cell = far["ecr_f_mc"]
    far["ecr_f_mc"] = cell * (1.0 + 1e-9 if cell >= exact_f["ecr_f_mc"] else 1.0 - 1e-9)
    new = tmp_path / "new.json"
    new.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert table_diff.main([str(old), str(new), "--config", str(config)]) == 0
    changed = [line.split() for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    verdicts = {(line[0], line[1]): " ".join(line[5:]) for line in changed}
    assert verdicts[str(far["snr_db"]), "ecr_f_mc"] == "farther"
    assert verdicts[str(near["snr_db"]), "ecr_n_mc"] in ("closer", "as far")
    assert len(verdicts) == 2
