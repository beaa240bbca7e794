import hashlib
import json

import pytest

from greedylab.harness import (ConfigError, ExperimentSpec, list_experiments,
                               parse_config, run_experiment)


def test_parse_minimal_config(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment = repro-parity\n")
    spec = parse_config(cfg)
    assert spec.experiment == "repro-parity"
    assert spec.params["n_max"] == 100
    assert spec.seed == 0


def test_parse_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment = repro-parity\nwhat = 3\n")
    with pytest.raises(ConfigError) as info:
        parse_config(cfg)
    assert "line 2" in str(info.value)


def test_parse_rejects_bad_ordinal(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment = repro-m31\nalpha = w^^2\n")
    with pytest.raises(ConfigError) as info:
        parse_config(cfg)
    assert "w^^2" in str(info.value)


def test_config_roundtrip_idempotent(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment = repro-m31\nseed = 4\nm_cap = 9\n")
    spec = parse_config(cfg)
    out = tmp_path / "echo.cfg"
    out.write_text(spec.to_text())
    spec2 = parse_config(out)
    assert spec2.to_text() == spec.to_text()


def test_list_experiments_complete():
    names = [name for name, _ in list_experiments()]
    assert names == sorted(["repro-kt-00", "repro-parity", "repro-l2sum",
                            "repro-james", "repro-walpha", "repro-m31"])


def test_run_parity_small_and_deterministic(tmp_path):
    spec = ExperimentSpec("repro-parity", {"n_max": 12})
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    summary = run_experiment(spec, out_a)
    assert summary["status"] == "PASS"
    run_experiment(spec, out_b)
    for name in ("repro-parity.csv", "repro-parity.summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_kt_small(tmp_path):
    spec = ExperimentSpec("repro-kt-00", {"n_min": 2, "n_max": 12})
    summary = run_experiment(spec, tmp_path)
    assert summary["status"] == "PASS"
    rows = (tmp_path / "repro-kt-00.csv").read_text().splitlines()
    assert rows[0] == "N,positive_norm,alternating_norm,ratio"
    assert len(rows) == 12


def test_run_l2sum_small(tmp_path):
    spec = ExperimentSpec("repro-l2sum", {"samples": 150, "size_cap": 40}, seed=5)
    summary = run_experiment(spec, tmp_path)
    assert summary["status"] == "PASS"


def test_run_m31_small(tmp_path):
    spec = ExperimentSpec("repro-m31", {"samples": 40, "m_cap": 12}, seed=1)
    summary = run_experiment(spec, tmp_path)
    assert summary["status"] == "PASS"


def test_run_james_small(tmp_path):
    spec = ExperimentSpec("repro-james", {"samples": 40, "witness_count": 2}, seed=2)
    summary = run_experiment(spec, tmp_path)
    assert summary["status"] == "PASS"
    data = (tmp_path / "repro-james.csv").read_text().splitlines()
    assert data[0] == "block_min,positive_norm,alternating_norm,ratio"


def test_run_walpha_two_blocks(tmp_path):
    spec = ExperimentSpec("repro-walpha", {"blocks": 2, "samples": 120}, seed=3)
    summary = run_experiment(spec, tmp_path)
    assert summary["status"] == "PASS"
    fam = json.loads((tmp_path / "repro-walpha.family.json").read_text())
    assert [b["start"] for b in fam["blocks"]] == [3, 24]


# SHA-256 of the outputs of `greedylab repro repro-walpha` at its defaults
# (4 blocks, n0 2, 500 samples, seed 0)
WALPHA_GOLDEN = {
    "repro-walpha.democracy.json":
        "141e3dce8574239dbc1186026b7afd0224f2d7af2a25bf0bd0e38b7d0c856db4",
    "repro-walpha.family.json":
        "1a6f316247146e5525561c9d68e57344a689c5a9686aac6a35890227ca0eaa35",
    "repro-walpha.summary.json":
        "6680bab9970cd89097e6205459149207aaa0711f01637768ce122518d71bce81",
}


def test_run_walpha_default_spec_golden(tmp_path):
    summary = run_experiment(ExperimentSpec("repro-walpha"), tmp_path)
    assert summary["status"] == "PASS"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(WALPHA_GOLDEN)
    for name, digest in WALPHA_GOLDEN.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
    checks = {c["name"]: c for c in summary["checks"]}
    assert checks["block-certificates"]["status"] == "PASS"
    assert len(checks["democracy-ratio-growth"]["ratios"]) == 4


def test_unknown_experiment_rejected(tmp_path):
    with pytest.raises(ConfigError):
        run_experiment(ExperimentSpec("repro-nope", {}), tmp_path)
