import dataclasses
import hashlib
import json
import math
from fractions import Fraction

import pytest

from greedylab import harness
from greedylab.config import BudgetExceeded
from greedylab.family_norms import jamesification_norm, weighted_schreier_norm
from greedylab.norms import kt_block_norm
from greedylab.harness import (ConfigError, ExperimentSpec, _csv_cell,
                               list_experiments, parse_config, run_experiment)
from greedylab.ordinals import Ordinal
from greedylab.rah import IndexStream, make_weight_family, rah_sequence
from greedylab.schreier import min_level_find
from greedylab.spaces import make_space
from greedylab.vectors import SparseVector


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


def _stored_summary(out_dir, experiment):
    return json.loads((out_dir / f"{experiment}.summary.json").read_text())


def test_run_james_failures_carry_their_witnesses(tmp_path, monkeypatch):
    # the reflected norm 12 - ||x|| grows where a greedy removal shrinks the
    # true norm, and puts the first alternating average above 12 / start
    monkeypatch.setattr(harness, "jamesification_norm",
                        lambda x: 12 - jamesification_norm(x))
    spec = ExperimentSpec("repro-james", {"samples": 5, "witness_count": 2}, seed=2)
    summary = run_experiment(spec, tmp_path)
    assert summary["status"] == "FAIL"
    assert _stored_summary(tmp_path, "repro-james")["status"] == "FAIL"
    removal, shrink = summary["checks"]
    assert (removal["name"], removal["status"]) == ("greedy-removal-never-grows", "FAIL")
    left = SparseVector.parse(removal["witness"]["vector"])
    assert removal["witness"]["removed"] not in left.entries
    assert removal["witness"]["after"] == 12 - jamesification_norm(left)
    assert removal["witness"]["after"] > removal["witness"]["before"] + 1e-12
    assert (shrink["name"], shrink["status"]) == ("alternating-average-shrinks", "FAIL")
    average = rah_sequence(Ordinal.from_int(2), IndexStream.naturals(3), 1)[0]
    alternating = SparseVector({i: (-1) ** i * a for i, a in average.entries.items()})
    assert shrink["witness"] == {"start": 3, "alt_norm":
                                 float(12 - jamesification_norm(alternating))}


def test_run_james_falling_ratio_fails_with_its_witness(tmp_path, monkeypatch):
    # halving the positive average's norm at start 4 (exact payloads only, so
    # the float greedy-removal vectors keep the true norm) drops the ratio
    # from 1 / (5/9) = 1.8 to (1/2) / (53/128), while both alternating norms
    # stay below 12 / start
    def halved(x):
        value = jamesification_norm(x)
        average = x.entries and not x.has_float_payload()
        if average and min(x.entries) == 4 and min(x.entries.values()) > 0:
            return value / 2
        return value

    monkeypatch.setattr(harness, "jamesification_norm", halved)
    spec = ExperimentSpec("repro-james", {"samples": 5, "witness_count": 2}, seed=2)
    summary = run_experiment(spec, tmp_path)
    assert summary["status"] == "FAIL"
    removal, shrink = summary["checks"]
    assert removal["status"] == "PASS"
    assert (shrink["name"], shrink["status"]) == ("alternating-average-shrinks", "FAIL")
    assert shrink["witness"] == {"start": 4, "ratio": float(Fraction(64, 53)),
                                 "prev": 1.8}


def test_run_james_budget_rows(tmp_path, monkeypatch):
    # the first average refused: no norms; the second one's alternating norm
    # refused: its positive norm only
    calls = []

    def first_refused(*args):
        calls.append(args)
        if len(calls) == 1:
            raise BudgetExceeded("average refused")
        return rah_sequence(*args)

    def alternating_refused(x):
        if x.entries and not x.has_float_payload() and min(x.entries.values()) < 0:
            raise BudgetExceeded("norm refused")
        return jamesification_norm(x)

    monkeypatch.setattr(harness, "rah_sequence", first_refused)
    monkeypatch.setattr(harness, "jamesification_norm", alternating_refused)
    spec = ExperimentSpec("repro-james", {"samples": 5, "witness_count": 2}, seed=2)
    summary = run_experiment(spec, tmp_path)
    rows = (tmp_path / "repro-james.csv").read_text().splitlines()
    assert rows[1:] == ["3,BUDGET,,", "4,1/1,BUDGET,"]  # the norm is Fraction(1)
    # a refused row is left out of the check, which reads BUDGET: it passed
    # on what it read, but not every row was read
    assert [c["status"] for c in summary["checks"]] == ["PASS", "BUDGET"]
    assert summary["status"] == "BUDGET"
    assert _stored_summary(tmp_path, "repro-james")["status"] == "BUDGET"
    assert len(calls) == 2


def test_run_parity_inconsistent_norms_carry_their_witness(tmp_path, monkeypatch):
    # a parity norm doubled on sets of 3 or more points leaves the ratio at
    # sqrt(N) but breaks the norms' closed forms from N = 3 on
    def doubled(descriptor):
        space = make_space(descriptor)
        return dataclasses.replace(space, evaluate=lambda x, want=False: (
            2 if len(x.entries) >= 3 else 1) * space.evaluate(x))

    monkeypatch.setattr(harness, "make_space", doubled)
    spec = ExperimentSpec("repro-parity", {"n_max": 6})
    summary = run_experiment(spec, tmp_path)
    assert summary["status"] == "FAIL"
    [check] = summary["checks"]
    assert (check["name"], check["status"]) == ("ratio-is-sqrt", "FAIL")
    assert check["witness"] == {"N": 3, "ratio": math.sqrt(3),
                                "expected": math.sqrt(3), "norms_consistent": False}


def test_run_walpha_failures_carry_their_witnesses(tmp_path, monkeypatch):
    # a weighted norm tripled on vectors starting at 24 or later: e_24 has
    # norm 3, and the first sampled set starting there has norm >= 3
    def tripled(x, family):
        value = weighted_schreier_norm(x, family)
        return 3 * value if min(x.entries) >= 24 else value

    monkeypatch.setattr(harness, "weighted_schreier_norm", tripled)
    spec = ExperimentSpec("repro-walpha", {"blocks": 2, "samples": 20}, seed=3)
    summary = run_experiment(spec, tmp_path)
    assert summary["status"] == "FAIL"
    checks = {c["name"]: c for c in summary["checks"]}
    basis = checks["unit-vectors-normalized"]
    assert (basis["status"], basis["witness"]) == ("FAIL", {"n": 24, "norm": 3.0})
    sampled = checks["small-family-sets-bounded"]
    assert sampled["status"] == "FAIL"
    A = sampled["witness"]["A"]
    family = make_weight_family(Ordinal.from_int(1), 2, 2)
    value = float(tripled(SparseVector.indicator(A, 1), family))
    assert sampled["witness"]["norm"] == value == sampled["value"] >= 3
    assert checks["block-certificates"]["status"] == "PASS"


def test_run_m31_failure_carries_its_witness(tmp_path, monkeypatch):
    # a level search that gives up on every set of 3 or more points
    def short_sighted(S, alpha, cap):
        return None if len(S) >= 3 else min_level_find(S, alpha, cap)

    monkeypatch.setattr(harness, "min_level_find", short_sighted)
    spec = ExperimentSpec("repro-m31", {"samples": 10, "m_cap": 12}, seed=1)
    summary = run_experiment(spec, tmp_path)
    assert summary["status"] == "FAIL"
    [check] = summary["checks"]
    assert (check["name"], check["status"]) == ("every-high-set-joins-a-level", "FAIL")
    rows = [row.split(",") for row in
            (tmp_path / "repro-m31.csv").read_text().splitlines()[1:]]
    unplaced = [tuple(map(int, s.split(";"))) for _, s, m in rows if m == ""]
    assert unplaced and all(len(S) >= 3 for S in unplaced)
    assert tuple(check["witness"]["set"]) == unplaced[0]


def test_run_l2sum_failure_carries_its_witness(tmp_path, monkeypatch):
    # a tripled ktsum:l2 norm is at least 3 sqrt|A|, over the upper bound
    # 2 sqrt|A|, so the first case fails
    def tripled(descriptor):
        space = make_space(descriptor)
        return dataclasses.replace(
            space, evaluate=lambda x, want=False: 3 * space.evaluate(x))

    monkeypatch.setattr(harness, "make_space", tripled)
    spec = ExperimentSpec("repro-l2sum", {"samples": 4, "size_cap": 10}, seed=5)
    summary = run_experiment(spec, tmp_path)
    assert summary["status"] == "FAIL"
    assert _stored_summary(tmp_path, "repro-l2sum")["status"] == "FAIL"
    [check] = summary["checks"]
    assert (check["name"], check["status"]) == ("two-sided-democracy", "FAIL")
    A = check["witness"]["A"]
    assert check["witness"]["case"] == 0
    norm = make_space("ktsum:l2").norm(SparseVector.indicator(A, 1.0))
    assert check["witness"]["norm"] == 3 * norm > 2 * math.sqrt(len(A))
    rows = (tmp_path / "repro-l2sum.csv").read_text().splitlines()
    assert [row.rsplit(",", 1)[1] for row in rows[1:]] == ["0"] * 4


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


# SHA-256 of the outputs of `greedylab repro repro-l2sum` at its defaults
# (2000 samples, size cap 200, seed 0)
L2SUM_GOLDEN = {
    "repro-l2sum.csv":
        "dd23c43d20646dfe6bae6c56c55093b436b35e8de80207b0bfda6c345ce01441",
    "repro-l2sum.summary.json":
        "9d7892ac564ca659d83662b94e522135af495634244cac48eb7ee68c6d2e228f",
}


def test_run_l2sum_default_spec_golden(tmp_path):
    summary = run_experiment(ExperimentSpec("repro-l2sum"), tmp_path)
    assert summary["status"] == "PASS"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(L2SUM_GOLDEN)
    for name, digest in L2SUM_GOLDEN.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


# SHA-256 of the outputs of `greedylab repro <name>` at each experiment's
# defaults (seed 0)
DEFAULT_GOLDENS = {
    "repro-kt-00": {
        "repro-kt-00.csv":
            "26fd6a53dc5ff831da7e4015ec46421e7df54390e7de57a60258a6d661fe4315",
        "repro-kt-00.summary.json":
            "d6f77bfbba779b478af5d6117d3d6206982b791742a2ddc2d6f2e56067c5d192",
    },
    "repro-parity": {
        "repro-parity.csv":
            "7e459c0a41e02d6a2117cb4213ece79e587e049dd4fde273f1271c7945695d0b",
        "repro-parity.summary.json":
            "b954a20c2b7efc6bcccc4f992c07247259f697cde26affd75f16d7533e7333b5",
    },
    "repro-james": {
        "repro-james.csv":
            "31d25457fc7cde2478840172964fde9c3f903de5e42ec95948c00c6ecb6e69dd",
        "repro-james.summary.json":
            "5f96c37e4bec0ef177ef8214480f1ef183aa26827edae0c19a6d1c79f2216e7f",
    },
    "repro-m31": {
        "repro-m31.csv":
            "4b640e425ebb114db8ad685ac7f56ffdc3c4ddf6ed33609c68ef4a0787d7a076",
        "repro-m31.summary.json":
            "bc79e1b738fd22b5a8bca343158f0bef712998b55068c8c0eb6518a483c38874",
    },
}


@pytest.mark.parametrize("experiment", sorted(DEFAULT_GOLDENS))
def test_default_spec_golden(experiment, tmp_path):
    golden = DEFAULT_GOLDENS[experiment]
    summary = run_experiment(ExperimentSpec(experiment), tmp_path)
    assert summary["status"] == "PASS"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(golden)
    for name, digest in golden.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_run_kt_00_failure_carries_its_witness(tmp_path, monkeypatch):
    # a window norm off by a relative 1e-9 from N = 9 on misses the positive
    # closed form H_N; the range starts at 5, so the harmonic starts at H_4
    def skewed(x, N):
        value = kt_block_norm(x, N)
        return value * (1 + 1e-9) if N >= 9 else value

    monkeypatch.setattr(harness, "kt_block_norm", skewed)
    spec = ExperimentSpec("repro-kt-00", {"n_min": 5, "n_max": 20})
    summary = run_experiment(spec, tmp_path)
    assert summary["status"] == "FAIL"
    assert _stored_summary(tmp_path, "repro-kt-00")["status"] == "FAIL"
    [check] = summary["checks"]
    assert (check["name"], check["status"]) == ("closed-forms", "FAIL")
    witness = check["witness"]
    assert witness["N"] == 9
    assert witness["harmonic"] == float(sum(Fraction(1, i) for i in range(1, 10)))
    positive = SparseVector({i: 1.0 / math.sqrt(i - 8) for i in range(9, 18)})
    assert witness["positive"] == skewed(positive, 9)


def test_unknown_experiment_rejected(tmp_path):
    with pytest.raises(ConfigError):
        run_experiment(ExperimentSpec("repro-nope", {}), tmp_path)


def test_missing_config_is_a_config_error(tmp_path):
    # a FileNotFoundError escaped before
    with pytest.raises(ConfigError, match="cannot read the config"):
        parse_config(tmp_path / "no_such.cfg")
    with pytest.raises(ConfigError):
        parse_config(tmp_path)  # a directory


def test_parse_config_errors_name_their_line(tmp_path):
    cfg = tmp_path / "exp.cfg"
    for text, message in (
            ("experiment = repro-m31\nsamples 3\n",
             "line 2: expected `key = value`, got 'samples 3'"),
            ("# seeded\nexperiment = repro-m31\nseed = one\n",
             "line 3: seed must be an integer, got 'one'"),
            ("seed = 3\n", "config names no experiment"),
            ("experiment = repro-nope\n", "unknown experiment 'repro-nope'")):
        cfg.write_text(text)
        with pytest.raises(ConfigError) as info:
            parse_config(cfg)
        assert str(info.value) == message


def test_json_writes_fractions_as_num_den_pairs(tmp_path):
    # a numerator past 63 bits becomes its descriptor, as a big int does
    big = 2**70 + 1
    payload = {"ratio": Fraction(-3, 4), 7: [Fraction(big, 3)]}
    assert json.loads(harness.json_text(payload)) == {
        "ratio": {"num": -3, "den": 4},
        "7": [{"num": {"bit_length": 71, "hex_head": "8000000000000000"},
               "den": 3}]}
    harness.write_json(tmp_path / "out.json", payload)
    assert (tmp_path / "out.json").read_text() == harness.json_text(payload) + "\n"
    # a negative one heads its magnitude, signed
    assert json.loads(harness.json_text({"r": Fraction(-big, 3)})) == {
        "r": {"num": {"bit_length": 71, "hex_head": "-8000000000000000"},
              "den": 3}}


def test_unknown_parameter_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown parameters"):
        run_experiment(ExperimentSpec("repro-parity", {"n_maxx": 3}), tmp_path)


def test_config_values_parse_as_their_defaults(tmp_path):
    # an int default parses as an int, a text default as an ordinal
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment = repro-m31\nalpha = w^2 + 1\nm_cap = 7\n")
    assert parse_config(cfg).params == {"alpha": "w^2 + 1", "m_cap": 7,
                                        "samples": 200}
    for line, message in (
            ("m_cap = w", "line 2: bad value for 'm_cap': invalid literal for "
                          "int() with base 10: 'w'"),
            ("m_cap = 2.5", "line 2: bad value for 'm_cap': invalid literal for "
                            "int() with base 10: '2.5'"),
            ("beta = 3", "line 2: unknown key 'beta' for repro-m31")):
        cfg.write_text(f"experiment = repro-m31\n{line}\n")
        with pytest.raises(ConfigError) as info:
            parse_config(cfg)
        assert str(info.value) == message


def test_negative_integer_parameters_rejected(tmp_path):
    # samples = -5 passed, over a header-only CSV
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment = repro-l2sum\nsamples = -5\n")
    for spec, message in (
            (parse_config(cfg), "'samples' of repro-l2sum must be at least 0, got -5"),
            (ExperimentSpec("repro-walpha", {"n0": -1}),
             "'n0' of repro-walpha must be at least 0, got -1"),
            (ExperimentSpec("repro-m31", {"samples": -1, "m_cap": -2}),
             "'m_cap' of repro-m31 must be at least 0, got -2")):
        with pytest.raises(ConfigError) as info:
            run_experiment(spec, tmp_path / "out")
        assert str(info.value) == "parameter " + message
    assert not (tmp_path / "out").exists()
    summary = run_experiment(ExperimentSpec("repro-l2sum", {"samples": 0}), tmp_path)
    assert summary["status"] == "PASS"


def test_parameters_of_the_wrong_type_are_refused(tmp_path):
    # raised TypeError or OrdinalError from inside the runner, after the
    # output directory existed; samples = True ran as 1
    for spec, message in (
            (ExperimentSpec("repro-l2sum", {"samples": "5"}),
             "parameter 'samples' of repro-l2sum must be an integer, got '5'"),
            (ExperimentSpec("repro-l2sum", {"samples": 2.5}),
             "parameter 'samples' of repro-l2sum must be an integer, got 2.5"),
            (ExperimentSpec("repro-l2sum", {"samples": True}),
             "parameter 'samples' of repro-l2sum must be an integer, got True"),
            (ExperimentSpec("repro-m31", {"alpha": 3}),
             "parameter 'alpha' of repro-m31 must be an ordinal's text, got 3"),
            (ExperimentSpec("repro-m31", {"alpha": "w^"}),
             "parameter 'alpha' of repro-m31: bad ordinal token 'w^' in 'w^'")):
        with pytest.raises(ConfigError) as info:
            run_experiment(spec, tmp_path / "out")
        assert str(info.value) == message
    assert not (tmp_path / "out").exists()
    # the types parse_config reads stay valid
    spec = ExperimentSpec("repro-m31", {"alpha": "w^2 + 1", "samples": 3})
    assert run_experiment(spec, tmp_path / "ok")["status"] == "PASS"


def test_parameters_a_runner_cannot_run_are_refused(tmp_path):
    for spec, message in (
            (ExperimentSpec("repro-kt-00", {"n_min": 10, "n_max": 5}),
             "parameters 'n_min' = 10 and 'n_max' = 5 of repro-kt-00 leave "
             "nothing to run: 'n_min' must not exceed 'n_max'"),
            (ExperimentSpec("repro-kt-00", {"n_min": 0}),
             "parameter 'n_min' of repro-kt-00 must be at least 1, got 0"),
            (ExperimentSpec("repro-walpha", {"n0": 0}),
             "parameter 'n0' of repro-walpha must be at least 1, got 0"),
            (ExperimentSpec("repro-walpha", {"blocks": 0, "n0": 0}),
             "parameter 'blocks' of repro-walpha must be at least 1, got 0"),
            (ExperimentSpec("repro-l2sum", {"size_cap": 0}),
             "parameter 'size_cap' of repro-l2sum must be at least 1, got 0")):
        with pytest.raises(ConfigError) as info:
            run_experiment(spec, tmp_path / "out")
        assert str(info.value) == message
    assert not (tmp_path / "out").exists()
    # one-point ranges and zero counts the runners can run stay valid
    for spec in (ExperimentSpec("repro-kt-00", {"n_min": 1, "n_max": 1}),
                 ExperimentSpec("repro-walpha", {"blocks": 1, "n0": 1,
                                                 "samples": 0}),
                 ExperimentSpec("repro-l2sum", {"size_cap": 1, "samples": 3})):
        assert run_experiment(spec, tmp_path / "ok")["status"] == "PASS"


def test_walpha_family_past_the_cap_is_a_budget_status(tmp_path):
    # the fifth block would start past a start of 402653213 bits
    summary = run_experiment(ExperimentSpec("repro-walpha", {"blocks": 5}),
                             tmp_path)
    assert summary["status"] == "BUDGET"
    [check] = summary["checks"]
    assert check["name"] == "family-construction"
    assert check["witness"].startswith("cannot place block 5")


def test_csv_cells():
    assert _csv_cell(1 << 70) == "bits:71"
    assert _csv_cell((1 << 63) - 1) == str((1 << 63) - 1)
    assert _csv_cell(Fraction(1 << 70, 3)) == "bits:71/3"
    assert _csv_cell(0.1) == "0.1" and _csv_cell(True) == "True"
