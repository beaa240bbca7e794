import json

from greedylab.cli import main
from greedylab.ordinals import parse_ordinal
from greedylab.schreier import schreier_member
from greedylab.vectors import SparseVector

TWO = parse_ordinal("2")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_family_check(capsys):
    code, out = run_cli(capsys, "family", "check", "--family", "s:w+1",
                        "--set", "3,4,5")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"family": "s:w + 1", "set": [3, 4, 5], "member": True}


def test_family_enumerate(capsys, tmp_path):
    out_csv = tmp_path / "sets.csv"
    code, out = run_cli(capsys, "family", "enumerate", "--family", "f:1",
                        "--universe", "4", "--max-size", "2",
                        "--out", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "set,member"
    table = {row.split(",")[0]: row.split(",")[1] for row in lines[1:]}
    assert table[""] == "1"
    assert table["1;2"] == "1"
    assert table["1;2"] == "1" and table["3;4"] == "1"


def test_norm_eval(capsys):
    code, out = run_cli(capsys, "norm", "eval", "--space", "james:a=1",
                        "--vec", "3:1,4:-0.5,5:1")
    assert code == 0
    payload = json.loads(out)
    assert payload["space"] == "james:a=1"
    assert payload["norm"] == 2.5
    # the interval functional: the signs of the chain's interval sums
    assert payload["functional"] == "3:1,4:-1,5:1"

    code, out = run_cli(capsys, "norm", "eval", "--space", "james:a=2",
                        "--vec", "3:1,4:-0.5,5:1,9:2,10:-1")
    assert code == 0
    payload = json.loads(out)
    assert payload["norm"] == 5.5
    assert payload["functional"] == "3:1,4:-1,5:1,9:1,10:-1"

    # every space prints its norming functional
    code, out = run_cli(capsys, "norm", "eval", "--space", "kt:N=2",
                        "--vec", "1:3,3:-4")
    assert code == 0
    payload = json.loads(out)
    f = SparseVector.parse(payload["functional"])
    assert payload["norm"] == 5.0 and f.support == (1, 3)
    assert abs(3 * f.get(1) - 4 * f.get(3) - 5.0) <= 1e-12

    # the level-2 sup norm's functional is the signs of x on a member
    # attaining it; the support is not itself a member, so the value comes
    # from the window DP
    vec = {2: 5, 3: -1, 4: 2, 5: 1, 6: 3, 7: 1, 8: 2, 9: 1, 10: 4, 11: 1, 12: 1}
    code, out = run_cli(capsys, "norm", "eval", "--space", "schreier:a=2",
                        "--vec", ",".join(f"{i}:{v}" for i, v in vec.items()))
    assert code == 0
    payload = json.loads(out)
    assert payload["norm"] == 19
    f = SparseVector.parse(payload["functional"])
    assert schreier_member(f.support, TWO)
    assert sum(abs(vec[i]) for i in f.support) == 19
    assert all(f.get(i) * vec[i] > 0 for i in f.support)


def test_tga_run(capsys):
    code, out = run_cli(capsys, "tga", "run", "--space", "parity",
                        "--vec", "1:2,2:-3,5:1", "--m", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["greedy_set"] == [1, 2]
    assert payload["residual"] == "5:1"


def test_constants_estimate(capsys, tmp_path):
    out_json = tmp_path / "est.json"
    code, out = run_cli(capsys, "constants", "estimate", "--space", "parity",
                        "--family", "s:1", "--name", "Cd", "--samples", "40",
                        "--seed", "7", "--out", str(out_json))
    assert code == 0
    payload = json.loads(out_json.read_text())
    assert payload["constant"] == "Cd"
    assert payload["lower_bound"] >= 1.0
    assert "witness" in payload and "spec" in payload


def test_theorems_check_writes_the_printed_report(capsys, tmp_path):
    out_json = tmp_path / "report.json"
    code, out = run_cli(capsys, "theorems", "check", "--space", "parity",
                        "--out", str(out_json))
    assert code == 0
    report = json.loads(out)
    assert [(c["name"], c["status"]) for c in report["checks"]] == [
        ("greedy-ratio-recorded", "RECORDED"),
        ("sign-flip-comparability", "RECORDED"),
        ("grid-constant-equality", "PASS")]
    assert out_json.read_text() == out


def test_rah_build_and_ppp1(capsys, tmp_path):
    out_json = tmp_path / "rah.json"
    code, _ = run_cli(capsys, "rah", "build", "--alpha", "2", "--min", "3",
                      "--blocks", "1", "--out", str(out_json))
    assert code == 0
    payload = json.loads(out_json.read_text())
    assert payload["blocks"][0]["support"] == [3, 23]
    assert payload["certificates"]["l1_mass_one"] is True

    code, out = run_cli(capsys, "rah", "ppp1", "--alpha", "1", "--beta", "2",
                        "--N", "2")
    assert code == 0
    cert = json.loads(out)
    assert cert["holds"] is True and cert["L_min"] == 3


def test_rah_build_budget_exit_code(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("GREEDYLAB_BUDGET", "50")
    out_json = tmp_path / "rah.json"
    code, _ = run_cli(capsys, "rah", "build", "--alpha", "2", "--min", "3",
                      "--blocks", "2", "--out", str(out_json))
    assert code == 3
    payload = json.loads(out_json.read_text())
    assert "budget_error" in payload


def test_repro_and_list(capsys, tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("experiment = repro-parity\nn_max = 9\n")
    code, out = run_cli(capsys, "repro", "--config", str(cfg), "--out",
                        str(tmp_path / "out"))
    assert code == 0
    summary = json.loads(out)
    assert summary["status"] == "PASS"

    code, out = run_cli(capsys, "list")
    assert code == 0
    assert "repro-parity" in out


def test_cli_error_paths(capsys):
    code, _ = run_cli(capsys, "family", "check", "--family", "nope:1",
                      "--set", "1")
    assert code == 2
    # domain, ordinal and greedy errors end as one error line, not a traceback
    for argv in (("norm", "eval", "--space", "bogus", "--vec", "1:1"),
                 ("norm", "eval", "--space", "kt:N=2", "--vec", "9:1"),
                 ("family", "check", "--family", "s:zz", "--set", "1"),
                 ("constants", "estimate", "--space", "parity", "--family",
                  "s:1", "--name", "Zz"),
                 ("tga", "run", "--space", "parity", "--vec", "1:1", "--m", "-1"),
                 ("theorems", "check", "--space", "kt:N=0")):
        assert main(list(argv)) == 2
        assert capsys.readouterr().err.startswith("error: ")
