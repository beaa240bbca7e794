import hashlib
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


def test_rah_build_refuses_a_deep_limit_level(capsys, tmp_path):
    out_json = tmp_path / "rah.json"
    code, out = run_cli(capsys, "rah", "build", "--alpha", "w+2", "--min", "2",
                        "--blocks", "1", "--out", str(out_json))
    assert code == 3
    payload = json.loads(out_json.read_text())
    assert payload == json.loads(out)
    assert payload["blocks"] == []
    assert payload["budget_error"].startswith("support budget 100000 exhausted")


def test_rah_ppp1_budget_exit_code(capsys):
    # the same BudgetExceeded exits 3 from rah build; ppp1 exited 2, the code
    # of a bad argument
    assert main(["rah", "ppp1", "--alpha", "w", "--beta", "w+1", "--N", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: support budget 100000 exhausted")


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


def test_cli_error_paths(capsys, tmp_path):
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
                 ("theorems", "check", "--space", "kt:N=0"),
                 # malformed vectors and a missing config ended in a
                 # traceback and exit code 1, or were accepted
                 *(("norm", "eval", "--space", "parity", "--vec", vec)
                   for vec in ("1:1/0", "1:x/2", "1:inf", "1:1,1:2")),
                 ("repro", "--config", str(tmp_path / "no" / "such.cfg")),
                 # negative counts built nothing, or a trivial report
                 ("rah", "build", "--alpha", "2", "--blocks", "-1"),
                 ("family", "enumerate", "--family", "s:1", "--universe", "-1",
                  "--max-size", "2"),
                 ("family", "enumerate", "--family", "s:1", "--universe", "3",
                  "--max-size", "-1"),
                 ("constants", "estimate", "--space", "parity", "--family",
                  "s:1", "--name", "Cg", "--samples", "-3"),
                 ("rah", "ppp1", "--alpha", "1", "--beta", "2", "--N", "-1")):
        assert main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        for flag in ("--blocks", "--universe", "--max-size", "--samples"):
            if flag in argv and argv[argv.index(flag) + 1].startswith("-"):
                assert flag in captured.err


def test_family_check_rejects_a_token_that_is_not_an_integer(capsys):
    for bad in ("3,x", "3,,4", "2.5"):
        assert main(["family", "check", "--family", "s:1", "--set", bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: not a comma-separated list")


def test_family_check_at_a_deep_limit_level(capsys):
    # w^5 at min 5 nests far more levels than the interpreter's recursion
    # limit along the leftmost block; the walk keeps them on its own stack
    code, out = run_cli(capsys, "family", "check", "--family", "s:w^5",
                        "--set", ",".join(map(str, range(5, 505))))
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "s:w^5" and payload["member"] is True
    assert payload["set"] == list(range(5, 505))


# exit code and SHA-256 of the stdout of two rah commands; the second block
# of the build passes the support budget, so it prints the whole payload
RAH_GOLDEN = {
    ("rah", "ppp1", "--alpha", "1", "--beta", "2", "--N", "2"):
        (0, "2f028020024514c4598e5b130871fd6d63ef8f2905de958b19f076132ad23119"),
    ("rah", "build", "--alpha", "2", "--min", "3", "--blocks", "2"):
        (3, "2eaa0fe09ecd0b7a907f3f75239a00f6c67f1efdf440645acfcf75e12e82c9d4"),
}


def test_rah_commands_print_the_recorded_bytes(capsys):
    for argv, (want, digest) in RAH_GOLDEN.items():
        code, out = run_cli(capsys, *argv)
        assert code == want
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# the sign-flip status and SHA-256 of the stdout of `theorems check`:
# james:a=1 grades sign-flip comparability from its own certified Cl,
# parity certifies no Cl
THEOREMS_GOLDEN = {
    "james:a=1": ("PASS",
                  "d00dcc82a763655db0e628d70c50718ee424349dd3ff5bbf6205cea0f9bed448"),
    "parity": ("RECORDED",
               "fdca2e8a2bb7038a5866d1fa28dcd487a11f2412cbe294a5f6160b7a70078328"),
}


def test_theorems_check_prints_the_recorded_bytes(capsys):
    for space, (sign_flip, digest) in THEOREMS_GOLDEN.items():
        code, out = run_cli(capsys, "theorems", "check", "--space", space)
        assert code == 0
        checks = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
        assert checks["sign-flip-comparability"] == sign_flip
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_overflowing_norms_are_domain_errors(capsys):
    # both printed `Infinity`, which is not JSON, and norm eval printed the
    # zero functional as the norming functional of a nonzero vector; an int
    # or fraction past the float range raised OverflowError, whose traceback
    # exited 1, the code of a FAIL check
    huge = str(2 ** 1100)
    for argv in (("norm", "eval", "--space", "kt:N=2",
                  "--vec", "2:1.5e308,3:1.5e308"),
                 ("tga", "run", "--space", "parity",
                  "--vec", "2:1.5e308,4:1.5e308", "--m", "1"),
                 ("norm", "eval", "--space", "kt:N=2", "--vec", f"1:{huge}"),
                 ("norm", "eval", "--space", "ktsum:l2", "--vec", f"3:1,5:-{huge}"),
                 ("norm", "eval", "--space", "parity", "--vec", f"2:{huge}/3")):
        assert main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "overflows" in captured.err


def test_repro_refuses_a_mismatched_or_missing_name(capsys, tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("experiment = repro-parity\n")
    for argv in (("repro", "repro-m31", "--config", str(cfg)), ("repro",)):
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_repro_refuses_a_config_its_runner_cannot_run(capsys, tmp_path):
    # refused as a config error before the output directory is made
    cfg = tmp_path / "cfg"
    for text, words in (
            ("repro-kt-00\nn_min = 0", "'n_min' of repro-kt-00 must be at least 1"),
            ("repro-kt-00\nn_min = 10\nn_max = 5", "'n_min' = 10 and 'n_max' = 5"),
            ("repro-walpha\nn0 = 0", "'n0' of repro-walpha must be at least 1"),
            ("repro-walpha\nblocks = 0", "'blocks' of repro-walpha must be at least 1")):
        cfg.write_text(f"experiment = {text}\n")
        out = str(tmp_path / "out")
        assert main(["repro", "--config", str(cfg), "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and words in captured.err
    assert not (tmp_path / "out").exists()
