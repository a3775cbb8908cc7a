import json
import subprocess
import sys

import pytest

from caretcalc.cli import main

H1_ENCODING = "(.(((..).).))|(((..).)(..))"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_golden(capsys):
    code, out, _ = run(capsys, "eval", "x1^2 x0^-2")
    assert code == 0
    assert f"pair\t{H1_ENCODING}" in out
    assert "carets\t4" in out
    assert "normal_form\tx1^2 x0^-2" in out


def test_eval_empty_word(capsys):
    code, out, _ = run(capsys, "eval", "")
    assert code == 0
    assert "pair\t.|." in out and "carets\t0" in out


def test_eval_cancellation(capsys):
    code, out, _ = run(capsys, "eval", "x0 x0^-1")
    assert code == 0
    assert "pair\t.|." in out


def test_eval_parse_error(capsys):
    code, out, err = run(capsys, "eval", "x1^^2")
    assert code == 2
    assert out == ""
    assert "expected" in err and "offset" in err


def test_len_formula(capsys):
    code, out, _ = run(capsys, "len", "x2 x1^2 x0^-1", "--gens", "0,1,2")
    assert code == 0
    assert "length\t4" in out
    assert "method\tformula" in out
    assert "penalty_weight\t0" in out


def test_len_empty(capsys):
    code, out, _ = run(capsys, "len", "", "--gens", "0,1")
    assert code == 0
    assert "length\t0" in out


def test_len_bfs(capsys):
    code, out, _ = run(capsys, "len", "x1^3 x0^-3", "--gens", "0,1,2", "--method", "bfs")
    assert code == 0
    assert "length\t6" in out and "method\tbfs" in out


def test_len_nonconsecutive_auto_uses_bfs(capsys):
    code, out, _ = run(capsys, "len", "x2", "--gens", "0,2")
    assert code == 0
    assert "method\tbfs" in out and "length\t1" in out


def test_len_formula_rejected_for_gaps(capsys):
    code, _, err = run(capsys, "len", "x2", "--gens", "0,2", "--method", "formula")
    assert code == 2
    assert "consecutive" in err


def test_ball_radius_zero(capsys):
    code, out, _ = run(capsys, "ball", "--gens", "0,1", "--radius", "0")
    assert code == 0
    assert out == ".|.\t0\n"


def test_ball_plain_and_repeatable(capsys):
    code, out_a, _ = run(capsys, "ball", "--gens", "0,1", "--radius", "2")
    assert code == 0
    code, out_b, _ = run(capsys, "ball", "--gens", "0,1", "--radius", "2")
    assert out_a == out_b
    assert len(out_a.splitlines()) == 17


def test_ball_structured(capsys):
    code, out, _ = run(capsys, "ball", "--gens", "0,1", "--radius", "1",
                       "--format", "structured")
    assert code == 0
    record = json.loads(out)
    assert record["size"] == 5
    assert record["sphere_sizes"] == [1, 4]
    assert record["elements"][".|."] == 0


def test_ball_out_file(capsys, tmp_path):
    target = tmp_path / "ball.tsv"
    code, out, _ = run(capsys, "ball", "--gens", "0,1", "--radius", "1",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert len(target.read_text().splitlines()) == 5


def test_ball_requires_zero_in_gens(capsys):
    code, _, err = run(capsys, "ball", "--gens", "1,2", "--radius", "1")
    assert code == 2


def test_probe_mac_cli(capsys):
    code, out, _ = run(capsys, "probe-mac", "--gens", "0,1,2", "--k", "1")
    assert code == 0
    assert "verdict\twitness-confirmed" in out
    assert "min_in_ball_path\t8" in out


def test_check_ci_cli(capsys):
    code, out, _ = run(capsys, "check-ci", "--gens-a", "0,2", "--gens-b", "0,1",
                       "--radius", "4")
    assert code == 0
    assert "claimed_bound\t2" in out
    assert "within_bound\ttrue" in out


def test_probe_monotone_cli(capsys):
    code, out, _ = run(capsys, "probe-monotone", "--gens-a", "0,1",
                       "--gens-b", "0,1,2", "--radius", "3")
    assert code == 0
    assert "monotone\ttrue" in out


def test_monotone_usage_error(capsys):
    code, _, err = run(capsys, "probe-monotone", "--gens-a", "0,2",
                       "--gens-b", "0,1", "--radius", "3")
    assert code == 2
    assert "subset" in err


def test_cap_flag_resource_exit(capsys):
    code, _, err = run(capsys, "ball", "--gens", "0,1", "--radius", "5",
                       "--cap", "10")
    assert code == 3
    assert "cap" in err


def test_cap_env_var(capsys, monkeypatch):
    monkeypatch.setenv("CARETCALC_CAP", "10")
    code, _, _ = run(capsys, "ball", "--gens", "0,1", "--radius", "5")
    assert code == 3
    # an explicit flag wins over the environment
    code, out, _ = run(capsys, "ball", "--gens", "0,1", "--radius", "2",
                       "--cap", "100000")
    assert code == 0 and len(out.splitlines()) == 17


def test_cap_env_var_invalid(capsys, monkeypatch):
    monkeypatch.setenv("CARETCALC_CAP", "many")
    code, _, err = run(capsys, "ball", "--gens", "0,1", "--radius", "1")
    assert code == 2


def test_internal_error_exit(capsys, monkeypatch):
    def broken(letters):
        raise RuntimeError("kernel\nfault")

    monkeypatch.setattr("caretcalc.cli.evaluate_word", broken)
    code, out, err = run(capsys, "eval", "x0")
    assert code == 4
    assert out == ""
    assert err == "internal error: RuntimeError: kernel fault\n"


def test_missing_subcommand(capsys):
    assert main([]) == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "caretcalc", "eval", "x0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "((..).)|(.(..))" in proc.stdout
