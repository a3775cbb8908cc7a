import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import caretcalc
from caretcalc import cayley, cli
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


def test_eval_long_power(capsys):
    # one run, written down directly: linear in the exponent
    code, out, err = run(capsys, "eval", "x0^20000")
    assert (code, err) == (0, "")
    assert "carets\t20001\n" in out
    assert "normal_form\tx0^20000\n" in out


def test_eval_parse_error(capsys):
    code, out, err = run(capsys, "eval", "x1^^2")
    assert code == 2
    assert out == ""
    assert "expected" in err and "offset" in err


def test_eval_over_long_index(capsys):
    code, out, err = run(capsys, "eval", "x" + "9" * 5000)
    assert (code, out) == (2, "")
    assert err == ("parse error: at offset 1: expected a generator index of "
                   "at most 4300 digits, found 5000 digits\n")


def test_eval_index_over_the_interpreter_digit_limit(capsys):
    # an interpreter whose int() digit cap is below 4,300 sets the limit,
    # so the error is still a parse error with an offset
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int() digit limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(1000)
    try:
        code, out, err = run(capsys, "eval", "x" + "9" * 2000)
    finally:
        sys.set_int_max_str_digits(saved)
    assert (code, out) == (2, "")
    assert err == ("parse error: at offset 1: expected a generator index of "
                   "at most 1000 digits, found 2000 digits\n")


def test_eval_letters_past_sys_maxsize(capsys):
    # the letter count is summed from the run exponents, so a word longer
    # than len() can count is still refused by the cap
    code, out, err = run(capsys, "eval", "x0^" + "9" * 30)
    assert (code, out) == (3, "")
    assert err == ("resource limit: the word has " + "9" * 30 + " letters, more "
                   "than the cap of 5000000\n")


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


def test_len_bfs_outside_x0_subgroup(capsys):
    # <x0> is infinite cyclic: a search for x1 would never end
    code, out, err = run(capsys, "len", "x1", "--gens", "0", "--method", "bfs")
    assert code == 2
    assert out == ""
    assert "not in the subgroup generated by x0" in err
    code, out, _ = run(capsys, "len", "x0^-3", "--gens", "0", "--method", "bfs")
    assert code == 0 and "length\t3" in out


def test_len_x0_alone_auto_uses_bfs(capsys):
    code, out, err = run(capsys, "len", "x0^3", "--gens", "0")
    assert code == 0 and err == ""
    assert "method\tbfs" in out and "length\t3" in out
    code, out, err = run(capsys, "len", "x1", "--gens", "0")
    assert code == 2 and out == ""
    assert "not in the subgroup generated by x0" in err
    code, out, err = run(capsys, "len", "x0", "--gens", "0", "--method", "formula")
    assert (code, out) == (2, "")
    assert err == ("error: the closed form needs x0 and one or more consecutive "
                   "indices after it, got [0]\n")


def test_check_ci_with_x0_alone(capsys, monkeypatch):
    # the other set's smallest nonzero generator is in its ball from
    # radius 1 and outside <x0>, which no {x0} search reaches, so {x0} on
    # one side exits 2 naming it, before either ball is grown
    def refused(*args, **kwargs):
        raise AssertionError("check-ci grew a ball")

    with monkeypatch.context() as patch:
        patch.setattr(cayley, "_grow", refused)
        for gens_a, gens_b, named in (("0", "0,1", "x1"), ("0,1", "0", "x1"),
                                      ("0,3,5", "0", "x3")):
            code, out, err = run(capsys, "check-ci", "--gens-a", gens_a,
                                 "--gens-b", gens_b, "--radius", "2")
            assert (code, out) == (2, "")
            assert err == f"error: {named} is not in the subgroup generated by x0\n"
    # radius 0 holds only the identity, so it still answers
    code, out, err = run(capsys, "check-ci", "--gens-a", "0", "--gens-b", "0,1",
                         "--radius", "0")
    assert code == 0 and err == ""
    assert "elements_checked\t1" in out and "max_difference\t0" in out
    code, out, err = run(capsys, "check-ci", "--gens-a", "0", "--gens-b", "0",
                         "--radius", "3")
    assert code == 0 and err == ""
    assert "elements_checked\t7" in out and "max_difference\t0" in out


def test_len_nonconsecutive_auto_uses_bfs(capsys):
    # a set whose nonzero indices have a gap has no closed form; {x0, x2}
    # is {x0, x1} conjugated by x0 and answers by the closed form on the
    # conjugate
    for gens, word in (("0,1,3", "x3"), ("0,2,4", "x4")):
        code, out, _ = run(capsys, "len", word, "--gens", gens)
        assert code == 0
        assert "method\tbfs" in out and "length\t1" in out
    code, out, _ = run(capsys, "len", "x2", "--gens", "0,2")
    assert code == 0
    assert "method\tconjugate" in out and "length\t1" in out


def test_len_formula_rejected_for_gaps(capsys):
    for gens in ("0,1,3", "0,2,4"):
        code, out, err = run(capsys, "len", "x3", "--gens", gens, "--method", "formula")
        assert (code, out) == (2, "")
        assert err == ("error: the closed form needs x0 and one or more consecutive "
                       f"indices after it, got [{gens.replace(',', ', ')}]\n")


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


@pytest.mark.parametrize("gens, radius, digest", [
    ("0,1,2", "7", "7be20bafd60e02836e397934741f836077e2c19288e27388cd35690dc668f3f5"),
    ("0,1,3", "6", "50e9cc8e3112f006791c28836e1d0e7dd02e477cfc706bb5cea3643d6a5ebaa6"),
], ids=["0,1,2-r7", "0,1,3-r6"])
def test_ball_export_pinned(capsys, gens, radius, digest):
    # every line of two full ball exports, byte for byte
    code, out, err = run(capsys, "ball", "--gens", gens, "--radius", radius)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_ball_cap_counts_elements(capsys):
    # the ball of radius 4 over {x0, x1, x2} holds 541 elements: a cap of
    # 541 lets it through, and 540 stops it in its last shell
    code, out, err = run(capsys, "ball", "--gens", "0,1,2", "--radius", "4",
                         "--cap", "541")
    assert (code, err, len(out.splitlines())) == (0, "", 541)
    code, out, err = run(capsys, "ball", "--gens", "0,1,2", "--radius", "4",
                         "--cap", "540")
    assert (code, out) == (3, "")
    assert err.endswith("state cap of 540 elements at radius 4\n")


def test_ball_requires_zero_in_gens(capsys):
    code, _, err = run(capsys, "ball", "--gens", "1,2", "--radius", "1")
    assert code == 2


def test_gens_with_a_negative_index(capsys):
    code, _, err = run(capsys, "ball", "--gens=0,-2,1", "--radius", "1")
    assert code == 2
    assert "nonnegative" in err


def test_out_path_that_cannot_be_written(capsys, tmp_path):
    # a directory: a usage error (2), not an internal one (4)
    code, out, err = run(capsys, "eval", "x1", "--out", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {tmp_path}: ")


def _no_work(*args, **kwargs):
    raise AssertionError("worked before checking the output path")


def test_out_path_checked_before_the_work(capsys, monkeypatch, tmp_path):
    # a directory and a path in a missing directory fail at once (2), and
    # a path that can be written is left as it was when the work fails
    monkeypatch.setattr("caretcalc.cayley.ball", _no_work)
    for target in (tmp_path, tmp_path / "missing" / "ball.tsv"):
        code, out, err = run(capsys, "ball", "--gens", "0,1,2", "--radius", "8",
                             "--out", str(target))
        assert (code, out) == (2, ""), target
        assert err.startswith(f"error: cannot write {target}: "), err
    target = tmp_path / "ball.tsv"
    code, _, err = run(capsys, "ball", "--gens", "0,1", "--radius", "1",
                       "--out", str(target))
    assert code == 4 and "worked before" in err
    assert not target.exists()
    target.write_text("kept\n")
    run(capsys, "ball", "--gens", "0,1", "--radius", "1", "--out", str(target))
    assert target.read_text() == "kept\n"


def test_probe_mac_cli(capsys):
    code, out, _ = run(capsys, "probe-mac", "--gens", "0,1,2", "--k", "1")
    assert code == 0
    assert "verdict\twitness-confirmed" in out
    assert "min_in_ball_path\t8" in out


PROBE_X2_K2 = """\
gens	0,1,2
k	2
g	(.((((..).).)((..).)))|(((..).)(.(.(.(..)))))
h	(.((((..).).).))|((((..).).)(..))
g_length	6
h_length	6
distance	2
min_in_ball_path	12
formula_g_length	6
formula_h_length	6
verdict	witness-confirmed
"""

PROBE_X2_K2_STRUCTURED = """\
{
  "distance": 2,
  "formula_g_length": 6,
  "formula_h_length": 6,
  "g": "(.((((..).).)((..).)))|(((..).)(.(.(.(..)))))",
  "g_length": 6,
  "gens": [
    0,
    1,
    2
  ],
  "h": "(.((((..).).).))|((((..).).)(..))",
  "h_length": 6,
  "k": 2,
  "min_in_ball_path": 12,
  "verdict": "witness-confirmed"
}
"""

PROBE_013_K1 = """\
gens	0,1,3
k	1
g	(.(((..).)(.((..).))))|((..)(.(.(.(.(..))))))
h	(.(((..).).))|(((..).)(..))
g_length	4
h_length	4
distance	2
min_in_ball_path	8
verdict	witness-confirmed
"""

PROBE_013_K1_STRUCTURED = """\
{
  "distance": 2,
  "formula_g_length": null,
  "formula_h_length": null,
  "g": "(.(((..).)(.((..).))))|((..)(.(.(.(.(..))))))",
  "g_length": 4,
  "gens": [
    0,
    1,
    3
  ],
  "h": "(.(((..).).))|(((..).)(..))",
  "h_length": 4,
  "k": 1,
  "min_in_ball_path": 8,
  "verdict": "witness-confirmed"
}
"""


@pytest.mark.parametrize("argv, expected", [
    (["--gens", "0,1,2", "--k", "2"], PROBE_X2_K2),
    (["--gens", "0,1,2", "--k", "2", "--format", "structured"],
     PROBE_X2_K2_STRUCTURED),
    (["--gens", "0,1,3", "--k", "1"], PROBE_013_K1),
    (["--gens", "0,1,3", "--k", "1", "--format", "structured"],
     PROBE_013_K1_STRUCTURED),
])
def test_probe_mac_goldens(capsys, argv, expected):
    assert run(capsys, "probe-mac", *argv) == (0, expected, "")


def test_probe_mac_cap_names_the_radius(capsys):
    # over {x0, x1, x3}, which no closed form covers, the probe enumerates
    # the ball of radius 2k = 4, which holds 685 elements
    code, out, err = run(capsys, "probe-mac", "--gens", "0,1,3", "--k", "2",
                         "--cap", "500")
    assert code == 3
    assert out == ""
    assert "state cap of 500" in err and "at radius 4" in err


def test_check_ci_cli(capsys):
    code, out, _ = run(capsys, "check-ci", "--gens-a", "0,2", "--gens-b", "0,1",
                       "--radius", "4")
    assert code == 0
    assert "claimed_bound\t2" in out
    assert "within_bound\ttrue" in out


def test_check_ci_negative_radius(capsys):
    code, out, err = run(capsys, "check-ci", "--gens-a", "0,2", "--gens-b", "0,1",
                         "--radius", "-1")
    assert (code, out) == (2, "")
    assert err == "error: radius must be >= 0, got -1\n"


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


def test_cap_bfs_reports_depth(capsys):
    code, out, err = run(capsys, "len", "x1^3 x0^-3", "--gens", "0,1,2",
                         "--method", "bfs", "--cap", "20")
    assert code == 3
    assert out == ""
    assert "state cap of 20" in err
    assert "at depth 2 from the start and 1 from the goal" in err


def test_cap_counts_the_penalty_program_states(capsys):
    # a 21-caret element whose n = 2 weight takes the first tree's 19
    # states and then the program's: 98 in all, so a cap of 60 is met
    # inside the program
    word = ("x0 x1 x2 x3 x5^4 x7 x9^4 x12 x15^3 x16^2 x19^-1 x17^-1 x16^-1 "
            "x13^-3 x12^-2 x8^-2 x7^-2 x4^-3 x1^-1 x0^-2")
    code, out, err = run(capsys, "len", word, "--gens", "0,1,2", "--cap", "60")
    assert (code, out) == (3, "")
    assert err == "resource limit: penalty search exceeded 60 states\n"
    code, out, err = run(capsys, "len", word, "--gens", "0,1,2", "--cap", "98")
    assert (code, err) == (0, "")
    assert "\npenalty_weight\t4\n" in out
    assert out.endswith("\nwitness\t0>1,1>2,0>3,0>4,0>5,4>7,7>8,5>9,4>12,12>13,"
                        "5>15,15>16,16>17,12>19\n")


def test_word_over_cap_refused_before_expanding(capsys, monkeypatch):
    def never(runs):
        raise AssertionError("evaluated a word over the cap")

    monkeypatch.setattr("caretcalc.cli.evaluate_word", never)
    for argv in (["eval", "x0^999999999"], ["eval", "x100000000"],
                 ["len", "x1 x0^-999999999", "--gens", "0,1"]):
        code, out, err = run(capsys, *argv)
        assert code == 3, argv
        assert out == ""
        assert err.startswith("resource limit: ") and "cap of 5000000" in err


def test_word_cap_flag(capsys, monkeypatch):
    code, out, err = run(capsys, "eval", "x0^50", "--cap", "10")
    assert (code, out) == (3, "")
    assert err == ("resource limit: the word has 50 letters, more than the "
                   "cap of 10\n")
    code, _, err = run(capsys, "eval", "x11", "--cap", "10")
    assert code == 3
    assert err == "resource limit: the word uses generator x11, beyond the cap of 10\n"
    code, out, _ = run(capsys, "eval", "x10 x0^9", "--cap", "10")
    assert code == 0 and "carets\t" in out
    monkeypatch.setenv("CARETCALC_CAP", "10")
    code, _, _ = run(capsys, "len", "x0^11", "--gens", "0,1")
    assert code == 3


def _never(*args, **kwargs):
    raise AssertionError("searched with a generating set over the cap")


def test_gens_over_cap_refused_before_searching(capsys, monkeypatch):
    # a step by x_i costs time and memory that grow with i, so a set whose
    # largest index is over the cap is refused before any search starts
    for name in ("ball", "bfs_length", "mac_witness_pair"):
        monkeypatch.setattr(f"caretcalc.cayley.{name}", _never)
    big = "0,1,4000000000"
    for argv in (["ball", "--gens", big, "--radius", "1"],
                 ["len", "x1", "--gens", big, "--method", "bfs"],
                 ["probe-mac", "--gens", big, "--k", "1"],
                 ["check-ci", "--gens-a", "0,1", "--gens-b", big, "--radius", "1"],
                 ["probe-monotone", "--gens-a", "0,1", "--gens-b", big,
                  "--radius", "1"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err == ("resource limit: the generating set uses x4000000000, "
                       "beyond the cap of 5000000\n")


def test_gens_cap_flag(capsys):
    code, out, err = run(capsys, "ball", "--gens", "0,11", "--radius", "1",
                         "--cap", "10")
    assert (code, out) == (3, "")
    assert err == ("resource limit: the generating set uses x11, beyond the "
                   "cap of 10\n")
    code, out, _ = run(capsys, "ball", "--gens", "0,10", "--radius", "1",
                       "--cap", "10")
    assert code == 0 and len(out.splitlines()) == 5


def test_probe_mac_meets_the_cap_before_building_the_witness(capsys, monkeypatch):
    # k = 10^9 would need witness words of 2 * 10^9 + 2 letters; the probe
    # refuses them against the cap before any ball or witness is built
    monkeypatch.setattr("caretcalc.cayley.mac_witness_pair", _never)
    code, out, err = run(capsys, "probe-mac", "--gens", "0,1,2",
                         "--k", "1000000000", "--cap", "1000")
    assert (code, out) == (3, "")
    assert err == ("resource limit: the witness words of k = 1000000000 have "
                   "2000000002 letters and use x1000000003, beyond the cap of 1000\n")


def test_probe_mac_checks_the_set_before_the_ball(capsys):
    # a cap of 5 stops any ball at radius 1, so only the set check answers 2
    code, out, err = run(capsys, "probe-mac", "--gens", "0,2", "--k", "3",
                         "--cap", "5")
    assert (code, out) == (2, "")
    assert err == ("error: the witness family needs x_0, x_2 and one more generator: "
                   "got indices [0, 2]\n")


def test_probe_mac_uncertified_witness_is_an_internal_error(capsys, monkeypatch):
    # a witness whose own words do not certify its lengths (here g and h
    # swapped, so g^-1 h is not x0^-1 x2^-1) is a construction bug, not a
    # refuted claim: exit 4, not 1
    g, h = cayley.mac_witness_pair(caretcalc.GeneratingSet.of([0, 1, 2]), 1)
    monkeypatch.setattr("caretcalc.cayley.mac_witness_pair", lambda gens, k: (h, g))
    code, out, err = run(capsys, "probe-mac", "--gens", "0,1,2", "--k", "1")
    assert (code, out) == (4, "")
    assert err == ("internal error: AssertionError: the witness's words do not "
                   "certify its lengths\n")


def test_len_penalty_search_deeper_than_the_interpreter_stack(capsys):
    code, out, err = run(capsys, "len", "x1200", "--gens", "0,1")
    assert (code, err) == (0, "")
    assert "length\t2399\n" in out


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


def test_kept_parser_answers_as_a_fresh_one(monkeypatch):
    # main builds its parser on the first call and keeps it; in one
    # process a usage error, --help, a good call and the same call again
    # must each give the exit code and output of a freshly built parser
    calls = [["ball", "--gens", "0,1"], ["--help"], ["len", "x1 x0^-1", "--gens", "0,1"],
             ["len", "x1 x0^-1", "--gens", "0,1"]]
    cli._parser.cache_clear()
    kept = [_run_main(argv) for argv in calls]
    info = cli._parser.cache_info()
    assert (info.hits, info.misses) == (len(calls) - 1, 1)
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [_run_main(argv) for argv in calls]
    assert kept == fresh
    assert [code for code, _, _ in kept] == [2, 0, 0, 0]


def _child_env() -> dict:
    """The environment of a child that imports the package under test,
    installed or not."""
    env = dict(os.environ)
    source = str(Path(caretcalc.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "caretcalc", "eval", "x0"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert "((..).)|(.(..))" in proc.stdout


def test_stdout_closed_by_its_reader():
    # the reader takes one line of a ~370 KB ball and closes the pipe;
    # the rest cannot fit a pipe's 64 KiB buffer, so a write fails, and
    # the run ends with EXIT_PIPE and nothing on stderr, not as an
    # internal error or a refuted probe
    proc = subprocess.Popen(
        [sys.executable, "-m", "caretcalc", "ball", "--gens", "0,1,2", "--radius", "6"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    assert proc.stdout.readline() == b".|.\t0\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (cli.EXIT_PIPE, b"")
    assert cli.EXIT_PIPE == 141


# Argv drawn from the grammars of FORMATS.md, valid or not: each run must end
# in an answer or in one documented exit code with one diagnostic line.
_index = st.one_of(
    st.integers(0, 4).map(str),
    st.sampled_from(["007", "1000000", "4000000000", "9" * 40, "9" * 5000, ""]),
)
_exponent = st.one_of(
    st.none(),
    st.integers(-3, 3).map(str),
    st.sampled_from(["+2", "-0", "--1", "1000000", "-4000000000", "9" * 5000, ""]),
)
_letter = st.builds(
    lambda i, e: "x" + i + ("" if e is None else "^" + e), _index, _exponent
)
_stray = st.sampled_from(["(", "|", "x", "^", "-", "y2", "\u00e9", "\t", "\n", "\0"])
_short_words = st.lists(
    st.tuples(st.one_of(_letter, _stray), st.sampled_from([" ", "*", "", "  "])),
    max_size=6,
).map(lambda parts: "".join(p + sep for p, sep in parts))
# words just over the sweep's --cap 3000 word budget, by one letter or one
# index: each exits 3 before any tree is built
_long_words = st.sampled_from(
    ["x0^3001", "x3001", "x1^1500 x0^-1501", "x0 " * 3001]
)
_words = st.one_of(_short_words, _short_words, _short_words, _long_words)
_gens = st.one_of(
    st.lists(st.integers(0, 4), min_size=1, max_size=4).map(
        lambda indices: ",".join(map(str, [0] + indices))
    ),
    st.lists(
        st.sampled_from(["0", "1", "2", "-1", "4000000000", "abc", " ", ""]),
        max_size=5,
    ).map(",".join),
)
_radius = st.integers(-2, 3).map(str)
# mostly the default cap and a known format, so that most runs get past
# the argument parser; --out, when drawn, names a fresh file in an empty
# directory, that directory itself, or a file under a missing directory
_tail = st.tuples(
    st.sampled_from([None] * 6 + ["-1", "0", "abc"]),
    st.sampled_from([None, None, "plain", "structured", "structured", "xml"]),
    st.sampled_from([None] * 4 + ["fresh", "fresh", "directory", "missing"]),
)
_OUT_PATHS = {
    "fresh": lambda tmp: os.path.join(tmp, "out.txt"),
    "directory": lambda tmp: tmp,
    "missing": lambda tmp: os.path.join(tmp, "missing", "out.txt"),
}
_commands = st.one_of(
    st.builds(lambda w: ["eval", w], _words),
    st.builds(
        lambda w, g, m: ["len", w, "--gens", g] + m,
        _words, _gens,
        st.sampled_from([[]] + [["--method", m] for m in ("auto", "formula", "bfs")]),
    ),
    st.builds(lambda g, r: ["ball", "--gens", g, "--radius", r], _gens, _radius),
    st.builds(
        lambda g, k: ["probe-mac", "--gens", g, "--k", k],
        _gens, st.integers(-1, 2).map(str),
    ),
    *(
        st.builds(
            lambda a, b, r, c=command: [c, "--gens-a", a, "--gens-b", b, "--radius", r],
            _gens, _gens, _radius,
        )
        for command in ("check-ci", "probe-monotone")
    ),
)
_DIAGNOSTICS = ("error: ", "parse error: ", "resource limit: ")


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, deadline=None, max_examples=600)
@given(_commands, _tail)
def test_cli_sweep_ends_in_an_answer_or_one_diagnostic(argv, tail):
    cap, fmt, out_kind = tail
    argv = argv + ["--cap", "3000" if cap is None else cap]
    if fmt is not None:
        argv += ["--format", fmt]
    if out_kind is None:
        _check_sweep_run(argv, *_run_main(argv))
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = _OUT_PATHS[out_kind](tmp)
        code, out, err = _run_main(argv + ["--out", path])
        _check_sweep_run(argv, code, out, err)
        if code in (0, 1):
            # the output went to the file, and nowhere else
            assert out == "" and os.listdir(tmp) == ["out.txt"]
            with open(path, encoding="utf-8") as handle:
                assert handle.read() == _run_main(argv)[1]
        else:
            # a run that fails leaves the path as it found it
            assert os.listdir(tmp) == []


def _check_sweep_run(argv, code, out, err):
    command = argv[0]
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert err == ""
    elif code == 1:
        assert command in ("probe-mac", "check-ci", "probe-monotone")
        assert err == ""
    else:
        assert out == ""
        assert err.endswith("\n")
        lines = err[:-1].split("\n")
        if len(lines) == 1 and lines[0].startswith(_DIAGNOSTICS):
            return
        # argparse: its usage lines, then one error line
        assert lines[0].startswith(f"usage: caretcalc {command} ")
        assert all(line.startswith(" ") for line in lines[1:-1])
        assert lines[-1].startswith(f"caretcalc {command}: error: ")
