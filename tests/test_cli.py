import hashlib
import io
import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from shuffle_spectra import cli, lifting
from shuffle_spectra.cli import main
from shuffle_spectra.linalg import _MAX_DIM

from golden_tables import R2R_COUNTS_22, R2T_COUNTS_22, WORDS_22

FIGURE3_TABLE = """\
evaluation 1,1,1  (n = 3, dimension 6)
lambda/mu  d^mu  f^lambda  mult  C(|lambda|+1,2)  C(|mu|+1,2)  diag  eig
      3/-     1         1     1                6            0     3    9
  2,1/1,1     1         2     2                6            3     1    4
  2,1/2,1     1         2     2                6            6     0    0
1,1,1/1,1     1         1     1                6            3    -2    1
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


json_leaves = st.one_of(
    st.text(max_size=6),
    st.text(st.characters(min_codepoint=0x80), max_size=4),
    st.integers(),
    st.booleans(),
    st.none(),
    st.floats(),
)
json_payloads = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=30,
)


@settings(deadline=None, max_examples=200)
@given(json_payloads)
@example({})
@example([])
@example({"a": [[], {}], "b": {"c": []}})
@example([[[]], [{}]])
@example({"vectors": [{"1122": "3", "2211": "-3"}], "é": ["ü", 2**70, None]})
def test_write_json_matches_indented_dumps(payload):
    out = io.StringIO()
    cli._write_json(payload, out)
    assert out.getvalue() == json.dumps(payload, indent=2) + "\n"


def test_eigenvalues_table_matches_golden_bytes(capsys):
    code, out = run_cli(capsys, "eigenvalues", "--evaluation", "1,1,1")
    assert code == 0
    assert out == FIGURE3_TABLE


def test_eigenvalues_output_is_stable_across_runs(capsys):
    _, first = run_cli(capsys, "eigenvalues", "--n", "4")
    _, second = run_cli(capsys, "eigenvalues", "--n", "4")
    assert first == second


def test_eigenvalues_probability_flag(capsys):
    code, out = run_cli(
        capsys, "eigenvalues", "--evaluation", "2,2", "--probability", "--format", "csv"
    )
    assert code == 0
    assert "5/8" in out  # 10/16 reduced


def test_eigenvalues_json_roundtrip(capsys):
    code, out = run_cli(capsys, "eigenvalues", "--evaluation", "2,2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "shuffle-spectra/spectrum/1"
    assert payload["totals"] == {"16": 1, "10": 1, "6": 1, "4": 1, "0": 2}
    assert payload["dimension"] == 6


def test_transition_matrix_json_is_bit_exact(capsys):
    code, out = run_cli(
        capsys, "transition-matrix", "--shuffle", "r2r", "--evaluation", "2,2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["scale"] == "1/16"
    assert payload["order"] == WORDS_22
    assert payload["entries"] == R2R_COUNTS_22
    code, out = run_cli(
        capsys, "transition-matrix", "--shuffle", "r2t", "--evaluation", "2,2"
    )
    payload = json.loads(out)
    assert payload["scale"] == "1/4"
    assert payload["entries"] == R2T_COUNTS_22


def test_eig_word_trace(capsys):
    code, out = run_cli(capsys, "eig-word", "234133134")
    assert code == 0
    assert "[45 + 12] - [28 + 7] = 22" in out
    code, out = run_cli(capsys, "eig-word", "111")
    assert "= 9" in out
    code, out = run_cli(capsys, "eig-word", "1")
    assert "= 1" in out
    code, out = run_cli(capsys, "eig-word")
    assert code == 0 and "= 0" in out


def test_eig_word_accepts_letters(capsys):
    _, digits = run_cli(capsys, "eig-word", "211", "--format", "json")
    _, letters = run_cli(capsys, "eig-word", "baa", "--format", "json")
    assert json.loads(digits) == json.loads(letters)


def test_eigenbasis_command(capsys):
    code, out = run_cli(capsys, "eigenbasis", "--partition", "3,2", "--verify")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 5
    eigenvalues = sorted(e["eigenvalue"] for e in payload["entries"])
    assert eigenvalues == [0, 5, 7, 11]
    total = sum(len(e["vectors"]) for e in payload["entries"])
    assert total == 5


def test_eigenbasis_for_evaluation_command(capsys):
    code, out = run_cli(capsys, "eigenbasis", "--evaluation", "2,2")
    assert code == 0
    payload = json.loads(out)
    total = sum(len(e["vectors"]) for e in payload["entries"])
    assert total == 6


REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text()
)


@pytest.mark.parametrize(
    "command",
    [
        pytest.param("verify --n 5", id="verify-n5"),
        pytest.param("eigenbasis --evaluation 2,2,1,1", id="eigenbasis-2211"),
        pytest.param("kernel --partition 4,2,1", id="kernel-421"),
        pytest.param("kernel --partition 3,2,1,1", id="kernel-3211"),
        pytest.param("laplacian --n 5 --r 4 --spectrum", id="laplacian-5-4"),
    ],
)
def test_cli_output_matches_reference_digest(capsys, command):
    # the benchmark's reference digests pin the bytes of every benchmarked output
    expected = REFERENCE[command]
    code, out = run_cli(capsys, *command.split())
    assert code == expected["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == expected["sha256"]


def test_eigenbasis_verify_failure_exits_one(capsys, monkeypatch):
    # A wrong strip eigenvalue inside the library must fail its own check,
    # whether or not --verify is given.
    monkeypatch.setattr(lifting, "eig_strip", lambda outer, inner: 1)
    lifting.eigenbasis.cache_clear()
    try:
        for option, value in [("--partition", "2,1"), ("--evaluation", "2,1")]:
            for extra in ([], ["--verify"]):
                code = main(["eigenbasis", option, value, *extra])
                captured = capsys.readouterr()
                assert code == 1
                assert captured.out == ""
                assert "verification failed" in captured.err
    finally:
        lifting.eigenbasis.cache_clear()


def test_kernel_command(capsys):
    code, out = run_cli(capsys, "kernel", "--partition", "2,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 1
    assert payload["vectors"] == [{"112": "1", "121": "-2", "211": "1"}]


def test_frobenius_command(capsys):
    code, out = run_cli(capsys, "frobenius", "--n", "6", "--eigenvalue", "9")
    assert code == 0
    assert out.strip() == "s[3,2,1] + 2*s[4,1,1] + 2*s[4,2]"
    code, out = run_cli(
        capsys, "frobenius", "--n", "6", "--eigenvalue", "9", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["terms"] == {"4,2": 2, "4,1,1": 2, "3,2,1": 1}
    assert payload["dimension"] == 54


def test_laplacian_command(capsys):
    code, out = run_cli(capsys, "laplacian", "--n", "1", "--r", "1")
    assert code == 0
    assert json.loads(out)["entries"] == [[1]]
    code, out = run_cli(capsys, "laplacian", "--n", "3", "--r", "3", "--spectrum")
    payload = json.loads(out)
    assert payload["spectrum"] == {"9": 1, "4": 2, "1": 1, "0": 2}


def _assert_verify_ok(capsys, n, evaluations):
    code, out = run_cli(capsys, "verify", "--n", str(n))
    assert code == 0
    assert out.splitlines() == [
        f"verify n={n}: OK",
        f"  charpoly factorizations match for all {evaluations} evaluations",
        "  eigenbasis eigen-equations and kernel dimensions check out",
    ]


def test_verify_command(capsys):
    _assert_verify_ok(capsys, 3, 3)


def test_verify_command_at_the_default_cap(capsys):
    # n = 6 is the largest size R2R_MAX_N admits by default
    _assert_verify_ok(capsys, 6, 11)


def test_verify_reports_a_wrong_prediction(capsys, monkeypatch):
    # one unit of multiplicity moved in the prediction for (2, 2)
    real = cli.spectrum_for_evaluation

    def predict(nu):
        report = real(nu)
        if nu != (2, 2):
            return report
        return replace(report, totals={16: 1, 10: 1, 6: 1, 4: 2, 0: 1})

    monkeypatch.setattr(cli, "spectrum_for_evaluation", predict)
    code, out = run_cli(capsys, "verify", "--n", "4")
    assert code == 1
    assert out.splitlines() == [
        "verify n=4: FAIL",
        "  mismatch: charpoly mismatch on evaluation (2, 2):"
        " predicted roots {16: 1, 10: 1, 6: 1, 4: 2, 0: 1}",
    ]


def test_verify_respects_size_cap(capsys, monkeypatch):
    monkeypatch.delenv("R2R_MAX_N", raising=False)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "7"])
    assert exc.value.code == 2
    monkeypatch.setenv("R2R_MAX_N", "2")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "3"])
    assert exc.value.code == 2


def test_rearranged_evaluations_are_sorted(capsys):
    code, out = run_cli(capsys, "eigenvalues", "--evaluation", "1,2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["evaluation"] == [1, 2]
    assert payload["partition"] == [2, 1]


def test_usage_errors_exit_code_two(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["eigenvalues", "--evaluation", "2,x"])
    assert exc.value.code == 2
    # superscript digits pass str.isdigit() but not int()
    with pytest.raises(SystemExit) as exc:
        main(["eigenvalues", "--evaluation", "²"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["kernel", "--partition", "³"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["eigenbasis", "--partition", "1,2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    # a factorially large Laplacian spectrum is refused before anything is built
    with pytest.raises(SystemExit) as exc:
        main(["laplacian", "--n", "7", "--r", "5", "--spectrum"])
    assert exc.value.code == 2
    assert "--spectrum needs at most" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["eigenvalues", "--n", "-1"])
    assert exc.value.code == 2
    assert "--n must be non-negative" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "-1"])
    assert exc.value.code == 2
    assert "--n must be non-negative" in capsys.readouterr().err
    monkeypatch.setenv("R2R_MAX_N", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "3"])
    assert exc.value.code == 2
    assert "R2R_MAX_N must be an integer" in capsys.readouterr().err
    # evaluations with more words than linalg._MAX_DIM are refused before any
    # library call; a broken guard raises here instead of starting the work
    for name in ("eigenbasis", "eigenbasis_for_evaluation", "kernel_basis", "transition_matrix"):
        monkeypatch.setattr(cli, name, _never_called)
    for argv in [
        ["eigenbasis", "--partition", "9,9"],
        ["eigenbasis", "--evaluation", "1,1,1,1,1,1,1"],
        ["kernel", "--partition", "9,9"],
        ["kernel", "--partition", "5000000,5000000"],
        ["transition-matrix", "--shuffle", "r2r", "--evaluation", "1,1,1,1,1,1,1"],
        ["transition-matrix", "--shuffle", "t2r", "--evaluation", "3,3,3,1"],
    ]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert f"has more than {_MAX_DIM} words" in capsys.readouterr().err
    # so are Laplacians on more than linalg._MAX_DIM injective words, also
    # where n!/(n-r)! itself would take long to compute
    for name in ("laplacian", "laplacian_spectrum"):
        monkeypatch.setattr(cli, name, _never_called)
    for argv in [
        ["laplacian", "--n", "7", "--r", "5"],
        ["laplacian", "--n", "1000000000", "--r", "1000000000", "--spectrum"],
    ]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert f"needs at most {_MAX_DIM} injective words" in capsys.readouterr().err
    # eigenvalues and frobenius refuse a size over cli._MAX_STRIP_N before
    # partitions_of runs, also where it would never return
    for name in ("partitions_of", "spectrum_for_evaluation", "frobenius_of_eigenspace"):
        monkeypatch.setattr(cli, name, _never_called)
    for argv in [
        ["eigenvalues", "--n", str(cli._MAX_STRIP_N + 1)],
        ["eigenvalues", "--n", "1000000000"],
        ["eigenvalues", "--evaluation", ",".join(["1"] * (cli._MAX_STRIP_N + 1))],
        ["eigenvalues", "--evaluation", "1000000000", "--format", "json"],
        ["frobenius", "--n", str(cli._MAX_STRIP_N + 1), "--eigenvalue", "0"],
        ["frobenius", "--n", "1000000000", "--eigenvalue", "9"],
    ]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert f"is over the limit {cli._MAX_STRIP_N}" in capsys.readouterr().err


def _never_called(*args):
    raise AssertionError(f"size guard let {args} through")


class _Refused(Exception):
    pass


class _RefusingParser:
    def error(self, message):
        raise _Refused(message)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.integers(0, 9), max_size=6))
def test_the_word_count_refusal_compares_the_multinomial_with_the_cap(evaluation):
    words = math.factorial(sum(evaluation)) // math.prod(map(math.factorial, evaluation))
    try:
        cli._refuse_many_words("eigenbasis", evaluation, _RefusingParser())
        refused = False
    except _Refused:
        refused = True
    assert refused == (words > _MAX_DIM)
    # exactly _MAX_DIM passes, one more does not
    assert not cli._over_max_dim([(_MAX_DIM, 1)])
    assert cli._over_max_dim([(_MAX_DIM + 1, 1)])


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "shuffle_spectra.cli", "eig-word", "321"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "= 1" in result.stdout
