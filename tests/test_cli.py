import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from shuffle_spectra import cli, frobenius, injective, lifting, spectrum
from shuffle_spectra.cli import main
from shuffle_spectra.linalg import _MAX_DIM
from shuffle_spectra.spectrum import SpectrumReport

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


def _as_members(value):
    """value with every nonempty dict of leaves rendered as cli._Members."""
    if isinstance(value, list):
        return [_as_members(x) for x in value]
    if not isinstance(value, dict):
        return value
    if value and not any(isinstance(x, (dict, list)) for x in value.values()):
        return cli._Members(json.dumps(k) + ": " + json.dumps(x) for k, x in value.items())
    return {k: _as_members(x) for k, x in value.items()}


@settings(deadline=None, max_examples=200)
@given(json_payloads)
@example({"vectors": [{"1122": "3", "2211": "-3"}], "strip": {"outer": [2, 1]}})
def test_write_json_writes_pre_rendered_members_at_their_indent(payload):
    out = io.StringIO()
    cli._write_json(_as_members(payload), out)
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


# Exit code and stdout SHA-256 of eigenvalues in every format, with and
# without --probability, recorded before the spectrum output was rewritten;
# --n 0 --probability takes the branch for n = 0, which has no n**2 to divide by.
SPECTRUM_DIGESTS = {
    "--n 0": [
        ("table", False, 0, "d13b8bd6a908b7c6c2ae112c6277ab480f52cc013d58d8d40193be3b32a085c8"),
        ("table", True, 0, "d13b8bd6a908b7c6c2ae112c6277ab480f52cc013d58d8d40193be3b32a085c8"),
        ("csv", False, 0, "7c1c0992d78f3969992a35dc74914f6e5071c96df174e6f999a75fccf8594254"),
        ("csv", True, 0, "7c1c0992d78f3969992a35dc74914f6e5071c96df174e6f999a75fccf8594254"),
        ("json", False, 0, "db9a2654dcdf7795c3d424ea81839948399b2e4a91946ab06dc075125a8ea9d6"),
        ("json", True, 0, "db9a2654dcdf7795c3d424ea81839948399b2e4a91946ab06dc075125a8ea9d6"),
    ],
    "--n 1": [
        ("table", False, 0, "9c930a20a1dfe1f2e56bef82bb2a40e013d0466f53f09eb9ccb164aa780ae305"),
        ("table", True, 0, "9c930a20a1dfe1f2e56bef82bb2a40e013d0466f53f09eb9ccb164aa780ae305"),
        ("csv", False, 0, "2fc2576cc730575da8ee450a49c6f24df9b01fcde3d0ab7654d18cb48b7c79fa"),
        ("csv", True, 0, "2fc2576cc730575da8ee450a49c6f24df9b01fcde3d0ab7654d18cb48b7c79fa"),
        ("json", False, 0, "030cce1f114c443899d0062e9139ed78c1886e24442450f9155fc4ee7dbc6984"),
        ("json", True, 0, "803e5be92cb7cd8c6fc96f6190f450e76c283eb15643906c38fc8a886bd5ce5a"),
    ],
    "--n 2": [
        ("table", False, 0, "02e124b3eb45de088e45742c2e88af8065eca142201930b2251c92d2eebd204a"),
        ("table", True, 0, "9cc5d02354a689d21a1ea27c6d12606897fffb2586032e38aac846f0af62d482"),
        ("csv", False, 0, "0d452df7c17906c6d625929289dfb74c997e1d74d746002178799ab8d1ac9a6f"),
        ("csv", True, 0, "833b1322b9c99d792c0cd7b020c16fdaddd29bed1da8909798d70d660f0ef09d"),
        ("json", False, 0, "821b24f86e90650d394f1142ea205b97efd7d12e547479ba9b1f280c3dee4a51"),
        ("json", True, 0, "36561602fa0d7c50dfc3060d54315e5d12ffc0268f673d52a3094cb7fd1681f2"),
    ],
    "--n 3": [
        ("table", False, 0, "1ba85d9ac47200e842288ddee878522531a10567c4ba75dc7c734d882d16cdb0"),
        ("table", True, 0, "d7a375d44deb41ae3ccf407a1317d99d479283c939d3396363fe31302c4706d4"),
        ("csv", False, 0, "557ea7a75fb713fef735d6c6ebae637de02f4c0b4016b9f0c9e7e4b48f7a6274"),
        ("csv", True, 0, "57f65ea3d775d9437287aebe3f628a3d840711f26af15b75cae1efa752c3cb53"),
        ("json", False, 0, "bb5ae41034ce8d79af3e1e1172a1028aa768aa232ffd0e160dc840cd602e0763"),
        ("json", True, 0, "b08f6a70ebe9caaae6691b1d079dad51b6e2a5c35d16accd7e99db5ad65c105c"),
    ],
    "--n 4": [
        ("table", False, 0, "f12662c0ccc84244055fa306919df832052f69d3cd4134a1e101ce9a08d76091"),
        ("table", True, 0, "2cbe40d8d251bc6ded45b41f1c738277d70a62d8dd6da40a33c5b978c3d2a7a8"),
        ("csv", False, 0, "fe8676ec59b627a02c9aabef966ab37cf5fe96781154797ad16ee9591185bed3"),
        ("csv", True, 0, "83eef65ffa358ad278e8083d423e85fb3c564e12a4e48dc0c6951c37065674cf"),
        ("json", False, 0, "88e38a9e839f0e2500e81a5dd95f936acd2dbaf047315daa5adfda404aa1821f"),
        ("json", True, 0, "dcaf65980a3515884fd76a913c9989b4cc57a3d1c327ee18ffc0cda11d22b3ff"),
    ],
    "--n 5": [
        ("table", False, 0, "3995fbfe2b038704e16dc4bcae0da699469b33de11e972461d84249ca2a1ee82"),
        ("table", True, 0, "274fc826d25eddf4508ac9967b4c2f1d52a18f5f79524aca76851cdf1a18c66e"),
        ("csv", False, 0, "152df5c423b8a19b19c7b8934596afdbd1a74627dac426cab5a363d70c17b774"),
        ("csv", True, 0, "5dc33bd78a8a690d387dfcfc23ffef5a5fe615070beff1642462035ea07e3768"),
        ("json", False, 0, "541afd67d63f23a3453519ff6982f81e1654ce3fda3100b568d7c453a2351b73"),
        ("json", True, 0, "79640ecf37446048d8390c6dccc68e625afd6e90a6aa34bad5e272694abe273a"),
    ],
    "--n 6": [
        ("table", False, 0, "d2ac878a202e4684f517949da694eb182c437a87feda6fb035ad397d18cfb6e0"),
        ("table", True, 0, "25feddb6e498e967c44c90c805f42a49a07acac9b7014852bc34acec691b9b91"),
        ("csv", False, 0, "2d7ee268258e37e57a739c2e076fa2302c9a4dd776ca2a10aee43d602b239396"),
        ("csv", True, 0, "c637721c8e4fec281f0a4aed1f4400478106816475bebaca32cd61ae064a89b3"),
        ("json", False, 0, "525afa25998783f32bd85351f81c676e809dfefbbb91d99005f6220c97ee1000"),
        ("json", True, 0, "4ab0d3565cc180006615080075e12d3b8844bfa563b26fb36a52ae84e4591257"),
    ],
    "--evaluation 1,1,1": [
        ("table", False, 0, "a9229714fd5b0b6d3800c6323e3edbedcaa671f47a82dbb4036a7e0e3f853801"),
        ("table", True, 0, "fef0661da8679217789c66406b463feb593b756fa792c295d6edd05651dea05c"),
        ("csv", False, 0, "a899c9cd16a041219935017b5df94ec5a85df3c417014843d8faeb7da2556d57"),
        ("csv", True, 0, "6bd04544e46aa26c875e3ad19e06ed8901060e21610393959c6d8ed8edacb747"),
        ("json", False, 0, "164f35fd0e7b8102469489e7ba838e739e9fc61b7e77c3178442cff9e9ce0f8d"),
        ("json", True, 0, "8f2ee55e454d67bd25b653df24ad2f1596e286c1e695da9216c0dfd09a074a9a"),
    ],
    "--evaluation 2,2": [
        ("table", False, 0, "b96895193ab968654e9b1bcd8b28a7f1381e8380313cda097e876a5301848ad5"),
        ("table", True, 0, "8a973c3f0cddef64baa55376a1cf7fdd7fd725efa839feb4459cffb85eb1853d"),
        ("csv", False, 0, "852e174b529795982902d1b0d0da1c8989258fd9fa6811af8c30f7c7aab99518"),
        ("csv", True, 0, "f625cb45893e63ada58e06d0b766879305bf0bd17abf185be84bba6b7293b0dc"),
        ("json", False, 0, "b868127f45acd4632a38a6a535f15579ca6950bcd3f43e8897ed91800a779184"),
        ("json", True, 0, "0f1835d5c6f21d91ff4c7409ab444c595b228b7fe74db28809fc196f4be1fa6a"),
    ],
    "--evaluation 0,2,1": [
        ("table", False, 0, "762a11d2e176484627528270eeae73c1e11633247bbed81d37944cd52b8e9e23"),
        ("table", True, 0, "dfb7e92b71595fccd11ae2d293c89803711f58ddb0f7dcb4c664284579cbcbf9"),
        ("csv", False, 0, "38592dc239065ac2f0743a30bebc49bc67d6d5e3829e41cad12527c366afb03b"),
        ("csv", True, 0, "2cf61d56b978e7bbb7f60dba09b4daca8ce3afc8ce6e1d0f5e41a261156b34a8"),
        ("json", False, 0, "81b2b1221dcdf16dc2057417c39daf8b1b9a9360f5ec2a3bf34ff781e63ba934"),
        ("json", True, 0, "b1abc15c2d7aaf6380272bae6d3725f04ad2fed0d35f4d24eb8b2635875d74f2"),
    ],
    "--evaluation 3,1,2": [
        ("table", False, 0, "ee6a382b590e0e482624ee3ddcff04b6f77a2fe8c72a3da61b64488ddfdc2fe9"),
        ("table", True, 0, "e02a4ee6ca1b85c6659b2f58c7abd8218af0b551759a773757800537eb2f40be"),
        ("csv", False, 0, "ede7a6bd5788601310b10786ae9822907a023560f5f7a87401a9ebd09207f48d"),
        ("csv", True, 0, "e5feca0a31d9830a333047c6b1aa3dd75291b5f19b4d4250265c3f1eff14c1ca"),
        ("json", False, 0, "d1a228f5c8b87ea9bd51867412b287622a7471186c3b41243bd5c2fb4ee8bf21"),
        ("json", True, 0, "6ea6e94b48e75086036f1f2d314d464c0e6788e48c30a3dc6e83aaac35bb1f30"),
    ],
}
SPECTRUM_CASES = [(args, *case) for args, cases in SPECTRUM_DIGESTS.items() for case in cases]


@pytest.mark.parametrize(
    "args, fmt, probability, exit_code, sha256",
    SPECTRUM_CASES,
    ids=[f"{a}-{f}" + ("-probability" if p else "") for a, f, p, *_ in SPECTRUM_CASES],
)
def test_spectrum_output_matches_its_recorded_digest(
    capsys, args, fmt, probability, exit_code, sha256
):
    argv = ["eigenvalues", *args.split(), "--format", fmt] + ["--probability"] * probability
    code, out = run_cli(capsys, *argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


# Exit code and stdout SHA-256 of eigenbasis commands, recorded before the
# evaluation eigenbasis moved to int columns: every evaluation and shape of
# size at most 5, and evaluations that are not partitions, trailing zeros
# among them.
EIGENBASIS_DIGESTS = [
    ("--evaluation", "1", 0, "2f9a34aed92118d83052bb65d2272df28c55fa7a3fa8e67108c8591cbc805507"),
    ("--evaluation", "2", 0, "19dbda184bccc481dbd5b93889e15646f8a8dba9009686ce5f8daa6bd27627f2"),
    ("--evaluation", "1,1", 0, "9af3e13058d64c2524774c5c99cc953ea1084b5df5b5cd5b6394dffe560a0a58"),
    ("--evaluation", "3", 0, "de78cc2fbd75770007f9c7db3d7627b456cb1d4f8667647660b59a9a7b77dc5a"),
    ("--evaluation", "2,1", 0, "4fa0119517b5a2593ced8bc7f5daa4ed9d545bb2aa1d73415430281a9aa68abe"),
    ("--evaluation", "1,1,1", 0, "81adc8a04b89185ca86375e8323ae55690a0b8d9fcb85f7ad6049fdd74cf715c"),
    ("--evaluation", "4", 0, "dbe4ca190312cb39aee3d40cf762a5c9aa9f819875a0a94666d26db7aec75ad0"),
    ("--evaluation", "3,1", 0, "c7d49dcefc6c846f058d1c00c97b50aa7ce62387d9b0c59afd0b5e1484c34d30"),
    ("--evaluation", "2,2", 0, "45448b097614a3c29e5ddb26a16532f1b565e1d15dca8cf5ae32793d8ea5267d"),
    ("--evaluation", "2,1,1", 0, "34731027b104cb4b3a8e7482878b03197d9a54ece722955827846293101c9a1c"),
    ("--evaluation", "1,1,1,1", 0, "6d9dea6adad71742b2262f7a3266acf206c24d3f7e64cd27cd0b7a22dc566852"),
    ("--evaluation", "5", 0, "db9ba9b8c862daf2bae37d7f677b5104c273eb18d8934a076c5bda69c1d4c35b"),
    ("--evaluation", "4,1", 0, "d3f73d9078397d94d63e725d911d6fe4a3c209f3b2120868fae4bc363365d24b"),
    ("--evaluation", "3,2", 0, "9516ee0f1f7568b5fd4a78c52b529d2c181700c01208c6d892ccb0ec851136fd"),
    ("--evaluation", "3,1,1", 0, "da7f514199d7cc9afb0f0c45f554e9e58d7e2e0c786aae4d8492bff551478426"),
    ("--evaluation", "2,2,1", 0, "9eedcfbce7ab8e6efb57747adffa1f08246df5d63cb62500af2c351cf7013881"),
    ("--evaluation", "2,1,1,1", 0, "39d0070fa839398672ac05622f1754d2f4deb7f5be2b84185d5efe52498baf5f"),
    ("--evaluation", "1,1,1,1,1", 0, "1dfa20729cea7dac36d29fbabca29f79e03b85a6cc94aab614338603c8383fe6"),
    ("--evaluation", "1,2", 0, "44624d3e547ed5eb12f4862b86154ca4a576ffbde607ecaf6223d5a3b9ff4513"),
    ("--evaluation", "0,2", 0, "0b9a0c0640977073171a39a006fe685a5dc7bd5b79a4c57934d2e07c37baace4"),
    ("--evaluation", "2,0", 0, "68dd7343ddb25864dabd7df572f216144c1a3f0e51c51d155259c4b23efa3363"),
    ("--evaluation", "2,1,0", 0, "67a6a34c918e7fcbab9038ebb118f44155978c45e3b1c6ff955c4212a502f95f"),
    ("--evaluation", "1,3,1", 0, "af482dc46c53c1c53f6730f119c5cc120fdbaa876320f8dee5a214d61486724e"),
    ("--evaluation", "2,1,2", 0, "9a1edd5417000e07fe603537105f8cd14a201c05af8b2f586b300cf378ffe416"),
    ("--partition", "1", 0, "b3565fb98102bff10a545412bd219451182a3a7ac6d1ee17034d4982c798b523"),
    ("--partition", "2", 0, "c7ddfb72e1c1126ace10d9410cc28001e2975948cbdf813ddff02c8e84e3d0bc"),
    ("--partition", "1,1", 0, "8513a362a03d481a540d8d7cd1cefe1f2adcabb5085d63e9997fe20662fbaafd"),
    ("--partition", "3", 0, "06661f4e36089c190993d2e0f3f59dd94b28ce530effb9dd7b2828468d1141c0"),
    ("--partition", "2,1", 0, "d470efbd486fa0e969e5de1c653d19b6d23091f2a77d58823308e6cb3a1d0602"),
    ("--partition", "1,1,1", 0, "30631073f8e8b20a73253e45df2f7838870d316f39c8f85bb9aef37e4e56fa3e"),
    ("--partition", "4", 0, "7c4edfa9a6efd4f4a376e3604a6e13fdcb14536e3111497600148c8ae88d37a9"),
    ("--partition", "3,1", 0, "d360e2e696118047f927bf6150c4b08a7bb908bb25a8998ac999004813eae7ed"),
    ("--partition", "2,2", 0, "4dac808c25043f98259db43d4124369da815e1e78b4cea04e305e60338673142"),
    ("--partition", "2,1,1", 0, "64978beaaa08570d87c17c1620eb633b8a3c9028f5ce15709e521435c8c09265"),
    ("--partition", "1,1,1,1", 0, "f1ef771d68ad9c19d4a853e1f81676ac040835127f4414eea4c74001dec69cd6"),
    ("--partition", "5", 0, "07cff885f72da7ea6251fb44a3d6d73fcfd4e0bbcb3fa6de2197414b8618cf71"),
    ("--partition", "4,1", 0, "235634a1aaba84f4fc23ad380505e5e995b59265b29d68858ed4f042d356b000"),
    ("--partition", "3,2", 0, "318120791959882b1fad3aa6c91dade6618ccc02618565b1b19c31bfa181fdf4"),
    ("--partition", "3,1,1", 0, "b30a6ee556e6e4b0c54c1b1c36ad7d3e95248007524b4795f3cc37fcfb2b3655"),
    ("--partition", "2,2,1", 0, "ff66da29ab259fdeaa742b1d6f1de329eb88d72e4099354c523302534cff411b"),
    ("--partition", "2,1,1,1", 0, "b83b80f5772194d1c6326d9f8ceb34d63fff6668ee6663ca4a7d428d2d45f3ba"),
    ("--partition", "1,1,1,1,1", 0, "83725f08a93e4ff36d38506191fcf17bcf64ffd7c0bfa0a6993033c30ee32d46"),
    # recorded before the lifts moved to packed int columns: every shape of
    # size 6, and evaluations of size 6, one with two-digit letters
    ("--partition", "6", 0, "6a66f179c3071a0f1dc901edb635e670d649ab2d913319d98bdcfc982ccb2af4"),
    ("--partition", "5,1", 0, "3158a13ca5a56a53ad4cf0c72e746f789080eb28c3a58a44207c9c6cff01143d"),
    ("--partition", "4,2", 0, "e356787ea5a31d640f8accfd06bfedff12cf831e49ed99cce8f34bb0b2994192"),
    ("--partition", "4,1,1", 0, "93aa1abfee6d5de9a57cccc8a8933964abc4ef716aa4239e4218428819d2f4f6"),
    ("--partition", "3,3", 0, "e0670e442e977242053b58faccf020d7573fdcdf80443a107effd80d1870ade6"),
    ("--partition", "3,2,1", 0, "191c01382ef56b102e04596c33a25dacfc0a6692614a42318f2598521e8cca7e"),
    ("--partition", "3,1,1,1", 0, "d94527a17bf1bf25a3f78cea1f0c4532ecb215fcb0640cb70c54401fba9552aa"),
    ("--partition", "2,2,2", 0, "48e7aff2ad47cd2f91e802afa6011157e25a3a82ff9b0964384cebea067395d6"),
    ("--partition", "2,2,1,1", 0, "0d360dfa17ad04a297aae2ea738b7626011c2991da02dac5d48bf2438d34d17c"),
    ("--partition", "2,1,1,1,1", 0, "7a3090b241155a09ea934b97878befd4407e4c0f0acb73c7f7d8055440af1c43"),
    ("--partition", "1,1,1,1,1,1", 0, "4a75bc9022a058cc371b1713faf076d079fed823d381f3abb1664cc3825b852f"),
    ("--evaluation", "2,2,1,1", 0, "4834708528741707231d6104f7de7c3134ec5dee9902c984e24e5399bca8a8e6"),
    ("--evaluation", "3,2,1", 0, "a9d3a0f014d36709189bd7c5293273cc68b5047cb692c78dfbd66e920af4540a"),
    ("--evaluation", "2,2,2", 0, "3f4cbc46b476b5e9c4ec99cb46d9b49ccb8e9cf9bd07570ecc0345a549f485d4"),
    ("--evaluation", "4,1,1", 0, "5573090a0e7d4996b5d8fda5efdc444ad39ae161c3dc40ef1f93427d84d7f1b7"),
    (
        "--evaluation",
        "0,0,0,0,0,0,0,0,0,1,2",
        0,
        "726ed3cd640f0c0c7ab1b334b2a410e6e3cde5d9144d318ee6116956df193587",
    ),
    # recorded before r2r on columns became t2r after r2t, two single-card
    # tables in turn: a hook evaluation and one of size 8
    ("--evaluation", "30,1", 0, "c491ca2b0d58e9f97cdba0538fdb0de708a001e9aebffc02a31c4727bdb2fa6a"),
    ("--evaluation", "4,2,2", 0, "356aa3118436670c458f550db96deca40bb3c126d3fdd7511ac21243e10ba470"),
]


@pytest.mark.parametrize(
    "option, value, exit_code, sha256",
    EIGENBASIS_DIGESTS,
    ids=[f"{option[2:]}-{value}" for option, value, _, _ in EIGENBASIS_DIGESTS],
)
def test_eigenbasis_output_matches_its_recorded_digest(capsys, option, value, exit_code, sha256):
    code, out = run_cli(capsys, "eigenbasis", option, value)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


# kernel --partition for every shape of size 1 to 7, recorded before the kernels
# moved to packed int columns; 2,1,1,1,1,1 and 1,1,1,1,1,1,1 exceed the word cap
KERNEL_DIGESTS = [
    ("1", 0, "504b1f0ccf47f97b4ef17f1af9e26f2c1b048adab6ef0e00896a1446970c9f17"),
    ("2", 0, "75488e247ae04ed0ab47fd127939a15e71a0d384632bf0e946f58ccde6a013ba"),
    ("1,1", 0, "998bf3952595cf7954743b5a9ff16d0ed192feb9131eac63f7ec82228963ce8b"),
    ("3", 0, "fedef3516b0c1e7b1f62301d7a597c61ff40c282f7683691da4feb416e5ce0ee"),
    ("2,1", 0, "d993ad4a7c21b3466a97d2cfdd93881e0a5b8a089ab077a8eb3a95ce6117c072"),
    ("1,1,1", 0, "fdc42465748c65602b376ae1fe2e8e3c90de820c30d4ca9444ea74fedcb60105"),
    ("4", 0, "2ba91c7bea59b5377e73ee9dc82c292dc68ccef6b2cd3d9da0a0b913f7f4aa6b"),
    ("3,1", 0, "11be92de268fc926bc99177afc8d2871bd968cbf9e261142e2c819247b3d11bc"),
    ("2,2", 0, "e08e2d81eef8188e5def350eda34e010358e45b67a4a9a6c4085cc219e5ac475"),
    ("2,1,1", 0, "dd534e5ee317320faf870a14b771d92211c60db9d1e7010a2ba80ef8fca864e7"),
    ("1,1,1,1", 0, "fcdea76aa815b1a6070bc26d5140ec4928e8e3500ee55b73975bc44e47a2cd3a"),
    ("5", 0, "00caa15cfcf41858f508bd2dd48b80ae9c3142593ef646a4fc548d930f95d63e"),
    ("4,1", 0, "119728c917b11a9fce6f585c2456f2cc6821997097b557bce07519eaeca5bf35"),
    ("3,2", 0, "84c69e07fbfc270a0b1f13d7b5d583d4b36ba07204f0a2e07ed844309276a88a"),
    ("3,1,1", 0, "dc6109ccf5a2070e6f220cebad302d248a44f1e8edd47b354d752de76f11eb0c"),
    ("2,2,1", 0, "4c798ff45c9e2b9f4b0c5ad28641a117fe0362d1408160427ffe953d19d4d8fc"),
    ("2,1,1,1", 0, "2bfc40e3d00fdac3d52babf8aa62a9e3ff56c3e8be90e3fdac1eee63c19e20a5"),
    ("1,1,1,1,1", 0, "8d68587c0b4a4c2c6c1864a8d14c7d413ceae7170f8b6e06d56d5fa8e84325fc"),
    ("6", 0, "0cd6231a4cbf321d9d20fdb30a5066bea119387e80ede99b15998f44382c3acb"),
    ("5,1", 0, "8bdc0d4747e7a9a14a2a75357d5864af03ff81b31551a339a41784d48cf20b56"),
    ("4,2", 0, "a68fbff9584ea475c171a3493cb8de1492109513a68b092da10d1afa47dac419"),
    ("4,1,1", 0, "c0f9c4e5e0a268aba767caa9e4ae493efb8c27d531db3a2f0b1326b79849834a"),
    ("3,3", 0, "991efc44ffff81e58b87e4a4dafca287369a2946b0e9f17f6ee30b614d4c9c24"),
    ("3,2,1", 0, "f9235d36a68e27f36c743c8be8244d76761efb24b15180d16f1bfe89088c19a2"),
    ("3,1,1,1", 0, "cd55c6ed6ebafaa4f54c012fa9834263d7e1f08622ea79af4c2c594885eeae7f"),
    ("2,2,2", 0, "4913c342a14d82fb16c180e2475f6f22327d944c50fe6bf28877296035cd707e"),
    ("2,2,1,1", 0, "42bb2d7f23d30836ea62431e2a075cb8037300bdcf60f84d0b6d4d6b10471124"),
    ("2,1,1,1,1", 0, "137755aee8387fc3b732e16cf1ddac4fa565bd07572da4594a0a7f0e7a45506f"),
    ("1,1,1,1,1,1", 0, "287d611fa5fa0a94b325a936443ad6f800831773cd5e1f80992e52679d729100"),
    ("7", 0, "be7ce1c16d98ba8738780428f9b297a827639d9b62f647056f975704ba665d87"),
    ("6,1", 0, "3f765833ce295d758887438e403084d7c26bb2824e2814654955feae6331de27"),
    ("5,2", 0, "08f82b93000231b4f3617169ec620be517ff931bcd83d68719e23454d33bead9"),
    ("5,1,1", 0, "bb4e7570d8ed453a5d231cfb4d6967961f6142cdfcb198672867463312d3ea0f"),
    ("4,3", 0, "2ad687a76daf416186dded2b026e2c0e9fa18f1e9086b1446b746d364ff25339"),
    ("4,2,1", 0, "c6ea8c1a1871ccf2697f10e89ebe056bd93708fcff5b7e3ba5daaaeb4655dbed"),
    ("4,1,1,1", 0, "a89b2d715e0026f68882f626dcaf001ae4b43aca1afda81e99826492bb1d9a62"),
    ("3,3,1", 0, "b169a29412090cb0abe42629a6936aa533e26bf6ba1298f5bee02d7a008cf967"),
    ("3,2,2", 0, "5f5d9ede867181fcbf075e0e9ad63ed902544fe02e3c9fbd059d919084e6ef02"),
    ("3,2,1,1", 0, "2966b32d6f8122c3142cfc03827e8d451f1a61a7ab1a8386fdc95641a341d580"),
    ("3,1,1,1,1", 0, "64d08ef1a17b0c70ec500b59e80ca25049fdc9a799b18c061c73d723f6f46746"),
    ("2,2,2,1", 0, "54530c7d13a5129139b4766431be3127df3efe229f510dc1084eed310e9df020"),
    ("2,2,1,1,1", 0, "6e94105484e7950e292822e75a2fc29a426b6503c2bfcb44aece0e2cd00642ed"),
    ("2,1,1,1,1,1", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("1,1,1,1,1,1,1", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.mark.parametrize("value, exit_code, sha256", KERNEL_DIGESTS, ids=[v for v, *_ in KERNEL_DIGESTS])
def test_kernel_output_matches_its_recorded_digest(capsys, value, exit_code, sha256):
    try:
        code, out = run_cli(capsys, "kernel", "--partition", value)
    except SystemExit as exc:
        code, out = exc.code, capsys.readouterr().out
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == sha256

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
    real = spectrum.spectrum_for_evaluation

    def predict(nu):
        report = real(nu)
        if nu != (2, 2):
            return report
        totals = {16: 1, 10: 1, 6: 1, 4: 2, 0: 1}
        return SpectrumReport(report.evaluation, report.partition, report.entries, totals)

    monkeypatch.setattr(spectrum, "spectrum_for_evaluation", predict)
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
    capsys.readouterr()
    for option, noun in (("--partition", "partition"), ("--evaluation", "evaluation")):
        with pytest.raises(SystemExit) as exc:
            main(["eigenbasis", option, "0,0"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"{option}: {noun} '0,0' describes no letters" in err
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
    for module, name in (
        (lifting, "specht_eigenbasis_columns"),
        (lifting, "eigenbasis_columns"),
        (lifting, "_kernel_columns"),
        (cli, "transition_matrix"),
    ):
        monkeypatch.setattr(module, name, _never_called)
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
        monkeypatch.setattr(injective, name, _never_called)
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
    monkeypatch.setattr(cli, "partitions_of", _never_called)
    monkeypatch.setattr(spectrum, "spectrum_for_evaluation", _never_called)
    monkeypatch.setattr(frobenius, "frobenius_of_eigenspace", _never_called)
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


# argv pieces for the CLI fuzz: well-formed values kept small (at most 6
# letters, sizes up to 4) so every example runs in milliseconds, and one time
# in four a junk token in their place
_JUNK = st.sampled_from(["", "-1", "1.5", "a", "[1,,2]", ",", "1,,2", "0", "--", "-h", "--n", "xml"])


def _counts(least):
    return st.lists(st.integers(least, 3), min_size=1, max_size=4).filter(lambda c: sum(c) <= 6)


_COUNTS, _PARTS = _counts(0), _counts(1).map(lambda c: sorted(c, reverse=True))


@st.composite
def _either(draw, valid):
    return draw(valid if draw(st.integers(0, 3)) else _JUNK)


_SIZES = _either(st.integers(-1, 4).map(str))
_LETTERS = _either(_COUNTS.map(lambda c: ",".join(map(str, c))))
_SHAPES = _either(_PARTS.map(lambda c: ",".join(map(str, c)))) | _LETTERS


def _option(name, values=None):
    return st.just([name]) if values is None else values.map(lambda v: [name, v])


def _format(*choices):
    return _option("--format", _either(st.sampled_from(choices)))


_COMMANDS = {
    "eigenvalues": [
        _option("--n", _SIZES) | _option("--evaluation", _LETTERS),
        _format("table", "json", "csv"),
        _option("--probability"),
    ],
    "eig-word": [_either(st.text("0123456", max_size=6)).map(lambda w: [w]), _format("table", "json")],
    "transition-matrix": [
        _option("--shuffle", _either(st.sampled_from(["r2r", "r2t", "t2r"]))),
        _option("--evaluation", _LETTERS),
        _format("table", "json"),
    ],
    "eigenbasis": [_option("--partition", _SHAPES) | _option("--evaluation", _LETTERS), _option("--verify")],
    "kernel": [_option("--partition", _SHAPES)],
    "frobenius": [
        _option("--n", _SIZES),
        _option("--eigenvalue", _either(st.integers(-1, 20).map(str))),
        _format("text", "json"),
    ],
    "laplacian": [_option("--n", _SIZES), _option("--r", _SIZES), _option("--spectrum")],
    "verify": [_option("--n", _SIZES)],
}


@st.composite
def _argvs(draw):
    # each option of the command three times in four, in any order
    command = draw(st.sampled_from([*_COMMANDS, "nope"]))
    pieces = [draw(piece) for piece in _COMMANDS.get(command, []) if draw(st.integers(0, 3))]
    argv = [command, *(t for piece in draw(st.permutations(pieces)) for t in piece)]
    if not draw(st.integers(0, 3)):
        argv.insert(draw(st.integers(0, len(argv))), draw(_JUNK))
    return argv


@settings(deadline=None, max_examples=150)
@given(_argvs())
@example([])
@example(["eigenbasis", "--evaluation", "[1,,2]"])
@example(["eigenbasis", "--partition", "1,2"])
@example(["kernel", "--partition", ""])
@example(["verify", "--n", "1.5"])
@example(["laplacian", "--n", "-1", "--r", "a"])
@example(["frobenius", "--n", "4", "--eigenvalue", "1.5"])
@example(["eig-word", "a"])
@example(["transition-matrix", "--shuffle", "r2r", "--evaluation", "0,0"])
def test_generated_argv_exits_0_1_or_2_without_a_traceback(argv):
    # a return value or argparse's SystemExit; any other exception escapes
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv


@pytest.mark.parametrize("unbuffered", [True, False])
def test_a_closed_stdout_exits_one_without_a_traceback(unbuffered):
    # the reader of the pipe is gone before the command writes anything;
    # buffered, the write fails only when stdout is flushed
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "shuffle_spectra.cli", "eigenbasis", "--evaluation", "0,2"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert result.stderr == ""


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "shuffle_spectra.cli", "eig-word", "321"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "= 1" in result.stdout
