"""CLI dispatch, exit codes, and JSON output contracts."""

import contextlib
import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import taf
import taf.cli as cli
from taf.cli import main
from taf.criteria import CRITERIA, Criterion
from taf.exact import ALPHA, ZERO, GradedPoly, _graded
from taf.series import MAX_ORDER


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestDispatch:
    def test_legendre_text(self, capsys):
        code, out = run(capsys, "legendre", "6")
        assert code == 0
        assert "231/16*a^6" in out

    def test_legendre_json(self, capsys):
        code, out = run(capsys, "legendre", "2", "--format", "json")
        assert code == 0
        d = json.loads(out)
        assert d["k"] == 2
        assert {"i": 2, "j": 0, "num": "3", "den": "2"} in d["poly"]["terms"]

    def test_llog(self, capsys):
        code, out = run(capsys, "llog", "-N", "5")
        assert code == 0
        assert "(1)*x^1" in out

    @pytest.mark.parametrize(
        "command,line",
        [
            ("ulog", "log_phi = (1)*x^1 + O(x^3)"),
            ("fgl", "F_phi(x, y) = (1)*x^1*y^0 + (1)*x^0*y^1 + O(deg 3)"),
            ("iso-check", "isomorphism through order 2: PASS"),
        ],
        ids=["ulog", "fgl", "iso-check"],
    )
    def test_order_2(self, capsys, command, line):
        assert run(capsys, command, "-N", "2") == (0, line + "\n")

    def test_vgens_json(self, capsys):
        code, out = run(capsys, "vgens", "-p", "5", "-n", "2", "--format", "json")
        assert code == 0
        d = json.loads(out)
        assert d["prime"] == 5
        # v_1 = alpha
        assert d["v"][0]["terms"] == [{"i": 1, "j": 0, "num": "1", "den": "1"}]
        assert d["integrality"] == [True, True]

    def test_cor1(self, capsys):
        code, out = run(capsys, "cor1")
        assert code == 0
        assert "PASS" in out

    def test_cor2(self, capsys):
        code, out = run(capsys, "cor2", "-p", "13")
        assert code == 0

    def test_landweber(self, capsys):
        code, out = run(capsys, "landweber", "-p", "5")
        assert code == 0
        assert "overall: PASS" in out

    def test_qexpand(self, capsys):
        code, out = run(capsys, "qexpand", "-K", "10")
        assert code == 0

    def test_eval_tau(self, capsys):
        code, out = run(capsys, "eval-tau", "alpha", "0", "2", "--format", "json")
        assert code == 0
        d = json.loads(out)
        assert abs(d["re"] - 1) < 0.2  # alpha(2i) is near 1
        assert d["trunc_bound"] < 1e-6

    def test_jg_pole(self, capsys):
        code, out = run(capsys, "jg", "1", "1.4142135623730951", "--format", "json")
        assert code == 0
        assert json.loads(out)["pole"] is True

    def test_transform_check(self, capsys):
        code, out = run(capsys, "transform-check", "0", "2")
        assert code == 0
        assert "PASS" in out

    def test_reduce(self, capsys):
        code, out = run(capsys, "reduce", "7.3", "0.2", "--format", "json")
        assert code == 0
        d = json.loads(out)
        assert d["certificate"] is True
        assert abs(d["tau_reduced"]["re"]) <= 1 + 1e-9

    def test_reduce_near_real_axis(self, capsys):
        code, out = run(capsys, "reduce", "0.3", "1e-7", "--format", "json")
        assert code == 0
        assert json.loads(out)["certificate"] is True

    @pytest.mark.parametrize("re", ["-1e-3", "-7.6e-05", "-0.5"])
    @pytest.mark.parametrize(
        "command", [["reduce"], ["eval-tau", "alpha"], ["jg"], ["transform-check"]]
    )
    def test_negative_real_part_is_a_number(self, capsys, command, re):
        # argparse's own pattern takes "-7.6e-05" for an option.
        code, out = run(capsys, *command, re, "2", "--format", "json")
        assert code == 0
        assert json.loads(out)

    def test_reduce_negative_exponent_point(self, capsys):
        code, out = run(
            capsys,
            "reduce",
            "-7.620975539879282e-05",
            "0.0059540511686692965",
            "--format",
            "json",
        )
        assert code == 0
        assert json.loads(out)["certificate"] is True

    def test_negative_exponent_option_value(self, capsys):
        # Read as a number, not taken for an option (a usage error, exit 2 by
        # SystemExit), and refused: no residual is below a negative tolerance.
        code = main(["transform-check", "0", "2", "--tolerance", "-1e-3"])
        assert code == 2
        assert "not -0.001" in capsys.readouterr().err

    def test_verify_embeddings(self, capsys):
        code, out = run(capsys, "verify-embeddings", "--format", "json")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_iso_check(self, capsys):
        code, out = run(capsys, "iso-check", "-N", "9")
        assert code == 0

    def test_selftest_json(self, capsys):
        code, out = run(capsys, "selftest", "--format", "json")
        assert code == 0
        entries = json.loads(out)
        assert [e["name"] for e in entries] == [
            "chart-solve",
            "logarithm",
            "legendre-anchors",
            "hazewinkel-closed-forms",
            "integrality",
            "corollary-1",
            "corollary-2",
            "euler-law",
            "fgl-axioms",
            "qexp-anchors",
            "zeros",
            "transformation",
            "genus-consistency",
            "embeddings",
            "reduction",
        ]
        ceilings = {c.name: c.ceiling_s for c in CRITERIA}
        for e in entries:
            assert e["status"] == "pass"
            assert e["elapsed_s"] >= 0
            assert e["ceiling_s"] == ceilings[e["name"]]


def test_import_loads_only_stdlib_modules():
    # In a fresh interpreter, so that modules other tests loaded do not count.
    code = (
        "import sys; before = set(sys.modules); import taf.cli; "
        "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(new - set(sys.stdlib_module_names) - {'taf'}))"
    )
    src = str(Path(taf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_leaves_out_what_a_command_may_not_use():
    # dataclasses and inspect cost about 11 ms; qexp, arithgroups and criteria
    # load in the handlers that use them, and taf re-exports their names.
    code = (
        "import sys, taf.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'taf.arithgroups', "
        "'taf.qexp', 'taf.criteria') if m in sys.modules)); "
        "import taf; taf.GaussianRational; print(sorted(m for m in sys.modules "
        "if m in ('taf.arithgroups', 'taf.qexp'))); "
        "taf.Mat, taf.forms, taf.reduce_to_fundamental_domain; "
        "from taf import rho; print(sorted(m for m in sys.modules "
        "if m in ('taf.arithgroups', 'taf.qexp')))"
    )
    src = str(Path(taf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]",
        "['taf.arithgroups']",
        "['taf.arithgroups', 'taf.qexp']",
    ]


def test_lazy_names_are_the_module_names():
    import taf.arithgroups
    import taf.qexp

    assert taf.forms is taf.qexp.forms
    assert taf.Mat is taf.arithgroups.Mat
    assert taf.GaussianRational is taf.arithgroups.GaussianRational
    # Q(i) lives in arithgroups alone.
    assert not {"GaussianRational", "I"} & vars(taf.exact).keys()
    with pytest.raises(AttributeError):
        taf.no_such_name


@pytest.mark.parametrize("k", ["600", "2"])
def test_closed_stdout_exits_quietly(k):
    # P_600's JSON outgrows the pipe buffer, so a write of its parts
    # fails; P_2's fits, so it fails at the final flush.
    src = str(Path(taf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "taf.cli", "legendre", k, "--format", "json"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert "Traceback" not in err
    assert err == ""
    assert proc.returncode == 1


def test_stdout_closed_mid_document_exits_quietly():
    # landweber -p 53 writes 0.5 MB of JSON; the reader takes 10 bytes and
    # closes the pipe, so a write in the middle of the document fails.
    src = str(Path(taf.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "taf.cli", "landweber", "-p", "53", "--format", "json"],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    head = proc.stdout.read(10)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (head, err, proc.returncode) == (b'{\n  "prime', b"", 1)


class TestParserReuse:
    # main reuses one parser; no call may leave state for the next.
    def test_defaults_return_after_explicit_values(self, capsys):
        code, out = run(capsys, "fgl", "-N", "5", "--format", "json")
        assert code == 0 and json.loads(out)["order"] == 5
        code, out = run(capsys, "llog")
        assert code == 0
        assert out == f"log_phiL = {taf.log_phiL(13)}\n"

    def test_valid_call_after_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fgl", "-N", "five"])
        assert exc.value.code == 2
        code, out = run(capsys, "llog", "-N", "5", "--format", "json")
        assert code == 0 and json.loads(out)["order"] == 5

    def test_negative_exponent_after_other_commands(self, capsys):
        run(capsys, "legendre", "2")
        run(capsys, "transform-check", "0", "2", "--tolerance", "-1e-3")
        code, out = run(capsys, "reduce", "-7.6e-05", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["certificate"] is True


class TestExitCodes:
    def test_usage_error_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_usage_error_bad_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["legendre", "--bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-1", "0", "-0.0"])
    def test_tolerance_not_finite_and_above_0_maps_to_2(
        self, capsys, monkeypatch, tolerance
    ):
        # nan and -1 made every verdict FAIL and inf every verdict PASS.  The
        # refusal comes before any q-expansion is built.
        monkeypatch.setattr("taf.qexp.transform_check", _refuse)
        code = main(["transform-check", "0", "2", f"--tolerance={tolerance}"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: tolerance must be finite")

    def test_input_error_maps_to_2(self, capsys):
        # 7 = 3 (mod 4): the chromatic pipeline rejects it as a usage error.
        assert main(["vgens", "-p", "7"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["vgens", "-p", "5", "-n", "12"],
            ["legendre", "100000000"],
            ["landweber", "-p", "2305843009213693951"],
            ["landweber", "-p", "1000000000000000009"],
        ],
    )
    def test_costly_legendre_index_refused_up_front(self, capsys, argv):
        # v_12 at p = 5 needs P_((5^12 - 1)/4), about P_(6.1e7).  Large primes
        # are refused once primality is known: 2^61 - 1 is 3 (mod 4), and
        # 10^18 + 9 needs P_((p - 1)/4).
        t0 = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - t0 < 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            *(
                pytest.param(["reduce", re, im], id=f"{re}-{im}")
                for re, im in [("inf", "1"), ("nan", "1"), ("0", "inf"), ("1", "nan")]
            ),
            *(
                pytest.param(argv, id="-".join(argv))
                for argv in [
                    ["eval-tau", "alpha", "nan", "1"],
                    ["eval-tau", "alpha", "inf", "1"],
                    ["eval-tau", "alpha", "0", "inf"],
                    ["jg", "nan", "1"],
                    ["jg", "0", "inf"],
                    ["transform-check", "inf", "1"],
                    ["transform-check", "0", "nan"],
                ]
            ),
        ],
    )
    def test_reduce_non_finite_maps_to_2(self, capsys, argv):
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: tau must be finite\n"

    @pytest.mark.parametrize("re,im", [("1", "0"), ("0", "0"), ("2", "-1")])
    def test_transform_check_off_the_half_plane_maps_to_2(self, capsys, re, im):
        assert main(["transform-check", re, im]) == 2
        err = capsys.readouterr().err
        assert err == "error: tau must lie in the upper half-plane\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            # The reduced point's imaginary part is far beyond the largest float.
            pytest.param(
                ["reduce", "0.5", "5e-324"],
                "the reduced point does not fit a float",
                id="reduce-overflow",
            ),
            *(
                pytest.param(
                    ["selftest", *argv],
                    "selftest needs N >= 10 and K >= 2",
                    id="selftest" + "".join(argv),
                )
                for argv in [["-N", "9"], ["-N", "1"], ["-N", "0"], ["-K", "1"]]
            ),
        ],
    )
    def test_refused_input_maps_to_2(self, capsys, argv, message):
        # Refused before any output is built, whichever format is asked for.
        for fmt in ("text", "json"):
            assert main([*argv, "--format", fmt]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv", [["eval-tau", "alpha", "1e308", "1"], ["jg", "1e308", "1"]]
    )
    def test_large_real_part_runs(self, capsys, argv):
        # s = e^(pi*i*tau) is read at Re tau mod 2, which is 0 here: the
        # value printed after the point is the one at tau = i.
        code, out = run(capsys, *argv)
        assert code == 0
        _, at_i = run(capsys, *argv[:-2], "0", "1")
        assert out.split(" = ", 1)[1] == at_i.split(" = ", 1)[1]

    @pytest.mark.parametrize(
        "command", ["ulog", "llog", "fgl", "euler", "iso-check", "selftest"]
    )
    def test_series_order_above_the_cap_is_refused_up_front(self, capsys, command):
        n = MAX_ORDER + 1
        t0 = time.perf_counter()
        assert main([command, "-N", str(n)]) == 2
        assert time.perf_counter() - t0 < 1
        message = f"error: series order {n} is above the limit {MAX_ORDER}\n"
        assert capsys.readouterr() == ("", message)

    @pytest.mark.parametrize(
        "argv",
        [
            ["qexpand"],
            ["eval-tau", "alpha", "0", "2"],
            ["jg", "0", "1"],
            ["transform-check", "0", "2"],
            ["selftest"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_qorder_above_the_cap_is_refused_up_front(self, capsys, argv):
        k = cli.MAX_QORDER + 1
        for fmt in ("text", "json"):
            t0 = time.perf_counter()
            assert main([*argv, "-K", str(k), "--format", fmt]) == 2
            assert time.perf_counter() - t0 < 1
            message = f"error: q-expansion order {k} is above the limit 10000\n"
            assert capsys.readouterr() == ("", message)

    def test_qorder_at_the_cap_runs(self, capsys):
        code, out = run(capsys, "qexpand", "-K", "10000", "--format", "json")
        assert code == 0
        assert json.loads(out)["qorder"] == 10000

    def test_series_order_at_the_cap_runs(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_ORDER", 5)
        assert main(["fgl", "-N", "5"]) == 0
        assert main(["fgl", "-N", "6"]) == 2


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_output_past_the_int_digit_limit(capsys, monkeypatch, fmt):
    # CPython 3.10.7 and later refuse str() of an int above 4,300 digits
    # unless the limit is lifted; P_k passes it for k above about 6,300.
    monkeypatch.setattr(cli, "legendre", lambda k: ALPHA.scale(10**5000))
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(4300)  # the default, whatever ran before
    try:
        code, out = run(capsys, "legendre", "1", "--format", fmt)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    assert code == 0
    assert "1" + "0" * 5000 in out


# sha256 of stdout in text and in JSON.  A change to a renderer must leave
# these bytes as they are.  selftest's JSON is pinned with every elapsed_s
# read as 0.  landweber -p 53 (515 KB of JSON) and qexpand -K 300 (84 KB)
# are the benchmark's largest outputs.
PINNED_OUTPUT = {
    "legendre 50": (
        "25f7b47274a2e5d57855a002c85fc3986af8e1e7a8c65a2437e5902856e08249",
        "161c3135ed09af483cf6c6920e72af357f35a828729400240d64010f5b74493d",
    ),
    "landweber -p 13": (
        "8d8e6f98db61831b6abda9c9b0f4ac293a001839efac491ffd6eba3169c07516",
        "de79ae748fbb1512299437510e09650ba2bc1e1c70ba621a60558aa6df5bf2a0",
    ),
    # p = 1 (mod 8): v_1 has even Legendre degree.
    "landweber -p 17": (
        "77a25c7c1bd2f08fed7353ced764ca1dd4f2494c7b34134660ea1f9b6bcdf476",
        "e734280427c4709b70aa86d0fa9c3b831692ff886b4a6d4f90fe604e322ac564",
    ),
    "landweber -p 41": (
        "3c98770ea8a0faec806f298fde4671007790f20e3da5113341df67fb293a871f",
        "4dacc65d33241a4985498c007cff6564b38becca2fc48bbe804394899b5f4f32",
    ),
    "vgens -p 5 -n 3": (
        "b211040217d63aa95ab6fcbeee2c0016cf5cbb324cfec6319f5b90b8506cc62c",
        "00a9c406cb7251eb883df6fe1a0bf88987f65b6103b6be127d90c07c84bffc5c",
    ),
    "cor2 -p 13": (
        "9aa42751dcfae69ae3ea8535652e9693b0d5ea55680217e3e2166bffc0e03659",
        "86d74b0188b4e1602b9553056fa80f33a0e3e31f61605cf38ee5bd64558131b9",
    ),
    "fgl -N 13": (
        "2220cc11ed7c6f781190d536cb275cc5c7de48ffef40de8354c638a48ede8d6d",
        "7a2974fc77e5b6b85d7997b47669c878bc115b5975f17845e2b528fd80be10ee",
    ),
    "euler -N 13": (
        "bdb79f98c2373cdc9847cceb1ed31628f728d5abe5c6170bf30ee57a5469c593",
        "c5c76e8a45f3375d915a3726a557668abb479f61bc9252f4114d1b89aef4adf5",
    ),
    "ulog -N 21": (
        "85c71d81945275e4e7b4b8149bd9741689182bc9f66fe21124e727792a7c3474",
        "3e906e4c0ece3169f43b3b8b7377fb1b7576b7d4d8741807cf671990278bfbdd",
    ),
    "llog -N 21": (
        "42fee80d2f13f5658270013b7fba1a23c932610d093e08597a6aafdc04ed2345",
        "6c0a4cf34ae5699752b26ce7383b293e70fc5156e14fcbf9e519545624c1738e",
    ),
    "fgl -N 21": (
        "3f15ef028a26f97234857edc0b73e747572993bf9dc0e680a01b944d9ce9597e",
        "1e948e9d90bb4ce2e9361c4e85db08a56b3504372416f99b3cf22ee188e86651",
    ),
    "iso-check -N 21": (
        "b227064313b2e2a11f501a9495d8f352b716a2f21cc0d0675884f2a73aea94db",
        "e61f3257d6e5ba5a772343d1e7c2a14a6e9ca6af9ccb30126a9596613aaf5141",
    ),
    "fgl -N 45": (
        "40de822981bb537db0e357a7c596c55271b40ac8e92054d17defb7c8f42eed23",
        "d2c6d4645b03e0026560fb44bcc550707be3312e7a9c0f79d6df067a30270300",
    ),
    "euler -N 45": (
        "6ad97bd6ee6c74dfbed4aaa0ee647c5d9d8b77ad6ae72d5c5ee8b8c999392ece",
        "1d9d2b3529b5c8c6a5f9e3235d6fb1d1c75c015a08ec334659e7554c66813f70",
    ),
    "iso-check -N 45": (
        "3fb821531501eeeeb61a6ede012a34dd6570872077236e7ebcb97a4af89eb18b",
        "eb0d55975221522ab0a83647c45114a4300d1a2ec733a3eef238f8e6097566e7",
    ),
    "qexpand -K 20": (
        "b8a1ba45533346c64c7323c80ac3dcf9a896e52f57c4e1fa9442359d4a097d59",
        "6175e7bcdb34b5336cf733ed3fc496e62647d7677f59320c1b2555371c74b847",
    ),
    "reduce 7.3 0.2": (
        "e4f2120f27e6466a50fb214bab9d7a83f1bd242cac855d1094d9774d64077634",
        "d0fff7ee48230068598c381853f8099d97b3e41c4fff08e8ef3a0c55017c231e",
    ),
    "verify-embeddings": (
        "98265c4cd41a912840215dc9bd22b76d4ee35af2f599b406e33d5a646a2f6c9c",
        "2cb1734336e2fb41805c0ed15f6265652ea3a2f3a1c709b81d850b050d15a42b",
    ),
    "eval-tau alpha 0.1 1.2": (
        "d449a23a9e8d33a2459dcc88a10b14fa2239b6ae1dddb1d79c598280eb6607da",
        "5625d08bea73bc790953b6f0a9b9a28edf71340032a80d495cac0c384272aa48",
    ),
    "jg 0.1 1.2": (
        "f43c66f6348a62614900eac6e6c85743d2d9152614e379e6782cfdec8f1e657e",
        "df2837d021a22ecea17e54f131403c6df5bf283de002812ba06d800db6667aca",
    ),
    "transform-check 0 2": (
        "0a32defe0dcca04ef3a063f6afa1d2191907efc003ff89c3f9eb83341d1c9ff4",
        "fe832a6babca341cfec26c390b2264178472347c87d5eb5d507dc8355a970dfd",
    ),
    "cor1": (
        "dd742a49cca35deda5309ae439b0372b5bb922ebb7f0d8f2594acf4672b2205e",
        "cb05b2124e081cd950089d4ad8f394086d43cc064d36d78b8694c23ba8b703af",
    ),
    "landweber -p 53": (
        "711bed9a4a2ec5740e25482b3dd603b9c3caf82d01b22e735a154b882a3aa463",
        "b212da446340d97de7cdbad398742a0ed2dab7f32e2835df35c2d9bf2cc04ed7",
    ),
    "qexpand -K 300": (
        "50aba4b1e143b788a2420e85554e3f8b2dbc492b090ceba5f5dd0b5e2ba107a5",
        "809b6bf0f64b133053c2c5822cddb72251bdf9527836b6c0224390ea26293421",
    ),
    "selftest": (
        "65beaa910bd339c9fc480eda3ad3058b8dfb441d865ffc02317b8506caf5ba6f",
        "53205d7c59d71e723855707add273b3c577d41b6c4914fc14002d4871e1de9e3",
    ),
}


def _digest(out: str) -> str:
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("command", PINNED_OUTPUT)
def test_output_bytes_pinned(capsys, command):
    for fmt, digest in zip(("text", "json"), PINNED_OUTPUT[command]):
        code, out = run(capsys, *command.split(), "--format", fmt)
        out = re.sub(r'"elapsed_s": [^,\n]+', '"elapsed_s": 0', out)
        assert (code, _digest(out)) == (0, digest), fmt


# JSON documents for the writer's oracle: nested and empty dicts, lists and
# tuples over every scalar json writes, with non-ASCII and control
# characters, ints past 4,300 digits, and the floats json writes as words.
_SPECIAL_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e300]
_KEYS = st.one_of(
    st.text(),
    st.integers(),
    st.sampled_from([True, False, None, 1.5, *_SPECIAL_FLOATS]),
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.builds(
        lambda digits, sign: sign * (10**digits - 7),
        st.integers(4300, 4400),
        st.sampled_from([1, -1]),
    ),
    st.floats(),
    st.sampled_from(_SPECIAL_FLOATS),
    st.text(),
    st.sampled_from(["", "\x00\x1f\x7f", '"\\/\b\f\n\r\t', "é☃𝄞", "\ud800"]),
)
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.dictionaries(_KEYS, inner),
    ),
    max_leaves=40,
)


@st.composite
def _graded_polys(draw):
    """A GradedPoly of Legendre degree 0 to 9, odd ones too, with entries of
    either sign over a denominator 2^e * p^n; zero now and then."""
    deg = draw(st.integers(0, 9))
    entries = st.integers(-(10**40), 10**40)
    vec = draw(st.lists(entries, min_size=deg // 2 + 1, max_size=deg // 2 + 1))
    p = draw(st.sampled_from([3, 5, 13]))
    den = 2 ** draw(st.integers(0, 5)) * p ** draw(st.integers(0, 3))
    return _graded(deg, den, vec)


# Documents as the handlers return them: polynomial leaves at any depth,
# beside scalars.
_POLY_DOCUMENTS = st.recursive(
    st.one_of(_graded_polys(), st.just(ZERO), _SCALARS),
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.dictionaries(_KEYS, inner),
    ),
    max_leaves=20,
)


@contextlib.contextmanager
def _no_int_digit_limit():
    """CPython's limit on int-to-str lifted, as `main` lifts it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


class _Int(int):
    def __repr__(self):
        return "an int"


class _Float(float):
    def __repr__(self):
        return "a float"


class _Str(str):
    def __repr__(self):
        return "a str"


class _Writes(list):
    """A text stream that keeps each string written to it, apart."""

    write, writelines = list.append, list.extend


def json_writes(doc):
    """The strings `cli._write_json` writes, one per write."""
    writes = _Writes()
    cli._write_json(doc, writes)
    return writes


def json_text(doc):
    return "".join(json_writes(doc))


class TestJsonText:
    # The writes of cli._write_json, joined, against json.dumps(doc, indent=2),
    # byte for byte.
    @given(_DOCUMENTS)
    @settings(max_examples=300, deadline=None)
    def test_matches_json_dumps(self, doc):
        with _no_int_digit_limit():
            assert json_text(doc) == json.dumps(doc, indent=2)

    # A polynomial leaf is written as json writes its `to_json_dict`.
    @given(_POLY_DOCUMENTS)
    @settings(max_examples=150, deadline=None)
    def test_polynomial_leaves_match_json_dumps(self, doc):
        with _no_int_digit_limit():
            expected = json.dumps(doc, indent=2, default=GradedPoly.to_json_dict)
            assert json_text(doc) == expected

    @pytest.mark.parametrize(
        "doc",
        [
            {"rows": [{"poly": {"den": "1", "vec": ["9" * 999]}}] * 4000},
            {"v": [_graded(2 * 3999, 5**3, [10**999 + j for j in range(4000)])]},
        ],
        ids=["document", "polynomial"],
    )
    def test_long_document_is_written_as_it_is_made(self, doc):
        # 4000 rows, of a document or of one polynomial's terms: no write is
        # longer than two rows, so the text is never held.
        writes = json_writes(doc)
        expected = json.dumps(doc, indent=2, default=GradedPoly.to_json_dict)
        assert "".join(writes) == expected
        assert max(map(len, writes)) <= 2 * len(expected) / 4000

    @pytest.mark.parametrize(
        "doc",
        [
            True,
            False,
            None,
            0,
            1,
            -0.0,
            [True, 1, False, 0],
            {"a": {}, "b": [], "c": ()},
            # Subclasses are written as their base type, whatever their repr.
            [_Int(7), _Float(0.5), _Str("s")],
            {_Str("k"): _Int(1), _Int(2): [_Float(-0.0)]},
        ],
        ids=repr,
    )
    def test_words_subclasses_and_empty_containers(self, doc):
        assert json_text(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize(
        "doc",
        [Fraction(1, 2), [1, Fraction(1, 2)], {"a": [{"b": Fraction(1)}]}, {(1,): 2}],
        ids=repr,
    )
    def test_unserializable_values_raise_as_json_does(self, doc):
        with pytest.raises(TypeError) as expected:
            json.dumps(doc, indent=2)
        with pytest.raises(TypeError, match=re.escape(str(expected.value))):
            json_text(doc)


def _refuse(*args, **kwargs):
    raise AssertionError("rendered for the other format")


# A renderer is a GradedPoly method, or the writer's `cli._write_poly`,
# which makes the JSON rows of a polynomial.  JSON output builds no
# `to_json_dict` either: the writer renders each polynomial from its rows.
@pytest.mark.parametrize(
    "command,fmt,renderer",
    [
        ("landweber -p 5", "text", "to_json_dict"),
        ("landweber -p 5", "text", "_write_poly"),
        ("legendre 50", "text", "to_json_dict"),
        ("legendre 50", "text", "_write_poly"),
        ("legendre 50", "json", "__str__"),
        ("vgens -p 5 -n 3", "json", "__str__"),
        ("vgens -p 5 -n 3", "json", "to_json_dict"),
        ("fgl -N 9", "json", "to_json_dict"),
    ],
)
def test_each_format_builds_only_its_own_output(
    capsys, monkeypatch, command, fmt, renderer
):
    argv = [*command.split(), "--format", fmt]
    expected = run(capsys, *argv)
    assert expected[0] == 0
    owner = cli if renderer == "_write_poly" else GradedPoly
    monkeypatch.setattr(owner, renderer, _refuse)
    assert run(capsys, *argv) == expected


def _faked(transform):
    """A stand-in that calls the real function and transforms its result."""
    return lambda real: lambda *args, **kwargs: transform(real(*args, **kwargs))


def _crash(N, K):
    raise RuntimeError("boom")


_BROKEN_CRITERIA = (
    Criterion("forced", lambda N, K: (False, "forced failure"), 1),
    Criterion("crash", _crash, 1),
)

# argv, the name to replace (in taf.cli, or "module.name" for a name that a
# handler imports when it runs), its stand-in built from the real value, the
# start of the text line that reports the failure, and the JSON verdict.
FAILURES = [
    pytest.param(
        ["euler", "-N", "5"],
        "beta_zero_law",
        _faked(lambda law: law.scale(2)),
        "DISCREPANCY: ",
        lambda d: d["matches_beta_zero_law"] is False,
        id="euler",
    ),
    pytest.param(
        ["iso-check", "-N", "5"],
        "iso_check",
        lambda real: lambda order: False,
        "isomorphism through order 5: FAIL",
        lambda d: d["pass"] is False,
        id="iso-check",
    ),
    pytest.param(
        ["vgens", "-p", "5"],
        "key_lemma_check",
        _faked(lambda r: r._replace(integrality=[True, False])),
        "  5-integral: False",
        lambda d: d["integrality"] == [True, False],
        id="vgens",
    ),
    pytest.param(
        ["cor1"],
        "cor1_check",
        lambda real: lambda: False,
        "all three reductions agree: FAIL",
        lambda d: d["pass"] is False,
        id="cor1",
    ),
    pytest.param(
        ["cor2", "-p", "13"],
        "cor2_check",
        _faked(lambda r: r._replace(valuation=2)),
        "overall: FAIL",
        lambda d: d["pass"] is False and d["valuation"] == 2,
        id="cor2",
    ),
    pytest.param(
        ["landweber", "-p", "5"],
        "landweber_check",
        _faked(
            lambda r: r._replace(
                landweber=r.landweber._replace(v2_nonzero_mod_p_v1=False)
            )
        ),
        "overall: FAIL",
        lambda d: d["pass"] is False,
        id="landweber",
    ),
    pytest.param(
        ["qexpand", "-K", "10"],
        "qexp.anchor_check",
        lambda real: lambda K: False,
        "anchors + integrality + identity: FAIL",
        lambda d: d["pass"] is False,
        id="qexpand",
    ),
    pytest.param(
        ["reduce", "7.3", "0.2"],
        "arithgroups.reduce_to_fundamental_domain",
        # The reduction of another point carries no certificate for this one.
        lambda real: lambda tau: real(tau + 0.5),
        "certificate (exact group membership, point mapping, domain): FAIL",
        lambda d: d["certificate"] is False,
        id="reduce",
    ),
    pytest.param(
        ["verify-embeddings"],
        "arithgroups.embedding_suite",
        _faked(lambda results: results | {"eq2": False}),
        "eq2: FAIL",
        lambda d: d["pass"] is False,
        id="verify-embeddings",
    ),
    pytest.param(
        ["selftest"],
        "criteria.CRITERIA",
        lambda real: _BROKEN_CRITERIA,
        "[FAIL] crash: RuntimeError: boom",
        lambda d: [e["status"] for e in d] == ["fail", "fail"],
        id="selftest",
    ),
]


class TestFailurePaths:
    # A failed check exits 1 and says so in both formats.
    @pytest.mark.parametrize("argv,name,stand_in,line,verdict", FAILURES)
    def test_failed_check(
        self, capsys, monkeypatch, argv, name, stand_in, line, verdict
    ):
        module, _, name = name.rpartition(".")
        target = importlib.import_module(f"taf.{module or 'cli'}")
        monkeypatch.setattr(target, name, stand_in(getattr(target, name)))
        code, out = run(capsys, *argv)
        assert code == 1
        assert any(text.startswith(line) for text in out.splitlines())
        code, out = run(capsys, *argv, "--format", "json")
        assert code == 1
        assert verdict(json.loads(out))


def _subcommands():
    parser = cli._build_parser(None)
    (action,) = [a for a in parser._actions if a.dest == "command"]
    return action.choices


def test_every_subcommand_has_a_handler_and_help(capsys):
    for name, parser in _subcommands().items():
        assert callable(parser.get_default("handler")), name
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0, name
        assert capsys.readouterr().out.startswith(f"usage: taf {name} ")


def _exit(capsys, parse, argv):
    """(exit code, stdout, stderr) of parse(argv), which must exit: --help,
    --version or a usage error."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


class TestParserPerCommand:
    # main builds the parser of the command that argv names, and the full
    # parser of every command only for any other first argument.  What each
    # prints is what the full parser prints.
    @pytest.fixture(autouse=True)
    def _columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize(
        "argv",
        [
            ["fgl", "-N", "x"],
            ["landweber", "--help"],
            ["landweber"],
            ["landweber", "-p", "5", "extra"],
            ["cor1", "--version"],
            ["transform-check", "0"],
            ["eval-tau", "gamma", "0", "1"],
        ],
        ids=" ".join,
    )
    def test_a_command_prints_what_the_full_parser_prints(self, capsys, argv):
        full = cli._build_parser(None).parse_args
        assert _exit(capsys, main, argv) == _exit(capsys, full, argv)

    def test_help_lists_every_command(self, capsys):
        code, out, err = _exit(capsys, main, ["--help"])
        assert (code, err) == (0, "")
        assert out.startswith("usage: taf [-h] [--version]\n")
        usage = out[: out.index("\n\n")]
        assert "{" + ",".join(cli._COMMANDS) + "}" in usage.replace(" ", "")
        for name, (_, help_text, _) in cli._COMMANDS.items():
            assert re.search(rf"^    {name} +{re.escape(help_text)}$", out, re.M)

    def test_no_command(self, capsys):
        code, out, err = _exit(capsys, main, [])
        assert (code, out) == (2, "")
        assert err.startswith("usage: taf [-h] [--version]\n")
        required = "the following arguments are required: command"
        assert err.endswith(f"taf: error: {required}\n")

    def test_wrong_command(self, capsys):
        code, out, err = _exit(capsys, main, ["nosuch"])
        assert (code, out) == (2, "")
        choices = ", ".join(map(repr, cli._COMMANDS))
        message = f"argument command: invalid choice: 'nosuch' (choose from {choices})"
        assert err.endswith(f"taf: error: {message}\n")

    def test_bad_option_value(self, capsys):
        assert _exit(capsys, main, ["fgl", "-N", "x"]) == (
            2,
            "",
            "usage: taf fgl [-h] [--format {text,json}] [-N ORDER]\n"
            "taf fgl: error: argument -N/--order: invalid int value: 'x'\n",
        )

    def test_command_help(self, capsys):
        code, out, err = _exit(capsys, main, ["landweber", "--help"])
        assert (code, err) == (0, "")
        assert out.startswith(
            "usage: taf landweber [-h] [--format {text,json}] -p PRIME\n"
        )
        assert "  -p PRIME, --prime PRIME\n" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["legendre", "7", "--format", "json"],
            ["fgl"],
            ["vgens", "-p", "13", "-n", "3"],
            ["eval-tau", "-K", "30", "beta", "-7.6e-05", "2"],
            ["transform-check", "0.1", "1.2", "--tolerance", "1e-9"],
            ["selftest", "-N", "21", "-K", "60"],
        ],
        ids=" ".join,
    )
    def test_a_command_reads_what_the_full_parser_reads(self, argv):
        full = cli._build_parser(None).parse_args(argv)
        assert cli._build_parser(argv[0]).parse_args(argv) == full

    def test_a_command_builds_only_its_own_parser(self):
        parser = cli._build_parser("fgl")
        (action,) = [a for a in parser._actions if a.dest == "command"]
        assert list(action.choices) == ["fgl"]

    def test_a_second_call_reuses_the_parser(self, capsys):
        assert main(["cor1"]) == 0
        before = cli._build_parser.cache_info()
        assert main(["cor1"]) == 0
        after = cli._build_parser.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
