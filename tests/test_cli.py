"""CLI dispatch, exit codes, and JSON output contracts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import taf
from taf.cli import main
from taf.criteria import CRITERIA


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
        code, out = run(capsys, "transform-check", "0", "2", "--tolerance", "-1e-3")
        assert code == 1  # no residual is below a negative tolerance
        assert "FAIL" in out

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


@pytest.mark.parametrize("k", ["600", "2"])
def test_closed_stdout_exits_quietly(k):
    # P_600's JSON outgrows the pipe buffer, so the write fails inside
    # json.dump; P_2's fits, so it fails at the final flush.
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

    def test_input_error_maps_to_2(self, capsys):
        # 7 = 3 (mod 4): the chromatic pipeline rejects it as a usage error.
        assert main(["vgens", "-p", "7"]) == 2

    @pytest.mark.parametrize(
        "re,im", [("inf", "1"), ("nan", "1"), ("0", "inf"), ("1", "nan")]
    )
    def test_reduce_non_finite_maps_to_2(self, capsys, re, im):
        assert main(["reduce", re, im]) == 2
