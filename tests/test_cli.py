import io
import json
import os
import subprocess
import sys

import pytest

from fockladder import cli


def run_cli(capsys, monkeypatch, argv, stdin=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_params_json(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["params", "--family", "lossy", "--eta", "0.5",
                            "--N", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == pytest.approx(2 / 3, abs=1e-15)
    assert payload["beta"] == pytest.approx(1 / 3, abs=1e-15)
    assert payload["gamma"] == 0.0
    assert payload["chi"] == pytest.approx(2 / 3, abs=1e-15)
    assert payload["nu"] == pytest.approx(2 / 9, abs=1e-15)
    assert payload["valid"] is True


def test_params_seventeen_digit_roundtrip(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["params", "--family", "amp", "--g", "2", "--N", "9"])
    assert code == 0
    from fockladder import abgx, make_channel
    exact = abgx(make_channel("amp", g=2.0, thermal_N=9.0))
    assert json.loads(out)["nu"] == exact.nu  # 17 significant digits round-trip


def test_cli_output_is_byte_stable(capsys, monkeypatch):
    argv = ["conjecture", "--family", "amp", "--g", "2", "--N", "0.5",
            "--length", "5", "--nonbinary", "4", "--seed", "77"]
    _, out1, _ = run_cli(capsys, monkeypatch, argv)
    _, out2, _ = run_cli(capsys, monkeypatch, argv)
    assert out1 == out2


def test_domain_error_exits_2(capsys, monkeypatch):
    code, _, err = run_cli(capsys, monkeypatch,
                           ["params", "--family", "amp", "--g", "0.5"])
    assert code == 2
    assert "g" in err


def test_usage_error_exits_2(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        cli.main(["nonsense-command"])
    assert exc.value.code == 2


def test_grid_csv_shape(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["grid", "--family", "lossy", "--eta", "0.5",
                            "--N", "0", "--imax", "3", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4  # one row per input index
    first = [float(x) for x in lines[0].split(",")]
    assert first[0] == 1.0  # vacuum through pure loss stays vacuum
    assert first[-1] == 0.0  # tail column


def test_grid_oracle_row(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["grid", "--family", "amp", "--g", "2", "--N", "0",
                            "--oracle", "multinomial", "--row", "0",
                            "--nmax", "5"])
    assert code == 0
    row = json.loads(out)["row"]
    assert row[0] == pytest.approx(0.5, abs=1e-15)
    assert row[1] == pytest.approx(0.25, abs=1e-15)


def test_grid_oracle_special_fallthrough(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["grid", "--family", "lossy", "--eta", "0.5",
                            "--N", "1", "--oracle", "special", "--row", "5",
                            "--nmax", "8"])
    assert code == 0
    assert json.loads(out)["row"] is None


def test_dmat_band_descriptor(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["dmat", "--family", "lossy", "--eta", "0.5",
                            "--N", "1", "--dim", "1000"])
    assert code == 0
    d = json.loads(out)
    assert set(d) == {"alpha", "beta", "nu", "dim"}
    assert d["dim"] == 1000


def test_dmat_check(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["dmat", "--family", "noise", "--n", "1",
                            "--dim", "128", "--check"])
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_dmat_power_from_stdin(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["dmat", "--family", "noise", "--n", "0",
                            "--dim", "8", "--power", "3"],
                           stdin=json.dumps({"v": [1, 0, 0, 0]}))
    assert code == 0
    payload = json.loads(out)
    assert payload["weights"][3] == 1.0


def test_majorize_stdin_equivalent(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["majorize"],
                           stdin=json.dumps({"p": [0.5, 0.5], "q": [0.5, 0.5]}))
    assert code == 0
    assert json.loads(out)["relation"] == "equivalent"


def test_majorize_unordered(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["majorize", "--unordered"],
                           stdin=json.dumps({"p": [0.9, 0.1], "q": [0.1, 0.9]}))
    assert code == 0
    assert json.loads(out)["relation"] == "left_majorizes"


@pytest.mark.parametrize("argv", [
    ["conjecture", "--family", "lossy", "--eta", "0.5", "--N", "1", "--length", "1"],
    ["conjecture", "--family", "lossy", "--eta", "0.5", "--N", "1", "--length", "-2"],
    ["ladder", "--family", "lossy", "--eta", "0.5", "--N", "1", "--imax", "-3"],
    ["mixture", "--family", "amp", "--g", "2", "--N", "0", "--k", "-1",
     "--weights", "0.5,0.5"],
    ["mixture", "--family", "amp", "--g", "2", "--N", "0", "--k", "-1",
     "--weights", "0.5,0.5", "--mode", "lowest"],
], ids=["length1", "length-2", "imax-3", "k-1-shift", "k-1-lowest"])
def test_out_of_domain_experiment_input_exits_2(capsys, monkeypatch, argv):
    code, out, err = run_cli(capsys, monkeypatch, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "violates" in err


@pytest.mark.parametrize("payload", [
    '{"p":[NaN,1],"q":[1,0]}',
    '{"p":[Infinity,0],"q":[1,0]}',
    '{"p":[-0.5,1.5],"q":[1,0]}',
    '{"p":[1,0],"q":[1,0],"q_tail":NaN}',
])
def test_majorize_rejects_non_distributions(capsys, monkeypatch, payload):
    code, out, err = run_cli(capsys, monkeypatch, ["majorize"], stdin=payload)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_majorize_nan_exits_2_without_traceback():
    import fockladder
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(fockladder.__file__)))
    done = subprocess.run([sys.executable, "-m", "fockladder.cli", "majorize"],
                          input='{"p":[NaN,1],"q":[1,0]}', capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert "not finite" in done.stderr


OUT_OF_DOMAIN_ARGV = {
    "majorize-tol-nan": (["majorize", "--tol", "nan"], "tol=nan"),
    "majorize-tol-inf": (["majorize", "--tol", "inf"], "tol=inf"),
    "majorize-tol-minus-inf": (["majorize", "--tol=-inf"], "tol=-inf"),
    "ladder-tol-nan": (["ladder", "--family", "lossy", "--eta", "0.5", "--N", "1",
                        "--imax", "3", "--tol", "nan"], "tol=nan"),
    "mixture-tol-minus-inf": (["mixture", "--family", "amp", "--g", "2", "--N", "0",
                               "--weights", "0.5,0.5", "--tol=-inf"], "tol=-inf"),
    "mixture-lowest-tol-minus-inf": (["mixture", "--family", "amp", "--g", "2", "--N", "0",
                                      "--weights", "0.5,0.5", "--mode", "lowest",
                                      "--tol=-inf"], "tol=-inf"),
    "conjecture-tol-nan": (["conjecture", "--family", "lossy", "--eta", "0.5",
                            "--N", "1", "--length", "3", "--tol", "nan"], "tol=nan"),
    "grid-tail-tol-inf": (["grid", "--family", "lossy", "--eta", "0.5", "--N", "1",
                           "--tail-tol", "inf"], "tail_tol=inf"),
    "grid-tail-tol-nan": (["grid", "--family", "lossy", "--eta", "0.5", "--N", "1",
                           "--tail-tol", "nan"], "tail_tol=nan"),
    "grid-tail-tol-above-one": (["grid", "--family", "lossy", "--eta", "0.5", "--N", "1",
                                 "--imax", "2", "--tail-tol", "5"], "tail_tol=5"),
    "grid-nmax-negative": (["grid", "--family", "lossy", "--eta", "0.5", "--N", "1",
                            "--nmax", "-1"], "n_max"),
    "grid-multinomial-row-negative": (["grid", "--family", "lossy", "--eta", "0.5", "--N", "1",
                                       "--oracle", "multinomial", "--row", "-1", "--nmax", "5"],
                                      "i=-1"),
    "grid-multinomial-nmax-negative": (["grid", "--family", "lossy", "--eta", "0.5", "--N", "1",
                                        "--oracle", "multinomial", "--row", "2", "--nmax", "-1"],
                                       "n_max=-1"),
    "grid-series-row-negative": (["grid", "--family", "lossy", "--eta", "0.5", "--N", "1",
                                  "--oracle", "series", "--row", "-1", "--nmax", "5"], "i=-1"),
    "grid-special-row-negative": (["grid", "--family", "lossy", "--eta", "0.5", "--N", "0",
                                   "--oracle", "special", "--row", "-1", "--nmax", "5"], "i=-1"),
    "mixture-weights-nan": (["mixture", "--family", "amp", "--g", "2", "--N", "0",
                             "--weights=nan,1"], "mixture coefficients"),
    "entropy-order-nan": (["entropy", "--family", "lossy", "--eta", "0.5", "--N", "1",
                           "--imax", "3", "--order", "nan"], "order=nan"),
}


@pytest.mark.parametrize("argv, named", OUT_OF_DOMAIN_ARGV.values(),
                         ids=OUT_OF_DOMAIN_ARGV)
def test_non_finite_or_negative_input_exits_2_without_traceback(argv, named):
    import fockladder
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(fockladder.__file__)))
    done = subprocess.run([sys.executable, "-m", "fockladder.cli", *argv],
                          input='{"p":[1,0],"q":[1,0]}', capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ") and named in done.stderr


@pytest.mark.parametrize("argv", [
    ["--family", "lossy", "--eta", "0.5", "--N", "0", "--row", "1100", "--nmax", "1100"],
    ["--family", "amp", "--g", "1.5", "--N", "0", "--row", "300", "--nmax", "3000"],
], ids=["loss-row-1100", "amp-row-300"])
def test_special_laws_beyond_binary64_binomials_exit_0(argv):
    import fockladder
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(fockladder.__file__)))
    done = subprocess.run([sys.executable, "-m", "fockladder.cli", "grid", "--oracle",
                           "special", "--format", "csv", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0
    assert "Traceback" not in done.stderr
    row = [float(v) for v in done.stdout.split(",")]
    assert len(row) == int(argv[-1]) + 1 and abs(sum(row) - 1.0) <= 1e-12


def test_ladder_passes(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["ladder", "--family", "amp", "--g", "2", "--N", "0",
                            "--imax", "10"])
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_entropy_csv_and_bits(capsys, monkeypatch):
    import math
    code, nats, _ = run_cli(capsys, monkeypatch,
                            ["entropy", "--family", "lossy", "--eta", "0.5",
                             "--N", "0", "--imax", "2", "--format", "csv"])
    assert code == 0
    lines = nats.strip().split("\n")
    assert lines[0] == "i,entropy"
    s1_nats = float(lines[2].split(",")[1])
    code, bits, _ = run_cli(capsys, monkeypatch,
                            ["entropy", "--family", "lossy", "--eta", "0.5",
                             "--N", "0", "--imax", "2", "--format", "csv",
                             "--bits"])
    s1_bits = float(bits.strip().split("\n")[2].split(",")[1])
    assert s1_bits == pytest.approx(s1_nats / math.log(2), rel=1e-12)
    assert s1_bits == pytest.approx(1.0, abs=1e-12)  # fair coin in bits


def test_entropy_bits_scales_worst_violation(capsys, monkeypatch):
    import math
    argv = ["entropy", "--family", "lossy", "--eta", "0.5", "--N", "0", "--imax", "2"]
    code, nats, _ = run_cli(capsys, monkeypatch, argv)
    code_bits, bits, _ = run_cli(capsys, monkeypatch, argv + ["--bits"])
    nats, bits = json.loads(nats), json.loads(bits)
    assert code == code_bits
    assert (nats["units"], bits["units"]) == ("nats", "bits")
    # S_0 = 0, S_1 = ln 2 (fair coin), S_2 = 1.5 ln 2: the largest step
    # S_i - S_{i+1} is S_1 - S_2 = -ln(2)/2 nats, which is -0.5 bits
    assert bits["worst_violation"] == pytest.approx(nats["worst_violation"] / math.log(2),
                                                    rel=1e-12)
    assert bits["worst_violation"] == pytest.approx(-0.5, abs=1e-12)
    assert bits["values"] == pytest.approx([v / math.log(2) for v in nats["values"]],
                                           rel=1e-12)


def test_mixture_subcommand(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["mixture", "--family", "lossy", "--eta", "0.5",
                            "--N", "0", "--weights", "0.5,0.5", "--k", "2"])
    assert code == 0
    assert json.loads(out)["relation"] == "left_majorizes"


def test_limit_subcommand(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["limit", "--n", "1", "--eps", "0.001",
                            "--route", "loss"])
    assert code == 0
    payload = json.loads(out)
    assert payload["max_error"] < 5e-3
    assert payload["target"]["alpha"] == 0.5


def test_out_file_and_env_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FOCKLADDER_OUT_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["params", "--family", "noise", "--n", "1",
                            "--out", "p.json"])
    assert code == 0
    assert out == ""
    assert json.loads((tmp_path / "p.json").read_text())["chi"] == 0.5


def test_suite_dispatch_with_stubbed_criteria(capsys, monkeypatch):
    from fockladder.suite import CriterionResult

    def fake_pass():
        return CriterionResult("CX", "stub", True, "ok", 0.0)

    def fake_fail():
        return CriterionResult("CY", "stub", False, "broken", 0.0)

    monkeypatch.setattr(cli, "CRITERIA", [fake_pass])
    code, out, err = run_cli(capsys, monkeypatch, ["suite"])
    assert code == 0
    assert json.loads(out)[0]["pass"] is True
    assert "PASS" in err

    monkeypatch.setattr(cli, "CRITERIA", [fake_pass, fake_fail])
    code, out, _ = run_cli(capsys, monkeypatch, ["suite", "--format", "csv"])
    assert code == 1
    lines = out.strip().split("\n")
    assert lines[0] == "key,pass,seconds,description"
    assert lines[2].startswith("CY,0")


def test_every_operation_reachable_exactly_once():
    published_ops = {
        "make_channel", "abgx", "validate_params", "noise_limit_params",
        "grid_recurrence", "row_multinomial", "row_series", "analytic_special",
        "majorize_compare", "fock_compare", "build_D", "check_column_stochastic",
        "apply_D_power", "shannon", "renyi", "chain_check", "ladder_verify",
        "mixture_shift_check", "mixture_vs_lowest_fock", "conjecture_scan",
        "counterexample_search",
    }
    seen = [op for ops in cli.OPERATIONS.values() for op in ops]
    assert sorted(seen) == sorted(set(seen))  # no operation mapped twice
    assert set(seen) == published_ops
    assert set(cli.OPERATIONS) == set(cli._DISPATCH)


def test_dispatch_covers_command_enum():
    assert set(cli._DISPATCH) == {"params", "grid", "dmat", "majorize", "ladder",
                                  "entropy", "mixture", "conjecture", "limit",
                                  "suite"}
