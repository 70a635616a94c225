import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


def test_grid_oracle_special_fallthrough_csv_prints_no_row(capsys, monkeypatch):
    code, out, err = run_cli(capsys, monkeypatch,
                             ["grid", "--family", "lossy", "--eta", "0.5",
                              "--N", "1", "--oracle", "special", "--row", "5",
                              "--nmax", "8", "--format", "csv"])
    assert code == 0
    assert out == ""
    assert err == "note: no closed-form law applies\n"


@pytest.mark.parametrize("mode", [["--check"], ["--power", "1"]], ids=["check", "power"])
def test_dmat_json_only_modes_refuse_csv(mode, capsys, monkeypatch):
    assert_exit_2_naming(*run_cli(capsys, monkeypatch,
                                  ["dmat", "--family", "lossy", "--eta", "0.5", "--N", "1",
                                   "--dim", "4", *mode, "--format", "csv"],
                                  stdin='{"v": [1, 0]}'),
                         "format=")


@pytest.mark.parametrize("argv", [
    ["suite", "--seed", "7"],
    ["ladder", "--family", "lossy", "--eta", "0.5", "--N", "1", "--format", "csv"],
    ["majorize", "--seed", "0"],
    ["limit", "--n", "1", "--eps", "0.1", "--route", "loss", "--format", "csv"],
], ids=["suite-seed", "ladder-format", "majorize-seed", "limit-format"])
def test_undeclared_seed_and_format_are_usage_errors(argv, capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "unrecognized arguments" in err


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
    '{"p": [], "q": [], "p_tail": 1.0, "q_tail": 1.0}',
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


DMAT_POWER = ["dmat", "--family", "lossy", "--eta", "0.5", "--N", "1", "--dim", "4",
              "--power", "1"]
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
    "dmat-check-tol-nan": (["dmat", "--family", "lossy", "--eta", "0.5", "--N", "1",
                            "--check", "--tol", "nan"], "tol=nan"),
    "dmat-power-weight-nan": (DMAT_POWER, "v: weight 1 is nan, not finite"),
    "dmat-power-sum-above-one": (DMAT_POWER, "v: weights+tail=1.2 differs from 1"),
    "dmat-power-input-longer-than-dim": (DMAT_POWER, "out_len=4"),
    "dmat-power-stdin-not-an-object": (DMAT_POWER, "stdin=[0.5, 0.5]"),
    "dmat-power-negative": (DMAT_POWER[:-1] + ["-1"], "k=-1"),
    "majorize-scalar-weights": (["majorize"], "weights=1"),
    "majorize-list-tail": (["majorize"], "tail=[0]"),
    "majorize-object-weights": (["majorize"], "weights=[{'a': 1}]"),
    "conjecture-nonbinary-negative": (["conjecture", "--family", "lossy", "--eta", "0.5",
                                       "--N", "1", "--length", "3", "--nonbinary", "-3"],
                                      "nonbinary_samples=-3"),
    # parameter rows with y = 1 or beta = 1 in binary64
    "params-lossless-N-1e17": (["params", "--family", "lossy", "--eta", "1", "--N", "1e17"],
                               "thermal_N=1e+17"),
    "params-amp-g1-N-1e17": (["params", "--family", "amp", "--g", "1", "--N", "1e17"],
                             "thermal_N=1e+17"),
    "params-noise-n-1e300": (["params", "--family", "noise", "--n", "1e300"], "added_n=1e+300"),
    "ladder-lossy-N-1e17": (["ladder", "--family", "lossy", "--eta", "0.5", "--N", "1e17"],
                            "thermal_N=1e+17"),
    "ladder-amp-g-1e17": (["ladder", "--family", "amp", "--g", "1e17"], "g=1e+17"),
    "ladder-noise-n-1e17": (["ladder", "--family", "noise", "--n", "1e17"], "added_n=1e+17"),
    "ladder-conj-g-1e17": (["ladder", "--family", "conj", "--g", "1e17"], "g=1e+17"),
    # photon numbers beyond HARD_CAP
    "ladder-imax-above-cap": (["ladder", "--family", "lossy", "--eta", "0.5", "--N", "1",
                               "--imax", "100000"], "i_max=100000"),
    "grid-nmax-above-cap": (["grid", "--family", "lossy", "--eta", "0.5", "--N", "1",
                             "--nmax", "100000000000"], "n_max=100000000000"),
    "grid-multinomial-row-above-cap": (["grid", "--family", "lossy", "--eta", "0.5", "--N", "1",
                                        "--oracle", "multinomial", "--row", "20001",
                                        "--nmax", "5"], "i=20001"),
    "dmat-check-dim-above-cap": (["dmat", "--family", "lossy", "--eta", "0.5", "--N", "1",
                                  "--dim", "100000000000", "--check"], "dim=100000000000"),
    "mixture-top-level-above-cap": (["mixture", "--family", "amp", "--g", "2", "--N", "0",
                                     "--weights", "0.5,0.5", "--k", "20000"],
                                    "k + len(coeffs) - 1=20001"),
    "conjecture-seed-negative": (["conjecture", "--family", "lossy", "--eta", "0.5", "--N", "1",
                                  "--length", "3", "--seed", "-1", "--nonbinary", "5"],
                                 "seed=-1"),
    # stdin, text flags and --out
    "majorize-string-weights": (["majorize"], "weights=['0.5', '0.5']"),
    "majorize-bool-weights": (["majorize"], "weights=[True, False]"),
    "majorize-401-digit-weight": (["majorize"], "weights=[1000"),
    "majorize-missing-key": (["majorize"], "stdin={'p': [1]}"),
    "majorize-not-json": (["majorize"], "stdin=JSONDecodeError"),
    "entropy-order-not-a-number": (["entropy", "--family", "lossy", "--eta", "0.5", "--N", "1",
                                    "--imax", "3", "--order", "abc"], "order='abc'"),
    "mixture-weights-not-numbers": (["mixture", "--family", "amp", "--g", "2", "--N", "0",
                                     "--weights=0.5,,0.5"], "weights='0.5,,0.5'"),
    "params-out-unwritable": (["params", "--family", "noise", "--n", "1",
                               "--out", "/nonexistent/dir/x.json"],
                              "out='/nonexistent/dir/x.json'"),
}
# stdin of the cases that read their own; every other case gets a valid
# majorize payload
OUT_OF_DOMAIN_STDIN = {
    "dmat-power-weight-nan": '{"v": [0.5, NaN]}',
    "dmat-power-sum-above-one": '{"v": [0.5, 0.7]}',
    "dmat-power-input-longer-than-dim": '{"v": [1, 0, 0, 0, 0, 0]}',
    "dmat-power-stdin-not-an-object": '[0.5, 0.5]',
    "dmat-power-negative": '{"v": [1, 0]}',
    "majorize-scalar-weights": '{"p": 1, "q": 1}',
    "majorize-list-tail": '{"p": [1], "q": [1], "p_tail": [0]}',
    "majorize-object-weights": '{"p": [{"a": 1}], "q": [1]}',
    "majorize-string-weights": '{"p": ["0.5", "0.5"], "q": [1]}',
    "majorize-bool-weights": '{"p": [true, false], "q": [1]}',
    "majorize-401-digit-weight": '{"p": [1%s], "q": [1]}' % ("0" * 400),
    "majorize-missing-key": '{"p": [1]}',
    "majorize-not-json": 'not json',
}


def assert_exit_2_naming(code, out, err, named):
    """Exit 2, nothing on stdout, and one error line naming the argument.
    (In-process, a traceback would be an exception escaping cli.main.)"""
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err


@pytest.mark.parametrize("case", OUT_OF_DOMAIN_ARGV)
def test_non_finite_or_negative_input_exits_2_without_traceback(case, capsys, monkeypatch):
    argv, named = OUT_OF_DOMAIN_ARGV[case]
    assert_exit_2_naming(*run_cli(capsys, monkeypatch, argv,
                                  OUT_OF_DOMAIN_STDIN.get(case, '{"p":[1,0],"q":[1,0]}')),
                         named)


def _no_fill(*args):
    raise AssertionError("a grid beyond the cell budget was filled")


@pytest.mark.parametrize("argv, named", [
    (["grid", "--family", "lossy", "--eta", "0.5", "--N", "1", "--imax", "20000",
      "--nmax", "20000"], "n_max=20000"),
], ids=["grid-20001-squared"])
def test_grids_beyond_the_cell_budget_exit_2_without_filling(argv, named, capsys, monkeypatch):
    from fockladder import transition

    monkeypatch.setattr(transition, "recurrence_grid", _no_fill)
    assert_exit_2_naming(*run_cli(capsys, monkeypatch, argv), named)


@pytest.mark.parametrize("argv", [
    ["mixture", "--family", "lossy", "--eta", "0.5", "--N", "1", "--weights", "0.5,0.5",
     "--k", "19999"],
    ["ladder", "--family", "noise", "--n", "1e6", "--imax", "30"],
], ids=["mixture-k-19999", "ladder-noise-1e6"])
def test_adaptive_grids_beyond_the_cell_budget_exit_1_without_filling(argv, capsys,
                                                                     monkeypatch):
    # an adaptive grid that cannot fit cannot be verified: a failed check, not bad input
    from fockladder import transition

    monkeypatch.setattr(transition, "recurrence_grid", _no_fill)
    code, out, err = run_cli(capsys, monkeypatch, argv)
    assert code == 1 and out == "" and "Traceback" not in err
    assert err.startswith("check failed: ") and err.count("\n") == 1 and "cell budget" in err


@pytest.mark.parametrize("argv, named", [
    (["entropy", "--family", "noise", "--n", "999", "--imax", "0", "--order", "nan"],
     "order=nan"),
    (["mixture", "--family", "noise", "--n", "999", "--weights", "0.5,0.5", "--k", "1",
      "--tol", "nan"], "tol=nan"),
    (["mixture", "--family", "noise", "--n", "999", "--weights", "0.5,0.5", "--k", "1",
      "--mode", "lowest", "--tol", "nan"], "tol=nan"),
], ids=["entropy-order-nan", "mixture-tol-nan", "mixture-lowest-tol-nan"])
def test_out_of_domain_tol_or_order_exits_2_before_any_fill(argv, named, capsys, monkeypatch):
    # the patched kernel fails any fill made before the argument check
    from fockladder import transition

    def no_fill(*args):
        raise AssertionError("a grid was filled before the arguments were checked")

    monkeypatch.setattr(transition, "recurrence_grid", no_fill)
    assert_exit_2_naming(*run_cli(capsys, monkeypatch, argv), named)


@pytest.mark.parametrize("argv", [
    ["--family", "lossy", "--eta", "0.5", "--N", "0", "--row", "1100", "--nmax", "1100"],
    ["--family", "amp", "--g", "1.5", "--N", "0", "--row", "300", "--nmax", "3000"],
], ids=["loss-row-1100", "amp-row-300"])
def test_special_laws_beyond_binary64_binomials_exit_0(argv, capsys, monkeypatch):
    code, out, err = run_cli(capsys, monkeypatch,
                             ["grid", "--oracle", "special", "--format", "csv", *argv])
    assert code == 0
    assert "Traceback" not in err
    row = [float(v) for v in out.split(",")]
    assert len(row) == int(argv[-1]) + 1 and abs(sum(row) - 1.0) <= 1e-12


def test_ladder_passes(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["ladder", "--family", "amp", "--g", "2", "--N", "0",
                            "--imax", "10"])
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_failed_ladder_witness_fails_the_report(capsys, monkeypatch):
    # every step still majorizes the next; only D t(i-1) = t(i) is broken
    from fockladder import experiments, make_channel
    real = experiments.ladder_matvec
    monkeypatch.setattr(experiments, "ladder_matvec",
                        lambda *args: real(*args) + 1e-9)
    report = experiments.ladder_verify(make_channel("amp", g=2.0, thermal_N=0.0), 10)
    assert all(v.holds_left for v in report.verdicts)
    assert report.witness_max_err > 1e-12 and report.passed is False
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["ladder", "--family", "amp", "--g", "2", "--N", "0",
                            "--imax", "10"])
    assert code == 1
    assert json.loads(out)["pass"] is False


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


class RecordingNamespace(argparse.Namespace):
    """An argparse namespace that records the name of every option read from it."""

    def __init__(self):
        super().__init__()
        self._read = set()

    def __getattribute__(self, name):
        attrs = object.__getattribute__(self, "__dict__")
        if name in attrs and not name.startswith("_"):
            attrs["_read"].add(name)
        return object.__getattribute__(self, name)


LOSSY = ["--family", "lossy", "--eta", "0.5", "--N", "0"]
# every mode of each subcommand, as (argv after the subcommand, stdin)
READ_MODES = {
    "params": [(LOSSY, "")],
    "grid": [(LOSSY + ["--imax", "3"], "")] + [
        (LOSSY + ["--oracle", oracle, "--row", "2", "--nmax", "8"], "")
        for oracle in ("multinomial", "series", "special")],
    "dmat": [(LOSSY + ["--dim", "4"], ""), (LOSSY + ["--dim", "4", "--check"], ""),
             (LOSSY + ["--dim", "4", "--power", "2"], '{"v": [0, 1]}')],
    "majorize": [([], '{"p": [1, 0], "q": [0.5, 0.5]}')],
    "ladder": [(LOSSY + ["--imax", "3"], "")],
    "entropy": [(LOSSY + ["--imax", "3"], "")],
    "mixture": [(LOSSY + ["--weights", "0.5,0.5"], "")],
    "conjecture": [(LOSSY + ["--length", "3", "--nonbinary", "2"], "")],
    "limit": [(["--n", "1", "--eps", "0.1", "--route", "loss"], "")],
    "suite": [([], "")],
}


@pytest.mark.parametrize("command", READ_MODES)
def test_every_declared_option_is_read(command, capsys, monkeypatch):
    from fockladder.suite import CriterionResult
    monkeypatch.setattr(cli, "CRITERIA", [lambda: CriterionResult("CX", "stub", True, "ok", 0.0)])
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    declared = {a.dest for a in subparsers.choices[command]._actions} - {"help"}
    read = set()
    for argv, stdin in READ_MODES[command]:
        args = parser.parse_args([command, *argv], namespace=RecordingNamespace())
        args._read.clear()  # argparse itself reads every default while parsing
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        assert cli._DISPATCH[command](args) == 0
        read |= args._read
    capsys.readouterr()
    assert declared - read == set()


# Canonical subcommand for each library operation.
OPERATIONS = {
    "params": ("make_channel", "abgx", "validate_params"),
    "grid": ("grid_recurrence", "row_multinomial", "row_series", "analytic_special"),
    "dmat": ("build_D", "check_column_stochastic", "apply_D_power"),
    "majorize": ("majorize_compare", "fock_compare"),
    "ladder": ("ladder_verify",),
    "entropy": ("shannon", "renyi", "chain_check"),
    "mixture": ("mixture_shift_check", "mixture_vs_lowest_fock"),
    "conjecture": ("conjecture_scan",),
    "limit": ("noise_limit_params",),
    "suite": ("counterexample_search",),
}


def test_every_operation_reachable_exactly_once():
    published_ops = {
        "make_channel", "abgx", "validate_params", "noise_limit_params",
        "grid_recurrence", "row_multinomial", "row_series", "analytic_special",
        "majorize_compare", "fock_compare", "build_D", "check_column_stochastic",
        "apply_D_power", "shannon", "renyi", "chain_check", "ladder_verify",
        "mixture_shift_check", "mixture_vs_lowest_fock", "conjecture_scan",
        "counterexample_search",
    }
    seen = [op for ops in OPERATIONS.values() for op in ops]
    assert sorted(seen) == sorted(set(seen))  # no operation mapped twice
    assert set(seen) == published_ops
    assert set(OPERATIONS) == set(cli._DISPATCH)


def test_dispatch_covers_command_enum():
    assert set(cli._DISPATCH) == {"params", "grid", "dmat", "majorize", "ladder",
                                  "entropy", "mixture", "conjecture", "limit",
                                  "suite"}


# ---------------------------------------------------------------------------
# Property: every argv and stdin gives exit 0, 1 or 2, never an uncaught
# exception, and JSON or CSV on stdout.
# ---------------------------------------------------------------------------

# The tokens are weighted toward in-domain values, so that most examples get
# past argparse to a handler; the unparsable ones ("abc", "", "1.5", "true")
# keep a few percent of the draws per float and about a tenth per index.
def _floats_as_text():
    return st.floats().map(repr) | st.sampled_from(
        ["0", "0.25", "0.5", "1", "2", "3"] * 4
        + ["-1", "1e-320", "1e16", "1e17", "1e300", "nan", "inf", "-inf", "abc", ""])


# small in-domain values only: an in-domain size near HARD_CAP would build
# grids of hundreds of MB
_INDICES = st.sampled_from(["0", "1", "2", "3", "5"] * 5
                           + ["-1", "20001", "100000000000", "1.5", "true", ""])
_CHANNEL_FLAGS = [("--family", st.sampled_from(["lossy", "amp", "noise", "conj", "e",
                                                "banana"])),
                  ("--eta", _floats_as_text()), ("--g", _floats_as_text()),
                  ("--N", _floats_as_text()), ("--n", _floats_as_text())]
_OUT_FLAG = [("--out", st.sampled_from(["/nonexistent/dir/x.json", "."]))]
_FORMAT_FLAG = [("--format", st.sampled_from(["json", "csv"]))]
_FLAGS = {
    "params": _CHANNEL_FLAGS + _FORMAT_FLAG,
    "grid": _CHANNEL_FLAGS + _FORMAT_FLAG + [
        ("--imax", _INDICES), ("--tail-tol", _floats_as_text()), ("--nmax", _INDICES),
        ("--oracle", st.sampled_from(["recurrence", "multinomial", "series", "special"])),
        ("--row", _INDICES)],
    "dmat": _CHANNEL_FLAGS + _FORMAT_FLAG + [
        ("--dim", _INDICES), ("--check", st.just(None)), ("--power", _INDICES),
        ("--tol", _floats_as_text())],
    "majorize": [("--tol", _floats_as_text()), ("--unordered", st.just(None))],
    "ladder": _CHANNEL_FLAGS + [("--imax", _INDICES), ("--tol", _floats_as_text()),
                                ("--tail-tol", _floats_as_text())],
    "entropy": _CHANNEL_FLAGS + _FORMAT_FLAG + [
        ("--imax", _INDICES), ("--bits", st.just(None)), ("--tail-tol", _floats_as_text()),
        ("--order", _floats_as_text() | st.sampled_from(["shannon", "inf", "5000"]))],
    "mixture": _CHANNEL_FLAGS + [
        ("--weights", st.sampled_from(["0.5,0.5", "1", "0.3,0.7,0", "0.5,,0.5", "nan,1",
                                       "x", ""])),
        ("--k", _INDICES), ("--mode", st.sampled_from(["shift", "lowest"])),
        ("--tol", _floats_as_text())],
    "conjecture": _CHANNEL_FLAGS + [
        ("--length", st.sampled_from(["-1", "1", "2", "3", "4", "17", "2.5"])),
        ("--tol", _floats_as_text()), ("--nonbinary", _INDICES), ("--seed", _INDICES)],
    "limit": [("--n", _floats_as_text()), ("--eps", _floats_as_text()),
              ("--route", st.sampled_from(["loss", "amp", "banana"]))],
}
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["p", "q", "v", "tail", "p_tail", "q_tail"]), inner, max_size=4),
    max_leaves=8)
_STDIN = st.sampled_from(['{"p": [0.5, 0.5], "q": [1]}', '{"v": [1, 0]}',
                          '{"v": [0.5, 0.5], "tail": 0}', "", "[[[[", '{"p": [1]}']) \
    | _JSON_VALUES.map(json.dumps) | st.text(max_size=6)


_SUBPARSERS = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices


# the strength flag of each family and values in its domain; --family
# precedes the strength flags in _CHANNEL_FLAGS
_STRENGTH = {"lossy": ("--eta", ["0", "0.25", "0.5", "1"]),
             "amp": ("--g", ["1", "1.5", "2", "3"]),
             "conj": ("--g", ["1", "1.5", "2", "3"]),
             "noise": ("--n", ["0", "0.5", "1", "3"])}


@st.composite
def _invocations(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    required = {flag for a in _SUBPARSERS[command]._actions if a.required
                for flag in a.option_strings}
    argv, family = [command], None
    for flag, values in _FLAGS[command] + _OUT_FLAG:
        # a required flag, or the strength the drawn family needs, is left out
        # one time in eight (an argparse usage error, or a channel without its
        # strength); any other flag one time in two
        strength, in_domain = _STRENGTH.get(family, (None, []))
        needed = flag in required or flag == strength
        if flag == strength:
            values = st.sampled_from(in_domain) | values
        if draw(st.integers(0, 7)) > 0 if needed else draw(st.booleans()):
            value = draw(values)
            family = value if flag == "--family" else family
            argv.append(flag if value is None else f"{flag}={value}")
    return argv, draw(_STDIN)


def _main(argv, stdin):
    """cli.main in-process: (exit code, stdout, stderr). An exception other
    than SystemExit (argparse usage errors) propagates."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _is_json_or_csv(text):
    try:
        json.loads(text)
        return True
    except ValueError:
        rows = list(csv.reader(io.StringIO(text)))
        return text.endswith("\n") and len({len(row) for row in rows}) == 1


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_invocations())
def test_any_input_exits_0_1_or_2_with_json_or_csv(invocation):
    argv, stdin = invocation
    code, out, err = _main(argv, stdin)
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err
    assert out == "" or _is_json_or_csv(out), out


_VALID_CHANNELS = st.one_of(
    st.tuples(st.just("lossy"), st.floats(0.0, 1.0), st.floats(0.0)),
    st.tuples(st.sampled_from(["amp", "conj"]), st.floats(1.0), st.floats(0.0)),
    st.tuples(st.just("noise"), st.floats(0.0), st.none()))
_IN_DOMAIN_RUNS = [
    ["ladder", "--imax", "3"],
    ["entropy", "--imax", "3", "--order", "2"],
    ["entropy", "--imax", "3", "--order", "inf"],
    ["mixture", "--weights", "0.5,0.5", "--k", "1"],
    ["mixture", "--weights", "0.5,0.5", "--k", "1", "--mode", "lowest"],
    ["conjecture", "--length", "3", "--nonbinary", "2"],
]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_VALID_CHANNELS)
def test_a_valid_channel_never_exits_2(channel):
    family, strength, N = channel
    flag = {"lossy": "--eta", "noise": "--n"}.get(family, "--g")
    channel_argv = ["--family", family, f"{flag}={strength!r}"]
    if N is not None:
        channel_argv.append(f"--N={N!r}")
    code, out, _ = _main(["params", *channel_argv], "")
    if code != 0:
        return  # out of domain (exit 2) or an invalid parameter row (exit 1)
    for run in _IN_DOMAIN_RUNS:
        code, _, err = _main(run + channel_argv, "")
        assert code in (0, 1), (run, err)
