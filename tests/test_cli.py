import json
import re

import pytest

from zetasurf.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_anomaly_command(capsys):
    code, out, _ = _run(capsys, "verify-anomaly", "--surface", "sphere:R=1",
                        "--m0", "1", "--m1", "1", "--tol", "1e-6")
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "verify-anomaly"
    assert report["pass"] is True
    rec = report["results"][0]
    assert rec["rel_residual"] < 1e-6
    assert set(rec["rhs_factors"]) == {"det_zeta_m0", "det2", "log_det2", "exp_cf_term"}


def test_verify_anomaly_overflowing_factor(capsys):
    code, out, err = _run(capsys, "verify-anomaly", "--surface", "torus:L1=1,L2=1",
                          "--m0", "0.0316", "--m1", "1")
    assert code == 0, err
    report = json.loads(out)
    rec = report["results"][0]
    assert report["pass"] is True and rec["pass"] is True
    assert rec["rhs_factors"]["exp_cf_term"] == "inf"
    assert isinstance(rec["rhs"], float)
    assert rec["rel_residual"] <= rec["error_budget"]


def test_det2_trivial_value(capsys):
    code, out, _ = _run(capsys, "det2", "--surface", "torus:L1=1,L2=1",
                        "--m0", "1", "--m1", "0")
    assert code == 0
    report = json.loads(out)
    assert report["results"][0]["value"] == 1.0


def test_validation_error_names_parameter(capsys):
    code, _, err = _run(capsys, "verify-anomaly", "--surface", "sphere:R=0",
                        "--m0", "1", "--m1", "1")
    assert code == 1
    assert "R" in err


def test_unknown_command_usage_error(capsys):
    code, _, err = _run(capsys, "no-such-command")
    assert code == 1
    assert err


def test_flag_validation_names_flag(capsys):
    code, _, err = _run(capsys, "det2", "--m0", "-1")
    assert code == 1 and "--m0" in err
    code, _, err = _run(capsys, "gff-verify", "--samples", "0")
    assert code == 1 and "--samples" in err


def test_heat_trace_with_explicit_t(capsys):
    code, out, _ = _run(capsys, "heat-trace", "--surface", "sphere:R=1",
                        "--m0", "0", "--t", "1.0")
    assert code == 0
    report = json.loads(out)
    rec = report["results"][0]
    assert rec["values"][0]["t"] == 1.0
    assert rec["values"][0]["theta"] == pytest.approx(1.4184426386310551, abs=1e-9)


def test_cf_command_torus_two_oracles(capsys):
    code, out, _ = _run(capsys, "cf", "--surface", "torus:L1=1,L2=1", "--m0", "1")
    assert code == 0
    rec = json.loads(out)["results"][0]
    assert rec["abs_diff"] < 1e-6


def test_floats_have_full_precision(capsys):
    _, out, _ = _run(capsys, "cf", "--surface", "torus:L1=1,L2=1", "--m0", "1")
    match = re.search(r'"cf_mean_heat": ([0-9.eE+-]+)', out)
    assert match and len(match.group(1).replace(".", "").replace("-", "")) >= 15


def test_csv_projection(capsys):
    code, out, _ = _run(capsys, "det2", "--surface", "sphere:R=1",
                        "--m0", "1", "--m1", "0", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("results.0.value,") for line in lines)


def test_report_determinism_modulo_volatile_fields(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = _run(capsys, "verify-mainlemma", "--surface",
                            "sphere:R=1", "--m0", "1")
        assert code == 0
        outs.append(re.sub(r'^\s*"(runtime_ms|timestamp)":.*$', "", out, flags=re.M))
    assert outs[0] == outs[1]


def test_gff_verify_small(capsys):
    code, out, _ = _run(capsys, "gff-verify", "--surface", "sphere:R=1",
                        "--m0", "1", "--m1", "1", "--samples", "20000",
                        "--seed", "1", "--threads", "1")
    assert code == 0
    rec = json.loads(out)["results"][0]
    assert abs(rec["z_score"]) < 3.0
    assert rec["det2_truncated_match"] < 1e-12


def test_massless_command(capsys):
    code, out, _ = _run(capsys, "verify-massless", "--surface", "sphere:R=1",
                        "--sigma", "1", "--tol", "1e-4")
    assert code == 0
    rec = json.loads(out)["results"][0]
    assert rec["pass"] is True
    assert "note" in rec


@pytest.mark.parametrize("argv", [("det-zeta", "--m0", "inf"),
                                  ("verify-anomaly", "--m0", "nan")])
def test_non_finite_flag_rejected(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 1 and not out
    assert "--m0" in err and "finite" in err


@pytest.mark.parametrize("argv", [("det2", "--surface", "sphere:R=1"),
                                  ("det2", "--surface", "torus:L1=1,L2=1"),
                                  ("gff-verify", "--surface", "torus:L1=1,L2=1")])
def test_oversized_lambda_max_refused(capsys, argv):
    code, out, err = _run(capsys, *argv, "--lambda-max", "1e30")
    assert code == 1 and not out
    assert "--lambda-max" in err
