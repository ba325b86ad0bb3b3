import json
import math
import re
import threading
import tracemalloc

import pytest

from zetasurf import (cf_mean, cli, gff, heat, parse_surface, torus_cf_image_sum,
                      verify_anomaly)
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
    cases = [
        (("det2", "--m0", "-1"), "--m0", "must be >= 0"),
        (("gff-verify", "--samples", "0"), "--samples", "must be >= 1"),
        (("heat-trace", "--t", "-1"), "--t", "t must be positive and finite"),
        (("heat-trace", "--t", "nan"), "--t", "t must be positive and finite"),
        (("det2", "--m0", "0"), "--m0", "m0sq must be positive"),
        (("cf", "--m0", "0"), "--m0", "m0sq must be positive"),
        (("verify-anomaly", "--m0", "0"), "--m0", "m0sq must be positive"),
        (("verify-mainlemma", "--m0", "0"), "--m0", "msq must be > 0"),
        (("gff-verify", "--m0", "0"), "--m0", "m0 must be positive"),
        # a mass whose square overflows, before any spectrum is built
        (("gff-verify", "--m0", "1e200"), "--m0", "square must be finite"),
        (("gff-verify", "--m1", "1e200"), "--m1", "square must be finite"),
        (("det2", "--m0", "1e200"), "--m0", "square must be finite"),
        (("det2", "--m1", "1e200"), "--m1", "square must be finite"),
        (("det-zeta", "--m0", "1e200"), "--m0", "square must be finite"),
        # a mass whose square puts the window end e^k >= 52/m^2 past the float range
        (("det-zeta", "--m0", "1e-160"), "--m0", "too small"),
        (("verify-anomaly", "--m0", "1e-160", "--m1", "1"), "--m0", "too small"),
        (("cf", "--surface", "torus:L1=1,L2=1", "--m0", "1e-160"), "--m0", "too small"),
        (("verify-mainlemma", "--m0", "1e-160"), "--m0", "too small"),
        (("verify-massless", "--sigma", "1e-310"), "--sigma", "too small"),
    ]
    for argv, flag, message in cases:
        code, out, err = _run(capsys, *argv)
        assert code == 1 and not out, argv
        assert flag in err and message in err, (argv, err)
        assert err.count("\n") == 1, (argv, err)   # nothing else on stderr


@pytest.mark.parametrize("command", ["gff-verify", "verify-all"])
def test_negative_seed_names_its_flag(capsys, command):
    code, out, err = _run(capsys, command, "--seed", "-1", "--samples", "1000")
    assert code == 1 and not out
    assert "--seed" in err and "--lambda-max" not in err


def test_det_zeta_massless_stays_valid(capsys):
    # m0 = 0 selects the primed determinant
    code, out, err = _run(capsys, "det-zeta", "--m0", "0")
    assert code == 0, err
    assert json.loads(out)["results"][0]["excluded_zero_modes"] == 1


def test_heat_trace_with_explicit_t(capsys):
    code, out, _ = _run(capsys, "heat-trace", "--surface", "sphere:R=1",
                        "--m0", "0", "--t", "1.0")
    assert code == 0
    report = json.loads(out)
    rec = report["results"][0]
    assert rec["values"][0]["t"] == 1.0
    assert rec["values"][0]["theta"] == pytest.approx(1.4184426386310551, abs=1e-9)


def test_cf_command_torus_two_oracles(capsys):
    # the heat route and the image sum agree inside the sum of their bounds
    for spec in ("torus:L1=1,L2=1", "torus:L1=0.5,L2=0.5", "torus:L1=3,L2=0.5",
                 "torus:L1=1,L2=2", "torus:L1=10,L2=10"):
        model = parse_surface(spec)
        for m0 in (0.5, 1.0):
            code, out, _ = _run(capsys, "cf", "--surface", spec, "--m0", repr(m0))
            assert code == 0
            rec = json.loads(out)["results"][0]
            image = torus_cf_image_sum(model.l1, model.l2, m0)
            assert rec["bound"] == cf_mean(model, m0 * m0).err_bound + image.err_bound
            assert rec["abs_diff"] <= rec["bound"] < 1e-10
            assert rec["pass"] is True


@pytest.mark.parametrize("spec", ["sphere:R=1", "torus:L1=1.5,L2=0.7"])
def test_verify_mainlemma_finite_part_within_bounds(capsys, spec):
    # m0^2 = 0.3, off the verify-all mass grid: no tolerance, only the two bounds
    code, out, _ = _run(capsys, "verify-mainlemma", "--surface", spec,
                        "--m0", "0.5477225575051661")
    assert code == 0
    rec = json.loads(out)["results"][0]
    bound = rec["finite_part_bound"] + rec["heat_integral_bound"]
    assert rec["finite_part_abs_diff"] <= bound <= 1e-10
    weyl = rec["residue_weyl"]
    assert abs(rec["residue_fit"] - weyl) <= 4.0 * math.ulp(1.0) * weyl


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
    # the truncated product over the multiplicity-expanded modes k(k+1), k <= 6,
    # summed independently of det2's per-line sum
    xs = [1.0 / (1.0 + k * (k + 1)) for k in range(7) for _ in range(2 * k + 1)]
    log_product = math.fsum(math.log1p(x) - x for x in xs)
    assert rec["target"] == pytest.approx(math.exp(-0.5 * log_product), rel=1e-12)
    assert "det2_truncated_match" not in rec


@pytest.mark.parametrize("m1", ["18", "20", "22", "25"])
def test_gff_verify_overflowing_weights_fail_with_finite_z(capsys, m1):
    # e^{2 shift} overflows a float from m1 = 18 on, the target from 20 and
    # e^shift from 22; the check must still fail cleanly rather than raise
    code, out, err = _run(capsys, "gff-verify", "--surface", "sphere:R=1", "--m0", "1",
                          "--m1", m1, "--samples", "20000", "--threads", "1")
    assert code == 2, err
    report = json.loads(out)
    rec = report["results"][0]
    assert isinstance(rec["z_score"], float) and math.isfinite(rec["z_score"])
    assert rec["pass"] is False and report["pass"] is False


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


def test_oversized_gff_draw_refused_before_allocating(capsys):
    # 1e5 lines fit the spectrum budget, but one chunk's 65536 x 1e5 chi^2 draws
    # do not; the message still names the 1e10 modes they stand for
    tracemalloc.start()
    try:
        code, out, err = _run(capsys, "gff-verify", "--surface", "sphere:R=1",
                              "--lambda-max", "1e10")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1 and not out
    assert "--lambda-max" in err and "modes" in err
    assert peak < 1 << 20


def test_line_level_gff_not_refused_on_mode_count(capsys):
    # 5e7 modes, but the draw is 100 rows over 7072 lines
    code, out, err = _run(capsys, "gff-verify", "--surface", "sphere:R=1",
                          "--lambda-max", "5e7", "--samples", "100")
    assert "modes" not in err
    assert code == 0, err
    assert json.loads(out)["results"][0]["n_samples"] == 100


def test_verify_all_anomaly_rows_are_verify_anomaly_reports(capsys):
    code, out, err = _run(capsys, "verify-all", "--samples", "20000", "--threads", "1")
    assert code == 0, err
    rows = [r for r in json.loads(out)["results"] if r.get("check") == "anomaly-grid"]
    assert len(rows) == 27
    for row in rows:
        rep = verify_anomaly(parse_surface(row["surface"]), row["m0sq"], row["m1sq"],
                             tol=1e-6)
        assert (row["rel_residual"], row["error_budget"], row["pass"]) == (
            rep.rel_residual, rep.error_budget, rep.passed)
        assert row["budget_breakdown"] == rep.budget_breakdown


def test_verify_all_twice_in_one_process_gives_one_report(capsys, monkeypatch):
    # each run starts from cold memos and recomputes every result
    outs = []
    for _ in range(2):
        monkeypatch.setattr(heat, "_MEMO", {})
        code, out, err = _run(capsys, "verify-all", "--samples", "20000", "--threads", "1")
        assert code == 0, err
        outs.append(re.sub(r'^\s*"(runtime_ms|timestamp)":.*$', "", out, flags=re.M))
    assert outs[0] == outs[1]


def test_threads_env_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("ZETASURF_THREADS", "abc")
    code, out, err = _run(capsys, "det-zeta", "--surface", "sphere:R=1", "--m0", "1")
    assert code == 1 and out == ""
    assert "ZETASURF_THREADS" in err and "--threads" in err
    monkeypatch.setenv("ZETASURF_THREADS", "0")
    code, _, err = _run(capsys, "det-zeta", "--surface", "sphere:R=1", "--m0", "1")
    assert code == 1 and "--threads" in err


def test_verify_all_failure_cancels_the_gff_draw(capsys, monkeypatch):
    # a record before the GFF one raises: the draw started at the top of
    # verify-all is stopped, its helpers joined and its entry dropped
    def broken(*args, **kwargs):
        raise ValueError("broken massless record")

    monkeypatch.setattr(cli, "verify_massless", broken)
    baseline = threading.active_count()
    code, _, err = _run(capsys, "verify-all", "--samples", "1000000", "--threads", "3")
    assert code == 1 and "broken massless record" in err
    assert not gff._PENDING
    assert threading.active_count() == baseline


def test_verify_all_draws_each_gff_chunk_once(capsys, monkeypatch):
    # the draw started at the top of verify-all is the one its GFF record
    # finishes: 200000 samples are 4 chunks, each drawn exactly once
    real, drawn = gff._measure_chunk_stats, []

    def recorded(draw, seed, idx, size):
        drawn.append(idx)
        return real(draw, seed, idx, size)

    monkeypatch.setattr(gff, "_measure_chunk_stats", recorded)
    code, _, err = _run(capsys, "verify-all", "--samples", "200000", "--threads", "2")
    assert code == 0, err
    assert sorted(drawn) == [0, 1, 2, 3]
    assert not gff._PENDING
