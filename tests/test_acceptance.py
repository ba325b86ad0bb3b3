"""Acceptance suite: every headline criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion with the measured residuals.
"""
import json
import math
import re
import time

import numpy as np
import pytest

from zetasurf import (cf_mean, dirichlet_trace, gamma0, heat_integral, heat_trace,
                      laurent_fit, make_surface, mass_shift_prefactor,
                      measure_estimates, torus_cf_image_sum,
                      verify_anomaly, verify_massless, zeta_det)
from zetasurf.cli import main as cli_main
from zetasurf.sumtools import neville_zero

PI = math.pi
EULER = float(np.euler_gamma)
EPS = float(np.finfo(float).eps)
SPHERE = make_surface("sphere", R=1)
TORUS = make_surface("torus", L1=1, L2=1)
TORUS12 = make_surface("torus", L1=1, L2=2)

# literature oracle: det'_zeta(S^2) = exp(1/2 - 4 zeta_R'(-1)), mpmath 30 digits
DETP_SPHERE_ORACLE = 3.195311486059186084


def _report(tag, ok, detail):
    print(f"{tag}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{tag} failed: {detail}"


def test_a1_anomaly_residuals():
    t0 = time.perf_counter()
    rep_s = verify_anomaly(SPHERE, 1.0, 1.0, tol=1e-6)
    dt_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    rep_t = verify_anomaly(TORUS, 1.0, 2.0, tol=1e-6)
    dt_t = time.perf_counter() - t0
    ok = (rep_s.rel_residual < 1e-6 and rep_t.rel_residual < 1e-6
          and dt_s < 10.0 and dt_t < 10.0)
    _report("A1", ok,
            f"sphere residual {rep_s.rel_residual:.3e} ({dt_s:.2f}s), "
            f"torus residual {rep_t.rel_residual:.3e} ({dt_t:.2f}s)")


def test_a2_laurent_structure():
    t0 = time.perf_counter()
    fit = laurent_fit(SPHERE, 1.0)
    integral = heat_integral(SPHERE, 1.0)
    dt = time.perf_counter() - t0
    res_err = abs(fit.residue - SPHERE.area / (4 * PI))
    fin_err = abs(fit.finite_part - integral.value)
    fin_bound = fit.err_bound + integral.abs_error_bound
    ok = res_err <= 4.0 * EPS and fin_err <= fin_bound and dt < 30.0
    _report("A2", ok, f"residue err {res_err:.3e}, finite-part err {fin_err:.3e} "
                      f"within {fin_bound:.3e} ({dt:.2f}s)")


def test_a3_residue_three_ways():
    # the engine's dropped pole, Weyl's A/(4 pi), and the Richardson limit of
    # s tr C^{s+1} at s = 1e-3 (error O(s^2))
    s = 1e-3
    worst_weyl = worst_limit = 0.0
    for model in (SPHERE, TORUS, TORUS12):
        fit = laurent_fit(model, 1.0)
        weyl = model.area / (4 * PI)
        limit = s * (dirichlet_trace(model, 1.0, s / 2).value
                     - dirichlet_trace(model, 1.0, s).value)
        worst_weyl = max(worst_weyl, abs(fit.residue - weyl) / weyl)
        worst_limit = max(worst_limit, abs(limit - fit.residue))
    _report("A3", worst_weyl <= 4.0 * EPS and worst_limit <= s * s,
            f"pole vs Weyl {worst_weyl:.3e} relative, pole vs s -> 0 limit {worst_limit:.3e}")


def test_a4_heat_coefficients():
    ts = [0.02, 0.01, 0.005]
    vals = [heat_trace(SPHERE, 0.0, t) - 1.0 / t for t in ts]
    a0_fit, _ = neville_zero(ts, vals)
    sphere_err = abs(a0_fit - 1.0 / 3.0)
    torus_const = abs(heat_trace(TORUS, 0.0, 0.01) - TORUS.area / (4 * PI * 0.01))
    # the same quantity at t = 0.05 is dominated by the first lattice image
    # (exactly (A/4 pi t) * 4 e^{-1/(4t)} + ... ~ 4.3e-2) and cannot be small;
    # reported for reference, asserted at t = 0.01 where the expansion has
    # converged
    at_005 = abs(heat_trace(TORUS, 0.0, 0.05) - TORUS.area / (4 * PI * 0.05))
    ok = sphere_err < 1e-4 and torus_const < 1e-8
    _report("A4", ok,
            f"sphere a0 err {sphere_err:.3e}, torus const {torus_const:.3e} "
            f"at t=0.01 (reference value at t=0.05: {at_005:.3e})")


def test_a5_two_oracle_cf():
    t0 = time.perf_counter()
    heat_route = cf_mean(TORUS, 1.0)
    image_route = torus_cf_image_sum(1.0, 1.0, 1.0)
    dt = time.perf_counter() - t0
    diff = abs(heat_route.cf_mean - image_route.cf_mean)
    ok = diff < 1e-6 and dt < 5.0
    _report("A5", ok, f"|cf_heat - cf_image| = {diff:.3e} ({dt:.2f}s)")


def test_a6_special_bare_mass():
    m_special = 4.0 * math.exp(-EULER)
    g = abs(gamma0(m_special))
    p = abs(mass_shift_prefactor(SPHERE, m_special, 1.0) - 1.0)
    ok = g < 1e-14 and p < 1e-12
    _report("A6", ok, f"|gamma0(4e^-gamma)| = {g:.2e}, |prefactor - 1| = {p:.2e}")


def test_a7_gff_measure_identity():
    t0 = time.perf_counter()
    est = measure_estimates(SPHERE, 1.0, 1.0, 42.0, n=1000000, seed=1)[0]
    dt = time.perf_counter() - t0
    # the target is det2's truncated sum; check it against the product over
    # the multiplicity-expanded modes k(k+1), k <= 6, summed apart
    xs = [1.0 / (1.0 + k * (k + 1)) for k in range(7) for _ in range(2 * k + 1)]
    product = math.exp(-0.5 * math.fsum(math.log1p(x) - x for x in xs))
    match = abs(est.target / product - 1.0)
    ok = abs(est.z_score) < 3.0 and match < 1e-12 and dt < 60.0
    _report("A7", ok,
            f"z = {est.z_score:.2f}, target vs mode product {match:.2e} ({dt:.1f}s)")


def test_a8_massless_limit():
    hs = [0.2 ** 2, 0.1 ** 2, 0.05 ** 2]
    ratios = [zeta_det(SPHERE, h).det_zeta / h for h in hs]
    extrap, _ = neville_zero(hs, ratios)
    detp = zeta_det(SPHERE, 0.0).det_zeta
    lim_err = abs(extrap - detp)
    oracle_err = abs(detp - DETP_SPHERE_ORACLE)
    ok = lim_err < 1e-4 and oracle_err < 1e-4
    _report("A8", ok,
            f"Richardson limit err {lim_err:.3e}, det'_zeta vs oracle {oracle_err:.3e}")


def test_a9_massless_background_prefactor():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(20260811)))
    worst = 0.0
    for _ in range(10):
        m0 = float(rng.uniform(0.05, 5.0))
        sigma = float(rng.uniform(0.1, 4.0))
        expo = sigma * SPHERE.area / (4 * PI)
        m = math.sqrt(sigma)
        lhs = (m / m0) ** expo * math.exp(0.5 * sigma * gamma0(m0) * SPHERE.area)
        rhs = (0.25 * m * math.exp(EULER)) ** expo
        worst = max(worst, abs(lhs / rhs - 1.0))
    rep = verify_massless(TORUS, 2.0)
    slope_rel = rep.continuity_check["rel_diff"]
    ok = worst < 1e-12 and slope_rel < 1e-2
    _report("A9", ok,
            f"prefactor identity max rel {worst:.2e}, slope vs trace {slope_rel:.2e}")


def test_a10_determinism(capsys, tmp_path):
    argv = ["verify-all", "--seed", "1", "--samples", "200000"]
    outs = []
    for i, threads in enumerate(("2", "1", "3")):
        path = tmp_path / f"run{i}.json"
        code = cli_main(argv + ["--threads", threads, "--out", str(path)])
        assert code == 0
        text = path.read_text()
        outs.append(re.sub(r'^\s*"(runtime_ms|timestamp|threads)":.*$', "", text, flags=re.M))
    ok = outs[0] == outs[1] == outs[2]
    report = json.loads((tmp_path / "run0.json").read_text())
    with capsys.disabled():
        _report("A10", ok,
                f"verify-all byte-identical at --threads 2, 1 and 3 modulo timestamp fields; "
                f"{len(report['results'])} checks, overall pass={report['pass']}")
    assert report["pass"] is True
