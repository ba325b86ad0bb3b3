import math

import numpy as np
import pytest

from zetasurf import (det2, gamma0, heat_integral, make_surface, mass_shift_prefactor,
                      verify_anomaly, verify_massless, zeta_det)

PI = math.pi
EULER = float(np.euler_gamma)
SPHERE = make_surface("sphere", R=1)
TORUS = make_surface("torus", L1=1, L2=1)
TORUS12 = make_surface("torus", L1=1, L2=2)


def test_anomaly_trivial_shift():
    rep = verify_anomaly(SPHERE, 1.0, 0.0)
    assert rep.rel_residual < 1e-12
    assert rep.rhs_factors["det2"] == 1.0
    assert rep.rhs_factors["exp_cf_term"] == 1.0
    assert rep.passed


def test_anomaly_sphere_instance():
    rep = verify_anomaly(SPHERE, 1.0, 1.0, tol=1e-6)
    assert rep.passed and rep.rel_residual < 1e-6
    assert set(rep.rhs_factors) == {"det_zeta_m0", "det2", "log_det2", "exp_cf_term"}
    assert rep.rhs == pytest.approx(
        rep.rhs_factors["det_zeta_m0"] * rep.rhs_factors["det2"]
        * rep.rhs_factors["exp_cf_term"], rel=1e-15)


def test_anomaly_torus_instance():
    rep = verify_anomaly(TORUS, 1.0, 2.0, tol=1e-6)
    assert rep.passed and rep.rel_residual < 1e-6


def test_anomaly_small_mass_overflowing_factor():
    # I is about 1001 at m0 = 0.0316 on the unit torus, so exp(m1^2 I)
    # overflows (and det2 underflows); the identity holds in log space
    rep = verify_anomaly(TORUS, 0.0316 ** 2, 1.0)
    assert rep.rhs_factors["exp_cf_term"] == math.inf
    assert rep.rhs_factors["det2"] == 0.0
    assert rep.rhs_factors["log_det2"] == pytest.approx(-995.0, abs=1.0)
    assert math.isfinite(rep.rhs) and rep.rhs == pytest.approx(rep.lhs, rel=1e-8)
    assert rep.passed and rep.rel_residual <= rep.error_budget
    assert math.isfinite(rep.rel_residual)


@pytest.mark.parametrize("model", [SPHERE, TORUS, TORUS12])
@pytest.mark.parametrize("m0sq", [0.5, 4.0])
def test_anomaly_grid_corners(model, m0sq):
    rep = verify_anomaly(model, m0sq, 2.0, tol=1e-6)
    assert rep.passed, (model.label(), m0sq, rep.rel_residual)


def test_anomaly_chaining_semigroup():
    # shifting by a then b must compose to shifting by a+b
    m0sq, a, b = 1.0, 1.0, 2.0
    r1 = verify_anomaly(TORUS, m0sq, a)
    r2 = verify_anomaly(TORUS, m0sq + a, b)
    r3 = verify_anomaly(TORUS, m0sq, a + b)
    chained = (r1.rhs_factors["det2"] * r1.rhs_factors["exp_cf_term"]
               * r2.rhs_factors["det2"] * r2.rhs_factors["exp_cf_term"])
    oneshot = r3.rhs_factors["det2"] * r3.rhs_factors["exp_cf_term"]
    budget = r1.error_budget + r2.error_budget + r3.error_budget
    assert abs(chained / oneshot - 1.0) <= max(budget, 1e-6)


def test_prefactor_definitional_identity():
    for m0 in (0.3, 1.0, 4.0):
        for m1sq in (0.0, 1.5):
            pref = mass_shift_prefactor(TORUS12, m0, m1sq)
            expected = math.exp(0.5 * m1sq * gamma0(m0) * TORUS12.area)
            assert abs(pref / expected - 1.0) < 1e-12


def test_prefactor_special_values():
    m_special = 4.0 * math.exp(-EULER)
    assert mass_shift_prefactor(SPHERE, m_special, 1.0) == pytest.approx(1.0, abs=1e-12)
    # A = 4 pi, m1^2 = 1, m0 = 4: the exponent is exactly gamma_E
    assert mass_shift_prefactor(SPHERE, 4.0, 1.0) == pytest.approx(
        math.exp(EULER), rel=1e-12)
    assert mass_shift_prefactor(SPHERE, 0.5, 0.0) == 1.0


def test_massless_sphere_report():
    rep = verify_massless(SPHERE, 1.0)
    assert rep.passed
    assert rep.limit_check["pass"] and rep.prefactor_check["pass"]
    assert rep.continuity_check["pass"]
    assert "exp(sigma*gamma0*A)" in rep.note  # the discrepancy stays visible
    assert rep.limit_check["abs_diff"] < 1e-4


def _floats(obj):
    if isinstance(obj, dict):
        return [x for v in obj.values() for x in _floats(v)]
    if isinstance(obj, (list, tuple)):
        return [x for v in obj for x in _floats(v)]
    return [obj] if isinstance(obj, float) else []


@pytest.mark.parametrize("sigma", [140.0, 400.0, 1e4])
def test_massless_at_a_large_mass_stays_in_logs(sigma):
    # (m/m0)^{sigma A/4 pi} overflows from sigma ~ 140 on the unit sphere, the
    # prefactor exp(sigma gamma0 A/2) underflows, and det_zeta at sigma
    # overflows: every check is taken in logs and every field stays finite
    rep = verify_massless(SPHERE, sigma)
    assert rep.passed
    assert all(math.isfinite(x) for x in _floats(rep.to_dict()))
    assert "inf" not in rep.note and "nan" not in rep.note


def test_massless_torus_continuity_against_dirichlet():
    rep = verify_massless(TORUS, 2.0)
    assert rep.continuity_check["rel_diff"] < 1e-2
    assert rep.continuity_check["pass"]


def test_massless_validation():
    with pytest.raises(ValueError):
        verify_massless(SPHERE, -1.0)


def test_anomaly_error_budget_propagation():
    rep = verify_anomaly(SPHERE, 1.0, 1.0)
    z1 = zeta_det(SPHERE, 2.0)
    z0 = zeta_det(SPHERE, 1.0)
    d2 = det2(SPHERE, 1.0, 1.0)
    integral = heat_integral(SPHERE, 1.0)
    expected = (z1.err_bound + z0.err_bound + d2.tail_bound
                + 1.0 * integral.abs_error_bound)
    assert rep.error_budget == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("model", [SPHERE, TORUS12])
def test_anomaly_budget_breakdown_sums_to_budget(model):
    rep = verify_anomaly(model, 0.5, 2.0)
    parts = rep.budget_breakdown
    assert parts == {
        "z_shift": zeta_det(model, 2.5).err_bound,
        "z_base": zeta_det(model, 0.5).err_bound,
        "det2_tail": det2(model, 0.5, 2.0).tail_bound,
        "m1sq_heat": 2.0 * heat_integral(model, 0.5).abs_error_bound,
    }
    assert math.fsum(parts.values()) == rep.error_budget
    assert rep.to_dict()["budget_breakdown"] == parts
