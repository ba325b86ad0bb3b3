"""Out-of-range masses and quadrature windows fail with a ValueError that
names the argument."""
import math

import numpy as np
import pytest

from zetasurf import (cf_mean, det2, dirichlet_trace, gamma0, gff, heat_coeffs, heat_integral,
                      heat_trace, laurent_fit, make_surface, mass_shift_prefactor,
                      measure_estimates, torus_cf_image_sum, verify_anomaly, zeta_det)
from zetasurf.sumtools import log_quadrature

SPHERE = make_surface("sphere", R=1)
TORUS = make_surface("torus", L1=1, L2=1)
NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("fn, args, name", [
    (det2, (SPHERE, NAN, 1.0), "m0sq"),
    (det2, (SPHERE, 1.0, INF), "m1sq"),
    (dirichlet_trace, (SPHERE, NAN, 0.1), "msq"),
    (laurent_fit, (SPHERE, NAN), "msq"),
    (heat_trace, (SPHERE, NAN, 1.0), "msq"),
    (heat_coeffs, (SPHERE, NAN), "msq"),
    (heat_coeffs, (SPHERE, INF), "msq"),
    (gamma0, (INF,), "m0"),
    (heat_integral, (SPHERE, NAN), "msq"),
    (heat_integral, (SPHERE, INF), "msq"),
    (torus_cf_image_sum, (1.0, 1.0, NAN), "m0"),
    (cf_mean, (TORUS, INF), "m0sq"),
    (zeta_det, (SPHERE, NAN), "msq"),
    (verify_anomaly, (SPHERE, NAN, 1.0), "m0sq"),
    (verify_anomaly, (SPHERE, 1.0, INF), "m1sq"),
    (mass_shift_prefactor, (SPHERE, 1.0, NAN), "m1sq"),
    (measure_estimates, (SPHERE, NAN, 1.0, 42.0, 100, 1), "m0"),
    (measure_estimates, (SPHERE, 1.0, INF, 42.0, 100, 1), "m1"),
    (zeta_det, (SPHERE, INF), "msq"),
], ids=lambda v: v.__name__ if callable(v) else None)
def test_non_finite_mass_is_rejected_by_name(fn, args, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        fn(*args)


@pytest.mark.parametrize("m0, m1, name", [(1e200, 1.0, "m0sq"), (1.0, 1e200, "m1sq")])
def test_overflowing_mass_square_is_refused_before_the_spectrum(m0, m1, name, monkeypatch):
    # the squares overflow to inf: refused by name, with no RuntimeWarning
    # (an error in tier-1) and no spectrum built
    monkeypatch.setattr(gff, "_checked_spectrum", lambda *args: pytest.fail("spectrum built"))
    with pytest.raises(ValueError, match=f"^{name} must be"):
        measure_estimates(SPHERE, m0, m1, 42.0, 100, 1)


@pytest.mark.parametrize("call, name", [
    (lambda: log_quadrature(np.exp, 1.0, INF), "t_hi"),
    (lambda: log_quadrature(np.exp, NAN, 1.0), "t_lo"),
    (lambda: heat_integral(SPHERE, 1.0, t_hi=INF), "t_hi"),
    (lambda: heat_integral(SPHERE, 1.0, t_lo=NAN), "t_lo"),
    # [0, t_lo] is taken in closed form: the sphere's series ends at 0.05 R^2,
    # the torus's image bound at min(L1, L2)^2 / 160
    (lambda: heat_integral(SPHERE, 1.0, t_lo=0.06), "t_lo"),
    (lambda: heat_integral(TORUS, 1.0, t_lo=0.01), "t_lo"),
    (lambda: zeta_det(SPHERE, 1.0, t_star=INF), "t_star"),
    (lambda: zeta_det(SPHERE, 1.0, t_star=0.0), "t_star"),
    (lambda: zeta_det(SPHERE, 1.0, t_star=1e301), "t_star"),
    (lambda: zeta_det(SPHERE, 1.0, t_star=NAN), "t_star"),
], ids=["log_quadrature-inf", "log_quadrature-nan", "heat_integral-inf", "heat_integral-nan",
        "heat_integral-t_lo-past-series", "heat_integral-t_lo-past-images",
        "zeta_det-inf", "zeta_det-zero", "zeta_det-past-1e300", "zeta_det-nan"])
def test_infinite_or_misplaced_window_is_rejected_by_name(call, name):
    with pytest.raises(ValueError, match=name):
        call()


@pytest.mark.parametrize("t_star", [1e-6, 0.05, 3.0])
def test_any_split_point_gives_the_same_determinant(t_star):
    # t_star accepts (0, 1e300]; the determinant does not depend on it
    base = zeta_det(SPHERE, 1.0)
    moved = zeta_det(SPHERE, 1.0, t_star=t_star)
    assert abs(moved.zeta_prime0 - base.zeta_prime0) <= moved.err_bound + base.err_bound


def test_heat_integral_window_inside_the_closed_form_range():
    # the largest t_lo each surface accepts gives the default value within the bounds
    for model, t_lo in ((SPHERE, 0.05), (TORUS, 1.0 / 160.0)):
        base, moved = heat_integral(model, 1.0), heat_integral(model, 1.0, t_lo=t_lo)
        assert abs(moved.value - base.value) <= moved.abs_error_bound + base.abs_error_bound


def test_zeta_det_on_a_large_sphere_is_certified():
    # zeta'(0) = -1e4 + ...: det_zeta = exp(-zeta'(0)) overflows to inf, and the
    # certified zeta'(0) is its log
    res = zeta_det(make_surface("sphere", R=100), 1.0)
    assert res.err_bound <= 1e-8 and math.isfinite(res.zeta_prime0)
    assert res.zeta_prime0 < -709.79 and res.det_zeta == INF
