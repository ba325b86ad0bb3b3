"""Out-of-range masses and quadrature windows fail with a ValueError that
names the argument."""
import math
import re
import warnings

import numpy as np
import pytest

from zetasurf import (cf_mean, det2, dirichlet_trace, gamma0, gff, heat, heat_coeffs,
                      heat_integral, heat_trace, laurent_fit, make_surface, mass_shift_prefactor,
                      measure_estimates, torus_cf_image_sum, verify_anomaly, zeta, zeta_det)
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
], ids=["log_quadrature-inf", "log_quadrature-nan"])
def test_infinite_or_misplaced_window_is_rejected_by_name(call, name):
    with pytest.raises(ValueError, match=name):
        call()


@pytest.mark.parametrize("fn", [zeta_det, heat_integral, verify_anomaly])
@pytest.mark.parametrize("msq", [1e-320, 5.2e-306])
def test_tiny_mass_is_refused_by_name_before_any_quadrature(fn, msq, monkeypatch):
    # the window end e^k >= 52/m^2 leaves the float range at m^2 <= 5.2e-306
    monkeypatch.setattr(heat, "log_quadrature", lambda *args: pytest.fail("quadrature ran"))
    with pytest.raises(ValueError, match="^msq = .* is too small"):
        fn(SPHERE, msq, *([1.0] if fn is verify_anomaly else []))


@pytest.mark.parametrize("model", [SPHERE, TORUS, make_surface("torus", L1=1, L2=2)],
                         ids=lambda m: m.label())
@pytest.mark.parametrize("fn", [zeta_det, heat_integral])
@pytest.mark.parametrize("msq", [9e-306, 1e-304])
def test_tiny_mass_inside_the_float_range_emits_no_warning(fn, model, msq):
    # the massless trace at the window end e^k >= 52/m^2: -t lambda overflows
    # to -inf there, and its terms are exactly 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            fn(model, msq)
        except ValueError as exc:
            assert re.match(r"(msq|heat_integral bound)\b", str(exc)), exc


@pytest.mark.parametrize("t_star", [1e-6, 0.05, 3.0])
def test_any_split_point_gives_the_same_determinant(t_star):
    # the split point is a private job argument; the determinant does not depend on it
    base = zeta_det(SPHERE, 1.0)
    moved = heat._solve(SPHERE, [zeta._zeta_job(SPHERE, 1.0, t_star)])[0]
    assert abs(moved.zeta_prime0 - base.zeta_prime0) <= moved.err_bound + base.err_bound


def test_heat_integral_window_inside_the_closed_form_range():
    # the largest t_lo each surface's closed form allows gives the default value within the bounds
    for model, t_lo in ((SPHERE, 0.05), (TORUS, 1.0 / 160.0)):
        base = heat_integral(model, 1.0)
        moved = heat._solve(model, [heat._heat_job(model, 1.0, t_lo)])[0]
        assert abs(moved.value - base.value) <= moved.abs_error_bound + base.abs_error_bound


def test_zeta_det_on_a_large_sphere_is_certified():
    # zeta'(0) = -1e4 + ...: det_zeta = exp(-zeta'(0)) overflows to inf, and the
    # certified zeta'(0) is its log
    res = zeta_det(make_surface("sphere", R=100), 1.0)
    assert res.err_bound <= 1e-8 and math.isfinite(res.zeta_prime0)
    assert res.zeta_prime0 < -709.79 and res.det_zeta == INF
