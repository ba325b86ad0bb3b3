"""Out-of-range masses and quadrature windows fail with a ValueError that
names the argument."""
import math

import numpy as np
import pytest

from zetasurf import (cf_mean, det2, dirichlet_trace, gamma0, heat_coeffs, heat_integral,
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
], ids=lambda v: v.__name__ if callable(v) else None)
def test_non_finite_mass_is_rejected_by_name(fn, args, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        fn(*args)


@pytest.mark.parametrize("call, name", [
    (lambda: log_quadrature(np.exp, 1.0, INF), "t_hi"),
    (lambda: log_quadrature(np.exp, NAN, 1.0), "t_lo"),
    (lambda: heat_integral(SPHERE, 1.0, t_hi=INF), "t_hi"),
    (lambda: heat_integral(SPHERE, 1.0, t_lo=NAN), "t_lo"),
    (lambda: zeta_det(SPHERE, 1.0, t_star=INF), "t_star"),
    (lambda: zeta_det(SPHERE, 1.0, t_star=1e-6), "t_star"),
    (lambda: zeta_det(SPHERE, 1.0, t_star=NAN), "t_star"),
], ids=["log_quadrature-inf", "log_quadrature-nan", "heat_integral-inf", "heat_integral-nan",
        "zeta_det-inf", "zeta_det-below-t_lo", "zeta_det-nan"])
def test_infinite_or_misplaced_window_is_rejected_by_name(call, name):
    with pytest.raises(ValueError, match=name):
        call()
