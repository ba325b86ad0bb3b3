import math

import numpy as np
import pytest
from scipy.integrate import quad

from zetasurf import (eigen_arrays, heat, heat_coeffs, heat_integral, heat_trace, make_surface,
                      parse_surface, torus_cf_image_sum, zeta_det)
from zetasurf.heat import (_SERIES_COEFFS, _SERIES_REM, _rows, _small_t_excess,
                           _theta_direct, _weyl_excess)
from zetasurf.sumtools import log_quadrature, neville_zero

PI = math.pi
SPHERE = make_surface("sphere", R=1)
TORUS = make_surface("torus", L1=1, L2=1)


def _f_row(model, msq, t):
    """zeta_det's Mellin F integrand (theta_E - a_{-1}/t - a_0)/t."""
    return _rows(model, [("f", msq, 0)], t, _weyl_excess(model, t))[0]


def test_sphere_trace_against_direct_oracle():
    # 5 explicit terms + exponentially small remainder
    oracle = math.fsum((2 * k + 1) * math.exp(-k * (k + 1)) for k in range(6))
    assert heat_trace(SPHERE, 0.0, 1.0) == pytest.approx(oracle, abs=1e-9)


def test_sphere_trace_large_t_zero_mode():
    assert heat_trace(SPHERE, 0.0, 1e3) == pytest.approx(1.0, abs=1e-15)


def test_torus_poisson_form_small_t():
    # 4 pi t theta / A = 1 up to exponentially small image terms
    val = heat_trace(TORUS, 0.0, 0.01)
    assert abs(4 * PI * 0.01 * val / TORUS.area - 1.0) < 1e-10


def test_torus_direct_vs_poisson_at_crossover():
    t = np.array([0.05])
    d = float(_theta_direct(TORUS, t)[0])
    p = heat_trace(TORUS, 0.0, 0.05)  # Poisson form below t = 0.1
    assert abs(d - p) < 1e-10


def test_heat_coeffs_values():
    c = heat_coeffs(SPHERE, 1.0)
    assert c.a_minus1 == pytest.approx(1.0, rel=1e-15)
    assert c.a_0 == pytest.approx(1.0 / 3.0 - 1.0, rel=1e-14)
    ct = heat_coeffs(TORUS, 0.0)
    assert ct.a_minus1 == pytest.approx(1 / (4 * PI), rel=1e-15)
    assert ct.a_0 == 0.0


def test_heat_coeffs_mass_linearity():
    for model in (SPHERE, TORUS):
        c0 = heat_coeffs(model, 0.0)
        c2 = heat_coeffs(model, 2.0)
        assert c2.a_0 - c0.a_0 == pytest.approx(-2.0 * model.area / (4 * PI), rel=1e-14)


def test_sphere_constant_term_fit():
    ts = [0.02, 0.01, 0.005]
    vals = [heat_trace(SPHERE, 0.0, t) - 1.0 / t for t in ts]
    a0, _ = neville_zero(ts, vals)
    assert a0 == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_trace_positive_decreasing_logconvex():
    ts = np.linspace(0.05, 5.0, 50)
    vals = heat_trace(SPHERE, 1.0, ts)
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) < 0)
    logs = np.log(vals)
    assert np.all(np.diff(logs, 2) > -1e-12)


def test_small_t_remainder_bounded_dyadic():
    # (theta - a_{-1}/t - a_0)/t stays bounded and linear-in-t as t -> 0;
    # a visible ln t drift would break the linear model on the small-t window
    a0 = heat_coeffs(SPHERE, 0.0).a_0
    ts = np.array([2.0 ** -j for j in range(3, 13)])
    rho = (heat_trace(SPHERE, 0.0, ts) - 1.0 / ts - a0) / ts
    assert np.all(np.abs(rho) < 1.0)
    small = ts[-4:]
    fit = np.polyfit(small, rho[-4:], 1)
    resid = rho[-4:] - np.polyval(fit, small)
    assert np.max(np.abs(resid)) < 1e-6


def test_heat_integral_sphere_against_quadrature_oracle():
    # independent oracle: scipy adaptive quadrature of the subtracted trace
    def w(t):
        return heat_trace(SPHERE, 1.0, t) - math.exp(-t) / t

    v1, _ = quad(w, 1e-12, 1.0, limit=400)
    v2, _ = quad(w, 1.0, 200.0, limit=400)
    oracle = v1 + v2  # m0 = 1, so the log term vanishes
    res = heat_integral(SPHERE, 1.0)
    assert res.value == pytest.approx(oracle, abs=1e-9)
    assert res.abs_error_bound < 1e-8


def test_heat_integral_torus_matches_image_sum_oracle():
    res = heat_integral(TORUS, 1.0)
    image = torus_cf_image_sum(1.0, 1.0, 1.0)
    heat_route_cf = res.value / TORUS.area + (math.log(2.0) - np.euler_gamma) / (2 * PI)
    assert heat_route_cf == pytest.approx(image.cf_mean, abs=1e-6)


@pytest.mark.parametrize("spec, msq", [
    ("torus:L1=2.70753,L2=2.91826", 3.24125), ("torus:L1=2.70753,L2=2.91826", 5.86046),
    ("torus:L1=1.96706,L2=0.674443", 2.0628), ("torus:L1=1,L2=1", 8.0),
    ("sphere:R=1", 1.0), ("sphere:R=0.5", 4.0), ("sphere:R=2", 1.5),
])
def test_heat_and_zeta_bounds_cover_an_ulp_of_the_value(spec, msq):
    # each value is a rounded float: no honest bound is below its ulp (the
    # first three are surface-sweep cases whose heat bounds were not)
    model = parse_surface(spec)
    res = heat_integral(model, msq)
    assert res.abs_error_bound >= math.ulp(res.value)
    z = zeta_det(model, msq)
    assert z.err_bound >= math.ulp(z.zeta_prime0)


def test_heat_integral_window_invariance():
    base = heat_integral(TORUS, 1.0)
    moved = heat_integral(TORUS, 1.0, t_lo=2e-5, t_hi=26.0)
    assert abs(base.value - moved.value) <= base.abs_error_bound + moved.abs_error_bound + 1e-13


def test_heat_integral_rejects_massless():
    with pytest.raises(ValueError, match="massless"):
        heat_integral(SPHERE, 0.0)


def test_heat_trace_validation():
    with pytest.raises(ValueError):
        heat_trace(SPHERE, 1.0, -1.0)
    with pytest.raises(ValueError):
        heat_trace(SPHERE, -1.0, 1.0)


def test_sphere_series_coefficients():
    # theta = R^2/t + 1/3 + x/15 + 4x^2/315 + x^3/315 + 4x^4/3465 + ..., x = t/R^2
    assert _SERIES_COEFFS[:4].tolist() == [1 / 15, 4 / 315, 1 / 315, 4 / 3465]
    assert _SERIES_REM < 1e-20


@pytest.mark.parametrize("radius", [0.5, 1.0, 3.0])
def test_sphere_series_matches_level_sum(radius):
    # the direct sum is accurate to rounding in theta here; past the switch
    # x = 0.05 the 14-term series still holds to ~1e-14 of theta up to x = 0.2
    model = make_surface("sphere", R=radius)
    x = np.linspace(0.01, 0.2, 96)
    t = x * radius * radius
    series = radius * radius / t + 1.0 / 3.0 + _small_t_excess(model, t)
    rel = np.abs(series / _theta_direct(model, t) - 1.0)
    assert np.max(rel) < 1e-14
    assert np.max(rel[x <= 0.05]) < 2e-15


@pytest.mark.parametrize("radius", [0.5, 0.78, 1.0, 2.0])
@pytest.mark.parametrize("msq", [0.0, 0.5, 1.0, 4.0])
def test_sphere_f_integrand_converges_within_split_budget(radius, msq):
    # the Mellin F integrand of zeta_det: without the cancellation-free
    # remainder its rounding floor sat above the 1e-12 target
    model = make_surface("sphere", R=radius)
    quad = log_quadrature(lambda t: _f_row(model, msq, t), 1e-5, 1.0,
                          abs_tol=1e-12)
    assert quad.err_bound <= 1e-12
    assert quad.splits < quad.max_splits


@pytest.mark.parametrize("model", [SPHERE, make_surface("torus", L1=1.5, L2=0.7)])
def test_weyl_excess_is_elementwise(model):
    # log_quadrature batches whole passes, so a value may not depend on the
    # batch; both switch points lie in (0.04, 0.1)
    t = np.concatenate([np.geomspace(1e-5, 0.04, 41), np.geomspace(0.1, 40.0, 56)])
    batch = _weyl_excess(model, t)
    for i in range(t.size):
        assert batch[i] == _weyl_excess(model, t[i:i + 1])[0]


def test_remainder_matches_direct_subtraction_at_moderate_t():
    ts = np.array([0.1, 0.5, 2.0])
    for model in (SPHERE, TORUS):
        c = heat_coeffs(model, 1.5)
        direct = heat_trace(model, 1.5, ts) - c.a_minus1 / ts - c.a_0
        assert np.allclose(ts * _f_row(model, 1.5, ts), direct, rtol=0, atol=1e-13)


def test_quadrature_profile_reports_split_budget():
    # an unreachable target spends the whole budget, and the profile says so
    quad = log_quadrature(lambda t: np.sqrt(t), 1e-3, 1.0, abs_tol=1e-300, max_splits=3)
    assert quad.splits == quad.max_splits == 3
    assert quad.profile()["splits"] == 3 and len(quad.panels) == 7 + 3
    profile = heat_integral(SPHERE, 1.0).quadrature_profile
    assert profile["splits"] < profile["max_splits"] == 60


def _gauss_legendre_0_to(t_end, fn, n):
    """Composite n-point Gauss-Legendre of fn over [0, t_end], on the dyadic
    panels [t_end 2^-(k+1), t_end 2^-k] for k < 60 and [0, t_end 2^-60].  fn
    returns the integrand and the summed |parts| it was formed from; the
    second result is 8 ulps of the integral of those."""
    x, w = np.polynomial.legendre.leggauss(n)
    edges = np.concatenate([[0.0], t_end * 2.0 ** -np.arange(60.0, -1.0, -1.0)])
    half = 0.5 * np.diff(edges)[:, None]
    t = (0.5 * (edges[1:] + edges[:-1]))[:, None] + half * x
    value, parts = fn(t.ravel())
    weights = (half * w).ravel()
    return math.fsum(weights * value), 8.0 * np.finfo(float).eps * float(np.sum(weights * parts))


@pytest.mark.parametrize("model", [SPHERE, make_surface("sphere", R=0.3), TORUS,
                                   make_surface("torus", L1=3, L2=0.5)],
                         ids=["sphere-1", "sphere-0.3", "torus-1x1", "torus-3x0.5"])
@pytest.mark.parametrize("msq", [0.0, 1e-12, 0.25, 4.0, 1e4])
def test_closed_form_small_t_pieces_match_gauss_legendre(model, msq):
    # int_0^T of the Mellin F integrand (theta_E - a_{-1}/t - a_0)/t and of the
    # heat integrand e^{-y}(chi/6 + E), with E from _small_t_excess (the series,
    # or the torus images the closed form bounds), T = e^k as zeta_det takes it
    t_end = heat._closed_form_end(model, 1.0)
    f, f_bound, h, h_bound = heat._small_t_pieces(model, msq, t_end)
    a_m1, c0 = model.area / (4 * PI), model.euler_char / 6.0

    def f_integrand(t):
        y = msq * t
        em1, excess = np.expm1(-y), np.exp(-y) * _small_t_excess(model, t)
        parts = ((np.abs(em1) + y) * a_m1 / t + np.abs(em1 * c0) + np.abs(excess)) / t
        return ((em1 + y) * a_m1 / t + em1 * c0 + excess) / t, parts

    def heat_integrand(t):
        value = np.exp(-msq * t) * (c0 + _small_t_excess(model, t))
        return value, np.abs(value)

    for closed, bound, fn in ((f, f_bound, f_integrand), (h, h_bound, heat_integrand)):
        coarse, _ = _gauss_legendre_0_to(t_end, fn, 20)
        fine, rounding = _gauss_legendre_0_to(t_end, fn, 40)
        assert abs(closed - fine) <= bound + abs(fine - coarse) + rounding


@pytest.mark.parametrize("l1, l2", [(1.0, 1.0), (1.5, 0.7), (3.0, 0.5), (0.5, 3.0),
                                    (6.0, 1.0), (1.0, 6.0), (2.1, 1.37)])
def test_torus_theta_product_matches_the_line_sum(l1, l2):
    # above the switch theta = theta_1 theta_2, each 1-D sum cut at the e^-52
    # floor of the switch, against the exactly rounded 2-D line sum
    model = make_surface("torus", L1=l1, L2=l2)
    switch = heat._switch(model)
    t = switch * np.geomspace(1.0, 500.0, 40)
    lams, mults = eigen_arrays(model, heat._EXP_CUT / switch)
    line_sum = np.array([math.fsum((mults * np.exp(-x * lams)).tolist()) for x in t])
    assert np.all(np.abs(_theta_direct(model, t) - line_sum) <= 4 * np.spacing(line_sum))
