import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import psi

from zetasurf import (cf_mean, det2, gamma0, heat_integral, k0, make_surface,
                      torus_cf_image_sum)
from zetasurf import green

PI = math.pi
EULER = float(np.euler_gamma)
SPHERE = make_surface("sphere", R=1)
TORUS = make_surface("torus", L1=1, L2=1)
FREE_SPACE_CF = (math.log(2.0) - EULER) / (2 * PI)


# ------------------------------------------------------------------ gamma0

def test_gamma0_special_values():
    assert gamma0(4.0 * math.exp(-EULER)) == pytest.approx(0.0, abs=1e-14)
    assert gamma0(4.0) == pytest.approx(EULER / (2 * PI), abs=1e-15)
    assert gamma0(4.0 * math.exp(1.0 - EULER)) == pytest.approx(1 / (2 * PI), abs=1e-14)


def test_gamma0_rejects_nonpositive():
    with pytest.raises(ValueError):
        gamma0(0.0)


@settings(deadline=None, max_examples=50)
@given(st.floats(0.01, 50.0), st.floats(1.0001, 3.0))
def test_gamma0_strictly_increasing(m0, factor):
    assert gamma0(m0 * factor) > gamma0(m0)


# -------------------------------------------------------------------- det2

def test_det2_trivial_at_zero_shift():
    res = det2(SPHERE, 1.0, 0.0)
    assert res.log_value == 0.0
    assert res.value == 1.0


def test_det2_single_zero_mode_factor():
    # truncation keeping only lambda = 0: factor (1+1) e^{-1}
    res = det2(SPHERE, 1.0, 1.0, lam_max=1.0)
    assert math.exp(res.truncated_log) == pytest.approx(2.0 / math.e, rel=1e-15)


def test_det2_lambda_doubling_within_tail_bound():
    a = det2(SPHERE, 1.0, 1.0, lam_max=1e4)
    b = det2(SPHERE, 1.0, 1.0, lam_max=2e4)
    assert abs(a.log_value - b.log_value) <= a.tail_bound + b.tail_bound


def test_det2_in_unit_interval_and_monotone():
    logs = [det2(TORUS, 1.0, m1sq).log_value for m1sq in (0.0, 1.0, 2.0, 4.0)]
    assert logs[0] == 0.0
    assert all(l <= 0.0 for l in logs)
    assert all(a > b for a, b in zip(logs, logs[1:]))
    assert all(0.0 < math.exp(l) <= 1.0 for l in logs)


def test_det2_validation():
    with pytest.raises(ValueError):
        det2(SPHERE, 0.0, 1.0)
    with pytest.raises(ValueError):
        det2(SPHERE, 1.0, -1.0)


# ------------------------------------------------------------- finite part

def test_two_oracle_cf_agreement():
    heat_route = cf_mean(TORUS, 1.0)
    image_route = torus_cf_image_sum(1.0, 1.0, 1.0)
    assert heat_route.source == "heat_integral"
    assert image_route.source == "image_sum"
    assert heat_route.cf_mean == pytest.approx(image_route.cf_mean, abs=1e-6)


def _unfolded_image_sum(l1, l2, m0):
    # every lattice vector, sorted, one exactly rounded sum
    na, nb = int(44.0 / (m0 * l1)) + 1, int(44.0 / (m0 * l2)) + 1
    ra, rb = np.meshgrid(np.arange(-na, na + 1, dtype=float) * l1,
                         np.arange(-nb, nb + 1, dtype=float) * l2, indexing="ij")
    r = np.hypot(ra, rb).ravel()
    r = r[(r > 0.0) & (m0 * r < 44.0)]
    return FREE_SPACE_CF + math.fsum(k0(m0 * np.sort(r)).tolist()) / (2 * PI)


@pytest.mark.parametrize("block", [1 << 20, 1000])
@pytest.mark.parametrize("l1,l2,m0", [(1.0, 1.0, 1.0), (0.5, 0.5, 0.5),
                                      (3.0, 0.5, 1.0), (1.3, 0.77, 0.7)])
def test_image_sum_quadrant_equals_unfolded_sum(monkeypatch, block, l1, l2, m0):
    # the folded, streamed sum is the same exactly rounded number, whatever
    # the block size
    monkeypatch.setattr(green, "_IMAGE_BLOCK", block)
    assert torus_cf_image_sum(l1, l2, m0).cf_mean == _unfolded_image_sum(l1, l2, m0)


def test_cf_free_space_limit_large_torus():
    # m0 L = 10: the four nearest images still contribute 4 K0(10)/(2 pi)
    # ~ 1.1e-5; the heat route must reproduce the constant to that accuracy
    # and the image route exactly
    big = make_surface("torus", L1=5, L2=5)
    res = cf_mean(big, 4.0)
    assert res.cf_mean == pytest.approx(FREE_SPACE_CF, abs=2e-5)
    image = torus_cf_image_sum(5.0, 5.0, 2.0)
    assert res.cf_mean == pytest.approx(image.cf_mean, abs=1e-6)


def test_cf_heat_route_assembly_identity():
    # definitional: cf = I/A + (ln(2 m0) - gamma)/(2 pi)
    m0sq = 2.0
    res = cf_mean(SPHERE, m0sq)
    integral = heat_integral(SPHERE, m0sq)
    expected = integral.value / SPHERE.area + (
        math.log(2.0 * math.sqrt(m0sq)) - EULER) / (2 * PI)
    assert res.cf_mean == pytest.approx(expected, rel=1e-15)
    assert res.gamma0 == pytest.approx(gamma0(math.sqrt(m0sq)), rel=1e-15)


def test_image_sum_symmetric_in_sides():
    a = torus_cf_image_sum(1.0, 2.0, 1.0)
    b = torus_cf_image_sum(2.0, 1.0, 1.0)
    assert a.cf_mean == pytest.approx(b.cf_mean, rel=1e-14)


def test_image_sum_free_space_limit():
    res = torus_cf_image_sum(30.0, 30.0, 2.0)
    assert res.cf_mean == pytest.approx(FREE_SPACE_CF, abs=1e-12)


def _sphere_cf_closed_form(radius, m0sq):
    # I_R(m^2) = R^2 [-psi(1/2 + kappa) - psi(1/2 - kappa) + ln R^2], with
    # kappa^2 = 1/4 - R^2 m^2 (imaginary kappa: -2 Re psi(1/2 + i|kappa|));
    # then C_f = I/A + (ln 2 m0 - gamma)/(2 pi)
    rsq = radius * radius
    kappa = np.sqrt(complex(0.25 - rsq * m0sq))
    digammas = (psi(0.5 + kappa) + psi(0.5 - kappa)).real
    integral = rsq * (-digammas + math.log(rsq))
    area = 4 * PI * rsq
    return integral / area + (math.log(2.0 * math.sqrt(m0sq)) - EULER) / (2 * PI)


@pytest.mark.parametrize("radius", [0.5, 1.0, 2.0, 10.0])
@pytest.mark.parametrize("m0sq", [0.1, 0.5, 1.0, 4.0])
def test_sphere_cf_matches_digamma_closed_form(radius, m0sq):
    # the independent sphere route for C_f; R^2 m^2 < 1/4 takes the real
    # kappa branch at R = 0.5 (m^2 = 0.1, 0.5) and R = 1 (m^2 = 0.1)
    model = make_surface("sphere", R=radius)
    bound = heat_integral(model, m0sq).abs_error_bound / model.area
    assert abs(cf_mean(model, m0sq).cf_mean - _sphere_cf_closed_form(radius, m0sq)) <= bound
