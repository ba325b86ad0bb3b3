import math

import numpy as np
import pytest

from zetasurf import (dirichlet_trace, heat_coeffs, heat_integral, laurent_fit,
                      make_surface, residue_phase_space, zeta_det)
from zetasurf import heat, zeta
from zetasurf.sumtools import stable_sum

PI = math.pi
SPHERE = make_surface("sphere", R=1)
TORUS = make_surface("torus", L1=1, L2=1)
TORUS12 = make_surface("torus", L1=1, L2=2)

# literature value of det'_zeta on the unit sphere: exp(1/2 - 4 zeta_R'(-1)),
# evaluated with mpmath at 30 digits
DETP_SPHERE = 3.195311486059186084


def test_zeta0_equals_heat_coefficient():
    res = zeta_det(SPHERE, 1.0)
    assert res.zeta0 == pytest.approx(-2.0 / 3.0, abs=1e-14)
    assert res.zeta0 == pytest.approx(heat_coeffs(SPHERE, 1.0).a_0, abs=1e-14)


def test_det_zeta_prime_literature_oracle():
    res = zeta_det(SPHERE, 0.0, exclude_zero_mode=True)
    assert res.excluded_zero_modes == 1
    assert res.det_zeta == pytest.approx(DETP_SPHERE, abs=1e-8)


def test_split_point_invariance():
    base = zeta_det(TORUS, 1.0, t_star=1.0)
    for ts in (0.5, 2.0):
        other = zeta_det(TORUS, 1.0, t_star=ts)
        tol = base.err_bound + other.err_bound + 1e-12
        assert abs(base.zeta_prime0 - other.zeta_prime0) <= tol


def test_det_zeta_mass_dependence_follows_trace_finite_part():
    # d/dm^2 ln det_zeta equals the Dirichlet-trace finite part, which
    # changes sign: positive at small mass (the determinant grows), negative
    # once (A/4 pi) ln m^2 dominates (the determinant shrinks).  Naive
    # factor-by-factor monotonicity does not survive regularization: the
    # measured values decrease from m^2 = 1 to m^2 = 2 on the unit sphere.
    dets = {m: zeta_det(SPHERE, m).det_zeta for m in (1.0, 1.05, 2.0, 4.0, 4.2)}
    c0_small = heat_integral(SPHERE, 1.0).value
    c0_large = heat_integral(SPHERE, 4.0).value
    assert c0_small > 0 > c0_large
    assert dets[1.05] > dets[1.0]      # increasing where the finite part is > 0
    assert dets[4.2] < dets[4.0]       # decreasing where it is < 0
    assert dets[2.0] < dets[1.0]       # the spec-level grid is not monotone
    # quantitative slope check at m^2 = 1: the one-sided difference carries
    # a -(h/2) tr(C^2) correction, and tr(C^2) is the s = 1 Dirichlet trace
    slope = (math.log(dets[1.05]) - math.log(dets[1.0])) / 0.05
    tr_c2 = dirichlet_trace(SPHERE, 1.0, 1.0).value
    assert slope == pytest.approx(c0_small - 0.025 * tr_c2, abs=2e-3)


def test_massless_requires_exclusion():
    with pytest.raises(ValueError, match="zero"):
        zeta_det(SPHERE, 0.0)


def test_dirichlet_trace_brute_oracle():
    # brute-force oracle summed to k = 1e6 with its own truncation allowance
    k = np.arange(0, 1000001, dtype=float)
    brute = stable_sum((2 * k + 1) * (1.0 + k * (k + 1)) ** -2.0)
    res = dirichlet_trace(SPHERE, 1.0, 1.0)
    assert res.value == pytest.approx(brute, abs=2e-12)
    assert res.err_bound < 1e-10


def test_dirichlet_trace_monotone_in_s():
    vals = [dirichlet_trace(SPHERE, 1.0, s).value for s in (1.0, 2.0, 5.0)]
    assert vals[0] > vals[1] > vals[2]
    # s large: first term dominates
    assert vals[2] == pytest.approx(1.0, abs=0.01)


def test_dirichlet_trace_scaling_covariance():
    s = 0.7
    base = dirichlet_trace(SPHERE, 1.0, s).value
    scaled = dirichlet_trace(make_surface("sphere", R=2), 0.25, s).value
    assert scaled == pytest.approx(4.0 ** (1.0 + s) * base, rel=1e-11)


def test_dirichlet_trace_torus_self_consistency():
    from zetasurf.zeta import _dirichlet_torus
    a = _dirichlet_torus(TORUS, 1.0, 0.05)
    b = _dirichlet_torus(TORUS, 1.0, 0.05, p_cut=96, q_cut=96)
    assert abs(a.value - b.value) <= a.err_bound + b.err_bound + 1e-13


def _row_loop_torus_trace(model, msq, s, p_cut=48, q_cut=48):
    """tr C^{s+1} on a torus one lattice row at a time: the oracle for the
    broadcast rows of _dirichlet_torus (same tails, same far-row term)."""
    w = 1.0 + s
    al = (2.0 * PI / model.l1) ** 2
    be = (2.0 * PI / model.l2) ** 2
    beq2 = be * np.arange(-q_cut, q_cut + 1, dtype=float) ** 2
    total = bound = 0.0
    for p in range(-p_cut, p_cut + 1):
        c = msq + al * p * p
        tail, bd = zeta._sum1d_tail(c, be, w, q_cut)
        total += float(np.sum((c + beq2) ** (-w))) + 2.0 * tail
        bound += 2.0 * bd
    kappa = math.sqrt(PI / be) * math.exp(math.lgamma(w - 0.5) - math.lgamma(w))
    t2, bd2 = zeta._sum1d_tail(msq, al, w - 0.5, p_cut)
    total += 2.0 * kappa * t2
    bound += 2.0 * kappa * bd2
    c_edge = msq + al * (p_cut + 1.0) ** 2
    bound += 8.0 * kappa * c_edge ** (0.5 - w) * math.exp(-model.l2 * math.sqrt(c_edge))
    bound += 1e-16 * abs(total) * (2 * p_cut + 1)
    return total, bound


@pytest.mark.parametrize("lengths", [(1.0, 1.0), (1.0, 2.0), (1.5, 0.7), (3.0, 0.5)])
@pytest.mark.parametrize("s", [0.2, 0.025])
@pytest.mark.parametrize("msq", [0.25, 1.0, 4.0])
def test_torus_trace_rows_match_row_loop_oracle(lengths, s, msq):
    model = make_surface("torus", L1=lengths[0], L2=lengths[1])
    res = zeta._dirichlet_torus(model, msq, s)
    value, bound = _row_loop_torus_trace(model, msq, s)
    assert res.value == pytest.approx(value, rel=1e-15, abs=0.0)
    assert res.err_bound == pytest.approx(bound, rel=1e-15, abs=0.0)


def test_dirichlet_validation():
    with pytest.raises(ValueError):
        dirichlet_trace(SPHERE, 1.0, 0.0)
    with pytest.raises(ValueError):
        dirichlet_trace(SPHERE, 0.0, 1.0)


def test_laurent_fit_sphere():
    fit = laurent_fit(SPHERE, 1.0)
    assert fit.residue == pytest.approx(1.0, abs=1e-4)
    integral = heat_integral(SPHERE, 1.0)
    assert fit.finite_part == pytest.approx(integral.value, abs=1e-4)
    assert len(fit.fit_diagnostics["s_grid"]) == 4
    assert fit.fit_diagnostics["lsq_residual"] < 1e-6


def test_laurent_fit_torus_residues():
    fit = laurent_fit(TORUS, 2.0)
    assert fit.residue == pytest.approx(1.0 / (4 * PI), abs=1e-4)
    fit12 = laurent_fit(TORUS12, 1.0)
    assert fit12.residue == pytest.approx(2.0 / (4 * PI), abs=1e-4)


def test_residue_three_ways():
    for model in (SPHERE, TORUS, TORUS12):
        fit = laurent_fit(model, 1.0)
        weyl = model.area / (4 * PI)
        phase = residue_phase_space(model)
        assert abs(fit.residue - weyl) < 1e-4
        assert abs(fit.residue - phase) < 1e-4


def test_laurent_fit_grid_validation():
    with pytest.raises(ValueError):
        laurent_fit(SPHERE, 1.0, s_grid=[0.2, 0.1, 0.05])
    with pytest.raises(ValueError):
        laurent_fit(SPHERE, 1.0, s_grid=[0.6, 0.2, 0.1, 0.05])
    with pytest.raises(ValueError):
        laurent_fit(SPHERE, 1.0, s_grid=[0.2, 0.2, 0.1, 0.05])


def test_zeta_tolerance_contract():
    with pytest.raises(ValueError):
        zeta_det(SPHERE, 1.0, tol=1e-3)  # tol must be <= 1e-4


@pytest.mark.parametrize("radius", [0.78, 2.0, 10.0])
def test_det_zeta_prime_sphere_scale_law(radius):
    # det'_zeta on the sphere of radius R is R^{4/3} times the unit value
    res = zeta_det(make_surface("sphere", R=radius), 0.0, exclude_zero_mode=True)
    assert res.det_zeta == pytest.approx(DETP_SPHERE * radius ** (4.0 / 3.0), rel=1e-8)


def test_zeta_det_nan_bound_raises():
    # an infinite mass is refused by name before it can reach a NaN bound
    with pytest.raises(ValueError, match="^msq must be >= 0 and finite, got inf"):
        zeta_det(SPHERE, math.inf)


def test_memo_shared_by_equal_surfaces():
    a, b = make_surface("torus", L1=1.3, L2=0.7), make_surface("torus", L1=1.3, L2=0.7)
    assert a is not b and a == b
    first = zeta_det(a, 1.7)
    size = len(zeta._ZETA_MEMO)
    assert zeta_det(b, 1.7) == first
    assert len(zeta._ZETA_MEMO) == size
    assert (b, 1.7, 0, 1.0) in zeta._ZETA_MEMO


def test_memo_checks_tol_on_every_call():
    # the bound is about 3.3e-5 here: inside tol = 1e-4, over the default 1e-8
    res = zeta_det(SPHERE, 100.0, tol=1e-4)
    assert 1e-5 < res.err_bound <= 1e-4
    assert (SPHERE, 100.0, 0, 1.0) in zeta._ZETA_MEMO
    with pytest.raises(ValueError, match="exceeds tol"):
        zeta_det(SPHERE, 100.0)
    assert zeta_det(SPHERE, 100.0, tol=1e-4) == res


def test_memos_never_exceed_cap(monkeypatch):
    monkeypatch.setattr(heat, "_MEMO_CAP", 3)
    monkeypatch.setattr(zeta, "_ZETA_MEMO", {})
    monkeypatch.setattr(heat, "_HEAT_MEMO", {})
    for msq in np.linspace(1.0, 2.0, 8):
        zeta_det(TORUS12, float(msq))
        heat_integral(TORUS12, float(msq))
        assert len(zeta._ZETA_MEMO) <= 3 and len(heat._HEAT_MEMO) <= 3
