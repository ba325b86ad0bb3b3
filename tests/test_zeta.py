import math

import numpy as np
import pytest

from zetasurf import (dirichlet_trace, heat_coeffs, heat_integral, laurent_fit,
                      make_surface, parse_surface, verify_massless, zeta_det)
from zetasurf import heat, zeta
from zetasurf.sumtools import stable_sum

PI = math.pi
EPS = float(np.finfo(float).eps)
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
    res = zeta_det(SPHERE, 0.0)
    assert res.excluded_zero_modes == 1
    assert res.det_zeta == pytest.approx(DETP_SPHERE, abs=1e-8)


def test_split_point_invariance():
    base = zeta_det(TORUS, 1.0)
    for ts in (0.5, 2.0):
        other = heat._solve(TORUS, [zeta._zeta_job(TORUS, 1.0, ts)])[0]
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
    assert abs(fit.residue - 1.0) <= 4.0 * EPS
    integral = heat_integral(SPHERE, 1.0)
    assert abs(fit.finite_part - integral.value) <= fit.err_bound + integral.abs_error_bound


def test_laurent_fit_torus_residues():
    fit = laurent_fit(TORUS, 2.0)
    assert fit.residue == pytest.approx(1.0 / (4 * PI), abs=1e-4)
    fit12 = laurent_fit(TORUS12, 1.0)
    assert fit12.residue == pytest.approx(2.0 / (4 * PI), abs=1e-4)


def test_residue_three_ways():
    # the engine's dropped pole, Weyl's A/(4 pi), and the s -> 0 limit of
    # s tr C^{s+1} from the s > 0 traces (Richardson: error O(s^2))
    s = 1e-3
    for model in (SPHERE, TORUS, TORUS12):
        fit = laurent_fit(model, 1.0)
        weyl = model.area / (4 * PI)
        limit = s * (dirichlet_trace(model, 1.0, s / 2).value
                     - dirichlet_trace(model, 1.0, s).value)
        assert abs(fit.residue - weyl) <= 4.0 * EPS * weyl
        assert abs(limit - fit.residue) <= s * s


FINITE_PART_SURFACES = ["sphere:R=0.3", "sphere:R=1", "sphere:R=10",
                        "torus:L1=1,L2=1", "torus:L1=1.5,L2=0.7", "torus:L1=1,L2=5"]


@pytest.mark.parametrize("spec", FINITE_PART_SURFACES)
@pytest.mark.parametrize("msq", [1e-3, 0.3, 1.0, 30.0])
def test_laurent_finite_part_matches_heat_integral(spec, msq):
    # two independent engines for I: the s^0 coefficient of the direct trace
    # and the heat-kernel quadrature, each inside its own certified bound
    model = parse_surface(spec)
    fit = laurent_fit(model, msq)
    integral = heat_integral(model, msq)
    assert abs(fit.finite_part - integral.value) <= fit.err_bound + integral.abs_error_bound
    assert abs(fit.residue - heat_coeffs(model, msq).a_minus1) <= 4.0 * EPS * fit.residue


def test_torus_finite_part_rounding_scales_with_the_terms(monkeypatch):
    # on the 40 x 40 torus at m^2 = 1 the s = 0 finite part, -1.2e-10, is the
    # sum of row terms of order 10^2 and a far-row term of the same size.  The
    # rows |p| <= 48 summed over all q have the closed form
    # sum_q 1/(c + be q^2) = pi/sqrt(c be) coth(pi sqrt(c/be)).
    model = parse_surface("torus:L1=40,L2=40")
    fit = laurent_fit(model, 1.0)
    integral = heat_integral(model, 1.0)
    assert abs(fit.finite_part - integral.value) <= fit.err_bound + integral.abs_error_bound
    al = be = (2.0 * math.pi / 40.0) ** 2
    c = 1.0 + al * np.arange(-48, 49) ** 2.0
    rows = math.fsum((math.pi / np.sqrt(c * be) / np.tanh(math.pi * np.sqrt(c / be))).tolist())
    terms = rows + abs(fit.finite_part - rows)
    # with the Euler-Maclaurin remainders zeroed, what is left of the bound is
    # the rounding term (the Poisson-dual term is e^{-300})
    real = zeta._sum1d_tail

    def without_remainder(*args, **kwargs):
        value, bound = real(*args, **kwargs)
        return value, 0.0 * bound

    monkeypatch.setattr(zeta, "_sum1d_tail", without_remainder)
    assert zeta._dirichlet_torus(model, 1.0, 0.0).err_bound >= 1e-16 * terms


@pytest.mark.parametrize("spec", ["sphere:R=1", "torus:L1=1,L2=1", "torus:L1=1,L2=2"])
def test_laurent_finite_part_bound_is_tight(spec):
    model = parse_surface(spec)
    combined = laurent_fit(model, 1.0).err_bound + heat_integral(model, 1.0).abs_error_bound
    assert combined <= 1e-10


@pytest.mark.parametrize("spec", ["sphere:R=1", "torus:L1=1,L2=1", "torus:L1=1.5,L2=0.7"])
def test_laurent_finite_part_is_the_richardson_limit(spec):
    # g(s) = tr C^{s+1} - residue/s = FP + c1 s + O(s^2), so 2 g(s/2) - g(s)
    # is FP to O(s^2).  This checks the s = 0 algebra (the -R^2 ln u tail on
    # the sphere; the log term and the cancelling ln 2 on the torus) against
    # the s > 0 engine, which never uses it.
    model = parse_surface(spec)
    fit = laurent_fit(model, 1.0)
    s = 1e-3

    def g(x):
        return dirichlet_trace(model, 1.0, x).value - fit.residue / x

    assert abs(2.0 * g(s / 2) - g(s) - fit.finite_part) <= s * s


def test_zeta_tolerance_contract():
    with pytest.raises(ValueError):
        zeta_det(SPHERE, 1.0, tol=1e-3)  # tol must be <= 1e-4


@pytest.mark.parametrize("radius", [0.78, 2.0, 10.0])
def test_det_zeta_prime_sphere_scale_law(radius):
    # det'_zeta on the sphere of radius R is R^{4/3} times the unit value
    res = zeta_det(make_surface("sphere", R=radius), 0.0)
    assert res.det_zeta == pytest.approx(DETP_SPHERE * radius ** (4.0 / 3.0), rel=1e-8)


def test_zeta_det_nan_bound_raises():
    # an infinite mass is refused by name before it can reach a NaN bound
    with pytest.raises(ValueError, match="^msq must be >= 0 and finite, got inf"):
        zeta_det(SPHERE, math.inf)


def test_memo_shared_by_equal_surfaces():
    a, b = make_surface("torus", L1=1.3, L2=0.7), make_surface("torus", L1=1.3, L2=0.7)
    assert a is not b and a == b
    first = zeta_det(a, 1.7)
    size = len(heat._MEMO)
    assert zeta_det(b, 1.7) == first
    assert len(heat._MEMO) == size
    assert (zeta._zeta_job, b, 1.7) in heat._MEMO


def test_memo_checks_tol_on_every_call():
    # the bound is about 1.6e-7 here (80 ulps of zeta'(0) ~ 1e7): inside
    # tol = 1e-4, over the default 1e-8
    res = zeta_det(SPHERE, 1e6, tol=1e-4)
    assert 1e-8 < res.err_bound <= 1e-4
    assert (zeta._zeta_job, SPHERE, 1e6) in heat._MEMO
    with pytest.raises(ValueError, match="exceeds tol"):
        zeta_det(SPHERE, 1e6)
    assert zeta_det(SPHERE, 1e6, tol=1e-4) == res


# The cases that raised at the default tol while [0, 1e-5] was a measured
# trapezoid, with their bounds then: (m0^2, m1^2) through verify_anomaly, or m^2
@pytest.mark.parametrize("spec, masses", [
    ("sphere:R=1.5", (4.0, 2.0)),       # 1.51e-8
    ("sphere:R=10", (1.0, 1.0)),        # 3.05e-8
    ("sphere:R=0.5", (16.0,)),          # 2.64e-8
    ("sphere:R=0.1", (1.0,)),           # 2.41e-8
    ("sphere:R=1", (1.0, 50.0)),        # 4.33e-6
    ("sphere:R=1", (100.0,)),           # 3.3e-5
    ("sphere:R=1", (1e4,)),             # 32.1
    ("torus:L1=0.01,L2=0.01", (1.0,)),  # 0.786
])
def test_zeta_det_certifies_at_the_default_tol(spec, masses):
    model = parse_surface(spec)
    for msq in (masses[0], sum(masses)):
        assert zeta_det(model, msq).err_bound <= 1e-8


# zeta_R'(-1) = 1/12 - ln A, A Glaisher's constant
ZETA_R_PRIME_MINUS1 = -0.16542114370045092921


@pytest.mark.parametrize("radius", [0.1, 1.0, 10.0, 100.0])
def test_sphere_zeta_prime_at_the_quarter_mass(radius):
    # at m^2 = 1/(4 R^2) the eigenvalues are (k + 1/2)^2 / R^2, with
    # multiplicity 2k + 1: zeta'(0) = -(ln 2)/6 - 2 zeta_R'(-1) + (ln R^2)/12
    res = zeta_det(make_surface("sphere", R=radius), 0.25 / radius ** 2)
    exact = -math.log(2.0) / 6.0 - 2.0 * ZETA_R_PRIME_MINUS1 + math.log(radius ** 2) / 12.0
    assert abs(res.zeta_prime0 - exact) <= res.err_bound


def test_memos_never_exceed_cap(monkeypatch):
    monkeypatch.setattr(heat, "_MEMO_CAP", 3)
    monkeypatch.setattr(heat, "_MEMO", {})
    for msq in np.linspace(1.0, 2.0, 8):
        zeta_det(TORUS12, float(msq))
        heat_integral(TORUS12, float(msq))
        assert len(heat._MEMO) <= 3
    # a verifier's eight determinants, more than the cap, are all returned
    verify_massless(TORUS12, 1.5)
    assert len(heat._MEMO) <= 3


def test_other_windows_never_enter_the_memo(monkeypatch):
    # the split point and the heat window are private job arguments: a result
    # solved off the default never reaches the memo that the defaults share
    monkeypatch.setattr(heat, "_MEMO", {})
    heat._solve(TORUS, [zeta._zeta_job(TORUS, 1.0, 2.0), heat._heat_job(TORUS, 1.0, 2e-5, 26.0)])
    assert heat._MEMO == {}
    res, integral = zeta_det(TORUS, 1.0), heat_integral(TORUS, 1.0)
    assert heat._MEMO == {(zeta._zeta_job, TORUS, 1.0): res,
                          (heat._heat_job, TORUS, 1.0): integral}
    assert integral.quadrature_profile["t_lo"] != 2e-5


def test_massless_determinant_is_det_prime():
    # m^2 = 0 removes the zero mode: zeta(0) = chi/6 - 1
    res = zeta_det(TORUS12, 0.0)
    assert res.excluded_zero_modes == 1 and res.zeta0 == -1.0
    assert zeta_det(TORUS12, 1.0).excluded_zero_modes == 0
