"""Spectral zeta function zeta_E(s) = sum mult (lambda + m^2)^{-s} by Mellin
continuation, zeta-determinants, and the direct Dirichlet traces tr C^{s+1}.

Determinant route.  With theta~ = theta - n0 (n0 zero modes removed) and the
split point t*,

    Gamma(s) zeta(s) = F(s) + G(s) + a_{-1} t*^{s-1}/(s-1) + a0~ t*^s / s,
    F(s) = int_0^t* t^{s-1} (theta~ - a_{-1}/t - a0~) dt,
    G(s) = int_t*^inf t^{s-1} theta~ dt,

which gives the closed assembly at s = 0:

    zeta(0)  = a0~ = a0 - n0,
    zeta'(0) = F(0) + G(0) - a_{-1}/t* + a0~ ln t* + gamma_E a0~,

F(0) takes [0, T] in closed form and [T, t*] by quadrature, with T = e^k
below the surface's switch point (`heat` docstring); G(0) is a quadrature up
to a lattice point t_hi plus a tail bound.  So the determinant error budget
is closed-form, quadrature, tail and rounding bounds; no numerical
s-differentiation is involved.  det_zeta = exp(-zeta'(0)), inf once that
overflows.

Trace route (independent of the quadrature machinery): tr C^{s+1} is summed
directly over the spectrum with closed-form integral tails plus second-order
Euler-Maclaurin corrections; for the torus the two lattice directions are
peeled one at a time, each with its own certified tail.  The pole of
tr C^{s+1} at s = 0 lies wholly in those closed-form tails, so at s = 0 the
same engine drops it and returns the s^0 coefficient, the finite part, with
the same certified bound; the dropped pole is the residue A/(4 pi).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import beta as _beta_fn, betainc as _betainc, gammaln as _gammaln

from . import heat
from .heat import (_EXP_CUT, _check_mass, _closed_form_end, _exp, _heat_job, _remember,
                   _series_bound, _small_t_pieces, _solve, _switch, _theta, heat_coeffs)
from .sumtools import _EPS, QuadratureResult, _lattice_ceil, stable_sum
from .surfaces import SurfaceModel, first_positive_eigenvalue

__all__ = [
    "ZetaResult",
    "LaurentFit",
    "TraceResult",
    "zeta_det",
    "dirichlet_trace",
    "laurent_fit",
]

_EULER = float(np.euler_gamma)
# the ZetaResult per (model, msq, n0, t_star), shared; capped like heat's memo
_ZETA_MEMO: dict[tuple, ZetaResult] = {}


@dataclass(frozen=True)
class ZetaResult:
    zeta0: float
    zeta_prime0: float
    det_zeta: float
    err_bound: float
    excluded_zero_modes: int


@dataclass(frozen=True)
class TraceResult:
    value: float
    err_bound: float


@dataclass(frozen=True)
class LaurentFit:
    residue: float
    finite_part: float
    err_bound: float  # on finite_part


# --------------------------------------------------------------- Mellin side

def _zeta_job(key: tuple) -> tuple:
    """The `_solve` job of the zeta_det result of key = (model, m^2, n0, t*):
    F(0) and G(0) of the split formula, assembled."""
    model, msq, n0, t_star = key
    coeffs = heat_coeffs(model, msq)
    a_m1, a0t = coeffs.a_minus1, coeffs.a_0 - n0
    # [0, T] in closed form, [T, t*] by quadrature; the zero-mode shift cancels
    # in F's integrand (theta~ - a_{-1}/t - a0~)/t
    t_lo = _closed_form_end(model, t_star)
    mu = msq + (first_positive_eigenvalue(model) if n0 else 0.0)
    # on the log-t lattice, so that the windows of one pass share their panels
    t_hi = _lattice_ceil(max(_EXP_CUT / mu, 2.0 * t_star))
    windows = [(t_star, t_hi, 1e-12, ("g", msq, n0))]
    if t_lo < t_star:
        windows.insert(0, (t_lo, t_star, 1e-12, ("f", msq, 0)))

    def finish(quads, excess_hi: float) -> ZetaResult:
        quad_f = quads[0] if t_lo < t_star else QuadratureResult(0.0, 0.0)
        f_closed, f_closed_bound, _, _ = _small_t_pieces(model, msq, t_lo)
        f0 = f_closed + quad_f.value
        # E above the switch s carries at most 4 ulps of a_{-1}/t: int_s^t* dt/t^2
        e_rounding = 4.0 * _EPS * a_m1 * max(0.0, 1.0 / _switch(model) - 1.0 / t_star)
        f_bound = f_closed_bound + quad_f.err_bound + e_rounding + _series_bound(model, t_star)
        theta_hi = float(_theta(model, msq, np.array([t_hi]), np.array([excess_hi]))[0]) - n0
        g_bound = quads[-1].err_bound + abs(theta_hi) / (mu * t_hi)
        terms = (f0, quads[-1].value, -a_m1 / t_star, a0t * math.log(t_star), _EULER * a0t)
        # rounding of each term and of a_{-1}
        assembly = 4.0 * _EPS * math.fsum(abs(x) for x in terms)
        zeta_prime0 = math.fsum(terms)
        # det_zeta is inf once zeta'(0) < -709.78; zeta_prime0 stays its certified log
        result = ZetaResult(zeta0=a0t, zeta_prime0=zeta_prime0, det_zeta=_exp(-zeta_prime0),
                            err_bound=f_bound + g_bound + assembly, excluded_zero_modes=n0)
        _remember(_ZETA_MEMO, key, result)
        return result

    return windows, t_hi, finish


def _prefetch(model: SurfaceModel, masses, heat_masses=()) -> None:
    """The zeta_det entries at (m^2, n0) in masses and the heat_integral ones at
    heat_masses, at their defaults, that the memos lack, in one pass; a
    non-finite mass is left for the call itself to refuse."""
    missing = {}
    for msq, n0 in masses:
        key = (model, msq, n0, 1.0)
        if key not in _ZETA_MEMO and key not in missing and math.isfinite(msq):
            missing[key] = _zeta_job(key)
    for msq in heat_masses:
        t_hi = _lattice_ceil(_EXP_CUT / msq)
        key = (model, msq, 1e-8, _closed_form_end(model, t_hi), t_hi)
        if key not in heat._HEAT_MEMO:   # through the module, which may rebind its memo
            missing[key] = _heat_job(key)
    if missing:
        _solve(model, list(missing.values()))


def zeta_det(model: SurfaceModel, msq: float, exclude_zero_mode: bool = False,
             tol: float = 1e-8, t_star: float = 1.0) -> ZetaResult:
    """Zeta-regularized determinant of Laplacian + m^2 on the model surface."""
    _check_mass("msq", msq, positive=False)
    if msq == 0.0 and not exclude_zero_mode:
        raise ValueError("msq = 0 requires exclude_zero_mode=True "
                         "(zeta is undefined with the zero mode included)")
    if not (0.0 < tol <= 1e-4):
        raise ValueError("tol must lie in (0, 1e-4]")
    # past 1e300 the G window's end e^k >= 2 t* leaves the float range
    if not (0.0 < t_star <= 1e300):
        raise ValueError(f"t_star must lie in (0, 1e300], got {t_star!r}")
    n0 = 1 if (exclude_zero_mode and msq == 0.0) else 0
    key = (model, msq, n0, t_star)
    result = _ZETA_MEMO.get(key)
    if result is None:
        result = _solve(model, [_zeta_job(key)])[0]
    # tol only gates the result, so a remembered one is checked on every call
    if not (result.err_bound <= tol):
        raise ValueError(f"zeta_det bound {result.err_bound:.3e} exceeds tol {tol:.3e}")
    return result


# ------------------------------------------------------ direct trace engine

def _psi_tail_integral(w: float, x0):
    """int_{x0}^inf (1+y^2)^{-w} dy, w > 1/2, via the incomplete beta
    (elementwise in x0)."""
    tau = 1.0 / (1.0 + x0 * x0)
    return 0.5 * _beta_fn(w - 0.5, 0.5) * _betainc(w - 0.5, 0.5, tau)


def _h_derivs(x: float, c, b: float, w: float):
    """h = (c + b x^2)^{-w}: returns h, h', h''', h'''' (for Euler-Maclaurin),
    elementwise in c."""
    u = c + b * x * x
    up = 2.0 * b * x
    upp = 2.0 * b
    uw = u ** (-w)
    h = uw
    hp = -w * up * uw / u
    hppp = (3.0 * w * (w + 1.0) * up * upp * u ** (-w - 2.0)
            - w * (w + 1.0) * (w + 2.0) * up ** 3 * u ** (-w - 3.0))
    h4 = (3.0 * w * (w + 1.0) * upp ** 2 * u ** (-w - 2.0)
          - 6.0 * w * (w + 1.0) * (w + 2.0) * up ** 2 * upp * u ** (-w - 3.0)
          + w * (w + 1.0) * (w + 2.0) * (w + 3.0) * up ** 4 * u ** (-w - 4.0))
    return h, hp, hppp, h4


def _sum1d_tail(c, b: float, w: float, last: int, integral=None):
    """sum_{q > last} (c + b q^2)^{-w} with a certified bound (w > 1/2),
    elementwise in c: int_{last+1}^inf, or the given stand-in for it, plus
    Euler-Maclaurin terms."""
    x = last + 1.0
    if integral is None:
        x0 = x * np.sqrt(b / c)
        integral = c ** (0.5 - w) / math.sqrt(b) * _psi_tail_integral(w, x0)
    h, hp, hppp, h4 = _h_derivs(x, c, b, w)
    value = integral + 0.5 * h - hp / 12.0 + hppp / 720.0
    return value, abs(h4) / 15120.0


def _dirichlet_sphere(model: SurfaceModel, msq: float, s: float) -> TraceResult:
    w = 1.0 + s
    rsq = model.radius * model.radius
    kmax = 400
    k = np.arange(0, kmax + 1, dtype=float)
    lam = k * (k + 1.0) / rsq
    direct = stable_sum((2.0 * k + 1.0) * (msq + lam) ** (-w))
    # tail sum_{k>kmax} h(k), h(x) = (2x+1) u^{-w}, u = msq + x(x+1)/rsq:
    # substitution gives the closed integral (rsq/s) u^{-s}.  It holds the
    # whole pole; at s = 0 that pole rsq/s is dropped, leaving -rsq ln u.
    x = kmax + 1.0
    u = msq + x * (x + 1.0) / rsq
    up = (2.0 * x + 1.0) / rsq
    upp = 2.0 / rsq
    integral = (rsq / s) * u ** (-s) if s else -rsq * math.log(u)
    # h = rsq f with f = u' u^{-w}; u''' = 0, so
    #   f'   = u'' u^{-w} - w u'^2 u^{-w-1}
    #   f''' = -3w u''^2 u^{-w-1} + 6w(w+1) u'^2 u'' u^{-w-2}
    #          - w(w+1)(w+2) u'^4 u^{-w-3}
    h = rsq * up * u ** (-w)
    hp = rsq * (upp * u ** (-w) - w * up ** 2 * u ** (-w - 1.0))
    hppp = rsq * (-3.0 * w * upp ** 2 * u ** (-w - 1.0)
                  + 6.0 * w * (w + 1.0) * up ** 2 * upp * u ** (-w - 2.0)
                  - w * (w + 1.0) * (w + 2.0) * up ** 4 * u ** (-w - 3.0))
    tail = integral + 0.5 * h - hp / 12.0 + hppp / 720.0
    # remainder beyond the B4 term: bounded by the size of that term
    bound = abs(hppp) / 360.0 + 1e-16 * abs(direct) * math.log(kmax + 2.0)
    return TraceResult(value=direct + tail, err_bound=bound)


def _dirichlet_torus(model: SurfaceModel, msq: float, s: float,
                     p_cut: int = 48, q_cut: int = 48) -> TraceResult:
    w = 1.0 + s
    al = (2.0 * math.pi / model.l1) ** 2
    be = (2.0 * math.pi / model.l2) ** 2
    q = np.arange(-q_cut, q_cut + 1, dtype=float)
    p = np.arange(-p_cut, p_cut + 1, dtype=float)
    c = msq + al * p * p
    # all rows |p| <= p_cut at once: |q| <= q_cut summed, |q| > q_cut in closed form
    rows = ((c[:, None] + be * q * q) ** (-w)).sum(axis=1)
    tails, tail_bounds = _sum1d_tail(c, be, w, q_cut)
    terms = rows + 2.0 * tails
    total = stable_sum(terms)
    bound = stable_sum(2.0 * tail_bounds)
    # |p| > p_cut: the row sum equals its q-integral up to a Poisson-dual
    # remainder that is exponentially small in L2 sqrt(c_p).
    kappa = math.sqrt(math.pi / be) * math.exp(_gammaln(w - 0.5) - _gammaln(w))
    wp = w - 0.5
    c_edge = msq + al * (p_cut + 1.0) ** 2
    # At s = 0 the p-integral from x = p_cut + 1 is 1/(2 s sqrt al) + (ln 2 - asinh x0
    # - ln(msq)/2)/sqrt al + O(s), x0 = x sqrt(al/msq), and kappa = (pi/sqrt be)
    # (1 - 2 s ln 2 + O(s^2)): the pole pi/(s sqrt(al be)) is dropped, the two ln 2
    # cancel, and asinh x0 + ln(msq)/2 = ln(x sqrt al + sqrt c_edge).
    sa = math.sqrt(al)
    far = None if s else -math.log((p_cut + 1.0) * sa + math.sqrt(c_edge)) / sa
    t2, bd2 = _sum1d_tail(msq, al, wp, p_cut, integral=far)
    far_rows = 2.0 * kappa * t2
    total += far_rows
    bound += 2.0 * kappa * bd2
    bound += 8.0 * kappa * c_edge ** (-wp) * math.exp(-model.l2 * math.sqrt(c_edge))
    # rounding, scaled by the terms summed: their total cancels at s = 0
    bound += 1e-16 * (stable_sum(np.abs(terms)) + abs(far_rows)) * (2 * p_cut + 1)
    return TraceResult(value=total, err_bound=bound)


def dirichlet_trace(model: SurfaceModel, msq: float, s: float) -> TraceResult:
    """tr C^{s+1} = sum mult (m^2 + lambda)^{-(1+s)} by direct summation with
    closed-form integral tails and Euler-Maclaurin corrections."""
    if s <= 0:
        raise ValueError("s must be > 0 (the series diverges otherwise)")
    _check_mass("msq", msq)
    if model.kind == "sphere":
        return _dirichlet_sphere(model, msq, s)
    return _dirichlet_torus(model, msq, s)


def laurent_fit(model: SurfaceModel, msq: float) -> LaurentFit:
    """tr C^{s+1} = residue/s + finite_part + O(s) near s = 0.

    The direct engine at s = 0 drops the pole of its closed-form tails and
    returns the s^0 coefficient with its certified bound (err_bound).  residue
    is the dropped pole coefficient: R^2 on the sphere, pi/sqrt(al be) on the
    torus (al, be = (2 pi/L1)^2, (2 pi/L2)^2); both are A/(4 pi).
    """
    _check_mass("msq", msq)
    if model.kind == "sphere":
        residue, trace = model.radius * model.radius, _dirichlet_sphere(model, msq, 0.0)
    else:
        residue = math.pi / (2.0 * math.pi / model.l1 * (2.0 * math.pi / model.l2))
        trace = _dirichlet_torus(model, msq, 0.0)
    return LaurentFit(residue=residue, finite_part=trace.value, err_bound=trace.err_bound)
