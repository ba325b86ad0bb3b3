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

so the determinant error budget is purely quadrature plus tail bounds; no
numerical s-differentiation is involved.  det_zeta = exp(-zeta'(0)).

Trace route (independent of the quadrature machinery): tr C^{s+1} is summed
directly over the spectrum with closed-form integral tails plus second-order
Euler-Maclaurin corrections; for the torus the two lattice directions are
peeled one at a time, each with its own certified tail.  A small-s Laurent
fit of those values exposes the residue A/(4 pi) and the finite part.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import beta as _beta_fn, betainc as _betainc, gammaln as _gammaln

from .heat import (_EXP_CUT, _check_mass, _remainder, _remember, _series_bound, _theta,
                   heat_coeffs)
from .sumtools import _lattice_ceil, log_quadrature, stable_sum
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
_T_LO = 1e-5
# (zeta0, zeta'(0), bound) per (model, msq, n0, t_star); capped like heat's memo
_ZETA_MEMO: dict[tuple, tuple[float, float, float]] = {}


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
    fit_diagnostics: dict = field(default_factory=dict)


# --------------------------------------------------------------- Mellin side

def _mellin_pieces(model: SurfaceModel, msq: float, n0: int, t_star: float):
    """F(0), G(0) and their certified bounds for the split formula."""
    coeffs = heat_coeffs(model, msq)
    a_m1, a_0 = coeffs.a_minus1, coeffs.a_0

    def rho(t: np.ndarray) -> np.ndarray:
        # (theta~ - a_{-1}/t - a0~)/t; the zero-mode shift cancels in a0~.
        return _remainder(model, msq, t) / t

    quad_f = log_quadrature(rho, _T_LO, t_star, abs_tol=1e-12)
    rho_lo, rho_half = rho(np.array([_T_LO, 0.5 * _T_LO])).tolist()
    f0 = quad_f.value + rho_lo * _T_LO
    # [0, t_lo] remainder: rho is a1 + O(t); slope measured, then doubled
    f_small_bound = 4.0 * abs(rho_lo - rho_half) * _T_LO
    # rounding floor of the subtracted trace values on the log grid
    f_round = 4e-16 * a_m1 / _T_LO
    f_bound = quad_f.err_bound + f_small_bound + f_round + _series_bound(model, t_star)

    mu = msq + (first_positive_eigenvalue(model) if n0 else 0.0)
    # on the log-t lattice, so that every mass reads the same table nodes
    t_hi = _lattice_ceil(max(_EXP_CUT / mu, 2.0 * t_star))

    def theta_over_t(t: np.ndarray) -> np.ndarray:
        return (_theta(model, msq, t) - n0) / t

    quad_g = log_quadrature(theta_over_t, t_star, t_hi, abs_tol=1e-12)
    theta_hi = float(_theta(model, msq, np.array([t_hi]))[0]) - n0
    g_tail = abs(theta_hi) / (mu * t_hi)
    g0 = quad_g.value
    g_bound = quad_g.err_bound + g_tail
    return f0, f_bound, g0, g_bound, a_m1, a_0


def zeta_det(model: SurfaceModel, msq: float, exclude_zero_mode: bool = False,
             tol: float = 1e-8, t_star: float = 1.0) -> ZetaResult:
    """Zeta-regularized determinant of Laplacian + m^2 on the model surface."""
    _check_mass("msq", msq, positive=False)
    if msq == 0.0 and not exclude_zero_mode:
        raise ValueError("msq = 0 requires exclude_zero_mode=True "
                         "(zeta is undefined with the zero mode included)")
    if not (0.0 < tol <= 1e-4):
        raise ValueError("tol must lie in (0, 1e-4]")
    if not (_T_LO < t_star < math.inf):
        raise ValueError(f"t_star must lie in ({_T_LO:g}, inf), got {t_star!r}")
    n0 = 1 if (exclude_zero_mode and msq == 0.0) else 0
    key = (model, msq, n0, t_star)
    entry = _ZETA_MEMO.get(key)
    if entry is None:
        f0, f_bound, g0, g_bound, a_m1, a_0 = _mellin_pieces(model, msq, n0, t_star)
        a0t = a_0 - n0
        zeta_prime0 = f0 + g0 - a_m1 / t_star + a0t * math.log(t_star) + _EULER * a0t
        entry = (a0t, zeta_prime0, f_bound + g_bound)
        _remember(_ZETA_MEMO, key, entry)
    a0t, zeta_prime0, bound = entry
    # tol only gates the result, so a remembered one is checked on every call
    if not (bound <= tol):
        raise ValueError(f"zeta_det bound {bound:.3e} exceeds tol {tol:.3e}")
    return ZetaResult(zeta0=a0t, zeta_prime0=zeta_prime0,
                      det_zeta=math.exp(-zeta_prime0), err_bound=bound,
                      excluded_zero_modes=n0)


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


def _sum1d_tail(c, b: float, w: float, last: int):
    """sum_{q > last} (c + b q^2)^{-w} with a certified bound (w > 1/2),
    elementwise in c."""
    x = last + 1.0
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
    # substitution gives the closed integral (rsq/s) u^{-s}.
    x = kmax + 1.0
    u = msq + x * (x + 1.0) / rsq
    up = (2.0 * x + 1.0) / rsq
    upp = 2.0 / rsq
    integral = (rsq / s) * u ** (-s)
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
    total = stable_sum(rows + 2.0 * tails)
    bound = stable_sum(2.0 * tail_bounds)
    # |p| > p_cut: the row sum equals its q-integral up to a Poisson-dual
    # remainder that is exponentially small in L2 sqrt(c_p).
    kappa = math.sqrt(math.pi / be) * math.exp(_gammaln(w - 0.5) - _gammaln(w))
    wp = w - 0.5
    t2, bd2 = _sum1d_tail(msq, al, wp, p_cut)
    total += 2.0 * kappa * t2
    bound += 2.0 * kappa * bd2
    c_edge = msq + al * (p_cut + 1.0) ** 2
    bound += 8.0 * kappa * c_edge ** (-wp) * math.exp(-model.l2 * math.sqrt(c_edge))
    bound += 1e-16 * abs(total) * (2 * p_cut + 1)
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


_DEFAULT_S_GRID = (0.2, 0.1, 0.05, 0.025)


def laurent_fit(model: SurfaceModel, msq: float, s_grid=None) -> LaurentFit:
    """Fit c_{-1}/s + c_0 + c_1 s + c_2 s^2 to tr C^{s+1} on a small-s grid.

    The s^2 term absorbs the next analytic order; without it the finite part
    inherits an O(1e-3)-level model bias on grids reaching up to s = 0.2.
    Returns residue = c_{-1} and finite_part = c_0 with fit diagnostics.
    """
    grid = np.asarray(_DEFAULT_S_GRID if s_grid is None else s_grid, dtype=float)
    if grid.size < 4:
        raise ValueError("s_grid needs at least 4 points")
    if np.any(grid <= 0.0) or np.any(grid > 0.5):
        raise ValueError("s_grid must lie in (0, 0.5]")
    if np.unique(grid).size != grid.size:
        raise ValueError("s_grid points must be distinct")
    traces = [dirichlet_trace(model, msq, float(s)) for s in grid]
    y = np.array([t.value for t in traces])
    design = np.column_stack([1.0 / grid, np.ones_like(grid), grid, grid ** 2])
    coef, residual, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    diagnostics = {
        "s_grid": grid.tolist(),
        "trace_values": y.tolist(),
        "trace_bounds": [t.err_bound for t in traces],
        "lsq_residual": float(np.sqrt(np.sum((fitted - y) ** 2))),
        "coefficients": coef.tolist(),
    }
    return LaurentFit(residue=float(coef[0]), finite_part=float(coef[1]),
                      fit_diagnostics=diagnostics)
