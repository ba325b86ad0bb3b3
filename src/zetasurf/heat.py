"""Heat trace theta_E(t) = tr exp(-t(Laplacian + m^2)), its small-t
coefficients, and the regularized heat integral.

On a closed surface the trace expands as

    theta_E(t) = a_{-1}/t + a_0 + O(t),
    a_{-1} = A/(4 pi),      a_0 = chi/6 - m^2 A/(4 pi),

with A the area and chi the Euler characteristic.  The mass factorizes
exactly, theta_E(t) = exp(-m^2 t) * theta_Delta(t), so all truncation control
is done on the massless trace.

`heat_integral` returns the finite part of the resolvent trace at s = 0,

    I = FP_{s=0} tr (Delta + m^2)^{-(1+s)}
      = int_0^inf [theta_E(t) - (A/(4 pi t)) e^{-m^2 t}] dt - (A/(4 pi)) ln m^2.

The subtraction of the *massive* free-plane channel (A/(4 pi t)) e^{-m^2 t}
makes the integrand decay at both ends, so the value is an ordinary
convergent integral plus an explicit logarithm; a bare 1/t subtraction would
leave a logarithmically divergent (cutoff-dependent) upper end.  This finite
part is the constant that enters the determinant mass-shift identity and the
Laurent expansion of the Dirichlet trace; it is cross-checked against the
lattice Bessel sum for the torus Green's function in `green`.

Weyl excess.  Every subtraction of the leading terms goes through one helper
that returns the massless excess

    E(t) = theta_Delta(t) - a_{-1}/t - chi/6

without cancellation: at t = 1e-5 the sphere's theta is ~1e5, a sum over
~2300 levels, and subtracting R^2/t from it would leave only rounding noise.
Small t is handled in closed form on both surfaces:

* Sphere, x = t/R^2 < 0.05.  Euler-Maclaurin applied to the midpoint sum
  theta = e^{x/4} sum_{k>=0} (2k+1) e^{-x (k+1/2)^2} (Mulholland 1928;
  McKean-Singer 1967) gives

      E = sum_{j>=1} d_j x^j,   d_j = (1/4)^{j+1}/(j+1)!
                                      + sum_{i<=j} (1/4)^i/i! c_{j-i},
      c_j = -B_{2j+2}(1/2) (-1)^j/(j+1)!,

  so theta = R^2/t + 1/3 + t/(15 R^2) + 4 t^2/(315 R^4) + t^3/(315 R^6)
  + 4 t^4/(3465 R^8) + ...  The series is asymptotic; 14 terms are kept.  The
  Euler-Maclaurin remainder after B_30 is at most
  2 zeta(31)/(2 pi)^31 int_0^inf |f^(31)| with f(u) = 2u e^{-x u^2}, and
  int_0^inf |f^(31)| <= sqrt(pi 2^30 32!) x^{14.5} by Cauchy-Schwarz on the
  Hermite function H_32 e^{-v^2}; with the truncated tail of the e^{x/4}
  product the total is below 1.5e-21 at the switch x = 0.05 (the first
  omitted term is 2.6e-23 there).  Above the switch the direct sum needs at
  most 33 levels, and E is an O(1) difference.
* Torus, t < 0.1 min(L1, L2)^2.  Poisson resummation gives
  theta = (A/4 pi t) sigma_1 sigma_2 with sigma_i = 1 + s_i,
  s_i = 2 sum_{a>=1} e^{-a^2 L_i^2/4t}, so E = (A/4 pi t)(s_1 + s_2 + s_1 s_2).

Above the switch both surfaces take the same direct level sum over
`eigen_arrays`, cut where e^{-t lambda} falls below e^-52 at the switch
point.  Every t above it sums those same lines, one numpy row reduction per
t, so the value at t does not depend on the other points of a batch: the
elementwise contract of `log_quadrature`, which evaluates a whole pass of
panels in one call.  Below the switch the torus image sum keeps the images
that matter at the switch point, the same ones for every t, so it too is a
function of t alone, bit for bit.

E table.  Because the mass factorizes, every quadrature needs only the
massless E, and `log_quadrature` puts its nodes on one log-t lattice for
every window that ends on it (`sumtools`).  `_weyl_excess` therefore keeps
one table of E per surface, keyed by the exact float t and looked up with
`searchsorted`; only the t it lacks go through the branches above.  As E(t)
depends on t alone, a warm table returns the values a cold one would
compute.  Each update replaces the surface's (t, E) arrays in one
assignment, so a reader never sees one without the other.  The table holds
at most _EXCESS_CAP = 2^18 nodes over all surfaces (4 MB).  Once a batch's
new nodes would exceed that, the other surfaces' tables are cleared, as the
result memos are; a surface whose own table would exceed it is not stored.

With y = m^2 t the massive remainder follows exactly,

    theta_E - a_{-1}/t - a_0 = (e^{-y} - 1 + y) a_{-1}/t + (e^{-y} - 1) chi/6
                               + e^{-y} E,

with e^{-y} - 1 taken from expm1.  It is the integrand of the Mellin F
integral in `zeta`, e^{-y} (chi/6 + E) is the `heat_integral` integrand, and
the trace itself is theta_E = e^{-y} (a_{-1}/t + chi/6 + E).  So a new mass
costs only its factors e^{-y} and expm1(-y) and the panel sums.

The upper ends of the default windows lie on the lattice: e^k for the least
integer k with e^k >= 52/m^2 here, and likewise in `zeta`.  The tail bounds
are taken at that end.

`heat_integral` remembers its results per (model, m^2, abs_tol, t_lo, t_hi),
as `zeta_det` does per (model, m^2, n0, t_star); both memos are cleared once
they hold _MEMO_CAP entries.  A remembered result is shared, not copied.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import zeta as _zeta

from .sumtools import _EPS, _lattice_ceil, log_quadrature
from .surfaces import SurfaceModel, eigen_arrays

__all__ = ["HeatCoeffs", "HeatIntegral", "heat_coeffs", "heat_trace", "heat_integral"]

_FOUR_PI = 4.0 * math.pi
_EXP_CUT = 52.0  # e^-52 ~ 2.6e-23: relative truncation floor for trace sums
# Entries one result memo may hold before it is cleared; an entry of
# heat_integral and one of zeta_det together take about 2.2 KB.
_MEMO_CAP = 4096
_HEAT_MEMO: dict[tuple, HeatIntegral] = {}
# E(t) per surface, as (sorted t, E) arrays; cleared once it would hold more
# than _EXCESS_CAP nodes over all surfaces (16 bytes each: 4 MB)
_EXCESS: dict[SurfaceModel, tuple[np.ndarray, np.ndarray]] = {}
_EXCESS_CAP = 1 << 18
_NO_EXCESS = (np.empty(0), np.empty(0))


def _remember(memo: dict, key: tuple, value) -> None:
    """memo[key] = value, clearing the memo first once it holds _MEMO_CAP."""
    if len(memo) >= _MEMO_CAP:
        memo.clear()
    memo[key] = value


@dataclass(frozen=True)
class HeatCoeffs:
    a_minus1: float
    a_0: float


def _check_mass(name: str, value: float, positive: bool = True) -> None:
    """ValueError naming the argument unless value is finite and > 0 (or
    >= 0 where positive is False)."""
    if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
        sign = "positive" if positive else ">= 0"
        raise ValueError(f"{name} must be {sign} and finite, got {value!r}")


def heat_coeffs(model: SurfaceModel, msq: float) -> HeatCoeffs:
    _check_mass("msq", msq, positive=False)
    a_m1 = model.area / _FOUR_PI
    return HeatCoeffs(a_minus1=a_m1, a_0=model.euler_char / 6.0 - msq * a_m1)


# ------------------------------------------------------------- trace engine

def _theta_direct(model: SurfaceModel, t: np.ndarray) -> np.ndarray:
    """Massless trace as the level sum, cut at the e^-52 relative floor of
    min(t, switch point): elementwise in t above the switch (module docstring)."""
    lams, mults = eigen_arrays(model, _EXP_CUT / min(_switch(model), float(np.min(t))))
    out = np.empty_like(t)
    # chunk over t to keep the (t, line) matrix modest
    step = max(1, int(4e6 // max(1, lams.size)))
    for i in range(0, t.size, step):
        terms = np.outer(t[i:i + step], -lams)
        np.exp(terms, out=terms)
        terms *= mults
        out[i:i + step] = terms.sum(axis=1)
    return out


def _image_sum(length: float, t_cut: float, t: np.ndarray) -> np.ndarray:
    """s(L, t) = 2 sum_{a>=1} exp(-a^2 L^2 / 4t), the Poisson image terms,
    with the images that matter at t_cut >= t (module docstring)."""
    amax = int(math.sqrt(4.0 * _EXP_CUT * t_cut) / length) + 1
    a = np.arange(1, amax + 1, dtype=float)
    return 2.0 * np.exp(-np.outer(1.0 / (4.0 * t), (a * length) ** 2)).sum(axis=1)


def _sphere_series(n_terms: int, x_switch: float) -> tuple[np.ndarray, float]:
    """d_1..d_n of the sphere's E = sum d_j x^j, and a bound on the
    truncation error that holds for x <= x_switch (module docstring)."""
    bern = [Fraction(1)]
    for m in range(1, 2 * n_terms + 3):
        bern.append(-sum(math.comb(m + 1, k) * bern[k] for k in range(m)) / (m + 1))
    # c_j = -B_{2j+2}(1/2) (-1)^j / (j+1)!, with B_n(1/2) = -(1 - 2^{1-n}) B_n
    c = [(1 - Fraction(1, 2 ** (2 * j + 1))) * bern[2 * j + 2] * (-1) ** j
         / math.factorial(j + 1) for j in range(n_terms + 1)]
    q = [Fraction(1, 4 ** i * math.factorial(i)) for i in range(n_terms + 2)]
    d = [q[j + 1] + sum(q[i] * c[j - i] for i in range(j + 1))
         for j in range(1, n_terms + 1)]
    # Euler-Maclaurin remainder with N = 2M + 1 (B_N(1/2) = 0), M = n_terms + 1
    # c's kept, plus the x^{j >= M} tail of e^{x/4} times the kept terms.
    x, big_m = x_switch, n_terms + 1
    n_em = 2 * big_m + 1
    em = (2.0 * float(_zeta(n_em)) / (2.0 * math.pi) ** n_em
          * math.sqrt(math.pi * 2.0 ** (n_em - 1) * math.factorial(n_em + 1))
          * x ** (0.5 * n_em - 1.0))
    tail = (x / 4.0) ** (big_m + 1) / (math.factorial(big_m + 1) * x) + sum(
        abs(float(c[m])) * x ** m * (x / 4.0) ** (big_m - m) / math.factorial(big_m - m)
        for m in range(big_m))
    return np.array([float(v) for v in d]), math.exp(x / 4.0) * (em + tail)


# Below x = t/R^2 = 0.05 the 14-term series is exact to _SERIES_REM ~ 1.5e-21;
# above it the direct sum needs at most 33 levels.
_SERIES_X = 0.05
_SERIES_TERMS = 14
_SERIES_COEFFS, _SERIES_REM = _sphere_series(_SERIES_TERMS, _SERIES_X)


def _switch(model: SurfaceModel) -> float:
    """t below which E comes from the series (sphere) or the images (torus)."""
    if model.kind == "sphere":
        return _SERIES_X * model.radius * model.radius
    return 0.1 * min(model.l1, model.l2) ** 2


def _small_t_excess(model: SurfaceModel, t: np.ndarray) -> np.ndarray:
    """E(t) below the switch: the series on the sphere; on the torus the
    Poisson form theta = (A / 4 pi t)(1 + s(L1, t))(1 + s(L2, t)), since the
    rectangular lattice factorizes."""
    if model.kind == "sphere":
        x = t / (model.radius * model.radius)
        return x * np.polynomial.polynomial.polyval(x, _SERIES_COEFFS)
    t_cut = _switch(model)
    s1, s2 = _image_sum(model.l1, t_cut, t), _image_sum(model.l2, t_cut, t)
    return model.area / (_FOUR_PI * t) * (s1 + s2 + s1 * s2)


def _by_branch(model: SurfaceModel, t: np.ndarray, small, direct) -> np.ndarray:
    """small(t) below the model's switch point, direct(t) above it."""
    below = t < _switch(model)
    n_below = np.count_nonzero(below)
    if n_below == t.size:
        return small(t)
    if n_below == 0:
        return direct(t)
    out = np.empty_like(t)
    out[below] = small(t[below])
    out[~below] = direct(t[~below])
    return out


def _weyl_excess(model: SurfaceModel, t: np.ndarray) -> np.ndarray:
    """E(t) = theta_Delta(t) - a_{-1}/t - chi/6, without cancellation, read
    from the surface's table; the t it lacks are computed and stored."""
    keys, vals = _EXCESS.get(model, _NO_EXCESS)
    at = np.searchsorted(keys, t)
    hit = at < keys.size
    hit[hit] = keys[at[hit]] == t[hit]
    if hit.all():
        return vals[at]
    fresh = np.unique(t[~hit])
    a_m1, a_0 = model.area / _FOUR_PI, model.euler_char / 6.0
    excess = _by_branch(model, fresh, lambda ts: _small_t_excess(model, ts),
                        lambda ts: _theta_direct(model, ts) - a_m1 / ts - a_0)
    at = np.searchsorted(keys, fresh)
    keys, vals = np.insert(keys, at, fresh), np.insert(vals, at, excess)
    if sum(k.size for k, _ in _EXCESS.values()) + fresh.size > _EXCESS_CAP:
        _EXCESS.clear()
    if keys.size <= _EXCESS_CAP:
        _EXCESS[model] = keys, vals   # one assignment: readers see a matching pair
    return vals[np.searchsorted(keys, t)]


def _series_bound(model: SurfaceModel, t_hi: float) -> float:
    """Bound on int_0^t_hi |E - computed E| dt/t from the truncated series.

    The remainder grows at least like x^{M - 1/2} (M = 15) up to the switch,
    where it is at most _SERIES_REM, and the integral follows in closed form.
    """
    if model.kind != "sphere":
        return 0.0
    power = _SERIES_TERMS + 0.5
    x_hi = min(1.0, t_hi / _switch(model))
    return _SERIES_REM * x_hi ** power / power


def _remainder(model: SurfaceModel, msq: float, t: np.ndarray) -> np.ndarray:
    """theta_E(t) - a_{-1}/t - a_0, without cancellation (module docstring)."""
    y = msq * t
    em1 = np.expm1(-y)
    return ((em1 + y) * (model.area / (_FOUR_PI * t)) + em1 * (model.euler_char / 6.0)
            + np.exp(-y) * _weyl_excess(model, t))


def _theta(model: SurfaceModel, msq: float, t: np.ndarray) -> np.ndarray:
    """theta_E(t) = e^{-m^2 t} (a_{-1}/t + chi/6 + E(t))."""
    return np.exp(-msq * t) * (model.area / (_FOUR_PI * t) + model.euler_char / 6.0
                               + _weyl_excess(model, t))


def heat_trace(model: SurfaceModel, msq: float, t):
    """theta_E(t) = sum_k mult_k exp(-t (lambda_k + m^2)); scalar or array t.

    Truncation of the spectral sum is fixed at the e^-52 relative floor.
    """
    _check_mass("msq", msq, positive=False)
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("t must be positive and finite")
    vals = _theta(model, msq, arr)
    return float(vals[0]) if np.ndim(t) == 0 else vals


# ------------------------------------------------------------ heat integral

@dataclass(frozen=True)
class HeatIntegral:
    value: float
    abs_error_bound: float
    quadrature_profile: dict


def heat_integral(model: SurfaceModel, msq: float, abs_tol: float = 1e-8,
                  t_lo: float | None = None, t_hi: float | None = None) -> HeatIntegral:
    """Finite part of the resolvent trace at s = 0 (see module docstring).

    t_lo/t_hi override the quadrature window, by default [1e-5, e^k] with k
    the least integer with e^k >= 52/m^2 (module docstring); the certified
    bound covers the analytic remainders outside it, so the value is
    window-independent within the reported bound.
    """
    _check_mass("msq", msq, positive=False)
    if msq == 0.0:
        raise ValueError(
            "heat_integral requires msq > 0; the massless pathway lives in "
            "anomaly.verify_massless (primed determinant with the zero mode removed)")
    if not (0.0 < abs_tol <= 1e-4):
        raise ValueError("abs_tol must lie in (0, 1e-4]")
    if t_lo is None:
        t_lo = 1e-5
    if t_hi is None:
        t_hi = _lattice_ceil(_EXP_CUT / msq)
    if not (0.0 < t_lo < t_hi < math.inf):
        raise ValueError(f"heat_integral needs 0 < t_lo < t_hi < inf, "
                         f"got t_lo={t_lo!r}, t_hi={t_hi!r}")
    key = (model, msq, abs_tol, t_lo, t_hi)
    result = _HEAT_MEMO.get(key)
    if result is None:
        a_m1 = model.area / _FOUR_PI

        def integrand(t: np.ndarray) -> np.ndarray:
            return np.exp(-msq * t) * (model.euler_char / 6.0 + _weyl_excess(model, t))

        quad = log_quadrature(integrand, t_lo, t_hi, abs_tol=min(abs_tol * 1e-2, 1e-11))

        # [0, t_lo]: integrand -> chi/6 + O(t); trapezoid with measured slope bound
        w0 = model.euler_char / 6.0
        w_lo, w_half = integrand(np.array([t_lo, 0.5 * t_lo])).tolist()
        small_corr = 0.5 * t_lo * (w0 + w_lo)
        slope = abs(w_lo - w_half) / (0.5 * t_lo)
        small_bound = (abs(w_half - 0.5 * (w0 + w_lo)) + slope * t_lo) * t_lo

        # [t_hi, inf): both terms decay at least like e^{-msq t}
        theta_hi = float(_theta(model, msq, np.array([t_hi]))[0])
        ref_hi = (a_m1 / t_hi) * math.exp(-msq * t_hi)
        tail_bound = (theta_hi + ref_hi) / msq

        # truncated sphere series, used only below the switch point t_s:
        # int |dE| dt <= t_s int |dE| dt/t
        series_bound = min(t_hi, _switch(model)) * _series_bound(model, t_hi)

        log_term = a_m1 * math.log(msq)
        value = quad.value + small_corr - log_term
        # rounding of log_term and of the two additions
        assembly = 2.0 * _EPS * (abs(log_term) + abs(value))
        bound = quad.err_bound + small_bound + tail_bound + series_bound + assembly
        profile = quad.profile()
        profile.update({"t_lo": t_lo, "t_hi": t_hi, "small_t_correction": small_corr,
                        "small_t_bound": small_bound, "tail_bound": tail_bound,
                        "series_bound": series_bound, "assembly_bound": assembly})
        result = HeatIntegral(value=value, abs_error_bound=bound, quadrature_profile=profile)
        _remember(_HEAT_MEMO, key, result)
    if not (result.abs_error_bound <= abs_tol):
        raise ValueError(f"heat_integral bound {result.abs_error_bound:.3e} "
                         f"exceeds abs_tol {abs_tol:.3e}")
    return result
