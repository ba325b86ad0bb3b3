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

without cancellation: at small t the sphere's theta is a sum over thousands
of levels, and subtracting R^2/t from it would leave only rounding noise.
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
  omitted term is 2.6e-23 there).
* Torus, t < 0.1 min(L1, L2)^2.  Poisson resummation gives
  theta = (A/4 pi t) sigma_1 sigma_2 with sigma_i = 1 + s_i,
  s_i = 2 sum_{a>=1} e^{-a^2 L_i^2/4t}, so E = (A/4 pi t)(s_1 + s_2 + s_1 s_2).

Above the switch the sphere sums its `eigen_arrays` levels (at most 33) and
the torus multiplies its two 1-D Jacobi sums theta_i = 1 + 2 sum_{p>=1}
e^{-t (2 pi p/L_i)^2}, each cut where e^{-t lambda} falls below e^-52 at the
switch point; there E is an O(1) difference that carries at most 4 ulps of
a_{-1}/t, which both integrals' bounds count.  Every t sums the same terms,
one numpy row reduction per t, and below the switch the torus keeps the
images that matter at the switch point, so E at t does not depend on the
other points of a batch, bit for bit: the elementwise contract of
`log_quadrature`, which evaluates a whole pass of panels in one call.

With y = m^2 t the massive remainder follows exactly,

    theta_E - a_{-1}/t - a_0 = (e^{-y} - 1 + y) a_{-1}/t + (e^{-y} - 1) chi/6
                               + e^{-y} E,

with e^{-y} - 1 taken from expm1.  It is the integrand of the Mellin F
integral in `zeta`, e^{-y} (chi/6 + E) is the `heat_integral` integrand, and
the trace itself is theta_E = e^{-y} (a_{-1}/t + chi/6 + E).  So a new mass
costs only its factors e^{-y} and expm1(-y) and the panel sums, and `_solve`
integrates the F, G and heat windows of several masses in one pass (`_rows`),
computing E once per node of the pass; the tail points t_hi join its first
E batch.

Closed form on [0, T].  Both integrals start their quadrature at T = e^k,
the greatest such point at most the window's end and 0.05 R^2 (sphere) or
min(L1, L2)^2/160 (torus), and take [0, T] in closed form.  With Y = m^2 T,
g_j(Y) = int_0^1 v^{j-1} e^{-Yv} dv = gamma(j, Y)/Y^j and Ein (A&S 5.1),

    int_0^T (theta_E - a_{-1}/t - a_0) dt/t
        = a_{-1} m^2 [Ein(Y) - (e^{-Y} - 1 + Y)/Y] - (chi/6) Ein(Y) + sum_j d_j (T/R^2)^j g_j(Y),
    int_0^T e^{-y} (chi/6 + E) dt = T [(chi/6) g_1(Y) + sum_j d_j (T/R^2)^j g_{j+1}(Y)],

from power series at Y <= 1 (no cancellation, exact at m = 0), else from
`gammainc` and E_1(Y) + ln Y + gamma.  On the torus (chi = 0) E below T is
the image terms, each below e^-40, so the d_j terms give way to the bound
int_0^T E dt/t <= 2.1 a_{-1} sum_i e^{-c_i/T}/c_i, c_i = L_i^2/4.  Each piece adds 64 ulps of
its summed |terms|.  The default windows end at e^k for the least integer k
with e^k >= 52/m^2 here (and likewise in `zeta`), where the tail bounds are
taken; a mass whose e^k leaves the float range (m^2 <= 5.2e-306) is refused
by name before any quadrature.

The window ends and the split point are derived from (surface, m^2), so
`heat_integral` and `zeta_det` remember their results in one memo keyed by
(job, model, m^2), cleared once it holds _MEMO_CAP entries.  `_remembered`
fills it, solving every missing entry of a verifier in one `_solve` pass; a
remembered result is shared, not copied.  `_solve` itself never writes it,
so a job at another window (a private argument) leaves it as it is.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import exp1 as _exp1, gamma as _gamma, gammainc as _gammainc, zeta as _zeta

from .sumtools import _EPS, QuadratureResult, log_quadrature
from .surfaces import _FOUR_PI_SQ, SurfaceModel, eigen_arrays

__all__ = ["HeatCoeffs", "HeatIntegral", "heat_coeffs", "heat_trace", "heat_integral"]

_FOUR_PI = 4.0 * math.pi
_EXP_CUT = 52.0  # e^-52 ~ 2.6e-23: relative truncation floor for trace sums
_HEAT_TOL = 1e-8   # heat_integral raises where its bound exceeds this
# Entries the result memo may hold before it is cleared; an entry of
# heat_integral and one of zeta_det together take about 2.2 KB.
_MEMO_CAP = 4096
_MEMO: dict[tuple, object] = {}   # (job, model, m^2) -> its result


@dataclass(frozen=True)
class HeatCoeffs:
    a_minus1: float
    a_0: float


def _exp(x: float, fn=math.exp) -> float:
    """fn(x) for an exponential fn, with inf where the result overflows."""
    try:
        return fn(x)
    except OverflowError:
        return math.inf


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
    """Massless trace cut at the e^-52 relative floor of min(t, switch point):
    elementwise in t above the switch (module docstring).  The sphere sums its
    levels; the torus multiplies its two 1-D Jacobi sums
    theta_i = 1 + 2 sum_{p>=1} e^{-t (2 pi p / L_i)^2}."""
    lam_max = _EXP_CUT / min(_switch(model), float(t.min()))
    if model.kind == "sphere":
        lams, mults = eigen_arrays(model, lam_max)
        return (np.exp(np.outer(t, -lams)) * mults).sum(axis=1)
    exponents, starts = _jacobi_exponents(model.l1, model.l2, lam_max)
    sums = np.add.reduceat(np.exp(t[:, None] * exponents), starts, axis=1)
    return (1.0 + 2.0 * sums[:, 0]) * (1.0 + 2.0 * sums[:, 1])


@functools.lru_cache(maxsize=1024)
def _jacobi_exponents(l1: float, l2: float, lam_max: float):
    """-(2 pi p/L)^2 >= -lam_max, p >= 1, for L1 then L2, and where each starts."""
    runs = [-(_FOUR_PI_SQ / (x * x)) * np.arange(
        1.0, math.floor(math.sqrt(lam_max) * x / (2.0 * math.pi)) + 1.0) ** 2 for x in (l1, l2)]
    return np.concatenate(runs), (0, runs[0].size)


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


def _weyl_excess(model: SurfaceModel, t: np.ndarray) -> np.ndarray:
    """E(t) = theta_Delta(t) - a_{-1}/t - chi/6, without cancellation: the
    series or the images below the model's switch point, the direct sum above it."""
    below = t < _switch(model)
    if below.all():
        return _small_t_excess(model, t)
    a_m1, a_0 = model.area / _FOUR_PI, model.euler_char / 6.0
    if not below.any():
        return _theta_direct(model, t) - a_m1 / t - a_0
    out = np.empty_like(t)
    out[below] = _small_t_excess(model, t[below])
    above = t[~below]
    out[~below] = _theta_direct(model, above) - a_m1 / above - a_0
    return out


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


def _closed_form_end(model: SurfaceModel, t_end: float) -> float:
    """T = e^k, the greatest at most t_end and at most where the closed form
    of [0, t] ends: the switch point, a sixteenth of it on the torus (module
    docstring)."""
    top = min(t_end, _switch(model) / (1.0 if model.kind == "sphere" else 16.0))
    k = math.floor(math.log(top))
    return math.exp(k) if math.exp(k) <= top else math.exp(k - 1)


_J = np.arange(1.0, _SERIES_TERMS + 2.0)          # j = 1..15
# at y <= 1, over p_k = (-y)^k/k!, k <= 25 (the next term is below 1e-26), one
# row each: g_j = sum_k p_k/(j+k), Ein = -sum_k p_k/k, h = -sum_k p_k/(k(k+1))
_K = np.arange(26.0)
_INV_FACT = np.array([1.0 / math.factorial(k) for k in range(26)])
_ROWS = np.vstack([1.0 / (_J[:, None] + _K), np.r_[0.0, -1.0 / _K[1:]],
                   np.r_[0.0, -1.0 / (_K[1:] * (_K[1:] + 1.0))]])


def _g_ein(y: float):
    """g_1..g_15, Ein and h = Ein(y) - (e^{-y} - 1 + y)/y at y (module docstring)."""
    if y <= 1.0:
        rows = (_ROWS * (np.power(-y, _K) * _INV_FACT)).sum(axis=1)
        return rows[:-2], float(rows[-2]), float(rows[-1])
    with np.errstate(over="ignore"):   # y^j past the float range: g_j = 0
        g = _gammainc(_J, y) * _gamma(_J) / y ** _J
    ein = float(_exp1(y)) + math.log(y) + float(np.euler_gamma)
    return g, ein, ein - (math.expm1(-y) + y) / y


def _small_t_pieces(model: SurfaceModel, msq: float, t_end: float):
    """The Mellin F and heat integrals over [0, t_end] in closed form, as
    (F, its bound, heat, its bound) (module docstring)."""
    a_m1, c0 = model.area / _FOUR_PI, model.euler_char / 6.0
    g, ein, h = _g_ein(msq * t_end)
    if model.kind == "torus":   # chi = 0, and E is the image terms
        image = 2.1 * a_m1 * sum(4.0 / (x * x) * math.exp(-x * x / (4.0 * t_end))
                                 for x in (model.l1, model.l2))
        f = a_m1 * msq * h
        return f, image + 64.0 * _EPS * abs(f), 0.0, t_end * image
    dx = _SERIES_COEFFS * (t_end / (model.radius * model.radius)) ** _J[:-1]
    f_terms = np.concatenate(([a_m1 * msq * h, -c0 * ein], dx * g[:-1]))
    heat_terms = t_end * np.concatenate(([c0 * g[0]], dx * g[1:]))
    return (math.fsum(f_terms), 64.0 * _EPS * float(np.abs(f_terms).sum()),
            math.fsum(heat_terms), 64.0 * _EPS * float(np.abs(heat_terms).sum()))


def _rows(model: SurfaceModel, rows, t: np.ndarray, excess: np.ndarray) -> np.ndarray:
    """The integrand rows at t for rows of (kind, m^2, n0), from one E and one
    e^{-m^2 t} per mass: "f" the Mellin F integrand (theta_E - a_{-1}/t - a_0)/t
    (module docstring), "g" the G integrand (theta_E - n0)/t, "heat" the
    heat_integral integrand e^{-m^2 t} (chi/6 + E)."""
    a_t, c0 = model.area / (_FOUR_PI * t), model.euler_char / 6.0
    decay, out = {msq: np.exp(-msq * t) for _, msq, _ in rows}, np.empty((len(rows), t.size))
    for row, (kind, msq, n0) in zip(out, rows):
        if kind == "f":
            em1 = np.expm1(-msq * t)
            row[:] = ((em1 + msq * t) * a_t + em1 * c0 + decay[msq] * excess) / t
        elif kind == "g":
            row[:] = (decay[msq] * (a_t + c0 + excess) - n0) / t
        else:
            row[:] = decay[msq] * (c0 + excess)
    return out


def _theta(model: SurfaceModel, msq: float, t: np.ndarray, excess=None) -> np.ndarray:
    """theta_E(t) = e^{-m^2 t} (a_{-1}/t + chi/6 + E(t)), E computed unless given."""
    excess = _weyl_excess(model, t) if excess is None else excess
    return np.exp(-msq * t) * (model.area / (_FOUR_PI * t) + model.euler_char / 6.0 + excess)


def _solve(model: SurfaceModel, jobs: list) -> list:
    """The entries of jobs (windows, tail point, finish) from one `log_quadrature`
    call over all their windows (t_lo, t_hi, abs_tol, row of `_rows`).  E at
    the tail points joins its first batch; each finish(its windows'
    quadratures, E at its tail point) computes its entry."""
    windows = [w for ws, _, _ in jobs for w in ws]
    tails = np.array(sorted({tail for _, tail, _ in jobs}))
    at_tails = {}

    def integrand(t: np.ndarray) -> np.ndarray:
        excess = _weyl_excess(model, t if at_tails else np.concatenate([t, tails]))
        at_tails.update(zip(tails.tolist(), excess[t.size:].tolist()))
        return _rows(model, [w[3] for w in windows], t, excess[:t.size])

    quads = iter(log_quadrature(integrand, *zip(*[w[:3] for w in windows])) if windows else ())
    if not at_tails:
        at_tails.update(zip(tails.tolist(), _weyl_excess(model, tails).tolist()))
    return [finish([next(quads) for _ in ws], at_tails[tail]) for ws, tail, finish in jobs]


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


def _remembered(model: SurfaceModel, wanted) -> list:
    """The results of wanted, (job, m^2) pairs, from the memo; those it lacks
    from one `_solve` pass over their job(model, m^2), then remembered."""
    results = [_MEMO.get((job, model, msq)) for job, msq in wanted]
    missing = list(dict.fromkeys(w for w, result in zip(wanted, results) if result is None))
    if missing:
        solved = dict(zip(missing, _solve(model, [job(model, msq) for job, msq in missing])))
        for (job, msq), result in solved.items():
            if len(_MEMO) >= _MEMO_CAP:
                _MEMO.clear()
            _MEMO[job, model, msq] = result
        results = [solved.get(w, result) for w, result in zip(wanted, results)]
    return results


def _window_end(mu: float, t_min: float = 0.0) -> float:
    """e^k for the least integer k with e^k >= t = max(52/mu, t_min), on the
    log-t lattice of `sumtools`: where a default window ends and its tail
    bound is taken.  A ValueError naming msq where e^k may overflow."""
    t = max(_EXP_CUT / mu, t_min)
    if not t < 1e307:
        raise ValueError(f"msq = {mu!r} is too small: the quadrature window "
                         f"end e^k >= 52/msq is past the float range")
    return math.exp(math.ceil(math.log(t)))


# ------------------------------------------------------------ heat integral

@dataclass(frozen=True)
class HeatIntegral:
    value: float
    abs_error_bound: float
    quadrature_profile: dict


def heat_integral(model: SurfaceModel, msq: float) -> HeatIntegral:
    """Finite part of the resolvent trace at s = 0 (module docstring), from
    the window [T, e^k] and [0, T] in closed form; the certified bound covers
    the remainders outside the window, so the value is window-independent
    within it.  Raises where the bound exceeds _HEAT_TOL."""
    result = _MEMO.get((_heat_job, model, msq))
    if result is None:
        result, = _remembered(model, [(_heat_job, msq)])
    if not (result.abs_error_bound <= _HEAT_TOL):
        raise ValueError(f"heat_integral bound {result.abs_error_bound:.3e} "
                         f"exceeds {_HEAT_TOL:.3e}")
    return result


def _heat_job(model: SurfaceModel, msq: float, t_lo: float | None = None,
              t_hi: float | None = None) -> tuple:
    """The `_solve` job of heat_integral at m^2, on the window [t_lo, t_hi]
    (by default [T, e^k]); [0, t_lo] is taken in closed form, so t_lo may not
    pass where that ends (`_closed_form_end`)."""
    _check_mass("msq", msq, positive=False)
    if msq == 0.0:
        raise ValueError("heat_integral requires msq > 0; the massless pathway lives in "
                         "anomaly.verify_massless (det' with the zero mode removed)")
    t_hi = _window_end(msq) if t_hi is None else t_hi
    t_lo = _closed_form_end(model, t_hi) if t_lo is None else t_lo
    a_m1 = model.area / _FOUR_PI

    def finish(quads, excess_hi: float) -> HeatIntegral:
        quad = quads[0] if quads else QuadratureResult(0.0, 0.0)
        _, _, closed, closed_bound = _small_t_pieces(model, msq, t_lo)   # [0, t_lo]

        # [t_hi, inf): both terms decay at least like e^{-msq t}
        theta_hi = float(_theta(model, msq, np.array([t_hi]), np.array([excess_hi]))[0])
        ref_hi = (a_m1 / t_hi) * math.exp(-msq * t_hi)
        tail_bound = (theta_hi + ref_hi) / msq

        # truncated sphere series, used only below the switch point t_s:
        # int |dE| dt <= t_s int |dE| dt/t
        series_bound = min(t_hi, _switch(model)) * _series_bound(model, t_hi)

        log_term = a_m1 * math.log(msq)
        value = quad.value + closed - log_term
        # rounding: of log_term and the additions; of E above the switch (4 ulps
        # of a_{-1}/t); and 8 ulps of a_{-1}, which a change of unit c moves
        # the value by times ln c^2 (log_term is 0 only in the unit where m = 1)
        assembly = (2.0 * _EPS * (abs(log_term) + abs(value))
                    + 4.0 * _EPS * a_m1 * (2.0 + float(_exp1(msq * _switch(model)))))
        bound = quad.err_bound + closed_bound + tail_bound + series_bound + assembly
        profile = quad.profile()
        profile.update({"t_lo": t_lo, "t_hi": t_hi, "small_t_correction": closed,
                        "small_t_bound": closed_bound, "tail_bound": tail_bound,
                        "series_bound": series_bound, "assembly_bound": assembly})
        return HeatIntegral(value=value, abs_error_bound=bound, quadrature_profile=profile)

    windows = [(t_lo, t_hi, 1e-11, ("heat", msq, 0))] if t_lo < t_hi else []
    return windows, t_hi, finish
