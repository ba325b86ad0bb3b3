"""Covariance-side quantities for C = (Laplacian + m0^2)^{-1}: the log-kernel
ordering constant gamma0, the Hilbert-Schmidt regularized determinant
det_2(1 + m1^2 C), and the diagonal finite part of the Green's function.

The Green's function on a surface splits as

    C(x, y) = -(1/2 pi) ln(m0 d(x, y)) + C_f(x, y) + o(1),   y -> x,

and on the homogeneous models C_f(x, x) is a constant.  Two independent
routes compute it:

* heat route: C_f = I/A + (ln(2 m0) - gamma_E)/(2 pi), where I is the
  resolvent-trace finite part from `heat.heat_integral`.  The matching
  constant is fixed by the flat-space kernel: (1/2 pi) K0(m0 r) =
  -(1/2 pi) ln(m0 r) + (1/2 pi)(ln 2 - gamma_E) + o(1).
* image route (torus only): periodizing the free kernel gives exactly
  C_f = (ln 2 - gamma_E)/(2 pi) + (1/2 pi) sum_{v != 0} K0(m0 |v|)
  over the nonzero lattice vectors v = (a L1, b L2).  Poisson summation in b
  (kappa_q = sqrt(m0^2 + (2 pi q/L2)^2), L1 the longer side) sums the rows
  a != 0 in closed form, a few terms falling like e^{-2 pi |q| L1/L2}:

      sum_{v != 0} K0(m0 |v|) = (2 pi/L2) sum_q 1/(kappa_q expm1(L1 kappa_q))
                                + 2 sum_{b >= 1} K0(m0 b L2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import k0
from .heat import _check_mass, heat_integral
from .sumtools import _EPS, pairwise_rounding
from .surfaces import _MAX_SPECTRUM_POINTS, SurfaceModel, eigen_arrays, make_surface

__all__ = [
    "Det2Result",
    "FinitePart",
    "gamma0",
    "det2",
    "cf_mean",
    "torus_cf_image_sum",
]

_EULER = float(np.euler_gamma)
_TWO_PI = 2.0 * math.pi
_FOUR_PI = 4.0 * math.pi
# small-z matching constant of K0: K0(z) = -ln(z/2) - gamma_E + o(1)
_FREE_SPACE_CF = (math.log(2.0) - _EULER) / _TWO_PI


def gamma0(m0: float) -> float:
    """(1/2 pi)(ln(m0/4) + gamma_E); vanishes at the bare mass 4 e^{-gamma_E}."""
    _check_mass("m0", m0)
    return (math.log(0.25 * m0) + _EULER) / _TWO_PI


@dataclass(frozen=True)
class Det2Result:
    log_value: float          # truncated sum plus tail correction
    lam_max: float
    tail_correction: float
    tail_bound: float
    truncated_log: float      # sum over lambda <= lam_max only

    @property
    def value(self) -> float:
        return math.exp(self.log_value)


def det2(model: SurfaceModel, m0sq: float, m1sq: float, lam_max: float = 2e5) -> Det2Result:
    """Hilbert-Schmidt regularized determinant det_2(1 + m1^2 C) in log space.

    Factors (1 + x_k) e^{-x_k} with x_k = m1^2/(m0^2 + lambda_k) all lie in
    (0, 1], so log_value <= 0.  The truncated log sums the modes of
    `eigen_arrays(model, lam_max)` (lines on the sphere, quadrant points
    with their sign copies on the torus) in one numpy pairwise sum.
    Eigenvalues above lam_max are replaced by the Weyl-density integral of
    -x^2/2 (the tail correction), with a certified bound covering the x^3
    term, the lattice-count fluctuation and the rounding of the sum.
    """
    _check_mass("m0sq", m0sq)
    _check_mass("m1sq", m1sq, positive=False)
    lams, weights = eigen_arrays(model, lam_max, lines=False)   # checks lam_max
    x = m1sq / (m0sq + lams)
    truncated = float(np.sum(weights * (np.log1p(x) - x)))
    a_m1 = model.area / _FOUR_PI
    edge = m0sq + lam_max
    tail_correction = -0.5 * m1sq * m1sq * a_m1 / edge
    # |N(lam) - A lam / 4 pi| <= c sqrt(lam) + 8 on the model surfaces
    c_fluct = 2.0 * model.radius if model.kind == "sphere" else 0.5 * (model.l1 + model.l2)
    delta_edge = c_fluct * math.sqrt(lam_max) + 8.0
    tail_bound = (
        (model.area / (24.0 * math.pi)) * m1sq ** 3 / edge ** 2      # x^3 term
        + delta_edge * 0.5 * m1sq ** 2 / edge ** 2                   # boundary count
        + c_fluct * m1sq ** 2 * (2.0 / 3.0) * max(lam_max, 1.0) ** -1.5
        + 8.0 * m1sq ** 2 * 0.5 / edge ** 2
        + pairwise_rounding(truncated, lams.size) + 2.0 * _EPS * float(np.sum(weights * x))
    )
    return Det2Result(log_value=truncated + tail_correction, lam_max=lam_max,
                      tail_correction=tail_correction, tail_bound=tail_bound,
                      truncated_log=truncated)


@dataclass(frozen=True)
class FinitePart:
    gamma0: float
    cf_mean: float
    source: str       # "heat_integral" | "image_sum"
    err_bound: float  # on cf_mean


def cf_mean(model: SurfaceModel, m0sq: float) -> FinitePart:
    """Diagonal Green's-function finite part via the heat route."""
    _check_mass("m0sq", m0sq)
    m0 = math.sqrt(m0sq)
    integral = heat_integral(model, m0sq)
    value = integral.value / model.area + (math.log(2.0 * m0) - _EULER) / _TWO_PI
    return FinitePart(gamma0=gamma0(m0), cf_mean=value, source="heat_integral",
                      err_bound=integral.abs_error_bound / model.area)


def torus_cf_image_sum(l1: float, l2: float, m0: float) -> FinitePart:
    """Diagonal finite part on the torus by the image sum in one-direction
    Poisson form (module docstring), cut at 2 pi q L1/L2 > 44 and at
    m0 b L2 > 44.  The bound covers both tails (geometric in q; K0(x) <=
    sqrt(pi/2x) e^-x on the row), K0's 1e-15 relative error and rounding.
    A row over the spectrum budget is refused before it is allocated."""
    make_surface("torus", L1=l1, L2=l2)
    _check_mass("m0", m0)
    l1, l2 = max(l1, l2), min(l1, l2)
    if not m0 * l2 * _MAX_SPECTRUM_POINTS > 44.0:
        raise ValueError(f"m0={m0!r} needs over {_MAX_SPECTRUM_POINTS:.0e} K0 terms on the "
                         f"side {l2!r}, over the budget")
    step = _TWO_PI / l2
    n_q = int(44.0 / (step * l1)) + 1
    kappa = np.hypot(m0, step * np.arange(-n_q, n_q + 1))
    x_q = l1 * kappa
    # e^{-x}/(-expm1(-x)) = 1/expm1(x), which would overflow at large x
    terms = step * np.exp(-x_q) / (kappa * -np.expm1(-x_q))
    k_top = float(kappa[-1])   # kappa_q >= step q beyond it
    q_tail = 2.0 * step * math.exp(-l1 * step * (n_q + 1)) / (
        k_top * -math.expm1(-l1 * k_top) * -math.expm1(-l1 * step))
    n_b = int(44.0 / (m0 * l2))
    x_b = m0 * l2 * np.arange(1, n_b + 1)
    row = k0(x_b)
    row *= 2.0
    x_end = m0 * l2 * (n_b + 1)   # > 44
    b_tail = 2.0 * math.sqrt(math.pi / (2.0 * x_end)) * math.exp(-x_end) / -math.expm1(-m0 * l2)
    poisson, row_sum = float(np.sum(terms)), float(np.sum(row))
    # evaluation: K0 to 1e-15, and a few ulps of each argument, which e^{-x}
    # magnifies x-fold
    x_b *= row   # x K0(x), in place: the row may hold 3e7 terms
    evaluation = 1e-15 * row_sum + 4.0 * _EPS * (
        float(np.sum((1.0 + x_q) * terms)) + row_sum + float(np.sum(x_b)))
    value = _FREE_SPACE_CF + (poisson + row_sum) / _TWO_PI
    bound = (q_tail + b_tail + evaluation + pairwise_rounding(poisson, terms.size)
             + pairwise_rounding(row_sum, n_b))
    return FinitePart(gamma0=gamma0(m0), cf_mean=value, source="image_sum",
                      err_bound=bound / _TWO_PI + _EPS * abs(value))
