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
  over the nonzero lattice vectors v = (a L1, b L2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import k0
from .heat import _check_mass, heat_integral
from .sumtools import stable_sum
from .surfaces import SurfaceModel, eigen_arrays, make_surface

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
# lattice points per k0 call in the image sum
_IMAGE_BLOCK = 1 << 20


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


def _weyl_fluctuation_coeff(model: SurfaceModel) -> float:
    # |N(lam) - A lam / 4 pi| <= c sqrt(lam) + 8 on the model surfaces
    if model.kind == "sphere":
        return 2.0 * model.radius
    return 0.5 * (model.l1 + model.l2)


def det2(model: SurfaceModel, m0sq: float, m1sq: float, lam_max: float = 2e5) -> Det2Result:
    """Hilbert-Schmidt regularized determinant det_2(1 + m1^2 C) in log space.

    Factors (1 + x_k) e^{-x_k} with x_k = m1^2/(m0^2 + lambda_k) all lie in
    (0, 1], so log_value <= 0.  Eigenvalues above lam_max are replaced by the
    Weyl-density integral of -x^2/2 (the tail correction), with a certified
    bound covering the x^3 term and the lattice-count fluctuation.
    """
    _check_mass("m0sq", m0sq)
    _check_mass("m1sq", m1sq, positive=False)
    if lam_max < 0:
        raise ValueError("lam_max must be >= 0")
    lams, mults = eigen_arrays(model, lam_max)
    x = m1sq / (m0sq + lams)
    truncated = stable_sum(mults * (np.log1p(x) - x))
    a_m1 = model.area / _FOUR_PI
    edge = m0sq + lam_max
    tail_correction = -0.5 * m1sq * m1sq * a_m1 / edge
    c_fluct = _weyl_fluctuation_coeff(model)
    delta_edge = c_fluct * math.sqrt(lam_max) + 8.0
    tail_bound = (
        (model.area / (24.0 * math.pi)) * m1sq ** 3 / edge ** 2      # x^3 term
        + delta_edge * 0.5 * m1sq ** 2 / edge ** 2                   # boundary count
        + c_fluct * m1sq ** 2 * (2.0 / 3.0) * max(lam_max, 1.0) ** -1.5
        + 8.0 * m1sq ** 2 * 0.5 / edge ** 2
    )
    return Det2Result(log_value=truncated + tail_correction, lam_max=lam_max,
                      tail_correction=tail_correction, tail_bound=tail_bound,
                      truncated_log=truncated)


@dataclass(frozen=True)
class FinitePart:
    gamma0: float
    cf_mean: float
    source: str  # "heat_integral" | "image_sum"


def cf_mean(model: SurfaceModel, m0sq: float) -> FinitePart:
    """Diagonal Green's-function finite part via the heat route."""
    _check_mass("m0sq", m0sq)
    m0 = math.sqrt(m0sq)
    integral = heat_integral(model, m0sq)
    value = integral.value / model.area + (math.log(2.0 * m0) - _EULER) / _TWO_PI
    return FinitePart(gamma0=gamma0(m0), cf_mean=value, source="heat_integral")


def torus_cf_image_sum(l1: float, l2: float, m0: float) -> FinitePart:
    """Diagonal finite part on the torus by the lattice Bessel image sum.

    Only the quadrant a, b >= 0 is evaluated, each term times its 2 or 4 sign
    copies (exact in floats), in row blocks of about _IMAGE_BLOCK points that
    stream into one math.fsum.  The correctly rounded sum does not depend on
    the order or grouping of its terms, so the value is the one the full
    sorted lattice would give.
    """
    make_surface("torus", L1=l1, L2=l2)
    _check_mass("m0", m0)
    # K0 terms below ~1e-18 are dropped: m0 r > 44 suffices.
    nmax_a = int(44.0 / (m0 * l1)) + 1
    nmax_b = int(44.0 / (m0 * l2)) + 1
    rb = np.arange(nmax_b + 1, dtype=float) * l2
    sign_b = np.where(rb > 0.0, 2.0, 1.0)
    rows = max(1, _IMAGE_BLOCK // rb.size)

    def terms():
        for start in range(0, nmax_a + 1, rows):
            ra = np.arange(start, min(start + rows, nmax_a + 1), dtype=float) * l1
            r = np.hypot(ra[:, None], rb[None, :])
            signs = np.where(ra > 0.0, 2.0, 1.0)[:, None] * sign_b[None, :]
            live = (r > 0.0) & (m0 * r < 44.0)
            yield from (signs[live] * k0(m0 * r[live])).tolist()

    value = _FREE_SPACE_CF + math.fsum(terms()) / _TWO_PI
    return FinitePart(gamma0=gamma0(m0), cf_mean=value, source="image_sum")

