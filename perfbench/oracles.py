"""Reference values computed without zetasurf.

Each function here is an independent route to a quantity that zetasurf
computes by Mellin quadrature, spectral products or its own Bessel kernel:

* the round sphere: det'_zeta = exp(1/2 - 4 zeta_R'(-1)), and the exact
  zeta'(0) at m^2 = 1/(4 R^2), where the spectrum is (k + 1/2)^2 / R^2;
* the flat rectangular torus: Kronecker's first limit formula
  det'_zeta = L2^2 |eta(i L2/L1)|^4 (Ray-Singer 1973; Osgood-Phillips-Sarnak
  1988), its massive Chowla-Selberg counterpart built on scipy's K1, and the
  lattice image sum for the Green's-function finite part built on scipy's K0.

Only numpy and scipy.special are used.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import k0 as _k0, k1 as _k1

EULER = float(np.euler_gamma)
# zeta_R'(-1) = 1/12 - ln(Glaisher's A)
ZETA_PRIME_MINUS1 = -0.16542114370045092921
# K0 and K1 below e^-46 ~ 1e-20 are dropped from the lattice sums
_BESSEL_CUT = 46.0


def sphere_det_prime(radius: float) -> float:
    """det'_zeta of the Laplacian on the round sphere of the given radius.

    exp(1/2 - 4 zeta_R'(-1)) on the unit sphere; the primed zeta value at 0 is
    1/3 - 1 = -2/3, so scaling the radius by R multiplies det' by R^(4/3).
    """
    return math.exp(0.5 - 4.0 * ZETA_PRIME_MINUS1) * radius ** (4.0 / 3.0)


def sphere_zeta_prime_quarter(radius: float) -> float:
    """zeta'(0) of Laplacian + 1/(4 R^2) on the round sphere of radius R.

    The eigenvalues become (k + 1/2)^2 / R^2 with multiplicity 2(k + 1/2), so
    zeta(s) = 2 R^(2s) (2^(2s-1) - 1) zeta_R(2s - 1).  On the unit sphere this
    gives zeta'(0) = -(ln 2)/6 - 2 zeta_R'(-1); zeta(0) = 1/12 adds
    (1/12) ln R^2 for radius R.
    """
    unit = -math.log(2.0) / 6.0 - 2.0 * ZETA_PRIME_MINUS1
    return unit + math.log(radius * radius) / 12.0


def eta_imag(y: float) -> float:
    """Dedekind eta at tau = i y (y > 0), by its product formula."""
    if not y > 0.0:
        raise ValueError("eta_imag needs y > 0")
    q = math.exp(-2.0 * math.pi * y)
    log_prod = 0.0
    qn = q
    while qn > 1e-18:
        log_prod += math.log1p(-qn)
        qn *= q
    return math.exp(-math.pi * y / 12.0 + log_prod)


def torus_det_prime(l1: float, l2: float) -> float:
    """det'_zeta of the Laplacian on the L1 x L2 flat torus (Kronecker)."""
    return l2 * l2 * eta_imag(l2 / l1) ** 4


def _lattice_radii(l1: float, l2: float, r_max: float) -> np.ndarray:
    """Sorted lengths of the nonzero vectors (a L1, b L2) shorter than r_max."""
    na = int(r_max / l1) + 1
    nb = int(r_max / l2) + 1
    a = np.arange(-na, na + 1, dtype=float) * l1
    b = np.arange(-nb, nb + 1, dtype=float) * l2
    r = np.hypot(a[:, None], b[None, :]).ravel()
    return np.sort(r[(r > 0.0) & (r < r_max)])


def torus_zeta_prime(l1: float, l2: float, msq: float) -> float:
    """zeta'(0) of Laplacian + m^2 on the L1 x L2 torus (Chowla-Selberg).

    Poisson resummation of the heat trace gives
    zeta'(0) = (A/4 pi) m^2 (ln m^2 - 1) + (A m/pi) sum_{v != 0} K1(m|v|)/|v|
    over the lattice vectors v = (a L1, b L2).
    """
    if not msq > 0.0:
        raise ValueError("torus_zeta_prime needs msq > 0")
    m = math.sqrt(msq)
    area = l1 * l2
    r = _lattice_radii(l1, l2, _BESSEL_CUT / m)
    images = math.fsum((_k1(m * r) / r).tolist())
    return area / (4.0 * math.pi) * msq * (math.log(msq) - 1.0) + area * m / math.pi * images


def torus_cf(l1: float, l2: float, m0: float) -> float:
    """Diagonal Green's-function finite part on the torus, by images.

    C_f = (ln 2 - gamma_E)/(2 pi) + (1/2 pi) sum_{v != 0} K0(m0 |v|).
    """
    if not m0 > 0.0:
        raise ValueError("torus_cf needs m0 > 0")
    r = _lattice_radii(l1, l2, _BESSEL_CUT / m0)
    images = math.fsum(_k0(m0 * r).tolist())
    return (math.log(2.0) - EULER + images) / (2.0 * math.pi)


def residue(area: float) -> float:
    """Residue of tr C^{s+1} at s = 0: the Weyl coefficient A/(4 pi)."""
    return area / (4.0 * math.pi)
