"""Model closed surfaces with exact Laplacian spectra.

Two homogeneous geometries are supported, because they are the ones with
closed-form spectral data:

* round sphere of radius R:  eigenvalues k(k+1)/R^2 with multiplicity 2k+1,
  area 4 pi R^2, Euler characteristic 2;
* rectangular flat torus L1 x L2:  eigenvalues 4 pi^2 (p^2/L1^2 + q^2/L2^2)
  over integer pairs (p, q), area L1*L2, Euler characteristic 0.

Torus multiplicities are combinatorial facts (ties of the quadratic form on
the integer lattice), so lattice points are grouped into spectral lines by
exact integers, never by float eigenvalues.  The quadrant p, q >= 0 is
enumerated, each point weighted by its 1, 2 or 4 sign copies (+-p, +-q).
With the stored floats' squares taken as exact rationals, lambda(p, q) is
proportional to p^2 w1 + q^2 w2 for integers w1, w2; reduce them to a coprime
a : b.  Two points tie iff a (p1^2 - p2^2) = b (q2^2 - q1^2), so a divides
q2^2 - q1^2 and b divides p1^2 - p2^2.  If a <= qmax^2 and b <= pmax^2, the
int64 key p^2 a + q^2 b is exact and the points are grouped by it.  Otherwise
a > qmax^2 forces q1^2 = q2^2 (or b > pmax^2 forces p1^2 = p2^2), and then
the other squares agree too: only the sign ties exist, and every quadrant
point is a line of its own.  A line's eigenvalue is
4 pi^2 (p^2/L1^2 + q^2/L2^2) at one of its points.  Lines closer than that
float's rounding error are ordered by their exact integers and take the
correctly rounded eigenvalue, so the order never depends on rounding.

Under a cutoff lam_max lie the sphere's levels k(k+1)/R^2 <= lam_max and the
torus points whose float al p^2 + be q^2 is <= lam_max, point by point (a
cutoff on an eigenvalue may keep part of its line).  `eigen_arrays` groups
those points into lines, or returns them as they are for sums that need no
grouping (det2): one mode set at every cutoff.  Spectra are cached per exact
lam_max, in at most 2^20 entries (16 MB) over all keys.

A spectrum whose lines (sphere) or lattice points (torus) would exceed a
fixed budget is refused with a ValueError before anything is allocated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SurfaceModel",
    "make_surface",
    "parse_surface",
    "eigen_arrays",
    "first_positive_eigenvalue",
]

_TWO_PI = 2.0 * math.pi
_FOUR_PI_SQ = 4.0 * math.pi**2


@dataclass(frozen=True)
class SurfaceModel:
    """Geometry record for a model surface; all lengths in one global unit."""

    kind: str                  # "sphere" | "torus"
    radius: float | None = None
    l1: float | None = None
    l2: float | None = None
    area: float = 0.0
    euler_char: int = 0

    def label(self) -> str:
        if self.kind == "sphere":
            return f"sphere:R={self.radius:g}"
        return f"torus:L1={self.l1:g},L2={self.l2:g}"


def make_surface(kind: str, **params) -> SurfaceModel:
    """Build a surface record, validating strict positivity of parameters."""
    kind = kind.lower()
    if kind == "sphere":
        radius = params.pop("R", None)
        if params:
            raise ValueError(f"unexpected sphere parameters: {sorted(params)}")
        if radius is None:
            raise ValueError("sphere requires parameter R")
        radius = float(radius)
        if not (radius > 0.0) or not math.isfinite(radius):
            raise ValueError("R (radius) must be positive")
        return SurfaceModel(kind="sphere", radius=radius,
                            area=4.0 * math.pi * radius * radius, euler_char=2)
    if kind == "torus":
        l1, l2 = params.pop("L1", None), params.pop("L2", None)
        if params:
            raise ValueError(f"unexpected torus parameters: {sorted(params)}")
        if l1 is None or l2 is None:
            raise ValueError("torus requires parameters L1 and L2")
        l1, l2 = float(l1), float(l2)
        if not (l1 > 0.0) or not math.isfinite(l1):
            raise ValueError("L1 must be positive")
        if not (l2 > 0.0) or not math.isfinite(l2):
            raise ValueError("L2 must be positive")
        return SurfaceModel(kind="torus", l1=l1, l2=l2, area=l1 * l2, euler_char=0)
    raise ValueError(f"unknown surface kind: {kind!r}")


def parse_surface(spec: str) -> SurfaceModel:
    """Parse a CLI surface string: sphere:R=<float> or torus:L1=<f>,L2=<f>."""
    try:
        kind, _, rest = spec.partition(":")
        if not rest:
            raise ValueError("missing parameter list")
        params = {}
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if not val:
                raise ValueError(f"malformed parameter {item!r}")
            params[key.strip()] = float(val)
    except ValueError as exc:
        raise ValueError(f"malformed surface spec {spec!r}: {exc}") from None
    return make_surface(kind, **params)


# ----------------------------------------------------------------- spectrum

# (eigenvalues, weights) per (surface, lam_max, lines); cleared at the cap
_SPECTRUM_CACHE: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
_SPECTRUM_CAP = 1 << 20
# Lines (sphere) or lattice points (torus) one spectrum build may hold.  A
# torus build near it peaks at about 0.45 GB, and its int64 keys stay below
# 2 (pmax qmax)^2 < 2^47.
_MAX_SPECTRUM_POINTS = 30_000_000
# A torus line's al p^2 + be q^2 is within 1.5 ulps of 4 pi^2 (p^2/L1^2 +
# q^2/L2^2), so two lines whose floats differ by more than this are in order.
_CLOSE_LINES = 2e-15


def _spectrum_size(model: SurfaceModel, lam_max: float) -> tuple[float, float]:
    """Upper estimates of the spectral lines and of the modes (torus: lattice
    points) with eigenvalue <= lam_max, from the geometry alone."""
    root = math.sqrt(lam_max)
    if model.kind == "sphere":
        lines = model.radius * root + 1.0
        return lines, lines * lines
    # every line has a point in the quadrant p, q >= 0
    lines = (root * model.l1 / _TWO_PI + 1.0) * (root * model.l2 / _TWO_PI + 1.0)
    return lines, (root * model.l1 / math.pi + 3.0) * (root * model.l2 / math.pi + 3.0)


def _sphere_lines(radius: float, lam_max: float):
    # the float test k(k+1)/R^2 <= lam_max, which forces k < R sqrt(lam_max)
    k = np.arange(int(radius * math.sqrt(lam_max)) + 2)
    lams = (k * (k + 1)) / (radius * radius)
    return lams[lams <= lam_max], 2.0 * k[lams <= lam_max] + 1.0


def _torus_points(l1: float, l2: float, lam_max: float):
    """(p, q, lambda, sign copies) of the quadrant points p, q >= 0 whose
    float al p^2 + be q^2 is <= lam_max, row by row."""
    al = _FOUR_PI_SQ / (l1 * l1)
    be = _FOUR_PI_SQ / (l2 * l2)
    pmax = int(math.floor(math.sqrt(lam_max) * l1 / _TWO_PI)) + 1
    rows = np.arange(pmax + 1)
    lp = al * rows * rows
    rows, lp = rows[lp <= lam_max], lp[lp <= lam_max]
    # row p holds q = 0..qtop, the last q with lp + be q^2 <= lam_max in floats
    qtop = np.floor(np.sqrt((lam_max - lp) / be)).astype(np.int64)
    qtop += lp + be * (qtop + 1) * (qtop + 1) <= lam_max
    qtop -= lp + be * qtop * qtop > lam_max
    counts = qtop + 1
    p = np.repeat(rows, counts)
    q = np.arange(p.size) - np.repeat(np.cumsum(counts) - counts, counts)
    signs = (1.0 + (p > 0)) * (1.0 + (q > 0))
    return p, q, al * (p * p) + be * (q * q), signs


def _torus_lines(l1: float, l2: float, lam_max: float):
    # _torus_points grouped into lines and ordered (module docstring)
    p, q, lams, mults = _torus_points(l1, l2, lam_max)
    n1, d1 = (l1 * l1).as_integer_ratio()
    n2, d2 = (l2 * l2).as_integer_ratio()
    w1, w2 = n2 * d1, n1 * d2
    g = math.gcd(w1, w2)
    a, b = w1 // g, w2 // g
    if a <= int(q.max()) ** 2 and b <= int(p.max()) ** 2:
        # ties beyond the signs are possible: group by the exact key
        _, first, line = np.unique(p * p * a + q * q * b,
                                   return_index=True, return_inverse=True)
        p, q, lams, mults = p[first], q[first], lams[first], np.bincount(line, weights=mults)
    # otherwise only the sign ties exist, already counted: each point is a line
    order = np.argsort(lams)
    # lines within rounding distance of each other: exact order and value
    at = np.flatnonzero(np.diff(lams[order]) <= _CLOSE_LINES * lams[order][1:])
    at = np.union1d(at, at + 1)
    exact = {i: int(p[i]) ** 2 * w1 + int(q[i]) ** 2 * w2 for i in order[at].tolist()}
    order[at] = sorted(exact, key=exact.get)
    lams[order[at]] = [_FOUR_PI_SQ * (exact[i] / (n1 * n2)) for i in order[at].tolist()]
    return lams[order], mults[order]


def eigen_arrays(model: SurfaceModel, lam_max: float,
                 lines: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, multiplicities) of the lines under lam_max in increasing
    order or, with lines=False on the torus, of its quadrant points in row
    order, weighted by their sign copies; cached.  A spectrum over the size
    budget raises ValueError before anything is built."""
    if not lam_max >= 0:
        raise ValueError("lam_max must be >= 0")
    sphere = model.kind == "sphere"
    key = (model, lam_max, lines or sphere)
    spectrum = _SPECTRUM_CACHE.get(key)
    if spectrum is None:
        estimate = _spectrum_size(model, lam_max)[0 if sphere else 1]
        if estimate > _MAX_SPECTRUM_POINTS:
            unit = "spectral lines" if sphere else "lattice points"
            raise ValueError(
                f"lam_max={lam_max:g} needs up to {estimate:.2g} {unit} on "
                f"{model.label()}, over the budget of {_MAX_SPECTRUM_POINTS:.0e}")
        if sphere:
            spectrum = _sphere_lines(model.radius, lam_max)
        elif lines:
            spectrum = _torus_lines(model.l1, model.l2, lam_max)
        else:
            spectrum = _torus_points(model.l1, model.l2, lam_max)[2:]
        size = spectrum[0].size
        if size <= _SPECTRUM_CAP:
            if sum(lams.size for lams, _ in _SPECTRUM_CACHE.values()) + size > _SPECTRUM_CAP:
                _SPECTRUM_CACHE.clear()
            _SPECTRUM_CACHE[key] = spectrum
    return spectrum


def first_positive_eigenvalue(model: SurfaceModel) -> float:
    if model.kind == "sphere":
        return 2.0 / (model.radius * model.radius)
    return _FOUR_PI_SQ / max(model.l1, model.l2) ** 2

