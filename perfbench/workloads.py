"""Workload inputs, generated from the benchmark seed.

A workload is a list of operations.  An operation is a surface (a
make_surface kind and its parameters) and the public zetasurf calls made on
it, each a function name and its arguments after the surface.  The lists are
plain data: they are built here from the seed, and the worker process turns
them into calls.
"""
from __future__ import annotations

import math
import random

WORKLOADS = ("verify-all", "mass-sweep", "surface-sweep")

# verify-all: the headline report with its default grid, seed and 10^6 samples.
# The GFF part is a z-test that fails on a small share of seeds by design, so
# the benchmark seed is not passed on: every run makes the same report.
VERIFY_ALL_ARGV = ("verify-all", "--threads", "2")
VERIFY_ALL_THREADS1_ARGV = ("verify-all", "--threads", "1")

MASS_SWEEP_SURFACES = (
    ("sphere", {"R": 1.0}),
    ("torus", {"L1": 1.0, "L2": 1.0}),
    ("torus", {"L1": 1.0, "L2": 2.0}),
    ("torus", {"L1": 1.5, "L2": 0.7}),
)
# m0^2 = 0.5, 1, 1.5, 2 and m1^2 = 0.5, 1, 1.5, 2 lie on one lattice, so most
# m0^2 + m1^2 land on masses already used: the repeats a (surface, m^2) cache
# would remove.  The grid is fixed and the seed orders the calls: the cost of
# zeta_det on the sphere jumps twentyfold between nearby masses (its
# quadrature runs to the split limit or not), so drawn masses would move
# wall_s more from seed to seed than a code change should.
MASS_GRID = (0.5, 1.0, 1.5, 2.0)
# The unit sphere also gets m0^2 = 1/4, where its zeta'(0) has a closed form:
# a mass-independent error in zeta_det cancels out of the anomaly identity, so
# the grid alone would check the sphere's determinants only by their pass flag.
# m0^2 + m1^2 = 1/2 lands on the grid.
SPHERE_QUARTER_MASS = (0.25, 0.25)
MASSLESS_SIGMA = 1.0

# surface-sweep: spheres on a fixed ladder of radii and masses, for the same
# reason; tori near fixed quantiles that the seed jitters.  Spheres keep
# (m0^2 + m1^2) R^2 <= 6 and m0^2 + m1^2 <= 6, where zeta_det stays inside
# its own tolerance.
SPHERES = 8
TORI = 16
SPHERE_MAX_SCALED_MSQ = 6.0
SPHERE_MAX_MSQ = 6.0
# Corners present on every seed, and run first, so that the extremes do not
# depend on the draw.  The sphere has the largest det2 tail of all spheres in
# range, so it sets err_budget_max.  The 0.5 x 0.5 torus has the smallest
# m0^2 * area, which sets the size of the K0 image sum; drawn tori keep
# m0^2 * area >= 16 times that, so it sets peak_rss_mb.  The 3 x 0.5 torus has
# the largest aspect ratio in range.
ANCHORS = (
    (("sphere", {"R": 1.0}), 0.25, 5.75),
    (("torus", {"L1": 0.5, "L2": 0.5}), 0.25, 1.0),
    (("torus", {"L1": 3.0, "L2": 0.5}), 1.0, 2.0),
)
MIN_TORUS_M0SQ_AREA = 1.0
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _op(surface, *calls):
    return {"surface": surface, "calls": [[name, list(args)] for name, *args in calls]}


def _log_lerp(lo: float, hi: float, u: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def mass_sweep(seed: int) -> list[dict]:
    """verify_anomaly on the (m0^2, m1^2) grid (and at m0^2 = 1/4 on the
    sphere), laurent_fit at every m0^2 and verify_massless once, on each of
    four fixed surfaces, in a seeded order (each surface's calls stay
    together)."""
    rng = random.Random(f"mass-sweep:{seed}")
    ops = []
    for surface in rng.sample(MASS_SWEEP_SURFACES, len(MASS_SWEEP_SURFACES)):
        calls = [("verify_anomaly", a, b) for a in MASS_GRID for b in MASS_GRID]
        if surface[0] == "sphere":
            calls.append(("verify_anomaly",) + SPHERE_QUARTER_MASS)
        calls += [("laurent_fit", a) for a in MASS_GRID]
        calls.append(("verify_massless", MASSLESS_SIGMA))
        rng.shuffle(calls)
        ops += [_op(surface, call) for call in calls]
    return ops


def _spheres() -> list[tuple]:
    out = []
    for k in range(SPHERES):
        radius = _log_lerp(0.5, 2.0, (k + 0.5) / SPHERES)
        rsq = radius * radius
        x_max = min(SPHERE_MAX_SCALED_MSQ, SPHERE_MAX_MSQ * rsq)
        scaled = 0.5 + ((k + 0.5) * _GOLDEN % 1.0) * (x_max - 0.5)
        # m0^2 = 1/(4 R^2): the base determinant has a closed form
        m0sq = 0.25 / rsq
        out.append((("sphere", {"R": radius}), m0sq, scaled / rsq - m0sq))
    return out


def _quantile(k: int, step: float, jitter: float) -> float:
    """Quantile of torus k on a Kronecker sequence, moved by the seed's
    jitter (in [-1/2, 1/2)) by up to a tenth of a stratum."""
    return min(1.0, max(0.0, (k + 0.5) * step % 1.0 + 0.2 * jitter / TORI))


def _tori(rng: random.Random) -> list[tuple]:
    """Area, aspect ratio and masses near fixed quantiles, because the
    spectrum build and the theta sums cost in proportion to the area and the
    aspect ratio; the seed moves each by up to a tenth of a stratum and picks
    the orientation."""
    out = []
    for k in range(TORI):
        q_area, q_aspect, q0, q1 = (_quantile(k, step, rng.random() - 0.5)
                                    for step in (1.0 / TORI, _GOLDEN, math.sqrt(2.0), math.sqrt(3.0)))
        area = _log_lerp(0.25, 9.0, q_area)
        # both sides in [0.5, 3]
        aspect = _log_lerp(1.0, min(4.0 * area, 9.0 / area), q_aspect)
        long_side, short_side = math.sqrt(area * aspect), math.sqrt(area / aspect)
        sides = (long_side, short_side) if rng.random() < 0.5 else (short_side, long_side)
        m0sq = _log_lerp(max(0.25, MIN_TORUS_M0SQ_AREA / area), 4.0, q0)
        m1sq = _log_lerp(0.25, 4.0, q1)
        out.append((("torus", {"L1": sides[0], "L2": sides[1]}), m0sq, m1sq))
    return out


def surface_sweep(seed: int) -> list[dict]:
    """One operation per surface: verify_anomaly, and on tori also cf_mean
    and the K0 image sum at the same m0^2 (the two C_f routes)."""
    rng = random.Random(f"surface-sweep:{seed}")
    drawn = _spheres() + _tori(rng)
    rng.shuffle(drawn)
    ops = []
    for surface, m0sq, m1sq in list(ANCHORS) + drawn:
        calls = [("verify_anomaly", m0sq, m1sq)]
        if surface[0] == "torus":
            params = surface[1]
            calls += [("cf_mean", m0sq),
                      ("torus_cf_image_sum", params["L1"], params["L2"], math.sqrt(m0sq))]
        ops.append(_op(surface, *calls))
    return ops


def library_ops(workload: str, seed: int) -> list[dict]:
    if workload == "mass-sweep":
        return mass_sweep(seed)
    if workload == "surface-sweep":
        return surface_sweep(seed)
    raise ValueError(f"{workload!r} is not a library workload")
