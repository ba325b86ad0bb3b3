import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from zetasurf import eigen_arrays, make_surface, parse_surface
from zetasurf.surfaces import _torus_lines

PI = math.pi


def test_sphere_geometry():
    s = make_surface("sphere", R=2)
    assert s.area == pytest.approx(16 * PI, rel=1e-15)
    assert s.euler_char == 2


def test_torus_geometry():
    t = make_surface("torus", L1=1, L2=2)
    assert t.area == pytest.approx(2.0, rel=1e-15)
    assert t.euler_char == 0


@pytest.mark.parametrize("kind,params,name", [
    ("sphere", {"R": 0}, "R"),
    ("sphere", {"R": -1}, "R"),
    ("torus", {"L1": 0, "L2": 1}, "L1"),
    ("torus", {"L1": 1, "L2": -2}, "L2"),
])
def test_nonpositive_parameters_rejected(kind, params, name):
    with pytest.raises(ValueError, match=name):
        make_surface(kind, **params)


def test_parse_surface_roundtrip():
    s = parse_surface("sphere:R=2.5")
    assert s.kind == "sphere" and s.radius == 2.5
    t = parse_surface("torus:L1=1,L2=2")
    assert (t.l1, t.l2) == (1.0, 2.0)
    with pytest.raises(ValueError):
        parse_surface("klein:L=1")
    with pytest.raises(ValueError):
        parse_surface("sphere")


def test_sphere_spectrum_small():
    lams, mults = eigen_arrays(make_surface("sphere", R=1), 6.0)
    assert list(zip(lams.tolist(), mults.tolist())) == [(0.0, 1), (2.0, 3), (6.0, 5)]


def test_torus_spectrum_small():
    lams, mults = eigen_arrays(make_surface("torus", L1=1, L2=1), 4 * PI**2 + 1e-9)
    assert len(lams) == 2
    assert lams[0] == 0.0 and mults[0] == 1
    assert lams[1] == pytest.approx(4 * PI**2, rel=1e-14)
    assert mults[1] == 4  # (+-1, 0), (0, +-1)


def test_torus_multiplicities_exact_grouping():
    # on the square torus multiplicities are r2(n): lambda = 4 pi^2 (p^2+q^2)
    lams, mults = eigen_arrays(make_surface("torus", L1=1, L2=1), 4 * PI**2 * 25.5)
    mult = {round(l / (4 * PI**2)): m for l, m in zip(lams.tolist(), mults.tolist())}
    assert mult[1] == 4 and mult[2] == 4 and mult[4] == 4
    assert mult[5] == 8 and mult[25] == 12  # 25 = 25+0 = 16+9 (with signs)


def test_first_line_always_present():
    for m in (make_surface("sphere", R=3), make_surface("torus", L1=0.7, L2=1.9)):
        lams, mults = eigen_arrays(m, 1.0)
        assert (lams[0], mults[0]) == (0.0, 1)


def test_weyl_law():
    for m in (make_surface("sphere", R=1), make_surface("torus", L1=1, L2=2)):
        lam_max = 4.0e4 * 4 * PI / m.area  # ensures N >= 1e4
        _, mults = eigen_arrays(m, lam_max)
        count = mults.sum()
        assert count >= 1e4
        ratio = count / (m.area * lam_max / (4 * PI))
        assert abs(ratio - 1.0) < 0.05


def test_spectrum_monotone_and_multiplicities():
    lams, mults = eigen_arrays(make_surface("torus", L1=1.3, L2=0.7), 500.0)
    eigs = lams.tolist()
    assert eigs == sorted(eigs)
    assert len(set(eigs)) == len(eigs)
    assert all(m >= 1 for m in mults)


def test_scaling_covariance_exact():
    base = eigen_arrays(make_surface("sphere", R=1), 50 * 51 + 1)
    scaled = eigen_arrays(make_surface("sphere", R=2), (50 * 51 + 1) / 4)
    assert len(base[0]) >= 50 and len(scaled[0]) >= 50
    for lb, ls in zip(base[0][:50], scaled[0][:50]):
        assert ls == lb / 4  # exact in floats
    assert np.array_equal(base[1][:50], scaled[1][:50])


def _torus_lines_reference(l1, l2, lam_max):
    # lattice points grouped by exact rationals in a dict: lambda(p, q) =
    # 4 pi^2 (p^2 L2^2 + q^2 L1^2) / (L1 L2)^2 with L1^2, L2^2 the exact
    # rationals of the stored floats
    n1, d1 = Fraction(l1 * l1).as_integer_ratio()
    n2, d2 = Fraction(l2 * l2).as_integer_ratio()
    w1, w2, nn = n2 * d1, n1 * d2, n1 * n2
    pmax = int(math.floor(math.sqrt(lam_max) * l1 / (2 * PI))) + 1
    al, be = 4 * PI**2 / (l1 * l1), 4 * PI**2 / (l2 * l2)
    counts = {}
    for p in range(-pmax, pmax + 1):
        lp = al * p * p
        if lp > lam_max:
            continue
        qlim = int(math.floor(math.sqrt(max(0.0, (lam_max - lp) / be)))) + 1
        for q in range(-qlim, qlim + 1):
            if lp + be * q * q > lam_max:
                continue
            key = p * p * w1 + q * q * w2
            counts[key] = counts.get(key, 0) + 1
    keys = sorted(counts)
    lams = np.array([4 * PI**2 * (k / nn) for k in keys])
    return lams, np.array([counts[k] for k in keys], dtype=float)


@pytest.mark.parametrize("l1,l2", [
    (1.0, 1.0), (1.0, 2.0), (0.6, 0.8), (2 ** -0.5, 2 ** 0.5),   # many ties
    (2.1, 1.37), (3.0, 0.5), (1.7, 0.3),                          # generic
    (1.5, 0.7),               # distinct lines that round to one float
])
def test_torus_lines_match_exact_reference(l1, l2):
    lam_max = 2.0 ** 17
    ref_lams, ref_mults = _torus_lines_reference(l1, l2, lam_max)
    lams, mults = _torus_lines(l1, l2, lam_max)
    assert np.array_equal(mults, ref_mults)
    assert np.all(np.abs(lams - ref_lams) <= 4e-16 * ref_lams)
    assert np.all(np.diff(lams) >= 0.0)
    # sum of multiplicities = lattice points inside the ellipse
    p = np.arange(-200, 201)[:, None]
    q = np.arange(-200, 201)[None, :]
    inside = (4 * PI**2 / (l1 * l1)) * p * p + (4 * PI**2 / (l2 * l2)) * q * q <= lam_max
    assert mults.sum() == np.count_nonzero(inside)


@pytest.mark.parametrize("model", [make_surface("sphere", R=1),
                                   make_surface("torus", L1=1, L2=1)])
def test_oversized_spectrum_refused_before_allocating(model):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="lam_max"):
            eigen_arrays(model, 1e30)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
