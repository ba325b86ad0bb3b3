import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from zetasurf import det2, eigen_arrays, make_surface, measure_estimates, parse_surface
from zetasurf import surfaces
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


@pytest.mark.parametrize("kind, params", [
    ("recttorus", {"L1": 1, "L2": 1}), ("rect_torus", {"L1": 1, "L2": 1}),
    ("sphere", {"radius": 1}), ("torus", {"l1": 1, "l2": 1}),
])
def test_only_the_documented_spellings_are_accepted(kind, params):
    with pytest.raises(ValueError):
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


# ------------------------------------------------- one mode set per cutoff

def _lattice_log_det2(l1, l2, m0sq, m1sq, lam_max):
    # every lattice point (both signs) under the float test of the reference
    # above, one exactly rounded sum of log1p(x) - x; also sum x and the count
    pmax = int(math.floor(math.sqrt(lam_max) * l1 / (2 * PI))) + 1
    qmax = int(math.floor(math.sqrt(lam_max) * l2 / (2 * PI))) + 1
    al, be = 4 * PI**2 / (l1 * l1), 4 * PI**2 / (l2 * l2)
    xs = []
    for p in range(-pmax, pmax + 1):
        for q in range(-qmax, qmax + 1):
            lam = al * p * p + be * q * q
            if lam <= lam_max:
                xs.append(m1sq / (m0sq + lam))
    return math.fsum(math.log1p(x) - x for x in xs), math.fsum(xs), len(xs)


def _on_eigenvalue_cutoffs(l1, l2):
    # float eigenvalues of tied and untied lattice points, and powers of two
    al, be = 4 * PI**2 / (l1 * l1), 4 * PI**2 / (l2 * l2)
    points = [(5, 0), (0, 5), (3, 4), (4, 3), (2, 7), (6, 1)]
    return [al * p * p + be * q * q for p, q in points] + [2.0 ** 10, 2.0 ** 12]


_TORI = [(1.0, 1.0), (0.6, 0.8), (3.0, 0.5),      # ties beyond the signs
         (2.1, 1.37), (1.7, 0.3)]                 # generic


@pytest.mark.parametrize("l1,l2", _TORI)
def test_det2_truncated_log_matches_full_lattice_sum(l1, l2):
    model = make_surface("torus", L1=l1, L2=l2)
    eps = np.finfo(float).eps
    for lam_max in _on_eigenvalue_cutoffs(l1, l2):
        ref, sum_x, count = _lattice_log_det2(l1, l2, 0.7, 1.3, lam_max)
        res = det2(model, 0.7, 1.3, lam_max=lam_max)
        # the rounding of both sums: pairwise over one-signed terms, and an
        # ulp of each x in its log1p(x) - x
        rounding = (math.log2(count) + 20.0) * eps * abs(ref) + 2.0 * eps * sum_x
        assert abs(res.truncated_log - ref) <= rounding, lam_max
        assert eigen_arrays(model, lam_max, lines=False)[1].sum() == count


@pytest.mark.parametrize("l1,l2", _TORI)
def test_det2_and_eigen_arrays_cover_one_mode_set(l1, l2):
    # at every line eigenvalue below 600, and an ulp either side of it, the
    # weights of det2's modes and the multiplicities of the lines count the
    # same lattice points, and det2's sum is the line sum
    model = make_surface("torus", L1=l1, L2=l2)
    cutoffs = []
    for lam in eigen_arrays(model, 600.0)[0].tolist():
        cutoffs += [lam, np.nextafter(lam, 0.0), np.nextafter(lam, np.inf)]
    for lam_max in cutoffs:
        lams, mults = eigen_arrays(model, lam_max)
        _, weights = eigen_arrays(model, lam_max, lines=False)
        assert mults.sum() == weights.sum(), lam_max
        x = 1.0 / (0.5 + lams)
        line_sum = math.fsum((mults * (np.log1p(x) - x)).tolist())
        assert det2(model, 0.5, 1.0, lam_max=lam_max).truncated_log == pytest.approx(
            line_sum, rel=1e-14, abs=1e-300)


def test_gff_target_at_an_on_eigenvalue_cutoff_is_the_line_sum():
    # at 4 pi^2 25 on the unit torus the float test keeps (+-3, +-4) and
    # (+-4, +-3) but not (+-5, 0) and (0, +-5): target and draw both see the
    # same 77 modes
    model = make_surface("torus", L1=1, L2=1)
    lam_max = 986.9604401089358
    lams, mults = eigen_arrays(model, lam_max)
    assert mults.sum() == 77 == eigen_arrays(model, lam_max, lines=False)[1].sum()
    est = measure_estimates(model, 1.0, 1.0, lam_max, n=100, seed=1, threads=1)[0]
    x = 1.0 / (1.0 + lams)
    line_sum = math.fsum((mults * (np.log1p(x) - x)).tolist())
    assert est.target == pytest.approx(math.exp(-0.5 * line_sum), rel=1e-14)


def test_det2_oversized_cutoff_refused_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="lam_max"):
            det2(make_surface("torus", L1=1, L2=1), 1.0, 1.0, lam_max=1e30)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _held():
    return sum(lams.size for lams, _ in surfaces._SPECTRUM_CACHE.values())


def test_spectrum_cache_stays_bounded_over_new_tori():
    # det2 at its default cutoff on 3 x 3 tori holds ~27,000 points each, so
    # 60 new tori build more than the cap; the cache is cleared, never over it
    surfaces._SPECTRUM_CACHE.clear()
    built = 0
    for k in range(60):
        model = make_surface("torus", L1=3.0 + 1e-3 * k, L2=3.0)
        built += eigen_arrays(model, 2e5, lines=False)[0].size
        assert 0 < _held() <= surfaces._SPECTRUM_CAP
    assert built > surfaces._SPECTRUM_CAP


def test_spectrum_over_the_cap_is_returned_but_not_kept(monkeypatch):
    monkeypatch.setattr(surfaces, "_SPECTRUM_CAP", 100)
    surfaces._SPECTRUM_CACHE.clear()
    model = make_surface("torus", L1=1, L2=1)
    small, big = eigen_arrays(model, 500.0), eigen_arrays(model, 20000.0)
    assert small[0].size <= 100 < big[0].size
    assert _held() == small[0].size
    assert np.array_equal(eigen_arrays(model, 20000.0)[1], big[1])
