import math
import sys
import tracemalloc

import numpy as np
import pytest

from zetasurf import (FieldSample, cf_mean, det2, eigen_arrays, make_surface,
                      measure_estimates, reweighted_mode_variance, sample_fields,
                      verify_measure_identity, wick_mass_term)
from zetasurf.gff import _chunk_rng, _measure_chunk_stats

SPHERE = make_surface("sphere", R=1)


def _collect(model, msq, lam_max, seed, n, **kw):
    return list(sample_fields(model, msq, lam_max, seed, n, **kw))


def test_sampling_is_deterministic():
    a = _collect(SPHERE, 1.0, 6.0, seed=7, n=5)
    b = _collect(SPHERE, 1.0, 6.0, seed=7, n=5)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.coeffs, sb.coeffs)
    c = _collect(SPHERE, 1.0, 6.0, seed=8, n=5)
    assert not np.array_equal(a[0].coeffs, c[0].coeffs)


def test_sampling_chunk_streams():
    # chunk boundaries change which (seed, chunk) stream a row comes from,
    # but the first chunk's rows are shared
    a = _collect(SPHERE, 1.0, 6.0, seed=3, n=6, chunk_size=3)
    b = _collect(SPHERE, 1.0, 6.0, seed=3, n=3, chunk_size=3)
    for sa, sb in zip(a[:3], b):
        assert np.array_equal(sa.coeffs, sb.coeffs)
    assert a[0].stream_index == 0 and a[5].stream_index == 1


def test_mode_count_and_variances():
    # Lambda = 6 on the unit sphere: lines k = 0, 1, 2 -> 1 + 3 + 5 modes
    samples = _collect(SPHERE, 1.0, 6.0, seed=11, n=100000, chunk_size=50000)
    mat = np.stack([s.coeffs for s in samples])
    assert mat.shape[1] == 9
    lambdas = samples[0].lambdas
    var = mat.var(axis=0)
    for j in range(mat.shape[1]):
        target = 1.0 / (1.0 + lambdas[j])
        stderr = math.sqrt(2.0 / mat.shape[0]) * target
        assert abs(var[j] - target) < 4.0 * stderr


def test_sampling_rejects_massless():
    with pytest.raises(ValueError):
        _collect(SPHERE, 0.0, 6.0, seed=1, n=1)


def test_wick_zero_field_single_mode():
    sample = FieldSample(coeffs=np.zeros(1), lambdas=np.zeros(1), msq=1.0,
                         model=SPHERE, seed=0, stream_index=0)
    assert wick_mass_term(sample, 1.0) == pytest.approx(-1.0, abs=1e-15)


def test_wick_mean_vanishes_under_own_measure():
    samples = _collect(SPHERE, 1.0, 20.0, seed=5, n=20000)
    vals = np.array([wick_mass_term(s, 1.0) for s in samples])
    stderr = vals.std() / math.sqrt(len(vals))
    assert abs(vals.mean()) < 4.0 * stderr


def test_wick_orderings_differ_by_area_times_cf():
    sample = _collect(SPHERE, 1.0, 6.0, seed=2, n=1)[0]
    w_c = wick_mass_term(sample, 1.0, ordering="C")
    w_c0 = wick_mass_term(sample, 1.0, ordering="C0")
    shift = SPHERE.area * cf_mean(SPHERE, 1.0).cf_mean
    assert w_c0 - w_c == pytest.approx(shift, rel=1e-12)
    with pytest.raises(ValueError):
        wick_mass_term(sample, 1.0, ordering="X")


def test_measure_identity_trivial_shift():
    est = verify_measure_identity(SPHERE, 1.0, 0.0, 6.0, n=1000, seed=1)
    assert est.mean == 1.0 and est.target == 1.0 and est.z_score == 0.0


def test_measure_identity_statistics():
    est = verify_measure_identity(SPHERE, 1.0, 1.0, 42.0, n=200000, seed=1)
    assert abs(est.z_score) < 3.0
    assert est.stderr > 0.0 and est.n_samples == 200000


def test_measure_identity_target_matches_det2_truncation():
    est = verify_measure_identity(SPHERE, 1.0, 1.0, 42.0, n=100, seed=1)
    d2 = det2(SPHERE, 1.0, 1.0, lam_max=42.0)
    assert est.target == math.exp(-0.5 * d2.truncated_log)
    # against the product over the multiplicity-expanded modes, summed apart
    lams, mults = eigen_arrays(SPHERE, 42.0)
    xs = 1.0 / (1.0 + np.repeat(lams, mults.astype(int)))
    log_product = math.fsum((np.log1p(xs) - xs).tolist())
    assert abs(est.target / math.exp(-0.5 * log_product) - 1.0) < 1e-12


def test_measure_identity_worker_invariance():
    a = verify_measure_identity(SPHERE, 1.0, 1.0, 42.0, n=50000, seed=9, threads=1)
    b = verify_measure_identity(SPHERE, 1.0, 1.0, 42.0, n=50000, seed=9, threads=4)
    assert a.mean == b.mean and a.stderr == b.stderr


def test_reweighted_mode_variance():
    est = reweighted_mode_variance(SPHERE, 1.0, 1.0, 42.0, n=200000, seed=1, mode=0)
    assert est.target == pytest.approx(0.5, rel=1e-15)
    assert abs(est.z_score) < 4.0


def test_measure_estimates_match_separate_calls():
    est, rw = measure_estimates(SPHERE, 1.0, 1.0, 42.0, n=30000, seed=4, mode=2, threads=2)
    assert est == verify_measure_identity(SPHERE, 1.0, 1.0, 42.0, n=30000, seed=4)
    assert rw == reweighted_mode_variance(SPHERE, 1.0, 1.0, 42.0, n=30000, seed=4, mode=2)


TORUS_1X2 = make_surface("torus", L1=1, L2=2)


@pytest.mark.parametrize("model,m0,m1,mode", [
    (SPHERE, 1.0, 1.0, 2),                          # mode in the mult-3 line
    (SPHERE, 0.5, 2.0, 0),
    (TORUS_1X2, 1.0, 1.0, 0),
    (TORUS_1X2, 1.0, 1.0, 3),                       # mode in the mult-4 line
    (make_surface("sphere", R=0.5), 1.0, 1.0, 5),   # mode in the mult-5 line
])
def test_line_level_sampler_statistics(model, m0, m1, mode):
    est, rw = measure_estimates(model, m0, m1, 42.0, n=200000, seed=1, mode=mode)
    lams, mults = eigen_arrays(model, 42.0)
    lambdas = np.repeat(lams, mults.astype(int))
    assert rw.target == 1.0 / (m0 * m0 + m1 * m1 + lambdas[mode])
    assert abs(est.z_score) < 3.0
    assert abs(rw.z_score) < 4.0


def _reference_chunk_stats(m0sq, m1sq, lams, mults, seed, idx, size, line):
    """The documented stream, rebuilt: a fresh (seed, chunk) generator, one
    chi^2_mult = 2 Gamma(mult/2) draw per line in line order, then the
    measured mode's Beta share of its line."""
    rng = _chunk_rng(seed, idx)
    var = 1.0 / (m0sq + lams)
    gammas = [rng.standard_gamma(0.5 * m, size=size) for m in mults]
    share = rng.beta(0.5, 0.5 * (mults[line] - 1.0), size=size) if mults[line] > 1 else 1.0
    total = np.zeros(size)
    for g, v in zip(gammas, var):
        total = total + g * (2.0 * v)
    logw = (total - np.sum(mults * var)) * (-0.5 * m1sq)
    shift = float(np.max(logw))
    e = np.exp(logw - shift)
    a = gammas[line] * (2.0 * var[line]) * share * e
    return {"shift": shift, "s_w": float(np.sum(e)), "s_w2": float(np.sum(e * e)),
            "s_a": float(np.sum(a)), "s_a2": float(np.sum(a * a)),
            "s_ab": float(np.sum(a * e))}


@pytest.mark.parametrize("line", [0, 3])   # the mult-1 line and the mult-7 line
def test_chunk_stats_follow_the_documented_stream(line):
    lams, mults = eigen_arrays(SPHERE, 42.0)
    args = (1.0, 1.0, lams, mults, 11, 3, 5000, line)
    assert _measure_chunk_stats(*args) == _reference_chunk_stats(*args)


def test_measured_mode_has_chi2_1_moments_in_degenerate_line():
    # m1 = 0 makes every weight 1, so s_a and s_a2 sum phi^2 and phi^4 of
    # mode 9, the first of the mult-7 line: phi^2/var must be chi^2_1, with
    # mean 1 (variance 2) and E[chi^4] = 3 (variance 105 - 9 = 96)
    lams, mults = eigen_arrays(SPHERE, 42.0)
    n, var = 200000, 1.0 / (1.0 + lams[3])
    st = _measure_chunk_stats(1.0, 0.0, lams, mults, 1, 0, n, 3)
    assert abs(st["s_a"] / n / var - 1.0) < 4.0 * math.sqrt(2.0 / n)
    assert abs(st["s_a2"] / n / var ** 2 - 3.0) < 4.0 * math.sqrt(96.0 / n)


def test_reweighted_mode_variance_worker_invariance_in_degenerate_line():
    runs = [measure_estimates(SPHERE, 1.0, 1.0, 42.0, n=50000, seed=9, mode=7,
                              chunk_size=8192, threads=t) for t in (1, 2, 4)]
    assert runs[0] == runs[1] == runs[2]


def test_mode_range_checked_at_both_ends():
    # lambda <= 42 on the unit sphere holds lines k = 0..6, 49 modes
    for bad in (-1, 49):
        with pytest.raises(ValueError, match="mode"):
            reweighted_mode_variance(SPHERE, 1.0, 1.0, 42.0, n=100, seed=1, mode=bad)
        with pytest.raises(ValueError, match="mode"):
            measure_estimates(SPHERE, 1.0, 1.0, 42.0, n=100, seed=1, mode=bad)
    for ok in (0, 48):
        assert measure_estimates(SPHERE, 1.0, 1.0, 42.0, n=100, seed=1, mode=ok)[1].stderr > 0


def test_oversized_chunk_draw_refused_before_allocating():
    # the modes fit the budget in both calls, but one chunk's draw does not:
    # 65536 chi^2 rows over 5001 lines, and 1000 normal rows over 2.5e5 modes
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="draws per chunk"):
            verify_measure_identity(SPHERE, 1.0, 1.0, 2.5e7, n=100000, seed=1)
        with pytest.raises(ValueError, match="draws per chunk"):
            next(sample_fields(SPHERE, 1.0, 2.5e5, seed=1, n=1000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("model", [SPHERE, TORUS_1X2])
def test_identity_z_is_standard_over_seeds(model):
    z = np.array([verify_measure_identity(model, 1.0, 1.0, 42.0, n=20000, seed=s).z_score
                  for s in range(1, 51)])
    assert abs(z.mean()) <= 0.45
    assert 0.7 <= z.std(ddof=1) <= 1.3


@pytest.mark.parametrize("m1", [18.0, 20.0, 22.0, 25.0])
def test_overflowing_weights_give_finite_z(m1):
    # e^{2 shift}, the second moment's scale, exceeds float range from m1 = 18 on,
    # the target from m1 = 20 and e^shift from m1 = 22
    est, rw = measure_estimates(SPHERE, 1.0, m1, 42.0, n=20000, seed=1, threads=1)
    assert math.isfinite(est.z_score) and est.z_score < -3.0
    log_target = -0.5 * det2(SPHERE, 1.0, m1 * m1, lam_max=42.0).truncated_log
    if log_target < math.log(sys.float_info.max):
        assert est.target == math.exp(log_target)
    else:
        assert est.target == math.inf
    assert 0.0 < est.stderr <= est.mean <= est.target
    assert math.isfinite(rw.z_score)


def test_line_level_bookkeeping_stays_small():
    # 632 lines and 4e5 modes: nothing of the size of the modes is allocated
    tracemalloc.start()
    try:
        measure_estimates(SPHERE, 1.0, 1.0, 4e5, n=50, seed=1, threads=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
