import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from zetasurf import det2, eigen_arrays, make_surface, measure_estimates
from zetasurf import gff
from zetasurf.gff import _chunk_rng, _measure_chunk_stats

SPHERE = make_surface("sphere", R=1)


def test_measure_identity_trivial_shift():
    est = measure_estimates(SPHERE, 1.0, 0.0, 6.0, n=1000, seed=1)[0]
    assert est.mean == 1.0 and est.target == 1.0 and est.z_score == 0.0


def test_measure_identity_statistics():
    est = measure_estimates(SPHERE, 1.0, 1.0, 42.0, n=200000, seed=1)[0]
    assert abs(est.z_score) < 3.0
    assert est.stderr > 0.0 and est.n_samples == 200000


def test_measure_identity_target_matches_det2_truncation():
    est = measure_estimates(SPHERE, 1.0, 1.0, 42.0, n=100, seed=1)[0]
    d2 = det2(SPHERE, 1.0, 1.0, lam_max=42.0)
    assert est.target == math.exp(-0.5 * d2.truncated_log)
    # against the product over the multiplicity-expanded modes, summed apart
    lams, mults = eigen_arrays(SPHERE, 42.0)
    xs = 1.0 / (1.0 + np.repeat(lams, mults.astype(int)))
    log_product = math.fsum((np.log1p(xs) - xs).tolist())
    assert abs(est.target / math.exp(-0.5 * log_product) - 1.0) < 1e-12


def test_measure_identity_worker_invariance():
    a = measure_estimates(SPHERE, 1.0, 1.0, 42.0, n=50000, seed=9, threads=1)[0]
    b = measure_estimates(SPHERE, 1.0, 1.0, 42.0, n=50000, seed=9, threads=4)[0]
    assert a.mean == b.mean and a.stderr == b.stderr


def test_reweighted_mode_variance():
    est = measure_estimates(SPHERE, 1.0, 1.0, 42.0, n=200000, seed=1, mode=0)[1]
    assert est.target == pytest.approx(0.5, rel=1e-15)
    assert abs(est.z_score) < 4.0


def test_measure_estimates_match_separate_calls():
    # the identity estimate depends on the measured mode only through its
    # line: the line is drawn on its own after the other lines' bands, and the
    # Beta shares after it, so calls measuring modes 2 and 1 (both in the
    # mult-3 line) read the same draws
    est = measure_estimates(SPHERE, 1.0, 1.0, 42.0, n=30000, seed=4, mode=2, threads=2)[0]
    assert est == measure_estimates(SPHERE, 1.0, 1.0, 42.0, n=30000, seed=4, mode=1)[0]


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


def _draw(model, m0sq, m1sq, lam_max, line, rows):
    lams, mults = eigen_arrays(model, lam_max)
    return gff._Draw(m0sq, m1sq, lams, mults, line, rows)


def _reference_terms(draw, rng, size):
    """The band draws of the documented stream, in band order, the measured
    line last: Z^2 on a lone mult-1 line, 2 Gamma(mult/2) on any other lone
    line, else a uniform read through the band's alias table and then
    2 Gamma(K/2 + N); each scaled by the band's least variance."""
    terms = []
    for beta, half, prob, other in draw.bands:
        if prob is not None:
            uj = rng.random(size) * prob.size
            k = np.floor(uj).astype(int)
            n = np.where(uj - k < prob[k], k, other[k] - half)
            terms.append(rng.standard_gamma(half + n) * (2.0 * beta))
        elif half > 0.5:
            terms.append(rng.standard_gamma(half, size=size) * (2.0 * beta))
        else:
            terms.append(rng.standard_normal(size) ** 2 * beta)
    return terms


def _reference_chunk_stats(draw, seed, idx, size):
    """The documented stream, rebuilt: a fresh (seed, chunk) generator, the
    band draws, then the measured mode's Beta share of its line."""
    rng = _chunk_rng(seed, idx)
    terms = _reference_terms(draw, rng, size)
    share = rng.beta(0.5, draw.share, size=size) if draw.share else 1.0
    total = np.zeros(size)
    for t in terms:
        total = total + t
    logw = (total - draw.offset) * (-0.5 * draw.m1sq)
    shift = float(np.max(logw))
    e = np.exp(logw - shift)
    a = terms[-1] * share * e
    return {"shift": shift, "s_w": float(np.sum(e)), "s_w2": float(np.sum(e * e)),
            "s_a": float(np.sum(a)), "s_a2": float(np.sum(a * a)),
            "s_ab": float(np.sum(a * e))}


@pytest.mark.parametrize("line", [0, 3])   # the mult-1 line and the mult-7 line
def test_chunk_stats_follow_the_documented_stream(line):
    # rows = 50 keeps each table within 50 entries: the stream then holds the
    # mult-1 line, single lines of higher multiplicity and a band of two lines,
    # and ends with the measured line
    draw = _draw(SPHERE, 1.0, 1.0, 42.0, line, 50)
    singles = [half for _, half, prob, _ in draw.bands if prob is None]
    assert 0.5 in singles and 1.5 in singles and singles[-1] == [0.5, 1.5, 2.5, 3.5][line]
    assert [half for _, half, prob, _ in draw.bands if prob is not None] == [12.0]
    assert draw.bands[-1][2] is None
    args = (draw, 11, 3, 5000)
    assert _measure_chunk_stats(*args) == _reference_chunk_stats(*args)


def _assert_chi2_1_moments(line):
    # m1 = 0 makes every weight 1, so s_a and s_a2 sum phi^2 and phi^4 of the
    # measured mode: phi^2/var must be chi^2_1, with mean 1 (variance 2) and
    # E[chi^4] = 3 (variance 105 - 9 = 96)
    lams, _ = eigen_arrays(SPHERE, 42.0)
    n, var = 200000, 1.0 / (1.0 + lams[line])
    st = _measure_chunk_stats(_draw(SPHERE, 1.0, 0.0, 42.0, line, n), 1, 0, n)
    assert abs(st["s_a"] / n / var - 1.0) < 4.0 * math.sqrt(2.0 / n)
    assert abs(st["s_a2"] / n / var ** 2 - 3.0) < 4.0 * math.sqrt(96.0 / n)


def test_measured_mode_has_chi2_1_moments_in_degenerate_line():
    # mode 9, the first of the mult-7 line: a Beta share of 2 Gamma(7/2)
    _assert_chi2_1_moments(3)


def test_measured_mode_has_chi2_1_moments_alone_on_its_line():
    # mode 0, alone on its line: a squared normal
    _assert_chi2_1_moments(0)


def test_reweighted_mode_variance_worker_invariance_in_degenerate_line(monkeypatch):
    monkeypatch.setattr(gff, "_CHUNK", 8192)
    runs = [measure_estimates(SPHERE, 1.0, 1.0, 42.0, n=50000, seed=9, mode=7, threads=t)
            for t in (1, 2, 4)]
    assert runs[0] == runs[1] == runs[2]


def test_helper_exception_reaches_the_caller(monkeypatch):
    real = gff._measure_chunk_stats

    def failing(draw, seed, idx, size):
        if idx == 5:
            raise RuntimeError("chunk 5")
        return real(draw, seed, idx, size)

    monkeypatch.setattr(gff, "_measure_chunk_stats", failing)
    monkeypatch.setattr(gff, "_CHUNK", 500)
    baseline = threading.active_count()
    for threads in (1, 3):
        with pytest.raises(RuntimeError, match="chunk 5"):
            measure_estimates(SPHERE, 1.0, 1.0, 42.0, n=10000, seed=1, threads=threads)
        assert threading.active_count() == baseline


def test_chunk_claims_under_contention(monkeypatch):
    # more threads than cores and a short switch interval: every chunk must be
    # drawn exactly once, and the result must not depend on who drew it
    monkeypatch.setattr(gff, "_CHUNK", 64)
    args = (SPHERE, 1.0, 1.0, 42.0, 300 * 64, 5)
    serial = measure_estimates(*args, threads=1)
    real, drawn = gff._measure_chunk_stats, []

    def recorded(draw, seed, idx, size):
        drawn.append(idx)
        return real(draw, seed, idx, size)

    monkeypatch.setattr(gff, "_measure_chunk_stats", recorded)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        contended = measure_estimates(*args, threads=8)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(drawn) == list(range(300))
    assert contended == serial


class _RecordedThread:
    """Stands in for threading.Thread: records each helper and starts none,
    so the calling thread draws every chunk."""
    made = []

    def __init__(self, target, daemon):
        self.made.append(self)
        self.started = self.joined = False

    def start(self):
        self.started = True

    def join(self):
        self.joined = True


@pytest.mark.parametrize("threads,n,helpers", [
    (1, 3000, 0), (2, 3000, 1), (10 ** 6, 3000, 2), (10 ** 6, 1000, 0)])
def test_helpers_capped_by_chunks(monkeypatch, threads, n, helpers):
    # chunks of 1000: 3 chunks, or 1
    monkeypatch.setattr(gff, "_CHUNK", 1000)
    monkeypatch.setattr(gff, "Thread", _RecordedThread)
    monkeypatch.setattr(_RecordedThread, "made", [])
    got = measure_estimates(SPHERE, 1.0, 1.0, 42.0, n=n, seed=1, threads=threads)
    assert len(_RecordedThread.made) == helpers
    assert all(t.started and t.joined for t in _RecordedThread.made)
    monkeypatch.setattr(gff, "Thread", threading.Thread)
    assert got == measure_estimates(SPHERE, 1.0, 1.0, 42.0, n=n, seed=1, threads=1)


def test_mode_range_checked_at_both_ends():
    # lambda <= 42 on the unit sphere holds lines k = 0..6, 49 modes
    for bad in (-1, 49):
        with pytest.raises(ValueError, match="mode"):
            measure_estimates(SPHERE, 1.0, 1.0, 42.0, n=100, seed=1, mode=bad)
    for ok in (0, 48):
        assert measure_estimates(SPHERE, 1.0, 1.0, 42.0, n=100, seed=1, mode=ok)[1].stderr > 0


def test_negative_seed_refused_before_any_helper_starts(monkeypatch):
    monkeypatch.setattr(gff, "Thread", _RecordedThread)
    monkeypatch.setattr(_RecordedThread, "made", [])
    with pytest.raises(ValueError, match="seed"):
        measure_estimates(SPHERE, 1.0, 1.0, 42.0, n=200000, seed=-1, threads=4)
    assert _RecordedThread.made == []


def test_oversized_chunk_draw_refused_before_allocating(monkeypatch):
    # the 24495 lines fit the spectrum budget, but their 431 bands do not: one
    # chunk's draw is 65536 rows x 432 plus the tables.  Refused once the bands
    # are known, before any table or chunk buffer: the peak is the line
    # spectrum, under one chunk's buffer set (65536 x 33 bytes)
    def no_table(*args):
        raise AssertionError("a band table was built")

    monkeypatch.setattr(gff, "_band", no_table)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="over 3e.07 draws per chunk .65536 rows over at least 431 bands"):
            measure_estimates(SPHERE, 1.0, 1.0, 6e8, n=100000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_chunk_draw_admitted_at_its_real_band_count(monkeypatch):
    # 5000 other lines: one band per line would be 65536 x 5001 draws, over the
    # budget; their 106 bands need 65536 x 107 plus the tables, under it
    monkeypatch.setattr(gff, "_band", lambda var, mults: (var[-1], 0.5 * mults.sum(), None, None))
    lams, mults = gff._checked_spectrum(SPHERE, 2.5e7, gff._CHUNK, 1.0)
    assert len(gff._Draw(1.0, 1.0, lams, mults, 0, gff._CHUNK).bands) == 107


def _linear_band_edges(var, mults, limit):
    """Band edges by trying every line in turn: the oracle for the bisection."""
    edges = [0]
    for j in range(1, var.size):
        if gff._table_size(var[edges[-1]:j + 1], mults[edges[-1]:j + 1]) > limit:
            edges.append(j)
    return edges + [var.size]


@pytest.mark.parametrize("model,lam_max", [(SPHERE, 4e5), (SPHERE, 5e7), (TORUS_1X2, 2000.0),
                                           (make_surface("torus", L1=1.3, L2=0.7), 3e4)])
def test_band_edges_match_a_line_by_line_scan(model, lam_max):
    # the bisection assumes J grows with the band; these spectra hold it to that
    lams, mults = eigen_arrays(model, lam_max)
    var = 1.0 / (1.0 + lams)
    edges, draw = gff._band_edges(var[1:], mults[1:], gff._CHUNK)
    assert edges == _linear_band_edges(var[1:], mults[1:], gff._MAX_TABLE)
    assert draw <= gff._MAX_SPECTRUM_POINTS


@pytest.mark.parametrize("model", [SPHERE, TORUS_1X2])
def test_identity_z_is_standard_over_seeds(model):
    z = np.array([measure_estimates(model, 1.0, 1.0, 42.0, n=20000, seed=s)[0].z_score
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


def _reference_pmf(var, mults, size):
    """The law of N = sum_l N_l on 0..size-1, N_l ~ NegativeBinomial(mult_l/2,
    1 - q_l) with q_l = 1 - min(var)/var_l: each line's pmf by cumulative
    products of its term ratios, the lines joined by np.convolve."""
    total = np.array([1.0])
    for v, m in zip(var, mults):
        q, r, j = 1.0 - var[-1] / v, 0.5 * m, np.arange(1.0, size)
        line = (1.0 - q) ** r * np.concatenate([[1.0], np.cumprod((r + j - 1.0) / j * q)])
        total = np.convolve(total, line)[:size]
    return total


@pytest.mark.parametrize("model,lam_max", [(SPHERE, 42.0), (TORUS_1X2, 2000.0), (SPHERE, 4e5)])
def test_band_tables_match_the_convolved_negative_binomials(model, lam_max):
    lams, mults = eigen_arrays(model, lam_max)
    var = 1.0 / (1.0 + lams)
    var, mults = var[1:], mults[1:]             # the lines other than mode 0's
    edges, _ = gff._band_edges(var, mults, gff._MAX_TABLE)
    bands = [(i, j) for i, j in zip(edges, edges[1:]) if j - i > 1][:2]
    assert bands
    for i, j in bands:
        beta, half, prob, other = gff._band(var[i:j], mults[i:j])
        size = prob.size
        assert beta == var[j - 1] and half == 0.5 * np.sum(mults[i:j])
        assert 1 < size <= gff._MAX_TABLE
        reference = _reference_pmf(var[i:j], mults[i:j], 2 * size)
        # the table misses at most 2^-64 of N's mass, and holds the rest: entry k
        # gives k with probability prob[k] and alias[k] with 1 - prob[k]
        assert reference[size:].sum() <= 2.0 ** -64
        alias = (other - half).astype(int)
        table = (prob + np.bincount(alias, weights=1.0 - prob, minlength=size)) / size
        assert 0.5 * np.abs(table - reference[:size]).sum() <= 1e-13


def _reference_w(draw, seed, size):
    """W_C of one chunk of the documented stream."""
    return np.sum(_reference_terms(draw, _chunk_rng(seed, 0), size), axis=0) - draw.offset


@pytest.mark.parametrize("model,lam_max,seed", [
    (SPHERE, 42.0, 21), (TORUS_1X2, 42.0, 22), (TORUS_1X2, 2000.0, 23)])
def test_band_mixture_gives_the_moments_of_w(model, lam_max, seed):
    # W_C = sum_l var_l (G_l - mult_l): mean 0 and variance 2 sum mult var^2;
    # the cumulants 2k v^2 and 48k v^4 of v chi^2_k give the sampling errors
    n = 200000
    draw = _draw(model, 1.0, 1.0, lam_max, 0, gff._CHUNK)
    assert any(prob is not None for _, _, prob, _ in draw.bands)
    lams, mults = eigen_arrays(model, lam_max)
    var = 1.0 / (1.0 + lams)
    k2, k4 = 2.0 * np.sum(mults * var ** 2), 48.0 * np.sum(mults * var ** 4)
    w = _reference_w(draw, seed, n)
    assert abs(w.mean()) <= 4.0 * math.sqrt(k2 / n)
    assert abs(w.var() - k2) <= 4.0 * math.sqrt((k4 + 2.0 * k2 * k2) / n)


def test_band_counts():
    # verify-all's sphere: the measured line and one band for the other six
    assert len(_draw(SPHERE, 1.0, 1.0, 42.0, 0, gff._CHUNK).bands) == 2
    # 632 lines at lambda <= 4e5: at most a tenth as many bands
    lams, _ = eigen_arrays(SPHERE, 4e5)
    assert len(_draw(SPHERE, 1.0, 1.0, 4e5, 0, gff._CHUNK).bands) <= lams.size // 10
    # the torus 1 x 2 at lambda <= 2000, drawn in CI at --threads 1 and 3:
    # the measured line and at least two bands
    assert len(_draw(TORUS_1X2, 1.0, 1.0, 2000.0, 0, gff._CHUNK).bands) >= 3
