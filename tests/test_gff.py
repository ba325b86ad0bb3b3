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
    # the identity estimate does not depend on the measured mode: the Beta
    # shares are drawn after every line, so a call measuring mode 2 (in the
    # mult-3 line) and one measuring mode 0 (alone on its line) read the same
    # chi^2 draws
    est = measure_estimates(SPHERE, 1.0, 1.0, 42.0, n=30000, seed=4, mode=2, threads=2)[0]
    assert est == measure_estimates(SPHERE, 1.0, 1.0, 42.0, n=30000, seed=4, mode=0)[0]


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
    chi^2_mult draw per line in line order (Z^2 on a mult-1 line, else
    2 Gamma(mult/2)), then the measured mode's Beta share of its line."""
    rng = _chunk_rng(seed, idx)
    var = 1.0 / (m0sq + lams)
    terms = [rng.standard_normal(size) ** 2 * v if m == 1
             else rng.standard_gamma(0.5 * m, size=size) * (2.0 * v)
             for m, v in zip(mults, var)]
    share = rng.beta(0.5, 0.5 * (mults[line] - 1.0), size=size) if mults[line] > 1 else 1.0
    total = np.zeros(size)
    for t in terms:
        total = total + t
    logw = (total - np.sum(mults * var)) * (-0.5 * m1sq)
    shift = float(np.max(logw))
    e = np.exp(logw - shift)
    a = terms[line] * share * e
    return {"shift": shift, "s_w": float(np.sum(e)), "s_w2": float(np.sum(e * e)),
            "s_a": float(np.sum(a)), "s_a2": float(np.sum(a * a)),
            "s_ab": float(np.sum(a * e))}


@pytest.mark.parametrize("line", [0, 3])   # the mult-1 line and the mult-7 line
def test_chunk_stats_follow_the_documented_stream(line):
    lams, mults = eigen_arrays(SPHERE, 42.0)
    args = (1.0, 1.0, lams, mults, 11, 3, 5000, line)
    assert _measure_chunk_stats(*args) == _reference_chunk_stats(*args)


def _assert_chi2_1_moments(line):
    # m1 = 0 makes every weight 1, so s_a and s_a2 sum phi^2 and phi^4 of the
    # measured mode: phi^2/var must be chi^2_1, with mean 1 (variance 2) and
    # E[chi^4] = 3 (variance 105 - 9 = 96)
    lams, mults = eigen_arrays(SPHERE, 42.0)
    n, var = 200000, 1.0 / (1.0 + lams[line])
    st = _measure_chunk_stats(1.0, 0.0, lams, mults, 1, 0, n, line)
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


def test_prefetched_run_equals_a_cold_call(monkeypatch):
    monkeypatch.setattr(gff, "_CHUNK", 8192)
    args = (SPHERE, 1.0, 1.0, 42.0, 50000, 9)
    kw = dict(mode=2, threads=3)
    cold = measure_estimates(*args, **kw)
    cancel = gff._prefetch(*args, **kw)
    try:
        assert gff._PENDING
        assert measure_estimates(*args, **kw) == cold
        assert not gff._PENDING
    finally:
        cancel()


def test_cancelled_prefetch_is_dropped_and_joined(monkeypatch):
    monkeypatch.setattr(gff, "_CHUNK", 4096)
    baseline = threading.active_count()
    cancel = gff._prefetch(SPHERE, 1.0, 1.0, 42.0, 200000, 1, threads=3)
    cancel()
    assert not gff._PENDING
    assert threading.active_count() == baseline


def test_helper_exception_reaches_the_caller(monkeypatch):
    real = gff._measure_chunk_stats

    def failing(m0sq, m1sq, lams, mults, seed, idx, size, line):
        if idx == 5:
            raise RuntimeError("chunk 5")
        return real(m0sq, m1sq, lams, mults, seed, idx, size, line)

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

    def recorded(m0sq, m1sq, lams, mults, seed, idx, size, line):
        drawn.append(idx)
        return real(m0sq, m1sq, lams, mults, seed, idx, size, line)

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


def test_oversized_chunk_draw_refused_before_allocating():
    # the modes fit the budget, but one chunk's draw does not: 65536 chi^2
    # rows over 5001 lines
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="draws per chunk"):
            measure_estimates(SPHERE, 1.0, 1.0, 2.5e7, n=100000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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
