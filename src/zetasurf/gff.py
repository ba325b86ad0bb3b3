"""Truncated Gaussian free field and Monte Carlo verification of the
change-of-mass measure identity.

A field truncated at lambda <= Lambda is a vector of independent centered
Gaussians, one coefficient per eigenfunction, with Var(phi_k) = 1/(m^2 +
lambda_k).  At fixed truncation the reweighting identity

    E_{m0}[ exp(-m1^2/2 * W_C) ] = prod_{lambda <= Lambda}
        ((1 + m1^2/(m0^2 + lambda)) e^{-m1^2/(m0^2 + lambda)})^{-1/2}

with W_C = sum_k (phi_k^2 - 1/(m0^2 + lambda_k)) is an exact
finite-dimensional Gaussian integral, so the Monte Carlo estimate must agree
with the closed-form product within statistical error.  (The C0 ordering
adds the constant A * C_f(m0) to W_C, so it needs no sample of its own.)

The Monte Carlo estimates see a sample only through W_C and one mode's
phi^2, so they draw sufficient statistics instead of fields.  The modes of a
spectral line l share the variance var_l = 1/(m0^2 + lambda_l), so
sum_{k in l} phi_k^2 = var_l G_l with G_l ~ chi^2_{mult_l}, independent
across lines, and W_C = sum_l var_l (G_l - mult_l).  The measured mode's phi^2
is var_l G_l B, B ~ Beta(1/2, (mult_l - 1)/2) independent of G_l (B = 1 on a
line of multiplicity 1).  The other lines are split, in lambda order, into
contiguous bands of one gamma variate each (Ruben 1962): with beta = min var_l,
q_l = 1 - beta/var_l and K = sum mult_l over a band, sum_l var_l G_l has the
law of 2 beta Gamma(K/2 + N), N the sum of independent NegativeBinomial(mult_l/2,
1 - q_l).  N's law, the FFT of its generating function, is tabulated once per
pass on the J entries that the Chernoff bound P(N >= J) <= G(z) z^-J leaves
all but 2^-64 of its mass in, and read through a Walker alias table; a band
takes lines while J <= min(rows, _MAX_TABLE), rows the samples of a chunk.

Reproducibility contract: the samples are drawn in chunks of _CHUNK, chunk c
from an SFC64 generator seeded by SeedSequence((seed, c)), and chunk
statistics are reduced in chunk order, so results are bit-identical for a
fixed seed regardless of how many threads draw the chunks.  Within a chunk
the stream holds the bands in lambda order and then the measured line, each a
contiguous draw of the chunk's size: standard_normal on a lone line of
multiplicity 1 (G_l is its square), standard_gamma(mult_l/2) on any other lone
line (G_l is twice it), and on a band of several lines a uniform u, read as
k = floor(uJ) with coin uJ - k (N = k if the coin is below prob[k], else
alias[k]), then standard_gamma(K/2 + N); and then the measured mode's Beta
shares.  So the identity estimate depends on the measured mode only through
its line.

Threads: with `threads` = N the chunks are claimed in index order, under a
lock, by whichever of N threads is free: N - 1 helper threads and the calling
thread, which then joins the helpers and reduces.

The identity's target is `det2`'s truncated log, the sum of log1p x - x over
the modes of the lines drawn (`surfaces`).  The weights are summed as
w e^{-shift}, with shift the largest log-weight drawn, and the mean, its
standard error and the target are compared in that frame; each is reported as
inf only where it exceeds float range.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from threading import Lock, Thread, local

import numpy as np

from .anomaly import _exp
from .green import det2
from .heat import _check_mass
from .surfaces import _MAX_SPECTRUM_POINTS, SurfaceModel, eigen_arrays

__all__ = ["MCEstimate", "measure_estimates", "verify_gff"]

# samples per chunk: the unit of the (seed, chunk) stream and of thread work
_CHUNK = 65536
# a band's alias table has at most min(rows, _MAX_TABLE) entries, and misses at
# most 2^-64 of N's mass by the Chernoff bound at one of the _CHERNOFF points:
# 1 - q_0 z as a share of 1 - q_0, for 1 < z < 1/q_0
_MAX_TABLE = 4096
_CHERNOFF = np.geomspace(1e-9, 0.999, 64)


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    stderr: float
    n_samples: int
    target: float
    z_score: float


def _checked_spectrum(model: SurfaceModel, lam_max: float, rows: int,
                      m0sq: float) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, multiplicities) of the lines; `eigen_arrays` refuses a
    spectrum over its own budget before building it.  On the sphere a draw
    over the budget at its least band count is refused first: J >= E[N]
    (ln G(z) >= (z - 1) E[N] >= E[N] ln z), and on the lines with
    k(k + 1) >= m0^2 R^2 a band of n of them has E[N] >= n(n - 1)/2, so at
    most n_max of them share a band of J <= min(rows, _MAX_TABLE)."""
    if model.kind == "sphere":
        limit, root = min(rows, _MAX_TABLE), model.radius * math.sqrt(max(lam_max, 0.0))
        n_max = math.floor((1.0 + math.sqrt(1.0 + 8.0 * limit)) / 2.0)
        # more than root - m0 R - 4 such lines besides the measured one
        bands = max(0.0, root - math.sqrt(m0sq) * model.radius - 4.0) / n_max
        if rows * (bands + 1.0) + bands > _MAX_SPECTRUM_POINTS:
            raise ValueError(
                f"lam_max={lam_max:g} needs over {rows * (bands + 1.0):.2g} draws per chunk "
                f"({rows} rows over at least {bands:.0f} bands of {root:.2g} lines, "
                f"{root * root:.2g} modes) on {model.label()}, over the budget of "
                f"{_MAX_SPECTRUM_POINTS:.0e}")
    lams, mults = eigen_arrays(model, lam_max)
    if lams.size < 2:
        raise ValueError("lam_max must cover at least 2 spectral lines")
    return lams, mults


def _table_size(var: np.ndarray, mults: np.ndarray) -> int:
    """J for the band of lines of decreasing var: the least J with G(z) z^-J <= 2^-64 at
    one of the _CHERNOFF points.  With a = 1 - q and d = 1 - q_0 z, each 1 - q_l z is
    (a_l - a_0 + q_l d)/q_0, which keeps every log free of cancellation."""
    a = var[-1] / var
    if a[0] >= 1.0:
        return 1
    d, log_q0 = a[0] * _CHERNOFF, math.log1p(-a[0])
    log_g = (0.5 * mults) @ (np.log(a)[:, None] + log_q0
                             - np.log((a - a[0])[:, None] + np.outer(1.0 - a, d)))
    return math.ceil(np.min((log_g + 64.0 * math.log(2.0)) / (np.log1p(-d) - log_q0)))


def _band_edges(var: np.ndarray, mults: np.ndarray, rows: int) -> tuple[list[int], float]:
    """The first line of each band, then the line count, and one chunk's draw,
    rows x (bands + 1) plus the tables' sum of J, cut short once over the
    budget.  A band takes lines while its J <= min(rows, _MAX_TABLE); J grows
    with the band on the spectra tested (not proven), so its end is bisected."""
    limit, edges, draw = min(rows, _MAX_TABLE), [0], float(rows)
    while edges[-1] < var.size and draw <= _MAX_SPECTRUM_POINTS:
        start = edges[-1]
        # [start, fits) fits and [start, over) does not; the first step is the last band's size
        fits, size, over, step = start + 1, 1, None, max(1, start - edges[-2:][0])
        while fits < var.size and (over is None or over - fits > 1):
            end = min(fits + step, var.size) if over is None else (fits + over) // 2
            j = _table_size(var[start:end], mults[start:end])
            if j <= limit:
                fits, size, step = end, j, 2 * step
            else:
                over = end
        edges.append(fits)
        draw += rows + size
    return edges, draw


def _band(var: np.ndarray, mults: np.ndarray) -> tuple:
    """(beta, K/2, prob, K/2 + alias) of a band, prob None on one line (N = 0).  N's law
    on 0..J-1 is the inverse FFT, on 2^k >= J points, of G(e^{-i theta}), its log summed
    line by line with 1 - q e^{-i theta} = a + q (1 - cos theta + i sin theta); Vose's
    alias table of it keeps k with probability prob[k], else gives alias[k]."""
    beta, half, size = float(var[-1]), 0.5 * float(np.sum(mults)), _table_size(var, mults)
    if size == 1:
        return beta, half, None, None
    points = 1 << (size - 1).bit_length()
    theta = np.arange(points // 2 + 1) * (2.0 * math.pi / points)
    circle = 2.0 * np.sin(0.5 * theta) ** 2 + 1j * np.sin(theta)
    log_g = np.zeros(theta.size, complex)
    for a, r in zip((var[-1] / var).tolist(), (0.5 * mults).tolist()):
        log_g += r * (math.log(a) - np.log(a + (1.0 - a) * circle))
    p = np.maximum(np.fft.irfft(np.exp(log_g), points)[:size], 0.0)
    prob, alias = (p * (size / p.sum())).tolist(), list(range(size))
    small = [k for k, x in enumerate(prob) if x < 1.0]
    large = [k for k, x in enumerate(prob) if x >= 1.0]
    while small and large:
        k, j = small.pop(), large.pop()
        alias[k], prob[j] = j, prob[j] + prob[k] - 1.0
        (small if prob[j] < 1.0 else large).append(j)
    for k in small + large:                     # left over by rounding
        prob[k] = 1.0
    return beta, half, np.array(prob), half + np.array(alias)


class _Draw:
    """What every chunk of a pass reads: the bands of the other lines and then
    the measured line's, its Beta share, and one buffer set per thread."""

    def __init__(self, m0sq, m1sq, lams, mults, line, rows):
        var = 1.0 / (m0sq + lams)
        others, counts = np.delete(var, line), np.delete(mults, line)
        edges, draw = _band_edges(others, counts, rows)
        if draw > _MAX_SPECTRUM_POINTS:
            raise ValueError(
                f"the {lams.size} lines up to lambda = {lams[-1]:g} ({np.sum(mults):.2g} modes) "
                f"need over {draw:.2g} draws per chunk ({rows} rows over at least "
                f"{len(edges) - 1} bands), over the budget of {_MAX_SPECTRUM_POINTS:.0e}")
        self.bands = [_band(others[i:j], counts[i:j]) for i, j in zip(edges, edges[1:])]
        self.bands.append(_band(var[line:line + 1], mults[line:line + 1]))
        self.share = 0.5 * (mults[line] - 1.0)   # Beta(1/2, share); 0 on a mult-1 line
        self.offset = np.sum(mults * var)
        self.m1sq = m1sq
        self._local = local()

    def buffers(self, size):
        """This thread's acc, buf, u (float), k (intp) and swap (bool)."""
        got = getattr(self._local, "got", None)
        if got is None or got[0].size < size:
            got = self._local.got = [np.empty(size, t) for t in (float,) * 3 + (np.intp, bool)]
        return [x[:size] for x in got]


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence((seed, chunk_index))))


def _measure_chunk_stats(draw: _Draw, seed: int, idx: int, size: int) -> dict:
    rng = _chunk_rng(seed, idx)
    acc, buf, u, k, swap = draw.buffers(size)
    acc.fill(0.0)
    # sum_l var_l G_l, band by band in stream order; buf ends holding the
    # measured line's var_l G_l
    for beta, half, prob, other in draw.bands:
        if prob is not None:
            rng.random(size=size, out=u)
            u *= prob.size
            np.copyto(k, u, casting="unsafe")               # k = floor(uJ)
            u -= k                                          # the coin
            np.take(prob, k, out=buf, mode="clip")          # "clip": out is not copied
            np.greater_equal(u, buf, out=swap)
            np.add(k, half, out=buf)                        # K/2 + k
            np.take(other, k, out=u, mode="clip")           # K/2 + alias[k]
            np.copyto(buf, u, where=swap)
            rng.standard_gamma(buf, out=buf)                # elementwise, so in place
            buf *= 2.0 * beta
        elif half > 0.5:
            rng.standard_gamma(half, size=size, out=buf)    # G = 2 Gamma(mult/2)
            buf *= 2.0 * beta
        else:
            rng.standard_normal(size=size, out=buf)         # G = Z^2
            buf *= buf
            buf *= beta
        acc += buf
    acc -= draw.offset                           # W_C
    acc *= -0.5 * draw.m1sq                      # log w
    shift = float(np.max(acc))
    acc -= shift
    e = np.exp(acc, out=acc)                     # w e^{-shift}
    if draw.share:
        # the measured mode's share of its line, drawn after every band
        buf *= rng.beta(0.5, draw.share, size=size)
    a = np.multiply(buf, e, out=buf)             # w * phi^2
    return {
        "shift": shift,
        "s_w": float(np.sum(e)),
        "s_w2": float(np.sum(np.multiply(e, e, out=u))),
        "s_a": float(np.sum(a)),
        "s_a2": float(np.sum(np.multiply(a, a, out=u))),
        "s_ab": float(np.sum(np.multiply(a, e, out=u))),     # (w phi^2) * w
    }


def _drawn(work, chunks: int, threads: int | None) -> list:
    """work(i) for each chunk i, in chunk order.  The chunks are claimed in
    index order under a lock by whichever thread is free: the caller and
    min(threads, chunks) - 1 helpers.  The first exception stops further
    claims and is raised once every helper is joined."""
    stats, claims, errors, lock = [None] * chunks, iter(range(chunks)), [], Lock()

    def drain():
        try:
            while True:
                with lock:
                    i = None if errors else next(claims, None)
                if i is None:
                    return
                stats[i] = work(i)
        except BaseException as exc:
            with lock:
                errors.append(exc)

    helpers = [Thread(target=drain, daemon=True) for _ in range(min(threads or 1, chunks) - 1)]
    for helper in helpers:
        helper.start()
    drain()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]
    return stats


def _unscaled(x: float, shift: float) -> float:
    """x e^shift for x >= 0, with inf only where it exceeds float range."""
    try:
        return x * math.exp(shift)
    except OverflowError:
        return _exp(math.log(x) + shift) if x > 0.0 else 0.0


def measure_estimates(model: SurfaceModel, m0: float, m1: float, lam_max: float,
                      n: int, seed: int, mode: int = 0,
                      threads: int | None = None) -> tuple[MCEstimate, MCEstimate]:
    """From one pass over the (seed, chunk) stream: the MC estimate of
    E[exp(-m1^2 W_C / 2)] against the exact truncated product, and the
    reweighted second moment E[w phi_mode^2]/E[w] against
    1/(m0^2 + m1^2 + lambda_mode)."""
    _check_mass("m0", m0)
    _check_mass("m1", m1, positive=False)
    _check_mass("m0sq", m0 * m0)
    _check_mass("m1sq", m1 * m1, positive=False)
    if n < 1:
        raise ValueError("n must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    chunk, rows = _CHUNK, min(_CHUNK, n)
    lams, mults = _checked_spectrum(model, lam_max, rows, m0 * m0)
    ends = np.cumsum(mults)
    if not 0 <= mode < int(ends[-1]):
        raise ValueError(f"mode must be in [0, {int(ends[-1])})")
    line = int(np.searchsorted(ends, mode, side="right"))
    draw = _Draw(m0 * m0, m1 * m1, lams, mults, line, rows)
    stats = _drawn(lambda i: _measure_chunk_stats(draw, seed, i, min(chunk, n - i * chunk)),
                   (n + chunk - 1) // chunk, threads)
    shift = max(st["shift"] for st in stats)
    scale1 = [math.exp(st["shift"] - shift) for st in stats]
    scale2 = [math.exp(2.0 * (st["shift"] - shift)) for st in stats]
    sums = {
        "w": math.fsum(c * st["s_w"] for c, st in zip(scale1, stats)),
        "w2": math.fsum(c * st["s_w2"] for c, st in zip(scale2, stats)),
        "a": math.fsum(c * st["s_a"] for c, st in zip(scale1, stats)),
        "a2": math.fsum(c * st["s_a2"] for c, st in zip(scale2, stats)),
        "ab": math.fsum(c * st["s_ab"] for c, st in zip(scale2, stats)),
    }

    # the identity, compared in the frame of the sums, w e^{-shift}, where the
    # mean is at most 1 and its error cannot overflow; e^{-shift} cancels in z
    log_target = -0.5 * det2(model, m0 * m0, m1 * m1, lam_max=lam_max).truncated_log
    mean = sums["w"] / n
    var = max(0.0, (sums["w2"] - n * mean * mean) / max(1, n - 1))
    stderr = math.sqrt(var / n)
    target = _exp(log_target - shift)
    z = 0.0 if stderr == 0.0 else (mean - target) / stderr
    identity = MCEstimate(mean=_unscaled(mean, shift), stderr=_unscaled(stderr, shift),
                          n_samples=n, target=_exp(log_target), z_score=z)

    # the reweighted second moment: delta method on the ratio of means (the
    # e^shift scales cancel)
    mu_a = sums["a"] / n
    ratio = mu_a / mean
    var_a = max(0.0, sums["a2"] / n - mu_a ** 2)
    var_b = max(0.0, sums["w2"] / n - mean ** 2)
    cov = sums["ab"] / n - mu_a * mean
    var_r = (var_a - 2.0 * ratio * cov + ratio ** 2 * var_b) / (mean ** 2)
    stderr = math.sqrt(max(0.0, var_r) / n)
    target = 1.0 / (m0 * m0 + m1 * m1 + float(lams[line]))
    z = 0.0 if stderr == 0.0 else (ratio - target) / stderr
    return identity, MCEstimate(mean=ratio, stderr=stderr, n_samples=n, target=target,
                                z_score=z)


def verify_gff(model: SurfaceModel, m0: float, m1: float, lam_max: float, n: int,
               seed: int, threads: int | None = None) -> dict:
    """The GFF measure-identity record: the identity estimate within 3 and the
    reweighted second moment of mode 0 within 4 standard errors of their targets."""
    est, rw = measure_estimates(model, m0, m1, lam_max, n, seed, mode=0, threads=threads)
    return {
        "check": "gff-measure-identity",
        "surface": model.label(), "m0": m0, "m1": m1, "lam_max": lam_max,
        "n_samples": n, "seed": seed,
        "mean": est.mean, "stderr": est.stderr, "target": est.target,
        "z_score": est.z_score,
        "reweighted_mode0": {"mean": rw.mean, "stderr": rw.stderr,
                             "target": rw.target, "z_score": rw.z_score},
        "pass": bool(abs(est.z_score) < 3.0 and abs(rw.z_score) < 4.0),
    }
