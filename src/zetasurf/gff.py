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
across lines, and W_C = sum_l var_l (G_l - mult_l): one chi^2 draw per line
instead of one normal per mode.  The measured mode's phi^2 is var_l G_l B
with B ~ Beta(1/2, (mult_l - 1)/2) independent of G_l (B = 1 on a line of
multiplicity 1).

Reproducibility contract: the samples are drawn in chunks of _CHUNK, chunk c
from an SFC64 generator seeded by SeedSequence((seed, c)), and chunk
statistics are reduced in chunk order, so results are bit-identical for a
fixed seed regardless of how many threads draw the chunks.  Within a chunk
the stream holds one contiguous draw of the chunk's size per spectral line,
in line order: standard_normal on a line of multiplicity 1 (G_l is its
square), standard_gamma(mult_l/2) on any other line (G_l is twice it); and
then the measured mode's Beta shares, so the identity estimate does not
depend on the measured mode.

Threads: with `threads` = N the chunks are claimed in index order, under a
lock, by whichever of N threads is free: N - 1 helper threads and the calling
thread, which then joins the helpers and reduces.  verify-all starts its
sphere record's draw this way before its deterministic records, and the
final call with the same arguments finishes it.

The identity's target is `det2`'s truncated log, the sum of log1p x - x over
the modes of the lines drawn (`surfaces`).  The weights are summed as
w e^{-shift}, with shift the largest log-weight drawn, and the mean, its
standard error and the target are compared in that frame; each is reported as
inf only where it exceeds float range.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from threading import Lock, Thread

import numpy as np

from .anomaly import _exp
from .green import det2
from .heat import _check_mass
from .surfaces import _MAX_SPECTRUM_POINTS, SurfaceModel, _spectrum_size, eigen_arrays

__all__ = ["MCEstimate", "measure_estimates"]

# samples per chunk: the unit of the (seed, chunk) stream and of thread work
_CHUNK = 65536


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    stderr: float
    n_samples: int
    target: float
    z_score: float


def _checked_spectrum(model: SurfaceModel, lam_max: float,
                      rows: int) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, multiplicities) of the lines, refused before anything is
    built unless one chunk's draw, `rows` x lines, fits the budget.  The draw
    allocates nothing per mode, so only `eigen_arrays`' own budget bounds its
    spectrum."""
    lines, modes = _spectrum_size(model, max(lam_max, 0.0))  # eigen_arrays rejects lam_max < 0
    draw = rows * lines
    if draw > _MAX_SPECTRUM_POINTS:
        raise ValueError(
            f"lam_max={lam_max:g} needs {draw:.2g} draws per chunk ({rows} rows over "
            f"{lines:.2g} lines, {modes:.2g} modes) on {model.label()}, over the "
            f"budget of {_MAX_SPECTRUM_POINTS:.0e}")
    lams, mults = eigen_arrays(model, lam_max)
    if lams.size < 2:
        raise ValueError("lam_max must cover at least 2 spectral lines")
    return lams, mults


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence((seed, chunk_index))))


def _measure_chunk_stats(m0sq, m1sq, lams, mults, seed, idx, size, line):
    rng = _chunk_rng(seed, idx)
    var = 1.0 / (m0sq + lams)
    # sum_l var_l G_l with G_l ~ chi^2_mult: one contiguous draw per spectral
    # line, in line order, added in that order
    acc = np.zeros(size)
    buf = np.empty(size)
    for j in range(lams.size):
        if mults[j] == 1:
            rng.standard_normal(size=size, out=buf)     # G = Z^2
            buf *= buf
            buf *= var[j]
        else:
            rng.standard_gamma(0.5 * mults[j], size=size, out=buf)  # G = 2 Gamma(mult/2)
            buf *= 2.0 * var[j]
        acc += buf
        if j == line:
            phi2 = buf.copy()
    acc -= np.sum(mults * var)                   # W_C
    acc *= -0.5 * m1sq                           # log w
    shift = float(np.max(acc))
    acc -= shift
    e = np.exp(acc, out=acc)                     # w e^{-shift}
    if mults[line] > 1:
        # the measured mode's share of its line, Beta(1/2, (mult-1)/2), drawn
        # after every line so that the identity estimate does not depend on the mode
        phi2 *= rng.beta(0.5, 0.5 * (mults[line] - 1.0), size=size)
    a = phi2 * e                                 # w * phi^2
    return {
        "shift": shift,
        "s_w": float(np.sum(e)),
        "s_w2": float(np.sum(e * e)),
        "s_a": float(np.sum(a)),
        "s_a2": float(np.sum(a * a)),
        "s_ab": float(np.sum(a * e)),            # (w phi^2) * w
    }


class _ChunkRun:
    """The chunks of one pass, claimed in index order under a lock by
    whichever thread is free: min(threads, chunks) - 1 helpers, started at
    once, and the thread that calls `finish`.  The first exception stops
    further claims and is raised by `finish` once every helper is joined."""

    def __init__(self, work, chunks, threads):
        self._work, self._chunks = work, chunks
        self._stats = [None] * chunks
        self._next = 0
        self._stop = False
        self._error = None
        self._lock = Lock()
        self._helpers = [Thread(target=self._drain, daemon=True)
                         for _ in range(min(threads or 1, chunks) - 1)]
        for helper in self._helpers:
            helper.start()

    def _claim(self):
        with self._lock:
            if self._stop or self._next == self._chunks:
                return None
            self._next += 1
            return self._next - 1

    def _drain(self):
        try:
            while (i := self._claim()) is not None:
                self._stats[i] = self._work(i)
        except BaseException as exc:
            with self._lock:
                self._stop = True
                if self._error is None:
                    self._error = exc

    def cancel(self):
        """Stop further claims and join the helpers."""
        with self._lock:
            self._stop = True
        for helper in self._helpers:
            helper.join()

    def finish(self):
        """Draw what is left, join the helpers and return the chunk stats in
        chunk order."""
        self._drain()
        for helper in self._helpers:
            helper.join()
        if self._error is not None:
            raise self._error
        return self._stats


# runs started ahead of their measure_estimates call, by its full argument key
_PENDING: dict[tuple, tuple[float, _ChunkRun]] = {}


def _start(model, m0, m1, lam_max, n, seed, threads, mode):
    """Check the arguments, build the spectrum and start drawing the chunks;
    returns the measured mode's eigenvalue and the run."""
    _check_mass("m0", m0)
    _check_mass("m1", m1, positive=False)
    if n < 1:
        raise ValueError("n must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    m0sq, m1sq, chunk = m0 * m0, m1 * m1, _CHUNK
    lams, mults = _checked_spectrum(model, lam_max, min(chunk, n))
    ends = np.cumsum(mults)
    if not 0 <= mode < int(ends[-1]):
        raise ValueError(f"mode must be in [0, {int(ends[-1])})")
    line = int(np.searchsorted(ends, mode, side="right"))
    work = lambda i: _measure_chunk_stats(
        m0sq, m1sq, lams, mults, seed, i, min(chunk, n - i * chunk), line)
    return float(lams[line]), _ChunkRun(work, (n + chunk - 1) // chunk, threads)


def _prefetch(model: SurfaceModel, m0: float, m1: float, lam_max: float, n: int,
              seed: int, mode: int = 0, threads: int | None = None):
    """Start the draw of `measure_estimates` with the same arguments now, on
    its helper threads; that call joins in and finishes it.  Returns a
    function that stops the run and drops it if that call has not taken it."""
    key = (model, m0, m1, lam_max, n, seed, threads, mode)
    pending = _start(*key)
    _PENDING[key] = pending

    def cancel():
        if _PENDING.get(key) is pending:
            del _PENDING[key]
        pending[1].cancel()

    return cancel


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
    key = (model, m0, m1, lam_max, n, seed, threads, mode)
    lam_mode, run = _PENDING.pop(key, None) or _start(*key)
    stats = run.finish()
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
    target = 1.0 / (m0 * m0 + m1 * m1 + lam_mode)
    z = 0.0 if stderr == 0.0 else (ratio - target) / stderr
    return identity, MCEstimate(mean=ratio, stderr=stderr, n_samples=n, target=target,
                                z_score=z)
