"""Truncated Gaussian free field in mode space and Monte Carlo verification
of the change-of-mass measure identity.

A field truncated at lambda <= Lambda is a vector of independent centered
Gaussians, one coefficient per eigenfunction, with Var(phi_k) = 1/(m^2 +
lambda_k).  At fixed truncation the reweighting identity

    E_{m0}[ exp(-m1^2/2 * W_C) ] = prod_{lambda <= Lambda}
        ((1 + m1^2/(m0^2 + lambda)) e^{-m1^2/(m0^2 + lambda)})^{-1/2}

with W_C = sum_k (phi_k^2 - 1/(m0^2 + lambda_k)) is an exact
finite-dimensional Gaussian integral, so the Monte Carlo estimate must agree
with the closed-form product within statistical error.

The Monte Carlo estimates see a sample only through W_C and one mode's
phi^2, so they draw sufficient statistics instead of fields.  The modes of a
spectral line l share the variance var_l = 1/(m0^2 + lambda_l), so
sum_{k in l} phi_k^2 = var_l G_l with G_l ~ chi^2_{mult_l}, independent
across lines, and W_C = sum_l var_l (G_l - mult_l): one chi^2 draw per line
instead of one normal per mode.  The measured mode's phi^2 is var_l G_l B
with B ~ Beta(1/2, (mult_l - 1)/2) independent of G_l (B = 1 on a line of
multiplicity 1).  `sample_fields` still draws one normal per mode, since the
Wick functionals need whole fields.

Reproducibility contract: chunk c of the samples draws from an SFC64
generator seeded by SeedSequence((seed, c)), and chunk statistics are reduced
in chunk order, so results are bit-identical for a fixed (seed, chunk size)
regardless of how many workers evaluate the chunks.  Within a chunk the
Monte Carlo stream holds one contiguous standard_gamma(mult_l/2) draw of the
chunk's size per spectral line, in line order (G_l is twice it), and then the
measured mode's Beta shares, so the identity estimate does not depend on the
measured mode and `measure_estimates` equals its two separate calls bit for
bit.  `sample_fields` draws the chunk's normals from the same generator.

The identity's target is `det2`'s truncated log, the one per-line sum of
mult_l (log1p x_l - x_l).  The weights are summed as w e^{-shift}, with shift
the largest log-weight drawn, and the mean, its standard error and the target
are compared in that frame; each is reported as inf only where it exceeds
float range.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .anomaly import _exp
from .green import cf_mean, det2
from .sumtools import stable_sum
from .surfaces import _MAX_SPECTRUM_POINTS, SurfaceModel, _spectrum_size, eigen_arrays

__all__ = [
    "FieldSample",
    "MCEstimate",
    "sample_fields",
    "wick_mass_term",
    "verify_measure_identity",
    "reweighted_mode_variance",
    "measure_estimates",
]


@dataclass(frozen=True)
class FieldSample:
    coeffs: np.ndarray        # one Gaussian coefficient per mode
    lambdas: np.ndarray       # eigenvalue of each mode (multiplicity-expanded)
    msq: float
    model: SurfaceModel
    seed: int
    stream_index: int         # chunk index within the (seed)-keyed stream


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    stderr: float
    n_samples: int
    target: float
    z_score: float


def _checked_spectrum(model: SurfaceModel, lam_max: float, rows: int,
                     per_line: bool) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, multiplicities) of the lines, refused before anything is
    built unless one chunk's draw fits the budget: `rows` x lines if per_line,
    else `rows` x modes, which also bounds the modes of a whole field.  The
    line-level draw allocates nothing per mode, so only `eigen_arrays`' own
    budget bounds its spectrum."""
    lines, modes = _spectrum_size(model, max(lam_max, 0.0))  # eigen_arrays rejects lam_max < 0
    draw = rows * (lines if per_line else modes)
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


def sample_fields(model: SurfaceModel, msq: float, lam_max: float, seed: int, n: int,
                  chunk_size: int = 65536):
    """Yield n independent truncated-field samples (deterministic in seed)."""
    if msq <= 0:
        raise ValueError("msq must be positive (the zero mode has infinite "
                         "variance in the massless measure)")
    if n < 1:
        raise ValueError("n must be >= 1")
    lams, mults = _checked_spectrum(model, lam_max, min(chunk_size, n), per_line=False)
    lambdas = np.repeat(lams, mults.astype(int))
    std = 1.0 / np.sqrt(msq + lambdas)
    produced = 0
    chunk_index = 0
    while produced < n:
        take = min(chunk_size, n - produced)
        rng = _chunk_rng(seed, chunk_index)
        block = rng.standard_normal((take, lambdas.size)) * std
        for row in block:
            yield FieldSample(coeffs=row, lambdas=lambdas, msq=msq, model=model,
                              seed=seed, stream_index=chunk_index)
        produced += take
        chunk_index += 1


def wick_mass_term(sample: FieldSample, m0sq: float, ordering: str = "C") -> float:
    """Wick-ordered squared field, summed over the truncated modes.

    ordering "C": subtract the per-mode variance 1/(m0^2 + lambda).
    ordering "C0": additionally add A * C_f(m0), the diagonal finite part
    times the area (the log-kernel ordering constant).
    """
    if ordering not in ("C", "C0"):
        raise ValueError("ordering must be 'C' or 'C0'")
    if m0sq <= 0:
        raise ValueError("m0sq must be positive")
    w = stable_sum(sample.coeffs ** 2 - 1.0 / (m0sq + sample.lambdas))
    if ordering == "C0":
        w += sample.model.area * cf_mean(sample.model, m0sq).cf_mean
    return w


# ----------------------------------------------------------- MC verification

def _chunk_plan(n: int, chunk_size: int):
    full, rem = divmod(n, chunk_size)
    sizes = [chunk_size] * full + ([rem] if rem else [])
    return list(enumerate(sizes))


def _measure_chunk_stats(m0sq, m1sq, lams, mults, seed, idx, size, line):
    rng = _chunk_rng(seed, idx)
    var = 1.0 / (m0sq + lams)
    # sum_l var_l G_l with G_l = 2 Gamma(mult_l/2) ~ chi^2_mult: one contiguous
    # draw per spectral line, in line order, added in that order
    acc = np.zeros(size)
    buf = np.empty(size)
    for j in range(lams.size):
        rng.standard_gamma(0.5 * mults[j], size=size, out=buf)
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


def _collect_stats(model, m0, m1, lam_max, n, seed, chunk_size, threads, mode):
    m0sq, m1sq = m0 * m0, m1 * m1
    lams, mults = _checked_spectrum(model, lam_max, min(chunk_size, n), per_line=True)
    ends = np.cumsum(mults)
    if not 0 <= mode < int(ends[-1]):
        raise ValueError(f"mode must be in [0, {int(ends[-1])})")
    line = int(np.searchsorted(ends, mode, side="right"))
    plan = _chunk_plan(n, chunk_size)
    worker = lambda item: _measure_chunk_stats(
        m0sq, m1sq, lams, mults, seed, item[0], item[1], line)
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            stats = list(pool.map(worker, plan))
    else:
        stats = [worker(item) for item in plan]
    big = max(st["shift"] for st in stats)
    scale1 = [math.exp(st["shift"] - big) for st in stats]
    scale2 = [math.exp(2.0 * (st["shift"] - big)) for st in stats]
    sums = {
        "w": math.fsum(c * st["s_w"] for c, st in zip(scale1, stats)),
        "w2": math.fsum(c * st["s_w2"] for c, st in zip(scale2, stats)),
        "a": math.fsum(c * st["s_a"] for c, st in zip(scale1, stats)),
        "a2": math.fsum(c * st["s_a2"] for c, st in zip(scale2, stats)),
        "ab": math.fsum(c * st["s_ab"] for c, st in zip(scale2, stats)),
    }
    return float(lams[line]), big, sums


def _unscaled(x: float, shift: float) -> float:
    """x e^shift for x >= 0, with inf only where it exceeds float range."""
    try:
        return x * math.exp(shift)
    except OverflowError:
        return _exp(math.log(x) + shift) if x > 0.0 else 0.0


def _estimates(model, m0, m1, lam_max, n, seed, chunk_size, threads, mode):
    """Both Monte Carlo estimates from one pass over the (seed, chunk) stream."""
    if m0 <= 0:
        raise ValueError("m0 must be positive")
    if m1 < 0:
        raise ValueError("m1 must be >= 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    lam_mode, shift, sums = _collect_stats(model, m0, m1, lam_max, n, seed,
                                           chunk_size, threads, mode=mode)
    # E[exp(-m1^2 W_C / 2)] against the exact truncated product, compared in
    # the frame of the sums, w e^{-shift}, where the mean is at most 1 and its
    # error cannot overflow; e^{-shift} cancels in z.
    log_target = -0.5 * det2(model, m0 * m0, m1 * m1, lam_max=lam_max).truncated_log
    mean = sums["w"] / n
    var = max(0.0, (sums["w2"] - n * mean * mean) / max(1, n - 1))
    stderr = math.sqrt(var / n)
    target = _exp(log_target - shift)
    z = 0.0 if stderr == 0.0 else (mean - target) / stderr
    identity = MCEstimate(mean=_unscaled(mean, shift), stderr=_unscaled(stderr, shift),
                          n_samples=n, target=_exp(log_target), z_score=z)

    # E[w phi_mode^2]/E[w] against 1/(m0^2 + m1^2 + lambda)
    mu_b = sums["w"] / n
    mu_a = sums["a"] / n
    ratio = mu_a / mu_b
    # delta method on the ratio of means (the e^shift scales cancel)
    var_a = max(0.0, sums["a2"] / n - mu_a ** 2)
    var_b = max(0.0, sums["w2"] / n - mu_b ** 2)
    cov = sums["ab"] / n - mu_a * mu_b
    var_r = (var_a - 2.0 * ratio * cov + ratio ** 2 * var_b) / (mu_b ** 2)
    stderr = math.sqrt(max(0.0, var_r) / n)
    target = 1.0 / (m0 * m0 + m1 * m1 + lam_mode)
    z = 0.0 if stderr == 0.0 else (ratio - target) / stderr
    variance = MCEstimate(mean=ratio, stderr=stderr, n_samples=n, target=target, z_score=z)
    return identity, variance


def verify_measure_identity(model: SurfaceModel, m0: float, m1: float, lam_max: float,
                            n: int, seed: int, chunk_size: int = 65536,
                            threads: int | None = None) -> MCEstimate:
    """MC estimate of E[exp(-m1^2 W_C / 2)] against the exact truncated product."""
    return _estimates(model, m0, m1, lam_max, n, seed, chunk_size, threads, 0)[0]


def reweighted_mode_variance(model: SurfaceModel, m0: float, m1: float, lam_max: float,
                             n: int, seed: int, mode: int = 0,
                             chunk_size: int = 65536,
                             threads: int | None = None) -> MCEstimate:
    """Reweighted second moment E[w phi_mode^2]/E[w] vs 1/(m0^2 + m1^2 + lambda)."""
    return _estimates(model, m0, m1, lam_max, n, seed, chunk_size, threads, mode)[1]


def measure_estimates(model: SurfaceModel, m0: float, m1: float, lam_max: float,
                      n: int, seed: int, mode: int = 0, chunk_size: int = 65536,
                      threads: int | None = None) -> tuple[MCEstimate, MCEstimate]:
    """`verify_measure_identity` and `reweighted_mode_variance` from a single
    pass over the sample stream; each equals its separate call bit for bit."""
    return _estimates(model, m0, m1, lam_max, n, seed, chunk_size, threads, mode)
