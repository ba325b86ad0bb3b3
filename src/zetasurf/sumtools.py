"""Shared numerical plumbing: stable summation, certified log-axis quadrature,
and polynomial extrapolation.

All spectral sums in this package go through compensated (exact) or pairwise
summation so that 1e-8-level tolerances are not eaten by rounding drift in
long sums.  The quadrature engine integrates smooth integrands on (0, inf)
after the substitution u = ln t, with a per-panel Gauss-Legendre doubling
test that yields an explicit error bound.

Integrand contract.  `log_quadrature` hands its integrand every node of a
pass at once: the initial partition in one call, then both children of each
bisection in one call.  The integrand must therefore be elementwise in t: its
value at a node may not depend on which other nodes share the batch.  With
that, each panel's two Gauss-Legendre sums are row reductions of the same
products as a panel-by-panel evaluation, and the per-call overhead is paid
once per pass, not once per panel and rule.

Log-t lattice.  The initial panels of a window [t_lo, t_hi] end at the
integers of u = ln t strictly inside (ln t_lo, ln t_hi) and at the window's
two ends, so no panel is wider than 1.  A panel [k, k + 1] has the same nodes,
bit for bit, in every window that contains it, and so do its bisections.
Windows that end on the lattice (`_lattice_ceil`) therefore evaluate an
integrand at shared nodes, which is what lets `heat` keep one table of the
massless trace per surface for every mass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "stable_sum",
    "pairwise_rounding",
    "log_quadrature",
    "QuadratureResult",
    "neville_zero",
]

_EPS = float(np.finfo(float).eps)


def stable_sum(values) -> float:
    """Exactly rounded sum of a 1-D array or iterable of floats."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    return math.fsum(values)


def pairwise_rounding(total: float, n: int) -> float:
    """Bound on the rounding of numpy's pairwise sum of n one-signed terms:
    8-way blocks of 128, then log2(n/128) levels of halving."""
    return (math.log2(max(n, 1)) + 20.0) * _EPS * abs(total)


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


@dataclass
class QuadratureResult:
    value: float
    err_bound: float
    panels: list = field(default_factory=list)  # (u_lo, u_hi, panel_err)
    splits: int = 0                              # bisections made
    max_splits: int = 0                          # the split budget

    def profile(self) -> dict:
        return {
            "n_panels": len(self.panels),
            "splits": self.splits,
            "max_splits": self.max_splits,
            "panel_edges": [p[0] for p in self.panels] + [self.panels[-1][1]] if self.panels else [],
            "panel_errors": [p[2] for p in self.panels],
            "err_bound": self.err_bound,
        }


def _panel_pass(fn, u_lo: np.ndarray, u_hi: np.ndarray, n_lo: int, n_hi: int):
    """Lists of the values and doubling errors of the panels [u_lo[i], u_hi[i]],
    from one fn call on a (panels x (n_lo + n_hi)) node grid."""
    half = 0.5 * (u_hi - u_lo)
    mid = 0.5 * (u_hi + u_lo)
    x_lo, w_lo = _gl_nodes(n_lo)
    x_hi, w_hi = _gl_nodes(n_hi)
    t = np.exp(mid[:, None] + half[:, None] * np.concatenate([x_lo, x_hi]))
    f = (fn(t.ravel()) * t.ravel()).reshape(t.shape)  # dt = t du
    # one row reduction per panel and rule, the same sum as a single panel's
    v_lo = half * np.sum(w_lo * f[:, :n_lo], axis=1)
    v_hi = half * np.sum(w_hi * f[:, n_lo:], axis=1)
    return v_hi.tolist(), np.abs(v_hi - v_lo).tolist()


def log_quadrature(fn, t_lo: float, t_hi: float, abs_tol: float = 1e-12,
                   n_lo: int = 32, n_hi: int = 48, max_splits: int = 60) -> QuadratureResult:
    """Integrate fn(t) dt over [t_lo, t_hi] on a log axis with a certified bound.

    fn must accept a 1-D numpy array of t values and return the integrand at
    each, elementwise (module docstring): it is called once for the initial
    panels, cut at the integers of ln t (module docstring), and once per
    bisection, on both children's nodes, so a result takes 1 + splits calls.
    The window must be finite: 0 < t_lo < t_hi < inf.  Panels are refined
    (worst-first bisection) until the summed Gauss-Legendre doubling
    discrepancy drops below abs_tol or the split budget is exhausted; the
    achieved bound is always reported, plus a rounding floor of 4 ulps of
    the summed |panel values| that the split test does not see.
    """
    if not (0.0 < t_lo < t_hi < math.inf):
        raise ValueError(f"log_quadrature requires 0 < t_lo < t_hi < inf, "
                         f"got t_lo={t_lo!r}, t_hi={t_hi!r}")
    u_lo, u_hi = math.log(t_lo), math.log(t_hi)
    # the integers of u strictly inside the window (module docstring)
    inner = np.arange(math.floor(u_lo) + 1, math.ceil(u_hi), dtype=float)
    edges = np.concatenate([[u_lo], inner, [u_hi]])
    vals, errs = _panel_pass(fn, edges[:-1], edges[1:], n_lo, n_hi)
    panels = [list(p) for p in zip(edges[:-1].tolist(), edges[1:].tolist(), errs, vals)]

    splits = 0
    while splits < max_splits and sum(p[2] for p in panels) > abs_tol:
        worst = max(range(len(panels)), key=lambda i: panels[i][2])
        a, b, _, _ = panels[worst]
        mid = 0.5 * (a + b)
        vals, errs = _panel_pass(fn, np.array([a, mid]), np.array([mid, b]), n_lo, n_hi)
        panels[worst:worst + 1] = [[a, mid, errs[0], vals[0]], [mid, b, errs[1], vals[1]]]
        splits += 1

    value = math.fsum(p[3] for p in panels)
    floor = 4.0 * _EPS * math.fsum(abs(p[3]) for p in panels)   # not seen by the split test
    bound = math.fsum(p[2] for p in panels) + floor
    return QuadratureResult(value, bound, [(p[0], p[1], p[2]) for p in panels],
                            splits, max_splits)


def _lattice_ceil(t: float) -> float:
    """e^k for the least integer k with e^k >= t > 0: a window end on the
    log-t lattice (module docstring); inf where e^k would overflow."""
    if not t < 1e307:
        return math.inf
    return math.exp(math.ceil(math.log(t)))


def neville_zero(hs, vals) -> tuple[float, float]:
    """Polynomial extrapolation of vals(h) to h = 0 (Neville scheme).

    Returns (extrapolated value, error estimate = size of the last correction).
    """
    hs = [float(h) for h in hs]
    n = len(hs)
    if n < 2:
        raise ValueError("need at least two points to extrapolate")
    # tab[i][j]: degree-j interpolant through points i..i+j evaluated at 0
    col = [float(v) for v in vals]
    diag = [col[0]]
    for level in range(1, n):
        col = [
            (hs[i] * col[i + 1] - hs[i + level] * col[i]) / (hs[i] - hs[i + level])
            for i in range(n - level)
        ]
        diag.append(col[0])
    return diag[-1], abs(diag[-1] - diag[-2])
