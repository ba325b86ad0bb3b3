"""Shared numerical plumbing: stable summation, certified log-axis quadrature,
and polynomial extrapolation.

All spectral sums in this package go through compensated (exact) or pairwise
summation so that 1e-8-level tolerances are not eaten by rounding drift in
long sums.  The quadrature engine integrates smooth integrands on (0, inf)
after the substitution u = ln t, with a per-panel Gauss-Legendre doubling
test that yields an explicit error bound: each panel's value is its 18-node
sum and its error the distance to its 12-node sum (_N_HI, _N_LO).

Integrand contract.  `log_quadrature` hands its integrand every node of a
pass at once: the initial partition in one call, then both children of each
bisection in one call.  The integrand must therefore be elementwise in t: its
value at a node may not depend on which other nodes share the batch.  With
that, each panel's two Gauss-Legendre sums are row reductions of the same
products as a panel-by-panel evaluation, and the per-call overhead is paid
once per pass, not once per panel and rule.  Several windows, each with its
own tolerance, share the passes: the integrand returns one row per window,
the first pass evaluates the union of their initial panels, keyed by their
exact ends, and each later pass the children of every unconverged window's
worst panel.  A window so gets exactly the panels, nodes and values it
would get alone; one window is the case of one row.

Log-t lattice.  The initial panels of a window [t_lo, t_hi] end at the
integers of u = ln t strictly inside (ln t_lo, ln t_hi) and at the window's
two ends, so no panel is wider than 1.  A panel [k, k + 1] has the same nodes,
bit for bit, in every window that contains it, and so do its bisections.
Windows that end on the lattice (`_lattice_ceil`) therefore share panels,
and a pass over several of them evaluates each shared panel once, for
every window's row.
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


# Gauss-Legendre nodes per panel: the value is the _N_HI rule, its error
# estimate the difference from the _N_LO rule
_N_LO, _N_HI = 12, 18


def _panel_pass(fn, rows: int, u_lo: np.ndarray, u_hi: np.ndarray):
    """(rows x panels) lists of the values and doubling errors of the panels
    [u_lo[i], u_hi[i]] under each row of fn, from one fn call on a
    (panels x (_N_LO + _N_HI)) node grid."""
    half = 0.5 * (u_hi - u_lo)
    mid = 0.5 * (u_hi + u_lo)
    x_lo, w_lo = _gl_nodes(_N_LO)
    x_hi, w_hi = _gl_nodes(_N_HI)
    t = np.exp(mid[:, None] + half[:, None] * np.concatenate([x_lo, x_hi]))
    f = np.reshape(fn(t.ravel()), (rows,) + t.shape) * t   # dt = t du
    # one row reduction per panel, rule and row: the same sum as a single panel's
    v_lo = half * np.sum(w_lo * f[..., :_N_LO], axis=-1)
    v_hi = half * np.sum(w_hi * f[..., _N_LO:], axis=-1)
    return v_hi.T.tolist(), np.abs(v_hi - v_lo).T.tolist()


def log_quadrature(fn, t_lo, t_hi, abs_tol=1e-12, max_splits: int = 60):
    """Integrate fn(t) dt over [t_lo, t_hi] on a log axis with a certified bound.

    fn takes a 1-D array of t and returns the integrand at each, elementwise;
    t_lo, t_hi and abs_tol may be sequences, one entry per window, and then fn
    returns one row per window and a list of results comes back (module
    docstring).  A window takes 1 + splits calls, and must be finite:
    0 < t_lo < t_hi < inf.  Its panels, first cut at the integers of ln t, are
    bisected worst first until the summed doubling discrepancy drops below
    its abs_tol or the split budget is spent; the achieved bound is reported,
    plus a rounding floor of 4 ulps of the summed |panel values| that the
    split test does not see.
    """
    los, his = np.atleast_1d(t_lo).tolist(), np.atleast_1d(t_hi).tolist()
    tols = np.atleast_1d(abs_tol).tolist() * (1 if np.ndim(abs_tol) else len(los))
    done: dict[tuple, tuple] = {}   # (u_lo, u_hi) -> (values, errors), one per window

    def evaluate(keys):   # one fn call on the panels not evaluated yet
        new = list(dict.fromkeys(k for k in keys if k not in done))
        if new:
            ends = np.array(new)
            done.update(zip(new, zip(*_panel_pass(fn, len(los), ends[:, 0], ends[:, 1]))))

    windows = []   # each window's panels, in order
    for a, b in zip(los, his):
        if not (0.0 < a < b < math.inf):
            raise ValueError(f"log_quadrature requires 0 < t_lo < t_hi < inf, "
                             f"got t_lo={a!r}, t_hi={b!r}")
        u_lo, u_hi = math.log(a), math.log(b)
        # the integers of u strictly inside the window (module docstring)
        edges = [u_lo, *map(float, range(math.floor(u_lo) + 1, math.ceil(u_hi))), u_hi]
        windows.append(list(zip(edges[:-1], edges[1:])))
    evaluate([key for keys in windows for key in keys])
    splits = [0] * len(los)
    while worst := {i: max(range(len(keys)), key=lambda j: done[keys[j]][1][i])
                    for i, keys in enumerate(windows)
                    if splits[i] < max_splits and sum(done[k][1][i] for k in keys) > tols[i]}:
        for i, j in worst.items():
            a, b = windows[i][j]
            windows[i][j:j + 1] = [(a, 0.5 * (a + b)), (0.5 * (a + b), b)]
            splits[i] += 1
        evaluate([key for i, j in worst.items() for key in windows[i][j:j + 2]])

    results = []
    for i, keys in enumerate(windows):
        vals, errs = [done[k][0][i] for k in keys], [done[k][1][i] for k in keys]
        floor = 4.0 * _EPS * math.fsum(map(abs, vals))   # not seen by the split test
        results.append(QuadratureResult(math.fsum(vals), math.fsum(errs) + floor,
                                        [(*k, e) for k, e in zip(keys, errs)], splits[i], max_splits))
    return results[0] if np.ndim(t_lo) == 0 else results


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
