"""Modified Bessel function K0 with the package's domain check.

The values come from `scipy.special.k0` (Cephes' Chebyshev expansions, peak
relative error about 1e-15), which returns inf or nan outside z > 0.  `k0`
raises ValueError there instead, so a bad argument cannot slip into an image
sum.  It stays a plain Python function rather than the bare ufunc, so that
per-function tracing (perfbench) still sees each call.
"""
from __future__ import annotations

import numpy as np
from scipy.special import k0 as _k0

__all__ = ["k0"]


def k0(z):
    """K0(z) for finite z > 0 (scalar or array)."""
    arr = np.asarray(z, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("k0 requires finite z > 0")
    out = _k0(arr)
    return float(out) if arr.ndim == 0 else out
