import math

import numpy as np
import pytest

from zetasurf import make_surface
from zetasurf import sumtools
from zetasurf.heat import _rows, _theta, _weyl_excess
from zetasurf.sumtools import _gl_nodes, log_quadrature


def _panel_quad(fn, u_lo, u_hi, n_lo, n_hi):
    """One panel's (value, doubling error), from two fn calls of its own."""
    half = 0.5 * (u_hi - u_lo)
    mid = 0.5 * (u_hi + u_lo)
    vals = []
    for n in (n_lo, n_hi):
        x, w = _gl_nodes(n)
        t = np.exp(mid + half * x)
        vals.append(half * float(np.sum(w * (fn(t) * t))))
    return vals[1], abs(vals[1] - vals[0])


def _per_panel_quadrature(fn, t_lo, t_hi, abs_tol=1e-12):
    """The quadrature evaluated panel by panel: the oracle for the batched pass.
    The initial edges are the integers strictly inside (ln t_lo, ln t_hi) and
    the two ends."""
    n_lo, n_hi = sumtools._N_LO, sumtools._N_HI
    u_lo, u_hi = math.log(t_lo), math.log(t_hi)
    edges = [u_lo] + [float(k) for k in range(math.floor(u_lo) + 1, math.ceil(u_hi))] + [u_hi]
    panels = []
    for a, b in zip(edges[:-1], edges[1:]):
        v, e = _panel_quad(fn, a, b, n_lo, n_hi)
        panels.append([a, b, e, v])
    splits = 0
    while splits < sumtools._MAX_SPLITS and sum(p[2] for p in panels) > abs_tol:
        worst = max(range(len(panels)), key=lambda i: panels[i][2])
        a, b, _, _ = panels[worst]
        mid = 0.5 * (a + b)
        left = _panel_quad(fn, a, mid, n_lo, n_hi)
        right = _panel_quad(fn, mid, b, n_lo, n_hi)
        panels[worst:worst + 1] = [[a, mid, left[1], left[0]], [mid, b, right[1], right[0]]]
        splits += 1
    # the reported bound adds a rounding floor of 4 ulps of the summed |values|
    floor = 4.0 * np.finfo(float).eps * math.fsum(abs(p[3]) for p in panels)
    return (math.fsum(p[3] for p in panels), math.fsum(p[2] for p in panels) + floor,
            [(p[0], p[1]) for p in panels], splits)


def _f_row(model, msq):
    """zeta_det's Mellin F integrand (theta_E - a_{-1}/t - a_0)/t."""
    return lambda t: _rows(model, [("f", msq, 0)], t, _weyl_excess(model, t))[0]


def _counted(fn):
    calls = []

    def wrapped(t):
        calls.append(t.size)
        return fn(t)
    return wrapped, calls


def _check_against_oracle(fn, t_lo, t_hi, **kwargs):
    counted, calls = _counted(fn)
    quad = log_quadrature(counted, t_lo, t_hi, **kwargs)
    value, bound, edges, splits = _per_panel_quadrature(fn, t_lo, t_hi, **kwargs)
    assert len(calls) == 1 + quad.splits
    assert quad.splits == splits
    assert [(a, b) for a, b, _ in quad.panels] == edges
    assert quad.value == pytest.approx(value, rel=1e-15, abs=0.0)
    assert quad.err_bound == pytest.approx(bound, rel=1e-15, abs=0.0)
    return quad, calls


@pytest.mark.parametrize("radius", [0.5, 0.78, 1.0, 2.0])
@pytest.mark.parametrize("msq", [0.0, 0.5, 1.0, 4.0])
def test_batched_passes_match_per_panel_oracle_on_sphere_f(radius, msq):
    model = make_surface("sphere", R=radius)
    _check_against_oracle(_f_row(model, msq), 1e-5, 1.0,
                          abs_tol=1e-12)


@pytest.mark.parametrize("lengths", [(1.0, 1.0), (1.5, 0.7)])
def test_batched_passes_match_per_panel_oracle_on_torus_f_and_g(lengths):
    model = make_surface("torus", L1=lengths[0], L2=lengths[1])
    _check_against_oracle(_f_row(model, 1.0), 1e-5, 1.0, abs_tol=1e-12)
    _check_against_oracle(lambda t: _theta(model, 1.0, t) / t, 1.0, 52.0, abs_tol=1e-12)


def test_batched_passes_match_per_panel_oracle_on_exhausted_budget(monkeypatch):
    monkeypatch.setattr(sumtools, "_MAX_SPLITS", 3)
    quad, calls = _check_against_oracle(np.sqrt, 1e-3, 1.0, abs_tol=1e-300)
    assert quad.splits == 3
    # the 7 initial panels in one call, then both children of each split in one
    nodes = sumtools._N_LO + sumtools._N_HI
    assert calls == [7 * nodes] + [2 * nodes] * 3
