"""The one quadrature pass per verifier, over the massless excess E(t) that
every Mellin and heat window integrates, and the log-t lattice on which the
windows of a pass share their panels."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zetasurf import (heat, heat_integral, make_surface, sumtools, verify_anomaly, verify_massless,
                      zeta, zeta_det)
from zetasurf.sumtools import log_quadrature

SPHERE = make_surface("sphere", R=1)
TORUS = make_surface("torus", L1=1.5, L2=0.7)


def _clear_memos():
    heat._MEMO.clear()


_SIDES = st.floats(0.5, 2.0)
_SURFACES = st.lists(
    st.one_of(st.builds(lambda r: make_surface("sphere", R=r), _SIDES),
              st.builds(lambda a, b: make_surface("torus", L1=a, L2=b), _SIDES, _SIDES)),
    min_size=1, max_size=2)


def test_default_windows_end_on_the_lattice(monkeypatch):
    quads = []

    def recording(fn, t_lo, t_hi, abs_tol):
        results = log_quadrature(fn, t_lo, t_hi, abs_tol)
        quads.extend(zip(t_lo, results))
        return results

    monkeypatch.setattr(heat, "log_quadrature", recording)
    monkeypatch.setattr(heat, "_MEMO", {})
    for model in (SPHERE, TORUS, make_surface("torus", L1=1, L2=2)):
        zeta_det(model, 0.0)
        for msq in (0.5, 1.0, 4.0):
            zeta_det(model, msq)
            heat_integral(model, msq)
    assert len(quads) == 3 * (2 + 3 * 3)
    for t_lo, quad in quads:
        edges = quad.profile()["panel_edges"]
        assert edges[0] == math.log(t_lo)
        # F and heat start at the closed form's end e^k; every edge is k / 2^splits
        assert all((e * 2.0 ** quad.splits).is_integer() for e in edges)


@pytest.mark.parametrize("model", [SPHERE, TORUS])
def test_one_pass_per_cold_verifier_and_none_when_repeated(model, monkeypatch):
    monkeypatch.setattr(heat, "_MEMO", {})
    passes, evaluated = [], []   # windows per log_quadrature call, points per E batch
    quadrature, excess_at = heat.log_quadrature, heat._weyl_excess
    monkeypatch.setattr(heat, "log_quadrature",
                        lambda fn, t_lo, *args: passes.append(len(t_lo)) or quadrature(fn, t_lo, *args))
    monkeypatch.setattr(heat, "_weyl_excess",
                        lambda m, t: evaluated.append(t.size) or excess_at(m, t))
    verify_anomaly(model, 0.7, 1.3)
    # F and G at m0^2 + m1^2 and at m0^2, and heat at m0^2, in one pass
    assert passes == [5]
    # the initial panels and the two tail points in one E batch; each later
    # batch is a bisection's nodes alone
    nodes = sumtools._N_LO + sumtools._N_HI
    assert evaluated[0] % nodes == 2 and all(n % nodes == 0 for n in evaluated[1:])
    passes.clear()
    evaluated.clear()
    verify_anomaly(model, 0.7, 1.3)
    assert passes == [] and evaluated == []
    verify_massless(model, 1.0)
    # F and G at each of its 8 masses (one of them det', zero mode removed)
    assert passes == [16]


_RULES = [(32, 48), (12, 18)]


@settings(derandomize=True, max_examples=15, deadline=None)
@given(_SURFACES, st.lists(st.tuples(st.integers(0, 1), st.sampled_from([0.25, 0.5, 1.0, 2.0]),
                                     st.sampled_from([0.0, 0.25, 1.0, 1.75])),
                           min_size=1, max_size=4),
       st.sampled_from(_RULES))
def test_batched_passes_give_the_per_call_values_bit_for_bit(surfaces, calls, rule):
    # each window gets exactly the nodes it would get alone, whatever else
    # shares its pass, so the call order and the memos change no bit
    saved = sumtools._N_LO, sumtools._N_HI
    sumtools._N_LO, sumtools._N_HI = rule
    try:
        calls = [(surfaces[i % len(surfaces)], m0sq, m1sq) for i, m0sq, m1sq in calls]
        alone = []
        for model, m0sq, m1sq in calls:
            row = []
            for quantity in (lambda: zeta_det(model, m0sq + m1sq), lambda: zeta_det(model, m0sq),
                             lambda: heat_integral(model, m0sq)):
                _clear_memos()
                row.append(quantity())
            alone.append(row)
        _clear_memos()
        for (model, m0sq, m1sq), row in zip(calls, alone):
            verify_anomaly(model, m0sq, m1sq)
            assert [zeta_det(model, m0sq + m1sq), zeta_det(model, m0sq),
                    heat_integral(model, m0sq)] == row
    finally:
        sumtools._N_LO, sumtools._N_HI = saved


# spheres R = 0.01..1000 and tori 0.03 x 0.03..40 x 40, at 12 masses from 1e-4
# to 1e6: zeta_det at t* = 0.1, 1 and 3, and heat_integral (384 cases)
_STRESS_SURFACES = ([make_surface("sphere", R=r) for r in (0.01, 1.0, 30.0, 1000.0)]
                    + [make_surface("torus", L1=a, L2=b)
                       for a, b in ((0.03, 0.03), (1.0, 2.0), (0.5, 7.0), (40.0, 40.0))])
_STRESS_MASSES = np.geomspace(1e-4, 1e6, 12).tolist()


def _zeta_at(model, msq, t_star):
    """zeta_det with the split point at t_star, solved from its private job
    (so never remembered), and refused where zeta_det would refuse it."""
    res = heat._solve(model, [zeta._zeta_job(model, msq, t_star)])[0]
    if not res.err_bound <= 1e-8:
        raise ValueError("zeta_det bound exceeds tol")
    return res


def _stress_outcomes(monkeypatch, rule):
    monkeypatch.setattr(sumtools, "_N_LO", rule[0])
    monkeypatch.setattr(sumtools, "_N_HI", rule[1])
    _clear_memos()
    out = []
    for model in _STRESS_SURFACES:
        for msq in _STRESS_MASSES:
            quantities = [lambda ts=ts: _zeta_at(model, msq, ts) for ts in (0.1, 1.0, 3.0)]
            quantities.append(lambda: heat_integral(model, msq))
            for quantity in quantities:
                try:
                    res = quantity()
                except ValueError:
                    out.append(None)
                    continue
                out.append((res.zeta_prime0, res.err_bound) if hasattr(res, "zeta_prime0")
                           else (res.value, res.abs_error_bound))
    return out


def test_panel_rule_agrees_with_a_finer_reference_within_both_bounds(monkeypatch):
    monkeypatch.setattr(heat, "_MEMO", {})
    rule = sumtools._N_LO, sumtools._N_HI
    reference = _stress_outcomes(monkeypatch, (64, 96))
    outcomes = _stress_outcomes(monkeypatch, rule)
    assert len(outcomes) == 384
    for got, ref in zip(outcomes, reference):
        assert (got is None) == (ref is None)   # the same refusals
        if got is not None:
            assert abs(got[0] - ref[0]) <= got[1] + ref[1]
