"""The per-surface table of the massless excess E(t) that every Mellin and
heat quadrature reads, and the log-t lattice that lets masses share it."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zetasurf import heat, heat_integral, make_surface, zeta, zeta_det
from zetasurf.sumtools import log_quadrature

SPHERE = make_surface("sphere", R=1)
TORUS = make_surface("torus", L1=1.5, L2=0.7)


def _clear_memos():
    zeta._ZETA_MEMO.clear()
    heat._HEAT_MEMO.clear()


def _outcome(model, call, msq):
    """Every number a call reports, or its error message."""
    try:
        if call == "heat_integral":
            res = heat_integral(model, msq)
            return res.value, res.abs_error_bound, res.quadrature_profile
        res = (zeta_det(model, 0.0, exclude_zero_mode=True) if call == "det_prime"
               else zeta_det(model, msq))
        return res.zeta0, res.zeta_prime0, res.err_bound
    except ValueError as exc:
        return str(exc)


_SIDES = st.floats(0.5, 2.0)
_SURFACES = st.lists(
    st.one_of(st.builds(lambda r: make_surface("sphere", R=r), _SIDES),
              st.builds(lambda a, b: make_surface("torus", L1=a, L2=b), _SIDES, _SIDES)),
    min_size=1, max_size=2)
_CALLS = st.lists(st.tuples(st.integers(0, 1),
                            st.sampled_from(["zeta_det", "heat_integral", "det_prime"]),
                            st.floats(0.25, 4.0)),
                  min_size=2, max_size=5)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(_SURFACES, _CALLS)
def test_warm_table_gives_the_cold_values_bit_for_bit(surfaces, calls):
    calls = [(surfaces[i % len(surfaces)], call, msq) for i, call, msq in calls]
    cold = []
    for model, call, msq in calls:
        _clear_memos()
        heat._EXCESS.clear()
        cold.append(_outcome(model, call, msq))
    heat._EXCESS.clear()
    for (model, call, msq), expected in zip(calls, cold):
        _clear_memos()
        assert _outcome(model, call, msq) == expected


@pytest.mark.parametrize("model", [SPHERE, TORUS])
def test_a_new_mass_on_a_warm_surface_computes_only_its_tail_point(model, monkeypatch):
    monkeypatch.setattr(heat, "_EXCESS", {})
    monkeypatch.setattr(zeta, "_ZETA_MEMO", {})
    monkeypatch.setattr(heat, "_HEAT_MEMO", {})
    computed = []
    excess_at = heat._excess_at

    def counted(m, t):
        computed.extend(t.tolist())
        return excess_at(m, t)

    monkeypatch.setattr(heat, "_excess_at", counted)
    zeta_det(model, 0.5)
    heat_integral(model, 0.5)
    nodes = heat._EXCESS[model].shape[1]
    for msq in (1.0, 4.0):
        computed.clear()
        zeta_det(model, msq)
        heat_integral(model, msq)
        # G's and heat's windows and tail points end at e^ceil(ln(52/m^2)); each
        # computes the tail point, and neither stores it
        assert computed == [math.exp(math.ceil(math.log(52.0 / msq)))] * 2
        assert heat._EXCESS[model].shape[1] == nodes


def test_default_windows_end_on_the_lattice(monkeypatch):
    quads = []

    def recording(fn, t_lo, t_hi, **kwargs):
        quad = log_quadrature(fn, t_lo, t_hi, **kwargs)
        quads.append((t_lo, quad))
        return quad

    monkeypatch.setattr(zeta, "log_quadrature", recording)
    monkeypatch.setattr(heat, "log_quadrature", recording)
    monkeypatch.setattr(zeta, "_ZETA_MEMO", {})
    monkeypatch.setattr(heat, "_HEAT_MEMO", {})
    for model in (SPHERE, TORUS, make_surface("torus", L1=1, L2=2)):
        zeta_det(model, 0.0, exclude_zero_mode=True)
        for msq in (0.5, 1.0, 4.0):
            zeta_det(model, msq)
            heat_integral(model, msq)
    assert len(quads) == 3 * (2 + 3 * 3)
    for t_lo, quad in quads:
        edges = quad.profile()["panel_edges"]
        assert edges[0] == math.log(t_lo)
        # F and heat start at the closed form's end e^k; every edge is k / 2^splits
        assert all((e * 2.0 ** quad.splits).is_integer() for e in edges)


def test_table_stays_under_its_cap_and_clearing_keeps_every_value(monkeypatch):
    monkeypatch.setattr(heat, "_EXCESS", {})
    monkeypatch.setattr(heat, "_EXCESS_CAP", 60)
    t = np.geomspace(1e-3, 10.0, 40)
    mixed = np.concatenate([t, np.geomspace(2e-3, 5.0, 10)])
    big = np.geomspace(1e-4, 20.0, 61)
    cold = [heat._weyl_excess(SPHERE, x) for x in (mixed, big)]
    heat._EXCESS.clear()
    heat._weyl_excess(SPHERE, t)
    heat._weyl_excess(TORUS, t[:15])
    # 40 hits and 10 new nodes: 65 > 60, so the torus table goes
    assert heat._weyl_excess(SPHERE, mixed).tolist() == cold[0].tolist()
    assert list(heat._EXCESS) == [SPHERE] and heat._EXCESS[SPHERE][0].size == 50
    # a table that would exceed the cap by itself is not stored
    assert heat._weyl_excess(SPHERE, big).tolist() == cold[1].tolist()
    assert heat._EXCESS == {}
