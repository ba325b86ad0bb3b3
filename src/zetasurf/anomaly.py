"""Assembles the regularization-consistency identities from independently
computed pieces and reports residuals with propagated error budgets.

Headline check (mass-shift anomaly): with m^2 = m0^2 + m1^2,

    det_zeta(Delta + m^2)
      = det_zeta(Delta + m0^2) * det_2(1 + m1^2 C) * exp(m1^2 I),

where I is the resolvent-trace finite part (`heat.heat_integral`).  The three
right-hand factors come from three algorithmically independent pipelines:
Mellin quadrature, eigenvalue products, and the heat integral.

The identity holds when the relative residual of the two sides is within the
error budget: the sum of the two determinants' bounds, det_2's tail bound and
m1^2 times the heat integral's bound.  No tolerance enters.

Massless checks: det_zeta(m0^2 + Delta)/m0^2 -> det'_zeta(Delta) as m0 -> 0,
within four times the Richardson extrapolation error;
the prefactor algebra (m/m0)^{sigma A/4 pi} exp(sigma gamma0(m0) A/2)
= (m e^gamma_E / 4)^{sigma A/4 pi}, exact in the logs and checked there to
their rounding; and continuity of the determinant in the mass with slope
given by the Dirichlet-trace finite part.
The /2 exponent assembly is the one consistent with the prefactor identity;
the report carries a note quantifying the alternative exp(sigma gamma0 A)
assembly so the discrepancy between the two stays visible.

Laurent structure (`verify_laurent`): tr C^{s+1} has the Weyl residue A/4 pi
and the finite part `heat_integral`.  C_f (`verify_cf`): on a torus the heat
route and the image sum agree within their two bounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .green import cf_mean, det2, gamma0, torus_cf_image_sum
from .heat import _check_mass, _exp, _heat_job, _remembered, heat_integral
from .sumtools import _EPS, neville_zero
from .surfaces import SurfaceModel
from .zeta import _zeta_job, laurent_fit, zeta_det

__all__ = [
    "AnomalyReport",
    "MasslessReport",
    "verify_anomaly",
    "mass_shift_prefactor",
    "verify_massless",
    "verify_laurent",
    "verify_cf",
]

_EULER = float(np.euler_gamma)
_FOUR_PI = 4.0 * math.pi
_M0_SEQUENCE = (0.2, 0.1, 0.05)   # verify_massless' decreasing masses m0


@dataclass(frozen=True)
class AnomalyReport:
    lhs: float
    rhs_factors: dict
    rhs: float
    rel_residual: float
    error_budget: float
    inputs: dict
    passed: bool
    budget_breakdown: dict = field(default_factory=dict)  # error_budget's terms

    def to_dict(self) -> dict:
        return {
            "identity": "mass-shift-anomaly",
            "inputs": self.inputs,
            "lhs": self.lhs,
            "rhs_factors": self.rhs_factors,
            "rhs": self.rhs,
            "rel_residual": self.rel_residual,
            "error_budget": self.error_budget,
            "budget_breakdown": self.budget_breakdown,
            "pass": self.passed,
        }


def verify_anomaly(model: SurfaceModel, m0sq: float, m1sq: float) -> AnomalyReport:
    """Check the determinant mass-shift identity at (m0^2, m1^2) inside its
    error budget; the determinants and heat integral that the memo lacks take
    one pass."""
    _check_mass("m0sq", m0sq)
    _check_mass("m1sq", m1sq, positive=False)
    _remembered(model, [(_zeta_job, m0sq + m1sq), (_zeta_job, m0sq), (_heat_job, m0sq)])
    z_shift = zeta_det(model, m0sq + m1sq)
    z_base = zeta_det(model, m0sq)
    d2 = det2(model, m0sq, m1sq)
    integral = heat_integral(model, m0sq)
    cf_log = m1sq * integral.value
    log_rhs = -z_base.zeta_prime0 + d2.log_value + cf_log
    factors = {
        "det_zeta_m0": z_base.det_zeta,
        "det2": d2.value,
        "log_det2": d2.log_value,   # det2 underflows to 0 below about -745
        "exp_cf_term": _exp(cf_log),
    }
    rhs = factors["det_zeta_m0"] * factors["det2"] * factors["exp_cf_term"]
    if not math.isfinite(rhs):   # inf * 0: the factors overflow, not their product
        rhs = _exp(log_rhs)
    lhs = z_shift.det_zeta
    # compared in log space: at small m0 the exp(m1^2 I) factor alone overflows
    rel_residual = abs(_exp(-z_shift.zeta_prime0 - log_rhs, math.expm1))
    breakdown = {
        "z_shift": z_shift.err_bound,                   # zeta_det at m0^2 + m1^2
        "z_base": z_base.err_bound,                     # zeta_det at m0^2
        "det2_tail": d2.tail_bound,
        "m1sq_heat": m1sq * integral.abs_error_bound,   # m1^2 times heat_integral's bound
    }
    budget = math.fsum(breakdown.values())
    return AnomalyReport(
        lhs=lhs, rhs_factors=factors, rhs=rhs, rel_residual=rel_residual,
        error_budget=budget, budget_breakdown=breakdown,
        inputs={"surface": model.label(), "m0sq": m0sq, "m1sq": m1sq},
        passed=bool(math.isfinite(rel_residual) and rel_residual <= budget),
    )


def mass_shift_prefactor(model: SurfaceModel, m0: float, m1sq: float) -> float:
    """exp(m1^2 gamma0(m0) A / 2) = exp((A/4 pi) m1^2 (ln(m0/4) + gamma_E))."""
    _check_mass("m1sq", m1sq, positive=False)
    return math.exp(0.5 * m1sq * gamma0(m0) * model.area)


@dataclass(frozen=True)
class MasslessReport:
    limit_check: dict
    prefactor_check: dict
    continuity_check: dict
    note: str
    passed: bool
    inputs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "identity": "massless-limit",
            "inputs": self.inputs,
            "limit_check": self.limit_check,
            "prefactor_check": self.prefactor_check,
            "continuity_check": self.continuity_check,
            "note": self.note,
            "pass": self.passed,
        }


def verify_massless(model: SurfaceModel, sigma: float) -> MasslessReport:
    """Three separately falsifiable massless checks (module docstring), at _M0_SEQUENCE."""
    _check_mass("sigma", sigma)
    seq = list(_M0_SEQUENCE)

    # (i) det_zeta(m0^2 + Delta)/m0^2 -> det'_zeta(Delta), Richardson in m0^2
    hs = [m * m for m in seq]
    _remembered(model, [(_zeta_job, msq) for msq in (*hs, 0.0, sigma, *(sigma + h for h in hs))])
    ratios = [zeta_det(model, h).det_zeta / h for h in hs]
    extrap, extrap_err = neville_zero(hs, ratios)
    detprime = zeta_det(model, 0.0).det_zeta
    limit_check = {
        "m0_sequence": seq,
        "ratios": ratios,
        "extrapolated": extrap,
        "det_zeta_prime": detprime,
        "extrapolation_err": extrap_err,
        "abs_diff": abs(extrap - detprime),
        "pass": bool(abs(extrap - detprime) <= 4.0 * extrap_err),
    }

    # (ii) exact prefactor algebra at m = sqrt(sigma), in logs and to their rounding (8 ulps
    # of each term and of expo per log): (m/m0)^expo exp(sigma gamma0(m0) A/2) = (m e^gamma/4)^expo
    m = math.sqrt(sigma)
    expo = sigma * model.area / _FOUR_PI
    worst = rounding = 0.0
    for m0 in seq:
        terms = (expo * math.log(m / m0), 0.5 * sigma * gamma0(m0) * model.area,
                 -expo * math.log(0.25 * m), -expo * _EULER)
        worst = max(worst, abs(math.expm1(math.fsum(terms))))
        rounding = max(rounding, 8.0 * _EPS * (math.fsum(map(abs, terms)) + 3.0 * expo))
    prefactor_check = {"m": m, "max_rel_diff": worst, "pass": bool(worst <= rounding)}

    # (iii) d/dm^2 ln det_zeta at m^2 = sigma equals the trace finite part
    base = zeta_det(model, sigma).zeta_prime0
    slopes = [(base - zeta_det(model, sigma + h).zeta_prime0) / h for h in hs]
    slope, slope_err = neville_zero(hs, slopes)
    fit = laurent_fit(model, sigma)
    rel = abs(slope / fit.finite_part - 1.0)
    continuity_check = {
        "slopes": slopes,
        "slope_extrapolated": slope,
        "slope_err": slope_err,
        "dirichlet_finite_part": fit.finite_part,
        "rel_diff": rel,
        "pass": bool(rel <= 1e-2),
    }

    # the ratio exp(sigma gamma0 A)/used is used itself, which may underflow to 0
    alt = math.exp(sigma * gamma0(seq[0]) * model.area)
    used = mass_shift_prefactor(model, seq[0], sigma)
    note = (
        "prefactor assembly uses exp(sigma*gamma0*A/2) = {:.17g} at m0 = {:g}; "
        "the exp(sigma*gamma0*A) variant would give {:.17g} (ratio {:.17g}) and is "
        "inconsistent with the exact prefactor identity of check (ii)"
    ).format(used, seq[0], alt, used)

    passed = bool(limit_check["pass"] and prefactor_check["pass"] and continuity_check["pass"])
    return MasslessReport(
        limit_check=limit_check, prefactor_check=prefactor_check,
        continuity_check=continuity_check, note=note, passed=passed,
        inputs={"surface": model.label(), "sigma": sigma, "m0_sequence": seq},
    )


def verify_laurent(model: SurfaceModel, m0sq: float) -> dict:
    """The Laurent record of tr C^{s+1} at m0^2: the fitted residue equals the
    Weyl residue A/4 pi to 4 ulps, and the fitted finite part `heat_integral`
    within the sum of their bounds."""
    fit = laurent_fit(model, m0sq)
    integral = heat_integral(model, m0sq)
    weyl = model.area / _FOUR_PI
    finite_diff = abs(fit.finite_part - integral.value)
    return {
        "check": "mainlemma-laurent",
        "surface": model.label(), "m0sq": m0sq,
        "residue_fit": fit.residue, "residue_weyl": weyl,
        "finite_part_fit": fit.finite_part, "finite_part_bound": fit.err_bound,
        "heat_integral": integral.value, "heat_integral_bound": integral.abs_error_bound,
        "finite_part_abs_diff": finite_diff,
        "pass": bool(abs(fit.residue - weyl) <= 4.0 * _EPS * weyl
                     and finite_diff <= fit.err_bound + integral.abs_error_bound),
    }


def verify_cf(model: SurfaceModel, m0: float) -> dict:
    """The two-oracle C_f record on a torus at mass m0: the heat route and the
    image sum differ by at most the sum of their err_bounds."""
    if model.kind != "torus":
        raise ValueError(f"verify_cf needs a torus (the image sum's surface), got {model.label()}")
    heat_part = cf_mean(model, m0 * m0)
    image = torus_cf_image_sum(model.l1, model.l2, m0)
    diff, bound = abs(heat_part.cf_mean - image.cf_mean), heat_part.err_bound + image.err_bound
    return {
        "check": "cf-two-oracle", "surface": model.label(),
        "cf_heat": heat_part.cf_mean, "cf_image": image.cf_mean, "abs_diff": diff,
        "bound": bound, "pass": bool(diff <= bound),
    }
