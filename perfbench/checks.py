"""Correctness checks on the program's outputs, made after the timed work.

An operation fails if it raised, if it reports pass: false, or if an
independent computation from `oracles` disagrees with it by more than the
bound the program reports (or, where it reports none, the tolerance the
program itself applies to that quantity).
"""
from __future__ import annotations

import math

import oracles

# zeta_det raises unless its error bound on zeta'(0) is below this
ZETA_TOL = 1e-8
# heat_integral raises unless its error bound is below this; C_f = I/A + const
HEAT_TOL = 1e-8
# the residue tolerance of the program's own Laurent check (verify-mainlemma)
RESIDUE_TOL = 1e-4
# the K0 kernel is accurate to ~1e-14 relative; the image sums are O(1)
IMAGE_SUM_TOL = 1e-12
# the GFF target is a finite product; both sides sum the same 49 modes
PRODUCT_TOL = 1e-12


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _differs(label, value, reference, tol):
    if not _finite(value, reference) or abs(value - reference) > tol:
        return f"{label}: {value!r} vs independent {reference!r} (allowed {tol:.3g})"
    return None


def _check_anomaly(zs, surface, args, rep):
    if not rep.passed:
        return f"pass false: residual {rep.rel_residual!r}, budget {rep.error_budget!r}"
    if not _finite(rep.lhs, rep.rhs, rep.rel_residual, rep.error_budget):
        return "non-finite anomaly report"
    kind, params = surface
    m0sq, m1sq = args
    msq = m0sq + m1sq
    budget = rep.error_budget
    zp_shift = -math.log(rep.lhs)
    zp_base = -math.log(rep.rhs_factors["det_zeta_m0"])
    if kind == "torus":
        l1, l2 = params["L1"], params["L2"]
        return (_differs("torus zeta'(0) at m0^2+m1^2 (Chowla-Selberg)", zp_shift,
                         oracles.torus_zeta_prime(l1, l2, msq), budget)
                or _differs("torus zeta'(0) at m0^2 (Chowla-Selberg)", zp_base,
                            oracles.torus_zeta_prime(l1, l2, m0sq), budget))
    radius = params["R"]
    rsq = radius * radius
    if abs(m0sq * rsq - 0.25) <= 1e-12:
        bad = _differs("sphere zeta'(0) at m^2 = 1/(4R^2)", zp_base,
                       oracles.sphere_zeta_prime_quarter(radius), budget)
        if bad:
            return bad
    if radius != 1.0:
        # scale law: zeta'_{R}(0; m^2) = zeta'_{1}(0; R^2 m^2) + zeta(0) ln R^2,
        # with zeta(0) = 1/3 - R^2 m^2 on both sides
        unit = zs.zeta_det(zs.make_surface("sphere", R=1.0), rsq * msq)
        scaled = unit.zeta_prime0 + (1.0 / 3.0 - rsq * msq) * math.log(rsq)
        return _differs("sphere scale law for zeta'(0)", zp_shift, scaled,
                        budget + unit.err_bound)
    return None


def _check_massless(surface, rep):
    if not rep.passed:
        return "pass false"
    kind, params = surface
    if kind == "torus":
        reference = oracles.torus_det_prime(params["L1"], params["L2"])
    else:
        reference = oracles.sphere_det_prime(params["R"])
    detprime = rep.limit_check["det_zeta_prime"]
    return _differs("det'_zeta relative to the closed form", detprime / reference, 1.0, ZETA_TOL)


def _area(kind, params) -> float:
    if kind == "sphere":
        return 4.0 * math.pi * params["R"] ** 2
    return params["L1"] * params["L2"]


def _check_call(zs, surface, name, args, out):
    kind, params = surface
    if isinstance(out, Exception):
        return f"raised {type(out).__name__}: {out}"
    if name == "verify_anomaly":
        return _check_anomaly(zs, surface, args, out)
    if name == "verify_massless":
        return _check_massless(surface, out)
    if name == "laurent_fit":
        return _differs("Laurent residue vs A/4pi", out.residue,
                        oracles.residue(_area(kind, params)), RESIDUE_TOL)
    if name == "cf_mean":
        reference = oracles.torus_cf(params["L1"], params["L2"], math.sqrt(args[0]))
        return _differs("C_f heat route vs K0 image sum", out.cf_mean, reference,
                        HEAT_TOL / _area(kind, params))
    if name == "torus_cf_image_sum":
        return _differs("C_f image sum vs scipy K0 image sum", out.cf_mean,
                        oracles.torus_cf(*args), IMAGE_SUM_TOL)
    return "no check for this call"


def check_library_op(zs, op, outs):
    """None if every call of the operation holds up, else a one-line reason."""
    for (name, args), out in zip(op["calls"], outs):
        bad = _check_call(zs, op["surface"], name, args, out)
        if bad:
            return f"{name} on {op['surface'][0]} {op['surface'][1]} {args}: {bad}"
    return None


# ------------------------------------------------------------- verify-all

def _parse_surface(label: str):
    kind, _, rest = label.partition(":")
    params = {}
    for item in rest.split(","):
        key, _, value = item.partition("=")
        params[key] = float(value)
    return kind, params


def normalized(report: dict) -> dict:
    """The report without the fields that may differ between identical runs:
    timestamp, runtime_ms (at any depth) and inputs.threads."""

    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items() if k not in ("timestamp", "runtime_ms")}
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj

    out = strip(report)
    out.get("inputs", {}).pop("threads", None)
    return out


def _sphere_gff_target(radius, m0, m1, lam_max):
    terms = []
    k = 0
    while k * (k + 1) / radius ** 2 <= lam_max:
        x = m1 * m1 / (m0 * m0 + k * (k + 1) / radius ** 2)
        terms.append((2 * k + 1) * (math.log1p(x) - x))
        k += 1
    return math.exp(-0.5 * math.fsum(terms))


def _check_record(rec):
    check = rec.get("check", rec.get("identity"))
    if rec.get("pass") is not True:
        return f"{check}: pass is not true"
    if check == "mainlemma-laurent":
        kind, params = _parse_surface(rec["surface"])
        return _differs(f"residue on {rec['surface']}", rec["residue_fit"],
                        oracles.residue(_area(kind, params)), RESIDUE_TOL)
    if check == "cf-two-oracle":
        kind, params = _parse_surface(rec["surface"])
        reference = oracles.torus_cf(params["L1"], params["L2"], 1.0)
        return (_differs("cf_image", rec["cf_image"], reference, IMAGE_SUM_TOL)
                or _differs("cf_heat", rec["cf_heat"], reference,
                            HEAT_TOL / _area(kind, params)))
    if check == "massless-limit":
        kind, params = _parse_surface(rec["inputs"]["surface"])
        if kind == "sphere":
            ratio = rec["limit_check"]["det_zeta_prime"] / oracles.sphere_det_prime(params["R"])
            return _differs("sphere det'_zeta relative to exp(1/2 - 4 zeta'(-1))",
                            ratio, 1.0, ZETA_TOL)
    if check == "gff-measure-identity":
        kind, params = _parse_surface(rec["surface"])
        if kind == "sphere":
            reference = _sphere_gff_target(params["R"], rec["m0"], rec["m1"], rec["lam_max"])
            return _differs("GFF truncated-product target", rec["target"] / reference,
                            1.0, PRODUCT_TOL)
    return None


def check_verify_all(report: dict, exit_code: int) -> list[str]:
    """Reasons the verify-all report does not hold up (empty if it does)."""
    failures = []
    if exit_code != 0 or report.get("pass") is not True:
        failures.append(f"exit code {exit_code}, pass {report.get('pass')!r}")
    for rec in report.get("results", []):
        bad = _check_record(rec)
        if bad:
            failures.append(bad)
    return failures


def anomaly_budgets(report: dict) -> list[float]:
    return [rec["error_budget"] for rec in report.get("results", [])
            if rec.get("check") == "anomaly-grid"]
