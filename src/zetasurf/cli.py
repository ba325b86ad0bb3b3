"""Command-line front end: parse a surface/mass specification, dispatch the
verifiers, and emit machine-readable reports.

Reports are built from the library verifiers, not derived again here: every
verdict is a verifier's `pass`, and the verify-all `anomaly-grid` rows share
their determinants and heat integrals through the library's memo.

Reports are JSON (default) or a flat CSV projection.  Every float is printed
with 17 significant digits so reports can be diffed against oracles; repeated
invocations with the same flags (including --seed and --threads) produce
byte-identical output apart from the timestamp and runtime_ms fields.

Exit codes: 0 all checks pass, 2 at least one check failed, 1 usage or
validation error.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import math
import os
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .anomaly import verify_anomaly, verify_cf, verify_laurent, verify_massless
from .gff import verify_gff
from .green import cf_mean, det2
from .heat import _window_end, heat_coeffs, heat_integral, heat_trace
from .surfaces import parse_surface
from .zeta import zeta_det

COMMANDS = ("heat-trace", "det-zeta", "det2", "cf", "verify-anomaly",
            "verify-mainlemma", "verify-massless", "gff-verify", "verify-all")


# commands that need a positive --m0, with the message its library check gives
_NEEDS_MASS = {"det2": "m0sq must be positive", "cf": "m0sq must be positive",
               "verify-anomaly": "m0sq must be positive", "verify-mainlemma": "msq must be > 0",
               "gff-verify": "m0 must be positive"}
# commands whose heat or G window ends at e^k >= 52/m^2, with the flag that sets m^2
_WINDOWED = {"det-zeta": "m0", "cf": "m0", "verify-anomaly": "m0", "verify-mainlemma": "m0",
             "verify-massless": "sigma"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ------------------------------------------------------------- JSON with 17g

def _render_json(obj, indent=0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  {_render_json(str(k))}: {_render_json(v, indent + 1)}'
            for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {_render_json(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            return '"%s"' % repr(x)
        return format(x, ".17g")
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        out = out.replace("\n", "\\n").replace("\t", "\\t")
        return f'"{out}"'
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _flatten(prefix, obj, rows):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}.{i}", v, rows)
    else:
        if isinstance(obj, (float, np.floating)):
            obj = format(float(obj), ".17g")
        rows.append((prefix, obj))


def _render_csv(report: dict) -> str:
    rows = []
    _flatten("", report, rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    writer.writerows(rows)
    return buf.getvalue()


def _emit(report: dict, args) -> None:
    text = _render_csv(report) if args.format == "csv" else _render_json(report) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ------------------------------------------------------------------ commands

def _cmd_heat_trace(args) -> tuple[list, bool]:
    model = parse_surface(args.surface)
    msq = args.m0 * args.m0
    ts = args.t if args.t else [2.0 ** -j for j in range(0, 8)]
    coeffs = heat_coeffs(model, msq)
    values = [{"t": t, "theta": heat_trace(model, msq, t)} for t in ts]
    rec = {"check": "heat-trace", "surface": model.label(), "msq": msq,
           "a_minus1": coeffs.a_minus1, "a_0": coeffs.a_0,
           "values": values, "pass": True}
    return [rec], True


def _cmd_det_zeta(args) -> tuple[list, bool]:
    model = parse_surface(args.surface)
    msq = args.m0 * args.m0
    res = zeta_det(model, msq, tol=min(args.tol, 1e-4))
    rec = {"check": "det-zeta", "surface": model.label(), "msq": msq,
           "zeta0": res.zeta0, "zeta_prime0": res.zeta_prime0,
           "det_zeta": res.det_zeta, "err_bound": res.err_bound,
           "excluded_zero_modes": res.excluded_zero_modes, "pass": True}
    return [rec], True


@contextlib.contextmanager
def _names(flag: str):
    """Name the flag in each ValueError: with the masses validated, every one
    left in det2 and gff-verify refuses the spectrum (too few lines, or over
    the size budget), so it names --lambda-max."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _cmd_det2(args) -> tuple[list, bool]:
    model = parse_surface(args.surface)
    with _names("--lambda-max"):
        res = det2(model, args.m0 * args.m0, args.m1 * args.m1, lam_max=args.lambda_max)
    rec = {"check": "det2", "surface": model.label(),
           "m0sq": args.m0 * args.m0, "m1sq": args.m1 * args.m1,
           "lam_max": res.lam_max, "log_value": res.log_value, "value": res.value,
           "truncated_log": res.truncated_log,
           "tail_correction": res.tail_correction, "tail_bound": res.tail_bound,
           "pass": True}
    return [rec], True


def _cmd_cf(args) -> tuple[list, bool]:
    model = parse_surface(args.surface)
    m0sq = args.m0 * args.m0
    heat_part = cf_mean(model, m0sq)
    integral = heat_integral(model, m0sq)
    rec = {"check": "cf", "surface": model.label(), "m0": args.m0,
           "gamma0": heat_part.gamma0, "cf_mean_heat": heat_part.cf_mean,
           "heat_integral": integral.value,
           "heat_integral_bound": integral.abs_error_bound,
           "quadrature_profile": integral.quadrature_profile}
    ok = True   # the sphere has no second route: its record only reports values
    if model.kind == "torus":
        two = verify_cf(model, args.m0)
        ok = two["pass"]
        rec.update({"cf_mean_image": two["cf_image"], "abs_diff": two["abs_diff"],
                    "bound": two["bound"]})
    rec["pass"] = ok
    return [rec], ok


def _cmd_verify_anomaly(args) -> tuple[list, bool]:
    model = parse_surface(args.surface)
    report = verify_anomaly(model, args.m0 * args.m0, args.m1 * args.m1, tol=args.tol)
    return [report.to_dict()], report.passed


def _cmd_verify_mainlemma(args) -> tuple[list, bool]:
    rec = verify_laurent(parse_surface(args.surface), args.m0 * args.m0)
    return [rec], rec["pass"]


def _cmd_verify_massless(args) -> tuple[list, bool]:
    model = parse_surface(args.surface)
    report = verify_massless(model, args.sigma, tol=args.tol)
    return [report.to_dict()], report.passed


def _cmd_gff_verify(args) -> tuple[list, bool]:
    model = parse_surface(args.surface)
    with _names("--lambda-max"):
        rec = verify_gff(model, args.m0, args.m1, args.lambda_max, args.samples,
                         args.seed, args.threads)
    return [rec], rec["pass"]


def _cmd_verify_all(args) -> tuple[list, bool]:
    models = [parse_surface(s) for s in ("sphere:R=1", "torus:L1=1,L2=1", "torus:L1=1,L2=2")]
    sphere, torus11 = models[0], models[1]
    results = []

    # determinant mass-shift identity across the acceptance grid
    for model in models:
        for m0sq in (0.5, 1.0, 4.0):
            for m1sq in (0.0, 1.0, 2.0):
                rep = verify_anomaly(model, m0sq, m1sq, tol=args.tol)
                results.append({
                    "check": "anomaly-grid", "surface": model.label(),
                    "m0sq": m0sq, "m1sq": m1sq, "rel_residual": rep.rel_residual,
                    "error_budget": rep.error_budget,
                    "budget_breakdown": rep.budget_breakdown, "pass": rep.passed,
                })

    results += [verify_laurent(model, 1.0) for model in models]
    results += [verify_cf(torus11, 1.0), verify_massless(sphere, 1.0).to_dict(),
                verify_gff(sphere, 1.0, 1.0, 42.0, args.samples, args.seed, args.threads)]
    return results, all(r["pass"] for r in results)


_DISPATCH = {
    "heat-trace": _cmd_heat_trace,
    "det-zeta": _cmd_det_zeta,
    "det2": _cmd_det2,
    "cf": _cmd_cf,
    "verify-anomaly": _cmd_verify_anomaly,
    "verify-mainlemma": _cmd_verify_mainlemma,
    "verify-massless": _cmd_verify_massless,
    "gff-verify": _cmd_gff_verify,
    "verify-all": _cmd_verify_all,
}


def _default_threads() -> int:
    env = os.environ.get("ZETASURF_THREADS")
    if env is None:
        return os.cpu_count() or 1
    try:
        return int(env)
    except ValueError:
        raise _UsageError(f"ZETASURF_THREADS (the --threads default) must be an "
                          f"integer, got {env!r}") from None


def _build_parser(command: str | None) -> _Parser:
    """Every command's subparser, with options only on `command`'s: the parser
    reads just the command that its first argument names."""
    parser = _Parser(prog="zetasurf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        if name != command:
            continue
        p.add_argument("--surface", default="sphere:R=1",
                       help="sphere:R=<float> or torus:L1=<float>,L2=<float>")
        p.add_argument("--m0", type=float, default=1.0, help="bare mass m0")
        p.add_argument("--m1", type=float, default=0.0, help="mass shift m1")
        p.add_argument("--sigma", type=float, default=1.0)
        p.add_argument("--tol", type=float, default=1e-6)
        p.add_argument("--lambda-max", dest="lambda_max", type=float, default=2e5)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--samples", type=int, default=1000000)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--threads", type=int, default=_default_threads())
        if name == "heat-trace":
            p.add_argument("--t", type=float, action="append", default=None)
        if name == "gff-verify":
            p.set_defaults(lambda_max=42.0, m1=1.0)
    return parser


def _validate_config(args) -> None:
    # fail fast, naming the offending flag, before any computation starts
    for flag in ("m0", "m1", "sigma", "tol", "lambda_max"):
        if not math.isfinite(getattr(args, flag)):
            raise ValueError(f"--{flag.replace('_', '-')} must be finite")
    for flag in ("m0", "m1"):   # the masses enter squared
        if not math.isfinite(getattr(args, flag) * getattr(args, flag)):
            raise ValueError(f"--{flag}: its square must be finite")
    if args.m0 < 0:
        raise ValueError("--m0 must be >= 0")
    if args.m0 > 0 and args.m0 * args.m0 == 0:   # would run as m0 = 0
        raise ValueError(f"--m0={args.m0!r}: its square underflows to 0")
    # m0 = 0 selects the massless trace or primed determinant elsewhere
    if args.command in _NEEDS_MASS and not args.m0 * args.m0 > 0:
        raise ValueError(f"--m0: {_NEEDS_MASS[args.command]}")
    flag = _WINDOWED.get(args.command)
    msq = args.sigma if flag == "sigma" else args.m0 * args.m0
    if flag and msq > 0:   # a tiny mass puts the window end past the float range
        with _names(f"--{flag}"):
            _window_end(msq)
    if args.command == "heat-trace" and args.t:
        if not all(t > 0 and math.isfinite(t) for t in args.t):
            raise ValueError("--t: t must be positive and finite")
    if args.m1 < 0:
        raise ValueError("--m1 must be >= 0")
    if args.sigma <= 0:
        raise ValueError("--sigma must be positive")
    if args.tol <= 0:
        raise ValueError("--tol must be positive")
    if args.lambda_max <= 0:
        raise ValueError("--lambda-max must be positive")
    if args.samples < 1:
        raise ValueError("--samples must be >= 1")
    if args.seed < 0:
        raise ValueError("--seed must be >= 0")
    if args.threads < 1:
        raise ValueError("--threads must be >= 1")


def main(argv=None) -> int:
    t0 = time.perf_counter()
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        args = _build_parser(argv[0] if argv else None).parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        _validate_config(args)
        results, ok = _DISPATCH[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    inputs = {
        "surface": args.surface, "m0": args.m0, "m1": args.m1,
        "sigma": args.sigma, "tol": args.tol, "lambda_max": args.lambda_max,
        "seed": args.seed, "samples": args.samples, "threads": args.threads,
    }
    report = {
        "command": args.command,
        "inputs": inputs,
        "results": results,
        "pass": bool(ok),
        "runtime_ms": int((time.perf_counter() - t0) * 1000),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "version": __version__,
    }
    _emit(report, args)
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
