"""Command-line front end: parse a surface/mass specification, dispatch the
verifiers, and emit machine-readable reports.

Each command accepts only the flags it reads (`_COMMANDS`, plus --out and
--format), and its report's `inputs` holds exactly those.  Reports are built
from the library verifiers, not derived again here: a record carries `pass`
only when a verifier compared two sides, the value records of heat-trace,
det-zeta, det2 and cf on a sphere carry none, and the verify-all
`anomaly-grid` rows share their determinants and heat integrals through the
library's memo.

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

# commands that need a positive --m0, with the message its library check gives
_NEEDS_MASS = {"det2": "m0sq must be positive", "cf": "m0sq must be positive",
               "verify-anomaly": "m0sq must be positive", "verify-mainlemma": "msq must be > 0",
               "gff-verify": "m0 must be positive"}
# commands whose heat or G window ends at e^k >= 52/m^2, with the flag that sets m^2
_WINDOWED = {"det-zeta": "m0", "cf": "m0", "verify-anomaly": "m0", "verify-mainlemma": "m0",
             "verify-massless": "sigma"}
# the least value of each integer flag or mass, and the flags that must be positive
_LEAST = {"m0": 0, "m1": 0, "seed": 0, "samples": 1, "threads": 1}
_POSITIVE = ("sigma", "lambda_max")


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

def _cmd_heat_trace(args) -> list:
    model = parse_surface(args.surface)
    msq = args.m0 * args.m0
    ts = args.t if args.t else [2.0 ** -j for j in range(0, 8)]
    coeffs = heat_coeffs(model, msq)
    values = [{"t": t, "theta": heat_trace(model, msq, t)} for t in ts]
    return [{"check": "heat-trace", "surface": model.label(), "msq": msq,
             "a_minus1": coeffs.a_minus1, "a_0": coeffs.a_0, "values": values}]


@contextlib.contextmanager
def _names(flag: str):
    """Name the flag in each ValueError.  With the masses validated, every one
    left refuses the flag named: zeta_det's refusals are of --tol (out of range,
    or a bound above it), and those of det2 and gff-verify refuse the spectrum
    (too few lines, or over the size budget), so they name --lambda-max."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _cmd_det_zeta(args) -> list:
    model = parse_surface(args.surface)
    msq = args.m0 * args.m0
    with _names("--tol"):
        res = zeta_det(model, msq, tol=args.tol)
    return [{"check": "det-zeta", "surface": model.label(), "msq": msq,
             "zeta0": res.zeta0, "zeta_prime0": res.zeta_prime0,
             "det_zeta": res.det_zeta, "err_bound": res.err_bound,
             "excluded_zero_modes": res.excluded_zero_modes}]


def _cmd_det2(args) -> list:
    model = parse_surface(args.surface)
    with _names("--lambda-max"):
        res = det2(model, args.m0 * args.m0, args.m1 * args.m1, lam_max=args.lambda_max)
    return [{"check": "det2", "surface": model.label(),
             "m0sq": args.m0 * args.m0, "m1sq": args.m1 * args.m1,
             "lam_max": res.lam_max, "log_value": res.log_value, "value": res.value,
             "truncated_log": res.truncated_log,
             "tail_correction": res.tail_correction, "tail_bound": res.tail_bound}]


def _cmd_cf(args) -> list:
    model = parse_surface(args.surface)
    m0sq = args.m0 * args.m0
    heat_part = cf_mean(model, m0sq)
    integral = heat_integral(model, m0sq)
    rec = {"check": "cf", "surface": model.label(), "m0": args.m0,
           "gamma0": heat_part.gamma0, "cf_mean_heat": heat_part.cf_mean,
           "heat_integral": integral.value,
           "heat_integral_bound": integral.abs_error_bound,
           "quadrature_profile": integral.quadrature_profile}
    if model.kind == "torus":   # the sphere has no second route: its record only reports values
        two = verify_cf(model, args.m0)
        rec.update({"cf_mean_image": two["cf_image"], "abs_diff": two["abs_diff"],
                    "bound": two["bound"], "pass": two["pass"]})
    return [rec]


def _cmd_gff_verify(args) -> list:
    model = parse_surface(args.surface)
    with _names("--lambda-max"):
        return [verify_gff(model, args.m0, args.m1, args.lambda_max, args.samples,
                           args.seed, args.threads)]


def _cmd_verify_all(args) -> list:
    models = [parse_surface(s) for s in ("sphere:R=1", "torus:L1=1,L2=1", "torus:L1=1,L2=2")]
    sphere, torus11 = models[0], models[1]
    results = []

    # determinant mass-shift identity across the acceptance grid
    for model in models:
        for m0sq in (0.5, 1.0, 4.0):
            for m1sq in (0.0, 1.0, 2.0):
                rep = verify_anomaly(model, m0sq, m1sq)
                results.append({
                    "check": "anomaly-grid", "surface": model.label(),
                    "m0sq": m0sq, "m1sq": m1sq, "rel_residual": rep.rel_residual,
                    "error_budget": rep.error_budget,
                    "budget_breakdown": rep.budget_breakdown, "pass": rep.passed,
                })

    results += [verify_laurent(model, 1.0) for model in models]
    results += [verify_cf(torus11, 1.0), verify_massless(sphere, 1.0).to_dict(),
                verify_gff(sphere, 1.0, 1.0, 42.0, args.samples, args.seed, args.threads)]
    return results


# each command's runner and the flags it reads, beyond --out and --format
_COMMANDS = {
    "heat-trace": (_cmd_heat_trace, ("surface", "m0", "t")),
    "det-zeta": (_cmd_det_zeta, ("surface", "m0", "tol")),
    "det2": (_cmd_det2, ("surface", "m0", "m1", "lambda_max")),
    "cf": (_cmd_cf, ("surface", "m0")),
    "verify-anomaly": (lambda a: [verify_anomaly(parse_surface(a.surface), a.m0 * a.m0,
                                                 a.m1 * a.m1).to_dict()],
                       ("surface", "m0", "m1")),
    "verify-mainlemma": (lambda a: [verify_laurent(parse_surface(a.surface), a.m0 * a.m0)],
                         ("surface", "m0")),
    "verify-massless": (lambda a: [verify_massless(parse_surface(a.surface), a.sigma).to_dict()],
                        ("surface", "sigma")),
    "gff-verify": (_cmd_gff_verify,
                   ("surface", "m0", "m1", "lambda_max", "seed", "samples", "threads")),
    "verify-all": (_cmd_verify_all, ("seed", "samples", "threads")),
}

_OPTIONS = {
    "surface": dict(default="sphere:R=1",
                    help="sphere:R=<float> or torus:L1=<float>,L2=<float>"),
    "m0": dict(type=float, default=1.0, help="bare mass m0"),
    "m1": dict(type=float, default=0.0, help="mass shift m1"),
    "sigma": dict(type=float, default=1.0),
    "tol": dict(type=float, default=1e-6),
    "lambda_max": dict(type=float, default=2e5),
    "seed": dict(type=int, default=1),
    "samples": dict(type=int, default=1000000),
    "threads": dict(type=int, default=os.cpu_count() or 1),
    "t": dict(type=float, action="append", default=None),
}


def _build_parser(command: str | None) -> _Parser:
    """Every command's subparser, with options only on `command`'s: the parser
    reads just the command that its first argument names.  No abbreviation is
    taken, so a flag the command lacks is refused even where it is the prefix
    of one it has."""
    parser = _Parser(prog="zetasurf", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        if name != command:
            continue
        for flag in flags:
            p.add_argument("--" + flag.replace("_", "-"), dest=flag, **_OPTIONS[flag])
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if name == "gff-verify":
            p.set_defaults(lambda_max=42.0, m1=1.0)
    return parser


def _validate_config(command: str, given: dict) -> None:
    # fail fast, naming the offending flag, before any computation starts; `given`
    # holds only the command's own flags, and --tol's range is zeta_det's to refuse
    for flag, value in given.items():
        name = "--" + flag.replace("_", "-")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
        if flag in ("m0", "m1") and not math.isfinite(value * value):   # they enter squared
            raise ValueError(f"{name}: its square must be finite")
        if flag in _LEAST and value < _LEAST[flag]:
            raise ValueError(f"{name} must be >= {_LEAST[flag]}")
        if flag in _POSITIVE and not value > 0:
            raise ValueError(f"{name} must be positive")
    m0 = given.get("m0", 0.0)
    if m0 > 0 and m0 * m0 == 0:   # would run as m0 = 0
        raise ValueError(f"--m0={m0!r}: its square underflows to 0")
    # m0 = 0 selects the massless trace or primed determinant elsewhere
    if command in _NEEDS_MASS and not m0 * m0 > 0:
        raise ValueError(f"--m0: {_NEEDS_MASS[command]}")
    flag = _WINDOWED.get(command)
    msq = given["sigma"] if flag == "sigma" else m0 * m0
    if flag and msq > 0:   # a tiny mass puts the window end past the float range
        with _names(f"--{flag}"):
            _window_end(msq)
    if given.get("t") and not all(t > 0 and math.isfinite(t) for t in given["t"]):
        raise ValueError("--t: t must be positive and finite")


def main(argv=None) -> int:
    t0 = time.perf_counter()
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        args = _build_parser(argv[0] if argv else None).parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    run, flags = _COMMANDS[args.command]
    inputs = {flag: getattr(args, flag) for flag in flags}
    try:
        _validate_config(args.command, inputs)
        results = run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    ok = all(rec.get("pass", True) for rec in results)   # value records carry no verdict
    report = {
        "command": args.command,
        "inputs": inputs,
        "results": results,
        "pass": ok,
        "runtime_ms": int((time.perf_counter() - t0) * 1000),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "version": __version__,
    }
    _emit(report, args)
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
