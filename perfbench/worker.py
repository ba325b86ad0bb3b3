"""One round of a workload in a fresh interpreter; run by perfbench/run.py.

    python3 perfbench/worker.py --workload W --seed S [--trace 0|1]
                                [--cli "ARGS"] [--out PATH]

The process imports zetasurf from ./src, builds the workload's inputs and
runs them once.  Its last line of output is one JSON object with
the monotonic clock reading at which set-up ended (the parent takes the
difference to its own spawn time; on Linux perf_counter is CLOCK_MONOTONIC,
which all processes share), the timed figures, and the outcome of the
correctness checks, which run after the timed block and outside its spans.
"""
import argparse
import importlib
import json
import os
import resource
import sys
import time

import workloads


def _parse_args():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cli", default=" ".join(workloads.VERIFY_ALL_ARGV),
                        help="zetasurf command line for verify-all, space-separated")
    parser.add_argument("--out", default=None)
    return parser.parse_args()


def _import_program(src: str, with_cli: bool):
    """Import numpy and scipy, then zetasurf from src; return the timings."""
    t0 = time.perf_counter()
    importlib.import_module("numpy")
    importlib.import_module("scipy.special")
    t1 = time.perf_counter()
    sys.path.insert(0, src)
    zs = importlib.import_module("zetasurf")
    if with_cli:
        importlib.import_module("zetasurf.cli")
    t2 = time.perf_counter()
    return zs, t1 - t0, t2 - t1


def _build_models(zs, ops):
    models = {}
    for op in ops:
        kind, params = op["surface"]
        key = (kind, tuple(sorted(params.items())))
        if key not in models:
            models[key] = zs.make_surface(kind, **params)
        op["model"] = models[key]
    return ops


def _run_op(zs, op):
    """The op's calls in order; a raising call ends the op with its exception."""
    outs = []
    for name, args in op["calls"]:
        fn = getattr(zs, name)
        try:
            outs.append(fn(*args) if name == "torus_cf_image_sum" else fn(op["model"], *args))
        except Exception as exc:  # a raising call is a failed operation
            outs.append(exc)
            break
    return outs


def _library_round(zs, ops, tracer):
    """Time each operation; return (wall, durations, outputs)."""
    durations, outputs = [], []
    clock = time.perf_counter
    with tracer.root("bench.round") as times:
        for op in ops:
            a = clock()
            outputs.append(_run_op(zs, op))
            durations.append(clock() - a)
    return times[1] - times[0], durations, outputs


def _cli_round(zs, argv, out_path, tracer):
    """Time cli.main; return (wall, exit code, error).  A raising main is a
    failed operation, reported with exit code -1."""
    code, error = -1, None
    with tracer.root("bench.round") as times:
        try:
            code = zs.cli.main(list(argv) + ["--out", out_path])
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
    return times[1] - times[0], code, error


def main() -> int:
    args = _parse_args()
    src = os.path.join(os.getcwd(), "src")
    zs, deps_s, pkg_s = _import_program(src, args.workload == "verify-all")
    if not os.path.abspath(zs.__file__).startswith(src + os.sep):
        print(f"error: zetasurf was imported from {zs.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    ops = None
    if args.workload != "verify-all":
        ops = _build_models(zs, workloads.library_ops(args.workload, args.seed))
    result = {"ready": time.perf_counter(), "deps_s": deps_s, "pkg_s": pkg_s}

    # the harness's own modules load after set-up has been timed
    import tracer as tracing

    tracer = tracing.Tracer()
    installed = []
    if args.trace:
        importlib.import_module("zetasurf.cli")  # so every module is wrapped alike
        installed = tracing.install(tracer)
    tracer.recording = bool(args.trace)
    if ops is None:
        wall, code, error = _cli_round(zs, args.cli.split(), args.out, tracer)
        result.update(wall_s=wall, exit_code=code, error=error)
    else:
        wall, durations, results = _library_round(zs, ops, tracer)
        result.update(wall_s=wall, op_s=durations)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.recording = False
    if args.trace:
        result["trace"] = tracing.summary(tracer.spans)
        result["trace"]["installed"] = installed
    if ops is not None:
        import checks

        failures = [checks.check_library_op(zs, op, outs) for op, outs in zip(ops, results)]
        result["failures"] = [f for f in failures if f]
        result["budgets"] = [out.error_budget for outs in results for out in outs
                             if isinstance(out, zs.AnomalyReport)]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
