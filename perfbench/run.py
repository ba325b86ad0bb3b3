"""zetasurf benchmark: three workloads, timed from outside the package.

    python3 perfbench/run.py --workload {verify-all,mass-sweep,surface-sweep}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; zetasurf is imported from ./src.  Every
round runs in a fresh interpreter (perfbench/worker.py), one at a time, so no
cache carries over from one round to the next.  Rounds start until S seconds
have passed (at least one); setup_s is the median of their set-ups.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced rounds and prints the per-layer metrics (see README.md).  The last
line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 170.0
# a traced round's root span and its wall_s share their clock reads, so its
# layers' self times may differ from wall_s only by rounding
SELF_TIME_TOL_S = 1e-6
OUT_DIR = os.path.join(HERE, "out")

# (metric, span name, field, unit), each the median over the traced rounds
NAME_METRICS = [
    ("sumtools.integrand.busy_s", "sumtools.integrand", "busy_s", "s"),
    ("sumtools.log_quadrature.calls", "sumtools.log_quadrature", "calls", "count"),
    ("sumtools.log_quadrature.panels", "sumtools.log_quadrature", "panels", "count"),
    ("sumtools.log_quadrature.points", "sumtools.integrand", "points", "count"),
    ("sumtools.log_quadrature.self_s", "sumtools.log_quadrature", "self_s", "s"),
    ("zeta.zeta_det.calls", "zeta.zeta_det", "calls", "count"),
    ("zeta.zeta_det.busy_s", "zeta.zeta_det", "busy_s", "s"),
    ("zeta.zeta_det.self_s", "zeta.zeta_det", "self_s", "s"),
    ("zeta.zeta_det.repeat_frac", "zeta.zeta_det", "repeat_frac", "1"),
    ("heat.heat_integral.calls", "heat.heat_integral", "calls", "count"),
    ("heat.heat_integral.busy_s", "heat.heat_integral", "busy_s", "s"),
    ("heat.heat_integral.repeat_frac", "heat.heat_integral", "repeat_frac", "1"),
    ("zeta.laurent_fit.busy_s", "zeta.laurent_fit", "busy_s", "s"),
    ("zeta.dirichlet_trace.calls", "zeta.dirichlet_trace", "calls", "count"),
    ("zeta.dirichlet_trace.busy_s", "zeta.dirichlet_trace", "busy_s", "s"),
    ("anomaly.verify_anomaly.calls", "anomaly.verify_anomaly", "calls", "count"),
    ("anomaly.verify_anomaly.self_s", "anomaly.verify_anomaly", "self_s", "s"),
    ("anomaly.verify_massless.calls", "anomaly.verify_massless", "calls", "count"),
    ("anomaly.verify_massless.self_s", "anomaly.verify_massless", "self_s", "s"),
    ("surfaces.eigen_arrays.calls", "surfaces.eigen_arrays", "calls", "count"),
    ("surfaces.eigen_arrays.busy_s", "surfaces.eigen_arrays", "busy_s", "s"),
    ("green.det2.calls", "green.det2", "calls", "count"),
    ("green.det2.busy_s", "green.det2", "busy_s", "s"),
    ("green.cf_mean.busy_s", "green.cf_mean", "busy_s", "s"),
    ("green.torus_cf_image_sum.calls", "green.torus_cf_image_sum", "calls", "count"),
    ("green.torus_cf_image_sum.busy_s", "green.torus_cf_image_sum", "busy_s", "s"),
    ("bessel.k0.calls", "bessel.k0", "calls", "count"),
    ("bessel.k0.points", "bessel.k0", "points", "count"),
    ("bessel.k0.busy_s", "bessel.k0", "busy_s", "s"),
    ("cli.main.self_s", "cli.main", "self_s", "s"),
]
# every layer's self time; together they add up to the traced wall_s
LAYERS = ("cli", "anomaly", "zeta", "heat", "sumtools", "sumtools.integrand",
          "surfaces", "green", "bessel", "gff", "bench")


def _parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def _median(values):
    return statistics.median(values) if values else 0.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


class Run:
    """Spawns the worker processes of one run and keeps their figures."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.env = dict(os.environ)
        self.env.pop("PYTHONPATH", None)
        self.setups, self.deps, self.pkgs = [], [], []
        self.walls, self.traced_walls, self.op_times, self.rss = [], [], [], []
        self.budgets: list[float] = []
        self.traces: list[dict] = []
        self.threads1_traces: list[dict] = []
        # per traced round: the sum of its layers' self times minus its wall_s
        self.self_time_gaps: list[float] = []
        self.report_bytes = 0
        self.first_report = None
        self.attempted = self.failed = 0
        self.out_path = os.path.join(OUT_DIR, f"verify-all-{os.getpid()}.json")

    def spawn(self, trace: bool, argv=()):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--trace", str(int(trace))]
        if argv:
            cmd += ["--out", self.out_path, "--cli", " ".join(argv)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=self.env,
                              timeout=CHILD_TIMEOUT_S, text=True, check=False)
        elapsed = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"worker exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        self.setups.append(result["ready"] - t0)
        self.deps.append(result["deps_s"])
        self.pkgs.append(result["pkg_s"])
        result["process_s"] = elapsed
        return result

    def _record(self, result, op_times, reasons, budgets, traced, baseline=False):
        """Keep a round's figures; `reasons` holds one line per failed op."""
        if traced:
            layers = result["trace"]["layers"].values()
            self.self_time_gaps.append(sum(v["self_s"] for v in layers) - result["wall_s"])
        if baseline:
            self.threads1_traces.append(result["trace"])
        elif traced:
            self.traced_walls.append(result["wall_s"])
            self.traces.append(result["trace"])
        else:
            self.walls.append(result["wall_s"])
            self.op_times += op_times
            self.rss.append(result["rss_mb"])
        self.budgets += budgets
        self.attempted += len(op_times)
        self.failed += len(reasons)
        for reason in reasons:
            print(f"failed: {reason}", file=sys.stderr)

    def library_round(self, traced=False):
        result = self.spawn(traced)
        self._record(result, result["op_s"], result["failures"], result["budgets"], traced)

    def verify_all_round(self, traced=False, argv=workloads.VERIFY_ALL_ARGV):
        """One `zetasurf verify-all` in a fresh process; its operation time is
        the whole process, as a CLI user pays it.  The --threads 1 round is
        the single-threaded GFF baseline of a traced run: checked and counted,
        not timed."""
        result = self.spawn(traced, argv)
        text = "{}"
        if os.path.exists(self.out_path):
            with open(self.out_path, encoding="utf-8") as fh:
                text = fh.read()
            os.remove(self.out_path)
        report = json.loads(text)
        reasons = checks.check_verify_all(report, result["exit_code"])
        if result["error"]:
            reasons.append(f"cli.main raised {result['error']}")
        # the same report on every invocation, at any --threads
        if self.first_report is None:
            self.first_report = checks.normalized(report)
        elif checks.normalized(report) != self.first_report:
            reasons.append(f"the report of {' '.join(argv)} differs from the first one")
        baseline = argv == workloads.VERIFY_ALL_THREADS1_ARGV
        if not baseline:
            self.report_bytes = len(text.encode("utf-8"))
        self._record(result, [result["process_s"]], ["; ".join(reasons)] if reasons else [],
                     checks.anomaly_budgets(report), traced, baseline)

    def cycle(self, trace: bool):
        """The rounds that repeat until the run's time is up."""
        if self.workload != "verify-all":
            self.library_round()
            if trace:
                self.library_round(traced=True)
            return
        self.verify_all_round()
        if trace:
            self.verify_all_round(traced=True)
            self.verify_all_round(traced=True, argv=workloads.VERIFY_ALL_THREADS1_ARGV)

    # ------------------------------------------------------------- metrics

    def end_to_end(self):
        return {
            "wall_s": _metric(_median(self.walls), "s"),
            "op_p50_s": _metric(_median(self.op_times), "s"),
            "setup_s": _metric(_median(self.setups), "s"),
            "peak_rss_mb": _metric(max(self.rss, default=0.0), "MB"),
            "err_budget_max": _metric(max(self.budgets, default=0.0), "1"),
        }

    def per_layer(self):
        traces = self.traces
        installed = set(traces[0]["installed"])

        def stat(name, field):
            values = []
            for t in traces:
                rec = t["names"].get(name)
                if rec is None:
                    values.append(0)
                elif field == "repeat_frac":
                    values.append(rec["repeats"] / rec["calls"])
                else:
                    values.append(rec[field])
            return _median(values)

        def gff(t):
            recs = [r for n, r in t["names"].items() if n.startswith("gff.")]
            return (t["layers"].get("gff", {}).get("busy_s", 0.0),
                    sum(r["samples"] for r in recs),
                    max((r["max_passes"] for r in recs), default=0))

        metrics = {}
        for metric, name, field, unit in NAME_METRICS:
            if name in installed:  # a function that no longer exists is skipped
                metrics[metric] = _metric(stat(name, field), unit)
        for layer in LAYERS:
            values = [t["layers"].get(layer, {}).get("self_s", 0.0) for t in traces]
            metrics[f"{layer}.self_s"] = _metric(_median(values), "s")
        busy = _median([gff(t)[0] for t in traces])
        samples = _median([gff(t)[1] for t in traces])
        busy1 = _median([gff(t)[0] for t in self.threads1_traces])
        metrics["gff.busy_s"] = _metric(busy, "s")
        metrics["gff.samples"] = _metric(samples, "count")
        metrics["gff.samples_per_s"] = _metric(samples / busy if busy else 0.0, "1/s")
        metrics["gff.stream_passes"] = _metric(max(gff(t)[2] for t in traces), "count")
        metrics["gff.thread_scaling"] = _metric(busy1 / (2.0 * busy) if busy else 0.0, "1")
        metrics["cli.report_bytes"] = _metric(self.report_bytes, "count")
        metrics["setup.deps_import_s"] = _metric(_median(self.deps), "s")
        metrics["setup.pkg_import_s"] = _metric(_median(self.pkgs), "s")
        metrics["trace.overhead_s"] = _metric(
            _median(self.traced_walls) - _median(self.walls), "s")
        return metrics

    def self_times_add_up(self) -> bool:
        """Every traced round's layer self times sum to its measured wall_s,
        as they do unless a span is recorded outside the round's root."""
        return all(abs(gap) <= SELF_TIME_TOL_S for gap in self.self_time_gaps)


def main() -> int:
    args = _parse_args()
    if not os.path.isfile(os.path.join(os.getcwd(), "src", "zetasurf", "__init__.py")):
        print("error: run from the root of a zetasurf checkout (src/zetasurf is missing)",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    run = Run(args.workload, args.seed)
    try:
        start = time.perf_counter()
        run.cycle(bool(args.trace))
        while time.perf_counter() - start < args.seconds:
            run.cycle(bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    correct = run.failed == 0
    if args.trace:
        metrics = run.per_layer()
        if not run.self_times_add_up():
            print("error: traced self times do not add up to the traced wall time",
                  file=sys.stderr)
            correct = False
        trace_file = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({"traces": run.traces, "threads1_traces": run.threads1_traces,
                       "metrics": metrics}, fh, indent=1)
    else:
        metrics = run.end_to_end()
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
