"""Outside-in benchmark of the voroderiv CLI.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 40 --trace 0

Runs the workload's instances (one in-process `voroderiv.cli.main` call
each, see workloads.py) in passes until `--seconds` have elapsed, checks
every output, and prints as its last line one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The line before it is a
JSON record of the run: seed, environment, pass times and per-instance
outcomes; the same record is written under `.perfbench/results/`.

With `--trace 0` the metrics are the end-to-end metrics of
BENCHMARK.json, measured with tracing off; times are built from each
instance's fastest call in the run (see `fastest`).  With `--trace 1`
passes alternate between untraced and traced (see spans.py), and the
metrics are the per-layer numbers of one traced pass.  Load is one
process with one thread; each workload runs in its own process, so
`peak_rss_mb` belongs to that workload.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import benchenv

HERE = Path(__file__).resolve().parent
WORKLOADS = ("ladder", "grid_l1")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 150


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def measure_setup(args, work):
    """Median wall time of fresh set-ups, each in its own interpreter."""
    times = []
    for k in range(SETUP_REPEATS):
        probe_dir = work / f"setup_{k}"
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), args.workload,
             str(args.seed), str(probe_dir)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        shutil.rmtree(probe_dir, ignore_errors=True)
    return times


def run_pass(instances, work, tracer=None):
    """All instances once, each with its check; returns their outcomes."""
    import workloads  # only after benchenv.bootstrap(), like every numpy user

    outcomes = []
    for inst in instances:
        if tracer is not None:
            before = tracer.snapshot()
        outcome = workloads.run_instance(inst, work)
        if tracer is not None:
            outcome["layers"] = _instance_layers(before, tracer.snapshot())
        outcomes.append(outcome)
    return outcomes


def fastest(passes):
    """Per instance, the fastest call and the fastest call-plus-check.

    The host's speed drifts: a fixed pure-Python loop has run 2.2 times
    slower for several seconds at a time.  A median over a run's passes
    moves with such episodes; the fastest of an instance's calls, each
    made in a different pass, does not, unless every pass was slowed.
    """
    best = {}
    for outcomes in passes:
        for o in outcomes:
            call, checked = best.get(o["slot"], (math.inf, math.inf))
            best[o["slot"]] = (min(call, o["seconds"]), min(checked, o["checked_s"]))
    return best


def _instance_layers(before, after):
    """Solver counters of one instance: the change between two snapshots."""
    (s0, c0), (s1, c1) = before, after
    seconds = {k: s1.get(k, 0.0) - s0.get(k, 0.0)
               for k in ("rootfind.solve", "rootfind.solve_extended")}
    counts = {k: c1.get(k, 0) - c0.get(k, 0)
              for k in ("rootfind.sweeps", "rootfind.retries", "rootfind.noconv",
                        "evaluator.changed", "evaluator.compared",
                        "rational.nonfinite_coeffs", "cli.escalations")}
    compared = counts["evaluator.compared"]
    counts["active_fraction"] = (counts["evaluator.changed"] / compared
                                 if compared else None)
    return {**seconds, **counts}


def layer_metrics(tracer, passes, overhead):
    """Per-layer metrics of one traced pass, from the tracer's totals."""
    s, own, calls, c = tracer.seconds, tracer.self_seconds, tracer.calls, tracer.counts

    def per(v):
        return v / passes

    def ratio(a, b):
        return a / b if b else None

    table = [
        # name, unit, wrapped targets it needs, value
        ("rootfind.sweep_s", "s", ("rootfind.solve",),
         lambda: per(s["rootfind.solve"] - s["rootfind.solve.evaluator"])),
        ("rootfind.solve_s", "s", ("rootfind.solve",), lambda: per(s["rootfind.solve"])),
        ("rootfind.sweeps", "count", ("rootfind.solve",), lambda: per(c["rootfind.sweeps"])),
        ("rootfind.active_fraction", "ratio", ("rational.evaluator", "lemniscate.evaluator"),
         lambda: ratio(c["evaluator.changed"], c["evaluator.compared"])),
        ("rootfind.retries", "count", ("rootfind.solve",), lambda: per(c["rootfind.retries"])),
        ("rootfind.first_try_ratio", "ratio", ("rootfind.solve",),
         lambda: ratio(calls["rootfind.solve"] - c["rootfind.retries"],
                       calls["rootfind.solve"])),
        ("rootfind.noconv", "count", ("rootfind.solve",), lambda: per(c["rootfind.noconv"])),
        ("rootfind.solve_extended_s", "s", ("rootfind.solve",),
         lambda: per(s["rootfind.solve_extended"])),
        ("rational.evaluator_s", "s", ("rational.evaluator",),
         lambda: per(s["rational.evaluator"])),
        ("rational.evaluator_points", "count", ("rational.evaluator",),
         lambda: per(c["rational.evaluator.points"])),
        ("rational.numerator_s", "s", ("rational.numerator",),
         lambda: per(s["rational.numerator"])),
        ("rational.derivative_state_s", "s", ("rational.derivative_state",),
         lambda: per(s["rational.derivative_state"])),
        ("rational.nonfinite_coeffs", "count", ("rational.numerator",),
         lambda: per(c["rational.nonfinite_coeffs"])),
        ("cli.escalations", "count", ("rational.numerator",),
         lambda: per(c["cli.escalations"])),
        ("cli.self_s", "s", ("cli.main",), lambda: per(own["cli.main"])),
        ("voronoi.build_s", "s", ("voronoi.build",), lambda: per(s["voronoi.build"])),
        ("measure.skeleton_starts_s", "s", ("measure.skeleton_starts",),
         lambda: per(s["measure.skeleton_starts"])),
        ("voronoi.psi_calls", "count", ("voronoi.psi",), lambda: per(calls["voronoi.psi"])),
        ("voronoi.psi_s", "s", ("voronoi.psi",), lambda: per(s["voronoi.psi"])),
        ("asympt.potential_l1_s", "s", ("asympt.potential_l1",),
         lambda: per(s["asympt.potential_l1"])),
        ("asympt.potential_l1_self_s", "s", ("asympt.potential_l1", "voronoi.psi"),
         lambda: per(own["asympt.potential_l1"])),
        ("asympt.project_and_bin_s", "s", ("asympt.project_and_bin",),
         lambda: per(s["asympt.project_and_bin"])),
        ("asympt.empirical_s", "s", ("asympt.empirical",), lambda: per(s["asympt.empirical"])),
        ("lemniscate.compare_s", "s", ("lemniscate.compare",),
         lambda: per(s["lemniscate.compare"])),
        ("lemniscate.self_s", "s", ("lemniscate.compare",),
         lambda: per(own["lemniscate.compare"])),
        ("lemniscate.psi_max_calls", "count", ("lemniscate.psi_max",),
         lambda: per(calls["lemniscate.psi_max"])),
        ("lemniscate.psi_max_s", "s", ("lemniscate.psi_max",),
         lambda: per(s["lemniscate.psi_max"])),
        ("lemniscate.evaluator_s", "s", ("lemniscate.evaluator",),
         lambda: per(s["lemniscate.evaluator"])),
        ("lemniscate.build_rn_s", "s", ("lemniscate.build_rn",),
         lambda: per(s["lemniscate.build_rn"])),
        ("lemniscate.dominance_radius_s", "s", ("lemniscate.dominance_radius",),
         lambda: per(s["lemniscate.dominance_radius"])),
        ("svg.render_s", "s", ("svg.render",), lambda: per(s["svg.render"])),
        ("trace.overhead_frac", "ratio", (), lambda: overhead),
    ]
    return {
        name: {"value": None if tracer.missing.intersection(needs) else value(),
               "unit": unit}
        for name, unit, needs, value in table
    }


def summarize(outcomes):
    attempted = len(outcomes)
    failed = [o for o in outcomes if o["error"] is not None]
    return attempted, failed, not any(o["wrong"] for o in outcomes)


def main(argv=None):
    args = parse_args(argv)
    try:
        root = benchenv.bootstrap()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import spans
    import workloads

    base = root / ".perfbench"
    work = base / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        setup_times = [] if args.trace else measure_setup(args, work)
        instances = workloads.prepare(args.workload, args.seed, work / "problems")
        workloads.run_instance(instances[0], work)  # warm-up

        plain, traced = [], []
        tracer = spans.Tracer() if args.trace else None
        start = time.perf_counter()
        while (time.perf_counter() - start < args.seconds
               or (tracer is not None and not traced)):
            if tracer is not None and len(traced) < len(plain):
                tracer.install()
                try:
                    traced.append(run_pass(instances, work, tracer))
                finally:
                    tracer.restore()
            else:
                plain.append(run_pass(instances, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs = traced if args.trace else plain
    outcomes = [o for pass_outcomes in runs for o in pass_outcomes]
    attempted, failed, correct = summarize(outcomes)
    best = fastest(plain)
    wall = sum(checked for _, checked in best.values())
    if args.trace:
        traced_wall = sum(checked for _, checked in fastest(traced).values())
        metrics = layer_metrics(tracer, len(traced), traced_wall / wall - 1.0)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "solved_frac": {"value": (attempted - len(failed)) / attempted,
                            "unit": "ratio"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB"},
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": benchenv.environment(),
        "setup_s": setup_times,
        "plain_pass_s": [sum(o["checked_s"] for o in p) for p in plain],
        "traced_pass_s": [sum(o["checked_s"] for o in p) for p in traced],
        "instances_per_pass": len(instances),
        "latency_samples": len(outcomes),  # the calls each fastest time is taken from
        "fastest_call_s": {slot: call for slot, (call, _) in best.items()},
        "failed_frac": len(failed) / attempted,
        "failures": sorted({f"{o['slot']} ({o['label']}): {o['error']}" for o in failed}),
        "missing_targets": sorted(tracer.missing) if tracer else [],
        "first_pass": runs[0],
    }
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
