#!/usr/bin/env python3
"""Benchmark for magbeam: region sweep, wide-array solve, estimation Monte-Carlo.

Run from the repository root, which must hold the ``src/magbeam`` sources:

    python3 bench/run.py --workload region_sweep --seed 1 --seconds 30 --trace 0

Each run sets up its workload's inputs from the seed, then issues ops one at
a time (a closed loop, one op in flight) through ``magbeam.cli.main`` for
``--seconds`` seconds, finishing the call in flight.  A region-sweep call
is a whole 41-point sweep, and a run ends only after whole cycles of its
inputs.  Every written output is checked.

The last line of standard output is the result, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it carries run details (machine, versions, BLAS threads, outcome classes,
defect counts and the workload-specific figures).  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run is split into an
untraced and a traced half and the metrics are per layer, and the spans are
written to ``.bench_out/trace-<workload>-seed<seed>.json``.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("region_sweep", "wide_array", "estimate_mc")
# one BLAS thread: the matrices are at most 32x32 and the machine is shared,
# so a second thread adds noise and no speed
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60

EXIT_OUTCOMES = {0: "ok", 1: "validation_failure", 2: "infeasible",
                 64: "usage_error", 70: "solver_error"}
# answers, not errors: an infeasible target is a valid result of the CLI
NOT_FAILED = ("ok", "infeasible", "unrealized")

END_TO_END_UNITS = {"setup_s": "s", "op_s_p50_best": "s", "ops_per_s_best": "1/s",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "conic.kernel.calls": "count/op",
    "conic.kernel.iters_per_call": "iter",
    "conic.kernel.status.optimal": "count/op",
    "conic.kernel.status.infeasible": "count/op",
    "conic.kernel.status.numerical_failure": "count/op",
    "conic.kernel.s_per_iter.n0": "s",
    "conic.kernel.s_per_iter.n10": "s",
    "conic.kernel.s_per_iter.n32": "s",
    "conic.kernel.self_s": "s/op",
    "conic.kernel.schur_flop": "flop/op",
    "beamforming.p0.p1_calls_per_point": "count",
    "beamforming.p0.kernel_calls_per_point": "count",
    "beamforming.p1.self_s": "s/op",
    "conic.sdp.self_s": "s/op",
    "conic.lp.calls": "count/op",
    "conic.lp.self_s": "s/op",
    "beamforming.ts_lp.calls": "count/op",
    "beamforming.ts_lp.accepted_ratio": "ratio",
    "beamforming.randomization.calls": "count/op",
    "beamforming.randomization.accepted_ratio": "ratio",
    "beamforming.unrealized_ratio": "ratio",
    "conic.linalg.eig_calls": "count/op",
    "conic.linalg.eig_s": "s/op",
    "estimation.simulate_training_s": "s/op",
    "estimation.mc_s": "s/op",
    "estimation.trials": "count/op",
    "estimation.trials_per_s": "1/s",
    "scenario.load_s": "s",
    "circuit.build_impedance_s": "s",
    "geometry.layout_s": "s",
    "geometry.pairs": "count",
    "region.points": "count",
    "region.mean_p_w": "W",
    "cli.self_s": "s/op",
    "cli.fail_ratio": "ratio",
    "cli.csv_unparsable_fields": "count",
    "trace.op_s": "s/op",
    "trace.untraced_op_s": "s/op",
    "trace.overhead_s": "s/op",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_only(args):
    """Child process: import, make the inputs, print the seconds it took."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import workloads
    workdir = tempfile.mkdtemp(prefix="setup-", dir=OUT)
    try:
        workloads.WORKLOADS[args.workload].setup(args.seed, workdir)
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(repr(elapsed))
    return 0


class SetupProbes:
    """Set-up seconds of fresh processes, taken between calls over the run.

    The machine's speed drifts over seconds, so samples spread across the run
    vary less between runs than samples taken one after another.
    """

    def __init__(self, args, seconds):
        self.argv = [sys.executable, os.path.abspath(__file__), "--workload",
                     args.workload, "--seed", str(args.seed), "--setup-only"]
        self.every = seconds / SETUP_REPEATS
        self.samples = []

    def take(self):
        child = subprocess.run(self.argv, cwd=ROOT, capture_output=True, text=True,
                               timeout=SETUP_TIMEOUT_S, check=True)
        self.samples.append(float(child.stdout.split()[-1]))

    def between_calls(self, timed):
        if len(self.samples) < SETUP_REPEATS and timed >= len(self.samples) * self.every:
            self.take()

    def finish(self):
        while len(self.samples) < SETUP_REPEATS:
            self.take()
        return self.samples


def invoke(call, recorder, traced):
    """Run one CLI call; returns (exit code, uncaught exception)."""
    from magbeam import cli
    with contextlib.suppress(FileNotFoundError):
        os.remove(call.out)
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if traced:
                with recorder.span("cli"):
                    return cli.main(call.argv), None
            return cli.main(call.argv), None
    except Exception as exc:  # an escaped library error ends the op, not the run
        return None, exc


def outcome_of(code, exc, unrealized):
    if exc is not None:
        return "exception:" + type(exc).__name__
    outcome = EXIT_OUTCOMES.get(code, f"exit_{code}")
    return "unrealized" if outcome == "infeasible" and unrealized else outcome


def run_phase(workload, state, recorder, seconds, traced, probes=None):
    """Closed loop of CLI calls for ``seconds`` of call time; returns (wall, tally).

    The loop ends at a cycle boundary of the workload's inputs, so that every
    run weighs each input the same.
    """
    import workloads
    tally = workloads.Tally()
    wall = 0.0
    for done, call in enumerate(workload.calls(state)):
        if done % workload.cycle == 0 and done and wall >= seconds:
            break
        if probes is not None:
            probes.between_calls(wall)
        first = len(recorder.ops)
        if workload.op_clock is None:
            recorder.begin_op()
        t0 = time.perf_counter()
        code, exc = invoke(call, recorder, traced)
        wall += time.perf_counter() - t0
        if workload.op_clock is None:
            recorder.end_op(outcome_of(code, exc, recorder.ops[-1].unrealized))
            recorder.ops[-1].call = call.info
        ops = recorder.ops[first:]
        for k, op in enumerate(ops):
            op.input = (done % workload.cycle, k)
        if code == 0 and exc is None:
            for op, ok in zip(ops, workload.check(state, call, len(ops), tally)):
                if not ok:
                    op.outcome = "check_failed"
    return wall, tally


def tail(times):
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(times)
    if n <= 10:
        return None, None
    pct = math.floor(100.0 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100.0))
    return pct, sorted(times)[rank - 1]


def machine_info():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"machine": platform.machine(), "platform": platform.platform(),
            "cpus": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS}


def summarize(workload, ops, wall, tally):
    """Run figures for one phase: the end-to-end metrics and the extras.

    The machine's speed drifts by tens of percent over seconds, which moves
    plain per-op statistics from run to run.  The gated op-time metrics take
    each input's fastest repeat in the run instead; the plain median, the
    tail and the throughput go on the info line with the other extras,
    ``name -> (value, unit, better)``.
    """
    times = [op.seconds for op in ops]
    best = {}
    for op in ops:
        best[op.input] = min(best.get(op.input, math.inf), op.seconds)
    attempted = len(ops)
    outcomes = {}
    for op in ops:
        outcomes[op.outcome] = outcomes.get(op.outcome, 0) + 1
    failed = sum(c for o, c in outcomes.items() if o not in NOT_FAILED)
    pct, tail_s = tail(times)
    extra = {
        "ops": (attempted, "count", None),
        "timed_wall_s": (wall, "s", None),
        f"op_s_p{pct}" if pct else "op_s_tail": (tail_s, "s", "lower"),
        "op_s_p50": (statistics.median(times), "s", "lower"),
        "ops_per_s": (attempted / wall, "1/s", "higher"),
        "fail_ratio": (failed / attempted, "ratio", "lower"),
        "unrealized_ratio": (sum(op.unrealized for op in ops) / attempted,
                             "ratio", "lower"),
        **workload.figures(ops, wall, tally),
    }
    return {
        "attempted": attempted, "failed": failed, "outcomes": outcomes,
        "op_s_p50_best": statistics.median(best.values()),
        "ops_per_s_best": len(best) / sum(best.values()),
        "extra": extra,
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "magbeam", "__init__.py")):
        print(f"bench: no magbeam sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.makedirs(OUT, exist_ok=True)
    if args.setup_only:
        return setup_only(args)

    sys.path.insert(0, SRC)
    import magbeam
    import spans
    import workloads
    if not os.path.abspath(magbeam.__file__).startswith(SRC + os.sep):
        print(f"bench: imported magbeam from {magbeam.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    recorder = spans.Recorder()
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.trace:
            recorder.install(None, tracing=True)
            with recorder.span("setup"):
                state = workload.setup(args.seed, workdir)
            setup_spans = list(recorder.spans)
            recorder.unpatch()
        else:
            state = workload.setup(args.seed, workdir)
        invoke(workload.warmup(state), recorder, traced=False)

        recorder.install(workload.op_clock, tracing=False)
        recorder.phase = "untraced"
        if args.trace:
            probes = None
            wall, tally = run_phase(workload, state, recorder, args.seconds / 2,
                                    traced=False)
            first_span = len(recorder.spans)
            recorder.install(workload.op_clock, tracing=True)
            recorder.phase = "traced"
            traced_wall, traced_tally = run_phase(workload, state, recorder,
                                                  args.seconds / 2, traced=True)
        else:
            probes = SetupProbes(args, args.seconds)
            wall, tally = run_phase(workload, state, recorder, args.seconds,
                                    traced=False, probes=probes)
            probes.finish()
    finally:
        recorder.unpatch()
        shutil.rmtree(workdir, ignore_errors=True)

    untraced_ops = [op for op in recorder.ops if op.phase == "untraced"]
    run = summarize(workload, untraced_ops, wall, tally)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **machine_info(),
            "setup_s_samples": probes.samples if probes else None,
            "outcomes": run["outcomes"],
            "csv_unparsable_fields": tally.csv_unparsable_fields,
            "csv_files": tally.csv_files, "check_messages": tally.messages,
            "metrics": {name: {"value": v, "unit": u, "better": b}
                        for name, (v, u, b) in run["extra"].items()}}
    attempted, failed = run["attempted"], run["failed"]
    correct = "check_failed" not in run["outcomes"]

    if args.trace:
        traced_ops = [op for op in recorder.ops if op.phase == "traced"]
        traced = summarize(workload, traced_ops, traced_wall, traced_tally)
        attempted += traced["attempted"]
        failed += traced["failed"]
        correct = correct and "check_failed" not in traced["outcomes"]
        info["traced_outcomes"] = traced["outcomes"]
        metrics = spans.layer_metrics(recorder.spans, first_span, len(traced_ops),
                                      setup_spans)
        pairs = list(zip(untraced_ops, traced_ops))
        everything = untraced_ops + traced_ops
        csv_files = tally.csv_files + traced_tally.csv_files
        metrics.update({
            "trace.op_s": statistics.fmean(op.seconds for op in traced_ops),
            "trace.untraced_op_s": statistics.fmean(op.seconds for op in untraced_ops),
            "trace.overhead_s": statistics.fmean(b.seconds - a.seconds for a, b in pairs),
            "cli.fail_ratio": failed / attempted,
            "beamforming.unrealized_ratio":
                sum(op.unrealized for op in everything) / attempted,
            "estimation.trials_per_s": run["extra"].get("trials_per_s", (0.0,))[0],
            "region.mean_p_w": run["extra"].get("region_mean_p_w", (0.0,))[0],
            "cli.csv_unparsable_fields":
                (tally.csv_unparsable_fields + traced_tally.csv_unparsable_fields)
                / csv_files if csv_files else 0.0,
        })
        with open(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump({"info": info, "metrics": metrics,
                       "span_fields": ["name", "start", "end", "parent", "op",
                                       "error", "attrs"],
                       "spans": recorder.spans,
                       "ops": [vars(op) for op in recorder.ops]}, fh)
        reported = {name: {"value": metrics[name], "unit": unit}
                    for name, unit in PER_LAYER_UNITS.items()}
    else:
        values = {"setup_s": statistics.median(probes.samples),
                  "op_s_p50_best": run["op_s_p50_best"],
                  "ops_per_s_best": run["ops_per_s_best"],
                  "peak_rss_mb":
                      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        reported = {name: {"value": values[name], "unit": unit}
                    for name, unit in END_TO_END_UNITS.items()}

    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
