"""Per-integral benchmark of nsdq.

Usage::

    python3 perfbench/run.py --workload ellipsoid --seed 1 --seconds 10 --trace 0

Run from anywhere; it imports the nsdq under ``src/`` next to this
directory, never an installed copy.  Workloads: ellipsoid, sphere, duct,
planar (see ``workloads.py``).  One operation is one integral; operations
run in whole sweeps, one thread, closed loop, until ``--seconds`` have
passed.  Every operation is timed next to the calibration kernel of
``calib.py`` and its time is scaled to the kernel's nominal speed, so the
host's speed phases cancel.

``--trace 0`` prints the end-to-end metrics: setup_s, integrals_per_s,
op_p50_ms, op_p90_ms, ok_frac, peak_rss_mb.  ``--trace 1`` runs the same
sweeps with layer spans recorded from outside the library
(``layertrace.py``) and prints the per-layer metrics, per sweep.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record, with the
generated inputs and the spans of the last traced sweep, goes to
``perfbench/results/``.  Exit code 0 on a completed run, 2 when the
benchmark cannot run (no ``src/nsdq`` next to it, or bad arguments).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import calib
import workloads
from layertrace import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_STARTS = 11      # fresh interpreters per run; setup_s is their median
MIN_OPS = 100          # so that at least ten operations lie beyond op_p90_ms


def _fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# --- set-up ---------------------------------------------------------------------


def measure_setup(workload: str, seed: int) -> list[dict]:
    """Run the set-up probe in SETUP_STARTS fresh interpreters, one at a time."""
    probes = []
    for _ in range(SETUP_STARTS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return probes


# --- timed sweeps -----------------------------------------------------------------


def run_sweep(ops, tracer=None):
    """One sweep with the calibration kernel timed before every op.

    Returns per-op records ``(wall_ms, kernel_ms_before, result, ok,
    layers)``; ``layers`` is the tracer's per-op accumulators, or None.
    """
    records = []
    for i, op in enumerate(ops):
        kernel_ms = calib.time_kernel()
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a failed integral counts as not ok
            wall_ms = (time.perf_counter() - t0) * 1e3
            result, ok = f"{type(exc).__name__}: {exc}", False
        else:
            wall_ms = (time.perf_counter() - t0) * 1e3
            ok = bool(op.check(result))
        records.append((wall_ms, kernel_ms, result, ok, tracer.take() if tracer else None))
    return records


def calibrated(sweeps, final_kernel_ms):
    """Per-op calibrated ms, sweep by sweep.

    The kernel sample before op i and the one after it (before op i+1) are
    neighbours; each op is scaled by the median of the three samples on
    each side of it.
    """
    flat = [r for sweep in sweeps for r in sweep]
    kernels = calib.window_medians([r[1] for r in flat] + [final_kernel_ms])
    scale = [calib.NOMINAL_MS / k for k in kernels]
    out, i = [], 0
    for sweep in sweeps:
        out.append([(r[0] * scale[i + j], scale[i + j]) for j, r in enumerate(sweep)])
        i += len(sweep)
    return out


def steady_sweeps(ops, seconds, tracer=None, alternate=False):
    """Whole sweeps until ``seconds`` have passed and MIN_OPS ops ran.

    With ``alternate`` the sweeps alternate untraced and traced, starting
    untraced; otherwise ``tracer`` (if any) traces every sweep.
    """
    sweeps, traced = [], []
    t_end = time.perf_counter() + seconds
    while True:
        use = tracer if (not alternate or len(sweeps) % 2 == 1) else None
        if use is not None:
            use.install()
        try:
            sweeps.append(run_sweep(ops, use))
        finally:
            if use is not None:
                use.restore()
        traced.append(use is not None)
        done = sum(len(s) for s in sweeps) >= MIN_OPS and time.perf_counter() >= t_end
        if done and (not alternate or len(sweeps) % 2 == 0):
            break
    return sweeps, traced, calib.time_kernel()


# --- CLI cross-check ------------------------------------------------------------------


def cli_cross_check(workload, inputs, results) -> list[str]:
    """Run each README command through ``nsdq.cli.main`` with this run's inputs.

    Its CSV table must be bit-identical to the rows of the per-op results.
    Returns the list of mismatch descriptions (empty when all agree).
    """
    from nsdq import cli, experiments

    problems = []
    for argv, part in workloads.cli_commands(workload, inputs):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        if any(isinstance(result, str) for result in results[part]):
            problems.append(f"nsdq {' '.join(argv)}: not compared, an op failed")
            continue
        rows = [row for result in results[part] for row in result]
        if code != 0:
            problems.append(f"nsdq {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
        elif out.getvalue() != experiments.rows_to_csv(rows):
            problems.append(f"nsdq {' '.join(argv)}: CSV differs from the per-row ops")
    return problems


# --- metrics ----------------------------------------------------------------------------


def end_to_end(ops, sweeps, cal, setup):
    times = [ms for sweep in cal for ms, _ in sweep]
    sweep_s = [sum(ms for ms, _ in sweep) / 1e3 for sweep in cal]
    ok = sum(r[3] for sweep in sweeps for r in sweep)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        # wall clock: the kernel does not track the import's file-system
        # and unmarshal costs, and scaling by it widened the spread
        "setup_s": (statistics.median(p["setup_s"] for p in setup), "s"),
        "integrals_per_s": (len(ops) / statistics.median(sweep_s), "1/s"),
        "op_p50_ms": (statistics.median(times), "ms"),
        "op_p90_ms": (_percentile(times, 90), "ms"),
        "ok_frac": (ok / len(times), "ratio"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def raw_context(sweeps, setup):
    raw = [r[0] for sweep in sweeps for r in sweep]
    return {
        "raw_setup_s": statistics.median(p["setup_s"] for p in setup),
        "raw_op_p50_ms": statistics.median(raw),
        "raw_op_p90_ms": _percentile(raw, 90),
        "raw_integrals_per_s": len(raw) / (sum(raw) / 1e3),
        "kernel_ms_median": statistics.median(r[1] for sweep in sweeps for r in sweep),
    }


def per_layer(cold, traced, untraced_cal, setup):
    """Per-sweep layer metrics.

    ``traced`` pairs each steady traced sweep with its calibrated times.
    Counts come from the cold sweep (every traced sweep repeats them);
    times are the median over the steady traced sweeps, calibrated.
    """
    def median_ms(per_op):
        return statistics.median(
            sum(per_op(r) * 1e3 * scale for r, (_, scale) in zip(sweep, cal))
            for sweep, cal in traced)

    def layer_ms(key, layer):
        return median_ms(lambda r: r[4][key][layer])

    counts = cold["counts"]
    traced_ms = statistics.median(sum(ms for ms, _ in cal) for _, cal in traced)
    untraced_ms = statistics.median(sum(ms for ms, _ in cal) for cal in untraced_cal)
    self_total = median_ms(lambda r: sum(r[4]["self_s"][layer] for layer in LAYERS))
    points = counts["paths.newton_points"]
    return {
        "setup.import_ms": (statistics.median(p["import_s"] for p in setup) * 1e3, "ms"),
        "rules.calls": (counts["rules.calls"], "count"),
        "rules.hit_ratio": (cold["rules.hit_ratio"], "ratio"),
        "rules.cold_builds": (cold["rules.cold_builds"], "count"),
        "rules.cold_ms": (cold["rules.cold_ms"], "ms"),
        "rules.ms": (layer_ms("incl_s", "rules"), "ms"),
        "specfun.calls": (counts["specfun.calls"], "count"),
        "specfun.ms": (layer_ms("incl_s", "specfun"), "ms"),
        "scenes.evals": (counts["scenes.evals"], "count"),
        "scenes.points": (counts["scenes.points"], "count"),
        "scenes.ms": (layer_ms("incl_s", "scenes"), "ms"),
        "paths.newton_calls": (counts["paths.newton_calls"], "count"),
        "paths.newton_points": (points, "count"),
        "paths.iters_per_point": (counts["paths.newton_point_steps"] / points if points else 0.0,
                                  "count"),
        "paths.newton_ms": (layer_ms("incl_s", "paths"), "ms"),
        "paths.self_ms": (layer_ms("self_s", "paths"), "ms"),
        "univariate.calls": (counts["univariate.calls"], "count"),
        "univariate.ms": (layer_ms("incl_s", "univariate"), "ms"),
        "univariate.self_ms": (layer_ms("self_s", "univariate"), "ms"),
        "polar.calls": (counts["polar.calls"], "count"),
        "polar.directions": (counts["polar.directions"], "count"),
        "polar.ms": (layer_ms("incl_s", "polar"), "ms"),
        "polar.self_ms": (layer_ms("self_s", "polar"), "ms"),
        "oracle.calls": (counts["oracle.calls"], "count"),
        "oracle.subdivisions": (counts["oracle.subdivisions"], "count"),
        "oracle.ms": (layer_ms("incl_s", "oracle"), "ms"),
        "experiments.self_ms": (layer_ms("self_s", "experiments"), "ms"),
        "trace.op_ms": (traced_ms, "ms"),
        "trace.overhead_frac": (traced_ms / untraced_ms - 1.0, "ratio"),
        "trace.residual_frac": (1.0 - self_total / traced_ms, "ratio"),
    }


def sweep_counts(sweep) -> Counter:
    """Layer counts of one traced sweep, without the cache-state ones."""
    total = sum((r[4]["counts"] for r in sweep), Counter())
    del total["rules.hits"], total["rules.cold_builds"]
    return total


# --- driver ------------------------------------------------------------------------------


def environment(args, inputs):
    import numpy
    import scipy

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        sha = proc.stdout.strip() or sha
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": sha, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "inputs": inputs,
    }


def _values(sweep):
    return [repr(r[2]) for r in sweep]


def timed_run(ops, seconds, setup):
    """Warm-up sweep, then untraced steady sweeps; end-to-end metrics."""
    run_sweep(ops)  # caches filled, lazy set-up done
    sweeps, _, final_kernel = steady_sweeps(ops, seconds)
    problems = []
    if any(_values(s) != _values(sweeps[0]) for s in sweeps):
        problems.append("values differ between sweeps")
    cal = calibrated(sweeps, final_kernel)
    return sweeps, cal, end_to_end(ops, sweeps, cal, setup), problems


def traced_run(ops, seconds, setup):
    """A cold traced sweep, then alternating untraced and traced sweeps.

    Returns all sweeps (the cold one first), their calibrated times, the
    per-layer metrics, the problems found and the spans of the last traced
    sweep.
    """
    tracer = Tracer()
    tracer.install()
    try:
        cold = run_sweep(ops, tracer)
    finally:
        tracer.restore()
    tracer.record = True
    sweeps, is_traced, final_kernel = steady_sweeps(ops, seconds, tracer, alternate=True)

    problems = []
    reference = _values(sweeps[0])  # untraced
    if any(_values(s) != reference for s in [cold] + sweeps):
        problems.append("traced values differ from untraced values, or between sweeps")
    counts = sweep_counts(cold)
    if any(sweep_counts(s) != counts for s, t in zip(sweeps, is_traced) if t):
        problems.append("layer counts differ between traced sweeps")

    cal = calibrated(sweeps, final_kernel)
    traced = [(s, c) for s, c, t in zip(sweeps, cal, is_traced) if t]
    untraced_cal = [c for c, t in zip(cal, is_traced) if not t]
    rule_calls = sum(r[4]["counts"]["rules.calls"] for r in cold)
    cold_total = {
        "counts": counts,
        "rules.hit_ratio": (sum(r[4]["counts"]["rules.hits"] for r in cold) / rule_calls
                            if rule_calls else 1.0),
        "rules.cold_builds": sum(r[4]["counts"]["rules.cold_builds"] for r in cold),
        "rules.cold_ms": sum(r[4]["cold_rules_s"] for r in cold) * 1e3,
    }
    metrics = per_layer(cold_total, traced, untraced_cal, setup)
    return [cold] + sweeps, [None] + cal, metrics, problems, tracer.spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nsdq" / "__init__.py").is_file():
        return _fail(f"no nsdq sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import nsdq

    if Path(nsdq.__file__).resolve().parent != (SRC / "nsdq").resolve():
        return _fail(f"imported nsdq from {nsdq.__file__}, not from {SRC}")

    inputs = workloads.make_inputs(args.workload, args.seed)
    setup = measure_setup(args.workload, args.seed)
    refs = workloads.compute_references(args.workload, inputs)
    ops = workloads.build_ops(args.workload, inputs, refs)
    gc.collect()
    if args.trace:
        sweeps, cal, metrics, problems, spans = traced_run(ops, args.seconds, setup)
    else:
        sweeps, cal, metrics, problems = timed_run(ops, args.seconds, setup)
        spans = []

    problems += cli_cross_check(args.workload, inputs, [r[2] for r in sweeps[-1]])
    attempted = sum(len(s) for s in sweeps)
    failed = sum(not r[3] for s in sweeps for r in s)
    correct = failed == 0 and not problems

    record = environment(args, inputs)
    record.update({
        "sweeps": len(sweeps), "ops_per_sweep": len(ops), "attempted": attempted,
        "failed": failed, "problems": problems, "kernel_nominal_ms": calib.NOMINAL_MS,
        "raw": raw_context(sweeps, setup),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failed_ops": sorted({ops[i].label for s in sweeps for i, r in enumerate(s) if not r[3]}),
        "op_ms": {"raw": [r[0] for s in sweeps for r in s],
                  "calibrated": [ms for c in cal if c for ms, _ in c]},
    })
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(dict(record, spans=spans), default=str) + "\n")

    print(f"nsdq perfbench  workload={args.workload}  seed={args.seed}  "
          f"sweeps={len(sweeps)} x {len(ops)} ops  attempted={attempted}  failed={failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<22} {value:>14.6g} {unit}")
    for name, value in record["raw"].items():
        print(f"  ({name:<20} {value:>14.6g}  raw, not gated)")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    print(f"  record: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
