"""simplexlms benchmark: closed-loop CLI jobs per workload, plus a traced per-layer run.

Usage, from the repository root:

    python3 perfbench/run.py --workload montecarlo --seed 1 --seconds 15 --trace 0

``--trace 0`` runs the workload as a closed loop from one client: complete
cycles of in-process ``simplexlms.cli.main(argv)`` jobs, one at a time, as
many cycles as fill ``--seconds`` at the workload's nominal cycle time, and
at least one.
Each job parses its arguments, runs its mode and writes its result file as
a user's run does. Every job's output is checked; the end-to-end metrics
are printed one per line with unit and sample count, and the last line is
a JSON object with the metrics listed under ``end_to_end`` in
BENCHMARK.json.

``--trace 1`` runs one job of each kind of every workload twice, untraced and
then with span wrappers on every public function, and reports the
per-layer metrics. Each per-layer metric is measured on the workload that
exercises its layer, so the output does not depend on ``--workload``. The
two passes must write byte-identical result files, and every layer a
workload is expected to call must record calls.

Inputs are generated from ``--seed`` into ``.perfbench/`` at the repository
root. BLAS is pinned to one thread so that one client uses one core.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
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
import time
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))


def _import_program():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    try:
        import simplexlms.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import simplexlms from {SRC}: {exc}")
    if Path(simplexlms.cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: simplexlms imported from {simplexlms.cli.__file__}, not {SRC}")
    return simplexlms.cli


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def environment() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(BLAS_THREADS),
    }


def run_job(cli, workload, job):
    """Run one CLI job in-process; time it, then check and discard its result file."""
    from workloads import JobRecord
    failures = []
    sink = io.StringIO()
    gc.collect()  # start every job from a collected heap, as a fresh process would
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(job.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback is a failed job, not a crashed benchmark
        code = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    if code != 0:
        failures.append(f"exit {code}: {sink.getvalue().strip()[-200:]}")
    data, digest, facts = b"", "", {}
    if not failures:
        try:
            data = job.out.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            payload = json.loads(data, parse_constant=_reject_constant)
            bad, facts = workload.check(job, payload)
            failures += bad
        except (OSError, ValueError) as exc:
            failures.append(f"result-not-strict-json: {exc}")
    job.out.unlink(missing_ok=True)
    return JobRecord(job, wall, len(data), digest, failures, facts)


def tail_stat(values):
    """Highest order statistic with at least ten samples above it, and its percentile.

    Below 21 samples that statistic would lie under the median, so the
    maximum is reported instead."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return ordered[-1], "max (fewer than 21 samples)"
    return ordered[n - 11], f"p{math.floor(100 * (n - 10) / n)}"


def time_setup(workload, seed: int, target: Path) -> float:
    """Wall time from process start until a fresh interpreter has imported the
    package and written the workload's inputs into ``target``."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-child", str(target),
         "--workload", workload.name, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True,
    ) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        code = child.wait()
    if line.strip() != "ready" or code != 0:
        sys.exit(f"perfbench: setup child {target.name} failed (exit {code})")
    return elapsed


def setup_child(workload_name: str, seed: int, target: Path) -> None:
    _import_program()
    from workloads import WORKLOADS
    target.mkdir(parents=True)
    WORKLOADS[workload_name].write_inputs(seed, target)
    print("ready", flush=True)


def print_metric(workload: str, name: str, value, unit: str, note: str) -> None:
    print(f"metric {workload:15s} {name:28s} {value:>14.6g} {unit:8s} {note}")


def run_untraced(cli, workload, seed: int, seconds: float, env: dict) -> dict:
    base = WORK / f"{workload.name}-seed{seed}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    inputs = base / "setup0"
    cycles = workload.cycles(seconds)
    plan = [job for cycle in range(cycles) for job in workload.cycle(seed, inputs, cycle)]

    # The set-ups are spread over the run, the first before the first job
    # (it writes the inputs the jobs read), so that their median does not
    # hang on how fast the machine runs at one moment.
    setup_before = [i * len(plan) // SETUP_REPEATS for i in range(SETUP_REPEATS)]
    setup_times, records = [], []
    for k, job in enumerate(plan):
        setup_times += [time_setup(workload, seed, base / f"setup{i}")
                        for i, before in enumerate(setup_before) if before == k]
        records.append(run_job(cli, workload, job))

    walls = [r.wall_s for r in records]
    tail, tail_label = tail_stat(walls)
    n = len(records)
    failed = [r for r in records if r.failures]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times), "median"),
        "job_p50_s": (statistics.median(walls), "s", n, "median"),
        "job_tail_s": (tail, "s", n, tail_label),
        "jobs_per_s": (n / sum(walls), "1/s", n, f"{cycles} cycles"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1,
                        "ru_maxrss"),
        "result_bytes": (statistics.fmean(r.result_bytes for r in records), "bytes", n,
                         "mean per job"),
    }
    ok = [r for r in records if not r.failures]
    if workload.recursion:
        steps = sum(r.job.steps * (r.facts["realizations"] - r.facts["diverged"]) for r in ok)
        metrics["steps_per_s"] = (steps / sum(r.wall_s for r in ok) if ok else math.nan,
                                  "1/s", len(ok), "realization-steps per job second")
        reals = sum(r.facts["realizations"] for r in ok)
        metrics["diverged_frac"] = (sum(r.facts["diverged"] for r in ok) / reals if reals else math.nan,
                                    "1", reals, "realizations")
    for name, (value, unit, count) in workload.summary(records).items():
        metrics[name] = (value, unit, count, "")
    metrics["failed_frac"] = (len(failed) / n, "1", n, "jobs")

    print("environment " + json.dumps(env))
    for rec in failed:
        print(f"failed {workload.name} {rec.job.kind} {' '.join(rec.job.argv)}: "
              f"{'; '.join(rec.failures)}")
    for name, (value, unit, count, note) in metrics.items():
        print_metric(workload.name, name, value, unit, f"n={count} {note}".strip())

    report = {"environment": env, "workload": workload.name, "seed": seed,
              "setup_times_s": setup_times,
              "metrics": {k: {"value": v[0], "unit": v[1], "count": v[2], "note": v[3]}
                          for k, v in metrics.items()},
              "jobs": [{"kind": r.job.kind, "wall_s": r.wall_s, "result_bytes": r.result_bytes,
                        "failures": r.failures} for r in records]}
    (base / "report.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return {
        "correct": not failed,
        "attempted": n,
        "failed": len(failed),
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }


def run_traced(cli, seed: int, env: dict) -> dict:
    from layers import missing_spans, per_layer_metrics
    from tracer import Tracer
    from workloads import WORKLOADS

    base = WORK / f"trace-seed{seed}"
    shutil.rmtree(base, ignore_errors=True)
    plan = []
    for workload in WORKLOADS.values():
        inputs = base / workload.name
        inputs.mkdir(parents=True)
        workload.write_inputs(seed, inputs)
        plan += [(workload, job) for job in workload.trace_jobs(seed, inputs)]

    # Each job runs untraced and then traced, back to back, so that the two
    # walls of a pair see the same machine state; the first job also runs
    # once beforehand so that neither pass pays the process's warm-up.
    run_job(cli, *plan[0])
    tracer = Tracer()
    plain, traced = [], []
    untraced_wall = traced_wall = 0.0
    for w, job in plan:
        plain.append(run_job(cli, w, job))
        untraced_wall += plain[-1].wall_s
        tracer.tag = (w.name, job.bucket)
        with tracer:
            traced.append(run_job(cli, w, job))
        traced_wall += traced[-1].wall_s

    failures = [f"{r.job.kind}: {'; '.join(r.failures)}" for r in plain + traced if r.failures]
    failures += [f"{a.job.kind}: traced result differs from untraced"
                 for a, b in zip(plain, traced) if a.digest != b.digest]
    stats = tracer.aggregate()
    missing = missing_spans(stats)
    metrics = per_layer_metrics(stats, [(w.name, r) for (w, _), r in zip(plan, traced)],
                                traced_wall - untraced_wall)

    tracer.write(base / "spans.jsonl", {"environment": env, "seed": seed,
                                        "columns": ["name", "parent", "start", "end", "tag"]})
    print("environment " + json.dumps(env))
    print(f"trace untraced_wall_s={untraced_wall:.4f} traced_wall_s={traced_wall:.4f} "
          f"spans={len(tracer.spans)} jobs={len(plan)}")
    for line in failures:
        print(f"failed trace {line}")
    for name, (value, unit) in metrics.items():
        print_metric("trace", name, value, unit, "")
    if missing:
        print("perfbench: expected layers recorded no calls: " + ", ".join(missing),
              file=sys.stderr)
        sys.exit(1)
    return {
        "correct": not failures,
        "attempted": len(plain) + len(traced),
        "failed": sum(bool(r.failures) for r in plain + traced)
                  + sum(a.digest != b.digest for a, b in zip(plain, traced)),
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_child is not None:
        setup_child(args.workload, args.seed, args.setup_child)
        return 0
    cli = _import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    env = environment()
    if args.trace:
        result = run_traced(cli, args.seed, env)
    else:
        result = run_untraced(cli, WORKLOADS[args.workload], args.seed, args.seconds, env)
    # The result line carries exactly the metrics BENCHMARK.json declares;
    # the lines above it print every metric.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    missing = [name for name in names if name not in result["metrics"]]
    if missing:
        sys.exit(f"perfbench: metrics declared in BENCHMARK.json were not measured: {missing}")
    result["metrics"] = {name: result["metrics"][name] for name in names}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
