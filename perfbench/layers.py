"""Per-layer metrics of the traced run, each measured on the workload that drives it.

Each entry reads ``(metric, workload, span, statistic, unit)``. The comment
above each group names the end-to-end metric the group should move.
``us_per_call`` is inclusive time per call; ``self_s`` excludes traced
callees. design-scale spans are also reported per edge-count bucket
(``.E30``, ``.E250``, ``.E900``), where the O(E^3) cliff shows.
"""

from __future__ import annotations

from workloads import DESIGN_SIZES

MC, AR, TS, DS = "montecarlo", "ar-stream", "topology-switch", "design-scale"

SPAN_METRICS = [
    # steps_per_s / job_p50_s on montecarlo; lms_step must not regress on ar-stream
    ("lms.lms_step.calls", MC, "lms.lms_step", "calls", "count"),
    ("lms.lms_step.us_per_call", MC, "lms.lms_step", "us_per_call", "us"),
    ("lms.lms_step.us_per_call.ar-stream", AR, "lms.lms_step", "us_per_call", "us"),
    ("lms.run_experiment.self_s", MC, "lms.run_experiment", "self_s", "s"),
    ("signals.generate_stream.self_s", MC, "signals.generate_stream", "self_s", "s"),
    ("signals.regressor_tensor.calls", MC, "signals.regressor_tensor", "calls", "count"),
    ("signals.regressor_tensor.self_s", MC, "signals.regressor_tensor", "self_s", "s"),
    ("signals.moments_closed_form.self_s", MC, "signals.moments_closed_form", "self_s", "s"),
    ("lms.theory_report.self_s", MC, "lms.theory_report", "self_s", "s"),
    # steps_per_s on montecarlo, job_p50_s on ar-stream (distributed jobs)
    ("diffusion.atc_step.calls", MC, "diffusion.atc_step", "calls", "count"),
    ("diffusion.atc_step.us_per_call", MC, "diffusion.atc_step", "us_per_call", "us"),
    ("diffusion.atc_step.us_per_call.ar-stream", AR, "diffusion.atc_step", "us_per_call", "us"),
    ("diffusion.run_distributed.self_s", MC, "diffusion.run_distributed", "self_s", "s"),
    # job_p50_s on montecarlo (the order-1 job takes the Kronecker branch)
    ("diffusion.dist_theory.self_s", MC, "diffusion.dist_theory", "self_s", "s"),
    # job_p50_s / steps_per_s on topology-switch; recovery_rate must not move
    ("inference.infer_step.calls", TS, "inference.infer_step", "calls", "count"),
    ("inference.infer_step.us_per_call", TS, "inference.infer_step", "us_per_call", "us"),
    ("inference.regressors_from_t.calls", TS, "inference.regressors_from_t", "calls", "count"),
    ("inference.grad_t.self_s", TS, "inference.grad_t", "self_s", "s"),
    ("inference.run_inference.self_s", TS, "inference.run_inference", "self_s", "s"),
    # job_p50_s on design-scale; montecarlo should not move
    ("complexes.hodge_laplacians.calls", DS, "complexes.hodge_laplacians", "calls", "count"),
    ("complexes.hodge_laplacians.self_s", DS, "complexes.hodge_laplacians", "self_s", "s"),
    ("signals.edge_moment_matrices.self_s", DS, "signals.edge_moment_matrices", "self_s", "s"),
    # job_p50_s on design-scale; design_rate must not get worse
    ("sampling.solve_sampling.self_s", DS, "sampling.solve_sampling", "self_s", "s"),
    ("sampling.check_constraints.calls", DS, "sampling.check_constraints", "calls", "count"),
    # job_p50_s on ar-stream
    ("artrain.run_ar_training.self_s", AR, "artrain.run_ar_training", "self_s", "s"),
    ("artrain.run_distributed_ar.self_s", AR, "artrain.run_distributed_ar", "self_s", "s"),
    ("artrain.ar_regressor_tensor.self_s", AR, "artrain.ar_regressor_tensor", "self_s", "s"),
    ("datasets.ingest_edge_series.self_s", AR, "datasets.ingest_edge_series", "self_s", "s"),
    # job_p50_s / result_bytes on montecarlo and topology-switch
    ("harness.run_mode.self_s", (MC, TS), "harness.run_mode", "self_s", "s"),
    ("harness.emit_results.self_s", (MC, TS), "harness.emit_results", "self_s", "s"),
    ("cli.main.self_s", (MC, TS), "cli.main", "self_s", "s"),
]

BUCKETED_SPANS = [
    ("complexes.hodge_laplacians", "calls", "count"),
    ("complexes.hodge_laplacians", "self_s", "s"),
    ("signals.edge_moment_matrices", "self_s", "s"),
    ("sampling.solve_sampling", "self_s", "s"),
    ("sampling.check_constraints", "calls", "count"),
]


def missing_spans(stats) -> list[str]:
    """Layers a workload is expected to call that recorded no calls."""
    expected = {(w, span, None) for _, workloads, span, _, _ in SPAN_METRICS
                for w in (workloads if isinstance(workloads, tuple) else (workloads,))}
    expected |= {(DS, span, bucket) for span, _, _ in BUCKETED_SPANS for bucket in DESIGN_SIZES}
    return sorted(f"{w}/{span}" + (f".{bucket}" if bucket else "")
                  for w, span, bucket in expected
                  if not _collect(stats, w, span, bucket)["calls"])


def _collect(stats, workloads, span, bucket=None):
    workloads = workloads if isinstance(workloads, tuple) else (workloads,)
    total = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    for (name, (w, b)), entry in stats.items():
        if name == span and w in workloads and (bucket is None or b == bucket):
            for key in total:
                total[key] += entry[key]
    return total


def _statistic(entry, statistic):
    if statistic == "us_per_call":
        return 1e6 * entry["total_s"] / entry["calls"] if entry["calls"] else 0.0
    return entry[statistic]


def per_layer_metrics(stats, traced, overhead_s: float) -> dict:
    """Metric name -> (value, unit); ``traced`` holds ``(workload, JobRecord)`` pairs."""
    out = {}
    for metric, workloads, span, statistic, unit in SPAN_METRICS:
        out[metric] = (_statistic(_collect(stats, workloads, span), statistic), unit)

    def ratio(num, den):
        return num / den if den else 0.0

    out["signals.regressor_builds_per_stream"] = (
        ratio(_collect(stats, MC, "signals.regressor_tensor")["calls"],
              _collect(stats, MC, "signals.generate_stream")["calls"]), "ratio")
    out["inference.regressor_builds_per_step"] = (
        ratio(_collect(stats, TS, "inference.regressors_from_t")["calls"],
              _collect(stats, TS, "inference.infer_step")["calls"]), "ratio")

    designs = [r for _, r in traced if r.job.bucket and not r.failures]
    out["sampling.iterations_per_design"] = (
        ratio(sum(r.facts["iterations"] for r in designs), len(designs)), "count")
    out["sampling.converged_frac"] = (
        ratio(sum(r.facts["converged"] for r in designs), len(designs)), "ratio")
    out["harness.emit_results.bytes"] = (
        sum(r.result_bytes for w, r in traced if w in (MC, TS)), "bytes")

    for bucket in DESIGN_SIZES:
        for span, statistic, unit in BUCKETED_SPANS:
            entry = _collect(stats, DS, span, bucket)
            out[f"{span}.{statistic}.{bucket}"] = (_statistic(entry, statistic), unit)
        sub = [r for r in designs if r.job.bucket == bucket]
        out[f"sampling.iterations_per_design.{bucket}"] = (
            ratio(sum(r.facts["iterations"] for r in sub), len(sub)), "count")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
