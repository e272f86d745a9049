"""Command-line front end.

Every subcommand reads an optional JSON config (``--config``) and merges
command-line flags on top of it, flags winning. Results are written with
``--out`` (JSON by default, ``--format csv`` for the mode's row table) and
a short summary is printed; an output that cannot be written is a
configuration error, found before the run starts.

Exit codes: 0 success, 2 configuration error, 3 numerical divergence,
4 infeasible sampling problem, 5 numerical failure (a linear-algebra or
floating-point error that no check above caught, or a non-finite value
that a strict JSON result cannot hold, reported in one line).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import ConfigError, DivergenceError, InfeasibleProblemError
from .harness import check_output, emit_results, load_config, run_mode

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_DIVERGED = 3
_EXIT_INFEASIBLE = 4
_EXIT_NUMERICAL = 5


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--out", help="result file path")
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--seed", type=int)


def _add_stream_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--complex-file", dest="complex_file")
    parser.add_argument("--order", type=int)
    parser.add_argument("--horizon", type=int)
    parser.add_argument("--realizations", type=int)
    parser.add_argument("--signal-var", dest="signal_var", type=float)
    parser.add_argument("--noise-var", dest="noise_var", type=float)
    parser.add_argument("--p", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplexlms",
        description="Adaptive filtering of edge flows on 2-dimensional simplicial complexes",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    gen = sub.add_parser("generate-complex", help="write a random complex (and optional surrogate series)")
    _add_common(gen)
    gen.add_argument("--nodes", type=int)
    gen.add_argument("--edge-prob", dest="edge_prob", type=float)
    gen.add_argument("--fill-prob", dest="fill_prob", type=float)
    gen.add_argument("--edges", type=int)
    gen.add_argument("--triangles", type=int)
    gen.add_argument("--complex-out", dest="complex_out")
    gen.add_argument("--series-out", dest="series_out")

    lms = sub.add_parser("run-lms", help="centralized adaptive filter experiment")
    _add_common(lms)
    _add_stream_flags(lms)
    lms.add_argument("--mu", type=float)

    design = sub.add_parser("design-sampling", help="solve the sampling design problem")
    _add_common(design)
    design.add_argument("--complex-file", dest="complex_file")
    design.add_argument("--order", type=int)
    design.add_argument("--signal-var", dest="signal_var", type=float)
    design.add_argument("--noise-var", dest="noise_var", type=float)
    design.add_argument("--mu", type=float)
    design.add_argument("--alpha", type=float)
    design.add_argument("--gamma", type=float)
    design.add_argument("--p-max", dest="p_max", type=float)
    design.add_argument("--tol", type=float)
    design.add_argument("--max-iter", dest="max_iter", type=int)

    infer = sub.add_parser("infer-topology", help="joint coefficient and triangle estimation")
    _add_common(infer)
    _add_stream_flags(infer)
    infer.add_argument("--mu1", type=float)
    infer.add_argument("--mu2", type=float)
    infer.add_argument("--lambda0", type=float)
    infer.add_argument("--lambda1", type=float)
    infer.add_argument("--remove-triangles", dest="remove_triangles", type=int)

    dist = sub.add_parser("run-distributed", help="diffusion network experiment")
    _add_common(dist)
    _add_stream_flags(dist)
    dist.add_argument("--mu", type=float)
    dist.add_argument("--rule", choices=["uniform", "metropolis"])
    dist.add_argument("--emit-agent-traces", dest="emit_agent_traces", action="store_true",
                      default=None)
    dist.add_argument("--combination-out", dest="combination_out")

    ar = sub.add_parser("ar-train", help="autoregressive train/test protocol")
    _add_common(ar)
    ar.add_argument("--complex-file", dest="complex_file")
    ar.add_argument("--series-file", dest="series_file")
    ar.add_argument("--train-count", dest="train_count", type=int)
    ar.add_argument("--surrogate-seed", dest="surrogate_seed", type=int)
    ar.add_argument("--order", type=int)
    ar.add_argument("--mu", type=float)
    ar.add_argument("--variant", choices=["topo", "edge-laplacian-baseline"])
    ar.add_argument("--epochs", type=int)
    ar.add_argument("--distributed", action="store_true", default=None)
    ar.add_argument("--rule", choices=["uniform", "metropolis"])

    analyze = sub.add_parser("analyze", help="summarise a result file")
    _add_common(analyze)
    analyze.add_argument("--results", dest="results_file")

    return parser


def _collect_values(args: argparse.Namespace) -> dict:
    values = load_config(args.config) if args.config else {}
    skip = {"mode", "config", "out", "format"}
    for key, value in vars(args).items():
        if key in skip or value is None:
            continue
        values[key] = value
    if "surrogate_seed" in values:
        surrogate = dict(values.get("surrogate", {}))
        surrogate["seed"] = values.pop("surrogate_seed")
        values["surrogate"] = surrogate
    if "nodes" in values:
        spec = dict(values.get("complex", {}))
        spec["vertices"] = values.pop("nodes")
        for key in ("edge_prob", "fill_prob", "edges", "triangles"):
            if key in values:
                spec[key] = values.pop(key)
        spec.setdefault("seed", values.get("seed", 0))
        values["complex"] = spec
    return values


def _summary_line(mode: str, payload: dict) -> str:
    if mode == "run-lms" or mode == "run-distributed":
        db = payload["steady_state_db"]
        return f"{mode}: steady-state deviation " + ("n/a" if db is None else f"{db:.2f} dB")
    if mode == "design-sampling":
        return (
            f"design-sampling: rate {payload['objective']:.4f} over "
            f"{len(payload['support'])} edges (converged={payload['converged']})"
        )
    if mode == "infer-topology":
        return f"infer-topology: final recovery rate {payload['recovery_rate'][-1]:.2f}"
    if mode == "ar-train":
        return f"ar-train[{payload['variant']}]: mean test error {payload['mean_test_error']:.4f}"
    if mode == "generate-complex":
        return (
            f"generate-complex: {payload['vertices']} vertices, "
            f"{payload['edges']} edges, {payload['triangles']} triangles"
        )
    return f"{mode}: done"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        values = _collect_values(args)
        if args.out:
            check_output(args.mode, args.out, args.format)
        payload = run_mode(args.mode, values)
        if args.out:
            try:
                emit_results(payload, args.out, fmt=args.format)
            except ValueError as exc:  # a non-finite float, which strict JSON cannot hold
                print(f"numerical failure: {exc}", file=sys.stderr)
                return _EXIT_NUMERICAL
        if args.mode == "analyze":
            print(json.dumps(payload, indent=2))
        else:
            print(_summary_line(args.mode, payload))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return _EXIT_DIVERGED
    except InfeasibleProblemError as exc:
        print(f"infeasible sampling problem: {exc}", file=sys.stderr)
        return _EXIT_INFEASIBLE
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    return _EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
