"""Command-line front end.

Every subcommand reads an optional JSON config (``--config``) and merges
command-line flags on top of it, flags winning; the mode then rejects any
key it does not declare. The subcommands and their flags are generated
from the mode key tables of ``harness.KEYS``: a key's flag is ``--`` plus
the key with ``-`` for ``_`` unless the table names another (``--nodes``
sets ``complex.vertices``, ``--results`` sets ``results_file``), and its
type, choices or switch action follow the key's parser. Results are
written with ``--out`` (JSON by default, ``--format csv`` for the mode's
row table) and a short summary is printed; an output that cannot be
written is a configuration error, found before the run starts.

Exit codes: 0 success, 2 configuration error, 3 numerical divergence,
4 infeasible sampling problem, 5 numerical failure (a linear-algebra or
floating-point error that no check above caught, or a non-finite value
that a strict JSON result cannot hold, reported in one line).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys

import numpy as np

from .errors import ConfigError, DivergenceError, InfeasibleProblemError
from .files import load_config
from .harness import (
    KEYS,
    _at_least_one,
    _count,
    _flag,
    _Object,
    _OneOf,
    _output,
    _path,
    check_output,
    emit_results,
    run_mode,
)

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_DIVERGED = 3
_EXIT_INFEASIBLE = 4
_EXIT_NUMERICAL = 5

_HELP = {
    "generate-complex": "write a random complex (and optional surrogate series)",
    "run-lms": "centralized adaptive filter experiment",
    "design-sampling": "solve the sampling design problem",
    "infer-topology": "joint coefficient and triangle estimation",
    "run-distributed": "diffusion network experiment",
    "ar-train": "autoregressive train/test protocol",
    "analyze": "summarise a result file",
}

# The flag type of each key parser that reads a whole number or a path; every other
# parser's flag reads a float.
_TYPES = {_count: int, _at_least_one: int, _path: None, _output: None}
_CLI_ONLY = ("mode", "config", "out", "format")


def _flags(table: dict, prefix: str = ""):
    """``(flag, dotted key, parser)`` of each key of ``table`` that has a flag. A switch that
    is on by default has none: its flag could only set it on."""
    for key, (parser, default, *flag) in table.items():
        if isinstance(parser, _Object):
            for nested in parser.tables:
                yield from _flags(nested, f"{prefix}{key}.")
            parser = parser.scalar
        if parser is not None and (flag or not prefix) and not (parser is _flag and default):
            yield flag[0] if flag else key, prefix + key, parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplexlms", allow_abbrev=False,
        description="Adaptive filtering of edge flows on 2-dimensional simplicial complexes",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, table in KEYS.items():
        mode_parser = sub.add_parser(mode, help=_HELP[mode], allow_abbrev=False)
        mode_parser.add_argument("--config", help="JSON config file; flags override its values")
        mode_parser.add_argument("--out", help="result file path")
        mode_parser.add_argument("--format", choices=["json", "csv"], default="json")
        flags = {flag: (dest, key_parser) for flag, dest, key_parser in _flags(table)}
        for flag, (dest, key_parser) in flags.items():
            if key_parser is _flag:
                kind = {"action": "store_true", "default": None}
            elif isinstance(key_parser, _OneOf):
                kind = {"choices": key_parser.choices}
            else:
                kind = {"type": _TYPES.get(key_parser, float)}
            mode_parser.add_argument("--" + flag.replace("_", "-"), dest=dest, **kind)
    return parser


def _collect_values(args: argparse.Namespace) -> dict:
    """The config file's values, with each flag given set on top: a dotted key sets that key
    of its nested object. Nested objects are set last, so a new one ends the config."""
    values = load_config(args.config) if args.config else {}
    given = {dest: value for dest, value in vars(args).items()
             if dest not in _CLI_ONLY and value is not None}
    for dest, value in sorted(given.items(), key=lambda item: "." in item[0]):
        name, _, key = dest.rpartition(".")
        target = values
        if name:
            nested = values.get(name)
            target = values[name] = dict(nested) if isinstance(nested, dict) else {}
        target[key] = value
    if any(dest.startswith("complex.") for dest in given):  # a complex from flags takes the run's seed
        values["complex"].setdefault("seed", values.get("seed", 0))
    return values


def _unstable_theory(mode: str, payload: dict) -> str | None:
    """The stderr line of a run-lms or run-distributed run whose theory is not stable."""
    if mode == "run-lms" and payload["theory"] is None:
        return "run-lms: no theory report: step-size fails the mean-stability bound"
    if mode == "run-distributed" and not (theory := payload["theory"])["stable"]:
        failed = ", ".join(theory.get("failed_hypotheses", [])) or "none"
        return (f"run-distributed: theory not stable: rho_b {theory['rho_b']!r}, "
                f"failing hypotheses: {failed}")
    return None


def _summary_line(mode: str, payload: dict) -> str:
    if mode == "run-lms" or mode == "run-distributed":
        db = payload["steady_state_db"]
        # a tail mean is a steady state only where the theory is stable
        tail = "tail" if _unstable_theory(mode, payload) else "steady-state"
        return f"{mode}: {tail} deviation " + ("n/a" if db is None else f"{db:.2f} dB")
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


def _one_blas_thread():
    """Pin numpy's bundled OpenBLAS to one thread, since result bits depend on the thread count,
    and return the call that restores the count. Without the symbol a run is not pinned."""
    try:  # the extension module's handle finds the symbols of the OpenBLAS it links
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        print("note: BLAS thread count not pinned; result bits may depend on it", file=sys.stderr)
        return lambda: None
    get.argtypes, get.restype, set_.argtypes, set_.restype = (), ctypes.c_int, (ctypes.c_int,), None
    threads = get()
    set_(1)
    return lambda: set_(threads)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    restore = _one_blas_thread()
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
        if line := _unstable_theory(args.mode, payload):
            print(line, file=sys.stderr)
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
    finally:
        restore()
    return _EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
