"""Experiment orchestration: config handling, mode runners, result files.

Configs are flat JSON objects; command-line flags override file values.
Every runner is deterministic given the config (all randomness flows
from the ``seed`` key through tagged child generators), so re-running a
config reproduces its result file byte for byte.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from . import __version__
from .artrain import run_ar_training, run_distributed_ar
from .complexes import (
    SimplicialComplex2,
    grown_complex,
    hodge_laplacians,
    load_complex,
    random_complex,
    save_complex,
)
from .datasets import ingest_edge_series, traffic_surrogate, write_edge_series
from .diffusion import (
    build_combination,
    lower_adjacency_neighborhoods,
    run_distributed,
    save_combination,
)
from .errors import ConfigError
from .inference import _check_threshold_order, candidate_set, run_inference
from .lms import _db_or_none, run_experiment, tail_average, to_db
from .sampling import SamplingProblem, solve_sampling
from .signals import FilterCoeffs, StreamConfig

__all__ = [
    "ExperimentConfig",
    "load_config",
    "emit_results",
    "run_mode",
    "MODES",
]


@dataclass
class ExperimentConfig:
    """A validated mode name plus its key/value settings."""

    mode: str
    values: dict

    def get(self, key, default=None):
        return self.values.get(key, default)

    def require(self, key):
        if key not in self.values:
            raise ConfigError(f"mode {self.mode!r} requires config key {key!r}")
        return self.values[key]


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def _sub_rng(seed: int, tag: str) -> np.random.Generator:
    """Deterministic child generator for one named purpose."""
    digest = int.from_bytes(tag.encode("utf-8"), "big") % (2**31)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(digest,)))


def _positive(cfg: ExperimentConfig, key: str, value) -> float:
    value = float(value)
    if not value > 0:
        raise ConfigError(f"config key {key!r} must be positive, got {value}")
    return value


def _count(cfg: ExperimentConfig, key: str, value, minimum: int = 0) -> int:
    value = int(value)
    if value < minimum:
        raise ConfigError(f"config key {key!r} must be at least {minimum}, got {value}")
    return value


def build_complex_from_config(cfg: ExperimentConfig) -> SimplicialComplex2:
    if "complex_file" in cfg.values:
        try:
            return load_complex(cfg.values["complex_file"])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load complex: {exc}") from exc
    spec = cfg.get("complex")
    if not isinstance(spec, dict):
        raise ConfigError("config needs either complex_file or a complex object")
    try:
        vertices = int(spec["vertices"])
        seed = int(spec.get("seed", 0))
        if "edges" in spec:
            return grown_complex(vertices, int(spec["edges"]), int(spec["triangles"]), seed)
        return random_complex(vertices, float(spec["edge_prob"]), float(spec["fill_prob"]), seed)
    except KeyError as exc:
        raise ConfigError(f"complex object misses key {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"invalid complex parameters: {exc}") from exc


def resolve_noise(spec, num_edges: int, seed: int) -> np.ndarray:
    """Per-edge noise variances from a scalar, list, or random draw spec.

    Draw specs: ``{"choices": [...]}`` picks per edge uniformly from the
    set; ``{"low": a, "high": b}`` draws uniformly (``"log": true`` for
    log-uniform). Draws use the tagged child generator of ``seed``.
    """
    rng = _sub_rng(seed, "noise")
    if isinstance(spec, dict):
        if "choices" in spec:
            return rng.choice(np.asarray(spec["choices"], dtype=np.float64), size=num_edges)
        if "low" in spec and "high" in spec:
            low, high = float(spec["low"]), float(spec["high"])
            if spec.get("log"):
                return np.exp(rng.uniform(np.log(low), np.log(high), size=num_edges))
            return rng.uniform(low, high, size=num_edges)
        raise ConfigError(f"unsupported noise spec {spec!r}")
    arr = np.broadcast_to(np.asarray(spec, dtype=np.float64), (num_edges,)).copy()
    if np.any(arr < 0):
        raise ConfigError("noise variances must be nonnegative")
    return arr


def resolve_p(spec, num_edges: int, sigma_v2: np.ndarray | None = None) -> np.ndarray:
    """Per-edge sampling probabilities; supports the noise-percentile rule.

    ``{"lowest_noise_fraction": f}`` assigns probability one to the
    fraction ``f`` of edges with the smallest noise variance and zero to
    the rest.
    """
    if isinstance(spec, dict):
        if "lowest_noise_fraction" in spec:
            if sigma_v2 is None:
                raise ConfigError("lowest_noise_fraction needs noise variances")
            fraction = float(spec["lowest_noise_fraction"])
            if not 0 < fraction <= 1:
                raise ConfigError("lowest_noise_fraction must lie in (0, 1]")
            count = max(1, int(round(fraction * num_edges)))
            order = np.argsort(sigma_v2, kind="stable")
            p = np.zeros(num_edges)
            p[order[:count]] = 1.0
            return p
        raise ConfigError(f"unsupported sampling spec {spec!r}")
    arr = np.broadcast_to(np.asarray(spec, dtype=np.float64), (num_edges,)).copy()
    if np.any(arr < 0) or np.any(arr > 1):
        raise ConfigError("sampling probabilities must lie in [0, 1]")
    return arr


def draw_coeffs(order: int, seed: int, scale: float = 1.0) -> FilterCoeffs:
    return FilterCoeffs.random(order, _sub_rng(seed, "coeffs"), scale=scale)


def draw_bounded_coeffs(order: int, seed: int, magnitude: float = 1.0) -> FilterCoeffs:
    """Taps with magnitudes near ``magnitude`` (upper positive, lower signed).

    The joint topology recursion relies on gradient kicks whose size
    scales with the squared tap magnitudes, so unbounded draws make its
    behaviour erratic; this law keeps the dynamics in the working range.
    """
    rng = _sub_rng(seed, "coeffs")
    h_u = rng.uniform(0.8 * magnitude, 1.2 * magnitude, order + 1)
    h_d = rng.uniform(0.8 * magnitude, 1.2 * magnitude, order) * rng.choice(
        [-1.0, 1.0], order
    )
    return FilterCoeffs(h_u=h_u, h_d=h_d)


def emit_results(payload: dict, path, fmt: str = "json", fieldnames=None) -> None:
    """Write a result payload as strict JSON, or its ``records`` rows as CSV.

    JSON files never hold the non-standard tokens ``NaN`` or
    ``Infinity``: a payload with a non-finite float raises before the
    file is opened. CSV needs an explicit column order (``fieldnames``)
    or at least one record; an empty record list still produces the
    header line.
    """
    if fmt == "json":
        text = json.dumps(payload, indent=2, allow_nan=False)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    elif fmt == "csv":
        records = payload.get("records", [])
        if fieldnames is None:
            if not records:
                raise ConfigError("CSV output with no records needs explicit fieldnames")
            fieldnames = list(records[0].keys())
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames)
            writer.writeheader()
            for record in records:
                writer.writerow(record)
    else:
        raise ConfigError(f"unknown output format {fmt!r}")


def _metadata(cfg: ExperimentConfig) -> dict:
    return {"version": __version__, "mode": cfg.mode, "seed": int(cfg.get("seed", 0))}


def _stream_pieces(cfg: ExperimentConfig, complex_: SimplicialComplex2):
    """Coefficients, stream config, horizon and realization count of a simulation mode."""
    seed = int(cfg.get("seed", 0))
    E = complex_.num_edges
    order = _count(cfg, "order", cfg.require("order"))
    horizon = _count(cfg, "horizon", cfg.require("horizon"))
    realizations = _count(cfg, "realizations", cfg.get("realizations", 30), minimum=1)
    sigma_v2 = resolve_noise(cfg.get("noise_var", 0.0), E, seed)
    p = resolve_p(cfg.get("p", 1.0), E, sigma_v2)
    signal_var = _positive(cfg, "signal_var", cfg.get("signal_var", 1.0))
    scale = _positive(cfg, "coeff_scale", cfg.get("coeff_scale", 1.0))
    coeffs = draw_coeffs(order, seed, scale=scale)
    stream = StreamConfig(
        c_x=signal_var * np.eye(E), sigma_v2=sigma_v2, p=p, horizon=horizon + order, seed=seed
    )
    return coeffs, stream, horizon, realizations


def mode_run_lms(cfg: ExperimentConfig) -> dict:
    complex_ = build_complex_from_config(cfg)
    coeffs, stream, horizon, realizations = _stream_pieces(cfg, complex_)
    mu = _positive(cfg, "mu", cfg.require("mu"))
    result = run_experiment(complex_, coeffs, stream, mu, realizations, horizon)
    payload = {
        "config": dict(cfg.values),
        "metadata": _metadata(cfg),
        "complex": {
            "vertices": complex_.num_vertices,
            "edges": complex_.num_edges,
            "triangles": complex_.num_triangles,
        },
        "msd": result.msd.tolist(),
        "msd_db": result.msd_db.tolist(),
        "steady_state_db": result.steady_state_db(),
        "theory": result.theory.to_dict() if result.theory else None,
        "diverged": result.diverged,
        "records": [
            {
                "iteration": k,
                "msd_db": float(db),
                "msd_theory_db": _db_or_none(result.theory.msd_exact) if result.theory else "",
            }
            for k, db in enumerate(result.msd_db)
        ],
    }
    return payload


def mode_design_sampling(cfg: ExperimentConfig) -> dict:
    complex_ = build_complex_from_config(cfg)
    ops = hodge_laplacians(complex_)
    E = complex_.num_edges
    seed = int(cfg.get("seed", 0))
    order = _count(cfg, "order", cfg.require("order"))
    sigma_v2 = resolve_noise(cfg.get("noise_var", 0.0), E, seed)
    signal_var = _positive(cfg, "signal_var", cfg.get("signal_var", 1.0))
    problem = SamplingProblem.from_moments(
        ops,
        signal_var * np.eye(E),
        sigma_v2,
        order,
        mu=_positive(cfg, "mu", cfg.require("mu")),
        alpha=float(cfg.require("alpha")),
        gamma=_positive(cfg, "gamma", cfg.require("gamma")),
        p_max=cfg.get("p_max", 1.0),
    )
    solution = solve_sampling(
        problem,
        tol=float(cfg.get("tol", 1e-6)),
        max_iter=int(cfg.get("max_iter", 2000)),
        seed=seed,
    )
    return {
        "config": dict(cfg.values),
        "metadata": _metadata(cfg),
        "p_star": solution.p_star.tolist(),
        "objective": solution.objective,
        "support": solution.support().tolist(),
        "slacks": {
            "rate": solution.slacks.rate,
            "budget": solution.slacks.budget,
            "box_lower": solution.slacks.box_lower,
            "box_upper": solution.slacks.box_upper,
        },
        "iterations": solution.iterations,
        "converged": solution.converged,
    }


def mode_infer_topology(cfg: ExperimentConfig) -> dict:
    complex_ = build_complex_from_config(cfg)
    seed = int(cfg.get("seed", 0))
    order = _count(cfg, "order", cfg.require("order"))
    horizon = _count(cfg, "horizon", cfg.require("horizon"))
    realizations = _count(cfg, "realizations", cfg.get("realizations", 10), minimum=1)
    lam0, lam1 = float(cfg.require("lambda0")), float(cfg.require("lambda1"))
    try:
        _check_threshold_order(lam0, lam1)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    E = complex_.num_edges
    sigma_v2 = resolve_noise(cfg.get("noise_var", 0.0), E, seed)
    p = resolve_p(cfg.get("p", 1.0), E, sigma_v2)
    magnitude = _positive(cfg, "coeff_magnitude", cfg.get("coeff_magnitude", 1.0))
    coeffs = draw_bounded_coeffs(order, seed, magnitude=magnitude)
    cand = candidate_set(complex_, order)
    t_true = cand.true_indicator(complex_)
    schedule = [(0, t_true)]
    removals = _count(cfg, "remove_triangles", cfg.get("remove_triangles", 0))
    if removals:
        filled = np.flatnonzero(t_true)
        if removals > filled.size:
            raise ConfigError("cannot remove more triangles than the complex holds")
        drop = _sub_rng(seed, "removals").choice(filled, size=removals, replace=False)
        t_after = t_true.copy()
        t_after[drop] = 0.0
        schedule.append((horizon // 2, t_after))
    result = run_inference(
        complex_,
        coeffs,
        cand,
        sigma_v2,
        p,
        schedule,
        mu1=_positive(cfg, "mu1", cfg.require("mu1")),
        mu2=_positive(cfg, "mu2", cfg.require("mu2")),
        lam0=lam0,
        lam1=lam1,
        horizon=horizon,
        realizations=realizations,
        seed=seed,
        signal_var=_positive(cfg, "signal_var", cfg.get("signal_var", 1.0)),
    )
    return {
        "config": dict(cfg.values),
        "metadata": _metadata(cfg),
        "candidates": cand.num_candidates,
        "true_triangles": int(np.sum(t_true)),
        "h_error": result.h_error.tolist(),
        "t_error": result.t_error.tolist(),
        "recovery_rate": result.recovery_rate.tolist(),
        "support_size": result.support_size.tolist(),
        "diverged": result.diverged,
        "records": [
            {
                "iteration": k,
                "h_error": float(result.h_error[k]),
                "t_error": float(result.t_error[k]),
                "recovery_rate": float(result.recovery_rate[k]),
                "support_size": float(result.support_size[k]),
            }
            for k in range(result.h_error.size)
        ],
    }


def mode_run_distributed(cfg: ExperimentConfig) -> dict:
    complex_ = build_complex_from_config(cfg)
    coeffs, stream, horizon, realizations = _stream_pieces(cfg, complex_)
    mu = np.array([_positive(cfg, "mu", m) for m in np.ravel(cfg.require("mu"))])
    neighborhoods = lower_adjacency_neighborhoods(complex_)
    comb = build_combination(neighborhoods, rule=cfg.get("rule", "uniform"))
    result = run_distributed(
        complex_,
        coeffs,
        stream,
        comb,
        mu,
        realizations,
        horizon,
        track_agents=bool(cfg.get("emit_agent_traces", False)),
    )
    combination_file = cfg.get("combination_out")
    if combination_file:
        save_combination(comb, combination_file)
    payload = {
        "config": dict(cfg.values),
        "metadata": _metadata(cfg),
        "msd": result.msd.tolist(),
        "msd_db": to_db(result.msd).tolist(),
        "steady_state_db": float(to_db(tail_average(result.msd))),
        "theory": {
            "rho_b": result.theory.rho_b,
            "stable": result.theory.stable,
            "hypotheses_hold": result.theory.checks.all_hold(),
            "msd_per_agent": result.theory.msd_per_agent if result.theory.stable else None,
            "msd_per_agent_db": _db_or_none(result.theory.msd_per_agent),
        },
        "diverged": result.diverged,
    }
    if result.agent_msd is not None:
        payload["agent_msd"] = result.agent_msd.tolist()
    return payload


def mode_ar_train(cfg: ExperimentConfig) -> dict:
    if "surrogate" in cfg.values:
        spec = cfg.values["surrogate"]
        ds = traffic_surrogate(
            seed=int(spec.get("seed", 0)),
            order=int(spec.get("order", cfg.get("order", 3))),
            with_upper=bool(spec.get("with_upper", True)),
        )
    else:
        ds = ingest_edge_series(
            cfg.require("complex_file"),
            cfg.require("series_file"),
            train_count=cfg.get("train_count"),
        )
    order = int(cfg.require("order"))
    mu = _positive(cfg, "mu", cfg.require("mu"))
    epochs = int(cfg.get("epochs", 1))
    variant = cfg.get("variant", "topo")
    try:
        if cfg.get("distributed", False):
            comb = build_combination(
                lower_adjacency_neighborhoods(ds.complex), rule=cfg.get("rule", "uniform")
            )
            result = run_distributed_ar(ds, order, mu, comb, epochs=epochs, variant=variant)
        else:
            result = run_ar_training(ds, order, mu, variant=variant, epochs=epochs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return {
        "config": dict(cfg.values),
        "metadata": _metadata(cfg),
        "variant": result.variant,
        "train_errors": result.train_errors.tolist(),
        "test_errors": result.test_errors.tolist(),
        "mean_test_error": result.mean_test_error,
        "records": [
            {"snapshot": j, "test_error": float(e)}
            for j, e in enumerate(result.test_errors)
        ],
    }


def mode_generate_complex(cfg: ExperimentConfig) -> dict:
    complex_ = build_complex_from_config(cfg)
    out = cfg.get("complex_out")
    if out:
        save_complex(complex_, out)
    series_out = cfg.get("series_out")
    if series_out:
        ds = traffic_surrogate(
            seed=int(cfg.get("seed", 0)),
            order=int(cfg.get("order", 3)),
            with_upper=bool(cfg.get("with_upper", True)),
            complex_=complex_,
        )
        write_edge_series(series_out, ds.series)
    return {
        "config": dict(cfg.values),
        "metadata": _metadata(cfg),
        "vertices": complex_.num_vertices,
        "edges": complex_.num_edges,
        "triangles": complex_.num_triangles,
    }


def mode_analyze(cfg: ExperimentConfig) -> dict:
    path = cfg.require("results_file")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read results file {path}: {exc}") from exc
    summary: dict = {"results_file": str(path), "metadata": _metadata(cfg)}
    if "msd" in payload:
        msd = np.asarray(payload["msd"], dtype=np.float64)
        summary["iterations"] = int(msd.size - 1)
        summary["steady_state_db"] = float(to_db(tail_average(msd)))
        theory = payload.get("theory") or {}
        theory_db = theory.get("msd_exact_db", theory.get("msd_per_agent_db"))
        if theory_db is not None:
            summary["theory_db"] = float(theory_db)
            summary["gap_db"] = summary["steady_state_db"] - float(theory_db)
    if "test_errors" in payload:
        errors = np.asarray(payload["test_errors"], dtype=np.float64)
        summary["mean_test_error"] = float(np.mean(errors))
        summary["max_test_error"] = float(np.max(errors))
    if "p_star" in payload:
        p_star = np.asarray(payload["p_star"], dtype=np.float64)
        summary["sampling_rate"] = float(np.sum(p_star))
        summary["support_size"] = int(np.sum(p_star > 1e-6))
    return summary


MODES = {
    "run-lms": mode_run_lms,
    "design-sampling": mode_design_sampling,
    "infer-topology": mode_infer_topology,
    "run-distributed": mode_run_distributed,
    "ar-train": mode_ar_train,
    "generate-complex": mode_generate_complex,
    "analyze": mode_analyze,
}


def run_mode(mode: str, values: dict) -> dict:
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    return MODES[mode](ExperimentConfig(mode=mode, values=values))
