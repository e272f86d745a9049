"""Experiment orchestration: config handling, mode runners, result files.

Configs are JSON objects; command-line flags override file values. Each
mode declares its keys once, in :data:`KEYS`: parser, default and flag.
Every runner is deterministic given the config (all randomness flows
from the ``seed`` key through tagged child generators), so re-running a
config reproduces its result file byte for byte.

:func:`run_mode` is the one boundary between a config and the library:
it parses the config against its mode's table, and a ``ValueError`` or
``OSError`` raised anywhere inside a mode (a rejected input, a file that
cannot be read or written) becomes a :class:`ConfigError`. It writes the
``config``/``metadata`` envelope of every result.
"""

from __future__ import annotations

import os

import numpy as np

from . import __version__
from .artrain import VARIANTS, _check_variant, run_ar_training, run_distributed_ar
from .complexes import SimplicialComplex2, grown_complex, hodge_laplacians, random_complex
from .datasets import ingest_edge_series, traffic_surrogate
from .diffusion import (RULES, _check_rule, build_combination, lower_adjacency_neighborhoods,
                        run_distributed)
from .errors import ConfigError
from .files import (load_complex, read_results, save_combination, save_complex, write_edge_series,
                    write_results)
from .inference import _check_threshold_order, candidate_set, run_inference
from .lms import _db_or_none, run_experiment, tail_average, to_db
from .sampling import SamplingProblem, solve_sampling
from .signals import FilterCoeffs, StreamConfig

__all__ = [
    "KEYS",
    "emit_results",
    "check_output",
    "run_mode",
    "MODES",
]


def _sub_rng(seed: int, tag: str) -> np.random.Generator:
    """Deterministic child generator for one named purpose."""
    digest = int.from_bytes(tag.encode("utf-8"), "big") % (2**31)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(digest,)))


def _numbers(value, message: str) -> np.ndarray:
    """``value`` as a float array; a value that is not a JSON number or a (nested) list of
    them is a config error: numpy would read a string or a boolean as a number."""
    try:
        if not any(isinstance(leaf, (str, bool)) for leaf in np.ravel(np.array(value, object))):
            return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{message}, got {value!r}")


# Key parsers: each takes the (dotted) key and its value as given, and returns
# the value the mode reads or raises ConfigError.

def _number(key: str, value) -> float:
    number = _numbers(value, f"config key {key!r} must be a number")
    if number.ndim:
        raise ConfigError(f"config key {key!r} must be one number, got {value!r}")
    return float(number)


def _positive(key: str, value) -> float:
    value = _number(key, value)
    if not 0 < value < np.inf:
        raise ConfigError(f"config key {key!r} must be positive and finite, got {value}")
    return value


def _nonnegative(key: str, value) -> float:
    value = _number(key, value)
    if not 0.0 <= value < np.inf:
        raise ConfigError(f"config key {key!r} must be finite and nonnegative, got {value}")
    return value


def _count(key: str, value, minimum: int = 0) -> int:
    number = _number(key, value)
    if not number.is_integer():
        raise ConfigError(f"config key {key!r} must be a whole number, got {value!r}")
    if number < minimum:
        raise ConfigError(f"config key {key!r} must be at least {minimum}, got {int(number)}")
    return int(number)


def _at_least_one(key: str, value) -> int:
    return _count(key, value, minimum=1)


def _flag(key: str, value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"config key {key!r} must be true or false, got {value!r}")
    return value


def _path(key: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"config key {key!r} must be a file path, got {value!r}")
    return value


def _output(key: str, value) -> str:
    """A side output path, checked as ``--out`` is."""
    check_output(None, _path(key, value))
    return value


def _by_edge(key: str, value):
    """A per-edge value as given: :func:`_per_edge` checks it against the complex's edge count."""
    return value


def _positives(key: str, value):
    """A per-edge value whose every entry must be positive and finite."""
    for entry in np.ravel(_numbers(value, f"config key {key!r} must be numbers")):
        _positive(key, entry)
    return value


def _noise_choices(key: str, value) -> np.ndarray:
    choices = _numbers(value, "noise choices must be numbers")
    if choices.ndim != 1 or choices.size == 0:
        raise ConfigError(f"noise choices must be a nonempty list of numbers, got {value!r}")
    return choices


def _noise_bound(key: str, value) -> float:
    bound = _numbers(value, "noise bounds must be numbers")
    if bound.ndim:
        raise ConfigError(f"noise bounds must be two numbers, got {value!r}")
    return float(bound)


def _fraction(key: str, value) -> float:
    fraction = _number("lowest_noise_fraction", value)
    if not 0 < fraction <= 1:
        raise ConfigError("lowest_noise_fraction must lie in (0, 1]")
    return fraction


class _OneOf:
    """A choice set; ``check``, the library's own test, rejects any other value."""

    def __init__(self, choices: tuple, check):
        self.choices, self.check = choices, check

    def __call__(self, key: str, value):
        self.check(value)
        return value


class _Object:
    """A nested JSON object, parsed against whichever of ``tables`` declares the most of its
    keys (the first on a tie). ``scalar`` parses a value given in its place; without one the
    value must be an object."""

    def __init__(self, *tables: dict, scalar=None):
        self.tables, self.scalar = tables, scalar


REQUIRED = object()  # the default of a key the config must give

# Each mode's keys: key -> (parser, default[, flag]). A default of None leaves an
# absent key absent. Every top-level key has the flag ``--<key>`` (``_`` as ``-``)
# unless its entry names another; a nested key has a flag only where it names one.
_COMMON = {"seed": (_count, 0)}
_COMPLEX_BASE = {"vertices": (_count, REQUIRED, "nodes"), "seed": (_count, 0)}
_COMPLEX = {
    "complex_file": (_path, None),
    "complex": (_Object(
        {**_COMPLEX_BASE, "edge_prob": (_number, REQUIRED, "edge_prob"),
         "fill_prob": (_number, REQUIRED, "fill_prob")},
        {**_COMPLEX_BASE, "edges": (_count, REQUIRED, "edges"),
         "triangles": (_count, REQUIRED, "triangles")},
    ), None),
}
_STREAM = {
    **_COMPLEX,
    "order": (_count, REQUIRED),
    "horizon": (_count, REQUIRED),
    "realizations": (_at_least_one, 30),
    "signal_var": (_positive, 1.0),
    "noise_var": (_Object(
        {"choices": (_noise_choices, REQUIRED)},
        {"low": (_noise_bound, REQUIRED), "high": (_noise_bound, REQUIRED), "log": (_flag, False)},
        scalar=_by_edge,
    ), 0.0),
    "p": (_Object({"lowest_noise_fraction": (_fraction, REQUIRED)}, scalar=_by_edge), 1.0),
}
_MU = {"mu": (_positive, REQUIRED)}
_RULE = {"rule": (_OneOf(RULES, _check_rule), "uniform")}
_COEFF_SCALE = {"coeff_scale": (_positive, 1.0)}

KEYS = {
    "generate-complex": {
        **_COMMON, **_COMPLEX,
        "complex_out": (_output, None),
        "series_out": (_output, None),
        "order": (_count, 3),
        "with_upper": (_flag, True),
    },
    "run-lms": {**_COMMON, **_STREAM, **_MU, **_COEFF_SCALE},
    "design-sampling": {
        **_COMMON,
        **{key: _STREAM[key] for key in ("complex_file", "complex", "order", "signal_var",
                                         "noise_var")},
        **_MU,
        "alpha": (_number, REQUIRED),
        "gamma": (_positive, REQUIRED),
        "p_max": (_by_edge, 1.0),
        "tol": (_nonnegative, 1e-6),
        "max_iter": (_at_least_one, 2000),
    },
    "infer-topology": {
        **_COMMON, **_STREAM,
        "realizations": (_at_least_one, 10),
        "mu1": (_positive, REQUIRED),
        "mu2": (_positive, REQUIRED),
        "lambda0": (_number, REQUIRED),
        "lambda1": (_number, REQUIRED),
        "remove_triangles": (_count, 0),
        "coeff_magnitude": (_positive, 1.0),
    },
    "run-distributed": {
        **_COMMON, **_STREAM,
        "mu": (_positives, REQUIRED),
        **_RULE,
        "emit_agent_traces": (_flag, False),
        "combination_out": (_output, None),
        **_COEFF_SCALE,
    },
    "ar-train": {
        **_COMMON,
        "complex_file": _COMPLEX["complex_file"],
        "series_file": (_path, None),
        "train_count": (_at_least_one, None),
        "surrogate": (_Object({"seed": (_count, 0, "surrogate_seed"), "order": (_count, None),
                               "with_upper": (_flag, True)}), None),
        "order": _STREAM["order"],
        **_MU,
        "variant": (_OneOf(VARIANTS, _check_variant), "topo"),
        "epochs": (_at_least_one, 1),
        "distributed": (_flag, False),
        **_RULE,
    },
    "analyze": {**_COMMON, "results_file": (_path, REQUIRED, "results")},
}


def _parse(mode: str, table: dict, values: dict, prefix: str = "") -> dict:
    """``values`` checked against ``table``: no undeclared key, each key parsed, defaults filled in."""
    for key in values:
        if key not in table:
            raise ConfigError(f"mode {mode!r} has no config key {prefix + key!r}")
    parsed = {}
    for key, (parser, default, *_) in table.items():
        name = prefix + key
        if key not in values:
            if default is REQUIRED:
                raise ConfigError(f"{prefix[:-1]} object misses key {key!r}" if prefix
                                  else f"mode {mode!r} requires config key {key!r}")
            if default is not None:
                parsed[key] = default
            continue
        value = values[key]
        if isinstance(parser, _Object) and isinstance(value, dict):
            nested = max(parser.tables, key=lambda t: len(t.keys() & value.keys()))
            parsed[key] = _parse(mode, nested, value, name + ".")
        elif isinstance(parser, _Object):
            if parser.scalar is None:
                raise ConfigError(f"config key {name!r} must be an object, got {value!r}")
            parsed[key] = parser.scalar(name, value)
        else:
            parsed[key] = parser(name, value)
    return parsed


def build_complex_from_config(cfg: dict) -> SimplicialComplex2:
    if "complex_file" in cfg:
        return load_complex(cfg["complex_file"])
    spec = cfg.get("complex")
    if spec is None:
        raise ConfigError("config needs either complex_file or a complex object")
    if "edges" in spec:
        return grown_complex(spec["vertices"], spec["edges"], spec["triangles"], spec["seed"])
    return random_complex(spec["vertices"], spec["edge_prob"], spec["fill_prob"], spec["seed"])


def _complex_with_edges(mode: str, complex_: SimplicialComplex2) -> SimplicialComplex2:
    """``complex_``, for modes that estimate or design over edges."""
    if complex_.num_edges == 0:
        raise ConfigError(f"mode {mode!r} needs a complex with edges; its edge set is empty")
    return complex_


def _per_edge(spec, num_edges: int, what: str) -> np.ndarray:
    values = _numbers(spec, f"{what} must be numbers")
    if values.ndim > 1 or values.size not in {1, num_edges}:
        raise ConfigError(f"{what} must be one number or {num_edges}, one per edge, got {spec!r}")
    return np.broadcast_to(values, (num_edges,)).copy()


def resolve_noise(spec, num_edges: int, seed: int) -> np.ndarray:
    """Per-edge noise variances from a scalar, list, or random draw spec.

    Draw specs: ``{"choices": [...]}`` picks per edge uniformly from the
    set; ``{"low": a, "high": b}`` draws uniformly (``"log": true`` for
    log-uniform). Draws use the tagged child generator of ``seed``.
    """
    rng = _sub_rng(seed, "noise")
    if not isinstance(spec, dict):
        arr = _per_edge(spec, num_edges, "noise variances")
    elif "choices" in spec:
        arr = rng.choice(spec["choices"], size=num_edges)
    elif "low" in spec and "high" in spec:
        bounds = np.array([spec["low"], spec["high"]], dtype=np.float64)
        # the bits of rng.uniform, which raises on a non-finite range: bad
        # bounds give NaN or inf draws, which the check below rejects
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            low, high = np.log(bounds) if spec.get("log") else bounds
            arr = low + (high - low) * rng.random(num_edges)
            arr = np.exp(arr) if spec.get("log") else arr
    else:
        raise ConfigError(f"unsupported noise spec {spec!r}")
    if not np.all((0 <= arr) & (arr < np.inf)):
        raise ConfigError("noise variances must be finite and nonnegative")
    return arr


def resolve_p(spec, num_edges: int, sigma_v2: np.ndarray | None = None) -> np.ndarray:
    """Per-edge sampling probabilities; supports the noise-percentile rule.

    ``{"lowest_noise_fraction": f}`` assigns probability one to the
    fraction ``f`` of edges with the smallest noise variance and zero to
    the rest.
    """
    if isinstance(spec, dict):
        if sigma_v2 is None:
            raise ConfigError("lowest_noise_fraction needs noise variances")
        count = max(1, int(round(spec["lowest_noise_fraction"] * num_edges)))
        order = np.argsort(sigma_v2, kind="stable")
        p = np.zeros(num_edges)
        p[order[:count]] = 1.0
        return p
    arr = _per_edge(spec, num_edges, "config key 'p'")
    if not np.all((0 <= arr) & (arr <= 1)):  # NaN fails too
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


def _db_cells(msd) -> np.ndarray:
    """``to_db`` over a whole deviation trajectory; ``None`` (an empty cell) where not positive."""
    msd = np.asarray(msd, dtype=np.float64)  # no log10 of a value that is not positive
    return np.where(msd > 0, to_db(np.where(msd > 0, msd, 1.0)), None)


# The CSV row table of each mode: the header of the row-number column, then
# (header, payload key) per column, or (header, payload key, view) where
# ``view`` maps the key's array to the column's cells. A key names a per-row
# array, or a scalar repeated on every row (a dotted path into the payload).
_CSV_COLUMNS = {
    "run-lms": ("iteration", (("msd_db", "msd", _db_cells),
                              ("msd_theory_db", "theory.msd_exact_db"))),
    "run-distributed": ("iteration", (("msd_db", "msd", _db_cells),)),
    "infer-topology": ("iteration", (("h_error", "h_error"), ("t_error", "t_error"),
                                     ("recovery_rate", "recovery_rate"),
                                     ("support_size", "support_size"))),
    "ar-train": ("snapshot", (("test_error", "test_errors"),)),
}


def _csv_table(mode):
    if mode not in _CSV_COLUMNS:
        raise ConfigError(f"mode {mode!r} has no CSV row table; write JSON instead")
    return _CSV_COLUMNS[mode]


def check_output(mode: str, path, fmt: str = "json") -> None:
    """Reject, before a run, an output :func:`emit_results` could not write.

    CSV needs a row table for ``mode``, and ``path`` must name a file in
    an existing directory.
    """
    if fmt == "csv":
        _csv_table(mode)
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        raise ConfigError(f"cannot write {path}: no directory {folder}")
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path}: it is a directory")


def emit_results(payload: dict, path, fmt: str = "json") -> None:
    """Write a result payload as one line of strict, compact JSON, or its mode's row table as CSV.

    The file is streamed by :func:`.files.write_results`, so memory does
    not grow with the file and a failed write leaves no file: an existing
    one keeps its bytes. A payload with a non-finite float raises. CSV rows
    come from the column table of the payload's ``metadata.mode``; a mode
    without a table, or a file that cannot be written, is a :class:`ConfigError`.
    """
    table = None
    if fmt == "csv":
        table = _csv_table(payload.get("metadata", {}).get("mode"))
    elif fmt != "json":
        raise ConfigError(f"unknown output format {fmt!r}")
    write_results(path, payload, table)


def _stream(cfg: dict, complex_: SimplicialComplex2) -> StreamConfig:
    """The signal model of a simulation mode; the caller passes the horizon and seed and
    draws the coefficients, whose law depends on the mode."""
    E = complex_.num_edges
    sigma_v2 = resolve_noise(cfg["noise_var"], E, cfg["seed"])
    p = resolve_p(cfg["p"], E, sigma_v2)
    return StreamConfig.white(E, cfg["signal_var"], sigma_v2, p)


def _deviation_fields(msd: np.ndarray) -> dict:
    """The result fields of a deviation trajectory: itself, once, and its steady state in dB."""
    return {"msd": msd, "steady_state_db": _db_or_none(tail_average(msd))}


def mode_run_lms(cfg: dict) -> dict:
    complex_ = _complex_with_edges("run-lms", build_complex_from_config(cfg))
    stream = _stream(cfg, complex_)
    coeffs = draw_coeffs(cfg["order"], cfg["seed"], scale=cfg["coeff_scale"])
    result = run_experiment(complex_, coeffs, stream, cfg["mu"], cfg["realizations"],
                            cfg["horizon"], cfg["seed"])
    return {
        "complex": {
            "vertices": complex_.num_vertices,
            "edges": complex_.num_edges,
            "triangles": complex_.num_triangles,
        },
        **_deviation_fields(result.msd),
        "theory": result.theory.to_dict() if result.theory else None,
        "diverged": result.diverged,
    }


def mode_design_sampling(cfg: dict) -> dict:
    complex_ = _complex_with_edges("design-sampling", build_complex_from_config(cfg))
    E = complex_.num_edges
    p_max = _per_edge(cfg["p_max"], E, "config key 'p_max'")
    sigma_v2 = resolve_noise(cfg["noise_var"], E, cfg["seed"])
    problem = SamplingProblem.from_moments(
        hodge_laplacians(complex_),
        cfg["signal_var"],
        sigma_v2,
        cfg["order"],
        mu=cfg["mu"],
        alpha=cfg["alpha"],
        gamma=cfg["gamma"],
        p_max=p_max,
    )
    solution = solve_sampling(problem, tol=cfg["tol"], max_iter=cfg["max_iter"])
    return {
        "p_star": solution.p_star,
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


def mode_infer_topology(cfg: dict) -> dict:
    complex_ = _complex_with_edges("infer-topology", build_complex_from_config(cfg))
    stream = _stream(cfg, complex_)
    _check_threshold_order(cfg["lambda0"], cfg["lambda1"])
    coeffs = draw_bounded_coeffs(cfg["order"], cfg["seed"], magnitude=cfg["coeff_magnitude"])
    cand = candidate_set(complex_, cfg["order"])
    if not cand.num_candidates:  # no 3-clique to recover: a recovery rate of 1 would be vacuous
        raise ConfigError(f"{cfg.get('complex_file', 'the complex')} has no triangle candidates")
    t_true = cand.true_indicator(complex_)
    schedule = [(0, t_true)]
    removals, horizon = cfg["remove_triangles"], cfg["horizon"]
    if removals:
        filled = np.flatnonzero(t_true)
        if removals > filled.size:
            raise ConfigError("cannot remove more triangles than the complex holds")
        drop = _sub_rng(cfg["seed"], "removals").choice(filled, size=removals, replace=False)
        t_after = t_true.copy()
        t_after[drop] = 0.0
        schedule.append((horizon // 2, t_after))
    result = run_inference(
        cand,
        coeffs,
        stream,
        schedule,
        mu1=cfg["mu1"],
        mu2=cfg["mu2"],
        lam0=cfg["lambda0"],
        lam1=cfg["lambda1"],
        realizations=cfg["realizations"],
        horizon=horizon,
        seed=cfg["seed"],
    )
    return {
        "candidates": cand.num_candidates,
        "true_triangles": int(np.sum(t_true)),
        "h_error": result.h_error,
        "t_error": result.t_error,
        "recovery_rate": result.recovery_rate,
        "support_size": result.support_size,
        "diverged": result.diverged,
    }


def mode_run_distributed(cfg: dict) -> dict:
    complex_ = _complex_with_edges("run-distributed", build_complex_from_config(cfg))
    stream = _stream(cfg, complex_)
    coeffs = draw_coeffs(cfg["order"], cfg["seed"], scale=cfg["coeff_scale"])
    mu = _per_edge(cfg["mu"], complex_.num_edges, "config key 'mu'")
    comb = build_combination(lower_adjacency_neighborhoods(complex_), rule=cfg["rule"])
    if cfg.get("combination_out"):
        save_combination(comb, cfg["combination_out"])
    result = run_distributed(complex_, coeffs, stream, comb, mu, cfg["realizations"],
                             cfg["horizon"], cfg["seed"], track_agents=cfg["emit_agent_traces"])
    failed = [name for name, holds in vars(result.theory.checks).items() if not holds]
    payload = {
        **_deviation_fields(result.msd),
        "theory": {
            "rho_b": result.theory.rho_b,
            "stable": result.theory.stable,
            "hypotheses_hold": result.theory.checks.all_hold(),
            "msd_per_agent": result.theory.msd_per_agent if result.theory.stable else None,
            "msd_per_agent_db": _db_or_none(result.theory.msd_per_agent),
            **({"failed_hypotheses": failed} if failed else {}),
        },
        "diverged": result.diverged,
    }
    if result.agent_msd is not None:
        payload["agent_msd"] = result.agent_msd
    return payload


def mode_ar_train(cfg: dict) -> dict:
    if "surrogate" in cfg:
        if "train_count" in cfg:
            raise ConfigError("config key 'train_count' applies only to a series file; "
                              "the surrogate's train/test split is fixed")
        for key in ("complex_file", "series_file"):
            if key in cfg:
                raise ConfigError(f"mode 'ar-train' takes config key {key!r} only without "
                                  "'surrogate', which brings its own complex and series")
        spec = cfg["surrogate"]
        ds = traffic_surrogate(seed=spec["seed"], order=spec.get("order", cfg["order"]),
                               with_upper=spec["with_upper"])
    else:
        for key in ("complex_file", "series_file"):
            if key not in cfg:
                raise ConfigError(f"mode 'ar-train' requires config key {key!r}")
        ds = ingest_edge_series(cfg["complex_file"], cfg["series_file"],
                                train_count=cfg.get("train_count"))
    _complex_with_edges("ar-train", ds.complex)
    order, mu, variant, epochs = cfg["order"], cfg["mu"], cfg["variant"], cfg["epochs"]
    if cfg["distributed"]:
        comb = build_combination(lower_adjacency_neighborhoods(ds.complex), rule=cfg["rule"])
        result = run_distributed_ar(ds, order, mu, comb, epochs=epochs, variant=variant)
    else:
        result = run_ar_training(ds, order, mu, variant=variant, epochs=epochs)
    return {
        "variant": result.variant,
        "train_errors": result.train_errors,
        "test_errors": result.test_errors,
        "mean_test_error": result.mean_test_error,
    }


def mode_generate_complex(cfg: dict) -> dict:
    complex_ = build_complex_from_config(cfg)
    if cfg.get("complex_out"):
        save_complex(complex_, cfg["complex_out"])
    if cfg.get("series_out"):
        ds = traffic_surrogate(seed=cfg["seed"], order=cfg["order"],
                               with_upper=cfg["with_upper"], complex_=complex_)
        write_edge_series(cfg["series_out"], ds.series)
    return {
        "vertices": complex_.num_vertices,
        "edges": complex_.num_edges,
        "triangles": complex_.num_triangles,
    }


def mode_analyze(cfg: dict) -> dict:
    path = cfg["results_file"]
    payload = read_results(path)
    if not isinstance(payload.get("theory") or {}, dict):
        raise ConfigError(f"results file {path} must hold a JSON object, "
                          "and its 'theory' an object or null")

    def numbers(key: str) -> np.ndarray:
        value = payload[key]
        if isinstance(value, list) and value and all(type(v) is float for v in value):
            if np.isfinite(array := np.array(value)).all():
                return array
        raise ConfigError(f"results file {path}: {key!r} must be a nonempty list of finite numbers")

    summary: dict = {}
    if "msd" in payload:
        msd = numbers("msd")
        summary["iterations"] = int(msd.size - 1)
        steady_db = summary["steady_state_db"] = _db_or_none(tail_average(msd))
        theory = payload.get("theory") or {}
        theory_db = theory.get("msd_exact_db", theory.get("msd_per_agent_db"))
        if theory_db is not None:
            if not (type(theory_db) is float and np.isfinite(theory_db)):
                raise ConfigError(f"results file {path}: its theory dB must be finite or null")
            summary["theory_db"] = theory_db
            summary["gap_db"] = None if steady_db is None else steady_db - theory_db
    if "test_errors" in payload:
        errors = numbers("test_errors")
        summary["mean_test_error"] = float(np.mean(errors))
        summary["max_test_error"] = float(np.max(errors))
    if "p_star" in payload:
        p_star = numbers("p_star")
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
    """Run ``mode`` on ``values``: its result fields under the ``config``/``metadata`` envelope.

    ``values`` are parsed against the mode's key table before any file is
    read or any work starts. A ``ValueError`` or ``OSError`` raised inside
    the mode is a rejected input or an unreadable or unwritable file,
    reported as a :class:`ConfigError`; a ``LinAlgError``, which
    subclasses ``ValueError``, is a numerical failure and passes through.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    try:
        cfg = _parse(mode, KEYS[mode], values)
        fields = MODES[mode](cfg)
    except np.linalg.LinAlgError:
        raise
    except (ValueError, OSError) as exc:
        raise ConfigError(str(exc)) from exc
    metadata = {"version": __version__, "mode": mode, "seed": cfg["seed"]}
    return {"config": dict(values), "metadata": metadata, **fields}
