"""Experiment orchestration: config handling, mode runners, result files.

Configs are flat JSON objects; command-line flags override file values.
Every runner is deterministic given the config (all randomness flows
from the ``seed`` key through tagged child generators), so re-running a
config reproduces its result file byte for byte.

:func:`run_mode` is the one boundary between a config and the library:
a ``ValueError`` or ``OSError`` raised anywhere inside a mode (a rejected
input, a file that cannot be read or written) becomes a
:class:`ConfigError`, and it writes the ``config``/``metadata`` envelope
of every result.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
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
    "check_output",
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


def _numbers(value, message: str) -> np.ndarray:
    """``value`` as a float array; a value that is not numeric is a config error."""
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise ConfigError(f"{message}, got {value!r}") from None


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


def _count(key: str, value, minimum: int = 0) -> int:
    number = _number(key, value)
    if not number.is_integer():
        raise ConfigError(f"config key {key!r} must be a whole number, got {value!r}")
    if number < minimum:
        raise ConfigError(f"config key {key!r} must be at least {minimum}, got {int(number)}")
    return int(number)


def _flag(key: str, value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"config key {key!r} must be true or false, got {value!r}")
    return value


def build_complex_from_config(cfg: ExperimentConfig) -> SimplicialComplex2:
    if "complex_file" in cfg.values:
        return load_complex(cfg.values["complex_file"])
    spec = cfg.get("complex")
    if not isinstance(spec, dict):
        raise ConfigError("config needs either complex_file or a complex object")
    try:
        vertices = _count("complex.vertices", spec["vertices"])
        seed = _count("complex.seed", spec.get("seed", 0))
        if "edges" in spec:
            return grown_complex(vertices, _count("complex.edges", spec["edges"]),
                                 _count("complex.triangles", spec["triangles"]), seed)
        return random_complex(vertices, _number("complex.edge_prob", spec["edge_prob"]),
                              _number("complex.fill_prob", spec["fill_prob"]), seed)
    except KeyError as exc:
        raise ConfigError(f"complex object misses key {exc}") from exc


def _complex_with_edges(cfg: ExperimentConfig,
                        complex_: SimplicialComplex2 | None = None) -> SimplicialComplex2:
    """The config's complex (or ``complex_``), for modes that estimate or design over edges."""
    complex_ = build_complex_from_config(cfg) if complex_ is None else complex_
    if complex_.num_edges == 0:
        raise ConfigError(f"mode {cfg.mode!r} needs a complex with edges; its edge set is empty")
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
        choices = _numbers(spec["choices"], "noise choices must be numbers")
        if choices.ndim != 1 or choices.size == 0:
            raise ConfigError(
                f"noise choices must be a nonempty list of numbers, got {spec['choices']!r}")
        arr = rng.choice(choices, size=num_edges)
    elif "low" in spec and "high" in spec:
        bounds = _numbers([spec["low"], spec["high"]], "noise bounds must be numbers")
        if bounds.shape != (2,):
            raise ConfigError(f"noise bounds must be two numbers, got {spec!r}")
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
        if "lowest_noise_fraction" in spec:
            if sigma_v2 is None:
                raise ConfigError("lowest_noise_fraction needs noise variances")
            fraction = _number("lowest_noise_fraction", spec["lowest_noise_fraction"])
            if not 0 < fraction <= 1:
                raise ConfigError("lowest_noise_fraction must lie in (0, 1]")
            count = max(1, int(round(fraction * num_edges)))
            order = np.argsort(sigma_v2, kind="stable")
            p = np.zeros(num_edges)
            p[order[:count]] = 1.0
            return p
        raise ConfigError(f"unsupported sampling spec {spec!r}")
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


# Characters of encoded JSON gathered per write. An encoder chunk, one list entry
# and its comma, holds 2 to about 25 characters plus some 60 bytes of overhead, so
# the buffer stays near 25 KB for float lists and under 140 KB for the shortest.
_WRITE_CHARS = 1 << 12


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


def _csv_rows(payload: dict, table):
    """Header, then one row per entry of the table's per-row arrays."""
    index, columns = table
    values = []
    for _, key, *view in columns:
        value = payload
        for part in key.split("."):
            value = (value or {}).get(part)
        values.append(np.asarray(view[0](value) if view else value).tolist())  # Python values
    yield [index] + [column[0] for column in columns]
    for k in range(len(values[0])):
        yield [k] + [v[k] if isinstance(v, list) else v for v in values]


def _array_pieces(array: np.ndarray):
    """A finite float array as nested JSON lists, 512 entries a piece.

    Entries take the shortest exact form (``JSON.stringify``'s): ``float.__repr__`` less
    a trailing ``.0``, which only integral values below 1e16 have (``-0.0`` is ``-0``),
    so ``json.loads(text, parse_int=float)`` gives back every bit."""
    if not np.isfinite(array).all():
        raise ValueError("Out of range float values are not JSON compliant")
    if array.ndim > 1:
        for n, row in enumerate(array):
            yield "," if n else "["
            yield from _array_pieces(row)
    else:
        for start in range(0, len(array), 512):
            text = ",".join(map(float.__repr__, array[start:start + 512].tolist())) + ","
            yield ("," if start else "[") + text.replace(".0,", ",")[:-1]
    yield "]" if len(array) else "[]"


def _write_json(payload: dict, fh) -> None:
    """``payload`` (string keys) as one line of compact, strict JSON and a newline.

    An array value is written by :func:`_array_pieces`, any other one as ``json.dumps(value,
    separators=(",", ":"), allow_nan=False)`` writes it, in writes of about ``_WRITE_CHARS``
    characters: a long file takes few writes while memory stays bounded."""
    encoder = json.JSONEncoder(separators=(",", ":"), allow_nan=False)
    pending, size = [], 0
    for n, (key, value) in enumerate(payload.items()):
        pending.append(("," if n else "{") + encoder.encode(key) + ":")
        for chunk in (_array_pieces(value) if isinstance(value, np.ndarray)
                      else encoder.iterencode(value)):
            pending.append(chunk)
            size += len(chunk)
            if size >= _WRITE_CHARS:
                fh.write("".join(pending))
                pending, size = [], 0
    fh.write("".join(pending) + ("}\n" if payload else "{}\n"))


@contextlib.contextmanager
def _replacing(path):
    """Yield the sibling ``<path>.part`` to write, and rename it onto ``path`` once complete.

    A write that fails leaves no file, and an existing ``path`` keeps its
    bytes. An ``OSError`` is a :class:`ConfigError` that names ``path``.
    """
    part = os.fspath(path) + ".part"
    try:
        yield part
        os.replace(part, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    finally:
        with contextlib.suppress(OSError):  # already gone after the rename
            os.remove(part)


def emit_results(payload: dict, path, fmt: str = "json") -> None:
    """Write a result payload as one line of strict, compact JSON, or its mode's row table as CSV.

    The file is streamed into a sibling ``<path>.part`` and renamed onto
    ``path`` once complete (through :func:`_replacing`, as the side outputs
    are), so memory does not grow with the file and a failed write leaves no
    file: an existing one keeps its bytes. JSON files never hold ``NaN`` or
    ``Infinity``: a payload with a non-finite float raises and leaves no
    file. CSV rows come from the payload's per-row arrays, through the
    column table of its ``metadata.mode``; a mode without a table, or a
    file that cannot be written, is a :class:`ConfigError`.
    """
    if fmt == "csv":
        table = _csv_table(payload.get("metadata", {}).get("mode"))
    elif fmt != "json":
        raise ConfigError(f"unknown output format {fmt!r}")
    with _replacing(path) as part, open(part, "w", newline="", encoding="utf-8") as fh:
        if fmt == "json":
            _write_json(payload, fh)
        else:
            csv.writer(fh).writerows(_csv_rows(payload, table))


def _stream_pieces(cfg: ExperimentConfig, complex_: SimplicialComplex2, realizations: int = 30):
    """Filter order, stream config, horizon and realization count of a simulation mode.

    ``realizations`` is the count when the config gives none. The caller
    draws the coefficients, whose law depends on the mode.
    """
    seed = _count("seed", cfg.get("seed", 0))
    E = complex_.num_edges
    order = _count("order", cfg.require("order"))
    horizon = _count("horizon", cfg.require("horizon"))
    realizations = _count("realizations", cfg.get("realizations", realizations), minimum=1)
    sigma_v2 = resolve_noise(cfg.get("noise_var", 0.0), E, seed)
    p = resolve_p(cfg.get("p", 1.0), E, sigma_v2)
    signal_var = _positive("signal_var", cfg.get("signal_var", 1.0))
    stream = StreamConfig.white(E, signal_var, sigma_v2, p, horizon=horizon + order, seed=seed)
    return order, stream, horizon, realizations


def _deviation_fields(msd: np.ndarray) -> dict:
    """The result fields of a deviation trajectory: itself, once, and its steady state in dB."""
    return {"msd": msd, "steady_state_db": _db_or_none(tail_average(msd))}


def mode_run_lms(cfg: ExperimentConfig) -> dict:
    complex_ = _complex_with_edges(cfg)
    order, stream, horizon, realizations = _stream_pieces(cfg, complex_)
    scale = _positive("coeff_scale", cfg.get("coeff_scale", 1.0))
    coeffs = draw_coeffs(order, stream.seed, scale=scale)
    mu = _positive("mu", cfg.require("mu"))
    result = run_experiment(complex_, coeffs, stream, mu, realizations, horizon)
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


def mode_design_sampling(cfg: ExperimentConfig) -> dict:
    complex_ = _complex_with_edges(cfg)
    ops = hodge_laplacians(complex_)
    E = complex_.num_edges
    seed = _count("seed", cfg.get("seed", 0))
    order = _count("order", cfg.require("order"))
    sigma_v2 = resolve_noise(cfg.get("noise_var", 0.0), E, seed)
    signal_var = _positive("signal_var", cfg.get("signal_var", 1.0))
    tol = _number("tol", cfg.get("tol", 1e-6))
    if not 0.0 <= tol < np.inf:
        raise ConfigError(f"config key 'tol' must be finite and nonnegative, got {tol}")
    max_iter = _count("max_iter", cfg.get("max_iter", 2000), minimum=1)
    problem = SamplingProblem.from_moments(
        ops,
        signal_var,
        sigma_v2,
        order,
        mu=_positive("mu", cfg.require("mu")),
        alpha=_number("alpha", cfg.require("alpha")),
        gamma=_positive("gamma", cfg.require("gamma")),
        p_max=cfg.get("p_max", 1.0),
    )
    solution = solve_sampling(problem, tol=tol, max_iter=max_iter)
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


def mode_infer_topology(cfg: ExperimentConfig) -> dict:
    complex_ = _complex_with_edges(cfg)
    order, stream, horizon, realizations = _stream_pieces(cfg, complex_, realizations=10)
    lam0, lam1 = (_number(key, cfg.require(key)) for key in ("lambda0", "lambda1"))
    _check_threshold_order(lam0, lam1)
    magnitude = _positive("coeff_magnitude", cfg.get("coeff_magnitude", 1.0))
    coeffs = draw_bounded_coeffs(order, stream.seed, magnitude=magnitude)
    cand = candidate_set(complex_, order)
    if not cand.num_candidates:  # no 3-clique to recover: a recovery rate of 1 would be vacuous
        raise ConfigError(f"{cfg.get('complex_file', 'the complex')} has no triangle candidates")
    t_true = cand.true_indicator(complex_)
    schedule = [(0, t_true)]
    removals = _count("remove_triangles", cfg.get("remove_triangles", 0))
    if removals:
        filled = np.flatnonzero(t_true)
        if removals > filled.size:
            raise ConfigError("cannot remove more triangles than the complex holds")
        drop = _sub_rng(stream.seed, "removals").choice(filled, size=removals, replace=False)
        t_after = t_true.copy()
        t_after[drop] = 0.0
        schedule.append((horizon // 2, t_after))
    result = run_inference(
        cand,
        coeffs,
        stream,
        schedule,
        mu1=_positive("mu1", cfg.require("mu1")),
        mu2=_positive("mu2", cfg.require("mu2")),
        lam0=lam0,
        lam1=lam1,
        horizon=horizon,
        realizations=realizations,
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


def mode_run_distributed(cfg: ExperimentConfig) -> dict:
    complex_ = _complex_with_edges(cfg)
    order, stream, horizon, realizations = _stream_pieces(cfg, complex_)
    scale = _positive("coeff_scale", cfg.get("coeff_scale", 1.0))
    coeffs = draw_coeffs(order, stream.seed, scale=scale)
    mu = np.array([_positive("mu", m) for m in np.ravel(cfg.require("mu"))])
    track_agents = _flag("emit_agent_traces", cfg.get("emit_agent_traces", False))
    comb = build_combination(lower_adjacency_neighborhoods(complex_),
                             rule=cfg.get("rule", "uniform"))
    combination_file = cfg.get("combination_out")
    if combination_file:
        with _replacing(combination_file) as part:
            save_combination(comb, part)
    result = run_distributed(complex_, coeffs, stream, comb, mu, realizations, horizon,
                             track_agents=track_agents)
    payload = {
        **_deviation_fields(result.msd),
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
        payload["agent_msd"] = result.agent_msd
    return payload


def mode_ar_train(cfg: ExperimentConfig) -> dict:
    order = _count("order", cfg.require("order"))
    mu = _positive("mu", cfg.require("mu"))
    epochs = _count("epochs", cfg.get("epochs", 1), minimum=1)
    train_count = cfg.get("train_count")
    if train_count is not None:
        train_count = _count("train_count", train_count, minimum=1)
    if "surrogate" in cfg.values:
        if train_count is not None:
            raise ConfigError("config key 'train_count' applies only to a series file; "
                              "the surrogate's train/test split is fixed")
        spec = cfg.values["surrogate"]
        if not isinstance(spec, dict):
            raise ConfigError(f"config key 'surrogate' must be an object, got {spec!r}")
        ds = traffic_surrogate(
            seed=_count("surrogate.seed", spec.get("seed", 0)),
            order=_count("surrogate.order", spec.get("order", order)),
            with_upper=_flag("surrogate.with_upper", spec.get("with_upper", True)),
        )
    else:
        ds = ingest_edge_series(
            cfg.require("complex_file"),
            cfg.require("series_file"),
            train_count=train_count,
        )
    _complex_with_edges(cfg, ds.complex)
    variant = cfg.get("variant", "topo")
    if _flag("distributed", cfg.get("distributed", False)):
        comb = build_combination(
            lower_adjacency_neighborhoods(ds.complex), rule=cfg.get("rule", "uniform")
        )
        result = run_distributed_ar(ds, order, mu, comb, epochs=epochs, variant=variant)
    else:
        result = run_ar_training(ds, order, mu, variant=variant, epochs=epochs)
    return {
        "variant": result.variant,
        "train_errors": result.train_errors,
        "test_errors": result.test_errors,
        "mean_test_error": result.mean_test_error,
    }


def mode_generate_complex(cfg: ExperimentConfig) -> dict:
    complex_ = build_complex_from_config(cfg)
    out = cfg.get("complex_out")
    if out:
        with _replacing(out) as part:
            save_complex(complex_, part)
    series_out = cfg.get("series_out")
    if series_out:
        ds = traffic_surrogate(
            seed=_count("seed", cfg.get("seed", 0)),
            order=_count("order", cfg.get("order", 3)),
            with_upper=_flag("with_upper", cfg.get("with_upper", True)),
            complex_=complex_,
        )
        with _replacing(series_out) as part:
            write_edge_series(part, ds.series)
    return {
        "vertices": complex_.num_vertices,
        "edges": complex_.num_edges,
        "triangles": complex_.num_triangles,
    }


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def mode_analyze(cfg: ExperimentConfig) -> dict:
    path = cfg.require("results_file")
    try:  # strict JSON, every number read as a float
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh, parse_constant=_reject_constant, parse_int=float)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read results file {path}: {exc}") from exc
    if not isinstance(payload, dict) or not isinstance(payload.get("theory") or {}, dict):
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

    The seed and every side output path are checked before any work or
    write. A ``ValueError`` or ``OSError`` raised inside the mode is a
    rejected input or an unreadable or unwritable file, reported as a
    :class:`ConfigError`; a ``LinAlgError``, which subclasses
    ``ValueError``, is a numerical failure and passes through.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    cfg = ExperimentConfig(mode=mode, values=values)
    try:
        metadata = {"version": __version__, "mode": mode,
                    "seed": _count("seed", values.get("seed", 0))}
        for key in ("complex_out", "series_out", "combination_out"):
            if values.get(key):
                check_output(mode, values[key])
        fields = MODES[mode](cfg)
    except np.linalg.LinAlgError:
        raise
    except (ValueError, OSError) as exc:
        raise ConfigError(str(exc)) from exc
    return {"config": dict(values), "metadata": metadata, **fields}
