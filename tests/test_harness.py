"""Dataset ingestion, AR protocols, config handling and result emission."""

import csv
import io
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexlms import artrain, datasets, files, harness, signals
from simplexlms.artrain import (
    VARIANTS,
    ar_regressor_tensor,
    run_ar_training,
    run_distributed_ar,
)
from simplexlms.cli import main
from simplexlms.complexes import hodge_laplacians, random_complex
from simplexlms.datasets import (
    ingest_edge_series,
    reference_traffic_complex,
    synthetic_traffic_series,
    traffic_surrogate,
)
from simplexlms.diffusion import atc_step, build_combination, lower_adjacency_neighborhoods
from simplexlms.errors import ConfigError, DivergenceError
from simplexlms.files import read_edge_series, save_complex, write_edge_series
from simplexlms.harness import emit_results, resolve_noise, resolve_p, run_mode
from simplexlms.inference import candidate_set, run_inference
from simplexlms.lms import lms_step, to_db
from simplexlms.signals import StreamConfig
from test_lms import traced_peak


# ----------------------------------------------------------------- datasets


def test_reference_complex_dimensions():
    c = reference_traffic_complex()
    assert (c.num_vertices, c.num_edges, c.num_triangles) == (17, 26, 5)


def test_edge_series_roundtrip(tmp_path):
    # every bit comes back, for values below 1e-4, integral values and -0.0 too
    rng = np.random.default_rng(0)
    series = rng.standard_normal((12, 5))
    series[0] = [1e-7, -2.5e-5, 0.00015, 1000.0, -0.0]
    series[1] = [1e16, 100000.0, 1.0, 0.005, 5e-324]
    path = tmp_path / "series.csv"
    write_edge_series(path, series)
    loaded = read_edge_series(path)
    assert np.array_equal(loaded.view(np.int64), series.view(np.int64))
    assert path.read_text().splitlines()[1:3] == ["0,1e-7,-2.5e-5,1.5e-4,1e3,-0.0",
                                                  "1,1e16,1e5,1.0,5e-3,5e-324"]


def test_series_parse_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("n,e_1,e_2\n0,1.0,2.0\n1,oops,3.0\n")
    with pytest.raises(ConfigError, match="line 3"):
        read_edge_series(path)
    path.write_text("x,e_1\n0,1.0\n")
    with pytest.raises(ConfigError, match="header"):
        read_edge_series(path)


def test_ingest_reference_scale_dataset(tmp_path):
    ds = traffic_surrogate(seed=1)
    assert ds.series.shape == (288, 26)
    assert (ds.train_count, ds.test_count) == (250, 38)
    complex_path = tmp_path / "complex.txt"
    series_path = tmp_path / "series.csv"
    save_complex(ds.complex, complex_path)
    write_edge_series(series_path, ds.series)
    loaded = ingest_edge_series(complex_path, series_path)
    assert loaded.train_count == 250
    assert loaded.test_count == 38
    assert np.array_equal(loaded.series, ds.series)
    assert loaded.complex.edges == ds.complex.edges


def test_ingest_width_mismatch(tmp_path):
    ds = traffic_surrogate(seed=1)
    complex_path = tmp_path / "complex.txt"
    series_path = tmp_path / "series.csv"
    save_complex(ds.complex, complex_path)
    write_edge_series(series_path, ds.series[:, :-1])
    with pytest.raises(ConfigError, match="edge columns"):
        ingest_edge_series(complex_path, series_path)


def test_surrogate_is_stable_and_seeded():
    a = traffic_surrogate(seed=5)
    b = traffic_surrogate(seed=5)
    assert np.array_equal(a.series, b.series)
    assert np.all(np.isfinite(a.series))
    c = traffic_surrogate(seed=6)
    assert not np.array_equal(a.series, c.series)


@pytest.mark.parametrize("complex_", [reference_traffic_complex(), random_complex(10, 0.5, 0.0, 3)],
                         ids=["reference", "triangle-free"])
@pytest.mark.parametrize("with_upper", [True, False])
@pytest.mark.parametrize("warmup", [0, 7])
def test_surrogate_follows_its_ar_recursion(complex_, with_upper, warmup):
    order, snapshots, seed = 3, 40, 4
    E = complex_.num_edges
    series, coeffs = synthetic_traffic_series(complex_, order, snapshots, seed,
                                              with_upper=with_upper, warmup=warmup)
    ops = hodge_laplacians(complex_)
    # replay the generator's draws: the taps first, then the innovations
    rng = np.random.default_rng(seed)
    np.testing.assert_array_equal(
        datasets._stable_ar_coeffs(ops, order, rng, with_upper).flatten(), coeffs.flatten())
    innov = 0.05 * rng.standard_normal((warmup + snapshots, E))[warmup:]
    if with_upper and not complex_.triangles:
        # no upper spectrum: the upper taps are budgeted against lambda_max 1.0
        assert coeffs.h_u[1:].sum() == pytest.approx(0.93)
    # without a warmup the recursion starts from zero history
    lead = order if warmup == 0 else 0
    x = np.concatenate([np.zeros((lead, E)), series])
    power = np.linalg.matrix_power
    for n in range(order, x.shape[0]):
        pred = sum(coeffs.h_u[m] * power(ops.upper, m) @ x[n - m]
                   + coeffs.h_d[m - 1] * power(ops.lower, m) @ x[n - m]
                   for m in range(1, order + 1))
        np.testing.assert_allclose(x[n] - pred, innov[n - lead], rtol=0, atol=1e-12)


# ----------------------------------------------------------------- artrain


def extend_series(series, epochs):
    """Periodic extension, built whole: row ``i`` is ``series[i mod N]``."""
    return np.tile(np.asarray(series, dtype=np.float64), (epochs, 1))


def tiled_replay(ds, order, variant, epochs, state, predict, step):
    """The AR train-then-test loop over the tiled training series.

    The regressors come in the protocols' windows, so the products match
    theirs; the baseline zeroes the upper columns of a copy of each block.
    """
    ops = hodge_laplacians(ds.complex)
    ones = np.ones(ds.complex.num_edges)

    def regressors(series, first):
        for start, window, _ in signals._series_walk(series, order, first):
            R = ar_regressor_tensor(window, ops, order)
            if variant == "edge-laplacian-baseline":
                R = R.copy()
                R[:, :, :order] = 0.0
            yield from enumerate(R, start)

    def error(state, X, target):
        return np.linalg.norm(predict(state, X) - target) / np.linalg.norm(target)

    ext = extend_series(ds.train_series, epochs)
    train = []
    for n, X in regressors(ext, order):
        train.append(error(state, X, ext[n]))
        state = step(state, X, ones, ext[n])
    test = [error(state, X, ds.series[n]) for n, X in regressors(ds.series, ds.train_count)]
    return state, np.array(train), np.array(test)


def test_extend_series_modular_indexing(monkeypatch):
    series = np.arange(10, dtype=float).reshape(5, 2)
    ext = extend_series(series, 3)
    assert ext.shape == (15, 2)
    for i in range(15):
        assert np.array_equal(ext[i], series[i % 5])
    # walked past the series' end in 3-row blocks, without building it, the
    # series gives the extension's rows and the history before each block
    monkeypatch.setattr(signals, "_WINDOW_ELEMENTS", 3 * 2 * 5)
    monkeypatch.setattr(signals, "_MIN_WINDOW_ROWS", 1)
    for first, stop in ((2, 15), (4, 11), (5, 7)):
        starts = [first]
        for start, window, x in signals._series_walk(series, 2, first, stop):
            assert start == starts[-1]
            np.testing.assert_array_equal(window, ext[start - 2 : start + x.shape[0]])
            starts.append(start + x.shape[0])
        assert starts[-1] == stop and len(starts) == 2 + (stop - first - 1) // 3


def test_ar_training_shares_lms_step_path():
    # driving lms_step manually over the same data reproduces the trajectory
    ds = traffic_surrogate(seed=2)
    order, mu, epochs = 2, 1e-3, 2
    result = run_ar_training(ds, order, mu, variant="topo", epochs=epochs)
    ops = hodge_laplacians(ds.complex)
    ext = extend_series(ds.train_series, epochs)
    R = ar_regressor_tensor(ext, ops, order)
    h = np.zeros(2 * order)
    errors = []
    ones = np.ones(ds.complex.num_edges)
    for n in range(order, ext.shape[0]):
        pred = R[n - order] @ h
        errors.append(np.linalg.norm(pred - ext[n]) / np.linalg.norm(ext[n]))
        h = lms_step(h, mu, R[n - order], ones, ext[n])
    assert np.allclose(result.train_errors, errors, atol=1e-15)
    assert np.allclose(result.coeffs, h, atol=1e-15)


def test_ar_divergence_names_the_training_step():
    ds = traffic_surrogate(seed=2)
    comb = build_combination(lower_adjacency_neighborhoods(ds.complex), "uniform")
    message = r"^non-finite prediction error at training step \d+$"
    with pytest.raises(DivergenceError, match=message):
        run_ar_training(ds, 2, 1e3)
    with pytest.raises(DivergenceError, match=message):
        run_distributed_ar(ds, 2, 1e3, comb)


def counted(monkeypatch, module, name):
    """A one-entry list counting the calls made through ``module.name`` from now on."""
    calls, fn = [0], getattr(module, name)

    def count(*args):
        calls[0] += 1
        return fn(*args)

    monkeypatch.setattr(module, name, count)
    return calls


@pytest.mark.parametrize("distributed", [False, True], ids=["central", "distributed"])
def test_diverged_ar_walk_stops_within_a_chunk(distributed, monkeypatch):
    # mu 1e3 diverges in the first window of a 30-epoch walk of 7,498 steps: the walk
    # stops at the end of the chunk holding the first non-finite error, as the engine's does
    ds = traffic_surrogate(seed=2)
    comb = build_combination(lower_adjacency_neighborhoods(ds.complex), "uniform")
    steps = counted(monkeypatch, artrain, "atc_step" if distributed else "lms_step")
    with pytest.raises(DivergenceError,
                       match=r"^non-finite prediction error at training step \d+$") as caught:
        if distributed:
            run_distributed_ar(ds, 2, 1e3, comb, epochs=30)
        else:
            run_ar_training(ds, 2, 1e3, epochs=30)
    first = int(str(caught.value).rsplit(" ", 1)[1])
    assert first < steps[0] <= first + signals._MIN_WINDOW_ROWS, steps


@pytest.mark.parametrize("distributed", [False, True], ids=["central", "distributed"])
def test_ar_protocols_call_their_step_and_regressors_at_call_time(distributed, monkeypatch):
    # the span tracer rebinds module globals: each protocol must look its step and
    # its regressor builder up in artrain at call time, once per step and per window
    ds = traffic_surrogate(seed=2)
    order, epochs, N = 2, 2, ds.train_count
    steps = counted(monkeypatch, artrain, "atc_step" if distributed else "lms_step")
    builds = counted(monkeypatch, artrain, "ar_regressor_tensor")
    if distributed:
        comb = build_combination(lower_adjacency_neighborhoods(ds.complex), "uniform")
        run_distributed_ar(ds, order, 1e-1, comb, epochs=epochs)
    else:
        run_ar_training(ds, order, 1e-4, epochs=epochs)
    windows = (list(signals._series_walk(ds.train_series, order, order, epochs * N))
               + list(signals._series_walk(ds.series, order, N)))
    assert steps[0] == epochs * N - order
    assert builds[0] == len(windows) > 2


def test_baseline_upper_coefficients_stay_zero():
    ds = traffic_surrogate(seed=3)
    result = run_ar_training(ds, 3, 1e-4, variant="edge-laplacian-baseline", epochs=5)
    assert np.all(result.coeffs[:3] == 0.0)
    comb = build_combination(lower_adjacency_neighborhoods(ds.complex), "uniform")
    dist = run_distributed_ar(ds, 2, 1e-1, comb, epochs=5, variant="edge-laplacian-baseline")
    assert np.all(dist.coeffs[:, :2] == 0.0)


def test_lower_only_data_makes_variants_tie():
    ds = traffic_surrogate(seed=3, with_upper=False)
    topo = run_ar_training(ds, 3, 1e-4, variant="topo", epochs=30)
    base = run_ar_training(ds, 3, 1e-4, variant="edge-laplacian-baseline", epochs=30)
    assert abs(topo.mean_test_error - base.mean_test_error) < 0.01
    # upper taps are not needed and stay near zero
    assert np.linalg.norm(topo.coeffs[:3]) < 0.1 * np.linalg.norm(topo.coeffs[3:])


def test_upper_data_gives_topo_advantage():
    ds = traffic_surrogate(seed=4, with_upper=True)
    topo = run_ar_training(ds, 3, 1e-4, variant="topo", epochs=30)
    base = run_ar_training(ds, 3, 1e-4, variant="edge-laplacian-baseline", epochs=30)
    assert topo.mean_test_error < base.mean_test_error


def test_distributed_ar_identity_combination_reduces_to_per_edge_lms():
    ds = traffic_surrogate(seed=5)
    E = ds.complex.num_edges
    identity = build_combination([[i] for i in range(E)])
    dist = run_distributed_ar(ds, 2, 1e-2, identity, epochs=1, variant="topo")
    ops = hodge_laplacians(ds.complex)
    R = ar_regressor_tensor(ds.train_series, ops, 2)
    for i in (0, E // 2):
        h = np.zeros(4)
        for n in range(2, ds.train_count):
            h = lms_step(h, 1e-2, R[n - 2, i][None, :], np.ones(1), ds.train_series[n, i : i + 1])
        assert np.allclose(dist.coeffs[i], h, atol=1e-13)


@pytest.mark.parametrize("variant", VARIANTS)
def test_ar_protocols_walk_the_tiled_series(variant):
    # three epochs: windows of 180 (order 3) and 252 (order 2) rows straddle
    # both epoch boundaries, and the periodic walk gives the tiled bits
    ds = traffic_surrogate(seed=2)
    E = ds.complex.num_edges
    central = run_ar_training(ds, 3, 1e-4, variant=variant, epochs=3)
    h, train, test = tiled_replay(ds, 3, variant, 3, np.zeros(6), lambda h, X: X @ h,
                                  lambda h, X, d, y: lms_step(h, 1e-4, X, d, y))
    for got, want in zip((central.coeffs, central.train_errors, central.test_errors),
                         (h, train, test)):
        np.testing.assert_array_equal(got, want)
    comb = build_combination(lower_adjacency_neighborhoods(ds.complex), "uniform")
    dist = run_distributed_ar(ds, 2, 1e-1, comb, epochs=3, variant=variant)
    H, train, test = tiled_replay(
        ds, 2, variant, 3, np.zeros((E, 4)), lambda H, X: np.einsum("ij,ij->i", X, H),
        lambda H, X, d, y: atc_step(H, np.full(E, 1e-1), comb, X, d, y))
    for got, want in zip((dist.coeffs, dist.train_errors, dist.test_errors),
                         (H, train, test)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("runner", ["run_ar_training", "run_distributed_ar"])
def test_ar_memory_does_not_grow_with_epochs(runner):
    # at 50 epochs against 5, only the training error trace may grow: 8 bytes
    # per extra training row, plus 64 KB of slack
    ds = traffic_surrogate(seed=1)
    if runner == "run_ar_training":
        def run(epochs):
            run_ar_training(ds, 3, 1e-4, epochs=epochs)
    else:
        comb = build_combination(lower_adjacency_neighborhoods(ds.complex), "uniform")

        def run(epochs):
            run_distributed_ar(ds, 2, 1e-1, comb, epochs=epochs)
    run(1)  # warm caches
    short, long = (traced_peak(lambda: run(epochs)) for epochs in (5, 50))
    assert long - short <= 8 * 45 * ds.train_count + 64 * 1024, (short, long)


@pytest.mark.parametrize("variant", VARIANTS)
def test_ar_protocols_multi_window_match_one_window(variant, monkeypatch):
    # 7-row windows: the 498 training rows and the 38 test rows (from 250)
    # both cross window boundaries, and training windows straddle the epoch
    # boundary at row 250
    ds = traffic_surrogate(seed=2)
    E = ds.complex.num_edges
    comb = build_combination(lower_adjacency_neighborhoods(ds.complex), "uniform")

    def runs():
        return (run_ar_training(ds, 2, 1e-3, variant=variant, epochs=2),
                run_distributed_ar(ds, 2, 1e-2, comb, epochs=2, variant=variant))

    monkeypatch.setattr(signals, "_WINDOW_ELEMENTS", 1 << 18)  # one window of every row
    whole = runs()
    monkeypatch.setattr(signals, "_WINDOW_ELEMENTS", 7 * E * 5)
    monkeypatch.setattr(signals, "_MIN_WINDOW_ROWS", 1)
    for one, windowed in zip(whole, runs()):
        for name in ("coeffs", "train_errors", "test_errors"):
            np.testing.assert_allclose(getattr(windowed, name), getattr(one, name),
                                       rtol=1e-12, atol=1e-15)


def test_distributed_ar_deterministic():
    ds = traffic_surrogate(seed=6)
    comb = build_combination(lower_adjacency_neighborhoods(ds.complex), "uniform")
    a = run_distributed_ar(ds, 2, 1e-1, comb, epochs=3)
    b = run_distributed_ar(ds, 2, 1e-1, comb, epochs=3)
    assert np.array_equal(a.test_errors, b.test_errors)


def test_order_must_fit_training_length():
    ds = traffic_surrogate(seed=7)
    with pytest.raises(ValueError, match="order"):
        run_ar_training(ds, order=250, mu=1e-4)


# ------------------------------------------------------------------ config


def test_resolve_noise_forms():
    assert np.allclose(resolve_noise(0.5, 4, 0), 0.5)
    assert np.allclose(resolve_noise([1, 2, 3], 3, 0), [1, 2, 3])
    drawn = resolve_noise({"choices": [1e-3, 1e-2]}, 100, 0)
    assert set(np.unique(drawn)) <= {1e-3, 1e-2}
    ranged = resolve_noise({"low": 1e-7, "high": 1e-5, "log": True}, 50, 1)
    assert np.all((ranged >= 1e-7) & (ranged <= 1e-5))
    assert np.array_equal(resolve_noise({"choices": [1, 2]}, 10, 3),
                          resolve_noise({"choices": [1, 2]}, 10, 3))
    with pytest.raises(ConfigError):
        resolve_noise({"bogus": 1}, 4, 0)
    with pytest.raises(ConfigError):
        resolve_noise(-1.0, 4, 0)


def test_resolve_p_percentile_rule():
    noise = np.array([1e-2, 1e-6, 1e-3, 1e-5])
    p = resolve_p({"lowest_noise_fraction": 0.5}, 4, noise)
    assert p.tolist() == [0.0, 1.0, 0.0, 1.0]
    with pytest.raises(ConfigError):
        resolve_p(2.0, 4)


def test_emit_results_json_full_precision(tmp_path):
    value = 0.1234567890123456789
    path = tmp_path / "out.json"
    emit_results({"value": value, "records": []}, path, fmt="json")
    loaded = json.loads(path.read_text())
    assert loaded["value"] == value


def test_emit_results_csv_fixed_columns(tmp_path):
    # each mode's column table fixes the column order; scalars repeat on every row.
    # A mode hands its trajectories over as arrays, and each cell is spelled as a float
    # nested in a JSON file is, as it is for the same values in lists: -10.0 is -1e1
    path = tmp_path / "out.csv"
    for trajectory in (list, np.array):
        emit_results({"metadata": {"mode": "ar-train"}, "train_errors": trajectory([9.0]),
                      "test_errors": trajectory([0.5, 0.25])}, path, fmt="csv")
        assert path.read_text().splitlines() == ["snapshot,test_error", "0,0.5", "1,0.25"]
        # the msd_db column is derived from msd: a deviation that is not positive has no dB
        payload = {"metadata": {"mode": "run-lms"}, "msd": trajectory([1.0, 0.1, 0.0]),
                   "theory": {"msd_exact_db": -30.5}}
        emit_results(payload, path, fmt="csv")
        assert path.read_text().splitlines() == [
            "iteration,msd_db,msd_theory_db", "0,0.0,-30.5", "1,-1e1,-30.5", "2,,-30.5"]
        emit_results({**payload, "theory": None}, path, fmt="csv")
        assert path.read_text().splitlines()[1:] == ["0,0.0,", "1,-1e1,", "2,,"]
        # integral entries keep their ".0" in CSV where scientific form is no shorter
        emit_results({"metadata": {"mode": "infer-topology"},
                      "h_error": trajectory([2.5, 0.125]), "t_error": trajectory([1.0, 0.0]),
                      "recovery_rate": trajectory([0.0, 1.0]),
                      "support_size": trajectory([23.0, 22.0])}, path, fmt="csv")
        assert path.read_text().splitlines() == [
            "iteration,h_error,t_error,recovery_rate,support_size",
            "0,2.5,1.0,0.0,23.0", "1,0.125,0.0,1.0,22.0"]


def test_csv_cells_read_back_their_bits(tmp_path):
    # run-lms rows: each msd_db cell is to_db of its deviation, bit for bit, for dB values
    # below 1e-4, integral ones and -0.0 too
    msd = np.array([1.0, 1.00000001, 0.99999, 10.0, 1e-3, 1e-10, 0.5])
    path = tmp_path / "out.csv"
    emit_results({"metadata": {"mode": "run-lms"}, "msd": msd,
                  "theory": {"msd_exact_db": -0.0}}, path, fmt="csv")
    rows = [row.split(",") for row in path.read_text().splitlines()[1:]]
    cells = np.array([float(db) for _, db, _ in rows])
    expected = to_db(msd)
    assert np.array_equal(cells.view(np.int64), expected.view(np.int64))
    assert [db for _, db, _ in rows[3:6]] == ["1e1", "-3e1", "-1e2"]
    assert {theory for _, _, theory in rows} == {"-0.0"}


def test_emit_results_empty_records_with_header(tmp_path):
    path = tmp_path / "empty.csv"
    emit_results({"metadata": {"mode": "run-distributed"}, "msd": []}, path, fmt="csv")
    assert path.read_text().strip() == "iteration,msd_db"
    with pytest.raises(ConfigError, match="'design-sampling' has no CSV row table"):
        emit_results({"metadata": {"mode": "design-sampling"}}, tmp_path / "x.csv", fmt="csv")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_emit_results_write_error_is_config_error(tmp_path, fmt):
    payload = {"metadata": {"mode": "run-distributed"}, "msd": [1.0]}
    with pytest.raises(ConfigError, match="cannot write"):
        emit_results(payload, tmp_path / "missing" / "out", fmt=fmt)


def long_payload():
    rng = np.random.default_rng(4)
    return {"metadata": {"mode": "run-lms"}, "msd": rng.random(30_001).tolist(),
            "msd_db": rng.standard_normal(30_001).tolist()}


def spellings(value: float, entry: bool = False) -> tuple[str, str]:
    """repr's spelling of ``value`` (less an integral ".0" in an array entry), and scientific
    form with a bare exponent of the same digits."""
    text = repr(value)
    if entry and text.endswith(".0"):
        text = text[:-2]
    sign = "-" if text.startswith("-") else ""
    mantissa, _, exponent = text.lstrip("-").partition("e")
    whole, _, fraction = mantissa.partition(".")
    digits = (whole + fraction).lstrip("0")
    if not digits.rstrip("0"):  # a zero
        return text, sign + "0e0"
    exponent = int(exponent or 0) + len(whole) - 1 - (len(whole + fraction) - len(digits))
    digits = digits.rstrip("0")
    return text, sign + digits[0] + ("." + digits[1:] if len(digits) > 1 else "") + f"e{exponent}"


def shortest(value: float, entry: bool = False) -> str:
    """The shorter of the two spellings, repr's on a tie."""
    text, scientific = spellings(value, entry)
    return text if len(text) <= len(scientific) else scientific


def compact_dump(payload):
    """The result file of ``payload`` (no arrays): compact JSON, each float by shortest."""
    def dump(value):
        if isinstance(value, float):
            return shortest(value)
        if isinstance(value, dict):
            return "{" + ",".join(json.dumps(k) + ":" + dump(v) for k, v in value.items()) + "}"
        if isinstance(value, list):
            return "[" + ",".join(map(dump, value)) + "]"
        return json.dumps(value)
    return dump(payload) + "\n"


def test_result_file_spells_each_float_shortest(tmp_path):
    # scientific form with a bare exponent where it is shorter, repr's spelling on a tie;
    # an array entry drops an integral ".0", and a string is written as it is
    nested = [1e-07, 0.00015, 0.0005, 0.005, 0.01, 1e16, 10.0, 123.0, -0.0, 1.0, 1e5, 1.5e-05]
    path = tmp_path / "out.json"
    emit_results({"nested": nested, "array": np.array(nested), "path": "run-e-05/0.0001"}, path)
    assert path.read_text() == (
        '{"nested":[1e-7,1.5e-4,5e-4,5e-3,0.01,1e16,1e1,123.0,-0.0,1.0,1e5,1.5e-5],'
        '"array":[1e-7,1.5e-4,5e-4,5e-3,0.01,1e16,10,123,-0,1,1e5,1.5e-5],'
        '"path":"run-e-05/0.0001"}\n')


def test_json_writer_groups_the_encoder_chunks():
    # the bytes of the compact dump reach the file in a few large writes, not
    # one per chunk: the buffers of a text file opened for writing group them
    payload = long_payload()
    writes = []

    class Raw(io.RawIOBase):
        def writable(self):
            return True

        def write(self, data):
            writes.append(bytes(data))
            return len(data)

    fh = io.TextIOWrapper(io.BufferedWriter(Raw()), encoding="utf-8", newline="")
    files._write_json(payload, fh)
    fh.flush()
    text = b"".join(writes).decode("utf-8")
    assert text == compact_dump(payload)
    assert len(writes) <= len(text) // io.DEFAULT_BUFFER_SIZE + 2


def test_emit_results_json_is_the_compact_dump(tmp_path):
    payload = long_payload()
    path = tmp_path / "out.json"
    emit_results(payload, path)
    assert path.read_text(encoding="utf-8") == compact_dump(payload)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]


def test_emit_results_streams_the_file(tmp_path):
    # the writer holds a buffer, not the file's text
    payload = long_payload()
    path = tmp_path / "out.json"
    emit_results(payload, path)  # warm up the encoder
    tracemalloc.start()
    try:
        emit_results(payload, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 8, (peak, path.stat().st_size)


def test_json_writer_buffer_stays_small_for_short_entries():
    # one-digit list entries make the most encoder chunks per character; each
    # chunk costs some 60 bytes besides its characters, and the buffer still
    # stays small. An array is written a bounded slice at a time

    class Sink:
        def write(self, text):
            pass

    for payload in ({"support_size": [1] * 100_000},
                    {"msd": np.random.default_rng(4).random(30_001)},
                    {"support_size": np.ones(100_000)}):
        files._write_json(payload, Sink())  # warm up the encoder
        tracemalloc.start()
        try:
            files._write_json(payload, Sink())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200_000, (list(payload), peak)


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308]),
    st.text(st.characters(min_codepoint=0x80), max_size=5), st.text(max_size=5),
)
JSON_PAYLOADS = st.dictionaries(st.text(max_size=5), st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=5), inner,
                                                                  max_size=4),
    max_leaves=30,
), max_size=5)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(payload=JSON_PAYLOADS)
def test_result_file_decodes_to_its_payload(tmp_path_factory, payload):
    # lossless: every float keeps its repr (the sign of -0.0, subnormals, the largest double),
    # ints stay ints, and the file is one line
    path = tmp_path_factory.getbasetemp() / "property.json"
    emit_results(payload, path)
    text = path.read_text(encoding="utf-8")
    decoded = json.loads(text)
    assert decoded == payload and repr(decoded) == repr(payload)
    assert text.endswith("\n") and text.count("\n") == 1


FLOAT64 = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, 1.7976931348623157e308, 1.0, -3.0,
                     float(2**53 - 1), 1e16, 1e22]),
    st.integers(-(2**53), 2**53).map(float),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(values=st.lists(FLOAT64, max_size=1200), rows=st.sampled_from([0, 1, 3]))
def test_array_entries_decode_to_their_bits(values, rows):
    # each entry in its shortest exact form: an integral value is a JSON integer,
    # -0.0 keeps its sign, and parse_int=float gives back every bit
    array = np.array(values, dtype=np.float64)
    if rows:  # a 2-D array, as agent_msd is
        array = np.resize(array, (rows, array.size))

    class Sink(list):
        write = list.append

    sink = Sink()
    files._write_json({"trajectory": array}, sink)
    text = "".join(sink)
    decoded = np.array(json.loads(text, parse_int=float)["trajectory"], dtype=np.float64)
    assert decoded.shape == array.shape
    assert np.array_equal(decoded.view(np.int64), array.view(np.int64))
    assert ".0," not in text and ".0]" not in text
    assert text.count("\n") == 1 and text.endswith("\n")


SPELLED = st.one_of(
    FLOAT64, st.floats(1e-4, 1e-3, exclude_max=True),
    st.sampled_from([100000.0, 1e-4, 1e-3, 5e-3, 0.01, 1e15, 1.5e-5, 1e-7, 1e6, 10.0, 1000.0]),
)
# a JSON string, or a number token: the strings are skipped, the numbers kept
JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|(-?[0-9][0-9.eE+-]*)')


@settings(derandomize=True, max_examples=200, deadline=None)
@given(values=st.lists(SPELLED, min_size=1, max_size=60),
       text=st.sampled_from(["1e-05", "0.0001", "e+16", "run-e-05/x.txt", "1500.0,0.00015"]))
def test_every_number_token_is_shortest_and_exact(values, text):
    # an array entry, a nested list entry and a nested dict value each decode to their bits,
    # are no longer than repr's spelling or the bare scientific one, and a nested one is a
    # float; a string holding number-like text passes as it is
    class Sink(list):
        write = list.append

    sink = Sink()
    payload = {"array": np.array(values), "text": text,
               "nested": {"list": values, "dict": {str(k): v for k, v in enumerate(values)}}}
    files._write_json(payload, sink)
    written = "".join(sink)
    decoded = json.loads(written)
    assert decoded["text"] == text and f'"{text}"' in written
    tokens = [t for t in JSON_TOKEN.findall(written) if t]
    assert len(tokens) == 3 * len(values)
    for n, (token, value) in enumerate(zip(tokens, values * 3)):
        entry = n < len(values)
        read = json.loads(token, parse_int=float)
        assert np.float64(read).view(np.int64) == np.float64(value).view(np.int64), token
        assert entry or type(json.loads(token)) is float
        text_spelling, scientific = spellings(value, entry)
        assert len(token) <= min(len(text_spelling), len(scientific)), token
        assert token == shortest(value, entry)


MIXED = st.one_of(SPELLED, st.integers(), st.booleans(), st.none(), st.text(max_size=3))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(values=st.one_of(st.lists(SPELLED, max_size=1200), st.lists(MIXED, max_size=40)),
       as_tuple=st.booleans())
def test_a_list_writes_the_bytes_of_entry_by_entry_spelling(values, as_tuple):
    # a list or tuple of floats only is spelled 512 entries a call, and each entry reads as
    # its own _spell call does (1.0 keeps its ".0"); a mixed one goes entry by entry
    expected = ",".join(files._spell([v])[0] if isinstance(v, float) else json.dumps(v)
                        for v in values)
    value = tuple(values) if as_tuple else values
    assert "".join(files._json_pieces(value)) == f"[{expected}]"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_a_non_finite_list_entry_is_not_json(bad):
    for value in ([1.0, bad, 2.0], (bad,), [0.5] * 600 + [bad], [[1.0], [1, bad, "x"]]):
        with pytest.raises(ValueError, match=f"^Out of range float .* compliant: {bad!r}$"):
            "".join(files._json_pieces({"x": value}))


@pytest.mark.parametrize("existing", [False, True])
def test_emit_results_failed_write_leaves_no_file(tmp_path, existing):
    # the non-finite value sits after most of the file has been streamed out,
    # in a list or in an array, each checked a slice at a time
    payload = long_payload()
    payload["msd"][-1] = float("nan")
    path = tmp_path / "out.json"
    if existing:
        path.write_bytes(b"previous result\n")
    for msd in (payload["msd"], np.array(payload["msd"])):
        with pytest.raises(ValueError, match="JSON compliant"):
            emit_results({**payload, "msd": msd}, path)
        if existing:
            assert path.read_bytes() == b"previous result\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == (["out.json"] if existing else [])


# -------------------------------------------------------------- mode runners


def test_run_mode_unknown():
    with pytest.raises(ConfigError, match="unknown mode"):
        run_mode("bogus", {})


def test_run_mode_missing_key():
    with pytest.raises(ConfigError, match="requires config key"):
        run_mode("run-lms", {"complex": {"vertices": 8, "edge_prob": 0.4, "fill_prob": 0.5}})


@pytest.mark.parametrize("spec, key", [
    ({"vertices": 8.5, "edge_prob": 0.4, "fill_prob": 0.5}, "complex.vertices"),
    ({"vertices": 8, "edge_prob": 0.4, "fill_prob": 0.5, "seed": 1.5}, "complex.seed"),
    ({"vertices": 8, "edges": 10, "triangles": 2.5}, "complex.triangles"),
    ({"vertices": 8, "edge_prob": "x", "fill_prob": 0.5}, "complex.edge_prob"),
])
def test_complex_spec_counts_are_whole_numbers(spec, key):
    # a fractional count is rejected, not truncated
    with pytest.raises(ConfigError, match=f"config key '{key}' must be a"):
        run_mode("generate-complex", {"complex": spec})


def test_mode_run_lms_payload(tmp_path):
    payload = run_mode(
        "run-lms",
        {
            "complex": {"vertices": 8, "edge_prob": 0.5, "fill_prob": 0.5, "seed": 1},
            "order": 1,
            "mu": 1e-3,
            "horizon": 200,
            "realizations": 2,
            "signal_var": 0.1,
            "noise_var": 1e-4,
            "seed": 5,
        },
    )
    assert len(payload["msd"]) == 201
    assert payload["theory"]["mu_max"] > 0
    assert payload["metadata"]["seed"] == 5
    # each trajectory is written once, row 0 being the initial deviation
    assert "records" not in payload
    assert "msd_db" not in payload
    path = tmp_path / "result.csv"
    emit_results(payload, path, fmt="csv")
    rows = path.read_text().splitlines()[1:]
    assert len(rows) == 201
    assert float(rows[0].split(",")[1]) == pytest.approx(10 * np.log10(payload["msd"][0]),
                                                         rel=1e-14)


@pytest.mark.parametrize("mode", ["run-lms", "run-distributed"])
def test_deviation_arrays_write_the_bytes_of_their_lists(tmp_path, mode):
    # a deviation trajectory has no integral entry, so its array is written in the
    # bytes of json.dumps of its list (agent traces are a 2-D array)
    values = {"complex": {"vertices": 8, "edge_prob": 0.5, "fill_prob": 0.5, "seed": 1},
              "order": 1, "mu": 1e-3, "horizon": 200, "realizations": 2, "signal_var": 0.1,
              "noise_var": 1e-4, "seed": 5}
    if mode == "run-distributed":
        values["emit_agent_traces"] = True
    payload = run_mode(mode, values)
    arrays = [key for key, value in payload.items() if isinstance(value, np.ndarray)]
    assert arrays == (["msd", "agent_msd"] if mode == "run-distributed" else ["msd"])
    lists = {key: value.tolist() if key in arrays else value for key, value in payload.items()}
    emit_results(payload, tmp_path / "arrays.json")
    emit_results(lists, tmp_path / "lists.json")
    assert (tmp_path / "arrays.json").read_bytes() == (tmp_path / "lists.json").read_bytes()
    assert (tmp_path / "arrays.json").read_text() == compact_dump(lists)


INFER_VALUES = {
    "complex": {"vertices": 8, "edge_prob": 0.5, "fill_prob": 0.5, "seed": 2},
    "order": 1, "horizon": 40, "realizations": 2, "signal_var": 0.1, "noise_var": 1e-4,
    "mu1": 1e-2, "mu2": 1e-2, "lambda0": 0.1, "lambda1": 0.1, "seed": 3,
}


def test_infer_topology_removes_triangles_mid_stream():
    # removing every triangle fixes the schedule: all indicators drop to 0 at horizon // 2
    complex_ = random_complex(8, 0.5, 0.5, 2)
    removals = complex_.num_triangles
    payload = run_mode("infer-topology", {**INFER_VALUES, "remove_triangles": removals})
    cand = candidate_set(complex_, 1)
    t_true = cand.true_indicator(complex_)
    assert int(np.sum(t_true)) == removals == 3
    stream = StreamConfig.white(complex_.num_edges, 0.1, 1e-4, 1.0)
    expected = run_inference(cand, harness.draw_bounded_coeffs(1, 3), stream,
                             [(0, t_true), (20, np.zeros_like(t_true))],
                             mu1=1e-2, mu2=1e-2, lam0=0.1, lam1=0.1, realizations=2, horizon=40,
                             seed=3)
    assert payload["true_triangles"] == removals
    for key in ("h_error", "t_error", "recovery_rate", "support_size"):
        np.testing.assert_array_equal(payload[key], getattr(expected, key), strict=True)


def cell_by_cell_csv(payload: dict, table) -> bytes:
    """A row table's CSV file with each float cell spelled by its own :func:`_spell` call."""
    index, columns = table
    values = []
    for _, key, *view in columns:
        value = payload
        for part in key.split("."):
            value = (value or {}).get(part)
        values.append(np.asarray(view[0](value) if view else value).tolist())
    sink = io.StringIO()
    writer = csv.writer(sink)
    writer.writerow([index] + [column[0] for column in columns])
    for k in range(len(values[0])):
        row = [v[k] if isinstance(v, list) else v for v in values]
        writer.writerow([k] + [files._spell([c])[0] if isinstance(c, float) else c for c in row])
    return sink.getvalue().encode()


@pytest.mark.parametrize("mode, values", [
    ("run-lms", {"complex": {"vertices": 8, "edge_prob": 0.5, "fill_prob": 0.5, "seed": 1},
                 "order": 1, "mu": 1e-2, "horizon": 300, "realizations": 2, "signal_var": 0.1,
                 "noise_var": 1e-4, "seed": 5}),
    ("infer-topology", {**INFER_VALUES, "remove_triangles": 2}),
], ids=["run-lms", "infer-topology"])
def test_csv_columns_write_the_bytes_of_cell_by_cell_spelling(tmp_path, mode, values):
    # a column's floats are spelled in one call and a repeated scalar once
    payload = run_mode(mode, values)
    emit_results(payload, tmp_path / "rows.csv", fmt="csv")
    expected = cell_by_cell_csv(payload, harness._CSV_COLUMNS[mode])
    assert (tmp_path / "rows.csv").read_bytes() == expected


def test_infer_topology_cannot_remove_more_triangles_than_it_holds(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**INFER_VALUES, "remove_triangles": 4}))
    assert main(["infer-topology", "--config", str(config)]) == 2
    assert "cannot remove more triangles than the complex holds" in capsys.readouterr().err


def test_ar_train_distributed_through_run_mode():
    payload = run_mode("ar-train", {"surrogate": {"seed": 1}, "order": 2, "mu": 1e-2,
                                    "epochs": 2, "distributed": True})
    ds = traffic_surrogate(seed=1, order=2)
    comb = build_combination(lower_adjacency_neighborhoods(ds.complex), "uniform")
    expected = run_distributed_ar(ds, 2, 1e-2, comb, epochs=2)
    assert payload["variant"] == expected.variant
    np.testing.assert_array_equal(payload["train_errors"], expected.train_errors, strict=True)
    np.testing.assert_array_equal(payload["test_errors"], expected.test_errors, strict=True)
    assert payload["mean_test_error"] == expected.mean_test_error


def test_generate_complex_writes_a_series_that_ingests(tmp_path):
    complex_path, series_path = tmp_path / "c.txt", tmp_path / "s.csv"
    run_mode("generate-complex", {"complex": {"vertices": 8, "edge_prob": 0.5, "fill_prob": 0.5},
                                  "seed": 4, "complex_out": str(complex_path),
                                  "series_out": str(series_path)})
    ds = ingest_edge_series(complex_path, series_path)
    assert ds.series.shape == (288, ds.complex.num_edges)
    assert np.array_equal(ds.series, traffic_surrogate(seed=4, complex_=ds.complex).series)
