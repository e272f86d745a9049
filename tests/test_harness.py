"""Dataset ingestion, AR protocols, config handling and result emission."""

import json

import numpy as np
import pytest

from simplexlms import signals
from simplexlms.artrain import (
    VARIANTS,
    ar_regressor_tensor,
    extend_series,
    run_ar_training,
    run_distributed_ar,
)
from simplexlms.complexes import hodge_laplacians, save_complex
from simplexlms.datasets import (
    ingest_edge_series,
    read_edge_series,
    reference_traffic_complex,
    synthetic_traffic_series,
    traffic_surrogate,
    write_edge_series,
)
from simplexlms.diffusion import build_combination, lower_adjacency_neighborhoods
from simplexlms.errors import ConfigError
from simplexlms.harness import emit_results, resolve_noise, resolve_p, run_mode
from simplexlms.lms import LmsState, lms_step


# ----------------------------------------------------------------- datasets


def test_reference_complex_dimensions():
    c = reference_traffic_complex()
    assert (c.num_vertices, c.num_edges, c.num_triangles) == (17, 26, 5)


def test_edge_series_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    series = rng.standard_normal((12, 5))
    path = tmp_path / "series.csv"
    write_edge_series(path, series)
    loaded = read_edge_series(path)
    assert np.array_equal(loaded, series)


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


# ----------------------------------------------------------------- artrain


def test_extend_series_modular_indexing():
    series = np.arange(10, dtype=float).reshape(5, 2)
    ext = extend_series(series, 3)
    assert ext.shape == (15, 2)
    for i in range(15):
        assert np.array_equal(ext[i], series[i % 5])


def test_ar_training_shares_lms_step_path():
    # driving lms_step manually over the same data reproduces the trajectory
    ds = traffic_surrogate(seed=2)
    order, mu, epochs = 2, 1e-3, 2
    result = run_ar_training(ds, order, mu, variant="topo", epochs=epochs)
    ops = hodge_laplacians(ds.complex)
    ext = extend_series(ds.train_series, epochs)
    R = ar_regressor_tensor(ext, ops, order)
    state = LmsState(h=np.zeros(2 * order), mu=mu)
    errors = []
    ones = np.ones(ds.complex.num_edges)
    for n in range(order, ext.shape[0]):
        pred = R[n] @ state.h
        errors.append(np.linalg.norm(pred - ext[n]) / np.linalg.norm(ext[n]))
        state = lms_step(state, R[n], ones, ext[n])
    assert np.allclose(result.train_errors, errors, atol=1e-15)
    assert np.allclose(result.coeffs, state.h, atol=1e-15)


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
        state = LmsState(h=np.zeros(4), mu=1e-2)
        for n in range(2, ds.train_count):
            state = lms_step(
                state, R[n, i][None, :], np.ones(1), ds.train_series[n, i : i + 1]
            )
        assert np.allclose(dist.coeffs[i], state.h, atol=1e-13)


@pytest.mark.parametrize("variant", VARIANTS)
def test_ar_protocols_multi_window_match_one_window(variant, monkeypatch):
    # 7-row windows: the 498 training rows and the 38 test rows (from 250)
    # both cross window boundaries
    ds = traffic_surrogate(seed=2)
    E = ds.complex.num_edges
    comb = build_combination(lower_adjacency_neighborhoods(ds.complex), "uniform")

    def runs():
        return (run_ar_training(ds, 2, 1e-3, variant=variant, epochs=2),
                run_distributed_ar(ds, 2, 1e-2, comb, epochs=2, variant=variant))

    whole = runs()
    monkeypatch.setattr(signals, "_WINDOW_ELEMENTS", 7 * E * 5)
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
    path = tmp_path / "out.csv"
    emit_results(
        {"records": [{"b": 2, "a": 1}, {"b": 4, "a": 3}]}, path, fmt="csv"
    )
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "b,a"
    assert lines[1] == "2,1"


def test_emit_results_empty_records_with_header(tmp_path):
    path = tmp_path / "empty.csv"
    emit_results({"records": []}, path, fmt="csv", fieldnames=["iteration", "msd_db"])
    assert path.read_text().strip() == "iteration,msd_db"
    with pytest.raises(ConfigError):
        emit_results({"records": []}, tmp_path / "x.csv", fmt="csv")


# -------------------------------------------------------------- mode runners


def test_run_mode_unknown():
    with pytest.raises(ConfigError, match="unknown mode"):
        run_mode("bogus", {})


def test_run_mode_missing_key():
    with pytest.raises(ConfigError, match="requires config key"):
        run_mode("run-lms", {"complex": {"vertices": 8, "edge_prob": 0.4, "fill_prob": 0.5}})


def test_mode_run_lms_payload():
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
    assert payload["records"][0]["iteration"] == 0
