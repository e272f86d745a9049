"""Stream generation, regressors and moment formulas."""

import numpy as np
import pytest

from simplexlms.artrain import ar_regressor_tensor
from simplexlms.complexes import hodge_laplacians, laplacian_powers, random_complex
from simplexlms.signals import (
    FilterCoeffs,
    MomentSet,
    StreamConfig,
    _draw,
    edge_moment_matrices,
    generate_stream,
    local_moment_matrices,
    moments_closed_form,
    moments_empirical,
    read_stream_csv,
    regressor_tensor,
    sample_mask,
    write_stream_csv,
)


@pytest.fixture(scope="module")
def small_complex():
    return random_complex(10, 0.5, 0.6, 12)


@pytest.fixture(scope="module")
def small_ops(small_complex):
    return hodge_laplacians(small_complex)


def naive_regressors(history, ops, order):
    # independent oracle: explicit repeated matrix-vector products
    E = ops.l1.shape[0]
    cols = [np.array(history[0], dtype=float)]
    for m in range(1, order + 1):
        vec = np.array(history[m], dtype=float)
        for _ in range(m):
            vec = ops.upper @ vec
        cols.append(vec)
    for m in range(1, order + 1):
        vec = np.array(history[m], dtype=float)
        for _ in range(m):
            vec = ops.lower @ vec
        cols.append(vec)
    return np.stack(cols, axis=1)


# ------------------------------------------------------------- FilterCoeffs


def test_coeff_layout_roundtrip():
    coeffs = FilterCoeffs(h_u=[1.0, 2.0, 3.0], h_d=[4.0, 5.0])
    flat = coeffs.flatten()
    assert flat.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
    back = FilterCoeffs.from_flat(flat)
    assert np.array_equal(back.h_u, coeffs.h_u)
    assert np.array_equal(back.h_d, coeffs.h_d)
    assert coeffs.order == 2


def test_coeff_validation():
    with pytest.raises(ValueError):
        FilterCoeffs(h_u=[1.0], h_d=[1.0])
    with pytest.raises(ValueError):
        FilterCoeffs.from_flat(np.zeros(4))


# --------------------------------------------------------------- regressors


def test_regressors_order_zero(small_ops):
    x = np.arange(small_ops.l1.shape[0], dtype=float)
    X = regressor_tensor(x[None, :], small_ops, 0)[0]
    assert X.shape == (x.size, 1)
    assert np.array_equal(X[:, 0], x)


def test_regressors_upper_zero_without_triangles():
    c = random_complex(8, 0.5, 0.0, 3)
    ops = hodge_laplacians(c)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, c.num_edges))
    X = regressor_tensor(x, ops, 1)[1]
    assert np.allclose(X[:, 1], 0.0)
    assert not np.allclose(X[:, 2], 0.0)


def test_regressors_match_naive_oracle(small_ops):
    # both tensor builders, row by row, including the zero rows n < order
    rng = np.random.default_rng(2)
    E = small_ops.l1.shape[0]
    x = rng.standard_normal((12, E))
    for order in range(3):
        R = regressor_tensor(x, small_ops, order)
        R_ar = ar_regressor_tensor(x, small_ops, order)
        assert R.shape == (12, E, 2 * order + 1)
        assert R_ar.shape == (12, E, 2 * order)
        assert np.all(R[:order] == 0.0)
        assert np.all(R_ar[:order] == 0.0)
        for n in range(order, 12):
            hist = [x[n - m] for m in range(order + 1)]
            expected = naive_regressors(hist, small_ops, order)
            assert np.allclose(R[n], expected, atol=1e-12)
            assert np.allclose(R_ar[n], expected[:, 1:], atol=1e-12)


def test_regressor_tensor_matches_per_step(small_ops):
    # row n of the stream tensor depends only on the window x[n-2..n]:
    # it equals the last row built from that window alone
    rng = np.random.default_rng(2)
    E = small_ops.l1.shape[0]
    x = rng.standard_normal((30, E))
    R = regressor_tensor(x, small_ops, 2)
    assert np.allclose(R[:2], 0.0)
    for n in range(2, 30):
        step = regressor_tensor(x[n - 2 : n + 1], small_ops, 2)[-1]
        assert np.allclose(R[n], step, atol=1e-12)
        hist = [x[n - m] for m in range(3)]
        assert np.allclose(R[n], naive_regressors(hist, small_ops, 2), atol=1e-12)


# ------------------------------------------------------------------- masks


def test_mask_extremes():
    rng = np.random.default_rng(4)
    assert np.all(sample_mask(np.ones(6), rng) == 1.0)
    assert np.all(sample_mask(np.zeros(6), rng) == 0.0)
    with pytest.raises(ValueError):
        sample_mask(np.array([1.5]), rng)


def test_mask_monte_carlo_mean():
    rng = np.random.default_rng(5)
    p = np.array([0.1, 0.35, 0.5, 0.8, 1.0])
    draws = np.stack([sample_mask(p, rng) for _ in range(100_000)])
    assert np.max(np.abs(draws.mean(axis=0) - p)) < 0.01


# ------------------------------------------------------------------ stream


def test_stream_identity_filter_passthrough(small_complex):
    E = small_complex.num_edges
    coeffs = FilterCoeffs(h_u=[1.0], h_d=[])
    cfg = StreamConfig.white(E, sigma_v2=0.0, p=1.0, horizon=50, seed=0)
    batch = generate_stream(coeffs, small_complex, cfg)
    assert np.allclose(batch.y[0:], batch.x[0:][np.arange(50) >= 0] * (np.arange(50)[:, None] >= 0))
    # order 0: y(n) = x(n) for every n
    assert np.allclose(batch.y, batch.x)


def test_stream_zero_sampling(small_complex):
    coeffs = FilterCoeffs(h_u=[1.0, 0.5], h_d=[0.2])
    cfg = StreamConfig.white(small_complex.num_edges, sigma_v2=0.1, p=0.0, horizon=40, seed=1)
    batch = generate_stream(coeffs, small_complex, cfg)
    assert np.allclose(batch.y, 0.0)


def test_stream_matches_model_identity(small_complex, small_ops):
    rng = np.random.default_rng(6)
    coeffs = FilterCoeffs.random(2, rng)
    E = small_complex.num_edges
    cfg = StreamConfig.white(E, sigma_v2=0.05, p=0.7, horizon=60, seed=2)
    batch = generate_stream(coeffs, small_complex, cfg)
    h = coeffs.flatten()
    for n in range(batch.order, 60):
        hist = [batch.x[n - m] for m in range(3)]
        X = naive_regressors(hist, small_ops, 2)
        expected = batch.d[n] * (X @ h + batch.v[n])
        assert np.max(np.abs(batch.y[n] - expected)) < 1e-12
    assert np.allclose(batch.y[: batch.order], 0.0)
    # masked-out entries are exactly zero
    assert np.all(batch.y[batch.d == 0.0] == 0.0)


def test_stream_determinism(small_complex):
    coeffs = FilterCoeffs(h_u=[0.5, 0.1], h_d=[0.3])
    cfg = StreamConfig.white(small_complex.num_edges, sigma_v2=0.01, p=0.5, horizon=30, seed=77)
    a = generate_stream(coeffs, small_complex, cfg)
    b = generate_stream(coeffs, small_complex, cfg)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.d, b.d)
    assert np.array_equal(a.y, b.y)


@pytest.mark.parametrize("edges", [3, 30, 57])
def test_signal_draw_is_the_factor_product(edges):
    # white signals scale columns instead of multiplying by the diagonal
    # factor; both covariance kinds must give the bits of the product
    rng = np.random.default_rng(edges)
    mixed = rng.standard_normal((edges, edges))
    covariances = [s * np.eye(edges) for s in (1e-3, 0.002, 0.1, 1.0, 7.3)]
    covariances += [np.diag(rng.uniform(0.01, 3.0, edges)), mixed @ mixed.T + np.eye(edges)]
    for c_x in covariances:
        cfg = StreamConfig(c_x=c_x, sigma_v2=np.zeros(edges), p=np.ones(edges),
                           horizon=40, seed=edges)
        x, _, _ = _draw(cfg)
        sig_ss = np.random.SeedSequence(cfg.seed).spawn(3)[0]
        z = np.random.default_rng(sig_ss).standard_normal((40, edges))
        np.testing.assert_array_equal(x, z @ np.linalg.cholesky(c_x).T)


def test_stream_sample_covariance(small_complex):
    E = small_complex.num_edges
    rng = np.random.default_rng(7)
    a = rng.standard_normal((E, E)) / np.sqrt(E)
    c_x = a @ a.T + 0.5 * np.eye(E)
    cfg = StreamConfig(
        c_x=c_x, sigma_v2=np.zeros(E), p=np.ones(E), horizon=100_000, seed=3
    )
    batch = generate_stream(FilterCoeffs(h_u=[1.0], h_d=[]), small_complex, cfg)
    sample = batch.x.T @ batch.x / batch.horizon
    rel = np.linalg.norm(sample - c_x) / np.linalg.norm(c_x)
    assert rel < 0.05


# ------------------------------------------------------------------ moments


def test_moments_scalar_order_zero(small_ops):
    E = small_ops.l1.shape[0]
    coeffs = FilterCoeffs(h_u=[1.0], h_d=[])
    sigma_v2 = np.full(E, 0.3)
    m = moments_closed_form(small_ops, np.ones(E), np.eye(E), sigma_v2, 0, coeffs)
    assert m.c_X.shape == (1, 1)
    assert np.isclose(m.c_X[0, 0], E)
    assert np.isclose(m.g[0, 0], np.sum(sigma_v2))
    assert np.isclose(m.c_Xy[0], E)


def test_moments_linear_in_p(small_ops):
    E = small_ops.l1.shape[0]
    rng = np.random.default_rng(8)
    coeffs = FilterCoeffs.random(2, rng)
    sigma_v2 = rng.uniform(0.01, 0.1, E)
    p1 = rng.uniform(0, 0.5, E)
    p2 = rng.uniform(0, 0.5, E)
    m1 = moments_closed_form(small_ops, p1, np.eye(E), sigma_v2, 2, coeffs)
    m2 = moments_closed_form(small_ops, p2, np.eye(E), sigma_v2, 2, coeffs)
    m12 = moments_closed_form(small_ops, p1 + p2, np.eye(E), sigma_v2, 2, coeffs)
    assert np.allclose(m12.c_X, m1.c_X + m2.c_X, atol=1e-12)
    assert np.allclose(m12.g, m1.g + m2.g, atol=1e-12)
    # scalar rescaling scales both moment matrices exactly
    m_half = moments_closed_form(small_ops, 0.5 * p1, np.eye(E), sigma_v2, 2, coeffs)
    assert np.allclose(m_half.c_X, 0.5 * m1.c_X, atol=1e-13)
    assert np.allclose(m_half.g, 0.5 * m1.g, atol=1e-13)


def test_moments_positive_definite_and_consistent_with_normal_equations(small_ops):
    E = small_ops.l1.shape[0]
    rng = np.random.default_rng(9)
    coeffs = FilterCoeffs.random(2, rng)
    p = rng.uniform(0.3, 1.0, E)
    sigma_v2 = rng.uniform(0.001, 0.01, E)
    m = moments_closed_form(small_ops, p, np.eye(E), sigma_v2, 2, coeffs)
    assert np.allclose(m.c_X, m.c_X.T)
    assert np.min(np.linalg.eigvalsh(m.c_X)) > 0
    # solving the normal equations recovers the generating coefficients
    recovered = np.linalg.solve(m.c_X, m.c_Xy)
    assert np.max(np.abs(recovered - coeffs.flatten())) < 1e-10


def test_moments_match_monte_carlo(small_complex, small_ops):
    E = small_complex.num_edges
    rng = np.random.default_rng(10)
    coeffs = FilterCoeffs.random(1, rng, scale=0.5)
    p = rng.uniform(0.4, 1.0, E)
    sigma_v2 = rng.uniform(0.01, 0.05, E)
    cfg = StreamConfig(c_x=np.eye(E), sigma_v2=sigma_v2, p=p, horizon=100_000, seed=4)
    batch = generate_stream(coeffs, small_complex, cfg)
    closed = moments_closed_form(small_ops, p, np.eye(E), sigma_v2, 1, coeffs)
    empirical = moments_empirical(batch, 1, small_ops, sigma_v2=sigma_v2)
    rel_c = np.linalg.norm(empirical.c_X - closed.c_X) / np.linalg.norm(closed.c_X)
    rel_g = np.linalg.norm(empirical.g - closed.g) / np.linalg.norm(closed.g)
    rel_xy = np.linalg.norm(empirical.c_Xy - closed.c_Xy) / np.linalg.norm(closed.c_Xy)
    assert rel_c < 0.02
    assert rel_g < 0.02
    assert rel_xy < 0.02


def test_moments_empirical_single_sample(small_ops):
    E = small_ops.l1.shape[0]
    rng = np.random.default_rng(11)
    x = rng.standard_normal((1, E))
    d = np.ones((1, E))
    y = x.copy()
    from simplexlms.signals import StreamBatch

    batch = StreamBatch(x=x, d=d, y=y, order=0)
    m = moments_empirical(batch, 0, small_ops)
    assert np.isclose(m.c_X[0, 0], np.sum(x**2))


def test_moments_empirical_zero_signal(small_ops):
    E = small_ops.l1.shape[0]
    from simplexlms.signals import StreamBatch

    batch = StreamBatch(x=np.zeros((20, E)), d=np.ones((20, E)), y=np.zeros((20, E)), order=1)
    m = moments_empirical(batch, 1, small_ops, sigma_v2=np.ones(E))
    assert np.allclose(m.c_X, 0)
    assert np.allclose(m.g, 0)
    assert np.allclose(m.c_Xy, 0)


def test_edge_moments_sum_to_global(small_ops):
    E = small_ops.l1.shape[0]
    rng = np.random.default_rng(12)
    coeffs = FilterCoeffs.random(2, rng)
    p = rng.uniform(0, 1, E)
    sigma_v2 = rng.uniform(0.001, 0.1, E)
    Z = edge_moment_matrices(small_ops, np.eye(E), 2)
    m = moments_closed_form(small_ops, p, np.eye(E), sigma_v2, 2, coeffs)
    assert np.allclose(np.tensordot(p, Z, axes=1), m.c_X, atol=1e-12)
    assert np.allclose(np.tensordot(p * sigma_v2, Z, axes=1), m.g, atol=1e-12)
    local = local_moment_matrices(small_ops, p, np.eye(E), 2)
    assert np.allclose(local.sum(axis=0), m.c_X, atol=1e-12)
    # per-edge moments are PSD
    for i in range(E):
        assert np.min(np.linalg.eigvalsh(Z[i])) > -1e-12


# ---------------------------------------------------------------- serialize


def test_stream_csv_roundtrip(tmp_path, small_complex):
    coeffs = FilterCoeffs(h_u=[0.4, 0.2], h_d=[0.1])
    cfg = StreamConfig.white(small_complex.num_edges, sigma_v2=0.02, p=0.6, horizon=15, seed=5)
    batch = generate_stream(coeffs, small_complex, cfg)
    path = tmp_path / "stream.csv"
    write_stream_csv(batch, path)
    loaded = read_stream_csv(path, order=batch.order)
    assert np.array_equal(loaded.x, batch.x)
    assert np.array_equal(loaded.d, batch.d)
    assert np.array_equal(loaded.y, batch.y)


def test_momentset_json_roundtrip(small_ops):
    E = small_ops.l1.shape[0]
    coeffs = FilterCoeffs(h_u=[1.0, -0.3], h_d=[0.7])
    m = moments_closed_form(small_ops, np.ones(E), np.eye(E), np.full(E, 0.01), 1, coeffs)
    back = MomentSet.from_json(m.to_json())
    assert np.array_equal(back.c_X, m.c_X)
    assert np.array_equal(back.g, m.g)
    assert np.array_equal(back.c_Xy, m.c_Xy)
