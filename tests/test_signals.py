"""Stream generation, regressors and moment formulas."""

import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from simplexlms import artrain, datasets, diffusion, lms, signals
from simplexlms.artrain import ar_regressor_tensor, run_ar_training
from simplexlms.complexes import grown_complex, hodge_laplacians, random_complex
from simplexlms.datasets import traffic_surrogate
from simplexlms.inference import candidate_set, run_inference
from simplexlms.lms import run_experiment
from simplexlms.signals import (
    FilterCoeffs,
    StreamBlock,
    StreamConfig,
    _draw,
    edge_moment_matrices,
    generate_stream,
    local_moment_matrices,
    moments_closed_form,
    moments_empirical,
    regressor_tensor,
)
from conftest import whole_stream


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
    back = FilterCoeffs(h_u=flat[: coeffs.order + 1], h_d=flat[coeffs.order + 1 :])
    assert np.array_equal(back.h_u, coeffs.h_u)
    assert np.array_equal(back.h_d, coeffs.h_d)
    assert coeffs.order == 2


def test_coeff_validation():
    with pytest.raises(ValueError):
        FilterCoeffs(h_u=[1.0], h_d=[1.0])


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
    X = regressor_tensor(x, ops, 1)[0]
    assert np.allclose(X[:, 1], 0.0)
    assert not np.allclose(X[:, 2], 0.0)


def test_regressors_match_naive_oracle(small_ops):
    # both tensor builders, row by row: one entry per full window, entry
    # n - order for row n
    rng = np.random.default_rng(2)
    E = small_ops.l1.shape[0]
    x = rng.standard_normal((12, E))
    for order in range(3):
        R = regressor_tensor(x, small_ops, order)
        R_ar = ar_regressor_tensor(x, small_ops, order)
        assert R.shape == (12 - order, E, 2 * order + 1)
        assert R_ar.shape == (12 - order, E, 2 * order)
        for n in range(order, 12):
            hist = [x[n - m] for m in range(order + 1)]
            expected = naive_regressors(hist, small_ops, order)
            assert np.allclose(R[n - order], expected, atol=1e-12)
            assert np.allclose(R_ar[n - order], expected[:, 1:], atol=1e-12)


def test_regressor_tensor_matches_per_step(small_ops):
    # row n of the stream tensor (entry n - 2) depends only on the window
    # x[n-2..n]: it equals the one entry built from that window alone
    rng = np.random.default_rng(2)
    E = small_ops.l1.shape[0]
    x = rng.standard_normal((30, E))
    R = regressor_tensor(x, small_ops, 2)
    assert R.shape == (28, E, 5)
    for n in range(2, 30):
        step = regressor_tensor(x[n - 2 : n + 1], small_ops, 2)[0]
        assert np.allclose(R[n - 2], step, atol=1e-12)
        hist = [x[n - m] for m in range(3)]
        assert np.allclose(R[n - 2], naive_regressors(hist, small_ops, 2), atol=1e-12)


# ------------------------------------------------------------------- masks


def stream_masks(p, horizon, seed):
    """The masks ``d`` of one white stream's draw, ``horizon`` rows of them."""
    [(_, _, d)] = _draw(StreamConfig.white(np.size(p), p=p), seed, (horizon,))
    return d


def test_mask_extremes():
    assert np.all(stream_masks(np.ones(6), 10, 4) == 1.0)
    assert np.all(stream_masks(np.zeros(6), 10, 4) == 0.0)
    with pytest.raises(ValueError):
        StreamConfig.white(1, p=np.array([1.5]))


def test_mask_monte_carlo_mean():
    p = np.array([0.1, 0.35, 0.5, 0.8, 1.0])
    draws = stream_masks(p, 100_000, 5)
    assert np.max(np.abs(draws.mean(axis=0) - p)) < 0.01


@pytest.mark.parametrize("knob", ["p", "sigma_v2"])
def test_stream_config_rejects_nan_knobs(knob):
    # NaN compares false with everything, so a range check must fail it
    values = {"p": 1.0, "sigma_v2": 0.0, knob: np.array([0.5, np.nan])}
    with pytest.raises(ValueError, match=knob):
        StreamConfig.white(2, **values)


# ------------------------------------------------------------------ stream


def test_stream_identity_filter_passthrough(small_complex, small_ops):
    E = small_complex.num_edges
    coeffs = FilterCoeffs(h_u=[1.0], h_d=[])
    cfg = StreamConfig.white(E, sigma_v2=0.0, p=1.0)
    batch = whole_stream(coeffs, small_ops, cfg, 50, 0)
    assert np.allclose(batch.y[0:], batch.x[0:][np.arange(50) >= 0] * (np.arange(50)[:, None] >= 0))
    # order 0: y(n) = x(n) for every n
    assert np.allclose(batch.y, batch.x)


def test_a_stream_config_is_the_signal_model(small_complex, small_ops):
    # the horizon and seed belong to the draw, which rejects a negative horizon
    assert [f.name for f in dataclasses.fields(StreamConfig)] == ["c_x", "sigma_v2", "p"]
    cfg = StreamConfig.white(small_complex.num_edges, sigma_v2=0.01, p=0.5)
    with pytest.raises(ValueError, match="horizon must be nonnegative"):
        next(generate_stream(FilterCoeffs(h_u=[1.0, 0.5], h_d=[0.3]), small_ops, cfg, -1, 3))


def test_stream_zero_sampling(small_complex, small_ops):
    coeffs = FilterCoeffs(h_u=[1.0, 0.5], h_d=[0.2])
    cfg = StreamConfig.white(small_complex.num_edges, sigma_v2=0.1, p=0.0)
    batch = whole_stream(coeffs, small_ops, cfg, 39, 1)
    assert np.allclose(batch.y, 0.0)


def test_stream_matches_model_identity(small_complex, small_ops):
    rng = np.random.default_rng(6)
    coeffs = FilterCoeffs.random(2, rng)
    E = small_complex.num_edges
    cfg = StreamConfig.white(E, sigma_v2=0.05, p=0.7)
    batch = whole_stream(coeffs, small_ops, cfg, 58, 2)
    h = coeffs.flatten()
    assert batch.y.shape == (58, E)
    for n in range(batch.order, batch.order + 58):
        hist = [batch.x[n - m] for m in range(3)]
        X = naive_regressors(hist, small_ops, 2)
        expected = batch.d[n - batch.order] * (X @ h + batch.v[n])
        assert np.max(np.abs(batch.y[n - batch.order] - expected)) < 1e-12
    # masked-out entries are exactly zero
    assert np.all(batch.y[batch.d == 0.0] == 0.0)


def test_stream_determinism(small_complex, small_ops):
    coeffs = FilterCoeffs(h_u=[0.5, 0.1], h_d=[0.3])
    cfg = StreamConfig.white(small_complex.num_edges, sigma_v2=0.01, p=0.5)
    a = whole_stream(coeffs, small_ops, cfg, 29, 77)
    b = whole_stream(coeffs, small_ops, cfg, 29, 77)
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
        cfg = StreamConfig(c_x=c_x, sigma_v2=np.zeros(edges), p=np.ones(edges))
        [(x, _, _)] = _draw(cfg, edges, (40,))
        sig_ss = np.random.SeedSequence(edges).spawn(3)[0]
        z = np.random.default_rng(sig_ss).standard_normal((40, edges))
        np.testing.assert_array_equal(x, z @ np.linalg.cholesky(c_x).T)
    # a 0-d variance c stands for c I: the bits of the dense config's draw
    for variance in (1e-3, 0.002, 0.1, 1.0, 7.3):
        cfg = StreamConfig(c_x=variance, sigma_v2=np.zeros(edges), p=np.ones(edges))
        assert cfg.num_edges == edges
        [(x, _, _)] = _draw(cfg, edges, (40,))
        np.testing.assert_array_equal(x, z @ np.linalg.cholesky(variance * np.eye(edges)).T)


def test_covariance_factor_eigen_fallback():
    # a rank-deficient PSD covariance has no Cholesky factor: the eigen
    # factor still reproduces it, and a clearly negative eigenvalue is rejected
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))

    def covariance(*lam):
        c = (q * np.array(lam)) @ q.T
        return (c + c.T) / 2

    c_x = covariance(2.0, 1.0, 0.5, 0.0, 0.0)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(c_x)
    factor = signals._covariance_factor(c_x)
    np.testing.assert_allclose(factor @ factor.T, c_x, rtol=0, atol=1e-12)
    with pytest.raises(ValueError, match="positive semi-definite"):
        signals._covariance_factor(covariance(2.0, 1.0, 0.5, 0.0, -1e-9))


def test_stream_sample_covariance(small_complex, small_ops):
    E = small_complex.num_edges
    rng = np.random.default_rng(7)
    a = rng.standard_normal((E, E)) / np.sqrt(E)
    c_x = a @ a.T + 0.5 * np.eye(E)
    cfg = StreamConfig(c_x=c_x, sigma_v2=np.zeros(E), p=np.ones(E))
    batch = whole_stream(FilterCoeffs(h_u=[1.0], h_d=[]), small_ops, cfg, 100_000, 3)
    sample = batch.x.T @ batch.x / batch.x.shape[0]
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
    cfg = StreamConfig(c_x=np.eye(E), sigma_v2=sigma_v2, p=p)
    closed = moments_closed_form(small_ops, p, np.eye(E), sigma_v2, 1, coeffs)
    empirical = moments_empirical(generate_stream(coeffs, small_ops, cfg, 99_999, 4), 1,
                                  sigma_v2=sigma_v2)
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
    block = StreamBlock(start=0, X=regressor_tensor(x, small_ops, 0), d=d, y=y)
    m = moments_empirical([block], 0)
    assert np.isclose(m.c_X[0, 0], np.sum(x**2))


def test_moments_empirical_zero_signal(small_ops):
    E = small_ops.l1.shape[0]
    x = np.zeros((20, E))
    block = StreamBlock(start=1, X=regressor_tensor(x, small_ops, 1),
                        d=np.ones((19, E)), y=np.zeros((19, E)))
    m = moments_empirical([block], 1, sigma_v2=np.ones(E))
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


@pytest.mark.parametrize("order", [1, 2, 3])
def test_edge_moments_need_no_edge_by_edge_array(order):
    # a dense skeleton (600 edges on 40 vertices, 40 triangles): the basis is
    # built from the incidence factors, never from an E x E operator
    ops = hodge_laplacians(grown_complex(40, 600, 40, seed=0))
    E = ops.num_edges
    a = np.random.default_rng(order).standard_normal((E, 8))
    c_x = a @ a.T / 8 + np.eye(E)
    tracemalloc.start()
    try:
        edge_moment_matrices(ops, c_x, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < E * E * 8, peak
    # white signals of one variance, as a 0-d covariance: input included
    tracemalloc.start()
    try:
        edge_moment_matrices(ops, np.float64(0.05), order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < E * E * 8, peak
    assert set(vars(ops)) == {"skeleton", "filling"}  # no Laplacian was formed


def dense_factor_moments(ops, c_x, order):
    # the moment basis of a dense covariance from row slices of the dense
    # incidence factors and their BLAS Grams: the construction it keeps
    dim = 2 * order + 1
    Z = np.zeros((ops.num_edges, dim, dim))
    Z[:, 0, 0] = np.diag(c_x)
    F = [ops.b2, ops.b1.T]
    first = [1, order + 1]
    grams = [f.T @ f for f in F]
    weights = {(s, t): F[s].T @ (c_x @ F[t]) for t in range(2) for s in range(t + 1)}
    step = max(1, signals._WINDOW_ELEMENTS // max(F[0].shape[1], F[1].shape[1], 1))
    for lo in range(0, Z.shape[0], step):
        block = Z[lo : lo + step]
        A = [f[lo : lo + step] for f in F]
        for m in range(order):
            if m:
                A = [a @ gram for a, gram in zip(A, grams)]
            for (s, t), w in weights.items():
                values = np.einsum("ik,ik->i", A[s] @ w, A[t])
                block[:, first[s] + m, first[t] + m] = values
                block[:, first[t] + m, first[s] + m] = values
    return Z


def exact_white_moments(ops, order):
    """``c -> `` the white basis at ``c_x = c I``, from the even powers of the Laplacians.

    Their entries are small integers, exact in float64 whatever the BLAS
    and its thread count, so each basis entry is ``c`` times an exact
    integer, rounded once.
    """
    even = [[np.diag(np.linalg.matrix_power(laplacian, 2 * m)) for m in range(1, order + 1)]
            for laplacian in (ops.upper, ops.lower)]

    def basis(c):
        Z = np.zeros((ops.num_edges, 2 * order + 1, 2 * order + 1))
        Z[:, 0, 0] = c
        for a, d in enumerate(even[0] + even[1], start=1):
            Z[:, a, a] = c * d
        return Z

    return basis


@pytest.mark.parametrize("order", [1, 2, 3])
def test_moment_basis_has_the_bits_of_the_dense_factors(small_complex, order):
    # a dense covariance keeps every bit of its basis, the signs of zeros
    # included; a 0-d one gets the exact value
    complexes = [small_complex, grown_complex(12, 30, 10, seed=0),
                 grown_complex(60, 250, 80, seed=1), grown_complex(150, 900, 300, seed=2)]
    for c in complexes:
        ops = hodge_laplacians(c)
        E = c.num_edges
        a = np.random.default_rng(order).standard_normal((E, 6))
        exact = exact_white_moments(ops, order)
        for v in (0.002, 0.05, 0.7, 1.0):
            basis = edge_moment_matrices(ops, np.float64(v), order)
            assert basis.tobytes() == exact(v).tobytes()
        if E <= 250:
            c_x = a @ a.T / 6 + np.eye(E)
            basis = edge_moment_matrices(ops, c_x, order)
            assert basis.tobytes() == dense_factor_moments(ops, c_x, order).tobytes()


@pytest.mark.parametrize("args", [(12, 30, 10, 0), (30, 120, 40, 1), (60, 250, 80, 1),
                                  (150, 900, 300, 2)], ids=["E30", "E120", "E250", "E900"])
def test_white_moment_basis_is_exact(args):
    # c times the diagonals of the even powers of the Hodge Laplacians, bit
    # for bit, with exact zeros off the diagonal
    ops = hodge_laplacians(grown_complex(*args))
    for order in (1, 2, 3):
        exact = exact_white_moments(ops, order)
        for c in (0.002, 0.05, 0.1, 0.7):
            assert edge_moment_matrices(ops, c, order).tobytes() == exact(c).tobytes()


def test_white_moment_basis_does_not_depend_on_the_blas_threads():
    # the same bytes at one BLAS thread and at two, in fresh processes
    code = (
        "import hashlib, numpy as np\n"
        "from simplexlms.complexes import grown_complex, hodge_laplacians\n"
        "from simplexlms.signals import edge_moment_matrices\n"
        "h = hashlib.sha256()\n"
        "for args in ((40, 600, 40, 0), (150, 900, 300, 2)):\n"
        "    ops = hodge_laplacians(grown_complex(*args))\n"
        "    for order in (1, 2, 3):\n"
        "        for c in (0.002, 0.05, 0.7):\n"
        "            h.update(edge_moment_matrices(ops, c, order).tobytes())\n"
        "print(h.hexdigest())\n"
    )
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(Path(signals.__file__).parents[1]),
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True, timeout=300)
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


@pytest.fixture(scope="module")
def design_complex():
    # the largest design-scale complex: 900 edges, 150 vertices, 300 triangles
    return grown_complex(150, 900, 300, seed=2)


def test_operators_share_one_read_only_incidence_pair(design_complex):
    c = design_complex
    ops = hodge_laplacians(c)
    assert ops.b1 is c.b1 and ops.b2 is c.b2
    assert c.b1.dtype == c.b2.dtype == np.float64
    for factor in (ops.b1, ops.b2):
        with pytest.raises(ValueError):
            factor[0, 0] = 5.0
    assert candidate_set(c, 1).ops.b1 is c.b1


@pytest.mark.parametrize("order", [1, 2, 3])
def test_white_moment_basis_is_built_in_row_blocks(design_complex, order):
    # a 0-d covariance at 900 edges: the closed form needs less than one dense
    # copy of both incidence factors, so no E x K array is formed
    c = design_complex
    ops = hodge_laplacians(c)
    tracemalloc.start()
    try:
        edge_moment_matrices(ops, 0.05, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < c.num_edges * (c.num_vertices + c.num_triangles) * 8, peak


def test_regressor_windows_reuse_the_factor_transposes(design_complex):
    # a 64-row window at 900 edges, order 3: the C-ordered transposes of both
    # incidence factors are built once per operator set, not per window, so a
    # window needs less beyond its regressors than one copy of b2^T
    c = design_complex
    ops = hodge_laplacians(c)
    x = np.random.default_rng(0).standard_normal((67, c.num_edges))
    regressor_tensor(x, ops, 3)
    for transpose, factor in ((ops.b1_t, c.b1), (ops.b2_t, c.b2)):
        assert transpose.flags.c_contiguous and np.array_equal(transpose, factor.T)
    tracemalloc.start()
    try:
        R = regressor_tensor(x, ops, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - R.nbytes < c.b2.nbytes, (peak, R.nbytes)


def test_white_run_keeps_a_scalar_covariance():
    # white streams at 600 edges: no E x E covariance, factor or moment input
    complex_ = grown_complex(40, 600, 40, seed=0)
    E = complex_.num_edges
    coeffs = FilterCoeffs.random(1, np.random.default_rng(2), scale=0.3)
    cfg = StreamConfig.white(E, 0.05, 1e-3, 0.8)
    run_experiment(complex_, coeffs, cfg, mu=1e-3, realizations=1, horizon=40, seed=1)
    tracemalloc.start()
    try:
        cfg = StreamConfig.white(E, 0.05, 1e-3, 0.8)
        run_experiment(complex_, coeffs, cfg, mu=1e-3, realizations=1, horizon=40, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < E * E * 8, peak


def test_stream_paths_form_no_edge_by_edge_laplacian(small_complex, monkeypatch):
    # regressors, indicator regressors and the AR surrogate all go through the
    # incidence factors and their small Grams, never an E x E Laplacian
    made = []

    def record(complex_):
        made.append(hodge_laplacians(complex_))
        return made[-1]

    for module in (lms, datasets, artrain, diffusion):
        monkeypatch.setattr(module, "hodge_laplacians", record)
    E, order = small_complex.num_edges, 2
    coeffs = FilterCoeffs.random(order, np.random.default_rng(0), scale=0.3)
    cfg = StreamConfig.white(E, 0.1, 1e-3, 0.8)
    ops = hodge_laplacians(small_complex)
    for _ in signals.generate_stream(coeffs, ops, cfg, 298, 0):
        pass
    run_experiment(small_complex, coeffs, cfg, mu=1e-3, realizations=2, horizon=300, seed=0)
    cand = candidate_set(small_complex, order)
    run_inference(cand, coeffs, StreamConfig.white(E, 0.005, 1e-3, 0.8),
                  [(0, cand.true_indicator(small_complex))], 1e-2, 1e-2, 0.1, 0.1,
                  realizations=1, horizon=100, seed=0)
    ds = traffic_surrogate(1, order=order, snapshots=60, train_count=50, complex_=small_complex)
    run_ar_training(ds, order, mu=1e-3)
    comb = diffusion.build_combination(diffusion.lower_adjacency_neighborhoods(small_complex))
    diffusion.run_distributed(small_complex, coeffs, cfg, comb, 1e-3, realizations=1,
                              horizon=100, seed=0)
    # run_experiment, the surrogate, run_ar_training, run_distributed
    assert len(made) == 4
    for built in (ops, cand.ops, *made):
        assert not {"upper", "lower", "l1"} & set(vars(built))


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_scalar_covariance_is_the_scaled_identity(small_ops, order):
    E = small_ops.num_edges
    for variance in (1.0, 0.05, 3.7):
        dense = edge_moment_matrices(small_ops, variance * np.eye(E), order)
        scalar = edge_moment_matrices(small_ops, variance, order)
        np.testing.assert_allclose(scalar, dense, rtol=1e-15,
                                   atol=1e-15 * float(np.max(np.abs(dense))))
        # the upper/lower cross entries vanish exactly, since b1 b2 = 0
        assert np.all(scalar[:, 1 : order + 1, order + 1 :] == 0)


def test_moments_take_a_scalar_covariance(small_ops):
    E = small_ops.num_edges
    rng = np.random.default_rng(5)
    coeffs = FilterCoeffs.random(2, rng)
    p, sigma_v2 = rng.uniform(0, 1, E), rng.uniform(0.001, 0.1, E)
    dense = moments_closed_form(small_ops, p, 0.3 * np.eye(E), sigma_v2, 2, coeffs)
    scalar = moments_closed_form(small_ops, p, np.float64(0.3), sigma_v2, 2, coeffs)
    for a, b in ((scalar.c_X, dense.c_X), (scalar.g, dense.g), (scalar.c_Xy, dense.c_Xy)):
        np.testing.assert_allclose(a, b, rtol=1e-14, atol=1e-14 * float(np.max(np.abs(b))))
    with pytest.raises(ValueError):
        moments_closed_form(small_ops, p, np.eye(E + 1), sigma_v2, 2, coeffs)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_moment_basis_does_not_depend_on_the_row_block(monkeypatch, order):
    # blocks of a few rows give the one-block basis to round-off, both for a
    # 0-d and for a dense covariance
    ops = hodge_laplacians(grown_complex(30, 120, 40, seed=1))
    E = ops.num_edges
    a = np.random.default_rng(order).standard_normal((E, 6))
    for c_x in (np.float64(0.05), a @ a.T / 6 + np.eye(E)):
        whole = edge_moment_matrices(ops, c_x, order)
        monkeypatch.setattr(signals, "_WINDOW_ELEMENTS", 7 * 40)
        blocked = edge_moment_matrices(ops, c_x, order)
        monkeypatch.undo()
        np.testing.assert_allclose(blocked, whole, rtol=1e-14,
                                   atol=1e-14 * float(np.max(np.abs(whole))))
        assert np.array_equal(blocked == 0, whole == 0)


def test_overflowing_moment_basis_is_rejected(small_ops):
    # every E{z z^T} entry is finite, but their sum over the edges is not
    E = small_ops.num_edges
    with pytest.raises(ValueError, match="the moment basis must be finite"):
        edge_moment_matrices(small_ops, 1e308, 0)
    with pytest.raises(ValueError, match="the moment basis must be finite"):
        local_moment_matrices(small_ops, np.ones(E), 1e307 * np.eye(E), 2)


def test_window_rule_fits_cache_with_a_row_floor():
    # about 256 KB of regressors per window, but never under 64 rows: a thin
    # window at a large edge count re-reads the incidence factors for few rows
    assert signals._window_rows(32, 2) * 32 * 5 <= 2**15
    assert signals._window_rows(32, 2) > 64
    assert signals._window_rows(900, 3) >= 64


def test_a_thin_last_block_joins_the_one_before(small_ops):
    # no block or window is thinner than the floor unless it is the only one
    E = small_ops.num_edges
    rows = signals._window_rows(E, 2)
    floor = signals._MIN_WINDOW_ROWS
    thin, full = 2 + 2 * rows + floor - 1, 2 + 2 * rows + floor
    assert list(signals._block_stops(E, 2, thin - 2)) == [2, 2 + rows, thin]
    assert list(signals._block_stops(E, 2, full - 2)) == [2, 2 + rows, 2 + 2 * rows, full]
    assert list(signals._block_stops(E, 2, 8)) == [2, 10]
    x = np.random.default_rng(3).standard_normal((2 + 2 * rows + 5, E))
    windows = [(start, regressor_tensor(window, small_ops, 2))
               for start, window, _ in signals._series_walk(x, 2, first=2)]
    assert [(start, len(X)) for start, X in windows] == [(2, rows), (2 + rows, rows + 5)]
    np.testing.assert_allclose(np.concatenate([X for _, X in windows]),
                               regressor_tensor(x, small_ops, 2), rtol=0, atol=1e-12)
    # a walk starts after its ``order`` history rows, never before them
    with pytest.raises(ValueError):
        signals._series_walk(x, 2, first=1)
