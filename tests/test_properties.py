"""Property tests of structural identities, on random complexes."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from simplexlms import signals
from simplexlms.complexes import hodge_laplacians, random_complex
from simplexlms.signals import (
    FilterCoeffs,
    StreamConfig,
    edge_moment_matrices,
    generate_stream,
    moments_closed_form,
    regressor_tensor,
)

# 13 edges, 2 triangles: upper and lower taps are both nonzero at every order
WINDOW_OPS = hodge_laplacians(random_complex(8, 0.6, 0.5, 4))


def trace_moment(ops, order, w, c_x):
    # independent oracle: Tr(Op_a^T diag(w) Op_b c_x) for equal lags, 0 otherwise
    power = np.linalg.matrix_power
    operators = [np.eye(w.size)]
    operators += [power(ops.upper, m) for m in range(1, order + 1)]
    operators += [power(ops.lower, m) for m in range(1, order + 1)]
    lags = [0] + list(range(1, order + 1)) * 2
    dim = len(operators)
    out = np.zeros((dim, dim))
    for a in range(dim):
        for b in range(dim):
            if lags[a] == lags[b]:
                out[a, b] = np.trace(operators[a].T @ np.diag(w) @ operators[b] @ c_x)
    return out


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    vertices=st.integers(3, 8),
    edge_prob=st.floats(0.3, 1.0),
    fill_prob=st.floats(0.0, 1.0),
    order=st.integers(0, 2),
    seed=st.integers(0, 2**16),
)
def test_moments_match_trace_formula(vertices, edge_prob, fill_prob, order, seed):
    complex_ = random_complex(vertices, edge_prob, fill_prob, seed)
    E = complex_.num_edges
    assume(E > 0)
    ops = hodge_laplacians(complex_)
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.0, 1.0, E)
    sigma_v2 = rng.uniform(0.0, 0.1, E)
    # a random non-identity PSD covariance, rank-deficient half of the time
    a = rng.standard_normal((E, max(1, E // 2) if seed % 2 else E))
    c_x = a @ a.T / a.shape[1]
    coeffs = FilterCoeffs.random(order, rng)

    m = moments_closed_form(ops, p, c_x, sigma_v2, order, coeffs)
    Z = edge_moment_matrices(ops, c_x, order)
    scale = max(1.0, float(np.max(np.abs(m.c_X))))
    assert np.allclose(m.c_X, trace_moment(ops, order, p, c_x), rtol=1e-10, atol=1e-12 * scale)
    assert np.allclose(m.g, trace_moment(ops, order, sigma_v2 * p, c_x),
                       rtol=1e-10, atol=1e-12 * scale)
    for i in range(E):
        e_i = np.zeros(E)
        e_i[i] = 1.0
        assert np.allclose(Z[i], trace_moment(ops, order, e_i, c_x),
                           rtol=1e-10, atol=1e-12 * scale)


def window_budget(rows, order):
    """``_WINDOW_ELEMENTS`` value that makes windows of ``rows`` rows."""
    return rows * WINDOW_OPS.l1.shape[0] * (2 * order + 1)


def round_off(reference):
    # row blocks may run other BLAS kernels than the whole-stream product,
    # so windowed and whole results agree to round-off, not bit for bit
    return 1e-13 * max(1.0, float(np.max(np.abs(reference))))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    order=st.integers(0, 3),
    rows=st.integers(1, 5),
    first=st.integers(0, 5),
    blocks=st.integers(0, 4),
    overhang=st.integers(-1, 1),
)
def test_windows_concatenate_to_regressor_tensor(order, rows, first, blocks, overhang):
    # stream lengths one short of, at and one past a window boundary
    E = WINDOW_OPS.l1.shape[0]
    N = max(1, first + blocks * rows + overhang)
    x = np.random.default_rng(N).standard_normal((N, E))
    full = regressor_tensor(x, WINDOW_OPS, order)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(signals, "_WINDOW_ELEMENTS", window_budget(rows, order))
        windows = list(signals._regressor_windows(x, WINDOW_OPS, order, first))
    assert [start for start, _ in windows] == list(range(first, N, rows))
    assert all(X.shape == (min(rows, N - start), E, 2 * order + 1) for start, X in windows)
    got = np.concatenate([X for _, X in windows]) if windows else full[:0]
    np.testing.assert_allclose(got, full[first:], rtol=0, atol=round_off(full))


@settings(derandomize=True, max_examples=20, deadline=None)
@given(order=st.integers(0, 3), rows=st.integers(1, 5), extra=st.integers(1, 16))
def test_windowed_stream_matches_one_window(order, rows, extra):
    E = WINDOW_OPS.l1.shape[0]
    coeffs = FilterCoeffs.random(order, np.random.default_rng(extra), scale=0.5)
    cfg = StreamConfig.white(E, sigma_v2=0.05, p=0.7, horizon=order + extra, seed=extra)
    whole = generate_stream(coeffs, None, cfg, ops=WINDOW_OPS)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(signals, "_WINDOW_ELEMENTS", window_budget(rows, order))
        windowed = generate_stream(coeffs, None, cfg, ops=WINDOW_OPS)
    for name in ("x", "d", "v"):
        assert np.array_equal(getattr(windowed, name), getattr(whole, name))
    assert np.all(windowed.y[:order] == 0.0)
    np.testing.assert_allclose(windowed.y, whole.y, rtol=0, atol=round_off(whole.y))
