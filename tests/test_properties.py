"""Property tests of structural identities, on random complexes."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from simplexlms.complexes import hodge_laplacians, random_complex
from simplexlms.signals import FilterCoeffs, edge_moment_matrices, moments_closed_form


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
