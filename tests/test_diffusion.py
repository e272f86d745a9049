"""Combination matrices, the diffusion recursion and its theory."""

import csv

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from simplexlms import signals
from simplexlms.complexes import grown_complex, hodge_laplacians, random_complex
from simplexlms.diffusion import (
    atc_step,
    build_combination,
    check_irreducible,
    dist_theory,
    lower_adjacency_neighborhoods,
    run_distributed,
)
from simplexlms.files import save_combination
from simplexlms.lms import (
    lms_step,
    max_stepsize,
    run_experiment,
    tail_average,
    theory_report,
    to_db,
)
from simplexlms.signals import (
    FilterCoeffs,
    StreamConfig,
    local_moment_matrices,
    moments_closed_form,
)
from conftest import whole_stream


# ------------------------------------------------------------- combination


def test_self_only_neighborhoods_give_identity():
    comb = build_combination([[0], [1], [2]])
    assert np.array_equal(comb, np.eye(3))


def test_uniform_three_cycle():
    nbrs = [[0, 1, 2], [0, 1, 2], [0, 1, 2]]
    comb = build_combination(nbrs, "uniform")
    assert np.allclose(comb, np.full((3, 3), 1 / 3))


def b1_neighborhoods(complex_):
    # oracle: the edges at each vertex are the nonzeros of its row of b1, and
    # an edge's neighbourhood is their union over the vertices in its column
    at_vertex = [set(np.flatnonzero(row).tolist()) for row in complex_.b1]
    return [sorted(set().union(*(at_vertex[v] for v in np.flatnonzero(column))))
            for column in complex_.b1.T]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(vertices=st.integers(1, 12), edge_prob=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
def test_neighborhoods_match_the_incidence_oracle(vertices, edge_prob, seed):
    c = random_complex(vertices, edge_prob, 0.5, seed)
    assert lower_adjacency_neighborhoods(c) == b1_neighborhoods(c)


def test_row_stochastic_and_support():
    rng = np.random.default_rng(0)
    for seed in range(10):
        c = random_complex(9, 0.5, 0.5, seed)
        if c.num_edges < 2:
            continue
        nbrs = lower_adjacency_neighborhoods(c)
        for rule in ("uniform", "metropolis"):
            comb = build_combination(nbrs, rule)
            assert np.max(np.abs(comb.sum(axis=1) - 1.0)) < 1e-12
            assert np.all(comb >= 0)
            for i, nbr in enumerate(nbrs):
                outside = np.setdiff1d(np.arange(c.num_edges), np.array(nbr))
                assert np.all(comb[i, outside] == 0)


def test_metropolis_symmetric_doubly_stochastic_on_regular_graph():
    # 4-cycle of agents: every degree equal
    nbrs = [[0, 1, 3], [0, 1, 2], [1, 2, 3], [0, 2, 3]]
    comb = build_combination(nbrs, "metropolis")
    assert np.allclose(comb, comb.T)
    assert np.max(np.abs(comb.sum(axis=0) - 1.0)) < 1e-12
    assert np.max(np.abs(comb.sum(axis=1) - 1.0)) < 1e-12


def test_empty_neighborhood_rejected():
    with pytest.raises(ValueError, match="empty"):
        build_combination([[0], []])
    with pytest.raises(ValueError, match="own neighbourhood"):
        build_combination([[1], [1]])


# ------------------------------------------------------------ irreducible


def test_irreducible_cases():
    cycle = np.array([[0.5, 0.5, 0], [0, 0.5, 0.5], [0.5, 0, 0.5]])
    assert check_irreducible(cycle)
    blocks = np.array([[1.0, 0, 0], [0, 0.5, 0.5], [0, 0.5, 0.5]])
    assert not check_irreducible(blocks)
    assert not check_irreducible(np.eye(2))


# -------------------------------------------------------------------- atc


def test_atc_identity_combination_is_independent_lms():
    rng = np.random.default_rng(1)
    E, dim = 6, 3
    comb = build_combination([[i] for i in range(E)])
    H = rng.standard_normal((E, dim))
    z = rng.standard_normal((E, dim))
    d = np.ones(E)
    y = rng.standard_normal(E)
    new = atc_step(H, np.full(E, 0.05), comb, z, d, y)
    for i in range(E):
        solo = lms_step(H[i], 0.05, z[i][None, :], np.ones(1), y[i : i + 1])
        assert np.allclose(new[i], solo, atol=1e-14)


def test_atc_combine_only_contracts_toward_consensus():
    rng = np.random.default_rng(2)
    c = grown_complex(11, 15, 10, seed=0)
    comb = build_combination(lower_adjacency_neighborhoods(c), "uniform")
    assert check_irreducible(comb)
    E = c.num_edges
    H = rng.standard_normal((E, 3))
    mu = np.full(E, 0.1)
    z = np.zeros((E, 3))
    d = np.zeros(E)
    y = np.zeros(E)
    spread = [np.max(np.ptp(H, axis=0))]
    for _ in range(120):
        H = atc_step(H, mu, comb, z, d, y)
        spread.append(np.max(np.ptp(H, axis=0)))
    diffs = np.diff(spread)
    assert np.all(diffs <= 1e-12)
    assert spread[-1] < 1e-3 * spread[0]


def test_atc_zero_innovation_consensus_invariant():
    rng = np.random.default_rng(3)
    E, dim = 5, 3
    nbrs = [[max(0, i - 1), i, min(E - 1, i + 1)] for i in range(E)]
    comb = build_combination(nbrs, "uniform")
    h = rng.standard_normal(dim)
    H = np.tile(h, (E, 1))
    z = rng.standard_normal((E, dim))
    y = z @ h  # zero innovation at every agent
    new = atc_step(H, np.full(E, 0.05), comb, z, np.ones(E), y)
    assert np.allclose(new, H, atol=1e-13)


def test_atc_stacked_error_identity():
    # stacked deviation follows  B(n) err - A_blk M g(n)  exactly
    rng = np.random.default_rng(4)
    for _ in range(20):
        E, dim = 5, 3
        nbrs = [sorted({i, int(rng.integers(E))} | {0}) for i in range(E)]
        comb = build_combination(nbrs, "uniform")
        mu = rng.uniform(0.01, 0.1, E)
        h_true = rng.standard_normal(dim)
        H = rng.standard_normal((E, dim))
        z = rng.standard_normal((E, dim))
        d = (rng.random(E) < 0.7).astype(float)
        v = rng.standard_normal(E)
        y = d * (z @ h_true + v)
        new = atc_step(H, mu, comb, z, d, y)

        err = (h_true[None, :] - H).reshape(-1)
        a_blk = np.kron(comb, np.eye(dim))
        m_diag = np.repeat(mu, dim)
        c_z_inst = np.zeros((E * dim, E * dim))
        g_inst = np.zeros(E * dim)
        for i in range(E):
            sl = slice(i * dim, (i + 1) * dim)
            c_z_inst[sl, sl] = d[i] * np.outer(z[i], z[i])
            g_inst[sl] = d[i] * z[i] * v[i]
        B_inst = a_blk @ (np.eye(E * dim) - m_diag[:, None] * c_z_inst)
        predicted = B_inst @ err - a_blk @ (m_diag * g_inst)
        actual = (h_true[None, :] - new).reshape(-1)
        assert np.max(np.abs(actual - predicted)) < 1e-12


# ------------------------------------------------------------------ theory


def test_dist_theory_scalar_reduces_to_centralized():
    comb = build_combination([[0]])
    c_z = np.array([[[2.0]]])
    report = dist_theory(comb, c_z, np.array([0.3]), np.array([0.05]))
    assert np.isclose(report.rho_b, abs(1 - 0.05 * 2.0))
    # matches the scalar steady state mu^2 g c / (1 - (1 - mu c)^2) with g = sigma^2 c
    mu, c, s2 = 0.05, 2.0, 0.3
    expected = mu**2 * s2 * c / (1 - (1 - mu * c) ** 2)
    assert np.isclose(report.msd_total, expected)
    assert report.checks.all_hold()


def test_dist_theory_hypotheses_hold_over_seeded_instances():
    held = 0
    for seed in range(50):
        c = random_complex(10, 0.55, 0.7, seed)
        if c.num_edges < 4 or c.num_triangles == 0:
            continue
        ops = hodge_laplacians(c)
        E = c.num_edges
        comb = build_combination(lower_adjacency_neighborhoods(c), "uniform")
        locals_ = local_moment_matrices(ops, np.ones(E), 0.02 * np.eye(E), 1)
        mu = np.full(E, 1e-2)
        report = dist_theory(comb, locals_, np.full(E, 1e-5), mu)
        if report.checks.all_hold():
            held += 1
            assert report.rho_b < 1.0
    assert held >= 30  # the check must not be vacuous


def test_dist_theory_reducible_counterexample():
    # two disconnected agents; only agent 0 has an informative moment
    comb = build_combination([[0], [1]])
    c_z = np.zeros((2, 2, 2))
    c_z[0] = np.eye(2)
    report = dist_theory(comb, c_z, np.array([1e-4, 1e-4]), np.array([0.1, 0.1]))
    assert not report.checks.irreducible
    assert report.rho_b >= 1.0
    assert not report.stable
    assert np.isnan(report.msd_total)


def dense_b(comb, locals_, mu):
    # the Kronecker form of the mean recursion, B = (A (x) I)(I - M blkdiag(C_l))
    dim = locals_.shape[1]
    adapt = np.eye(len(mu) * dim) - np.repeat(mu, dim)[:, None] * scipy.linalg.block_diag(*locals_)
    return np.kron(comb, np.eye(dim)) @ adapt


def test_dist_theory_blocks_match_the_dense_embedding():
    # per-agent oracles for the local spectra, the Kronecker form for B
    c = grown_complex(11, 15, 10, seed=0)
    E = c.num_edges
    p = np.linspace(0.0, 1.0, E)   # agent 0 is never sampled: a zero moment
    locals_ = local_moment_matrices(hodge_laplacians(c), p, 0.1 * np.eye(E), 2)
    comb = build_combination(lower_adjacency_neighborhoods(c), "metropolis")
    mu = np.linspace(1e-3, 2e-2, E)
    report = dist_theory(comb, locals_, np.full(E, 1e-4), mu)
    radius = np.array([np.max(np.abs(np.linalg.eigvalsh(C))) for C in locals_])
    np.testing.assert_array_equal(report.local_radius, radius)
    assert radius[0] == 0 and report.local_mu_bounds[0] == np.inf
    np.testing.assert_array_equal(report.local_mu_bounds[1:], 2.0 / radius[1:])
    assert report.checks.some_local_moment_nonsingular
    B = dense_b(comb, locals_, mu)
    assert report.rho_b == float(np.max(np.abs(np.linalg.eigvals(B))))
    assert report.stable
    # a transposed or permuted B keeps the spectrum but not the deviation
    dim = locals_.shape[1]
    S = scipy.linalg.solve_discrete_lyapunov(B.T, np.eye(E * dim))
    a_blk = np.kron(comb, np.eye(dim))
    m_blk = np.kron(np.diag(mu), np.eye(dim))
    g = scipy.linalg.block_diag(*(1e-4 * locals_))
    expected = float(np.trace(a_blk @ m_blk @ g @ m_blk @ a_blk.T @ S))
    assert abs(report.msd_total - expected) <= 1e-10 * abs(expected)


def test_dist_theory_matches_kronecker_solve():
    # brute-force reference: vec(S) = (I - B^T (x) B^T)^{-1} vec(I), n = E * dim = 45
    c = grown_complex(11, 15, 10, seed=0)
    ops = hodge_laplacians(c)
    E = c.num_edges
    locals_ = local_moment_matrices(ops, np.ones(E), 0.1 * np.eye(E), 1)
    comb = build_combination(lower_adjacency_neighborhoods(c), "uniform")
    sigma_v2 = np.linspace(1e-5, 1e-4, E)
    mu = np.full(E, 1e-2)
    report = dist_theory(comb, locals_, sigma_v2, mu)
    assert report.stable
    dim = locals_.shape[1]
    n = E * dim
    assert n == 45
    B = dense_b(comb, locals_, mu)
    s = np.linalg.solve(np.eye(n * n) - np.kron(B.T, B.T), np.eye(n).reshape(-1, order="F"))
    S = s.reshape((n, n), order="F")
    a_blk = np.kron(comb, np.eye(dim))
    m_blk = np.kron(np.diag(mu), np.eye(dim))
    g = scipy.linalg.block_diag(*(sigma_v2[:, None, None] * locals_))
    expected = float(np.trace(a_blk @ m_blk @ g @ m_blk @ a_blk.T @ S))
    assert abs(report.msd_total - expected) <= 1e-10 * abs(expected)


def kronecker_stein(B):
    # vec(S) = (I - B^T (x) B^T)^{-1} vec(I), with the n^2 x n^2 system built
    # once and factored in place: at n = 75 it alone holds 253 MB
    n = B.shape[0]
    k = (B[:, None, :, None] * B[None, :, None, :]).reshape(n * n, n * n)  # B (x) B
    np.negative(k, out=k)
    k.flat[:: n * n + 1] += 1.0
    # k.T = I - B^T (x) B^T, in the Fortran order LAPACK factors without a copy
    s = scipy.linalg.solve(
        k.T, np.eye(n).reshape(-1, order="F"), overwrite_a=True, check_finite=False
    )
    return s.reshape((n, n), order="F")


def test_dist_theory_near_margin_matches_kronecker_solve():
    # 1 - rho(B) = 0.1 mu = 2e-6: the Stein series needs about 2^23 terms
    c = grown_complex(11, 15, 10, seed=0)
    ops = hodge_laplacians(c)
    E = c.num_edges
    locals_ = local_moment_matrices(ops, np.ones(E), 0.1 * np.eye(E), 2)
    comb = build_combination(lower_adjacency_neighborhoods(c), "uniform")
    sigma_v2 = np.linspace(1e-5, 1e-4, E)
    mu = np.full(E, 2e-5)
    report = dist_theory(comb, locals_, sigma_v2, mu)
    assert report.stable
    assert 1e-6 < 1.0 - report.rho_b < 4e-6
    dim = locals_.shape[1]
    assert E * dim == 75
    S = kronecker_stein(dense_b(comb, locals_, mu))
    a_blk = np.kron(comb, np.eye(dim))
    m_blk = np.kron(np.diag(mu), np.eye(dim))
    g = scipy.linalg.block_diag(*(sigma_v2[:, None, None] * locals_))
    expected = float(np.trace(a_blk @ m_blk @ g @ m_blk @ a_blk.T @ S))
    assert abs(report.msd_total - expected) <= 1e-10 * abs(expected)


@pytest.mark.parametrize(
    "rule, signal_var, mu",
    [("uniform", 1.0, 1e-3), ("uniform", 0.002, 1e-3), ("metropolis", 0.002, 1e-2)],
)
def test_isolated_agent_is_unstable(rule, signal_var, mu):
    # agents 1 and 2 form a component cut off from the other nine, and no
    # triangle touches them, so their upper taps are never excited: B keeps
    # an exact unit eigenvalue, computed a few ulps below 1
    c = grown_complex(11, 11, 5, seed=0)
    ops = hodge_laplacians(c)
    E = c.num_edges
    comb = build_combination(lower_adjacency_neighborhoods(c), rule)
    locals_ = local_moment_matrices(ops, np.ones(E), signal_var * np.eye(E), 2)
    report = dist_theory(comb, locals_, np.full(E, 1e-4), np.full(E, mu))
    assert report.stable is False
    assert np.isnan(report.msd_total)
    assert np.isnan(report.msd_per_agent)


def test_sum_of_local_moments_is_global_moment():
    c = grown_complex(11, 15, 10, seed=0)
    ops = hodge_laplacians(c)
    E = c.num_edges
    rng = np.random.default_rng(5)
    p = rng.uniform(0.3, 1.0, E)
    coeffs = FilterCoeffs.random(2, rng)
    locals_ = local_moment_matrices(ops, p, 0.1 * np.eye(E), 2)
    m = moments_closed_form(ops, p, 0.1 * np.eye(E), np.full(E, 1e-4), 2, coeffs)
    assert np.allclose(locals_.sum(axis=0), m.c_X, atol=1e-12)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(vertices=st.integers(6, 9), edge_prob=st.floats(0.4, 0.9), fill_prob=st.floats(0.3, 1.0),
       order=st.integers(0, 3), white=st.booleans(), fraction=st.floats(0.01, 0.45),
       seed=st.integers(0, 2**16))
def test_full_consensus_theory_is_the_centralized_theory(vertices, edge_prob, fill_prob, order,
                                                         white, fraction, seed):
    # comb = 1/E everywhere and mu_l = E mu: B acts as Q = I - mu c_X on the consensus
    # subspace and annihilates the rest, and R = 1 1^T (x) mu^2 g, so each agent's
    # steady-state deviation is the centralized one and rho(B) = rho(Q). B's zero
    # eigenvalues are defective, so eigvals places them up to about 1e-9 off zero:
    # mu below 0.45 mu_max keeps rho(Q) above 0.1, clear of them
    complex_ = random_complex(vertices, edge_prob, fill_prob, seed)
    E = complex_.num_edges
    ops = hodge_laplacians(complex_)
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.3, 1.0, E)
    sigma_v2 = rng.choice([1e-4, 1e-3, 1e-2], E)
    c_x = np.eye(E) if white else np.diag(rng.uniform(0.1, 2.0, E))
    m = moments_closed_form(ops, p, c_x, sigma_v2, order, FilterCoeffs.random(order, rng))
    assume(np.linalg.eigvalsh(m.c_X)[0] > 1e-9 * np.linalg.eigvalsh(m.c_X)[-1])
    mu = fraction * max_stepsize(m.c_X)
    central = theory_report(m.c_X, m.g, mu)
    network = dist_theory(np.full((E, E), 1.0 / E), local_moment_matrices(ops, p, c_x, order),
                          sigma_v2, np.full(E, E * mu))
    assert network.stable
    assert network.msd_per_agent == pytest.approx(central.msd_exact, rel=1e-10, abs=0)
    assert abs(network.rho_b - central.rho_Q) <= 1e-14


def test_full_consensus_network_runs_the_centralized_filter():
    # from equal rows, one round with comb = 1/E and mu_l = E mu is the LMS update
    # h + mu X^T D (y - X h) on the same stream, up to rounding
    complex_ = random_complex(8, 0.5, 0.6, 3)
    E = complex_.num_edges
    rng = np.random.default_rng(12)
    coeffs = FilterCoeffs.random(2, rng, scale=0.5)
    cfg = StreamConfig(c_x=np.diag(rng.uniform(0.05, 0.2, E)),
                       sigma_v2=rng.choice([1e-4, 1e-3, 1e-2], E), p=rng.uniform(0.3, 1.0, E))
    mu = 1e-3  # 0.18 of the mean-stability bound: steady state within the horizon
    central = run_experiment(complex_, coeffs, cfg, mu, realizations=2, horizon=3000, seed=4)
    network = run_distributed(complex_, coeffs, cfg, np.full((E, E), 1.0 / E), E * mu,
                              realizations=2, horizon=3000, seed=4)
    np.testing.assert_allclose(network.msd, central.msd, rtol=1e-11, atol=0)


# -------------------------------------------------------------- simulation


@pytest.fixture(scope="module")
def network_instance():
    complex_ = grown_complex(11, 15, 10, seed=0)
    E = complex_.num_edges
    rng = np.random.default_rng(6)
    coeffs = FilterCoeffs.random(2, rng, scale=0.7)
    cfg = StreamConfig(c_x=0.1 * np.eye(E), sigma_v2=np.full(E, 1e-5), p=np.ones(E))
    comb = build_combination(lower_adjacency_neighborhoods(complex_), "uniform")
    return complex_, coeffs, cfg, comb


def atc_replay(instance, mu, seed, horizon):
    """Per-agent deviations of one realization, replayed round by round from its seed."""
    from simplexlms.signals import regressor_tensor

    complex_, coeffs, cfg, comb = instance
    E, order = complex_.num_edges, coeffs.order
    ops = hodge_laplacians(complex_)
    h_true = coeffs.flatten()
    batch = whole_stream(coeffs, ops, cfg, horizon, seed)
    H, mu_vec = np.zeros((E, h_true.size)), np.full(E, mu)
    traj = np.empty((E, horizon + 1))
    traj[:, 0] = np.sum(h_true**2)
    for n in range(order, horizon + order):
        z = regressor_tensor(batch.x[n - order : n + 1], ops, order)[0]
        H = atc_step(H, mu_vec, comb, z, batch.d[n - order], batch.y[n - order])
        traj[:, n - order + 1] = np.sum((h_true[None, :] - H) ** 2, axis=1)
    return traj


def test_run_distributed_horizon_zero(network_instance):
    complex_, coeffs, cfg, comb = network_instance
    result = run_distributed(complex_, coeffs, cfg, comb, 1e-2, realizations=2, horizon=0, seed=8)
    assert result.msd.shape == (1,)
    assert np.isclose(result.msd[0], np.sum(coeffs.flatten() ** 2))


def test_run_distributed_rejects_a_config_of_another_edge_count(network_instance):
    # a config of 14 edges on 15: the edge-count message the centralized moments give
    complex_, coeffs, _, comb = network_instance
    E = complex_.num_edges
    short = StreamConfig.white(E - 1, 0.1, 1e-5)
    with pytest.raises(ValueError, match="moment inputs must all match the edge count"):
        run_distributed(complex_, coeffs, short, comb, 1e-2, realizations=1, horizon=5, seed=8)


def test_run_distributed_deterministic(network_instance):
    complex_, coeffs, cfg, comb = network_instance
    a = run_distributed(complex_, coeffs, cfg, comb, 1e-2, realizations=2, horizon=50, seed=8)
    b = run_distributed(complex_, coeffs, cfg, comb, 1e-2, realizations=2, horizon=50, seed=8)
    assert np.array_equal(a.msd, b.msd)


def test_run_distributed_identity_combination_matches_independent_runs(network_instance):
    complex_, coeffs, cfg, comb = network_instance
    E = complex_.num_edges
    identity = build_combination([[i] for i in range(E)])
    result = run_distributed(
        complex_, coeffs, cfg, identity, 1e-2, realizations=1, horizon=40, seed=8,
        track_agents=True,
    )
    # replay edge-wise LMS on the same stream
    from simplexlms.lms import derived_seeds
    from simplexlms.signals import regressor_tensor

    ops = hodge_laplacians(complex_)
    seed = derived_seeds(8, 1)[0]
    batch = whole_stream(coeffs, ops, cfg, 40, seed)
    R = regressor_tensor(batch.x, ops, 2)
    h_true = coeffs.flatten()
    for i in range(0, E, 5):
        h = np.zeros(5)
        for k in range(40):
            h = lms_step(h, 1e-2, R[k, i][None, :], batch.d[k, i : i + 1], batch.y[k, i : i + 1])
        assert np.isclose(
            result.agent_msd[i, 40], np.sum((h_true - h) ** 2), atol=1e-12
        )


def test_run_distributed_multi_window_matches_step_replay(network_instance, monkeypatch):
    # 7-row regressor windows: the 40 rounds span six windows
    complex_, coeffs, cfg, comb = network_instance
    monkeypatch.setattr(signals, "_BLOCK_ROWS", 7)
    result = run_distributed(complex_, coeffs, cfg, comb, 1e-2, realizations=2, horizon=40,
                             seed=8, track_agents=True)

    from simplexlms.lms import derived_seeds

    total = sum(atc_replay(network_instance, 1e-2, seed, 40)
                for seed in derived_seeds(8, 2))
    np.testing.assert_allclose(result.agent_msd, total / 2, rtol=1e-12)
    np.testing.assert_allclose(result.msd, np.mean(total / 2, axis=0), rtol=1e-12)


def test_run_distributed_drops_diverged_realization(network_instance, diverge_in):
    from simplexlms import diffusion
    from simplexlms.lms import derived_seeds

    complex_, coeffs, cfg, comb = network_instance
    replays = [atc_replay(network_instance, 1e-2, seed, 30)
               for seed in derived_seeds(8, 3)]
    diverge_in(diffusion, "atc_step", {1})
    result = run_distributed(complex_, coeffs, cfg, comb, 1e-2, realizations=3, horizon=30,
                             seed=8, track_agents=True)
    assert result.diverged == [1]
    assert result.realizations == 2
    kept = (replays[0] + replays[2]) / 2
    np.testing.assert_allclose(result.agent_msd, kept, rtol=1e-12)
    np.testing.assert_allclose(result.msd, np.mean(kept, axis=0), rtol=1e-12)


def test_run_distributed_matches_theory(network_instance):
    # slowest mode decays like rho(B) ~ 0.999, so the run must be long
    complex_, coeffs, cfg, comb = network_instance
    result = run_distributed(complex_, coeffs, cfg, comb, 1e-2, realizations=10, horizon=30000,
                             seed=8)
    assert result.theory.stable
    assert result.theory.checks.all_hold()
    empirical_db = float(to_db(tail_average(result.msd)))
    theory_db = float(to_db(result.theory.msd_per_agent))
    assert abs(empirical_db - theory_db) <= 1.5


# ---------------------------------------------------------------- serialize


def test_combination_csv_roundtrip(tmp_path, network_instance):
    complex_, _, _, comb = network_instance
    path = tmp_path / "comb.csv"
    save_combination(comb, path)
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["i", "l", "a_il"]
    loaded = np.zeros_like(comb)
    for i, l, a_il in rows:
        loaded[int(i), int(l)] = float(a_il)
    assert np.array_equal(loaded, comb)
    neighborhoods = [[int(j) for j in np.flatnonzero(row)] for row in loaded]
    assert neighborhoods == lower_adjacency_neighborhoods(complex_)


def test_combination_weights_read_back_their_bits(tmp_path):
    # weights below 1e-4 and integral weights come back bit for bit; a -0.0 weight is
    # zero, so it has no row
    comb = np.array([[0.00015, 1e-7, 0.9998499, -0.0],
                     [1.0, 0.0, 0.0, 0.0],
                     [0.0, 1000.0, -999.0, 0.0],
                     [0.0, 0.0, 2.5e-5, 0.999975]])
    path = tmp_path / "comb.csv"
    save_combination(comb, path)
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    loaded = np.zeros_like(comb)
    for i, l, a_il in rows:
        loaded[int(i), int(l)] = float(a_il)
    assert np.array_equal(loaded.view(np.int64), np.where(comb == 0, 0.0, comb).view(np.int64))
    assert [a_il for _, _, a_il in rows[:3]] == ["1.5e-4", "1e-7", "0.9998499"]
    assert [a_il for _, _, a_il in rows[4:6]] == ["1e3", "-999.0"]


def test_mean_recursion_matrix_decays_geometrically():
    c = grown_complex(11, 15, 10, seed=0)
    ops = hodge_laplacians(c)
    E = c.num_edges
    locals_ = local_moment_matrices(ops, np.ones(E), 0.1 * np.eye(E), 1)
    comb = build_combination(lower_adjacency_neighborhoods(c), "uniform")
    mu = np.full(E, 1e-2)
    rep = dist_theory(comb, locals_, np.full(E, 1e-5), mu)
    assert rep.rho_b < 1
    B = dense_b(comb, locals_, mu)
    rng = np.random.default_rng(9)
    err = rng.standard_normal(B.shape[0])
    norms = [np.linalg.norm(err)]
    for _ in range(6000):
        err = B @ err
        norms.append(np.linalg.norm(err))
    # slowest mode has rho ~ 0.999, so three decades need thousands of steps
    assert norms[-1] < 1e-3 * norms[0]
    # geometric envelope with a constant accounting for non-normality
    assert norms[-1] <= 50 * rep.rho_b**6000 * norms[0]
