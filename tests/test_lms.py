"""Adaptive filter step, stability bounds and steady-state formulas."""

from dataclasses import replace

import numpy as np
import pytest

from simplexlms import lms, signals
from simplexlms.complexes import hodge_laplacians, random_complex
from simplexlms.errors import DivergenceError, StabilityError
from simplexlms.lms import (
    LmsState,
    _monte_carlo,
    convergence_rate,
    derived_seeds,
    lms_step,
    max_stepsize,
    run_experiment,
    steady_state_msd,
    tail_average,
    theory_report,
    to_db,
)
from simplexlms.signals import (
    FilterCoeffs,
    StreamConfig,
    generate_stream,
    moments_closed_form,
    regressor_tensor,
)


def random_psd(dim, rng, scale=1.0):
    a = rng.standard_normal((dim, dim))
    return scale * (a @ a.T) / dim + 0.1 * scale * np.eye(dim)


# ------------------------------------------------------------------- step


def test_step_zero_innovation_keeps_estimate():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((6, 3))
    h = rng.standard_normal(3)
    d = (rng.random(6) < 0.5).astype(float)
    y = X @ h
    new = lms_step(LmsState(h=h, mu=0.1), X, d, y)
    assert np.allclose(new.h, h)
    assert new.n == 1


def test_step_from_zero_full_mask():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((5, 3))
    y = rng.standard_normal(5)
    mu = 0.05
    new = lms_step(LmsState(h=np.zeros(3), mu=mu), X, np.ones(5), y)
    assert np.allclose(new.h, mu * X.T @ y)


def test_step_error_recursion_identity():
    # deviation moves by (I - mu X^T D X) and the masked-noise drive, exactly
    rng = np.random.default_rng(2)
    for _ in range(20):
        E, dim = 7, 5
        X = rng.standard_normal((E, dim))
        h_true = rng.standard_normal(dim)
        h = rng.standard_normal(dim)
        d = (rng.random(E) < 0.6).astype(float)
        v = rng.standard_normal(E)
        y = d * (X @ h_true + v)
        mu = 0.03
        new = lms_step(LmsState(h=h, mu=mu), X, d, y)
        Q = np.eye(dim) - mu * X.T @ (d[:, None] * X)
        g = X.T @ (d * v)
        predicted = Q @ (h_true - h) - mu * g
        assert np.max(np.abs((h_true - new.h) - predicted)) < 1e-12


@pytest.mark.filterwarnings("ignore")
def test_step_shape_and_divergence_errors():
    with pytest.raises(ValueError):
        lms_step(LmsState(h=np.zeros(3), mu=0.1), np.zeros((4, 2)), np.ones(4), np.ones(4))
    state = LmsState(h=np.array([1e308]), mu=1e308)
    with pytest.raises(DivergenceError):
        lms_step(state, np.array([[1e10]]), np.ones(1), np.array([1e300]))


def test_step_is_pure():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((4, 3))
    d = np.ones(4)
    y = rng.standard_normal(4)
    state = LmsState(h=np.zeros(3), mu=0.1)
    first = lms_step(state, X, d, y)
    second = lms_step(state, X, d, y)
    assert np.array_equal(first.h, second.h)
    assert np.array_equal(state.h, np.zeros(3))


# ---------------------------------------------------------------- stepsize


def test_max_stepsize_examples():
    assert np.isclose(max_stepsize(np.eye(4)), 2.0)
    assert np.isclose(max_stepsize(np.diag([2.0, 1.0])), 1.0)
    with pytest.raises(ValueError):
        max_stepsize(np.zeros((3, 3)))


def test_max_stepsize_matches_power_iteration():
    rng = np.random.default_rng(4)
    for _ in range(10):
        c = random_psd(6, rng)
        vec = rng.standard_normal(6)
        for _ in range(500):
            vec = c @ vec
            vec /= np.linalg.norm(vec)
        lam = float(vec @ c @ vec)
        assert abs(max_stepsize(c) - 2.0 / lam) < 1e-8


# ------------------------------------------------------------ steady state


def test_steady_state_scalar_closed_form():
    c, g, mu = 2.0, 0.3, 0.05
    exact, first = steady_state_msd(np.array([[c]]), np.array([[g]]), mu)
    assert np.isclose(exact, mu * g / (2 * c - mu * c**2))
    assert np.isclose(first, mu * g / (2 * c))


def test_steady_state_rejects_unstable_step():
    with pytest.raises(StabilityError):
        steady_state_msd(np.eye(2), np.eye(2), 2.5)
    with pytest.raises(StabilityError):
        steady_state_msd(np.eye(2), np.eye(2), -0.1)


def test_steady_state_gap_shrinks_fourfold():
    # second-order remainder: halving the step shrinks the gap ~4x
    rng = np.random.default_rng(5)
    for _ in range(10):
        dim = 5
        c = random_psd(dim, rng, scale=4.0)
        g = random_psd(dim, rng, scale=0.01)
        gaps = []
        for mu in (1e-2, 5e-3, 2.5e-3):
            exact, first = steady_state_msd(c, g, mu)
            gaps.append(abs(exact - first))
        for a, b in zip(gaps, gaps[1:]):
            assert 3.5 <= a / b <= 4.5


def test_steady_state_kronecker_equals_resolvent_identity():
    # mu^2 vec(g)^T (I-F)^{-1} vec(I) == mu^2 Tr(g (I - Q^2)^{-1})
    rng = np.random.default_rng(6)
    for dim in (3, 6, 20):
        c = random_psd(dim, rng)
        g = random_psd(dim, rng, scale=0.1)
        mu = 0.4 / float(np.max(np.linalg.eigvalsh(c)))
        exact, _ = steady_state_msd(c, g, mu)
        Q = np.eye(dim) - mu * c
        direct = mu**2 * np.trace(g @ np.linalg.inv(np.eye(dim) - Q @ Q))
        assert abs(exact - direct) < 1e-10 * max(1.0, abs(direct))


# ------------------------------------------------------------------- rate


def test_convergence_rate_examples():
    approx, _ = convergence_rate(np.eye(3), 1e-2)
    assert np.isclose(approx, 0.98)
    approx, f_norm = convergence_rate(np.eye(2), 0.01)
    assert np.isclose(f_norm, 0.9801)
    assert np.isclose(approx, 0.98)


def test_convergence_rate_error_bound():
    rng = np.random.default_rng(7)
    mu = 1e-3
    for _ in range(10):
        c = random_psd(5, rng)
        approx, f_norm = convergence_rate(c, mu)
        nu = float(np.max(np.linalg.eigvalsh(c)))
        assert abs(approx - f_norm) < 10 * mu**2 * nu**2


def test_convergence_rate_warns_on_large_step():
    with pytest.warns(UserWarning):
        convergence_rate(np.diag([0.01, 10.0]), 0.15)


def test_mean_recursion_decays_geometrically():
    rng = np.random.default_rng(8)
    c = random_psd(5, rng)
    mu = 0.5 * max_stepsize(c)
    Q = np.eye(5) - mu * c
    rho = float(np.max(np.abs(np.linalg.eigvalsh(Q))))
    assert rho < 1
    err = rng.standard_normal(5)
    norm0 = np.linalg.norm(err)
    for n in range(1, 60):
        err = Q @ err
        assert np.linalg.norm(err) <= rho**n * norm0 + 1e-12


# --------------------------------------------------------------- experiment


@pytest.fixture(scope="module")
def experiment_complex():
    return random_complex(12, 0.45, 0.6, 21)


def lms_replay(complex_, coeffs, cfg, mu, seed, horizon):
    """Deviation trajectory of one realization, replayed step by step from its seed."""
    ops = hodge_laplacians(complex_)
    order = coeffs.order
    h_true = coeffs.flatten()
    batch = generate_stream(coeffs, None, replace(cfg, horizon=horizon + order, seed=seed),
                            ops=ops)
    state = LmsState(h=np.zeros(h_true.size), mu=mu)
    traj = [np.sum(h_true**2)]
    for n in range(order, horizon + order):
        X = regressor_tensor(batch.x[n - order : n + 1], ops, order)[-1]
        state = lms_step(state, X, batch.d[n], batch.y[n])
        traj.append(np.sum((h_true - state.h) ** 2))
    return np.array(traj)


def test_run_experiment_horizon_zero(experiment_complex):
    coeffs = FilterCoeffs(h_u=[0.5, 0.1], h_d=[0.2])
    cfg = StreamConfig.white(
        experiment_complex.num_edges, signal_var=0.1, sigma_v2=1e-4, p=1.0,
        horizon=10, seed=0,
    )
    result = run_experiment(experiment_complex, coeffs, cfg, mu=1e-3,
                            realizations=2, horizon=0)
    assert result.msd.shape == (1,)
    assert np.isclose(result.msd[0], np.sum(coeffs.flatten() ** 2))


def test_run_experiment_multi_window_matches_step_replay(experiment_complex, monkeypatch):
    # 7-row regressor windows: the 40 steps span six windows
    rng = np.random.default_rng(14)
    coeffs = FilterCoeffs.random(2, rng, scale=0.5)
    E = experiment_complex.num_edges
    cfg = StreamConfig.white(E, signal_var=0.01, sigma_v2=1e-4, p=0.8, horizon=10, seed=4)
    monkeypatch.setattr(signals, "_WINDOW_ELEMENTS", 7 * E * 5)
    result = run_experiment(experiment_complex, coeffs, cfg, 5e-3, realizations=2, horizon=40)
    assert result.theory is not None

    total = sum(lms_replay(experiment_complex, coeffs, cfg, 5e-3, seed, 40)
                for seed in derived_seeds(cfg.seed, 2))
    np.testing.assert_allclose(result.msd, total / 2, rtol=1e-12)


def test_run_experiment_drops_diverged_realization(experiment_complex, diverge_in):
    rng = np.random.default_rng(15)
    coeffs = FilterCoeffs.random(1, rng, scale=0.5)
    cfg = StreamConfig.white(experiment_complex.num_edges, signal_var=0.01, sigma_v2=1e-4,
                             p=0.8, horizon=10, seed=6)
    replays = [lms_replay(experiment_complex, coeffs, cfg, 5e-3, seed, 30)
               for seed in derived_seeds(cfg.seed, 3)]
    diverge_in(lms, "lms_step", {1})
    result = run_experiment(experiment_complex, coeffs, cfg, 5e-3, realizations=3, horizon=30)
    assert result.diverged == [1]
    assert result.realizations == 2
    np.testing.assert_allclose(result.msd, (replays[0] + replays[2]) / 2, rtol=1e-12)


def test_run_experiment_all_diverged_raises(experiment_complex, diverge_in):
    coeffs = FilterCoeffs(h_u=[0.5, 0.1], h_d=[0.2])
    cfg = StreamConfig.white(experiment_complex.num_edges, signal_var=0.1, horizon=10, seed=0)
    diverge_in(lms, "lms_step", {0, 1})
    with pytest.raises(DivergenceError, match="all realizations diverged"):
        run_experiment(experiment_complex, coeffs, cfg, 1e-3, realizations=2, horizon=5)


def test_monte_carlo_engine_bookkeeping():
    seeds = derived_seeds(5, 4)

    def run_one(seed):
        if seed in (seeds[1], seeds[3]):
            raise DivergenceError("diverged")
        return np.array([float(seed), 1.0]), np.full((2, 2), 3.0)

    (first, second), kept, diverged = _monte_carlo(5, 4, run_one)
    assert (kept, diverged) == (2, [1, 3])
    np.testing.assert_array_equal(first, [(seeds[0] + seeds[2]) / 2, 1.0])
    np.testing.assert_array_equal(second, np.full((2, 2), 3.0))
    with pytest.raises(DivergenceError, match="all realizations diverged"):
        _monte_carlo(5, 2, lambda seed: run_one(seeds[1]))
    with pytest.raises(ValueError, match="at least 1"):
        _monte_carlo(5, 0, run_one)


def test_run_experiment_matches_theory(experiment_complex):
    rng = np.random.default_rng(9)
    coeffs = FilterCoeffs.random(1, rng)
    E = experiment_complex.num_edges
    cfg = StreamConfig(
        c_x=0.2 * np.eye(E),
        sigma_v2=np.full(E, 1e-3),
        p=np.ones(E),
        horizon=100,
        seed=11,
    )
    ops = hodge_laplacians(experiment_complex)
    m = moments_closed_form(ops, cfg.p, cfg.c_x, cfg.sigma_v2, 1, coeffs)
    mu = 0.05 * max_stepsize(m.c_X)
    result = run_experiment(experiment_complex, coeffs, cfg, mu,
                            realizations=30, horizon=6000)
    assert result.theory is not None
    empirical_db = float(to_db(tail_average(result.msd)))
    theory_db = float(to_db(result.theory.msd_exact))
    assert abs(empirical_db - theory_db) <= 1.0


def test_run_experiment_noise_free_descent(experiment_complex):
    rng = np.random.default_rng(10)
    coeffs = FilterCoeffs.random(1, rng)
    cfg = StreamConfig.white(
        experiment_complex.num_edges, signal_var=0.05, sigma_v2=0.0, p=1.0,
        horizon=100, seed=12,
    )
    result = run_experiment(experiment_complex, coeffs, cfg, mu=5e-3,
                            realizations=10, horizon=2000)
    msd = result.msd
    # noise-free: averaged deviation decays (allow tiny stochastic wiggle)
    assert msd[-1] < 1e-6 * msd[0]
    violations = np.sum(np.diff(msd) > 1e-12 * msd[0])
    assert violations < 0.05 * msd.size


def test_run_experiment_sampling_tradeoff(experiment_complex):
    # sampling only the cleanest quarter lowers the floor but converges slower
    rng = np.random.default_rng(11)
    coeffs = FilterCoeffs.random(1, rng)
    E = experiment_complex.num_edges
    noise = np.random.default_rng(13).choice([1e-6, 1e-4, 1e-3, 1e-2], size=E)
    order_idx = np.argsort(noise)
    p_low = np.zeros(E)
    p_low[order_idx[: max(1, E // 4)]] = 1.0

    base = dict(c_x=0.2 * np.eye(E), sigma_v2=noise, horizon=100)
    cfg_full = StreamConfig(p=np.ones(E), seed=14, **base)
    cfg_low = StreamConfig(p=p_low, seed=14, **base)
    full = run_experiment(experiment_complex, coeffs, cfg_full, 1e-2, 20, 8000)
    low = run_experiment(experiment_complex, coeffs, cfg_low, 1e-2, 20, 8000)
    # lower floor with clean edges only
    assert tail_average(low.msd) < tail_average(full.msd)
    # faster convergence with all edges: earlier crossing of a mid threshold
    threshold = 0.05 * full.msd[0]
    cross_full = int(np.argmax(full.msd < threshold))
    cross_low = int(np.argmax(low.msd < threshold))
    assert 0 < cross_full < cross_low


def test_theory_report_fields():
    c = np.diag([1.0, 2.0])
    g = 0.01 * np.eye(2)
    report = theory_report(c, g, mu=0.1)
    assert np.isclose(report.mu_max, 1.0)
    assert report.rho_Q < 1
    assert report.msd_exact > 0
    assert report.msd_exact > report.msd_first_order
    payload = report.to_dict()
    assert payload["msd_exact_db"] is not None
