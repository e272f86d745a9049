"""Adaptive filter step, stability bounds and steady-state formulas."""

import inspect
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexlms import diffusion, inference, lms, signals
from simplexlms.complexes import hodge_laplacians, random_complex
from simplexlms.errors import DivergenceError, SingularMomentError, StabilityError
from simplexlms.lms import (
    _monte_carlo,
    _walk,
    derived_seeds,
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
    moments_closed_form,
    regressor_tensor,
)
from conftest import whole_stream


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
    new = lms_step(h, 0.1, X, d, y)
    assert np.allclose(new, h)


def test_step_from_zero_full_mask():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((5, 3))
    y = rng.standard_normal(5)
    mu = 0.05
    new = lms_step(np.zeros(3), mu, X, np.ones(5), y)
    assert np.allclose(new, mu * X.T @ y)


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
        new = lms_step(h, mu, X, d, y)
        Q = np.eye(dim) - mu * X.T @ (d[:, None] * X)
        g = X.T @ (d * v)
        predicted = Q @ (h_true - h) - mu * g
        assert np.max(np.abs((h_true - new) - predicted)) < 1e-12


@pytest.mark.filterwarnings("ignore")
def test_step_shape_and_divergence_errors():
    with pytest.raises(ValueError):
        lms_step(np.zeros(3), 0.1, np.zeros((4, 2)), np.ones(4), np.ones(4))
    # a divergence is the caller's verdict: non-finite taps come out, nothing raises
    assert not np.isfinite(
        lms_step(np.array([1e308]), 1e308, np.array([[1e10]]), np.ones(1), np.array([1e300]))
    ).all()


def test_step_is_pure():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((4, 3))
    d = np.ones(4)
    y = rng.standard_normal(4)
    h = np.zeros(3)
    first = lms_step(h, 0.1, X, d, y)
    second = lms_step(h, 0.1, X, d, y)
    assert np.array_equal(first, second)
    assert np.array_equal(h, np.zeros(3))


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
        # the kept entry point and the report read the same eigenvalue
        assert max_stepsize(c) == theory_report(c, c, 0.5 * max_stepsize(c)).mu_max


# ------------------------------------------------------------ steady state


def test_steady_state_scalar_closed_form():
    c, g, mu = 2.0, 0.3, 0.05
    report = theory_report(np.array([[c]]), np.array([[g]]), mu)
    exact, first = report.msd_exact, report.msd_first_order
    assert np.isclose(exact, mu * g / (2 * c - mu * c**2))
    assert np.isclose(first, mu * g / (2 * c))


@pytest.mark.parametrize("lam_min", [1e-4, 2e-6])
def test_steady_state_is_exact_near_the_stability_margin(lam_min):
    # 1 - rho is 1e-6 and 2e-8: 1 - q^2 cancels there, mu lam (2 - mu lam) does not.
    # The reference evaluates the same closed form exactly from the same float inputs
    lam, g, mu = [lam_min, 0.3, 1.0, 5.0], [1.0, 0.5, 2.0, 0.25], 1e-2
    report = theory_report(np.diag(lam), np.diag(g), mu)
    m = Fraction(mu)
    exact = m**2 * sum(Fraction(g_a) / (1 - (1 - m * Fraction(l_a)) ** 2)
                       for l_a, g_a in zip(lam, g))
    assert abs(Fraction(report.msd_exact) - exact) <= Fraction(1e-15) * exact


def test_steady_state_rejects_unstable_step():
    with pytest.raises(StabilityError):
        theory_report(np.eye(2), np.eye(2), 2.5)
    with pytest.raises(StabilityError):
        theory_report(np.eye(2), np.eye(2), -0.1)
    # an unexcited tap: no step-size is stable, whatever mu
    with pytest.raises(SingularMomentError, match=r"^lambda_min\(c_X\) = 0, so no step-size"):
        theory_report(np.diag([0.0, 1.0]), np.eye(2), 0.5)


def test_steady_state_of_a_tiny_step_is_the_closed_form():
    # mu lambda_min = 1e-9 sits on the margin of the spectral radius, yet the step is mean
    # stable: mu_max is 1; the report is the exact closed form, evaluated exactly
    lam, g, mu = [0.5, 1.0, 2.0], [1.0, 0.5, 2.0], 2e-9
    report = theory_report(np.diag(lam), np.diag(g), mu)
    assert report.mu_max == 1.0
    m = Fraction(mu)
    exact = m**2 * sum(Fraction(g_a) / (1 - (1 - m * Fraction(l_a)) ** 2)
                       for l_a, g_a in zip(lam, g))
    assert abs(Fraction(report.msd_exact) - exact) <= Fraction(1e-15) * exact


@pytest.mark.filterwarnings("error")
def test_huge_step_raises_without_a_warning():
    with pytest.raises(StabilityError, match=r"^step-size 1e\+308 is unstable"):
        theory_report(np.diag([1.0, 2.0]), np.eye(2), 1e308)


def test_relatively_singular_moment_has_no_stable_step():
    # lambda_min at most 1e-12 lambda_max is singular, as dist_theory judges a local moment
    with pytest.raises(SingularMomentError, match=r"^lambda_min\(c_X\) = 1e-13"):
        theory_report(np.diag([1e-13, 1.0]), np.eye(2), 0.5)
    assert theory_report(np.diag([2e-12, 1.0]), np.eye(2), 0.5).mu_max == 2.0


def test_steady_state_gap_shrinks_fourfold():
    # second-order remainder: halving the step shrinks the gap ~4x
    rng = np.random.default_rng(5)
    for _ in range(10):
        dim = 5
        c = random_psd(dim, rng, scale=4.0)
        g = random_psd(dim, rng, scale=0.01)
        gaps = []
        for mu in (1e-2, 5e-3, 2.5e-3):
            report = theory_report(c, g, mu)
            gaps.append(abs(report.msd_exact - report.msd_first_order))
        for a, b in zip(gaps, gaps[1:]):
            assert 3.5 <= a / b <= 4.5


def test_steady_state_kronecker_equals_resolvent_identity():
    # mu^2 vec(g)^T (I-F)^{-1} vec(I) == mu^2 Tr(g (I - Q^2)^{-1})
    rng = np.random.default_rng(6)
    for dim in (3, 6, 20):
        c = random_psd(dim, rng)
        g = random_psd(dim, rng, scale=0.1)
        mu = 0.4 / float(np.max(np.linalg.eigvalsh(c)))
        report = theory_report(c, g, mu)
        exact, first = report.msd_exact, report.msd_first_order
        Q = np.eye(dim) - mu * c
        direct = mu**2 * np.trace(g @ np.linalg.inv(np.eye(dim) - Q @ Q))
        assert abs(exact - direct) < 1e-10 * max(1.0, abs(direct))
        # the first-order term (mu/2) Tr(c^{-1} g), by a direct solve
        resolvent = 0.5 * mu * np.trace(np.linalg.solve(c, g))
        assert abs(first - resolvent) <= 1e-12 * abs(resolvent)


# ------------------------------------------------------------------- rate


def test_rate_estimate_examples():
    assert np.isclose(theory_report(np.eye(3), np.eye(3), 1e-2).alpha, 0.98)
    report = theory_report(np.eye(2), np.eye(2), 0.01)
    assert np.isclose(report.f_norm, 0.9801)
    assert np.isclose(report.alpha, 0.98)


def test_rate_estimate_error_bound():
    rng = np.random.default_rng(7)
    mu = 1e-3
    for _ in range(10):
        c = random_psd(5, rng)
        report = theory_report(c, c, mu)
        nu = float(np.max(np.linalg.eigvalsh(c)))
        assert abs(report.alpha - report.f_norm) < 10 * mu**2 * nu**2


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
    batch = whole_stream(coeffs, ops, cfg, horizon, seed)
    h = np.zeros(h_true.size)
    traj = [np.sum(h_true**2)]
    for n in range(order, horizon + order):
        X = regressor_tensor(batch.x[n - order : n + 1], ops, order)[0]
        h = lms_step(h, mu, X, batch.d[n - order], batch.y[n - order])
        traj.append(np.sum((h_true - h) ** 2))
    return np.array(traj)


def test_run_experiment_horizon_zero(experiment_complex):
    coeffs = FilterCoeffs(h_u=[0.5, 0.1], h_d=[0.2])
    cfg = StreamConfig.white(experiment_complex.num_edges, signal_var=0.1, sigma_v2=1e-4, p=1.0)
    result = run_experiment(experiment_complex, coeffs, cfg, mu=1e-3,
                            realizations=2, horizon=0, seed=0)
    assert result.msd.shape == (1,)
    assert np.isclose(result.msd[0], np.sum(coeffs.flatten() ** 2))


def test_run_experiment_multi_window_matches_step_replay(experiment_complex, monkeypatch):
    # 7-row regressor windows: the 40 steps span six windows
    rng = np.random.default_rng(14)
    coeffs = FilterCoeffs.random(2, rng, scale=0.5)
    E = experiment_complex.num_edges
    cfg = StreamConfig.white(E, signal_var=0.01, sigma_v2=1e-4, p=0.8)
    monkeypatch.setattr(signals, "_BLOCK_ROWS", 7)
    result = run_experiment(experiment_complex, coeffs, cfg, 5e-3, realizations=2, horizon=40,
                            seed=4)
    assert result.theory is not None

    total = sum(lms_replay(experiment_complex, coeffs, cfg, 5e-3, seed, 40)
                for seed in derived_seeds(4, 2))
    np.testing.assert_allclose(result.msd, total / 2, rtol=1e-12)


def traced_peak(run):
    """Peak bytes that tracemalloc sees while ``run()`` executes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("runner", ["run_experiment", "run_distributed", "run_inference"])
def test_runner_memory_does_not_grow_with_horizon(experiment_complex, monkeypatch, runner):
    # 50-row stream blocks: both horizons span many blocks, so at four times
    # the horizon only the trajectories may grow, not the stream
    from simplexlms.diffusion import build_combination, lower_adjacency_neighborhoods, run_distributed
    from simplexlms.inference import candidate_set, run_inference

    E = experiment_complex.num_edges
    coeffs = FilterCoeffs(h_u=[0.5, 0.1], h_d=[0.2])
    cfg = StreamConfig.white(E, signal_var=0.01, sigma_v2=1e-4, p=0.8)
    monkeypatch.setattr(signals, "_BLOCK_ROWS", 50)
    if runner == "run_experiment":
        def run(horizon):
            run_experiment(experiment_complex, coeffs, cfg, 5e-3, realizations=2, horizon=horizon,
                           seed=3)
    elif runner == "run_distributed":
        comb = build_combination(lower_adjacency_neighborhoods(experiment_complex))

        def run(horizon):
            run_distributed(experiment_complex, coeffs, cfg, comb, 5e-3, realizations=2,
                            horizon=horizon, seed=3)
    else:
        cand = candidate_set(experiment_complex, 1)
        schedule = [(0, cand.true_indicator(experiment_complex))]

        def run(horizon):
            run_inference(cand, coeffs, cfg, schedule, mu1=1e-2, mu2=1e-2, lam0=0.1, lam1=0.1,
                          realizations=2, horizon=horizon, seed=3)
    horizon = 400
    run(horizon)  # warm caches
    short, long = (traced_peak(lambda: run(h)) for h in (horizon, 4 * horizon))
    # the running sum, one realization's trajectory and the mean: three floats
    # a step for each trajectory row (four rows in run_inference's array)
    rows = 4 if runner == "run_inference" else 1
    trajectories = 3 * 8 * rows * (4 * horizon - horizon)
    assert long - short <= trajectories, (short, long)


@pytest.mark.parametrize("runner", ["run_experiment", "run_distributed"])
def test_runner_working_set_is_one_cache_sized_block(runner):
    # long streams at the default block rule: the peak is a block of about
    # 256 KB of regressors plus the trajectories, not a 2 MB window
    from simplexlms.complexes import grown_complex
    from simplexlms.diffusion import build_combination, lower_adjacency_neighborhoods, run_distributed

    if runner == "run_experiment":
        complex_ = grown_complex(12, 32, 8, seed=0)
        coeffs = FilterCoeffs.random(2, np.random.default_rng(1), scale=0.5)
        cfg = StreamConfig.white(32, signal_var=0.01, sigma_v2=1e-4, p=0.8)

        def run():
            run_experiment(complex_, coeffs, cfg, 5e-3, realizations=1, horizon=20_000, seed=3)
    else:
        complex_ = grown_complex(8, 15, 4, seed=0)
        coeffs = FilterCoeffs.random(1, np.random.default_rng(1), scale=0.5)
        cfg = StreamConfig.white(15, signal_var=0.01, sigma_v2=1e-4, p=0.8)
        comb = build_combination(lower_adjacency_neighborhoods(complex_))

        def run():
            run_distributed(complex_, coeffs, cfg, comb, 5e-3, realizations=1, horizon=30_000,
                            seed=3)
    assert traced_peak(run) < 2 * 2**20


@pytest.mark.parametrize("runner", ["run_experiment", "run_distributed", "run_inference"])
def test_covariance_is_factored_once_per_run(experiment_complex, monkeypatch, runner):
    # the factor checked with the config serves every realization's draw, and
    # every realization draws from the one config object the runner was given
    from simplexlms import inference
    from simplexlms.diffusion import build_combination, lower_adjacency_neighborhoods, run_distributed
    from simplexlms.inference import candidate_set, run_inference

    E = experiment_complex.num_edges
    coeffs = FilterCoeffs(h_u=[0.5, 0.1], h_d=[0.2])
    cfg = StreamConfig.white(E, signal_var=0.01, sigma_v2=1e-4, p=0.8)
    if runner == "run_experiment":
        def run():
            run_experiment(experiment_complex, coeffs, cfg, 5e-3, realizations=5, horizon=30,
                           seed=3)
    elif runner == "run_distributed":
        comb = build_combination(lower_adjacency_neighborhoods(experiment_complex))

        def run():
            run_distributed(experiment_complex, coeffs, cfg, comb, 5e-3, realizations=5,
                            horizon=30, seed=3)
    else:
        cand = candidate_set(experiment_complex, 1)
        schedule = [(0, cand.true_indicator(experiment_complex))]

        def run():
            run_inference(cand, coeffs, cfg, schedule, mu1=1e-2, mu2=1e-2, lam0=0.1, lam1=0.1,
                          realizations=5, horizon=30, seed=3)
    factor, draw = signals._covariance_factor, signals._draw
    calls, configs = [], []

    def counted(c_x):
        calls.append(c_x.shape)
        return factor(c_x)

    def recorded(config, seed, stops):
        configs.append(config)
        return draw(config, seed, stops)

    monkeypatch.setattr(signals, "_covariance_factor", counted)
    monkeypatch.setattr(signals, "_draw", recorded)
    run()
    assert len(calls) <= 1, calls
    assert len(configs) == 5 and all(config is cfg for config in configs)


def test_realization_config_draws_like_a_replaced_one(experiment_complex):
    # every realization draws from the config it was given, through the factor
    # its check computed: the bits of a freshly validated copy's draw at the same
    # horizon and seed, and the config is left unchanged
    E = experiment_complex.num_edges
    rng = np.random.default_rng(5)
    cfg = StreamConfig(c_x=random_psd(E, rng), sigma_v2=np.full(E, 1e-3), p=np.full(E, 0.7))
    before = replace(cfg)
    factor = cfg._factor
    coeffs = FilterCoeffs(h_u=[0.5, 0.1], h_d=[0.2])
    ops = hodge_laplacians(experiment_complex)
    fresh = whole_stream(coeffs, ops, replace(cfg), 88, 11)
    shared = whole_stream(coeffs, ops, cfg, 88, 11)
    assert cfg._factor is factor
    for name in ("c_x", "sigma_v2", "p", "_factor"):
        np.testing.assert_array_equal(getattr(cfg, name), getattr(before, name))
    for name in ("x", "v", "d", "y"):
        np.testing.assert_array_equal(getattr(shared, name), getattr(fresh, name))


def test_runners_take_the_run_after_the_model():
    # the config is the signal model; how many realizations, how long and from
    # which seed are the last arguments of every runner
    from simplexlms.diffusion import run_distributed
    from simplexlms.inference import run_inference

    for runner, tail in ((run_experiment, []), (run_distributed, ["track_agents"]),
                         (run_inference, [])):
        params = list(inspect.signature(runner).parameters)
        assert params[len(params) - 3 - len(tail):] == ["realizations", "horizon", "seed", *tail]


@pytest.mark.parametrize("runner", ["run_experiment", "run_distributed", "run_inference"])
def test_runners_reject_a_negative_horizon(experiment_complex, runner):
    # the draw's row bounds reject it before a trajectory entry is written
    from simplexlms.diffusion import build_combination, lower_adjacency_neighborhoods
    from simplexlms.inference import candidate_set

    c = experiment_complex
    coeffs = FilterCoeffs(h_u=[0.5, 0.1], h_d=[0.2])
    cfg = StreamConfig.white(c.num_edges, signal_var=0.1, sigma_v2=1e-4)
    cand = candidate_set(c, 1)
    model = {
        "run_experiment": (lms, (c, coeffs, cfg, 1e-3)),
        "run_distributed": (diffusion, (c, coeffs, cfg,
                                        build_combination(lower_adjacency_neighborhoods(c)), 1e-3)),
        "run_inference": (inference, (cand, coeffs, cfg, [(0, cand.true_indicator(c))],
                                      1e-2, 1e-2, 0.1, 0.1)),
    }
    module, args = model[runner]
    with pytest.raises(ValueError, match="horizon must be nonnegative, got -1"):
        getattr(module, runner)(*args, 2, -1, 0)


def test_run_experiment_drops_diverged_realization(experiment_complex, diverge_in):
    rng = np.random.default_rng(15)
    coeffs = FilterCoeffs.random(1, rng, scale=0.5)
    cfg = StreamConfig.white(experiment_complex.num_edges, signal_var=0.01, sigma_v2=1e-4,
                             p=0.8)
    replays = [lms_replay(experiment_complex, coeffs, cfg, 5e-3, seed, 30)
               for seed in derived_seeds(6, 3)]
    diverge_in(lms, "lms_step", {1})
    result = run_experiment(experiment_complex, coeffs, cfg, 5e-3, realizations=3, horizon=30,
                            seed=6)
    assert result.diverged == [1]
    assert result.realizations == 2
    np.testing.assert_allclose(result.msd, (replays[0] + replays[2]) / 2, rtol=1e-12)


def test_run_experiment_all_diverged_raises(experiment_complex, diverge_in):
    coeffs = FilterCoeffs(h_u=[0.5, 0.1], h_d=[0.2])
    cfg = StreamConfig.white(experiment_complex.num_edges, signal_var=0.1)
    diverge_in(lms, "lms_step", {0, 1})
    with pytest.raises(DivergenceError, match="^all realizations diverged, at steps 1, 1$"):
        run_experiment(experiment_complex, coeffs, cfg, 1e-3, realizations=2, horizon=5, seed=0)


def replay(rows_of, block=64):
    """The ``stream``, ``read`` and ``step`` of a walk through the states ``rows_of(seed)``, one
    after each step: a step's datum is the state it leads to, and the stream cuts the data
    into blocks of ``block`` steps, or one empty block for no step."""
    def stream(seed):
        rows = list(rows_of(seed))
        return [rows[lo : lo + block] for lo in range(0, max(len(rows), 1), block)]

    return stream, iter, lambda state, s: s


def test_walk_scores_each_state_or_each_step():
    # a scorer of every state writes one row more than the steps, a scorer of the state
    # before each step one row per step; the state before a block is stacked once
    blocks = [[1.0, 2.0], [3.0, 4.0, 5.0], [6.0]]
    stacked = []

    def score(block, H):
        stacked.append(H.tolist())
        return 10 * H

    out = np.full(22, -1.0)
    assert _walk(blocks, iter, lambda h, s: h + s, 0.0, score, out) == (21.0, None)
    np.testing.assert_array_equal(out[:7], [0, 10, 30, 60, 100, 150, 210])
    assert stacked == [[0, 1, 3], [6, 10, 15], [21]]
    out = np.full(6, -1.0)
    assert _walk(blocks, iter, lambda h, s: h + s, 0.0,
                 lambda block, H: 10 * H[:-1], out) == (21.0, None)
    np.testing.assert_array_equal(out, [0, 10, 30, 60, 100, 150])
    # a walk of no step is one empty block: one row per state, none per step
    out = np.full(1, -1.0)
    assert _walk([[]], iter, lambda h, s: h + s, 7.0, lambda block, H: H, out) == (7.0, None)
    assert out.tolist() == [7.0]
    assert _walk([[]], iter, lambda h, s: h + s, 7.0, lambda block, H: H[:-1], out) == (7.0, None)


def test_walk_stops_at_the_block_of_its_first_non_finite_row():
    # the block holding the first non-finite row is walked to its end, and no block after it
    read = []

    def blocks():
        for block in ([1.0, 2.0], [np.inf, 3.0], [4.0]):
            read.append(block)
            yield block

    for score, bad in ((lambda block, H: H, 3), (lambda block, H: H[:-1], 3)):
        read.clear()
        out = np.zeros(6)
        assert _walk(blocks(), iter, lambda h, s: h + s, 0.0, score, out) == (np.inf, bad)
        assert read == [[1.0, 2.0], [np.inf, 3.0]]
        assert out[bad] == np.inf


def test_monte_carlo_engine_bookkeeping():
    seeds = derived_seeds(5, 4)

    def rows(seed):
        return [float(seed), np.nan if seed in (seeds[1], seeds[3]) else 1.0]

    def score(block, H):
        return np.column_stack((H, np.full((len(H), 2), 3.0)))

    means, kept, diverged = _monte_carlo(5, 4, 2, 3, *replay(rows), 0.0, score)
    first, second = means[:, 0], means[:, 1:]
    assert (kept, diverged) == (2, [1, 3])
    np.testing.assert_array_equal(first, [0.0, (seeds[0] + seeds[2]) / 2, 1.0])
    np.testing.assert_array_equal(second, np.full((3, 2), 3.0))
    with pytest.raises(DivergenceError, match="all realizations diverged"):
        _monte_carlo(5, 2, 2, 3, *replay(lambda seed: rows(seeds[1])), 0.0, score)
    with pytest.raises(ValueError, match="at least 1"):
        _monte_carlo(5, 0, 2, 3, *replay(rows), 0.0, score)


def test_monte_carlo_drops_a_non_finite_trajectory():
    # an overflowing deviation is a divergence even when no step raised
    seeds = derived_seeds(3, 2)
    means, kept, diverged = _monte_carlo(
        3, 2, 1, 2, *replay(lambda seed: [1e300 if seed == seeds[0] else 2.0]), 1.0,
        lambda block, H: np.column_stack((H * H, np.ones(len(H)))))
    first, second = means[:, 0], means[:, 1]
    assert (kept, diverged) == (1, [0])
    np.testing.assert_array_equal(first, [1.0, 4.0])
    np.testing.assert_array_equal(second, np.ones(2))


def test_monte_carlo_drops_a_walk_non_finite_mid_stream():
    # the walk is scored a block at a time, and a diverged walk is dropped whole
    seeds = derived_seeds(7, 3)
    start = np.array([0.5, -1.0])

    def rows(seed):
        rng = np.random.default_rng(seed)
        state = start
        for k in range(1, 6):
            state = 0.9 * state + rng.standard_normal(2)
            yield np.array([np.inf, state[1]]) if seed == seeds[1] and k == 3 else state

    means, kept, diverged = _monte_carlo(7, 3, 5, 2, *replay(rows, block=2), start,
                                         lambda block, H: H)
    replays = [np.array([start, *rows(seed)]) for seed in (seeds[0], seeds[2])]
    assert (kept, diverged) == (2, [1])
    np.testing.assert_array_equal(means, (replays[0] + replays[1]) / 2)


def test_monte_carlo_names_each_diverged_step():
    # a realization's step is its first non-finite trajectory row, in any column
    seeds = derived_seeds(4, 3)
    at = {seeds[0]: (4, 1), seeds[1]: (2, 0), seeds[2]: (7, 1)}

    def rows(seed):
        step, column = at[seed]
        for k in range(1, 8):
            row = np.ones(2)
            row[column] = np.nan if k == step else k
            yield row

    with pytest.raises(DivergenceError, match="^all realizations diverged, at steps 4, 2, 7$"):
        _monte_carlo(4, 3, 7, 2, *replay(rows, block=3), np.ones(2), lambda block, H: H)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data(), realizations=st.integers(1, 6),
       horizon=st.integers(0, 8) | st.integers(60, 200), width=st.integers(1, 3),
       block=st.integers(1, 70))
def test_monte_carlo_drops_exactly_the_injected_realizations(data, realizations, horizon, width,
                                                             block):
    # NaN, inf or -inf at one entry of a random step of random realizations: those and only
    # those are dropped, and the mean is the realization-order sum of the rest over kept;
    # a dropped walk is pulled no further than the stream block of its first non-finite step
    injected = data.draw(st.dictionaries(
        st.integers(0, realizations - 1),
        st.tuples(st.integers(1, max(horizon, 1)), st.integers(0, width - 1),
                  st.sampled_from([np.nan, np.inf, -np.inf])),
        max_size=realizations if horizon else 0))
    seeds = derived_seeds(11, realizations)
    start = np.random.default_rng(11).standard_normal(width)
    clean = [np.random.default_rng(seed).standard_normal((horizon, width)) for seed in seeds]

    pulled = []

    def stream(seed):
        r = seeds.index(seed)
        rows = clean[r].copy()
        if r in injected:
            step, column, value = injected[r]
            rows[step - 1, column] = value
        pulled.append(0)
        return (rows[lo : lo + block] for lo in range(0, max(horizon, 1), block))

    def step(state, row):
        pulled[-1] += 1
        return row

    def run():
        return _monte_carlo(11, realizations, horizon, width, stream, iter, step, start,
                            lambda b, H: H)

    expected = [min(horizon, ((injected[r][0] - 1) // block + 1) * block) if r in injected
                else horizon for r in range(realizations)]

    if len(injected) == realizations:
        steps = ", ".join(str(injected[r][0]) for r in range(realizations))
        with pytest.raises(DivergenceError, match=f"^all realizations diverged, at steps {steps}$"):
            run()
        assert pulled == expected
        return
    means, kept, diverged = run()
    assert pulled == expected
    assert diverged == sorted(injected)
    assert kept == realizations - len(injected)
    total = None
    for r in range(realizations):
        if r not in injected:
            traj = np.vstack((start, clean[r]))
            total = traj if total is None else total + traj
    assert np.array_equal(means.view(np.int64), (total / kept).view(np.int64))


def test_run_experiment_matches_theory(experiment_complex):
    rng = np.random.default_rng(9)
    coeffs = FilterCoeffs.random(1, rng)
    E = experiment_complex.num_edges
    cfg = StreamConfig(c_x=0.2 * np.eye(E), sigma_v2=np.full(E, 1e-3), p=np.ones(E))
    ops = hodge_laplacians(experiment_complex)
    m = moments_closed_form(ops, cfg.p, cfg.c_x, cfg.sigma_v2, 1, coeffs)
    mu = 0.05 * max_stepsize(m.c_X)
    result = run_experiment(experiment_complex, coeffs, cfg, mu,
                            realizations=30, horizon=6000, seed=11)
    assert result.theory is not None
    empirical_db = float(to_db(tail_average(result.msd)))
    theory_db = float(to_db(result.theory.msd_exact))
    assert abs(empirical_db - theory_db) <= 1.0


def test_run_experiment_noise_free_descent(experiment_complex):
    rng = np.random.default_rng(10)
    coeffs = FilterCoeffs.random(1, rng)
    cfg = StreamConfig.white(experiment_complex.num_edges, signal_var=0.05, sigma_v2=0.0, p=1.0)
    result = run_experiment(experiment_complex, coeffs, cfg, mu=5e-3,
                            realizations=10, horizon=2000, seed=12)
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

    base = dict(c_x=0.2 * np.eye(E), sigma_v2=noise)
    cfg_full = StreamConfig(p=np.ones(E), **base)
    cfg_low = StreamConfig(p=p_low, **base)
    full = run_experiment(experiment_complex, coeffs, cfg_full, 1e-2, 20, 8000, 14)
    low = run_experiment(experiment_complex, coeffs, cfg_low, 1e-2, 20, 8000, 14)
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
