"""Proximal operator, indicator gradient, and the joint recursion."""

import numpy as np
import pytest

from simplexlms import inference, signals
from simplexlms.complexes import build_incidence, hodge_laplacians, random_complex
from simplexlms.inference import (
    TopologyState,
    candidate_set,
    grad_t,
    infer_step,
    prox_hard_threshold,
    regressors_from_t,
    run_inference,
)
from simplexlms.lms import derived_seeds
from simplexlms.signals import FilterCoeffs, StreamConfig


def param_upper_laplacian(t, b2):
    # dense oracle: the upper Laplacian of the weighted candidates, sum_j t_j b_j b_j^T
    return (b2 * t) @ b2.T


def brute_force_prox(v, lam0, lam1):
    # argmin over {0, v, 1} of 0.5*(u-v)^2 + lam0*[u != 0] + lam1*[u != 1]
    def objective(u):
        val = 0.5 * (u - v) ** 2
        if u != 0.0:
            val += lam0
        if u != 1.0:
            val += lam1
        return val

    candidates = [0.0, float(np.clip(v, 0.0, 1.0)), 1.0]
    values = [objective(u) for u in candidates]
    # ties resolve toward the attractors, matching the closed form
    best = min(values)
    if values[0] <= best:
        return 0.0
    if values[2] <= best:
        return 1.0
    return candidates[1]


# ------------------------------------------------------------------- prox


def test_prox_reference_thresholds():
    # lam0 = lam1 = 0.1: thresholds at sqrt(0.2) ~ 0.4472 and ~ 0.5528
    assert prox_hard_threshold(np.array([0.3]), 0.1, 0.1)[0] == 0.0
    assert prox_hard_threshold(np.array([0.5]), 0.1, 0.1)[0] == 0.5
    assert prox_hard_threshold(np.array([0.6]), 0.1, 0.1)[0] == 1.0


def test_prox_endpoints_and_idempotence():
    rng = np.random.default_rng(0)
    for _ in range(50):
        lam0 = rng.uniform(0.0, 0.08)
        lam1 = rng.uniform(0.0, 0.08)
        if not 1 - np.sqrt(2 * lam1) > np.sqrt(2 * lam0):
            continue
        v = rng.uniform(-0.2, 1.2, size=20)
        out = prox_hard_threshold(v, lam0, lam1)
        assert out[np.clip(v, 0, 1) == 0.0].tolist() == [0.0] * int(np.sum(np.clip(v, 0, 1) == 0))
        assert np.all(out >= 0) and np.all(out <= 1)
        again = prox_hard_threshold(out, lam0, lam1)
        assert np.array_equal(out, again)
    assert prox_hard_threshold(np.array([0.0]), 0.05, 0.05)[0] == 0.0
    assert prox_hard_threshold(np.array([1.0]), 0.05, 0.05)[0] == 1.0


def test_prox_rejects_bad_threshold_order():
    with pytest.raises(ValueError, match="ordering"):
        prox_hard_threshold(np.array([0.5]), 0.3, 0.3)


def test_prox_equals_brute_force_minimiser():
    rng = np.random.default_rng(1)
    checked = 0
    while checked < 1000:
        lam0 = rng.uniform(0.0, 0.5)
        lam1 = rng.uniform(0.0, 0.5)
        if not 1 - np.sqrt(2 * lam1) > np.sqrt(2 * lam0):
            continue
        v = rng.uniform(0.0, 1.0)
        closed = prox_hard_threshold(np.array([v]), lam0, lam1)[0]
        assert closed == brute_force_prox(v, lam0, lam1)
        checked += 1


# --------------------------------------------------------- parametrisation


@pytest.fixture(scope="module")
def filled_complex():
    return random_complex(10, 0.55, 0.7, 17)


def test_param_upper_zero_indicator(filled_complex):
    cand = candidate_set(filled_complex, order=2)
    lu = param_upper_laplacian(np.zeros(cand.num_candidates), cand.ops.b2)
    assert np.allclose(lu, 0.0)


def test_param_upper_all_ones_equals_fully_filled(filled_complex):
    cand = candidate_set(filled_complex, order=2)
    full = build_incidence(
        filled_complex.num_vertices,
        list(filled_complex.edges),
        [t for t, _ in zip(cand.triples, cand.triples)],
    )
    lu = param_upper_laplacian(np.ones(cand.num_candidates), cand.ops.b2)
    assert np.allclose(lu, hodge_laplacians(full).upper, atol=1e-12)


def test_param_upper_subset_matches_subcomplex(filled_complex):
    cand = candidate_set(filled_complex, order=2)
    rng = np.random.default_rng(2)
    t = (rng.random(cand.num_candidates) < 0.4).astype(float)
    chosen = [cand.triples[j] for j in np.flatnonzero(t)]
    sub = build_incidence(filled_complex.num_vertices, list(filled_complex.edges), chosen)
    lu = param_upper_laplacian(t, cand.ops.b2)
    assert np.allclose(lu, hodge_laplacians(sub).upper, atol=1e-12)


def test_true_indicator_matches_filled_triangles(filled_complex):
    cand = candidate_set(filled_complex, order=2)
    t = cand.true_indicator(filled_complex)
    assert int(t.sum()) == filled_complex.num_triangles
    lu = param_upper_laplacian(t, cand.ops.b2)
    assert np.allclose(lu, hodge_laplacians(filled_complex).upper, atol=1e-12)


def test_regressors_from_t_match_explicit_build(filled_complex):
    cand = candidate_set(filled_complex, order=2)
    rng = np.random.default_rng(3)
    t = rng.uniform(0, 1, cand.num_candidates)
    hist = rng.standard_normal((3, filled_complex.num_edges))
    X = regressors_from_t(t, cand, hist)
    lu = param_upper_laplacian(t, cand.ops.b2)
    ld = hodge_laplacians(filled_complex).lower
    expected = np.stack(
        [hist[0], lu @ hist[1], lu @ lu @ hist[2], ld @ hist[1], ld @ ld @ hist[2]],
        axis=1,
    )
    assert np.allclose(X, expected, atol=1e-12)


# ---------------------------------------------------------------- gradient


def numerical_grad_t(h, t, cand, x_hist, d, y, step=1e-6):
    grad = np.zeros_like(t)
    for j in range(t.size):
        for sign in (+1.0, -1.0):
            tj = t.copy()
            tj[j] += sign * step
            X = regressors_from_t(tj, cand, x_hist)
            r = d * (y - X @ h)
            grad[j] += sign * float(r @ r)
    return grad / (2 * step)


def random_instance(rng, order, num_vertices=9):
    c = random_complex(num_vertices, 0.55, 0.6, int(rng.integers(10_000)))
    cand = candidate_set(c, order)
    if cand.num_candidates == 0:
        return None
    E = c.num_edges
    h = rng.standard_normal(2 * order + 1) * 0.5
    t = rng.uniform(0, 1, cand.num_candidates)
    x_hist = rng.standard_normal((order + 1, E))
    d = (rng.random(E) < 0.8).astype(float)
    y = rng.standard_normal(E)
    return h, t, cand, (x_hist, d, y)


def test_grad_zero_when_upper_taps_vanish(filled_complex):
    cand = candidate_set(filled_complex, order=2)
    rng = np.random.default_rng(4)
    h = np.array([1.3, 0.0, 0.0, 0.4, -0.2])  # upper taps at lags 1,2 are zero
    t = rng.uniform(0, 1, cand.num_candidates)
    x_hist = rng.standard_normal((3, filled_complex.num_edges))
    d = np.ones(filled_complex.num_edges)
    y = rng.standard_normal(filled_complex.num_edges)
    assert np.allclose(grad_t(h, t, cand, x_hist, d, y), 0.0)


def test_grad_single_candidate_analytic():
    # order 1, one candidate: gradient is -2 r^T D h_u1 (b b^T) x(n-1) per entry
    c = build_incidence(3, [(0, 1), (0, 2), (1, 2)], [(0, 1, 2)])
    cand = candidate_set(c, order=1)
    assert cand.num_candidates == 1
    rng = np.random.default_rng(5)
    h = rng.standard_normal(3)
    t = np.array([0.6])
    x_hist = rng.standard_normal((2, 3))
    d = np.array([1.0, 0.0, 1.0])
    y = rng.standard_normal(3)
    X = regressors_from_t(t, cand, x_hist)
    r = y - X @ h
    b = cand.ops.b2[:, 0]
    expected = -2.0 * (d * r) @ (h[1] * np.outer(b, b) @ x_hist[1])
    assert np.allclose(grad_t(h, t, cand, x_hist, d, y), [expected], atol=1e-12)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(6)
    checked = 0
    while checked < 100:
        order = int(rng.integers(1, 4))
        inst = random_instance(rng, order)
        if inst is None:
            continue
        h, t, cand, obs = inst
        analytic = numerical = None
        analytic = grad_t(h, t, cand, *obs)
        numerical = numerical_grad_t(h, t, cand, *obs)
        scale = max(np.linalg.norm(numerical), 1e-8)
        assert np.linalg.norm(analytic - numerical) / scale < 1e-5
        checked += 1


# ------------------------------------------------------------------- step


def test_infer_step_zero_residual_fixed_point(filled_complex):
    cand = candidate_set(filled_complex, order=2)
    rng = np.random.default_rng(7)
    # indicators strictly inside the keep region so the prox is the identity
    t = rng.uniform(0.46, 0.54, cand.num_candidates)
    h = rng.standard_normal(5)
    hist = rng.standard_normal((3, filled_complex.num_edges))
    X = regressors_from_t(t, cand, hist)
    state = TopologyState(h=h, t=t, mu1=1e-2, mu2=1e-2, lam0=0.1, lam1=0.1)
    new = infer_step(state, cand, hist, np.ones(filled_complex.num_edges), X @ h)
    assert np.allclose(new.h, h)
    assert np.array_equal(new.t, t)


def test_infer_step_latched_indicators_stay_put(filled_complex):
    cand = candidate_set(filled_complex, order=2)
    rng = np.random.default_rng(8)
    t = (rng.random(cand.num_candidates) < 0.5).astype(float)
    h = rng.standard_normal(5)
    hist = rng.standard_normal((3, filled_complex.num_edges))
    X = regressors_from_t(t, cand, hist)
    state = TopologyState(h=h, t=t, mu1=1e-2, mu2=1e-2, lam0=0.1, lam1=0.1)
    new = infer_step(state, cand, hist, np.ones(filled_complex.num_edges), X @ h)
    assert np.array_equal(new.t, t)


def test_state_validation():
    with pytest.raises(ValueError, match="ordering"):
        TopologyState(h=np.zeros(3), t=np.zeros(1), mu1=0.1, mu2=0.1, lam0=0.4, lam1=0.4)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        TopologyState(h=np.zeros(3), t=np.array([1.5]), mu1=0.1, mu2=0.1, lam0=0.1, lam1=0.1)


# ---------------------------------------------------------------- recovery


def test_recovery_on_small_complex():
    c = random_complex(12, 0.5, 0.5, 23)
    assert c.num_triangles >= 2
    cand = candidate_set(c, order=2)
    rng = np.random.default_rng(9)
    coeffs = FilterCoeffs(h_u=0.4 + 0.3 * rng.random(3), h_d=0.3 * rng.random(2))
    E = c.num_edges
    result = run_inference(
        cand,
        coeffs,
        StreamConfig.white(E, signal_var=0.005, sigma_v2=1e-4, p=1.0),
        schedule=[(0, cand.true_indicator(c))],
        mu1=1e-2,
        mu2=1e-2,
        lam0=0.1,
        lam1=0.1,
        realizations=3,
        horizon=3000,
        seed=31,
    )
    assert result.recovery_rate[-1] == 1.0
    assert result.t_error[-1] == 0.0
    assert result.h_error[-1] < result.h_error[0] * 1e-2


def hand_rolled_replay(complex_, coeffs, cand, sigma_v2, schedule, horizon, seed,
                       signal_var, mu=1e-2, lam=0.1):
    """One realization of run_inference with the per-realization draw written out.

    Returns the h-error, t-error, exact-recovery and support trajectories,
    stacked as rows.
    """
    E, order = complex_.num_edges, cand.order
    h_true = coeffs.flatten()
    sig_ss, noise_ss, mask_ss = np.random.SeedSequence(seed).spawn(3)
    N = horizon + order
    x = np.sqrt(signal_var) * np.random.default_rng(sig_ss).standard_normal((N, E))
    v = np.random.default_rng(noise_ss).standard_normal((N, E)) * np.sqrt(sigma_v2)
    d = (np.random.default_rng(mask_ss).random((N, E)) < 1.0).astype(np.float64)
    state = TopologyState(h=np.zeros(h_true.size), t=np.full(cand.num_candidates, 0.5),
                          mu1=mu, mu2=mu, lam0=lam, lam1=lam)
    out = np.empty((4, horizon + 1))
    t_true = schedule[0][1]
    for k in range(horizon + 1):
        if k:
            if len(schedule) > 1 and k - 1 >= schedule[1][0]:
                t_true = schedule[1][1]
            n = order + k - 1
            hist = x[n - order : n + 1][::-1]
            y = d[n] * (regressors_from_t(t_true, cand, hist) @ h_true + v[n])
            state = infer_step(state, cand, hist, d[n], y)
        out[:, k] = (np.sum((h_true - state.h) ** 2), np.sum((t_true - state.t) ** 2),
                     float(np.array_equal(state.t, t_true)), float(np.count_nonzero(state.t)))
    return out


@pytest.fixture(scope="module")
def switch_instance():
    c = random_complex(12, 0.5, 0.5, 23)
    cand = candidate_set(c, order=2)
    coeffs = FilterCoeffs(h_u=[0.6, 0.5, 0.4], h_d=[0.3, -0.2])
    t_true = cand.true_indicator(c)
    t_after = t_true.copy()
    t_after[np.flatnonzero(t_true)[0]] = 0.0
    sigma_v2 = np.random.default_rng(4).choice([1e-4, 1e-3], c.num_edges)
    return c, coeffs, cand, sigma_v2, [(0, t_true), (20, t_after)]


def _run_switch(instance, realizations, seed):
    c, coeffs, cand, sigma_v2, schedule = instance
    cfg = StreamConfig.white(c.num_edges, signal_var=0.005, sigma_v2=sigma_v2)
    return run_inference(cand, coeffs, cfg, schedule, mu1=1e-2, mu2=1e-2, lam0=0.1, lam1=0.1,
                         realizations=realizations, horizon=40, seed=seed)


def _replays(instance, seed, count):
    c, coeffs, cand, sigma_v2, schedule = instance
    return [hand_rolled_replay(c, coeffs, cand, sigma_v2, schedule, 40, seed_r, 0.005)
            for seed_r in derived_seeds(seed, count)]


def _fields(result):
    return np.stack([result.h_error, result.t_error, result.recovery_rate, result.support_size])


def test_run_inference_matches_hand_rolled_draw(switch_instance):
    result = _run_switch(switch_instance, 2, seed=8)
    first, second = _replays(switch_instance, 8, 2)
    assert (result.realizations, result.diverged) == (2, [])
    np.testing.assert_array_equal(_fields(result), (first + second) / 2)


@pytest.mark.parametrize("rows", [1, 7])
def test_run_inference_blocks_match_hand_rolled_draw(switch_instance, monkeypatch, rows):
    # order-2 draws in blocks of one row (history from several blocks) or of
    # seven rows: the 42 stream rows span many blocks, with the same bits
    c, _, cand, _, _ = switch_instance
    monkeypatch.setattr(signals, "_WINDOW_ELEMENTS", rows * c.num_edges * (2 * cand.order + 1))
    monkeypatch.setattr(signals, "_MIN_WINDOW_ROWS", 1)
    result = _run_switch(switch_instance, 2, seed=8)
    first, second = _replays(switch_instance, 8, 2)
    np.testing.assert_array_equal(_fields(result), (first + second) / 2)


def test_run_inference_drops_diverged_realization(switch_instance, diverge_in):
    replays = _replays(switch_instance, 9, 3)
    diverge_in(inference, "infer_step", {1})
    result = _run_switch(switch_instance, 3, seed=9)
    assert result.diverged == [1]
    assert result.realizations == 2
    np.testing.assert_array_equal(_fields(result), (replays[0] + replays[2]) / 2)


def test_indicators_stay_in_unit_box_under_random_data():
    c = random_complex(10, 0.55, 0.7, 29)
    cand = candidate_set(c, order=2)
    rng = np.random.default_rng(11)
    state = TopologyState(
        h=rng.standard_normal(5),
        t=rng.uniform(0, 1, cand.num_candidates),
        mu1=1e-3,
        mu2=5.0,  # deliberately large indicator step
        lam0=0.1,
        lam1=0.1,
    )
    for _ in range(200):
        x_hist = 0.1 * rng.standard_normal((3, c.num_edges))
        d = (rng.random(c.num_edges) < 0.7).astype(float)
        y = 0.1 * rng.standard_normal(c.num_edges)
        state = infer_step(state, cand, x_hist, d, y)
        assert np.all(state.t >= 0.0) and np.all(state.t <= 1.0)
