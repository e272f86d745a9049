"""Property tests of structural identities, on random complexes."""

import functools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from simplexlms import artrain, diffusion, inference, lms, signals
from simplexlms.complexes import build_incidence, hodge_laplacians, random_complex
from simplexlms.inference import candidate_set, regressors_from_t
from simplexlms.signals import (
    FilterCoeffs,
    StreamConfig,
    edge_moment_matrices,
    moments_closed_form,
    regressor_tensor,
)
from conftest import whole_stream
from test_signals import naive_regressors

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
    order=st.integers(0, 3),
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
    # an in-memory series walked from row `first`, after its `order` history
    # rows, with lengths one short of, at and one past a window boundary
    assume(first >= order)
    E = WINDOW_OPS.l1.shape[0]
    N = max(1, first, first + blocks * rows + overhang)
    x = np.random.default_rng(N).standard_normal((N, E))
    full = regressor_tensor(x, WINDOW_OPS, order)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(signals, "_WINDOW_ELEMENTS", window_budget(rows, order))
        mp.setattr(signals, "_MIN_WINDOW_ROWS", 1)
        windows = [(start, regressor_tensor(window, WINDOW_OPS, order))
                   for start, window, _ in signals._series_walk(x, order, first)]
    assert [start for start, _ in windows] == list(range(first, N, rows))
    assert all(X.shape == (min(rows, N - start), E, 2 * order + 1) for start, X in windows)
    got = np.concatenate([X for _, X in windows]) if windows else full[:0]
    np.testing.assert_allclose(got, full[first - order :], rtol=0,
                               atol=round_off(full) if full.size else 0.0)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(order=st.integers(0, 3), rows=st.integers(1, 5), extra=st.integers(1, 16))
def test_windowed_stream_matches_one_window(order, rows, extra):
    E = WINDOW_OPS.l1.shape[0]
    coeffs = FilterCoeffs.random(order, np.random.default_rng(extra), scale=0.5)
    cfg = StreamConfig.white(E, sigma_v2=0.05, p=0.7)
    whole = whole_stream(coeffs, WINDOW_OPS, cfg, extra, extra)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(signals, "_WINDOW_ELEMENTS", window_budget(rows, order))
        mp.setattr(signals, "_MIN_WINDOW_ROWS", 1)
        windowed = whole_stream(coeffs, WINDOW_OPS, cfg, extra, extra)
    for name in ("x", "d", "v"):
        assert np.array_equal(getattr(windowed, name), getattr(whole, name))
    assert windowed.y.shape == (extra, E)
    np.testing.assert_allclose(windowed.y, whole.y, rtol=0, atol=round_off(whole.y))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    order=st.integers(0, 3),
    rows=st.integers(1, 5),
    blocks=st.integers(0, 4),
    overhang=st.integers(-1, 1),
)
@example(order=3, rows=1, blocks=0, overhang=0)   # horizon 0: history rows only
@example(order=0, rows=2, blocks=0, overhang=0)   # the empty stream
def test_stream_blocks_concatenate_to_one_block_draw(order, rows, blocks, overhang):
    # horizons at, one short of and one past a block boundary, and horizon 0
    E = WINDOW_OPS.l1.shape[0]
    horizon = max(0, blocks * rows + overhang)
    N = order + horizon
    rng = np.random.default_rng(N + 7 * order)
    coeffs = FilterCoeffs.random(order, rng, scale=0.5)
    # a non-uniform white covariance, so the draw scales its columns
    cfg = StreamConfig(c_x=np.diag(rng.uniform(0.5, 2.0, E)), sigma_v2=rng.uniform(0.0, 0.1, E),
                       p=rng.uniform(0.3, 1.0, E))
    [(x, v, d)] = signals._draw(cfg, N, (N,))
    h = coeffs.flatten()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(signals, "_WINDOW_ELEMENTS", window_budget(rows, order))
        mp.setattr(signals, "_MIN_WINDOW_ROWS", 1)
        got = list(signals.generate_stream(coeffs, WINDOW_OPS, cfg, horizon, N))
        # the blocks do not keep their noise: draw it again at their row bounds
        noise = [v for _, v, _ in signals._draw(cfg, N, signals._block_stops(E, order, horizon))]
        # oracle: the observations of the one-block draw, built in the same windows
        y = np.zeros_like(x)
        for start, window, _ in signals._series_walk(x, order, first=order):
            X = regressor_tensor(window, WINDOW_OPS, order)
            y[start : start + len(X)] = d[start : start + len(X)] * (X @ h + v[start : start + len(X)])
    # the first block starts after the `order` history rows, and every row is a step
    assert [b.start for b in got] == [order] + list(range(order + rows, N, rows))
    assert sum(len(b.y) for b in got) == horizon
    # a block's signal rows are the lag-0 column of its regressors
    for parts, whole in (([b.X[:, :, 0] for b in got], x), ([b.d for b in got], d),
                         ([b.y for b in got], y)):
        np.testing.assert_array_equal(np.concatenate(parts), whole[order:])
    np.testing.assert_array_equal(np.concatenate(noise), v)
    full = regressor_tensor(x, WINDOW_OPS, order)
    np.testing.assert_allclose(np.concatenate([b.X for b in got]), full,
                               rtol=0, atol=round_off(full) if full.size else 0.0)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    order=st.integers(0, 3),
    rows=st.integers(1, 5),
    first=st.integers(0, 5),
    blocks=st.integers(0, 4),
    drawn=st.booleans(),
)
@example(order=3, rows=1, first=3, blocks=3, drawn=True)    # history from several blocks
@example(order=2, rows=1, first=3, blocks=3, drawn=False)   # first > order
def test_history_walk_carries_the_rows_before_each_block(order, rows, first, blocks, drawn):
    # each window is the block under the `order` rows just before it, bit for
    # bit: for a drawn stream and for an in-memory series
    assume(first >= order)
    E = WINDOW_OPS.l1.shape[0]
    N = first + blocks * rows + 1
    cfg = StreamConfig.white(E, sigma_v2=0.05, p=0.7)
    [(x, v, d)] = signals._draw(cfg, N, (N,))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(signals, "_WINDOW_ELEMENTS", window_budget(rows, order))
        mp.setattr(signals, "_MIN_WINDOW_ROWS", 1)
        if drawn:
            first = order
            draws = signals._draw(cfg, N, signals._block_stops(E, order, N - order))
            walk = signals._history_walk(draws, order, order, next(draws)[0])
        else:
            walk = signals._series_walk(x, order, first)
        walked = [(start, window.copy(), block) for start, window, *block in walk]
    assert walked[0][0] == first
    end = first
    for start, window, block in walked:
        assert start == end
        np.testing.assert_array_equal(window, x[start - order : start + len(block[0])])
        np.testing.assert_array_equal(window[order:], block[0])
        if drawn:
            np.testing.assert_array_equal(block[1], v[start : start + len(block[0])])
            np.testing.assert_array_equal(block[2], d[start : start + len(block[0])])
        end = start + len(block[0])
    assert end == N


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    vertices=st.integers(3, 8),
    edge_prob=st.floats(0.3, 1.0),
    fill_prob=st.floats(0.0, 1.0),
    order=st.integers(0, 3),
    seed=st.integers(0, 2**16),
)
@example(vertices=6, edge_prob=0.8, fill_prob=0.0, order=3, seed=1)   # triangle-free
@example(vertices=5, edge_prob=1.0, fill_prob=1.0, order=2, seed=2)   # every triangle filled
def test_regressor_tensor_matches_repeated_products(vertices, edge_prob, fill_prob, order, seed):
    complex_ = random_complex(vertices, edge_prob, fill_prob, seed)
    E = complex_.num_edges
    assume(E > 0)
    ops = hodge_laplacians(complex_)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((order + 6, E))
    R = regressor_tensor(x, ops, order)
    assert R.shape == (6, E, 2 * order + 1)
    # fractional triangle weights: L_u = B2 diag(w) B2^T, its powers formed densely
    w = rng.random(complex_.num_triangles)
    R_w = regressor_tensor(x, ops, order, w)
    upper_w = (ops.b2 * w) @ ops.b2.T
    for n in range(order, x.shape[0]):
        expected = naive_regressors(x[n - order : n + 1][::-1], ops, order)
        np.testing.assert_allclose(R[n - order], expected, rtol=0, atol=round_off(expected))
        for m in range(1, order + 1):
            expected[:, m] = np.linalg.matrix_power(upper_w, m) @ x[n - m]
        np.testing.assert_allclose(R_w[n - order], expected, rtol=0, atol=round_off(expected))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    vertices=st.integers(3, 8),
    edge_prob=st.floats(0.3, 1.0),
    order=st.integers(0, 3),
    seed=st.integers(0, 2**16),
)
@example(vertices=3, edge_prob=1.0, order=2, seed=0)   # one candidate
def test_indicator_regressors_match_the_filled_complex(vertices, edge_prob, order, seed):
    # a 0/1 indicator builds the regressors of the complex with exactly those triangles
    skeleton = random_complex(vertices, edge_prob, 0.0, seed)
    E = skeleton.num_edges
    assume(E > 0)
    cand = candidate_set(skeleton, order)
    rng = np.random.default_rng(seed)
    t = (rng.random(cand.num_candidates) < 0.5).astype(np.float64)
    filled = [triple for triple, on in zip(cand.triples, t) if on]
    ops = hodge_laplacians(build_incidence(vertices, list(skeleton.edges), filled))
    hist = rng.standard_normal((order + 1, E))
    expected = regressor_tensor(hist[::-1], ops, order)[-1]
    np.testing.assert_allclose(regressors_from_t(t, cand, hist), expected,
                               rtol=0, atol=round_off(expected))


# the candidate sets of WINDOW_OPS's 1-skeleton, by order: 13 edges, at least 2 candidates
WINDOW_CANDIDATES = {order: candidate_set(random_complex(8, 0.6, 0.5, 4), order)
                     for order in range(4)}


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    order=st.integers(0, 3),
    rows=st.integers(1, 6),
    horizon=st.integers(0, 30),
    steps=st.lists(st.integers(1, 34), max_size=4, unique=True),
    narrow=st.booleans(),
)
@example(order=2, rows=4, horizon=12, steps=[1, 2, 11], narrow=True)   # one-step segments
@example(order=3, rows=1, horizon=0, steps=[3], narrow=False)          # history rows only
def test_scheduled_stream_cuts_blocks_at_segment_starts(order, rows, horizon, steps, narrow):
    # a schedule splits the blocks at its segment starts and changes no draw;
    # each observation is the per-step build under the active indicators
    cand = WINDOW_CANDIDATES[order]
    E = cand.ops.num_edges
    rng = np.random.default_rng([order, rows, horizon, *steps])
    starts = [0, *sorted(steps)]
    indicators = [rng.random(cand.num_candidates) for _ in starts]
    schedule = list(zip(starts, indicators))
    coeffs = FilterCoeffs.random(order, rng, scale=0.5)
    cfg = StreamConfig(c_x=np.diag(rng.uniform(0.5, 2.0, E)), sigma_v2=rng.uniform(0.0, 0.1, E),
                       p=rng.uniform(0.3, 1.0, E))
    with pytest.MonkeyPatch.context() as mp:
        if narrow:
            mp.setattr(signals, "_WINDOW_ELEMENTS", window_budget(rows, order))
            mp.setattr(signals, "_MIN_WINDOW_ROWS", 1)
        got = list(signals.generate_stream(coeffs, cand.ops, cfg, horizon, 5, schedule))
        plain = list(signals.generate_stream(coeffs, cand.ops, cfg, horizon, 5))
        draws = [signals._draw(cfg, 5, signals._block_stops(E, order, horizon, s))
                 for s in (starts, (0,))]
        (_, v, d), (_, v_plain, d_plain) = (map(np.concatenate, zip(*draw)) for draw in draws)
    for start, *_ in schedule[1:]:
        assert not any(b.start - order < start < b.start - order + len(b.y) for b in got)

    def signal(blocks):
        return np.concatenate([blocks[0].x[:order], *(b.x[order:] for b in blocks)])

    np.testing.assert_array_equal(signal(got), signal(plain))
    np.testing.assert_array_equal(v, v_plain)
    np.testing.assert_array_equal(d, d_plain)
    np.testing.assert_array_equal(np.concatenate([b.d for b in got]), d[order:])
    x, h = signal(got), coeffs.flatten()
    for b in got:
        for j, y in enumerate(b.y):
            n = b.start + j
            active = indicators[np.searchsorted(starts, n - order, side="right") - 1]
            assert b.weights is not None and np.array_equal(b.weights, active)
            expected = d[n] * (regressors_from_t(active, cand, x[n - order : n + 1][::-1]) @ h
                               + v[n])
            np.testing.assert_allclose(y, expected, rtol=1e-12,
                                       atol=1e-12 * float(np.max(np.abs(expected), initial=0)))


class Measured(Exception):
    """Raised in place of the Monte-Carlo engine, with the ``measure`` a runner handed it."""


def runner_measure(module, run):
    """The chunk ``measure`` that ``run()`` hands ``module._monte_carlo``; no step is taken."""
    def engine(seed, realizations, horizon, walk, measure):
        raise Measured(measure)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "_monte_carlo", engine)
        with pytest.raises(Measured) as caught:
            run()
    return caught.value.args[0]


@functools.lru_cache(maxsize=None)
def chunk_measures(order, vertices):
    """The measures of run_experiment, run_distributed without and with agent traces, and
    run_inference on the candidates of the complete graph on ``vertices`` vertices, for
    fixed coefficients of ``order``; the first three do not depend on the edge count."""
    complex_ = random_complex(4, 1.0, 1.0, 0)
    E = complex_.num_edges
    coeffs = FilterCoeffs.random(order, np.random.default_rng(order))
    cfg = StreamConfig.white(E, signal_var=0.1, sigma_v2=1e-3)
    comb = np.full((E, E), 1.0 / E)
    measures = [runner_measure(lms, lambda: lms.run_experiment(complex_, coeffs, cfg, 1e-3, 1, 1,
                                                               0))]
    measures += [runner_measure(diffusion, lambda: diffusion.run_distributed(
        complex_, coeffs, cfg, comb, 1e-3, 1, 1, 0, track_agents=track)) for track in (False, True)]
    cand = candidate_set(random_complex(vertices, 1.0, 0.0, 0), order)
    schedule = [(0, np.zeros(cand.num_candidates))]
    cfg = StreamConfig.white(cand.ops.num_edges, signal_var=0.1, sigma_v2=1e-3)
    measures.append(runner_measure(inference, lambda: inference.run_inference(
        cand, coeffs, cfg, schedule, 1e-3, 1e-3, 0.1, 0.1, 1, 1, 0)))
    return coeffs.flatten(), measures


def assert_same_bits(got, want):
    # equal bit for bit, except that any NaN matches any NaN
    nan = np.isnan(want)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def spoil(rng, states):
    # NaN, inf or -inf in a random entry of about a third of the states
    for state in states:
        if rng.random() < 1 / 3:
            state.flat[rng.integers(state.size)] = rng.choice([np.nan, np.inf, -np.inf])
    return states


@settings(derandomize=True, max_examples=60, deadline=None)
@given(order=st.integers(0, 3), agents=st.sampled_from([15, 56, 250, 900]),
       vertices=st.sampled_from([6, 8, 12, 19]), rows=st.integers(1, 64),
       seed=st.integers(0, 2**16))
def test_chunk_scores_equal_per_state_scores(order, agents, vertices, rows, seed):
    # each runner's measure scores a stacked chunk of states bit for bit as the per-state
    # formula below scores each state alone, for 1 to 64 states, networks of 15 to 900
    # agents and 20, 56, 220 or 969 candidate triangles (the complete graph's 3-cliques)
    h_true, (lms_measure, network, network_agents, joint) = chunk_measures(order, vertices)
    dim, C = h_true.size, vertices * (vertices - 1) * (vertices - 2) // 6
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3)

    def check(measure, per_state, states):
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.array([per_state(state) for state in states], dtype=np.float64)
            assert_same_bits(measure(np.stack(states)), want.reshape(rows, -1))

    def network_row(H, track):
        dev = np.sum((h_true - H) ** 2, axis=1)
        return np.append(np.mean(dev), dev) if track else np.mean(dev)

    def joint_row(state):
        h, t, t_true = state[:dim], state[dim : dim + C], state[dim + C :]
        return (np.sum((h_true - h) ** 2), np.sum((t_true - t) ** 2),
                float(np.array_equal(t, t_true)), float(np.count_nonzero(t)))

    check(lms_measure, lambda h: np.sum((h_true - h) ** 2),
          spoil(rng, list(scale * rng.standard_normal((rows, dim)))))
    networks = spoil(rng, list(scale * rng.standard_normal((rows, agents, dim))))
    check(network, lambda H: network_row(H, False), networks)
    check(network_agents, lambda H: network_row(H, True), networks)
    # about half the states hold t_true exactly; the rest differ in about a tenth of t,
    # by 1e-16 to 0.1
    t_true = (rng.random((rows, C)) < 0.5).astype(np.float64)
    differs = (rng.random((rows, 1)) < 0.5) & (rng.random((rows, C)) < 0.1)
    t = np.where(differs, np.abs(t_true - 10.0 ** rng.uniform(-16, -1, (rows, C))), t_true)
    h = scale * rng.standard_normal((rows, dim))
    check(joint, joint_row, spoil(rng, [np.concatenate(state) for state in zip(h, t, t_true)]))


@functools.lru_cache(maxsize=None)
def ar_predicts():
    """The ``predict`` that run_ar_training and run_distributed_ar each hand
    ``artrain._train_then_test``; no step is taken."""
    def loop(ds, order, variant, epochs, state, predict, step):
        raise Measured(predict)

    ds = SimpleNamespace(complex=SimpleNamespace(num_edges=2))
    predicts = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(artrain, "_train_then_test", loop)
        for run in (lambda: artrain.run_ar_training(ds, 1, 1e-3),
                    lambda: artrain.run_distributed_ar(ds, 1, 1e-3, np.eye(2))):
            with pytest.raises(Measured) as caught:
                run()
            predicts.append(caught.value.args[0])
    return predicts


@settings(derandomize=True, max_examples=60, deadline=None)
@given(rows=st.integers(1, 300), edges=st.sampled_from([15, 56, 250, 900]),
       taps=st.sampled_from([2, 4, 6]), seed=st.integers(0, 2**16))
@example(rows=300, edges=900, taps=6, seed=0)
def test_ar_block_scores_equal_per_step_scores(rows, edges, taps, seed):
    # both protocols' block predictions from stacked taps, and the block score, equal
    # the per-step products and np.linalg.norm ratio bit for bit; about a tenth of the
    # rows hold NaN or +-inf, and about a tenth of the targets are zero (the 1e-300 floor)
    central, agents = ar_predicts()
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3)
    R = scale * rng.standard_normal((rows, edges, taps))
    h, H = rng.standard_normal((rows, taps)), rng.standard_normal((rows, edges, taps))
    Y = scale * rng.standard_normal((rows, edges))
    for block in (R, h, H, Y):
        spoiled = rng.random(rows) < 0.1
        block[spoiled, ..., rng.integers(block.shape[-1])] = rng.choice([np.nan, np.inf, -np.inf])
    Y[rng.random(rows) < 0.1] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for got, want in ((central(R, h), [X @ h_k for X, h_k in zip(R, h)]),
                          (agents(R, H), [np.einsum("ij,ij->i", X, H_k) for X, H_k in zip(R, H)])):
            assert_same_bits(got, np.array(want))
            errors = [np.linalg.norm(p - y) / max(np.linalg.norm(y), 1e-300)
                      for p, y in zip(got, Y)]
            assert_same_bits(artrain._block_errors(got, Y), np.array(errors))
