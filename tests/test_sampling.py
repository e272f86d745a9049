"""Sampling-probability design: feasibility, oracle cases, support behavior."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from simplexlms.complexes import grown_complex, hodge_laplacians, random_complex
from simplexlms.errors import InfeasibleProblemError
from simplexlms.files import load_complex, save_complex
from simplexlms.lms import max_stepsize, theory_report
from simplexlms.sampling import SamplingProblem, check_constraints, solve_sampling
from simplexlms.signals import FilterCoeffs, edge_moment_matrices, moments_closed_form


def scalar_problem(c=2.0, g_var=1e-6, mu=1e-2, alpha=0.98, gamma=1e-4, p_max=1.0):
    # single edge, order zero: moment basis is the 1x1 matrix [c]
    return SamplingProblem(
        mu=mu,
        alpha=alpha,
        gamma=gamma,
        p_max=np.array([p_max]),
        basis=np.array([[[c]]]),
        sigma_v2=np.array([g_var]),
    )


@pytest.fixture(scope="module")
def complex_problem():
    c = random_complex(14, 0.4, 0.6, 33)
    ops = hodge_laplacians(c)
    rng = np.random.default_rng(0)
    sigma_v2 = np.exp(rng.uniform(np.log(1e-7), np.log(1e-4), c.num_edges))
    return SamplingProblem.from_moments(
        ops, np.eye(c.num_edges), sigma_v2, order=1,
        mu=1e-2, alpha=0.98, gamma=1e-4, p_max=1.0,
    )


def non_white_problem(alpha):
    # the fixture's complex and noise under a correlated signal covariance
    c = random_complex(14, 0.4, 0.6, 33)
    E = c.num_edges
    sigma_v2 = np.exp(np.random.default_rng(0).uniform(np.log(1e-7), np.log(1e-4), E))
    A = np.random.default_rng(1).standard_normal((E, E))
    return SamplingProblem.from_moments(
        hodge_laplacians(c), A @ A.T / E + 0.1 * np.eye(E), sigma_v2, order=1,
        mu=1e-3, alpha=alpha, gamma=1e-4, p_max=1.0,
    )


def random_problem(rng, basis):
    """Design targets around ``basis``: rate floor, budget and box all may bind."""
    E = basis.shape[0]
    p_max = np.where(rng.random(E) < 0.3, 1.0, rng.uniform(0.0, 1.0, E))
    sigma_v2 = rng.uniform(0.0, 1.0, E) * 10.0 ** rng.uniform(-3, 0, E)
    mu = 1e-2
    lam_at_max = float(np.linalg.eigvalsh(np.tensordot(p_max, basis, axes=1))[0])
    r = rng.uniform(0.1, 1.2) * max(lam_at_max, 0.1)
    traces = np.trace(basis, axis1=1, axis2=2)
    budget = rng.uniform(0.05, 1.0) * float(np.sum(sigma_v2 * traces * p_max)) + 1e-12
    return SamplingProblem(
        mu=mu, alpha=1.0 - 2.0 * mu * r, gamma=budget * mu / (2.0 * r),
        p_max=p_max, basis=basis, sigma_v2=sigma_v2,
    )


# ---------------------------------------------------------------- slacks


def test_slacks_at_zero_probability(complex_problem):
    E = complex_problem.num_edges
    slacks = check_constraints(np.zeros(E), complex_problem)
    assert np.isclose(slacks.rate, -complex_problem.rate_threshold)
    assert slacks.rate < 0


def test_slacks_at_pmax_with_generous_targets(complex_problem):
    slacks = check_constraints(complex_problem.p_max, complex_problem)
    assert slacks.rate >= 0
    assert slacks.budget >= 0
    assert slacks.box_lower >= 0
    assert slacks.box_upper >= 0


def test_rate_slack_monotone_in_p(complex_problem):
    rng = np.random.default_rng(1)
    E = complex_problem.num_edges
    for _ in range(20):
        p = rng.uniform(0, 1, E)
        scale_up = np.minimum(p * rng.uniform(1.0, 2.0, E), 1.0)
        lam_small = float(np.linalg.eigvalsh(complex_problem.moment(p))[0])
        lam_big = float(np.linalg.eigvalsh(complex_problem.moment(scale_up))[0])
        assert lam_big >= lam_small - 1e-12


def test_feasible_set_is_convex(complex_problem):
    # random convex combinations of feasible points stay feasible
    rng = np.random.default_rng(2)
    E = complex_problem.num_edges
    feasible = []
    while len(feasible) < 6:
        p = rng.uniform(0.3, 1.0, E)
        if check_constraints(p, complex_problem).feasible(0.0):
            feasible.append(p)
    for _ in range(30):
        i, j = rng.integers(len(feasible), size=2)
        w = rng.random()
        mix = w * feasible[i] + (1 - w) * feasible[j]
        assert check_constraints(mix, complex_problem).feasible(1e-9)


# ---------------------------------------------------------------- solver


def test_vacuous_constraints_give_zero():
    prob = scalar_problem(alpha=1 - 1e-12, gamma=1e6)
    solution = solve_sampling(prob)
    assert np.allclose(solution.p_star, 0.0, atol=1e-9)
    assert solution.slacks.feasible()


def test_scalar_analytic_oracle():
    for c, alpha, mu in [(2.0, 0.98, 1e-2), (5.0, 0.97, 1e-2), (0.8, 0.99, 1e-2)]:
        prob = scalar_problem(c=c, alpha=alpha, mu=mu, gamma=1.0)
        solution = solve_sampling(prob, tol=1e-9)
        expected = (1 - alpha) / (2 * mu * c)
        assert expected <= 1.0, "test instance must be interior"
        assert abs(solution.p_star[0] - expected) < 1e-6
        assert solution.slacks.feasible(1e-9)


def test_scalar_budget_feasibility_condition():
    # budget constraint is scale invariant: g*mu <= 2*gamma*c decides it
    feasible = scalar_problem(c=2.0, g_var=1e-6, mu=1e-2, gamma=1e-4)
    assert solve_sampling(feasible).slacks.feasible()
    infeasible = scalar_problem(c=2.0, g_var=1.0, mu=1e-2, gamma=1e-9)
    with pytest.raises(InfeasibleProblemError):
        solve_sampling(infeasible)


def test_rate_infeasible_at_pmax_raises():
    prob = scalar_problem(c=0.1, alpha=0.5, mu=1e-3, p_max=1.0)
    # required floor (1-alpha)/(2 mu) = 250 >> c
    with pytest.raises(InfeasibleProblemError, match="rate"):
        solve_sampling(prob)


def test_solver_returns_feasible_point(complex_problem):
    solution = solve_sampling(complex_problem, tol=1e-6, max_iter=1500)
    assert solution.slacks.feasible(1e-6)
    assert np.all(solution.p_star >= -1e-12)
    assert np.all(solution.p_star <= complex_problem.p_max + 1e-12)
    # strictly cheaper than sampling everything
    assert solution.objective < float(np.sum(complex_problem.p_max))


def test_support_shrinks_with_relaxed_rate(complex_problem):
    supports = []
    for alpha in (0.97, 0.98, 0.99):
        prob = SamplingProblem(
            mu=complex_problem.mu,
            alpha=alpha,
            gamma=complex_problem.gamma,
            p_max=complex_problem.p_max,
            basis=complex_problem.basis,
            sigma_v2=complex_problem.sigma_v2,
        )
        solution = solve_sampling(prob, tol=1e-6, max_iter=1500)
        assert solution.slacks.feasible(1e-6)
        supports.append(solution.support(1e-3).size)
    assert supports[0] >= supports[1] >= supports[2]


def test_sweep_none_still_accepts_candidates():
    # every noise-ordered prefix misses the budget, yet p = (0, 0.5) is
    # feasible with budget slack 2.5e-3: the solver must not compare
    # against an infinite incumbent with a NaN margin
    prob = SamplingProblem(
        mu=1e-2,
        alpha=0.99,
        gamma=1.25e-4,
        p_max=np.ones(2),
        basis=np.array([np.diag([1.0, 0.0]), np.eye(2)]),
        sigma_v2=np.array([0.01, 0.01]),
    )
    solution = solve_sampling(prob)
    assert solution.slacks.feasible(1e-6)
    assert abs(solution.objective - 0.5) < 1e-6


@pytest.mark.parametrize("alpha", [0.99, 0.972, 0.957])
def test_tied_prefixes_keep_the_earliest(alpha):
    # identical moments Z_i = I and noise: lambda_min(c_X(p)) = sum(p), so
    # every prefix of at least r edges costs r up to bisection rounding,
    # and the earliest such prefix, ceil(r) edges, must win the tie
    E = 6
    prob = SamplingProblem(
        mu=1e-2,
        alpha=alpha,
        gamma=1e-2,
        p_max=np.ones(E),
        basis=np.broadcast_to(np.eye(2), (E, 2, 2)),
        sigma_v2=np.full(E, 1e-6),
    )
    solution = solve_sampling(prob, max_iter=200)
    assert solution.slacks.feasible(1e-9)
    assert abs(solution.objective - prob.rate_threshold) < 1e-9
    assert solution.support(1e-3).size == int(np.ceil(prob.rate_threshold))


@pytest.mark.parametrize("alpha, heuristic", [
    # objectives of the noise-ordered sweep plus multistart subgradient solver
    (0.97, 11.486506349838404),
    (0.99, 3.459347090820292),
])
def test_non_white_design_is_certified_below_the_heuristic(alpha, heuristic):
    prob = non_white_problem(alpha)
    solution = solve_sampling(prob)
    assert solution.converged
    assert solution.slacks.feasible(1e-6)
    assert solution.objective < 0.95 * heuristic


def test_pivot_cap_returns_an_uncertified_point(complex_problem):
    solution = solve_sampling(complex_problem, max_iter=1)
    assert solution.converged is False
    assert solution.iterations == 1
    assert solution.slacks == check_constraints(solution.p_star, complex_problem)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), edges=st.integers(1, 8), dim=st.integers(1, 4))
def test_diagonal_moments_match_an_lp_oracle(seed, edges, dim):
    # with diagonal Z_i, lambda_min(c_X(p)) is the smallest diagonal entry, so
    # the design problem is exactly the LP over the unit-vector cuts
    from scipy.optimize import linprog

    rng = np.random.default_rng(seed)
    diag = rng.uniform(0.0, 1.0, (edges, dim)) * (rng.random((edges, dim)) < 0.7)
    prob = random_problem(rng, np.einsum("ia,ab->iab", diag, np.eye(dim)))
    r, f = prob.rate_threshold, prob.budget_factor
    oracle = linprog(
        np.ones(edges),
        A_ub=np.vstack([-diag.T, prob.noise_weights]),
        b_ub=np.r_[np.full(dim, -r), f * r],
        bounds=list(zip(np.zeros(edges), prob.p_max)),
        method="highs",
    )
    assert oracle.status in (0, 2)
    if oracle.status == 2:
        with pytest.raises(InfeasibleProblemError):
            solve_sampling(prob)
        return
    solution = solve_sampling(prob)
    assert solution.converged
    assert abs(solution.objective - oracle.fun) <= 1e-9 * max(1.0, oracle.fun)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), edges=st.integers(1, 8), dim=st.integers(1, 4))
def test_no_rescaled_direction_beats_the_certified_design(seed, edges, dim):
    # any direction d scaled onto the rate floor, s d with s = r / lambda_min,
    # that stays in the box and meets the (scale-invariant) budget is feasible,
    # so it costs at least the certified optimum; none exists if infeasible
    rng = np.random.default_rng(seed)
    factors = rng.standard_normal((edges, dim, dim)) * (rng.random((edges, 1, 1)) < 0.8)
    prob = random_problem(rng, factors @ factors.transpose(0, 2, 1) / dim)
    try:
        solution = solve_sampling(prob)
        assert solution.converged
        best = solution.objective
    except InfeasibleProblemError:
        best = np.inf
    directions = prob.p_max * rng.uniform(0.0, 1.0, (300, edges))
    directions *= rng.random((300, edges)) < 0.6
    for d in directions:
        lam = float(np.linalg.eigvalsh(prob.moment(d))[0])
        if lam <= 0.0:
            continue
        candidate = prob.rate_threshold / lam * d
        if np.all(candidate <= prob.p_max) and prob.noise_weights @ d <= prob.budget_factor * lam:
            assert np.sum(candidate) >= best - 1e-9 * max(1.0, best)


def test_a_round_that_leaves_the_point_in_place_ends_the_loop():
    # the budget admits the rate-floor point p = 0.25 only up to a relative
    # 1e-11 (a budget slack near -2.5e-5 at this scale): within the LP's
    # rounding, so the default tolerance certifies it, but no cut can move
    # the point to meet a tolerance of 1e-12, and the loop must stop
    prob = scalar_problem(c=1e6, g_var=10.0, mu=1e-6, alpha=0.5, gamma=5e-6 * (1 - 1e-11))
    assert solve_sampling(prob).converged
    solution = solve_sampling(prob, tol=1e-12)
    assert solution.converged is False
    assert solution.iterations < 10
    assert solution.slacks == check_constraints(solution.p_star, prob)


def core_noise(complex_, rng):
    # criterion 3's noise law: triangle edges and every other edge form a 1e-7
    # core, the rest draw log-uniform from [1e-4, 1e-2]
    E = complex_.num_edges
    core = {complex_.edge_index[pair] for i, j, k in complex_.triangles
            for pair in ((i, j), (i, k), (j, k))} | set(range(0, E, 2))
    noise = np.full(E, 1e-7)
    noisy = [i for i in range(E) if i not in core]
    noise[noisy] = np.exp(rng.uniform(np.log(1e-4), np.log(1e-2), len(noisy)))
    return noise


def test_design_verdict_does_not_depend_on_units():
    # scaling the signal variance and the noise by s and dividing mu by s
    # leaves the LP unchanged but scales the rate slack by s and the budget
    # slack by s^2; a 250-edge criterion-3 design must stay certified
    complex_ = grown_complex(60, 250, 80, seed=1)
    ops = hodge_laplacians(complex_)
    noise = core_noise(complex_, np.random.default_rng([1, 3, 1]))
    designs = []
    for s in (1.0, 1e8):
        prob = SamplingProblem.from_moments(ops, 0.05 * s, noise * s, 1, mu=1e-2 / s,
                                            alpha=0.98, gamma=1e-7)
        designs.append(solve_sampling(prob, tol=1e-6, max_iter=1200))
    assert [d.converged for d in designs] == [True, True]
    assert abs(designs[1].objective - designs[0].objective) <= 1e-9 * designs[0].objective


def test_design_path_forms_no_dense_incidence_pair(tmp_path):
    # design-scale's 900-edge design, from its file to its solution: the
    # whole job needs less memory than the dense b1 and b2 together
    grown = grown_complex(150, 900, 300, seed=2)
    save_complex(grown, tmp_path / "design.txt")
    noise = core_noise(grown, np.random.default_rng([1, 3, 2]))
    E, V, T = grown.num_edges, grown.num_vertices, grown.num_triangles
    tracemalloc.start()
    try:
        ops = hodge_laplacians(load_complex(tmp_path / "design.txt"))
        prob = SamplingProblem.from_moments(ops, 0.05, noise, 1, mu=1e-2, alpha=0.98,
                                            gamma=1e-7)
        solution = solve_sampling(prob, tol=1e-6, max_iter=1200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert solution.converged
    assert peak < E * (V + T) * 8, peak


@settings(derandomize=True, max_examples=40, deadline=None)
@given(vertices=st.integers(4, 10), edge_prob=st.floats(0.3, 1.0), fill_prob=st.floats(0.0, 1.0),
       order=st.integers(0, 3), step=st.floats(0.01, 0.24), rate=st.floats(0.05, 1.0),
       budget=st.floats(0.2, 10.0), seed=st.integers(0, 2**16))
def test_design_meets_its_rate_target_through_the_theory(vertices, edge_prob, fill_prob, order,
                                                         step, rate, budget, seed):
    # the design's promise read through the other module: p_star's moments, fed to
    # theory_report, give a rate estimate within tol of the target alpha. mu is below
    # max_stepsize(c_X(p_max)) and r at most lambda_min(c_X(p_max)), so alpha lies in
    # (0, 1) and every design point is stable; the budget may bind or make it infeasible
    complex_ = random_complex(vertices, edge_prob, fill_prob, seed)
    E = complex_.num_edges
    assume(E > 0)
    ops = hodge_laplacians(complex_)
    rng = np.random.default_rng(seed)
    c_x = rng.uniform(0.1, 1.0) if seed % 2 else np.diag(rng.uniform(0.1, 1.0, E))
    sigma_v2 = 10.0 ** rng.uniform(-4, -2, E)
    p_max = rng.uniform(0.3, 1.0, E)
    coeffs = FilterCoeffs.random(order, rng)
    lam = np.linalg.eigvalsh(moments_closed_form(ops, p_max, c_x, sigma_v2, order, coeffs).c_X)
    assume(lam[0] > 1e-6 * lam[-1])
    mu = step * max_stepsize(np.diag(lam))
    r = rate * lam[0]
    alpha, tol = 1.0 - 2.0 * mu * r, 1e-6
    basis = edge_moment_matrices(ops, c_x, order)
    prob = SamplingProblem(mu=mu, alpha=alpha, gamma=budget * mu * float(
        np.sum(sigma_v2 * np.trace(basis, axis1=1, axis2=2) * p_max)) / (2.0 * r),
        p_max=p_max, basis=basis, sigma_v2=sigma_v2)
    try:
        design = solve_sampling(prob, tol=tol)
    except InfeasibleProblemError:
        return
    assume(design.converged)
    moments = moments_closed_form(ops, design.p_star, c_x, sigma_v2, order, coeffs)
    assert theory_report(moments.c_X, moments.g, mu).alpha <= alpha + (1.0 - alpha) * tol
