"""Acceptance suite: one test per criterion, each printing a PASS line.

Every test pins its tolerances inline and draws all randomness from
frozen seeds, so the suite is fully reproducible. The signal variance of
each instance is calibrated so the pinned step-sizes sit inside the
stability region of the corresponding moment matrices (their largest
eigenvalues grow with high Laplacian powers, which bounds admissible
signal power at fixed step-size).
"""

import json

import numpy as np
import pytest

from simplexlms.complexes import (
    build_incidence,
    enumerate_3cliques,
    grown_complex,
    hodge_decompose,
    hodge_laplacians,
    inverse_sft,
    random_complex,
    sft,
)
from simplexlms.artrain import run_ar_training, run_distributed_ar
from simplexlms.datasets import traffic_surrogate
from simplexlms.diffusion import (
    build_combination,
    dist_theory,
    lower_adjacency_neighborhoods,
    run_distributed,
)
from simplexlms.inference import (
    candidate_set,
    grad_t,
    prox_hard_threshold,
    regressors_from_t,
    run_inference,
)
from simplexlms.lms import (
    run_experiment,
    tail_average,
    theory_report,
    to_db,
)
from simplexlms.cli import main as cli_main
from simplexlms.errors import InfeasibleProblemError
from simplexlms.files import save_complex
from simplexlms.sampling import SamplingProblem, solve_sampling
from simplexlms.signals import (
    FilterCoeffs,
    StreamConfig,
    local_moment_matrices,
    moments_closed_form,
)


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, detail


# ------------------------------------------------------------- criterion 1


def test_criterion_1_steady_state_theory_match():
    # seeded complex with 15-40 edges, order 2, step 1e-2, noise from the
    # four-level set; 30 realizations x 20k iterations within +-1 dB
    complex_ = random_complex(12, 0.45, 0.6, 21)
    E = complex_.num_edges
    assert 15 <= E <= 40
    rng = np.random.default_rng(90)
    coeffs = FilterCoeffs.random(2, rng, scale=0.8)
    sigma_v2 = np.random.default_rng(91).choice([1e-6, 1e-4, 1e-3, 1e-2], size=E)
    cfg = StreamConfig(c_x=0.002 * np.eye(E), sigma_v2=sigma_v2, p=np.ones(E))
    result = run_experiment(complex_, coeffs, cfg, mu=1e-2, realizations=30, horizon=20000,
                            seed=92)
    assert result.theory is not None and not result.diverged
    empirical_db = float(to_db(tail_average(result.msd)))
    theory_db = float(to_db(result.theory.msd_exact))
    gap = abs(empirical_db - theory_db)
    report(
        1,
        gap <= 1.0,
        f"empirical {empirical_db:.2f} dB vs theory {theory_db:.2f} dB "
        f"(gap {gap:.2f} dB <= 1 dB, E={E})",
    )


# ------------------------------------------------------------- criterion 2


def test_criterion_2_first_order_gap_quadratic():
    # |msd_exact - msd_first_order| shrinks ~4x per halving of the step
    ratios = []
    for seed in range(10):
        complex_ = random_complex(10, 0.5, 0.6, 200 + seed)
        E = complex_.num_edges
        ops = hodge_laplacians(complex_)
        rng = np.random.default_rng(300 + seed)
        coeffs = FilterCoeffs.random(2, rng)
        sigma_v2 = rng.uniform(1e-4, 1e-2, E)
        base = moments_closed_form(ops, np.ones(E), np.eye(E), sigma_v2, 2, coeffs)
        # normalise so the largest step is comfortably stable
        scale = 20.0 / float(np.linalg.eigvalsh(base.c_X)[-1])
        c_X, g = scale * base.c_X, scale * base.g
        reports = [theory_report(c_X, g, mu) for mu in (1e-2, 5e-3, 2.5e-3)]
        gaps = [abs(r.msd_exact - r.msd_first_order) for r in reports]
        ratios.extend([gaps[0] / gaps[1], gaps[1] / gaps[2]])
    ok = all(3.5 <= r <= 4.5 for r in ratios)
    report(2, ok, f"gap ratios in [{min(ratios):.3f}, {max(ratios):.3f}] within [3.5, 4.5]")


# ------------------------------------------------------------- criterion 3


def _sampling_instance():
    complex_ = random_complex(26, 0.12, 0.7, 55)
    ops = hodge_laplacians(complex_)
    E = complex_.num_edges
    tri_edges = set(np.flatnonzero(np.diag(ops.upper) > 0).tolist())
    core = sorted(tri_edges | set(range(0, E, 2)))
    sigma_v2 = np.full(E, 1e-3)
    rng = np.random.default_rng(40)
    noisy = [i for i in range(E) if i not in core]
    sigma_v2[noisy] = np.exp(rng.uniform(np.log(1e-4), np.log(1e-2), len(noisy)))
    sigma_v2[core] = 1e-7
    return complex_, ops, sigma_v2, 0.05


def test_criterion_3_sampling_design():
    complex_, ops, sigma_v2, sv = _sampling_instance()
    E = complex_.num_edges
    mu, gamma = 1e-2, 1e-7
    coeffs = FilterCoeffs.random(1, np.random.default_rng(13), scale=0.8)

    # scalar analytic oracle to 1e-6
    for c_val, alpha in [(2.0, 0.98), (5.0, 0.97)]:
        prob = SamplingProblem(
            mu=mu, alpha=alpha, gamma=1.0, p_max=np.array([1.0]),
            basis=np.array([[[c_val]]]), sigma_v2=np.array([1e-6]),
        )
        solution = solve_sampling(prob, tol=1e-9)
        oracle = (1 - alpha) / (2 * mu * c_val)
        assert abs(solution.p_star[0] - oracle) < 1e-6

    supports = []
    tails_db = []
    for alpha in (0.97, 0.98, 0.99):
        prob = SamplingProblem.from_moments(
            ops, sv * np.eye(E), sigma_v2, 1, mu=mu, alpha=alpha, gamma=gamma, p_max=1.0
        )
        solution = solve_sampling(prob, tol=1e-6, max_iter=1200)
        assert solution.slacks.feasible(1e-6), f"alpha={alpha}: {solution.slacks}"
        supports.append(solution.support(1e-3).size)
        cfg = StreamConfig(c_x=sv * np.eye(E), sigma_v2=sigma_v2, p=solution.p_star)
        result = run_experiment(complex_, coeffs, cfg, mu, realizations=30, horizon=4000,
                                seed=77)
        # 95%-confidence tail mean across realizations stays under gamma
        tail = tail_average(result.msd)
        tails_db.append(float(to_db(tail)))
        assert tail <= gamma, f"alpha={alpha}: tail {tail:.3e} exceeds gamma"
    mono = supports[0] >= supports[1] >= supports[2]
    report(
        3,
        mono,
        f"supports {supports} non-increasing; validation tails {tails_db} dB "
        f"all <= {to_db(gamma):.0f} dB; scalar oracle to 1e-6",
    )


@pytest.mark.parametrize("order", [2, 3])
def test_criterion_3_higher_orders_are_proved_infeasible(tmp_path, order):
    # at orders 2 and 3 the cut LP is infeasible: a proof, where a heuristic
    # could only report that it found no feasible point
    complex_, ops, sigma_v2, sv = _sampling_instance()
    E = complex_.num_edges
    save_complex(complex_, tmp_path / "complex.txt")
    for alpha in (0.97, 0.98, 0.99):
        prob = SamplingProblem.from_moments(
            ops, sv * np.eye(E), sigma_v2, order, mu=1e-2, alpha=alpha, gamma=1e-7, p_max=1.0
        )
        with pytest.raises(InfeasibleProblemError, match="deviation budget cannot both hold"):
            solve_sampling(prob, tol=1e-6, max_iter=1200)
        config = tmp_path / "design.json"
        config.write_text(json.dumps({
            "complex_file": str(tmp_path / "complex.txt"), "order": order, "mu": 1e-2,
            "alpha": alpha, "gamma": 1e-7, "signal_var": sv, "noise_var": sigma_v2.tolist(),
            "max_iter": 1200,
        }))
        assert cli_main(["design-sampling", "--config", str(config)]) == 4


# ------------------------------------------------------------- criterion 4


def test_criterion_4_prox_equals_brute_force():
    def brute_force(v, lam0, lam1):
        def objective(u):
            val = 0.5 * (u - v) ** 2
            if u != 0.0:
                val += lam0
            if u != 1.0:
                val += lam1
            return val

        candidates = [0.0, float(np.clip(v, 0.0, 1.0)), 1.0]
        values = [objective(u) for u in candidates]
        best = min(values)
        if values[0] <= best:
            return 0.0
        if values[2] <= best:
            return 1.0
        return candidates[1]

    rng = np.random.default_rng(400)
    checked = 0
    while checked < 1000:
        lam0 = rng.uniform(0.0, 0.5)
        lam1 = rng.uniform(0.0, 0.5)
        if not 1 - np.sqrt(2 * lam1) > np.sqrt(2 * lam0):
            continue
        v = rng.uniform(0.0, 1.0)
        closed = prox_hard_threshold(np.array([v]), lam0, lam1)[0]
        assert closed == brute_force(v, lam0, lam1)
        checked += 1
    report(4, True, "closed form equals brute-force argmin on 1000 random triples, exactly")


# ------------------------------------------------------------- criterion 5


def _inference_instance():
    complex_ = random_complex(20, 0.3, 0.6, 101)
    cand = candidate_set(complex_, 2)
    E = complex_.num_edges
    noise_rng = np.random.default_rng(7)
    sigma_v2 = noise_rng.choice([1e-6, 1e-4, 1e-3, 1e-2], E)
    t_true = cand.true_indicator(complex_)
    filled = np.flatnonzero(t_true)
    t_after = t_true.copy()
    t_after[noise_rng.choice(filled, 4, replace=False)] = 0.0
    return complex_, cand, sigma_v2, t_true, t_after


def _inference_coeffs(rng, magnitude=8.0):
    return FilterCoeffs(
        h_u=rng.uniform(0.8 * magnitude, 1.2 * magnitude, 3),
        h_d=rng.uniform(0.8 * magnitude, 1.2 * magnitude, 2) * rng.choice([-1.0, 1.0], 2),
    )


def test_criterion_5_topology_recovery_and_tracking():
    complex_, cand, sigma_v2, t_true, t_after = _inference_instance()
    E = complex_.num_edges
    ops = hodge_laplacians(complex_)
    sv = 0.001
    switch, horizon = 15000, 20000

    placeholder = FilterCoeffs(h_u=np.ones(3), h_d=np.ones(2))
    moments = moments_closed_form(ops, np.ones(E), sv * np.eye(E), sigma_v2, 2, placeholder)
    theory_db = float(to_db(theory_report(moments.c_X, moments.g, 1e-2).msd_exact))

    recovered = tracked = total = 0
    tail_values = []
    for draw in range(6):
        rng = np.random.default_rng(1000 + draw)
        coeffs = _inference_coeffs(rng)
        result = run_inference(
            cand, coeffs, StreamConfig.white(E, sv, sigma_v2),
            [(0, t_true), (switch, t_after)],
            mu1=1e-2, mu2=1e-2, lam0=0.1, lam1=0.1,
            realizations=5, horizon=horizon, seed=3000 + draw,
        )
        recovered += result.recovery_rate[4999] * result.realizations
        tracked += result.recovery_rate[-1] * result.realizations
        total += result.realizations
        tail_values.append(np.mean(result.h_error[int(0.9 * switch) : switch]))
    recovery_rate = recovered / total
    tracking_rate = tracked / total
    empirical_db = float(to_db(np.mean(tail_values)))
    gap = abs(empirical_db - theory_db)
    ok = recovery_rate >= 0.95 and tracking_rate >= 0.90 and gap <= 1.0
    report(
        5,
        ok,
        f"exact recovery within 5000 iters in {recovery_rate:.0%} of {total} runs "
        f"(>=95%); post-deletion re-convergence {tracking_rate:.0%} (>=90%); "
        f"post-recovery deviation {empirical_db:.2f} dB vs theory {theory_db:.2f} dB",
    )


# ------------------------------------------------------------- criterion 6


def test_criterion_6_indicator_gradient_correctness():
    def numerical(h, t, cand, x_hist, d, y, step=1e-6):
        grad = np.zeros_like(t)
        for j in range(t.size):
            for sign in (+1.0, -1.0):
                tj = t.copy()
                tj[j] += sign * step
                X = regressors_from_t(tj, cand, x_hist)
                r = d * (y - X @ h)
                grad[j] += sign * float(r @ r)
        return grad / (2 * step)

    rng = np.random.default_rng(600)
    worst = 0.0
    checked = 0
    while checked < 100:
        order = int(rng.integers(1, 4))
        complex_ = random_complex(9, 0.55, 0.6, int(rng.integers(10_000)))
        cand = candidate_set(complex_, order)
        if cand.num_candidates == 0:
            continue
        E = complex_.num_edges
        h = 0.5 * rng.standard_normal(2 * order + 1)
        t = rng.uniform(0, 1, cand.num_candidates)
        x_hist = rng.standard_normal((order + 1, E))
        d = (rng.random(E) < 0.8).astype(float)
        y = rng.standard_normal(E)
        analytic = grad_t(h, t, cand, x_hist, d, y)
        reference = numerical(h, t, cand, x_hist, d, y)
        rel = np.linalg.norm(analytic - reference) / max(np.linalg.norm(reference), 1e-8)
        worst = max(worst, rel)
        assert rel < 1e-5
        checked += 1
    report(6, True, f"gradient vs central differences: worst relative error {worst:.2e} < 1e-5")


# ------------------------------------------------------------- criterion 7


def test_criterion_7_distributed_theory_match():
    # stability check across 50 seeded instances
    held = violations = 0
    for seed in range(50):
        complex_ = random_complex(10, 0.55, 0.7, seed)
        if complex_.num_edges < 4 or complex_.num_triangles == 0:
            continue
        ops = hodge_laplacians(complex_)
        E = complex_.num_edges
        noise = np.exp(
            np.random.default_rng(700 + seed).uniform(np.log(1e-7), np.log(1e-5), E)
        )
        comb = build_combination(lower_adjacency_neighborhoods(complex_), "uniform")
        locals_ = local_moment_matrices(ops, np.ones(E), 0.02 * np.eye(E), 1)
        rep = dist_theory(comb, locals_, noise, np.full(E, 1e-2))
        if rep.checks.all_hold():
            held += 1
            if rep.rho_b >= 1.0:
                violations += 1
    assert held >= 30

    # reference 11/15/10 network, order 2, uniform rule, +-1.5 dB
    complex_ = grown_complex(11, 15, 10, seed=0)
    E = complex_.num_edges
    coeffs = FilterCoeffs.random(2, np.random.default_rng(6), scale=0.7)
    sigma_v2 = np.exp(
        np.random.default_rng(701).uniform(np.log(1e-7), np.log(1e-5), E)
    )
    cfg = StreamConfig(c_x=0.1 * np.eye(E), sigma_v2=sigma_v2, p=np.ones(E))
    comb = build_combination(lower_adjacency_neighborhoods(complex_), "uniform")
    result = run_distributed(complex_, coeffs, cfg, comb, 1e-2,
                             realizations=30, horizon=30000, seed=8)
    assert result.theory.checks.all_hold() and result.theory.stable
    empirical_db = float(to_db(tail_average(result.msd)))
    theory_db = float(to_db(result.theory.msd_per_agent))
    gap = abs(empirical_db - theory_db)
    ok = violations == 0 and gap <= 1.5
    report(
        7,
        ok,
        f"stability held on {held} instances with 0 violations; network deviation "
        f"{empirical_db:.2f} dB vs theory {theory_db:.2f} dB (gap {gap:.2f} <= 1.5 dB)",
    )


# ------------------------------------------------------------- criterion 8


def test_criterion_8_structural_invariants():
    rng = np.random.default_rng(800)
    for seed in range(100):
        complex_ = random_complex(11, 0.45, 0.5, 500 + seed)
        ops = hodge_laplacians(complex_)
        assert np.all(complex_.b1 @ complex_.b2 == 0)
        assert np.max(np.abs(ops.upper @ ops.lower)) < 1e-10
        cliques = enumerate_3cliques(complex_)
        candidates = build_incidence(complex_.num_vertices, list(complex_.edges), cliques).b2
        assert np.all(np.count_nonzero(candidates, axis=0) == 3)
        x = rng.standard_normal(complex_.num_edges)
        parts = hodge_decompose(x, complex_)
        assert np.max(np.abs(parts.gradient + parts.curl + parts.harmonic - x)) < 1e-9
        assert abs(parts.gradient @ parts.curl) < 1e-9
        assert abs(parts.gradient @ parts.harmonic) < 1e-9
        assert abs(parts.curl @ parts.harmonic) < 1e-9
        coeffs = sft(x, ops)
        assert abs(np.linalg.norm(coeffs) - np.linalg.norm(x)) < 1e-9
        assert np.max(np.abs(inverse_sft(coeffs, ops) - x)) < 1e-9
    report(8, True, "incidence, Laplacian, decomposition and SFT invariants on 100 complexes")


# ------------------------------------------------------------- criterion 9


def test_criterion_9_baseline_superiority():
    runs = 30
    wins_central = wins_dist = 0
    for seed in range(runs):
        ds = traffic_surrogate(seed=seed, with_upper=True)
        topo = run_ar_training(ds, order=3, mu=1e-4, variant="topo", epochs=30)
        base = run_ar_training(ds, order=3, mu=1e-4,
                               variant="edge-laplacian-baseline", epochs=30)
        wins_central += topo.mean_test_error < base.mean_test_error
        comb = build_combination(lower_adjacency_neighborhoods(ds.complex), "uniform")
        dist_topo = run_distributed_ar(ds, order=2, mu=1e-1, comb=comb,
                                       epochs=30, variant="topo")
        dist_base = run_distributed_ar(ds, order=2, mu=1e-1, comb=comb,
                                       epochs=30, variant="edge-laplacian-baseline")
        wins_dist += dist_topo.mean_test_error < dist_base.mean_test_error
    ok = wins_central >= 0.9 * runs and wins_dist >= 0.9 * runs
    report(
        9,
        ok,
        f"topo beats the edge-Laplacian baseline in {wins_central}/{runs} centralized "
        f"and {wins_dist}/{runs} distributed runs (>=90%)",
    )
