"""Design of edge sampling probabilities under performance constraints.

The design problem minimises the expected sampling rate ``sum(p)`` over
the box ``0 <= p <= p_max`` subject to

    (b)  lambda_min(c_X(p)) >= (1 - alpha) / (2 mu)      (rate target)
    (c)  Tr(g(p)) <= (2 gamma / mu) * lambda_min(c_X(p)) (deviation budget)

where both moment maps are linear in ``p``:
``c_X(p) = sum_i p_i Z_i`` and ``g(p) = sum_i p_i sigma_v2_i Z_i`` with
``Z_i`` the per-edge regressor moments. ``lambda_min`` of a linear
matrix map is concave, so the feasible set is convex.

Two structural facts drive the solver:

* Constraint (c) is scale invariant: both sides are linear in ``p``, so
  it holds for ``s * p`` (s > 0) iff it holds for ``p``.
* Constraint (b) scales linearly, so any point that is feasible for (c)
  can be rescaled onto the (b) boundary, where the optimum lives.

The solver runs a projected subgradient method on an exact-penalty
objective and extracts a rescaled feasible candidate from every iterate,
keeping the best. On one-edge problems the rescaling alone is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import HodgeOperators
from .errors import InfeasibleProblemError
from .signals import edge_moment_matrices

__all__ = [
    "SamplingProblem",
    "ConstraintSlacks",
    "SamplingSolution",
    "check_constraints",
    "solve_sampling",
]

_CROSSING_TOL = 1e-9
# relative margin an objective must win by to replace the incumbent
_TIE_RTOL = 1e-9


@dataclass
class SamplingProblem:
    """Moment basis plus the design targets (step-size, rate, budget)."""

    mu: float
    alpha: float
    gamma: float
    p_max: np.ndarray
    basis: np.ndarray        # (E, dim, dim) per-edge moments Z_i
    sigma_v2: np.ndarray

    def __post_init__(self):
        self.p_max = np.asarray(self.p_max, dtype=np.float64)
        self.basis = np.asarray(self.basis, dtype=np.float64)
        self.sigma_v2 = np.asarray(self.sigma_v2, dtype=np.float64)
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.gamma <= 0 or self.mu <= 0:
            raise ValueError("gamma and mu must be positive")
        if np.any(self.p_max < 0) or np.any(self.p_max > 1):
            raise ValueError("p_max must lie in [0, 1]")

    @classmethod
    def from_moments(
        cls,
        ops: HodgeOperators,
        c_x: np.ndarray | float,
        sigma_v2: np.ndarray,
        order: int,
        mu: float,
        alpha: float,
        gamma: float,
        p_max: np.ndarray | float = 1.0,
    ) -> "SamplingProblem":
        E = ops.num_edges
        p_max_vec = np.broadcast_to(np.asarray(p_max, dtype=np.float64), (E,)).copy()
        return cls(
            mu=mu,
            alpha=alpha,
            gamma=gamma,
            p_max=p_max_vec,
            basis=edge_moment_matrices(ops, c_x, order),
            sigma_v2=np.asarray(sigma_v2, dtype=np.float64),
        )

    @property
    def num_edges(self) -> int:
        return self.p_max.size

    @property
    def rate_threshold(self) -> float:
        """Required lambda_min of the moment matrix: (1 - alpha) / (2 mu)."""
        return (1.0 - self.alpha) / (2.0 * self.mu)

    @property
    def budget_factor(self) -> float:
        """Multiplier 2 gamma / mu on lambda_min in the deviation budget."""
        return 2.0 * self.gamma / self.mu

    def moment(self, p: np.ndarray) -> np.ndarray:
        return np.tensordot(np.asarray(p, dtype=np.float64), self.basis, axes=1)

    def noise_moment(self, p: np.ndarray) -> np.ndarray:
        weights = np.asarray(p, dtype=np.float64) * self.sigma_v2
        return np.tensordot(weights, self.basis, axes=1)

    def noise_trace(self, p: np.ndarray) -> float:
        traces = np.trace(self.basis, axis1=1, axis2=2)
        return float(np.sum(np.asarray(p) * self.sigma_v2 * traces))


@dataclass
class ConstraintSlacks:
    """Signed slacks; nonnegative means satisfied."""

    rate: float
    budget: float
    box_lower: float
    box_upper: float

    def feasible(self, tol: float = 1e-6) -> bool:
        return min(self.rate, self.budget, self.box_lower, self.box_upper) >= -tol


@dataclass
class SamplingSolution:
    p_star: np.ndarray
    objective: float
    slacks: ConstraintSlacks
    iterations: int
    converged: bool

    def support(self, threshold: float = 1e-6) -> np.ndarray:
        return np.flatnonzero(self.p_star > threshold)


def _lambda_min_and_subgradient(
    prob: SamplingProblem, p: np.ndarray
) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue of c_X(p) and a subgradient of p -> lambda_min.

    Each eigenvector u contributes the gradient u^T Z_i u per edge; near
    eigenvalue crossings the contributions of all crossing eigenvectors
    are averaged.
    """
    c = prob.moment(p)
    lam, vecs = np.linalg.eigh(c)
    crossing = np.flatnonzero(lam <= lam[0] + _CROSSING_TOL)
    U = vecs[:, crossing]
    # grad_i = mean_j u_j^T Z_i u_j
    grads = np.einsum("aj,iab,bj->i", U, prob.basis, U) / crossing.size
    return float(lam[0]), grads


def check_constraints(p: np.ndarray, prob: SamplingProblem) -> ConstraintSlacks:
    """Slack report for one candidate probability vector."""
    p = np.asarray(p, dtype=np.float64)
    lam_min = float(np.linalg.eigvalsh(prob.moment(p))[0])
    rate = lam_min - prob.rate_threshold
    budget = prob.budget_factor * lam_min - prob.noise_trace(p)
    return ConstraintSlacks(
        rate=rate,
        budget=budget,
        box_lower=float(np.min(p)),
        box_upper=float(np.min(prob.p_max - p)),
    )


def _rescaled_candidate(
    prob: SamplingProblem, p: np.ndarray, tol: float
) -> np.ndarray | None:
    """Scale ``p`` onto the rate boundary if the result stays feasible."""
    threshold = prob.rate_threshold
    if threshold <= 0.0:
        return np.zeros_like(p)
    lam_min = float(np.linalg.eigvalsh(prob.moment(p))[0])
    if lam_min <= 0.0:
        return None
    scale = threshold / lam_min * (1.0 + 1e-12)
    # budget feasibility is decided by the direction of p, but its slack
    # scales with p, so evaluate it at the rescaled point
    budget_slack = scale * (prob.budget_factor * lam_min - prob.noise_trace(p))
    if budget_slack < -tol * max(1.0, threshold):
        return None
    candidate = scale * p
    if np.any(candidate > prob.p_max + 1e-15):
        return None
    return np.minimum(candidate, prob.p_max)


def _beats(obj: float, incumbent: float) -> bool:
    """True if ``obj`` improves on ``incumbent`` by more than fp noise.

    Objectives within a relative ``_TIE_RTOL`` of the incumbent tie and
    keep it. An infinite incumbent (nothing found yet) loses to any
    finite objective.
    """
    if np.isinf(incumbent):
        return obj < incumbent
    return obj < incumbent - _TIE_RTOL * max(1.0, abs(incumbent))


def _noise_ordered_sweep(prob: SamplingProblem, tol: float) -> np.ndarray | None:
    """Best feasible point of the form ``min(s * prefix, p_max)``.

    Prefixes follow ascending noise variance; for each prefix size the
    smallest scale meeting the rate floor is found by bisection (the
    floor is monotone in the scale). Saturated-box prefixes model the
    demanding-rate regime where clean edges alone cannot carry the
    floor. Returns the cheapest candidate that also meets the budget.

    Ties go to the earliest (sparsest) prefix: a later prefix replaces
    the incumbent only if it is cheaper by more than a relative
    ``_TIE_RTOL``, so bisection rounding cannot pick a denser design.
    This keeps the sweep's support non-increasing as the rate floor
    ``r`` is relaxed: prefix ``c`` costs ``r * P_c / lambda_c`` (``P_c``
    its saturated mass, ``lambda_c`` its saturated ``lambda_min``), the
    prefixes that reach the floor are those with ``c >= c_min(r)``, and
    ``c_min`` can only fall with ``r``, so the earliest minimiser can only
    move to an earlier prefix.
    """
    E = prob.num_edges
    threshold = prob.rate_threshold
    if threshold <= 0.0:
        return np.zeros(E)
    order = np.argsort(prob.sigma_v2, kind="stable")
    best: np.ndarray | None = None
    best_obj = np.inf

    def rate_ok(p: np.ndarray) -> bool:
        return float(np.linalg.eigvalsh(prob.moment(p))[0]) >= threshold

    for count in range(1, E + 1):
        direction = np.zeros(E)
        direction[order[:count]] = prob.p_max[order[:count]]
        if not rate_ok(direction):
            continue  # even the saturated prefix misses the floor
        lo, hi = 0.0, 1.0
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if rate_ok(mid * direction):
                hi = mid
            else:
                lo = mid
        candidate = hi * direction
        obj = float(np.sum(candidate))
        if not _beats(obj, best_obj):
            continue
        slacks = check_constraints(candidate, prob)
        if slacks.budget >= -tol * max(1.0, threshold) and slacks.rate >= -1e-12:
            best_obj = obj
            best = candidate
    return best


def solve_sampling(
    prob: SamplingProblem,
    tol: float = 1e-6,
    max_iter: int = 2000,
    num_starts: int = 4,
    seed: int = 0,
    extra_start: np.ndarray | None = None,
) -> SamplingSolution:
    """Minimise the sampling rate subject to the rate and budget targets.

    Infeasibility is decided at ``p = p_max``: the rate constraint is
    monotone in ``p`` (the per-edge moments are PSD), so if it fails
    there it fails everywhere. A budget violation at ``p_max`` is only a
    heuristic alarm because feasibility depends on the direction of
    ``p``; the solver still searches from randomised starts.

    ``extra_start`` warm-starts the search, e.g. with the solution of a
    neighbouring target (continuation over the rate parameter); its
    rescaled version also enters the candidate pool directly.

    A candidate replaces the incumbent only if it is cheaper by more than
    a relative ``_TIE_RTOL``, so ties keep the sweep's design (or a
    sparser warm start). Beyond that and the sweep's own tie rule, which
    of several tied optima is returned is unspecified.
    """
    E = prob.num_edges
    p_max = prob.p_max
    slack_at_max = check_constraints(p_max, prob)
    if slack_at_max.rate < -tol:
        raise InfeasibleProblemError(
            f"rate constraint infeasible: lambda_min at p_max falls short by "
            f"{-slack_at_max.rate:.3e}"
        )
    budget_suspect = slack_at_max.budget < -tol

    rng = np.random.default_rng(seed)
    starts = [p_max.copy()]
    sweep_best = _noise_ordered_sweep(prob, tol)
    sweep_obj = float(np.sum(sweep_best)) if sweep_best is not None else np.inf
    if sweep_best is not None:
        starts.append(sweep_best.copy())
    if extra_start is not None:
        warm = np.clip(np.asarray(extra_start, dtype=np.float64), 0.0, p_max)
        candidate = _rescaled_candidate(prob, warm, tol)
        if candidate is not None:
            # near-equal objectives (rate rescaling makes many directions
            # tie exactly): prefer the sparser candidate, then the warm one
            warm_obj = float(np.sum(candidate))
            # an empty sweep (sweep_obj = inf) is beaten outright
            if _beats(warm_obj, sweep_obj) or (
                not _beats(sweep_obj, warm_obj)
                and np.count_nonzero(candidate > 1e-12)
                <= np.count_nonzero(sweep_best > 1e-12)
            ):
                sweep_best = candidate
                sweep_obj = warm_obj
        starts.insert(0, warm)
    for _ in range(num_starts - 1):
        starts.append(p_max * rng.uniform(0.2, 1.0, size=E))

    traces = np.trace(prob.basis, axis1=1, axis2=2)
    budget_grad_linear = prob.sigma_v2 * traces
    threshold = prob.rate_threshold
    factor = prob.budget_factor

    best_p: np.ndarray | None = sweep_best
    best_obj = sweep_obj
    iterations_used = 0
    improved_late = False

    for start in starts:
        p = start.copy()
        # penalty weight large enough to dominate the unit objective slope
        kappa = 10.0 * E
        step_scale = 0.05 * float(np.max(p_max)) if np.max(p_max) > 0 else 0.0
        for k in range(1, max_iter + 1):
            iterations_used += 1
            candidate = _rescaled_candidate(prob, p, tol)
            if candidate is not None:
                obj = float(np.sum(candidate))
                # require a real improvement so that fp-level ties keep
                # the incumbent (sweep or warm start) deterministically
                if _beats(obj, best_obj):
                    if k > max_iter // 2:
                        improved_late = True
                    best_obj = obj
                    best_p = candidate
            lam_min, lam_grad = _lambda_min_and_subgradient(prob, p)
            grad = np.ones(E)
            if lam_min < threshold:
                grad -= kappa * lam_grad
            if prob.noise_trace(p) > factor * lam_min:
                grad += kappa * (budget_grad_linear - factor * lam_grad)
            norm = float(np.max(np.abs(grad)))
            if norm == 0.0:
                break
            p = np.clip(p - (step_scale / np.sqrt(k)) * grad / norm, 0.0, p_max)

    if best_p is None:
        raise InfeasibleProblemError(
            "no feasible point found"
            + (" (deviation budget appears infeasible)" if budget_suspect else "")
        )
    slacks = check_constraints(best_p, prob)
    converged = slacks.feasible(tol) and not improved_late
    return SamplingSolution(
        p_star=best_p,
        objective=float(np.sum(best_p)),
        slacks=slacks,
        iterations=iterations_used,
        converged=converged,
    )
