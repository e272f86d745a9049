"""Design of edge sampling probabilities under performance constraints.

The design problem minimises the expected sampling rate ``sum(p)`` over
the box ``0 <= p <= p_max`` subject to

    (b)  lambda_min(c_X(p)) >= r = (1 - alpha) / (2 mu)         (rate target)
    (c)  Tr(g(p)) <= f * lambda_min(c_X(p)),  f = 2 gamma / mu  (deviation budget)

where both moment maps are linear in ``p``:
``c_X(p) = sum_i p_i Z_i`` and ``g(p) = sum_i p_i sigma_v2_i Z_i`` with
``Z_i`` the per-edge regressor moments, so ``Tr(g(p)) = a^T p`` with
``a_i = sigma_v2_i Tr(Z_i)``.

Constraint (c) is scale invariant and (b) scales linearly, so a feasible
point with ``lambda_min > r`` scaled down onto the floor stays feasible
and costs less. The optimum therefore has ``lambda_min = r``, and it is
the optimum of

    min 1^T p  s.t.  u^T c_X(p) u >= r for every unit vector u,
                     a^T p <= f r,  0 <= p <= p_max.

Each ``u`` gives one linear cut. The solver runs Kelley's cutting planes
(Kelley 1960): a bounded-variable two-phase simplex solves the LP over
finitely many cuts, and the eigenvectors of ``c_X(p)`` below the floor
join them until the LP point meets it. The LP is a relaxation, so its
value is a lower bound that the returned point attains, and an
infeasible LP proves the design problem infeasible.
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

# pivot, pricing and phase-1 tolerance of the simplex; every LP row is
# scaled to a unit right-hand side, so it is relative to the targets
_LP_TOL = 1e-9


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
        # written so that NaN fails every check
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not (self.gamma > 0 and self.mu > 0):
            raise ValueError("gamma and mu must be positive")
        if not np.all((0 <= self.p_max) & (self.p_max <= 1)):
            raise ValueError("p_max must lie in [0, 1]")
        if not np.all(np.isfinite(self.basis)):
            raise ValueError("the moment basis must be finite")

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

    @property
    def noise_weights(self) -> np.ndarray:
        """Per-edge weights ``a_i = sigma_v2_i Tr(Z_i)``, so Tr(g(p)) = a^T p."""
        return self.sigma_v2 * np.trace(self.basis, axis1=1, axis2=2)


@dataclass
class ConstraintSlacks:
    """Signed slacks; nonnegative means satisfied.

    :meth:`feasible` measures the rate and budget slacks relative to their
    targets ``r`` and ``f r``, as the LP rows are, so that a verdict does
    not depend on the problem's units; the box slacks are probabilities.
    """

    rate: float
    budget: float
    box_lower: float
    box_upper: float
    rate_target: float
    budget_target: float

    def feasible(self, tol: float = 1e-6) -> bool:
        return min(self.rate / self.rate_target, self.budget / self.budget_target,
                   self.box_lower, self.box_upper) >= -tol


@dataclass
class SamplingSolution:
    p_star: np.ndarray
    objective: float
    slacks: ConstraintSlacks
    iterations: int
    converged: bool

    def support(self, threshold: float = 1e-6) -> np.ndarray:
        return np.flatnonzero(self.p_star > threshold)


def check_constraints(p: np.ndarray, prob: SamplingProblem) -> ConstraintSlacks:
    """Slack report for one candidate probability vector."""
    p = np.asarray(p, dtype=np.float64)
    lam_min = float(np.linalg.eigvalsh(prob.moment(p))[0])
    rate = lam_min - prob.rate_threshold
    budget = prob.budget_factor * lam_min - float(prob.noise_weights @ p)
    return ConstraintSlacks(
        rate=rate,
        budget=budget,
        box_lower=float(np.min(p)),
        box_upper=float(np.min(prob.p_max - p)),
        rate_target=prob.rate_threshold,
        budget_target=prob.budget_factor * prob.rate_threshold,
    )


class _CutLP:
    """The design LP over a growing set of cuts, by bounded-variable simplex.

    Columns are ``p``, the budget slack, then a surplus and an artificial
    per cut; every row is scaled to a unit right-hand side. The tableau
    ``T = [B^-1 A | B^-1 b]`` holds the basis ``basis``; a nonbasic
    variable sits at its upper bound where ``at_upper`` is set, at 0
    otherwise. New cuts join in the current basis with their artificials
    basic, so each round starts from the last round's optimum.
    """

    def __init__(self, prob: SamplingProblem):
        E, self.prob = prob.num_edges, prob
        budget_row = prob.noise_weights / (prob.budget_factor * prob.rate_threshold)
        self.T = np.r_[budget_row, 1.0, 1.0][None, :]
        self.basis = np.array([E])
        self.at_upper = np.zeros(E + 1, dtype=bool)
        self.upper = np.r_[prob.p_max, np.inf]
        self.artificial = np.zeros(E + 1, dtype=bool)
        self.pivots = 0  # bound flips included

    def add_cuts(self, cuts: np.ndarray) -> None:
        """Append the rows ``u^T c_X(p) u >= r`` for the rows ``u`` of ``cuts``."""
        prob, K = self.prob, len(cuts)
        m, n = self.T.shape[0], self.T.shape[1] - 1
        rows = np.zeros((K, n + 2 * K + 1))
        moments = np.einsum("ka,iab,kb->ki", cuts, prob.basis, cuts, optimize=True)
        rows[:, :prob.num_edges] = moments / prob.rate_threshold
        rows[:, n:n + K] = -np.eye(K)
        rows[:, n + K:-1] = np.eye(K)
        rows[:, -1] = 1.0
        T = np.hstack([self.T[:, :-1], np.zeros((m, 2 * K)), self.T[:, -1:]])
        rows -= rows[:, self.basis] @ T
        self.T = np.vstack([T, rows])
        self.basis = np.r_[self.basis, np.arange(n + K, n + 2 * K)]
        self.at_upper = np.r_[self.at_upper, np.zeros(2 * K, dtype=bool)]
        self.upper = np.r_[self.upper, np.full(2 * K, np.inf)]
        self.artificial = np.r_[self.artificial, np.zeros(K, dtype=bool), np.ones(K, dtype=bool)]

    def values(self) -> np.ndarray:
        """The basic solution: every nonbasic variable sits at a bound."""
        at_upper, upper = self.at_upper, self.upper
        x = np.where(at_upper, upper, 0.0)
        x[self.basis] = self.T[:, -1] - self.T[:, :-1][:, at_upper] @ upper[at_upper]
        return x

    def solve(self, max_pivots: int) -> bool:
        """Two-phase simplex until ``pivots`` reaches ``max_pivots``; True at the optimum.

        Raises :class:`InfeasibleProblemError` if phase 1 proves the LP infeasible.
        """
        phase1 = self.artificial.astype(np.float64)
        if not self._minimise(phase1, max_pivots):
            return False
        residual = float(phase1 @ self.values())
        if residual > _LP_TOL:
            raise InfeasibleProblemError(
                "the rate floor and the deviation budget cannot both hold: the "
                f"cut LP is infeasible (phase-1 residual {residual:.3e})"
            )
        # artificials left basic at zero must stay there
        self.upper[self.artificial] = 0.0
        cost = (np.arange(self.upper.size) < self.prob.num_edges).astype(np.float64)
        return self._minimise(cost, max_pivots)

    def _minimise(self, cost: np.ndarray, max_pivots: int) -> bool:
        """Pivot towards the minimum of ``cost @ x``; True once it is reached.

        A variable with upper bound 0 never moves. Pricing is Dantzig's
        rule, and Bland's smallest-index rule, which cannot cycle, after
        every degenerate pivot.
        """
        T, basis, at_upper, upper = self.T, self.basis, self.at_upper, self.upper
        degenerate = False
        while self.pivots < max_pivots:
            x_basic = self.values()[basis]
            reduced = cost - cost[basis] @ T[:, :-1]
            # objective decrease per unit move away from the current bound
            gain = np.where(at_upper, reduced, -reduced)
            gain[upper <= 0.0] = 0.0
            eligible = gain > _LP_TOL
            if not eligible.any():
                return True
            bland = degenerate
            j = int(np.argmax(eligible)) if bland else int(np.argmax(gain))
            # basic values fall by alpha per unit step of x_j
            alpha = -T[:, j] if at_upper[j] else T[:, j]
            limit = np.full(alpha.size, np.inf)
            down, up = alpha > _LP_TOL, alpha < -_LP_TOL
            limit[down] = x_basic[down] / alpha[down]
            limit[up] = (upper[basis[up]] - x_basic[up]) / -alpha[up]
            np.maximum(limit, 0.0, out=limit)
            step = float(limit.min())
            self.pivots += 1
            degenerate = min(step, upper[j]) <= _LP_TOL
            if upper[j] <= step:
                at_upper[j] = not at_upper[j]
                continue
            ties = np.flatnonzero(limit == step)
            r = ties[np.argmin(basis[ties])] if bland else ties[np.argmax(np.abs(alpha[ties]))]
            at_upper[basis[r]] = alpha[r] < 0
            at_upper[j] = False
            T[r] /= T[r, j]
            others = np.arange(len(T)) != r
            T[others] -= np.outer(T[others, j], T[r])
            basis[r] = j
        return False


def solve_sampling(
    prob: SamplingProblem, tol: float = 1e-6, max_iter: int = 2000
) -> SamplingSolution:
    """Minimise the sampling rate subject to the rate and budget targets.

    The cuts start as the unit vectors and the eigenvectors of
    ``c_X(p_max)``; while the LP point misses a constraint by more than
    ``tol`` (relative to its target, see :class:`ConstraintSlacks`), the
    eigenvectors of ``c_X(p)`` below the floor join them. ``max_iter``
    caps the simplex pivots of all rounds; ``iterations`` counts them.
    ``converged`` means certified: the point meets every constraint
    within ``tol`` and ``objective``, the LP value, is a lower bound on
    the optimum. If the cap comes first, or a round leaves the point in
    place, the last LP point is returned unconverged with its true
    slacks.

    Infeasibility is proved: the rate constraint is monotone in ``p``
    (each ``Z_i`` is PSD), so it is tested at ``p_max`` first, and an
    infeasible cut LP, a relaxation, proves the rest.
    """
    slack_at_max = check_constraints(prob.p_max, prob)
    if slack_at_max.rate < -tol * prob.rate_threshold:
        raise InfeasibleProblemError(
            f"rate constraint infeasible: lambda_min at p_max falls short by "
            f"{-slack_at_max.rate:.3e}"
        )
    dim = prob.basis.shape[1]
    cuts = np.vstack([np.eye(dim), np.linalg.eigh(prob.moment(prob.p_max))[1].T])
    lp, p = _CutLP(prob), None
    while True:
        lp.add_cuts(cuts)
        optimal, last = lp.solve(max_iter), p
        if optimal or p is None:
            p = np.clip(lp.values()[:prob.num_edges], 0.0, prob.p_max)
        slacks = check_constraints(p, prob)
        # cuts that left the point in place cannot move it in a later round either
        if not optimal or slacks.feasible(tol) or np.array_equal(p, last):
            break
        lam, vecs = np.linalg.eigh(prob.moment(p))
        cuts = vecs[:, lam < prob.rate_threshold].T
    return SamplingSolution(
        p_star=p,
        objective=float(np.sum(p)),
        slacks=slacks,
        iterations=lp.pivots,
        converged=optimal and slacks.feasible(tol),
    )
