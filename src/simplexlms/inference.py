"""Joint adaptive estimation of filter coefficients and triangle indicators.

The upper Laplacian is parametrised over the 3-cliques of the known
1-skeleton as ``L_u(t) = sum_j t_j b_j b_j^T`` with ``t in [0,1]``. Each
step first refreshes the coefficients with the usual masked LMS update
(built from the regressors of the current ``L_u(t)``), then takes a
gradient step in ``t`` and applies a double hard-threshold proximal map
that pins near-0 entries to 0 and near-1 entries to 1.

Gradient of the instantaneous cost with respect to ``t``: with residual
``r = y - D X(t) h`` the cost is ``||r||^2`` and only the upper columns
depend on ``t``. Using the matrix-power product rule

    d(L^m)/dt_j = sum_{l=0}^{m-1} L^l (b_j b_j^T) L^{m-1-l},

the j-th derivative is

    -2 sum_{m=1}^{M} h_u[m] sum_{l=0}^{m-1}
        (b_j^T L^l D r) * (b_j^T L^{m-1-l} x(n-m)),

which needs only products of the candidate incidence matrix with a few
shifted signals. This derivation is validated against central finite
differences in the test-suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, repeat

import numpy as np

from .complexes import HodgeOperators, SimplicialComplex2, build_incidence, enumerate_3cliques
from .lms import _monte_carlo, lms_step
from .signals import StreamConfig, edge_moment_matrices, generate_stream, regressor_tensor

__all__ = [
    "CandidateSet",
    "InferenceResult",
    "candidate_set",
    "prox_hard_threshold",
    "regressors_from_t",
    "grad_t",
    "infer_step",
    "run_inference",
]


@dataclass
class CandidateSet:
    """Candidate triangles of a 1-skeleton: their triples and operators.

    ``ops`` holds the operators of the complex filled with every 3-clique,
    one ``ops.b2`` column per triple; an indicator ``t`` weights its upper
    Laplacian as ``L_u(t) = b2 diag(t) b2^T``.
    """

    triples: tuple[tuple[int, int, int], ...]
    ops: HodgeOperators
    order: int

    @property
    def num_candidates(self) -> int:
        return self.ops.b2.shape[1]

    def true_indicator(self, complex_: SimplicialComplex2) -> np.ndarray:
        """0/1 vector marking which candidates are filled in ``complex_``."""
        filled = set(complex_.triangles)
        return np.array([1.0 if t in filled else 0.0 for t in self.triples])


def candidate_set(complex_: SimplicialComplex2, order: int) -> CandidateSet:
    """The 3-cliques with the operators of the complex they fill, sharing its ``b1``."""
    cliques = enumerate_3cliques(complex_)
    filled = build_incidence(complex_.num_vertices, list(complex_.edges), cliques)
    return CandidateSet(triples=tuple(cliques),
                        ops=HodgeOperators(skeleton=complex_, filling=filled), order=order)


def _check_threshold_order(lam0: float, lam1: float) -> None:
    if lam0 < 0 or lam1 < 0:
        raise ValueError("attractor weights must be nonnegative")
    if not 1.0 - np.sqrt(2.0 * lam1) > np.sqrt(2.0 * lam0):
        raise ValueError(
            "threshold ordering violated: need 1 - sqrt(2*lam1) > sqrt(2*lam0)"
        )


def prox_hard_threshold(v: np.ndarray, lam0: float, lam1: float) -> np.ndarray:
    """Double hard-threshold: small values snap to 0, large values to 1.

    Input is clipped to [0, 1] first. Values at or below sqrt(2*lam0)
    map to 0, values at or above 1 - sqrt(2*lam1) map to 1, the open
    interval in between is left untouched.
    """
    _check_threshold_order(lam0, lam1)
    v = np.clip(np.asarray(v, dtype=np.float64), 0.0, 1.0)
    low, high = np.sqrt(2.0 * lam0), 1.0 - np.sqrt(2.0 * lam1)
    return np.where(v <= low, 0.0, np.where(v >= high, 1.0, v))


def regressors_from_t(
    t: np.ndarray, cand: CandidateSet, x_hist: np.ndarray
) -> np.ndarray:
    """The regressors of the newest-first history ``x_hist`` under ``L_u(t)``."""
    order = cand.order
    x_hist = np.asarray(x_hist, dtype=np.float64)
    if x_hist.shape != (order + 1, cand.ops.num_edges):
        raise ValueError(
            f"history has shape {x_hist.shape}, expected ({order + 1}, {cand.ops.num_edges})"
        )
    return regressor_tensor(x_hist[::-1], cand.ops, order, t)[0]


def grad_t(
    h: np.ndarray, t: np.ndarray, cand: CandidateSet, x_hist: np.ndarray, d: np.ndarray,
    y: np.ndarray, *, X: np.ndarray | None = None,
) -> np.ndarray:
    """Instantaneous gradient of the masked squared residual w.r.t. ``t``.

    ``x_hist`` is the newest-first signal history, (M+1, E) with row 0
    ``x(n)``, ``d`` the mask and ``y`` the observation of one step. ``X``
    is ``regressors_from_t(t, cand, x_hist)``, for a caller that has built
    it already; it is built here otherwise. With ``B = ops.b2``
    and ``G = ops.l2 = B^T B``, ``B^T L^k v = (G diag(t))^k B^T v``, so
    both factors of each term are iterated in the candidate space.
    """
    order = cand.order
    B = cand.ops.b2
    if t.shape != (B.shape[1],):
        raise ValueError("indicator dimension mismatch")
    if X is None:
        X = regressors_from_t(t, cand, x_hist)
    r_masked = d * (y - X @ h)

    # row 0: B^T (d*r); row m: B^T x(n-m). Power k of all rows at once:
    # w[k] = B^T L^k (d*r) and q[k][m] = B^T L^k x(n-m).
    v = np.vstack([r_masked, x_hist[1:]]) @ B
    iterates = [v]
    for _ in range(order - 1):
        iterates.append((iterates[-1] * t) @ cand.ops.l2)
    grad = np.zeros(B.shape[1])
    for m in range(1, order + 1):
        for l in range(m):
            grad -= 2.0 * h[m] * iterates[l][0] * iterates[m - 1 - l][m]
    return grad


def infer_step(h: np.ndarray, t: np.ndarray, cand: CandidateSet, x_hist: np.ndarray,
               d: np.ndarray, y: np.ndarray, mu1: float, mu2: float, lam0: float,
               lam1: float) -> tuple[np.ndarray, np.ndarray]:
    """One joint update ``(h, t) -> (h, t)``: masked LMS on ``h``, thresholded gradient on ``t``.

    ``x_hist``, ``d`` and ``y`` are one step's data, as for :func:`grad_t`;
    ``mu1`` and ``mu2`` are the step-sizes of ``h`` and ``t``, and ``lam0``
    and ``lam1`` the attractor weights of :func:`prox_hard_threshold`.
    Misordered thresholds or indicators outside [0, 1] raise a ``ValueError``;
    NaN ones pass, and non-finite data or state in give non-finite state out.
    """
    if (t < 0).any() or (t > 1).any():
        raise ValueError("indicators must lie in [0, 1]")
    X = regressors_from_t(t, cand, x_hist)
    h = lms_step(h, mu1, X, d, y)
    g = grad_t(h, t, cand, x_hist, d, y, X=X)
    return h, prox_hard_threshold(t - mu2 * g, lam0, lam1)


@dataclass
class InferenceResult:
    """Per-iteration deviations averaged over realizations."""

    h_error: np.ndarray          # mean ||h_true - h(n)||^2
    t_error: np.ndarray          # mean ||t_true(n) - t(n)||^2
    recovery_rate: np.ndarray    # fraction of runs with t(n) == t_true(n) exactly
    support_size: np.ndarray     # mean number of nonzero indicator entries
    realizations: int
    diverged: list[int]


def run_inference(
    cand: CandidateSet,
    coeffs,
    cfg: StreamConfig,
    schedule: list[tuple[int, np.ndarray]],
    mu1: float,
    mu2: float,
    lam0: float,
    lam1: float,
    realizations: int,
    horizon: int,
    seed: int,
) -> InferenceResult:
    """Monte-Carlo run of the joint recursion with a topology schedule.

    ``schedule`` lists ``(start_iteration, true_indicator)`` segments, the
    first at 0; step ``n`` is observed under the indicator active at ``n``,
    so later entries model topology changes. Each realization starts from
    ``h = 0`` and every indicator at 0.5 and steps on the blocks of
    :func:`.signals.generate_stream` on the candidates' operators under
    ``schedule``, through :func:`.lms._monte_carlo`; ``cfg`` and ``seed``
    are as for :func:`.lms.run_experiment`. A signal scale whose moments
    overflow on the complex of all candidates, or a bad schedule, raises a
    ``ValueError`` before any step.
    """
    order = cand.order
    h_true = coeffs.flatten()
    _check_threshold_order(lam0, lam1)

    # every indicator in [0, 1] weights the triangles of this complex
    edge_moment_matrices(cand.ops, cfg.c_x, order)

    def block_steps(b):  # each step's newest-first history, mask, observation, true indicator
        hists = (b.x[j : j + order + 1][::-1] for j in range(b.y.shape[0]))
        return zip(hists, b.d, b.y, repeat(b.weights))

    def walk(seed_r: int):
        blocks = generate_stream(coeffs, cand.ops, cfg, horizon, seed_r, schedule)
        first = (np.zeros(h_true.size), np.full(cand.num_candidates, 0.5),
                 np.asarray(schedule[0][1], dtype=np.float64))
        states = accumulate(chain.from_iterable(map(block_steps, blocks)), lambda state, s: (
            *infer_step(*state[:2], cand, *s[:3], mu1, mu2, lam0, lam1), s[3]), initial=first)
        return map(np.concatenate, states)

    def measure(states: np.ndarray):
        h, t, t_true = np.split(states, [h_true.size, h_true.size + cand.num_candidates], axis=1)
        return np.column_stack((np.sum((h_true - h) ** 2, axis=1),
                                np.sum((t_true - t) ** 2, axis=1),
                                (t == t_true).all(axis=1), np.count_nonzero(t, axis=1)))

    means, kept, diverged = _monte_carlo(seed, realizations, horizon, walk, measure)
    h_error, t_error, recovery, support = means.T
    return InferenceResult(h_error=h_error, t_error=t_error, recovery_rate=recovery,
                           support_size=support, realizations=kept, diverged=diverged)
