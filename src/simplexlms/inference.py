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

import numpy as np

from .complexes import HodgeOperators, SimplicialComplex2, build_incidence, enumerate_3cliques
from .errors import DivergenceError
from .lms import LmsState, _monte_carlo, lms_step
from .signals import (StreamConfig, _block_stops, _draw, _history_walk, edge_moment_matrices,
                      regressor_tensor)

__all__ = [
    "CandidateSet",
    "TopologyState",
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


@dataclass
class TopologyState:
    """Joint estimate: coefficients ``h``, indicators ``t``, both step-sizes."""

    h: np.ndarray
    t: np.ndarray
    mu1: float
    mu2: float
    lam0: float
    lam1: float
    n: int = 0

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=np.float64)
        self.t = np.asarray(self.t, dtype=np.float64)
        _check_threshold_order(self.lam0, self.lam1)
        if np.any(self.t < 0) or np.any(self.t > 1):
            raise ValueError("indicators must lie in [0, 1]")


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
    return _hard_threshold(np.clip(np.asarray(v, dtype=np.float64), 0.0, 1.0), lam0, lam1)


def _hard_threshold(v: np.ndarray, lam0: float, lam1: float) -> np.ndarray:
    # the map of prox_hard_threshold on v in [0, 1], with thresholds already checked
    low = np.sqrt(2.0 * lam0)
    high = 1.0 - np.sqrt(2.0 * lam1)
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


def infer_step(state: TopologyState, cand: CandidateSet, x_hist: np.ndarray, d: np.ndarray,
               y: np.ndarray) -> TopologyState:
    """One joint update: masked LMS on ``h``, thresholded gradient on ``t``.

    ``x_hist``, ``d`` and ``y`` are one step's data, as for :func:`grad_t`.
    ``state`` was checked when it was constructed; the step keeps ``t`` in
    [0, 1] and the thresholds unchanged, so the new state is not checked
    again.
    """
    X = regressors_from_t(state.t, cand, x_hist)
    lms = lms_step(LmsState(h=state.h, mu=state.mu1, n=state.n), X, d, y)
    g = grad_t(lms.h, state.t, cand, x_hist, d, y, X=X)
    t_pre = np.clip(state.t - state.mu2 * g, 0.0, 1.0)
    t_new = _hard_threshold(t_pre, state.lam0, state.lam1)
    if not np.all(np.isfinite(t_new)):
        raise DivergenceError(f"non-finite indicators at iteration {state.n + 1}")
    new = object.__new__(TopologyState)
    new.__dict__.update(vars(state), h=lms.h, t=t_new, n=state.n + 1)
    return new


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

    ``schedule`` lists ``(start_iteration, true_indicator)`` segments,
    first entry starting at 0; observations at step ``n`` are generated
    with the indicator active at ``n``, so mid-stream entries model
    topology changes. Each realization starts from ``h = 0`` and every
    indicator at 0.5. ``cfg`` gives the signal covariance, noise
    variances and sampling probabilities, and ``seed`` the master seed,
    as for :func:`.lms.run_experiment`. Each realization's draws are those
    of a stream of ``order`` history rows and ``horizon`` steps, made
    block by block at the row bounds :func:`.signals.generate_stream`
    uses and walked with the same history carry
    (:func:`.signals._history_walk`), so memory does not grow with the
    horizon. Realizations run through the Monte-Carlo engine,
    :func:`.lms._monte_carlo`. A signal scale whose moments overflow on
    the complex of all candidates raises a ``ValueError`` before any step.
    """
    order = cand.order
    h_true = coeffs.flatten()
    if not schedule or schedule[0][0] != 0:
        raise ValueError("schedule must start at iteration 0")

    # every indicator in [0, 1] weights the triangles of this complex
    edge_moment_matrices(cand.ops, cfg.c_x, order)

    def run_one(seed_r: int) -> np.ndarray:
        traj = np.empty((4, horizon + 1))
        state = TopologyState(h=np.zeros(h_true.size), t=np.full(cand.num_candidates, 0.5),
                              mu1=mu1, mu2=mu2, lam0=lam0, lam1=lam1)
        seg = 0
        t_true = np.asarray(schedule[0][1], dtype=np.float64)

        def record(k: int) -> None:
            traj[:, k] = (np.sum((h_true - state.h) ** 2), np.sum((t_true - state.t) ** 2),
                          float(np.array_equal(state.t, t_true)), float(np.count_nonzero(state.t)))

        record(0)
        draws = _draw(cfg, seed_r, _block_stops(cand.ops.num_edges, order, horizon))
        for start, window, x, v, d in _history_walk(draws, order, order, next(draws)[0]):
            for j in range(x.shape[0]):
                k = start + j - order
                if seg + 1 < len(schedule) and k >= schedule[seg + 1][0]:
                    seg += 1
                    t_true = np.asarray(schedule[seg][1], dtype=np.float64)
                hist = window[j : j + order + 1][::-1]
                X_true = regressors_from_t(t_true, cand, hist)
                y = d[j] * (X_true @ h_true + v[j])
                state = infer_step(state, cand, hist, d[j], y)
                record(k + 1)
        return traj

    means, kept, diverged = _monte_carlo(seed, realizations, run_one)
    h_error, t_error, recovery, support = means
    return InferenceResult(h_error=h_error, t_error=t_error, recovery_rate=recovery,
                           support_size=support, realizations=kept, diverged=diverged)
