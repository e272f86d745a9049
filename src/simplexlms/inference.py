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

from dataclasses import dataclass, replace

import numpy as np

from .complexes import (
    SimplicialComplex2,
    enumerate_3cliques,
    hodge_laplacians,
    laplacian_powers,
)
from .errors import DivergenceError
from .lms import LmsState, _monte_carlo, lms_step
from .signals import StreamConfig, _draw

__all__ = [
    "CandidateSet",
    "TopologyState",
    "Observation",
    "InferenceResult",
    "candidate_set",
    "param_upper_laplacian",
    "prox_hard_threshold",
    "regressors_from_t",
    "grad_t",
    "infer_step",
    "run_inference",
]


@dataclass
class CandidateSet:
    """Candidate triangles of a 1-skeleton: triples and incidence columns."""

    triples: tuple[tuple[int, int, int], ...]
    b_matrix: np.ndarray        # (E, T_max) signed incidence columns
    ld_powers: tuple[np.ndarray, ...]
    order: int

    @property
    def num_candidates(self) -> int:
        return self.b_matrix.shape[1]

    @property
    def num_edges(self) -> int:
        return self.b_matrix.shape[0]

    def true_indicator(self, complex_: SimplicialComplex2) -> np.ndarray:
        """0/1 vector marking which candidates are filled in ``complex_``."""
        filled = set(complex_.triangles)
        return np.array([1.0 if t in filled else 0.0 for t in self.triples])


def candidate_set(complex_: SimplicialComplex2, order: int) -> CandidateSet:
    """Enumerate candidates and cache the fixed lower-Laplacian powers."""
    cliques = enumerate_3cliques(complex_)
    if cliques:
        b_matrix = np.stack([b for _, b in cliques], axis=1)
    else:
        b_matrix = np.zeros((complex_.num_edges, 0))
    ops = hodge_laplacians(complex_)
    _, lo = laplacian_powers(ops, order)
    return CandidateSet(
        triples=tuple(t for t, _ in cliques),
        b_matrix=b_matrix,
        ld_powers=tuple(lo),
        order=order,
    )


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


@dataclass
class Observation:
    """One time-step of data: newest-first signal history, mask, observation."""

    x_hist: np.ndarray          # (M+1, E), row 0 is x(n)
    d: np.ndarray
    y: np.ndarray


def _check_threshold_order(lam0: float, lam1: float) -> None:
    if lam0 < 0 or lam1 < 0:
        raise ValueError("attractor weights must be nonnegative")
    if not 1.0 - np.sqrt(2.0 * lam1) > np.sqrt(2.0 * lam0):
        raise ValueError(
            "threshold ordering violated: need 1 - sqrt(2*lam1) > sqrt(2*lam0)"
        )


def param_upper_laplacian(t: np.ndarray, b_matrix: np.ndarray) -> np.ndarray:
    """Upper Laplacian of the weighted candidate set, ``sum_j t_j b_j b_j^T``."""
    t = np.asarray(t, dtype=np.float64)
    if t.shape != (b_matrix.shape[1],):
        raise ValueError(
            f"indicator vector has shape {t.shape}, expected ({b_matrix.shape[1]},)"
        )
    return (b_matrix * t) @ b_matrix.T


def prox_hard_threshold(v: np.ndarray, lam0: float, lam1: float) -> np.ndarray:
    """Double hard-threshold: small values snap to 0, large values to 1.

    Input is clipped to [0, 1] first. Values at or below sqrt(2*lam0)
    map to 0, values at or above 1 - sqrt(2*lam1) map to 1, the open
    interval in between is left untouched.
    """
    _check_threshold_order(lam0, lam1)
    v = np.clip(np.asarray(v, dtype=np.float64), 0.0, 1.0)
    low = np.sqrt(2.0 * lam0)
    high = 1.0 - np.sqrt(2.0 * lam1)
    return np.where(v <= low, 0.0, np.where(v >= high, 1.0, v))


def _upper_apply(t: np.ndarray, b_matrix: np.ndarray, vec: np.ndarray) -> np.ndarray:
    # L_u(t) v without forming the E x E matrix
    return b_matrix @ (t * (b_matrix.T @ vec))


def regressors_from_t(
    t: np.ndarray, cand: CandidateSet, x_hist: np.ndarray
) -> np.ndarray:
    """Regressor matrix built from the weighted candidate upper Laplacian."""
    order = cand.order
    x_hist = np.asarray(x_hist, dtype=np.float64)
    if x_hist.shape != (order + 1, cand.num_edges):
        raise ValueError(
            f"history has shape {x_hist.shape}, expected ({order + 1}, {cand.num_edges})"
        )
    cols = [x_hist[0]]
    for m in range(1, order + 1):
        vec = x_hist[m]
        for _ in range(m):
            vec = _upper_apply(t, cand.b_matrix, vec)
        cols.append(vec)
    for m in range(1, order + 1):
        cols.append(cand.ld_powers[m] @ x_hist[m])
    return np.stack(cols, axis=1)


def grad_t(
    h: np.ndarray, t: np.ndarray, cand: CandidateSet, obs: Observation
) -> np.ndarray:
    """Instantaneous gradient of the masked squared residual w.r.t. ``t``."""
    order = cand.order
    B = cand.b_matrix
    if t.shape != (B.shape[1],):
        raise ValueError("indicator dimension mismatch")
    X = regressors_from_t(t, cand, obs.x_hist)
    r_masked = obs.d * (obs.y - X @ h)

    # w[l] = B^T L^l (d*r): iterate the weighted Laplacian on the residual
    w = []
    vec = r_masked
    for _ in range(order):
        w.append(B.T @ vec)
        vec = _upper_apply(t, B, vec)

    # q[k][m] = B^T L^k x(n-m)
    grad = np.zeros(B.shape[1])
    for m in range(1, order + 1):
        coeff = h[m]
        if coeff == 0.0:
            continue
        vec = np.asarray(obs.x_hist[m], dtype=np.float64)
        q = []
        for _ in range(m):
            q.append(B.T @ vec)
            vec = _upper_apply(t, B, vec)
        for l in range(m):
            grad += -2.0 * coeff * w[l] * q[m - 1 - l]
    return grad


def infer_step(state: TopologyState, cand: CandidateSet, obs: Observation) -> TopologyState:
    """One joint update: masked LMS on ``h``, thresholded gradient on ``t``."""
    X = regressors_from_t(state.t, cand, obs.x_hist)
    lms = lms_step(LmsState(h=state.h, mu=state.mu1, n=state.n), X, obs.d, obs.y)
    g = grad_t(lms.h, state.t, cand, obs)
    t_pre = np.clip(state.t - state.mu2 * g, 0.0, 1.0)
    t_new = prox_hard_threshold(t_pre, state.lam0, state.lam1)
    if not np.all(np.isfinite(t_new)):
        raise DivergenceError(f"non-finite indicators at iteration {state.n + 1}")
    return replace(state, h=lms.h, t=t_new, n=state.n + 1)


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
    complex_: SimplicialComplex2,
    coeffs,
    cand: CandidateSet,
    sigma_v2: np.ndarray,
    p: np.ndarray,
    schedule: list[tuple[int, np.ndarray]],
    mu1: float,
    mu2: float,
    lam0: float,
    lam1: float,
    horizon: int,
    realizations: int,
    seed: int,
    signal_var: float = 1.0,
    t0: float = 0.5,
) -> InferenceResult:
    """Monte-Carlo run of the joint recursion with a topology schedule.

    ``schedule`` lists ``(start_iteration, true_indicator)`` segments,
    first entry starting at 0; observations at step ``n`` are generated
    with the indicator active at ``n``, so mid-stream entries model
    topology changes. Signals are white Gaussian; masks Bernoulli(p).
    Each realization's draws are those of a stream of ``horizon + order``
    rows (:func:`.signals.generate_stream` draws the same way), and
    realizations run through the Monte-Carlo engine,
    :func:`.lms._monte_carlo`.
    """
    order = cand.order
    h_true = coeffs.flatten()
    if not schedule or schedule[0][0] != 0:
        raise ValueError("schedule must start at iteration 0")

    stream = StreamConfig.white(cand.num_edges, signal_var, sigma_v2, p,
                                horizon=horizon + order, seed=seed)

    def run_one(seed_r: int) -> np.ndarray:
        traj = np.empty((4, horizon + 1))
        x, v, d = _draw(replace(stream, seed=seed_r))
        state = TopologyState(h=np.zeros(h_true.size), t=np.full(cand.num_candidates, t0),
                              mu1=mu1, mu2=mu2, lam0=lam0, lam1=lam1)
        seg = 0
        t_true = np.asarray(schedule[0][1], dtype=np.float64)

        def record(k: int) -> None:
            traj[:, k] = (np.sum((h_true - state.h) ** 2), np.sum((t_true - state.t) ** 2),
                          float(np.array_equal(state.t, t_true)), float(np.count_nonzero(state.t)))

        record(0)
        for k in range(horizon):
            if seg + 1 < len(schedule) and k >= schedule[seg + 1][0]:
                seg += 1
                t_true = np.asarray(schedule[seg][1], dtype=np.float64)
            n = order + k
            hist = x[n - order : n + 1][::-1]
            X_true = regressors_from_t(t_true, cand, hist)
            y = d[n] * (X_true @ h_true + v[n])
            state = infer_step(state, cand, Observation(x_hist=hist, d=d[n], y=y))
            record(k + 1)
        return traj

    (h_error, t_error, recovery, support), kept, diverged = _monte_carlo(seed, realizations,
                                                                         run_one)
    return InferenceResult(h_error=h_error, t_error=t_error, recovery_rate=recovery,
                           support_size=support, realizations=kept, diverged=diverged)
