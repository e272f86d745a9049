"""Centralized adaptive filter on edge streams and its steady-state theory.

The update is the stochastic-gradient step

    h(n+1) = h(n) + mu * X(n)^T D(n) (y(n) - X(n) h(n))

whose error recursion is governed by Q = I - mu * c_X. Mean stability
requires mu < 2 / lambda_max(c_X); under the small-step approximation
the deviation converges to mu^2 Tr(g S), where S solves the Stein
equation S = Q^T S Q + I. Q is symmetric, so with Q = U diag(q) U^T the
solution is exactly

    S = U diag(1 / (1 - q^2)) U^T,

and mu^2 Tr(g S) expands to (mu/2) Tr(g c_X^{-1}) plus a second-order
remainder.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .complexes import SimplicialComplex2, hodge_laplacians
from .errors import DivergenceError, StabilityError
from .signals import (
    FilterCoeffs,
    StreamConfig,
    _regressor_windows,
    generate_stream,
    moments_closed_form,
)

__all__ = [
    "LmsState",
    "TheoryReport",
    "ExperimentResult",
    "lms_step",
    "max_stepsize",
    "steady_state_msd",
    "convergence_rate",
    "theory_report",
    "run_experiment",
    "to_db",
    "tail_average",
    "derived_seeds",
]

# Margin below 1 that a spectral radius must clear to count as stable.
# An exact unit eigenvalue (diffusion agents cut off from the rest of the
# network that all leave one tap unexcited, for instance) is computed a
# few ulps below 1 (by up to 4e-16 in practice), and a bare ``rho < 1``
# would call it stable and hand a singular or meaningless steady-state
# equation to the solver.
_STABILITY_TOL = 1e-9


def to_db(value) -> np.ndarray:
    """Deviation in decibels, 10*log10(value)."""
    return 10.0 * np.log10(np.asarray(value, dtype=np.float64))


def _db_or_none(value: float) -> float | None:
    """Deviation in dB for result files: ``None`` (JSON ``null``) unless positive."""
    return float(to_db(value)) if value > 0 else None


def tail_average(trajectory: np.ndarray, fraction: float = 0.1) -> float:
    """Mean of the final ``fraction`` of a trajectory (steady-state probe)."""
    trajectory = np.asarray(trajectory, dtype=np.float64)
    count = max(1, int(round(fraction * trajectory.size)))
    return float(np.mean(trajectory[-count:]))


def derived_seeds(master_seed: int, count: int) -> list[int]:
    """Deterministic per-realization seeds from one master seed."""
    return [int(s) for s in np.random.SeedSequence(master_seed).generate_state(count)]


@dataclass
class LmsState:
    """Coefficient estimate, step-size, and iteration counter."""

    h: np.ndarray
    mu: float
    n: int = 0


def lms_step(state: LmsState, X: np.ndarray, d: np.ndarray, y: np.ndarray) -> LmsState:
    """One masked stochastic-gradient update; pure function of its inputs."""
    h = state.h
    if X.shape[1] != h.shape[0] or X.shape[0] != d.shape[0] or d.shape != y.shape:
        raise ValueError(
            f"inconsistent shapes: X {X.shape}, d {d.shape}, y {y.shape}, h {h.shape}"
        )
    residual = d * (y - X @ h)
    h_new = h + state.mu * (X.T @ residual)
    if not np.all(np.isfinite(h_new)):
        raise DivergenceError(f"non-finite estimate at iteration {state.n + 1}")
    return LmsState(h=h_new, mu=state.mu, n=state.n + 1)


def max_stepsize(c_X: np.ndarray) -> float:
    """Mean-stability bound 2 / lambda_max of the regressor moment."""
    c_X = np.asarray(c_X, dtype=np.float64)
    lam_max = float(np.linalg.eigvalsh(c_X)[-1])
    if lam_max <= 0:
        raise ValueError("regressor moment matrix must be nonzero PSD")
    return 2.0 / lam_max


def _is_stable(rho: float) -> bool:
    """True iff a recursion with spectral radius ``rho`` is stable with margin."""
    return rho < 1.0 - _STABILITY_TOL


def _steady_state_weight(Q: np.ndarray) -> np.ndarray:
    """Solve S = Q^T S Q + I for symmetric Q with rho(Q) < 1.

    In the eigenbasis Q = U diag(q) U^T the equation decouples entry by
    entry, so S = U diag(1 / (1 - q^2)) U^T exactly.
    """
    q, u = np.linalg.eigh(Q)
    return (u / (1.0 - q**2)) @ u.T


def steady_state_msd(c_X: np.ndarray, g: np.ndarray, mu: float) -> tuple[float, float]:
    """Limiting deviation: the exact value mu^2 Tr(g S) and its first-order term.

    ``S`` solves S = Q^T S Q + I with Q = I - mu c_X (see the module
    docstring). Returns ``(msd_exact, msd_first_order)`` where the first
    order term is (mu/2) Tr(g c_X^{-1}). Raises :class:`StabilityError`
    when the step-size is not mean-stable, with margin, for the given
    moment matrix.
    """
    c_X = np.asarray(c_X, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    dim = c_X.shape[0]
    Q = np.eye(dim) - mu * c_X
    rho = float(np.max(np.abs(np.linalg.eigvalsh(Q))))
    if mu <= 0 or not _is_stable(rho):
        raise StabilityError(
            f"step-size {mu} is unstable: spectral radius {rho:.6f} is not below "
            f"1 - {_STABILITY_TOL:g}"
        )
    S = _steady_state_weight(Q)
    msd_exact = float(mu**2 * np.trace(g @ S))
    msd_first = float(0.5 * mu * np.trace(np.linalg.solve(c_X, g)))
    return msd_exact, msd_first


def convergence_rate(c_X: np.ndarray, mu: float) -> tuple[float, float]:
    """Small-step rate estimate and the exact operator norm.

    Returns ``(1 - 2 mu lambda_min, ||F||_2)`` with
    ``||F||_2 = max((1 - mu lambda_min)^2, (1 - mu lambda_max)^2)``. The
    estimate is only meaningful well below 2*lambda_min/lambda_max^2; a
    warning is issued past that point.
    """
    c_X = np.asarray(c_X, dtype=np.float64)
    lam = np.linalg.eigvalsh(c_X)
    delta, nu = float(lam[0]), float(lam[-1])
    if nu > 0 and mu >= 2.0 * delta / nu**2:
        warnings.warn(
            "step-size exceeds 2*lambda_min/lambda_max^2; the linear rate "
            "approximation is unreliable here",
            stacklevel=2,
        )
    approx = 1.0 - 2.0 * mu * delta
    f_norm = max((1.0 - mu * delta) ** 2, (1.0 - mu * nu) ** 2)
    return approx, f_norm


@dataclass
class TheoryReport:
    """Closed-form predictions for one (c_X, g, mu) configuration."""

    mu: float
    mu_max: float
    rho_Q: float
    msd_exact: float
    msd_first_order: float
    alpha: float
    f_norm: float

    def to_dict(self) -> dict:
        return {
            "mu": self.mu,
            "mu_max": self.mu_max,
            "rho_Q": self.rho_Q,
            "msd_exact": self.msd_exact,
            "msd_exact_db": _db_or_none(self.msd_exact),
            "msd_first_order": self.msd_first_order,
            "alpha": self.alpha,
            "f_norm": self.f_norm,
        }


def theory_report(c_X: np.ndarray, g: np.ndarray, mu: float) -> TheoryReport:
    c_X = np.asarray(c_X, dtype=np.float64)
    lam = np.linalg.eigvalsh(c_X)
    rho_Q = float(np.max(np.abs(1.0 - mu * lam)))
    msd_exact, msd_first = steady_state_msd(c_X, g, mu)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        alpha, f_norm = convergence_rate(c_X, mu)
    return TheoryReport(
        mu=mu,
        mu_max=max_stepsize(c_X),
        rho_Q=rho_Q,
        msd_exact=msd_exact,
        msd_first_order=msd_first,
        alpha=alpha,
        f_norm=f_norm,
    )


def _monte_carlo(seed: int, realizations: int, run_one):
    """The Monte-Carlo engine of every recursion runner.

    Calls ``run_one(seed_r)`` once per realization with the seeds
    :func:`derived_seeds` gives for ``seed``; each call draws one stream,
    steps the recursion and returns a sequence of fresh trajectory arrays
    (the rows of a 2-D array count as one each; the engine sums into the
    first kept ones in place). A realization that raises
    :class:`DivergenceError` is dropped and its index recorded. The kept
    trajectories are summed in realization order, so one realization's
    stream is alive at a time and memory does not grow with the
    realization count. Returns ``(means, kept, diverged)`` with the mean
    of each trajectory over the kept realizations.
    """
    if realizations < 1:
        raise ValueError(f"realizations must be at least 1, got {realizations}")
    sums = None
    diverged: list[int] = []
    for r, seed_r in enumerate(derived_seeds(seed, realizations)):
        try:
            trajectories = run_one(seed_r)
        except DivergenceError:
            diverged.append(r)
            continue
        if sums is None:
            sums = list(trajectories)
        else:
            for total, trajectory in zip(sums, trajectories):
                total += trajectory
    if sums is None:
        raise DivergenceError("all realizations diverged")
    kept = realizations - len(diverged)
    return [total / kept for total in sums], kept, diverged


def _stream_states(state, step, batch, ops):
    """The initial state, then the state after each step along the stream.

    ``step(state, X, d, y)`` is applied at every row with a full history
    window, its regressors built one window at a time.
    """
    yield state
    for start, X in _regressor_windows(batch.x, ops, batch.order, first=batch.order):
        for n, X_n in enumerate(X, start):
            state = step(state, X_n, batch.d[n], batch.y[n])
            yield state


@dataclass
class ExperimentResult:
    """Averaged deviation trajectory plus the matching theory report."""

    msd: np.ndarray
    theory: TheoryReport | None
    realizations: int
    diverged: list[int]

    @property
    def msd_db(self) -> np.ndarray:
        return to_db(self.msd)

    def steady_state_db(self, fraction: float = 0.1) -> float:
        return float(to_db(tail_average(self.msd, fraction)))


def run_experiment(
    complex_: SimplicialComplex2,
    coeffs: FilterCoeffs,
    cfg: StreamConfig,
    mu: float,
    realizations: int,
    horizon: int,
    h0: np.ndarray | None = None,
) -> ExperimentResult:
    """Monte-Carlo deviation trajectory of the adaptive filter.

    Each realization draws an independent stream from a seed derived
    from ``cfg.seed`` (see :func:`_monte_carlo`, which also drops and
    reports diverged realizations). The trajectory has ``horizon + 1``
    entries starting at the initial deviation.
    """
    ops = hodge_laplacians(complex_)
    order = coeffs.order
    h_true = coeffs.flatten()

    moments = moments_closed_form(ops, cfg.p, cfg.c_x, cfg.sigma_v2, order, coeffs)
    theory: TheoryReport | None
    try:
        theory = theory_report(moments.c_X, moments.g, mu)
    except (StabilityError, ValueError):
        theory = None
        warnings.warn("step-size fails the mean-stability bound; no theory report",
                      stacklevel=2)

    h_init = np.zeros(h_true.size) if h0 is None else np.array(h0, dtype=np.float64)

    def run_one(seed: int) -> tuple[np.ndarray]:
        traj = np.empty(horizon + 1)
        batch = generate_stream(coeffs, None, replace(cfg, horizon=horizon + order, seed=seed),
                                ops=ops)
        for k, state in enumerate(_stream_states(LmsState(h=h_init, mu=mu), lms_step, batch, ops)):
            traj[k] = np.sum((h_true - state.h) ** 2)
        return (traj,)

    (msd,), kept, diverged = _monte_carlo(cfg.seed, realizations, run_one)
    return ExperimentResult(msd=msd, theory=theory, realizations=kept, diverged=diverged)
