"""Centralized adaptive filter on edge streams and its steady-state theory.

The update is the stochastic-gradient step

    h(n+1) = h(n) + mu * X(n)^T D(n) (y(n) - X(n) h(n))

whose error recursion is governed by Q = I - mu * c_X. Mean stability
requires mu < 2 / lambda_max(c_X); under the small-step approximation
the deviation converges to mu^2 Tr(g S), where S solves the Stein
equation S = Q^T S Q + I. With c_X = U diag(lam) U^T, Q = U diag(q) U^T
for q = 1 - mu lam, and g~ = diag(U^T g U), the solution gives exactly

    mu^2 Tr(g S) = mu^2 sum_a g~_a / (1 - q_a^2),

which expands to (mu/2) Tr(g c_X^{-1}) = (mu/2) sum_a g~_a / lam_a plus a
second-order remainder: both read one eigendecomposition of c_X.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, islice

import numpy as np

from .complexes import SimplicialComplex2, hodge_laplacians
from .errors import DivergenceError, StabilityError
from .signals import (_MIN_WINDOW_ROWS, FilterCoeffs, StreamConfig, generate_stream,
                      moments_closed_form)

__all__ = [
    "TheoryReport",
    "ExperimentResult",
    "lms_step",
    "max_stepsize",
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


def tail_average(trajectory: np.ndarray) -> float:
    """Mean of the final tenth of a trajectory (steady-state probe)."""
    trajectory = np.asarray(trajectory, dtype=np.float64)
    count = max(1, int(round(0.1 * trajectory.size)))
    return float(np.mean(trajectory[-count:]))


def derived_seeds(master_seed: int, count: int) -> list[int]:
    """Deterministic per-realization seeds from one master seed."""
    return [int(s) for s in np.random.SeedSequence(master_seed).generate_state(count)]


def lms_step(h: np.ndarray, mu: float, X: np.ndarray, d: np.ndarray,
             y: np.ndarray) -> np.ndarray:
    """The taps after one masked stochastic-gradient update of ``h``; pure.
    Non-finite data or taps in give non-finite taps out."""
    if X.shape[1] != h.shape[0] or X.shape[0] != d.shape[0] or d.shape != y.shape:
        raise ValueError(
            f"inconsistent shapes: X {X.shape}, d {d.shape}, y {y.shape}, h {h.shape}"
        )
    residual = d * (y - X @ h)
    return h + mu * (X.T @ residual)


def max_stepsize(c_X: np.ndarray) -> float:
    """Mean-stability bound 2 / lambda_max: :func:`theory_report`'s ``mu_max``, bit for bit."""
    c_X = np.asarray(c_X, dtype=np.float64)
    lam_max = float(np.linalg.eigh(c_X)[0][-1])
    if lam_max <= 0:
        raise ValueError("regressor moment matrix must be nonzero PSD")
    return 2.0 / lam_max


def _is_stable(rho: float) -> bool:
    """True iff a recursion with spectral radius ``rho`` is stable with margin."""
    return rho < 1.0 - _STABILITY_TOL


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
    """Every closed-form prediction for ``(c_X, g, mu)``, from one ``eigh(c_X)``.

    Raises :class:`StabilityError` when the step-size is not mean-stable,
    with margin; a stable step leaves every eigenvalue of ``c_X`` positive.
    ``mu_max`` is :func:`max_stepsize`. ``alpha = 1 - 2 mu lambda_min`` is
    the small-step rate estimate, meaningful only well below
    ``mu = 2 lambda_min / lambda_max^2``, and ``f_norm`` the exact operator
    norm ``max((1 - mu lambda_min)^2, (1 - mu lambda_max)^2)``.
    """
    c_X = np.asarray(c_X, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    lam, u = np.linalg.eigh(c_X)
    q = 1.0 - mu * lam
    rho = float(np.max(np.abs(q)))
    if mu <= 0 or not _is_stable(rho):
        raise StabilityError(
            f"step-size {mu} is unstable: spectral radius {rho:.6f} is not below "
            f"1 - {_STABILITY_TOL:g}"
        )
    g_tilde = np.einsum("ia,ij,ja->a", u, g, u)
    delta, nu = float(lam[0]), float(lam[-1])
    return TheoryReport(
        mu=mu,
        mu_max=2.0 / nu,
        rho_Q=rho,
        msd_exact=float(mu**2 * np.sum(g_tilde / (mu * lam * (2.0 - mu * lam)))),
        msd_first_order=float(0.5 * mu * np.sum(g_tilde / lam)),
        alpha=1.0 - 2.0 * mu * delta,
        f_norm=max((1.0 - mu * delta) ** 2, (1.0 - mu * nu) ** 2),
    )


def _first_nonfinite(rows: np.ndarray) -> int | None:
    """Index of the first of ``rows`` holding a non-finite entry, or ``None``."""
    finite = np.isfinite(rows.reshape(len(rows), -1)).all(axis=1)
    return None if finite.all() else int(np.argmin(finite))


def _monte_carlo(seed: int, realizations: int, horizon: int, walk, measure):
    """The Monte-Carlo engine of every recursion runner.

    ``walk(seed_r)`` is an iterator of one realization's states, each an
    array: the recursion's state before the first step and after each of
    the ``horizon`` steps, for each seed :func:`derived_seeds` gives for
    ``seed``. The engine stacks the states in chunks of up to
    ``_MIN_WINDOW_ROWS``, and ``measure(states)`` maps a chunk to its
    ``(rows, width)`` rows of the ``(horizon + 1, width)`` trajectory, each
    row as it would score that state alone. A realization is dropped, and
    its first non-finite step recorded, at the first chunk holding a
    non-finite entry (a deviation can overflow before the state does; numpy
    does not warn of it here), and its walk goes no further. The kept
    trajectories are summed in realization order, so one realization's
    stream is alive at a time and memory does not grow with the realization
    count. Returns ``(means, kept, diverged)`` with ``means`` the mean
    trajectory over the kept realizations; if none is kept, the
    :class:`DivergenceError` names each one's first non-finite step.
    """
    if realizations < 1:
        raise ValueError(f"realizations must be at least 1, got {realizations}")
    total = None
    diverged: dict[int, int] = {}  # realization: its first non-finite step
    for r, seed_r in enumerate(derived_seeds(seed, realizations)):
        states = walk(seed_r)
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, horizon + 1, _MIN_WINDOW_ROWS):
                rows = measure(np.stack(list(islice(states, _MIN_WINDOW_ROWS))))
                if start == 0:
                    traj = np.empty((horizon + 1, rows.shape[1]))
                traj[start : start + rows.shape[0]] = rows
                if (bad := _first_nonfinite(rows)) is not None:
                    diverged[r] = start + bad
                    break
        if r not in diverged:
            total = traj if total is None else np.add(total, traj, out=total)
    if total is None:
        raise DivergenceError("all realizations diverged, at steps "
                              + ", ".join(map(str, diverged.values())))
    kept = realizations - len(diverged)
    return total / kept, kept, list(diverged)


@dataclass
class ExperimentResult:
    """Averaged deviation trajectory and theory report, ``None`` if the step-size is unstable."""

    msd: np.ndarray
    theory: TheoryReport | None
    realizations: int
    diverged: list[int]


def run_experiment(
    complex_: SimplicialComplex2,
    coeffs: FilterCoeffs,
    cfg: StreamConfig,
    mu: float,
    realizations: int,
    horizon: int,
    seed: int,
) -> ExperimentResult:
    """Monte-Carlo deviation trajectory of the adaptive filter.

    Each realization draws an independent stream of ``horizon`` steps
    from ``cfg``, with a seed derived from ``seed`` (see
    :func:`_monte_carlo`, which also drops and reports diverged
    realizations). The trajectory has ``horizon + 1`` entries starting
    at the deviation of the zero estimate.
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

    def walk(seed_r: int):
        blocks = generate_stream(coeffs, ops, cfg, horizon, seed_r)
        steps = chain.from_iterable(zip(b.X, b.d, b.y) for b in blocks)
        return accumulate(steps, lambda h, s: lms_step(h, mu, *s), initial=np.zeros(h_true.size))

    means, kept, diverged = _monte_carlo(seed, realizations, horizon, walk,
                                         lambda H: np.sum((h_true - H) ** 2, axis=1, keepdims=True))
    return ExperimentResult(msd=means[:, 0], theory=theory, realizations=kept, diverged=diverged)
