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
from itertools import accumulate

import numpy as np

from .complexes import SimplicialComplex2, hodge_laplacians
from .errors import DivergenceError, SingularMomentError, StabilityError
from .signals import FilterCoeffs, StreamConfig, generate_stream, moments_closed_form

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
# A moment matrix whose least eigenvalue is at most this share of its largest is singular.
_SINGULAR_TOL = 1e-12


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
    ``mu lambda_max`` below 2 with margin (a tiny step is stable, if slow),
    and its :class:`SingularMomentError` when no step-size is:
    ``lambda_min(c_X)`` is at most ``1e-12 lambda_max``, as on a tap no
    sampled edge excites. The verdict overflows no array, so a huge step
    raises with no numpy warning. ``mu_max`` is :func:`max_stepsize`.
    ``alpha = 1 - 2 mu lambda_min`` is
    the small-step rate estimate, meaningful only well below
    ``mu = 2 lambda_min / lambda_max^2``, and ``f_norm`` the exact operator
    norm ``max((1 - mu lambda_min)^2, (1 - mu lambda_max)^2)``.
    """
    c_X = np.asarray(c_X, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    lam, u = np.linalg.eigh(c_X)
    delta, nu = float(lam[0]), float(lam[-1])
    if delta <= _SINGULAR_TOL * nu:
        raise SingularMomentError(f"lambda_min(c_X) = {delta + 0.0:g}, so no step-size is stable")
    mu_nu = float(mu) * nu  # a Python float overflows to inf with no warning
    if not (mu > 0 and mu_nu < 2.0 - _STABILITY_TOL):
        raise StabilityError(f"step-size {mu} is unstable: mu lambda_max = {mu_nu:g} is not "
                             f"in (0, 2 - {_STABILITY_TOL:g})")
    g_tilde = np.einsum("ia,ij,ja->a", u, g, u)
    return TheoryReport(
        mu=mu,
        mu_max=2.0 / nu,
        rho_Q=max(abs(1.0 - mu * delta), abs(1.0 - mu_nu)),
        msd_exact=float(mu**2 * np.sum(g_tilde / (mu * lam * (2.0 - mu * lam)))),
        msd_first_order=float(0.5 * mu * np.sum(g_tilde / lam)),
        alpha=1.0 - 2.0 * mu * delta,
        f_norm=max((1.0 - mu * delta) ** 2, (1.0 - mu * nu) ** 2),
    )


def _walk(blocks, read, step, state, score, out):
    """Step a recursion over ``blocks``, scoring each block at once: the walk of every recursion.

    ``read(block)`` gives a block's steps, taken in one ``accumulate`` of
    ``step(state, s)`` from ``state``. ``score(block, H)`` maps the stacked
    states ``H``, the one before the block's first step and then one after
    each step, to rows of ``out``, each as it would score its state alone;
    row ``n`` belongs to the state after ``n`` steps. A score of every
    state gives ``len(H)`` rows, and a state the block before has scored is
    not stacked again; a score of the state before each step, with that
    step's data, gives ``len(H) - 1``. Every block but a lone first one
    holds a step. The walk stops at the end of the block whose rows first
    hold a non-finite entry (a score can overflow before the state does;
    numpy does not warn of it here), so a diverged walk runs at most one
    block past its first non-finite step. Returns the last state and that
    row's index, or ``None`` if every row is finite.
    """
    taken = scored = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for block in blocks:
            states = list(accumulate(read(block), step, initial=state))
            rows = score(block, np.stack(states[scored - taken :]))
            out[scored : scored + len(rows)] = rows
            if (bad := np.argwhere(~np.isfinite(rows))).size:
                return states[-1], scored + int(bad[0, 0])
            state, taken, scored = states[-1], taken + len(states) - 1, scored + len(rows)
            del block  # free it before the next block is built
    return state, None


def _monte_carlo(seed: int, realizations: int, horizon: int, width: int, stream, *recursion):
    """The Monte-Carlo engine of every recursion runner.

    For each seed :func:`derived_seeds` gives for ``seed``, one realization
    walks the blocks of ``stream(seed_r)``, ``horizon`` steps, with the
    ``read``, ``step``, start ``state`` and ``score`` of ``recursion``
    (:func:`_walk`) into its ``(horizon + 1, width)`` trajectory, one row per
    state. A realization is dropped, and its first non-finite step recorded,
    when its walk stops at a non-finite row. The kept trajectories are summed
    in realization order, so one realization's stream is alive at a time and
    memory does not grow with the realization count. Returns ``(means, kept,
    diverged)`` with ``means`` the mean trajectory over the kept
    realizations; if none is kept, the :class:`DivergenceError` names each
    one's first non-finite step.
    """
    if realizations < 1:
        raise ValueError(f"realizations must be at least 1, got {realizations}")
    total = None
    diverged: dict[int, int] = {}  # realization: its first non-finite step
    for r, seed_r in enumerate(derived_seeds(seed, realizations)):
        blocks = stream(seed_r)  # a bad horizon raises here, before a trajectory is allocated
        traj = np.empty((horizon + 1, width))
        if (bad := _walk(blocks, *recursion, traj)[1]) is not None:
            diverged[r] = bad
        else:
            total = traj if total is None else np.add(total, traj, out=total)
    if total is None:
        raise DivergenceError("all realizations diverged, at steps "
                              + ", ".join(map(str, diverged.values())))
    kept = realizations - len(diverged)
    return total / kept, kept, list(diverged)


@dataclass
class ExperimentResult:
    """Averaged deviation trajectory and theory report; ``theory_failure`` says why it is ``None``."""

    msd: np.ndarray
    theory: TheoryReport | None
    realizations: int
    diverged: list[int]
    theory_failure: str | None = None


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
    theory = failure = None
    try:
        theory = theory_report(moments.c_X, moments.g, mu)
    except SingularMomentError as exc:
        failure = str(exc)
    except (StabilityError, ValueError):
        failure = "step-size fails the mean-stability bound"

    means, kept, diverged = _monte_carlo(
        seed, realizations, horizon, 1, lambda s: generate_stream(coeffs, ops, cfg, horizon, s),
        lambda b: zip(b.X, b.d, b.y), lambda h, s: lms_step(h, mu, *s), np.zeros(h_true.size),
        lambda b, H: np.sum((h_true - H) ** 2, axis=1, keepdims=True))
    return ExperimentResult(msd=means[:, 0], theory=theory, realizations=kept, diverged=diverged,
                            theory_failure=failure)
