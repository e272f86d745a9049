"""Autoregressive training protocols on edge time series.

The one-step prediction model regresses the current snapshot on filtered
lags of itself: both tap sums start at lag 1, so the coefficient vector
has length ``2M`` in the layout ``[h_u[1..M], h_d[1..M]]``. The
``edge-laplacian-baseline`` variant zeroes the upper regressor columns,
which keeps the upper coefficients exactly at zero throughout training
while sharing the identical update path.

Multiple epochs follow the periodic-extension convention: global index
``i`` visits snapshot ``i mod N_train`` and history windows wrap across
the epoch boundary. The extension is walked window by window, never
built, so memory does not grow with the epoch count apart from the
training error trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .complexes import hodge_laplacians
from .datasets import EdgeSeriesDataset
from .diffusion import atc_step
from .errors import DivergenceError
from .lms import _first_nonfinite, lms_step
from .signals import _MIN_WINDOW_ROWS, _series_walk, regressor_tensor

__all__ = [
    "ARTrainResult",
    "VARIANTS",
    "ar_regressor_tensor",
    "run_ar_training",
    "run_distributed_ar",
]

VARIANTS = ("topo", "edge-laplacian-baseline")


@dataclass
class ARTrainResult:
    """Final coefficients with train/test error traces.

    ``train_errors[k]`` is the normalised one-step prediction error of
    the pre-update coefficients at training step ``k``;
    ``test_errors[j]`` the normalised error on held-out snapshot ``j``
    using the final coefficients.
    """

    coeffs: np.ndarray
    train_errors: np.ndarray
    test_errors: np.ndarray
    variant: str

    @property
    def mean_test_error(self) -> float:
        return float(np.mean(self.test_errors))


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")


def ar_regressor_tensor(series: np.ndarray, ops, order: int) -> np.ndarray:
    """Lag-1..M regressors of every full history window, shape (N - M, E, 2M).

    These are the columns of :func:`regressor_tensor` without the lag-0 one.
    """
    return regressor_tensor(series, ops, order)[:, :, 1:]


def _block_errors(predicted: np.ndarray, actual: np.ndarray) -> np.ndarray:
    """Each row's ``norm(predicted - actual) / max(norm(actual), 1e-300)``, rounded as
    ``np.linalg.norm`` rounds that row alone (``np.linalg.norm(..., axis=1)`` does not)."""
    num, den = (np.sqrt(np.matmul(D[:, None, :], D[:, :, None])[:, 0, 0])
                for D in (predicted - actual, actual))
    return num / np.maximum(den, 1e-300)


@np.errstate(over="ignore", invalid="ignore")  # a divergence raises, and names its step
def _train_then_test(ds: EdgeSeriesDataset, order: int, variant: str, epochs: int,
                     state, predict, step):
    """The train-then-test loop both protocols share.

    ``step(state, X, d, y)`` adapts the array of taps ``state`` with a full
    mask over rows ``order..epochs * N - 1`` of the training series'
    periodic extension (:func:`_series_walk`); the test snapshots are then
    walked with the final taps held. The steps are taken one ``accumulate``
    per chunk of up to ``_MIN_WINDOW_ROWS`` regressor matrices ``X``, and
    ``predict(X, H)`` gives each row's prediction ``X[k] H[k]``, rounded as
    alone, from the stacked taps ``H`` before each step. At a chunk's first
    non-finite error the walk stops and :class:`DivergenceError` names its
    training step or test snapshot. Returns the final state and both traces.
    """
    _check_variant(variant)
    if epochs < 1:
        raise ValueError("epochs must be at least 1")
    N = ds.train_count
    if order >= N:
        raise ValueError("filter order must be below the training length")
    ops = hodge_laplacians(ds.complex)
    ones = np.ones(ds.complex.num_edges)

    train_errors, test_errors = np.empty(epochs * N - order), np.empty(ds.test_count)
    for trace, name, series, first, stop, adapt in (
            (train_errors, "training step", ds.train_series, order, epochs * N, step),
            (test_errors, "test snapshot", ds.series, N, None, lambda h, X, d, y: h)):
        for start, window, Y in _series_walk(series, order, first, stop):
            R = ar_regressor_tensor(window, ops, order)
            if variant == "edge-laplacian-baseline":
                R[:, :, :order] = 0.0
            for lo in range(0, len(R), _MIN_WINDOW_ROWS):  # the engine's chunks
                X, y = R[lo : lo + _MIN_WINDOW_ROWS], Y[lo : lo + _MIN_WINDOW_ROWS]
                walk = accumulate(zip(X, y), lambda h, s: adapt(h, s[0], ones, s[1]), initial=state)
                H = np.fromiter(walk, np.dtype((np.float64, state.shape)), len(X))
                state = next(walk)
                at = start - first + lo
                trace[at : at + len(X)] = errors = _block_errors(predict(X, H), y)
                if (bad := _first_nonfinite(errors)) is not None:
                    raise DivergenceError(f"non-finite prediction error at {name} {at + bad}")
    return state, train_errors, test_errors


def run_ar_training(
    ds: EdgeSeriesDataset,
    order: int,
    mu: float,
    variant: str = "topo",
    epochs: int = 1,
) -> ARTrainResult:
    """Centralized one-step-ahead training with a train-then-test split.

    The training loop drives the plain adaptive-filter step with a full
    mask; prediction on the test split uses the final coefficients with
    true histories (no adaptation on test data).
    """
    h, train_errors, test_errors = _train_then_test(
        ds, order, variant, epochs, np.zeros(2 * order),
        lambda R, H: np.matmul(R, H[:, :, None])[:, :, 0],
        lambda h, X, d, y: lms_step(h, mu, X, d, y),
    )
    return ARTrainResult(coeffs=h, train_errors=train_errors,
                         test_errors=test_errors, variant=variant)


def run_distributed_ar(
    ds: EdgeSeriesDataset,
    order: int,
    mu: float,
    comb: np.ndarray,
    epochs: int = 1,
    variant: str = "topo",
) -> ARTrainResult:
    """Diffusion version of the autoregressive protocol; combines every step.

    Test predictions are made per agent with its own final coefficients.
    The reported coefficient matrix stacks the per-agent vectors as rows.
    """
    E = ds.complex.num_edges
    mu_vec = np.full(E, mu)
    H, train_errors, test_errors = _train_then_test(
        ds, order, variant, epochs, np.zeros((E, 2 * order)),
        lambda R, H: np.einsum("nij,nij->ni", R, H),
        lambda H, X, d, y: atc_step(H, mu_vec, comb, X, d, y),
    )
    return ARTrainResult(coeffs=H, train_errors=train_errors,
                         test_errors=test_errors, variant=variant)
