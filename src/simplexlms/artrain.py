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

import numpy as np

from .complexes import hodge_laplacians
from .datasets import EdgeSeriesDataset
from .diffusion import CombinationMatrix, NetworkState, atc_step
from .lms import LmsState, lms_step
from .signals import _series_walk, regressor_tensor

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


def _ar_windows(series: np.ndarray, ops, order: int, variant: str, first: int,
                stop: int | None = None):
    """``(start, R)`` blocks of the variant's lag regressors for rows ``first..stop-1``.

    Row ``n`` is ``series[n mod N]`` (:func:`_series_walk`), up to row
    ``N - 1`` by default. The baseline variant zeroes the upper columns
    of each freshly built block in place.
    """
    for start, window, _ in _series_walk(series, order, first, stop):
        R = ar_regressor_tensor(window, ops, order)
        if variant == "edge-laplacian-baseline":
            R[:, :, :order] = 0.0
        yield start, R


def _normalized_error(predicted: np.ndarray, actual: np.ndarray) -> float:
    scale = float(np.linalg.norm(actual))
    return float(np.linalg.norm(predicted - actual)) / max(scale, 1e-300)


def _train_then_test(ds: EdgeSeriesDataset, order: int, variant: str, epochs: int,
                     state, predict, step):
    """The train-then-test loop both protocols share.

    ``step(state, X, d, y)`` adapts ``state`` with a full mask over rows
    ``order..epochs * N - 1`` of the training series' periodic extension,
    whose row ``n`` is training row ``n mod N``; ``predict(state, X)`` is
    the one-step prediction from regressor matrix ``X``, scored before
    each training step and, with the final state and true histories, on
    every test snapshot. Returns the final state and both error traces.
    """
    _check_variant(variant)
    if epochs < 1:
        raise ValueError("epochs must be at least 1")
    train = ds.train_series
    N = ds.train_count
    if order >= N:
        raise ValueError("filter order must be below the training length")
    ops = hodge_laplacians(ds.complex)
    ones = np.ones(ds.complex.num_edges)

    train_errors = np.empty(epochs * N - order)
    for start, R in _ar_windows(train, ops, order, variant, order, epochs * N):
        for n, X in enumerate(R, start):
            target = train[n % N]
            train_errors[n - order] = _normalized_error(predict(state, X), target)
            state = step(state, X, ones, target)

    test_errors = np.empty(ds.test_count)
    for start, R in _ar_windows(ds.series, ops, order, variant, N):
        for n, X in enumerate(R, start):
            test_errors[n - N] = _normalized_error(predict(state, X), ds.series[n])
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
    state, train_errors, test_errors = _train_then_test(
        ds, order, variant, epochs, LmsState(h=np.zeros(2 * order), mu=mu),
        lambda s, X: X @ s.h, lms_step,
    )
    return ARTrainResult(coeffs=state.h, train_errors=train_errors,
                         test_errors=test_errors, variant=variant)


def run_distributed_ar(
    ds: EdgeSeriesDataset,
    order: int,
    mu: float,
    comb: CombinationMatrix,
    epochs: int = 1,
    variant: str = "topo",
) -> ARTrainResult:
    """Diffusion version of the autoregressive protocol; combines every step.

    Test predictions are made per agent with its own final coefficients.
    The reported coefficient matrix stacks the per-agent vectors as rows.
    """
    E = ds.complex.num_edges
    net, train_errors, test_errors = _train_then_test(
        ds, order, variant, epochs,
        NetworkState(estimates=np.zeros((E, 2 * order)), mu=np.full(E, mu)),
        lambda net, X: np.einsum("ij,ij->i", X, net.estimates),
        lambda net, X, d, y: atc_step(net, comb, X, d, y),
    )
    return ARTrainResult(coeffs=net.estimates, train_errors=train_errors,
                         test_errors=test_errors, variant=variant)
