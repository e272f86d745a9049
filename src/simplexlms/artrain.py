"""Autoregressive training protocols on edge time series.

The one-step prediction model regresses the current snapshot on filtered
lags of itself: both tap sums start at lag 1, so the coefficient vector
has length ``2M`` in the layout ``[h_u[1..M], h_d[1..M]]``. The
``edge-laplacian-baseline`` variant zeroes the upper regressor columns,
which keeps the upper coefficients exactly at zero throughout training
while sharing the identical update path.

Multiple epochs follow the periodic-extension convention: the training
series is tiled, so global index ``i`` visits snapshot ``i mod N_train``
and history windows wrap across the epoch boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import hodge_laplacians
from .datasets import EdgeSeriesDataset
from .diffusion import CombinationMatrix, NetworkState, atc_step
from .lms import LmsState, lms_step
from .signals import _regressor_windows, regressor_tensor

__all__ = [
    "ARTrainResult",
    "VARIANTS",
    "ar_regressor_tensor",
    "extend_series",
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


def extend_series(series: np.ndarray, epochs: int) -> np.ndarray:
    """Periodic extension: snapshot ``i`` of the result is ``series[i mod N]``."""
    if epochs < 1:
        raise ValueError("epochs must be at least 1")
    return np.tile(np.asarray(series, dtype=np.float64), (epochs, 1))


def ar_regressor_tensor(series: np.ndarray, ops, order: int, powers=None) -> np.ndarray:
    """Lag-1..M regressors for every snapshot, shape (N, E, 2M); rows < M zero.

    These are the columns of :func:`regressor_tensor` without the lag-0
    one; ``powers`` is passed through to it.
    """
    return regressor_tensor(series, ops, order, powers)[:, :, 1:]


def _ar_windows(series: np.ndarray, ops, order: int, variant: str, first: int):
    """``(start, R)`` blocks of the variant's lag regressors for rows ``first..N-1``.

    The baseline variant zeroes the upper columns of each block, on a copy.
    """
    for start, R in _regressor_windows(series, ops, order, first, build=ar_regressor_tensor):
        if variant == "edge-laplacian-baseline":
            R = R.copy()
            R[:, :, :order] = 0.0
        yield start, R


def _normalized_error(predicted: np.ndarray, actual: np.ndarray) -> float:
    scale = float(np.linalg.norm(actual))
    return float(np.linalg.norm(predicted - actual)) / max(scale, 1e-300)


def _train_then_test(ds: EdgeSeriesDataset, order: int, variant: str, epochs: int,
                     state, predict, step):
    """The train-then-test loop both protocols share.

    ``step(state, X, d, y)`` adapts ``state`` over the periodically
    extended training series with a full mask; ``predict(state, X)`` is
    the one-step prediction from regressor matrix ``X``, scored before
    each training step and, with the final state and true histories, on
    every test snapshot. Returns the final state and both error traces.
    """
    _check_variant(variant)
    if order >= ds.train_count:
        raise ValueError("filter order must be below the training length")
    ops = hodge_laplacians(ds.complex)
    extended = extend_series(ds.train_series, epochs)
    ones = np.ones(ds.complex.num_edges)

    train_errors = []
    for start, R in _ar_windows(extended, ops, order, variant, order):
        for n, X in enumerate(R, start):
            target = extended[n]
            train_errors.append(_normalized_error(predict(state, X), target))
            state = step(state, X, ones, target)

    test_errors = [
        _normalized_error(predict(state, X), ds.series[n])
        for start, R in _ar_windows(ds.series, ops, order, variant, ds.train_count)
        for n, X in enumerate(R, start)
    ]
    return state, np.asarray(train_errors), np.asarray(test_errors)


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
