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
from .signals import regressor_tensor

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


def ar_regressor_tensor(series: np.ndarray, ops, order: int) -> np.ndarray:
    """Lag-1..M regressors for every snapshot, shape (N, E, 2M); rows < M zero.

    These are the columns of :func:`regressor_tensor` without the lag-0 one.
    """
    return regressor_tensor(series, ops, order)[:, :, 1:]


def _variant_tensor(R: np.ndarray, order: int, variant: str) -> np.ndarray:
    if variant == "edge-laplacian-baseline":
        R = R.copy()
        R[:, :, :order] = 0.0
    return R


def _normalized_error(predicted: np.ndarray, actual: np.ndarray) -> float:
    scale = float(np.linalg.norm(actual))
    return float(np.linalg.norm(predicted - actual)) / max(scale, 1e-300)


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
    _check_variant(variant)
    if order >= ds.train_count:
        raise ValueError("filter order must be below the training length")
    ops = hodge_laplacians(ds.complex)
    extended = extend_series(ds.train_series, epochs)
    R = _variant_tensor(ar_regressor_tensor(extended, ops, order), order, variant)
    E = ds.complex.num_edges
    ones = np.ones(E)

    state = LmsState(h=np.zeros(2 * order), mu=mu)
    train_errors = []
    for n in range(order, extended.shape[0]):
        target = extended[n]
        train_errors.append(_normalized_error(R[n] @ state.h, target))
        state = lms_step(state, R[n], ones, target)

    R_full = _variant_tensor(ar_regressor_tensor(ds.series, ops, order), order, variant)
    test_errors = [
        _normalized_error(R_full[n] @ state.h, ds.series[n])
        for n in range(ds.train_count, ds.series.shape[0])
    ]
    return ARTrainResult(
        coeffs=state.h,
        train_errors=np.asarray(train_errors),
        test_errors=np.asarray(test_errors),
        variant=variant,
    )


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
    _check_variant(variant)
    if order >= ds.train_count:
        raise ValueError("filter order must be below the training length")
    ops = hodge_laplacians(ds.complex)
    extended = extend_series(ds.train_series, epochs)
    R = _variant_tensor(ar_regressor_tensor(extended, ops, order), order, variant)
    E = ds.complex.num_edges
    ones = np.ones(E)

    net = NetworkState(estimates=np.zeros((E, 2 * order)), mu=np.full(E, mu))
    train_errors = []
    for n in range(order, extended.shape[0]):
        target = extended[n]
        predicted = np.einsum("ij,ij->i", R[n], net.estimates)
        train_errors.append(_normalized_error(predicted, target))
        net = atc_step(net, comb, R[n], ones, target)

    R_full = _variant_tensor(ar_regressor_tensor(ds.series, ops, order), order, variant)
    test_errors = []
    for n in range(ds.train_count, ds.series.shape[0]):
        predicted = np.einsum("ij,ij->i", R_full[n], net.estimates)
        test_errors.append(_normalized_error(predicted, ds.series[n]))
    return ARTrainResult(
        coeffs=net.estimates,
        train_errors=np.asarray(train_errors),
        test_errors=np.asarray(test_errors),
        variant=variant,
    )
