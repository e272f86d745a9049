"""Edge time-series datasets: ingestion and surrogates.

A dataset pairs a complex file with a CSV of snapshots whose header is
``n,e_1,...,e_E`` and whose rows hold one snapshot each; :mod:`.files`
reads and writes both. A generator for autoregressive surrogate traffic
at the reference scale of 17 vertices / 26 edges / 5 triangles and 288
snapshots (250 train / 38 test) is included, since the original traffic
measurements are not redistributed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import SimplicialComplex2, grown_complex, hodge_laplacians
from .errors import ConfigError
from .files import load_complex, read_edge_series
from .files import write_edge_series  # noqa: F401  (perfbench/workloads.py imports it from here)
from .signals import FilterCoeffs, regressor_tensor

__all__ = [
    "EdgeSeriesDataset",
    "ingest_edge_series",
    "reference_traffic_complex",
    "synthetic_traffic_series",
    "traffic_surrogate",
]

# Reference real-data protocol dimensions: 288 snapshots split 250/38.
_REFERENCE_SNAPSHOTS = 288
_REFERENCE_TRAIN = 250


@dataclass
class EdgeSeriesDataset:
    """A complex plus a time series of edge measurements and a split."""

    complex: SimplicialComplex2
    series: np.ndarray          # (N, E)
    train_count: int
    test_count: int

    def __post_init__(self):
        N, E = self.series.shape
        if E != self.complex.num_edges:
            raise ConfigError(
                f"series width {E} does not match the complex ({self.complex.num_edges} edges)"
            )
        if self.train_count + self.test_count != N:
            raise ConfigError("train/test split must cover the whole series")

    @property
    def train_series(self) -> np.ndarray:
        return self.series[: self.train_count]


def ingest_edge_series(
    complex_path, series_path, train_count: int | None = None
) -> EdgeSeriesDataset:
    """Load and validate a complex file together with its snapshot CSV.

    The default split mirrors the 250-of-288 reference protocol
    proportionally when no explicit train count is given.
    """
    complex_ = load_complex(complex_path)
    series = read_edge_series(series_path)
    N = series.shape[0]
    if series.shape[1] != complex_.num_edges:
        raise ConfigError(
            f"{series_path}: {series.shape[1]} edge columns but the complex has "
            f"{complex_.num_edges} edges"
        )
    if train_count is None:
        train_count = int(round(N * _REFERENCE_TRAIN / _REFERENCE_SNAPSHOTS))
    if not 0 < train_count < N:
        raise ConfigError(f"train count {train_count} must split {N} snapshots")
    return EdgeSeriesDataset(
        complex=complex_,
        series=series,
        train_count=train_count,
        test_count=N - train_count,
    )


def reference_traffic_complex() -> SimplicialComplex2:
    """A 17-vertex, 26-edge, 5-triangle complex for surrogate experiments.

    Its seed yields a connected edge-agent communication graph, so the
    same complex serves the distributed protocol.
    """
    return grown_complex(17, 26, 5, seed=2)


def _stable_ar_coeffs(
    ops,
    order: int,
    rng: np.random.Generator,
    with_upper: bool,
) -> FilterCoeffs:
    """Random AR taps scaled so every spectral mode is strictly stable.

    The two Laplacians annihilate each other, so their nonzero
    eigenspaces are disjoint and each tap family can be budgeted
    separately: per mode the lag-wise coefficient magnitudes sum to at
    most the family margin, 0.93 upper and 0.8 lower (reached on the top
    eigenvalue). Weight
    concentrates on lag 1, which puts the dominant curl modes near the
    unit circle; the baseline filter class cannot represent those modes
    at all, so they carry the measurable upper-structure signal. The top
    eigenvalues are read from ``l2`` and ``l0``, whose nonzero spectra
    are those of the upper and the lower Laplacian.
    """
    lam_u = float(np.max(np.linalg.eigvalsh(ops.l2), initial=0.0)) or 1.0
    lam_d = float(np.max(np.linalg.eigvalsh(ops.l0), initial=0.0)) or 1.0
    lag_weights = 0.3 ** np.arange(order)

    def family(margin: float) -> np.ndarray:
        weights = lag_weights * rng.uniform(0.8, 1.2, size=order)
        return margin * weights / weights.sum()

    h_u = np.zeros(order + 1)
    h_d = np.zeros(order)
    weights_u = family(0.93) if with_upper else np.zeros(order)
    weights_d = family(0.8)
    for m in range(1, order + 1):
        h_u[m] = weights_u[m - 1] / lam_u**m
        h_d[m - 1] = weights_d[m - 1] / lam_d**m
    return FilterCoeffs(h_u=h_u, h_d=h_d)


def synthetic_traffic_series(
    complex_: SimplicialComplex2,
    order: int,
    snapshots: int,
    seed: int,
    with_upper: bool = True,
    warmup: int = 200,
) -> tuple[np.ndarray, FilterCoeffs]:
    """Autoregressive surrogate snapshots driven by the complex structure.

    The recursion applies random stable simplicial AR taps to white
    innovations of standard deviation 0.05; with ``with_upper=False`` the
    generating process uses only the lower Laplacian. Values are O(1) by
    construction: callers must rescale if they need raw traffic magnitudes.
    """
    ops = hodge_laplacians(complex_)
    rng = np.random.default_rng(seed)
    coeffs = _stable_ar_coeffs(ops, order, rng, with_upper)
    total = warmup + snapshots
    innov = 0.05 * rng.standard_normal((total, complex_.num_edges))
    taps = coeffs.flatten()[1:]
    # ``order`` zero rows of history before the first snapshot; row
    # ``order + n`` is x(n), and a window of ``order + 1`` rows is its one
    # step, whose last row is a placeholder since the lag-0 column is dropped
    x = np.zeros((order + total, complex_.num_edges))
    for n in range(total):
        lags = regressor_tensor(x[n : n + order + 1], ops, order)[0, :, 1:]
        x[order + n] = innov[n] + lags @ taps
    return x[order + warmup :], coeffs


def traffic_surrogate(
    seed: int,
    order: int = 3,
    with_upper: bool = True,
    snapshots: int = _REFERENCE_SNAPSHOTS,
    train_count: int = _REFERENCE_TRAIN,
    complex_: SimplicialComplex2 | None = None,
) -> EdgeSeriesDataset:
    """Surrogate dataset at the reference dimensions (17/26/5, 288, 250/38)."""
    if complex_ is None:
        complex_ = reference_traffic_complex()
    series, _ = synthetic_traffic_series(
        complex_, order=order, snapshots=snapshots, seed=seed, with_upper=with_upper
    )
    return EdgeSeriesDataset(
        complex=complex_,
        series=series,
        train_count=train_count,
        test_count=snapshots - train_count,
    )
