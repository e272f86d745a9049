"""Edge time-series datasets: ingestion, serialisation and surrogates.

The on-disk format pairs a complex file (see :mod:`.complexes`) with a
CSV of snapshots whose header is ``n,e_1,...,e_E`` and whose rows hold
one snapshot each. A generator for autoregressive surrogate traffic at
the reference scale of 17 vertices / 26 edges / 5 triangles and 288
snapshots (250 train / 38 test) is included, since the original traffic
measurements are not redistributed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .complexes import (
    SimplicialComplex2,
    grown_complex,
    hodge_laplacians,
    laplacian_powers,
    load_complex,
)
from .errors import ConfigError
from .signals import FilterCoeffs

__all__ = [
    "EdgeSeriesDataset",
    "read_edge_series",
    "write_edge_series",
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

    @property
    def test_series(self) -> np.ndarray:
        return self.series[self.train_count :]


def write_edge_series(path, series: np.ndarray) -> None:
    """CSV with header ``n,e_1,...,e_E`` and one snapshot per row."""
    series = np.asarray(series, dtype=np.float64)
    N, E = series.shape
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n"] + [f"e_{j + 1}" for j in range(E)])
        for n in range(N):
            writer.writerow([n] + [repr(float(v)) for v in series[n]])


def read_edge_series(path) -> np.ndarray:
    """Load a snapshot CSV; malformed or non-finite cells name the offending line."""
    rows: list[list[float]] = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty series file") from None
        if not header or header[0] != "n" or any(
            h != f"e_{j + 1}" for j, h in enumerate(header[1:])
        ):
            raise ConfigError(f"{path}: header must be n,e_1,...,e_E, got {header!r}")
        width = len(header) - 1
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width + 1:
                raise ConfigError(
                    f"{path}: line {lineno}: expected {width + 1} cells, got {len(row)}"
                )
            try:
                rows.append([float(v) for v in row[1:]])
            except ValueError:
                raise ConfigError(f"{path}: line {lineno}: non-numeric cell") from None
    if not rows:
        raise ConfigError(f"{path}: series file holds no snapshots")
    series = np.asarray(rows, dtype=np.float64)
    # float() accepts "nan" and "inf"; reject them here, not as a divergence later
    bad = np.flatnonzero(~np.all(np.isfinite(series), axis=1))
    if bad.size:
        raise ConfigError(f"{path}: line {bad[0] + 2}: non-finite cell")
    return series


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


def reference_traffic_complex(seed: int = 2) -> SimplicialComplex2:
    """A 17-vertex, 26-edge, 5-triangle complex for surrogate experiments.

    The default seed yields a connected edge-agent communication graph,
    so the same complex serves the distributed protocol.
    """
    return grown_complex(17, 26, 5, seed=seed)


def _stable_ar_coeffs(
    ops,
    order: int,
    rng: np.random.Generator,
    with_upper: bool,
    margin_upper: float = 0.93,
    margin_lower: float = 0.8,
) -> FilterCoeffs:
    """Random AR taps scaled so every spectral mode is strictly stable.

    The two Laplacians annihilate each other, so their nonzero
    eigenspaces are disjoint and each tap family can be budgeted
    separately: per mode the lag-wise coefficient magnitudes sum to at
    most the family margin (reached on the top eigenvalue). Weight
    concentrates on lag 1, which puts the dominant curl modes near the
    unit circle; the baseline filter class cannot represent those modes
    at all, so they carry the measurable upper-structure signal.
    """
    lam_u = float(np.max(np.linalg.eigvalsh(ops.upper))) or 1.0
    lam_d = float(np.max(np.linalg.eigvalsh(ops.lower))) or 1.0
    lag_weights = 0.3 ** np.arange(order)

    def family(margin: float) -> np.ndarray:
        weights = lag_weights * rng.uniform(0.8, 1.2, size=order)
        return margin * weights / weights.sum()

    h_u = np.zeros(order + 1)
    h_d = np.zeros(order)
    weights_u = family(margin_upper) if with_upper else np.zeros(order)
    weights_d = family(margin_lower)
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
    noise_std: float = 0.05,
    warmup: int = 200,
) -> tuple[np.ndarray, FilterCoeffs]:
    """Autoregressive surrogate snapshots driven by the complex structure.

    The recursion applies random stable simplicial AR taps to white
    innovations; with ``with_upper=False`` the generating process uses
    only the lower Laplacian. Values are O(1) by construction: callers
    must rescale if they need raw traffic magnitudes.
    """
    ops = hodge_laplacians(complex_)
    rng = np.random.default_rng(seed)
    coeffs = _stable_ar_coeffs(ops, order, rng, with_upper)
    E = complex_.num_edges
    up, lo = laplacian_powers(ops, order)
    total = warmup + snapshots
    x = np.zeros((total, E))
    innov = noise_std * rng.standard_normal((total, E))
    x[0] = innov[0]
    for n in range(1, total):
        acc = innov[n].copy()
        for m in range(1, min(order, n) + 1):
            acc += coeffs.h_u[m] * (up[m] @ x[n - m])
            acc += coeffs.h_d[m - 1] * (lo[m] @ x[n - m])
        x[n] = acc
    return x[warmup:], coeffs


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
