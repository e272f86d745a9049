"""Streaming edge-signal model: generation, regressors and second moments.

The observation at time ``n`` is a masked, noisy simplicial-filter output

    y(n) = D(n) [ sum_{m=0}^{M} h_u[m] upper^m x(n-m)
                  + sum_{m=1}^{M} h_d[m] lower^m x(n-m) + v(n) ]

with ``D(n)`` a diagonal 0/1 Bernoulli sampling mask, ``x`` a zero-mean
stationary edge signal and ``v`` white measurement noise. The regressor
matrix stacks the filter taps as columns, so the model reads
``y(n) = D(n) (X(n) h + v(n))`` with the coefficient layout
``h = [h_u[0..M], h_d[1..M]]`` of length ``2M+1``.

Closed-form moments assume the default generator regime of temporally
white signals, ``E{x(n) x(n-m)^T} = C_x`` for ``m = 0`` and zero
otherwise; correlated signals are only supported empirically.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .complexes import HodgeOperators, SimplicialComplex2, hodge_laplacians, laplacian_powers

__all__ = [
    "FilterCoeffs",
    "StreamConfig",
    "StreamBatch",
    "MomentSet",
    "regressor_tensor",
    "sample_mask",
    "generate_stream",
    "moments_closed_form",
    "moments_empirical",
    "edge_moment_matrices",
    "local_moment_matrices",
    "write_stream_csv",
    "read_stream_csv",
]


@dataclass
class FilterCoeffs:
    """Simplicial FIR coefficients: upper taps ``h_u[0..M]``, lower ``h_d[1..M]``."""

    h_u: np.ndarray
    h_d: np.ndarray

    def __post_init__(self):
        self.h_u = np.asarray(self.h_u, dtype=np.float64)
        self.h_d = np.asarray(self.h_d, dtype=np.float64)
        if self.h_u.ndim != 1 or self.h_d.ndim != 1:
            raise ValueError("coefficient blocks must be 1-d")
        if self.h_u.size != self.h_d.size + 1:
            raise ValueError(
                "upper block must have one more tap (the order-0 tap) than the lower block"
            )
        if self.h_u.size < 1:
            raise ValueError("filter order must be at least 0")

    @property
    def order(self) -> int:
        return self.h_d.size

    def flatten(self) -> np.ndarray:
        """Coefficient vector in the ``[h_u[0..M], h_d[1..M]]`` layout."""
        return np.concatenate([self.h_u, self.h_d])

    @classmethod
    def from_flat(cls, vec: np.ndarray) -> "FilterCoeffs":
        vec = np.asarray(vec, dtype=np.float64)
        if vec.ndim != 1 or vec.size % 2 == 0:
            raise ValueError("flat coefficient vector must have odd length 2M+1")
        order = (vec.size - 1) // 2
        return cls(h_u=vec[: order + 1].copy(), h_d=vec[order + 1 :].copy())

    @classmethod
    def random(cls, order: int, rng: np.random.Generator, scale: float = 1.0) -> "FilterCoeffs":
        return cls(
            h_u=scale * rng.standard_normal(order + 1),
            h_d=scale * rng.standard_normal(order),
        )


@dataclass
class StreamConfig:
    """Generator parameters for one synthetic stream.

    ``c_x`` is the (symmetric PSD) spatial covariance of the white signal
    process, ``sigma_v2`` the per-edge noise variances and ``p`` the
    per-edge Bernoulli sampling probabilities. All randomness derives
    from ``seed`` through independent child streams for signal, noise
    and masks.
    """

    c_x: np.ndarray
    sigma_v2: np.ndarray
    p: np.ndarray
    horizon: int
    seed: int

    def __post_init__(self):
        self.c_x = np.asarray(self.c_x, dtype=np.float64)
        self.sigma_v2 = np.asarray(self.sigma_v2, dtype=np.float64)
        self.p = np.asarray(self.p, dtype=np.float64)
        E = self.c_x.shape[0]
        if self.c_x.shape != (E, E):
            raise ValueError("c_x must be square")
        if not np.allclose(self.c_x, self.c_x.T, atol=1e-12):
            raise ValueError("c_x must be symmetric")
        if np.min(np.linalg.eigvalsh(self.c_x)) < -1e-10:
            raise ValueError("c_x must be positive semi-definite")
        if self.sigma_v2.shape != (E,) or np.any(self.sigma_v2 < 0):
            raise ValueError("sigma_v2 must be a nonnegative length-E vector")
        if self.p.shape != (E,) or np.any(self.p < 0) or np.any(self.p > 1):
            raise ValueError("p must be a length-E vector of probabilities")

    @property
    def num_edges(self) -> int:
        return self.c_x.shape[0]

    @classmethod
    def white(
        cls,
        num_edges: int,
        signal_var: float = 1.0,
        sigma_v2=0.0,
        p=1.0,
        horizon: int = 1000,
        seed: int = 0,
    ) -> "StreamConfig":
        """Convenience constructor for i.i.d. signals with scalar knobs."""
        return cls(
            c_x=signal_var * np.eye(num_edges),
            sigma_v2=np.broadcast_to(np.asarray(sigma_v2, dtype=np.float64), (num_edges,)).copy(),
            p=np.broadcast_to(np.asarray(p, dtype=np.float64), (num_edges,)).copy(),
            horizon=horizon,
            seed=seed,
        )


@dataclass
class StreamBatch:
    """Realised stream: signals ``x``, masks ``d`` and observations ``y``.

    ``y[n]`` is zero for ``n < order`` (the filter needs a full history
    window). The noise draw ``v`` is kept when available so that exact
    model identities can be verified; it is not part of the serialised
    format.
    """

    x: np.ndarray
    d: np.ndarray
    y: np.ndarray
    order: int
    v: np.ndarray | None = field(default=None, repr=False)

    @property
    def horizon(self) -> int:
        return self.x.shape[0]

    @property
    def num_edges(self) -> int:
        return self.x.shape[1]


@dataclass
class MomentSet:
    """Second-order moments of the masked regressor stream.

    ``c_X`` is the expected masked regressor Gram matrix, ``g`` the
    noise-weighted counterpart (mask probabilities times noise
    variances), ``c_Xy`` the regressor/observation cross moment.
    """

    c_X: np.ndarray
    g: np.ndarray
    c_Xy: np.ndarray

    def to_json(self) -> str:
        payload = {
            "c_X": self.c_X.tolist(),
            "g": self.g.tolist(),
            "c_Xy": self.c_Xy.tolist(),
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "MomentSet":
        payload = json.loads(text)
        return cls(
            c_X=np.asarray(payload["c_X"], dtype=np.float64),
            g=np.asarray(payload["g"], dtype=np.float64),
            c_Xy=np.asarray(payload["c_Xy"], dtype=np.float64),
        )


def _regressor_operators(ops: HodgeOperators, order: int) -> tuple[list[np.ndarray], list[int]]:
    """Column operators of the regressor matrix with their time lags.

    Column 0 applies the identity to x(n); columns 1..M apply upper^m to
    x(n-m); columns M+1..2M apply lower^m to x(n-m). The same ranges are
    used for every moment formula below, including the cross moment,
    whose tap index ranges are not spelled out anywhere else: upper taps
    run over m = 0..M and lower taps over m = 1..M throughout.
    """
    up, lo = laplacian_powers(ops, order)
    operators = [up[0]]
    lags = [0]
    for m in range(1, order + 1):
        operators.append(up[m])
        lags.append(m)
    for m in range(1, order + 1):
        operators.append(lo[m])
        lags.append(m)
    return operators, lags


def regressor_tensor(x: np.ndarray, ops: HodgeOperators, order: int) -> np.ndarray:
    """Regressor matrices for a whole stream, shape (N, E, 2M+1).

    Rows ``n < order`` are zero: no full history window exists there.
    """
    x = np.asarray(x, dtype=np.float64)
    N, E = x.shape
    up, lo = laplacian_powers(ops, order)
    out = np.zeros((N, E, 2 * order + 1))
    if N <= order:
        return out
    out[order:, :, 0] = x[order:]
    for m in range(1, order + 1):
        shifted = x[order - m : N - m]
        out[order:, :, m] = shifted @ up[m].T
        out[order:, :, order + m] = shifted @ lo[m].T
    return out


def sample_mask(p: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One Bernoulli mask draw, independent across edges."""
    p = np.asarray(p, dtype=np.float64)
    if np.any(p < 0) or np.any(p > 1):
        raise ValueError("sampling probabilities must lie in [0, 1]")
    return (rng.random(p.shape) < p).astype(np.float64)


def _covariance_factor(c_x: np.ndarray) -> np.ndarray:
    """Matrix A with A A^T = c_x; Cholesky with an eigen fallback."""
    try:
        return np.linalg.cholesky(c_x)
    except np.linalg.LinAlgError:
        lam, u = np.linalg.eigh(c_x)
        if np.min(lam) < -1e-10:
            raise ValueError("c_x must be positive semi-definite") from None
        return u * np.sqrt(np.clip(lam, 0.0, None))


def generate_stream(
    coeffs: FilterCoeffs,
    complex_: SimplicialComplex2 | None,
    cfg: StreamConfig,
    ops: HodgeOperators | None = None,
) -> StreamBatch:
    """Draw one stream realisation of the observation model.

    Signals and noise are i.i.d. Gaussian; masks are Bernoulli. Three
    child generators (signal, noise, mask) are spawned from the seed so
    the draws stay decoupled yet fully reproducible.
    """
    if ops is None:
        if complex_ is None:
            raise ValueError("either the complex or its operators must be given")
        ops = hodge_laplacians(complex_)
    E = cfg.num_edges
    if ops.l1.shape[0] != E:
        raise ValueError("config dimension does not match the complex")
    order = coeffs.order
    if cfg.horizon <= order:
        raise ValueError("horizon must exceed the filter order")
    sig_ss, noise_ss, mask_ss = np.random.SeedSequence(cfg.seed).spawn(3)
    rng_sig = np.random.default_rng(sig_ss)
    rng_noise = np.random.default_rng(noise_ss)
    rng_mask = np.random.default_rng(mask_ss)

    N = cfg.horizon
    factor = _covariance_factor(cfg.c_x)
    x = rng_sig.standard_normal((N, E)) @ factor.T
    v = rng_noise.standard_normal((N, E)) * np.sqrt(cfg.sigma_v2)
    d = (rng_mask.random((N, E)) < cfg.p).astype(np.float64)

    R = regressor_tensor(x, ops, order)
    h = coeffs.flatten()
    y = d * (R @ h + v)
    y[:order] = 0.0
    return StreamBatch(x=x, d=d, y=y, order=order, v=v)


def moments_closed_form(
    ops: HodgeOperators,
    p: np.ndarray,
    c_x: np.ndarray,
    sigma_v2: np.ndarray,
    order: int,
    coeffs: FilterCoeffs,
) -> MomentSet:
    """Exact moments for temporally white signals.

    Both moment matrices are weighted sums of the per-edge basis ``Z_i``
    of :func:`edge_moment_matrices`, ``c_X = sum_i p_i Z_i`` and
    ``g = sum_i sigma_v2_i p_i Z_i``. Entry-wise these are traces of
    operator products weighted by the expected sampling matrix:

        c_X[a, b] = Tr(Op_a^T diag(p) Op_b c_x)          (equal lags)
        g[a, b]   = Tr(Op_a^T diag(sigma_v2 * p) Op_b c_x)

    The cross moment follows from the generative model itself:
    substituting ``y = D (X h + v)`` gives ``c_Xy = c_X h`` exactly.
    """
    p = np.asarray(p, dtype=np.float64)
    c_x = np.asarray(c_x, dtype=np.float64)
    sigma_v2 = np.asarray(sigma_v2, dtype=np.float64)
    E = ops.l1.shape[0]
    if p.shape != (E,) or c_x.shape != (E, E) or sigma_v2.shape != (E,):
        raise ValueError("moment inputs must all match the edge count")
    if coeffs.order != order:
        raise ValueError("coefficient order does not match the requested order")
    Z = edge_moment_matrices(ops, c_x, order)
    c_X = np.tensordot(p, Z, axes=1)
    g = np.tensordot(sigma_v2 * p, Z, axes=1)
    c_Xy = c_X @ coeffs.flatten()
    return MomentSet(c_X=c_X, g=g, c_Xy=c_Xy)


def moments_empirical(
    batch: StreamBatch,
    order: int,
    ops: HodgeOperators,
    sigma_v2: np.ndarray | None = None,
) -> MomentSet:
    """Time-averaged moment estimates from one realised stream.

    The noise-weighted moment needs the noise variances, which are model
    knowledge rather than observables; pass ``sigma_v2`` to estimate it
    (otherwise it is reported as zero).
    """
    if batch.horizon < order + 1:
        raise ValueError("batch too short for the requested order")
    R = regressor_tensor(batch.x, ops, order)
    R = R[order:]
    d = batch.d[order:]
    y = batch.y[order:]
    count = R.shape[0]
    c_X = np.einsum("nia,ni,nib->ab", R, d, R) / count
    c_Xy = np.einsum("nia,ni,ni->a", R, d, y) / count
    dim = 2 * order + 1
    if sigma_v2 is None:
        g = np.zeros((dim, dim))
    else:
        sigma_v2 = np.asarray(sigma_v2, dtype=np.float64)
        g = np.einsum("nia,i,ni,nib->ab", R, sigma_v2, d, R) / count
    return MomentSet(c_X=c_X, g=g, c_Xy=c_Xy)


def edge_moment_matrices(ops: HodgeOperators, c_x: np.ndarray, order: int) -> np.ndarray:
    """Per-edge regressor moments ``E{z_i z_i^T}``, shape (E, 2M+1, 2M+1).

    These are the building blocks of every masked moment: weighting by
    the sampling probabilities recovers the global Gram matrix,
    ``c_X = sum_i p_i Z_i``, and each agent's masked local moment is
    ``p_i Z_i``. Whiteness zeroes every pair of regressor columns with
    different lags.
    """
    c_x = np.asarray(c_x, dtype=np.float64)
    E = ops.l1.shape[0]
    operators, lags = _regressor_operators(ops, order)
    dim = len(operators)
    Z = np.zeros((E, dim, dim))
    for a in range(dim):
        for b in range(a, dim):
            if lags[a] != lags[b]:
                continue
            # Z_i[a, b] = (Op_a c_x Op_b^T)_{ii}
            rows = np.einsum("ij,jk,ik->i", operators[a], c_x, operators[b])
            Z[:, a, b] = rows
            Z[:, b, a] = rows
    return Z


def local_moment_matrices(
    ops: HodgeOperators, p: np.ndarray, c_x: np.ndarray, order: int
) -> np.ndarray:
    """Masked per-edge moments ``E{d_i z_i z_i^T} = p_i E{z_i z_i^T}``."""
    p = np.asarray(p, dtype=np.float64)
    return p[:, None, None] * edge_moment_matrices(ops, c_x, order)


def write_stream_csv(batch: StreamBatch, path) -> None:
    """Serialise a stream as rows ``n, edge_id, x, d, y``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "edge_id", "x", "d", "y"])
        for n in range(batch.horizon):
            for e in range(batch.num_edges):
                writer.writerow(
                    [n, e, repr(float(batch.x[n, e])), int(batch.d[n, e]), repr(float(batch.y[n, e]))]
                )


def read_stream_csv(path, order: int) -> StreamBatch:
    """Load a stream written by :func:`write_stream_csv` (noise is not stored)."""
    rows = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["n", "edge_id", "x", "d", "y"]:
            raise ValueError(f"{path}: unexpected stream header {header!r}")
        for row in reader:
            rows.append((int(row[0]), int(row[1]), float(row[2]), float(row[3]), float(row[4])))
    if not rows:
        raise ValueError(f"{path}: empty stream file")
    N = max(r[0] for r in rows) + 1
    E = max(r[1] for r in rows) + 1
    x = np.zeros((N, E))
    d = np.zeros((N, E))
    y = np.zeros((N, E))
    for n, e, xv, dv, yv in rows:
        x[n, e] = xv
        d[n, e] = dv
        y[n, e] = yv
    return StreamBatch(x=x, d=d, y=y, order=order)
