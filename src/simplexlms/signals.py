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

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .complexes import HodgeOperators

__all__ = [
    "FilterCoeffs",
    "StreamConfig",
    "StreamBlock",
    "MomentSet",
    "regressor_tensor",
    "generate_stream",
    "moments_closed_form",
    "moments_empirical",
    "edge_moment_matrices",
    "local_moment_matrices",
]

# Floats in one regressor window (256 KB): the unit in which stream consumers
# build regressors, so a block's working set fits in cache and memory does
# not grow with the horizon.
_WINDOW_ELEMENTS = 1 << 15
# Fewest rows in a window: each window re-reads both incidence factors and
# their transposes, which at large edge counts costs more than a few rows'
# products.
_MIN_WINDOW_ROWS = 64


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
    def random(cls, order: int, rng: np.random.Generator, scale: float = 1.0) -> "FilterCoeffs":
        return cls(
            h_u=scale * rng.standard_normal(order + 1),
            h_d=scale * rng.standard_normal(order),
        )


@dataclass
class StreamConfig:
    """The signal model of a synthetic stream; a draw takes its length and seed.

    ``c_x`` is the (symmetric PSD) spatial covariance of the white signal
    process, or a 0-d variance ``c`` standing for ``c I`` (white signals of
    equal variance, with no E x E array); ``sigma_v2`` the per-edge noise
    variances and ``p`` the per-edge Bernoulli sampling probabilities. The
    covariance factor the draws use is computed once, by the check at
    construction; change ``c_x`` with ``dataclasses.replace``, not by
    assignment.
    """

    c_x: np.ndarray
    sigma_v2: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        self.c_x = np.asarray(self.c_x, dtype=np.float64)
        self.sigma_v2 = np.asarray(self.sigma_v2, dtype=np.float64)
        self.p = np.asarray(self.p, dtype=np.float64)
        E = self.c_x.shape[0] if self.c_x.ndim else self.sigma_v2.size
        if self.c_x.ndim:
            if self.c_x.shape != (E, E):
                raise ValueError("c_x must be square")
            if not np.allclose(self.c_x, self.c_x.T, atol=1e-12):
                raise ValueError("c_x must be symmetric")
        # raises unless c_x is positive semi-definite; kept for the draws
        self._factor = _covariance_factor(self.c_x)
        # written so that NaN fails both checks
        if self.sigma_v2.shape != (E,) or not np.all(self.sigma_v2 >= 0):
            raise ValueError("sigma_v2 must be a nonnegative length-E vector")
        if self.p.shape != (E,) or not np.all((0 <= self.p) & (self.p <= 1)):
            raise ValueError("p must be a length-E vector of probabilities")

    @property
    def num_edges(self) -> int:
        return self.sigma_v2.shape[0]

    @classmethod
    def white(
        cls,
        num_edges: int,
        signal_var: float = 1.0,
        sigma_v2=0.0,
        p=1.0,
    ) -> "StreamConfig":
        """Convenience constructor for i.i.d. signals with scalar knobs."""
        return cls(
            c_x=np.float64(signal_var),
            sigma_v2=np.broadcast_to(np.asarray(sigma_v2, dtype=np.float64), (num_edges,)).copy(),
            p=np.broadcast_to(np.asarray(p, dtype=np.float64), (num_edges,)).copy(),
        )


@dataclass
class StreamBlock:
    """Consecutive steps ``start, start + 1, ...`` of one stream realisation.

    ``d`` and ``y`` hold the block's rows of the masks and observations,
    and ``X[j]`` is the regressor matrix of row ``start + j``, whose lag-0
    column ``X[j, :, 0]`` is that row's signal.
    """

    start: int
    X: np.ndarray
    d: np.ndarray
    y: np.ndarray


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


def _power_columns(x: np.ndarray, factor: np.ndarray, factor_t: np.ndarray,
                   gram: np.ndarray, order: int, out: np.ndarray,
                   weights: np.ndarray | None = None) -> None:
    """Write ``L^m x(n-m)`` for ``m = 1..order`` into ``out``, with ``L = F diag(w) F^T``.

    ``x`` holds N consecutive signal rows, ``factor`` is ``F`` (E x K) and
    ``factor_t`` is ``F^T``, both C-ordered: BLAS runs small products of
    that layout up to twice as fast, so callers keep both forms rather
    than copy one per call. ``gram`` is ``F^T F`` and ``weights`` is ``w``
    (all ones if omitted).
    ``out`` is ``(N - order, E, order)``, a column block of a regressor
    tensor, and ``out[j, :, m - 1]`` receives ``L^m x(order + j - m)``.
    Since ``L^m = F (diag(w) F^T F)^(m-1) diag(w) F^T``, the rows are
    projected into the K-dimensional factor space once, each further
    power is one product with the K x K ``gram`` and one product maps it
    back, so no E x E operator is formed. Every power goes through one
    buffer, so no edge-sized temporary is allocated per power.
    """
    N = x.shape[0]
    q = x @ factor
    buf = np.empty(out.shape[:2])
    for m in range(1, order + 1):
        if weights is not None:
            q = q * weights
        out[:, :, m - 1] = np.matmul(q[order - m : N - m], factor_t, out=buf)
        if m < order:
            q = q @ gram


def regressor_tensor(x: np.ndarray, ops: HodgeOperators, order: int,
                     weights: np.ndarray | None = None) -> np.ndarray:
    """Regressor matrices of every full history window, shape (N - M, E, 2M+1).

    Entry ``j`` is the matrix of row ``order + j``: one per full window.
    The upper columns are :func:`_power_columns` of ``b2`` with Gram
    ``l2``, the lower ones of ``b1^T`` with Gram ``l0``; both factors'
    C-ordered transposes are the operators' cached ``b2_t`` and ``b1_t``.
    ``weights`` weights the upper Laplacian's triangles, ``L_u = b2 diag(w) b2^T``.
    """
    x = np.asarray(x, dtype=np.float64)
    N, E = x.shape
    out = np.empty((N - order, E, 2 * order + 1))
    out[:, :, 0] = x[order:]
    _power_columns(x, ops.b2, ops.b2_t, ops.l2, order, out[:, :, 1 : order + 1], weights)
    _power_columns(x, ops.b1_t, ops.b1, ops.l0, order, out[:, :, order + 1 :])
    return out


def _window_rows(num_edges: int, order: int) -> int:
    """Rows of one regressor window: about ``_WINDOW_ELEMENTS`` floats, or the floor."""
    return max(_MIN_WINDOW_ROWS, _WINDOW_ELEMENTS // (max(num_edges, 1) * (2 * order + 1)))


def _stops(first: int, stop: int, rows: int):
    """Ends of the windows of ``rows`` rows from ``first`` up to ``stop``.

    A last window shorter than ``_MIN_WINDOW_ROWS`` joins the one before it,
    so no window but a lone one is thinner than the floor.
    """
    return chain(range(first + rows, stop - _MIN_WINDOW_ROWS + 1, rows), (stop,))


def _block_stops(num_edges: int, order: int, horizon: int):
    """Row bounds for :func:`_draw`: the ``order`` history rows, then a window each
    up to ``horizon`` steps."""
    return chain((order,), _stops(order, horizon + order, _window_rows(num_edges, order)))


def _history_walk(blocks, order: int, start: int, history: np.ndarray):
    """Carry the ``order`` signal rows before each block of a stream into it.

    ``blocks`` yields tuples ``(x, ...)`` where ``x`` holds the stream's
    next consecutive signal rows, from row ``start`` on, and ``history``
    holds the ``order`` rows just before ``start``. Yields
    ``(start, window, x, ...)`` per block, where ``window`` stacks the
    ``order`` rows before the block on top of ``x``: every row of ``x``
    is a step, and ``regressor_tensor(window)`` holds the block's
    regressors, so the blocks concatenate to the whole-stream tensor
    while one window is alive. A block shorter than the order takes
    history from several.
    """
    for block in blocks:
        window = np.concatenate([history, block[0]])
        yield (start, window, *block)
        history = window[window.shape[0] - order :].copy()
        start += window.shape[0] - order


def _series_walk(x: np.ndarray, order: int, first: int, stop: int | None = None):
    """:func:`_history_walk` over the steps ``first..stop-1`` of an in-memory series.

    Row ``n`` is ``x[n mod N]`` for the series' ``N`` rows, so a ``stop``
    past ``N`` (the default) walks the series' periodic extension without
    building it. A block is one regressor window (:func:`_window_rows`,
    :func:`_stops`); one that runs past row ``N - 1`` gathers its rows
    modulo ``N``. The first block's history is the ``order`` rows before
    ``first``: ``order <= first <= N``, or a ``ValueError`` is raised.
    """
    N, E = x.shape
    if not order <= first <= N:
        raise ValueError(f"a walk of order {order} over {N} rows cannot start at row {first}")
    stop = N if stop is None else stop
    bounds = [first, *_stops(first, stop, _window_rows(E, order))] if first < stop else []
    blocks = ((x[lo:hi] if hi <= N else x[np.arange(lo, hi) % N],)
              for lo, hi in zip(bounds, bounds[1:]))
    return _history_walk(blocks, order, first, x[first - order : first])


def _covariance_factor(c_x: np.ndarray) -> np.ndarray:
    """Matrix A with A A^T = c_x; Cholesky with an eigen fallback.

    A 0-d variance ``c`` gives the 0-d ``sqrt(c)``, the diagonal of the
    Cholesky factor of ``c I`` bit for bit.
    """
    if c_x.ndim == 0:
        if not c_x >= 0:
            raise ValueError("c_x must be positive semi-definite")
        return np.sqrt(c_x)
    try:
        return np.linalg.cholesky(c_x)
    except np.linalg.LinAlgError:
        lam, u = np.linalg.eigh(c_x)
        if np.min(lam) < -1e-10:
            raise ValueError("c_x must be positive semi-definite") from None
        return u * np.sqrt(np.clip(lam, 0.0, None))


def _draw(cfg: StreamConfig, seed: int, stops):
    """Signals ``x``, noise ``v`` and masks ``d`` of one stream, block by block.

    Yields one ``(x, v, d)`` triple of ``(rows, E)`` arrays per entry of
    the increasing row bounds ``stops``, holding the rows from the
    previous stop (0 at first) up to it. Signals and noise are i.i.d.
    Gaussian; masks are Bernoulli; signals use the covariance factor
    computed when ``cfg`` was checked. Three child generators (signal,
    noise, mask) are spawned from ``seed``, so the draws stay decoupled
    yet fully reproducible. They carry their state from block to block,
    so a white stream's blocks concatenate to the one-block draw bit for
    bit; a dense covariance factor enters one matrix product per block,
    whose rounding may depend on the block size.
    """
    sig, noise, mask = (np.random.default_rng(s)
                        for s in np.random.SeedSequence(seed).spawn(3))
    factor = cfg._factor
    scale = factor if factor.ndim == 0 else np.diag(factor)
    # a diagonal factor (white signals) scales columns: the same bits as the
    # product, without the matrix product's work buffer in memory
    white = factor.ndim == 0 or np.array_equal(factor, np.diag(scale))
    noise_scale = np.sqrt(cfg.sigma_v2)
    start = 0
    for stop in stops:
        shape = (stop - start, cfg.num_edges)
        x = sig.standard_normal(shape)
        x = x * scale if white else x @ factor.T
        v = noise.standard_normal(shape) * noise_scale
        d = (mask.random(shape) < cfg.p).astype(np.float64)
        yield x, v, d
        start = stop


def generate_stream(coeffs: FilterCoeffs, ops: HodgeOperators, cfg: StreamConfig,
                    horizon: int, seed: int):
    """Draw one stream realisation of the observation model, block by block.

    A generator of :class:`StreamBlock` that yields ``horizon`` steps drawn
    from ``seed`` (a negative ``horizon`` raises a ``ValueError``): the first
    ``order`` rows are drawn as history, the first block starts at row
    ``order`` and each block holds the next ``rows`` rows, where a block's
    regressors hold about ``_WINDOW_ELEMENTS`` floats and ``rows`` is at
    least ``_MIN_WINDOW_ROWS``; a shorter last block joins the one before
    it. Only the block's rows are drawn (:func:`_draw`), and its regressors
    are built once, from them and the ``order`` rows before them
    (:func:`_history_walk`), to give ``y = d * (X h + v)``. Memory does not
    grow with the horizon.
    """
    if ops.num_edges != cfg.num_edges:
        raise ValueError("config dimension does not match the complex")
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    order = coeffs.order
    h = coeffs.flatten()
    draws = _draw(cfg, seed, _block_stops(cfg.num_edges, order, horizon))
    for start, window, _, v, d in _history_walk(draws, order, order, next(draws)[0]):
        X = regressor_tensor(window, ops, order)
        yield StreamBlock(start=start, X=X, d=d, y=d * (X @ h + v))


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

    A 0-d ``c_x`` stands for ``c_x I``. The cross moment follows from the
    generative model itself: substituting ``y = D (X h + v)`` gives
    ``c_Xy = c_X h`` exactly.
    """
    p = np.asarray(p, dtype=np.float64)
    c_x = np.asarray(c_x, dtype=np.float64)
    sigma_v2 = np.asarray(sigma_v2, dtype=np.float64)
    E = ops.num_edges
    if p.shape != (E,) or c_x.shape not in {(), (E, E)} or sigma_v2.shape != (E,):
        raise ValueError("moment inputs must all match the edge count")
    if coeffs.order != order:
        raise ValueError("coefficient order does not match the requested order")
    Z = edge_moment_matrices(ops, c_x, order)
    c_X = np.tensordot(p, Z, axes=1)
    g = np.tensordot(sigma_v2 * p, Z, axes=1)
    c_Xy = c_X @ coeffs.flatten()
    return MomentSet(c_X=c_X, g=g, c_Xy=c_Xy)


def moments_empirical(blocks, order: int, sigma_v2: np.ndarray | None = None) -> MomentSet:
    """Time-averaged moment estimates from one realised stream.

    ``blocks`` are the :class:`StreamBlock` blocks of
    :func:`generate_stream`; the sums run over their steps block by
    block, so memory does not grow with the horizon. The noise-weighted
    moment needs the noise variances, which are model knowledge rather
    than observables; pass ``sigma_v2`` to estimate it (otherwise it is
    reported as zero).
    """
    dim = 2 * order + 1
    c_X, g, c_Xy = np.zeros((dim, dim)), np.zeros((dim, dim)), np.zeros(dim)
    count = 0
    for block in blocks:
        c_X += np.einsum("nia,ni,nib->ab", block.X, block.d, block.X)
        c_Xy += np.einsum("nia,ni,ni->a", block.X, block.d, block.y)
        if sigma_v2 is not None:
            g += np.einsum("nia,i,ni,nib->ab", block.X, sigma_v2, block.d, block.X)
        count += block.y.shape[0]
    if count < 1:
        raise ValueError("stream too short for the requested order")
    return MomentSet(c_X=c_X / count, g=g / count, c_Xy=c_Xy / count)


def edge_moment_matrices(ops: HodgeOperators, c_x: np.ndarray | float,
                         order: int) -> np.ndarray:
    """Per-edge regressor moments ``E{z_i z_i^T}``, shape (E, 2M+1, 2M+1).

    These are the building blocks of every masked moment: weighting by
    the sampling probabilities recovers the global Gram matrix,
    ``c_X = sum_i p_i Z_i``, and each agent's masked local moment is
    ``p_i Z_i``. Regressor column 0 applies the identity to ``x(n)``,
    columns ``1..M`` apply ``upper^m`` and columns ``M+1..2M`` apply
    ``lower^m`` to ``x(n-m)``. Whiteness zeroes every pair of columns
    with different lags, so ``Z_i[a, b] = (Op_a c_x Op_b)_{ii}`` for
    equal lags.

    With ``F = b2`` or ``b1^T`` and its Gram ``G = F^T F``, each power is
    ``Op = A F^T`` with ``A = F G^(m-1)``. A 0-d ``c_x`` stands for
    ``c_x I`` (white signals of equal variance), and ``b1 b2 = 0`` makes
    ``Z_i`` diagonal: ``c_x`` times ``(Op^2)_{ii} = (F G^(2m-1) F^T)_{ii}``,
    summed from the sparse factor, an exact integer in float64 on any
    BLAS. A dense ``c_x`` gives ``Z_i[a, b] = sum_k (A_a W_ab)_{ik} (A_b)_{ik}``
    with the small ``W_ab = F_a^T c_x F_b``, over row blocks of ``A`` of
    about ``_WINDOW_ELEMENTS`` floats, so no E x E operator is formed. A
    basis whose sum over the edges (``c_X`` at ``p = 1``) is not finite,
    from a signal scale too large to represent, raises a ``ValueError``.
    """
    c_x = np.asarray(c_x, dtype=np.float64)
    dim = 2 * order + 1
    Z = np.zeros((ops.num_edges, dim, dim))
    # an overflowing scale leaves inf or nan entries, which the check rejects
    with np.errstate(over="ignore", invalid="ignore"):
        Z[:, 0, 0] = np.diag(c_x) if c_x.ndim else c_x
        if order:
            _factor_moments(Z, ops, c_x, order)
        finite = np.all(np.isfinite(Z.sum(axis=0)))
    if not finite:
        raise ValueError("the moment basis must be finite: the signal scale overflows it "
                         "on this complex at this order")
    return Z


def _factor_moments(Z: np.ndarray, ops: HodgeOperators, c_x: np.ndarray, order: int) -> None:
    """Fill the upper and lower entries of :func:`edge_moment_matrices`."""
    # factors F and first columns of the upper and the lower taps
    F = [ops.filling.sparse_b2, ops.skeleton.sparse_b1_t]
    first = [1, order + 1]
    if not c_x.ndim:
        for f, a in zip(F, first):
            # power = G^(2m+1), G = F^T F, in place from m = 2: exact integers on any BLAS
            gram = power = f.gram()
            for m in range(order):
                if m:
                    power = np.matmul(gram, power @ gram, out=power if m > 1 else None)
                Z[:, a + m, a + m] = c_x * f.pair_sum(power)
        return
    dense = [ops.b2, ops.b1.T]
    cx_f = [c_x @ f for f in dense]
    weights = {(s, t): dense[s].T @ cx_f[t] for t in range(2) for s in range(t + 1)}
    # the Grams carry a row block from one power to the next
    grams = [f.gram() for f in F] if order > 1 else []
    step = max(1, _WINDOW_ELEMENTS // max(F[0].shape[1], F[1].shape[1], 1))
    for lo in range(0, Z.shape[0], step):
        block = Z[lo : lo + step]
        A = [np.ascontiguousarray(f[lo : lo + step]) for f in dense]
        for m in range(order):
            if m:
                A = [a @ gram for a, gram in zip(A, grams)]
            for (s, t), w in weights.items():
                values = np.einsum("ik,ik->i", A[s] @ w, A[t])
                block[:, first[s] + m, first[t] + m] = values
                block[:, first[t] + m, first[s] + m] = values


def local_moment_matrices(
    ops: HodgeOperators, p: np.ndarray, c_x: np.ndarray, order: int
) -> np.ndarray:
    """Masked per-edge moments ``E{d_i z_i z_i^T} = p_i E{z_i z_i^T}``."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (ops.num_edges,):
        raise ValueError("moment inputs must all match the edge count")
    return p[:, None, None] * edge_moment_matrices(ops, c_x, order)
