"""Distributed adaptive filtering by adapt-then-combine diffusion.

One agent sits on every edge. In each synchronous round an agent with a
sampled observation takes a local LMS step on its own regressor row,

    w_i = h_i + mu_i d_i z_i (y_i - z_i^T h_i),

and every agent then averages the intermediate estimates of its
neighbourhood with row-stochastic weights. Stacking the per-agent
errors, the mean recursion is driven by ``B = A_blk (I - M C_z)`` with
``A_blk = A (x) I``, ``M = diag(mu_i I)`` and ``C_z`` the block diagonal
of the masked local moments. The network is called stable only when
``rho(B)`` clears 1 by a small margin (see :mod:`.lms`); the
steady-state network deviation is then

    Tr(A_blk M G M A_blk^T S),  S = B^T S B + I,

with ``G = diag(sigma_v2_i * C_z_i)`` and ``S`` from a discrete
Lyapunov (Stein) solve by squared doubling (R. A. Smith, "Matrix
equation XA + BX = C", SIAM J. Appl. Math. 16(1), 1968).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .complexes import SimplicialComplex2, hodge_laplacians
from .errors import DivergenceError
from .lms import _is_stable, _monte_carlo, _stream_states
from .signals import (
    FilterCoeffs,
    StreamConfig,
    generate_stream,
    local_moment_matrices,
)

__all__ = [
    "CombinationMatrix",
    "NetworkState",
    "TheoremChecks",
    "DistTheoryReport",
    "DistResult",
    "lower_adjacency_neighborhoods",
    "build_combination",
    "check_irreducible",
    "atc_step",
    "dist_theory",
    "run_distributed",
    "save_combination",
    "load_combination",
]

# Squarings allowed in the Stein solve: 2^64 terms of its series cover
# every radius that passes the stability margin, rho(B) < 1 - 1e-9.
_DOUBLING_STEPS = 64


@dataclass
class CombinationMatrix:
    """Row-stochastic nonnegative weights supported on the neighbourhoods."""

    a: np.ndarray
    neighborhoods: tuple[tuple[int, ...], ...]

    @property
    def num_agents(self) -> int:
        return self.a.shape[0]


def lower_adjacency_neighborhoods(complex_: SimplicialComplex2) -> list[list[int]]:
    """Edges sharing a vertex, plus the edge itself (the default comm graph)."""
    ops = hodge_laplacians(complex_)
    E = complex_.num_edges
    return [
        sorted(set(np.flatnonzero(ops.lower[i] != 0).tolist()) | {i})
        for i in range(E)
    ]


def build_combination(
    neighborhoods: list[list[int]], rule: str = "uniform"
) -> CombinationMatrix:
    """Combination weights from neighbourhoods, uniform or Metropolis.

    Every neighbourhood must contain its own agent. The uniform rule
    averages the neighbourhood; the Metropolis rule uses
    ``1 / (1 + max(deg_i, deg_l))`` off-diagonal and puts the remainder
    on the self weight, which makes the matrix symmetric (hence doubly
    stochastic).
    """
    E = len(neighborhoods)
    a = np.zeros((E, E))
    degrees = [len(set(nbr)) - 1 for nbr in neighborhoods]
    for i, nbrs in enumerate(neighborhoods):
        nbrs = sorted(set(nbrs))
        if not nbrs:
            raise ValueError(f"agent {i} has an empty neighbourhood")
        if i not in nbrs:
            raise ValueError(f"agent {i} must belong to its own neighbourhood")
        if rule == "uniform":
            for l in nbrs:
                a[i, l] = 1.0 / len(nbrs)
        elif rule == "metropolis":
            for l in nbrs:
                if l != i:
                    a[i, l] = 1.0 / (1.0 + max(degrees[i], degrees[l]))
            a[i, i] = 1.0 - np.sum(a[i])
        else:
            raise ValueError(f"unknown combination rule {rule!r}")
    return CombinationMatrix(
        a=a, neighborhoods=tuple(tuple(sorted(set(n))) for n in neighborhoods)
    )


def check_irreducible(comb: CombinationMatrix) -> bool:
    """True iff the support digraph is strongly connected.

    Equivalent to some power of the matrix being entrywise positive at
    every pair, but scales to large agent counts.
    """
    a = comb.a
    E = a.shape[0]
    if E == 0:
        return False

    def reachable(adjacency: np.ndarray) -> bool:
        seen = np.zeros(E, dtype=bool)
        stack = [0]
        seen[0] = True
        while stack:
            i = stack.pop()
            for j in np.flatnonzero(adjacency[i]):
                if not seen[j]:
                    seen[j] = True
                    stack.append(int(j))
        return bool(np.all(seen))

    support = a > 0
    return reachable(support) and reachable(support.T)


@dataclass
class NetworkState:
    """Per-agent coefficient estimates (rows) with per-agent step-sizes."""

    estimates: np.ndarray       # (E, 2M+1)
    mu: np.ndarray              # (E,)
    n: int = 0


def atc_step(
    net: NetworkState,
    comb: CombinationMatrix,
    z: np.ndarray,
    d: np.ndarray,
    y: np.ndarray,
) -> NetworkState:
    """One synchronous adapt-then-combine round.

    Agents with ``d_i = 0`` skip adaptation and only combine. All agents
    are processed in index order, so the round is deterministic.
    """
    H = net.estimates
    E, dim = H.shape
    if z.shape != (E, dim) or d.shape != (E,) or y.shape != (E,):
        raise ValueError(
            f"inconsistent shapes: z {z.shape}, d {d.shape}, y {y.shape}, "
            f"estimates {H.shape}"
        )
    err = d * (y - np.einsum("ij,ij->i", z, H))
    W = H + (net.mu * err)[:, None] * z
    H_new = comb.a @ W
    if not np.all(np.isfinite(H_new)):
        raise DivergenceError(f"non-finite network state at round {net.n + 1}")
    return NetworkState(estimates=H_new, mu=net.mu, n=net.n + 1)


def _block_diag(blocks: np.ndarray) -> np.ndarray:
    """Block-diagonal matrix of the ``(E, dim, dim)`` stack ``blocks``."""
    E, dim, _ = blocks.shape
    out = np.zeros((E, dim, E, dim))
    agents = np.arange(E)
    out[agents, :, agents, :] = blocks
    return out.reshape(E * dim, E * dim)


def _stein_solve(B: np.ndarray) -> np.ndarray:
    """Solve ``S = B^T S B + I`` for ``rho(B) < 1`` by squared doubling.

    With ``A_k = B^(2^k)`` the update ``S <- S + A_k^T S A_k`` doubles the
    number of summed terms of ``S = sum_j (B^T)^j B^j``. ``S`` is at least
    ``I``, so ``Tr(A_k^T S A_k) >= ||A_k||_F^2``: once an increment is
    below rounding relative to ``S``, ``A_k`` is negligible and every
    later increment, built from its powers, is smaller still.
    """
    eps = np.finfo(np.float64).eps
    S = np.eye(B.shape[0])
    A = B
    for _ in range(_DOUBLING_STEPS):
        increment = A.T @ S @ A
        S = S + increment
        if np.trace(increment) <= eps * np.trace(S):
            break
        A = A @ A
    return S


@dataclass
class TheoremChecks:
    """Hypotheses of the mean-stability theorem for the diffusion recursion."""

    irreducible: bool
    some_local_moment_nonsingular: bool
    stepsizes_within_local_bounds: bool

    def all_hold(self) -> bool:
        return (
            self.irreducible
            and self.some_local_moment_nonsingular
            and self.stepsizes_within_local_bounds
        )


@dataclass
class DistTheoryReport:
    """Mean/mean-square predictions for one distributed configuration."""

    b_matrix: np.ndarray
    rho_b: float
    local_radius: np.ndarray     # per-agent spectral radius of C_z_i
    local_mu_bounds: np.ndarray  # 2 / rho(C_z_i)
    checks: TheoremChecks
    stable: bool
    msd_total: float             # sum over agents of the limiting deviation
    msd_per_agent: float


def dist_theory(
    comb: CombinationMatrix,
    local_moments: np.ndarray,
    sigma_v2: np.ndarray,
    mu: np.ndarray,
) -> DistTheoryReport:
    """Stability and steady-state analysis of the diffusion recursion.

    ``local_moments`` holds the masked per-agent moments ``C_z_i``
    (shape (E, dim, dim)); an unstable configuration, one whose
    ``rho(B)`` does not clear 1 by the stability margin, is reported
    through the ``stable`` flag and NaN deviations rather than raised.
    """
    A = comb.a
    E = A.shape[0]
    local_moments = np.asarray(local_moments, dtype=np.float64)
    sigma_v2 = np.asarray(sigma_v2, dtype=np.float64)
    mu = np.broadcast_to(np.asarray(mu, dtype=np.float64), (E,))
    dim = local_moments.shape[1]
    n = E * dim

    a_blk = np.kron(A, np.eye(dim))
    c_z = _block_diag(local_moments)
    m_diag = np.repeat(mu, dim)
    B = a_blk @ (np.eye(n) - m_diag[:, None] * c_z)
    rho_b = float(np.max(np.abs(np.linalg.eigvals(B))))

    local_radius = np.array(
        [float(np.max(np.abs(np.linalg.eigvalsh(local_moments[i])))) for i in range(E)]
    )
    with np.errstate(divide="ignore"):
        local_bounds = np.where(local_radius > 0, 2.0 / local_radius, np.inf)
    min_eigs = np.array(
        [float(np.min(np.linalg.eigvalsh(local_moments[i]))) for i in range(E)]
    )
    scale = max(float(np.max(local_radius)), 1.0)
    checks = TheoremChecks(
        irreducible=check_irreducible(comb),
        some_local_moment_nonsingular=bool(np.any(min_eigs > 1e-12 * scale)),
        stepsizes_within_local_bounds=bool(np.all(mu < local_bounds)),
    )

    stable = _is_stable(rho_b)
    msd_total = float("nan")
    if stable:
        g_blocks = sigma_v2[:, None, None] * local_moments
        g = _block_diag(g_blocks)
        core = (m_diag[:, None] * g) * m_diag[None, :]
        R = a_blk @ core @ a_blk.T
        S = _stein_solve(B)
        msd_total = float(np.trace(R @ S))
    return DistTheoryReport(
        b_matrix=B,
        rho_b=rho_b,
        local_radius=local_radius,
        local_mu_bounds=local_bounds,
        checks=checks,
        stable=stable,
        msd_total=msd_total,
        msd_per_agent=msd_total / E if stable else float("nan"),
    )


@dataclass
class DistResult:
    """Network deviation trajectory: mean over agents of ||h_true - h_i||^2."""

    msd: np.ndarray
    agent_msd: np.ndarray | None
    theory: DistTheoryReport
    realizations: int
    diverged: list[int]


def run_distributed(
    complex_: SimplicialComplex2,
    coeffs: FilterCoeffs,
    cfg: StreamConfig,
    comb: CombinationMatrix,
    mu,
    realizations: int,
    horizon: int,
    track_agents: bool = False,
) -> DistResult:
    """Monte-Carlo run of the diffusion recursion on a simulated network.

    Every realization draws one global signal stream; each agent sees
    its own regressor row, mask and observation entry. Rounds are
    synchronous with fixed agent order, so a fixed seed reproduces the
    trajectory bit for bit. Realizations run through the Monte-Carlo
    engine, :func:`.lms._monte_carlo`.
    """
    ops = hodge_laplacians(complex_)
    order = coeffs.order
    E = complex_.num_edges
    h_true = coeffs.flatten()
    mu_vec = np.broadcast_to(np.asarray(mu, dtype=np.float64), (E,)).copy()

    locals_ = local_moment_matrices(ops, cfg.p, cfg.c_x, order)
    theory = dist_theory(comb, locals_, cfg.sigma_v2, mu_vec)

    def run_one(seed: int) -> tuple[np.ndarray, ...]:
        traj = np.empty(horizon + 1)
        agent_traj = np.empty((E, horizon + 1)) if track_agents else None
        batch = generate_stream(coeffs, None, replace(cfg, horizon=horizon + order, seed=seed),
                                ops=ops)
        states = _stream_states(NetworkState(estimates=np.zeros((E, h_true.size)), mu=mu_vec),
                                lambda net, z, d, y: atc_step(net, comb, z, d, y), batch, ops)
        for k, net in enumerate(states):
            dev = np.sum((h_true - net.estimates) ** 2, axis=1)
            traj[k] = np.mean(dev)
            if track_agents:
                agent_traj[:, k] = dev
        return (traj, agent_traj) if track_agents else (traj,)

    means, kept, diverged = _monte_carlo(cfg.seed, realizations, run_one)
    return DistResult(msd=means[0], agent_msd=means[1] if track_agents else None,
                      theory=theory, realizations=kept, diverged=diverged)


def save_combination(comb: CombinationMatrix, path) -> None:
    """CSV rows ``i, l, a_il`` for the nonzero weights."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "l", "a_il"])
        for i in range(comb.num_agents):
            for l in np.flatnonzero(comb.a[i]):
                writer.writerow([i, int(l), repr(float(comb.a[i, l]))])


def load_combination(path, num_agents: int) -> CombinationMatrix:
    a = np.zeros((num_agents, num_agents))
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["i", "l", "a_il"]:
            raise ValueError(f"{path}: unexpected combination header {header!r}")
        for row in reader:
            a[int(row[0]), int(row[1])] = float(row[2])
    neighborhoods = tuple(
        tuple(int(j) for j in np.flatnonzero(a[i])) for i in range(num_agents)
    )
    return CombinationMatrix(a=a, neighborhoods=neighborhoods)
