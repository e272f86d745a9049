"""Distributed adaptive filtering by adapt-then-combine diffusion.

One agent sits on every edge. In each synchronous round an agent with a
sampled observation takes a local LMS step on its own regressor row,

    w_i = h_i + mu_i d_i z_i (y_i - z_i^T h_i),

and every agent then averages the intermediate estimates of its
neighbourhood with row-stochastic weights. Stacking the per-agent
errors, the mean recursion is driven by ``B``, whose (agent, agent)
blocks are ``B_il = a_il (I - mu_l C_l)`` with ``C_l`` the masked local
moment of agent ``l``. The network is called stable only when
``rho(B)`` clears 1 by a small margin (see :mod:`.lms`); the
steady-state network deviation is then

    Tr(R S),  S = B^T S B + I,  R_ij = sum_l a_il a_jl mu_l^2 sigma_v2_l C_l,

with ``S`` from a discrete Lyapunov (Stein) solve by squared doubling
(R. A. Smith, "Matrix equation XA + BX = C", SIAM J. Appl. Math. 16(1),
1968). ``B`` and ``R`` are built in these blocks, with no Kronecker product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import SimplicialComplex2, hodge_laplacians
from .lms import _SINGULAR_TOL, _STABILITY_TOL, _monte_carlo
from .signals import (
    FilterCoeffs,
    StreamConfig,
    generate_stream,
    local_moment_matrices,
)

__all__ = [
    "TheoremChecks",
    "DistTheoryReport",
    "DistResult",
    "RULES",
    "lower_adjacency_neighborhoods",
    "build_combination",
    "check_irreducible",
    "atc_step",
    "dist_theory",
    "run_distributed",
]

RULES = ("uniform", "metropolis")

# Squarings allowed in the Stein solve: 2^64 terms of its series cover
# every radius that passes the stability margin, rho(B) < 1 - 1e-9.
_DOUBLING_STEPS = 64


def lower_adjacency_neighborhoods(complex_: SimplicialComplex2) -> list[list[int]]:
    """Edges sharing a vertex, plus the edge itself (the default comm graph).

    These are the nonzero columns of ``lower = b1^T b1`` in each row, read
    from the edge list without forming it: an edge's neighbourhood is the
    union of the edges at its two vertices.
    """
    at_vertex: list[set[int]] = [set() for _ in range(complex_.num_vertices)]
    for e, (i, j) in enumerate(complex_.edges):
        at_vertex[i].add(e)
        at_vertex[j].add(e)
    return [sorted(at_vertex[i] | at_vertex[j]) for i, j in complex_.edges]


def _check_rule(rule: str) -> None:
    if rule not in RULES:
        raise ValueError(f"unknown combination rule {rule!r}")


def build_combination(
    neighborhoods: list[list[int]], rule: str = "uniform"
) -> np.ndarray:
    """The ``E x E`` row-stochastic nonnegative combination weights of the
    neighbourhoods, uniform or Metropolis: ``a[i, l]`` is agent ``i``'s
    weight on agent ``l``, nonzero only inside its neighbourhood.

    Every neighbourhood must contain its own agent. The uniform rule
    averages the neighbourhood; the Metropolis rule uses
    ``1 / (1 + max(deg_i, deg_l))`` off-diagonal and puts the remainder
    on the self weight, which makes the matrix symmetric (hence doubly
    stochastic).
    """
    _check_rule(rule)
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
        else:
            for l in nbrs:
                if l != i:
                    a[i, l] = 1.0 / (1.0 + max(degrees[i], degrees[l]))
            a[i, i] = 1.0 - np.sum(a[i])
    return a


def check_irreducible(comb: np.ndarray) -> bool:
    """True iff the support digraph of the weights ``comb`` is strongly connected.

    Equivalent to some power of the matrix being entrywise positive at
    every pair, but scales to large agent counts.
    """
    E = comb.shape[0]
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

    support = comb > 0
    return reachable(support) and reachable(support.T)


def atc_step(H: np.ndarray, mu: np.ndarray, comb: np.ndarray, z: np.ndarray,
             d: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The estimates after one synchronous adapt-then-combine round; pure.

    ``H`` holds one row of taps per agent, ``mu`` the per-agent
    step-sizes and ``comb`` the combination weights. Agents with
    ``d_i = 0`` skip adaptation and only combine. All agents are
    processed in index order, so the round is deterministic. Non-finite
    data or estimates in give non-finite estimates out.
    """
    E, dim = H.shape
    if z.shape != (E, dim) or d.shape != (E,) or y.shape != (E,):
        raise ValueError(
            f"inconsistent shapes: z {z.shape}, d {d.shape}, y {y.shape}, "
            f"estimates {H.shape}"
        )
    err = d * (y - np.einsum("ij,ij->i", z, H))
    W = H + (mu * err)[:, None] * z
    return comb @ W


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

    rho_b: float
    local_radius: np.ndarray     # per-agent spectral radius of C_z_i
    local_mu_bounds: np.ndarray  # 2 / rho(C_z_i)
    checks: TheoremChecks
    stable: bool
    msd_total: float             # sum over agents of the limiting deviation
    msd_per_agent: float


def dist_theory(
    comb: np.ndarray,
    local_moments: np.ndarray,
    sigma_v2: np.ndarray,
    mu: np.ndarray,
) -> DistTheoryReport:
    """Stability and steady-state analysis of the diffusion recursion.

    ``comb`` holds the combination weights ``a_il`` and ``local_moments``
    the masked per-agent moments ``C_z_i``
    (shape (E, dim, dim)); an unstable configuration, one whose
    ``rho(B)`` does not clear 1 by the stability margin, is reported
    through the ``stable`` flag and NaN deviations rather than raised.

    ``rho_b`` is read from ``np.linalg.eigvals`` of the non-normal ``B``, whose error on a
    defective eigenvalue grows like the square root of machine epsilon (6.0e-10 at full
    consensus, where the exact radius is 0): a radius that close to the ``1 - 1e-9`` margin
    can be judged on the wrong side of it, and no certificate of the radius checks it.
    """
    E = comb.shape[0]
    local_moments = np.asarray(local_moments, dtype=np.float64)
    sigma_v2 = np.asarray(sigma_v2, dtype=np.float64)
    mu = np.broadcast_to(np.asarray(mu, dtype=np.float64), (E,))
    dim = local_moments.shape[1]

    # B[i, a, l, b] = a_il (I - mu_l C_l)[a, b]
    adapt = np.eye(dim) - mu[:, None, None] * local_moments
    B = (comb[:, None, :, None] * adapt.transpose(1, 0, 2)).reshape(E * dim, E * dim)
    rho_b = float(np.max(np.abs(np.linalg.eigvals(B))))

    local_eigs = np.linalg.eigvalsh(local_moments)
    local_radius = np.max(np.abs(local_eigs), axis=1)
    with np.errstate(divide="ignore"):
        local_bounds = np.where(local_radius > 0, 2.0 / local_radius, np.inf)
    scale = max(float(np.max(local_radius)), 1.0)
    checks = TheoremChecks(
        irreducible=check_irreducible(comb),
        some_local_moment_nonsingular=bool(np.any(local_eigs[:, 0] > _SINGULAR_TOL * scale)),
        stepsizes_within_local_bounds=bool(np.all(mu < local_bounds)),
    )

    stable = rho_b < 1.0 - _STABILITY_TOL
    msd_total = float("nan")
    if stable:
        m = mu[:, None, None]
        noise = (m * (sigma_v2[:, None, None] * local_moments)) * m
        R = np.einsum("il,jl,lab->iajb", comb, comb, noise, optimize=True).reshape(B.shape)
        S = _stein_solve(B)
        msd_total = float(np.trace(R @ S))
    return DistTheoryReport(
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
    comb: np.ndarray,
    mu,
    realizations: int,
    horizon: int,
    seed: int,
    track_agents: bool = False,
) -> DistResult:
    """Monte-Carlo run of the diffusion recursion on a simulated network.

    Every realization draws one global stream of ``horizon`` steps from
    ``cfg``, with a seed derived from ``seed``; each agent sees its own
    regressor row, mask and observation entry. Rounds are
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

    def score(block, H: np.ndarray):
        dev = np.sum((h_true - H) ** 2, axis=2)
        mean = np.mean(dev, axis=1, keepdims=True)
        return np.hstack((mean, dev)) if track_agents else mean

    means, kept, diverged = _monte_carlo(
        seed, realizations, horizon, 1 + E * track_agents,
        lambda s: generate_stream(coeffs, ops, cfg, horizon, s), lambda b: zip(b.X, b.d, b.y),
        lambda H, s: atc_step(H, mu_vec, comb, *s), np.zeros((E, h_true.size)), score)
    return DistResult(msd=means[:, 0], agent_msd=means[:, 1:].T if track_agents else None,
                      theory=theory, realizations=kept, diverged=diverged)
