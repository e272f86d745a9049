"""Oriented 2-dimensional simplicial complexes and their Hodge algebra.

A complex is described by its vertex count, an edge list and a triangle
list. Simplices are oriented by ascending vertex order, which fixes the
signs of the two incidence matrices:

* ``B1`` (vertices x edges): edge ``(i, j)`` with ``i < j`` contributes
  ``-1`` at vertex ``i`` and ``+1`` at vertex ``j``.
* ``B2`` (edges x triangles): triangle ``(i, j, k)`` with ``i < j < k``
  contributes ``+1`` at edge ``(i, j)``, ``-1`` at ``(i, k)`` and ``+1``
  at ``(j, k)``.

With this convention ``B1 @ B2 == 0`` holds exactly in integer
arithmetic, which downstream code relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "SimplicialComplex2",
    "HodgeOperators",
    "HodgeComponents",
    "build_incidence",
    "hodge_laplacians",
    "laplacian_powers",
    "hodge_decompose",
    "sft",
    "inverse_sft",
    "enumerate_3cliques",
    "triangle_incidence_vector",
    "random_complex",
    "grown_complex",
    "save_complex",
    "load_complex",
]


@dataclass
class SimplicialComplex2:
    """A complex with vertices, oriented edges and oriented triangles.

    Instances are built by :func:`build_incidence` and treated as
    immutable afterwards; all derived operators copy rather than mutate.
    """

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    triangles: tuple[tuple[int, int, int], ...]
    b1: np.ndarray
    b2: np.ndarray
    edge_index: dict[tuple[int, int], int] = field(repr=False, default_factory=dict)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)


@dataclass
class HodgeOperators:
    """Laplacians of a 2-complex plus the edge-Laplacian eigenbasis.

    ``l1 = lower + upper`` and the eigenvalues are sorted ascending.
    Repeated eigenvalues make the eigenvector basis non-unique; consumers
    must only rely on basis-independent quantities (projections, norms).
    The O(E^3) eigendecomposition runs on first access to the eigenbasis,
    since only the simplicial Fourier transform needs it.
    """

    l0: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    l1: np.ndarray

    @cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(self.l1)

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eigh[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._eigh[1]


@dataclass
class HodgeComponents:
    """Orthogonal split of an edge signal into its three Hodge parts."""

    gradient: np.ndarray
    curl: np.ndarray
    harmonic: np.ndarray


def _check_vertex(v: int, num_vertices: int) -> None:
    if not 0 <= v < num_vertices:
        raise ValueError(f"vertex index {v} out of range [0, {num_vertices})")


def build_incidence(
    num_vertices: int,
    edges: list[tuple[int, int]],
    triangles: list[tuple[int, int, int]] | None = None,
) -> SimplicialComplex2:
    """Assemble the signed incidence matrices of a 2-complex.

    Vertex indices are 0-based. Edges must be given as ``(i, j)`` with
    ``i < j`` and triangles as ``(i, j, k)`` with ``i < j < k``; every
    triangle's three vertex pairs must appear in the edge list
    (downward closure). Duplicate simplices are rejected.
    """
    triangles = triangles or []
    edge_list: list[tuple[int, int]] = []
    edge_index: dict[tuple[int, int], int] = {}
    for e in edges:
        i, j = int(e[0]), int(e[1])
        _check_vertex(i, num_vertices)
        _check_vertex(j, num_vertices)
        if not i < j:
            raise ValueError(f"edge {e!r} must be an ascending vertex pair")
        if (i, j) in edge_index:
            raise ValueError(f"duplicate edge {(i, j)!r}")
        edge_index[(i, j)] = len(edge_list)
        edge_list.append((i, j))

    tri_list: list[tuple[int, int, int]] = []
    seen_tri: set[tuple[int, int, int]] = set()
    for t in triangles:
        i, j, k = int(t[0]), int(t[1]), int(t[2])
        for v in (i, j, k):
            _check_vertex(v, num_vertices)
        if not i < j < k:
            raise ValueError(f"triangle {t!r} must be an ascending vertex triple")
        if (i, j, k) in seen_tri:
            raise ValueError(f"duplicate triangle {(i, j, k)!r}")
        for pair in ((i, j), (i, k), (j, k)):
            if pair not in edge_index:
                raise ValueError(
                    f"triangle {(i, j, k)!r} is not downward closed: "
                    f"edge {pair!r} missing from the edge list"
                )
        seen_tri.add((i, j, k))
        tri_list.append((i, j, k))

    E = len(edge_list)
    T = len(tri_list)
    b1 = np.zeros((num_vertices, E), dtype=np.int64)
    for col, (i, j) in enumerate(edge_list):
        b1[i, col] = -1
        b1[j, col] = 1

    b2 = np.zeros((E, T), dtype=np.int64)
    for col, (i, j, k) in enumerate(tri_list):
        b2[edge_index[(i, j)], col] = 1
        b2[edge_index[(i, k)], col] = -1
        b2[edge_index[(j, k)], col] = 1

    return SimplicialComplex2(
        num_vertices=num_vertices,
        edges=tuple(edge_list),
        triangles=tuple(tri_list),
        b1=b1,
        b2=b2,
        edge_index=edge_index,
    )


def hodge_laplacians(complex_: SimplicialComplex2) -> HodgeOperators:
    """Vertex Laplacian, lower/upper edge Laplacians and the (lazy) L1 eigenbasis."""
    b1 = complex_.b1.astype(np.float64)
    b2 = complex_.b2.astype(np.float64)
    l0 = b1 @ b1.T
    lower = b1.T @ b1
    upper = b2 @ b2.T
    return HodgeOperators(l0=l0, lower=lower, upper=upper, l1=lower + upper)


def laplacian_powers(ops: HodgeOperators, order: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Matrix powers ``upper^m`` and ``lower^m`` for ``m = 0..order``."""
    E = ops.l1.shape[0]
    eye = np.eye(E)
    up = [eye]
    lo = [eye]
    for _ in range(order):
        up.append(up[-1] @ ops.upper)
        lo.append(lo[-1] @ ops.lower)
    return up, lo


def hodge_decompose(x: np.ndarray, complex_: SimplicialComplex2) -> HodgeComponents:
    """Split an edge signal into gradient, curl and harmonic parts.

    The gradient part is the least-squares projection onto the row space
    of ``B1``, the curl part the projection onto the column space of
    ``B2``; the harmonic part is the residual. The two image spaces are
    orthogonal, so the projections can be computed independently.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (complex_.num_edges,):
        raise ValueError(
            f"signal has shape {x.shape}, expected ({complex_.num_edges},)"
        )
    b1t = complex_.b1.T.astype(np.float64)
    gradient = np.zeros_like(x)
    if complex_.num_vertices > 0:
        z, *_ = np.linalg.lstsq(b1t, x, rcond=None)
        gradient = b1t @ z
    curl = np.zeros_like(x)
    if complex_.num_triangles > 0:
        b2 = complex_.b2.astype(np.float64)
        w, *_ = np.linalg.lstsq(b2, x, rcond=None)
        curl = b2 @ w
    harmonic = x - gradient - curl
    return HodgeComponents(gradient=gradient, curl=curl, harmonic=harmonic)


def sft(x: np.ndarray, ops: HodgeOperators) -> np.ndarray:
    """Spectral coefficients of an edge signal in the L1 eigenbasis."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (ops.l1.shape[0],):
        raise ValueError(f"signal has shape {x.shape}, expected ({ops.l1.shape[0]},)")
    return ops.eigenvectors.T @ x


def inverse_sft(coeffs: np.ndarray, ops: HodgeOperators) -> np.ndarray:
    """Reconstruct an edge signal from its spectral coefficients."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape != (ops.l1.shape[0],):
        raise ValueError(
            f"coefficients have shape {coeffs.shape}, expected ({ops.l1.shape[0]},)"
        )
    return ops.eigenvectors @ coeffs


def triangle_incidence_vector(
    triple: tuple[int, int, int], edge_index: dict[tuple[int, int], int], num_edges: int
) -> np.ndarray:
    """Signed edge-incidence column of one (candidate) triangle."""
    i, j, k = triple
    b = np.zeros(num_edges, dtype=np.float64)
    b[edge_index[(i, j)]] = 1.0
    b[edge_index[(i, k)]] = -1.0
    b[edge_index[(j, k)]] = 1.0
    return b


def enumerate_3cliques(
    complex_: SimplicialComplex2,
) -> list[tuple[tuple[int, int, int], np.ndarray]]:
    """All 3-vertex cliques of the 1-skeleton with their incidence vectors.

    Returned in lexicographic triple order; every filled triangle of the
    complex appears among the cliques (downward closure guarantees it).
    """
    adjacency: list[set[int]] = [set() for _ in range(complex_.num_vertices)]
    for i, j in complex_.edges:
        adjacency[i].add(j)
        adjacency[j].add(i)
    cliques: list[tuple[tuple[int, int, int], np.ndarray]] = []
    for i, j in complex_.edges:
        for k in sorted(adjacency[i] & adjacency[j]):
            if k > j:
                triple = (i, j, k)
                b = triangle_incidence_vector(triple, complex_.edge_index, complex_.num_edges)
                cliques.append((triple, b))
    cliques.sort(key=lambda item: item[0])
    return cliques


def random_complex(
    num_vertices: int, edge_prob: float, fill_prob: float, seed: int
) -> SimplicialComplex2:
    """Erdos-Renyi 1-skeleton with independently filled 3-cliques.

    Uses ``numpy.random.default_rng`` (PCG64), so a fixed seed reproduces
    the same complex across platforms.
    """
    if not 0.0 <= edge_prob <= 1.0 or not 0.0 <= fill_prob <= 1.0:
        raise ValueError("edge_prob and fill_prob must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    edges = [
        (i, j)
        for i in range(num_vertices)
        for j in range(i + 1, num_vertices)
        if rng.random() < edge_prob
    ]
    skeleton = build_incidence(num_vertices, edges, [])
    triangles = [
        triple
        for triple, _ in enumerate_3cliques(skeleton)
        if rng.random() < fill_prob
    ]
    return build_incidence(num_vertices, edges, triangles)


def grown_complex(
    num_vertices: int,
    num_edges: int,
    num_triangles: int,
    seed: int,
    closure_bias: float = 0.7,
    max_attempts: int = 200,
) -> SimplicialComplex2:
    """Random complex with exact vertex/edge/triangle counts.

    Edges are added one at a time; with probability ``closure_bias`` the
    new edge closes a wedge (two edges sharing a vertex), which produces
    the clustered skeletons needed to host many triangles on few edges.
    Triangles are then a random subset of the 3-cliques. Retries with
    fresh randomness until a skeleton with enough cliques appears.
    """
    max_edges = num_vertices * (num_vertices - 1) // 2
    if num_edges > max_edges:
        raise ValueError(f"{num_edges} edges do not fit on {num_vertices} vertices")
    rng = np.random.default_rng(seed)
    for _ in range(max_attempts):
        have: set[tuple[int, int]] = set()
        adjacency: list[set[int]] = [set() for _ in range(num_vertices)]

        def add(i: int, j: int) -> None:
            pair = (min(i, j), max(i, j))
            have.add(pair)
            adjacency[i].add(j)
            adjacency[j].add(i)

        while len(have) < num_edges:
            candidate = None
            if have and rng.random() < closure_bias:
                # close a wedge: pick a vertex with two neighbours that
                # are not yet adjacent
                centers = [v for v in range(num_vertices) if len(adjacency[v]) >= 2]
                if centers:
                    v = int(rng.choice(centers))
                    nbrs = sorted(adjacency[v])
                    a, b = rng.choice(len(nbrs), size=2, replace=False)
                    i, j = nbrs[int(a)], nbrs[int(b)]
                    pair = (min(i, j), max(i, j))
                    if pair not in have:
                        candidate = pair
            if candidate is None:
                i = int(rng.integers(num_vertices))
                j = int(rng.integers(num_vertices))
                if i == j:
                    continue
                pair = (min(i, j), max(i, j))
                if pair in have:
                    continue
                candidate = pair
            add(*candidate)

        edges = sorted(have)
        skeleton = build_incidence(num_vertices, edges, [])
        cliques = [triple for triple, _ in enumerate_3cliques(skeleton)]
        if len(cliques) < num_triangles:
            continue
        chosen = rng.choice(len(cliques), size=num_triangles, replace=False)
        triangles = sorted(cliques[int(c)] for c in chosen)
        return build_incidence(num_vertices, edges, triangles)
    raise ValueError(
        f"could not realise {num_triangles} triangles on {num_edges} edges "
        f"after {max_attempts} attempts"
    )


def save_complex(complex_: SimplicialComplex2, path) -> None:
    """Write the text format: vertex count, then `i j` edges, then `i j k` triangles.

    Vertex indices are 1-based on disk; lines starting with ``#`` are
    comments.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{complex_.num_vertices}\n")
        fh.write("# edges\n")
        for i, j in complex_.edges:
            fh.write(f"{i + 1} {j + 1}\n")
        fh.write("# triangles\n")
        for i, j, k in complex_.triangles:
            fh.write(f"{i + 1} {j + 1} {k + 1}\n")


def load_complex(path) -> SimplicialComplex2:
    """Read the text format written by :func:`save_complex`.

    Rejects malformed lines (with their line number) and any input that
    is not downward closed.
    """
    num_vertices = None
    edges: list[tuple[int, int]] = []
    triangles: list[tuple[int, int, int]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                values = [int(p) for p in parts]
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: non-integer token") from exc
            if num_vertices is None:
                if len(values) != 1:
                    raise ValueError(
                        f"{path}: line {lineno}: expected the vertex count first"
                    )
                num_vertices = values[0]
            elif len(values) == 2:
                edges.append((values[0] - 1, values[1] - 1))
            elif len(values) == 3:
                triangles.append((values[0] - 1, values[1] - 1, values[2] - 1))
            else:
                raise ValueError(
                    f"{path}: line {lineno}: expected an `i j` edge or `i j k` triangle"
                )
    if num_vertices is None:
        raise ValueError(f"{path}: empty complex file")
    return build_incidence(num_vertices, edges, triangles)
