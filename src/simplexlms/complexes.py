"""Oriented 2-dimensional simplicial complexes and their Hodge algebra.

A complex is described by its vertex count, an edge list and a triangle
list. Simplices are oriented by ascending vertex order, which fixes the
signs of the two incidence matrices:

* ``B1`` (vertices x edges): edge ``(i, j)`` with ``i < j`` contributes
  ``-1`` at vertex ``i`` and ``+1`` at vertex ``j``.
* ``B2`` (edges x triangles): triangle ``(i, j, k)`` with ``i < j < k``
  contributes ``+1`` at edge ``(i, j)``, ``-1`` at ``(i, k)`` and ``+1``
  at ``(j, k)``.

Both are held as one read-only ``float64`` pair, shared by every
operator built from the complex. Their entries are small integers, so
``B1 @ B2 == 0`` holds exactly in floating point too, which downstream
code relies on.
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
    "hodge_decompose",
    "sft",
    "inverse_sft",
    "enumerate_3cliques",
    "random_complex",
    "grown_complex",
    "save_complex",
    "load_complex",
]


@dataclass
class SimplicialComplex2:
    """A complex with vertices, oriented edges and oriented triangles.

    Instances are built by :func:`build_incidence` and treated as
    immutable afterwards. ``b1`` and ``b2`` are ``float64`` and read-only,
    so derived operators share them instead of copying.
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
    """Float incidence matrices of a 2-complex with its lazy Hodge algebra.

    ``b1`` (vertices x edges) and ``b2`` (edges x triangles) are held as
    given; :func:`hodge_laplacians` passes the complex's own read-only
    pair. The Laplacians are Gram products of them, ``l0 = b1 b1^T``,
    ``l2 = b2^T b2``, ``lower = b1^T b1``, ``upper = b2 b2^T`` and
    ``l1 = lower + upper``, each a dense product computed on first
    access. The moment basis and the regressors need only the incidence
    factors and the small Grams ``l0`` and ``l2``, through which every
    Laplacian power factors; the E x E ones are formed only on request.
    The regressors multiply by the C-ordered transposes ``b1_t`` and
    ``b2_t`` too, each copied once on first access (a C-ordered pair, as
    :func:`build_incidence` makes, keeps every product C-ordered).
    The O(E^3) eigendecomposition of
    ``l1`` (eigenvalues ascending) likewise runs on first access to the
    eigenbasis, since only the simplicial Fourier transform needs it.
    Repeated eigenvalues make the eigenvector basis non-unique; consumers
    must only rely on basis-independent quantities (projections, norms).
    """

    b1: np.ndarray
    b2: np.ndarray

    @property
    def num_edges(self) -> int:
        return self.b2.shape[0]

    @cached_property
    def b1_t(self) -> np.ndarray:
        """``b1^T`` in C order, built once: the lower regressors' first factor."""
        return np.ascontiguousarray(self.b1.T)

    @cached_property
    def b2_t(self) -> np.ndarray:
        """``b2^T`` in C order, built once: the upper regressors' back factor."""
        return np.ascontiguousarray(self.b2.T)

    @cached_property
    def l0(self) -> np.ndarray:
        return self.b1 @ self.b1.T

    @cached_property
    def l2(self) -> np.ndarray:
        return self.b2.T @ self.b2

    @cached_property
    def lower(self) -> np.ndarray:
        return self.b1.T @ self.b1

    @cached_property
    def upper(self) -> np.ndarray:
        return self.b2 @ self.b2.T

    @cached_property
    def l1(self) -> np.ndarray:
        return self.lower + self.upper

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
    b1 = np.zeros((num_vertices, E))
    for col, (i, j) in enumerate(edge_list):
        b1[i, col] = -1.0
        b1[j, col] = 1.0

    b2 = np.zeros((E, T))
    for col, (i, j, k) in enumerate(tri_list):
        b2[edge_index[(i, j)], col] = 1.0
        b2[edge_index[(i, k)], col] = -1.0
        b2[edge_index[(j, k)], col] = 1.0
    # one pair for the complex and every operator built from it
    b1.setflags(write=False)
    b2.setflags(write=False)

    return SimplicialComplex2(
        num_vertices=num_vertices,
        edges=tuple(edge_list),
        triangles=tuple(tri_list),
        b1=b1,
        b2=b2,
        edge_index=edge_index,
    )


def hodge_laplacians(complex_: SimplicialComplex2) -> HodgeOperators:
    """The complex's incidence pair, shared; its Laplacians are built on first use."""
    return HodgeOperators(b1=complex_.b1, b2=complex_.b2)


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
    b1t = complex_.b1.T
    gradient = np.zeros_like(x)
    if complex_.num_vertices > 0:
        z, *_ = np.linalg.lstsq(b1t, x, rcond=None)
        gradient = b1t @ z
    curl = np.zeros_like(x)
    if complex_.num_triangles > 0:
        w, *_ = np.linalg.lstsq(complex_.b2, x, rcond=None)
        curl = complex_.b2 @ w
    harmonic = x - gradient - curl
    return HodgeComponents(gradient=gradient, curl=curl, harmonic=harmonic)


def sft(x: np.ndarray, ops: HodgeOperators) -> np.ndarray:
    """Spectral coefficients of an edge signal in the L1 eigenbasis."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (ops.num_edges,):
        raise ValueError(f"signal has shape {x.shape}, expected ({ops.num_edges},)")
    return ops.eigenvectors.T @ x


def inverse_sft(coeffs: np.ndarray, ops: HodgeOperators) -> np.ndarray:
    """Reconstruct an edge signal from its spectral coefficients."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape != (ops.num_edges,):
        raise ValueError(
            f"coefficients have shape {coeffs.shape}, expected ({ops.num_edges},)"
        )
    return ops.eigenvectors @ coeffs


def enumerate_3cliques(complex_: SimplicialComplex2) -> list[tuple[int, int, int]]:
    """All 3-vertex cliques of the 1-skeleton, as ascending vertex triples.

    Returned in lexicographic order; every filled triangle of the complex
    appears among the cliques (downward closure guarantees it). Their
    incidence columns are ``build_incidence(V, edges, cliques).b2``.
    """
    adjacency: list[set[int]] = [set() for _ in range(complex_.num_vertices)]
    for i, j in complex_.edges:
        adjacency[i].add(j)
        adjacency[j].add(i)
    cliques = [
        (i, j, k)
        for i, j in complex_.edges
        for k in adjacency[i] & adjacency[j]
        if k > j
    ]
    cliques.sort()
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
    triangles = [triple for triple in enumerate_3cliques(skeleton) if rng.random() < fill_prob]
    return build_incidence(num_vertices, edges, triangles)


def grown_complex(
    num_vertices: int,
    num_edges: int,
    num_triangles: int,
    seed: int,
) -> SimplicialComplex2:
    """Random complex with exact vertex/edge/triangle counts.

    Edges are added one at a time; with probability 0.7 the new edge
    closes a wedge (two edges sharing a vertex), which produces
    the clustered skeletons needed to host many triangles on few edges.
    Triangles are then a random subset of the 3-cliques. Retries with
    fresh randomness, up to 200 times, until a skeleton with enough
    cliques appears.
    """
    max_edges = num_vertices * (num_vertices - 1) // 2
    if num_edges > max_edges:
        raise ValueError(f"{num_edges} edges do not fit on {num_vertices} vertices")
    rng = np.random.default_rng(seed)
    for _ in range(200):
        have: set[tuple[int, int]] = set()
        adjacency: list[set[int]] = [set() for _ in range(num_vertices)]

        def add(i: int, j: int) -> None:
            pair = (min(i, j), max(i, j))
            have.add(pair)
            adjacency[i].add(j)
            adjacency[j].add(i)

        while len(have) < num_edges:
            candidate = None
            if have and rng.random() < 0.7:
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
        cliques = enumerate_3cliques(skeleton)
        if len(cliques) < num_triangles:
            continue
        chosen = rng.choice(len(cliques), size=num_triangles, replace=False)
        triangles = sorted(cliques[int(c)] for c in chosen)
        return build_incidence(num_vertices, edges, triangles)
    raise ValueError(
        f"could not realise {num_triangles} triangles on {num_edges} edges "
        "after 200 attempts"
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
    :func:`build_incidence` rejects; every message starts with ``path``.
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
    try:
        return build_incidence(num_vertices, edges, triangles)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
