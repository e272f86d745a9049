"""Oriented 2-dimensional simplicial complexes and their Hodge algebra.

A complex is described by its vertex count, an edge list and a triangle
list. Simplices are oriented by ascending vertex order, which fixes the
signs of the two incidence matrices:

* ``B1`` (vertices x edges): edge ``(i, j)`` with ``i < j`` contributes
  ``-1`` at vertex ``i`` and ``+1`` at vertex ``j``.
* ``B2`` (edges x triangles): triangle ``(i, j, k)`` with ``i < j < k``
  contributes ``+1`` at edge ``(i, j)``, ``-1`` at ``(i, k)`` and ``+1``
  at ``(j, k)``.

A complex keeps its simplex lists and reads both factors from them by
their nonzero entries (:class:`EdgeIncidence`), one row per edge: ``B2``
and ``B1^T``. The dense matrices are built on first use, as one read-only
``float64`` pair shared by every operator built from the complex. Their
entries are small integers, so ``B1 @ B2 == 0`` holds exactly in floating
point too, which downstream code relies on, and the sums over the sparse
entries (Grams, and the diagonals that give the white moment basis) are
the exact integers.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .files import save_complex  # noqa: F401  (perfbench/workloads.py imports it from here)

__all__ = [
    "SimplicialComplex2",
    "EdgeIncidence",
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
]


@dataclass(frozen=True)
class EdgeIncidence:
    """A signed incidence factor with one row per edge, held by its nonzero entries.

    Row ``e`` holds ``signs[k]`` (``+1`` or ``-1``) at column ``cols[k]``
    for ``k`` from ``indptr[e]`` to ``indptr[e + 1] - 1``. ``B2`` (edges x
    triangles) and ``B1^T`` (edges x vertices) are of this kind.
    """

    indptr: np.ndarray
    cols: np.ndarray
    signs: np.ndarray
    shape: tuple[int, int]

    @classmethod
    def from_rows(cls, rows: list, num_cols: int) -> "EdgeIncidence":
        """The factor whose row ``e`` holds the ``(column, sign)`` pairs ``rows[e]``."""
        entries = [entry for row in rows for entry in row]
        return cls(
            indptr=np.cumsum([0, *map(len, rows)], dtype=np.intp),
            cols=np.array([col for col, _ in entries], dtype=np.intp),
            signs=np.array([sign for _, sign in entries], dtype=np.float64),
            shape=(len(rows), num_cols),
        )

    def dense(self, transposed: bool = False) -> np.ndarray:
        """The factor, or its transpose, as a C-ordered ``float64`` array."""
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        out = np.zeros(self.shape[::-1] if transposed else self.shape)
        out[(self.cols, rows) if transposed else (rows, self.cols)] = self.signs
        return out

    def _pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows and the pairs ``(k1, k2)`` of entries in one row, row after row."""
        n = np.diff(self.indptr)
        size = n * n
        pair = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
        start, width = np.repeat(self.indptr[:-1], size), np.repeat(n, size)
        return np.repeat(np.arange(n.size), size), start + pair // width, start + pair % width

    def gram(self) -> np.ndarray:
        """``F^T F`` for this factor ``F``, scattered from the pairs of entries in a row.

        Two columns share at most one row (two simplices at most one face),
        so an entry off the diagonal is one product of signs and one on it
        counts the column's entries: small integers, the bits of the dense
        product ``F.T @ F``.
        """
        K = self.shape[1]
        _, k1, k2 = self._pairs()
        out = np.zeros((K, K))
        out[self.cols[k1], self.cols[k2]] = self.signs[k1] * self.signs[k2]
        np.fill_diagonal(out, np.bincount(self.cols, minlength=K))
        return out

    def pair_sum(self, p: np.ndarray) -> np.ndarray:
        """``diag(F P F^T)``: per row, ``p`` summed over its pairs of entries times their signs.

        An integer ``p`` gives exact integers (below ``2**53``) in any summation order.
        """
        rows, k1, k2 = self._pairs()
        terms = self.signs[k1] * self.signs[k2] * p[self.cols[k1], self.cols[k2]]
        return np.bincount(rows, weights=terms, minlength=self.shape[0])


@dataclass
class SimplicialComplex2:
    """A complex with vertices, oriented edges and oriented triangles.

    Instances are built by :func:`build_incidence` and treated as
    immutable afterwards. The sparse factors ``sparse_b1_t`` and
    ``sparse_b2`` and the dense incidence matrices ``b1`` and ``b2`` are
    each built from the simplex lists on first access; ``b1`` and ``b2``
    are ``float64`` and read-only, so derived operators share them
    instead of copying.
    """

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    triangles: tuple[tuple[int, int, int], ...]
    edge_index: dict[tuple[int, int], int] = field(repr=False, default_factory=dict)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    @cached_property
    def sparse_b1_t(self) -> EdgeIncidence:
        """``B1^T``: edge ``(i, j)`` has ``-1`` at vertex ``i`` and ``+1`` at ``j``."""
        return EdgeIncidence.from_rows([((i, -1.0), (j, 1.0)) for i, j in self.edges],
                                       self.num_vertices)

    @cached_property
    def sparse_b2(self) -> EdgeIncidence:
        """``B2``: triangle ``(i, j, k)`` has ``+1, -1, +1`` at edges ``(i, j), (i, k), (j, k)``."""
        at_edge: list[list[tuple[int, float]]] = [[] for _ in self.edges]
        for t, (i, j, k) in enumerate(self.triangles):
            for pair, sign in (((i, j), 1.0), ((i, k), -1.0), ((j, k), 1.0)):
                at_edge[self.edge_index[pair]].append((t, sign))
        return EdgeIncidence.from_rows(at_edge, self.num_triangles)

    @cached_property
    def b1(self) -> np.ndarray:
        return _read_only(self.sparse_b1_t.dense(transposed=True))

    @cached_property
    def b2(self) -> np.ndarray:
        return _read_only(self.sparse_b2.dense())


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass
class HodgeOperators:
    """Incidence factors of a 2-complex with its lazy Hodge algebra.

    ``b1`` (vertices x edges) is the ``skeleton``'s and ``b2`` (edges x
    triangles) the ``filling``'s, a complex on the same edges:
    :func:`hodge_laplacians` passes the complex as both, a candidate set
    its clique-filled complex as the filling. Both are read from their
    complex, which builds the dense pair on first use, so the operators
    share it and touch it only when a regressor, a Laplacian or the
    eigenbasis asks; the white moment basis reads the sparse factors.
    The Laplacians are Gram products of the factors, ``l0 = b1 b1^T``,
    ``l2 = b2^T b2``, ``lower = b1^T b1``, ``upper = b2 b2^T`` and
    ``l1 = lower + upper``, each computed on first access; the small
    Grams ``l0`` and ``l2``, through which every Laplacian power factors,
    are scattered from the sparse factors, and the E x E ones are dense
    products formed only on request. The regressors multiply by the
    C-ordered transposes ``b1_t`` and ``b2_t`` too, each copied once on
    first access (a C-ordered pair, as the complex makes, keeps every
    product C-ordered). The O(E^3) eigendecomposition of ``l1``
    (eigenvalues ascending) likewise runs on first access to the
    eigenbasis, since only the simplicial Fourier transform needs it.
    Repeated eigenvalues make the eigenvector basis non-unique; consumers
    must only rely on basis-independent quantities (projections, norms).
    """

    skeleton: SimplicialComplex2
    filling: SimplicialComplex2

    @property
    def num_edges(self) -> int:
        return self.skeleton.num_edges

    @property
    def b1(self) -> np.ndarray:
        return self.skeleton.b1

    @property
    def b2(self) -> np.ndarray:
        return self.filling.b2

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
        return self.skeleton.sparse_b1_t.gram()

    @cached_property
    def l2(self) -> np.ndarray:
        return self.filling.sparse_b2.gram()

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
    """Check and store the simplex lists of a 2-complex.

    The signed incidence matrices are built from them on first use.
    Vertex indices are 0-based. Edges must be given as ``(i, j)`` with
    ``i < j`` and triangles as ``(i, j, k)`` with ``i < j < k``; every
    triangle's three vertex pairs must appear in the edge list
    (downward closure). Duplicate simplices are rejected.
    """
    if num_vertices < 0:
        raise ValueError(f"vertex count {num_vertices} must not be negative")
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

    return SimplicialComplex2(
        num_vertices=num_vertices,
        edges=tuple(edge_list),
        triangles=tuple(tri_list),
        edge_index=edge_index,
    )


def hodge_laplacians(complex_: SimplicialComplex2) -> HodgeOperators:
    """The complex's operators, sharing its incidence pair; each is built on first use."""
    return HodgeOperators(skeleton=complex_, filling=complex_)


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
        # the vertices with two neighbours or more, ascending
        centers: list[int] = []

        def add(i: int, j: int) -> None:
            pair = (min(i, j), max(i, j))
            have.add(pair)
            for v, w in ((i, j), (j, i)):
                adjacency[v].add(w)
                if len(adjacency[v]) == 2:
                    insort(centers, v)

        while len(have) < num_edges:
            candidate = None
            if have and rng.random() < 0.7:
                # close a wedge: pick a vertex with two neighbours that
                # are not yet adjacent
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
