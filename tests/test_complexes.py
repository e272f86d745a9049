"""Structural tests for complexes, Laplacians, decomposition and the SFT."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from simplexlms.complexes import (
    build_incidence,
    enumerate_3cliques,
    grown_complex,
    hodge_decompose,
    hodge_laplacians,
    inverse_sft,
    random_complex,
    sft,
)
from simplexlms.files import load_complex, save_complex


def seeded_complexes(count, num_vertices=12, edge_prob=0.4, fill_prob=0.5):
    return [random_complex(num_vertices, edge_prob, fill_prob, seed) for seed in range(count)]


# ---------------------------------------------------------------- incidence


def test_incidence_is_dense_only_once_read():
    # the 900-edge design complex: checking and storing the simplex lists
    # takes less than one dense b1, and neither matrix exists until read
    grown = grown_complex(150, 900, 300, seed=2)
    edges, triangles = list(grown.edges), list(grown.triangles)
    tracemalloc.start()
    try:
        c = build_incidence(150, edges, triangles)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 150 * 900 * 8, peak
    assert not {"b1", "b2"} & set(vars(c))
    b1, b2 = c.b1, c.b2
    assert b1 is c.b1 and b2 is c.b2
    assert b1.flags.c_contiguous and b2.flags.c_contiguous
    dense_b1, dense_b2 = np.zeros((150, 900)), np.zeros((900, 300))
    for col, (i, j) in enumerate(edges):
        dense_b1[i, col], dense_b1[j, col] = -1.0, 1.0
    for col, (i, j, k) in enumerate(triangles):
        for pair, sign in (((i, j), 1.0), ((i, k), -1.0), ((j, k), 1.0)):
            dense_b2[c.edge_index[pair], col] = sign
    assert np.array_equal(b1, dense_b1) and np.array_equal(b2, dense_b2)


def test_sparse_factors_give_the_dense_blocks_and_grams():
    rng = np.random.default_rng(0)
    for c in (*seeded_complexes(4), build_incidence(3, [], []), build_incidence(4, [(0, 1)])):
        for sparse, dense in ((c.sparse_b2, c.b2), (c.sparse_b1_t, c.b1.T)):
            assert np.array_equal(sparse.dense(), dense)
            assert np.array_equal(sparse.dense(transposed=True), dense.T)
            assert sparse.dense().flags.c_contiguous
            assert np.array_equal(sparse.gram(), dense.T @ dense)
            # an integer P: every sum is exact, whatever its order
            K = dense.shape[1]
            for p in (sparse.gram(), rng.integers(-9, 10, (K, K)).astype(np.float64)):
                assert np.array_equal(sparse.pair_sum(p), np.diag(dense @ p @ dense.T))


def test_single_edge_incidence():
    c = build_incidence(2, [(0, 1)], [])
    assert c.b1.shape == (2, 1)
    assert c.b1[:, 0].tolist() == [-1, 1]
    assert c.b2.shape == (1, 0)


def test_filled_triangle_signs():
    c = build_incidence(3, [(0, 1), (0, 2), (1, 2)], [(0, 1, 2)])
    assert c.b2[:, 0].tolist() == [1, -1, 1]
    assert np.all(c.b1 @ c.b2 == 0)


def test_triangle_boundary_without_fill():
    c = build_incidence(3, [(0, 1), (0, 2), (1, 2)], [])
    ops = hodge_laplacians(c)
    assert c.num_triangles == 0
    assert np.all(ops.upper == 0)


def test_duplicate_and_closure_errors():
    with pytest.raises(ValueError, match="duplicate edge"):
        build_incidence(3, [(0, 1), (0, 1)], [])
    with pytest.raises(ValueError, match="duplicate triangle"):
        build_incidence(3, [(0, 1), (0, 2), (1, 2)], [(0, 1, 2), (0, 1, 2)])
    with pytest.raises(ValueError, match="downward closed"):
        build_incidence(3, [(0, 1), (1, 2)], [(0, 1, 2)])
    with pytest.raises(ValueError, match="out of range"):
        build_incidence(2, [(0, 5)], [])
    with pytest.raises(ValueError, match="ascending"):
        build_incidence(3, [(1, 0)], [])


def test_negative_vertex_count_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="vertex count -3 must not be negative"):
        build_incidence(-3, [], [])
    path = tmp_path / "negative.txt"
    path.write_text("-3\n")
    with pytest.raises(ValueError, match="vertex count -3") as exc:
        load_complex(path)
    assert str(exc.value).startswith(f"{path}: ")


def test_incidence_entries_and_column_sums():
    for c in seeded_complexes(20):
        assert set(np.unique(c.b1)) <= {-1, 0, 1}
        assert set(np.unique(c.b2)) <= {-1, 0, 1}
        # each edge column: one head, one tail
        assert np.all(np.sum(c.b1 == 1, axis=0) == 1)
        assert np.all(np.sum(c.b1 == -1, axis=0) == 1)
        # each triangle column: exactly three nonzero faces
        if c.num_triangles:
            assert np.all(np.count_nonzero(c.b2, axis=0) == 3)
        assert np.all(c.b1 @ c.b2 == 0)


# ---------------------------------------------------------------- laplacians


def test_path_graph_recovers_graph_laplacian():
    c = build_incidence(3, [(0, 1), (1, 2)], [])
    ops = hodge_laplacians(c)
    expected = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float)
    assert np.allclose(ops.l0, expected)


def test_filled_triangle_upper_laplacian():
    c = build_incidence(3, [(0, 1), (0, 2), (1, 2)], [(0, 1, 2)])
    ops = hodge_laplacians(c)
    b2 = c.b2.astype(float)
    assert np.allclose(ops.upper, b2 @ b2.T)
    assert np.allclose(np.diag(ops.upper), 1.0)
    off = ops.upper[~np.eye(3, dtype=bool)]
    assert np.all(np.abs(off) == 1.0)


def test_laplacian_identities_over_seeded_complexes():
    for c in seeded_complexes(100):
        ops = hodge_laplacians(c)
        assert np.max(np.abs(ops.upper @ ops.lower)) < 1e-10
        assert np.max(np.abs(ops.lower @ ops.upper)) < 1e-10
        assert np.max(np.abs(ops.l1 - ops.lower - ops.upper)) < 1e-12
        assert np.min(ops.eigenvalues) > -1e-10
        E = c.num_edges
        gram = ops.eigenvectors.T @ ops.eigenvectors
        assert np.max(np.abs(gram - np.eye(E))) < 1e-10
        for mat in (ops.l0, ops.lower, ops.upper, ops.l1):
            assert np.allclose(mat, mat.T)
            assert np.min(np.linalg.eigvalsh(mat)) > -1e-10


# ------------------------------------------------------------- decomposition


def test_eigenbasis_is_computed_on_first_use(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    ops = hodge_laplacians(random_complex(10, 0.5, 0.5, 1))
    assert calls == []
    x = np.arange(ops.l1.shape[0], dtype=float)
    assert np.allclose(inverse_sft(sft(x, ops), ops), x)
    assert np.allclose(ops.l1 @ ops.eigenvectors, ops.eigenvectors * ops.eigenvalues)
    assert len(calls) == 1


def test_laplacians_are_computed_on_first_use():
    c = random_complex(10, 0.5, 0.5, 1)
    ops = hodge_laplacians(c)
    assert set(vars(ops)) == {"skeleton", "filling"}
    assert ops.num_edges == c.num_edges
    b1, b2 = c.b1.astype(float), c.b2.astype(float)
    assert np.array_equal(ops.l0, b1 @ b1.T)
    assert np.array_equal(ops.lower, b1.T @ b1)
    assert np.array_equal(ops.upper, b2 @ b2.T)
    assert np.array_equal(ops.l1, b1.T @ b1 + b2 @ b2.T)
    assert set(vars(ops)) == {"skeleton", "filling", "l0", "lower", "upper", "l1"}
    assert np.array_equal(ops.l2, b2.T @ b2)


def test_decompose_zero_signal():
    c = random_complex(10, 0.5, 0.5, 3)
    parts = hodge_decompose(np.zeros(c.num_edges), c)
    assert np.allclose(parts.gradient, 0)
    assert np.allclose(parts.curl, 0)
    assert np.allclose(parts.harmonic, 0)


def test_decompose_pure_gradient_signal():
    rng = np.random.default_rng(0)
    c = random_complex(10, 0.5, 0.5, 4)
    z = rng.standard_normal(c.num_vertices)
    x = c.b1.T.astype(float) @ z
    parts = hodge_decompose(x, c)
    assert np.linalg.norm(parts.curl) < 1e-9
    assert np.linalg.norm(parts.harmonic) < 1e-9
    assert np.allclose(parts.gradient, x, atol=1e-9)


def test_decompose_random_signals_orthogonal_and_complete():
    rng = np.random.default_rng(1)
    complexes = seeded_complexes(10)
    for c in complexes:
        for _ in range(100):
            x = rng.standard_normal(c.num_edges)
            parts = hodge_decompose(x, c)
            total = parts.gradient + parts.curl + parts.harmonic
            assert np.max(np.abs(total - x)) < 1e-9
            assert abs(parts.gradient @ parts.curl) < 1e-9
            assert abs(parts.gradient @ parts.harmonic) < 1e-9
            assert abs(parts.curl @ parts.harmonic) < 1e-9


def test_decompose_dimension_mismatch():
    c = random_complex(8, 0.5, 0.5, 5)
    with pytest.raises(ValueError, match="shape"):
        hodge_decompose(np.zeros(c.num_edges + 1), c)


# ------------------------------------------------------------------- sft


def test_sft_eigenvector_gives_canonical_coefficients():
    c = random_complex(10, 0.5, 0.6, 6)
    ops = hodge_laplacians(c)
    for i in (0, c.num_edges // 2, c.num_edges - 1):
        coeffs = sft(ops.eigenvectors[:, i], ops)
        expected = np.zeros(c.num_edges)
        expected[i] = 1.0
        assert np.max(np.abs(np.abs(coeffs) - expected)) < 1e-9


def test_sft_isometry_and_roundtrip():
    rng = np.random.default_rng(2)
    c = random_complex(12, 0.4, 0.5, 7)
    ops = hodge_laplacians(c)
    for _ in range(100):
        x = rng.standard_normal(c.num_edges)
        xh = sft(x, ops)
        assert abs(np.linalg.norm(xh) - np.linalg.norm(x)) < 1e-9
        assert np.max(np.abs(inverse_sft(xh, ops) - x)) < 1e-9


# ----------------------------------------------------------------- cliques


def test_clique_counts():
    k3 = build_incidence(3, [(0, 1), (0, 2), (1, 2)], [])
    assert len(enumerate_3cliques(k3)) == 1
    k4_edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    k4 = build_incidence(4, k4_edges, [])
    assert len(enumerate_3cliques(k4)) == 4
    tree = build_incidence(5, [(0, 1), (0, 2), (1, 3), (1, 4)], [])
    assert len(enumerate_3cliques(tree)) == 0


def test_clique_incidence_vectors_match_filled_columns():
    # the candidate columns of every 3-clique: the sign rule by hand, and the
    # filled triangles' columns of the complex itself
    from simplexlms.inference import candidate_set

    c = random_complex(12, 0.45, 0.6, 8)
    cand = candidate_set(c, 1)
    assert list(cand.triples) == enumerate_3cliques(c)
    cliques = dict(zip(cand.triples, cand.ops.b2.T))
    for (i, j, k), vec in cliques.items():
        expected = np.zeros(c.num_edges)
        expected[[c.edge_index[(i, j)], c.edge_index[(i, k)], c.edge_index[(j, k)]]] = [1, -1, 1]
        assert np.array_equal(vec, expected)
    for col, triple in enumerate(c.triangles):
        assert triple in cliques
        assert np.allclose(cliques[triple], c.b2[:, col])


# ----------------------------------------------------------- random complex


def test_random_complex_no_fill():
    c = random_complex(12, 0.5, 0.0, 9)
    assert c.num_triangles == 0
    assert np.all(hodge_laplacians(c).upper == 0)


def test_random_complex_determinism():
    a = random_complex(15, 0.35, 0.6, 42)
    b = random_complex(15, 0.35, 0.6, 42)
    assert a.edges == b.edges
    assert a.triangles == b.triangles
    assert np.array_equal(a.b1, b.b1)
    assert np.array_equal(a.b2, b.b2)


def test_random_complex_reaches_reference_scale():
    # 33 vertices / 159 edges / 121 triangles is attainable
    c = random_complex(33, 0.30, 0.8, 9)
    assert (c.num_vertices, c.num_edges, c.num_triangles) == (33, 159, 121)


def test_grown_complex_hits_exact_counts():
    c = grown_complex(11, 15, 10, seed=0)
    assert (c.num_vertices, c.num_edges, c.num_triangles) == (11, 15, 10)
    assert np.all(c.b1 @ c.b2 == 0)


@pytest.mark.parametrize("size, digest", [
    # the design-scale complexes of the benchmark
    ((12, 30, 10, 0), "fdecc8f80e30d3ef"),
    ((60, 250, 80, 1), "7428d5a65f9da819"),
    ((150, 900, 300, 2), "d33bf26750823dbc"),
    # the network of criterion 7 and the surrogate traffic complex of criterion 9
    ((11, 15, 10, 0), "bc0a53064a985024"),
    ((17, 26, 5, 2), "3d9ea21a63a56890"),
])
def test_grown_complexes_are_pinned(size, digest):
    # the simplex lists of the complexes that results and benchmarks rest on
    c = grown_complex(*size)
    lists = repr((c.edges, c.triangles)).encode()
    assert hashlib.sha256(lists).hexdigest()[:16] == digest


# ------------------------------------------------------------ serialization


def test_complex_file_roundtrip(tmp_path):
    c = random_complex(14, 0.4, 0.5, 11)
    path = tmp_path / "complex.txt"
    save_complex(c, path)
    loaded = load_complex(path)
    assert loaded.edges == c.edges
    assert loaded.triangles == c.triangles
    assert np.array_equal(loaded.b1, c.b1)


def test_loader_rejects_non_closed_input(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3\n1 2\n2 3\n1 2 3\n")
    with pytest.raises(ValueError, match="downward closed"):
        load_complex(path)


def test_loader_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3\n1 2\nnot numbers\n")
    with pytest.raises(ValueError, match="line 3"):
        load_complex(path)
