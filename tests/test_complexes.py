"""Structural tests for complexes, Laplacians, decomposition and the SFT."""

import numpy as np
import pytest

from simplexlms.complexes import (
    build_incidence,
    enumerate_3cliques,
    grown_complex,
    hodge_decompose,
    hodge_laplacians,
    inverse_sft,
    load_complex,
    random_complex,
    save_complex,
    sft,
)


def seeded_complexes(count, num_vertices=12, edge_prob=0.4, fill_prob=0.5):
    return [random_complex(num_vertices, edge_prob, fill_prob, seed) for seed in range(count)]


# ---------------------------------------------------------------- incidence


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
    c = random_complex(12, 0.45, 0.6, 8)
    cliques = dict(
        (triple, vec) for triple, vec in enumerate_3cliques(c)
    )
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
