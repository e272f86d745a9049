"""The package's files: each format reads back as written, and every writer fails cleanly."""

import csv
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexlms.complexes import random_complex
from simplexlms.errors import ConfigError
from simplexlms.files import (
    load_complex,
    read_edge_series,
    save_combination,
    save_complex,
    write_edge_series,
    write_results,
)

# the edges of the spelling's bands (1e-4 and 1e-3 for the scientific form of small values,
# 1e16 for repr's own), each with its two neighbours, plus signed zeros, subnormals and
# integral values, whose ".0" the spelling may drop
EDGES = [float(np.nextafter(edge, toward)) for edge in (1e-4, 1e-3, 1e16)
         for toward in (0.0, np.inf)] + [1e-4, 1e-3, 1e16]
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(EDGES + [-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308]),
    st.floats(1e-4, 1e-3),
    st.integers(-(2**60), 2**60).map(float),
)


def bits(array) -> bytes:
    return np.asarray(array, dtype=np.float64).tobytes()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(rows=st.integers(1, 6), cols=st.integers(1, 8), data=st.data())
def test_edge_series_reads_back_bit_for_bit(tmp_path_factory, rows, cols, data):
    series = np.array(data.draw(st.lists(FLOATS, min_size=rows * cols, max_size=rows * cols)))
    path = tmp_path_factory.mktemp("series") / "s.csv"
    write_edge_series(path, series.reshape(rows, cols))
    assert bits(read_edge_series(path)) == bits(series)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(size=st.integers(1, 7), data=st.data())
def test_combination_reads_back_bit_for_bit(tmp_path_factory, size, data):
    comb = np.array(data.draw(st.lists(FLOATS, min_size=size * size, max_size=size * size)))
    comb = comb.reshape(size, size)
    path = tmp_path_factory.mktemp("comb") / "a.csv"
    save_combination(comb, path)
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["i", "l", "a_il"]
    read = np.zeros_like(comb)
    for i, l, weight in rows:
        read[int(i), int(l)] = float(weight)
    # zero weights of either sign are not written
    assert len(rows) == np.count_nonzero(comb)
    assert bits(read) == bits(np.where(comb != 0, comb, 0.0))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(vertices=st.integers(1, 14), edge_prob=st.floats(0, 1), fill_prob=st.floats(0, 1),
       seed=st.integers(0, 2**16))
def test_complex_text_reads_back(tmp_path_factory, vertices, edge_prob, fill_prob, seed):
    complex_ = random_complex(vertices, edge_prob, fill_prob, seed)
    path = tmp_path_factory.mktemp("complex") / "c.txt"
    save_complex(complex_, path)
    loaded = load_complex(path)
    assert loaded.num_vertices == complex_.num_vertices
    assert loaded.edges == complex_.edges and loaded.triangles == complex_.triangles


@pytest.mark.parametrize("write", [
    lambda path: save_complex(random_complex(6, 0.5, 0.5, 0), path),
    lambda path: write_edge_series(path, np.ones((2, 3))),
    lambda path: save_combination(np.eye(3), path),
    lambda path: write_results(path, {"msd": np.ones(3)}),
], ids=["complex", "series", "combination", "results"])
def test_a_path_that_cannot_be_written_is_a_config_error(tmp_path, write):
    target = tmp_path / "missing" / "out.txt"
    with pytest.raises(ConfigError, match=f"cannot write {re.escape(str(target))}"):
        write(target)
    assert list(tmp_path.iterdir()) == []
