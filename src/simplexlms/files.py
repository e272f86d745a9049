"""Every file the package reads or writes: complexes, edge series, combinations, results, configs.

Every float written is spelled by :func:`_spell`, and ``float`` reads back
each bit. Every writer goes through :func:`_replacing`: the file is written
to a sibling ``<path>.part`` and renamed onto ``path`` once complete, so a
failed write leaves no file, an existing one keeps its bytes, and a path
that cannot be written is a :class:`ConfigError` that names it.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import re
from itertools import chain, repeat

import numpy as np

from .errors import ConfigError

__all__ = ["save_complex", "load_complex", "write_edge_series", "read_edge_series",
           "save_combination", "write_results", "load_config", "read_results"]

# Both read reprs each followed by ","; _SMALL starts with its literal, which is searched fast,
# and its lookbehind then rejects a literal that sits inside a number (10.0005).
_SMALL = re.compile(r"0\.00(?<!\d0\.00)(?:0(\d)(\d+)|0?(\d)(?=,))")  # 0.00015, 0.0005 or 0.005
_INTEGRAL = re.compile(r"(?<![\d.])([1-9]\d*?)(0+)\.0(?=,)")  # 1500.0: digits 15, zeros 00


def _spell(values: list, entries: bool = False) -> list[str]:
    """Each float of ``values`` in its shortest exact spelling, the one every text file holds:
    the shorter of ``repr``'s (positional from 1e-4 up to 1e16) and scientific form with a bare
    exponent (``1e-7``, ``1.5e-4``, ``1e16``), ``repr``'s on a tie, so that JSON reads a float.
    With ``entries`` (of a JSON array) an integral value drops its ``.0`` (``-0.0`` is ``-0``)."""
    def integral(m):  # scientific form may be shorter from 10 up
        scientific = f"{m[1][0]}.{m[1][1:]}".rstrip(".") + f"e{len(m[1] + m[2]) - 1}"
        return min(m[0][:-2] if entries else m[0], scientific, key=len)  # the first on a tie

    text = (",".join(map(float.__repr__, values)) + ",").replace("e+", "e").replace("e-0", "e-")
    # shorter below 1e-3, and for one digit below 1e-2
    text = _SMALL.sub(lambda m: f"{m[1]}.{m[2]}e-4" if m[1] else f"{m[3]}e-{len(m[0]) - 2}", text)
    text = _INTEGRAL.sub(integral, text) if "0.0," in text else text
    return (text.replace(".0,", ",") if entries else text)[:-1].split(",") if values else []


@contextlib.contextmanager
def _replacing(path):
    """Yield a text handle on the sibling ``<path>.part``, renamed onto ``path`` once complete.

    A write that fails leaves no file, and an existing ``path`` keeps its
    bytes. An ``OSError`` is a :class:`ConfigError` that names ``path``.
    """
    part = os.fspath(path) + ".part"
    try:
        with open(part, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(part, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    finally:
        with contextlib.suppress(OSError):  # already gone after the rename
            os.remove(part)


def _write_rows(path, rows) -> None:
    with _replacing(path) as fh:
        csv.writer(fh).writerows(rows)


def save_complex(complex_, path) -> None:
    """Write the text format of a complex: its vertex count, then `i j` edges, then `i j k`
    triangles, 1-based; ``#`` starts a comment."""
    with _replacing(path) as fh:
        fh.write(f"{complex_.num_vertices}\n# edges\n")
        fh.writelines(f"{i + 1} {j + 1}\n" for i, j in complex_.edges)
        fh.write("# triangles\n")
        fh.writelines(f"{i + 1} {j + 1} {k + 1}\n" for i, j, k in complex_.triangles)


def load_complex(path):
    """The complex in the text format of :func:`save_complex`. Malformed lines (with their line
    number) and any input :func:`build_incidence` rejects raise; each message starts with ``path``.
    """
    from .complexes import build_incidence  # here, to break the cycle: complexes imports files

    num_vertices = None
    edges: list[tuple[int, int]] = []
    triangles: list[tuple[int, int, int]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                values = [int(p) for p in line.split()]
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: non-integer token") from exc
            if num_vertices is None:
                if len(values) != 1:
                    raise ValueError(f"{path}: line {lineno}: expected the vertex count first")
                num_vertices = values[0]
            elif len(values) == 2:
                edges.append((values[0] - 1, values[1] - 1))
            elif len(values) == 3:
                triangles.append((values[0] - 1, values[1] - 1, values[2] - 1))
            else:
                raise ValueError(
                    f"{path}: line {lineno}: expected an `i j` edge or `i j k` triangle")
    if num_vertices is None:
        raise ValueError(f"{path}: empty complex file")
    try:
        return build_incidence(num_vertices, edges, triangles)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_edge_series(path, series: np.ndarray) -> None:
    """CSV with header ``n,e_1,...,e_E`` and one snapshot per row, spelled by ``_spell``."""
    series = np.asarray(series, dtype=np.float64)
    header = ["n"] + [f"e_{j + 1}" for j in range(series.shape[1])]
    _write_rows(path, chain([header], ([n] + _spell(row.tolist()) for n, row in enumerate(series))))


def read_edge_series(path) -> np.ndarray:
    """Load a snapshot CSV; malformed or non-finite cells name the offending line."""
    rows: list[list[float]] = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty series file") from None
        if not header or header[0] != "n" or any(
                h != f"e_{j + 1}" for j, h in enumerate(header[1:])):
            raise ConfigError(f"{path}: header must be n,e_1,...,e_E, got {header!r}")
        width = len(header) - 1
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width + 1:
                raise ConfigError(
                    f"{path}: line {lineno}: expected {width + 1} cells, got {len(row)}")
            try:
                rows.append([float(v) for v in row[1:]])
            except ValueError:
                raise ConfigError(f"{path}: line {lineno}: non-numeric cell") from None
    if not rows:
        raise ConfigError(f"{path}: series file holds no snapshots")
    series = np.asarray(rows, dtype=np.float64)
    # float() accepts "nan" and "inf"; reject them here, not as a divergence later
    bad = np.flatnonzero(~np.all(np.isfinite(series), axis=1))
    if bad.size:
        raise ConfigError(f"{path}: line {bad[0] + 2}: non-finite cell")
    return series


def save_combination(comb: np.ndarray, path) -> None:
    """CSV rows ``i, l, a_il`` for the nonzero weights of ``comb``, spelled by ``_spell``."""
    _write_rows(path, chain([["i", "l", "a_il"]], (
        [i, l, weight] for i, row in enumerate(comb)
        for l, weight in zip(np.flatnonzero(row).tolist(), _spell(row[row != 0].tolist())))))


def _csv_rows(payload: dict, table):
    """Header, then a row per entry of the table's per-row arrays; floats by :func:`_spell`."""
    index, columns = table
    values = []
    for _, key, *view in columns:
        value = payload
        for part in key.split("."):
            value = (value or {}).get(part)
        cells = np.asarray(view[0](value) if view else value).tolist()  # Python values
        column = cells if isinstance(cells, list) else [cells]
        spelled = iter(_spell([cell for cell in column if isinstance(cell, float)]))
        column = [next(spelled) if isinstance(cell, float) else cell for cell in column]
        values.append(column if isinstance(cells, list) else repeat(column[0]))
    yield [index] + [column[0] for column in columns]
    yield from ([k, *row] for k, row in enumerate(zip(*values)))


def _json_floats(values) -> list[str]:
    """:func:`_spell` of the floats ``values``, which strict JSON holds only when finite; an
    array's integral entry drops its ``.0``, a list's keeps it."""
    if not (finite := np.isfinite(values)).all():
        bad = float(values[np.argmin(finite)])
        raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
    array = isinstance(values, np.ndarray)
    return _spell(values.tolist() if array else values, entries=array)


def _json_pieces(value):
    """``value`` as compact, strict JSON: dicts (string keys), lists, tuples and 2-D arrays
    entry by entry, floats by :func:`_json_floats` (512 a call), others by ``json.dumps``."""
    floats = isinstance(value, (list, tuple)) and value and all(type(v) is float for v in value)
    if isinstance(value, dict):
        for n, (key, item) in enumerate(value.items()):
            yield ("," if n else "{") + json.dumps(key) + ":"
            yield from _json_pieces(item)
        yield "}" if value else "{}"
    elif isinstance(value, (list, tuple)) and not floats or getattr(value, "ndim", 0) > 1:
        for n, item in enumerate(value):
            yield "," if n else "["
            yield from _json_pieces(item)
        yield "]" if len(value) else "[]"
    elif floats or isinstance(value, np.ndarray):
        for n in range(0, len(value), 512):
            yield ("," if n else "[") + ",".join(_json_floats(value[n:n + 512]))
        yield "]" if len(value) else "[]"
    elif isinstance(value, float):
        yield _json_floats([value])[0]
    else:
        yield json.dumps(value)


def _write_json(payload: dict, fh) -> None:
    """``payload`` as one line of :func:`_json_pieces` and a newline, piece by piece into ``fh``,
    whose own buffer groups the writes: memory stays bounded."""
    for piece in _json_pieces(payload):
        fh.write(piece)
    fh.write("\n")


def write_results(path, payload: dict, table=None) -> None:
    """``payload`` as one line of strict, compact JSON, or with a row ``table`` (a header for
    the row number, then ``(header, payload key[, view])`` per column) as CSV rows.

    A non-finite float raises ``ValueError``, which JSON cannot hold, and leaves no file.
    """
    if table is not None:
        return _write_rows(path, _csv_rows(payload, table))
    with _replacing(path) as fh:
        _write_json(payload, fh)


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def _read_json(path, what: str, **parse) -> dict:
    """The JSON object in ``path``, read by ``json.load`` with ``parse``; a file that cannot be
    read or is not JSON, and a value that is not an object, are a :class:`ConfigError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, **parse)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{what} {path} must hold a JSON object")
    return data


def load_config(path) -> dict:
    """A config file's object, integers kept; a ``NaN`` or ``Infinity`` value is left to the
    key parsers, whose message names its key."""
    return _read_json(path, "config file")


def read_results(path) -> dict:
    """A result file's object, strictly: ``NaN`` and ``Infinity`` are rejected by name, and
    every number is read as a float, so each float reads back bit for bit."""
    return _read_json(path, "results file", parse_constant=_reject_constant, parse_int=float)
