"""Report plumbing: canonical JSON, CSV flattening, exact-rational
serialization, config digests, atomic file writes.

Reports are deterministic for a fixed configuration and seed: keys are
sorted, rationals are rendered as "numerator/denominator" strings so
certificate values round-trip without float corruption, and the only
run-dependent field is the timestamp, which consumers exclude when
comparing runs.

json_pieces renders report objects directly, in the exact bytes of
json.dumps(to_builtin(x), sort_keys=True, indent=2) + "\n", but without
the intermediate copy or the pure-Python encoder that indent selects, and
in pieces as they are read, so a report can be written while it is built:
a list may be given as an iterator, and a list of rows as a Table of
columns.  csv_pieces does the same for CSV.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import tempfile
from collections.abc import Iterator
from dataclasses import fields, is_dataclass
from datetime import datetime, timezone
from fractions import Fraction

from . import lazy_numpy

np = lazy_numpy()

# the interpreter's own SHA-256: hashlib would load OpenSSL's libcrypto,
# about 3.4 MB of resident memory, for one short digest per report
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

SCHEMA = "morsespec-report/1"


def rational_str(x: Fraction) -> str:
    """Serialize exactly, always with the denominator: '3/5', '-1/35', '1/1'."""
    return f"{x.numerator}/{x.denominator}"


def rational_strs(numerators, denominators) -> list[str]:
    """rational_str of each reduced numerator / positive denominator pair,
    without building the Fractions."""
    return list(map("{}/{}".format, numerators, denominators))


# rows a Table converts and renders at a time: a whole column at once
# would hold a Python object per cell
_ROWS = 128


class Table:
    """A list of rows held as named columns, each a 1-D array (one value
    per row), a 2-D array (one list per row) or a list.  The writers take
    it as the list of {name: column[i]} dicts, which it never builds: JSON
    is rendered a batch of rows at a time, a column at a time."""

    def __init__(self, columns: dict):
        self.columns = {str(name): column for name, column in columns.items()}
        lengths = {len(column) for column in self.columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"table columns differ in length: {sorted(lengths)}")
        if any(isinstance(c, np.ndarray) and c.ndim not in (1, 2) for c in self.columns.values()):
            raise ValueError("table columns must be 1-D or 2-D arrays or lists")
        self.length = lengths.pop() if lengths else 0

    def __iter__(self):
        """The rows as dicts, array cells as built-in values, converted a
        batch of rows at a time."""
        names = list(self.columns)
        for start in range(0, self.length, _ROWS):
            batches = [column[start : start + _ROWS] for column in self.columns.values()]
            cells = [b.tolist() if isinstance(b, np.ndarray) else b for b in batches]
            for row in zip(*cells):
                yield dict(zip(names, row))


# exact types that to_builtin and flatten pass through unchanged
_SCALARS = frozenset({str, int, float, bool, type(None)})


def to_builtin(obj):
    """Recursively convert report payloads to JSON-ready built-ins:
    rationals to strings, numpy scalars and arrays to Python numbers and
    lists, dataclasses and mappings to dicts, iterators to lists."""
    return _builtin(obj, list)


def _fields(obj) -> dict:
    """A dataclass instance's fields by name, values unconverted."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _builtin(obj, sequence):
    """to_builtin, with each list built by sequence from an iterator over
    its converted items: list copies the whole tree, iter converts a list's
    items only as they are read."""
    if type(obj) in _SCALARS:
        return obj
    if isinstance(obj, Fraction):
        return rational_str(obj)
    if is_dataclass(obj) and not isinstance(obj, type):
        return _builtin(_fields(obj), sequence)
    if isinstance(obj, dict):
        return {str(k): _builtin(v, sequence) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, Iterator, Table)):
        return sequence(_builtin(v, sequence) for v in obj)
    # numpy last, so that a report without arrays does not load it
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return sequence(_builtin(v, sequence) for v in obj.tolist())
    return obj


_encode_str = json.encoder.encode_basestring_ascii


def _float_json(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _leaf(obj) -> str | None:
    """JSON text of a leaf, or None for a container.  Past the fast path
    for exact str, float, int, dict, list, None and bools, each case comes
    in the order to_builtin and then json take it."""
    kind = type(obj)
    if kind is str:
        return _encode_str(obj)
    if kind is float:
        return _float_json(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is dict or kind is list:
        return None
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, Fraction):
        return f'"{rational_str(obj)}"'
    if isinstance(obj, (dict, list, tuple, Iterator, Table)) or (
        is_dataclass(obj) and not isinstance(obj, type)
    ):
        return None
    if isinstance(obj, np.generic):
        return _leaf(obj.item())
    if isinstance(obj, np.ndarray):
        return None
    if isinstance(obj, str):
        return _encode_str(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float_json(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# parts (JSON) or lines (CSV) gathered into each piece the writers yield:
# one write per part would cost more than the rendering, and the whole
# report costs memory that grows with it
_BATCH = 1024


def _json_parts(obj, nl: str, parts: list[str]):
    """Append the JSON text of obj, a value _leaf does not render, at the
    indentation nl ("\\n" plus two spaces per level) to parts.  A dict,
    list or iterator is rendered child by child, and the generator yields,
    with no value, whenever parts holds a batch, for the caller to take it
    away."""
    kind = type(obj)
    if kind is not dict and kind is not list:
        if isinstance(obj, Table):
            yield from _table_parts(obj, nl, parts)
            return
        if is_dataclass(obj):
            obj = _fields(obj)
        elif not isinstance(obj, (dict, list, tuple, Iterator)):
            # what else _leaf leaves is numpy's: a 0-d array holds a
            # scalar, a structured scalar a tuple
            obj = obj.tolist()
            text = _leaf(obj)
            if text is not None:
                parts.append(text)
                return
    if isinstance(obj, dict):
        items = {str(k): v for k, v in obj.items()}
        keys = sorted(items)
        opener, closer = "{", "}"
        children = zip([f"{_encode_str(k)}: " for k in keys], [items[k] for k in keys])
    else:
        opener, closer = "[", "]"
        children = zip(itertools.repeat(""), obj)
    inner = nl + "  "
    sep = opener + inner
    for key, child in children:
        text = _leaf(child)
        if text is None:
            parts.append(sep + key)
            yield from _json_parts(child, inner, parts)
        else:
            parts.append(sep + key + text)
        if len(parts) >= _BATCH:
            yield
        sep = "," + inner
    parts.append(nl + closer if sep[0] == "," else opener + closer)


def _table_parts(table: Table, nl: str, parts: list[str]):
    """_json_parts for a Table: one % template per row, with a slot per
    1-D column and per column of a 2-D one, filled from each column's
    text a batch of rows at a time.  Each batch goes out as it is made."""
    if not table.length:
        parts.append("[]")
        return
    row_nl = nl + "  "
    cell_nl = row_nl + "  "
    fields, slots = [], []
    for name in sorted(table.columns):
        column = table.columns[name]
        key = cell_nl + _encode_str(name).replace("%", "%%") + ": "
        if isinstance(column, np.ndarray) and column.ndim == 2:
            item_nl = cell_nl + "  "
            width = column.shape[1]
            items = ",".join([item_nl + "%s"] * width)
            fields.append(key + ("[" + items + cell_nl + "]" if width else "[]"))
            slots += [(column[:, i], item_nl) for i in range(width)]
        else:
            fields.append(key + "%s")
            slots.append((column, cell_nl))
    row = "{" + ",".join(fields) + row_nl + "}" if fields else "{}"
    sep = "[" + row_nl
    for start in range(0, table.length, _ROWS):
        texts = [_texts(column[start : start + _ROWS], item_nl) for column, item_nl in slots]
        if slots:
            rows = map(row.__mod__, zip(*texts))
        else:
            rows = itertools.repeat(row, min(_ROWS, table.length - start))
        parts.append(sep + ("," + row_nl).join(rows))
        sep = "," + row_nl
        yield
    parts.append(nl + "]")


def _texts(cells, nl: str):
    """The JSON text of each cell of a column slice, values at indentation
    nl: C-level maps over float64 and int arrays and lists of strings,
    _leaf otherwise."""
    if isinstance(cells, np.ndarray):
        kind = cells.dtype.kind
        if kind in "iu" or (cells.dtype == np.float64 and np.isfinite(cells).all()):
            return map(repr, cells.tolist())
        cells = cells.tolist()
    elif set(map(type, cells)) == {str}:
        return map(_encode_str, cells)
    return map(_cell, cells, itertools.repeat(nl))


def _cell(obj, nl: str) -> str:
    """The whole JSON text of a value at indentation nl."""
    text = _leaf(obj)
    if text is None:
        parts: list[str] = []
        for _ in _json_parts(obj, nl, parts):
            pass
        text = "".join(parts)
    return text


def json_pieces(data):
    """canonical_json(data) in pieces, each rendered when it is read."""
    text = _leaf(data)
    if text is not None:
        yield text + "\n"
        return
    parts: list[str] = []
    for _ in _json_parts(data, "\n", parts):
        yield "".join(parts)
        parts.clear()
    parts.append("\n")
    yield "".join(parts)


def canonical_json(data) -> str:
    return "".join(json_pieces(data))


def config_digest(data) -> str:
    """Short stable digest of a configuration mapping."""
    blob = json.dumps(to_builtin(data), sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode()).hexdigest()[:16]


def flatten(data, prefix: str = "") -> list[tuple[str, object]]:
    """Dotted-path key/value rows for CSV output; list and iterator items
    are indexed."""
    return list(_flat(data, prefix))


def _flat(data, prefix: str):
    if isinstance(data, dict):
        children = ((f"{prefix}.{key}" if prefix else str(key), data[key]) for key in sorted(data))
    elif isinstance(data, (list, tuple, Iterator, Table)):
        children = ((f"{prefix}[{i}]", item) for i, item in enumerate(data))
    else:
        yield prefix, data
        return
    for path, item in children:
        if type(item) in _SCALARS:
            yield path, item
        else:
            yield from _flat(item, path)


def csv_pieces(data):
    """render_csv(data) in pieces of lines, each line converted and
    flattened when it is read."""
    lines = ["key,value\n"]
    for path, value in _flat(_builtin(data, iter), ""):
        text = "" if value is None else str(value)
        if "," in text or '"' in text or "\n" in text:
            text = '"' + text.replace('"', '""') + '"'
        lines.append(f"{path},{text}\n")
        if len(lines) >= _BATCH:
            yield "".join(lines)
            lines.clear()
    yield "".join(lines)


def render_csv(data) -> str:
    return "".join(csv_pieces(data))


def report_pieces(data, fmt: str):
    """The report in pieces, in the requested format."""
    if fmt == "json":
        return json_pieces(data)
    if fmt == "csv":
        return csv_pieces(data)
    raise ValueError(f"unknown report format {fmt!r}")


def timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def write_atomic(path: str, pieces) -> None:
    """Write an iterable of strings (a str is one) through a temp file and
    rename, so readers never observe a partial file.  The file gets the
    mode open() would give it, not mkstemp's 0600."""
    if isinstance(pieces, str):
        pieces = (pieces,)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~_umask())
            fh.writelines(pieces)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
