"""Report plumbing: canonical JSON, CSV flattening, exact-rational
serialization, config digests, atomic file writes.

Reports are deterministic for a fixed configuration and seed: keys are
sorted, rationals are rendered as "numerator/denominator" strings so
certificate values round-trip without float corruption, and the only
run-dependent field is the timestamp, which consumers exclude when
comparing runs.

A report is a dict with str keys whose values are dicts, lists, tuples,
str, int, float, bool, None, Fraction, numpy scalars and arrays, and
Tables.  Every writer converts the values json does not know through one
hook, _plain.  json_pieces renders the report with json.dumps, sort_keys
and indent=2, each Table standing in as a placeholder string, then
streams each Table's rows in its place a batch at a time, so the big
lists of a report are never held as text or as row dicts.  csv_pieces
flattens the same data to dotted-path rows.
"""

from __future__ import annotations

import itertools
import json
import os
import tempfile
import time
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
        # lists first: a table of lists loads no numpy
        if any(not isinstance(c, list) and c.ndim not in (1, 2) for c in self.columns.values()):
            raise ValueError("table columns must be 1-D or 2-D arrays or lists")
        self.length = lengths.pop() if lengths else 0

    def __iter__(self):
        """The rows as dicts, array cells as built-in values, converted a
        batch of rows at a time."""
        names = list(self.columns)
        for start in range(0, self.length, _ROWS):
            batches = [column[start : start + _ROWS] for column in self.columns.values()]
            cells = [b if isinstance(b, list) else b.tolist() for b in batches]
            for row in zip(*cells):
                yield dict(zip(names, row))


def _plain(obj):
    """json.dumps' default hook: a Fraction as "num/den", a numpy scalar
    or array as built-ins.  numpy comes last, so that a report without
    arrays does not load it."""
    if isinstance(obj, Fraction):
        return rational_str(obj)
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _dumps(data, default=_plain) -> str:
    return json.dumps(data, sort_keys=True, indent=2, default=default)


_encode_str = json.encoder.encode_basestring_ascii


def _table_parts(table: Table, nl: str):
    """The JSON text of a Table at the indentation nl ("\\n" plus two
    spaces per level), one string per batch of rows: one % template per
    row, with a slot per 1-D column and per column of a 2-D one, filled
    from each column's text a batch of rows at a time."""
    if not table.length:
        yield "[]"
        return
    row_nl = nl + "  "
    cell_nl = row_nl + "  "
    fields, slots = [], []
    for name in sorted(table.columns):
        column = table.columns[name]
        key = cell_nl + _encode_str(name).replace("%", "%%") + ": "
        if not isinstance(column, list) and column.ndim == 2:
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
            rows = itertools.repeat(row % (), min(_ROWS, table.length - start))  # unescapes %%
        yield sep + ("," + row_nl).join(rows)
        sep = "," + row_nl
    yield nl + "]"


def _texts(cells, nl: str):
    """The JSON text of each cell of a column slice, values at indentation
    nl: C-level maps over float64 and int arrays and over lists of strings
    or of ints, json.dumps otherwise."""
    if isinstance(cells, list):
        kinds = set(map(type, cells))
        if kinds == {str}:
            return map(_encode_str, cells)
        if kinds == {int}:
            return map(int.__repr__, cells)
    elif cells.dtype.kind in "iu" or (cells.dtype == np.float64 and np.isfinite(cells).all()):
        return map(repr, cells.tolist())
    else:
        cells = cells.tolist()
    return [_dumps(cell).replace("\n", nl) for cell in cells]


def json_pieces(data):
    """The canonical JSON of data in pieces: the text json.dumps makes of the
    report with each Table as a placeholder, and in the placeholder's
    place the Table's rows, a batch at a time, at its line's indentation."""
    tables: list[Table] = []
    # per call, so that no string in the report can pass for a placeholder
    token = os.urandom(16).hex()

    def default(obj):
        if isinstance(obj, Table):
            tables.append(obj)
            return f"{token}{len(tables) - 1}"
        return _plain(obj)

    head, *rest = (_dumps(data, default) + "\n").split(f'"{token}')
    for piece in rest:
        line = head[head.rfind("\n") + 1 :]
        yield head
        index, head = piece.split('"', 1)
        nl = "\n" + " " * (len(line) - len(line.lstrip(" ")))
        yield from _table_parts(tables[int(index)], nl)
    yield head


def config_digest(data) -> str:
    """Short stable digest of a configuration mapping."""
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"), default=_plain)
    return sha256(blob.encode()).hexdigest()[:16]


# exact types that CSV writes as they are
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _flat(data, prefix: str):
    """Dotted-path (key, value) rows of data for CSV: dict keys sorted,
    list, tuple and Table items indexed, other leaves through _plain."""
    if isinstance(data, dict):
        children = ((f"{prefix}.{key}" if prefix else key, data[key]) for key in sorted(data))
    elif isinstance(data, (list, tuple, Table)):
        children = ((f"{prefix}[{i}]", item) for i, item in enumerate(data))
    elif type(data) in _SCALARS:
        yield prefix, data
        return
    else:
        yield from _flat(_plain(data), prefix)
        return
    for path, item in children:
        if type(item) in _SCALARS:
            yield path, item
        else:
            yield from _flat(item, path)


# lines gathered into each piece csv_pieces yields: one write per line
# would cost more than the rendering, and the whole report costs memory
# that grows with it
_BATCH = 1024


def csv_pieces(data):
    """The "key,value" CSV of data's dotted-path rows, in pieces of lines,
    each line flattened when it is read."""
    lines = ["key,value\n"]
    for path, value in _flat(data, ""):
        text = "" if value is None else str(value)
        if "," in text or '"' in text or "\n" in text or "\r" in text:
            text = '"' + text.replace('"', '""') + '"'
        lines.append(f"{path},{text}\n")
        if len(lines) >= _BATCH:
            yield "".join(lines)
            lines.clear()
    yield "".join(lines)


def report_pieces(data, fmt: str):
    """The report in pieces, in the requested format."""
    if fmt == "json":
        return json_pieces(data)
    if fmt == "csv":
        return csv_pieces(data)
    raise ValueError(f"unknown report format {fmt!r}")


def timestamp() -> str:
    """The current UTC time to the second, as ISO 8601 with a +00:00 offset."""
    return time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())


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
