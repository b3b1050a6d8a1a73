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
a list may be given as an iterator.  csv_pieces does the same for CSV.
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

import numpy as np

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
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return sequence(_builtin(v, sequence) for v in obj.tolist())
    if is_dataclass(obj) and not isinstance(obj, type):
        return _builtin(_fields(obj), sequence)
    if isinstance(obj, dict):
        return {str(k): _builtin(v, sequence) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, Iterator)):
        return sequence(_builtin(v, sequence) for v in obj)
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
    for exact str, float and int, each case comes in the order to_builtin
    and then json take it."""
    kind = type(obj)
    if kind is str:
        return _encode_str(obj)
    if kind is float:
        return _float_json(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is dict or kind is list:
        return None
    if isinstance(obj, Fraction):
        return f'"{rational_str(obj)}"'
    if isinstance(obj, np.generic):
        return _leaf(obj.item())
    if isinstance(obj, (dict, list, tuple, Iterator, np.ndarray)) or (
        is_dataclass(obj) and not isinstance(obj, type)
    ):
        return None
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
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
        if isinstance(obj, (np.ndarray, np.generic)):
            # a 0-d array holds a scalar, a structured scalar a tuple
            obj = obj.tolist()
            text = _leaf(obj)
            if text is not None:
                parts.append(text)
                return
        elif is_dataclass(obj):
            obj = _fields(obj)
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
    elif isinstance(data, (list, tuple, Iterator)):
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
