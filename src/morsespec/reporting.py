"""Report plumbing: canonical JSON, CSV flattening, exact-rational
serialization, config digests, atomic file writes.

Reports are deterministic for a fixed configuration and seed: keys are
sorted, rationals are rendered as "numerator/denominator" strings so
certificate values round-trip without float corruption, and the only
run-dependent field is the timestamp, which consumers exclude when
comparing runs.

canonical_json renders report objects directly, in the exact bytes of
json.dumps(to_builtin(x), sort_keys=True, indent=2) + "\n", but without
the intermediate copy or the pure-Python encoder that indent selects.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import asdict, fields, is_dataclass
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

SCHEMA = "morsespec-report/1"


def rational_str(x: Fraction) -> str:
    """Serialize exactly, always with the denominator: '3/5', '-1/35', '1/1'."""
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    return Fraction(text)


def to_builtin(obj):
    """Recursively convert report payloads to JSON-ready built-ins:
    rationals to strings, numpy scalars and arrays to Python numbers and
    lists, dataclasses and mappings to dicts."""
    if isinstance(obj, Fraction):
        return rational_str(obj)
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [to_builtin(v) for v in obj.tolist()]
    if is_dataclass(obj) and not isinstance(obj, type):
        return to_builtin(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): to_builtin(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_builtin(v) for v in obj]
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


def _render(obj, nl: str) -> str:
    """JSON text of obj at the indentation nl ("\\n" plus two spaces per
    level).  Past the fast path for exact str, float and int, each case
    comes in the order to_builtin and then json take it.  A container
    joins its children as soon as they are rendered."""
    kind = type(obj)
    if kind is str:
        return _encode_str(obj)
    if kind is float:
        return _float_json(obj)
    if kind is int:
        return int.__repr__(obj)
    if isinstance(obj, Fraction):
        return f'"{rational_str(obj)}"'
    if isinstance(obj, np.generic):
        return _render(obj.item(), nl)
    if isinstance(obj, np.ndarray):
        return _render(obj.tolist(), nl)
    if is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in fields(obj)}
    inner = nl + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = {str(k): v for k, v in obj.items()}
        body = ("," + inner).join(
            f"{_encode_str(k)}: {_render(items[k], inner)}" for k in sorted(items)
        )
        return f"{{{inner}{body}{nl}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = ("," + inner).join(_render(v, inner) for v in obj)
        return f"[{inner}{body}{nl}]"
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


def canonical_json(data) -> str:
    return _render(data, "\n") + "\n"


def config_digest(data) -> str:
    """Short stable digest of a configuration mapping."""
    blob = json.dumps(to_builtin(data), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def flatten(data, prefix: str = "") -> list[tuple[str, object]]:
    """Dotted-path key/value rows for CSV output; list items are indexed."""
    rows: list[tuple[str, object]] = []
    if isinstance(data, dict):
        for key in sorted(data):
            path = f"{prefix}.{key}" if prefix else str(key)
            rows.extend(flatten(data[key], path))
    elif isinstance(data, (list, tuple)):
        for i, item in enumerate(data):
            rows.extend(flatten(item, f"{prefix}[{i}]"))
    else:
        rows.append((prefix, data))
    return rows


def render_csv(data) -> str:
    lines = ["key,value"]
    for path, value in flatten(to_builtin(data)):
        text = "" if value is None else str(value)
        if "," in text or '"' in text or "\n" in text:
            text = '"' + text.replace('"', '""') + '"'
        lines.append(f"{path},{text}")
    return "\n".join(lines) + "\n"


def render_report(data, fmt: str) -> str:
    if fmt == "json":
        return canonical_json(data)
    if fmt == "csv":
        return render_csv(data)
    raise ValueError(f"unknown report format {fmt!r}")


def timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def write_atomic(path: str, text: str) -> None:
    """Write through a temp file and rename, so readers never observe a
    partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
