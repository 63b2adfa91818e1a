"""Deterministic JSON/CSV/text emission.

Floats are rendered with 17 significant digits so every report round-trips
losslessly and reruns with the same configuration are byte-identical.  Files
are written atomically (a uniquely named temp file in the target directory,
then a rename): concurrent writers never share a temp file, and a failed
write leaves neither a partial report nor a stray temp file behind.
"""

from __future__ import annotations

import json
import os
from pathlib import Path


def fmt_float(x: float) -> str:
    """17-significant-digit decimal form, always spelled as a float."""
    if not (x == x) or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite value in report: {x}")
    s = format(float(x), ".17g")
    if not any(c in s for c in ".eE"):
        s += ".0"
    return s


def json_dumps(obj, indent: int = 2) -> str:
    """Serialize dicts/lists/scalars with stable layout and float format."""
    out: list[str] = []
    _emit(obj, out, indent, 0)
    out.append("\n")
    return "".join(out)


def _emit(obj, out: list[str], indent: int, level: int) -> None:
    pad = " " * (indent * (level + 1))
    closing = " " * (indent * level)
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, val) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {type(key)}")
            out.append(pad + json.dumps(key) + ": ")
            _emit(val, out, indent, level + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(closing + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, val in enumerate(obj):
            out.append(pad)
            _emit(val, out, indent, level + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(closing + "]")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(fmt_float(obj))
    elif obj is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj)} deterministically")


def csv_text(header, rows) -> str:
    """Comma-joined lines; cells are preformatted strings."""
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def atomic_write_text(path: Path | str, text: str) -> None:
    """Replace ``path`` with ``text`` in one rename.

    The temp file is created exclusively (mode "x", so the umask applies as
    for a plain write) under a random name next to ``path``, and removed if
    the write or the rename fails.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
