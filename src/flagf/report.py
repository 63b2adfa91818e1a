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
    s = format(float(x), ".17g")
    if s[-1] in "nf":  # nan, inf, -inf
        raise ValueError(f"non-finite value in report: {x}")
    return s if "." in s or "e" in s else s + ".0"


_KINDS = (dict, list, tuple, str, bool, int, float, type(None))
_EXACT = frozenset(_KINDS)


def json_dumps(obj, indent: int = 2) -> str:
    """Serialize dicts/lists/scalars with stable layout and float format.

    Dispatch is on the exact type; an instance of a subclass takes the branch
    of its first base in _KINDS.
    """
    pads = [""]
    quoted: dict[str, str] = {}  # strings repeat, as keys and as values

    def emit(obj, level: int) -> str:
        kind = type(obj)
        if kind not in _EXACT:
            kind = next((k for k in _KINDS if isinstance(obj, k)), None)
        if kind is float:
            return fmt_float(obj)
        if kind is str:
            if obj not in quoted:
                quoted[obj] = json.dumps(obj)
            return quoted[obj]
        if kind is dict or kind is list or kind is tuple:
            if not obj:
                return "{}" if kind is dict else "[]"
            if len(pads) <= level + 1:
                pads.append(" " * (indent * (level + 1)))
            if kind is dict:
                items = []
                for key, val in obj.items():
                    if not isinstance(key, str):
                        raise TypeError(f"JSON object keys must be strings, got {type(key)}")
                    items.append(f"{emit(key, 0)}: {emit(val, level + 1)}")
            else:
                items = [emit(val, level + 1) for val in obj]
            brackets = "{}" if kind is dict else "[]"
            inner = pads[level + 1]
            return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pads[level]}{brackets[1]}"
        if kind is bool:
            return "true" if obj else "false"
        if kind is int:
            return str(obj)
        if obj is None:
            return "null"
        raise TypeError(f"cannot serialize {type(obj)} deterministically")

    return emit(obj, 0) + "\n"


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
