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
from dataclasses import dataclass
from pathlib import Path


def fmt_float(x: float) -> str:
    """17-significant-digit decimal form, always spelled as a float."""
    s = format(float(x), ".17g")
    if s[-1] in "nf":  # nan, inf, -inf
        raise ValueError(f"non-finite value in report: {x}")
    return s if "." in s or "e" in s else s + ".0"


@dataclass(frozen=True, eq=False)
class Rows:
    """A JSON list of objects of one shape, given by columns.

    ``layout`` is one row: a dict, possibly nested, whose leaves are columns
    of equal length (sequences, or arrays with ``tolist``).  json_dumps writes
    row i as it writes that dict with every column replaced by its element i,
    byte for byte, without building the row dicts.
    """

    layout: dict


_KINDS = (Rows, dict, list, tuple, str, bool, int, float, type(None))
_EXACT = frozenset(_KINDS)
_SCALARS = {float: fmt_float, bool: lambda v: "true" if v else "false", int: str, type(None): lambda v: "null"}
_SLOT = "\0"  # stands for a column in a row of Rows; json.dumps writes NUL in a string as \u0000


def json_dumps(obj, indent: int = 2) -> str:
    """Serialize dicts/lists/scalars and Rows with stable layout and float format.

    Dispatch is on the exact type; an instance of a subclass takes the branch
    of its first base in _KINDS.
    """
    pads = [""]
    quoted: dict[str, str] = {}  # strings repeat, as keys and as values

    def emit(obj, level: int, slots: list | None = None) -> str:
        """obj at nesting level ``level``; with ``slots``, each value below a
        dict is a column: it is appended to slots, with its level, as _SLOT."""
        kind = type(obj)
        if kind not in _EXACT:
            kind = next((k for k in _KINDS if isinstance(obj, k)), None)
        if slots is not None and kind is not dict:
            slots.append((obj, level))
            return _SLOT
        if kind in _SCALARS:
            return _SCALARS[kind](obj)
        if kind is str:
            if obj not in quoted:
                quoted[obj] = json.dumps(obj)
            return quoted[obj]
        if kind is dict:
            items = []
            for key, val in obj.items():
                if not isinstance(key, str):
                    raise TypeError(f"JSON object keys must be strings, got {type(key)}")
                items.append(f"{emit(key, 0)}: {emit(val, level + 1, slots)}")
            return container("{}", items, level)
        if kind is list or kind is tuple:
            return container("[]", [emit(val, level + 1) for val in obj], level)
        if kind is Rows:
            columns: list = []
            template = emit(obj.layout, level + 1, columns).replace("%", "%%").replace(_SLOT, "%s")
            cells = [column(col.tolist() if hasattr(col, "tolist") else col, at) for col, at in columns]
            return container("[]", [template % values for values in zip(*cells)], level)
        raise TypeError(f"cannot serialize {type(obj)} deterministically")

    def column(values, level: int) -> list[str]:
        """Each value as emit writes it, with one formatter for a column of one scalar type."""
        kinds = set(map(type, values))
        write = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        return list(map(write, values)) if write else [emit(value, level) for value in values]

    def container(brackets: str, items: list[str], level: int) -> str:
        """Items one per line, indented one level deeper than the brackets."""
        if not items:
            return brackets
        while len(pads) <= level + 1:
            pads.append(" " * (indent * len(pads)))
        inner = pads[level + 1]
        return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pads[level]}{brackets[1]}"

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
