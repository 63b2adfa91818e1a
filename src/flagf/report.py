"""Deterministic JSON/CSV/text emission.

Floats are rendered with 17 significant digits so every report round-trips
losslessly and reruns with the same configuration are byte-identical.  A
table (a Rows, or a CSV or text sweep) is formatted by fmt_table, its float
columns together as one "%.17g" batch in which each distinct bit pattern is
formatted once, and fill writes its rows with one join.  Files are written
atomically (a uniquely named temp file in the target directory, then a
rename): concurrent writers never share a temp file, and a failed write
leaves neither a partial report nor a stray temp file behind.
"""

from __future__ import annotations

import os
from contextlib import suppress
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np


def fmt_float(x: float) -> str:
    """17-significant-digit decimal form, always spelled as a float."""
    s = format(float(x), ".17g")
    if s[-1] in "nf":  # nan, inf, -inf
        raise ValueError(f"non-finite value in report: {x}")
    return s if "." in s or "e" in s else s + ".0"


def fmt_table(columns: list, bools: tuple[str, str] = ("false", "true")) -> np.ndarray:
    """The cells of a table as a (rows, len(columns)) object array: cell
    [i, j] is element i of column j as json_dumps writes it, or for a bool
    column, ``bools[0]`` for False and ``bools[1]`` for True.

    A column is a 1-D float64 or bool array; any other raises TypeError, and
    columns of unequal length raise ValueError.  The float columns are
    formatted together as one batch in which each distinct bit pattern is
    formatted once and its text indexed back into every cell that holds it
    (bits, not values, so 0.0 and -0.0 stay apart); a non-finite cell raises
    ValueError as fmt_float does.  "%.17g" leaves out both "." and "e" exactly
    where the value is a whole number below 1e17 in magnitude (17 digits tell
    every double apart, so no fraction rounds to a whole number), and those
    cells get ".0".
    """
    for col in columns:
        if not (type(col) is np.ndarray and col.ndim == 1 and col.dtype in (_FLOAT, _BOOL)):
            got = f"a {col.dtype} array of shape {col.shape}" if isinstance(col, np.ndarray) else type(col).__name__
            raise TypeError(f"a Rows column must be a 1-D float64 or bool array, got {got}")
    lengths = [len(col) for col in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns differ in length: {lengths}")
    floats = [col for col in columns if col.dtype == _FLOAT]
    a = np.concatenate(floats + [np.zeros(0)])
    finite = np.isfinite(a)
    if not finite.all():
        raise ValueError(f"non-finite value in report: {float(a[np.argmin(finite)])}")
    bits, inverse = np.unique(a.view(np.int64), return_inverse=True)
    distinct = bits.view(np.float64)
    whole = (distinct == np.trunc(distinct)) & (np.abs(distinct) < 1e17)
    texts = ("".join(_FLOAT_SLOTS[whole.view(np.uint8)].tolist()) % tuple(distinct.tolist())).split("\0")
    texts[-1:] = bools  # in place of the empty tail after the last separator
    rows = lengths[0] if lengths else 0
    by_column = iter(inverse.reshape(len(floats), rows))
    index = np.empty((rows, len(columns)), dtype=np.intp)
    for j, col in enumerate(columns):
        index[:, j] = next(by_column) if col.dtype == _FLOAT else col + len(distinct)
    return np.array(texts, dtype=object)[index]


def fill(pieces: list[str], sep: str, cells: np.ndarray) -> str:
    """One text per row of ``cells``, joined by ``sep``: row i is pieces[0],
    cells[i, 0], pieces[1], ..., cells[i, -1], pieces[-1], all in one join."""
    rows, slots = cells.shape
    parts = np.empty((rows, 2 * slots + 1), dtype=object)
    parts[:, 0] = sep + pieces[0]
    parts[:1, 0] = pieces[0]
    parts[:, 1::2] = cells
    parts[:, 2::2] = pieces[1:]
    return "".join(parts.ravel().tolist())


@dataclass(frozen=True, eq=False)
class Rows:
    """A JSON list of objects of one shape, given by columns.

    ``layout`` is one row: a dict, possibly nested, whose leaves are columns,
    1-D float64 or bool arrays of equal length (json_dumps raises TypeError
    on any other column and ValueError if the lengths differ).  json_dumps
    writes row i as it writes that dict with every column replaced by its
    element i, byte for byte, without building the row dicts.
    """

    layout: dict


_KINDS = (Rows, dict, list, tuple, str, bool, int, float, type(None))
_EXACT = frozenset(_KINDS)
_SCALARS = {float: fmt_float, bool: lambda v: "true" if v else "false", int: str, type(None): lambda v: "null",
            str: encode_basestring_ascii}  # a str as json.dumps writes it, quoted in C
_FLOAT, _BOOL = np.dtype(np.float64), np.dtype(bool)  # the dtypes of a column
_FLOAT_SLOTS = np.array(["%.17g\0", "%.17g.0\0"], dtype=object)  # a float cell of fmt_table, by whether it is whole
_SLOT = "\0"  # stands for a column in a row of Rows; a JSON string writes NUL as \u0000


def json_dumps(obj, indent: int = 2) -> str:
    """Serialize dicts/lists/scalars and Rows with stable layout and float format.

    Dispatch is on the exact type; an instance of a subclass takes the branch
    of its first base in _KINDS.
    """
    pads = [""]

    def emit(obj, level: int, slots: list | None = None) -> str:
        """obj at nesting level ``level``; with ``slots``, each value below a
        dict is a column: it is appended to slots, and written as _SLOT."""
        if slots is not None and not isinstance(obj, dict):
            slots.append(obj)
            return _SLOT
        kind = type(obj)
        if kind not in _EXACT:
            kind = next((k for k in _KINDS if isinstance(obj, k)), None)
        if kind in _SCALARS:
            return _SCALARS[kind](obj)
        if kind is dict:
            items = []
            for key, val in obj.items():
                if not isinstance(key, str):
                    raise TypeError(f"JSON object keys must be strings, got {type(key)}")
                items.append(f"{encode_basestring_ascii(key)}: {emit(val, level + 1, slots)}")
            return container("{}", items, level)
        if kind is list or kind is tuple:
            return container("[]", [emit(val, level + 1) for val in obj], level)
        if kind is Rows:
            columns: list = []
            pieces = emit(obj.layout, level + 1, columns).split(_SLOT)
            body = fill(pieces, f",\n{pad(level + 1)}", fmt_table(columns))
            return container("[]", [body] if body else [], level)  # a row is never empty
        raise TypeError(f"cannot serialize {type(obj)} deterministically")

    def pad(level: int) -> str:
        while len(pads) <= level:
            pads.append(" " * (indent * len(pads)))
        return pads[level]

    def container(brackets: str, items: list[str], level: int) -> str:
        """Items one per line, indented one level deeper than the brackets."""
        if not items:
            return brackets
        inner = pad(level + 1)
        return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pads[level]}{brackets[1]}"

    return emit(obj, 0) + "\n"


def atomic_write_text(path: Path | str, text: str) -> None:
    """Replace ``path`` with ``text``, UTF-8 encoded, in one rename.

    The text is encoded first; the temp file is then created exclusively
    (O_EXCL, mode 0o666, so the umask applies as for a plain write) under a
    random name next to ``path``, written, closed and renamed, and removed
    if the write or the rename fails.
    """
    data = text.encode("utf-8")
    tmp = f"{os.fspath(path)}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        try:
            view = memoryview(data)
            while view:  # one write, unless the system writes less
                view = view[os.write(fd, view) :]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
