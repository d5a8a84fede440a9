"""A deterministic container of named numeric columns.

The file is the magic ``WSVC``, the byte length of the header as a
little-endian ``uint32``, the header, then each column's little-endian
bytes in header order. The header is the compact JSON list of
``{"name", "dtype", "shape"}`` per column (``dtype`` is numpy's dtype
string, such as ``"<f8"``), padded with spaces so the columns start at a
multiple of 8 bytes and a float64 column is read as an aligned view. Equal
columns give equal bytes.
"""

from __future__ import annotations

import json
import struct
from collections.abc import Mapping, Sequence
from pathlib import Path

import numpy as np

_MAGIC = b"WSVC"
_LENGTH = struct.Struct("<I")
_START = len(_MAGIC) + _LENGTH.size


def write_columns(
    path: str | Path, columns: Mapping[str, np.ndarray | Sequence[np.ndarray]]
) -> None:
    """Write ``columns`` (boolean, integer or float arrays of any shape), in mapping order.

    A column given as a list or tuple is a sequence of row blocks, arrays of
    one dtype and one row shape. They are written in turn, so the file is the
    one their ``np.concatenate`` would give, and that copy is never built.
    """
    specs, blocks = [], []
    for name, column in columns.items():
        stacked = isinstance(column, (list, tuple))
        parts = [np.asarray(part) for part in column] if stacked else [np.asarray(column)]
        if not parts:
            raise ValueError(f"column {name!r} has no blocks")
        dtype, shape = parts[0].dtype, parts[0].shape
        if dtype.kind not in "biuf":
            raise ValueError(f"column {name!r} has dtype {dtype}, not a numeric dtype")
        if stacked:
            if any(part.ndim == 0 or part.dtype != dtype or part.shape[1:] != shape[1:]
                   for part in parts):
                raise ValueError(f"the blocks of column {name!r} are not row blocks "
                                 "of one dtype and one row shape")
            shape = (sum(len(part) for part in parts), *shape[1:])
        dtype = dtype.newbyteorder("<")
        specs.append({"name": name, "dtype": dtype.str, "shape": list(shape)})
        blocks.extend(part.astype(dtype, order="C", copy=False) for part in parts)
    header = json.dumps(specs, separators=(",", ":")).encode()
    header += b" " * (-(_START + len(header)) % 8)
    with open(path, "wb") as fh:
        fh.write(_MAGIC + _LENGTH.pack(len(header)) + header)
        for block in blocks:
            fh.write(block)


def read_columns(path: str | Path) -> dict[str, np.ndarray]:
    """The file's columns, by name in file order, as read-only views of its bytes."""
    raw = Path(path).read_bytes()
    # A file cut inside the magic is truncated, not foreign.
    if not _MAGIC.startswith(raw[: len(_MAGIC)]):
        raise ValueError(f"{path} is not a column file")
    end = _START + _LENGTH.unpack_from(raw, len(_MAGIC))[0] if len(raw) >= _START else None
    if end is None or len(raw) < end:
        raise ValueError(f"truncated column file {path}: {len(raw)} bytes, shorter than its header")
    try:
        specs = [(spec["name"], np.dtype(spec["dtype"]), tuple(spec["shape"]))
                 for spec in json.loads(raw[_START:end])]
    except (ValueError, TypeError, KeyError) as exc:
        raise ValueError(f"column file {path} has an unreadable header: {exc}") from None
    columns, offset = {}, end
    for name, dtype, shape in specs:
        if dtype.kind not in "biuf" or dtype.str != dtype.newbyteorder("<").str:
            raise ValueError(f"column {name!r} of {path} has dtype {dtype.str}, "
                             "not a little-endian numeric dtype")
        if not all(isinstance(size, int) and size >= 0 for size in shape):
            raise ValueError(f"column {name!r} of {path} has shape {list(shape)}")
        count = int(np.prod(shape, dtype=np.int64))
        if offset + count * dtype.itemsize > len(raw):
            raise ValueError(f"truncated column file {path}: {len(raw)} bytes, "
                             f"its column {name!r} ends at byte {offset + count * dtype.itemsize}")
        columns[name] = np.frombuffer(raw, dtype=dtype, count=count, offset=offset).reshape(shape)
        offset += count * dtype.itemsize
    if offset != len(raw):
        raise ValueError(f"column file {path} holds {len(raw)} bytes, but its columns end at {offset}")
    return columns
