"""Binary checkpoint archive for named parameter arrays.

Layout (all little-endian): magic string, u32 record count, then per record
u32 name length, UTF-8 name, u8 dtype tag (0 = float64), u32 ndim, u32 dims,
raw row-major float64 values. Writing the same parameters twice yields
byte-identical files.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct

import numpy as np

MAGIC = b"VCMRCKPT1"
_DTYPE_F64 = 0


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, arrays):
    """arrays: insertion-ordered mapping name -> ndarray.

    The archive is written to a temporary file in `path`'s directory and then
    renamed onto `path`, so a write that fails part way leaves an earlier file
    at `path` as it was. The temporary file is removed on any failure, and an
    OSError raises CheckpointError naming `path`."""
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:  # not mkstemp, whose file mode would be 0600
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(arrays)))
            for name, arr in arrays.items():
                # note: np.ascontiguousarray would promote 0-d arrays to 1-d
                data = np.asarray(arr, dtype="<f8", order="C")
                name_b = name.encode("utf-8")
                fh.write(struct.pack("<I", len(name_b)))
                fh.write(name_b)
                fh.write(struct.pack("<BI", _DTYPE_F64, data.ndim))
                fh.write(struct.pack(f"<{data.ndim}I", *data.shape))
                fh.write(data.tobytes())
        os.replace(tmp, path)
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path}: {exc.strerror or exc}") from exc
    finally:
        with contextlib.suppress(OSError):  # gone after the rename, or never made
            os.remove(tmp)


def load_checkpoint(path):
    """Returns an insertion-ordered dict name -> float64 ndarray. Any file
    that is not a well-formed archive of finite values raises CheckpointError."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc.strerror}") from exc
    if not blob.startswith(MAGIC):
        raise CheckpointError(f"{path}: bad magic, not a checkpoint archive")
    off = len(MAGIC)

    def unpack(fmt):
        nonlocal off
        size = struct.calcsize(fmt)
        if off + size > len(blob):
            raise CheckpointError(f"{path}: truncated archive")
        vals = struct.unpack_from(fmt, blob, off)
        off += size
        return vals

    (count,) = unpack("<I")
    out = {}
    for _ in range(count):
        (name_len,) = unpack("<I")
        try:
            name = blob[off : off + name_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: record name is not UTF-8 ({exc.reason})") from exc
        off += name_len
        dtype_tag, ndim = unpack("<BI")
        if dtype_tag != _DTYPE_F64:
            raise CheckpointError(f"{path}: unknown dtype tag {dtype_tag} for {name}")
        shape = unpack(f"<{ndim}I")
        end = off + 8 * math.prod(shape)
        if end > len(blob):
            raise CheckpointError(f"{path}: truncated values for {name}")
        try:
            arr = np.frombuffer(blob[off:end], dtype="<f8").astype(np.float64).reshape(shape)
        except ValueError as exc:  # more dimensions than NumPy allows
            raise CheckpointError(f"{path}: record {name} has {ndim} dimensions") from exc
        if not np.isfinite(arr).all():  # training never saves one, so the file is damaged
            raise CheckpointError(f"{path}: record {name} holds a non-finite value")
        off = end
        if name in out:
            raise CheckpointError(f"{path}: duplicate record {name}")
        out[name] = arr
    if off != len(blob):
        raise CheckpointError(f"{path}: trailing bytes after last record")
    return out


def split_namespace(arrays, prefix):
    """Records under `prefix.` with the prefix stripped."""
    head = prefix + "."
    return {name[len(head) :]: arr for name, arr in arrays.items() if name.startswith(head)}


def merge_namespaces(**groups):
    """Combine per-model dicts into one archive mapping with prefixes."""
    out = {}
    for prefix, arrays in groups.items():
        for name, arr in arrays.items():
            out[f"{prefix}.{name}"] = arr
    return out
