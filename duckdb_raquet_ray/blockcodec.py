"""Arrow column <-> self-contained encoded blob.

The coded unit mirrors the reference's blob-per-(block, band) model
(/root/reference/src/band_decoder.cpp:185-224: decode needs only the blob +
the metadata descriptor): here the unit is one *column of one partition*,
stored as a single ``binary`` value plus a JSON descriptor. Decode requires
only (blob, descriptor) — partitions stay embarrassingly parallel.

Type plane: every fixed-width Arrow value maps losslessly onto a uint64
bit-pattern plane (the analogue of the reference's decode-to-double compute
plane, /root/reference/src/include/band_decoder.hpp:116-175, except ours is
exact — no float detour for ints). Strings become (lengths, byte-buffer);
lists become (lengths, recursively-encoded child).

Null semantics: unlike the reference's sentinel ``nodata``
(/root/reference/src/include/raquet_metadata.hpp:145-154) we have real Arrow
validity bitmaps; they are preserved bit-exactly as an LSB-ordered bitmap
section in the blob.

Blob layout: ``concat(sections)`` with section byte-lengths recorded in the
descriptor; section 0 is the validity bitmap when null_count > 0.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .codecs import general, intcodec, rowcodec
from .codecs import fsst as fsst_mod

U64 = np.uint64

# ---------------------------------------------------------------------------
# Arrow type <-> string (descriptor round-trip)
# ---------------------------------------------------------------------------

_PRIMITIVES = {
    "bool": pa.bool_(),
    "int8": pa.int8(),
    "int16": pa.int16(),
    "int32": pa.int32(),
    "int64": pa.int64(),
    "uint8": pa.uint8(),
    "uint16": pa.uint16(),
    "uint32": pa.uint32(),
    "uint64": pa.uint64(),
    "halffloat": pa.float16(),
    "float": pa.float32(),
    "double": pa.float64(),
    "date32[day]": pa.date32(),
    "date64[ms]": pa.date64(),
}


def type_to_str(t: pa.DataType) -> str:
    return str(t)


def str_to_type(s: str) -> pa.DataType:
    if s in _PRIMITIVES:
        return _PRIMITIVES[s]
    if s.startswith("timestamp["):
        inner = s[len("timestamp[") : -1]
        if "," in inner:
            unit, tz = inner.split(",", 1)
            tz = tz.strip()
            if tz.startswith("tz="):
                tz = tz[3:]
            return pa.timestamp(unit.strip(), tz=tz)
        return pa.timestamp(inner)
    if s in ("string", "utf8"):
        return pa.string()
    if s in ("large_string", "large_utf8"):
        return pa.large_string()
    if s == "binary":
        return pa.binary()
    if s == "large_binary":
        return pa.large_binary()
    raise ValueError(f"unsupported arrow type string {s!r}")


# ---------------------------------------------------------------------------
# uint64 bit-pattern plane
# ---------------------------------------------------------------------------


_UNSIGNED_OF_WIDTH = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def to_plane(vals: np.ndarray) -> tuple[np.ndarray, bool]:
    """numpy values -> (native-width unsigned bit patterns, signed?).

    Lossless and, for ints/floats/timestamps, ZERO-COPY (a reinterpreting
    view): the plane keeps the column's own width so every later pass moves
    the minimum number of bytes (encode is memory-bandwidth-bound at high
    parallelism — widening int32 tokens to a uint64 plane doubled traffic).
    """
    dt = vals.dtype
    u = _UNSIGNED_OF_WIDTH.get(dt.itemsize, np.uint64)
    if dt.kind == "i":
        return np.ascontiguousarray(vals).view(u), True
    if dt.kind == "b":
        return vals.astype(np.uint8), False
    if dt.kind == "u":
        return vals, False
    if dt.kind == "f":
        return np.ascontiguousarray(vals).view(u), False
    if dt.kind == "M":  # datetime64 is 8-byte
        return np.ascontiguousarray(vals).view(np.uint64), True
    raise ValueError(f"unsupported numpy dtype {dt}")


def from_plane(plane: np.ndarray, np_dtype: np.dtype) -> np.ndarray:
    """Inverse of :func:`to_plane`; ``plane`` arrives at the width recorded
    in the codec descriptor, which equals the original column width."""
    dt = np.dtype(np_dtype)
    if dt.kind == "b":
        return plane.astype(np.bool_)
    if dt.itemsize != plane.dtype.itemsize:  # defensive: legacy u64 planes
        if dt.kind == "i":
            return plane.view(_SIGNED_OF_WIDTH_BC[plane.dtype.itemsize]).astype(dt)
        if dt.kind in ("u",):
            return plane.astype(dt)
        if dt.kind == "f":
            return plane.astype(_UNSIGNED_OF_WIDTH[dt.itemsize]).view(dt)
        if dt.kind == "M":
            return plane.view(np.int64).astype(np.int64).view(dt)
        raise ValueError(f"unsupported numpy dtype {dt}")
    return plane.view(dt)


_SIGNED_OF_WIDTH_BC = {1: np.int8, 2: np.int16, 4: np.int32, 8: np.int64}


_NP_OF_ARROW = {
    "bool": np.bool_,
    "int8": np.int8,
    "int16": np.int16,
    "int32": np.int32,
    "int64": np.int64,
    "uint8": np.uint8,
    "uint16": np.uint16,
    "uint32": np.uint32,
    "uint64": np.uint64,
    "halffloat": np.float16,
    "float": np.float32,
    "double": np.float64,
    "date32[day]": np.int32,
    "date64[ms]": np.int64,
}


def _np_dtype_of(t: pa.DataType) -> np.dtype:
    s = str(t)
    if s.startswith("timestamp["):
        unit = s[len("timestamp[") : -1].split(",")[0]
        return np.dtype(f"datetime64[{unit}]")
    return np.dtype(_NP_OF_ARROW[s])


def one_chunk(col: pa.Array | pa.ChunkedArray) -> pa.Array:
    """A column as one Array. A one-chunk ChunkedArray (what a Parquet row
    group read gives) returns its chunk zero-copy, offset and all:
    ``combine_chunks`` copies every buffer even then. Several chunks are
    concatenated; an Array passes through."""
    if not isinstance(col, pa.ChunkedArray):
        return col
    return col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()


# ---------------------------------------------------------------------------
# validity bitmap (Arrow LSB bit order, so it can feed from_buffers directly)
# ---------------------------------------------------------------------------


def _validity_section(arr: pa.Array) -> tuple[list[bytes], np.ndarray | None]:
    if arr.null_count == 0:
        return [], None
    valid = np.asarray(arr.is_valid())
    return [np.packbits(valid, bitorder="little").tobytes()], valid


def _read_validity(blob: bytes, off: int, size: int, n: int) -> tuple[np.ndarray, int]:
    bits = np.unpackbits(
        np.frombuffer(blob, dtype=np.uint8, count=size, offset=off),
        count=n,
        bitorder="little",
    )
    return bits.astype(bool), off + size


def _validity_prefix(blob: bytes, desc: dict) -> tuple[np.ndarray | None, int, int]:
    """Consume the optional leading validity-bitmap section of a blob ->
    (valid bool array or None, byte offset past it, next section index).
    One implementation for every decode path — the blob layout lives here."""
    if desc["null_count"] > 0:
        valid, off = _read_validity(blob, 0, desc["sections"][0], desc["n"])
        return valid, off, 1
    return None, 0, 0


def _validity_buffer(valid: np.ndarray | None) -> tuple[pa.Buffer | None, int]:
    """(arrow validity buffer or None, null count) for from_buffers."""
    if valid is None:
        return None, 0
    return pa.py_buffer(np.packbits(valid, bitorder="little").tobytes()), int((~valid).sum())


# ---------------------------------------------------------------------------
# primitive (fixed-width) columns
# ---------------------------------------------------------------------------

PLANE_CODECS = ("for_bitpack", "rle", "dict", "for_bss", "delta_bitpack")


def _fill_nulls_primitive(arr: pa.Array) -> pa.Array:
    if arr.null_count == 0:
        return arr
    t = arr.type
    if pa.types.is_float16(t):
        # arrow has no fill_null/coalesce kernel for halffloat: fill in numpy
        valid = np.asarray(arr.is_valid())
        vals = arr.to_numpy(zero_copy_only=False)
        filled = np.where(valid, vals, np.float16(0.0)).astype(np.float16)
        return pa.array(filled, type=t)
    if pa.types.is_timestamp(t):
        zero = pa.scalar(0, type=t)
    elif pa.types.is_date(t):
        zero = pa.scalar(0, type=pa.int32() if pa.types.is_date32(t) else pa.int64()).cast(t)
    elif pa.types.is_boolean(t):
        zero = pa.scalar(False, type=t)
    else:
        zero = pa.scalar(0, type=t)
    return pc.fill_null(arr, zero)


def _primitive_np(arr: pa.Array) -> np.ndarray:
    return _fill_nulls_primitive(arr).to_numpy(zero_copy_only=False)


def encode_primitive(arr: pa.Array, codec: str) -> tuple[bytes, dict]:
    n = len(arr)
    sections, valid = _validity_section(arr)
    desc: dict = {
        "kind": "primitive",
        "type": type_to_str(arr.type),
        "n": n,
        "null_count": arr.null_count,
        "codec": codec,
    }
    vals = _primitive_np(arr)
    # normalize to the canonical numpy dtype the decoder will read back:
    # date32 arrives from arrow as datetime64[D] (8 bytes) but decodes as
    # int32 days — a width mismatch that silently corrupted plain/general
    cdt = _np_dtype_of(arr.type)
    if vals.dtype != cdt:
        vals = vals.astype(cdt)
    if codec in PLANE_CODECS:
        plane, signed = to_plane(vals)
        blob, cdesc = intcodec.encode_plane(plane, codec, signed)
        desc["plane"] = cdesc
        sections.append(blob)
    elif codec == "plain":
        sections.append(np.ascontiguousarray(vals).tobytes())
    elif codec == "general":
        raw = np.ascontiguousarray(vals).tobytes()
        desc["general"] = general.DEFAULT_GENERAL
        desc["raw_size"] = len(raw)
        sections.append(general.compress(raw))
    else:
        raise ValueError(f"unknown primitive codec {codec!r}")
    desc["sections"] = [len(s) for s in sections]
    return b"".join(sections), desc


def decode_primitive(blob: bytes, desc: dict) -> pa.Array:
    t = str_to_type(desc["type"])
    np_dtype = _np_dtype_of(t)
    n = desc["n"]
    valid, off, si = _validity_prefix(blob, desc)
    size = desc["sections"][si]
    body = blob[off : off + size]
    codec = desc["codec"]
    if codec in PLANE_CODECS:
        plane = intcodec.decode_plane(body, desc["plane"])
        vals = from_plane(plane, np_dtype)
    elif codec == "plain":
        vals = np.frombuffer(body, dtype=np_dtype, count=n)
    elif codec == "general":
        raw = general.decompress(body, desc["general"], desc["raw_size"])
        vals = np.frombuffer(raw, dtype=np_dtype, count=n)
    else:
        raise ValueError(f"unknown primitive codec {codec!r}")
    mask = None if valid is None else ~valid
    return pa.array(vals, type=t, mask=mask)


# ---------------------------------------------------------------------------
# string / binary columns
# ---------------------------------------------------------------------------


def _string_parts(arr: pa.Array) -> tuple[np.ndarray, bytes]:
    """-> (lengths int64 with 0 at nulls, concatenated data bytes)."""
    arr = one_chunk(
        pc.fill_null(arr, b"" if pa.types.is_binary(arr.type) or pa.types.is_large_binary(arr.type) else "")
    )
    big = pa.types.is_large_string(arr.type) or pa.types.is_large_binary(arr.type)
    off_dt = np.int64 if big else np.int32
    n = len(arr)
    buffers = arr.buffers()
    offs = np.frombuffer(buffers[1], dtype=off_dt)[arr.offset : arr.offset + n + 1]
    data_buf = buffers[2]
    # zero-copy view into the arrow data buffer — the bytes flow into the
    # compressor without ever being copied into a python bytes object
    data = memoryview(data_buf).toreadonly()[offs[0] : offs[-1]] if data_buf is not None else b""
    lengths = np.diff(offs.astype(np.int64))
    return lengths, data


def _encode_lengths(lengths: np.ndarray) -> tuple[bytes, dict]:
    plane = lengths.astype(U64)
    # RLE wins when lengths repeat heavily; cheap exact check
    runs = len(intcodec.run_starts(plane))
    if runs * 2 < len(plane) // 4:
        return intcodec.encode_plane(plane, "rle", False)
    return intcodec.encode_plane(plane, "for_bitpack", False)


def encode_string(arr: pa.Array, codec: str) -> tuple[bytes, dict]:
    n = len(arr)
    sections, _ = _validity_section(arr)
    desc: dict = {
        "kind": "string",
        "type": type_to_str(arr.type),
        "n": n,
        "null_count": arr.null_count,
        "codec": codec,
    }
    if codec == "dict":
        darr = pc.dictionary_encode(one_chunk(arr))
        indices = darr.indices
        idx_np = pc.fill_null(indices, 0).to_numpy(zero_copy_only=False).astype(np.int64)
        plane = idx_np.astype(U64)
        idx_blob, idx_desc = intcodec.encode_plane(plane, "for_bitpack", False)
        dict_blob, dict_desc = encode_string(darr.dictionary.cast(arr.type), "auto_bytes")
        desc["indices"] = idx_desc
        desc["dictionary"] = dict_desc
        sections += [idx_blob, dict_blob]
    else:
        lengths, data = _string_parts(arr)
        len_blob, len_desc = _encode_lengths(lengths)
        desc["lengths"] = len_desc
        trial_z = None
        if codec == "auto_bytes":
            # deterministic small chooser for dictionary payloads
            trial_z = general.compress(data)
            codec = "general" if len(trial_z) < len(data) else "plain"
            desc["codec"] = codec
        if codec == "plain":
            body = data
        elif codec == "general":
            desc["general"] = general.DEFAULT_GENERAL
            desc["raw_size"] = len(data)
            # reuse the auto_bytes trial compression
            body = general.compress(data) if trial_z is None else trial_z
        elif codec == "fsst":
            body, desc["fsst"] = fsst_mod.encode_bytes(data)
        else:
            raise ValueError(f"unknown string codec {codec!r}")
        sections += [len_blob, body]
    desc["sections"] = [len(s) for s in sections]
    return b"".join(sections), desc


def _rebuild_string(t: pa.DataType, n: int, lengths: np.ndarray, data: bytes, valid: np.ndarray | None) -> pa.Array:
    big = pa.types.is_large_string(t) or pa.types.is_large_binary(t)
    off_dt = np.int64 if big else np.int32
    offsets = np.zeros(n + 1, dtype=off_dt)
    np.cumsum(lengths, out=offsets[1:])
    validity_buf, null_count = _validity_buffer(valid)
    return pa.Array.from_buffers(
        t,
        n,
        [validity_buf, pa.py_buffer(offsets.tobytes()), pa.py_buffer(data)],
        null_count=null_count,
    )


def decode_string(blob: bytes, desc: dict) -> pa.Array:
    t = str_to_type(desc["type"])
    n = desc["n"]
    valid, off, si = _validity_prefix(blob, desc)
    codec = desc["codec"]
    if codec == "dict":
        s_idx = desc["sections"][si]
        s_dict = desc["sections"][si + 1]
        plane = intcodec.decode_plane(blob[off : off + s_idx], desc["indices"])
        dictionary = decode_string(blob[off + s_idx : off + s_idx + s_dict], desc["dictionary"])
        if len(dictionary) == 0:
            return pa.nulls(n, type=t)
        idx = plane.astype(np.int64)
        out = dictionary.take(pa.array(idx))
        if valid is not None:
            mask = pa.array(valid)
            out = pc.if_else(mask, out, pa.scalar(None, type=t))
        return out.cast(t) if out.type != t else out
    s_len = desc["sections"][si]
    s_body = desc["sections"][si + 1]
    lengths = intcodec.decode_plane(blob[off : off + s_len], desc["lengths"]).astype(np.int64)
    body = blob[off + s_len : off + s_len + s_body]
    if codec == "plain":
        data = body
    elif codec == "general":
        data = general.decompress(body, desc["general"], desc["raw_size"])
    elif codec == "fsst":
        data = fsst_mod.decode_bytes(body, desc["fsst"])
    else:
        raise ValueError(f"unknown string codec {codec!r}")
    return _rebuild_string(t, n, lengths, data, valid)


# ---------------------------------------------------------------------------
# list columns (lengths + recursively encoded child)
# ---------------------------------------------------------------------------


def _encode_child_for_rows(
    child: pa.Array, lengths: np.ndarray, try_dict: bool = True
) -> tuple[list[bytes], dict]:
    """Child encoding with per-row structure (codecs/rowcodec.py). Only
    valid inside a list blob: decode needs the row lengths the list codec
    stores, so the descriptor kind is ``row_child`` and only
    :func:`decode_list` dispatches it. Returns the child's sections
    unjoined: :func:`encode_list` joins them once with its own."""
    vals = _primitive_np(child)
    cdt = _np_dtype_of(child.type)
    if vals.dtype != cdt:
        vals = vals.astype(cdt)
    plane, signed = to_plane(vals)
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    secs, rdesc = rowcodec.encode_child(plane, offsets, signed, try_dict=try_dict)
    desc = {
        "kind": "row_child",
        "type": type_to_str(child.type),
        "n": len(child),
        "null_count": 0,
        "codec": "for_rows",
        "plane": rdesc,
    }
    return secs, desc


def encode_list(arr: pa.Array, child_choice: dict) -> tuple[bytes, dict]:
    arr = one_chunk(arr)
    n = len(arr)
    sections, _ = _validity_section(arr)
    lengths = pc.fill_null(pc.list_value_length(arr), 0).to_numpy(zero_copy_only=False).astype(np.int64)
    child = arr.flatten()  # skips null slots' ranges
    len_blob, len_desc = _encode_lengths(lengths)
    if child_choice.get("codec") == "for_rows" and child.null_count == 0:
        child_secs, child_desc = _encode_child_for_rows(
            child, lengths, try_dict=child_choice.get("dict", True)
        )
    else:
        child_blob, child_desc = encode_array(child, child_choice)
        child_secs = [child_blob]
    field = arr.type.value_field
    desc = {
        "kind": "list",
        "type": "list",
        "large": pa.types.is_large_list(arr.type),
        "field_name": field.name,
        "field_nullable": field.nullable,
        "n": n,
        "null_count": arr.null_count,
        "lengths": len_desc,
        "child": child_desc,
    }
    # the child is one section of the list blob, however many it has
    desc["sections"] = [len(s) for s in sections] + [
        len(len_blob), sum(len(s) for s in child_secs)
    ]
    return b"".join(sections + [len_blob] + child_secs), desc


def decode_list(blob: bytes, desc: dict) -> pa.Array:
    n = desc["n"]
    valid, off, si = _validity_prefix(blob, desc)
    s_len = desc["sections"][si]
    s_child = desc["sections"][si + 1]
    lengths = intcodec.decode_plane(blob[off : off + s_len], desc["lengths"]).astype(np.int64)
    cdesc = desc["child"]
    if cdesc.get("kind") == "row_child":
        plane = rowcodec.decode_child(
            blob[off + s_len : off + s_len + s_child], cdesc["plane"], lengths
        )
        child = pa.array(from_plane(plane, _np_dtype_of(str_to_type(cdesc["type"]))),
                         type=str_to_type(cdesc["type"]))
    else:
        child = decode_array(blob[off + s_len : off + s_len + s_child], cdesc)
    field = pa.field(desc["field_name"], child.type, nullable=desc["field_nullable"])
    list_type = pa.large_list(field) if desc.get("large") else pa.list_(field)
    off_dt = np.int64 if desc.get("large") else np.int32
    offsets = np.zeros(n + 1, dtype=off_dt)
    np.cumsum(lengths, out=offsets[1:])
    validity_buf, null_count = _validity_buffer(valid)
    return pa.Array.from_buffers(
        list_type,
        n,
        [validity_buf, pa.py_buffer(offsets.tobytes())],
        null_count=null_count,
        children=[child],
    )


def list_token_stats(blob: bytes, desc: dict) -> dict | None:
    """Aggregate pushdown over an ENCODED list column: per-row
    (count, sum, min, max) int64 without materializing the child plane —
    delegates to rowcodec.stats_child (see its docstring for the no-wrap
    gate). Returns None whenever the fast path does not apply (nulls
    anywhere, non-row_child child, non-for_rows codec, gate failure);
    callers then decode fully and use transforms.token_stats."""
    if desc.get("null_count", 0) > 0:
        return None
    cdesc = desc["child"]
    if cdesc.get("kind") != "row_child" or cdesc.get("null_count", 0) > 0:
        return None
    if cdesc.get("plane", {}).get("codec") != "for_rows":
        return None
    _, off, si = _validity_prefix(blob, desc)
    s_len = desc["sections"][si]
    s_child = desc["sections"][si + 1]
    lengths = intcodec.decode_plane(blob[off : off + s_len], desc["lengths"]).astype(np.int64)
    res = rowcodec.stats_child(
        blob[off + s_len : off + s_len + s_child], cdesc["plane"], lengths
    )
    if res is None:
        return None
    sums, mins, maxs = res
    return {"count": lengths, "sum": sums, "min": mins, "max": maxs}


# ---------------------------------------------------------------------------
# top-level dispatch
# ---------------------------------------------------------------------------


def encode_array(arr: pa.Array | pa.ChunkedArray, choice: dict) -> tuple[bytes, dict]:
    """Encode one column with the planner's ``choice``.

    choice = {"codec": name, ...} for primitives/strings;
             {"codec": "list", "child": <choice>} for lists.
    """
    arr = one_chunk(arr)
    t = arr.type
    if pa.types.is_list(t) or pa.types.is_large_list(t):
        return encode_list(arr, choice.get("child", {"codec": "plain"}))
    if pa.types.is_string(t) or pa.types.is_large_string(t) or pa.types.is_binary(t) or pa.types.is_large_binary(t):
        return encode_string(arr, choice["codec"])
    return encode_primitive(arr, choice["codec"])


def decode_array(blob: bytes, desc: dict) -> pa.Array:
    kind = desc["kind"]
    if kind == "primitive":
        return decode_primitive(blob, desc)
    if kind == "string":
        return decode_string(blob, desc)
    if kind == "list":
        return decode_list(blob, desc)
    raise ValueError(f"unknown blob kind {kind!r}")
