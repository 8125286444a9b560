"""Integer-plane lightweight codecs: frame-of-reference + bit-packing, RLE, dict.

All codecs operate on a canonical *plane*: an unsigned numpy array of bit
patterns at the column's NATIVE width (uint8/16/32/64). Fixed-width Arrow
values (ints of any width/signedness, floats, timestamps, bools) are mapped
onto this plane losslessly — and usually zero-copy, a reinterpreting view —
by ``blockcodec.to_plane`` / ``from_plane``; the codecs never need to know
the original logical type. Keeping the native width matters at scale: a
uint64 compute plane would double the memory traffic of every pass over an
int32 token stream, and encode is memory-bandwidth-bound at high
parallelism.

Frame-of-reference uses *modular* arithmetic in the plane's width (two's-
complement wraparound), so a signed range that straddles zero still
produces small deltas: ``delta = (pattern - pattern_of_min) mod 2**(8w)``.

Design derives from the reference's dtype-width-aware blob coding
(/root/reference/src/include/band_decoder.hpp:46-65 `dtype_size`,
/root/reference/src/band_encoder.cpp:48-145 clamp/round re-encode) but the
codecs themselves are the standard lightweight columnar suite (FOR,
bit-packing, RLE, dictionary) from the public literature (Zukowski et al.,
"Super-Scalar RAM-CPU Cache Compression", ICDE 2006).

Every encoder returns ``(sections, desc)`` where ``sections`` is a list of
``bytes`` and ``desc`` a JSON-able descriptor; ``decode_plane`` consumes the
concatenated blob plus the descriptor and returns the exact plane (dtype
from the descriptor's ``pw`` plane-width field). Round-trip is bit-exact
for every input (property-tested). Blob BYTES are identical to the former
uint64-plane implementation; only the descriptor gained ``pw`` and stores
``base`` as the plane-width pattern.
"""

from __future__ import annotations

import numpy as np
import pyarrow as _pa

from . import general

U64 = np.uint64

_BYTE_WIDTH_DTYPE = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}
_SIGNED_OF_WIDTH = {1: np.int8, 2: np.int16, 4: np.int32, 8: np.int64}


def plane_dtype(desc: dict) -> np.dtype:
    return np.dtype(_BYTE_WIDTH_DTYPE[desc.get("pw", 8)])


# ---------------------------------------------------------------------------
# bit-packing kernel (vectorized via np.packbits over a (n, width) bit matrix)
# ---------------------------------------------------------------------------


def bit_width(max_delta: int) -> int:
    """Number of bits needed to represent max_delta (0 -> width 0)."""
    return int(max_delta).bit_length()


def pack_bits(deltas: np.ndarray, width: int) -> bytes:
    """Pack ``deltas`` (unsigned, all < 2**width) into a big-endian-bit stream."""
    n = len(deltas)
    if width == 0 or n == 0:
        return b""
    one = deltas.dtype.type(1)
    bits = np.empty((n, width), dtype=np.uint8)
    for b in range(width):
        shift = deltas.dtype.type(width - 1 - b)
        bits[:, b] = (deltas >> shift) & one
    return np.packbits(bits).tobytes()


def unpack_bits(data: bytes, n: int, width: int, dtype=U64) -> np.ndarray:
    """Inverse of :func:`pack_bits` -> unsigned array of length n."""
    dtype = np.dtype(dtype)
    if width == 0 or n == 0:
        return np.zeros(n, dtype=dtype)
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=n * width)
    bits = bits.reshape(n, width)
    out = np.zeros(n, dtype=dtype)
    for b in range(width):
        shift = dtype.type(width - 1 - b)
        out |= bits[:, b].astype(dtype) << shift
    return out


# ---------------------------------------------------------------------------
# frame-of-reference + bit-pack
# ---------------------------------------------------------------------------


def for_minmax(plane: np.ndarray, signed: bool) -> tuple[int, int]:
    """(base_pattern_in_width, max modular delta) with base = logical min.

    One fused arrow min_max pass, NO materialized delta array — at 32-way
    parallelism the encode path is memory-bandwidth-bound and a full-size
    intermediate costs more than the arithmetic."""
    if len(plane) == 0:
        return 0, 0
    w = plane.dtype.itemsize
    view = plane.view(_SIGNED_OF_WIDTH[w]) if signed else plane
    try:  # arrow's fused min_max: ONE pass instead of two (SIMD, zero-copy)
        import pyarrow.compute as pc

        mm = pc.min_max(_pa.array(view))
        lo, hi = mm["min"].as_py(), mm["max"].as_py()
    except Exception:
        lo, hi = int(view.min()), int(view.max())
    base = lo & ((1 << (8 * w)) - 1) if signed else lo
    return base, hi - lo


def narrow_deltas(plane: np.ndarray, base: int, byte_w: int) -> np.ndarray:
    """FOR deltas computed directly at the target byte width (one read of
    the plane, one narrow write): (a - b) mod 2**(8*byte_w) equals the true
    delta whenever max delta < 2**(8*byte_w), which the caller guarantees."""
    dt = _BYTE_WIDTH_DTYPE[byte_w]
    return np.subtract(plane, plane.dtype.type(base), dtype=dt, casting="same_kind")


def encode_for_bitpack(plane: np.ndarray, signed: bool) -> tuple[list[bytes], dict]:
    base, maxd = for_minmax(plane, signed)
    width = bit_width(maxd)
    deltas = narrow_deltas(plane, base, _byte_width(maxd)) if len(plane) else plane
    data = pack_bits(deltas, width)
    desc = {
        "codec": "for_bitpack",
        "n": len(plane),
        "base": base,
        "width": width,
        "pw": plane.dtype.itemsize,
    }
    return [data], desc


def decode_for_bitpack(blob: bytes, desc: dict) -> np.ndarray:
    dt = plane_dtype(desc)
    deltas = unpack_bits(blob, desc["n"], desc["width"], dt)
    return deltas + dt.type(desc["base"])


# ---------------------------------------------------------------------------
# run-length encoding (values and run-lengths each FOR-bitpacked)
# ---------------------------------------------------------------------------


def run_starts(plane: np.ndarray) -> np.ndarray:
    """Indices where a new run starts (always includes 0 for non-empty)."""
    n = len(plane)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    change = np.flatnonzero(plane[1:] != plane[:-1])
    return np.concatenate(([0], change + 1))


def encode_rle(plane: np.ndarray, signed: bool) -> tuple[list[bytes], dict]:
    n = len(plane)
    starts = run_starts(plane)
    values = plane[starts] if n else plane
    lengths = (
        np.diff(np.concatenate((starts, [n]))).astype(U64) if n else np.zeros(0, dtype=U64)
    )
    vsec, vdesc = encode_for_bitpack(values, signed)
    lsec, ldesc = encode_for_bitpack(lengths, False)
    desc = {
        "codec": "rle",
        "n": n,
        "runs": len(starts),
        "values": vdesc,
        "lengths": ldesc,
        "pw": plane.dtype.itemsize,
        "sections": [len(vsec[0]), len(lsec[0])],
    }
    return [vsec[0], lsec[0]], desc


def decode_rle(blob: bytes, desc: dict) -> np.ndarray:
    s0, s1 = desc["sections"]
    values = decode_for_bitpack(blob[:s0], desc["values"])
    lengths = decode_for_bitpack(blob[s0 : s0 + s1], desc["lengths"])
    return np.repeat(values, lengths.astype(np.int64))


# ---------------------------------------------------------------------------
# dictionary (sorted-unique deltas + packed codes)
# ---------------------------------------------------------------------------


def encode_dict(plane: np.ndarray, signed: bool) -> tuple[list[bytes], dict]:
    uniq, inv = np.unique(plane, return_inverse=True)
    # delta-encode the sorted unique patterns, then bit-pack
    usec, udesc = encode_for_bitpack(uniq, signed)
    codes = inv.astype(U64)
    width = bit_width(max(len(uniq) - 1, 0))
    csec = pack_bits(codes, width)
    desc = {
        "codec": "dict",
        "n": len(plane),
        "card": len(uniq),
        "uniq": udesc,
        "code_width": width,
        "pw": plane.dtype.itemsize,
        "sections": [len(usec[0]), len(csec)],
    }
    return [usec[0], csec], desc


def decode_dict(blob: bytes, desc: dict) -> np.ndarray:
    s0, s1 = desc["sections"]
    uniq = decode_for_bitpack(blob[:s0], desc["uniq"])
    codes = unpack_bits(blob[s0 : s0 + s1], desc["n"], desc["code_width"])
    if len(uniq) == 0:
        return np.zeros(desc["n"], dtype=plane_dtype(desc))
    return uniq[codes.astype(np.int64)]


# ---------------------------------------------------------------------------
# delta + zigzag + bit-pack (sorted / near-sorted planes: monotone ids,
# timestamps, offsets — the classic lightweight-codec family member where
# FOR's single global frame is wide but successive differences are tiny;
# Lemire & Boytsov 2015. Semantics from the public literature only.)
# ---------------------------------------------------------------------------


def zigzag_deltas(plane: np.ndarray) -> np.ndarray:
    """Successive modular differences of a width-w pattern plane, zigzag-
    mapped to unsigned width-w (0,-1,1,-2,... -> 0,1,2,3,...): small
    |delta| -> small value regardless of sign. Bijective on the full
    signed range, so dtype-boundary wraparound round-trips exactly."""
    w = plane.dtype.itemsize
    up = plane.view(_BYTE_WIDTH_DTYPE[w])
    du = np.subtract(up[1:], up[:-1], dtype=up.dtype)  # modular diff
    sd = du.view(_SIGNED_OF_WIDTH[w])
    bits = np.int8(8 * w)
    return ((sd << np.int8(1)) ^ (sd >> (bits - np.int8(1)))).view(up.dtype)


def encode_delta_bitpack(plane: np.ndarray, signed: bool) -> tuple[list[bytes], dict]:
    n = len(plane)
    w = plane.dtype.itemsize
    if n == 0:
        return [b""], {"codec": "delta_bitpack", "n": 0, "base": 0, "width": 0, "pw": w}
    up = plane.view(_BYTE_WIDTH_DTYPE[w])
    zz = zigzag_deltas(plane)
    width = bit_width(int(zz.max())) if len(zz) else 0
    data = pack_bits(zz, width)
    desc = {
        "codec": "delta_bitpack",
        "n": n,
        "base": int(up[0]),  # first value's width-w pattern
        "width": width,
        "pw": w,
    }
    return [data], desc


def decode_delta_bitpack(blob: bytes, desc: dict) -> np.ndarray:
    dt = plane_dtype(desc)
    n = desc["n"]
    if n == 0:
        return np.zeros(0, dtype=dt)
    zz = unpack_bits(blob, n - 1, desc["width"], dt)
    one = dt.type(1)
    sd = (zz >> one) ^ (dt.type(0) - (zz & one))  # inverse zigzag, modular
    out = np.empty(n, dtype=dt)
    out[0] = dt.type(desc["base"])
    out[1:] = sd
    np.cumsum(out, out=out)  # modular prefix sum restores the plane
    return out


# ---------------------------------------------------------------------------
# frame-of-reference + byte-width narrowing + byte-stream-split + zstd
# ---------------------------------------------------------------------------
#
# The workhorse for mixed-structure token streams: FOR narrows values to the
# minimal byte width (1/2/4/8), the bytes of each lane are then split into
# per-byte streams (low bytes together, high bytes together — the Parquet
# BYTE_STREAM_SPLIT idea applied to narrowed ints) and zstd-compressed.
# Measured ~18% smaller than zstd-on-raw and ~12% smaller than
# bitpack+zstd on the F1 token mixture, at full C speed (no per-bit loops).


def _byte_width(max_delta: int) -> int:
    bits = bit_width(max_delta)
    for w in (1, 2, 4, 8):
        if bits <= w * 8:
            return w
    return 8


def split_streams(deltas: np.ndarray) -> np.ndarray:
    """Narrowed deltas -> lane-major byte streams (low bytes of every value
    together, then the next byte lane, ...) as a 1-D uint8 array (a view
    of ``deltas`` when w == 1) — callers compress it straight away
    (general.compress reads any buffer). Per-lane slice assignment: a
    transposed `.T.tobytes()` copy iterates the output in C order with a
    w-element inner loop and measured ~5x slower; per-lane strided reads
    with contiguous writes keep numpy's inner loop long. Byte layout is
    identical either way."""
    w = deltas.dtype.itemsize
    n = len(deltas)
    if w == 1:
        return deltas.view(np.uint8)
    dv = deltas.view(np.uint8).reshape(n, w)
    out = np.empty((w, n), dtype=np.uint8)
    for j in range(w):
        out[j] = dv[:, j]
    return out.reshape(-1)


def merge_streams(raw, n: int, w: int) -> np.ndarray:
    """Inverse of :func:`split_streams` -> (n,) array of width-w patterns.
    Per-lane assignment into a preallocated output (measured ~10x faster
    than ascontiguousarray on the transposed view)."""
    dt = _BYTE_WIDTH_DTYPE[w]
    if w == 1:
        # read-only view of ``raw``: decoded planes are only ever read
        return np.frombuffer(raw, dtype=np.uint8, count=n)
    lanes = np.frombuffer(raw, dtype=np.uint8, count=n * w).reshape(w, n)
    out = np.empty(n, dtype=dt)
    ov = out.view(np.uint8).reshape(n, w)
    for j in range(w):
        ov[:, j] = lanes[j]
    return out


def encode_for_bss(plane: np.ndarray, signed: bool) -> tuple[list[bytes], dict]:
    base, maxd = for_minmax(plane, signed)
    w = _byte_width(maxd)
    if len(plane):
        streams = split_streams(narrow_deltas(plane, base, w))
        raw_size = int(streams.nbytes)
    else:
        streams = b""
        raw_size = 0
    z = general.compress(streams)
    desc = {
        "codec": "for_bss",
        "n": len(plane),
        "base": base,
        "byte_width": w,
        "pw": plane.dtype.itemsize,
        "general": general.DEFAULT_GENERAL,
        "raw_size": raw_size,
    }
    return [z], desc


def decode_for_bss(blob: bytes, desc: dict) -> np.ndarray:
    n = desc["n"]
    w = desc["byte_width"]
    dt = plane_dtype(desc)
    raw = general.decompress(blob, desc["general"], desc["raw_size"])
    if n == 0:
        return np.zeros(0, dtype=dt)
    deltas = merge_streams(raw, n, w)
    if deltas.dtype != dt:
        deltas = deltas.astype(dt)
    # base 0 (every rowcodec residual bucket): the deltas are the plane
    return deltas + dt.type(desc["base"]) if desc["base"] else deltas


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_ENCODERS = {
    "for_bitpack": encode_for_bitpack,
    "rle": encode_rle,
    "dict": encode_dict,
    "for_bss": encode_for_bss,
    "delta_bitpack": encode_delta_bitpack,
}

_DECODERS = {
    "for_bitpack": decode_for_bitpack,
    "rle": decode_rle,
    "dict": decode_dict,
    "for_bss": decode_for_bss,
    "delta_bitpack": decode_delta_bitpack,
}


def encode_plane(plane: np.ndarray, codec: str, signed: bool) -> tuple[bytes, dict]:
    sections, desc = _ENCODERS[codec](plane, signed)
    return b"".join(sections), desc


def decode_plane(blob: bytes, desc: dict) -> np.ndarray:
    return _DECODERS[desc["codec"]](blob, desc)
