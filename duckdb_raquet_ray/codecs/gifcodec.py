"""Dependency-free GIF codec (stdlib + numpy): full LZW decode/encode,
87a/89a, global/local color tables, interlace, transparency, animation.

Same discipline as codecs/imagecodec.py (PNG) and codecs/jpegcodec.py:
the multimodal pipeline must run REAL bytes with no imaging library in
the container, and every decode is pixel-exact and SQL-oracle-checkable
(the reference ships native lossy/lossless image codecs,
/root/reference/src/band_encoder.cpp:251-331 — this is the analogue for
the palette-indexed web format).

GIF LZW (both directions) is the complete spec: variable code width
from min_code_size+1 up to 12 bits, CLEAR/END codes, dictionary reset at
4096, deferred-clear tolerated on decode. Interlace is the standard
4-pass row shuffle. Animation composites frames onto the logical screen
honoring disposal methods 0/1 (draw-over) and 2 (restore to background),
which covers the overwhelming majority of real GIFs.
"""

from __future__ import annotations

import struct

import numpy as np

from ._hardening import corrupt_boundary

_GIF87 = b"GIF87a"
_GIF89 = b"GIF89a"

# interlace passes: (start row, step)
_INTERLACE = ((0, 8), (4, 8), (2, 4), (1, 2))


def sniff_gif(data: bytes) -> bool:
    return data[:6] in (_GIF87, _GIF89)


# ---------------------------------------------------------------------------
# LZW
# ---------------------------------------------------------------------------


def _lzw_decode(data: bytes, min_code_size: int, n_pixels: int) -> np.ndarray:
    """GIF-flavor LZW -> uint8 index stream of exactly n_pixels values.

    Codes are packed LSB-first; width starts at min_code_size+1 and grows
    AFTER the code that fills the current table capacity is emitted, up to
    12 bits; CLEAR resets the table (deferred clears allowed); END stops.
    """
    clear = 1 << min_code_size
    end = clear + 1
    out = np.empty(n_pixels, dtype=np.uint8)
    out_pos = 0
    # dictionary as (prefix link, last byte): entry i < clear is the root
    # byte i; links let suffixes share storage without Python lists per entry
    max_entries = 4096
    prefix = np.full(max_entries, -1, dtype=np.int32)
    suffix = np.zeros(max_entries, dtype=np.uint8)
    suffix[:clear] = np.arange(clear, dtype=np.uint8)
    decode_buf = np.empty(max_entries, dtype=np.uint8)  # reversed-entry scratch

    next_code = end + 1
    width = min_code_size + 1
    prev = -1

    bitbuf = 0
    nbits = 0
    pos = 0
    n = len(data)

    def expand(code: int) -> int:
        """Write entry `code` into out[out_pos:]; return its first byte."""
        nonlocal out_pos
        k = 0
        c = code
        while c >= 0:
            decode_buf[k] = suffix[c]
            k += 1
            c = prefix[c]
        first = int(decode_buf[k - 1])
        take = min(k, n_pixels - out_pos)
        if take > 0:
            out[out_pos : out_pos + take] = decode_buf[:k][::-1][:take]
            out_pos += take
        return first

    while out_pos < n_pixels:
        while nbits < width:
            if pos >= n:
                # truncated stream: tolerate (some encoders omit END) by
                # returning what decoded; remaining pixels zero-fill
                out[out_pos:] = 0
                return out
            bitbuf |= data[pos] << nbits
            nbits += 8
            pos += 1
        code = bitbuf & ((1 << width) - 1)
        bitbuf >>= width
        nbits -= width

        if code == clear:
            next_code = end + 1
            width = min_code_size + 1
            prev = -1
            continue
        if code == end:
            break
        if prev < 0:
            if code >= clear:
                raise ValueError("GIF LZW: first code after clear not a root")
            expand(code)
            prev = code
            continue
        if code < next_code:
            first = expand(code)
        elif code == next_code:
            # KwKwK case: entry = prev + first(prev)
            k = 0
            c = prev
            while c >= 0:
                decode_buf[k] = suffix[c]
                k += 1
                c = prefix[c]
            first = int(decode_buf[k - 1])
            take = min(k + 1, n_pixels - out_pos)
            ent = np.append(decode_buf[:k][::-1], np.uint8(first))
            out[out_pos : out_pos + take] = ent[:take]
            out_pos += take
        else:
            raise ValueError("GIF LZW: code beyond dictionary")
        if next_code < max_entries:
            prefix[next_code] = prev
            suffix[next_code] = first
            next_code += 1
            # width grows when the table FILLS the current width's capacity
            if next_code == (1 << width) and width < 12:
                width += 1
        prev = code
    if out_pos < n_pixels:
        out[out_pos:] = 0
    return out


def _lzw_encode(indices: np.ndarray, min_code_size: int) -> bytes:
    """GIF-flavor LZW encoder (dict reset at 4096, exact width-growth
    mirror of the decoder)."""
    clear = 1 << min_code_size
    end = clear + 1
    table: dict[tuple[int, int], int] = {}
    next_code = end + 1
    width = min_code_size + 1

    out = bytearray()
    bitbuf = 0
    nbits = 0

    def emit(code: int) -> None:
        nonlocal bitbuf, nbits
        bitbuf |= code << nbits
        nbits += width
        while nbits >= 8:
            out.append(bitbuf & 0xFF)
            bitbuf >>= 8
            nbits -= 8

    emit(clear)
    prev = -1
    for v in np.asarray(indices, dtype=np.uint8).ravel():
        v = int(v)
        if prev < 0:
            prev = v
            continue
        key = (prev, v)
        nxt = table.get(key)
        if nxt is not None:
            prev = nxt
            continue
        emit(prev)
        table[key] = next_code
        next_code += 1
        if next_code - 1 == (1 << width) and width < 12:
            # decoder grows width when ITS next_code hits capacity; its
            # next_code trails ours by one (it adds the entry after
            # consuming the code), hence the -1
            width += 1
        if next_code > 4095:
            emit(clear)
            table.clear()
            next_code = end + 1
            width = min_code_size + 1
        prev = v
    if prev >= 0:
        emit(prev)
    emit(end)
    if nbits:
        out.append(bitbuf & 0xFF)
    return bytes(out)


# ---------------------------------------------------------------------------
# container
# ---------------------------------------------------------------------------


def _read_color_table(data: bytes, pos: int, size_field: int) -> tuple[np.ndarray, int]:
    n = 2 << size_field  # 2^(size+1) entries
    tbl = np.frombuffer(data, dtype=np.uint8, count=3 * n, offset=pos).reshape(n, 3)
    return tbl, pos + 3 * n


def _sub_blocks(data: bytes, pos: int) -> tuple[bytes, int]:
    chunks = []
    while True:
        ln = data[pos]
        pos += 1
        if ln == 0:
            break
        chunks.append(data[pos : pos + ln])
        pos += ln
    return b"".join(chunks), pos


@corrupt_boundary()
def gif_frames(data: bytes) -> list[dict]:
    """Decode ALL frames, composited onto the logical screen.

    -> list of {"rgb": (h, w, 3) uint8, "delay_cs": int} in presentation
    order. Disposal 2 restores the background (transparent background
    composites as black, the common renderer default); disposal 0/1 draw
    over the previous canvas."""
    if not sniff_gif(data):
        raise ValueError("not a GIF")
    w, h, packed, bg_idx, _aspect = struct.unpack_from("<HHBBB", data, 6)
    pos = 13
    gct = None
    if packed & 0x80:
        gct, pos = _read_color_table(data, pos, packed & 0x07)

    canvas = np.zeros((h, w, 3), dtype=np.uint8)
    # gct is only ever set under packed & 0x80, so the fill condition
    # reduces to a single bounds check
    if gct is not None and bg_idx < len(gct):
        canvas[:] = gct[bg_idx]
    background = canvas.copy()

    frames: list[dict] = []
    transparent = -1
    delay_cs = 0
    disposal = 0
    while pos < len(data):
        b = data[pos]
        pos += 1
        if b == 0x3B:  # trailer
            break
        if b == 0x21:  # extension
            label = data[pos]
            pos += 1
            raw, pos = _sub_blocks(data, pos)
            if label == 0xF9 and len(raw) >= 4:  # graphic control
                flags, delay_cs = raw[0], struct.unpack_from("<H", raw, 1)[0]
                disposal = (flags >> 2) & 0x07
                transparent = raw[3] if flags & 0x01 else -1
            continue
        if b != 0x2C:  # image descriptor expected
            raise ValueError(f"GIF: unexpected block 0x{b:02x}")
        fx, fy, fw, fh, fpacked = struct.unpack_from("<HHHHB", data, pos)
        pos += 9
        if fpacked & 0x80:
            lct, pos = _read_color_table(data, pos, fpacked & 0x07)
        else:
            lct = gct
        if lct is None:
            raise ValueError("GIF: frame without a color table")
        min_code = data[pos]
        pos += 1
        lzw, pos = _sub_blocks(data, pos)
        idx = _lzw_decode(lzw, min_code, fw * fh).reshape(fh, fw)
        if fpacked & 0x40:  # interlaced: rows arrive pass-ordered
            de = np.empty_like(idx)
            src = 0
            for start, step in _INTERLACE:
                rows = range(start, fh, step)
                for r in rows:
                    de[r] = idx[src]
                    src += 1
            idx = de
        rgb = lct[np.minimum(idx, len(lct) - 1)]
        prev_canvas = canvas.copy()
        region = canvas[fy : fy + fh, fx : fx + fw]
        if transparent >= 0:
            opaque = idx != transparent
            region[opaque] = rgb[opaque]
        else:
            region[:] = rgb
        frames.append({"rgb": canvas.copy(), "delay_cs": int(delay_cs)})
        if disposal == 2:
            canvas[fy : fy + fh, fx : fx + fw] = background[fy : fy + fh, fx : fx + fw]
        elif disposal == 3:
            canvas = prev_canvas
        transparent = -1
        disposal = 0
        delay_cs = 0
    if not frames:
        raise ValueError("GIF: no image data")
    return frames


@corrupt_boundary()
def gif_decode(data: bytes) -> np.ndarray:
    """First composited frame as (h, w, 3) uint8 RGB."""
    return gif_frames(data)[0]["rgb"]


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------


def _palettize(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(h, w, 3) uint8 with <= 256 distinct colors -> (palette (n, 3),
    indices (h, w) uint8), palette in first-appearance order."""
    h, w = img.shape[:2]
    flat = img.reshape(-1, 3)
    key = (
        flat[:, 0].astype(np.uint32) << 16
        | flat[:, 1].astype(np.uint32) << 8
        | flat[:, 2].astype(np.uint32)
    )
    uniq, first_pos, inv = np.unique(key, return_index=True, return_inverse=True)
    if len(uniq) > 256:
        raise ValueError(f"gif_encode: {len(uniq)} distinct colors > 256")
    # first-appearance order keeps the palette deterministic and readable
    order = np.argsort(first_pos)
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[order] = np.arange(len(uniq))
    palette = flat[np.sort(first_pos)]
    return palette, rank[inv].astype(np.uint8).reshape(h, w)


def _blockify(payload: bytes) -> bytes:
    out = bytearray()
    for i in range(0, len(payload), 255):
        chunk = payload[i : i + 255]
        out.append(len(chunk))
        out += chunk
    out.append(0)
    return bytes(out)


def gif_encode(
    img: np.ndarray,
    interlace: bool = False,
    transparent_index: int | None = None,
) -> bytes:
    """Single-frame GIF89a from (h, w, 3) uint8 RGB (<= 256 colors) or
    (h, w) uint8 indices with an implied grayscale palette."""
    return gif_encode_frames(
        [img], delays_cs=[0], interlace=interlace, transparent_index=transparent_index
    )


def gif_encode_frames(
    frames: list[np.ndarray],
    delays_cs: list[int] | None = None,
    interlace: bool = False,
    transparent_index: int | None = None,
) -> bytes:
    """Multi-frame (animated) GIF89a. All frames full-size, disposal 1
    (draw over). A shared global palette is built across frames."""
    if not frames:
        raise ValueError("gif_encode_frames: no frames")
    if delays_cs is None:
        delays_cs = [10] * len(frames)
    norm = []
    for f in frames:
        f = np.asarray(f, dtype=np.uint8)
        if f.ndim == 2:  # index/gray plane -> gray RGB
            f = np.stack([f, f, f], axis=-1)
        norm.append(f)
    h, w = norm[0].shape[:2]
    if len(delays_cs) != len(norm):
        # zip would TRUNCATE to the shorter list and silently drop frames
        raise ValueError(
            f"gif_encode_frames: {len(norm)} frames but {len(delays_cs)} delays"
        )
    stacked = np.concatenate([f.reshape(-1, 3) for f in norm], axis=0).reshape(-1, 1, 3)
    palette, all_idx = _palettize(stacked)
    all_idx = np.asarray(all_idx, dtype=np.uint8).reshape(len(norm), h, w)
    n = len(palette)
    size_field = max(int(np.ceil(np.log2(max(n, 2)))) - 1, 0)
    table_n = 2 << size_field
    full_palette = np.zeros((table_n, 3), dtype=np.uint8)
    full_palette[:n] = palette

    out = bytearray()
    out += _GIF89
    out += struct.pack("<HHBBB", w, h, 0x80 | (size_field << 4) | size_field, 0, 0)
    out += full_palette.tobytes()
    if len(norm) > 1:
        # NETSCAPE loop extension (loop forever) — standard for animation
        out += b"\x21\xff\x0bNETSCAPE2.0\x03\x01\x00\x00\x00"
    min_code = max(size_field + 1, 2)
    for fi, (f, delay) in enumerate(zip(norm, delays_cs)):
        if f.shape[:2] != (h, w):
            raise ValueError("gif_encode_frames: frames must share one size")
        # _palettize already produced the per-pixel indices vectorized —
        # re-deriving them via a per-pixel Python lut loop was the encode
        # hot path's dominant cost
        idx = all_idx[fi]
        # graphic control (always emitted: delay + optional transparency)
        flags = 0x04  # disposal 1 (draw over)
        tr = 0
        if transparent_index is not None:
            flags |= 0x01
            tr = transparent_index
        out += b"\x21\xf9" + bytes([4]) + struct.pack("<BHB", flags, delay, tr) + b"\x00"
        ipacked = 0x40 if interlace else 0
        out += b"\x2c" + struct.pack("<HHHHB", 0, 0, w, h, ipacked)
        if interlace:
            rows = []
            for start, step in _INTERLACE:
                rows.append(idx[start::step])
            idx = np.concatenate(rows, axis=0)
        out.append(min_code)
        out += _blockify(_lzw_encode(idx.ravel(), min_code))
    out += b"\x3b"
    return bytes(out)
