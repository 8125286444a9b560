"""Dependency-free image codecs: PNG (zlib IDAT) and PPM/PGM.

The reference ships its own dependency-free PNG encoder for export
(/root/reference/src/band_encoder.cpp:205-249, zlib IDAT); this module
mirrors that discipline for BOTH directions so the multimodal stages can
decode real payloads in a container with no imaging libraries — only
stdlib zlib + numpy.

Scope (documented, checked, loud on anything else):
  - PNG: 8-bit depth, color types 0 (gray), 2 (RGB), 6 (RGBA), no
    interlace. All five scanline filters decode; filters 0/1/2
    (None/Sub/Up) are fully vectorized (Sub is a per-channel cumsum);
    3/4 (Average/Paeth) fall back to a per-pixel loop on the rows that
    use them — our own encoder only ever emits 0/2, so the hot path
    stays vectorized.
  - PPM (P6) / PGM (P5): binary variants, maxval 255.

Decoded form is a numpy uint8 array of shape (height, width, channels)
(channels axis squeezed away for grayscale).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from . import gifcodec, jpegcodec, webpcodec
from ._hardening import corrupt_boundary

_PNG_SIG = b"\x89PNG\r\n\x1a\n"
_CHANNELS = {0: 1, 2: 3, 6: 4}


def sniff(data: bytes) -> str | None:
    """'png' | 'jpeg' | 'gif' | 'webp' | 'ppm' | 'pgm' | None from magic bytes."""
    if data[:8] == _PNG_SIG:
        return "png"
    if data[:3] == b"\xff\xd8\xff":
        return "jpeg"
    if data[:6] in (b"GIF87a", b"GIF89a"):
        return "gif"
    if data[:4] == b"RIFF" and data[8:12] == b"WEBP":
        return "webp"
    # PPM/PGM magic must be followed by whitespace — opaque binary/ASCII
    # payloads can start with the two literal bytes "P6" by accident
    if data[:2] == b"P6" and data[2:3].isspace():
        return "ppm"
    if data[:2] == b"P5" and data[2:3].isspace():
        return "pgm"
    return None


def _chunks(data: bytes):
    pos = 8
    while pos + 8 <= len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        ctype = data[pos + 4 : pos + 8]
        yield ctype, data[pos + 8 : pos + 8 + length]
        pos += 12 + length  # length + type + payload + crc
        if ctype == b"IEND":
            return


def _unfilter(raw: np.ndarray, height: int, stride: int, bpp: int) -> np.ndarray:
    """Undo PNG scanline filters. `raw` = height rows of (1 filter byte +
    stride pixel bytes). Returns (height, stride) uint8."""
    rows = raw.reshape(height, stride + 1)
    ftypes = rows[:, 0]
    out = np.zeros((height, stride), dtype=np.int32)
    prev = np.zeros(stride, dtype=np.int32)
    for y in range(height):
        cur = rows[y, 1:].astype(np.int32)
        f = int(ftypes[y])
        if f == 0:  # None
            line = cur
        elif f == 1:  # Sub: per-channel prefix sum
            line = np.cumsum(cur.reshape(-1, bpp), axis=0).reshape(-1) & 0xFF
        elif f == 2:  # Up
            line = (cur + prev) & 0xFF
        elif f == 3:  # Average (left-dependency -> per-pixel)
            line = cur.copy()
            for x in range(stride):
                left = line[x - bpp] if x >= bpp else 0
                line[x] = (line[x] + ((left + prev[x]) >> 1)) & 0xFF
        elif f == 4:  # Paeth (left-dependency -> per-pixel)
            line = cur.copy()
            for x in range(stride):
                a = line[x - bpp] if x >= bpp else 0
                b = prev[x]
                c = prev[x - bpp] if x >= bpp else 0
                p = a + b - c
                pa_, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                if pa_ <= pb and pa_ <= pc:
                    pred = a
                elif pb <= pc:
                    pred = b
                else:
                    pred = c
                line[x] = (line[x] + pred) & 0xFF
        else:
            raise ValueError(f"PNG filter type {f} is invalid")
        out[y] = line
        prev = out[y]
    return out.astype(np.uint8)


@corrupt_boundary()
def png_decode(data: bytes) -> np.ndarray:
    """PNG bytes -> uint8 pixel array (H, W) or (H, W, C)."""
    if data[:8] != _PNG_SIG:
        raise ValueError("not a PNG (bad signature)")
    width = height = None
    color_type = bit_depth = interlace = None
    idat = []
    for ctype, payload in _chunks(data):
        if ctype == b"IHDR":
            width, height, bit_depth, color_type, _comp, _filt, interlace = struct.unpack(
                ">IIBBBBB", payload
            )
        elif ctype == b"IDAT":
            idat.append(payload)
    if width is None:
        raise ValueError("PNG missing IHDR")
    if bit_depth != 8 or color_type not in _CHANNELS or interlace != 0:
        raise ValueError(
            f"unsupported PNG (bit_depth={bit_depth}, color_type={color_type}, "
            f"interlace={interlace}); supported: 8-bit gray/RGB/RGBA, no interlace"
        )
    channels = _CHANNELS[color_type]
    stride = width * channels
    raw = np.frombuffer(zlib.decompress(b"".join(idat)), dtype=np.uint8)
    if len(raw) != height * (stride + 1):
        raise ValueError(f"PNG IDAT length {len(raw)} != {height}x({stride}+1)")
    px = _unfilter(raw, height, stride, channels)
    img = px.reshape(height, width, channels)
    return img[:, :, 0] if channels == 1 else img


def _chunk(ctype: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + ctype
        + payload
        + struct.pack(">I", zlib.crc32(ctype + payload) & 0xFFFFFFFF)
    )


def png_encode(img: np.ndarray, filter_type: int = 0, level: int = 6) -> bytes:
    """uint8 (H, W) or (H, W, {3,4}) -> PNG bytes. Vectorized filters only
    (0 = None, 2 = Up) — the same dependency-free shape as the reference's
    band_encoder.cpp:205-249."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    if img.ndim == 2:
        img = img[:, :, None]
    h, w, c = img.shape
    color_type = {1: 0, 3: 2, 4: 6}.get(c)
    if color_type is None:
        raise ValueError(f"unsupported channel count {c}")
    flat = img.reshape(h, w * c).astype(np.int32)
    if filter_type == 0:
        filtered = flat
    elif filter_type == 2:
        filtered = flat.copy()
        filtered[1:] = (flat[1:] - flat[:-1]) & 0xFF
    else:
        raise ValueError("png_encode supports filter types 0 and 2")
    lines = np.concatenate(
        [np.full((h, 1), filter_type, dtype=np.uint8), filtered.astype(np.uint8)], axis=1
    )
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    return (
        _PNG_SIG
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", zlib.compress(lines.tobytes(), level))
        + _chunk(b"IEND", b"")
    )


@corrupt_boundary()
def ppm_decode(data: bytes) -> np.ndarray:
    """Binary PPM (P6) / PGM (P5), maxval 255 -> uint8 array."""
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise ValueError("not a binary PPM/PGM")
    # header: magic, width, height, maxval — whitespace separated, with
    # optional '#' comment lines
    pos, fields = 2, []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(int(data[start:pos]))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise ValueError(f"unsupported PPM maxval {maxval}")
    c = 3 if magic == b"P6" else 1
    px = np.frombuffer(data, dtype=np.uint8, count=h * w * c, offset=pos)
    img = px.reshape(h, w, c)
    return img[:, :, 0] if c == 1 else img


def ppm_encode(img: np.ndarray) -> bytes:
    img = np.ascontiguousarray(img, dtype=np.uint8)
    if img.ndim == 2:
        return b"P5 %d %d 255\n" % (img.shape[1], img.shape[0]) + img.tobytes()
    if img.ndim == 3 and img.shape[2] == 3:
        return b"P6 %d %d 255\n" % (img.shape[1], img.shape[0]) + img.tobytes()
    raise ValueError("ppm_encode supports gray (H,W) or RGB (H,W,3)")


def decode(data: bytes) -> np.ndarray:
    """Sniff + decode any supported format."""
    kind = sniff(data)
    if kind == "png":
        return png_decode(data)
    if kind == "jpeg":
        return jpegcodec.jpeg_decode(data)
    if kind == "gif":
        return gifcodec.gif_decode(data)
    if kind == "webp":
        return webpcodec.webp_decode(data)
    if kind in ("ppm", "pgm"):
        return ppm_decode(data)
    raise NotImplementedError(
        "unsupported image format (supported without external libraries: "
        "PNG 8-bit gray/RGB/RGBA, baseline JPEG — codecs/jpegcodec.py, "
        "GIF 87a/89a incl. interlace/animation — codecs/gifcodec.py, "
        "WEBP VP8L lossless — codecs/webpcodec.py, binary PPM/PGM); "
        "VP8 LOSSY webp needs a boolean-coder DCT pipeline no "
        "dependency-free decoder here provides"
    )


def resize_nearest(img: np.ndarray, target_w: int, target_h: int) -> np.ndarray:
    """Nearest-neighbor resize — pure index arithmetic (the deterministic,
    library-free choice; bilinear needs no library either but its rounding
    is harder to replicate in an oracle)."""
    h, w = img.shape[:2]
    ys = (np.arange(target_h) * h) // target_h
    xs = (np.arange(target_w) * w) // target_w
    return img[ys][:, xs]
