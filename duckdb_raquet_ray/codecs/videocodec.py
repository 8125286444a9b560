"""Dependency-free MJPEG-AVI video container codec.

Video "decode" at the container level: an MJPEG AVI is a RIFF file whose
'movi' list holds one baseline-JPEG payload per frame — exactly the
format codecs/jpegcodec.py already decodes. Parsing the container is
pure chunk walking (stdlib struct), so frame extraction + decode is REAL
with no video library, in the same dependency-free discipline as the
PNG/JPEG/WAV codecs. Inter-frame-compressed formats (H.264/VP9/...)
remain out of scope and raise with the format named.

Scope:
  - decode: RIFF 'AVI ' files; frames = '##dc'/'##db' chunks inside the
    (possibly nested) LIST 'movi'; rec lists are descended,
  - encode: a minimal-but-valid single-stream MJPEG AVI (avih + strl
    headers, movi frames, idx1 index) for fixtures and tests.
"""

from __future__ import annotations

import struct

import numpy as np

from . import jpegcodec
from ._hardening import corrupt_boundary


def sniff(data: bytes) -> bool:
    return data[:4] == b"RIFF" and data[8:12] == b"AVI "


@corrupt_boundary()
def avi_frames(data: bytes) -> list[bytes]:
    """AVI bytes -> raw frame payloads (JPEG bytes for MJPEG), in stream
    order."""
    if not sniff(data):
        raise ValueError("not a RIFF/AVI payload")
    frames: list[bytes] = []

    def walk(pos: int, end: int) -> None:
        while pos + 8 <= end:
            cid = data[pos : pos + 4]
            (clen,) = struct.unpack("<I", data[pos + 4 : pos + 8])
            body_start = pos + 8
            if cid == b"LIST":
                ltype = data[body_start : body_start + 4]
                if ltype in (b"movi", b"rec "):
                    walk(body_start + 4, body_start + clen)
            elif cid[2:4] in (b"dc", b"db"):
                frames.append(data[body_start : body_start + clen])
            pos = body_start + clen + (clen & 1)  # word-aligned

    walk(12, len(data))
    return frames


def decode_frame(frame: bytes) -> np.ndarray:
    """One frame payload -> pixel array (MJPEG = baseline JPEG)."""
    if jpegcodec.sniff(frame):
        return jpegcodec.jpeg_decode(frame)
    raise ValueError(
        "non-MJPEG frame payload (H.264/VP9/... need a video library "
        "not installed in this container)"
    )


def _chunk(cid: bytes, body: bytes) -> bytes:
    pad = b"\x00" if len(body) & 1 else b""
    return cid + struct.pack("<I", len(body)) + body + pad


def _list(ltype: bytes, body: bytes) -> bytes:
    return _chunk(b"LIST", ltype + body)


def avi_encode_mjpeg(frames: list[bytes], width: int, height: int, fps: int = 10) -> bytes:
    """Minimal valid single-stream MJPEG AVI from JPEG frame payloads."""
    n = len(frames)
    max_len = max((len(f) for f in frames), default=0)
    avih = struct.pack(
        "<IIIIIIIIIIIIII",
        1_000_000 // max(fps, 1),  # usec/frame
        0, 0, 0x10,  # maxbytes/sec, padding, flags (HASINDEX)
        n, 0, 1, max_len, width, height, 0, 0, 0, 0,
    )
    # full 56-byte AVISTREAMHEADER: ...dwSampleSize + rcFrame as 4 int16
    # (the earlier trailing I emitted only half of rcFrame — strict
    # DirectShow-style parsers validate the struct size)
    strh = (
        b"vids" + b"MJPG"
        + struct.pack(
            "<IHHIIIIIIII", 0, 0, 0, 0, 1, fps, 0, n, max_len, 0xFFFFFFFF, 0
        )
        + struct.pack("<4h", 0, 0, width, height)
    )
    strf = struct.pack("<IiiHHIIiiII", 40, width, height, 1, 24, 0x47504A4D, width * height * 3, 0, 0, 0, 0)
    hdrl = _list(
        b"hdrl",
        _chunk(b"avih", avih) + _list(b"strl", _chunk(b"strh", strh) + _chunk(b"strf", strf)),
    )
    movi_body = b"".join(_chunk(b"00dc", f) for f in frames)
    movi = _list(b"movi", movi_body)
    # idx1: offsets relative to the start of the movi list type field
    idx = b""
    off = 4
    for f in frames:
        idx += b"00dc" + struct.pack("<III", 0x10, off, len(f))
        off += 8 + len(f) + (len(f) & 1)
    riff_body = b"AVI " + hdrl + movi + _chunk(b"idx1", idx)
    return b"RIFF" + struct.pack("<I", len(riff_body)) + riff_body
