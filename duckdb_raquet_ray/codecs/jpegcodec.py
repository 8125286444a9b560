"""Dependency-free baseline JPEG codec (SOF0, Huffman, 8-bit).

The reference decodes lossy image formats natively
(/root/reference/src/band_decoder.cpp:85-154, jpeg/webp) — this module
extends codecs/imagecodec.py's dependency-free discipline (stdlib +
numpy only) to the format real web-scraped multimodal corpora are
overwhelmingly stored in.

Decoder scope (documented, loud on anything else):
  - baseline sequential DCT (SOF0), 8-bit samples,
  - 1 component (grayscale) or 3 components (JFIF YCbCr),
  - sampling factors 1-2 per axis (4:4:4, 4:2:2, 4:2:0), chroma
    upsampled by pixel repetition,
  - restart intervals (DRI / RSTn) honored,
  - progressive (SOF2), arithmetic coding, 12-bit, and CMYK raise
    ValueError naming the unsupported feature.

Encoder scope: quality-parameterized Annex-K quantization tables,
standard Annex-K Huffman tables, 4:4:4 or 4:2:0, no restart markers.
`jpeg_encode(..., return_expected=True)` also returns the EXPECTED
decoded pixels, forced mathematically from the quantized coefficients
the encoder just wrote (dequantize -> IDCT -> upsample -> color
convert) — the fixture pattern that lets a SQL oracle value-check the
decoder's independent parse of the bitstream (Huffman, bit-unstuffing,
zigzag, DC prediction, MCU interleave) with no imaging library anywhere.

Determinism: all DCT math is float64 with fixed numpy rounding; no
platform-dependent paths. Performance note: Huffman entropy decode is a
per-symbol Python loop (bit-serial by nature) — right for fixture/test
scale; a 100 TB image corpus would stub in a real imaging library as an
explicit dependency, keeping this codec as the verification baseline.
"""

from __future__ import annotations

import struct

import numpy as np

from ._hardening import corrupt_boundary

# zigzag scan order: zigzag index -> row-major index in the 8x8 block
ZIGZAG = np.array(
    [
        0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
        12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
        35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
        58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
    ],
    dtype=np.int64,
)

# Annex K base quantization tables (row-major 8x8)
_Q_LUMA = np.array(
    [
        16, 11, 10, 16, 24, 40, 51, 61,
        12, 12, 14, 19, 26, 58, 60, 55,
        14, 13, 16, 24, 40, 57, 69, 56,
        14, 17, 22, 29, 51, 87, 80, 62,
        18, 22, 37, 56, 68, 109, 103, 77,
        24, 35, 55, 64, 81, 104, 113, 92,
        49, 64, 78, 87, 103, 121, 120, 101,
        72, 92, 95, 98, 112, 100, 103, 99,
    ],
    dtype=np.int64,
).reshape(8, 8)

_Q_CHROMA = np.array(
    [
        17, 18, 24, 47, 99, 99, 99, 99,
        18, 21, 26, 66, 99, 99, 99, 99,
        24, 26, 56, 99, 99, 99, 99, 99,
        47, 66, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
    ],
    dtype=np.int64,
).reshape(8, 8)

# Annex K Huffman tables: (bits[1..16], values)
_DC_LUMA = (
    [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
    list(range(12)),
)
_DC_CHROMA = (
    [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
    list(range(12)),
)
_AC_LUMA = (
    [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D],
    [
        0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41,
        0x06, 0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91,
        0xA1, 0x08, 0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0, 0x24,
        0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A,
        0x25, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38,
        0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53,
        0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65, 0x66,
        0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
        0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A, 0x92, 0x93,
        0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
        0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6, 0xB7,
        0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9,
        0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1,
        0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF1, 0xF2,
        0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
    ],
)
_AC_CHROMA = (
    [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77],
    [
        0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12,
        0x41, 0x51, 0x07, 0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14,
        0x42, 0x91, 0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0, 0x15,
        0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34, 0xE1, 0x25, 0xF1, 0x17,
        0x18, 0x19, 0x1A, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37,
        0x38, 0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A,
        0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65,
        0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
        0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A,
        0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3,
        0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5,
        0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7,
        0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9,
        0xDA, 0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF2,
        0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
    ],
)


def _dct_basis() -> np.ndarray:
    """Orthonormal 8x8 DCT-II basis A: forward F = A @ f @ A.T, inverse
    f = A.T @ F @ A."""
    n = np.arange(8)
    a = np.cos((2 * n[None, :] + 1) * n[:, None] * np.pi / 16.0) / 2.0
    a[0, :] /= np.sqrt(2.0)
    return a


_A = _dct_basis()


def _quality_tables(quality: int) -> tuple[np.ndarray, np.ndarray]:
    """libjpeg quality scaling of the Annex K tables."""
    q = min(max(int(quality), 1), 100)
    s = 5000 // q if q < 50 else 200 - 2 * q

    def scale(t: np.ndarray) -> np.ndarray:
        return np.clip((t * s + 50) // 100, 1, 255).astype(np.int64)

    return scale(_Q_LUMA), scale(_Q_CHROMA)


# ---------------------------------------------------------------------------
# Huffman code construction (canonical, spec section C.2)
# ---------------------------------------------------------------------------


def _build_codes(bits: list[int], values: list[int]) -> dict[int, tuple[int, int]]:
    """-> {value: (code, length)} canonical Huffman assignment."""
    out: dict[int, tuple[int, int]] = {}
    code = 0
    k = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            out[values[k]] = (code, length)
            code += 1
            k += 1
        code <<= 1
    return out


class _HuffDecoder:
    """Spec F.16 decode tables: mincode/maxcode/valptr per length."""

    def __init__(self, bits: list[int], values: list[int]):
        self.values = values
        self.mincode = [0] * 17
        self.maxcode = [-1] * 17
        self.valptr = [0] * 17
        code = 0
        k = 0
        for length in range(1, 17):
            if bits[length - 1]:
                self.valptr[length] = k
                self.mincode[length] = code
                code += bits[length - 1]
                k += bits[length - 1]
                self.maxcode[length] = code - 1
            else:
                self.maxcode[length] = -1
            code <<= 1

    def decode(self, br: "_BitReader") -> int:
        code = br.read_bit()
        length = 1
        while code > self.maxcode[length]:
            length += 1
            if length > 16:
                raise ValueError("corrupt JPEG: Huffman code longer than 16 bits")
            code = (code << 1) | br.read_bit()
        return self.values[self.valptr[length] + code - self.mincode[length]]


class _BitReader:
    def __init__(self, data: bytes):
        self.bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        self.pos = 0

    def read_bit(self) -> int:
        if self.pos >= len(self.bits):
            raise ValueError("corrupt JPEG: scan data exhausted")
        b = int(self.bits[self.pos])
        self.pos += 1
        return b

    def receive(self, n: int) -> int:
        if n == 0:
            return 0
        if self.pos + n > len(self.bits):
            raise ValueError("corrupt JPEG: scan data exhausted")
        v = 0
        for b in self.bits[self.pos : self.pos + n]:
            v = (v << 1) | int(b)
        self.pos += n
        return v


def _extend(v: int, t: int) -> int:
    """Spec F.12: map t-bit magnitude to signed value."""
    if t == 0:
        return 0
    return v if v >= (1 << (t - 1)) else v - (1 << t) + 1


# ---------------------------------------------------------------------------
# decoder
# ---------------------------------------------------------------------------


def sniff(data: bytes) -> bool:
    return data[:3] == b"\xff\xd8\xff"


def _idct_block(coefs: np.ndarray, qtab: np.ndarray) -> np.ndarray:
    """Dequantize zigzag coefficients -> spatial 8x8 float64 (no level
    shift / rounding — the caller folds the plane once)."""
    blk = np.zeros(64, dtype=np.float64)
    blk[ZIGZAG] = coefs * qtab.reshape(-1)[ZIGZAG]
    f = blk.reshape(8, 8)
    return _A.T @ f @ _A


def _upsample(plane: np.ndarray, fh: int, fv: int) -> np.ndarray:
    if fh == 1 and fv == 1:
        return plane
    return np.repeat(np.repeat(plane, fv, axis=0), fh, axis=1)


def _ycbcr_to_rgb(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> np.ndarray:
    r = y + 1.402 * (cr - 128.0)
    g = y - 0.344136 * (cb - 128.0) - 0.714136 * (cr - 128.0)
    b = y + 1.772 * (cb - 128.0)
    rgb = np.stack([r, g, b], axis=-1)
    return np.clip(np.rint(rgb), 0, 255).astype(np.uint8)


@corrupt_boundary("JPEG")
def jpeg_decode(data: bytes) -> np.ndarray:
    """JPEG bytes -> uint8 (H, W) gray or (H, W, 3) RGB.

    Supports baseline/extended sequential Huffman (SOF0/SOF1) —
    single-scan interleaved via the fast path, multi-scan
    (non-interleaved) via the coefficient accumulator — and
    PROGRESSIVE Huffman (SOF2, T.81 Annex G: spectral selection +
    successive approximation, DC/AC first and refinement scans,
    EOB-run decoding). The reference gates its real codec behind a
    compile-time option (band_decoder.cpp:85-154); here the whole
    decode is dependency-free.

    Corrupt input raises ValueError (fuzz-hardened: raw
    IndexError/struct.error from truncated or bit-flipped streams are
    converted at this boundary). A progressive stream truncated at a
    SCAN boundary decodes to the coarser partial render — that is the
    format's own incremental-refinement semantics, the same behavior
    browsers exhibit on partial progressive downloads."""
    if not sniff(data):
        raise ValueError("not a JPEG (bad SOI)")
    pos = 2
    qtabs: dict[int, np.ndarray] = {}
    huff_dc: dict[int, _HuffDecoder] = {}
    huff_ac: dict[int, _HuffDecoder] = {}
    frame = None
    progressive = False
    scans: list[dict] = []
    restart_interval = 0
    while pos + 4 <= len(data):
        if data[pos] != 0xFF:
            raise ValueError(f"corrupt JPEG: expected marker at {pos}")
        # T.81 B.1.1.2: any number of 0xFF fill bytes may precede a marker
        while pos + 1 < len(data) and data[pos + 1] == 0xFF:
            pos += 1
        marker = data[pos + 1]
        pos += 2
        if marker == 0xD9:  # EOI
            break
        (seglen,) = struct.unpack(">H", data[pos : pos + 2])
        seg = data[pos + 2 : pos + seglen]
        if marker == 0xDB:  # DQT
            p = 0
            while p < len(seg):
                pq, tq = seg[p] >> 4, seg[p] & 0xF
                p += 1
                if pq == 0:
                    tab = np.frombuffer(seg[p : p + 64], dtype=np.uint8).astype(np.int64)
                    p += 64
                else:
                    tab = np.frombuffer(seg[p : p + 128], dtype=">u2").astype(np.int64)
                    p += 128
                q = np.zeros(64, dtype=np.int64)
                q[ZIGZAG] = tab
                qtabs[tq] = q.reshape(8, 8)
        elif marker in (0xC0, 0xC1, 0xC2):  # SOF0/SOF1 sequential, SOF2 progressive
            progressive = marker == 0xC2
            precision = seg[0]
            if precision != 8:
                raise ValueError(f"unsupported JPEG precision {precision}")
            h, w = struct.unpack(">HH", seg[1:5])
            ncomp = seg[5]
            if ncomp not in (1, 3):
                raise ValueError(f"unsupported JPEG component count {ncomp}")
            comps = []
            for c in range(ncomp):
                cid, hv, tq = seg[6 + 3 * c : 9 + 3 * c]
                fh, fv = hv >> 4, hv & 0xF
                if not (1 <= fh <= 2 and 1 <= fv <= 2):
                    raise ValueError(f"unsupported sampling factors {fh}x{fv}")
                comps.append({"id": cid, "h": fh, "v": fv, "tq": tq})
            frame = {"h": h, "w": w, "comps": comps}
        elif marker in (0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB, 0xCD, 0xCE, 0xCF):
            raise ValueError(
                f"unsupported JPEG frame type SOF{marker - 0xC0} "
                "(only sequential/progressive Huffman is supported)"
            )
        elif marker == 0xC4:  # DHT
            p = 0
            while p < len(seg):
                tc, th = seg[p] >> 4, seg[p] & 0xF
                bits = list(seg[p + 1 : p + 17])
                nv = sum(bits)
                vals = list(seg[p + 17 : p + 17 + nv])
                dec = _HuffDecoder(bits, vals)
                (huff_dc if tc == 0 else huff_ac)[th] = dec
                p += 17 + nv
        elif marker == 0xDD:  # DRI
            (restart_interval,) = struct.unpack(">H", seg[:2])
        elif marker == 0xDA:  # SOS
            if frame is None:
                raise ValueError("corrupt JPEG: SOS before SOF")
            ns = seg[0]
            scan_comps = []
            for c in range(ns):
                cs, tdta = seg[1 + 2 * c : 3 + 2 * c]
                comp = next(
                    (x for x in frame["comps"] if x["id"] == cs), None
                )
                if comp is None:
                    raise ValueError(
                        f"corrupt JPEG: scan component id {cs} not in SOF"
                    )
                scan_comps.append((comp, tdta >> 4, tdta & 0xF))
            scan_start = pos + seglen
            if not progressive and not scans and ns == len(frame["comps"]):
                # single interleaved sequential scan: the common case,
                # decoded by the one-pass fast path
                segs, _end = _scan_segments(data, scan_start)
                return _decode_scan(
                    segs, frame, scan_comps, qtabs, huff_dc, huff_ac,
                    restart_interval,
                )
            # progressive (SOF2) or multi-scan sequential: accumulate
            # coefficients across scans. Huffman tables are snapshotted
            # PER SCAN (DHT between scans redefines table slots).
            ss, se = seg[1 + 2 * ns], seg[2 + 2 * ns]
            ah_al = seg[3 + 2 * ns]
            segs, end = _scan_segments(data, scan_start)
            scans.append(
                {
                    "comps": [
                        (comp, huff_dc.get(td), huff_ac.get(ta))
                        for comp, td, ta in scan_comps
                    ],
                    "ss": ss,
                    "se": se,
                    "ah": ah_al >> 4,
                    "al": ah_al & 0xF,
                    "segs": segs,
                    "dri": restart_interval,
                }
            )
            pos = end
            continue
        pos += seglen
    if scans:
        return _decode_multiscan(frame, qtabs, scans, progressive)
    raise ValueError("corrupt JPEG: no SOS marker")


def _scan_segments(data: bytes, start: int) -> tuple[list[bytes], int]:
    """-> (entropy-coded segments between restart markers, FF00-unstuffed;
    position of the 0xFF opening the scan-terminating marker)."""
    segs = []
    cur = start
    pos = start
    n = len(data)
    while pos + 1 < n:
        if data[pos] != 0xFF:
            pos += 1
            continue
        nxt = data[pos + 1]
        if nxt == 0x00:
            pos += 2
            continue
        if nxt == 0xFF:
            # T.81 B.1.1.2 fill run: the segment ends at the FIRST 0xFF;
            # the fills belong to the following marker's prefix (naively
            # skipping them one by one would leak 0xFF bytes into the
            # entropy bits)
            q = pos + 1
            while q < n and data[q] == 0xFF:
                q += 1
            if q >= n:
                break
            m = data[q]
            segs.append(data[cur:pos].replace(b"\xff\x00", b"\xff"))
            if 0xD0 <= m <= 0xD7:  # RSTn after fills
                pos = q + 1
                cur = pos
                continue
            return segs, q - 1
        segs.append(data[cur:pos].replace(b"\xff\x00", b"\xff"))
        if 0xD0 <= nxt <= 0xD7:  # RSTn: segment boundary, keep scanning
            pos += 2
            cur = pos
            continue
        return segs, pos  # EOI or any other marker ends the scan
    segs.append(data[cur:n].replace(b"\xff\x00", b"\xff"))
    return segs, n


def _decode_scan(segments, frame, scan_comps, qtabs, huff_dc, huff_ac, dri):
    h, w = frame["h"], frame["w"]
    if len(scan_comps) == 1:
        # non-interleaved single-component scan: MCU = one block, the
        # declared sampling factors don't shape the grid (spec A.2.2)
        scan_comps = [({**scan_comps[0][0], "h": 1, "v": 1}, scan_comps[0][1], scan_comps[0][2])]
        frame = {**frame, "comps": [scan_comps[0][0]]}
    max_h = max(c["h"] for c in frame["comps"])
    max_v = max(c["v"] for c in frame["comps"])
    mcu_w, mcu_h = 8 * max_h, 8 * max_v
    mcus_x = -(-w // mcu_w)
    mcus_y = -(-h // mcu_h)
    planes = {}
    for comp, _, _ in scan_comps:
        pw = mcus_x * 8 * comp["h"]
        ph = mcus_y * 8 * comp["v"]
        planes[comp["id"]] = np.zeros((ph, pw), dtype=np.float64)

    seg_idx = 0
    br = _BitReader(segments[0])
    pred = {comp["id"]: 0 for comp, _, _ in scan_comps}
    n_mcus = mcus_x * mcus_y
    for m in range(n_mcus):
        if dri and m and m % dri == 0:  # restart: next segment, reset DC
            seg_idx += 1
            if seg_idx >= len(segments):
                raise ValueError("corrupt JPEG: missing restart segment")
            br = _BitReader(segments[seg_idx])
            pred = {k: 0 for k in pred}
        my, mx = divmod(m, mcus_x)
        for comp, td, ta in scan_comps:
            dtab, atab = huff_dc[td], huff_ac[ta]
            qtab = qtabs[comp["tq"]]
            for bv in range(comp["v"]):
                for bh in range(comp["h"]):
                    coefs = np.zeros(64, dtype=np.int64)
                    t = dtab.decode(br)
                    diff = _extend(br.receive(t), t)
                    pred[comp["id"]] += diff
                    coefs[0] = pred[comp["id"]]
                    k = 1
                    while k < 64:
                        rs = atab.decode(br)
                        r, s = rs >> 4, rs & 0xF
                        if s == 0:
                            if r == 15:
                                k += 16  # ZRL
                                continue
                            break  # EOB
                        k += r
                        if k > 63:
                            raise ValueError("corrupt JPEG: AC index overrun")
                        coefs[k] = _extend(br.receive(s), s)
                        k += 1
                    blk = _idct_block(coefs, qtab)
                    y0 = (my * comp["v"] + bv) * 8
                    x0 = (mx * comp["h"] + bh) * 8
                    planes[comp["id"]][y0 : y0 + 8, x0 : x0 + 8] = blk

    out_planes = []
    for comp, _, _ in scan_comps:
        p = np.clip(np.rint(planes[comp["id"]] + 128.0), 0, 255)
        p = _upsample(p, max_h // comp["h"], max_v // comp["v"])
        out_planes.append(p[:h, :w])
    if len(out_planes) == 1:
        return out_planes[0].astype(np.uint8)
    return _ycbcr_to_rgb(*out_planes)


# ---------------------------------------------------------------------------
# multi-scan decode: coefficient accumulator shared by progressive (SOF2,
# T.81 Annex G) and multi-scan sequential (non-interleaved SOF0/1) files.
# Every scan writes into per-component zigzag coefficient arrays; the
# final assemble dequantizes + IDCTs all blocks at once.
# ---------------------------------------------------------------------------


def _comp_block_dims(frame, comp) -> tuple[int, int]:
    """Block grid of a NON-interleaved scan for `comp` (T.81 A.2.2): the
    component's own sampled dimensions, NOT padded to the MCU grid."""
    max_h = max(c["h"] for c in frame["comps"])
    max_v = max(c["v"] for c in frame["comps"])
    cw = -(-frame["w"] * comp["h"] // max_h)
    ch = -(-frame["h"] * comp["v"] // max_v)
    return -(-ch // 8), -(-cw // 8)


def _decode_seq_block(br, dtab, atab, blk, pred: int) -> int:
    """Full sequential block decode (DC diff + AC run-length) into blk."""
    t = dtab.decode(br)
    pred += _extend(br.receive(t), t)
    blk[0] = pred
    k = 1
    while k < 64:
        rs = atab.decode(br)
        r, s = rs >> 4, rs & 0xF
        if s == 0:
            if r == 15:
                k += 16
                continue
            break
        k += r
        if k > 63:
            raise ValueError("corrupt JPEG: AC index overrun")
        blk[k] = _extend(br.receive(s), s)
        k += 1
    return pred


def _decode_ac_first(br, atab, blk, ss, se, al, eobrun: int) -> int:
    """Progressive AC 'first' scan for one block (G.2.2); -> new eobrun."""
    if eobrun > 0:
        return eobrun - 1
    k = ss
    while k <= se:
        rs = atab.decode(br)
        r, s = rs >> 4, rs & 0xF
        if s == 0:
            if r == 15:
                k += 16  # ZRL
                continue
            # EOB run: this block is the first of (1<<r)+receive(r)
            return (1 << r) - 1 + (br.receive(r) if r else 0)
        k += r
        if k > se:
            raise ValueError("corrupt JPEG: AC index overrun")
        blk[k] = _extend(br.receive(s), s) << al
        k += 1
    return 0


def _decode_ac_refine(br, atab, blk, ss, se, al, eobrun: int) -> int:
    """Progressive AC refinement scan for one block (G.2.2 successive
    approximation correction algorithm, the libjpeg shape); -> eobrun."""
    p1 = 1 << al
    m1 = -p1
    k = ss
    if eobrun == 0:
        while k <= se:
            rs = atab.decode(br)
            r, s = rs >> 4, rs & 0xF
            if s == 0:
                if r != 15:
                    eobrun = (1 << r) + (br.receive(r) if r else 0)
                    break
                val = 0  # ZRL in a refinement scan: 16 zero-history coefs
            else:
                if s != 1:
                    raise ValueError("corrupt JPEG: refinement size != 1")
                val = p1 if br.read_bit() else m1
            # advance over r zero-HISTORY coefficients, emitting a
            # correction bit for every nonzero-history one passed
            while k <= se:
                c = int(blk[k])
                if c != 0:
                    if br.read_bit() and (c & p1) == 0:
                        blk[k] = c + (p1 if c >= 0 else m1)
                else:
                    if r == 0:
                        break
                    r -= 1
                k += 1
            if val and k <= se:
                blk[k] = val
            k += 1
    if eobrun > 0:
        # the EOB run still corrects every remaining nonzero coefficient
        while k <= se:
            c = int(blk[k])
            if c != 0 and br.read_bit() and (c & p1) == 0:
                blk[k] = c + (p1 if c >= 0 else m1)
            k += 1
        eobrun -= 1
    return eobrun


def _decode_multiscan(frame, qtabs, scans, progressive) -> np.ndarray:
    h, w = frame["h"], frame["w"]
    max_h = max(c["h"] for c in frame["comps"])
    max_v = max(c["v"] for c in frame["comps"])
    mcus_x = -(-w // (8 * max_h))
    mcus_y = -(-h // (8 * max_v))
    coefs = {
        c["id"]: np.zeros((mcus_y * c["v"], mcus_x * c["h"], 64), np.int64)
        for c in frame["comps"]
    }

    for scan in scans:
        ss, se = scan["ss"], scan["se"]
        ah, al = scan["ah"], scan["al"]
        dri = scan["dri"]
        segs = scan["segs"]
        interleaved = len(scan["comps"]) > 1
        if progressive and interleaved and not (ss == 0 and se == 0):
            raise ValueError("corrupt JPEG: interleaved progressive AC scan")
        # table snapshots may be None when a (corrupt) scan header
        # references a table slot no DHT defined — fail loudly here
        # instead of AttributeError-ing mid-block
        need_dc = (not progressive) or (ss == 0 and ah == 0)
        need_ac = (not progressive) or ss > 0
        for comp, dtab, atab in scan["comps"]:
            if (need_dc and dtab is None) or (need_ac and atab is None):
                raise ValueError(
                    "corrupt JPEG: scan references an undefined Huffman table"
                )
        br = _BitReader(segs[0])
        seg_idx = 0
        pred = {comp["id"]: 0 for comp, _, _ in scan["comps"]}
        eobrun = 0
        if interleaved:
            units = mcus_x * mcus_y
        else:
            comp = scan["comps"][0][0]
            nby, nbx = _comp_block_dims(frame, comp)
            units = nby * nbx
        for m in range(units):
            if dri and m and m % dri == 0:
                seg_idx += 1
                if seg_idx >= len(segs):
                    raise ValueError("corrupt JPEG: missing restart segment")
                br = _BitReader(segs[seg_idx])
                pred = {k: 0 for k in pred}
                eobrun = 0
            if interleaved:
                my, mx = divmod(m, mcus_x)
                for comp, dtab, atab in scan["comps"]:
                    arr = coefs[comp["id"]]
                    for bv in range(comp["v"]):
                        for bh in range(comp["h"]):
                            blk = arr[my * comp["v"] + bv, mx * comp["h"] + bh]
                            if not progressive:
                                pred[comp["id"]] = _decode_seq_block(
                                    br, dtab, atab, blk, pred[comp["id"]]
                                )
                            elif ah == 0:  # DC first
                                t = dtab.decode(br)
                                pred[comp["id"]] += _extend(br.receive(t), t)
                                blk[0] = pred[comp["id"]] << al
                            else:  # DC refinement: one bit per block
                                if br.read_bit():
                                    blk[0] = int(blk[0]) | (1 << al)
            else:
                comp, dtab, atab = scan["comps"][0]
                by, bx = divmod(m, nbx)
                blk = coefs[comp["id"]][by, bx]
                if not progressive:
                    pred[comp["id"]] = _decode_seq_block(
                        br, dtab, atab, blk, pred[comp["id"]]
                    )
                elif ss == 0:
                    if ah == 0:
                        t = dtab.decode(br)
                        pred[comp["id"]] += _extend(br.receive(t), t)
                        blk[0] = pred[comp["id"]] << al
                    else:
                        if br.read_bit():
                            blk[0] = int(blk[0]) | (1 << al)
                elif ah == 0:
                    eobrun = _decode_ac_first(br, atab, blk, ss, se, al, eobrun)
                else:
                    eobrun = _decode_ac_refine(br, atab, blk, ss, se, al, eobrun)

    out_planes = []
    for comp in frame["comps"]:
        p = np.clip(
            np.rint(_decode_coefs_to_plane(coefs[comp["id"]], qtabs[comp["tq"]])),
            0,
            255,
        )
        p = _upsample(p, max_h // comp["h"], max_v // comp["v"])
        out_planes.append(p[:h, :w])
    if len(out_planes) == 1:
        return out_planes[0].astype(np.uint8)
    return _ycbcr_to_rgb(*out_planes)


# ---------------------------------------------------------------------------
# encoder (fixture-grade: Annex K tables, 4:4:4 / 4:2:0)
# ---------------------------------------------------------------------------


class _BitWriter:
    def __init__(self):
        self.out = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, code: int, length: int) -> None:
        self.acc = (self.acc << length) | (code & ((1 << length) - 1))
        self.nbits += length
        while self.nbits >= 8:
            byte = (self.acc >> (self.nbits - 8)) & 0xFF
            self.out.append(byte)
            if byte == 0xFF:
                self.out.append(0x00)  # stuffing
            self.nbits -= 8
        self.acc &= (1 << self.nbits) - 1

    def flush(self) -> bytes:
        if self.nbits:
            pad = 8 - self.nbits
            self.write((1 << pad) - 1, pad)  # 1-fill per spec
        return bytes(self.out)


def _magnitude(v: int) -> tuple[int, int]:
    """signed value -> (category t, t-bit code)."""
    if v == 0:
        return 0, 0
    a = abs(v)
    t = a.bit_length()
    code = v if v > 0 else v + (1 << t) - 1
    return t, code


def _rgb_to_ycbcr(img: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    r = img[:, :, 0].astype(np.float64)
    g = img[:, :, 1].astype(np.float64)
    b = img[:, :, 2].astype(np.float64)
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0
    cr = 0.5 * r - 0.418688 * g - 0.081312 * b + 128.0
    return y, cb, cr


def _pad_to_block(p: np.ndarray, bw: int, bh: int) -> np.ndarray:
    h, w = p.shape
    ph = -(-h // bh) * bh
    pw = -(-w // bw) * bw
    if ph == h and pw == w:
        return p
    return np.pad(p, ((0, ph - h), (0, pw - w)), mode="edge")


def _encode_plane_blocks(plane: np.ndarray, qtab: np.ndarray) -> np.ndarray:
    """plane (multiple-of-8 dims) -> quantized zigzag coefs per block,
    shape (blocks_y, blocks_x, 64). Vectorized over blocks."""
    h, w = plane.shape
    by, bx = h // 8, w // 8
    blocks = plane.reshape(by, 8, bx, 8).transpose(0, 2, 1, 3) - 128.0
    f = np.einsum("un,yxnm,vm->yxuv", _A, blocks, _A)
    zz = f.reshape(by, bx, 64)[:, :, ZIGZAG]
    qz = qtab.reshape(-1)[ZIGZAG]
    return np.rint(zz / qz).astype(np.int64)


def _decode_coefs_to_plane(coefs: np.ndarray, qtab: np.ndarray) -> np.ndarray:
    """The forced-decode twin of _encode_plane_blocks: dequantize + IDCT
    every block back to a float plane (no rounding yet)."""
    by, bx, _ = coefs.shape
    dq = np.zeros((by, bx, 64), dtype=np.float64)
    dq[:, :, ZIGZAG] = coefs * qtab.reshape(-1)[ZIGZAG]
    f = dq.reshape(by, bx, 8, 8)
    blocks = np.einsum("un,yxuv,vm->yxnm", _A, f, _A)  # A.T @ F @ A per block
    return blocks.transpose(0, 2, 1, 3).reshape(by * 8, bx * 8) + 128.0


def _entropy_encode(
    comp_blocks: list[tuple[np.ndarray, int]],
    mcus_x: int,
    mcus_y: int,
    factors: list[tuple[int, int]],
) -> bytes:
    """MCU-interleaved baseline entropy coding. comp_blocks[i] =
    (coefs (by, bx, 64), table_class) where table_class 0 = luma tables,
    1 = chroma tables."""
    dc_codes = [_build_codes(*_DC_LUMA), _build_codes(*_DC_CHROMA)]
    ac_codes = [_build_codes(*_AC_LUMA), _build_codes(*_AC_CHROMA)]
    bw = _BitWriter()
    pred = [0] * len(comp_blocks)
    for m in range(mcus_x * mcus_y):
        my, mx = divmod(m, mcus_x)
        for ci, (coefs, tclass) in enumerate(comp_blocks):
            fh, fv = factors[ci]
            for bv in range(fv):
                for bh in range(fh):
                    blk = coefs[my * fv + bv, mx * fh + bh]
                    diff = int(blk[0]) - pred[ci]
                    pred[ci] = int(blk[0])
                    t, code = _magnitude(diff)
                    hc, hl = dc_codes[tclass][t]
                    bw.write(hc, hl)
                    if t:
                        bw.write(code, t)
                    run = 0
                    nz = np.flatnonzero(blk[1:])
                    last = nz[-1] + 1 if len(nz) else 0
                    for k in range(1, last + 1):
                        v = int(blk[k])
                        if v == 0:
                            run += 1
                            continue
                        while run > 15:
                            hc, hl = ac_codes[tclass][0xF0]
                            bw.write(hc, hl)
                            run -= 16
                        t, code = _magnitude(v)
                        hc, hl = ac_codes[tclass][(run << 4) | t]
                        bw.write(hc, hl)
                        bw.write(code, t)
                        run = 0
                    if last < 63:
                        hc, hl = ac_codes[tclass][0x00]
                        bw.write(hc, hl)
    return bw.flush()


def _dht_segment() -> bytes:
    payload = b""
    for tc, th, (bits, vals) in (
        (0, 0, _DC_LUMA),
        (1, 0, _AC_LUMA),
        (0, 1, _DC_CHROMA),
        (1, 1, _AC_CHROMA),
    ):
        payload += bytes([(tc << 4) | th]) + bytes(bits) + bytes(vals)
    return b"\xff\xc4" + struct.pack(">H", len(payload) + 2) + payload


def _prepare_components(img: np.ndarray, quality: int, subsample: bool):
    """Shared encoder front half: pixels -> quantized per-component
    coefficient blocks + layout. -> (comp_blocks, factors, tclasses,
    qmap, mcus_x, mcus_y, gray, h, w, qy, qc)."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    gray = img.ndim == 2
    if not gray and (img.ndim != 3 or img.shape[2] != 3):
        raise ValueError("jpeg_encode supports gray (H,W) or RGB (H,W,3)")
    h, w = img.shape[:2]
    qy, qc = _quality_tables(quality)

    if gray:
        factors = [(1, 1)]
        planes = [img.astype(np.float64)]
        tclasses = [0]
        qmap = [qy]
    else:
        y, cb, cr = _rgb_to_ycbcr(img)
        if subsample:
            factors = [(2, 2), (1, 1), (1, 1)]
            # box 2x2 chroma average over edge-padded planes
            cbp = _pad_to_block(cb, 2, 2)
            crp = _pad_to_block(cr, 2, 2)
            cb = cbp.reshape(cbp.shape[0] // 2, 2, cbp.shape[1] // 2, 2).mean(axis=(1, 3))
            cr = crp.reshape(crp.shape[0] // 2, 2, crp.shape[1] // 2, 2).mean(axis=(1, 3))
        else:
            factors = [(1, 1), (1, 1), (1, 1)]
        planes = [y, cb, cr]
        tclasses = [0, 1, 1]
        qmap = [qy, qc, qc]

    max_h = max(f[0] for f in factors)
    max_v = max(f[1] for f in factors)
    mcus_x = -(-w // (8 * max_h))
    mcus_y = -(-h // (8 * max_v))

    comp_blocks = []
    for p, (fh, fv), q in zip(planes, factors, qmap):
        # pad exactly to the MCU grid for this component
        ph, pw = 8 * mcus_y * fv, 8 * mcus_x * fh
        cur_h, cur_w = p.shape
        padded = (
            np.pad(p, ((0, ph - cur_h), (0, pw - cur_w)), mode="edge")
            if (ph != cur_h or pw != cur_w)
            else p
        )
        comp_blocks.append(_encode_plane_blocks(padded, q))
    return comp_blocks, factors, tclasses, qmap, mcus_x, mcus_y, gray, h, w, qy, qc


def _expected_decode(comp_blocks, factors, qmap, gray, h, w):
    """The mathematically-forced decode of the exact coefficients."""
    max_h = max(f[0] for f in factors)
    max_v = max(f[1] for f in factors)
    rec = []
    for coefs, (fh, fv), q in zip(comp_blocks, factors, qmap):
        p = np.clip(np.rint(_decode_coefs_to_plane(coefs, q)), 0, 255)
        rec.append(_upsample(p, max_h // fh, max_v // fv)[:h, :w])
    if gray:
        return rec[0].astype(np.uint8)
    return _ycbcr_to_rgb(*rec)


def jpeg_encode(
    img: np.ndarray,
    quality: int = 85,
    subsample: bool = False,
    return_expected: bool = False,
):
    """uint8 gray (H, W) or RGB (H, W, 3) -> baseline JPEG bytes.
    `subsample=True` writes 4:2:0 chroma (RGB only). With
    `return_expected=True` also returns the mathematically-forced decode
    of the exact coefficients written (what any correct baseline decoder
    must output, given this module's float64 IDCT + JFIF color math)."""
    (comp_blocks, factors, tclasses, qmap, mcus_x, mcus_y, gray, h, w,
     qy, qc) = _prepare_components(img, quality, subsample)

    scan = _entropy_encode(
        list(zip(comp_blocks, tclasses)), mcus_x, mcus_y, factors
    )

    # --- headers -----------------------------------------------------------
    def dqt(tq: int, tab: np.ndarray) -> bytes:
        zz = tab.reshape(-1)[ZIGZAG]
        return (
            b"\xff\xdb"
            + struct.pack(">H", 67)
            + bytes([tq])
            + bytes(int(x) for x in zz)
        )

    ncomp = 1 if gray else 3
    sof = b"\xff\xc0" + struct.pack(">HBHHB", 8 + 3 * ncomp, 8, h, w, ncomp)
    sos_comp = b""
    for ci in range(ncomp):
        fh, fv = factors[ci]
        tq = 0 if tclasses[ci] == 0 else 1
        sof += bytes([ci + 1, (fh << 4) | fv, tq])
        td = ta = tclasses[ci]
        sos_comp += bytes([ci + 1, (td << 4) | ta])
    sos = (
        b"\xff\xda"
        + struct.pack(">HB", 6 + 2 * ncomp, ncomp)
        + sos_comp
        + b"\x00\x3f\x00"
    )
    head = b"\xff\xd8" + dqt(0, qy)
    if not gray:
        head += dqt(1, qc)
    head += sof + _dht_segment() + sos
    blob = head + scan + b"\xff\xd9"

    if not return_expected:
        return blob
    return blob, _expected_decode(comp_blocks, factors, qmap, gray, h, w)


# ---------------------------------------------------------------------------
# progressive encoder (fixture-grade, T.81 Annex G): DC + per-component AC
# scans with ONE successive-approximation level (Al=1 first scans, Ah=1
# Al=0 refinement scans) — exercises all four progressive decode modes.
# Emits the SAME quantized coefficients as jpeg_encode, so the progressive
# stream's decode is bit-identical to the baseline stream's.
# ---------------------------------------------------------------------------

# custom AC table for progressive scans: the Annex K tables lack the
# EOB-run symbols (r<<4 for r=1..14), so a flat 8-bit canonical table
# carrying ALL 176 AC symbols (EOBn, ZRL, every (run, size)) is emitted
# instead — poor compression, complete coverage (fixtures are tiny)
_AC_PROG = (
    [0, 0, 0, 0, 0, 0, 0, 176, 0, 0, 0, 0, 0, 0, 0, 0],
    [r << 4 for r in range(15)]  # EOB0..EOB14
    + [0xF0]  # ZRL
    + [(r << 4) | s for r in range(16) for s in range(1, 11)],
)


def _emit_eobrun(bw, ac_codes, eobrun: int, bits: list[int]) -> tuple[int, list[int]]:
    """Flush a pending EOB run + its buffered correction bits."""
    if eobrun > 0:
        nbits = eobrun.bit_length() - 1
        hc, hl = ac_codes[nbits << 4]
        bw.write(hc, hl)
        if nbits:
            bw.write(eobrun & ((1 << nbits) - 1), nbits)
        for b in bits:
            bw.write(b, 1)
        return 0, []
    return eobrun, bits


def _encode_dc_scan(comp_blocks, factors, mcus_x, mcus_y, tclasses, al, refine):
    dc_codes = [_build_codes(*_DC_LUMA), _build_codes(*_DC_CHROMA)]
    bw = _BitWriter()
    pred = [0] * len(comp_blocks)
    for m in range(mcus_x * mcus_y):
        my, mx = divmod(m, mcus_x)
        for ci, coefs in enumerate(comp_blocks):
            fh, fv = factors[ci]
            for bv in range(fv):
                for bh in range(fh):
                    dc = int(coefs[my * fv + bv, mx * fh + bh, 0])
                    if refine:
                        bw.write((dc >> al) & 1, 1)
                        continue
                    v = dc >> al  # arithmetic shift (G.1.2.1 point transform)
                    diff = v - pred[ci]
                    pred[ci] = v
                    t, code = _magnitude(diff)
                    hc, hl = dc_codes[tclasses[ci]][t]
                    bw.write(hc, hl)
                    if t:
                        bw.write(code, t)
    return bw.flush()


def _encode_ac_first_scan(coefs, ac_codes, ss, se, al) -> bytes:
    bw = _BitWriter()
    by, bx, _ = coefs.shape
    eobrun = 0
    for b in range(by * bx):
        blk = coefs[b // bx, b % bx]
        r = 0
        wrote = False
        for k in range(ss, se + 1):
            v = int(blk[k])
            mag = (abs(v) >> al)  # AC point transform: magnitude shift
            if mag == 0:
                r += 1
                continue
            eobrun, _ = _emit_eobrun(bw, ac_codes, eobrun, [])
            while r > 15:
                hc, hl = ac_codes[0xF0]
                bw.write(hc, hl)
                r -= 16
            t = mag.bit_length()
            code = mag if v > 0 else (1 << t) - 1 - mag
            hc, hl = ac_codes[(r << 4) | t]
            bw.write(hc, hl)
            bw.write(code, t)
            r = 0
            wrote = True
        if r > 0 or not wrote:
            eobrun += 1
            if eobrun == 0x7FFF:
                eobrun, _ = _emit_eobrun(bw, ac_codes, eobrun, [])
    _emit_eobrun(bw, ac_codes, eobrun, [])
    return bw.flush()


def _encode_ac_refine_scan(coefs, ac_codes, ss, se, al) -> bytes:
    """G.2.2 successive-approximation AC refinement (the libjpeg
    encode_mcu_AC_refine shape: buffered correction bits attach to the
    next emitted symbol or ride the EOB run)."""
    bw = _BitWriter()
    by, bx, _ = coefs.shape
    eobrun = 0
    ebits: list[int] = []  # correction bits buffered onto the EOB run
    for b in range(by * bx):
        blk = coefs[b // bx, b % bx]
        absv = [abs(int(blk[k])) >> al for k in range(ss, se + 1)]
        eob = 0  # 1-based position (in ss..se) of last NEWLY-nonzero coef
        for i, t in enumerate(absv):
            if t == 1:
                eob = i + 1
        r = 0
        brbits: list[int] = []
        for i, t in enumerate(absv):
            if t == 0:
                r += 1
                continue
            while r > 15 and i < eob:
                eobrun, ebits = _emit_eobrun(bw, ac_codes, eobrun, ebits)
                hc, hl = ac_codes[0xF0]
                bw.write(hc, hl)
                r -= 16
                for bit in brbits:
                    bw.write(bit, 1)
                brbits = []
            if t > 1:
                # history coefficient: just a correction bit
                brbits.append(t & 1)
                continue
            eobrun, ebits = _emit_eobrun(bw, ac_codes, eobrun, ebits)
            hc, hl = ac_codes[(r << 4) | 1]
            bw.write(hc, hl)
            bw.write(1 if int(blk[ss + i]) >= 0 else 0, 1)
            for bit in brbits:
                bw.write(bit, 1)
            brbits = []
            r = 0
        if r > 0 or brbits:
            eobrun += 1
            ebits.extend(brbits)
            if eobrun == 0x7FFF or len(ebits) > 900:
                eobrun, ebits = _emit_eobrun(bw, ac_codes, eobrun, ebits)
    _emit_eobrun(bw, ac_codes, eobrun, ebits)
    return bw.flush()


def jpeg_encode_progressive(
    img: np.ndarray,
    quality: int = 85,
    subsample: bool = False,
    return_expected: bool = False,
):
    """uint8 gray/RGB -> PROGRESSIVE JPEG bytes (SOF2), same quantized
    coefficients as `jpeg_encode` — a correct progressive decoder must
    produce EXACTLY the baseline stream's decode. Scan script: DC first
    (interleaved, Al=1), per-component AC first (1..63, Al=1), DC
    refinement (Ah=1), per-component AC refinement (Ah=1) — all four
    Annex G decode modes."""
    (comp_blocks, factors, tclasses, qmap, mcus_x, mcus_y, gray, h, w,
     qy, qc) = _prepare_components(img, quality, subsample)
    ncomp = 1 if gray else 3
    ac_codes = _build_codes(*_AC_PROG)

    def dqt(tq: int, tab: np.ndarray) -> bytes:
        zz = tab.reshape(-1)[ZIGZAG]
        return b"\xff\xdb" + struct.pack(">H", 67) + bytes([tq]) + bytes(
            int(x) for x in zz
        )

    sof = b"\xff\xc2" + struct.pack(">HBHHB", 8 + 3 * ncomp, 8, h, w, ncomp)
    for ci in range(ncomp):
        fh, fv = factors[ci]
        sof += bytes([ci + 1, (fh << 4) | fv, tclasses[ci]])

    # DHT: standard DC tables + the flat progressive AC table in both slots
    dht = b""
    for tc, th, (bits, vals) in (
        (0, 0, _DC_LUMA),
        (0, 1, _DC_CHROMA),
        (1, 0, _AC_PROG),
        (1, 1, _AC_PROG),
    ):
        payload = bytes([(tc << 4) | th]) + bytes(bits) + bytes(vals)
        dht += b"\xff\xc4" + struct.pack(">H", len(payload) + 2) + payload

    def sos(comp_ids: list[int], ss: int, se: int, ah: int, al: int) -> bytes:
        body = bytes([len(comp_ids)])
        for cid in comp_ids:
            td = tclasses[cid - 1]
            ta = tclasses[cid - 1]
            body += bytes([cid, (td << 4) | ta])
        body += bytes([ss, se, (ah << 4) | al])
        return b"\xff\xda" + struct.pack(">H", len(body) + 2) + body

    out = bytearray(b"\xff\xd8" + dqt(0, qy))
    if not gray:
        out += dqt(1, qc)
    out += sof + dht
    all_ids = list(range(1, ncomp + 1))
    # scan 1: DC first, Al=1, interleaved
    out += sos(all_ids, 0, 0, 0, 1)
    out += _encode_dc_scan(comp_blocks, factors, mcus_x, mcus_y, tclasses, 1, False)
    # scans 2..: AC first per component, Al=1
    for ci in range(ncomp):
        out += sos([ci + 1], 1, 63, 0, 1)
        out += _encode_ac_first_scan(
            _noninterleaved_blocks(comp_blocks[ci], factors[ci], factors, h, w),
            ac_codes, 1, 63, 1,
        )
    # DC refinement, Ah=1 Al=0
    out += sos(all_ids, 0, 0, 1, 0)
    out += _encode_dc_scan(comp_blocks, factors, mcus_x, mcus_y, tclasses, 0, True)
    # AC refinement per component, Ah=1 Al=0
    for ci in range(ncomp):
        out += sos([ci + 1], 1, 63, 1, 0)
        out += _encode_ac_refine_scan(
            _noninterleaved_blocks(comp_blocks[ci], factors[ci], factors, h, w),
            ac_codes, 1, 63, 0,
        )
    out += b"\xff\xd9"
    blob = bytes(out)
    if not return_expected:
        return blob
    return blob, _expected_decode(comp_blocks, factors, qmap, gray, h, w)


def jpeg_encode_multiscan(
    img: np.ndarray,
    quality: int = 85,
    subsample: bool = False,
    return_expected: bool = False,
):
    """uint8 gray/RGB -> MULTI-SCAN SEQUENTIAL JPEG (SOF0, one
    non-interleaved scan per component, T.81 A.2.2) — the spec-valid
    layout the decoder previously refused. Same quantized coefficients
    as `jpeg_encode`; decode must be bit-identical to the interleaved
    stream's (up to the MCU-padding blocks, which only cover cropped
    pixels)."""
    (comp_blocks, factors, tclasses, qmap, mcus_x, mcus_y, gray, h, w,
     qy, qc) = _prepare_components(img, quality, subsample)
    ncomp = 1 if gray else 3
    dc_codes = [_build_codes(*_DC_LUMA), _build_codes(*_DC_CHROMA)]
    ac_codes = [_build_codes(*_AC_LUMA), _build_codes(*_AC_CHROMA)]

    def dqt(tq: int, tab: np.ndarray) -> bytes:
        zz = tab.reshape(-1)[ZIGZAG]
        return b"\xff\xdb" + struct.pack(">H", 67) + bytes([tq]) + bytes(
            int(x) for x in zz
        )

    sof = b"\xff\xc0" + struct.pack(">HBHHB", 8 + 3 * ncomp, 8, h, w, ncomp)
    for ci in range(ncomp):
        fh, fv = factors[ci]
        sof += bytes([ci + 1, (fh << 4) | fv, tclasses[ci]])
    out = bytearray(b"\xff\xd8" + dqt(0, qy))
    if not gray:
        out += dqt(1, qc)
    out += sof + _dht_segment()
    for ci in range(ncomp):
        tclass = tclasses[ci]
        coefs = _noninterleaved_blocks(comp_blocks[ci], factors[ci], factors, h, w)
        bw = _BitWriter()
        pred = 0
        by, bx, _ = coefs.shape
        for b in range(by * bx):
            blk = coefs[b // bx, b % bx]
            diff = int(blk[0]) - pred
            pred = int(blk[0])
            t, code = _magnitude(diff)
            hc, hl = dc_codes[tclass][t]
            bw.write(hc, hl)
            if t:
                bw.write(code, t)
            run = 0
            nz = np.flatnonzero(blk[1:])
            last = nz[-1] + 1 if len(nz) else 0
            for k in range(1, last + 1):
                v = int(blk[k])
                if v == 0:
                    run += 1
                    continue
                while run > 15:
                    hc, hl = ac_codes[tclass][0xF0]
                    bw.write(hc, hl)
                    run -= 16
                t, code = _magnitude(v)
                hc, hl = ac_codes[tclass][(run << 4) | t]
                bw.write(hc, hl)
                bw.write(code, t)
                run = 0
            if last < 63:
                hc, hl = ac_codes[tclass][0x00]
                bw.write(hc, hl)
        td = ta = tclass
        out += (
            b"\xff\xda"
            + struct.pack(">HB", 8, 1)
            + bytes([ci + 1, (td << 4) | ta])
            + b"\x00\x3f\x00"
        )
        out += bw.flush()
    out += b"\xff\xd9"
    blob = bytes(out)
    if not return_expected:
        return blob
    return blob, _expected_decode(comp_blocks, factors, qmap, gray, h, w)


def _noninterleaved_blocks(coefs, factor, factors, h, w):
    """Trim a component's MCU-padded block array to its NON-interleaved
    scan grid — computed by the SAME `_comp_block_dims` the decoder uses
    (T.81 A.2.2: ceil of the component's own sampled dims), so the
    encoder/decoder grids cannot drift apart."""
    fh, fv = factor
    frame = {
        "h": h,
        "w": w,
        "comps": [{"h": a, "v": b} for a, b in factors],
    }
    nby, nbx = _comp_block_dims(frame, {"h": fh, "v": fv})
    return coefs[:nby, :nbx]
