"""FSST-style string compression: a per-partition symbol table of byte
sequences, each occurrence replaced by a 1-byte code.

Follows the public FSST design (Boncz, Neumann, Leis — "FSST: Fast Random
Access String Compression", VLDB 2020): up to 254 symbols, one reserved
escape code; bytes not covered by the table are emitted as escapes. Three
deviations, all for vectorizability in Python/numpy (the paper gets its
speed from an AVX512 kernel; a Python per-match loop was measured at
~2 MB/s/core — unusable):

- symbols are 1 or 2 bytes and 2-byte symbols match only at EVEN offsets
  of the buffer, so encode is a single uint16-view table lookup plus a
  cumsum scatter — no sequential longest-match scan. (The paper's general
  8-byte symbols compress denser; aligned pairs trade ~10-15 % ratio for
  a ~100x vectorized encoder. The DECODER still accepts any symbol
  lengths, so the format is unchanged and old blobs stay readable.)
- escaped literal bytes go to a *side stream* (code 0xFF in the code stream
  means "take the next byte from the exceptions stream"), which removes the
  sequential escape-pair scan from the decoder;
- the whole concatenated string buffer of a partition is compressed as one
  stream (symbols may span string boundaries); per-string offsets are
  reconstructed from the separately-encoded length column, so random access
  is per-partition, matching the engine's partition-as-coded-unit model
  (the reference's blob-per-tile unit, /root/reference/src/band_decoder.cpp:185-224).

The symbol table is trained deterministically on a prefix sample of the
partition's buffer and serialized inside the blob; its sha256 is recorded
in the manifest (`fsst_symbol_table_hash`).

Round-trip bit-identity is property-tested for arbitrary bytes (including
0xFF literals).
"""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np

ESCAPE = 255
MAX_SYMBOLS = 254  # codes 0..253
_TRAIN_SAMPLE = 64 * 1024


class SymbolTable:
    """Immutable trained symbol table; build via :func:`train`."""

    def __init__(self, symbols: list[bytes]):
        assert len(symbols) <= MAX_SYMBOLS
        self.symbols = symbols
        self.code_of = {s: i for i, s in enumerate(symbols)}
        # encode-side vectorized lookup tables: pair value -> code (65536
        # entries) and single byte -> code (256 entries); ESCAPE = absent.
        # Built lazily-free: ~64 KB per table, once per trained partition.
        self._pair_lut = np.full(65536, ESCAPE, dtype=np.uint8)
        self._byte_lut = np.full(256, ESCAPE, dtype=np.uint8)
        for i, s in enumerate(symbols):
            if len(s) == 2:
                self._pair_lut[s[0] | (s[1] << 8)] = i  # little-endian u16 view
            elif len(s) == 1:
                self._byte_lut[s[0]] = i
        # decode-side lookup arrays
        symflat = b"".join(symbols)
        lens = np.ones(256, dtype=np.int64)
        starts = np.zeros(256, dtype=np.int64)
        pos = 0
        for i, s in enumerate(symbols):
            lens[i] = len(s)
            starts[i] = pos
            pos += len(s)
        self._symflat = symflat
        self._lens = lens
        self._starts = starts

    # -- serialization ------------------------------------------------------
    def serialize(self) -> bytes:
        head = bytes([len(self.symbols)]) + bytes(len(s) for s in self.symbols)
        return head + self._symflat

    @classmethod
    def deserialize(cls, data: bytes) -> tuple["SymbolTable", int]:
        n = data[0]
        lens = list(data[1 : 1 + n])
        pos = 1 + n
        symbols = []
        for ln in lens:
            symbols.append(data[pos : pos + ln])
            pos += ln
        return cls(symbols), pos

    def sha256(self) -> str:
        return "sha256:" + hashlib.sha256(self.serialize()).hexdigest()

    # -- codec --------------------------------------------------------------
    def encode(self, data: bytes) -> tuple[bytes, bytes]:
        """-> (code stream, exceptions stream). Fully vectorized: pair
        lookup on the even-aligned uint16 view, then a cumsum scatter
        builds the variable-width code stream."""
        n = len(data)
        if n == 0:
            return b"", b""
        a = np.frombuffer(data, dtype=np.uint8)
        even = a[: (n // 2) * 2]
        pair_codes = self._pair_lut[even.view("<u2")]  # (cells,)
        matched = pair_codes != ESCAPE
        # per-cell output width: 1 byte (pair code) or 2 bytes (two
        # single-byte codes / escapes)
        out_len = np.where(matched, np.int64(1), np.int64(2))
        pos = np.empty(len(out_len) + 1, dtype=np.int64)
        pos[0] = 0
        np.cumsum(out_len, out=pos[1:])
        total = int(pos[-1])
        out = np.empty(total + (n & 1), dtype=np.uint8)
        out[pos[:-1][matched]] = pair_codes[matched]
        nm = ~matched
        cells = even.reshape(-1, 2)[nm]  # (k, 2) literal bytes
        bcodes = self._byte_lut[cells]  # (k, 2) codes or ESCAPE
        npos = pos[:-1][nm]
        out[npos] = bcodes[:, 0]
        out[npos + 1] = bcodes[:, 1]
        # exceptions: literal bytes at ESCAPE slots, in code-stream order
        # (row-major over non-matching cells == linear scan order)
        exc = cells[bcodes == ESCAPE]
        if n & 1:  # odd tail byte: one single-byte code or escape
            tail = int(a[-1])
            tc = int(self._byte_lut[tail])
            out[total] = tc
            if tc == ESCAPE:
                exc = np.concatenate([exc, np.array([tail], dtype=np.uint8)])
        return out.tobytes(), exc.tobytes()

    def decode(self, codes: bytes, exceptions: bytes) -> bytes:
        if not codes:
            return b""
        arr = np.frombuffer(codes, dtype=np.uint8)
        lens = self._lens[arr]
        starts = self._starts[arr].copy()
        is_esc = arr == ESCAPE
        n_esc = int(is_esc.sum())
        if n_esc:
            esc_rank = np.cumsum(is_esc) - 1
            starts[is_esc] = len(self._symflat) + esc_rank[is_esc]
            lens[is_esc] = 1
        buf = np.frombuffer(self._symflat + exceptions, dtype=np.uint8)
        out_starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
        total = int(out_starts[-1] + lens[-1]) if len(lens) else 0
        idx = np.repeat(starts - out_starts, lens) + np.arange(total, dtype=np.int64)
        return buf[idx].tobytes()


def train(sample: bytes, max_symbols: int = MAX_SYMBOLS) -> SymbolTable:
    """Deterministically train a symbol table on a byte sample (vectorized:
    one np.unique over the even-aligned pair view + one bincount).

    Gain model matches the aligned-pair encoder: a pair symbol occurring f
    times (at even offsets) turns 2 bytes into 1 (saves f); a single-byte
    symbol turns an escape (2 output bytes) into 1 code (saves f). Ties
    broken by symbol bytes, so the result is a pure function of the sample
    (bit-identity across resumed runs — SURVEY.md §7 hard-part 1)."""
    sample = sample[:_TRAIN_SAMPLE]
    n = len(sample)
    if n == 0:
        return SymbolTable([])
    a = np.frombuffer(sample, dtype=np.uint8)
    scores: Counter = Counter()
    even = a[: (n // 2) * 2]
    if len(even):
        pairs, counts = np.unique(even.view("<u2"), return_counts=True)
        for p, f in zip(pairs.tolist(), counts.tolist()):
            if f >= 2:
                scores[bytes([p & 0xFF, p >> 8])] = f
    bc = np.bincount(a, minlength=256)
    for b in np.flatnonzero(bc).tolist():
        scores[bytes([b])] = int(bc[b])
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    symbols = [s for s, _ in ranked[:max_symbols]]
    return SymbolTable(symbols)


# ---------------------------------------------------------------------------
# blob-level API used by blockcodec: blob = [table | lens | codes | exceptions]
# ---------------------------------------------------------------------------


def encode_bytes(data: bytes) -> tuple[bytes, dict]:
    if not isinstance(data, bytes):
        data = bytes(data)  # training/coding index by hashed byte windows
    table = train(data)
    codes, exceptions = table.encode(data)
    tbl = table.serialize()
    desc = {
        "codec": "fsst",
        "raw_size": len(data),
        "sections": [len(tbl), len(codes), len(exceptions)],
        "table_hash": table.sha256(),
    }
    return tbl + codes + exceptions, desc


def decode_bytes(blob: bytes, desc: dict) -> bytes:
    s0, s1, s2 = desc["sections"]
    table, _ = SymbolTable.deserialize(bytes(blob[:s0]))  # hashable symbols
    codes = blob[s0 : s0 + s1]
    exceptions = blob[s0 + s1 : s0 + s1 + s2]
    return table.decode(codes, exceptions)
