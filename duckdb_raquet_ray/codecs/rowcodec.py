"""Per-row-adaptive list-child codec: frame-of-reference at ROW granularity.

The engine's coded unit is a partition, but token sequences have per-ROW
structure a partition-wide codec can't see: one row draws from a narrow id
band, the next is a run stream, the next a small per-document alphabet
(the reference re-encodes each TILE with its own scale/offset for the same
reason — /root/reference/src/band_encoder.cpp:48-145; our rows are the
tile analogue inside a partition). ``for_rows``:

  1. per-row min/max over the child plane (one ``np.minimum.reduceat``
     pass using the list offsets; empty rows excluded),
  2. per-row FOR: residual = value - row_base (modular at plane width),
  3. rows are bucketed by residual byte width w ∈ {0, 1, 2, 4, 8}
     (w=0: constant/empty rows — zero payload bytes),
  4. each bucket's residuals are gathered into one contiguous stream at
     its native width and coded with ``for_bss`` (byte-stream-split +
     zstd), so narrow rows cost 1 byte/token instead of the partition-wide
     width and run rows collapse inside zstd,
  5. the per-row bases (one plane) and width codes (uint8, RLE-friendly)
     are coded with the regular plane codecs.

Measured on the F1 token mixture: 6-7 % smaller than partition-wide
``for_bss`` at comparable encode speed. Everything is vectorized
(reduceat / repeat / boolean gathers); decode needs the row lengths,
which the enclosing list codec already stores, so the descriptor is only
valid as a list child — ``blockcodec.decode_list`` dispatches it.

Round-trip is bit-exact for every input (property-tested alongside the
plane codecs).
"""

from __future__ import annotations

import numpy as np

from . import general, intcodec, scratch

_WIDTH_OF_CODE = {1: 1, 2: 2, 3: 4, 4: 8}
_CODE_OF_WIDTH = {1: 1, 2: 2, 4: 3, 8: 4}
_NP_OF_WIDTH = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}

# row code 5: partition-global dictionary bucket. Per-row FOR DESTROYS
# shared-alphabet structure — rows drawing from one partition-wide alphabet
# get shifted by their own bases, so identical alphabets land on different
# residuals and zstd can't align them. Rows whose values all fall in a
# small set of partition-hot values are coded as dictionary INDICES against
# one shared table instead (the reference's per-overview shared-transformer
# reuse, read_raster.cpp:273-286, as a value dictionary).
DICT_CODE = 5
_DICT_MAX_PLANE = 1 << 20  # bincount/LUT domain bound (token ids are ~50k)
_DICT_MAX_CARD = 4096
_DICT_MIN_REPEATS = 4  # a dict value must repeat at least this often


def row_ranges(plane: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (base bit pattern, modular range) in one reduceat pass.

    ``offsets`` has len(rows)+1 entries over the flattened child. Empty
    rows get base=0, range=0. reduceat runs over the starts of NON-empty
    rows only: the segment from one non-empty start to the next spans
    exactly that row (interleaved empty rows contribute no elements)."""
    lengths = np.diff(offsets)
    rows = len(lengths)
    bases = np.zeros(rows, dtype=plane.dtype)
    ranges = np.zeros(rows, dtype=plane.dtype)
    ne = lengths > 0
    if ne.any():
        starts = offsets[:-1][ne]
        mins = np.minimum.reduceat(plane, starts)
        maxs = np.maximum.reduceat(plane, starts)
        bases[ne] = mins
        ranges[ne] = maxs - mins  # modular diff == true unsigned magnitude
    return bases, ranges


def fill_rowwise(per_row: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``out[k] = per_row[row containing k]``, as ``np.repeat`` by the row
    lengths: one write pass over a fresh plane of per_row's dtype (~6x
    faster than zero + diff scatter + cumsum into a scratch plane). The
    fresh allocation costs no page faults on the stages' workers:
    ``util.retain_heap`` keeps freed blocks mapped, so it reuses them."""
    return np.repeat(per_row, lengths)


def _encode_bucket(narrow: np.ndarray) -> tuple[bytes, dict]:
    """Lean for_bss for an already-narrowed residual bucket: base 0 (row
    bases absorbed the frame), byte-stream-split via scratch, zstd straight
    from the scratch buffer — zero fresh allocations besides the compressed
    output. Descriptor-compatible with intcodec.decode_for_bss."""
    streams = intcodec.split_streams(narrow)
    z = general.compress(streams)
    return z, {
        "codec": "for_bss",
        "n": len(narrow),
        "base": 0,
        "byte_width": narrow.dtype.itemsize,
        "pw": narrow.dtype.itemsize,
        "general": general.DEFAULT_GENERAL,
        "raw_size": int(np.asarray(streams).nbytes),
    }


def _detect_dict(plane, bases, ranges, codes, offsets, n, rows, pw):
    """Find a partition-global value table and re-class rows fully covered
    by it (and wider than its 1-byte code) to DICT_CODE, mutating
    ``codes`` in place. Returns (sorted table values | None, code width,
    gathered values | None).

    Two-stage, so it works both when a shared alphabet coexists with a
    diverse background (top-K candidates separate them) AND when the whole
    partition IS the alphabet (coverage then selects every row):

      1. candidates = the top-_DICT_MAX_CARD values by occurrence count
         (deterministic tie-break by value), floored at 4 repeats;
      2. rows of width >= 2 bytes whose values ALL fall in the candidate
         set are eligible; the FINAL table is exactly the distinct values
         those rows use — accepted only if its cardinality fits 1-byte
         codes (256), which also guarantees every eligible row wins
         (1 byte/token vs its >= 2).

    The third value returned is the eligible rows' values in row order:
    those rows are exactly the dict bucket, so encode codes them without
    a second gather over the plane.

    Domain-bounded to 2^20 bit patterns (token ids) so the bincount/LUT
    stay a few MB; signed-negative planes fall outside the bound and
    skip. The planner's trial-encode hint gates these passes entirely for
    dict-less data."""
    if n == 0 or rows == 0 or pw > 4:
        return None, 0, None
    gmax = int(np.max(bases.astype(np.uint64) + ranges.astype(np.uint64))) if rows else 0
    if gmax >= _DICT_MAX_PLANE:
        return None, 0, None
    p64 = scratch.arr("rc.p64", n, np.int64)
    np.copyto(p64, plane, casting="unsafe")
    counts = np.bincount(p64, minlength=gmax + 1)
    nz = np.flatnonzero(counts >= _DICT_MIN_REPEATS)
    if len(nz) < 2:
        return None, 0, None
    if len(nz) > _DICT_MAX_CARD:
        order = np.lexsort((nz, -counts[nz]))[:_DICT_MAX_CARD]
        cand = np.sort(nz[order])
    else:
        cand = nz
    lut = np.zeros(gmax + 1, dtype=bool)
    lut[cand] = True
    flags = scratch.arr("rc.dflag", n, bool)
    np.take(lut, p64, out=flags)
    lengths = np.diff(offsets)
    ne = lengths > 0
    covered = np.zeros(rows, dtype=bool)
    if ne.any():
        covered[ne] = np.minimum.reduceat(flags, offsets[:-1][ne])
    w_bytes = np.array([0, 1, 2, 4, 8, 0], dtype=np.int64)[codes]
    eligible = covered & (w_bytes >= 2)
    if not eligible.any():
        return None, 0, None
    # final table: the distinct values the eligible rows actually use.
    # card <= 256 -> 1-byte codes (always a win over the >= 2-byte rows).
    # card <= 4096 -> 2-byte codes: byte-equal with w2 rows, but the
    # shared-table alignment usually beats misaligned residual entropy —
    # the planner's dict-on/off trial makes that call empirically.
    # Gather the eligible subset and scatter it into a bool LUT: ~2.4x
    # cheaper than a weighted bincount over the full plane (float64
    # weights), and a boolean index on the pw-byte plane gathers ~3x
    # faster than np.compress(out=) on the 8-byte p64.
    sel = plane[fill_rowwise(eligible, lengths)]
    used = np.zeros(gmax + 1, dtype=bool)
    used[sel] = True
    hot = np.flatnonzero(used)
    if not (2 <= len(hot) <= _DICT_MAX_CARD):
        return None, 0, None
    code_w = 1 if len(hot) <= 256 else 2
    codes[eligible] = DICT_CODE
    return hot, code_w, sel


def encode_child(
    plane: np.ndarray, offsets: np.ndarray, signed: bool, try_dict: bool = True
) -> tuple[list[bytes], dict]:
    """Encode a list child plane with per-row FOR + width buckets.

    ``try_dict=False`` skips the global-dictionary detection passes —
    the planner sets it from its trial encode (a sample that found no
    dict bucket predicts the full partition won't either), so dict-less
    data never pays the detection's extra plane scans.

    ``signed`` orders the per-row min/max on the logical values (the same
    rule as :func:`intcodec.for_minmax`); residual arithmetic is modular
    in the plane width so the bit patterns round-trip exactly. The O(n)
    temporaries come from the scratch pool (codecs/scratch.py) or, for
    ``np.repeat`` expansions and boolean gathers, from the heap that
    ``util.retain_heap`` keeps mapped — this kernel runs on long-lived Ray
    workers and must not re-fault half a GB of pages per partition."""
    lengths = np.diff(offsets).astype(np.int64)
    n = len(plane)
    rows = len(lengths)
    pw = plane.dtype.itemsize
    view = plane.view(intcodec._SIGNED_OF_WIDTH[pw]) if signed else plane
    bases_v, ranges_v = row_ranges(view, offsets)
    bases = bases_v.view(plane.dtype) if signed else bases_v
    # per-row residual range == (max - min) mod 2^(8pw): reuse the ONE
    # reduceat pass above (viewed unsigned — the modular diff IS the
    # residual magnitude) instead of re-scanning the residual plane
    ranges = ranges_v.view(plane.dtype) if signed else ranges_v

    codes = np.zeros(rows, dtype=np.uint8)
    codes[ranges > 0] = 1
    if pw > 1:
        codes[ranges > 0xFF] = 2
    if pw > 2:
        codes[ranges > 0xFFFF] = 3
    if pw > 4:
        codes[ranges > 0xFFFFFFFF] = 4

    hot, code_w, gathered = (
        _detect_dict(plane, bases, ranges, codes, offsets, n, rows, pw)
        if try_dict
        else (None, 0, None)
    )
    if hot is not None:
        # dict rows carry ABSOLUTE values (indices into the shared table);
        # zero their bases BEFORE the residual pass so decode's base add
        # is a no-op for them
        bases = bases.copy()
        bases[codes == DICT_CODE] = 0

    # residual pass AFTER dict detection: dict rows must keep absolute values
    resid = scratch.arr("rc.resid", n, plane.dtype)
    np.subtract(plane, fill_rowwise(bases, lengths), out=resid)

    # per-code token counts from a rows-sized bincount — the expanded wtok
    # plane and per-bucket equality masks are built only when a residual
    # bucket leaves tokens out (the common single-bucket partition skips
    # three full passes over the child; the dict bucket is already gathered)
    cnt_by_code = np.bincount(codes, weights=lengths, minlength=6).astype(np.int64)
    present = [c for c in (1, 2, 3, 4, DICT_CODE) if cnt_by_code[c] > 0]
    if any(cnt_by_code[c] < n for c in present if c != DICT_CODE):
        wtok = fill_rowwise(codes, lengths)
        mask = scratch.arr("rc.mask", n, bool)
    sections: list[bytes] = []
    buckets: list[dict] = []
    for code in present:
        cnt = int(cnt_by_code[code])
        if code == DICT_CODE:
            # map the ABSOLUTE values _detect_dict gathered to table ranks
            # via a LUT, code the ranks; the table itself (sorted ascending
            # -> tiny FOR deltas) rides in the same section before the ranks
            rank_lut = np.zeros(int(hot[-1]) + 1, dtype=_NP_OF_WIDTH[code_w])
            rank_lut[hot] = np.arange(len(hot), dtype=rank_lut.dtype)
            ranks = scratch.arr("rc.ranks", cnt, _NP_OF_WIDTH[code_w])
            np.take(rank_lut, gathered, out=ranks)
            vals_blob, vals_desc = intcodec.encode_plane(
                hot.astype(plane.dtype), "for_bss", False
            )
            idx_blob, idx_desc = _encode_bucket(ranks)
            sections.append(vals_blob + idx_blob)
            buckets.append(
                {"code": DICT_CODE, "plane": idx_desc, "values": vals_desc,
                 "split": len(vals_blob)}
            )
            continue
        w = _WIDTH_OF_CODE[code]
        # gather straight from the LOW-ORDER byte lane of the residuals:
        # the strided view reads w of every pw bytes, so the narrow cast
        # is fused into the gather (values < 2^(8w) make it exact)
        lane = resid.view(_NP_OF_WIDTH[w])[:: pw // w]
        if cnt < n:
            np.equal(wtok, code, out=mask)
            narrow = lane[mask]  # ~3x faster than np.compress(out=)
        else:  # one bucket covers every token
            narrow = scratch.arr("rc.narrow", cnt, _NP_OF_WIDTH[w])
            np.copyto(narrow, lane)
        blob, bdesc = _encode_bucket(narrow)
        sections.append(blob)
        buckets.append({"code": code, "plane": bdesc})

    bases_blob, bases_desc = intcodec.encode_plane(bases, "for_bss", signed)
    # width codes: tiny, heavily repetitive when row classes cluster
    runs = len(intcodec.run_starts(codes))
    wc_codec = "rle" if runs * 4 < rows else "for_bitpack"
    codes_blob, codes_desc = intcodec.encode_plane(codes, wc_codec, False)

    desc = {
        "codec": "for_rows",
        "n": n,
        "rows": rows,
        "pw": plane.dtype.itemsize,
        "bases": bases_desc,
        "wcodes": codes_desc,
        "buckets": buckets,
        "sections": [len(bases_blob), len(codes_blob)] + [len(s) for s in sections],
    }
    return [bases_blob, codes_blob] + sections, desc


def decode_child(blob: bytes, desc: dict, lengths: np.ndarray) -> np.ndarray:
    """Inverse of :func:`encode_child`; needs the row lengths the list
    codec stores alongside."""
    dt = np.dtype(intcodec._BYTE_WIDTH_DTYPE[desc["pw"]])
    n = desc["n"]
    secs = desc["sections"]
    off = 0
    bases = intcodec.decode_plane(blob[off : off + secs[0]], desc["bases"]).view(dt)
    off += secs[0]
    codes = intcodec.decode_plane(blob[off : off + secs[1]], desc["wcodes"]).astype(np.uint8)
    off += secs[1]

    lengths = np.asarray(lengths, dtype=np.int64)

    def bucket_values(section: bytes, b: dict) -> np.ndarray:
        if b["code"] == DICT_CODE:
            split = b["split"]
            vals = intcodec.decode_plane(section[:split], b["values"])
            ranks = intcodec.decode_plane(section[split:], b["plane"])
            return vals[ranks]  # table gather -> absolute values
        return intcodec.decode_plane(section, b["plane"])

    bks = desc["buckets"]
    if len(bks) == 1 and bks[0]["plane"]["n"] == n:
        # single bucket covering every token: no expanded code plane, no
        # scatter — the expanded row bases ARE the output plane (a fresh
        # array, never scratch), with the residuals added in place
        sub = bucket_values(blob[off : off + secs[2]], bks[0])
        out = fill_rowwise(bases, lengths)
        np.add(out, sub, out=out, casting="unsafe")
        return out
    # Multi-bucket: expand the per-row width codes to per-token, scatter
    # each bucket's residuals under its code's mask into a zeroed plane
    # (zero-width rows keep 0), then add the expanded row bases: two
    # np.repeat expansions in all. (A row-granularity rewrite — concatenated
    # -range indices per bucket, fused base-add — was tried and measured
    # SLOWER: the int32 index plane costs more passes than the uint8 code
    # plane + boolean masks it replaces.)
    wtok = fill_rowwise(codes, lengths)
    out = np.zeros(n, dtype=dt)  # the returned plane — never scratch
    mask = scratch.arr("rc.mask", n, bool)
    for i, b in enumerate(bks):
        size = secs[2 + i]
        sub = bucket_values(blob[off : off + size], b)
        off += size
        np.equal(wtok, b["code"], out=mask)
        out[mask] = sub  # setitem upcasts narrow unsigned in place
    np.add(out, fill_rowwise(bases, lengths), out=out)
    return out


def stats_child(
    blob: bytes, desc: dict, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Per-row (sum, min, max) int64 of the for_rows child WITHOUT
    materializing the token plane — the aggregate-pushdown fast path
    behind decode.read_encoded_token_stats (the reference's precomputed
    stats passthrough, read_raster.cpp:1079-1090, taken to per-ROW
    granularity over the encoded form).

    Residual buckets are decoded (narrow width) but never widened or
    scattered: per bucket, one int64 sum + min/max at bucket width, each a
    ``reduceat`` over the bucket's non-empty rows with a rows-sized output,
    then ``value_stat = row_base + residual_stat``. That identity holds
    only when no modular wrap occurs anywhere (base + max residual below
    the signed bound of the plane width); when the gate fails the
    function returns None and the caller falls back to the full decode.
    Empty rows report sum 0 and min/max int64 sentinels, mirroring
    transforms.token_stats."""
    dt = np.dtype(intcodec._BYTE_WIDTH_DTYPE[desc["pw"]])
    secs = desc["sections"]
    off = 0
    bases = intcodec.decode_plane(blob[off : off + secs[0]], desc["bases"]).view(dt)
    off += secs[0]
    codes = intcodec.decode_plane(blob[off : off + secs[1]], desc["wcodes"]).astype(np.uint8)
    off += secs[1]

    lengths = np.asarray(lengths, dtype=np.int64)
    rows = len(lengths)
    base_i = bases.astype(np.int64)
    sums = np.zeros(rows, dtype=np.int64)
    mins = np.full(rows, np.iinfo(np.int64).max)
    maxs = np.full(rows, np.iinfo(np.int64).min)
    r_max = np.zeros(rows, dtype=np.uint64)  # per-row residual max, for the gate

    def bucket_values(section: bytes, b: dict) -> np.ndarray:
        if b["code"] == DICT_CODE:
            split = b["split"]
            vals = intcodec.decode_plane(section[:split], b["values"])
            ranks = intcodec.decode_plane(section[split:], b["plane"])
            return vals[ranks]
        return intcodec.decode_plane(section, b["plane"])

    def fold(row_sel: np.ndarray, sub: np.ndarray | None) -> None:
        """Accumulate residual stats of the selected rows (concatenated in
        row order inside `sub`; sub=None means zero residuals)."""
        ln = lengths[row_sel]
        pos = ln > 0
        if not pos.any():
            return
        idx = np.flatnonzero(row_sel)[pos]
        if sub is None:  # zero-width rows: residuals all 0
            sums[idx] = 0
            mins[idx] = 0
            maxs[idx] = 0
            return
        lnp = ln[pos]
        starts = np.cumsum(lnp) - lnp
        sums[idx] = np.add.reduceat(sub, starts, dtype=np.int64)
        mins[idx] = np.minimum.reduceat(sub, starts).astype(np.int64)
        mx = np.maximum.reduceat(sub, starts)
        maxs[idx] = mx.astype(np.int64)
        r_max[idx] = mx

    bks = desc["buckets"]
    if len(bks) == 1 and bks[0]["plane"]["n"] == desc["n"]:
        sub = bucket_values(blob[off : off + secs[2]], bks[0])
        fold(np.ones(rows, dtype=bool), sub)
    else:
        seen = np.zeros(rows, dtype=bool)
        for i, b in enumerate(bks):
            size = secs[2 + i]
            sub = bucket_values(blob[off : off + size], b)
            off += size
            row_sel = codes == b["code"]
            seen |= row_sel
            fold(row_sel, sub)
        fold(~seen, None)

    # no-wrap gate: every reconstructed value = base + residual must stay
    # inside the non-negative signed range of the plane width for plain
    # int64 arithmetic to equal the codec's modular reconstruction. Checked
    # in unsigned arithmetic: a 64-bit plane's bound 2^63 does not fit int64
    ne = lengths > 0
    limit = np.uint64(1 << (8 * desc["pw"] - 1))
    room = limit - np.minimum(bases[ne].astype(np.uint64), limit)
    if (r_max[ne] >= room).any():
        return None

    out_sums = np.where(ne, base_i * lengths + sums, 0)
    out_mins = np.where(ne, base_i + mins, np.iinfo(np.int64).max)
    out_maxs = np.where(ne, base_i + maxs, np.iinfo(np.int64).min)
    return out_sums, out_mins, out_maxs
