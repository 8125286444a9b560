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

Steps 2 and 4 and the dictionary passes run per row-aligned block of
about ``_BLOCK`` tokens (the reference's per-tile scratch): block
temporaries stay cache-resident; only rows-sized arrays and each bucket's
byte streams, written at a running offset and compressed whole, span the
partition. Blocks end on row boundaries, so the streams hold the bytes a
whole-plane pass would. Decode mirrors it, block by block. The
temporaries are plain per-block arrays: on a warm worker
``util.retain_heap`` keeps the freed heap mapped, so every later block
and partition reuses it without page faults.

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

from . import general, intcodec

_WIDTH_OF_CODE = {1: 1, 2: 2, 3: 4, 4: 8}
_NP_OF_WIDTH = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}
_CODE_BOUNDS = np.array([0, 0xFF, 0xFFFF, 0xFFFFFFFF], dtype=np.uint64)

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
# evenly spaced lookups per wide row before its full candidate check: on
# the F1 mixture 4 probes leave 20.5 % of the plane to check in full
# (1 probe 25.4 %, 8 probes 20.4 %)
_DICT_PROBES = 4

# tokens per row-aligned block: a block's int32 residuals, masks and
# expansions (~0.5 MB) stay in L2 next to the 50k-entry LUT. Measured on
# the F1 mixture, 2^16-2^18 tie and smaller blocks are slower; 2^16 keeps
# the per-block temporaries smallest
_BLOCK = 1 << 16


def _blocks(offsets: np.ndarray) -> list[tuple[int, int, int, int]]:
    """(first row, end row, first token, end token) of each row-aligned
    block: a block ends at the first row start at or past a multiple of
    ``_BLOCK`` tokens, so a row longer than a block stays whole in one."""
    rows = len(offsets) - 1
    at = np.searchsorted(offsets, np.arange(0, int(offsets[-1]), _BLOCK))
    cuts = np.unique(np.append(at, rows)).tolist()
    toks = offsets[cuts].tolist()
    return list(zip(cuts, cuts[1:], toks, toks[1:]))


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
    lengths: one write pass over a fresh array of per_row's dtype (~6x
    faster than zero + diff scatter + cumsum into a scratch plane). The
    kernels call it per block, so the result is block-sized."""
    return np.repeat(per_row, lengths)


def _encode_bucket(streams: np.ndarray) -> tuple[bytes, dict]:
    """Lean for_bss of one bucket whose (w, n) lane-major byte
    streams (intcodec.split_streams' layout) encode_child filled block by
    block: base 0 (row bases absorbed the frame), zstd straight from the
    stream array. Descriptor-compatible with intcodec.decode_for_bss."""
    w, n = streams.shape
    return general.compress(streams.reshape(-1)), {
        "codec": "for_bss",
        "n": n,
        "base": 0,
        "byte_width": w,
        "pw": w,
        "general": general.DEFAULT_GENERAL,
        "raw_size": int(streams.nbytes),
    }


def _detect_dict(plane, bases, ranges, codes, offsets):
    """Find a partition-global value table and re-class rows fully covered
    by it (and wider than its 1-byte code) to DICT_CODE, mutating
    ``codes`` in place. Returns (sorted table values | None, code width).

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

    Stage 2 is the optimistic hot-table check of the USSR paper (PAPERS.md,
    ICDE 2020): _DICT_PROBES evenly spaced lookups per wide row reject
    most rows that cannot qualify (a row with one non-candidate value
    fails the rule anyway), and only the survivors' tokens get the full
    check, gathered in row-aligned blocks of about _BLOCK tokens. The
    result equals checking every row in full.

    Domain-bounded to 2^20 bit patterns (token ids) so the bincount/LUT
    stay a few MB; signed-negative planes fall outside the bound and
    skip. The planner's trial-encode hint gates these passes entirely for
    dict-less data."""
    n, rows = len(plane), len(codes)
    if n == 0 or rows == 0 or plane.dtype.itemsize > 4:
        return None, 0
    gmax = int(np.max(bases.astype(np.uint64) + ranges.astype(np.uint64)))
    if gmax >= _DICT_MAX_PLANE:
        return None, 0
    # pass 1: one partition histogram, counted in chunks long enough that
    # each chunk's (gmax+1)-entry bincount costs no more than the chunk
    step = min(n, max(_BLOCK, 4 * (gmax + 1)))
    counts = np.zeros(gmax + 1, dtype=np.int64)
    for t in range(0, n, step):
        counts += np.bincount(plane[t : t + step].astype(np.int64), minlength=gmax + 1)
    nz = np.flatnonzero(counts >= _DICT_MIN_REPEATS)
    if len(nz) < 2:
        return None, 0
    lut = np.zeros(gmax + 1, dtype=bool)
    if len(nz) > _DICT_MAX_CARD:
        # top-K by count, ties to the smaller value: every count above the
        # K-th largest, then the smallest values AT it fill the rest
        c = counts[nz]
        t = np.partition(c, len(c) - _DICT_MAX_CARD)[len(c) - _DICT_MAX_CARD]
        lut[nz[c > t]] = True
        lut[nz[c == t][: _DICT_MAX_CARD - int(np.count_nonzero(c > t))]] = True
    else:
        lut[nz] = True
    # pass 2: probe the wide rows (codes 2-4, never empty: range > 0xFF),
    # then check the survivors in full, marking the values eligible rows
    # use (the final table). card <= 256 -> 1-byte codes; <= 4096 ->
    # 2-byte codes, byte-equal with w2 rows but usually better aligned
    # (the planner's dict-on/off trial makes that call empirically).
    surv = np.flatnonzero(np.array([0, 0, 1, 1, 1, 0], dtype=bool)[codes])
    starts = offsets[surv]
    lens = offsets[surv + 1] - starts
    keep = lut[plane[starts]]
    for j in range(1, _DICT_PROBES):
        keep &= lut[plane[starts + j * lens // _DICT_PROBES]]
    surv, starts, lens = surv[keep], starts[keep], lens[keep]
    s_off = np.zeros(len(surv) + 1, dtype=np.int64)
    np.cumsum(lens, out=s_off[1:])
    ok = np.zeros(len(surv), dtype=bool)
    used = np.zeros(gmax + 1, dtype=bool)
    for s0, s1, u0, u1 in _blocks(s_off):
        ln = lens[s0:s1]
        # survivor token k of this block sits at starts[i] + k - s_off[i]
        at = fill_rowwise(starts[s0:s1] - s_off[s0:s1], ln)
        at += np.arange(u0, u1)
        # index-typed once: both lookups below would each convert uint32
        vals = plane[at].astype(np.intp)
        fl = lut[vals]
        el = ok[s0:s1]
        if fl.all():
            el[:] = True
            used[vals] = True
        else:
            el[:] = np.minimum.reduceat(fl, s_off[s0:s1] - u0)
            used[vals[fill_rowwise(el, ln)]] = True
    hot = np.flatnonzero(used)
    if not ok.any() or not (2 <= len(hot) <= _DICT_MAX_CARD):
        return None, 0
    codes[surv[ok]] = DICT_CODE
    return hot, 1 if len(hot) <= 256 else 2


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
    in the plane width so the bit patterns round-trip exactly. Only the
    bucket streams span the partition; every other temporary is one
    block's, so a warm worker (``util.retain_heap``) reuses the same
    freed heap for every block and partition without re-faulting."""
    lengths = np.diff(offsets).astype(np.int64)
    n, rows, pw = len(plane), len(lengths), plane.dtype.itemsize
    view = plane.view(intcodec._SIGNED_OF_WIDTH[pw]) if signed else plane
    bases_v, ranges_v = row_ranges(view, offsets)
    bases = bases_v.view(plane.dtype) if signed else bases_v
    # per-row residual range == (max - min) mod 2^(8pw): reuse the ONE
    # reduceat pass above (viewed unsigned — the modular diff IS the
    # residual magnitude) instead of re-scanning the residual plane
    ranges = ranges_v.view(plane.dtype) if signed else ranges_v

    # width code: 0 for range 0, else the first of 1/2/4/8 bytes holding it
    codes = np.searchsorted(_CODE_BOUNDS, ranges).astype(np.uint8)

    blocks = _blocks(offsets)
    hot, code_w = (
        _detect_dict(plane, bases, ranges, codes, offsets) if try_dict else (None, 0)
    )
    if hot is not None:
        # dict rows carry ABSOLUTE values (indices into the shared table):
        # zero their bases so their residuals ARE the values and decode's
        # base add is a no-op for them
        bases = bases.copy()
        bases[codes == DICT_CODE] = 0
        rank_lut = np.zeros(int(hot[-1]) + 1, dtype=_NP_OF_WIDTH[code_w])
        rank_lut[hot] = np.arange(len(hot), dtype=rank_lut.dtype)

    # each bucket's lane-major byte streams, filled at a running offset
    cnt_by_code = np.bincount(codes, weights=lengths, minlength=6).astype(np.int64)
    widths = {c: _WIDTH_OF_CODE.get(c, code_w) for c in (1, 2, 3, 4, DICT_CODE) if cnt_by_code[c]}
    streams = {c: np.empty((w, cnt_by_code[c]), dtype=np.uint8) for c, w in widths.items()}
    done = dict.fromkeys(widths, 0)
    for r0, r1, t0, t1 in blocks:
        ln = lengths[r0:r1]
        resid = plane[t0:t1] - fill_rowwise(bases[r0:r1], ln)
        per = np.bincount(codes[r0:r1], weights=ln, minlength=6).astype(np.int64)
        wtok = None
        for c, w in widths.items():
            k = int(per[c])
            if k == 0:
                continue
            vals = resid
            if k < t1 - t0:
                if wtok is None:
                    wtok = fill_rowwise(codes[r0:r1], ln)
                mask = wtok == c
                # residual buckets gather straight from the LOW-ORDER byte
                # lane: the strided view reads w of every pw bytes, so the
                # narrow cast is fused into the gather (values < 2^(8w))
                src = resid if c == DICT_CODE else resid.view(_NP_OF_WIDTH[w])[:: pw // w]
                vals = src[mask]
            if c == DICT_CODE:
                vals = rank_lut[vals]
            # the low w bytes of each value, one byte lane per stream row
            vb = vals.view(np.uint8).reshape(k, -1)
            for j in range(w):
                streams[c][j, done[c] : done[c] + k] = vb[:, j]
            done[c] += k

    sections: list[bytes] = []
    buckets: list[dict] = []
    for c, s in streams.items():
        blob, bdesc = _encode_bucket(s)
        if c != DICT_CODE:
            sections.append(blob)
            buckets.append({"code": c, "plane": bdesc})
            continue
        # the table itself (sorted ascending -> tiny FOR deltas) rides in
        # the same section before the ranks
        vals_blob, vals_desc = intcodec.encode_plane(hot.astype(plane.dtype), "for_bss", False)
        sections.append(vals_blob + blob)
        buckets.append(
            {"code": DICT_CODE, "plane": bdesc, "values": vals_desc, "split": len(vals_blob)}
        )

    bases_blob, bases_desc = intcodec.encode_plane(bases, "for_bss", signed)
    # width codes: tiny, heavily repetitive when row classes cluster
    runs = len(intcodec.run_starts(codes))
    wc_codec = "rle" if runs * 4 < rows else "for_bitpack"
    codes_blob, codes_desc = intcodec.encode_plane(codes, wc_codec, False)

    desc = {
        "codec": "for_rows",
        "n": n,
        "rows": rows,
        "pw": pw,
        "bases": bases_desc,
        "wcodes": codes_desc,
        "buckets": buckets,
        "sections": [len(bases_blob), len(codes_blob)] + [len(s) for s in sections],
    }
    return [bases_blob, codes_blob] + sections, desc


def _unpack(blob: bytes, desc: dict) -> tuple[np.ndarray, np.ndarray, dict]:
    """(row bases, width codes, {code: (dict table | None, plane)}) of an
    encoded child: a bucket's plane holds its residuals, or for the dict
    bucket the ranks into the table."""
    edges = np.cumsum([0] + desc["sections"]).tolist()
    secs = [blob[a:b] for a, b in zip(edges, edges[1:])]
    dt = np.dtype(intcodec._BYTE_WIDTH_DTYPE[desc["pw"]])
    bases = intcodec.decode_plane(secs[0], desc["bases"]).view(dt)
    codes = intcodec.decode_plane(secs[1], desc["wcodes"]).astype(np.uint8)
    subs = {}
    for s, b in zip(secs[2:], desc["buckets"]):
        tbl = intcodec.decode_plane(s[: b["split"]], b["values"]) if "split" in b else None
        subs[b["code"]] = (tbl, intcodec.decode_plane(s[b.get("split", 0) :], b["plane"]))
    return bases, codes, subs


def decode_child(blob: bytes, desc: dict, lengths: np.ndarray) -> np.ndarray:
    """Inverse of :func:`encode_child`; needs the row lengths the list
    codec stores alongside. Per block: the one bucket covering it adds
    straight onto the expanded bases; otherwise each bucket scatters under
    its code's mask into the zeroed block (zero-width rows keep 0) before
    the base add."""
    bases, codes, subs = _unpack(blob, desc)
    lengths = np.asarray(lengths, dtype=np.int64)
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    done = dict.fromkeys(subs, 0)

    def next_part(c: int, k: int) -> np.ndarray:
        tbl, p = subs[c]
        part = p[done[c] : done[c] + k]
        done[c] += k
        return part if tbl is None else tbl[part]  # table gather -> values

    out = np.empty(desc["n"], dtype=bases.dtype)
    for r0, r1, t0, t1 in _blocks(offsets):
        ln, o = lengths[r0:r1], out[t0:t1]
        per = np.bincount(codes[r0:r1], weights=ln, minlength=6)
        live = [c for c in subs if per[c]]
        base = fill_rowwise(bases[r0:r1], ln)
        if len(live) == 1 and per[live[0]] == t1 - t0:
            np.add(base, next_part(live[0], t1 - t0), out=o, casting="unsafe")
            continue
        wtok = fill_rowwise(codes[r0:r1], ln)
        o[:] = 0
        for c in live:
            o[wtok == c] = next_part(c, int(per[c]))  # setitem upcasts narrow unsigned
        np.add(o, base, out=o)
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
    scattered: per bucket, one int64 sum + max at bucket width, each a
    ``reduceat`` over the bucket's non-empty rows with a rows-sized output,
    then ``value_stat = row_base + residual_stat``. That identity holds
    only when no modular wrap occurs anywhere (base + max residual below
    the signed bound of the plane width); when the gate fails the
    function returns None and the caller falls back to the full decode.
    A residual row's min residual is 0 (its base is its own minimum), so
    only the dict bucket, whose rows carry absolute values, reduces mins.
    Empty rows report sum 0 and min/max int64 sentinels, mirroring
    transforms.token_stats."""
    bases, codes, subs = _unpack(blob, desc)
    lengths = np.asarray(lengths, dtype=np.int64)
    rows = len(lengths)
    base_i = bases.astype(np.int64)
    # residual stats; rows no bucket covers (zero width) keep 0, and empty
    # rows get their sentinels at the end
    sums = np.zeros(rows, dtype=np.int64)
    mins = np.zeros(rows, dtype=np.int64)
    maxs = np.zeros(rows, dtype=np.int64)
    r_max = np.zeros(rows, dtype=np.uint64)  # per-row residual max, for the gate

    for c, (tbl, sub) in subs.items():
        row_sel = codes == c
        ln = lengths[row_sel]
        pos = ln > 0
        if not pos.any():
            continue
        idx = np.flatnonzero(row_sel)[pos]
        lnp = ln[pos]
        starts = np.cumsum(lnp) - lnp
        if tbl is not None:
            sub = tbl[sub]
            mins[idx] = np.minimum.reduceat(sub, starts).astype(np.int64)
        sums[idx] = np.add.reduceat(sub, starts, dtype=np.int64)
        mx = np.maximum.reduceat(sub, starts)
        maxs[idx] = mx.astype(np.int64)
        r_max[idx] = mx

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
