"""Token-space per-batch transforms — the reference's decode->transform->
re-encode scalar-function family re-expressed over `tokens:list<int32>`.

Reference analogues (SURVEY.md §2.2):

  mask_tokens_list / range / eq   ~ ST_MaskBandValuesList/Range/Eq
                                    (/root/reference/src/st_value_mask.cpp:116-280):
                                    keep values in a whitelist / inclusive
                                    range (NULL bound = open) / equal to v,
                                    others -> sentinel; operates on the
                                    flattened child values, vectorized
  clip_tokens                     ~ ST_Clip (+nodata)
                                    (st_clip.cpp:318-455): *filter* elements
                                    by predicate, shrinking each list
  map_tokens                      ~ ST_ColorMapRaquet classification
                                    (st_png_colormap.cpp:308-396): value ->
                                    value via a broadcast lookup table
  token_stats                     ~ ST_RasterSummaryStats per row
                                    (st_raster_stats.cpp:14-349): per-row
                                    count/min/max/sum/mean over tokens
  ndiff_columns                   ~ ST_NormalizedDifference band math
                                    (band_math.cpp:39-229): elementwise
                                    (a-b)/(a+b) with 0/0 -> 0 on two
                                    numeric columns

All are vectorized over the Arrow list child buffer (never per-row Python)
and compose as Dataset.map_batches stages. The masking functions preserve
list lengths bit-exactly (the re-encode closure of st_value_mask.cpp:100-114:
a masked dataset re-encodes to a valid partition with identical shape).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from duckdb_raquet_ray import blockcodec as bc
from duckdb_raquet_ray import util

SENTINEL = -1  # the nodata analogue for masked token slots


def _row_reduce(ufunc, x: np.ndarray, offsets: np.ndarray, empty, dtype=None) -> np.ndarray:
    """Per-row ``ufunc`` reduction of the flat child ``x`` over the list
    ``offsets`` -> int64 array, ``empty`` for zero-length rows. The module's
    one way to reduce rows: a segmented ``reduceat`` over the non-empty
    rows, whose starts are strictly increasing, so each segment is exactly
    one row. An int64 sum wraps mod 2^64 like a prefix-sum difference, but
    reads the child once and writes only a rows-sized output."""
    out = np.full(len(offsets) - 1, empty, dtype=np.int64)
    nonempty = offsets[1:] > offsets[:-1]
    if nonempty.any():
        out[nonempty] = ufunc.reduceat(x, offsets[:-1][nonempty], dtype=dtype)
    return out


def _child_and_rebuild(batch: pa.Table, column: str):
    """-> (flat child numpy with nulls filled to 0, offsets, rebuild fn,
    child validity bool array or None).

    Null LIST ELEMENTS are surfaced via the validity array (and preserved
    by ``rebuild``), never silently cast — to_numpy on a nullable child
    would turn nulls into float NaN and corrupt integer math downstream."""
    arr = bc.one_chunk(batch.column(column))
    child_type = arr.type.value_type
    lengths = pc.fill_null(pc.list_value_length(arr), 0).to_numpy(zero_copy_only=False)
    child_arr = arr.flatten()
    child_valid = (
        np.asarray(child_arr.is_valid()) if child_arr.null_count else None
    )
    if child_valid is not None:
        child_arr = pc.fill_null(child_arr, 0)
    child = child_arr.to_numpy(zero_copy_only=False)
    # int64 accumulation ALWAYS (an int32 in-place cumsum wraps silently
    # past 2^31 child elements); the rebuild keeps the INPUT list width —
    # a large_list input must not silently downgrade to list
    large = pa.types.is_large_list(arr.type)
    offsets = np.zeros(len(arr) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    if not large and offsets[-1] > np.iinfo(np.int32).max:
        raise ValueError(
            f"{column}: {int(offsets[-1])} child elements overflow int32 "
            "list offsets — use large_list or a smaller batch_size"
        )
    valid = np.asarray(arr.is_valid()) if arr.null_count else None

    def rebuild(new_child: np.ndarray) -> pa.Array:
        mask = None if child_valid is None else ~child_valid
        values = pa.array(
            new_child.astype(child_type.to_pandas_dtype()), type=child_type, mask=mask
        )
        if large:
            out = pa.LargeListArray.from_arrays(pa.array(offsets), values)
        else:
            out = pa.ListArray.from_arrays(
                pa.array(offsets.astype(np.int32), pa.int32()), values
            )
        if valid is not None:
            out = pc.if_else(pa.array(valid), out, pa.scalar(None, type=out.type))
        return out

    return child, offsets, rebuild, child_valid


def _check_sentinel(child: np.ndarray, sentinel: int) -> None:
    """A sentinel the child dtype cannot represent would WRAP silently
    (-1 on uint32 becomes 4294967295 — a legal in-domain value no
    downstream `== sentinel` check can find): raise instead."""
    info = np.iinfo(child.dtype) if child.dtype.kind in "iu" else None
    if info is not None and not (info.min <= sentinel <= info.max):
        raise ValueError(
            f"sentinel {sentinel} is not representable in {child.dtype} — "
            "pass an in-domain sentinel for unsigned token columns"
        )


def mask_tokens_range(
    batch: pa.Table,
    column: str = "tokens",
    low: int | None = None,
    high: int | None = None,
    sentinel: int = SENTINEL,
) -> pa.Table:
    """Values outside [low, high] -> sentinel; None bound = open
    (ST_MaskBandValuesRange semantics, st_value_mask.cpp:176-236)."""
    child, _, rebuild, _ = _child_and_rebuild(batch, column)
    _check_sentinel(child, sentinel)
    keep = np.ones(len(child), dtype=bool)
    if low is not None:
        keep &= child >= low
    if high is not None:
        keep &= child <= high
    out = np.where(keep, child, sentinel)
    return batch.set_column(batch.schema.get_field_index(column), column, rebuild(out))


def mask_tokens_list(
    batch: pa.Table,
    allowed: list[int],
    column: str = "tokens",
    sentinel: int = SENTINEL,
) -> pa.Table:
    """Values not in the whitelist -> sentinel (ST_MaskBandValuesList,
    st_value_mask.cpp:116-171). Lookup via sorted searchsorted."""
    child, _, rebuild, _ = _child_and_rebuild(batch, column)
    _check_sentinel(child, sentinel)
    table = np.asarray(sorted(set(allowed)), dtype=child.dtype)
    if len(table) == 0:  # empty whitelist -> everything masked
        out = np.full(len(child), sentinel, dtype=child.dtype)
        return batch.set_column(
            batch.schema.get_field_index(column), column, rebuild(out)
        )
    idx = np.searchsorted(table, child)
    idx_c = np.clip(idx, 0, len(table) - 1)
    keep = table[idx_c] == child
    out = np.where(keep, child, sentinel)
    return batch.set_column(batch.schema.get_field_index(column), column, rebuild(out))


def mask_tokens_eq(
    batch: pa.Table, value: int, column: str = "tokens", sentinel: int = SENTINEL
) -> pa.Table:
    """Values != v -> sentinel (ST_MaskBandValuesEq, st_value_mask.cpp:240-280)."""
    child, _, rebuild, _ = _child_and_rebuild(batch, column)
    _check_sentinel(child, sentinel)
    out = np.where(child == value, child, sentinel)
    return batch.set_column(batch.schema.get_field_index(column), column, rebuild(out))


def clip_tokens(
    batch: pa.Table,
    low: int,
    high: int,
    column: str = "tokens",
    length_column: str | None = "n_tok",
) -> pa.Table:
    """Drop elements outside [low, high], shrinking each list (the ST_Clip
    projection, st_clip.cpp:318-455 — predicate-projected decode). Updates
    the length column if given."""
    child, offsets, _, child_valid = _child_and_rebuild(batch, column)
    keep = (child >= low) & (child <= high)
    if child_valid is not None:  # null elements fail the predicate (nodata rule)
        keep &= child_valid
    new_lengths = _row_reduce(np.add, keep, offsets, 0, np.int64)
    new_offsets = np.zeros(len(new_lengths) + 1, dtype=np.int32)
    np.cumsum(new_lengths, out=new_offsets[1:])
    child_type = batch.schema.field(column).type.value_type
    values = pa.array(child[keep].astype(child_type.to_pandas_dtype()), type=child_type)
    out = pa.ListArray.from_arrays(pa.array(new_offsets), values)
    col = batch.column(column)
    if col.null_count:
        out = pc.if_else(col.is_valid(), out, pa.scalar(None, type=out.type))
    batch = batch.set_column(batch.schema.get_field_index(column), column, out)
    if length_column and length_column in batch.column_names:
        lt = batch.schema.field(length_column).type
        batch = batch.set_column(
            batch.schema.get_field_index(length_column),
            length_column,
            pa.array(new_lengths.astype(np.int64), type=pa.int64()).cast(lt),
        )
    return batch


def map_tokens(
    batch: pa.Table,
    mapping: np.ndarray,
    column: str = "tokens",
    default: int = SENTINEL,
) -> pa.Table:
    """value -> mapping[value] lookup projection (the colormap
    classification shape, st_png_colormap.cpp:308-396). `mapping` is a
    dense vocab-sized int array, broadcast once per task via closure/
    ray.put — never shuffled."""
    child, _, rebuild, _ = _child_and_rebuild(batch, column)
    in_range = (child >= 0) & (child < len(mapping))
    out = np.where(in_range, mapping[np.clip(child, 0, len(mapping) - 1)], default)
    return batch.set_column(batch.schema.get_field_index(column), column, rebuild(out))


def ramp_tokens(
    batch: pa.Table,
    stops: list[tuple[float, float]],
    vmin: float | None = None,
    vmax: float | None = None,
    outside: str = "clamp",
    sentinel: int = SENTINEL,
    column: str = "tokens",
) -> pa.Table:
    """Piecewise-linear value->code ramp over the token list — the
    continuous classification transform (ST_ColorMapContinuousRaquet,
    /root/reference/src/raster/st_png_colormap.cpp:567-994), single
    channel. ``stops`` are absolute (value, code) pairs, sorted by value;
    between stops the code is linearly interpolated and rounded half-up
    (the reference's llround); at/past the end stops the end code is used
    (ColorAlongStops end rule). ``vmin``/``vmax`` window the input
    (default: the stop endpoints); ``outside`` is the reference's
    clamp-vs-nodata switch: "clamp" pins values into the window, "nodata"
    maps them to ``sentinel`` (the unmapped color analogue). Input values
    equal to ``sentinel`` stay ``sentinel`` (nodata passthrough).

    Fully vectorized: one searchsorted for segment selection, one fused
    lerp. The arithmetic (q-v0)/(v1-v0)*(c1-c0)+c0 and floor(y+0.5) is
    written to match the SQL oracle expression op-for-op so float64
    results are bit-identical."""
    child, _, rebuild, child_valid = _child_and_rebuild(batch, column)
    st = sorted((float(v), float(c)) for v, c in stops)
    if len(st) < 2:
        raise ValueError("ramp_tokens needs >= 2 stops")
    xs = np.array([v for v, _ in st], dtype=np.float64)
    cs = np.array([c for _, c in st], dtype=np.float64)
    lo = xs[0] if vmin is None else float(vmin)
    hi = xs[-1] if vmax is None else float(vmax)
    p = child.astype(np.float64)
    unmapped = child == sentinel
    if child_valid is not None:
        unmapped |= ~child_valid
    if outside == "clamp":
        q = np.minimum(np.maximum(p, lo), hi)
    elif outside == "nodata":
        q = p
        unmapped |= (p < lo) | (p > hi)
    else:
        raise ValueError('outside must be "clamp" or "nodata"')
    idx = np.clip(np.searchsorted(xs, q, side="right") - 1, 0, len(xs) - 2)
    v0, v1 = xs[idx], xs[idx + 1]
    c0, c1 = cs[idx], cs[idx + 1]
    denom = v1 - v0
    t = np.divide(q - v0, denom, out=np.zeros_like(q), where=denom != 0)
    y = c0 + t * (c1 - c0)
    y = np.where(q <= xs[0], cs[0], y)
    y = np.where(q >= xs[-1], cs[-1], y)
    code = np.floor(y + 0.5).astype(child.dtype)
    out = np.where(unmapped, child.dtype.type(sentinel), code)
    return batch.set_column(batch.schema.get_field_index(column), column, rebuild(out))


def token_stats(
    batch: pa.Table, column: str = "tokens", sentinel: int | None = None
) -> pa.Table:
    """Per-row summary stats over the token list (ST_RasterSummaryStats
    analogue): count, min, max, sum, mean. `sentinel` values are skipped
    (the nodata-skipping rule, band_decoder.cpp:267-270).

    Fast path (no sentinel) never widens the child values: one int64
    segmented sum plus native-width segmented min/max over the child, each
    with a rows-sized output (`_row_reduce`) — the stage is
    memory-bandwidth-bound on billions of tokens, so pass count is the
    whole game."""
    child, offsets, _, child_valid = _child_and_rebuild(batch, column)
    i64 = np.iinfo(np.int64)
    if sentinel is None and child_valid is None:
        counts = offsets[1:] - offsets[:-1]
        add = lo = hi = child
    else:
        child = child.astype(np.int64)
        valid = np.ones(len(child), dtype=bool) if sentinel is None else child != sentinel
        if child_valid is not None:  # null elements skipped like nodata
            valid &= child_valid
        counts = _row_reduce(np.add, valid, offsets, 0, np.int64)
        add = np.where(valid, child, 0)
        lo = np.where(valid, child, i64.max)
        hi = np.where(valid, child, i64.min)
    sums = _row_reduce(np.add, add, offsets, 0, np.int64)
    mins = _row_reduce(np.minimum, lo, offsets, i64.max)
    maxs = _row_reduce(np.maximum, hi, offsets, i64.min)
    has = counts > 0
    mean = np.divide(sums, counts, out=np.zeros(len(sums)), where=has)
    return batch.append_column(
        "tok_count", pa.array(counts)
    ).append_column(
        "tok_min", pa.array(np.where(has, mins, 0), type=pa.int64())
    ).append_column(
        "tok_max", pa.array(np.where(has, maxs, 0), type=pa.int64())
    ).append_column(
        "tok_sum", pa.array(sums)
    ).append_column(
        "tok_mean", pa.array(np.where(has, mean, 0.0), type=pa.float64())
    )


def ndiff_columns(batch: pa.Table, a: str, b: str, out: str = "ndiff") -> pa.Table:
    """(a-b)/(a+b) with 0/0 -> 0 (band_math.cpp ndiff rule :197-229);
    NULL in either input -> NULL out (SQL semantics)."""
    batch = util.strip_schema_metadata(batch)  # pandas-written parquet input
    ca, cb = batch.column(a), batch.column(b)
    av = pc.fill_null(ca, 0).to_numpy(zero_copy_only=False).astype(np.float64)
    bv = pc.fill_null(cb, 0).to_numpy(zero_copy_only=False).astype(np.float64)
    denom = av + bv
    nd = np.divide(av - bv, denom, out=np.zeros(len(av)), where=denom != 0)
    mask = None
    if ca.null_count or cb.null_count:
        valid = np.asarray(pc.and_(pc.is_valid(ca), pc.is_valid(cb)))
        mask = ~valid
    return batch.append_column(out, pa.array(nd, type=pa.float64(), mask=mask))


def explode_tokens(batch: pa.Table, column: str = "tokens", key: str = "doc_id") -> pa.Table:
    """Long-format view: one output row per token, with its in-row
    position — the positional/interleaved access path (the reference's
    interleaved band layout keeps per-pixel ordering explicit,
    read_raster.cpp:524-531; here the in-row offset math is surfaced as a
    first-class column so token-level analytics can address order).
    Fully vectorized: repeat for keys, arange-minus-starts for positions."""
    child, offsets, _, child_valid = _child_and_rebuild(batch, column)
    lengths = (offsets[1:] - offsets[:-1]).astype(np.int64)
    idx = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    pos = np.arange(len(child), dtype=np.int64) - np.repeat(
        offsets[:-1].astype(np.int64), lengths
    )
    keys = batch.column(key).take(pa.array(idx))
    # null elements stay NULL in the long view — filling them with 0 would
    # make them indistinguishable from real token id 0 (token_stats skips
    # them; the explode must agree)
    mask = None if child_valid is None else ~child_valid
    return pa.table(
        {
            key: keys,
            "pos": pa.array(pos.astype(np.int32), type=pa.int32()),
            "token": pa.array(child.astype(np.int64), type=pa.int64(), mask=mask),
        }
    )


def position_weighted(
    batch: pa.Table, column: str = "tokens", id_cols: tuple = ("doc_id", "n_tok", "source")
) -> pa.Table:
    """Per-row position-weighted checksum sum(pos * token): a value that
    changes if any two tokens swap places, so it pins the decode path's
    in-row ORDER (the offset math `explode_tokens` exposes), not just the
    multiset of values. Null token elements contribute 0."""
    child, offsets, _, child_valid = _child_and_rebuild(batch, column)
    lengths = (offsets[1:] - offsets[:-1]).astype(np.int64)
    pos = np.arange(len(child), dtype=np.int64) - np.repeat(
        offsets[:-1].astype(np.int64), lengths
    )
    w = pos * child.astype(np.int64)
    if child_valid is not None:
        w = np.where(child_valid, w, 0)
    posw = _row_reduce(np.add, w, offsets, 0, np.int64)
    cols = {c: batch.column(c) for c in id_cols if c in batch.column_names}
    cols["posw"] = pa.array(posw, type=pa.int64())
    return pa.table(cols)
