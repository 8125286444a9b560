"""Join-family and time-window operators — the relational surface a
training-data pipeline needs around the encode engine (event/metadata
enrichment, time-bucketed corpus stats, sessionization for interaction
data).

The reference has NO shuffled joins (SURVEY.md §2: its two join-like
shapes are metadata broadcast and key lookup); these operators extend the
same two scale disciplines to general relational work:

  * small side        -> broadcast ONCE (``ray.put`` via actor-pool
                         constructor args), vectorized lookup per batch —
                         never a shuffle, never re-shipped per batch
                         (the reference's metadata-row broadcast,
                         /root/reference/src/raquet_extension.cpp:40-44,
                         generalized to arbitrary dimension tables);
  * large-large       -> ONE coarse hash-bucket shuffle (fixed bucket
                         count, the dedup discipline in dedup.py) with the
                         fine-grained merge fully vectorized inside each
                         bucket — per-group overhead stays O(buckets), not
                         O(keys).

As-of semantics follow the standard definition (latest right row with
``right_ts <= left_ts`` per key); ties on ``right_ts`` break to the
largest ``tie_col`` so results are deterministic and oracle-checkable.

All merges run on numpy views of Arrow columns; no per-row Python in any
hot path (the per-batch merge is one lexsort + one maximum.accumulate).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..functions import detmix
from ..util import bucketed, default_concurrency, strip_schema_metadata

N_JOIN_BUCKETS = 256


# ---------------------------------------------------------------------------
# broadcast hash join (small dimension table)
# ---------------------------------------------------------------------------


class BroadcastJoiner:
    """Actor-pool stage: equi-join each batch against a small dimension
    table held in actor state. The table ships ONCE per actor through the
    constructor (Ray puts constructor args in the object store — the
    broadcast pattern), and the per-batch work is two Arrow kernels:
    ``index_in`` + ``take``."""

    def __init__(self, small: pa.Table, left_key: str, right_key: str,
                 how: str = "inner"):
        if how not in ("inner", "left"):
            raise ValueError(f"how must be inner|left, got {how!r}")
        self.left_key = left_key
        self.how = how
        # combine_chunks once: index_in against a chunked value_set re-chunks
        # per call
        small = small.combine_chunks()
        self.keys = small.column(right_key)
        self.payload = small.drop_columns([right_key])
        if pc.count_distinct(self.keys).as_py() != len(self.keys):
            raise ValueError(f"right key {right_key!r} is not unique")

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = strip_schema_metadata(batch)  # output keeps the left batch's schema
        clash = set(self.payload.column_names) & set(batch.column_names)
        if clash:
            raise ValueError(
                f"broadcast-join payload column(s) {sorted(clash)} already "
                "exist on the left side — project or rename before joining"
            )
        idx = pc.index_in(batch.column(self.left_key), value_set=self.keys)
        if self.how == "inner":
            keep = pc.is_valid(idx)
            batch = batch.filter(keep)
            idx = idx.filter(keep)
        for name in self.payload.column_names:
            # take with null indices yields nulls -> LEFT join semantics
            batch = batch.append_column(name, self.payload.column(name).take(idx))
        return batch


def broadcast_join(
    ds: rd.Dataset,
    small: pa.Table,
    left_key: str,
    right_key: str,
    how: str = "inner",
    batch_size: int = 8192,
    concurrency=None,
) -> rd.Dataset:
    """Equi-join a Dataset against a small unique-keyed table, broadcast-side.

    The small table must fit in one worker heap (dimension tables — at
    100 TB the fact side streams, the dimension side is ~MBs). For
    large-large equi-joins, bucket both sides like :func:`asof_join`.
    """
    if concurrency is None:
        concurrency = (1, default_concurrency())
    return ds.map_batches(
        BroadcastJoiner,
        fn_constructor_kwargs={"small": small, "left_key": left_key,
                               "right_key": right_key, "how": how},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )


# ---------------------------------------------------------------------------
# as-of join (vectorized merge kernel + broadcast / bucketed drivers)
# ---------------------------------------------------------------------------


def _asof_merge_indices(
    l_key: np.ndarray, l_ts: np.ndarray,
    r_key: np.ndarray, r_ts: np.ndarray, r_tie: np.ndarray,
) -> np.ndarray:
    """For each left row, the index of the matching right row (or -1).

    Match = the right row with the same key and the greatest ``r_ts <=
    l_ts``; ties on ``r_ts`` break to the greatest ``r_tie``. One combined
    lexsort over both sides, then a running maximum of right-row ids:
    within the sorted order every right row precedes the left rows it can
    serve (left sorts AFTER right at equal (key, ts) — `<=` semantics), so
    ``maximum.accumulate`` carries the best-so-far right id forward. A
    carried id from a PREVIOUS key block is rejected by the final
    key-equality check — no per-key reset pass needed."""
    nr, nl = len(r_key), len(l_key)
    if nr == 0 or nl == 0:
        return np.full(nl, -1, np.int64)
    # sort right by (key, ts, tie) so the LAST row of an eligible run is
    # the max-ts / max-tie match; its position in this order is its id
    r_order = np.lexsort((r_tie, r_ts, r_key))
    rk, rt = r_key[r_order], r_ts[r_order]

    key = np.concatenate([rk, l_key])
    ts = np.concatenate([rt, l_ts])
    side = np.concatenate([np.zeros(nr, np.int8), np.ones(nl, np.int8)])
    order = np.lexsort((side, ts, key))

    # right rows carry their sorted-right id (monotone in the sort since
    # right ids were assigned in (key, ts) order); left rows carry -1
    ids = np.where(order < nr, order, -1)
    best = np.maximum.accumulate(ids)

    skey = key[order]
    left_pos = order >= nr
    match = best[left_pos]  # aligned with left rows in sorted order
    l_sorted = order[left_pos] - nr  # original left-row index per position
    # reject matches inherited from a different key block
    valid = (match >= 0) & (rk[np.maximum(match, 0)] == skey[left_pos])

    out = np.full(nl, -1, np.int64)
    out[l_sorted] = np.where(valid, r_order[np.maximum(match, 0)], -1)
    return out


def _ts_i64(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Timestamp/int column -> int64 numpy (epoch µs for timestamps).

    Nulls raise loudly: to_numpy would silently promote to float64 NaN,
    and NaN comparisons corrupt every merge/searchsorted downstream (the
    same failure class as the _bucket_ids null fix). Join/window keys
    must be filtered or filled by the caller."""
    if pa.types.is_timestamp(col.type):
        col = pc.cast(col, pa.timestamp("us"))
    arr = pc.cast(col, pa.int64())
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if arr.null_count:
        raise ValueError(
            "null join/window key values: filter or fill_null before joining"
        )
    return arr.to_numpy(zero_copy_only=False)


class AsofJoiner:
    """Actor-pool stage: as-of join each batch against a broadcast right
    table. Right side is sorted ONCE in ``__init__`` (per actor, never per
    batch); each batch pays one merge over (right + batch)."""

    def __init__(self, right: pa.Table, left_key: str, right_key: str,
                 left_ts: str, right_ts: str, tie_col: str,
                 right_cols: list[str] | None = None, how: str = "inner"):
        right = right.combine_chunks()
        self.left_key, self.left_ts, self.how = left_key, left_ts, how
        self.r_key = right.column(right_key).to_numpy(zero_copy_only=False)
        self.r_ts = _ts_i64(right.column(right_ts))
        self.r_tie = right.column(tie_col).to_numpy(zero_copy_only=False)
        keep = right_cols if right_cols is not None else [
            c for c in right.column_names if c != right_key
        ]
        self.payload = right.select(keep)

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = strip_schema_metadata(batch)  # output keeps the left batch's schema
        clash = set(self.payload.column_names) & set(batch.column_names)
        if clash:
            raise ValueError(
                f"as-of-join payload column(s) {sorted(clash)} already exist "
                "on the left side — pass right_cols excluding or renaming them"
            )
        l_key = batch.column(self.left_key).to_numpy(zero_copy_only=False)
        l_ts = _ts_i64(batch.column(self.left_ts))
        match = _asof_merge_indices(l_key, l_ts, self.r_key, self.r_ts, self.r_tie)
        if self.how == "inner":
            keep = match >= 0
            batch = batch.filter(pa.array(keep))
            match = match[keep]
        idx = pa.array(np.where(match >= 0, match, 0), type=pa.int64())
        mask = pa.array(match >= 0)
        for name in self.payload.column_names:
            col = self.payload.column(name).take(idx)
            if self.how == "left":
                col = pc.if_else(mask, col, pa.scalar(None, type=col.type))
            batch = batch.append_column(name, col)
        return batch


def asof_join_broadcast(
    ds: rd.Dataset,
    right: pa.Table,
    *,
    left_key: str,
    right_key: str,
    left_ts: str,
    right_ts: str,
    tie_col: str,
    right_cols: list[str] | None = None,
    how: str = "inner",
    batch_size: int = 8192,
    concurrency=None,
) -> rd.Dataset:
    """As-of join against a small broadcast right table (streaming left)."""
    if concurrency is None:
        concurrency = (1, default_concurrency())
    return ds.map_batches(
        AsofJoiner,
        fn_constructor_kwargs=dict(right=right, left_key=left_key,
                                   right_key=right_key, left_ts=left_ts,
                                   right_ts=right_ts, tie_col=tie_col,
                                   right_cols=right_cols, how=how),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )


# ---------------------------------------------------------------------------
# range (interval) join: left value v matches every interval [lo, hi]
# containing it — calendar enrichment, windowed labeling, maintenance
# blackouts. BETWEEN semantics, both ends inclusive.
# ---------------------------------------------------------------------------


class RangeJoiner:
    """Actor-pool stage: join each batch row to every broadcast interval
    [lo, hi] (inclusive) containing its value. Per batch: ONE argsort of
    the batch values, then two vectorized searchsorteds per interval
    table give each interval its contiguous slice of matching rows —
    O((n + I) log n + output), no per-row or per-interval Python loop.

    Scale contract: the interval table is the SMALL side (calendars,
    windows, blackout lists — ~10^2..10^5 rows), shipped once per actor
    through the constructor. Output size is the true join cardinality;
    overlapping intervals multiply rows by design."""

    def __init__(
        self,
        intervals: pa.Table,
        left_val: str,
        lo_col: str,
        hi_col: str,
        payload_cols: list[str] | None = None,
        how: str = "inner",
    ):
        if how not in ("inner", "left"):
            raise ValueError(f"how must be inner|left, got {how!r}")
        iv = intervals.combine_chunks()
        lo = _ts_i64(iv.column(lo_col))
        hi = _ts_i64(iv.column(hi_col))
        order = np.lexsort((hi, lo))  # deterministic interval order
        self.lo, self.hi = lo[order], hi[order]
        keep = (
            payload_cols
            if payload_cols is not None
            else [c for c in iv.column_names]
        )
        self.payload = iv.select(keep).take(pa.array(order, pa.int64()))
        self.left_val, self.how = left_val, how

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = strip_schema_metadata(batch)  # output keeps the left batch's schema
        v = _ts_i64(batch.column(self.left_val))
        order = np.argsort(v, kind="stable")
        vs = v[order]
        a = np.searchsorted(vs, self.lo, side="left")
        b = np.searchsorted(vs, self.hi, side="right")
        counts = np.maximum(b - a, 0)
        total = int(counts.sum())
        if total:
            idx_r = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
            starts = np.repeat(a, counts)
            offs = np.arange(total, dtype=np.int64) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            idx_l = order[starts + offs]
        else:
            idx_l = np.zeros(0, np.int64)
            idx_r = np.zeros(0, np.int64)
        out = batch.take(pa.array(idx_l, pa.int64()))
        ridx = pa.array(idx_r, pa.int64())
        for name in self.payload.column_names:
            out = out.append_column(name, self.payload.column(name).take(ridx))
        if self.how == "left":
            matched = np.zeros(len(batch), dtype=bool)
            matched[idx_l] = True
            rest = batch.filter(pa.array(~matched))
            if rest.num_rows:
                for name in self.payload.column_names:
                    rest = rest.append_column(
                        name, pa.nulls(rest.num_rows, self.payload.column(name).type)
                    )
                out = pa.concat_tables([out, rest])
        return out


def range_join_broadcast(
    ds: rd.Dataset,
    intervals: pa.Table,
    *,
    left_val: str,
    lo_col: str,
    hi_col: str,
    payload_cols: list[str] | None = None,
    how: str = "inner",
    batch_size: int = 8192,
    concurrency=None,
) -> rd.Dataset:
    """Interval join against a small broadcast interval table (streaming
    left): each left row joins every interval whose [lo, hi] contains its
    `left_val` (both ends inclusive — SQL ``BETWEEN`` semantics).
    `how="left"` keeps non-matching rows with null payload."""
    if concurrency is None:
        concurrency = (1, default_concurrency())
    return ds.map_batches(
        RangeJoiner,
        fn_constructor_kwargs=dict(
            intervals=intervals, left_val=left_val, lo_col=lo_col,
            hi_col=hi_col, payload_cols=payload_cols, how=how,
        ),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )


def asof_join(
    left: rd.Dataset,
    right: rd.Dataset,
    *,
    left_key: str,
    right_key: str,
    left_ts: str,
    right_ts: str,
    tie_col: str,
    right_cols: list[str] | None = None,
    n_buckets: int = N_JOIN_BUCKETS,
) -> rd.Dataset:
    """Large-large as-of join: ONE coarse hash-bucket shuffle of both
    sides, vectorized merge inside each bucket (inner semantics).

    A key's rows (both sides) always land in the same bucket, so the merge
    is exact; bucket count is FIXED (shuffle fan-out never scales with key
    cardinality). Skewed keys spread no further than their bucket — at
    100 TB pick n_buckets ≳ cluster cores and salt only if one single key
    exceeds a worker's heap (as-of state per key is just its right rows).
    """
    r_payload = right_cols if right_cols is not None else [
        c for c in right.schema().names if c != right_key
    ]
    l_cols = list(left.schema().names)
    out_names = l_cols + [c for c in r_payload if c not in l_cols]

    def tag_left(b: pa.Table) -> pa.Table:
        return b.append_column("_b", pa.array(_bucket_ids(b.column(left_key), n_buckets)))

    def tag_right(b: pa.Table) -> pa.Table:
        return b.append_column("_b", pa.array(_bucket_ids(b.column(right_key), n_buckets)))

    # union needs one schema: null-pad each side to the combined layout
    def pad(b: pa.Table, names: list[str], side: int) -> pa.Table:
        cols, fields = [], []
        for n in names:
            if n in b.column_names:
                c = b.column(n)
            else:
                c = pa.nulls(b.num_rows, type=_SCHEMA_CACHE[n])
            cols.append(c)
            fields.append(n)
        t = pa.table(dict(zip(fields, cols)))
        return t.append_column("_side", pa.array(np.full(b.num_rows, side, np.int8)))

    needed_r = sorted({right_key, right_ts, tie_col} | set(r_payload))
    _SCHEMA_CACHE = {}
    for name, typ in zip(left.schema().names, left.schema().types):
        _SCHEMA_CACHE[name] = typ
    for name, typ in zip(right.schema().names, right.schema().types):
        _SCHEMA_CACHE.setdefault(name, typ)
    all_names = list(dict.fromkeys(l_cols + needed_r))

    lt = left.map_batches(tag_left, batch_format="pyarrow").map_batches(
        lambda b: pad(b, all_names + ["_b"], 1), batch_format="pyarrow")
    rt = right.map_batches(tag_right, batch_format="pyarrow").map_batches(
        lambda b: pad(b, all_names + ["_b"], 0), batch_format="pyarrow")

    def merge(g: pa.Table) -> pa.Table:
        side = g.column("_side").to_numpy(zero_copy_only=False)
        lmask, rmask = side == 1, side == 0
        lg = g.filter(pa.array(lmask))
        rg = g.filter(pa.array(rmask))
        if lg.num_rows == 0 or rg.num_rows == 0:
            return pa.table({n: pa.nulls(0, type=_SCHEMA_CACHE[n]) for n in out_names})
        match = _asof_merge_indices(
            lg.column(left_key).to_numpy(zero_copy_only=False),
            _ts_i64(lg.column(left_ts)),
            rg.column(right_key).to_numpy(zero_copy_only=False),
            _ts_i64(rg.column(right_ts)),
            rg.column(tie_col).to_numpy(zero_copy_only=False),
        )
        keep = match >= 0
        lg = lg.filter(pa.array(keep))
        idx = pa.array(match[keep], type=pa.int64())
        cols = {n: lg.column(n) for n in l_cols}
        for n in r_payload:
            if n not in cols:
                cols[n] = rg.column(n).take(idx)
        return pa.table(cols)

    return bucketed(lt.union(rt), "_b", merge)


# ---------------------------------------------------------------------------
# large-large hash equi-join (bucketed shuffle, vectorized in-bucket expand)
# ---------------------------------------------------------------------------


def _bucket_ids(col, n_buckets: int) -> np.ndarray:
    """Deterministic bucket id per key value: integer keys take a plain
    modulus; string keys hash through detmix.string_hash64 (stable across
    runs/processes — never Python's randomized hash)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_integer(col.type):
        # fill nulls BEFORE leaving Arrow: a nullable int column comes back
        # from to_numpy as float64 with NaN (undefined int cast), and int
        # keys above 2^53 would lose precision in the float round-trip —
        # the merge stage already drops null-key rows by validity, so the
        # fill value only has to be deterministic
        # safe=False: uint64 keys above 2^63 wrap to two's complement —
        # deterministic, and numpy's % keeps the bucket id non-negative
        filled = pc.fill_null(col, 0).cast(pa.int64(), safe=False)
        k = filled.to_numpy(zero_copy_only=False)
        return (k % n_buckets).astype(np.int32)
    s = col.cast(pa.string()).to_pandas().fillna("").to_numpy(dtype=object)
    return (detmix.string_hash64(s) % np.uint64(n_buckets)).astype(np.int32)


def _equi_expand(l_key: np.ndarray, r_key: np.ndarray):
    """One-to-many equi-match: -> (left row idx repeated per match, right
    row idx, matches-per-left-row). Sort right once, binary-search every
    left key, expand runs with pure offset arithmetic — no per-row Python."""
    r_order = np.argsort(r_key, kind="stable")
    rk = r_key[r_order]
    lo = np.searchsorted(rk, l_key, side="left")
    hi = np.searchsorted(rk, l_key, side="right")
    cnt = hi - lo
    total = int(cnt.sum())
    l_idx = np.repeat(np.arange(len(l_key)), cnt)
    starts = np.repeat(lo, cnt)
    offs = np.arange(total) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    return l_idx, r_order[starts + offs], cnt


def hash_join(
    left: rd.Dataset,
    right: rd.Dataset,
    *,
    left_key: str,
    right_key: str,
    right_cols: list[str] | None = None,
    how: str = "inner",
    n_buckets: int = N_JOIN_BUCKETS,
) -> rd.Dataset:
    """General large-large equi-join (inner/left/semi/anti, one-to-many
    for the payload-carrying modes): ONE coarse hash-bucket shuffle of
    both sides, vectorized expand inside each bucket — the as-of join's
    bucket machinery specialized to plain key equality (its merge kernel
    is a superset of this one).

    ``how="semi"`` keeps left rows WITH a right match, ``how="anti"``
    keeps left rows WITHOUT one — both emit left columns only (no
    expansion), which is the distributed form of the broadcast drop-set
    filter dedup uses: when the filter side outgrows a sane `ray.put`,
    anti-join it instead. ``how="full"`` additionally emits unmatched
    RIGHT rows with every left column null (SQL FULL OUTER semantics —
    the right key survives only through requested ``right_cols``).

    Neither side needs to fit in memory: a key's rows (both sides)
    co-locate in one bucket, bucket count is FIXED (fan-out never scales
    with key cardinality), and per-bucket state is O(corpus / n_buckets)
    plus the expanded matches. NULL join keys follow SQL semantics: never
    equal (inner/semi drop them; left/anti keep the left row unmatched;
    full keeps null-key rows of BOTH sides unmatched).

    FULL-outer key semantics are SQL ``SELECT l.k``: right-only rows 
    carry NULL in the (left-named) key column, exactly like the oracle.
    To RETAIN unmatched right keys, use differently-named keys and list
    ``right_key`` in ``right_cols`` — with a shared key name the right
    key of an unmatched row is not representable in this layout.
    """
    if how not in ("inner", "left", "semi", "anti", "full"):
        raise ValueError(f"how must be inner|left|semi|anti|full, got {how!r}")
    r_payload = right_cols if right_cols is not None else [
        c for c in right.schema().names if c != right_key
    ]
    if how in ("semi", "anti"):
        r_payload = []  # existence-only: left columns out, no expansion
    l_cols = list(left.schema().names)
    clash = [c for c in r_payload if c in l_cols and c != right_key]
    if clash:
        # a silently-dropped right column would hand the caller LEFT
        # values under the name they asked to join in; fail loudly
        raise ValueError(
            f"right_cols {clash} collide with left column names — "
            "rename them on one side (select_columns + a rename "
            "map_batches) before joining"
        )
    out_extra = [c for c in r_payload if c not in l_cols]
    out_names = l_cols + out_extra

    schema_types: dict[str, pa.DataType] = {}
    for name, typ in zip(left.schema().names, left.schema().types):
        schema_types[name] = typ
    for name, typ in zip(right.schema().names, right.schema().types):
        schema_types.setdefault(name, typ)
    needed_r = sorted({right_key} | set(r_payload))
    all_names = list(dict.fromkeys(l_cols + needed_r))

    def pad(b: pa.Table, side: int) -> pa.Table:
        cols = {}
        for n in all_names:
            cols[n] = (
                b.column(n) if n in b.column_names
                else pa.nulls(b.num_rows, type=schema_types[n])
            )
        t = pa.table(cols)
        key = b.column(left_key if side == 1 else right_key)
        t = t.append_column("_b", pa.array(_bucket_ids(key, n_buckets)))
        return t.append_column("_side", pa.array(np.full(b.num_rows, side, np.int8)))

    lt = left.map_batches(lambda b: pad(b, 1), batch_format="pyarrow")
    rt = right.map_batches(lambda b: pad(b, 0), batch_format="pyarrow")

    def merge(g: pa.Table) -> pa.Table:
        side = g.column("_side").to_numpy(zero_copy_only=False)
        lg = g.filter(pa.array(side == 1))
        rg = g.filter(pa.array(side == 0))
        empty = pa.table({n: pa.nulls(0, type=schema_types[n]) for n in out_names})
        if lg.num_rows == 0:
            if how == "full" and rg.num_rows:
                # a bucket with only right rows: FULL keeps them all
                cols_r = {
                    n: pa.nulls(rg.num_rows, type=schema_types[n]) for n in l_cols
                }
                for n in out_extra:
                    cols_r[n] = rg.column(n)
                return pa.table(cols_r)
            return empty
        l_valid = pc.is_valid(lg.column(left_key)).to_numpy(zero_copy_only=False)
        r_valid = pc.is_valid(rg.column(right_key)).to_numpy(zero_copy_only=False)
        rg_v = rg.filter(pa.array(r_valid)) if not r_valid.all() else rg
        lg_m = lg.filter(pa.array(l_valid)) if not l_valid.all() else lg
        if how in ("semi", "anti"):
            if lg_m.num_rows and rg_v.num_rows:
                rk = np.sort(rg_v.column(right_key).to_numpy(zero_copy_only=False))
                lk = lg_m.column(left_key).to_numpy(zero_copy_only=False)
                has = np.searchsorted(rk, lk, "right") > np.searchsorted(rk, lk, "left")
            else:
                has = np.zeros(lg_m.num_rows, dtype=bool)
            if how == "semi":
                return lg_m.filter(pa.array(has)).select(l_cols)
            parts = [lg_m.filter(pa.array(~has)).select(l_cols)]
            if not l_valid.all():  # null keys never match: anti keeps them
                parts.append(lg.filter(pa.array(~l_valid)).select(l_cols))
            return pa.concat_tables(parts)
        if lg_m.num_rows and rg_v.num_rows:
            l_idx, r_idx, cnt = _equi_expand(
                lg_m.column(left_key).to_numpy(zero_copy_only=False),
                rg_v.column(right_key).to_numpy(zero_copy_only=False),
            )
        else:
            l_idx = np.zeros(0, np.int64)
            r_idx = np.zeros(0, np.int64)
            cnt = np.zeros(lg_m.num_rows, np.int64)
        matched_l = lg_m.take(pa.array(l_idx, pa.int64()))
        matched_r = rg_v.take(pa.array(r_idx, pa.int64()))
        cols = {n: matched_l.column(n) for n in l_cols}
        for n in out_extra:
            cols[n] = matched_r.column(n)
        out = pa.table(cols)
        if how in ("left", "full"):
            # unmatched valid-key rows + all null-key left rows, null payload
            un_valid = lg_m.filter(pa.array(cnt == 0))
            un_null = lg.filter(pa.array(~l_valid)) if not l_valid.all() else None
            parts = [out]
            for un in (un_valid, un_null):
                if un is not None and un.num_rows:
                    cols_u = {n: un.column(n) for n in l_cols}
                    for n in out_extra:
                        cols_u[n] = pa.nulls(un.num_rows, type=schema_types[n])
                    parts.append(pa.table(cols_u))
            out = pa.concat_tables(parts)
        if how == "full":
            # unmatched right rows (valid keys with no left match + all
            # null-key right rows): every left column null, payload kept
            hit = np.zeros(rg_v.num_rows, bool)
            if len(r_idx):
                hit[r_idx] = True
            parts = [out]
            un_r = rg_v.filter(pa.array(~hit))
            un_rn = rg.filter(pa.array(~r_valid)) if not r_valid.all() else None
            for un in (un_r, un_rn):
                if un is not None and un.num_rows:
                    cols_r = {
                        n: pa.nulls(un.num_rows, type=schema_types[n])
                        for n in l_cols
                    }
                    for n in out_extra:
                        cols_r[n] = un.column(n)
                    parts.append(pa.table(cols_r))
            out = pa.concat_tables(parts)
        return out

    return bucketed(lt.union(rt), "_b", merge)


# ---------------------------------------------------------------------------
# time windows: tumbling / sliding aggregate, session windows
# ---------------------------------------------------------------------------


def window_agg(
    ds: rd.Dataset,
    ts_col: str,
    every_us: int,
    value_col: str,
    group_col: str | None = None,
    size_us: int | None = None,
) -> rd.Dataset:
    """Tumbling (or sliding, with ``size_us > every_us``) window aggregate.

    Emits one row per (window start µs[, group]) with count/min/max of
    ``value_col``. Window assignment is per-batch vectorized arithmetic —
    the only wide step is the final small groupby over O(windows) rows
    (pre-aggregated per batch by Ray's partial groupby). Sliding windows
    replicate each row into its ``ceil(size/every)`` windows inside the
    batch (row count grows by that constant factor, never by key skew)."""
    size_us = size_us or every_us
    nwin = -(-size_us // every_us)  # ceil

    def assign(b: pa.Table) -> pa.Table:
        t = _ts_i64(b.column(ts_col))
        if nwin == 1:
            w = (t // every_us) * every_us
            if size_us < every_us:
                # hopping sample: only rows inside [w, w + size) belong
                keep = (t - w) < size_us
                b = b.filter(pa.array(keep))
                w = w[keep]
            return b.append_column("w_us", pa.array(w, type=pa.int64()))
        # windows k*every covering t: k_max = t//every, back nwin-1 steps,
        # keep those with k*every > t - size
        reps = np.repeat(np.arange(b.num_rows), nwin)
        k = (t // every_us)[reps] - np.tile(np.arange(nwin), b.num_rows)
        w = k * every_us
        keep = w > (t[reps] - size_us)
        out = b.take(pa.array(reps[keep]))
        return out.append_column("w_us", pa.array(w[keep], type=pa.int64()))

    keys = ["w_us"] + ([group_col] if group_col else [])
    return (
        ds.map_batches(assign, batch_format="pyarrow")
        .groupby(keys)
        .aggregate(
            rd.aggregate.Count(),
            rd.aggregate.Min(value_col),
            rd.aggregate.Max(value_col),
        )
    )


def session_windows(
    ds: rd.Dataset,
    key_col: str,
    ts_col: str,
    gap_us: int,
    order_tie_col: str,
    n_buckets: int = N_JOIN_BUCKETS,
) -> rd.Dataset:
    """Gap-based sessionization: per key, rows ordered by (ts, tie) start a
    new session whenever the gap to the previous row exceeds ``gap_us``.
    Emits (key, session_id starting at 1, n_events, start_us, end_us).

    One coarse bucket shuffle (a key's rows co-locate), then the session
    assignment is one lexsort + cumsum per bucket — no per-key Python. The
    explicit ``order_tie_col`` pins equal-timestamp ordering so session
    boundaries are deterministic (and SQL-oracle-checkable)."""

    def bucket(b: pa.Table) -> pa.Table:
        cols = pa.table({
            key_col: b.column(key_col),
            "_ts": pa.array(_ts_i64(b.column(ts_col)), type=pa.int64()),
            "_tie": b.column(order_tie_col),
        })
        return cols.append_column("_b", pa.array(_bucket_ids(b.column(key_col), n_buckets)))

    def sessionize(g: pa.Table) -> pa.Table:
        k = g.column(key_col).to_numpy(zero_copy_only=False)
        t = g.column("_ts").to_numpy(zero_copy_only=False)
        tie = g.column("_tie").to_numpy(zero_copy_only=False)
        order = np.lexsort((tie, t, k))
        ks, ts_ = k[order], t[order]
        new_key = np.empty(len(ks), np.bool_)
        new_key[0] = True
        new_key[1:] = ks[1:] != ks[:-1]
        brk = new_key.copy()
        brk[1:] |= (ts_[1:] - ts_[:-1]) > gap_us
        # session id restarts at 1 per key: global cumsum minus the cumsum
        # value at the key's first row
        sid_global = np.cumsum(brk)
        key_base = np.maximum.accumulate(np.where(new_key, sid_global - 1, 0))
        sid = sid_global - key_base
        # per-session aggregates via reduceat over session starts
        starts = np.flatnonzero(brk)
        ends = np.r_[starts[1:], len(ks)]
        return pa.table({
            key_col: pa.array(ks[starts]),
            "session_id": pa.array(sid[starts], type=pa.int64()),
            "n_events": pa.array(ends - starts, type=pa.int64()),
            "start_us": pa.array(ts_[starts], type=pa.int64()),
            "end_us": pa.array(ts_[ends - 1], type=pa.int64()),
        })

    return bucketed(ds.map_batches(bucket, batch_format="pyarrow"), "_b", sessionize)


def _round_half_away(x: np.ndarray) -> np.ndarray:
    """round() with DuckDB/SQL semantics (half AWAY from zero) -> int64."""
    return np.copysign(np.floor(np.abs(x) + 0.5), x).astype(np.int64)


def cumulative_window(
    ds: rd.Dataset,
    key_col: str,
    ts_col: str,
    order_tie_col: str,
    value_col: str,
    n_buckets: int = N_JOIN_BUCKETS,
) -> rd.Dataset:
    """Per-key running aggregates — the ``SUM(...) OVER (PARTITION BY key
    ORDER BY ts, tie ROWS UNBOUNDED PRECEDING)`` surface: one row per input
    row with its 1-based rank (`cum_n`) and running value sum in integer
    MICRO-units (`cum_value_micro` = running sum of round(v * 1e6), NULLs
    as 0). Fixed-point on purpose: a float running sum is not
    order-hash-stable across engines (DuckDB's windowed SUM groups
    additions via a segment tree — 1-ulp drift vs a sequential cumsum,
    measured on 37% of rows at sf0.01 — and near-tied doubles then sort
    differently), while the integer fold is EXACT and engine-independent.

    Same shape as session_windows: ONE coarse bucket shuffle co-locates
    each key's rows, then one lexsort + global-cumsum-minus-key-base per
    bucket — no per-key Python."""

    def bucket(b: pa.Table) -> pa.Table:
        cols = pa.table({
            key_col: b.column(key_col),
            "_ts": pa.array(_ts_i64(b.column(ts_col)), type=pa.int64()),
            "_tie": b.column(order_tie_col),
            # half-AWAY-from-zero like DuckDB round() — np.round is
            # half-to-even and would diverge by 1 micro-unit on values
            # whose v*1e6 lands exactly on .5
            "_v": pa.array(
                _round_half_away(
                    pc.fill_null(b.column(value_col), 0.0)
                    .cast(pa.float64())
                    .to_numpy(zero_copy_only=False)
                    * 1e6
                )
            ),
        })
        return cols.append_column("_b", pa.array(_bucket_ids(b.column(key_col), n_buckets)))

    def accumulate(g: pa.Table) -> pa.Table:
        k = g.column(key_col).to_numpy(zero_copy_only=False)
        t = g.column("_ts").to_numpy(zero_copy_only=False)
        tie = g.column("_tie").to_numpy(zero_copy_only=False)
        v = g.column("_v").to_numpy(zero_copy_only=False)
        order = np.lexsort((tie, t, k))
        ks, ties, vs = k[order], tie[order], v[order]
        new_key = np.empty(len(ks), np.bool_)
        new_key[0] = True
        new_key[1:] = ks[1:] != ks[:-1]
        idx = np.arange(len(ks), dtype=np.int64)
        base_n = np.maximum.accumulate(np.where(new_key, idx, 0))
        cum_n = idx - base_n + 1
        cs = np.cumsum(vs)
        # cs just before each key's first row (row 0: cs[0]-vs[0] == 0)
        base_v = np.maximum.accumulate(np.where(new_key, idx + 1, 0)) - 1
        cum_v = cs - (cs[base_v] - vs[base_v])
        return pa.table({
            order_tie_col: pa.array(ties),
            key_col: pa.array(ks),
            "cum_n": pa.array(cum_n, type=pa.int64()),
            "cum_value_micro": pa.array(cum_v, type=pa.int64()),
        })

    return bucketed(ds.map_batches(bucket, batch_format="pyarrow"), "_b", accumulate)


def cumulative_window_oracle_sql(
    table: str = "events",
    key_col: str = "user_id",
    ts_col: str = "ts",
    order_tie_col: str = "event_id",
    value_col: str = "value",
) -> str:
    """DuckDB twin of cumulative_window (explicit ROWS frame — RANGE would
    merge equal order keys; the tie column keeps frames unique anyway)."""
    return f"""SELECT {order_tie_col}, {key_col},
  (row_number() OVER w)::BIGINT AS cum_n,
  sum(round(coalesce({value_col}, 0) * 1000000)::BIGINT) OVER w::BIGINT
    AS cum_value_micro
FROM {table}
WINDOW w AS (PARTITION BY {key_col} ORDER BY {ts_col}, {order_tie_col}
             ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)"""


def rolling_window(
    ds: rd.Dataset,
    key_col: str,
    ts_col: str,
    order_tie_col: str,
    value_col: str,
    window_rows: int = 5,
    n_buckets: int = N_JOIN_BUCKETS,
) -> rd.Dataset:
    """Per-key TRAILING-window aggregates — the ``SUM(...) OVER
    (PARTITION BY key ORDER BY ts, tie ROWS BETWEEN k-1 PRECEDING AND
    CURRENT ROW)`` surface (moving averages / rate smoothing): one row
    per input row with the in-frame row count (`roll_n`, < k near each
    key's start) and the trailing sum in integer MICRO-units
    (`roll_value_micro` — the cumulative_window fixed-point rationale).

    Same shape as cumulative_window: one coarse bucket shuffle, one
    lexsort + global-cumsum per bucket; the trailing frame is cumsum[i] -
    cumsum[start-1] with start = max(key's first row, i - k + 1) — no
    per-key or per-frame Python."""
    if window_rows < 1:
        raise ValueError(f"window_rows must be >= 1, got {window_rows}")
    k_rows = int(window_rows)

    def bucket(b: pa.Table) -> pa.Table:
        cols = pa.table({
            key_col: b.column(key_col),
            "_ts": pa.array(_ts_i64(b.column(ts_col)), type=pa.int64()),
            "_tie": b.column(order_tie_col),
            "_v": pa.array(
                _round_half_away(
                    pc.fill_null(b.column(value_col), 0.0)
                    .cast(pa.float64())
                    .to_numpy(zero_copy_only=False)
                    * 1e6
                )
            ),
        })
        return cols.append_column("_b", pa.array(_bucket_ids(b.column(key_col), n_buckets)))

    def accumulate(g: pa.Table) -> pa.Table:
        k = g.column(key_col).to_numpy(zero_copy_only=False)
        t = g.column("_ts").to_numpy(zero_copy_only=False)
        tie = g.column("_tie").to_numpy(zero_copy_only=False)
        v = g.column("_v").to_numpy(zero_copy_only=False)
        order = np.lexsort((tie, t, k))
        ks, ties, vs = k[order], tie[order], v[order]
        new_key = np.empty(len(ks), np.bool_)
        new_key[0] = True
        new_key[1:] = ks[1:] != ks[:-1]
        idx = np.arange(len(ks), dtype=np.int64)
        key_first = np.maximum.accumulate(np.where(new_key, idx, 0))
        start = np.maximum(key_first, idx - k_rows + 1)
        cs0 = np.zeros(len(ks) + 1, np.int64)
        np.cumsum(vs, out=cs0[1:])
        return pa.table({
            order_tie_col: pa.array(ties),
            key_col: pa.array(ks),
            "roll_n": pa.array(idx - start + 1, type=pa.int64()),
            "roll_value_micro": pa.array(cs0[idx + 1] - cs0[start], type=pa.int64()),
        })

    return bucketed(ds.map_batches(bucket, batch_format="pyarrow"), "_b", accumulate)


def rolling_window_oracle_sql(
    table: str = "events",
    key_col: str = "user_id",
    ts_col: str = "ts",
    order_tie_col: str = "event_id",
    value_col: str = "value",
    window_rows: int = 5,
) -> str:
    """DuckDB twin of rolling_window (explicit trailing ROWS frame)."""
    return f"""SELECT {order_tie_col}, {key_col},
  (count(*) OVER w)::BIGINT AS roll_n,
  sum(round(coalesce({value_col}, 0) * 1000000)::BIGINT) OVER w::BIGINT
    AS roll_value_micro
FROM {table}
WINDOW w AS (PARTITION BY {key_col} ORDER BY {ts_col}, {order_tie_col}
             ROWS BETWEEN {int(window_rows) - 1} PRECEDING AND CURRENT ROW)"""


def rolling_time_window(
    ds: rd.Dataset,
    key_col: str,
    ts_col: str,
    order_tie_col: str,
    value_col: str,
    range_us: int = 5_000_000,
    n_buckets: int = N_JOIN_BUCKETS,
) -> rd.Dataset:
    """Per-key trailing TIME-range aggregates — the ``RANGE BETWEEN
    INTERVAL t PRECEDING AND CURRENT ROW`` surface (rate limiting,
    rolling event rates): one row per input row with the count and
    fixed-point micro-unit sum of the key's rows in [ts - range_us, ts].

    RANGE semantics (matching SQL): the frame is bounded by TIMESTAMP,
    so rows sharing the current row's exact ts are ALL in frame
    regardless of tie order — the frame end is the last peer of ts_i,
    found with one searchsorted(right) next to the searchsorted(left)
    for the start; same bucket + lexsort + cumsum-difference shape as
    rolling_window, still no per-frame work."""
    if range_us < 0:
        raise ValueError(f"range_us must be >= 0, got {range_us}")
    r_us = int(range_us)

    def bucket(b: pa.Table) -> pa.Table:
        cols = pa.table({
            key_col: b.column(key_col),
            "_ts": pa.array(_ts_i64(b.column(ts_col)), type=pa.int64()),
            "_tie": b.column(order_tie_col),
            "_v": pa.array(
                _round_half_away(
                    pc.fill_null(b.column(value_col), 0.0)
                    .cast(pa.float64())
                    .to_numpy(zero_copy_only=False)
                    * 1e6
                )
            ),
        })
        return cols.append_column("_b", pa.array(_bucket_ids(b.column(key_col), n_buckets)))

    def accumulate(g: pa.Table) -> pa.Table:
        k = g.column(key_col).to_numpy(zero_copy_only=False)
        t = g.column("_ts").to_numpy(zero_copy_only=False)
        tie = g.column("_tie").to_numpy(zero_copy_only=False)
        v = g.column("_v").to_numpy(zero_copy_only=False)
        order = np.lexsort((tie, t, k))
        ks, ts_, ties, vs = k[order], t[order], tie[order], v[order]
        n = len(ks)
        new_key = np.empty(n, np.bool_)
        new_key[0] = True
        new_key[1:] = ks[1:] != ks[:-1]
        idx = np.arange(n, dtype=np.int64)
        key_first = np.maximum.accumulate(np.where(new_key, idx, 0))
        # per-key searchsorted via a fused (key-run-id, ts) int key: runs
        # are contiguous after the lexsort, so (run base offset subtracted)
        run_id = np.cumsum(new_key) - 1
        # frame start: first index in this key's run with ts >= ts_i - r
        # frame end: last peer of ts_i (RANGE includes all equal-ts rows)
        starts = np.empty(n, np.int64)
        ends = np.empty(n, np.int64)
        run_bounds = np.flatnonzero(new_key)
        run_ends = np.r_[run_bounds[1:], n]
        for b0, b1 in zip(run_bounds, run_ends):  # per KEY-run, C inside
            seg = ts_[b0:b1]
            starts[b0:b1] = b0 + np.searchsorted(seg, seg - r_us, side="left")
            ends[b0:b1] = b0 + np.searchsorted(seg, seg, side="right")
        cs0 = np.zeros(n + 1, np.int64)
        np.cumsum(vs, out=cs0[1:])
        return pa.table({
            order_tie_col: pa.array(ties),
            key_col: pa.array(ks),
            "range_n": pa.array(ends - starts, type=pa.int64()),
            "range_value_micro": pa.array(
                cs0[ends] - cs0[starts], type=pa.int64()
            ),
        })

    return bucketed(ds.map_batches(bucket, batch_format="pyarrow"), "_b", accumulate)


def rolling_time_oracle_sql(
    table: str = "events",
    key_col: str = "user_id",
    ts_col: str = "ts",
    order_tie_col: str = "event_id",
    value_col: str = "value",
    range_us: int = 5_000_000,
) -> str:
    """DuckDB twin of rolling_time_window (explicit RANGE frame over the
    epoch-µs ordering)."""
    return f"""SELECT {order_tie_col}, {key_col},
  (count(*) OVER w)::BIGINT AS range_n,
  sum(round(coalesce({value_col}, 0) * 1000000)::BIGINT) OVER w::BIGINT
    AS range_value_micro
FROM {table}
WINDOW w AS (PARTITION BY {key_col} ORDER BY epoch_us({ts_col})
             RANGE BETWEEN {int(range_us)} PRECEDING AND CURRENT ROW)"""


def lag_gap_window(
    ds: rd.Dataset,
    key_col: str,
    ts_col: str,
    order_tie_col: str,
    n_buckets: int = N_JOIN_BUCKETS,
) -> rd.Dataset:
    """Per-key inter-event gap — ``ts - lag(ts) OVER (PARTITION BY key
    ORDER BY ts, tie)`` in epoch µs (NULL for each key's first row): the
    inter-arrival-time surface behind session gap tuning and rate
    anomaly checks. Same bucket + lexsort shape as cumulative_window;
    integer µs end-to-end, so the oracle compare is exact."""

    def bucket(b: pa.Table) -> pa.Table:
        cols = pa.table({
            key_col: b.column(key_col),
            "_ts": pa.array(_ts_i64(b.column(ts_col)), type=pa.int64()),
            "_tie": b.column(order_tie_col),
        })
        return cols.append_column("_b", pa.array(_bucket_ids(b.column(key_col), n_buckets)))

    def gaps(g: pa.Table) -> pa.Table:
        k = g.column(key_col).to_numpy(zero_copy_only=False)
        t = g.column("_ts").to_numpy(zero_copy_only=False)
        tie = g.column("_tie").to_numpy(zero_copy_only=False)
        order = np.lexsort((tie, t, k))
        ks, ts_, ties = k[order], t[order], tie[order]
        gap = np.empty(len(ks), np.int64)
        gap[0] = 0
        gap[1:] = ts_[1:] - ts_[:-1]
        first = np.empty(len(ks), np.bool_)
        first[0] = True
        first[1:] = ks[1:] != ks[:-1]
        return pa.table({
            order_tie_col: pa.array(ties),
            key_col: pa.array(ks),
            # mask=True -> NULL: each key's first row has no predecessor
            "gap_us": pa.array(gap, type=pa.int64(), mask=first),
        })

    return bucketed(ds.map_batches(bucket, batch_format="pyarrow"), "_b", gaps)


def lag_gap_oracle_sql(
    table: str = "events",
    key_col: str = "user_id",
    ts_col: str = "ts",
    order_tie_col: str = "event_id",
) -> str:
    """DuckDB twin of lag_gap_window (integer µs, exact compare)."""
    return f"""SELECT {order_tie_col}, {key_col},
  (epoch_us({ts_col}) - lag(epoch_us({ts_col})) OVER w)::BIGINT AS gap_us
FROM {table}
WINDOW w AS (PARTITION BY {key_col} ORDER BY {ts_col}, {order_tie_col})"""
