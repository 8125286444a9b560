"""Sequence packing — GPT-style concat-and-chop of a tokenized corpus
into fixed-length context windows.

Canonical pretraining packing: concatenate every document's tokens in
corpus order, append ONE separator token after each document, then cut the
stream every `window` tokens (documents may span a cut — the attention
mask handles that downstream). No analogue exists in the reference (it
packs pixels, not sequences); this is one of the beyond-reference
training-data operators the engine adds as a first-class component.

Scale shape — a distributed two-pass prefix sum, no all-to-all:

  pass 1 (plan): read ONLY the `n_tok` column of every shard (pruned
      column read), fold per-shard token totals on the driver, and
      exclusive-scan them into a per-shard BASE OFFSET — O(#shards)
      driver state, the same planner pattern as pipelines/encode.py.
  pass 2 (map): each shard task knows its global base, so every token's
      global position — hence its window id and offset inside the
      window — is pure arithmetic. Tasks emit per-window PARTIALS
      (count, position-weighted checksum, or the raw token pieces);
      only windows STRADDLING a shard boundary need merging, so the
      final groupby(window) moves O(#windows) tiny rows, never tokens.

The per-window checksum is position-weighted (sum((1 + pos_in_window) *
token)), so it pins token ORDER inside every window, and it is exactly
replicable in ANSI SQL (see __ray_entry__ `packed_windows` oracle).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd

from .. import util

SEP_TOKEN = 50_256  # GPT-2-style end-of-text id
DEFAULT_WINDOW = 2_048
# rows per streamed read chunk in pack_windows (~0.5 k tok/doc avg -> ~2 M
# tokens = 16 MB/chunk); task memory is O(this + window), not O(shard)
_PACK_READ_ROWS = 4096


def plan_offsets(paths: list[str], length_column: str = "n_tok") -> list[dict]:
    """Pass 1: per-shard exclusive base offsets of the packed stream
    (each doc contributes n_tok + 1 — its tokens plus one separator).

    The per-shard totals are computed by PARALLEL pruned column reads
    (one tiny task per shard through Ray Data), not a serial driver loop —
    at 10^5 shards a serial footer+column read per file would make pass 1
    the job's wall-clock floor. Only O(#shards) scalars return to the
    driver for the exclusive scan."""

    def shard_total(batch: pa.Table) -> pa.Table:
        util.retain_heap()
        totals = []
        for p in batch.column("path").to_pylist():
            t = pq.read_table(p, columns=[length_column])
            totals.append(int(np.asarray(t.column(length_column)).sum()) + t.num_rows)
        return pa.table({"path": batch.column("path"), "total": pa.array(totals, pa.int64())})

    items = rd.from_items([{"path": p} for p in paths], override_num_blocks=len(paths))
    got = {
        r["path"]: r["total"]
        for r in items.map_batches(shard_total, batch_format="pyarrow").take_all()
    }
    totals = [got[p] for p in paths]  # restore input order (take_all may not)
    bases = np.zeros(len(paths), dtype=np.int64)
    np.cumsum(totals[:-1], out=bases[1:])
    return [
        {"path": p, "base": int(b), "total": int(n)}
        for p, b, n in zip(paths, bases, totals)
    ]


def _flat_with_seps(t: pa.Table, tokens_column: str) -> np.ndarray:
    """Concatenate the shard's token lists with a separator after each doc
    — vectorized scatter, no per-row loop."""
    col = t.column(tokens_column)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    child = col.flatten().to_numpy(zero_copy_only=False).astype(np.int32)
    lengths = np.asarray(
        pc.list_value_length(col).to_numpy(zero_copy_only=False), dtype=np.int64
    )
    n = len(child) + len(lengths)
    # int32 plane: tokens are vocab ids (input list<int32>, SEP fits) — at
    # 100 TB an int64 plane would double object-store and sink traffic
    flat = np.empty(n, dtype=np.int32)
    # separator positions: after each doc's tokens in the packed stream
    sep_pos = np.cumsum(lengths + 1) - 1
    flat[sep_pos] = SEP_TOKEN
    mask = np.ones(n, dtype=bool)
    mask[sep_pos] = False
    flat[mask] = child
    return flat


def _window_splits(base: int, n: int, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Split indices of a shard's [base, base+n) stream slice at global
    window boundaries -> (segment start indices into the slice, window ids)."""
    first_w = base // window
    last_w = (base + n - 1) // window
    wins = np.arange(first_w, last_w + 1, dtype=np.int64)
    starts = np.maximum(wins * window - base, 0)
    return starts, wins


def packed_window_stats(
    paths: list[str],
    window: int = DEFAULT_WINDOW,
    tokens_column: str = "tokens",
    length_column: str = "n_tok",
) -> rd.Dataset:
    """-> Dataset of (window, n_tokens, checksum): count and position-
    weighted checksum of every packed context window (order-pinning,
    SQL-replicable). Shard tasks emit per-window partials; the groupby
    merges only boundary-straddling windows."""
    plan = plan_offsets(paths, length_column)
    # corpus-scaled fan-out: the merge stream is one 24 B row per window
    # (count + checksum partials); window ids are SEQUENTIAL, so a plain
    # modulus spreads them uniformly — no pre-mix needed
    corpus_total = (plan[-1]["base"] + plan[-1]["total"]) if plan else 0
    nb = util.scaled_buckets(24 * (corpus_total // window + 1))

    def shard_partials(batch: pa.Table) -> pa.Table:
        util.retain_heap()
        out = []
        for row in batch.to_pylist():
            t = pq.read_table(row["path"], columns=[tokens_column])
            flat = _flat_with_seps(t, tokens_column)
            if len(flat) != row["total"]:
                raise ValueError(
                    f"{row['path']}: token stream length {len(flat)} != planned "
                    f"{row['total']} — {length_column} disagrees with "
                    f"len({tokens_column}); window offsets would corrupt"
                )
            if len(flat) == 0:  # empty shard contributes nothing
                continue
            base = row["base"]
            starts, wins = _window_splits(base, len(flat), window)
            pos_in_w = (np.arange(len(flat), dtype=np.int64) + base) % window
            weighted = flat.astype(np.int64) * (pos_in_w + 1)
            sums = np.add.reduceat(weighted, starts)
            counts = np.diff(np.append(starts, len(flat)))
            out.append(
                pa.table(
                    {
                        "window_id": pa.array(wins),
                        "n_tokens": pa.array(counts.astype(np.int64)),
                        "checksum": pa.array(sums),
                        "_b": pa.array((wins % nb).astype(np.int32)),
                    }
                )
            )
        if not out:
            return pa.table(
                {
                    "window_id": pa.array([], pa.int64()),
                    "n_tokens": pa.array([], pa.int64()),
                    "checksum": pa.array([], pa.int64()),
                    "_b": pa.array([], pa.int32()),
                }
            )
        return pa.concat_tables(out)

    items = rd.from_items(plan, override_num_blocks=max(len(plan), 1))

    def merge(group: pa.Table) -> pa.Table:
        # Arrow out (see stages/stats.py._combine_and_finalize)
        df = group.select(["window_id", "n_tokens", "checksum"]).to_pandas()
        g = df.groupby("window_id", sort=True).sum()
        return pa.table(
            {
                "window_id": pa.array(g.index.to_numpy(np.int64)),
                "n_tokens": pa.array(g["n_tokens"].to_numpy(np.int64)),
                "checksum": pa.array(g["checksum"].to_numpy(np.int64)),
            }
        )

    partials = items.map_batches(shard_partials, batch_format="pyarrow", batch_size=1)
    return util.bucketed(partials, "_b", merge)


def _complete_span(base: int, n: int, window: int, corpus_total: int) -> tuple[int, int]:
    """Shard-relative [s, e) slice of the stream piece [base, base+n)
    covered by COMPLETE windows — windows whose entire global span
    [w*window, min((w+1)*window, corpus_total)) lies inside the shard.
    The shard owning a window's full span can emit it without any
    shuffle; everything outside [s, e) is boundary material (< window
    tokens on each side by construction)."""
    lo = -(-base // window) * window  # first window boundary >= base
    hi = ((base + n) // window) * window  # last window boundary <= base+n
    if base + n == corpus_total:
        hi = base + n  # the corpus-final (possibly short) window is
        # complete by definition — no later shard can extend it
    if lo >= hi:
        return 0, 0  # tiny shard strictly inside one window: all boundary
    return lo - base, hi - base


def _windows_table(first_win: int, flat: np.ndarray, window: int) -> pa.Table:
    """(window_id, tokens) rows for a contiguous run of complete windows
    starting at id `first_win` — pure reshape arithmetic, no per-window
    loop. `flat` may end with one short (corpus-final) window."""
    n = len(flat)
    n_full = n // window
    offs = np.arange(n_full + 1, dtype=np.int64) * window
    if n % window:
        offs = np.append(offs, n)
    wins = np.arange(first_win, first_win + len(offs) - 1, dtype=np.int64)
    return pa.table(
        {
            "window_id": pa.array(wins),
            # int64 offsets (LargeList): one shard can exceed 2^31 tokens
            # at production scale; int32 offsets would wrap silently
            "tokens": pa.LargeListArray.from_arrays(
                pa.array(offs, type=pa.int64()), pa.array(flat, type=pa.int32())
            ),
        }
    )


def _read_token_rows(path: str, r0: int, r1: int, tokens_column: str) -> pa.Table:
    """Read ONLY rows [r0, r1) of a shard's token column by opening just
    the row groups that cover them — the boundary path must not re-read
    the whole shard pipeline-1 already decoded."""
    f = pq.ParquetFile(path)
    parts, seen = [], 0
    for g in range(f.metadata.num_row_groups):
        g_rows = f.metadata.row_group(g).num_rows
        g0, g1 = seen, seen + g_rows
        seen = g1
        if g1 <= r0 or g0 >= r1:
            continue
        t = f.read_row_group(g, columns=[tokens_column])
        parts.append(t.slice(max(r0 - g0, 0), min(r1, g1) - max(r0, g0)))
    if not parts:
        return pa.table({tokens_column: pa.array([], pa.large_list(pa.int32()))})
    return pa.concat_tables(parts)


def pack_windows(
    paths: list[str],
    window: int = DEFAULT_WINDOW,
    tokens_column: str = "tokens",
    length_column: str = "n_tok",
    read_rows: int = _PACK_READ_ROWS,
    stream_token_budget: int = 64 << 20,
) -> rd.Dataset:
    """-> Dataset of (window_id, tokens large_list<int32>): the actual
    packed training windows (int32 plane — vocab-id domain; int64 would
    double the corpus-sized output's object-store and sink bytes).

    Scale shape (the corpus-sized output must NEVER take an all-to-all
    trip): each shard task owns every window whose full span lies inside
    its [base, base+n) stream slice — ownership is pure arithmetic from
    the pass-1 base offset — and emits those complete windows DIRECTLY
    (a reshape, no shuffle). Only the <window tokens on each shard edge
    are boundary material; a second, tiny pass re-reads just the edge
    rows (selective row-group read) and routes those pieces (≤2 per
    shard) through a groupby to stitch straddling windows. At 100 TB the
    shuffle therefore moves O(#shards × window) tokens, not the corpus.
    Every window has exactly `window` tokens except the corpus-final one.

    Task memory is bounded by ``stream_token_budget`` (tokens, known
    per-shard from the pass-1 plan BEFORE any read): shards under it take
    the fast whole-column path (one threaded read, one reshape — measured
    2-4x faster than chunked iteration); oversized shards stream
    row-group-wise (``read_rows`` rows per chunk) through a carry buffer,
    so a pathological multi-GB shard costs O(chunk + window) memory, not
    O(shard)."""
    plan = plan_offsets(paths, length_column)
    corpus_total = (plan[-1]["base"] + plan[-1]["total"]) if plan else 0
    # boundary material is <= 2 pieces x < window tokens per shard: scale
    # the stitch fan-out to that stream (sequential window ids — plain
    # modulus spreads them; no pre-mix needed)
    nb = util.scaled_buckets(2 * len(plan) * window * 8)

    empty_out = pa.table(
        {
            "window_id": pa.array([], pa.int64()),
            "tokens": pa.array([], pa.large_list(pa.int32())),
        }
    )

    def shard_complete(batch: pa.Table):
        """Generator UDF: fast whole-column path for plan-bounded shards;
        row-group streaming (running offset + carry buffer) past the
        token budget, yielding complete windows as they fill."""
        util.retain_heap()  # parquet reads churn the arrow pool per task
        yielded = False
        for row in batch.to_pylist():
            total = row["total"]
            if total == 0:
                continue
            base = row["base"]
            s, e = _complete_span(base, total, window, corpus_total)
            if total <= stream_token_budget:
                t = pq.read_table(row["path"], columns=[tokens_column])
                flat = _flat_with_seps(t, tokens_column)
                if len(flat) != total:
                    raise ValueError(
                        f"{row['path']}: token stream length {len(flat)} != "
                        f"planned {total} — {length_column} disagrees with "
                        f"len({tokens_column}); window offsets would corrupt"
                    )
                if e > s:
                    yield _windows_table((base + s) // window, flat[s:e], window)
                    yielded = True
                continue
            pf = pq.ParquetFile(row["path"])
            pos = 0  # stream position within this shard's slice
            seen = 0
            carry = np.zeros(0, dtype=np.int32)
            next_win = (base + s) // window
            for rb in pf.iter_batches(batch_size=read_rows, columns=[tokens_column]):
                flat = _flat_with_seps(
                    pa.Table.from_batches([rb]), tokens_column
                )
                seen += len(flat)
                lo, hi = pos, pos + len(flat)
                pos = hi
                a, b = max(lo, s), min(hi, e)
                if b <= a:
                    continue
                carry = np.concatenate([carry, flat[a - lo : b - lo]])
                n_full = len(carry) // window
                if n_full:
                    yield _windows_table(next_win, carry[: n_full * window], window)
                    yielded = True
                    next_win += n_full
                    carry = carry[n_full * window :]
            if seen != total:
                raise ValueError(
                    f"{row['path']}: token stream length {seen} != planned "
                    f"{total} — {length_column} disagrees with "
                    f"len({tokens_column}); window offsets would corrupt"
                )
            if len(carry):
                # only the corpus-final shard can leave a non-multiple
                # remainder inside its complete span: the short last window
                yield _windows_table(next_win, carry, window)
                yielded = True
        if not yielded:
            yield empty_out

    items = rd.from_items(plan, override_num_blocks=max(len(plan), 1))
    complete = items.map_batches(shard_complete, batch_format="pyarrow", batch_size=1)

    def shard_boundary_pieces(batch: pa.Table) -> pa.Table:
        out = []
        for row in batch.to_pylist():
            base, total = row["base"], row["total"]
            if total == 0:
                continue
            s, e = _complete_span(base, total, window, corpus_total)
            ranges = (
                [(0, total)] if e <= s else [(0, s), (e, total)]
            )  # shard-relative boundary stream ranges, each < window long
            ranges = [(a, b) for a, b in ranges if b > a]
            if not ranges:
                continue
            # locate the doc rows covering the edge ranges from the cheap
            # length column, then read ONLY those rows' tokens
            lens = np.asarray(
                pq.read_table(row["path"], columns=[length_column]).column(
                    length_column
                )
            ).astype(np.int64)
            ends = np.cumsum(lens + 1)  # each doc contributes n_tok + 1
            starts_doc = ends - (lens + 1)
            for a, b in ranges:
                r0 = int(np.searchsorted(ends, a, side="right"))
                r1 = int(np.searchsorted(starts_doc, b, side="left"))
                sub = _read_token_rows(row["path"], r0, r1, tokens_column)
                flat = _flat_with_seps(sub, tokens_column)
                local0 = int(starts_doc[r0])  # stream pos of flat[0]
                piece = flat[a - local0 : b - local0]
                p_starts, wins = _window_splits(base + a, len(piece), window)
                p_ends = np.append(p_starts[1:], len(piece))
                offs = np.concatenate(([0], np.cumsum(p_ends - p_starts)))
                out.append(
                    pa.table(
                        {
                            "window_id": pa.array(wins),
                            "piece_pos": pa.array(
                                ((p_starts + base + a) % window).astype(np.int64)
                            ),
                            "piece": pa.LargeListArray.from_arrays(
                                pa.array(offs, pa.int64()),
                                pa.array(piece, pa.int32()),
                            ),
                            "_b": pa.array((wins % nb).astype(np.int32)),
                        }
                    )
                )
        if not out:
            return pa.table(
                {
                    "window_id": pa.array([], pa.int64()),
                    "piece_pos": pa.array([], pa.int64()),
                    "piece": pa.array([], pa.large_list(pa.int32())),
                    "_b": pa.array([], pa.int32()),
                }
            )
        return pa.concat_tables(out)

    pieces = items.map_batches(
        shard_boundary_pieces, batch_format="pyarrow", batch_size=1
    )

    def merge(group: pa.Table) -> pa.Table:
        # stitch boundary windows from their shard pieces. Disjointness
        # with pipeline 1 is structural: _complete_span admits a window
        # only when its FULL span fits one shard, so any window id
        # reaching this groupby was emitted by no shard task.
        wins = np.asarray(group.column("window_id")).astype(np.int64)
        pos = np.asarray(group.column("piece_pos")).astype(np.int64)
        order = np.lexsort((pos, wins))
        lst = group.column("piece")
        if isinstance(lst, pa.ChunkedArray):
            lst = lst.combine_chunks()
        lst = lst.take(pa.array(order))
        lengths = pc.list_value_length(lst).to_numpy(zero_copy_only=False).astype(np.int64)
        child = lst.flatten().to_numpy(zero_copy_only=False).astype(np.int32)
        uniq, first_idx = np.unique(wins[order], return_index=True)
        win_lens = np.add.reduceat(lengths, first_idx) if len(lengths) else lengths
        offs = np.zeros(len(uniq) + 1, dtype=np.int64)
        np.cumsum(win_lens, out=offs[1:])
        return pa.table(
            {
                "window_id": pa.array(uniq),
                "tokens": pa.LargeListArray.from_arrays(
                    pa.array(offs, pa.int64()), pa.array(child, pa.int32())
                ),
            }
        )

    return complete.union(util.bucketed(pieces, "_b", merge))


def window_doc_spans(
    paths: list[str],
    window: int = DEFAULT_WINDOW,
    length_column: str = "n_tok",
    n_buckets: int | None = None,
) -> rd.Dataset:
    """-> (window_id, n_segs, seg_lens large_list<int32>, spans_checksum):
    each packed window's DOCUMENT-SEGMENT lengths in stream order — the
    attention-mask boundary metadata a trainer needs next to
    pack_windows' token windows (zip by window_id; a mask resets at each
    segment boundary so attention never crosses documents). A doc's
    stream block is n_tok + 1 (its separator rides with it); a window's
    segments are its intersections with the blocks it overlaps, so
    sum(seg_lens) == the window's token count.

    Cost shape: derived from the pass-1 offset plan plus ONE pruned read
    of the skinny length column per shard — the token plane is never
    touched. Segments shuffle as (window_id, seg_start, seg_len) rows
    (one per doc plus one per window-crossing) through a corpus-scaled
    bucket groupby: ~24 B per document, negligible next to the token
    stream pack_windows moves. `spans_checksum` = sum(seg_len * rank)
    pins both the lengths and their order scalar-wise."""
    plan = plan_offsets(paths, length_column)
    W = int(window)
    nb = n_buckets or max(32, min(4093, len(plan)))

    items = rd.from_items(
        [{"path": e["path"], "base": e["base"]} for e in plan],
        override_num_blocks=len(plan),
    )

    def shard_segs(batch: pa.Table) -> pa.Table:
        util.retain_heap()
        wids, slos, lens_out = [], [], []
        for path, base in zip(
            batch.column("path").to_pylist(), batch.column("base").to_pylist()
        ):
            t = pq.read_table(path, columns=[length_column])
            blk = np.asarray(t.column(length_column)).astype(np.int64) + 1
            ends = base + np.cumsum(blk)
            starts = ends - blk
            wlo = starts // W
            whi = (ends - 1) // W
            cnt = (whi - wlo + 1).astype(np.int64)
            rep = np.repeat(np.arange(len(blk), dtype=np.int64), cnt)
            offs = np.arange(int(cnt.sum()), dtype=np.int64) - np.repeat(
                np.cumsum(cnt) - cnt, cnt
            )
            w = wlo[rep] + offs
            lo = np.maximum(starts[rep], w * W)
            hi = np.minimum(ends[rep], (w + 1) * W)
            wids.append(w)
            slos.append(lo)
            lens_out.append((hi - lo).astype(np.int64))
        w = np.concatenate(wids) if wids else np.zeros(0, np.int64)
        return pa.table(
            {
                "window_id": pa.array(w),
                "seg_start": pa.array(
                    np.concatenate(slos) if slos else np.zeros(0, np.int64)
                ),
                "seg_len": pa.array(
                    np.concatenate(lens_out) if lens_out else np.zeros(0, np.int64)
                ),
                "_b": pa.array((w % nb).astype(np.int32)),
            }
        )

    def finalize(g: pa.Table) -> pa.Table:
        w = g.column("window_id").to_numpy(zero_copy_only=False)
        lo = g.column("seg_start").to_numpy(zero_copy_only=False)
        ln = g.column("seg_len").to_numpy(zero_copy_only=False)
        order = np.lexsort((lo, w))
        ws, lns = w[order], ln[order]
        starts = np.flatnonzero(np.r_[True, ws[1:] != ws[:-1]])
        sizes = np.diff(np.r_[starts, len(ws)]).astype(np.int64)
        rank = np.arange(len(ws), dtype=np.int64) - np.repeat(starts, sizes) + 1
        csum = np.zeros(len(ws) + 1, np.int64)
        np.cumsum(lns * rank, out=csum[1:])
        bounds = np.r_[starts, len(ws)]
        offsets = np.zeros(len(starts) + 1, np.int64)
        np.cumsum(sizes, out=offsets[1:])
        return pa.table(
            {
                "window_id": pa.array(ws[starts]),
                "n_segs": pa.array(sizes),
                "seg_lens": pa.LargeListArray.from_arrays(
                    pa.array(offsets), pa.array(lns.astype(np.int32))
                ),
                "spans_checksum": pa.array(csum[bounds[1:]] - csum[bounds[:-1]]),
            }
        )

    return util.bucketed(items.map_batches(shard_segs, batch_format="pyarrow"), "_b", finalize)
