"""JSONL / CSV landing-zone sources.

Web-scale corpora land as newline-delimited JSON or CSV long before they
are parquet; the reference's ingest surface likewise accepts any
GDAL-readable format and normalizes it into the engine's table
(/root/reference/src/read_raster.cpp:733-811 — open foreign format,
detect schema, emit canonical rows). Here: `read_jsonl` / `read_csv`
return a Ray Dataset over the foreign files (Ray's native readers — one
read task per file, streaming), and `to_parquet_shards` normalizes a
landing Dataset into the canonical parquet shards every downstream
pipeline (encode, dedup, quality, packing) consumes.

Fixture synthesis is a pure function of (rows, seed) with DELIBERATELY
escape-free ASCII text, so a DuckDB `read_json_auto` / `read_csv_auto`
over the same files is a value-exact oracle of the engine's read path.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import ray.data as rd

from ..util import clean_dataset

_SOURCES = ["web", "code", "books", "wiki", "news"]
_WORDS = (
    "alpha bravo charlie delta echo foxtrot golf hotel india juliet "
    "kilo lima mike november oscar papa quebec romeo sierra tango"
).split()


def _rows(n_rows: int, seed: int) -> list[dict]:
    """Deterministic (doc_id, text, source) rows; text is space-joined
    lowercase words — no quotes/backslashes/newlines, so the JSON and CSV
    serializations are trivially unambiguous for the SQL oracle."""
    rng = np.random.default_rng(seed)
    lens = rng.integers(3, 24, size=n_rows)
    picks = rng.integers(0, len(_WORDS), size=int(lens.sum()))
    srcs = rng.integers(0, len(_SOURCES), size=n_rows)
    out, at = [], 0
    for i in range(n_rows):
        k = int(lens[i])
        out.append(
            {
                "doc_id": f"j{i:06d}",
                "text": " ".join(_WORDS[p] for p in picks[at : at + k]),
                "source": _SOURCES[int(srcs[i])],
            }
        )
        at += k
    return out


def write_jsonl_corpus(
    out_dir: str, n_rows: int = 2_000, n_shards: int = 4, seed: int = 42
) -> list[str]:
    """Idempotent deterministic JSONL shards (one object per line)."""
    os.makedirs(out_dir, exist_ok=True)
    paths = [os.path.join(out_dir, f"shard-{s:03d}.jsonl") for s in range(n_shards)]
    if all(os.path.exists(p) for p in paths):
        return paths
    rows = _rows(n_rows, seed)
    per = -(-n_rows // n_shards)
    for s, p in enumerate(paths):
        with open(p + ".tmp", "w") as f:
            for r in rows[s * per : (s + 1) * per]:
                f.write(json.dumps(r, separators=(",", ":")) + "\n")
        os.replace(p + ".tmp", p)
    return paths


def write_jsonl_gz_corpus(
    out_dir: str, n_rows: int = 2_000, n_shards: int = 4, seed: int = 42
) -> list[str]:
    """Idempotent deterministic gzip JSONL shards (mtime=0 in the gzip
    header, so the BYTES are a pure function of (rows, seed))."""
    import gzip

    os.makedirs(out_dir, exist_ok=True)
    paths = [
        os.path.join(out_dir, f"shard-{s:03d}.jsonl.gz") for s in range(n_shards)
    ]
    if all(os.path.exists(p) for p in paths):
        return paths
    rows = _rows(n_rows, seed)
    per = -(-n_rows // n_shards)
    for s, p in enumerate(paths):
        with gzip.GzipFile(p + ".tmp", "wb", mtime=0) as f:
            for r in rows[s * per : (s + 1) * per]:
                f.write((json.dumps(r, separators=(",", ":")) + "\n").encode())
        os.replace(p + ".tmp", p)
    return paths


def write_csv_corpus(
    out_dir: str, n_rows: int = 2_000, n_shards: int = 4, seed: int = 42
) -> list[str]:
    """Idempotent deterministic CSV shards (header row, no quoting needed
    by construction — see _rows)."""
    os.makedirs(out_dir, exist_ok=True)
    paths = [os.path.join(out_dir, f"shard-{s:03d}.csv") for s in range(n_shards)]
    if all(os.path.exists(p) for p in paths):
        return paths
    rows = _rows(n_rows, seed)
    per = -(-n_rows // n_shards)
    for s, p in enumerate(paths):
        with open(p + ".tmp", "w") as f:
            f.write("doc_id,text,source\n")
            for r in rows[s * per : (s + 1) * per]:
                f.write(f"{r['doc_id']},{r['text']},{r['source']}\n")
        os.replace(p + ".tmp", p)
    return paths


def read_jsonl(
    paths: list[str],
    columns: list[str] | None = None,
    compression: str | None = None,
) -> rd.Dataset:
    """Landing-zone JSONL -> Dataset (Ray's streaming JSON reader; one
    task per file). JSON has no column projection at the byte level —
    `columns` prunes immediately after parse so nothing wider flows on.

    `.gz` shards (the dominant web-corpus interchange form) decompress
    in-stream per task — auto-detected by extension, or forced with
    ``compression="gzip"``; mixing plain and .gz paths in one call is
    rejected (one Arrow stream config per read)."""
    gz = [str(p).endswith(".gz") for p in paths]
    if compression is None and any(gz):
        if not all(gz):
            raise ValueError("mixing .gz and plain jsonl paths in one read")
        compression = "gzip"
    kw = (
        {"arrow_open_stream_args": {"compression": compression}}
        if compression
        else {}
    )
    ds = rd.read_json(paths, **kw)
    return ds.select_columns(columns) if columns else ds


def read_csv(
    paths: list[str],
    columns: list[str] | None = None,
    compression: str | None = None,
) -> rd.Dataset:
    """Landing-zone CSV -> Dataset (Arrow CSV parser under Ray's reader).
    `.gz` shards decompress in-stream per task — auto-detected by
    extension (mixed plain/gz path lists rejected, same contract as
    read_jsonl)."""
    gz = [str(p).endswith(".gz") for p in paths]
    if compression is None and any(gz):
        if not all(gz):
            raise ValueError("mixing .gz and plain csv paths in one read")
        compression = "gzip"
    kw = (
        {"arrow_open_stream_args": {"compression": compression}}
        if compression
        else {}
    )
    ds = rd.read_csv(paths, **kw)
    return ds.select_columns(columns) if columns else ds


def write_csv_gz_corpus(
    out_dir: str, n_rows: int = 2_000, n_shards: int = 4, seed: int = 42
) -> list[str]:
    """Idempotent deterministic gzip CSV shards (mtime=0 header)."""
    import gzip

    os.makedirs(out_dir, exist_ok=True)
    paths = [
        os.path.join(out_dir, f"shard-{s:03d}.csv.gz") for s in range(n_shards)
    ]
    if all(os.path.exists(p) for p in paths):
        return paths
    rows = _rows(n_rows, seed)
    per = -(-n_rows // n_shards)
    for s, p in enumerate(paths):
        with gzip.GzipFile(p + ".tmp", "wb", mtime=0) as f:
            f.write(b"doc_id,text,source\n")
            for r in rows[s * per : (s + 1) * per]:
                f.write(f"{r['doc_id']},{r['text']},{r['source']}\n".encode())
        os.replace(p + ".tmp", p)
    return paths


def to_parquet_shards(ds: rd.Dataset, out_dir: str) -> list[str]:
    """Normalize a landing Dataset into canonical parquet shards that the
    rest of the engine (encode_job, dedup, quality, packing) consumes —
    the ingest bridge from foreign formats to the engine's table."""
    os.makedirs(out_dir, exist_ok=True)
    ds.write_parquet(out_dir)
    return sorted(
        os.path.join(out_dir, f)
        for f in os.listdir(out_dir)
        if f.endswith(".parquet")
    )


def write_jsonl(ds: rd.Dataset, out_dir: str) -> list[str]:
    """Export sink: Dataset -> JSONL shard files (Ray's streaming JSON
    writer, one file per block — each task writes its own shard, nothing
    centralizes). The interchange twin of :func:`read_jsonl`: the
    inspection/export path out of the canonical parquet table."""
    os.makedirs(out_dir, exist_ok=True)
    ds.write_json(out_dir)
    return sorted(
        os.path.join(out_dir, f)
        for f in os.listdir(out_dir)
        if f.endswith((".json", ".jsonl"))
    )


class _GzJsonlNames:
    """`.jsonl.gz` filenames for the compressed JSON sink (plain class —
    picklable by value; write_uuid keeps concurrent writers disjoint)."""

    def get_filename_for_block(self, block, write_uuid, task_index, block_index):
        return f"shard-{write_uuid}-{task_index:06}-{block_index:06}.jsonl.gz"


def write_jsonl_gz(ds: rd.Dataset, out_dir: str) -> list[str]:
    """Export sink: Dataset -> gzip JSONL shards (Ray's streaming JSON
    writer with in-stream gzip compression per task) — the interchange
    twin of the `.gz` read path: what a downstream non-Parquet consumer
    actually ingests."""
    os.makedirs(out_dir, exist_ok=True)
    ds.write_json(
        out_dir,
        arrow_open_stream_args={"compression": "gzip"},
        filename_provider=_GzJsonlNames(),
    )
    return sorted(
        os.path.join(out_dir, f)
        for f in os.listdir(out_dir)
        if f.endswith(".jsonl.gz")
    )


def write_csv(ds: rd.Dataset, out_dir: str) -> list[str]:
    """Export sink: Dataset -> CSV shard files (Arrow CSV writer under
    Ray's sink, one file per block). CSV quoting round-trips embedded
    commas/quotes/newlines; the reader twin is :func:`read_csv`."""
    os.makedirs(out_dir, exist_ok=True)
    ds.write_csv(out_dir)
    return sorted(
        os.path.join(out_dir, f)
        for f in os.listdir(out_dir)
        if f.endswith(".csv")
    )


def source_stats(ds: rd.Dataset, text_col: str = "text") -> rd.Dataset:
    """Per-source doc count + total text chars — the landing-zone health
    check (one map_batches partial per block, one tiny groupby)."""
    import pyarrow.compute as pc

    def partials(t: pa.Table) -> pa.Table:
        import pandas as pd

        df = pd.DataFrame(
            {
                "source": t.column("source").to_pandas().fillna(""),
                "L": pc.utf8_length(
                    pc.coalesce(t.column(text_col), pa.scalar(""))
                ).to_numpy(zero_copy_only=False),
            }
        )
        g = df.groupby("source", sort=False)
        out = g.agg(n_docs=("L", "size"), text_chars=("L", "sum")).reset_index()
        return pa.table(
            {
                "source": pa.array(out["source"].to_numpy(dtype=object), pa.string()),
                "n_docs": pa.array(out["n_docs"].to_numpy(np.int64)),
                "text_chars": pa.array(out["text_chars"].to_numpy(np.int64)),
            }
        )

    return (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby("source")
        .sum(["n_docs", "text_chars"])
        .rename_columns(
            {"sum(n_docs)": "n_docs", "sum(text_chars)": "text_chars"}
        )
    )


def write_ipc(ds: rd.Dataset, out_dir: str, rows_per_file: int = 65_536) -> list[str]:
    """Export sink: Dataset -> Arrow IPC (Feather v2) shard files, the
    zero-parse interchange format (mmap-able, column-prunable at read).
    Ray has no built-in IPC sink, so each write task streams its batch
    to its own shard via `pa.ipc.new_file` (tmp -> rename publish, same
    discipline as the encode sinks); nothing centralizes. Shard names are
    content-addressed by block content hash, so re-runs are idempotent."""
    import hashlib

    import pyarrow.ipc as ipc

    os.makedirs(out_dir, exist_ok=True)

    def write_block(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"path": pa.array([], pa.string()),
                             "rows": pa.array([], pa.int64())})
        # Serialize ONCE to memory, then hash the serialized bytes. Hashing
        # the raw Arrow buffers is wrong here: zero-copy slices of one
        # parent block (what Ray's Batcher yields when a block exceeds
        # batch_size) share the parent's buffers verbatim, so every slice
        # would hash — and content-address — identically, and the later
        # rename would silently overwrite the earlier shard. IPC
        # serialization truncates to the slice, so the hash is logical.
        sink = pa.BufferOutputStream()
        with ipc.new_file(sink, t.schema) as w:
            w.write_table(t, max_chunksize=rows_per_file)
        payload = sink.getvalue()
        name = f"shard-{hashlib.sha256(payload).hexdigest()[:16]}.arrow"
        path = os.path.join(out_dir, name)
        # pid-unique tmp (the fsio publish discipline): two tasks writing
        # byte-identical blocks share the SAME content-addressed name, and
        # a shared '.tmp' would let one truncate the other mid-write
        tmp = f"{path}.tmp-{os.getpid()}"
        with open(tmp, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
        return pa.table({"path": pa.array([path]),
                         "rows": pa.array([t.num_rows], pa.int64())})

    manifest = clean_dataset(ds).map_batches(
        write_block, batch_format="pyarrow", batch_size=rows_per_file
    ).take_all()  # O(shards) rows — the write happened in the tasks
    return sorted(r["path"] for r in manifest)


def read_ipc(paths: list[str], columns: list[str] | None = None) -> rd.Dataset:
    """Landing-zone Arrow IPC -> Dataset: `read_binary_files` ships each
    shard's bytes as one block; a map_batches decode opens the IPC footer
    and materializes ONLY the projected columns (IPC is columnar, so the
    projection skips untouched column buffers — the same prune-at-the-read
    rule as the parquet paths)."""
    import pyarrow.ipc as ipc

    def decode_file(t: pa.Table) -> pa.Table:
        out = []
        for blob in t.column("bytes").to_pylist():
            rdr = ipc.open_file(pa.BufferReader(blob))
            names = columns or rdr.schema.names
            idx = [rdr.schema.get_field_index(n) for n in names]
            tbl = rdr.read_all().select(idx)
            out.append(tbl)
        return pa.concat_tables(out) if out else pa.table({})

    return rd.read_binary_files(paths).map_batches(
        decode_file, batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# WebDataset-style tar shards — the de-facto training-shard format for
# multimodal loaders (tar of {key}.{ext} member files, consecutive members
# with one key = one sample). Export sink + landing-zone source.
# ---------------------------------------------------------------------------


def write_wds(
    ds: rd.Dataset,
    out_dir: str,
    *,
    key_col: str = "doc_id",
    text_col: str = "text",
    meta_cols: tuple[str, ...] = ("source",),
    payload_col: str | None = None,
    rows_per_file: int = 65_536,
) -> list[str]:
    """Export sink: Dataset -> WebDataset-style `.tar` shards. Each row
    becomes `{key}.txt` (utf-8 text bytes; null -> empty) plus
    `{key}.json` (compact sorted-key metadata), plus `{key}.bin` when
    `payload_col` names a binary column — members in row order with
    zeroed tar metadata (mtime 0, mode 0644), so shard bytes are a pure
    function of content. Shard names are content-addressed by the tar
    bytes (idempotent re-runs, the write_ipc rule) and published
    tmp -> rename. Each write task owns one shard; nothing centralizes."""
    import hashlib
    import io
    import json
    import tarfile

    import pyarrow.compute as pc

    os.makedirs(out_dir, exist_ok=True)
    empty = pa.table(
        {"path": pa.array([], pa.string()), "rows": pa.array([], pa.int64())}
    )

    def _member(tf: "tarfile.TarFile", name: str, data: bytes) -> None:
        info = tarfile.TarInfo(name)
        info.size = len(data)
        info.mtime = 0
        info.mode = 0o644
        info.uname = info.gname = ""
        tf.addfile(info, io.BytesIO(data))

    def write_block(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        kc = t.column(key_col)
        if kc.null_count:
            raise ValueError(
                f"write_wds: null {key_col} — tar member stems cannot encode null keys"
            )
        keys = kc.cast(pa.string()).to_pylist()
        if len(set(keys)) != len(keys):
            raise ValueError(
                f"write_wds: duplicate {key_col} within a shard — consecutive "
                "same-key members would merge into one sample on read"
            )
        texts = pc.coalesce(
            t.column(text_col).cast(pa.string()), pa.scalar("")
        ).to_pylist()
        metas = {c: t.column(c).to_pylist() for c in meta_cols}
        payloads = (
            t.column(payload_col).to_pylist() if payload_col is not None else None
        )
        buf = io.BytesIO()
        with tarfile.open(fileobj=buf, mode="w") as tf:
            for i, k in enumerate(keys):
                _member(tf, f"{k}.txt", texts[i].encode())
                if payloads is not None:
                    _member(tf, f"{k}.bin", payloads[i] or b"")
                meta = json.dumps(
                    {c: metas[c][i] for c in meta_cols},
                    sort_keys=True,
                    separators=(",", ":"),
                ).encode()
                _member(tf, f"{k}.json", meta)
        data = buf.getvalue()
        name = f"shard-{hashlib.sha256(data).hexdigest()[:16]}.tar"
        path = os.path.join(out_dir, name)
        tmp = f"{path}.tmp-{os.getpid()}"
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
        return pa.table(
            {"path": pa.array([path]), "rows": pa.array([t.num_rows], pa.int64())}
        )

    manifest = clean_dataset(ds).map_batches(
        write_block, batch_format="pyarrow", batch_size=rows_per_file
    ).take_all()
    return sorted(r["path"] for r in manifest)


def read_wds(paths: list[str], *, key_col: str = "doc_id") -> rd.Dataset:
    """Landing-zone WebDataset tar -> Dataset: `read_binary_files` ships
    each shard's bytes as one block; a map_batches decode walks the tar
    sequentially and groups CONSECUTIVE members sharing a key stem into
    one sample row (the WebDataset convention). `.txt` -> `text`,
    `.json` -> its metadata fields, `.bin` -> `payload` (binary). The
    key column comes back as STRING (tar member names are strings —
    callers cast as needed)."""
    import io
    import json
    import tarfile

    def decode_file(t: pa.Table) -> pa.Table:
        rows: list[dict] = []
        for blob in t.column("bytes").to_pylist():
            with tarfile.open(fileobj=io.BytesIO(blob)) as tf:
                cur_key, cur = None, None
                for m in tf:
                    if not m.isfile():
                        continue
                    stem, _, ext = m.name.rpartition(".")
                    if stem != cur_key:
                        if cur is not None:
                            rows.append(cur)
                        cur_key, cur = stem, {key_col: stem}
                    data = tf.extractfile(m).read()
                    if ext == "txt":
                        cur["text"] = data.decode()
                    elif ext == "json":
                        cur.update(json.loads(data))
                    elif ext == "bin":
                        cur["payload"] = data
                if cur is not None:
                    rows.append(cur)
        if not rows:
            return pa.table({key_col: pa.array([], pa.string())})
        return pa.Table.from_pylist(rows)

    return rd.read_binary_files(paths).map_batches(
        decode_file, batch_format="pyarrow", batch_size=None
    )


# ---------------------------------------------------------------------------
# ORC shards — the other columnar interchange format Hadoop-side pipelines
# hand over (Hive/Trino landing zones). Export sink + landing-zone source,
# same discipline as the IPC pair: per-task shards, content-addressed
# names, tmp -> rename publish, column-pruned reads.
# ---------------------------------------------------------------------------


def write_orc(ds: rd.Dataset, out_dir: str, rows_per_file: int = 65_536) -> list[str]:
    """Export sink: Dataset -> ORC shard files (zstd-compressed). Each
    write task streams its batch to its own shard; shard names are
    content-addressed by the hash of the serialized ORC bytes (idempotent
    re-runs, the write_ipc rule). Serialized bytes — not raw Arrow
    buffers — because zero-copy slices of one parent block share the
    parent's buffers, and buffer-hashing would name every slice of a
    large block identically (silent shard overwrite at scale)."""
    import hashlib

    import pyarrow.orc as orc

    os.makedirs(out_dir, exist_ok=True)

    def write_block(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"path": pa.array([], pa.string()), "rows": pa.array([], pa.int64())}
            )
        sink = pa.BufferOutputStream()
        orc.write_table(t, sink, compression="zstd")
        payload = sink.getvalue()
        name = f"shard-{hashlib.sha256(payload).hexdigest()[:16]}.orc"
        path = os.path.join(out_dir, name)
        tmp = f"{path}.tmp-{os.getpid()}"
        with open(tmp, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
        return pa.table(
            {"path": pa.array([path]), "rows": pa.array([t.num_rows], pa.int64())}
        )

    manifest = clean_dataset(ds).map_batches(
        write_block, batch_format="pyarrow", batch_size=rows_per_file
    ).take_all()
    return sorted(r["path"] for r in manifest)


def read_orc(paths: list[str], columns: list[str] | None = None) -> rd.Dataset:
    """Landing-zone ORC -> Dataset: each shard's bytes ship as one block;
    the decode opens the ORC footer and materializes ONLY the projected
    columns (ORC is columnar with per-stripe metadata — the projection
    skips untouched column streams, the prune-at-the-read rule)."""
    import pyarrow.orc as orc

    def decode_file(t: pa.Table) -> pa.Table:
        out = []
        for blob in t.column("bytes").to_pylist():
            f = orc.ORCFile(pa.BufferReader(blob))
            out.append(f.read(columns=columns))
        return pa.concat_tables(out) if out else pa.table({})

    return rd.read_binary_files(paths).map_batches(
        decode_file, batch_format="pyarrow", batch_size=None
    )
