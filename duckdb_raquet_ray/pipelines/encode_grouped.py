"""Grouped encode: salted groupby-on-source shuffle before encoding.

Encoders compress better when they see a coherent value distribution (one
`source`'s doc-ids share prefixes; its token alphabet is narrower) — the
reason the reference trains its warp transformer per overview level and
reuses it across tiles of the same frame
(/root/reference/src/read_raster.cpp:273-286,359-439). But `source` is
Zipf: an unsalted groupby('source') serializes the job on the head key
(SURVEY.md §7 hard-part 4). So the group key is salted:

    salt = siphash64(doc_id) % S(source),   S(source) = ceil(rows / target)

with S from a driver-side `groupby('source').count()` — a tiny aggregate
over a low-cardinality column. Same source => same string/token
distribution in every salted bucket (compression unaffected); skew broken
because the head key fans out over S buckets. The salt is a pure function
of doc_id, so bucket membership is deterministic across runs/topologies.

This is the engine's ONE wide operation, and it is a hash-bucket
streaming repartition, not a sort: map tasks append each block's rows to
per-bucket piece files (bucket = partition_id % n_buckets, so a group
always lands whole in one bucket), then one reduce task per bucket
(BucketEncoder) encodes its groups through encode.publish_partition and
encode.journal_stage, the rewrite core. The lineage-partitioned `encode_job` (encode.py)
needs no shuffle at all and is the default — and since the r2 dict
bucket, lineage partitions are the MORE coherent alphabet and compress
BETTER (BASELINE.md addendum). Use grouped mode for its source-
partitioned LAYOUT: `read_encoded_source` opens only one source's
partition files (pruned reads), and skewed sources are salted flat.

Partition id = pack_grouped(source, salt) (functions/partition_keys.py),
which each row carries through the shuffle as its one key, `_pid`;
within a group, rows are sorted by doc_id before encoding so the output is
a pure function of the group *set*, not of shuffle arrival order —
bit-identity across resumed/re-sharded runs.
"""

from __future__ import annotations

import math
import os
import shutil
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd

from ..functions import detmix
from ..functions import partition_keys as pk
from . import encode
from ..state import manifest as mf

# ~25k rows ≈ 40 MB decoded per group: measured 7x faster end-to-end than
# 100k-row groups (15.9 s vs 106-113 s on the 2 M-row bench corpus) at a
# 0.8 % ratio cost — big groups starve parallelism (32 groups on 32 cpus)
# and push 170 MB blocks through the object store
DEFAULT_GROUP_ROWS = 25_000
NULL_SOURCE_KEY = "\x00<null-source>"  # partition-key stand-in for source IS NULL


def _pids(batch: pa.Table, salt_map: dict[str, int], key: str = "doc_id") -> np.ndarray:
    """Each row's grouped partition id, pack_grouped(source, 0) + salt: the
    one shuffle key. The salt is pandas' stable 64-bit string hash
    (siphash, fixed key — C speed, deterministic across runs and
    topologies) of the doc key, modulo the source's bucket count; null
    sources key as NULL_SOURCE_KEY."""
    import pandas as pd

    h = pd.util.hash_pandas_object(batch.column(key).to_pandas(), index=False).to_numpy()
    src = pc.fill_null(batch.column("source"), NULL_SOURCE_KEY).combine_chunks().dictionary_encode()
    names = src.dictionary.to_pylist()  # few distinct
    missing = sorted(s for s in names if s not in salt_map)
    if missing:
        raise ValueError(
            f"sources {missing} absent from the job's salt_map — encoding "
            "them under a default salt would make read_encoded_source "
            "return empty for them (the manifest records the planned map); "
            "re-plan with resume=False or extend the input at plan time"
        )
    idx = src.indices.to_numpy()
    first = np.array([pk.pack_grouped(s, 0) for s in names], dtype=np.uint64)
    mods = np.array([salt_map[s] for s in names], dtype=np.uint64)
    return first[idx] + h % mods[idx]


def write_pieces(
    batch: pa.Table, salt_map: dict[str, int], done_ids: np.ndarray, n_buckets: int,
    shuffle_dir: str,
) -> pa.Table:
    """Map side of the grouped shuffle: key every row by its partition id
    (`_pid`), drop the rows of groups a resumed run already finished (so
    it spills only the remaining rows), and append the rest to one piece
    file per bucket present. Returns one (bucket, path, bytes) row per
    piece."""
    pid = _pids(batch, salt_map)
    rows = np.flatnonzero(~np.isin(pid, done_ids))
    # mix before the modulus: pid packs salt into the LOW bits
    # (source_hash << SALT_BITS | salt), so a power-of-two n_buckets
    # (including the 4096 cap) would reduce to `salt % n_buckets` and
    # collapse every source's salt-0 group into ONE reduce bucket —
    # exactly the skew this repartition exists to remove
    bucket = (detmix.splitmix64(pid[rows]) % np.uint64(n_buckets)).astype(np.int32)
    order = np.argsort(bucket, kind="stable")
    batch = batch.append_column("_pid", pa.array(pid)).take(pa.array(rows[order]))
    bsorted = bucket[order]
    uniq, first = np.unique(bsorted, return_index=True)
    ends = np.append(first[1:], len(bsorted))
    tag = uuid.uuid4().hex[:12]
    buckets_out, paths_out, bytes_out = [], [], []
    for b, s0, s1 in zip(uniq.tolist(), first.tolist(), ends.tolist()):
        p = os.path.join(shuffle_dir, f"b{b:05d}-{tag}.parquet")
        pq.write_table(batch.slice(s0, s1 - s0), p, compression="lz4")
        buckets_out.append(b)
        paths_out.append(p)
        bytes_out.append(os.path.getsize(p))
    return pa.table({"bucket": pa.array(buckets_out, pa.int32()),
                     "path": pa.array(paths_out, pa.string()),
                     "bytes": pa.array(bytes_out, pa.int64())})


def compute_salt_map(ds: rd.Dataset, target_rows: int = DEFAULT_GROUP_ROWS) -> dict[str, int]:
    """Driver-side per-source row counts -> bucket counts. Per-batch
    value_counts folded on the driver — a pre-aggregation over a
    low-cardinality column, no shuffle at all (and unlike Ray's sort-based
    groupby, null sources are handled: they count under NULL_SOURCE_KEY)."""

    def counts(b: pa.Table) -> pa.Table:
        vc = b.column("source").to_pandas().fillna(NULL_SOURCE_KEY).value_counts()
        return pa.table(
            {"source": pa.array(vc.index.astype(str)), "cnt": pa.array(vc.to_numpy())}
        )

    agg: dict[str, int] = {}
    for r in ds.map_batches(counts, batch_format="pyarrow").take_all():
        agg[r["source"]] = agg.get(r["source"], 0) + int(r["cnt"])
    _check_source_hash_collisions(agg.keys())
    return {s: max(1, math.ceil(c / target_rows)) for s, c in agg.items()}


def _check_source_hash_collisions(sources) -> None:
    """The 43-bit source hash leaves ~0.06% collision odds at 100k distinct
    sources; a collision would make two sources share partition ids and the
    last writer would silently replace the other's file. The driver sees
    the full source list here, so collisions fail LOUDLY instead."""
    seen: dict[int, str] = {}
    for s in sources:
        h = pk.source_hash(s)
        if h in seen and seen[h] != s:
            raise ValueError(
                f"source-hash collision between {seen[h]!r} and {s!r}: "
                "grouped mode would assign them the same partition ids; "
                "use lineage mode or rename one source"
            )
        seen[h] = s


def encode_job_grouped(
    input_paths: list[str],
    out_dir: str,
    *,
    target_group_rows: int | None = None,
    resume: bool = True,
    salt_map: dict[str, int] | None = None,
) -> dict:
    """source-salted shuffle encode job -> partition files + manifest.

    The salt map (and target_group_rows) is persisted to job.json at job
    start and REUSED on resume: partition ids are pure functions of the
    salt map, so re-deriving it with a different target would re-plan
    different groups under colliding ids. An explicit target_group_rows
    or salt_map that conflicts with the persisted one raises
    (``resolve_job_config``)."""
    # mixed shard schemas would concat into null-filled grouped partitions
    schema_arrow = encode.check_schema_drift(sorted(input_paths), 1, {})

    def fresh() -> dict:
        rows = DEFAULT_GROUP_ROWS if target_group_rows is None else target_group_rows
        if salt_map is not None:
            return {"target_group_rows": rows, "salt_map": salt_map}
        # count from a source-column-only read: the driver-side salt map
        # needs one tiny column, not a shuffle of the whole table
        return {"target_group_rows": rows, "salt_map": compute_salt_map(
            rd.read_parquet(sorted(input_paths), columns=["source"]), rows)}

    cfg = mf.resolve_job_config(
        out_dir, "grouped",
        {"target_group_rows": target_group_rows, "salt_map": salt_map}, fresh, resume,
    )
    salt_map = cfg["salt_map"]
    ds = rd.read_parquet(sorted(input_paths))
    # resume: drop finished groups' rows BEFORE the shuffle
    done_ids = np.array(sorted(mf.done_partition_ids(out_dir)) if resume else [], np.uint64)

    # --- hash-bucket streaming repartition (NO sort shuffle) ------------
    # Ray's sort-based groupby would be an all-to-all over the whole
    # corpus just to obtain a LAYOUT. Instead: map tasks append each
    # block's rows to per-BUCKET piece files (bucket = partition_id %
    # n_buckets, so a group always lands whole in one bucket), then one
    # reduce task per bucket reads its pieces and encodes its few groups.
    # Data flows through the job's output filesystem (shared storage on a
    # real cluster — the same assumption the part files themselves make),
    # never through a sort.
    n_groups = sum(salt_map.values())
    n_buckets = max(1, min(4096, math.ceil(n_groups / 4)))
    shuffle_dir = os.path.join(out_dir, "_shuffle")
    shutil.rmtree(shuffle_dir, ignore_errors=True)
    os.makedirs(shuffle_dir, exist_ok=True)

    # each call writes one piece per bucket it holds, so bigger batches
    # write fewer pieces; but 32k-row batches stalled a 0.4 GiB object
    # store (45 s against 5 s for the benchmark's grouped job)
    piece_rows = ds.map_batches(
        write_pieces, batch_format="pyarrow", batch_size=16384,
        fn_kwargs={"salt_map": salt_map, "done_ids": done_ids, "n_buckets": n_buckets,
                   "shuffle_dir": shuffle_dir},
    ).take_all()  # O(blocks x buckets-present) tiny rows
    by_bucket: dict[int, list[str]] = {}
    bucket_bytes: dict[int, int] = {}
    for r in piece_rows:
        b = int(r["bucket"])
        by_bucket.setdefault(b, []).append(r["path"])
        bucket_bytes[b] = bucket_bytes.get(b, 0) + int(r.get("bytes", 0) or 0)
    # the layout shuffle's priced cost: on object storage every piece file
    # is one PUT + one GET — recorded in the manifest so the bench reports
    # it as a number, not prose
    shuffle_stats = {
        "n_buckets": int(n_buckets),
        "piece_files": len(piece_rows),
        "piece_bytes": int(sum(bucket_bytes.values())),
        "max_bucket_bytes": int(max(bucket_bytes.values(), default=0)),
    }

    try:
        # largest-first (LPT, in journal_stage): bucket sizes vary with the
        # salt layout, and the last-started bucket bounds the reduce wall
        return encode.journal_stage(
            out_dir,
            [{"paths": ps, "decoded_bytes": bucket_bytes.get(b, 0)}
             for b, ps in by_bucket.items()],
            BucketEncoder, {"out_dir": out_dir, "salt_map": salt_map},
            concurrency=None, schema=str(schema_arrow),
            extra={
                "mode": "grouped",
                "salt_map": salt_map,
                "input_shards": sorted(input_paths),
                "schema_ipc": mf.schema_to_b64(schema_arrow),
                "shuffle": shuffle_stats,
            },
        )
    finally:
        shutil.rmtree(shuffle_dir, ignore_errors=True)


class BucketEncoder(encode.EncodeStage):
    """Reduce stage of the grouped shuffle: one work item = one bucket's
    piece files -> split into its (source, salt) groups and publish each
    as partition pack_grouped(source, salt)."""

    def __init__(self, out_dir: str, salt_map: dict[str, int]):
        super().__init__(out_dir)
        self.salt_map = salt_map

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        for item in batch.to_pylist():
            t = pa.concat_tables([pq.read_table(p) for p in item["paths"]])
            pid = t.column("_pid").to_numpy()
            order = np.argsort(pid, kind="stable")
            t, pid = t.take(pa.array(order)), pid[order]
            starts = np.concatenate(([0], np.flatnonzero(pid[1:] != pid[:-1]) + 1, [len(pid)]))
            for s0, s1 in zip(starts[:-1].tolist(), starts[1:].tolist()):
                # composite sort key: bit-identity across runs requires a
                # total order; doc_id alone leaves duplicate-key rows in
                # shuffle-arrival order (rows identical in both keys but
                # differing elsewhere remain the one unordered residue —
                # documented limitation). Sorted per group, not in one
                # bucket-wide sort: a slice of a sorted table reports other
                # `nbytes`, which the journal records as input_bytes
                group = t.slice(s0, s1 - s0).sort_by(
                    [("doc_id", "ascending"), ("n_tok", "ascending")]
                ).drop_columns(["_pid"])
                source = group.column("source")[0].as_py()
                source = NULL_SOURCE_KEY if source is None else source
                k = pk.unpack_grouped(pid[s0])[1]
                rows.append(encode.publish_partition(
                    self.out_dir, group, int(pid[s0]),
                    extra={"group": {"source": source, "salt": k,
                                     "n_buckets": self.salt_map.get(source, 1)}},
                    input_shard=f"group:{source}/{k}", row_range=None,
                ))
        return self.results(rows)
