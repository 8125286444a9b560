"""The encode job: Parquet shards -> encoded partition files + manifest.

Ray-Data-native translation of the reference's `read_raster` ingest
(/root/reference/src/read_raster.cpp:733-1626, traced in SURVEY.md §3.1),
redesigned for partition independence:

  driver: plan_partitions()        -- enumerate (shard, row-group range)
                                      work units, like the tile work queue
                                      (read_raster.cpp:1143-1147), but ids
                                      are pure lineage functions so resume
                                      and two-cluster runs re-plan identically
  Dataset(work items) ->
    map_stage(PartitionEncoder)     -- one task per item on warm workers:
                                       reads its row groups (pyarrow), then
                                       publish_partition plans codecs,
                                       encodes, writes part-<pid>
                                       tmp->rename, emits a manifest entry
  driver: journal_stage appends entries + finalizes manifest.json
                                    -- the phase-3 metadata barrier
                                       (read_raster.cpp:1486-1590), reduced
                                       to a driver-side fold
Append, compact, delete and the grouped reduce share this core and differ
only in the stage's "which rows" step.

Reading inside the encode task (instead of read_parquet -> shuffle ->
encode) is exactly how Ray Data's own read operator works — a read task IS
an item — and it keeps the pipeline shuffle-free: block ≡ partition
(SURVEY.md §1.1). At 100 TB the work-item list is ~10^5-10^6 tiny dicts —
nothing — while the data itself streams through the tasks with
backpressure, one partition per task.

Resume: completed partition ids (manifest 'done' + file exists) are
filtered from the work list before launch — idempotent, no shuffle.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd

from ..functions import partition_keys as pk
from ..util import LocalDict, default_concurrency, map_stage, retain_heap
from ..stages import encoder as enc
from ..state import fsio
from ..state import manifest as mf

DEFAULT_PART_BYTES = 64 * 1024 * 1024  # decoded bytes per partition
MIN_PART_BYTES = 8 * 1024 * 1024
MAX_PART_BYTES = 256 * 1024 * 1024
TASKS_PER_CPU = 4  # target work-items per core, for pipelining + stragglers
# encoder-family tasks (encode / append / compact / delete / grouped reduce)
# reserve 2 logical CPUs each and run two threads on them: util.fork_join
# puts half of a partition's row-group reads, the columns after the largest
# plus the column stats, and half of the token kernel's stream fill on a
# helper thread
ENCODER_NUM_CPUS = 2

_KEYS = LocalDict()  # the latest delete's keys + typed value sets


def _key_values(keys, typ: pa.DataType) -> pa.Array:
    """Typed Arrow value set of a delete's keys (an ObjectRef, or a list
    held so its id stays unique), memoised per process for the latest key
    set: stages built per batch must not re-fetch or re-type 10^6 keys."""
    is_ref = isinstance(keys, ray.ObjectRef)
    src = keys.hex() if is_ref else id(keys)
    if _KEYS.get("src") != src:
        _KEYS.clear()
        _KEYS.update(src=src, keys=ray.get(keys) if is_ref else keys)
    if typ not in _KEYS:
        _KEYS[typ] = pa.array(_KEYS["keys"], type=typ)
    return _KEYS[typ]


def _footer_md(path: str, md_cache: dict | None):
    """Parquet footer metadata with a per-job cache: planning consults
    every shard's footer up to three times (auto-sizing, partition plan,
    schema) — at 10^5-10^6 shards the duplicate reads dominate the
    driver-side planning phase, so one read per shard per job."""
    if md_cache is None:
        return pq.ParquetFile(path).metadata
    md = md_cache.get(path)
    if md is None:
        md = md_cache[path] = pq.ParquetFile(path).metadata
    return md


def check_schema_drift(
    shards: list[str], first: int, md_cache: dict | None
) -> pa.Schema:
    """The schema-drift gate of every encode: refuse when a shard from
    `shards[first:]` has columns/types other than shard 0's, and return
    shard 0's schema. A drifted shard would encode partitions with a
    DIFFERENT schema into the same dir, and decode would silently union
    them into a null-filled mixed frame — the corrupted-table failure
    mode an append-heavy corpus hits first. Footers come from the job's
    `md_cache` (planning reads them anyway); field metadata (pandas
    etc.) is ignored."""
    schema = _footer_md(shards[0], md_cache).schema.to_arrow_schema()
    ref_fields = [(f.name, f.type) for f in schema]
    for shard in shards[first:]:
        s = _footer_md(shard, md_cache).schema.to_arrow_schema()
        if [(f.name, f.type) for f in s] != ref_fields:
            raise ValueError(
                f"schema drift: {shard} has schema "
                f"{[(f.name, str(f.type)) for f in s]} but this encode's "
                f"schema is {[(n, str(t)) for n, t in ref_fields]} — encode "
                "drifted shards to their own directory (or align the schema "
                "first); mixing them in would corrupt decode"
            )
    return schema


def auto_target_part_bytes(
    input_paths: list[str],
    cluster_cpus: int | None = None,
    md_cache: dict | None = None,
) -> int:
    """Pick a partition size so the job yields ~TASKS_PER_CPU work items
    per core, clamped to [8 MB, 256 MB] — the reference's auto resolution
    selection (ST_RegionStats picks the zoom whose tile count stays under
    a target, /root/reference/src/st_region_stats.cpp:255-324), inverted
    for a fixed-size cluster: enough partitions to pipeline and absorb
    stragglers, few enough that per-task overhead stays negligible.
    Deterministic given (inputs, cpus): resume must re-plan identically,
    so pass the SAME cluster_cpus when resuming a run started elsewhere."""
    if cluster_cpus is None:
        cluster_cpus = default_concurrency()
    total = 0
    for path in input_paths:
        md = _footer_md(path, md_cache)
        total += sum(md.row_group(i).total_byte_size for i in range(md.num_row_groups))
    target = total // max(cluster_cpus * TASKS_PER_CPU, 1)
    return max(MIN_PART_BYTES, min(MAX_PART_BYTES, target))


def _pack_runs(keys: list, sizes: list[int], target: int) -> list[list]:
    """Greedily pack consecutive ``keys`` (``sizes`` bytes each) into runs
    of at most ~``target`` bytes; an item larger than target runs alone."""
    runs, cur, cur_b = [], [], 0
    for key, size in zip(keys, sizes):
        if cur and cur_b + size > target:
            runs.append(cur)
            cur, cur_b = [], 0
        cur.append(key)
        cur_b += size
    if cur:
        runs.append(cur)
    return runs


def plan_partitions(
    input_paths: list[str],
    target_part_bytes: int = DEFAULT_PART_BYTES,
    *,
    shard_order: list[str] | None = None,
    first_shard_index: int = 0,
    md_cache: dict | None = None,
) -> list[dict]:
    """Enumerate deterministic work items from Parquet metadata only.

    Row groups are the atomic units (cheap range reads); contiguous row
    groups are greedily packed to ~target_part_bytes of decoded data. The
    plan is a pure function of (input file list, target) — never of
    cluster size — so partition ids are stable across runs and topologies
    (SURVEY.md §7 hard-part 1).

    ``shard_order``: explicit shard-index assignment (APPEND support —
    partition ids embed the shard's position, so an appended shard must
    take the next index even if its name sorts before an existing one;
    encode_job persists the order in job.json and append_job extends it).
    Default: the sorted distinct input paths, the original first-encode
    order (a path listed twice is one shard, not two).
    """
    ordered = list(shard_order) if shard_order is not None else sorted(set(input_paths))
    items: list[dict] = []
    for shard_idx, path in enumerate(ordered, start=first_shard_index):
        md = _footer_md(path, md_cache)
        sizes = [md.row_group(rg).total_byte_size for rg in range(md.num_row_groups)]
        groups = _pack_runs(list(range(md.num_row_groups)), sizes, target_part_bytes)
        rg_rows = [md.row_group(rg).num_rows for rg in range(md.num_row_groups)]
        rg_offsets = [0]
        for r in rg_rows:
            rg_offsets.append(rg_offsets[-1] + r)
        for part_idx, rgs in enumerate(groups):
            row_start = rg_offsets[rgs[0]]
            row_end = rg_offsets[rgs[-1] + 1]
            items.append(
                {
                    "partition_id": pk.pack(shard_idx, part_idx),
                    "shard": path,
                    "row_groups": rgs,
                    "row_range": [row_start, row_end],
                    # decoded size estimate, used only for LPT scheduling
                    # (largest-first submission); identity stays (shard, idx)
                    "decoded_bytes": sum(sizes[rg] for rg in rgs),
                }
            )
    return items


# part files hold already-compressed blobs. No footer statistics: min/max
# over 10s-of-MB binary blobs costs half the write (measured 300->156 ms
# per partition) and nothing reads them — pruning uses the manifest +
# explicit stat_* columns
_PART_WRITE = {"compression": "none", "write_statistics": False}
_STAGE_RESULT = pa.schema([("entry_json", pa.string()), ("staged", pa.string())])


def publish_partition(
    out_dir: str, table: pa.Table, pid: int, *, stage: bool = False,
    extra: dict | None = None, **lineage,
) -> dict:
    """Stage half of the rewrite core: encode one partition's rows
    (``lineage``: encode_table's input_shard / row_range; ``extra`` joins
    the entry) and publish part-<pid> absent-or-complete — or, with
    ``stage``, leave a publish temp for `journal_stage` to rename over the
    live file once the entry is journaled. Returns the stage's result row.
    A caller that passes its only reference to ``table`` has the rows
    freed before the Parquet write."""
    encoded, entry = enc.encode_table(table, pid, **lineage)
    del table
    entry.update(extra or {})
    path = os.path.join(out_dir, pk.part_file_name(pid))
    staged = ""
    if stage:
        staged = fsio.stage_table(encoded, path, **_PART_WRITE)
    else:
        fsio.publish_table(encoded, path, **_PART_WRITE)
    return {"entry_json": json.dumps(entry), "staged": staged}


def journal_stage(
    out_dir: str, todo: list[dict], Stage, kwargs: dict, *,
    concurrency: int | tuple[int, int] | None, schema: str, extra: dict,
) -> dict:
    """Driver half of the rewrite core: sweep the publish temps a killed
    run left, run ``Stage(**kwargs)`` over the work items, journal each
    entry, and finalize manifest.json with ``schema`` + ``extra``. Journal
    FIRST, then the destructive move (swap a staged file in, remove a
    'deleted' partition's file): a kill leaves the journal consistent with
    the files or ahead of them, the window delete_job heals."""
    fsio.sweep_tmp(out_dir)
    writer = mf.ManifestWriter(out_dir)
    try:
        if todo:
            # map_stage makes one block per work item: map_batches
            # parallelism is per-BLOCK (batch_size only slices batches
            # within a task), else the work list can serialize onto one
            # task. Largest-first (LPT): partition sizes vary (greedy row-group
            # packing), and the last-started partition bounds job wall —
            # submitting big ones first shrinks the straggler tail, which
            # is the dominant non-scaling term once workers are warm
            todo = sorted(
                todo, key=lambda it: it.get("decoded_bytes", 0), reverse=True
            )
            results = map_stage(todo, Stage, kwargs, concurrency=concurrency,
                                num_cpus=ENCODER_NUM_CPUS)
            # entries are tiny; stream them back and append in completion order
            for row in results.iter_rows():
                entry = json.loads(row["entry_json"])
                writer.append(entry)
                final = os.path.join(out_dir, pk.part_file_name(entry["partition_id"]))
                if row["staged"]:
                    os.replace(row["staged"], final)
                elif entry["status"] == "deleted":
                    try:
                        os.remove(final)
                    except FileNotFoundError:
                        pass
        return writer.finalize(schema, extra=extra)
    finally:
        writer.close()


class EncodeStage:
    """Base of the stages `journal_stage` runs: each subclass's OWN
    ``__call__`` picks the rows and hands them to `publish_partition`.
    The per-process state — the retained heap, the reference's
    per-thread lazy state (read_raster.cpp:264-286, 1230-1242) — is
    module-level, so a warm worker keeps it across jobs."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        # keep freed task memory mapped: re-faulting purged pages
        # measurably dominates encode at high parallelism
        retain_heap()

    @staticmethod
    def results(rows: list[dict]) -> pa.Table:
        return pa.Table.from_pylist(rows, schema=_STAGE_RESULT)


class PartitionEncoder(EncodeStage):
    """Encode stage (encode_job / append_job): one work item = one planned
    (shard, row-group range), read straight from its shard."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        for item in batch.to_pylist():
            # the read result goes straight in: publish_partition holds
            # its only reference and frees it before the write
            rows.append(publish_partition(
                self.out_dir, enc.read_partition(item["shard"], item["row_groups"]),
                item["partition_id"],
                input_shard=item["shard"], row_range=tuple(item["row_range"]),
            ))
        return self.results(rows)


def encode_job(
    input_paths: list[str],
    out_dir: str,
    *,
    target_part_bytes: int | None = None,
    resume: bool = True,
    concurrency: int | tuple[int, int] | None = None,
) -> dict:
    """Run the full encode job; returns the finalized manifest metadata.

    The resolved ``target_part_bytes`` (auto-sized from the input volume
    and cluster width when None) and the shard order are persisted to
    job.json at start; a resume reuses the persisted plan (partition ids
    are functions of it — re-planning with a different target under the
    same ids would silently skip rows) and an explicit conflicting value
    raises. A resume over a grown input list appends the new shards after
    the recorded ones (`grow_shard_order`), the same rule as append_job;
    a list that drops a recorded shard raises. A path listed twice is
    encoded once."""
    input_paths = sorted(set(input_paths))
    if not resume and os.path.isdir(out_dir):
        # fresh re-encode requested: stale journal/manifest/part files from
        # a prior plan must not leak into finalize (overlapping row ranges)
        for pat in ("manifest.jsonl", "manifest.json", "job.json"):
            try:
                os.remove(os.path.join(out_dir, pat))
            except FileNotFoundError:
                pass
        for f in glob.glob(os.path.join(out_dir, "part-*.parquet")):
            os.remove(f)
    md_cache: dict = {}  # one footer read per shard per job (see _footer_md)
    cfg = mf.resolve_job_config(
        out_dir, "lineage", {"target_part_bytes": target_part_bytes},
        lambda: {
            # auto sizing depends on the cluster width, hence persisted
            "target_part_bytes": target_part_bytes
            if target_part_bytes is not None
            else auto_target_part_bytes(input_paths, md_cache=md_cache),
            "shard_order": input_paths,
        },
        resume,
    )
    shard_order, plan_from = grow_shard_order(out_dir, cfg, input_paths)
    items = plan_partitions(
        shard_order[plan_from:],
        cfg["target_part_bytes"],
        shard_order=shard_order[plan_from:],
        first_shard_index=plan_from,
        md_cache=md_cache,
    )
    schema_arrow = check_schema_drift(shard_order, plan_from, md_cache)
    done = mf.resume_skip_ids(out_dir) if resume else set()
    todo = [it for it in items if it["partition_id"] not in done]

    return journal_stage(
        out_dir, todo, PartitionEncoder, {"out_dir": out_dir},
        concurrency=concurrency, schema=str(schema_arrow),
        extra={
            # shard-index order, NOT re-sorted: verify_encoded replans
            # from this list and appended shards keep their indices
            "input_shards": list(shard_order),
            "schema_ipc": mf.schema_to_b64(schema_arrow),
        },
    )


def _finalized_shards(out_dir: str) -> list[str]:
    """The finalized manifest's input_shards ([] before a first finalize)."""
    try:
        return mf.load_metadata(out_dir).get("input_shards") or []
    except FileNotFoundError:
        return []


def recorded_shard_order(out_dir: str, cfg: dict) -> list[str]:
    """The shard-index order a lineage dir was planned with: job.json's
    ``shard_order``, else (dirs from before it was persisted) the
    finalized manifest's ``input_shards``, else []."""
    return list(cfg.get("shard_order") or _finalized_shards(out_dir))


def grow_shard_order(
    out_dir: str, cfg: dict, input_paths: list[str]
) -> tuple[list[str], int]:
    """The one growth rule of a lineage dir -> (shard order, plan_from).

    Partition ids embed the shard's index, so recorded shards never move:
    shards ``input_paths`` names that the order lacks are appended after
    the recorded ones (sorted among themselves, even when a name sorts
    before a recorded one) and the grown order is persisted; a list that
    drops a recorded shard raises. A compacted dir is append-closed: its
    ids are pack(group, 0), and an appended shard's ids could collide
    with them (resume would then silently skip its rows).

    ``plan_from``: planning (= footer reads) starts at the finalized
    prefix when the order extends past it — an append, or a killed one,
    costs O(new shards) and the prefix's partitions are all done — and
    at 0 otherwise, so a plain resume re-encodes a done partition whose
    file is gone."""
    if cfg.get("compacted_from"):
        raise ValueError(
            f"{out_dir} is a compacted dir (compact_job output) and is "
            "append-closed — append to its source dir "
            f"({cfg['compacted_from']}) and re-compact, or encode the new "
            "shards to a fresh directory"
        )
    finalized = _finalized_shards(out_dir)
    order = list(cfg.get("shard_order") or finalized)
    names = set(input_paths)
    dropped = [p for p in order if p not in names]
    if dropped:
        raise ValueError(
            f"resume input mismatch in {out_dir}: the call drops "
            f"{len(dropped)} of the {len(order)} recorded shards (e.g. "
            f"{dropped[0]}); re-run with every recorded shard — shard "
            "indices are part of every partition id"
        )
    seen = set(order)
    new = [p for p in sorted(names) if p not in seen]
    if new:
        order += new
        mf.persist_job_config(out_dir, {**cfg, "shard_order": order})
    extends = len(order) > len(finalized) and order[: len(finalized)] == finalized
    return order, len(finalized) if extends else 0


def append_job(
    new_paths: list[str],
    out_dir: str,
    *,
    concurrency: int | tuple[int, int] | None = None,
) -> dict:
    """Grow an encoded dir with NEW input shards — the operational path
    for a corpus that arrives in batches (the 100-TB norm): encode_job
    over the recorded shard order plus ``new_paths``, so the new shards
    take indices AFTER every existing one (`grow_shard_order`; existing
    partition ids — pack(shard_idx, part_idx) — are untouched), only
    their partitions are planned and encoded, the journal appends and
    manifest.json/rollups re-finalize from it. Idempotent: already-present
    paths are skipped, and a killed append resumes (done partitions
    skipped) by re-running with the same args. Decode/verify/rollup read
    the updated manifest with no special case — an append-then-read is
    bit-identical to a single encode of the full corpus over the same
    shard order (pytest-pinned)."""
    cfg = mf.load_job_config(out_dir)
    if not cfg or cfg.get("mode") != "lineage":
        raise ValueError(
            f"{out_dir} is not a resumable lineage-mode encode dir "
            f"(job.json missing or mode={cfg.get('mode') if cfg else None!r})"
        )
    order = recorded_shard_order(out_dir, cfg)
    if not order:
        raise ValueError(f"cannot append to {out_dir}: no shard order recorded")
    return encode_job(order + list(new_paths), out_dir, concurrency=concurrency)


class GroupCompactor(EncodeStage):
    """Task stage for compact_job: one work item = one GROUP of source
    partitions -> decode each part file, concat in partition-id order,
    re-encode as ONE right-sized partition."""

    def __init__(self, src_dir: str, out_dir: str):
        super().__init__(out_dir)
        self.src_dir = src_dir

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        for item in batch.to_pylist():
            paths = [os.path.join(self.src_dir, pk.part_file_name(int(p)))
                     for p in item["src_pids"]]
            table = pa.concat_tables(
                [enc.decode_rows(pq.read_table(p, use_threads=False)) for p in paths]
            ).combine_chunks()
            rows.append(publish_partition(self.out_dir, table, int(item["new_pid"]),
                                          input_shard=f"compact:{self.src_dir}"))
        return self.results(rows)


def compact_job(
    src_dir: str,
    out_dir: str,
    *,
    target_part_bytes: int | None = None,
    concurrency: int | tuple[int, int] | None = None,
) -> dict:
    """Merge an encoded dir's partitions into right-sized ones — the LSM
    compaction step an append-heavy 100-TB corpus needs: each append_job
    tail-encodes its own shards, so partition sizes drift small over many
    appends; compaction re-encodes GROUPS of consecutive partitions
    (partition-id order == row order, so the logical table is unchanged)
    into fresh partitions near ``target_part_bytes`` decoded bytes,
    WITHOUT touching the original input shards (they may be gone — the
    group decode reads only the encoded part files).

    Scale shape: planning is O(partitions) manifest rows on the driver
    (the same order as resume's done-set); the decode+re-encode fans out
    one task per GROUP, each task reading only its
    own group's part files; entries stream back and the manifest
    finalizes from the journal. Output ids are ``pack(group_index, 0)``
    — valid lineage ids, so every decode/stats/rollup path reads the
    compacted dir with no special case. Resumable: a killed compaction
    re-run skips groups whose id is already journaled 'done'.
    ``resolve_job_config`` pins the target, the source dir and the source
    partition roster across resumes: a different explicit target, an
    out_dir that is not a compaction of ``src_dir`` (or predates roster
    pinning) and a source changed since (append/delete) all raise rather
    than silently re-grouping."""
    src_meta = mf.load_metadata(src_dir)
    entries = mf.load_entries(src_dir)
    done_src = {
        p: e for p, e in entries.items() if e.get("status") == "done"
    }
    if not done_src:
        raise ValueError(f"{src_dir}: no completed partitions to compact")
    if os.path.abspath(src_dir) == os.path.abspath(out_dir):
        raise ValueError("compact_job: out_dir must differ from src_dir")
    src_cfg = mf.load_job_config(src_dir) or {}
    if src_cfg.get("mode") not in (None, "lineage"):
        # grouped-mode partition ids carry (source, salt) semantics that
        # read_encoded_source unpacks — re-keying them to pack(group, 0)
        # would silently break every grouped read path
        raise ValueError(
            f"compact_job supports lineage-mode dirs only; {src_dir} is "
            f"{src_cfg.get('mode')!r}-mode"
        )
    # pin the SOURCE PARTITION ROSTER, not just the target: group ids are
    # consecutive indices over the source done-set, so a resume after the
    # source changed (append/delete) would re-group and silently skip a
    # grown last group under an already-done id — roster drift must raise
    roster = hashlib.sha256(
        json.dumps(
            sorted([int(p), int(e["input_bytes"])] for p, e in done_src.items())
        ).encode()
    ).hexdigest()[:16]
    # an out_dir without these keys (a plain encode dir, or a pre-roster
    # compaction) refuses to resume: its ids could collide with the groups'
    pins = {"compacted_from": os.path.abspath(src_dir), "src_roster_sha": roster}
    cfg = mf.resolve_job_config(
        out_dir, "lineage",
        # the CALLER'S target (None = no opinion): pre-resolving the
        # default here would make a flag-less resume of an explicit-target
        # run raise a spurious mismatch
        {"target_part_bytes": target_part_bytes, **pins},
        lambda: {
            "target_part_bytes": int(
                target_part_bytes
                or src_cfg.get("target_part_bytes")
                or DEFAULT_PART_BYTES
            ),
            **pins,
        },
    )
    tgt = int(cfg["target_part_bytes"])

    # group CONSECUTIVE partition ids (id order == row order) to ~tgt
    # decoded bytes per group; a single oversized partition stays its own
    # group (splitting would need a row-range re-plan — out of scope)
    pids = sorted(done_src)
    groups = _pack_runs(pids, [int(done_src[p]["input_bytes"]) for p in pids], tgt)

    done_out = mf.resume_skip_ids(out_dir)
    todo = [
        {
            "new_pid": pk.pack(gi, 0),
            "src_pids": g,
            "decoded_bytes": sum(int(done_src[p]["input_bytes"]) for p in g),
        }
        for gi, g in enumerate(groups)
        if pk.pack(gi, 0) not in done_out
    ]

    return journal_stage(
        out_dir, todo, GroupCompactor, {"src_dir": src_dir, "out_dir": out_dir},
        concurrency=concurrency, schema=src_meta["schema"],
        extra={
            "input_shards": src_meta.get("input_shards", []),
            "schema_ipc": src_meta.get("schema_ipc"),
            "compacted_from": os.path.abspath(src_dir),
        },
    )


class PartitionDeleter(EncodeStage):
    """Task stage for delete_job: one work item = one AFFECTED
    partition -> decode, drop the targeted keys, re-encode, and STAGE
    the result. Nothing destructive happens in the task: `journal_stage`
    swaps (or removes) the live file only after journaling its entry
    (see delete_job's crash-safety contract). Keys: see `_key_values`."""

    def __init__(self, out_dir: str, keys_ref):
        super().__init__(out_dir)
        self.keys_ref = keys_ref

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        rows = []
        for item in batch.to_pylist():
            pid = int(item["pid"])
            path = os.path.join(self.out_dir, pk.part_file_name(pid))
            table = enc.decode_rows(pq.read_table(path, use_threads=False))
            col = table.column(item["key_column"])
            keep = pc.invert(pc.is_in(col, value_set=_key_values(self.keys_ref, col.type)))
            kept = table.filter(keep)
            if kept.num_rows == table.num_rows:
                continue  # planner false positive: nothing to rewrite
            rr = item.get("row_range")
            shard = item.get("input_shard") or f"delete:{self.out_dir}"
            # derived from the partition's pre-delete row count, never
            # from a running count: self-healing across the journal-ahead
            # crash window (a stale prior entry's deleted_rows would
            # double-count the re-dropped rows). An item without
            # `orig_rows` counts the live file's rows plus `prior_deleted`,
            # exact whenever the file matches its latest entry.
            orig_rows = item.get("orig_rows")
            if orig_rows is None:
                orig_rows = table.num_rows + int(item.get("prior_deleted") or 0)
            deleted_rows = int(orig_rows) - kept.num_rows
            if kept.num_rows:
                rows.append(publish_partition(
                    self.out_dir, kept, pid, stage=True,
                    extra={"deleted_rows": deleted_rows, "rewritten_by": "delete"},
                    input_shard=shard, row_range=rr,
                ))
                continue
            # full drop: journal_stage removes the file after journaling
            entry = {
                "partition_id": pid,
                "status": "deleted",
                "input_shard": shard,
                "n_rows": 0,
                "codecs": {},
                "input_bytes": 0,
                "encoded_bytes": 0,
                "deleted_rows": deleted_rows,
            }
            if rr is not None:
                entry["row_range"] = list(rr)
            rows.append({"entry_json": json.dumps(entry), "staged": ""})
        return self.results(rows)


def _key_plane(out_dir: str, pid: int, key_col: str) -> pa.ChunkedArray:
    """Decoded `key_col` of one partition file, reading only that column's
    blob (delete_job's column-pruned key-plane probe)."""
    path = os.path.join(out_dir, pk.part_file_name(pid))
    t = pq.read_table(path, columns=enc.read_projection([key_col]), use_threads=False)
    return enc.decode_rows(t, columns=[key_col]).column(key_col)


def delete_job(
    out_dir: str,
    keys,
    *,
    key_column: str | None = None,
    concurrency: int | tuple[int, int] | None = None,
) -> dict:
    """Delete rows by key from an encoded dir IN PLACE — the data-subject
    erasure / retention operator the ingest->append->compact lifecycle
    needs. Partition-granular: a distributed KEY-PLANE scan (decoding
    ONLY the key column of every partition) finds the affected
    partitions; each one decodes, drops its targeted rows, re-encodes
    and STAGES the result; the driver then journals the updated entry
    and swaps the staged file in (or removes the file, for a fully
    emptied partition). Entries keep their ORIGINAL input_shard and
    row_range plus a ``deleted_rows`` count, so lineage validation
    still tiles every shard (validate_entries understands the
    deletion); the manifest re-finalizes, so counts/rollups/stat
    pushdown reflect the erasure.

    Crash-safety contract (every window heals on a SAME-KEYS re-run,
    and the in-progress marker makes any OTHER delete refuse until that
    re-run happened — the journal-ahead rewrite window is only
    detectable by re-finding the original keys):
    - kill before a journal append: the live file is untouched (staged
      tmps are swept at start); the re-run's probe finds the keys again
      and redoes the partition;
    - kill between a journal append and the file swap: the journal is
      AHEAD of the file; the re-run's probe still finds the keys in the
      live file (rewrite case — deleted_rows derives from the
      partition's pre-delete row count, so the re-drop cannot
      double-count) or the start-of-run sweep removes
      the file of a 'deleted'-journaled partition, converging both;
    - kill before finalize: the re-run re-finalizes from the journal
      and clears the marker.
    Idempotent: re-running with the same keys scans to zero hits.

    Stated consequences: verify_job against the ORIGINAL inputs reports
    the deleted rows as mismatches — deletion rewrites history by
    design; and deletion is TERMINAL for resume (manifest
    resume_skip_ids), so a later encode/compact re-run over this dir
    can never resurrect the erased rows from its inputs.

    Scale shape: keys broadcast once (ray.put) and typed once per worker;
    the scan is column-pruned to the key plane; only affected partitions
    pay a rewrite. Driver state is O(partitions + affected)."""
    keys = list(keys)
    if not keys:
        raise ValueError("delete_job: empty key list")
    meta0 = mf.load_metadata(out_dir)
    cfg = mf.load_job_config(out_dir) or {}
    if cfg.get("mode") not in (None, "lineage"):
        raise ValueError(
            f"delete_job supports lineage-mode dirs only; {out_dir} is "
            f"{cfg.get('mode')!r}-mode"
        )
    schema = mf.schema_from_b64(meta0["schema_ipc"])
    key_col = key_column or schema.names[0]
    if key_col not in schema.names:
        raise ValueError(f"{key_col!r} not in schema {schema.names}")
    # interrupted-delete marker: the journal-ahead REWRITE window only
    # heals on a SAME-KEYS re-run (the probe must find the original keys
    # again); a different delete would finalize a manifest inconsistent
    # with a half-swapped file. The marker makes that loud: it is written
    # before any destructive step and removed only after finalize, and a
    # run with DIFFERENT keys refuses while it exists.
    keys_sha = hashlib.sha256(
        "\n".join(sorted(str(k) for k in keys)).encode()
    ).hexdigest()[:16]
    marker = os.path.join(out_dir, "_DELETE_INPROGRESS.json")
    if os.path.exists(marker):
        with open(marker) as f:
            rec = json.load(f)
        if rec.get("keys_sha") != keys_sha:
            raise ValueError(
                f"{out_dir}: a previous delete_job (keys_sha="
                f"{rec.get('keys_sha')}) was interrupted before finalize — "
                "re-run THAT delete to convergence first (only a same-keys "
                "re-run heals its rewrite windows), then retry this one"
            )
    else:
        fsio.publish_bytes(json.dumps({"keys_sha": keys_sha}).encode(), marker)
    # heal a killed prior delete: remove the live file of any partition
    # whose LATEST journal entry says 'deleted' (the journal-ahead-of-files
    # window; journal_stage sweeps the staged tmps)
    all_entries = mf.load_entries(out_dir)
    for pid, e in all_entries.items():
        if e.get("status") == "deleted":
            try:
                os.remove(os.path.join(out_dir, pk.part_file_name(pid)))
            except FileNotFoundError:
                pass
    keys_ref = ray.put(keys)
    # the scan list derives from the ALREADY-loaded journal (one parse):
    # done + file-exists, never 'deleted' pids
    pids = sorted(
        p
        for p, e in all_entries.items()
        if e.get("status") == "done"
        and os.path.exists(os.path.join(out_dir, pk.part_file_name(p)))
    )

    # pass 1: column-pruned key-plane scan -> affected partition ids
    def probe(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        hits = []
        for item in batch.to_pylist():
            col = _key_plane(out_dir, int(item["pid"]), key_col)
            if pc.any(pc.is_in(col, value_set=_key_values(keys_ref, col.type))).as_py():
                hits.append({"pid": int(item["pid"])})
        return pa.Table.from_pylist(
            hits, schema=pa.schema([("pid", pa.int64())])
        )

    items = [{"pid": p} for p in pids]
    affected = [
        int(r["pid"])
        for r in rd.from_items(items, override_num_blocks=max(len(items), 1))
        .map_batches(probe, batch_format="pyarrow", batch_size=8, num_cpus=1)
        .take_all()
    ]

    # n_rows + deleted_rows is invariant across a partition's delete
    # rewrites (validate_entries checks it against the span): the row
    # count the partition was first written with
    work = [
        {
            "pid": p,
            "key_column": key_col,
            "row_range": all_entries[p].get("row_range"),
            "input_shard": all_entries[p].get("input_shard"),
            "orig_rows": int(all_entries[p]["n_rows"])
            + int(all_entries[p].get("deleted_rows") or 0),
        }
        for p in affected
    ]
    meta = journal_stage(
        out_dir, work, PartitionDeleter, {"out_dir": out_dir, "keys_ref": keys_ref},
        concurrency=concurrency, schema=meta0["schema"],
        extra={
            "input_shards": meta0.get("input_shards", []),
            "schema_ipc": meta0.get("schema_ipc"),
        },
    )
    os.remove(marker)  # the delete is now journal- AND file-consistent
    return meta
