"""Checkpoint manifest: per-partition lineage records + final metadata.

The reference stores one self-describing JSON metadata row at block=0,
written exactly once after all tiles finish
(/root/reference/src/read_raster.cpp:1486-1590 phase-3 CAS;
raquet_metadata.hpp:386-506 to_json). Ray Data has no cheap "one special
row" idiom, and an in-band row is not resumable — so our metadata is a
*sidecar*: an append-only ``manifest.jsonl`` of per-partition lineage rows
(written as each partition completes) plus a final ``manifest.json``
(the block=0 analogue) written by the driver after the barrier.

Resume = skip every partition_id already recorded 'done' (a driver-side set
membership check; no shuffle — SURVEY.md §2.7). Partition output files are
written tmp -> rename, so a crash leaves either nothing or a complete file
that the manifest may or may not reference; re-encoding an orphan file is
idempotent because codec choice is a pure function of partition contents
(planner.py) and the file name is a pure function of the partition id.

Validator mirrors raquet_validate_metadata
(/root/reference/src/metadata/raquet_metadata.cpp:16-133): structural
errors vs warnings, returned as a dict.
"""

from __future__ import annotations

import base64
import json
import os
import time

from ..functions import partition_keys as pk
from . import fsio

MANIFEST_JSONL = "manifest.jsonl"
MANIFEST_JSON = "manifest.json"
JOB_JSON = "job.json"

FORMAT_VERSION = "0.1.0"

KNOWN_CODECS = {
    "for_bitpack", "for_bss", "for_rows", "rle", "dict", "plain", "general",
    "fsst", "list", "delta_bitpack",
}

REQUIRED_ENTRY_FIELDS = (
    "partition_id",
    "input_shard",
    "n_rows",
    "codecs",
    "input_bytes",
    "encoded_bytes",
    "status",
)


class ManifestWriter:
    """Append-only JSONL writer (driver-side single writer: encoder results
    stream back through the Dataset and the driver appends in completion
    order; ids are deterministic so order never matters)."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        if "://" in out_dir:
            # journal-based resume needs a filesystem with append + rename
            # (local or shared POSIX); silently writing to a literal
            # './s3:/...' dir would break resume invisibly
            raise NotImplementedError(
                "object-store out_dir for the manifest/journal layer is not "
                "supported — point out_dir at a local/shared filesystem "
                "(part files may still target an object store via fsio)"
            )
        os.makedirs(out_dir, exist_ok=True)
        self.path = os.path.join(out_dir, MANIFEST_JSONL)
        # repair a torn tail before appending: a crash mid-append can leave
        # a final line with no newline — appending onto it would glue the
        # resume run's FIRST entry to the torn prefix, and load_entries
        # would drop both (a silently missing partition at decode)
        try:
            with open(self.path, "rb") as rf:
                rf.seek(-1, 2)
                torn = rf.read(1) != b"\n"
        except (FileNotFoundError, OSError):
            torn = False
        self._fh = open(self.path, "a", encoding="utf-8")
        if torn:
            self._fh.write("\n")
            self._fh.flush()

    def append(self, entry: dict) -> None:
        self._fh.write(json.dumps(entry, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        self._fh.close()

    def finalize(self, schema_str: str, extra: dict | None = None) -> dict:
        """Write the final manifest.json — the block=0 metadata analogue."""
        self._fh.flush()
        entries = load_entries(self.out_dir)
        done = [e for e in entries.values() if e.get("status") == "done"]
        meta = {
            "format_version": FORMAT_VERSION,
            "schema": schema_str,
            "num_partitions": len(done),
            "num_rows": sum(e["n_rows"] for e in done),
            "input_bytes": sum(e["input_bytes"] for e in done),
            "encoded_bytes": sum(e["encoded_bytes"] for e in done),
            "partition_ids": sorted(e["partition_id"] for e in done),
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        rollups = fold_rollups(done)
        if rollups:
            meta["rollups"] = rollups
        if extra:
            meta.update(extra)
        fsio.publish_bytes(
            json.dumps(meta, indent=1, sort_keys=True).encode("utf-8"),
            os.path.join(self.out_dir, MANIFEST_JSON),
        )
        return meta


def schema_to_b64(schema) -> str:
    """Arrow schema -> base64 IPC string (JSON-safe manifest field). The
    human-readable `schema` string can't be parsed back; this one can, so
    readers of an EMPTY or projected dataset still get the real schema."""
    return base64.b64encode(schema.serialize().to_pybytes()).decode("ascii")


def schema_from_b64(s: str):
    import pyarrow as pa
    import pyarrow.ipc

    return pa.ipc.read_schema(pa.py_buffer(base64.b64decode(s)))


def load_job_config(out_dir: str) -> dict | None:
    """Read the persisted plan parameters written at job start (or None)."""
    path = os.path.join(out_dir, JOB_JSON)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def persist_job_config(out_dir: str, config: dict) -> None:
    """Publish job.json (state/fsio.py) — the resolved plan parameters.

    Partition ids are pure functions of these parameters, so a resumed run
    MUST re-plan with the same values: e.g. `auto_target_part_bytes` depends
    on cluster CPU count, and resuming on a different host would otherwise
    silently re-plan different row ranges under the SAME partition ids
    (old part 0 = rows 0-1000 marked done; new plan's part 0 = rows 0-2000
    skipped => rows 1000-2000 never encoded). Persist-at-start + reuse-on-
    resume removes the hazard; validate_entries' coverage check catches a
    mixed-plan manifest after the fact."""
    os.makedirs(out_dir, exist_ok=True)
    fsio.publish_bytes(
        json.dumps(config, sort_keys=True).encode("utf-8"), os.path.join(out_dir, JOB_JSON)
    )


def resolve_job_config(
    out_dir: str, mode: str, requested: dict, fresh, resume: bool = True
) -> dict:
    """The one plan gate of every journaled job: resolve its plan
    parameters against the persisted job.json and return the config the
    job must plan with.

    ``requested`` maps parameter name -> the caller's value, or None (= no
    opinion). On resume with a persisted config, the mode and every
    non-None requested value must equal the persisted one — a key job.json
    lacks is a mismatch too, so a dir another job (or an older engine)
    wrote never passes for this job's — and the persisted config wins.
    Otherwise ``fresh()`` (the caller's full config, defaults resolved) is
    persisted with the mode and returned."""
    prior = load_job_config(out_dir) if resume else None
    if prior is None:
        config = {"mode": mode, **fresh()}
        persist_job_config(out_dir, config)
        return config
    for k, v in {"mode": mode, **requested}.items():
        if v is not None and prior.get(k) != v:
            have = repr(prior[k]) if k in prior else "absent"
            raise ValueError(
                f"resume plan mismatch for {k!r} in {out_dir}: job.json has "
                f"{have}, this call requested {v!r}; partition ids are "
                "functions of the plan — pass the original value or encode "
                "to a fresh directory (resume=False)"
            )
    return prior


def load_entries(out_dir: str) -> dict[int, dict]:
    """Read manifest.jsonl -> {partition_id: latest entry}. Tolerates a
    truncated final line (crash mid-append)."""
    path = os.path.join(out_dir, MANIFEST_JSONL)
    entries: dict[int, dict] = {}
    if not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                e = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail write
            entries[e["partition_id"]] = e
    return entries


def done_partition_ids(out_dir: str) -> set[int]:
    """Partition ids with READABLE output: recorded done AND the output
    file actually exists."""

    done = set()
    for pid, e in load_entries(out_dir).items():
        if e.get("status") == "done":
            if os.path.exists(os.path.join(out_dir, pk.part_file_name(pid))):
                done.add(pid)
    return done


def resume_skip_ids(out_dir: str) -> set[int]:
    """Partition ids a RESUMING job must NOT re-produce: readable 'done'
    partitions PLUS 'deleted' ones. Deletion is TERMINAL for resume —
    treating a deleted pid as never-encoded would let a compact/encode
    re-run silently RESURRECT erased rows from the source (the
    data-subject-erasure failure mode)."""
    skip = set()
    for pid, e in load_entries(out_dir).items():
        st = e.get("status")
        if st == "deleted":
            skip.add(pid)
        elif st == "done" and os.path.exists(
            os.path.join(out_dir, pk.part_file_name(pid))
        ):
            skip.add(pid)
    return skip


def load_metadata(out_dir: str) -> dict:
    """Read the finalized manifest.json (read_raquet_metadata analogue,
    /root/reference/src/raquet_extension.cpp:89-100), migrated in memory
    to the current dialect."""
    with open(os.path.join(out_dir, MANIFEST_JSON), encoding="utf-8") as fh:
        return migrate_metadata(json.load(fh))


def migrate_metadata(meta: dict) -> dict:
    """Version-dispatch for the manifest dialect — the reference parses
    three metadata generations from one reader
    (/root/reference/src/include/raquet_metadata.hpp:1016-1072 version
    sniffing); ours mirrors the policy:

      same MAJOR.MINOR        -> read as-is
      older minor (0.0.x)     -> migrated in memory: the r1 pre-release
                                 journals lacked `schema_ipc` (readers
                                 already fall back) and named the schema
                                 field `schema`; normalize both
      newer minor, same major -> forward-compatible read (unknown keys
                                 ignored by construction) with the
                                 version preserved so re-finalize keeps it
      different major         -> refuse loudly (codec bytes may differ)
    """
    ver = str(meta.get("format_version", "0.0.0"))
    parts = ver.split(".")
    major = int(parts[0]) if parts[0].isdigit() else 0
    cur_major = int(FORMAT_VERSION.split(".")[0])
    if major != cur_major:
        raise ValueError(
            f"manifest format_version {ver!r} has a different major version "
            f"than this engine ({FORMAT_VERSION}): re-encode or use a "
            "matching engine build"
        )
    if ver.startswith("0.0."):
        meta = dict(meta)
        meta.setdefault("schema", meta.pop("schema_str", ""))
        meta["format_version"] = ver  # preserved: migration is in-memory only
    return meta


def stats_passthrough(out_dir: str) -> list[dict]:
    """Per-partition stats straight from the manifest — no blob is decoded
    (the reference's precomputed-stats fast path: ST_RasterSummaryStats'
    passthrough overload skips decompression entirely when stats columns
    exist, /root/reference/src/st_raster_stats.cpp:351-402)."""
    out = []
    entries = load_entries(out_dir)
    for pid in sorted(entries):
        e = entries[pid]
        if e.get("status") != "done":
            continue
        row = {"partition_id": pid, "n_rows": e["n_rows"]}
        for col, s in (e.get("stats") or {}).items():
            for k, v in s.items():
                row[f"{col}_{k}"] = v
        out.append(row)
    return out


def totals_passthrough(out_dir: str, column: str = "tokens") -> dict:
    """Corpus-level totals for one column folded from manifest stats —
    an O(partitions) driver-side reduce, zero data reads."""
    entries = [e for e in load_entries(out_dir).values() if e.get("status") == "done"]
    stats = [e["stats"][column] for e in entries if column in (e.get("stats") or {})]
    nonempty = [s for s in stats if s["count"]]
    return {
        "total_rows": sum(e["n_rows"] for e in entries),
        "total_values": sum(s["count"] for s in stats),
        "values_sum": sum(s["sum"] for s in stats),
        "values_min": min((s["min"] for s in nonempty), default=None),
        "values_max": max((s["max"] for s in nonempty), default=None),
    }


def fold_rollups(entries: list[dict]) -> dict:
    """Fold per-partition rollup PARTIALS (stages/encoder.py
    source_rollup_partial) into per-source totals — the overview-pyramid
    tier between "manifest totals" and "full decode"
    (/root/reference/src/read_raster.cpp:1313-1438): one O(partitions)
    reduce at finalize, then every corpus-health query reads O(sources)
    rows from manifest.json alone."""
    acc: dict = {}
    any_rollup = False
    for e in entries:
        for row in (e.get("rollup") or {}).get("n_tok_by_source", []):
            any_rollup = True
            s = row["source"]
            a = acc.get(s)
            if a is None:
                acc[s] = dict(row)
            else:
                a["count"] += row["count"]
                # null-safe fold (a partial's sum/min/max are None when
                # every value in its partition was null — SQL semantics)
                for k, op in (("sum", lambda x, y: x + y),
                              ("min", min), ("max", max)):
                    if row[k] is not None:
                        a[k] = row[k] if a[k] is None else op(a[k], row[k])
    if not any_rollup:
        return {}
    rows = sorted(acc.values(), key=lambda r: (r["source"] is None, r["source"]))
    return {"n_tok_by_source": rows}


def source_rollup(out_dir: str) -> list[dict]:
    """Per-source n_tok rollup rows for an encoded dataset — answered from
    manifest.json when present (O(sources), zero partition reads), else
    folded from the entries log (O(partitions), still zero data reads)."""
    meta = load_metadata(out_dir)
    rows = (meta.get("rollups") or {}).get("n_tok_by_source")
    if rows is not None:
        return rows
    done = [e for e in load_entries(out_dir).values() if e.get("status") == "done"]
    return fold_rollups(done).get("n_tok_by_source", [])


def prune_partitions(out_dir: str, column: str, lo=None, hi=None) -> list[int]:
    """Zone-map pruning: partition ids that MAY contain values of
    ``column`` within [lo, hi], decided from manifest stats alone — the
    reference's sorted-block + row-group min/max pruning
    (/root/reference/CLAUDE.md:44, raquet_extension.cpp:49-81) with the
    manifest as the zone map. Partitions lacking stats are kept
    (pruning must never lose data); callers apply the residual row filter
    after decode."""
    keep: list[int] = []
    for pid, e in sorted(load_entries(out_dir).items()):
        if e.get("status") != "done":
            continue
        s = (e.get("stats") or {}).get(column)
        if not s or s.get("count", 0) == 0 or s.get("min") is None:
            keep.append(pid)
            continue
        if lo is not None and s["max"] < lo:
            continue
        if hi is not None and s["min"] > hi:
            continue
        keep.append(pid)
    return keep


def validate_entries(entries: list[dict]) -> dict:
    """Structural validation -> {is_valid, errors, warnings, num_partitions,
    num_rows} (raquet_validate_metadata analogue)."""
    errors: list[str] = []
    warnings: list[str] = []
    seen: set[int] = set()
    num_rows = 0
    for i, e in enumerate(entries):
        for f in REQUIRED_ENTRY_FIELDS:
            if f not in e:
                errors.append(f"entry {i}: missing required field {f!r}")
        pid = e.get("partition_id")
        if pid is not None:
            if pid in seen:
                errors.append(f"entry {i}: duplicate partition_id {pid}")
            seen.add(pid)
        codecs = e.get("codecs", {})
        for col, choice in codecs.items():
            name = choice["codec"] if isinstance(choice, dict) else choice
            # unwrap nested list<...> summaries (e.g. "list<for_bss>")
            while isinstance(name, str) and name.startswith("list<") and name.endswith(">"):
                name = name[5:-1]
            if name not in KNOWN_CODECS:
                errors.append(f"entry {i}: unknown codec {name!r} for column {col!r}")
        n = e.get("n_rows")
        rr = e.get("row_range")
        # a delete_job rewrite keeps the ORIGINAL row_range (lineage
        # provenance — the shard coverage check below must still tile)
        # and records how many of the span's rows were erased
        ndel = int(e.get("deleted_rows") or 0)
        if n is not None and rr is not None and rr[1] - rr[0] != n + ndel:
            errors.append(
                f"entry {i}: n_rows {n} + deleted_rows {ndel} != "
                f"row_range span {rr}"
            )
        if n is not None:
            num_rows += n
        if "checksum" not in e:
            warnings.append(f"entry {i}: missing checksum")
        if "fsst_symbol_table_hash" not in e:
            warnings.append(f"entry {i}: missing fsst_symbol_table_hash")
    # per-shard row-range coverage: lineage partitions of one shard must
    # tile [0, N) with no overlap and no gap — a mixed-plan manifest (e.g.
    # a resume that re-planned with a different target_part_bytes) fails
    # loudly here instead of silently dropping rows
    by_shard: dict[str, list[tuple[int, int, int]]] = {}
    for i, e in enumerate(entries):
        rr = e.get("row_range")
        if rr:
            by_shard.setdefault(e.get("input_shard", "?"), []).append((rr[0], rr[1], i))
    for shard, ranges in by_shard.items():
        ranges.sort()
        if ranges[0][0] != 0:
            # warning, not error: a subset of entries (e.g. one partition)
            # can be validated standalone; gaps/overlaps BETWEEN entries
            # are always a mixed-plan defect
            warnings.append(
                f"shard {shard!r}: coverage starts at row {ranges[0][0]}, not 0"
            )
        # running max-hi: a range nested inside an earlier larger one must
        # not produce a phantom "gap" against its adjacent sibling
        max_hi = ranges[0][1]
        max_i = ranges[0][2]
        for (a_lo, a_hi, ai), (b_lo, b_hi, bi) in zip(ranges, ranges[1:]):
            if b_lo < max_hi:
                errors.append(
                    f"shard {shard!r}: entries {max_i} and {bi} overlap "
                    f"(rows up to {max_hi} vs [{b_lo},{b_hi})) — mixed plans?"
                )
            elif b_lo > max_hi:
                errors.append(
                    f"shard {shard!r}: coverage gap between rows {max_hi} and "
                    f"{b_lo} — rows never encoded (mixed plans?)"
                )
            if b_hi > max_hi:
                max_hi, max_i = b_hi, bi
    return {
        "is_valid": not errors,
        "errors": errors,
        "warnings": warnings,
        "num_partitions": len(entries),
        "num_rows": num_rows,
    }
