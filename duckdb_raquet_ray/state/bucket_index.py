"""The on-disk layout shared by every persisted, hive-bucketed index (IVF
and IVF-PQ in pipelines/ann.py, BM25 and positional postings in
pipelines/retrieval.py, content-hash and MinHash-band cells in
pipelines/dedup.py):

    <index_dir>/_INDEX.json                  build marker: family meta +
                                             bucket column + rows written
    <index_dir>/_BUILDING                    a build is in progress
    <index_dir>/<col>=<b>/*.parquet          the build's bucket files
    <index_dir>/<col>=<b>/append-<id>-_*.parquet
                                             one append's bucket files
    <index_dir>/_APPEND-<id>.json            that append's marker

Marker rule (stage -> publish -> marker): a marker is published LAST
through fsio.publish_bytes, and readers see only what a marker vouches
for. A dir without `_INDEX.json` is refused; an append's files are
invisible until its `_APPEND-<id>.json` exists. So a build killed at any
step leaves a refused dir (the next build clears it), and an append
killed at any step leaves files no probe lists (its retry sweeps them
and rewrites under the same deterministic prefix) — recomputing from
the same inputs converges to the state one uninterrupted run leaves.

A build deletes only what the index owns (its markers, publish temps
and `<col>=*` dirs), and only when a marker (`_INDEX.json` or
`_BUILDING`) says this index wrote them: bucket dirs no marker vouches
for — an index written before markers existed, or a dir that is not an
index — are refused, never deleted.

Readers call `bucket_files` for the buckets they need, so a probe opens
only its touched buckets' files.
"""

from __future__ import annotations

import glob
import json
import os
import re
import shutil

import pyarrow.parquet as pq
import ray.data as rd
from ray.data.datasource import FilenameProvider

from . import fsio

MARKER = "_INDEX.json"
_BUILDING = "_BUILDING"
_APPEND_MARKER = "_APPEND-{}.json"
# append ids contain no '_', so `append-<id>-_` never prefixes the files
# of a longer id that starts with `<id>-`
_APPEND_FILE = "append-{}-_"
_APPEND_ID = re.compile(r"[A-Za-z0-9-]+")


def _rows(files: list[str]) -> int:
    return sum(pq.ParquetFile(f).metadata.num_rows for f in files)


class _AppendNames(FilenameProvider):
    """`append-<id>-_<write uuid>_<task>_<block>...`: the prefix
    is a pure function of the append id, so a retry can find and sweep
    what a killed attempt wrote."""

    def __init__(self, append_id: str):
        self._prefix = _APPEND_FILE.format(append_id)

    def get_filename_for_block(self, block, write_uuid, task_index, block_index):
        return f"{self._prefix}{write_uuid}_{task_index:06}_{block_index:06}"


def build(ds: rd.Dataset, index_dir: str, bucket_col: str, info: dict | None = None) -> int:
    """(Re)build the index from `ds` (which carries `bucket_col`): mark
    the build in progress, remove the marker, clear what the index owns
    (append markers, publish temps, `<bucket_col>=*` dirs; other files
    in the dir are left alone), write the buckets, publish the marker
    holding `info`. Returns the number of rows written. Refuses
    (ValueError) a dir holding `<bucket_col>=*` dirs that no marker
    vouches for."""
    os.makedirs(index_dir, exist_ok=True)
    names = os.listdir(index_dir)
    buckets = [n for n in names if n.startswith(f"{bucket_col}=")]
    if buckets and MARKER not in names and _BUILDING not in names:
        raise ValueError(
            f"{index_dir} holds {bucket_col}= buckets but no {MARKER} (an index "
            "written before index markers existed, or not an index) — remove "
            "it to build an index there"
        )
    fsio.publish_bytes(b"", os.path.join(index_dir, _BUILDING))
    for n in [MARKER] + [n for n in names if n.startswith("_APPEND-")]:
        try:
            os.remove(os.path.join(index_dir, n))  # probes refuse from here on
        except FileNotFoundError:
            pass
    fsio.sweep_tmp(index_dir)
    for n in buckets:
        shutil.rmtree(os.path.join(index_dir, n))
    ds.write_parquet(index_dir, partition_cols=[bucket_col])
    rows = _rows(glob.glob(os.path.join(glob.escape(index_dir), f"{bucket_col}=*", "*.parquet")))
    fsio.publish_bytes(
        json.dumps({**(info or {}), "bucket_col": bucket_col, "rows": rows}).encode(),
        os.path.join(index_dir, MARKER),
    )
    os.remove(os.path.join(index_dir, _BUILDING))
    return rows


def append(ds: rd.Dataset, index_dir: str, append_id: str, info: dict | None = None) -> int:
    """Add `ds`'s rows to a built index as new files inside their
    buckets; existing files are never touched. A re-run of an append
    that completed is a no-op returning 0; otherwise the append sweeps
    its own debris, writes, and publishes its marker (holding `info`)
    last. `append_id` is made of letters, digits and '-'. Returns the
    number of rows appended."""
    if not _APPEND_ID.fullmatch(append_id):
        raise ValueError(f"append id {append_id!r} must match [A-Za-z0-9-]+")
    bucket_col = _build_marker(index_dir)["bucket_col"]
    marker = os.path.join(index_dir, _APPEND_MARKER.format(append_id))
    if os.path.exists(marker):
        return 0

    def own_files() -> list[str]:
        head = _APPEND_FILE.format(append_id)
        return glob.glob(os.path.join(glob.escape(index_dir), f"{bucket_col}=*", f"{head}*"))

    fsio.sweep_tmp(index_dir)
    for f in own_files():
        os.remove(f)
    ds.write_parquet(
        index_dir, partition_cols=[bucket_col], filename_provider=_AppendNames(append_id)
    )
    rows = _rows(own_files())
    fsio.publish_bytes(
        json.dumps({**(info or {}), "append_id": append_id, "rows": rows}).encode(), marker
    )
    return rows


def _completed_appends(index_dir: str) -> list[str]:
    head, tail = _APPEND_MARKER.split("{}")
    return sorted(
        f[len(head) : -len(tail)]
        for f in os.listdir(index_dir)
        if f.startswith(head) and f.endswith(tail)
    )


def _build_marker(index_dir: str) -> dict:
    try:
        with open(os.path.join(index_dir, MARKER)) as f:
            return json.load(f)
    except FileNotFoundError:
        raise ValueError(
            f"{index_dir} is not a built index (no {MARKER}: the build never "
            "ran or was interrupted) — rebuild it"
        ) from None


def meta(index_dir: str) -> dict:
    """The build marker's contents plus `appends`: {append id: that
    append's marker} for every completed append. Refuses (ValueError) a
    dir without a build marker."""
    out = _build_marker(index_dir)
    out["appends"] = {}
    for a in _completed_appends(index_dir):
        with open(os.path.join(index_dir, _APPEND_MARKER.format(a))) as f:
            out["appends"][a] = json.load(f)
    return out


def bucket_files(index_dir: str, buckets) -> list[str]:
    """Parquet files of the requested buckets, in bucket order — the
    build's files plus those of completed appends, nothing else."""
    bucket_col = _build_marker(index_dir)["bucket_col"]
    done = tuple(_APPEND_FILE.format(a) for a in _completed_appends(index_dir))
    files: list[str] = []
    for b in buckets:
        d = os.path.join(index_dir, f"{bucket_col}={b}")
        if not os.path.isdir(d):
            continue
        files += [
            os.path.join(d, f)
            for f in sorted(os.listdir(d))
            if f.endswith(".parquet")
            and (not f.startswith("append-") or f.startswith(done))
        ]
    return files
