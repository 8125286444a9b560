"""Filesystem abstraction for partition/manifest output — the cloud path.

The engine's resumability rests on one invariant: a partition file is
either ABSENT or COMPLETE, never half-written (resume decides what to
re-encode by "does a valid file exist"). Locally that is tmp→`os.replace`.
Object stores (S3/GCS) have no rename — but they don't need one: a
multipart PUT is invisible until completed, so a plain streamed write
through `pyarrow.fs` already has the absent-or-complete property; the
reference leans on the same store semantics for its GCS path
(/root/reference/docs/PERFORMANCE_COMPARISON.md cloud-native reads).

`publish_table` / `publish_bytes` route every output through this module:

  LocalFileSystem         -> write `<path>.tmp-<pid>-<uuid>`, fsync-free rename
  any other pyarrow fs    -> direct `open_output_stream` (atomic-on-close
                             by store semantics; aborted uploads never
                             become visible objects)

Paths are resolved with `pyarrow.fs.FileSystem.from_uri`, so an out_dir of
`s3://bucket/prefix` flows through the SAME code as `/tmp/enc` — the only
local-only remnant is the manifest journal's append mode, which
`ManifestWriter` documents (a cloud deployment ships entries back through
the driver fold, which this engine already does — the journal is a
driver-side file).

The sandbox has no object store; LocalFileSystem is what tests exercise,
plus a SubTreeFileSystem-wrapped run that takes the non-rename branch
end-to-end (tests/test_fsio.py).
"""

from __future__ import annotations

import glob
import os
import uuid

import pyarrow as pa
import pyarrow.parquet as pq
from pyarrow import fs as pafs


_TMP = ".tmp-"  # local publish temps are `<path>.tmp-<pid>-<uuid>`


def resolve(path: str) -> tuple[pafs.FileSystem, str]:
    """URI or plain path -> (filesystem, fs-relative path)."""
    if "://" in path:
        return pafs.FileSystem.from_uri(path)
    return pafs.LocalFileSystem(), path


def _is_local(filesystem: pafs.FileSystem) -> bool:
    fsys = filesystem
    # unwrap SubTreeFileSystem? No: a subtree wrapper hides the base path
    # needed for rename, so it intentionally takes the object-store branch.
    return isinstance(fsys, pafs.LocalFileSystem)


def _local_tmp(path: str) -> str:
    # pid alone collides across NODES (containerized workers commonly
    # share pid numbers on a shared filesystem) — a uuid component keeps
    # two retried writers of the same partition from interleaving one
    # tmp file and renaming corrupt bytes into place
    return path + f"{_TMP}{os.getpid()}-{uuid.uuid4().hex[:8]}"


def publish_bytes(data: bytes, path: str, filesystem: pafs.FileSystem | None = None) -> None:
    """Write `data` so the object at `path` is absent-or-complete."""
    fsys, p = (filesystem, path) if filesystem is not None else resolve(path)
    if _is_local(fsys):
        tmp = _local_tmp(p)
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, p)
        return
    with fsys.open_output_stream(p) as f:  # atomic-on-close upload
        f.write(data)


def publish_table(
    table: pa.Table,
    path: str,
    filesystem: pafs.FileSystem | None = None,
    **write_kwargs,
) -> None:
    """Write a Parquet file so the object at `path` is absent-or-complete."""
    fsys, p = (filesystem, path) if filesystem is not None else resolve(path)
    if _is_local(fsys):
        os.replace(stage_table(table, p, **write_kwargs), p)
        return
    with fsys.open_output_stream(p) as f:
        pq.write_table(table, f, **write_kwargs)


def stage_table(table: pa.Table, path: str, **write_kwargs) -> str:
    """Write a Parquet publish temp for the LOCAL `path` and return its
    name; the caller publishes it with `os.replace(tmp, path)` when ready
    (a kill before that leaves only debris `sweep_tmp` removes)."""
    tmp = _local_tmp(path)
    pq.write_table(table, tmp, **write_kwargs)
    return tmp


def sweep_tmp(directory: str) -> None:
    """Remove the publish temps a killed writer left in `directory` (a
    SIGKILL between the tmp write and its rename leaves the tmp behind;
    the re-run publishes under a fresh tmp name anyway)."""
    for stale in glob.glob(os.path.join(glob.escape(directory), f"*{_TMP}*")):
        try:
            os.remove(stale)
        except OSError:
            pass


def exists(path: str, filesystem: pafs.FileSystem | None = None) -> bool:
    fsys, p = (filesystem, path) if filesystem is not None else resolve(path)
    return fsys.get_file_info(p).type != pafs.FileType.NotFound


def makedirs(path: str, filesystem: pafs.FileSystem | None = None) -> None:
    fsys, p = (filesystem, path) if filesystem is not None else resolve(path)
    fsys.create_dir(p, recursive=True)
