"""state/fsio: absent-or-complete publishing on local AND non-rename
filesystems (the object-store code path, exercised via SubTreeFileSystem
which deliberately takes the no-rename branch)."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
from pyarrow import fs as pafs

from duckdb_raquet_ray.state import fsio


def _table():
    return pa.table({"a": pa.array([1, 2, 3], type=pa.int64())})


class TestLocal:
    def test_publish_table_rename_path(self, tmp_path):
        dest = str(tmp_path / "t.parquet")
        fsio.publish_table(_table(), dest)
        assert pq.read_table(dest).equals(_table())
        # no tmp debris
        assert [f for f in os.listdir(tmp_path) if ".tmp-" in f] == []

    def test_publish_bytes(self, tmp_path):
        dest = str(tmp_path / "b.json")
        fsio.publish_bytes(b'{"x": 1}', dest)
        assert open(dest, "rb").read() == b'{"x": 1}'

    def test_sweep_tmp_removes_only_publish_temps(self, tmp_path):
        # a kill between a publish's tmp write and its rename leaves the tmp
        fsio.publish_bytes(b"done", str(tmp_path / "kept.json"))
        (tmp_path / "kept.json.tmp-123-deadbeef").write_bytes(b"half")
        (tmp_path / "part-1.parquet.tmp-delete-cafe0000").write_bytes(b"staged")
        fsio.sweep_tmp(str(tmp_path))
        assert sorted(os.listdir(tmp_path)) == ["kept.json"]


class TestObjectStoreBranch:
    def test_subtree_fs_takes_stream_branch(self, tmp_path):
        fsys = pafs.SubTreeFileSystem(str(tmp_path), pafs.LocalFileSystem())
        fsio.publish_table(_table(), "t.parquet", filesystem=fsys)
        assert pq.read_table(str(tmp_path / "t.parquet")).equals(_table())
        fsio.publish_bytes(b"xy", "b.bin", filesystem=fsys)
        assert open(tmp_path / "b.bin", "rb").read() == b"xy"
        assert fsio.exists("t.parquet", filesystem=fsys)
        assert not fsio.exists("missing", filesystem=fsys)

    def test_resolve_plain_path(self, tmp_path):
        fsys, p = fsio.resolve(str(tmp_path))
        assert isinstance(fsys, pafs.LocalFileSystem)
        assert p == str(tmp_path)
