"""The resume contract of the journaled jobs: every job checks its persisted
plan through `manifest.resolve_job_config`, and a lineage dir grows by one
rule (`encode.grow_shard_order`) whichever entry point grows it."""

import json
import os

import pytest

from duckdb_raquet_ray.functions import partition_keys as pk
from duckdb_raquet_ray.pipelines import decode, encode, encode_grouped
from duckdb_raquet_ray.sources import tokens
from duckdb_raquet_ray.state import manifest as mf

T = 1 << 20


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    return str(root), tokens.write_corpus(str(root / "corp"), 2000, 3, row_group_rows=256)


def _encode(root, paths, out):
    encode.encode_job(paths, out, target_part_bytes=T)
    return lambda: encode.encode_job(paths, out, target_part_bytes=T)


def _grouped(root, paths, out):
    encode_grouped.encode_job_grouped(paths, out, target_group_rows=800)
    salt_map = mf.load_job_config(out)["salt_map"]
    return lambda: encode_grouped.encode_job_grouped(paths, out, salt_map=salt_map)


def _compact(root, paths, out):
    src = os.path.join(root, "compact_src")
    if not os.path.exists(src):
        encode.encode_job(paths, src, target_part_bytes=T)
    encode.compact_job(src, out, target_part_bytes=4 << 20)
    return lambda: encode.compact_job(src, out)


@pytest.mark.parametrize("job, key", [
    (_encode, "target_part_bytes"),
    (_grouped, "salt_map"),
    (_compact, "src_roster_sha"),
])
def test_requested_key_absent_from_job_json_refuses(ray_session, corpus, tmp_path, job, key):
    root, paths = corpus
    out = str(tmp_path / "out")
    rerun = job(root, paths, out)
    rerun()  # the intact job.json resumes as a no-op
    cfg = mf.load_job_config(out)
    del cfg[key]
    mf.persist_job_config(out, cfg)
    with pytest.raises(ValueError, match=f"{key!r}.*absent"):
        rerun()


def test_shrunk_input_list_refused(ray_session, corpus, tmp_path):
    _, paths = corpus
    out = str(tmp_path / "enc")
    encode.encode_job(paths, out, target_part_bytes=T)
    with pytest.raises(ValueError, match="drops 1 of the 3 recorded shards"):
        encode.encode_job(paths[1:], out)


def test_resume_heals_one_lost_part_file(ray_session, corpus, tmp_path):
    # a plain resume plans from shard 0, so a done partition whose file is
    # gone is re-encoded
    _, paths = corpus
    out = str(tmp_path / "enc")
    meta = encode.encode_job(paths, out, target_part_bytes=T)
    names = [pk.part_file_name(p) for p in meta["partition_ids"]]
    blobs = {f: open(os.path.join(out, f), "rb").read() for f in names}
    stamps = {f: os.path.getmtime(os.path.join(out, f)) for f in names}
    lost = names[len(names) // 2]
    os.remove(os.path.join(out, lost))
    journal = open(os.path.join(out, mf.MANIFEST_JSONL)).read()
    meta2 = encode.encode_job(paths, out)
    assert meta2["partition_ids"] == meta["partition_ids"]
    for f in names:
        path = os.path.join(out, f)
        assert open(path, "rb").read() == blobs[f]
        if f != lost:
            assert os.path.getmtime(path) == stamps[f]
    # the journal gained exactly the healed partition's entry
    added = open(os.path.join(out, mf.MANIFEST_JSONL)).read()[len(journal):]
    assert [pk.part_file_name(json.loads(line)["partition_id"])
            for line in added.splitlines()] == [lost]
    assert decode.verify_job(paths, out)["ok"]

