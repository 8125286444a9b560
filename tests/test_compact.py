"""compact_job: the LSM-compaction step for append-heavy encoded dirs —
partition-count reduction, bit-identical logical contents, preserved
rollups, resume (done groups skipped), config pinning, and the
no-original-inputs contract (compaction reads only part files)."""

import json
import os
import shutil

import numpy as np
import pytest

from duckdb_raquet_ray.pipelines import decode, encode
from duckdb_raquet_ray.sources import tokens
from duckdb_raquet_ray.state import manifest as mf


@pytest.fixture(scope="module")
def encoded_dir(ray_session, tmp_path_factory):
    base = tmp_path_factory.mktemp("compact")
    paths = tokens.write_corpus(str(base / "corp"), 12_000, 6, row_group_rows=1024)
    enc_dir = str(base / "enc")
    encode.encode_job(paths, enc_dir, target_part_bytes=1 << 20)
    extra = tokens.write_corpus(str(base / "corp2"), 4_000, 2, row_group_rows=1024)
    encode.append_job(extra, enc_dir)
    return enc_dir


def _sorted_rows(out_dir):
    df = decode.read_encoded(out_dir).to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


class TestCompact:
    def test_roundtrip_and_partition_reduction(self, encoded_dir, tmp_path):
        out = str(tmp_path / "cmp")
        src_meta = mf.load_metadata(encoded_dir)
        meta = encode.compact_job(encoded_dir, out, target_part_bytes=8 << 20)
        assert meta["num_rows"] == src_meta["num_rows"]
        assert meta["num_partitions"] < src_meta["num_partitions"]
        # logical contents bit-identical
        a = _sorted_rows(encoded_dir)
        b = _sorted_rows(out)
        assert (a["doc_id"] == b["doc_id"]).all()
        assert (a["n_tok"] == b["n_tok"]).all()
        for x, y in zip(a["tokens"], b["tokens"]):
            np.testing.assert_array_equal(np.asarray(x), np.asarray(y))
        # rollups fold to the same totals (stats surface preserved)
        assert meta.get("rollups") == src_meta.get("rollups")

    def test_resume_skips_done_groups(self, encoded_dir, tmp_path):
        out = str(tmp_path / "cmp")
        meta = encode.compact_job(encoded_dir, out, target_part_bytes=8 << 20)
        # simulate a killed run: drop the LAST journaled group + its file
        lines = open(os.path.join(out, "manifest.jsonl")).read().splitlines()
        dropped = json.loads(lines[-1])
        with open(os.path.join(out, "manifest.jsonl"), "w") as f:
            f.write("\n".join(lines[:-1]) + "\n")
        os.remove(
            os.path.join(
                out,
                __import__(
                    "duckdb_raquet_ray.functions.partition_keys",
                    fromlist=["part_file_name"],
                ).part_file_name(dropped["partition_id"]),
            )
        )
        os.remove(os.path.join(out, "manifest.json"))
        meta2 = encode.compact_job(encoded_dir, out, target_part_bytes=8 << 20)
        assert meta2["num_partitions"] == meta["num_partitions"]
        assert meta2["num_rows"] == meta["num_rows"]

    def test_conflicting_target_raises(self, encoded_dir, tmp_path):
        out = str(tmp_path / "cmp")
        encode.compact_job(encoded_dir, out, target_part_bytes=8 << 20)
        with pytest.raises(ValueError):
            encode.compact_job(encoded_dir, out, target_part_bytes=4 << 20)

    def test_same_dir_refused(self, encoded_dir):
        with pytest.raises(ValueError, match="must differ"):
            encode.compact_job(encoded_dir, encoded_dir)

    def test_reads_only_part_files(self, encoded_dir, tmp_path):
        # the original corpus shards may be GONE at compaction time: copy
        # the encoded dir somewhere the shard paths are meaningless and
        # compact from there
        iso = str(tmp_path / "iso_enc")
        shutil.copytree(encoded_dir, iso)
        out = str(tmp_path / "cmp")
        meta = encode.compact_job(iso, out, target_part_bytes=8 << 20)
        assert meta["num_rows"] == mf.load_metadata(encoded_dir)["num_rows"]

    def test_cli_surface(self, encoded_dir, ray_session, tmp_path):
        from duckdb_raquet_ray import cli

        out = str(tmp_path / "cmpcli")
        cli.main(["compact", "--src", encoded_dir, "--out", out,
                  "--target-part-bytes", str(8 << 20)])
        assert os.path.exists(os.path.join(out, "manifest.json"))

    def test_compacted_dir_is_append_closed(self, encoded_dir, tmp_path):
        # group pids and shard pids share the pack() namespace: an append
        # to a compacted dir can silently collide ids -> loud refusal
        out = str(tmp_path / "cmp")
        encode.compact_job(encoded_dir, out, target_part_bytes=8 << 20)
        extra = tokens.write_corpus(str(tmp_path / "c3"), 1000, 1, row_group_rows=512)
        with pytest.raises(ValueError, match="append-closed"):
            encode.append_job(extra, out)
        # growing it through encode_job meets the same rule
        with pytest.raises(ValueError, match="append-closed"):
            encode.encode_job(extra, out)

    def test_source_roster_drift_refused(self, encoded_dir, tmp_path):
        # re-running a compaction after the SOURCE dir changed would
        # re-group under already-done ids (silent row loss) -> the pinned
        # roster hash must refuse. Append to a COPY — the module fixture
        # is shared and must stay unmutated for later tests.
        src = str(tmp_path / "src_copy")
        shutil.copytree(encoded_dir, src)
        out = str(tmp_path / "cmp")
        encode.compact_job(src, out, target_part_bytes=8 << 20)
        extra = tokens.write_corpus(str(tmp_path / "c4"), 2000, 1, row_group_rows=512)
        encode.append_job(extra, src)
        with pytest.raises(ValueError, match="src_roster_sha"):
            encode.compact_job(src, out, target_part_bytes=8 << 20)

    def test_flagless_resume_after_explicit_target(self, encoded_dir, tmp_path):
        # resume without --target-part-bytes must reuse the pinned value,
        # not raise a spurious mismatch from a pre-resolved default
        out = str(tmp_path / "cmp")
        m1 = encode.compact_job(encoded_dir, out, target_part_bytes=8 << 20)
        m2 = encode.compact_job(encoded_dir, out)  # no target flag
        assert m2["num_partitions"] == m1["num_partitions"]

    def test_delete_then_compact_rerun_does_not_resurrect(self, encoded_dir, tmp_path):
        # deletion must be TERMINAL for resume: a compact re-run must not
        # re-encode a deleted group from the (unchanged) source
        import pyarrow.parquet as pq

        out = str(tmp_path / "cmp")
        m1 = encode.compact_job(encoded_dir, out, target_part_bytes=8 << 20)
        # erase one whole group's worth of rows from the compacted dir
        first_pid = sorted(m1["partition_ids"])[0]
        from duckdb_raquet_ray.functions import partition_keys as pk

        part = os.path.join(out, pk.part_file_name(first_pid))
        victim_keys = (
            decode.read_encoded(out, partition_ids=[first_pid])
            .to_pandas()["doc_id"]
            .tolist()
        )
        # the appended fixture corpus REUSES doc_id values, so the victim
        # keys also match rows in other partitions — expect the
        # corpus-wide match count, not just the victim partition's rows
        all_ids = decode.read_encoded(out).to_pandas()["doc_id"]
        n_matching = int(all_ids.isin(set(victim_keys)).sum())
        m2 = encode.delete_job(out, victim_keys)
        assert m2["num_rows"] == m1["num_rows"] - n_matching
        # re-run the compaction with identical args: must NOT resurrect
        m3 = encode.compact_job(encoded_dir, out, target_part_bytes=8 << 20)
        assert m3["num_rows"] == m2["num_rows"]
        assert first_pid not in m3["partition_ids"]

    def test_compact_into_existing_encode_dir_refused(self, encoded_dir, tmp_path):
        # an out_dir that is itself an encode dir has no compacted_from:
        # its shard-0 partitions would collide with group ids
        src2 = tokens.write_corpus(str(tmp_path / "c5"), 2000, 1, row_group_rows=512)
        other = str(tmp_path / "other_enc")
        encode.encode_job(src2, other, target_part_bytes=1 << 20)
        with pytest.raises(ValueError, match="compacted_from"):
            encode.compact_job(encoded_dir, other)
