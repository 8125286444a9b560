"""Manifest stats passthrough + export sink (round-1 additions).

Passthrough mirrors the reference's precomputed-stats fast path
(/root/reference/src/st_raster_stats.cpp:351-402): stats answered from
metadata alone must equal stats computed from the data."""

import os
import shutil

import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from duckdb_raquet_ray.pipelines import decode, encode
from duckdb_raquet_ray.sources import tokens as tok
from duckdb_raquet_ray.state import manifest as mf


@pytest.fixture(scope="module")
def encoded(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("pp")
    paths = tok.write_corpus(str(root / "corpus"), 2000, 2, row_group_rows=512)
    out = str(root / "enc")
    encode.encode_job(paths, out, target_part_bytes=1 << 19)
    return paths, out


class TestStatsPassthrough:
    def test_totals_match_data(self, encoded):
        paths, out = encoded
        t = mf.totals_passthrough(out, column="tokens")
        raw = pq.read_table(paths[0]).column("tokens")
        raw2 = pq.read_table(paths[1]).column("tokens")
        flat = pc.list_flatten(raw).combine_chunks()
        flat2 = pc.list_flatten(raw2).combine_chunks()
        assert t["total_rows"] == 2000
        assert t["total_values"] == len(flat) + len(flat2)
        assert t["values_sum"] == int(pc.sum(flat).as_py()) + int(pc.sum(flat2).as_py())
        assert t["values_min"] == min(pc.min(flat).as_py(), pc.min(flat2).as_py())
        assert t["values_max"] == max(pc.max(flat).as_py(), pc.max(flat2).as_py())

    def test_per_partition_rows(self, encoded):
        _, out = encoded
        rows = mf.stats_passthrough(out)
        meta = mf.load_metadata(out)
        assert [r["partition_id"] for r in rows] == meta["partition_ids"]
        assert sum(r["n_rows"] for r in rows) == meta["num_rows"]
        # n_tok stats present for every partition; count == n_rows
        for r in rows:
            assert r["n_tok_count"] == r["n_rows"]
            assert r["tokens_sum"] >= 0

    def test_entry_stats_shape(self, encoded):
        _, out = encoded
        e = next(iter(mf.load_entries(out).values()))
        assert set(e["stats"]) == {"tokens", "n_tok"}  # integer columns only
        for s in e["stats"].values():
            assert {"count", "min", "max", "sum"} <= set(s)


class TestStatColumns:
    """stat_<col>_{count,min,max} live as REAL Parquet columns in every
    encoded partition file (reference read_raster.cpp:1079-1090), so plain
    Parquet engines get zone maps without our manifest."""

    def test_external_engine_reads_stats(self, encoded):
        import duckdb

        paths, out = encoded
        got = duckdb.connect().execute(
            "SELECT sum(stat_n_tok_count), min(stat_n_tok_min), max(stat_n_tok_max) "
            f"FROM read_parquet('{out}/part-*.parquet')"
        ).fetchone()
        import pyarrow as pa

        all_ntok = pa.concat_tables(
            [pq.read_table(p, columns=["n_tok"]) for p in paths]
        ).column("n_tok")
        assert got[0] == len(all_ntok)
        assert got[1] == pc.min(all_ntok).as_py()
        assert got[2] == pc.max(all_ntok).as_py()

    def test_parquet_pruning_matches_manifest(self, encoded):
        _, out = encoded
        lo, hi = 100, 260
        assert decode.prune_partitions_parquet(out, "n_tok", lo, hi) == mf.prune_partitions(
            out, "n_tok", lo, hi
        )

    def test_range_read_served_by_parquet_stats(self, encoded, tmp_path):
        paths, out = encoded
        lo, hi = 100, 260
        # a journal-less copy: pruning falls back to the in-file stat columns
        bare = str(tmp_path / "bare")
        shutil.copytree(out, bare)
        os.remove(os.path.join(bare, mf.MANIFEST_JSONL))
        got = (
            decode.read_encoded_range(bare, "n_tok", lo, hi)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        import pandas as pd

        raw = pd.concat([pq.read_table(p).to_pandas() for p in paths])
        want = raw[(raw.n_tok >= lo) & (raw.n_tok <= hi)].sort_values("doc_id").reset_index(drop=True)
        assert got["doc_id"].tolist() == want["doc_id"].tolist()


    def test_journal_less_range_read_returns_every_row(self, encoded, tmp_path):
        _, out = encoded
        bare = str(tmp_path / "bare")
        shutil.copytree(out, bare)
        os.remove(os.path.join(bare, mf.MANIFEST_JSONL))
        assert decode.read_encoded_range(bare, "n_tok", 0, 10**9).count() == 2000


class TestExport:
    def test_export_roundtrip(self, encoded, tmp_path):
        paths, out = encoded
        dest = str(tmp_path / "plain")
        n = decode.export_job(out, dest)
        meta = mf.load_metadata(out)
        assert n == meta["num_rows"]  # ROW count on both branches
        got = pq.read_table(dest).sort_by("doc_id")
        want = pq.read_table(paths).sort_by("doc_id")
        assert got.equals(want)

    def test_export_resume_skips_existing(self, encoded, tmp_path):
        _, out = encoded
        dest = str(tmp_path / "plain2")
        decode.export_job(out, dest)
        stamps = {f: os.path.getmtime(os.path.join(dest, f)) for f in os.listdir(dest)}
        decode.export_job(out, dest)  # second run must not rewrite
        for f, ts in stamps.items():
            assert os.path.getmtime(os.path.join(dest, f)) == ts


    def test_export_positions_pin_global_order(self, encoded, tmp_path):
        """export_positions: position k holds the rank-k key — and a
        deliberately mis-ordered file breaks the pin (tamper check)."""
        import pandas as pd

        paths, out = encoded
        dest = str(tmp_path / "ordered")
        decode.export_job(out, dest, columns=["doc_id", "n_tok"], order_by="doc_id")
        got = (
            decode.export_positions(dest, "doc_id", columns=["doc_id", "n_tok"])
            .to_pandas()
            .sort_values("pos")
            .reset_index(drop=True)
        )
        raw = pd.concat([pq.read_table(p_, columns=["doc_id", "n_tok"]).to_pandas() for p_ in paths])
        want = raw.sort_values("doc_id").reset_index(drop=True)
        assert got["pos"].tolist() == list(range(len(want)))
        assert got["doc_id"].tolist() == want["doc_id"].tolist()
        assert got["n_tok"].tolist() == want["n_tok"].tolist()
        # tamper: reverse one file's rows -> the position pin must break
        files = sorted(
            os.path.join(dest, f) for f in os.listdir(dest) if f.endswith(".parquet")
        )
        assert len(files) > 1, "fixture must export multiple files"
        vic = files[len(files) // 2]
        t = pq.read_table(vic)
        pq.write_table(t.take(list(reversed(range(t.num_rows)))), vic)
        bad = (
            decode.export_positions(dest, "doc_id", columns=["doc_id"])
            .to_pandas()
            .sort_values("pos")
            .reset_index(drop=True)
        )
        assert bad["doc_id"].tolist() != want["doc_id"].tolist()


class TestAutoPartBytes:
    def test_clamped_and_deterministic(self, encoded):
        paths, _ = encoded
        a = encode.auto_target_part_bytes(paths, cluster_cpus=4)
        b = encode.auto_target_part_bytes(paths, cluster_cpus=4)
        assert a == b
        assert encode.MIN_PART_BYTES <= a <= encode.MAX_PART_BYTES

    def test_scales_inverse_with_cpus(self, encoded):
        paths, _ = encoded
        # tiny corpus clamps to the minimum either way; the invariant that
        # matters is monotonic non-increase with more cpus
        small = encode.auto_target_part_bytes(paths, cluster_cpus=1)
        big = encode.auto_target_part_bytes(paths, cluster_cpus=64)
        assert big <= small


class TestSampledStats:
    def test_top_values_and_quantiles(self, encoded):
        _, out = encoded
        e = next(iter(mf.load_entries(out).values()))
        s = e["stats"]["tokens"]
        assert 1 <= len(s["top_values"]) <= 10
        assert len(s["quantiles"]) == 9
        assert all(s["min"] <= q <= s["max"] for q in s["quantiles"])
        # top values ordered by frequency desc then value asc
        freqs = [c for _, c in s["top_values"]]
        assert freqs == sorted(freqs, reverse=True)


class TestOrderedExport:
    def test_export_order_by_arbitrary_column(self, encoded, tmp_path):
        # the reference's ORDER BY-before-COPY contract generalized to any
        # key: concatenating output files in name order must yield a
        # globally sorted column, with the same multiset of rows
        import glob

        import numpy as np
        import pyarrow as pa

        paths, out = encoded
        dest = str(tmp_path / "sorted_export")
        n = decode.export_job(out, dest, order_by="n_tok")
        files = sorted(glob.glob(os.path.join(dest, "*.parquet")))
        assert files
        parts = [pq.read_table(f) for f in files]
        got = pa.concat_tables(parts)
        assert got.num_rows == n == 2000
        col = got.column("n_tok").to_numpy(zero_copy_only=False)
        assert (np.diff(col) >= 0).all()  # globally sorted
        want = pa.concat_tables([pq.read_table(p) for p in paths])
        assert sorted(got.column("doc_id").to_pylist()) == sorted(
            want.column("doc_id").to_pylist()
        )

    def test_cli_export_order_by(self, encoded, tmp_path, capsys):
        import glob
        import json

        import numpy as np
        import pyarrow as pa

        from duckdb_raquet_ray import cli

        paths, out = encoded
        dest = str(tmp_path / "cli_sorted")
        cli.main(["export", "--out", out, "--dest", dest, "--order-by", "n_tok"])
        line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert line["order_by"] == "n_tok" and line["rows"] == 2000
        got = pa.concat_tables(
            [pq.read_table(f) for f in sorted(glob.glob(os.path.join(dest, "*.parquet")))]
        )
        col = got.column("n_tok").to_numpy(zero_copy_only=False)
        assert (np.diff(col) >= 0).all()
