"""Salted groupby-on-source encode: skew regression (FIXTURES.md F4) +
bit-identity + determinism of salted bucketing."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from duckdb_raquet_ray.functions import partition_keys as pk
from duckdb_raquet_ray.pipelines import decode as dec
from duckdb_raquet_ray.pipelines import encode as enc_mod
from duckdb_raquet_ray.pipelines import encode_grouped as eg
from duckdb_raquet_ray.sources import tokens as tk
from duckdb_raquet_ray.state import manifest as mf


@pytest.fixture(scope="module")
def skew_corpus(tmp_path_factory):
    """F4: 90% of rows on the head source key."""
    d = tmp_path_factory.mktemp("skew")
    tk.write_corpus(str(d), 20_000, 4, skew_head=0.9, row_group_rows=2048)
    return str(d)


@pytest.fixture(scope="module")
def grouped_out(ray_session, skew_corpus, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("grouped"))
    meta = eg.encode_job_grouped(
        tk.corpus_paths(skew_corpus), out, target_group_rows=2000
    )
    return out, meta


class TestGroupedEncode:
    def test_grouped_ratio_parity_on_source_coherent_corpus(
        self, ray_session, tmp_path
    ):
        """Characterization: on source-coherent data (the regime the
        source shuffle was designed for) the round-2 codec — per-row FOR
        plus the partition-global dictionary bucket — extracts the shared
        per-shard alphabet WITHOUT any shuffle, so lineage mode reaches
        ratio parity (measured: lineage 3.790 vs grouped 3.734 at 24k
        rows). Grouped mode's remaining value is the source-partitioned
        LAYOUT (test_source_pruned_read) and skew-safe wide-op machinery,
        not compression; this test pins the parity band so a codec
        regression that re-opens a large gap is caught."""
        paths = tk.write_corpus(
            str(tmp_path / "f5"), 24000, 4, source_coherent=True, row_group_rows=2048
        )
        out_l = str(tmp_path / "enc_l")
        out_g = str(tmp_path / "enc_g")
        ml = enc_mod.encode_job(paths, out_l, target_part_bytes=8 << 20)
        mg = eg.encode_job_grouped(paths, out_g, target_group_rows=12000)
        rl = ml["input_bytes"] / ml["encoded_bytes"]
        rg = mg["input_bytes"] / mg["encoded_bytes"]
        assert mg["num_rows"] == ml["num_rows"] == 24000
        assert rg > rl * 0.95, (rl, rg)  # grouped never collapses
        assert rl > rg * 0.95, (rl, rg)  # and lineage stays at parity too

    def test_source_pruned_read(self, ray_session, grouped_out, skew_corpus):
        """read_encoded_source opens ONLY the source's partitions and
        returns exactly its rows — the grouped layout's read-side payoff."""
        out, meta = grouped_out
        got = dec.read_encoded_source(out, tk.SOURCES[0]).to_pandas()
        original = pa.concat_tables(
            [pq.read_table(p) for p in tk.corpus_paths(skew_corpus)]
        ).to_pandas()
        want = original[original.source == tk.SOURCES[0]]
        assert sorted(got.doc_id) == sorted(want.doc_id)
        # pruning was real: fewer partitions opened than exist
        n_src = len(
            [e for e in mf.load_entries(out).values() if e["group"]["source"] == tk.SOURCES[0]]
        )
        assert n_src < meta["num_partitions"]

    def test_skew_broken(self, grouped_out):
        """No encoder partition > 2x the median partition size."""
        out, meta = grouped_out
        entries = mf.load_entries(out)
        sizes = sorted(e["n_rows"] for e in entries.values())
        median = sizes[len(sizes) // 2]
        assert sizes[-1] <= 2 * max(median, 2000)
        # the head key actually fanned out
        head_parts = [
            e for e in entries.values() if e["group"]["source"] == tk.SOURCES[0]
        ]
        assert len(head_parts) >= 5

    def test_rows_complete_and_bit_identical(self, grouped_out, skew_corpus):
        out, meta = grouped_out
        assert meta["num_rows"] == 20_000
        decoded = pa.Table.from_pylist(dec.read_encoded(out).take_all())
        original = pa.concat_tables(
            [pq.read_table(p) for p in tk.corpus_paths(skew_corpus)]
        )
        got = decoded.sort_by("doc_id")
        exp = original.sort_by("doc_id").select(got.column_names)
        for name in exp.column_names:
            a = got.column(name).combine_chunks().cast(exp.column(name).type)
            assert a.equals(exp.column(name).combine_chunks()), name

    def test_partition_ids_grouped_mode(self, grouped_out):
        out, meta = grouped_out
        assert all(pk.is_grouped(p) for p in meta["partition_ids"])

    def test_salt_map_deterministic(self, ray_session, skew_corpus):
        import ray.data as rd

        ds = rd.read_parquet(tk.corpus_paths(skew_corpus))
        m1 = eg.compute_salt_map(ds, 2000)
        m2 = eg.compute_salt_map(ds, 2000)
        assert m1 == m2
        assert m1[tk.SOURCES[0]] >= 8  # head key fans out

    def test_grouped_resume_skips(self, ray_session, skew_corpus, grouped_out, tmp_path):
        """Re-running over a completed output is a no-op for entries."""
        out, meta = grouped_out
        import os

        mtimes = {
            p: os.path.getmtime(os.path.join(out, pk.part_file_name(p)))
            for p in meta["partition_ids"]
        }
        meta2 = eg.encode_job_grouped(
            tk.corpus_paths(skew_corpus), out, target_group_rows=2000
        )
        assert meta2["partition_ids"] == meta["partition_ids"]
        for p, mt in mtimes.items():
            assert os.path.getmtime(os.path.join(out, pk.part_file_name(p))) == mt

    def test_grouped_resume_plan_mismatch_raises(self, ray_session, skew_corpus, grouped_out):
        out, _ = grouped_out
        import pytest

        with pytest.raises(ValueError, match="resume plan mismatch"):
            eg.encode_job_grouped(tk.corpus_paths(skew_corpus), out, target_group_rows=999)
        # no explicit target -> persisted plan (incl. salt map) reused
        from duckdb_raquet_ray.state import manifest as mf

        cfg = mf.load_job_config(out)
        assert cfg["mode"] == "grouped" and cfg["target_group_rows"] == 2000
        assert cfg["salt_map"]

    def test_done_group_rows_dropped_before_shuffle(self, tmp_path):
        """Resume pre-filter: write_pieces keys every row by its grouped
        partition id and drops the rows of finished (source, salt) groups
        before they reach a piece file."""
        import numpy as np

        sources = ["web", "code", None, "web"] * 50
        batch = pa.table({"doc_id": [f"d{i}" for i in range(200)], "source": sources})
        salt_map = {"web": 3, "code": 1, eg.NULL_SOURCE_KEY: 2}
        pid = eg._pids(batch, salt_map)
        for s, p in zip(sources, pid.tolist()):
            s = eg.NULL_SOURCE_KEY if s is None else s
            assert p in {pk.pack_grouped(s, k) for k in range(salt_map[s])}
        done = np.array([pk.pack_grouped("web", 1), pk.pack_grouped("code", 0)], np.uint64)
        pieces = eg.write_pieces(batch, salt_map, done, 4, str(tmp_path))
        kept = pa.concat_tables([pq.read_table(p) for p in pieces.column("path").to_pylist()])
        live = ~np.isin(pid, done)
        assert 0 < live.sum() < 150  # all of code and part of web dropped
        assert sorted(kept.column("doc_id").to_pylist()) == sorted(
            np.array(batch.column("doc_id").to_pylist())[live].tolist())
        assert sorted(kept.column("_pid").to_pylist()) == sorted(pid[live].tolist())
