"""The persisted hive-bucketed indexes (IVF, IVF-PQ, BM25 postings,
positional postings, content hashes, MinHash band cells) share one
on-disk discipline: a rebuild into the same dir replaces the prior
build, an append killed at ANY durable step converges on retry to the
uninterrupted result, and a dir whose build never finished is refused
(or, through the CLI, rebuilt) rather than probed."""

from __future__ import annotations

import glob
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from duckdb_raquet_ray.pipelines import ann, dedup, retrieval
from duckdb_raquet_ray.state import fsio


class _Killed(Exception):
    pass


class _Crash:
    """Raise _Killed at the k-th durable step a job takes inside `root` —
    a bucket write (Dataset.write_parquet), a publish
    (fsio.publish_bytes) or a rename (os.replace) — either before the
    step runs or after it completed; "torn" is a write whose files were
    then half removed and one truncated (what a kill during the write
    leaves on disk). With k=None it only records the steps' kinds."""

    def __init__(self, monkeypatch, root: str, k: int | None = None, mode: str = "before"):
        self.root, self.k, self.mode = root, k, mode
        self.kinds: list[str] = []
        orig_write = rd.Dataset.write_parquet
        orig_publish = fsio.publish_bytes
        orig_replace = os.replace
        crash = self

        def write(ds, path, *a, **kw):
            return crash._step("write", path, lambda: orig_write(ds, path, *a, **kw))

        def publish(data, path, *a, **kw):
            return crash._step("publish", path, lambda: orig_publish(data, path, *a, **kw))

        def replace(src, dst, *a, **kw):
            return crash._step("replace", dst, lambda: orig_replace(src, dst, *a, **kw))

        monkeypatch.setattr(rd.Dataset, "write_parquet", write)
        monkeypatch.setattr(fsio, "publish_bytes", publish)
        monkeypatch.setattr(os, "replace", replace)

    def _step(self, kind, path, run):
        if not str(path).startswith(self.root):
            return run()
        self.kinds.append(kind)
        if len(self.kinds) != self.k:
            return run()
        if self.mode == "before":
            raise _Killed
        before = set(glob.glob(os.path.join(path, "**", "*.parquet"), recursive=True))
        run()
        if self.mode == "torn":
            new = sorted(
                set(glob.glob(os.path.join(path, "**", "*.parquet"), recursive=True)) - before
            )
            for f in new[1::2]:
                os.remove(f)
            with open(new[0], "wb") as fh:
                fh.write(b"torn")
        raise _Killed


def _kill_every_step(monkeypatch, tmp_path, base: str, run, check) -> int:
    """Run `run(dir)` on copies of the built index `base` once without a
    fault, then killed at each of its durable steps (before / after /
    torn) followed by a plain retry; `check(dir)` must hold after every
    one. Returns the number of fault cases."""
    d = str(tmp_path / "clean")
    shutil.copytree(base, d)
    steps = _Crash(monkeypatch, d)
    run(d)
    monkeypatch.undo()
    check(d)
    cases = [
        (k, mode)
        for k, kind in enumerate(steps.kinds, 1)
        for mode in (("before", "torn", "after") if kind == "write" else ("before", "after"))
    ]
    for i, (k, mode) in enumerate(cases):
        d = str(tmp_path / f"kill{i}")
        shutil.copytree(base, d)
        _Crash(monkeypatch, d, k, mode)
        with pytest.raises(_Killed):
            run(d)
        monkeypatch.undo()
        run(d)  # the retry
        check(d)
    return len(cases)


# --- fixtures ---------------------------------------------------------------


def _vecs(ids, seed: int, dim: int = 8) -> pa.Table:
    rng = np.random.default_rng(seed)
    return pa.table(
        {
            "vec_id": pa.array(np.asarray(ids, np.int64)),
            "embedding": pa.array(
                list(rng.normal(size=(len(ids), dim)).astype(np.float32)),
                pa.list_(pa.float32()),
            ),
        }
    )


def _texts(n: int, seed: int) -> pa.Table:
    rng = np.random.default_rng(seed)
    vocab = ["alpha", "beta", "gamma", "delta", "rare", "mixed", "zz"]
    return pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "text": pa.array(
                [" ".join(rng.choice(vocab, size=rng.integers(0, 30))) for _ in range(n)],
                pa.string(),
            ),
        }
    )


def _docs(rows) -> pa.Table:
    return pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string()),
        }
    )


VEC_OLD, VEC_NEW = _vecs(range(80), seed=1), _vecs(range(80, 120), seed=2)
TEXTS = _texts(160, seed=7)
BM25_TERMS = ["rare", "beta"]
_PARITY = pa.compute.bit_wise_and(TEXTS["doc_id"], 1)
TEXT_EVEN = TEXTS.filter(pa.compute.equal(_PARITY, 0))
TEXT_ODD = TEXTS.filter(pa.compute.equal(_PARITY, 1))
MH_OLD = _docs([
    (0, "the quick brown fox jumps over the lazy dog again and again"),
    (1, "pack my box with five dozen liquor jugs for the long trip"),
    (2, "how vexingly quick daft zebras jump over the fence at dawn"),
])
MH_NEW = _docs([
    (10, "the quick brown fox jumps over the lazy dog again and again x"),
    (11, "a completely different document about distributed data engines"),
    (12, "a completely different document about distributed data engines y"),
    (13, "yet another unique text with no overlap whatsoever in grams"),
])
MH_LATER = _docs([
    (20, "a completely different document about distributed data engines z"),
    (21, "yet another unique text with no overlap whatsoever in grams q"),
    (22, "pack my box with five dozen liquor jugs for the long trip w"),
    (23, "something nobody has written before in this little corpus"),
])


def _keys(t: pa.Table, col: str = "doc_id") -> list:
    return t.column(col).to_pylist()


def _table(ds: rd.Dataset) -> pa.Table:
    return pa.Table.from_pylist(ds.take_all())


def _killed_after_write(monkeypatch, d: str, build) -> None:
    """Run `build(d)` and kill it right after its bucket write: buckets on
    disk, no marker."""
    steps = _Crash(monkeypatch, d + "-dry")
    build(d + "-dry")
    monkeypatch.undo()
    _Crash(monkeypatch, d, steps.kinds.index("write") + 1, "after")
    with pytest.raises(_Killed):
        build(d)
    monkeypatch.undo()


def _built(factory, name: str, build) -> str:
    d = str(factory.mktemp(name) / "idx")
    build(d)
    return d


# --- kill at every durable append step, then retry --------------------------


@pytest.mark.usefixtures("ray_session")
class TestKillThenRetry:
    def test_ivf_append(self, monkeypatch, tmp_path, tmp_path_factory):
        base = _built(
            tmp_path_factory, "ivf",
            lambda d: ann.build_ivf_index(rd.from_arrow(VEC_OLD), d, n_centroids=4),
        )
        both = pa.concat_tables([VEC_OLD, VEC_NEW])
        q = np.asarray(VEC_NEW["embedding"][0].as_py(), np.float64)
        want = _keys(ann.brute_force_topk(rd.from_arrow(both), q, both.num_rows), "vec_id")

        def check(d):
            got = ann.ivf_topk_indexed(d, q, k=both.num_rows + 5, n_probe=4)
            assert _keys(got, "vec_id") == want  # every vector exactly once, exact order

        n = _kill_every_step(
            monkeypatch, tmp_path, base,
            lambda d: ann.append_ivf_index(rd.from_arrow(VEC_NEW), d, append_id="day-1"),
            check,
        )
        assert n >= 5

    def test_bm25_append(self, monkeypatch, tmp_path, tmp_path_factory):
        base = _built(
            tmp_path_factory, "bm25",
            lambda d: retrieval.build_text_index(rd.from_arrow(TEXT_EVEN), d),
        )
        full = _built(
            tmp_path_factory, "bm25full",
            lambda d: retrieval.build_text_index(rd.from_arrow(TEXTS), d),
        )
        want = retrieval.bm25_topk_indexed(full, BM25_TERMS, top=30).to_pylist()
        assert want == retrieval.bm25_topk(rd.from_arrow(TEXTS), BM25_TERMS, top=30).to_pylist()

        def check(d):
            assert retrieval.bm25_topk_indexed(d, BM25_TERMS, top=30).to_pylist() == want

        n = _kill_every_step(
            monkeypatch, tmp_path, base,
            lambda d: retrieval.append_text_index(rd.from_arrow(TEXT_ODD), d),
            check,
        )
        assert n >= 5

    def test_minhash_update_index(self, monkeypatch, tmp_path, tmp_path_factory):
        base = _built(
            tmp_path_factory, "mh",
            lambda d: dedup.build_minhash_index(rd.from_arrow(MH_OLD), d),
        )
        kept = _table(dedup.incremental_minhash_dedup(rd.from_arrow(MH_NEW), base))
        assert sorted(_keys(kept)) == [11, 13]
        one_shot = _built(
            tmp_path_factory, "mhfull",
            lambda d: dedup.build_minhash_index(
                rd.from_arrow(pa.concat_tables([MH_OLD, kept.select(["doc_id", "text"])])), d
            ),
        )
        want = sorted(_keys(_table(dedup.incremental_minhash_dedup(rd.from_arrow(MH_LATER), one_shot))))
        assert want == [23]

        def check(d):
            got = _table(dedup.incremental_minhash_dedup(rd.from_arrow(MH_LATER), d))
            assert sorted(_keys(got)) == want

        n = _kill_every_step(
            monkeypatch, tmp_path, base,
            lambda d: dedup.incremental_minhash_dedup(
                rd.from_arrow(MH_NEW), d, update_index=True
            ).materialize(),
            check,
        )
        assert n >= 5


# --- rebuild into the same dir ----------------------------------------------


@pytest.mark.usefixtures("ray_session")
class TestRebuildTwice:
    def test_ivf(self, tmp_path):
        d = str(tmp_path / "ivf")
        for _ in range(2):
            ann.build_ivf_index(rd.from_arrow(VEC_OLD), d, n_centroids=4)
        q = np.asarray(VEC_OLD["embedding"][3].as_py(), np.float64)
        got = ann.ivf_topk_indexed(d, q, k=100, n_probe=4)
        want = ann.brute_force_topk(rd.from_arrow(VEC_OLD), q, 100)
        assert _keys(got, "vec_id") == _keys(want, "vec_id")

    def test_ivfpq(self, tmp_path):
        d = str(tmp_path / "ivfpq")
        cb = ann.train_pq(rd.from_arrow(VEC_OLD), m=4, ksub=8)
        for _ in range(2):
            ann.build_ivfpq_index(rd.from_arrow(VEC_OLD), d, n_centroids=4, codebook=cb)
        q = np.ones(8)
        got = ann.ivfpq_topk(d, q, k=100, n_probe=4)
        want = ann.pq_topk(rd.from_arrow(VEC_OLD), cb, q, k=100)
        assert got.to_pylist() == want.to_pylist()

    def test_bm25(self, tmp_path):
        d = str(tmp_path / "bm25")
        for _ in range(2):
            meta = retrieval.build_text_index(rd.from_arrow(TEXTS), d)
        assert meta["n_docs"] == TEXTS.num_rows
        got = retrieval.bm25_topk_indexed(d, BM25_TERMS, top=30)
        want = retrieval.bm25_topk(rd.from_arrow(TEXTS), BM25_TERMS, top=30)
        assert got.num_rows > 0
        assert got.to_pylist() == want.to_pylist()

    def test_positional(self, tmp_path):
        d = str(tmp_path / "pos")
        rows = [retrieval.build_positional_index(rd.from_arrow(TEXTS), d) for _ in range(2)]
        assert rows[0] == rows[1]
        phrase = ["rare", "beta"]
        direct = {
            r["doc_id"]: r["n_phrase"]
            for r in retrieval.phrase_count(rd.from_arrow(TEXTS), phrase).take_all()
            if r["n_phrase"]
        }
        got = retrieval.phrase_search_indexed(d, phrase)
        assert direct and dict(zip(_keys(got), got["n_phrase"].to_pylist())) == direct

    def test_content_hash(self, tmp_path):
        d = str(tmp_path / "content")
        counts = [dedup.build_content_index(rd.from_arrow(MH_OLD), d) for _ in range(2)]
        assert counts == [3, 3]
        files = glob.glob(os.path.join(d, "hb=*", "*.parquet"))
        assert sum(pq.ParquetFile(f).metadata.num_rows for f in files) == 3
        fresh = _docs([(5, MH_OLD["text"][1].as_py()), (6, "brand new text")])
        assert _keys(_table(dedup.incremental_exact_dedup(rd.from_arrow(fresh), d))) == [6]

    def test_minhash(self, tmp_path):
        d = str(tmp_path / "mh")
        counts = [dedup.build_minhash_index(rd.from_arrow(MH_OLD), d) for _ in range(2)]
        assert counts == [3, 3]
        files = glob.glob(os.path.join(d, "hb=*", "*.parquet"))
        assert sum(pq.ParquetFile(f).metadata.num_rows for f in files) == 3 * 16
        got = _table(dedup.incremental_minhash_dedup(rd.from_arrow(MH_NEW), d))
        assert sorted(_keys(got)) == [11, 13]


# --- marker gate --------------------------------------------------------------


@pytest.mark.usefixtures("ray_session")
class TestMarkerGate:
    def test_killed_build_is_refused(self, monkeypatch, tmp_path):
        from duckdb_raquet_ray.state import bucket_index

        d = str(tmp_path / "ivf")
        _killed_after_write(
            monkeypatch, d, lambda x: ann.build_ivf_index(rd.from_arrow(VEC_OLD), x, n_centroids=4)
        )
        assert glob.glob(os.path.join(d, "ivf_bucket=*", "*.parquet"))
        for probe in (bucket_index.meta, lambda x: bucket_index.bucket_files(x, [0])):
            with pytest.raises(ValueError, match="not a built index"):
                probe(d)
        with pytest.raises(ValueError, match="not a built index"):
            ann.ivf_topk_indexed(d, np.ones(8), k=3)

    def test_append_invisible_until_its_marker(self, monkeypatch, tmp_path):
        from duckdb_raquet_ray.state import bucket_index

        d = str(tmp_path / "ivf")
        ann.build_ivf_index(rd.from_arrow(VEC_OLD), d, n_centroids=4)
        listed = bucket_index.bucket_files(d, range(4))
        _Crash(monkeypatch, d, k=2, mode="before")  # append written, marker not published
        with pytest.raises(_Killed):
            ann.append_ivf_index(rd.from_arrow(VEC_NEW), d, append_id="x")
        monkeypatch.undo()
        assert glob.glob(os.path.join(d, "ivf_bucket=*", "append-x-*.parquet"))
        assert bucket_index.bucket_files(d, range(4)) == listed
        assert bucket_index.meta(d)["appends"] == {}
        assert ann.append_ivf_index(rd.from_arrow(VEC_NEW), d, append_id="x") == 40
        assert bucket_index.meta(d)["appends"]["x"]["rows"] == 40

    def test_append_ids_name_files_unambiguously(self, tmp_path):
        d = str(tmp_path / "ivf")
        ann.build_ivf_index(rd.from_arrow(VEC_OLD), d, n_centroids=4)
        with pytest.raises(ValueError, match="append id"):
            ann.append_ivf_index(rd.from_arrow(VEC_NEW), d, append_id="2026.10.17")
        # "a" is a prefix of "a-b": neither append may claim the other's files
        assert ann.append_ivf_index(rd.from_arrow(VEC_NEW), d, append_id="a-b") == 40
        assert ann.append_ivf_index(rd.from_arrow(VEC_NEW.slice(0, 10)), d, append_id="a") == 10
        got = ann.ivf_topk_indexed(d, np.ones(8), k=500, n_probe=4)
        assert got.num_rows == 80 + 40 + 10

    def test_cli_rebuilds_a_killed_first_build(self, monkeypatch, tmp_path):
        from duckdb_raquet_ray import cli

        src = tmp_path / "docs.parquet"
        pq.write_table(MH_NEW, src)  # 12 is a near-dup of 11
        idx = tmp_path / "idx"
        # a first build killed before its marker: a probe of its buckets
        # would drop 10 as a near-dup of 0
        _killed_after_write(
            monkeypatch, str(idx),
            lambda x: dedup.build_minhash_index(rd.from_arrow(MH_OLD), x, bands=8),
        )
        dest = tmp_path / "out"
        cli.main(["dedup", "--input", str(src), "--dest", str(dest),
                  "--method", "minhash", "--index", str(idx)])
        # a first (re)build indexes the input and drops nothing
        assert sorted(pq.read_table(str(dest)).column("doc_id").to_pylist()) == [10, 11, 12, 13]
        later = _table(
            dedup.incremental_minhash_dedup(rd.from_arrow(MH_LATER), str(idx), bands=8)
        )
        assert sorted(_keys(later)) == [22, 23]

    def test_build_refuses_unvouched_buckets_and_spares_foreign_files(self, tmp_path):
        from duckdb_raquet_ray import cli
        from duckdb_raquet_ray.state import bucket_index

        # an index written before markers existed: buckets, no marker
        idx = tmp_path / "old"
        dedup.build_minhash_index(rd.from_arrow(MH_OLD), str(idx), bands=8)
        os.remove(idx / bucket_index.MARKER)
        before = sorted(glob.glob(str(idx / "hb=*" / "*.parquet")))
        src = tmp_path / "docs.parquet"
        pq.write_table(MH_NEW, src)
        with pytest.raises(ValueError, match="no _INDEX.json"):
            cli.main(["dedup", "--input", str(src), "--dest", str(tmp_path / "out"),
                      "--method", "minhash", "--index", str(idx)])
        assert sorted(glob.glob(str(idx / "hb=*" / "*.parquet"))) == before

        # a dir that is not an index: its files survive builds into it
        data = tmp_path / "data"
        os.makedirs(data / "sub")
        pq.write_table(MH_OLD, data / "docs.parquet")
        (data / "sub" / "notes.txt").write_text("keep")
        for _ in range(2):
            assert dedup.build_content_index(rd.from_arrow(MH_OLD), str(data)) == 3
        assert pq.read_table(data / "docs.parquet").equals(MH_OLD)
        assert (data / "sub" / "notes.txt").read_text() == "keep"


@pytest.mark.usefixtures("ray_session")
def test_update_index_appends_a_batch_that_repeats_earlier_keys(tmp_path):
    """Append ids digest the appended rows, not their keys alone: a day
    whose kept docs reuse an earlier day's keys (per-file ids 0..N-1)
    still lands in the index."""
    d = str(tmp_path / "mh")
    dedup.build_minhash_index(rd.from_arrow(MH_OLD), d)
    day1 = _docs([(0, MH_NEW["text"][1].as_py()), (1, MH_NEW["text"][3].as_py())])
    day2 = _docs([(0, MH_LATER["text"][3].as_py()), (1, "a text that shares nothing at all")])
    for day in (day1, day2):
        kept = _table(dedup.incremental_minhash_dedup(rd.from_arrow(day), d, update_index=True))
        assert sorted(_keys(kept)) == [0, 1]
    near_dup = _docs([(7, MH_LATER["text"][3].as_py() + " v")])
    assert dedup.incremental_minhash_dedup(rd.from_arrow(near_dup), d).count() == 0
