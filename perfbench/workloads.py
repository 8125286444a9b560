"""Inputs, reference answers and the four workloads.

Every workload reads the same seeded corpus: the default mixed-token
table of ``sources.tokens`` (F1), written as ``SHARDS`` Parquet shards
with small row groups. The corpus is cached under the run's cache dir by
its parameters; generating it is never timed. The whole corpus, sorted
by ``doc_id``, is also the reference every correctness check compares
against, so each check is exact: decoded tables must equal it bit for
bit, and counts and token sums must match it to the unit.
"""

from __future__ import annotations

import glob
import hashlib
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from duckdb_raquet_ray.pipelines import decode, encode, encode_grouped, transforms
from duckdb_raquet_ray.sources import tokens
from duckdb_raquet_ray.stages import encoder as enc
from duckdb_raquet_ray.state import manifest as mf

SHARDS = 2
ROW_GROUP_ROWS = 1024
# encode_fresh writes large partitions (the library's default size): one
# per shard. The small-partition dir of scan_decode and lifecycle_rewrite
# is encoded at MIN_PART_BYTES, several part files per shard.
ENCODE_TARGET_BYTES = encode.DEFAULT_PART_BYTES
COMPACT_TARGET_BYTES = 32 << 20
DELETE_FRACTION = 0.01
CORPORA_KEPT = 6  # cached corpora beyond this many are evicted, oldest first


class CheckFailed(Exception):
    """An output of the program differs from the reference."""


class Corpus:
    """Seeded input shards plus the exact answers every check uses."""

    def __init__(self, cache_dir: str, rows: int, seed: int):
        self.rows = rows
        self.seed = seed
        root = os.path.join(cache_dir, "corpus")
        self.dir = os.path.join(root, f"r{rows}-s{SHARDS}-g{ROW_GROUP_ROWS}-seed{seed}")
        self.paths = self.materialize()
        _evict(root, keep=self.dir)
        table = pa.concat_tables([pq.read_table(p) for p in self.paths])
        self.table = table.sort_by("doc_id").combine_chunks()
        self.stats = _token_stats_reference(self.table)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDE1]))
        n_del = max(1, int(rows * DELETE_FRACTION))
        ids = self.table.column("doc_id").to_numpy(zero_copy_only=False)
        self.delete_keys = sorted(rng.choice(ids, size=n_del, replace=False).tolist())
        keep = pc.invert(pc.is_in(self.table.column("doc_id"), pa.array(self.delete_keys)))
        self.table_after_delete = self.table.filter(keep)

    def materialize(self) -> list[str]:
        """Write the shards, or find them in the cache (``write_corpus`` keeps
        complete shards whose parameter fingerprint matches)."""
        return tokens.write_corpus(
            self.dir, self.rows, SHARDS, seed=self.seed, row_group_rows=ROW_GROUP_ROWS
        )


def _evict(root: str, keep: str) -> None:
    dirs = sorted(
        (d for d in glob.glob(os.path.join(root, "*")) if d != keep),
        key=os.path.getmtime,
    )
    for d in dirs[: max(0, len(dirs) - (CORPORA_KEPT - 1))]:
        shutil.rmtree(d, ignore_errors=True)
    os.utime(keep)


def _token_stats_reference(table: pa.Table) -> pa.Table:
    """Per-row token count/min/max/sum computed with numpy straight from
    the input lists, independently of the library's stats code."""
    col = table.column("tokens").combine_chunks()
    offsets = col.offsets.to_numpy().astype(np.int64)
    values = col.flatten().to_numpy().astype(np.int64)
    starts = offsets[:-1]
    counts = np.diff(offsets)
    if (counts == 0).any():
        raise CheckFailed("reference corpus has an empty token list")
    return pa.table({
        "doc_id": table.column("doc_id"),
        "n_tok": table.column("n_tok"),
        "source": table.column("source"),
        "tok_count": pa.array(counts),
        "tok_min": pa.array(np.minimum.reduceat(values, starts)),
        "tok_max": pa.array(np.maximum.reduceat(values, starts)),
        "tok_sum": pa.array(np.add.reduceat(values, starts)),
    })


# -- checks -----------------------------------------------------------------


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def decode_dir(out_dir: str) -> pa.Table:
    """Decode every part file of an encoded dir in this process."""
    parts = [
        enc.decode_rows(pq.read_table(p)) for p in decode.encoded_part_files(out_dir)
    ]
    return pa.concat_tables(parts).sort_by("doc_id").combine_chunks()


def check_dir(out_dir: str, expected: pa.Table) -> None:
    """Manifest row count and a bit-exact decode of the whole dir."""
    meta = mf.load_metadata(out_dir)
    _require(meta["num_rows"] == expected.num_rows,
             f"{out_dir}: manifest has {meta['num_rows']} rows, expected {expected.num_rows}")
    got = decode_dir(out_dir)
    _require(got.num_rows == expected.num_rows,
             f"{out_dir}: decoded {got.num_rows} rows, expected {expected.num_rows}")
    _require(got.equals(expected), f"{out_dir}: decoded rows differ from the input")


def part_digests(out_dir: str) -> dict[str, str]:
    """sha256 of every part file, by file name."""
    out = {}
    for path in decode.encoded_part_files(out_dir):
        with open(path, "rb") as f:
            out[os.path.basename(path)] = hashlib.file_digest(f, "sha256").hexdigest()
    return out


def check_columns(got: pa.Table, expected: pa.Table, what: str) -> None:
    _require(got.num_rows == expected.num_rows,
             f"{what}: {got.num_rows} rows, expected {expected.num_rows}")
    for name in expected.column_names:
        _require(got.column(name).equals(expected.column(name)),
                 f"{what}: column {name} differs from the reference")


def _collect(ds) -> pa.Table:
    return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow", batch_size=None)))


def dir_stats(out_dir: str) -> dict:
    """Manifest compression ratio (never recomputed here), on-disk bytes
    of the whole dir per decoded input byte, and its part-file count."""
    meta = mf.load_metadata(out_dir)
    disk = sum(
        os.path.getsize(os.path.join(d, f))
        for d, _, files in os.walk(out_dir) for f in files
    )
    return {
        "compression_ratio": meta["input_bytes"] / meta["encoded_bytes"],
        "stored_bytes_per_byte": disk / meta["input_bytes"],
        "part_files": len(decode.encoded_part_files(out_dir)),
    }


# -- workloads ----------------------------------------------------------------


class Workload:
    """One named workload. ``prepare`` is one repetition of the set-up that
    ``setup_s`` times, and ``check_prepared`` checks its result; the run
    passes both to ``bench.op``. ``iteration`` runs the timed operations
    once through ``bench.op`` (which times, watches and checks each one);
    ``finish`` runs checks that wait until the timed iterations are over;
    ``output_dir`` names the dir whose manifest and disk use the run
    reports."""

    name = ""

    def __init__(self, corpus: Corpus, work_dir: str):
        self.corpus = corpus
        self.work = work_dir
        self.n = 0
        self.digests: dict[str, dict[str, str]] = {}

    def fresh(self, tag: str) -> str:
        """A new empty output dir for ``tag``; older ones are removed."""
        for d in glob.glob(os.path.join(self.work, f"{tag}-*")):
            shutil.rmtree(d, ignore_errors=True)
        self.n += 1
        return os.path.join(self.work, f"{tag}-{self.n}")

    def check_output(self, tag: str, out_dir: str, rows: int, full_check=None) -> None:
        """Every output of ``tag`` must have ``rows`` rows in its manifest.
        The encoder is deterministic, so every output must also be
        byte-identical, part file by part file, to the first one, which
        gets ``full_check``."""
        meta = mf.load_metadata(out_dir)
        _require(meta["num_rows"] == rows,
                 f"{tag}: manifest has {meta['num_rows']} rows, expected {rows}")
        digests = part_digests(out_dir)
        if tag not in self.digests:
            if full_check is not None:
                full_check()
            self.digests[tag] = digests
        else:
            _require(digests == self.digests[tag],
                     f"{tag}: part files differ from the first output")

    def prepare(self) -> None:
        self.corpus.materialize()

    def check_prepared(self, _) -> None:
        pass

    def finish(self) -> None:
        pass

    def pre_encode_small(self) -> None:
        """Encode the corpus at the smallest partition size the planner
        allows: many small part files exercise the per-file decode path."""
        self.src = self.fresh("small")
        encode.encode_job(
            self.corpus.paths, self.src, target_part_bytes=encode.MIN_PART_BYTES,
            concurrency=(1, 1),
        )

    def check_small(self, _) -> None:
        self.check_output("small", self.src, self.corpus.rows)


class EncodeFresh(Workload):
    name = "encode_fresh"

    def prepare(self) -> None:
        """The cache check, then a warm-up encode: it starts the Ray worker
        and actor processes that the timed encodes reuse."""
        super().prepare()
        self.warm = self.fresh("warm")
        self.encode(self.warm)

    def check_prepared(self, _) -> None:
        self.check_output("encode", self.warm, self.corpus.rows)

    def encode(self, out: str) -> dict:
        return encode.encode_job(self.corpus.paths, out,
                                 target_part_bytes=ENCODE_TARGET_BYTES, concurrency=(1, 1))

    def iteration(self, bench) -> None:
        out = self.fresh("enc")
        bench.op("encode", lambda: self.encode(out),
                 lambda meta: self.check_output("encode", out, self.corpus.rows))
        self.output_dir = out

    def finish(self) -> None:
        """verify_job on the last output, which every output equals byte
        for byte. It runs after the timed iterations because its Ray tasks
        leave warm worker processes behind that would speed up the next
        encode's actor start."""
        res = decode.verify_job(self.corpus.paths, self.output_dir)
        _require(res["ok"], f"encode: verify_job mismatched {res['mismatched_partitions']}")
        _require(res["rows"] == self.corpus.rows, "encode: verify_job row count")


class ScanDecode(Workload):
    name = "scan_decode"

    def prepare(self) -> None:
        super().prepare()
        self.pre_encode_small()
        self.output_dir = self.src

    check_prepared = Workload.check_small

    def iteration(self, bench) -> None:
        ref = self.corpus.stats
        src = self.src

        def check_full(t):
            t = t.sort_by("doc_id")
            check_columns(t.select(self.corpus.table.column_names), self.corpus.table, "decode")
            check_columns(t.select(ref.column_names), ref, "decode token_stats")

        def check_pushdown(t):
            check_columns(t.sort_by("doc_id").select(ref.column_names), ref, "pushdown")

        def check_pruned(t):
            keys = [("source", "ascending"), ("n_tok", "ascending")]
            want = self.corpus.table.select(["n_tok", "source"]).sort_by(keys)
            check_columns(t.select(["n_tok", "source"]).sort_by(keys), want, "pruned scan")

        bench.op("decode", lambda: _collect(decode.read_encoded(
            src, transform=transforms.token_stats, concurrency=(1, 1))), check_full)
        bench.op("pushdown", lambda: _collect(decode.read_encoded_token_stats(
            src, concurrency=(1, 1))), check_pushdown)
        bench.op("pruned", lambda: _collect(decode.read_encoded(
            src, columns=["n_tok", "source"], concurrency=(1, 1))), check_pruned)


class LifecycleRewrite(Workload):
    name = "lifecycle_rewrite"

    def prepare(self) -> None:
        super().prepare()
        self.pre_encode_small()

    check_prepared = Workload.check_small

    def iteration(self, bench) -> None:
        out = self.fresh("compact")
        keys = self.corpus.delete_keys

        after = self.corpus.table_after_delete
        bench.op("compact", lambda: encode.compact_job(
            self.src, out, target_part_bytes=COMPACT_TARGET_BYTES, concurrency=(1, 1)),
            lambda meta: self.check_output("compact", out, self.corpus.rows,
                                           lambda: check_dir(out, self.corpus.table)))
        bench.op("delete", lambda: encode.delete_job(out, keys, concurrency=(1, 1)),
                 lambda meta: self.check_output("delete", out, after.num_rows,
                                                lambda: check_dir(out, after)))
        self.output_dir = out


class EncodeGrouped(Workload):
    name = "encode_grouped"

    def iteration(self, bench) -> None:
        out = self.fresh("grouped")
        # encode_job_grouped takes no concurrency argument: its task stages
        # use Ray's defaults (1 CPU per salt/shuffle task, 2 per encode task)
        bench.op("grouped", lambda: encode_grouped.encode_job_grouped(
            self.corpus.paths, out),
            lambda meta: self.check_output("grouped", out, self.corpus.rows,
                                           lambda: check_dir(out, self.corpus.table)))
        self.output_dir = out


WORKLOADS = {w.name: w for w in (EncodeFresh, ScanDecode, LifecycleRewrite, EncodeGrouped)}

# op label -> (the per-op figure reported in the run's context, its unit)
OP_REPORT = {
    "encode": ("encode_mb_s", "MB/s"),
    "decode": ("decode_mb_s", "MB/s"),
    "pushdown": ("pushdown_mb_s", "MB/s"),
    "pruned": ("pruned_scan_s", "s"),
    "compact": ("compact_mb_s", "MB/s"),
    "delete": ("delete_s", "s"),
    "grouped": ("encode_mb_s", "MB/s"),
}

