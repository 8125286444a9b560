"""Staged, resumable end-to-end training-data preparation — the "pipeline
of pipelines" a training run actually executes, as ONE orchestrated job:

    dedup -> quality -> [decontaminate] -> [despan] -> tokenize -> pack
          -> [encode]

Each stage is independently oracle-checked elsewhere (minhash_dedup_docs,
repetition_docs/clean_corpus_docs, decontaminate_docs,
remove_dup_spans_docs, tokenize_docs, packed_windows, roundtrip_stats);
this module adds the ORCHESTRATION surface: per-stage parquet staging
dirs under one workdir, each published with a `_DONE.json` marker
recording the stage config + row count.

Resume contract (the encode_job discipline applied at stage granularity):
- a stage whose `_DONE.json` exists AND matches the requested config is
  skipped — its parquet output is reused as the next stage's input;
- a stage dir WITHOUT a marker is a killed partial: it is deleted and
  rebuilt from scratch (stage outputs are deterministic, so a rebuild
  converges to the same bytes);
- a marker whose config MISMATCHES raises loudly (a silent rebuild would
  shadow the caller's intent — pass a fresh workdir or force=True).

Scale notes: orchestration state is O(stages) marker files; every stage
body is the already-bounded distributed pipeline it names. Stages
materialize to parquet between steps BY DESIGN — that is what makes the
job resumable at stage granularity (the alternative, one fused lazy
pipeline, restarts from zero on any failure; at 100 TB the re-read cost
dominates the materialization cost after the first retry).
"""

from __future__ import annotations

import glob as _glob
import json
import os
import shutil

# module-level, never lazy-in-function: package-relative imports inside
# function bodies break by-value pickling of worker-shipped closures
# (enforced by tests/test_by_value_pickling.py)
from duckdb_raquet_ray import util
from duckdb_raquet_ray.pipelines import contamination as _cont
from duckdb_raquet_ray.pipelines import dedup as _dedup
from duckdb_raquet_ray.pipelines import encode as _encode
from duckdb_raquet_ray.pipelines import packing as _packing
from duckdb_raquet_ray.pipelines import quality as _quality
from duckdb_raquet_ray.pipelines import text as _text
from duckdb_raquet_ray.state import fsio

__all__ = ["run_prepare"]


def _done_path(d: str) -> str:
    return os.path.join(d, "_DONE.json")


def _fingerprint(paths: list[str]) -> list[list]:
    """Cheap content fingerprint of EXTERNAL input files: per-file
    (path, size, mtime_ns). Folded into the stage config (and therefore
    the downstream chain hash) so a file regenerated IN PLACE with
    different content invalidates the stage marker — path-only configs
    would silently skip the stage and propagate stale outputs. Only
    external inputs are fingerprinted: intermediate stage outputs are
    covered by the upstream config chain, and their mtimes change on
    every (deterministic) rebuild, which would defeat skipping. One
    os.stat per file (size and mtime from the SAME stat — no TOCTOU
    window between two syscalls)."""
    out = []
    for p in paths:
        st = os.stat(p)
        out.append([p, st.st_size, st.st_mtime_ns])
    return out


def _read_marker(d: str):
    p = _done_path(d)
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return json.load(f)


def _run_stage(stage_dir: str, config: dict, build, *, force: bool) -> tuple[int, bool]:
    """-> (rows, skipped). `build(stage_dir)` writes the stage output and
    returns its row count; the marker publishes LAST (state/fsio.py), so
    a kill at any point leaves either no marker (partial, rebuilt) or a
    complete stage."""
    rec = _read_marker(stage_dir)
    if rec is not None:
        if rec.get("config") == config:
            return int(rec.get("rows", -1)), True
        if not force:
            raise ValueError(
                f"{stage_dir}: existing _DONE.json config {rec.get('config')} "
                f"!= requested {config}; pass force=True (or a fresh workdir) "
                "to rebuild"
            )
    shutil.rmtree(stage_dir, ignore_errors=True)
    os.makedirs(stage_dir)
    rows = int(build(stage_dir))
    if rows == 0:
        # an empty stage output is never the intent of a PREPARATION run
        # (an over-aggressive filter or a self-contaminating benchmark) —
        # fail loudly instead of feeding zero rows downstream
        raise ValueError(
            f"{stage_dir}: stage produced 0 rows — check its filter config"
        )
    fsio.publish_bytes(
        json.dumps({"config": config, "rows": rows}).encode(), _done_path(stage_dir)
    )
    return rows, False


def _stage_paths(stage_dir: str) -> list[str]:
    return sorted(
        p
        for p in _glob.glob(os.path.join(stage_dir, "*.parquet"))
        if not os.path.basename(p).startswith("_")
    )


def run_prepare(
    docs_glob: str | list[str],
    workdir: str,
    *,
    benchmark_glob: str | list[str] | None = None,
    text_col: str = "text",
    key_col: str = "doc_id",
    keep_cols: tuple[str, ...] = ("source",),
    minhash_threshold: float = 0.8,
    max_dup_frac: float | None = 0.5,
    despan_n: int | None = None,
    vocab: int = 50_257,
    window: int = 2048,
    encode: bool = False,
    decontam_ngram: int = 5,
    force: bool = False,
) -> dict:
    """Run (or resume) the staged preparation recipe; returns a summary
    dict with per-stage rows and skipped flags. Optional stages engage
    when their knob is set: `benchmark_glob` -> decontaminate (drop),
    `despan_n` -> duplicate-span removal, `encode` -> columnar encode of
    the packed windows."""
    import ray.data as rd

    os.makedirs(workdir, exist_ok=True)
    in_paths = (
        sorted(_glob.glob(docs_glob)) if isinstance(docs_glob, str) else list(docs_glob)
    )
    if not in_paths:
        raise ValueError(f"no input files match {docs_glob!r}")
    summary: dict = {"workdir": workdir, "stages": {}}
    chain: list = []  # upstream config fingerprint — a changed upstream
    # config changes every downstream stage's effective config, so stale
    # downstream markers can never be silently reused after a force rebuild

    def chained(cfg: dict) -> dict:
        import hashlib

        up = hashlib.sha256(
            json.dumps(chain, sort_keys=True).encode()
        ).hexdigest()[:16]
        chain.append(cfg)
        return {**cfg, "upstream": up}

    def record(name: str, rows: int, skipped: bool) -> None:
        summary["stages"][name] = {"rows": rows, "skipped": skipped}

    # -- dedup ---------------------------------------------------------------
    d_dedup = os.path.join(workdir, "dedup")
    cfg = chained(
        {
            "stage": "dedup",
            "threshold": minhash_threshold,
            "in": _fingerprint(in_paths),
        }
    )

    def build_dedup(dest: str) -> int:
        out = _dedup.minhash_dedup(
            util.clean_dataset(rd.read_parquet(in_paths)),
            text_col=text_col,
            key_col=key_col,
            threshold=minhash_threshold,
        )
        out.write_parquet(dest)
        return _count_parquet(dest)

    rows, skipped = _run_stage(d_dedup, cfg, build_dedup, force=force)
    record("dedup", rows, skipped)
    cur = _stage_paths(d_dedup)

    # -- quality (Gopher repetition drop) ------------------------------------
    if max_dup_frac is not None:
        d_q = os.path.join(workdir, "quality")
        cfg = chained({"stage": "quality", "max_dup_frac": max_dup_frac})

        def build_quality(dest: str) -> int:
            out = _quality.gopher_filter(
                _quality.repetition_metrics(
                    util.clean_dataset(rd.read_parquet(cur)), text_col=text_col, n=2
                ),
                max_dup_frac=max_dup_frac,
            )
            # metric columns are stage-internal: downstream stages see the
            # original doc schema
            out = out.select_columns(
                [key_col, text_col, *[c for c in keep_cols if c]]
            )
            out.write_parquet(dest)
            return _count_parquet(dest)

        rows, skipped = _run_stage(d_q, cfg, build_quality, force=force)
        record("quality", rows, skipped)
        cur = _stage_paths(d_q)

    # -- decontaminate (optional) --------------------------------------------
    if benchmark_glob is not None:
        d_dc = os.path.join(workdir, "decontam")
        bench_paths = (
            sorted(_glob.glob(benchmark_glob))
            if isinstance(benchmark_glob, str)
            else list(benchmark_glob)
        )
        cfg = chained(
            {
                "stage": "decontam",
                "n": decontam_ngram,
                "bench": _fingerprint(bench_paths),
            }
        )

        def build_decontam(dest: str) -> int:
            bench = _cont.benchmark_ngram_set(
                util.clean_dataset(rd.read_parquet(bench_paths)),
                text_col=text_col,
                n=decontam_ngram,
            )
            out = _cont.decontaminate(
                util.clean_dataset(rd.read_parquet(cur)),
                bench,
                text_col=text_col,
                n=decontam_ngram,
                drop=True,
            )
            out = out.select_columns([key_col, text_col, *[c for c in keep_cols if c]])
            out.write_parquet(dest)
            return _count_parquet(dest)

        rows, skipped = _run_stage(d_dc, cfg, build_decontam, force=force)
        record("decontam", rows, skipped)
        cur = _stage_paths(d_dc)

    # -- duplicate-span removal (optional) -----------------------------------
    if despan_n is not None:
        d_ds = os.path.join(workdir, "despan")
        cfg = chained({"stage": "despan", "n": despan_n})

        def build_despan(dest: str) -> int:
            out = _quality.remove_dup_spans(
                util.clean_dataset(rd.read_parquet(cur)),
                text_col=text_col,
                key_col=key_col,
                n=despan_n,
            )
            out.write_parquet(dest)
            return _count_parquet(dest)

        rows, skipped = _run_stage(d_ds, cfg, build_despan, force=force)
        record("despan", rows, skipped)
        cur = _stage_paths(d_ds)

    # -- tokenize -------------------------------------------------------------
    d_tok = os.path.join(workdir, "tokenize")
    # despan output carries only (key, text, n_removed) — keep_cols
    # survive only when the span stage is off
    tok_keep = tuple(c for c in keep_cols if c) if despan_n is None else ()
    cfg = chained({"stage": "tokenize", "vocab": vocab, "keep": list(tok_keep)})

    def build_tokenize(dest: str) -> int:
        out = _text.tokenize_hashed(
            util.clean_dataset(rd.read_parquet(cur)),
            text_col=text_col,
            key_col=key_col,
            vocab=vocab,
            keep_cols=tok_keep,
        )
        out.write_parquet(dest)
        return _count_parquet(dest)

    rows, skipped = _run_stage(d_tok, cfg, build_tokenize, force=force)
    record("tokenize", rows, skipped)
    cur = _stage_paths(d_tok)

    # -- pack ------------------------------------------------------------------
    d_pack = os.path.join(workdir, "pack")
    cfg = chained({"stage": "pack", "window": window})

    def build_pack(dest: str) -> int:
        out = _packing.pack_windows(cur, window=window)
        out.write_parquet(dest)
        return _count_parquet(dest)

    rows, skipped = _run_stage(d_pack, cfg, build_pack, force=force)
    record("pack", rows, skipped)

    # -- encode (optional) -----------------------------------------------------
    if encode:
        d_enc = os.path.join(workdir, "encode")
        cfg = chained({"stage": "encode"})

        def build_encode(dest: str) -> int:
            meta = _encode.encode_job(_stage_paths(d_pack), dest)
            return int(meta["num_rows"])

        rows, skipped = _run_stage(d_enc, cfg, build_encode, force=force)
        record("encode", rows, skipped)

    return summary


def _count_parquet(dest: str) -> int:
    """Footer row counts only — no data read."""
    import pyarrow.parquet as pq

    return sum(
        pq.read_metadata(p).num_rows
        for p in _stage_paths(dest)
    )
