"""Command-line entry point — the `ray job submit` surface of the engine.

    python -m duckdb_raquet_ray.cli encode  --input 'dir/*.parquet' --out DIR
    python -m duckdb_raquet_ray.cli encode  --input ... --out DIR --grouped
    python -m duckdb_raquet_ray.cli verify  --out DIR
    python -m duckdb_raquet_ray.cli export  --out DIR --dest DIR2
    python -m duckdb_raquet_ray.cli info    --out DIR
    python -m duckdb_raquet_ray.cli synth   --dest DIR --rows N --shards K
    python -m duckdb_raquet_ray.cli pack    --input ... --dest DIR --window 2048
    python -m duckdb_raquet_ray.cli sample  --input ... --dest DIR --rate web=0.25
    python -m duckdb_raquet_ray.cli quality --input ... --dest DIR --max-dup-frac 0.3
    python -m duckdb_raquet_ray.cli decontaminate --input ... --benchmark ... --dest DIR --drop

On a real cluster:

    ray job submit --working-dir . -- \
        python -m duckdb_raquet_ray.cli encode --input 's3://bucket/shards/*.parquet' --out s3out

Each command prints one JSON line. `ray.init` is guarded so the CLI works
both standalone (auto-connects to `RAY_ADDRESS` or starts local) and
inside an existing session (e.g. under `ray job submit`, which sets the
address); the library itself never initializes Ray.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys


def _ensure_ray(num_cpus: int | None) -> bool:
    """Init Ray if needed; returns True if WE initialized it (and so own
    the shutdown — never tear down a caller's live session)."""
    import ray

    if ray.is_initialized():
        return False
    kwargs = {"include_dashboard": False}
    if num_cpus is not None:
        kwargs["num_cpus"] = num_cpus
    ray.init(**kwargs)
    return True


def _inputs(pattern: str) -> list[str]:
    paths = sorted(glob.glob(pattern))
    if not paths:
        raise SystemExit(f"no input files match {pattern!r}")
    return paths


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(prog="duckdb_raquet_ray")
    ap.add_argument("--num-cpus", type=int, default=None, help="local ray.init cpu cap")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("encode", help="encode Parquet shards -> partition files + manifest")
    p.add_argument("--input", required=True, help="glob of input parquet shards")
    p.add_argument("--out", required=True)
    p.add_argument("--grouped", action="store_true",
                   help="source-partitioned LAYOUT mode (salted hash-bucket "
                        "repartition): per-source pruned reads; lineage mode "
                        "compresses better and is the default")
    p.add_argument("--part-bytes", type=int, default=None,
                   help="lineage mode: target decoded bytes per partition (default: auto)")
    p.add_argument("--group-rows", type=int, default=None,
                   help="grouped mode: target rows per (source, salt) bucket")
    p.add_argument("--no-resume", action="store_true")

    p = sub.add_parser("append", help="grow a lineage-mode encoded dir with NEW "
                       "shards: old partition ids/files untouched, only the new "
                       "shards encode, manifest/rollups re-finalize")
    p.add_argument("--input", required=True, help="glob of the NEW parquet shards")
    p.add_argument("--out", required=True, help="existing encoded dir")

    p = sub.add_parser("compact", help="merge an encoded dir's partitions into "
                       "right-sized ones (reads ONLY part files — original "
                       "shards may be gone); resumable, logical table unchanged")
    p.add_argument("--src", required=True, help="source encoded dir")
    p.add_argument("--out", required=True, help="fresh compacted dir")
    p.add_argument("--target-part-bytes", type=int, default=None)

    p = sub.add_parser("delete", help="erase rows by key from an encoded dir IN "
                       "PLACE (partition-granular rewrite; retention/erasure)")
    p.add_argument("--out", required=True, help="encoded dir to delete from")
    p.add_argument("--keys-file", required=True,
                   help="text file with one key per line")
    p.add_argument("--key-column", default=None)

    p = sub.add_parser("verify", help="bit-identity gate: decode vs input, per row "
                       "(partitioning read from the manifest)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("export", help="decode an encoded dir back to plain Parquet")
    p.add_argument("--out", required=True, help="encoded dir")
    p.add_argument("--dest", required=True, help="destination dir for plain parquet")
    p.add_argument("--order-by", default=None,
                   help="globally sort the export by this column "
                        "(distributed sort; not per-file resumable)")

    p = sub.add_parser("info", help="print manifest metadata + passthrough totals")
    p.add_argument("--out", required=True)

    p = sub.add_parser("synth", help="synthesize the deterministic token corpus")
    p.add_argument("--dest", required=True)
    p.add_argument("--rows", type=int, default=100_000)
    p.add_argument("--shards", type=int, default=8)

    p = sub.add_parser("pack", help="GPT-style sequence packing: concat docs + "
                       "separator, chop every --window tokens, write packed parquet")
    p.add_argument("--input", required=True, help="glob of input parquet shards")
    p.add_argument("--dest", required=True, help="destination dir for packed parquet")
    p.add_argument("--window", type=int, default=2048)

    p = sub.add_parser("sample", help="deterministic source-mixture subsample "
                       "(domain re-weighting) -> parquet")
    p.add_argument("--input", required=True, help="glob of input parquet shards")
    p.add_argument("--dest", required=True)
    p.add_argument("--rate", action="append", default=[],
                   help="source=rate (repeatable), e.g. --rate web=0.25")
    p.add_argument("--default-rate", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--uniform", type=int, default=None, metavar="K",
                   help="instead of rates: exactly K rows drawn uniformly "
                        "(k smallest seeded key hashes)")
    p.add_argument("--tau", type=float, default=None,
                   help="instead of rates: temperature re-weighting "
                        "(keep-rate n^(tau-1) per source, normalized)")
    p.add_argument("--key-col", default="doc_id")
    p.add_argument("--source-col", default="source")

    p = sub.add_parser("quality", help="annotate docs with repetition metrics; "
                       "optional Gopher-style repetition drop -> parquet")
    p.add_argument("--input", required=True, help="glob of input parquet shards")
    p.add_argument("--dest", required=True)
    p.add_argument("--text-col", default="text")
    p.add_argument("--ngram", type=int, default=2)
    p.add_argument("--max-dup-frac", type=float, default=None,
                   help="drop docs with dup_gram_positions/n_grams above this")
    p.add_argument("--max-top-frac", type=float, default=None,
                   help="drop docs with top_word_count/n_words above this")

    p = sub.add_parser("decontaminate", help="flag (or drop) training docs sharing "
                       "word n-grams with a benchmark set -> parquet")
    p.add_argument("--input", required=True, help="glob of training parquet shards")
    p.add_argument("--benchmark", required=True, help="glob of benchmark parquet shards")
    p.add_argument("--dest", required=True)
    p.add_argument("--text-col", default="text")
    p.add_argument("--ngram", type=int, default=5)
    p.add_argument("--drop", action="store_true", help="drop flagged docs instead of annotating")

    p = sub.add_parser("dedup", help="exact/minhash/simhash dedup, or near-dup "
                       "cluster annotation -> parquet")
    p.add_argument("--input", required=True, help="glob of input parquet shards")
    p.add_argument("--dest", required=True)
    p.add_argument("--method", choices=["exact", "minhash", "simhash"], default="minhash")
    p.add_argument("--text-col", default="text")
    p.add_argument("--key-col", default="doc_id")
    p.add_argument("--threshold", type=float, default=0.8, help="minhash Jaccard gate")
    p.add_argument("--clusters", action="store_true",
                   help="minhash only: annotate cluster_id (connected "
                        "components over verified pairs) instead of dropping")
    p.add_argument("--index", default=None, metavar="DIR",
                   help="incremental mode: dedup the input against a persisted "
                        "MinHash-LSH band index (built on first use), appending "
                        "the kept docs' cells back into it")

    p = sub.add_parser("phrase", help="exact word-sequence counts per doc "
                       "(streaming direct path) -> parquet (key, n_phrase)")
    p.add_argument("--input", required=True, help="glob of input parquet shards")
    p.add_argument("--dest", required=True)
    p.add_argument("--phrase", required=True,
                   help="space-separated phrase, e.g. 'new york times'")
    p.add_argument("--text-col", default="text")
    p.add_argument("--key-col", default="doc_id")

    p = sub.add_parser("pagerank", help="domain link-graph PageRank over a "
                       "documents table: first extracted host -> outlink hosts, "
                       "damped integer power iteration -> (domain, rank) parquet")
    p.add_argument("--input", required=True, help="glob of input parquet shards")
    p.add_argument("--dest", required=True)
    p.add_argument("--text-col", default="text")
    p.add_argument("--iters", type=int, default=3)

    p = sub.add_parser("pii", help="scan for (or redact) emails/IPv4/phones -> parquet")
    p.add_argument("--input", required=True, help="glob of input parquet shards")
    p.add_argument("--dest", required=True)
    p.add_argument("--text-col", default="text")
    p.add_argument("--redact", action="store_true",
                   help="write redacted text alongside the counts")

    p = sub.add_parser("chunk", help="sliding-window doc chunking (RAG / retrieval "
                       "prep): one row per [k*stride, k*stride+size) window -> parquet")
    p.add_argument("--input", required=True, help="glob of input parquet shards")
    p.add_argument("--dest", required=True)
    p.add_argument("--text-col", default="text")
    p.add_argument("--key-col", default="doc_id")
    p.add_argument("--size", type=int, default=512, help="window chars")
    p.add_argument("--stride", type=int, default=384, help="window step (overlap = size - stride)")

    p = sub.add_parser("bigram-score", help="token-bigram LM familiarity: train a "
                       "corpus top-k bigram table, annotate each doc with integer "
                       "n_bigrams/n_hit/hit_sum -> parquet")
    p.add_argument("--input", required=True, help="glob of input parquet shards")
    p.add_argument("--dest", required=True)
    p.add_argument("--tokens-col", default="tokens")
    p.add_argument("--top-k", type=int, default=10_000,
                   help="LM table size (bigrams kept, cnt desc / key asc)")

    p = sub.add_parser("classify", help="hashed linear source/quality classifier: "
                       "train integer word weights against a positive label set, "
                       "annotate each doc with n_cls_hits/cls_score/pred_pos -> parquet")
    p.add_argument("--input", required=True, help="glob of input parquet shards")
    p.add_argument("--dest", required=True)
    p.add_argument("--text-col", default="text")
    p.add_argument("--label-col", default="source")
    p.add_argument("--positive", required=True,
                   help="comma-separated label values of the positive class")
    p.add_argument("--top-n", type=int, default=2048,
                   help="weight-table size (words kept, |weight| desc / hash asc)")

    p = sub.add_parser("report", help="one-line corpus-health JSON over a documents "
                       "table: rows, per-source mix, word totals, exact-dup rate, "
                       "language mix, length quantiles")
    p.add_argument("--input", required=True, help="glob of input parquet shards")
    p.add_argument("--text-col", default="text")
    p.add_argument("--key-col", default="doc_id")
    p.add_argument("--source-col", default="source")

    p = sub.add_parser("bpe", help="byte-level BPE: train merges on a hash-stride "
                       "sample, stream-encode each doc to subword ids -> parquet "
                       "(doc key, bpe list<int32>, n_bpe) + merges.json")
    p.add_argument("--input", required=True, help="glob of input parquet shards")
    p.add_argument("--dest", required=True)
    p.add_argument("--text-col", default="text")
    p.add_argument("--key-col", default="doc_id")
    p.add_argument("--merges", type=int, default=256, help="merge count (vocab = 256 + merges)")
    p.add_argument("--sample-mod", type=int, default=16,
                   help="train on docs with hash(key) %% mod == 0")

    p = sub.add_parser("despan", help="duplicate-span removal: cut cross-doc "
                       "duplicated word n-grams (min-key keeper survives) -> parquet")
    p.add_argument("--input", required=True, help="glob of input parquet shards")
    p.add_argument("--dest", required=True)
    p.add_argument("--text-col", default="text")
    p.add_argument("--key-col", default="doc_id")
    p.add_argument("--ngram", type=int, default=8)

    p = sub.add_parser("wds", help="export docs as WebDataset-style tar shards "
                       "({key}.txt + {key}.json members, content-addressed names)")
    p.add_argument("--input", required=True, help="glob of input parquet shards")
    p.add_argument("--dest", required=True)
    p.add_argument("--text-col", default="text")
    p.add_argument("--key-col", default="doc_id")
    p.add_argument("--payload-col", default=None,
                   help="optional binary column -> {key}.bin members")
    p.add_argument("--meta-cols", default="source",
                   help="comma-separated metadata columns -> {key}.json "
                        "(empty string = none)")

    p = sub.add_parser("prepare", help="staged resumable training-data recipe: "
                       "dedup -> quality -> [decontaminate] -> [despan] -> "
                       "tokenize -> pack -> [encode]; per-stage _DONE markers")
    p.add_argument("--input", required=True, help="glob of documents parquet shards")
    p.add_argument("--workdir", required=True, help="stage dirs + markers live here")
    p.add_argument("--benchmark", default=None, help="glob of benchmark shards (enables decontaminate)")
    p.add_argument("--despan", type=int, default=None, metavar="N",
                   help="enable duplicate-span removal at word n-gram order N")
    p.add_argument("--window", type=int, default=2048)
    p.add_argument("--vocab", type=int, default=50_257)
    p.add_argument("--encode", action="store_true", help="columnar-encode the packed windows")
    p.add_argument("--force", action="store_true", help="rebuild stages whose config changed")

    args = ap.parse_args(argv)

    if args.cmd == "synth":  # no Ray needed
        from .sources import tokens as tok

        paths = tok.write_corpus(args.dest, args.rows, args.shards, processes=4)
        print(json.dumps({"cmd": "synth", "shards": len(paths), "rows": args.rows}))
        return

    owns_ray = _ensure_ray(args.num_cpus)
    try:
        if args.cmd == "encode":
            from .pipelines import encode, encode_grouped

            paths = _inputs(args.input)
            resume = not args.no_resume
            if args.grouped:
                if args.part_bytes:
                    raise SystemExit("--part-bytes applies to lineage mode; "
                                     "use --group-rows with --grouped")
                meta = encode_grouped.encode_job_grouped(
                    paths, args.out, resume=resume,
                    target_group_rows=args.group_rows,  # None -> persisted/default
                )
            else:
                # None: a fresh job auto-sizes, a resume reuses job.json
                meta = encode.encode_job(
                    paths, args.out, target_part_bytes=args.part_bytes, resume=resume,
                )
            print(json.dumps({
                "cmd": "encode",
                "partitions": meta["num_partitions"],
                "rows": meta["num_rows"],
                "input_bytes": meta["input_bytes"],
                "encoded_bytes": meta["encoded_bytes"],
                "ratio": round(meta["input_bytes"] / max(meta["encoded_bytes"], 1), 4),
            }))
        elif args.cmd == "append":
            from .pipelines import encode

            meta = encode.append_job(_inputs(args.input), args.out)
            print(json.dumps({"cmd": "append", "rows": meta["num_rows"],
                              "partitions": meta["num_partitions"],
                              "out": args.out}))
        elif args.cmd == "compact":
            from .pipelines import encode

            meta = encode.compact_job(
                args.src, args.out, target_part_bytes=args.target_part_bytes
            )
            print(json.dumps({"cmd": "compact", "rows": meta["num_rows"],
                              "partitions": meta["num_partitions"],
                              "out": args.out}))
        elif args.cmd == "delete":
            from .pipelines import encode

            with open(args.keys_file) as f:
                # strip(), not rstrip('\n'): a CRLF keys file would yield
                # 'key\r' entries that match nothing — for an erasure
                # operator a silent no-op is the worst failure mode
                keys = [ln.strip() for ln in f if ln.strip()]
            meta = encode.delete_job(args.out, keys, key_column=args.key_column)
            print(json.dumps({"cmd": "delete", "rows": meta["num_rows"],
                              "partitions": meta["num_partitions"],
                              "out": args.out}))
        elif args.cmd == "verify":
            from .pipelines import decode

            res = decode.verify_encoded(args.out)
            print(json.dumps({"cmd": "verify", **{k: res[k] for k in ("partitions", "rows", "ok")}}))
            if not res["ok"]:
                sys.exit(1)
        elif args.cmd == "export":
            from .pipelines import decode

            n = decode.export_job(args.out, args.dest, order_by=args.order_by)
            print(json.dumps({"cmd": "export", "rows": n,
                              "order_by": args.order_by}))
        elif args.cmd == "pack":
            from .pipelines import packing

            ds = packing.pack_windows(_inputs(args.input), window=args.window)
            ds.write_parquet(args.dest)
            print(json.dumps({"cmd": "pack", "window": args.window, "dest": args.dest}))
        elif args.cmd == "sample":
            import ray.data as rd

            from .pipelines import sampling

            if args.uniform is not None:
                out = sampling.uniform_sample(
                    rd.read_parquet(_inputs(args.input)), args.uniform,
                    key_col=args.key_col, seed=args.seed,
                )
                out.write_parquet(args.dest)
                print(json.dumps({"cmd": "sample", "uniform": args.uniform,
                                  "dest": args.dest}))
                return
            if args.tau is not None:
                src_ds = rd.read_parquet(_inputs(args.input))
                rates = sampling.temperature_rates(
                    src_ds, args.tau, source_col=args.source_col
                )
                sampling.source_mixture_sample(
                    src_ds, rates, seed=args.seed, key_col=args.key_col,
                    source_col=args.source_col,
                ).write_parquet(args.dest)
                print(json.dumps({"cmd": "sample", "tau": args.tau,
                                  "rates": rates, "dest": args.dest}))
                return
            rates = {}
            for spec in args.rate:
                src, sep, r = spec.partition("=")
                try:
                    if not sep:
                        raise ValueError
                    rates[src] = float(r)
                except ValueError:
                    raise SystemExit(
                        f"--rate expects source=rate (e.g. web=0.25), got {spec!r}"
                    )
            ds = sampling.source_mixture_sample(
                rd.read_parquet(_inputs(args.input)), rates,
                key_col=args.key_col, source_col=args.source_col,
                seed=args.seed, default_rate=args.default_rate,
            )
            ds.write_parquet(args.dest)
            print(json.dumps({"cmd": "sample", "rates": rates, "seed": args.seed,
                              "dest": args.dest}))
        elif args.cmd == "quality":
            import ray.data as rd

            from . import util
            from .pipelines import quality

            ds = quality.repetition_metrics(
                util.clean_dataset(rd.read_parquet(_inputs(args.input))),
                text_col=args.text_col, n=args.ngram,
            )
            filtered = args.max_dup_frac is not None or args.max_top_frac is not None
            if filtered:
                ds = quality.gopher_filter(
                    ds, max_dup_frac=args.max_dup_frac, max_top_frac=args.max_top_frac
                )
            ds.write_parquet(args.dest)
            print(json.dumps({"cmd": "quality", "ngram": args.ngram,
                              "filtered": filtered, "dest": args.dest}))
        elif args.cmd == "prepare":
            from .pipelines import prepare as prep

            s = prep.run_prepare(
                args.input, args.workdir, benchmark_glob=args.benchmark,
                despan_n=args.despan, window=args.window, vocab=args.vocab,
                encode=args.encode, force=args.force,
            )
            print(json.dumps({"cmd": "prepare", **s}))
        elif args.cmd == "despan":
            import ray.data as rd

            from . import util
            from .pipelines import quality

            out = quality.remove_dup_spans(
                util.clean_dataset(rd.read_parquet(_inputs(args.input))),
                text_col=args.text_col, key_col=args.key_col, n=args.ngram,
            )
            out.write_parquet(args.dest)
            print(json.dumps({"cmd": "despan", "ngram": args.ngram,
                              "dest": args.dest}))
        elif args.cmd == "wds":
            import ray.data as rd

            from . import util
            from .sources import textio

            meta = tuple(c for c in args.meta_cols.split(",") if c)
            paths = textio.write_wds(
                util.clean_dataset(rd.read_parquet(_inputs(args.input))),
                args.dest, key_col=args.key_col, text_col=args.text_col,
                payload_col=args.payload_col, meta_cols=meta,
            )
            print(json.dumps({"cmd": "wds", "shards": len(paths),
                              "dest": args.dest}))
        elif args.cmd == "decontaminate":
            import ray.data as rd

            from . import util
            from .pipelines import contamination as cont

            bench = cont.benchmark_ngram_set(
                util.clean_dataset(rd.read_parquet(_inputs(args.benchmark))),
                text_col=args.text_col, n=args.ngram,
            )
            out = cont.decontaminate(
                util.clean_dataset(rd.read_parquet(_inputs(args.input))), bench,
                text_col=args.text_col, n=args.ngram, drop=args.drop,
            )
            out.write_parquet(args.dest)
            print(json.dumps({"cmd": "decontaminate", "ngram": args.ngram,
                              "benchmark_ngrams": int(len(bench)),
                              "drop": args.drop, "dest": args.dest}))
        elif args.cmd == "dedup":
            import ray.data as rd

            from . import util
            from .pipelines import dedup as dd
            from .state import bucket_index

            ds = util.clean_dataset(rd.read_parquet(_inputs(args.input)))
            if getattr(args, "index", None):
                if args.method != "minhash":
                    raise SystemExit("--index requires --method minhash")
                # marker-gated: a killed first build is rebuilt, not probed
                if not os.path.exists(os.path.join(args.index, bucket_index.MARKER)):
                    dd.build_minhash_index(
                        ds, args.index, text_col=args.text_col,
                        key_col=args.key_col, bands=8,
                    )
                    out = ds  # first run indexes the corpus; nothing to drop
                else:
                    out = dd.incremental_minhash_dedup(
                        ds, args.index, text_col=args.text_col,
                        key_col=args.key_col, bands=8, update_index=True,
                    )
            elif args.clusters:
                if args.method != "minhash":
                    raise SystemExit("--clusters requires --method minhash")
                out = dd.minhash_clusters(
                    ds, text_col=args.text_col, key_col=args.key_col,
                    threshold=args.threshold,
                )
            elif args.method == "exact":
                out = dd.exact_dedup(ds, text_col=args.text_col, key_col=args.key_col)
            elif args.method == "minhash":
                out = dd.minhash_dedup(
                    ds, text_col=args.text_col, key_col=args.key_col,
                    threshold=args.threshold,
                )
            else:
                out = dd.simhash_dedup(ds, text_col=args.text_col, key_col=args.key_col)
            out.write_parquet(args.dest)
            print(json.dumps({"cmd": "dedup", "method": args.method,
                              "clusters": args.clusters, "dest": args.dest}))
        elif args.cmd == "pii":
            import ray.data as rd

            from . import util
            from .pipelines import pii as pii_ops

            ds = util.clean_dataset(rd.read_parquet(_inputs(args.input)))
            out = pii_ops.pii_scan(ds, text_col=args.text_col)
            if args.redact:
                out = pii_ops.pii_redact(out, text_col=args.text_col)
            out.write_parquet(args.dest)
            print(json.dumps({"cmd": "pii", "redact": args.redact,
                              "dest": args.dest}))
        elif args.cmd == "chunk":
            import ray.data as rd

            from . import util
            from .pipelines import text as text_ops

            ds = util.clean_dataset(rd.read_parquet(_inputs(args.input)))
            out = text_ops.chunk_docs(
                ds, text_col=args.text_col, key_col=args.key_col,
                size=args.size, stride=args.stride,
            )
            out.write_parquet(args.dest)
            print(json.dumps({"cmd": "chunk", "size": args.size,
                              "stride": args.stride, "dest": args.dest}))
        elif args.cmd == "phrase":
            import ray.data as rd

            from .pipelines import retrieval as retrieval_ops

            ds = rd.read_parquet(_inputs(args.input))
            out = retrieval_ops.phrase_count(
                ds, args.phrase.split(),
                text_col=args.text_col, key_col=args.key_col,
            )
            out.write_parquet(args.dest)
            print(json.dumps({"cmd": "phrase", "phrase": args.phrase,
                              "dest": args.dest}))
        elif args.cmd == "pagerank":
            import ray.data as rd

            from . import util
            from .pipelines import graph as graph_ops

            ds = util.clean_dataset(rd.read_parquet(_inputs(args.input)))
            out = graph_ops.domain_pagerank(
                graph_ops.link_edges(ds, text_col=args.text_col),
                iters=args.iters,
            )
            out.write_parquet(args.dest)
            print(json.dumps({"cmd": "pagerank", "iters": args.iters,
                              "dest": args.dest}))
        elif args.cmd == "bigram-score":
            import ray.data as rd

            from . import util
            from .stages import stats as st

            ds = util.clean_dataset(rd.read_parquet(_inputs(args.input)))
            lm = st.bigram_topk(ds, tokens_col=args.tokens_col, k=args.top_k)
            st.bigram_lm_score(ds, lm, tokens_col=args.tokens_col).write_parquet(
                args.dest
            )
            print(json.dumps({"cmd": "bigram-score", "lm_rows": int(len(lm[0])),
                              "dest": args.dest}))
        elif args.cmd == "classify":
            import ray.data as rd

            from . import util
            from .pipelines import quality as q

            ds = util.clean_dataset(rd.read_parquet(_inputs(args.input)))
            wh, w, n_pos, n_neg = q.train_source_classifier(
                ds,
                text_col=args.text_col,
                label_col=args.label_col,
                positive=tuple(s for s in args.positive.split(",") if s),
                top_n=args.top_n,
            )
            q.classifier_score(ds, (wh, w), text_col=args.text_col).write_parquet(
                args.dest
            )
            print(json.dumps({"cmd": "classify", "table_rows": int(len(wh)),
                              "n_pos": n_pos, "n_neg": n_neg, "dest": args.dest}))
        elif args.cmd == "report":
            import pyarrow as pa
            import ray.data as rd

            from . import util
            from .pipelines import dedup, text as text_ops

            ds = util.clean_dataset(rd.read_parquet(_inputs(args.input)))
            n_docs = ds.count()
            src_counts = {
                str(r[args.source_col]): int(r["count()"])
                for r in ds.groupby(args.source_col).count().take_all()
            } if args.source_col in ds.schema().names else {}
            counted = ds.map_batches(
                lambda b: text_ops.token_count_batch(b, args.text_col),
                batch_format="pyarrow",
            )
            n_words = int(counted.sum("ws_tokens") or 0)
            survivors = dedup.exact_dedup(
                ds.select_columns([args.key_col, args.text_col]),
                text_col=args.text_col, key_col=args.key_col,
            ).count()
            lang_counts = {
                str(r["lang_pred"]): int(r["count()"])
                for r in ds.map_batches(
                    text_ops.TextAnalyzer, batch_format="pyarrow",
                    concurrency=(1, 4), num_cpus=1,
                    fn_constructor_kwargs={"text_col": args.text_col},
                ).groupby("lang_pred").count().take_all()
            }
            print(json.dumps({
                "cmd": "report",
                "n_docs": n_docs,
                "n_words": n_words,
                "sources": src_counts,
                "exact_dup_rate": round(1.0 - survivors / max(n_docs, 1), 6),
                "languages": lang_counts,
            }))
        elif args.cmd == "bpe":
            import ray.data as rd

            from . import util
            from .pipelines import bpe as bpe_ops

            ds = util.clean_dataset(rd.read_parquet(_inputs(args.input)))
            merges = bpe_ops.bpe_train(
                ds, text_col=args.text_col, key_col=args.key_col,
                n_merges=args.merges, sample_mod=args.sample_mod,
            )
            bpe_ops.bpe_encode(
                ds, merges, text_col=args.text_col, key_col=args.key_col
            ).write_parquet(args.dest)
            # sibling file, NOT inside the dataset dir: a directory read
            # (read_parquet(dest)) must never trip over a json member
            merges_path = args.dest.rstrip("/") + ".merges.json"
            with open(merges_path, "w") as f:
                json.dump({"merges": merges.tolist()}, f)
            print(json.dumps({"cmd": "bpe", "merges": int(len(merges)),
                              "merges_path": merges_path, "dest": args.dest}))
        elif args.cmd == "info":
            from .state import manifest as mf

            meta = mf.load_metadata(args.out)
            out = {k: meta[k] for k in
                   ("format_version", "num_partitions", "num_rows", "input_bytes", "encoded_bytes")}
            try:
                out["totals_tokens"] = mf.totals_passthrough(args.out, "tokens")
            except Exception:
                pass
            print(json.dumps({"cmd": "info", **out}))
    finally:
        if owns_ray:
            import ray

            ray.shutdown()


if __name__ == "__main__":
    main()
