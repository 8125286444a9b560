"""Domain link-graph PageRank — the web-corpus URL-quality signal.

Production web-corpus curation ranks domains by link centrality before
filtering (CommonCrawl publishes harmonic/PageRank centrality per crawl;
CCNet/RefinedWeb-style recipes consume it as a per-domain quality
prior).  This operator builds the (src domain -> dst domain) citation
graph from the documents' own text — the FIRST extracted URL host is the
page's home domain, every later host is an outlink — and runs a fixed
number of damped power-iteration rounds, entirely dataset-side.

Integer-exact and SQL-replicable (`pagerank_oracle_sql` unrolls the same
iterations as CTE chains), following the kmeans/pq discipline
(cluster.py:62, ann.py:308):

  * rank mass lives in integer fixed point: r0(v) = SCALE // N;
  * an edge's contribution is (r(s) * w) // W(s) — int64 floor division,
    identical in numpy and DuckDB for the non-negative operands here;
  * update: r'(v) = ((den-num) * SCALE) // (den * N)
                    + (num * sum_contrib(v)) // den      (damping num/den);
  * dangling mass (a node with in-links but no out-links) is dropped,
    the standard simplification — identical on both sides by
    construction.

Scale shape: edges shuffle ONCE through a corpus-scaled bucket groupby
keyed on hash(src) — a src's whole adjacency lands in one bucket, so
edge weights AND out-degrees finalize in-bucket with no second pass.
Each iteration is a bucketed large-large `hash_join` (ranks onto edges
by src), a per-block partial sum + bucketed exact sum of contributions
by dst, and a left join back onto the node table — per-task state is
O(corpus / n_buckets), driver state is O(1).  Overflow bound: r < SCALE
(total mass is conserved-or-lost, never grown), so r * w stays inside
int64 while max edge weight < 2^63 / SCALE (~9.2e6 at the default
SCALE=1e12); raise `scale` down if a single (src, dst) pair can repeat
more than that.

Link extraction iterates docs with ONE compiled C regex per doc (the
minhash-shingle precedent, dedup.py:115) — match work is C-speed, and
the stage streams.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import ray.data as rd

from duckdb_raquet_ray import util
from duckdb_raquet_ray.functions import detmix
from duckdb_raquet_ray.pipelines.dedup import label_propagate_min
from duckdb_raquet_ray.pipelines.joins import hash_join

URL_HOST_PATTERN = r"https?://([A-Za-z0-9.-]+)"
_HOST_RE = re.compile(URL_HOST_PATTERN)

PR_SCALE = 10**12


# ---------------------------------------------------------------------------
# deterministic link fixture (the sf documents are URL-free; the pii URL
# fixture splices ONE url — PageRank needs a multi-link graph)
# ---------------------------------------------------------------------------


def synthesize_links_batch(
    batch: pa.Table, *, key_col: str = "doc_id", text_col: str = "text",
    n_domains: int = 37,
) -> pa.Table:
    """Splice a home URL plus 1-3 outlinks into every row's text, all pure
    functions of the key: home domain = key % n_domains, outlink j
    (j = 1..1+key%3) targets (key*7 + j*13) % n_domains.  SQL twin:
    `synthesize_links_sql`."""
    import pandas as pd

    ids = pd.Series(batch.column(key_col).to_numpy(zero_copy_only=False))
    txt = batch.column(text_col).to_pandas().fillna("").reset_index(drop=True)
    m = int(n_domains)
    out = txt + " https://site" + (ids % m).astype(str) + ".example.org/home"
    for j in (1, 2, 3):
        seg = (
            " https://site" + ((ids * 7 + j * 13) % m).astype(str)
            + ".example.org/p" + ids.astype(str)
        ).where(ids % 3 + 1 >= j, "")
        out = out + seg
    return batch.set_column(
        batch.schema.get_field_index(text_col), text_col,
        pa.array(out, pa.string()),
    )


def synthesize_links_sql(
    table: str = "documents", *, key_col: str = "doc_id",
    text_col: str = "text", n_domains: int = 37,
) -> str:
    """SQL twin of synthesize_links_batch, as a subquery."""
    m = int(n_domains)
    segs = []
    for j in (1, 2, 3):
        segs.append(
            f"CASE WHEN {key_col} % 3 + 1 >= {j} THEN "
            f"' https://site' || (({key_col} * 7 + {j * 13}) % {m})::VARCHAR "
            f"|| '.example.org/p' || {key_col}::VARCHAR ELSE '' END"
        )
    return (
        f"(SELECT {key_col}, coalesce({text_col}, '') || "
        f"' https://site' || ({key_col} % {m})::VARCHAR || '.example.org/home' || "
        + " || ".join(segs)
        + f" AS {text_col} FROM {table})"
    )


# ---------------------------------------------------------------------------
# edge extraction + PageRank
# ---------------------------------------------------------------------------


def link_edges_batch(batch: pa.Table, *, text_col: str = "text") -> pa.Table:
    """(src, dst) edge rows per doc: first extracted host -> every later
    host (with multiplicity).  Docs with < 2 urls emit nothing."""
    srcs: list[str] = []
    dsts: list[str] = []
    for t in batch.column(text_col).to_pylist():
        if not t:
            continue
        hs = _HOST_RE.findall(t)
        if len(hs) >= 2:
            srcs.extend([hs[0]] * (len(hs) - 1))
            dsts.extend(hs[1:])
    return pa.table(
        {"src": pa.array(srcs, pa.string()), "dst": pa.array(dsts, pa.string())}
    )


def link_edges(ds: rd.Dataset, *, text_col: str = "text") -> rd.Dataset:
    return ds.map_batches(
        lambda b: link_edges_batch(b, text_col=text_col), batch_format="pyarrow"
    )


def _str_buckets(col: pa.ChunkedArray | pa.Array, nb: int) -> pa.Array:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    s = col.cast(pa.string()).to_pandas().fillna("").to_numpy(dtype=object)
    return pa.array((detmix.string_hash64(s) % np.uint64(nb)).astype(np.int32))


def _pair_partial(t: pa.Table) -> pa.Table:
    """Per-block (src, dst, w) partial counts (pandas C groupby)."""
    import pandas as pd

    df = t.select(["src", "dst"]).to_pandas()
    g = df.groupby(["src", "dst"], sort=False).size().reset_index(name="w")
    return pa.table(
        {
            "src": pa.array(g["src"], pa.string()),
            "dst": pa.array(g["dst"], pa.string()),
            "w": pa.array(g["w"].to_numpy(np.int64)),
        }
    )


def _pagerank_folded(
    ew: rd.Dataset, iters: int, scale: int, num: int, den: int
) -> rd.Dataset:
    """Driver-side numpy iteration over the FOLDED (src, dst, w, ww)
    edge table (gated by edge_driver_limit): pandas factorize to integer
    codes, np.add.at for exact int64 contribution sums — the identical
    fixed-point spec, zero per-round shuffles."""
    import pandas as pd

    df = ew.select_columns(["src", "dst", "w", "ww"]).to_pandas()
    both = pd.concat([df["src"], df["dst"]], ignore_index=True)
    codes, uniq = pd.factorize(both, sort=False)
    n = len(df)
    s_codes, d_codes = codes[:n], codes[n:]
    w = df["w"].to_numpy(np.int64)
    ww = df["ww"].to_numpy(np.int64)
    n_nodes = len(uniq)
    r = np.full(n_nodes, scale // n_nodes, np.int64)
    tele = ((den - num) * scale) // (den * n_nodes)
    for _ in range(iters):
        contrib = np.zeros(n_nodes, np.int64)
        np.add.at(contrib, d_codes, (r[s_codes] * w) // ww)
        r = tele + (num * contrib) // den
    return rd.from_arrow(
        pa.table(
            {
                "domain": pa.array(uniq.to_numpy(dtype=object), pa.string()),
                "rank": pa.array(r),
            }
        )
    )


def domain_pagerank(
    edges: rd.Dataset,
    *,
    iters: int = 3,
    scale: int = PR_SCALE,
    damping: tuple[int, int] = (85, 100),
    n_buckets: int | None = None,
    edge_driver_limit: int = 2_000_000,
) -> rd.Dataset:
    """`iters` damped power-iteration rounds over an (src, dst) string
    edge Dataset -> (domain, rank) with rank in integer `scale` units.

    The edge stream folds to DISTINCT weighted (src, dst, w) pairs
    through one corpus-scaled bucket shuffle; everything after runs on
    that folded table, which is node-pair-bounded, not corpus-bounded.
    When it fits under `edge_driver_limit` rows (domain graphs usually
    do: ~10^6 registrable domains cover most corpora) the iteration loop
    runs as driver-side numpy over integer codes — identical arithmetic,
    zero per-round shuffles.  Above the limit the loop stays fully
    dataset-side (per round: one bucketed hash join of ranks onto edges,
    one contribution groupby, one left join back onto nodes) and the
    driver holds only the node COUNT.  Both paths are the same integer
    fixed-point spec, so results are bit-equal (pinned by the
    bucket-invariance test that forces the distributed path).

    Empty edge sets return an empty typed frame."""
    num, den = int(damping[0]), int(damping[1])
    if not (0 < num < den):
        raise ValueError(f"damping must satisfy 0 < num < den, got {damping}")
    scale = int(scale)

    nb = int(n_buckets) if n_buckets else util.scaled_buckets(edges)

    def add_src_bucket(t: pa.Table) -> pa.Table:
        return t.append_column("_b", _str_buckets(t.column("src"), nb))

    def finalize_bucket(g: pa.Table) -> pa.Table:
        """All rows for this bucket's srcs: exact weights + out-degrees."""
        import pandas as pd

        df = g.select(["src", "dst", "w"]).to_pandas()
        agg = df.groupby(["src", "dst"], sort=False)["w"].sum().reset_index()
        ww = agg.groupby("src", sort=False)["w"].transform("sum")
        return pa.table(
            {
                "src": pa.array(agg["src"], pa.string()),
                "dst": pa.array(agg["dst"], pa.string()),
                "w": pa.array(agg["w"].to_numpy(np.int64)),
                "ww": pa.array(ww.to_numpy(np.int64)),
            }
        )

    pairs = edges.map_batches(_pair_partial, batch_format="pyarrow").map_batches(
        add_src_bucket, batch_format="pyarrow"
    )
    ew = util.bucketed(pairs, "_b", finalize_bucket).materialize()

    empty = pa.table(
        {"domain": pa.array([], pa.string()), "rank": pa.array([], pa.int64())}
    )
    n_edges = ew.count()
    if n_edges == 0:
        return rd.from_arrow(empty)
    if n_edges <= int(edge_driver_limit):
        return _pagerank_folded(ew, int(iters), scale, num, den)

    def node_rows(t: pa.Table) -> pa.Table:
        vs = pa.concat_arrays(
            [
                t.column("src").combine_chunks().cast(pa.string()),
                t.column("dst").combine_chunks().cast(pa.string()),
            ]
        )
        out = pa.table({"v": vs.unique()})
        return out.append_column("_b", _str_buckets(out.column("v"), nb))

    def distinct_bucket(g: pa.Table) -> pa.Table:
        return pa.table({"v": g.column("v").combine_chunks().unique()})

    nodes = util.bucketed(
        ew.map_batches(node_rows, batch_format="pyarrow"), "_b", distinct_bucket
    ).materialize()
    n_nodes = nodes.count()
    if n_nodes == 0:
        return rd.from_arrow(empty)

    r0 = scale // n_nodes
    tele = ((den - num) * scale) // (den * n_nodes)

    def seed_rank(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "v": t.column("v"),
                "r": pa.array(np.full(t.num_rows, r0, np.int64)),
            }
        )

    ranks = nodes.map_batches(seed_rank, batch_format="pyarrow")

    def contrib(t: pa.Table) -> pa.Table:
        """Inner-joined (edge, rank) rows -> per-block (dst, c) partials."""
        import pandas as pd

        r = t.column("r").to_numpy(zero_copy_only=False).astype(np.int64)
        w = t.column("w").to_numpy(zero_copy_only=False).astype(np.int64)
        ww = t.column("ww").to_numpy(zero_copy_only=False).astype(np.int64)
        c = (r * w) // ww
        df = pd.DataFrame({"dst": t.column("dst").to_pandas(), "c": c})
        g = df.groupby("dst", sort=False)["c"].sum().reset_index()
        return pa.table(
            {
                "dst": pa.array(g["dst"], pa.string()),
                "c": pa.array(g["c"].to_numpy(np.int64)),
            }
        )

    def add_dst_bucket(t: pa.Table) -> pa.Table:
        return t.append_column("_b", _str_buckets(t.column("dst"), nb))

    def sum_bucket(g: pa.Table) -> pa.Table:
        import pandas as pd

        df = g.select(["dst", "c"]).to_pandas()
        agg = df.groupby("dst", sort=False)["c"].sum().reset_index()
        return pa.table(
            {
                "dst": pa.array(agg["dst"], pa.string()),
                "c": pa.array(agg["c"].to_numpy(np.int64)),
            }
        )

    for _ in range(int(iters)):
        joined = hash_join(
            ew.select_columns(["src", "dst", "w", "ww"]),
            ranks,
            left_key="src",
            right_key="v",
            right_cols=["r"],
            n_buckets=nb,
        )
        parts = joined.map_batches(contrib, batch_format="pyarrow").map_batches(
            add_dst_bucket, batch_format="pyarrow"
        )
        csum = util.bucketed(parts, "_b", sum_bucket)
        with_c = hash_join(
            nodes,
            csum,
            left_key="v",
            right_key="dst",
            right_cols=["c"],
            how="left",
            n_buckets=nb,
        )

        def update(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            c = pc.fill_null(t.column("c"), 0).cast(pa.int64())
            cv = c.to_numpy(zero_copy_only=False).astype(np.int64)
            r = tele + (num * cv) // den
            return pa.table({"v": t.column("v"), "r": pa.array(r, pa.int64())})

        ranks = with_c.map_batches(update, batch_format="pyarrow").materialize()

    def rename(t: pa.Table) -> pa.Table:
        return pa.table({"domain": t.column("v"), "rank": t.column("r")})

    return ranks.map_batches(rename, batch_format="pyarrow")


def pagerank_oracle_sql(
    source_sql: str,
    *,
    text_col: str = "text",
    iters: int = 3,
    scale: int = PR_SCALE,
    damping: tuple[int, int] = (85, 100),
) -> str:
    """DuckDB replica of link_edges + domain_pagerank over `source_sql`
    (a table name or subquery with `text_col`): regexp_extract_all hosts,
    first-vs-rest edges, then `iters` power-iteration rounds UNROLLED as
    CTE pairs — identical int64 floor-division arithmetic, so
    (domain, rank) hash-match by construction."""
    num, den = int(damping[0]), int(damping[1])
    scale = int(scale)
    ctes = [
        f"""hosts AS (
  SELECT regexp_extract_all({text_col}, '{URL_HOST_PATTERN}', 1) AS hs
  FROM {source_sql}
),
e0 AS (SELECT hs[1] AS s, unnest(hs[2:]) AS d FROM hosts WHERE len(hs) >= 2),
edges AS (SELECT s, d, count(*)::BIGINT AS w FROM e0 GROUP BY s, d),
outw AS (SELECT s, sum(w)::BIGINT AS ww FROM edges GROUP BY s),
nodes AS (SELECT s AS v FROM edges UNION SELECT d FROM edges),
nn AS (SELECT count(*)::BIGINT AS n FROM nodes),
r0 AS (SELECT v, (SELECT {scale} // n FROM nn)::BIGINT AS r FROM nodes)"""
    ]
    prev = "r0"
    for t in range(1, int(iters) + 1):
        ctes.append(
            f"""c{t} AS (
  SELECT e.d AS v, sum((r.r * e.w) // o.ww)::BIGINT AS c
  FROM edges e JOIN outw o ON o.s = e.s JOIN {prev} r ON r.v = e.s
  GROUP BY e.d
),
r{t} AS (
  SELECT n.v,
         ((SELECT ({den - num} * {scale}) // ({den} * n) FROM nn)
          + ({num} * coalesce(c.c, 0)) // {den})::BIGINT AS r
  FROM nodes n LEFT JOIN c{t} c ON c.v = n.v
)"""
        )
        prev = f"r{t}"
    return (
        "WITH " + ",\n".join(ctes)
        + f"\nSELECT v AS domain, r AS rank FROM {prev}"
    )


def domain_components(
    edges: rd.Dataset, *, n_buckets: int | None = None
) -> rd.Dataset:
    """Weakly-connected components of the domain link graph ->
    (domain, component) with component = the lexicographically smallest
    domain reachable from it — the "site family" grouping a link-graph
    audit wants next to PageRank (mirror networks, link farms).

    A thin composition: (src, dst) edges feed the shared distributed
    min-label-propagation kernel (dedup.label_propagate_min — pointer
    jumping, fingerprint fixed point, nothing driver-sized)."""

    def to_ab(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "a": t.column("src").combine_chunks().cast(pa.string())
                if isinstance(t.column("src"), pa.ChunkedArray)
                else t.column("src").cast(pa.string()),
                "b": t.column("dst").combine_chunks().cast(pa.string())
                if isinstance(t.column("dst"), pa.ChunkedArray)
                else t.column("dst").cast(pa.string()),
            }
        )

    labels = label_propagate_min(
        edges.map_batches(to_ab, batch_format="pyarrow"),
        pa.string(),
        n_buckets=n_buckets,
    )

    def rename(t: pa.Table) -> pa.Table:
        return pa.table(
            {"domain": t.column("node"), "component": t.column("lab")}
        )

    return labels.map_batches(rename, batch_format="pyarrow")


def components_oracle_sql(
    source_sql: str, *, text_col: str = "text"
) -> str:
    """DuckDB replica of link_edges + domain_components: recursive
    min-label closure over the bidirectional edge set."""
    return f"""
WITH RECURSIVE hosts AS (
  SELECT regexp_extract_all({text_col}, '{URL_HOST_PATTERN}', 1) AS hs
  FROM {source_sql}
),
e0 AS (SELECT hs[1] AS s, unnest(hs[2:]) AS d FROM hosts WHERE len(hs) >= 2),
bidir AS (SELECT s AS a, d AS b FROM e0 UNION SELECT d, s FROM e0),
nodes AS (SELECT a AS v FROM bidir GROUP BY 1),
reach(v, r) AS (
  SELECT v, v FROM nodes
  UNION
  SELECT e.b AS v, reach.r FROM reach JOIN bidir e ON e.a = reach.v
)
SELECT v AS domain, min(r) AS component FROM reach GROUP BY v
"""
