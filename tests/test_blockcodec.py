"""Arrow column <-> blob round-trip tests: every type used in the corpus,
every codec, nulls, lists, edge cases (FIXTURES.md F2 cases on columns)."""

import numpy as np
import pyarrow as pa
import pytest

from duckdb_raquet_ray import blockcodec as bc
from duckdb_raquet_ray.stages import encoder as enc


def roundtrip(arr: pa.Array, choice: dict) -> pa.Array:
    blob, desc = bc.encode_array(arr, choice)
    out = bc.decode_array(blob, desc)
    assert out.type == arr.type, (out.type, arr.type)
    assert out.equals(arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr)
    # the decode stages hand the codecs a view of the stored blob, not bytes
    stored = pa.table({"col_c": pa.array([blob], pa.binary())})
    assert bc.decode_array(enc.blob_view(stored, "c", 0), desc).equals(out)
    return out


PRIM_CODECS = [{"codec": c} for c in ("for_bitpack", "rle", "dict", "plain", "general")]


@pytest.mark.parametrize("choice", PRIM_CODECS)
def test_int_types(choice):
    for t in (pa.int8(), pa.int16(), pa.int32(), pa.int64(), pa.uint8(), pa.uint32(), pa.uint64()):
        rng = np.random.default_rng(1)
        lo, hi = (0, 200) if pa.types.is_unsigned_integer(t) else (-100, 100)
        arr = pa.array(rng.integers(lo, hi, size=500), type=t)
        roundtrip(arr, choice)


@pytest.mark.parametrize("choice", PRIM_CODECS)
def test_int_extremes(choice):
    arr = pa.array([-(2**63), 2**63 - 1, 0, -1, 42], type=pa.int64())
    roundtrip(arr, choice)
    arr = pa.array([0, 2**64 - 1, 17], type=pa.uint64())
    roundtrip(arr, choice)


@pytest.mark.parametrize("choice", PRIM_CODECS)
def test_floats(choice):
    rng = np.random.default_rng(2)
    vals = rng.normal(size=300)
    vals[::17] = np.nan
    vals[::31] = np.inf
    vals[::37] = -0.0
    for t in (pa.float32(), pa.float64()):
        arr = pa.array(vals.astype("float32" if t == pa.float32() else "float64"), type=t)
        blob, desc = bc.encode_array(arr, choice)
        out = bc.decode_array(blob, desc)
        # NaN bit patterns must survive exactly -> compare raw patterns
        a = np.asarray(arr).view(np.uint32 if t == pa.float32() else np.uint64)
        b = np.asarray(out).view(np.uint32 if t == pa.float32() else np.uint64)
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("choice", PRIM_CODECS)
def test_timestamp(choice):
    base = 1_700_000_000_000_000
    arr = pa.array(
        np.array([base, base + 1, base + 10**9, base - 5], dtype="datetime64[us]"),
        type=pa.timestamp("us"),
    )
    roundtrip(arr, choice)


@pytest.mark.parametrize("choice", PRIM_CODECS)
def test_bool(choice):
    arr = pa.array([True, False, True, True, False] * 20, type=pa.bool_())
    roundtrip(arr, choice)


@pytest.mark.parametrize("choice", PRIM_CODECS)
def test_primitive_nulls(choice):
    arr = pa.array([1, None, 3, None, 5, 6, None], type=pa.int32())
    roundtrip(arr, choice)
    arr = pa.array([None] * 5, type=pa.int64())
    roundtrip(arr, choice)


@pytest.mark.parametrize("choice", PRIM_CODECS)
def test_primitive_empty(choice):
    roundtrip(pa.array([], type=pa.int32()), choice)


STR_CODECS = [{"codec": c} for c in ("plain", "general", "fsst", "dict")]


@pytest.mark.parametrize("choice", STR_CODECS)
def test_strings(choice):
    arr = pa.array([f"web/doc-{i:012d}" for i in range(200)] + ["", "x", "αβγ∂"], type=pa.string())
    roundtrip(arr, choice)


@pytest.mark.parametrize("choice", STR_CODECS)
def test_string_nulls_and_empty(choice):
    roundtrip(pa.array(["a", None, "", None, "bcd"], type=pa.string()), choice)
    roundtrip(pa.array([], type=pa.string()), choice)
    roundtrip(pa.array([None, None], type=pa.string()), choice)


@pytest.mark.parametrize("choice", STR_CODECS)
def test_low_cardinality_strings(choice):
    arr = pa.array(["web", "code", "books", "web", "web", "code"] * 50, type=pa.string())
    roundtrip(arr, choice)


def test_binary():
    arr = pa.array([b"\x00\xff\x01", b"", None, b"abc"], type=pa.binary())
    for c in STR_CODECS:
        roundtrip(arr, c)


def test_large_string():
    arr = pa.array(["hello", "world", None], type=pa.large_string())
    roundtrip(arr, {"codec": "plain"})


def test_dict_compresses_low_cardinality():
    arr = pa.array(["web", "code", "books"] * 1000, type=pa.string())
    blob_dict, _ = bc.encode_array(arr, {"codec": "dict"})
    blob_plain, _ = bc.encode_array(arr, {"codec": "plain"})
    assert len(blob_dict) < len(blob_plain) / 3


class TestLists:
    def test_tokens_roundtrip(self):
        rng = np.random.default_rng(42)
        tokens = [rng.integers(0, 50257, size=rng.integers(1, 50)).astype(np.int32).tolist() for _ in range(100)]
        arr = pa.array(tokens, type=pa.list_(pa.int32()))
        for child in ({"codec": "for_bitpack"}, {"codec": "rle"}, {"codec": "dict"}, {"codec": "plain"}, {"codec": "general"}):
            roundtrip(arr, {"codec": "list", "child": child})

    def test_empty_lists_and_nulls(self):
        arr = pa.array([[1, 2], [], None, [3], None, []], type=pa.list_(pa.int32()))
        roundtrip(arr, {"codec": "list", "child": {"codec": "for_bitpack"}})

    def test_float_embedding_lists(self):
        rng = np.random.default_rng(3)
        arr = pa.array([rng.normal(size=16).astype(np.float32).tolist() for _ in range(50)], type=pa.list_(pa.float32()))
        roundtrip(arr, {"codec": "list", "child": {"codec": "general"}})

    def test_child_field_name_preserved(self):
        # embeddings.parquet uses field name "element", not the default "item"
        t = pa.list_(pa.field("element", pa.float32()))
        arr = pa.array([[1.0, 2.0], [3.0]], type=t)
        out = roundtrip(arr, {"codec": "list", "child": {"codec": "plain"}})
        assert out.type.value_field.name == "element"

    def test_list_of_strings(self):
        arr = pa.array([["a", "bb"], ["ccc"], None, []], type=pa.list_(pa.string()))
        roundtrip(arr, {"codec": "list", "child": {"codec": "general"}})


def test_sliced_input_array():
    arr = pa.array(list(range(1000)), type=pa.int64()).slice(100, 300)
    roundtrip(arr, {"codec": "for_bitpack"})
    s = pa.array([f"s{i}" for i in range(500)]).slice(50, 200)
    roundtrip(s, {"codec": "plain"})


def test_chunked_array():
    ca = pa.chunked_array([pa.array([1, 2, 3]), pa.array([4, 5])])
    roundtrip(ca, {"codec": "for_bitpack"})


class TestOneChunk:
    """``one_chunk``: a one-chunk column is coded in place, not copied, and
    every entry point that takes a column gives the ``combine_chunks()``
    output, for several chunks and for one chunk sliced to an offset."""

    @staticmethod
    def _columns():
        rng = np.random.default_rng(17)
        n = 3000
        return {
            "tokens": pa.array(
                [None if rng.random() < 0.05 else rng.integers(0, 50_000, rng.integers(0, 30)).tolist()
                 for _ in range(n)],
                pa.list_(pa.int32()),
            ),
            "source": pa.array(
                [None if rng.random() < 0.1 else f"src-{v}" for v in rng.integers(0, 400, n)]
            ),
            "n_tok": pa.array(
                [None if rng.random() < 0.1 else int(v) for v in rng.integers(-1000, 1000, n)],
                pa.int32(),
            ),
        }

    def test_one_chunk_is_zero_copy(self):
        for arr in self._columns().values():
            got = bc.one_chunk(pa.chunked_array([arr.slice(100)]))
            assert got.offset == 100 and len(got) == len(arr) - 100
            assert [b.address for b in got.buffers() if b is not None] == [
                b.address for b in arr.buffers() if b is not None
            ]
            assert bc.one_chunk(arr) is arr

    @pytest.mark.parametrize("layout", ["three_chunks", "sliced_one_chunk"])
    def test_entry_points_match_combined(self, layout):
        from duckdb_raquet_ray import planner
        from duckdb_raquet_ray.pipelines import transforms as tr
        from duckdb_raquet_ray.stages import encoder

        cols = self._columns()
        def chunks(v):
            return [v[:1200], v[1200:1900], v[1900:]] if layout == "three_chunks" else [v.slice(777)]

        table = pa.table({k: pa.chunked_array(chunks(v)) for k, v in cols.items()})
        combined = pa.table({k: table.column(k).combine_chunks() for k in cols})
        for k in cols:
            col, ref = table.column(k), combined.column(k).chunk(0)
            assert ref.offset == 0
            choice = planner.plan_array(col)
            assert choice == planner.plan_array(ref)
            blob, desc = bc.encode_array(col, choice)
            assert (blob, desc) == bc.encode_array(ref, choice)
            assert bc.decode_array(blob, desc).equals(ref)
        assert encoder.column_stats(table) == encoder.column_stats(combined)
        assert tr.clip_tokens(table, 100, 30_000).equals(tr.clip_tokens(combined, 100, 30_000))
