"""Codec-kernel micro-fixtures with arithmetic goldens + round-trip properties.

Mirrors the reference test strategy (SURVEY.md §5; fixtures from FIXTURES.md
F2): hand-crafted inputs with hand-checkable encodings, then seeded random
round-trip properties per codec x dtype x edge case.
"""

import hashlib
import json

import numpy as np
import pytest

from duckdb_raquet_ray.codecs import fsst, general, intcodec, rowcodec

U64 = np.uint64


class TestBitpack:
    def test_ramp_width4(self):
        # F2 "ramp": [100..115] -> FOR base=100, width=4 bits
        vals = np.arange(100, 116, dtype=np.int64).view(U64)
        blob, desc = intcodec.encode_plane(vals, "for_bitpack", True)
        assert desc["base"] == 100
        assert desc["width"] == 4
        assert len(blob) == 16 * 4 // 8
        out = intcodec.decode_plane(blob, desc)
        np.testing.assert_array_equal(out, vals)

    def test_const_width0(self):
        # F2 "const": [7]*16 -> width 0 after FOR, zero payload bytes
        vals = np.full(16, 7, dtype=np.uint64)
        blob, desc = intcodec.encode_plane(vals, "for_bitpack", False)
        assert desc["width"] == 0
        assert blob == b""
        np.testing.assert_array_equal(intcodec.decode_plane(blob, desc), vals)

    def test_negatives_modular(self):
        # F2 "negmax": int32 extremes survive the modular-FOR round trip
        raw = np.array([-(2**31), 2**31 - 1, 0, -1], dtype=np.int64)
        vals = raw.view(U64)
        blob, desc = intcodec.encode_plane(vals, "for_bitpack", True)
        assert desc["base"] == int(np.int64(-(2**31)).view(U64))
        out = intcodec.decode_plane(blob, desc)
        np.testing.assert_array_equal(out.view(np.int64), raw)

    def test_int64_full_range(self):
        raw = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0], dtype=np.int64)
        vals = raw.view(U64)
        blob, desc = intcodec.encode_plane(vals, "for_bitpack", True)
        out = intcodec.decode_plane(blob, desc)
        np.testing.assert_array_equal(out.view(np.int64), raw)

    def test_empty_and_single(self):
        for raw in ([], [42]):
            vals = np.array(raw, dtype=np.uint64)
            blob, desc = intcodec.encode_plane(vals, "for_bitpack", False)
            np.testing.assert_array_equal(intcodec.decode_plane(blob, desc), vals)


class TestRle:
    def test_runs_golden(self):
        # F2 "runs": [1,1,1,2,2,9,9,9,9] -> runs (1,3),(2,2),(9,4)
        vals = np.array([1, 1, 1, 2, 2, 9, 9, 9, 9], dtype=np.uint64)
        blob, desc = intcodec.encode_plane(vals, "rle", False)
        assert desc["runs"] == 3
        np.testing.assert_array_equal(intcodec.decode_plane(blob, desc), vals)

    def test_const_one_run(self):
        vals = np.full(1000, 7, dtype=np.uint64)
        blob, desc = intcodec.encode_plane(vals, "rle", False)
        assert desc["runs"] == 1
        assert len(blob) < 16
        np.testing.assert_array_equal(intcodec.decode_plane(blob, desc), vals)


class TestDict:
    def test_dict4_golden(self):
        # F2 "dict4": 64 values over {3,17,99,1000} -> card 4, 2-bit codes
        rng = np.random.default_rng(42)
        vals = rng.choice([3, 17, 99, 1000], size=64).astype(np.uint64)
        blob, desc = intcodec.encode_plane(vals, "dict", False)
        assert desc["card"] == 4
        assert desc["code_width"] == 2
        np.testing.assert_array_equal(intcodec.decode_plane(blob, desc), vals)


@pytest.mark.parametrize("codec", ["for_bitpack", "rle", "dict"])
@pytest.mark.parametrize("seed", range(8))
def test_plane_roundtrip_property(codec, seed):
    """decode(encode(x)) == x bit-exactly for seeded random planes."""
    rng = np.random.default_rng(seed)
    kind = seed % 4
    n = int(rng.integers(0, 5000))
    if kind == 0:
        raw = rng.integers(-(2**62), 2**62, size=n, dtype=np.int64)
        vals, signed = raw.view(U64), True
    elif kind == 1:
        vals, signed = rng.integers(0, 100, size=n, dtype=np.uint64), False
    elif kind == 2:
        vals, signed = np.repeat(rng.integers(0, 50, size=max(n // 10, 1), dtype=np.uint64), 10)[:n], False
    else:
        raw = rng.integers(-5, 5, size=n, dtype=np.int64)
        vals, signed = raw.view(U64), True
    blob, desc = intcodec.encode_plane(vals, codec, signed)
    np.testing.assert_array_equal(intcodec.decode_plane(blob, desc), vals)


class TestGeneral:
    def test_roundtrip(self):
        data = b"hello world " * 100
        for method in (["zstd"] if general.HAVE_ZSTD else []) + ["zlib", "none"]:
            z = general.compress(data, method)
            assert general.decompress(z, method, len(data)) == data
        assert general.HAVE_ZSTD  # pyarrow ships zstd in this environment


class TestFsst:
    def test_shared_prefix_compresses(self):
        # F2 "strings": shared-prefix doc-ids gain from the symbol table.
        # The vectorized aligned-pair encoder caps at ~2x (every matched
        # cell: 2 bytes -> 1 code) plus the serialized table — the
        # documented trade for a >100 MB/s/core encode.
        data = b"".join(f"web/doc-{i:012d}".encode() for i in range(500))
        blob, desc = fsst.encode_bytes(data)
        assert len(blob) < len(data) * 0.6
        assert fsst.decode_bytes(blob, desc) == data
        assert desc["table_hash"].startswith("sha256:")

    def test_roundtrip_arbitrary_bytes(self):
        rng = np.random.default_rng(7)
        for trial in range(6):
            n = int(rng.integers(0, 4000))
            data = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
            blob, desc = fsst.encode_bytes(data)
            assert fsst.decode_bytes(blob, desc) == data

    def test_roundtrip_ff_literals(self):
        data = b"\xff" * 37 + b"ab\xff\xffcd" + bytes(range(256))
        blob, desc = fsst.encode_bytes(data)
        assert fsst.decode_bytes(blob, desc) == data

    def test_empty(self):
        blob, desc = fsst.encode_bytes(b"")
        assert fsst.decode_bytes(blob, desc) == b""

    def test_deterministic(self):
        data = b"the quick brown fox " * 64
        b1, d1 = fsst.encode_bytes(data)
        b2, d2 = fsst.encode_bytes(data)
        assert b1 == b2 and d1["table_hash"] == d2["table_hash"]


class TestRowcodecDictBucket:
    """Partition-global dictionary bucket (row code 5): rows drawing from
    one shared alphabet must be dictionary-coded, beat the FOR-only
    encoding, and round-trip bit-exactly."""

    @staticmethod
    def _alphabet_plane(rows=400, row_len=64, card=64, seed=7):
        rng = np.random.default_rng(seed)
        alphabet = np.sort(rng.choice(50_000, size=card, replace=False)).astype(np.uint32)
        vals = alphabet[rng.integers(0, card, size=rows * row_len)]
        offsets = np.arange(rows + 1, dtype=np.int64) * row_len
        return vals, offsets, alphabet

    def test_dict_bucket_detected_and_smaller(self):
        plane, offsets, _ = self._alphabet_plane()
        secs, desc = rowcodec.encode_child(plane, offsets, signed=False)
        codes = [b["code"] for b in desc["buckets"]]
        assert rowcodec.DICT_CODE in codes
        secs_no, _ = rowcodec.encode_child(plane, offsets, signed=False, try_dict=False)
        assert sum(len(s) for s in secs) < 0.8 * sum(len(s) for s in secs_no)

    def test_dict_bucket_roundtrip_bitexact(self):
        plane, offsets, _ = self._alphabet_plane()
        secs, desc = rowcodec.encode_child(plane, offsets, signed=False)
        out = rowcodec.decode_child(b"".join(secs), desc, np.diff(offsets))
        np.testing.assert_array_equal(out, plane)

    def test_mixed_dict_and_for_rows_roundtrip(self):
        vals, offsets, alphabet = self._alphabet_plane(rows=100)
        rng = np.random.default_rng(11)
        # append narrow-band rows (w1) and wide random rows (w2, uncovered)
        extra = [rng.integers(1000, 1100, size=50).astype(np.uint32),
                 rng.integers(0, 50_000, size=50).astype(np.uint32)]
        plane = np.concatenate([vals] + extra)
        offs = np.concatenate([offsets, [offsets[-1] + 50, offsets[-1] + 100]])
        secs, desc = rowcodec.encode_child(plane, offs, signed=False)
        codes = {b["code"] for b in desc["buckets"]}
        assert rowcodec.DICT_CODE in codes and len(codes) >= 2
        out = rowcodec.decode_child(b"".join(secs), desc, np.diff(offs))
        np.testing.assert_array_equal(out, plane)

    def test_no_dict_on_uniform_values(self):
        rng = np.random.default_rng(3)
        plane = rng.integers(0, 50_000, size=40_000).astype(np.uint32)
        offsets = np.arange(0, 40_001, 100, dtype=np.int64)
        _, desc = rowcodec.encode_child(plane, offsets, signed=False)
        assert all(b["code"] != rowcodec.DICT_CODE for b in desc["buckets"])

    def test_signed_plane_patterns_roundtrip(self):
        # negative values have patterns >= 2^31: the dict gate must skip
        # them and the FOR path must still round-trip exactly
        vals = np.array([-5, -1, -3] * 500, dtype=np.int32)
        plane = vals.view(np.uint32)
        offsets = np.arange(0, 1501, 3, dtype=np.int64)
        secs, desc = rowcodec.encode_child(plane, offsets, signed=True)
        assert all(b["code"] != rowcodec.DICT_CODE for b in desc["buckets"])
        out = rowcodec.decode_child(b"".join(secs), desc, np.diff(offsets))
        np.testing.assert_array_equal(out, plane)


class TestCorruptStreamBoundaries:
    def test_all_decoders_raise_valueerror_only(self):
        """Fuzz gate across every from-scratch codec: truncations and
        bit flips surface as ValueError/NotImplementedError — the
        _corrupt_boundary wrappers convert raw IndexError/KeyError/
        OverflowError/struct.error/zlib.error at each decode entry."""
        import numpy as np

        from duckdb_raquet_ray.codecs import audiocodec as A
        from duckdb_raquet_ray.codecs import gifcodec as G
        from duckdb_raquet_ray.codecs import imagecodec as I
        from duckdb_raquet_ray.codecs import jpegcodec as J
        from duckdb_raquet_ray.codecs import videocodec as V
        from duckdb_raquet_ray.codecs import webpcodec as W

        rng = np.random.default_rng(5)
        pal = rng.integers(0, 256, (8, 3), np.uint8)
        rgb = pal[rng.integers(0, 8, (16, 16))]
        gray = rng.integers(0, 256, (16, 16), np.uint8)
        samples = [
            (G.gif_encode(rgb), G.gif_decode),
            (G.gif_encode_frames([rgb, rgb], delays_cs=[4, 4]), G.gif_frames),
            (W.webp_encode(rgb), W.webp_decode),
            (W.webp_encode_frames([rgb, rgb]), W.webp_frames),
            (I.png_encode(gray), I.png_decode),
            (
                A.wav_encode(
                    rng.integers(-1000, 1000, 300, np.int64).astype(np.int16), 16000
                ),
                A.wav_decode,
            ),
            (
                V.avi_encode_mjpeg([J.jpeg_encode(gray, 85)] * 2, 16, 16, fps=5),
                V.avi_frames,
            ),
        ]
        for blob, dec in samples:
            for cut in range(10, len(blob), max(1, len(blob) // 15)):
                try:
                    dec(blob[:cut])
                except (ValueError, NotImplementedError, EOFError):
                    pass
            for _ in range(60):
                b = bytearray(blob)
                b[int(rng.integers(0, len(b)))] ^= int(rng.integers(1, 256))
                try:
                    dec(bytes(b))
                except (ValueError, NotImplementedError, EOFError):
                    pass


# ---------------------------------------------------------------------------
# for_rows byte-format pin
# ---------------------------------------------------------------------------

# name -> (plane dtype, signed, alphabet size, row kinds drawn uniformly).
# Row kinds: "e" empty; "0".."4" a residual row whose values span
# exactly _PIN_SPANS[k] above its base (width code k); "a" values drawn from one
# shared alphabet (dict-eligible); "h" that alphabet shifted to just under
# 2^20 (the dict domain bound); "x" wide values outside the alphabet; "L" a
# width-2 row longer than three 4096-token blocks; "b"/"B" width-1/width-2
# rows of exactly 64 tokens, so 64-token blocks end on runs of empty rows.
_PIN_FIXTURES = {
    "widths_u64": (np.uint64, False, 0, "e01234"),
    "dict_w1": (np.uint32, False, 64, "aaaae1x"),
    "dict_w2": (np.uint32, False, 1000, "aaaae1x"),
    "dict_all": (np.uint32, False, 64, "ae"),
    "dict_off": (np.uint32, False, 64, "aaaae1x"),
    "single_w1": (np.uint16, False, 0, "1"),
    "i8": (np.int8, True, 0, "e01"),
    "i32": (np.int32, True, 0, "e0123"),
    "i64": (np.int64, True, 0, "e01234"),
    "long_rows": (np.uint32, False, 64, "a1Le"),
    "edge_empties": (np.uint32, False, 0, "eeebB"),
    "dict_high": (np.uint32, False, 64, "hhhhe1x"),
}
_PIN_SPANS = {"0": 0, "1": 200, "2": 60_000, "3": 1 << 31, "4": 1 << 62}
_PIN_SHAPES = {"L": ("2", 12_300), "b": ("1", 64), "B": ("2", 64)}  # (span kind, length)

# sha256 of b"".join(sections) and of json.dumps(desc, sort_keys=True)
_PIN_SHA = {
    "dict_all": (
        "8977051a557b5b80f3f17ddda6aad6dfa6d71e9561804af027e206743fb7214f",
        "5d0fe63efeca063b2f739077fa6fb89d9689ecc364a18a44aadc5b2660c1abca",
    ),
    "dict_off": (
        "0b0951bb1d4de61b3d8b121b36215e5579e73a64ff30a439bf60251501fe4d62",
        "59a8ce179fe372b8fd6f8a57633c5f249efeb7364e31d888992a81eaee778c0b",
    ),
    "dict_w1": (
        "00d16702432e851dff8dbb28c11c5fc744dc8a6ea15d188c02fefd5e7fed02c9",
        "6fef18c50f7254c1b6455195df9d89249a2666e40ea25c98f1fdd52c6571dfac",
    ),
    "dict_w2": (
        "90baf204de642b032d84cf614613ee01c952e2bce3b7f9888dccb3a9c17410a9",
        "797c4c11ec3c7c419287904f0afc013950c640babf02d8288b1f739b281d3fe6",
    ),
    "i32": (
        "49b3f8300be404c6073cca573a706e2698ce3061549ae34eae5cd3b96cb7e376",
        "41ef402ba14823db0dee48a832c1d073ebecc765c010ef722fa70b63d14d13b0",
    ),
    "i64": (
        "8380cd66396df584d1dd4ee2b33a9433a1d5b517f4c320d5350cf534b9cb5fa1",
        "f47ef2d1a830ba38cb260f5f7678cb06b449a0886af1b9022cbabc274f84713f",
    ),
    "i8": (
        "b2ec2020951e8a077ed2bf5332bf052fd7ff17c1f0400a6002672a2b9a59675c",
        "569ea7b595cdda39f5866ed7beaee81a1791d5a006b8428579b9dd2fbf66cc8f",
    ),
    "single_w1": (
        "42e7bbd4ad0ec45525ef58f3279d2319173c90bedc4a44a915a77cfce6e95272",
        "49be18dda22239a7b29404f2187a658e9bd42bcf9af897a12fea46e2ad5eb48f",
    ),
    "widths_u64": (
        "5551cde3038cc4ced8077a9a3dfd05b78815d3d82d022ed7986387dafa5c2fa7",
        "f0c2c37739b3b5a5c84da9fdd71876a025e67464cb8b34c97a9dabad12d00736",
    ),
    "long_rows": (
        "828634566d5ba70fa83d10b7def3a76ff2a89ef71b67fe55adea22b2597bdecb",
        "6e1fb8f093b2ed2c93cf407faf231b3024280aa845fa24dddb944eaf89d8b63c",
    ),
    "edge_empties": (
        "cb5ff84d16c632b406ba5954e1fdacf24c1c5fc36e3ca39049b06ebdd71e3871",
        "3460ced475e33de28026a1c54ad33b60b1254578a6c8ba4d3de08d2855acce27",
    ),
    "dict_high": (
        "aacd8b87ad841288469cf76cc1603021dc7a395dfbc030d763d7ad31c6eba572",
        "4c0e8d64e186439471a633d06f4fd366795ecbe8ac1d53354c02c5bad983cc5c",
    ),
}


def _for_rows_fixture(name):
    """Seeded (plane, offsets, signed) of a _PIN_FIXTURES entry; the plane
    holds the unsigned bit patterns, as blockcodec.to_plane gives them."""
    dt, signed, card, kinds = _PIN_FIXTURES[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    alphabet = rng.choice(50_000, size=max(card, 1), replace=False)
    info = np.iinfo(dt)
    pieces = []
    for k in rng.choice(list(kinds), size=400):
        if k == "e":
            pieces.append(np.zeros(0, dtype=np.int64))
        elif k == "a":
            pieces.append(alphabet[rng.integers(0, card, size=rng.integers(20, 80))])
        elif k == "h":
            shift = (1 << 20) - 50_000
            pieces.append(shift + alphabet[rng.integers(0, card, size=rng.integers(20, 80))])
        elif k == "x":
            pieces.append(rng.integers(60_000, 1 << 19, size=rng.integers(20, 80)))
        else:
            span_kind, size = _PIN_SHAPES.get(k, (k, None))
            span = _PIN_SPANS[span_kind]
            lo = int(info.min) if signed else 0
            hi = int(info.max) - span if signed else 20_000
            base = int(rng.integers(lo, hi, endpoint=True))
            size = rng.integers(2, 40) if size is None else size
            row = base + rng.integers(0, span, size=size, endpoint=True)
            row[[0, -1]] = base, base + span  # the row's range is exactly span
            pieces.append(row)
    vals = np.concatenate(pieces).astype(dt)
    offsets = np.zeros(len(pieces) + 1, dtype=np.int64)
    np.cumsum([len(p) for p in pieces], out=offsets[1:])
    plane = vals.view(np.dtype(f"u{vals.itemsize}"))
    return plane, offsets, signed


def _pin_encode(name):
    plane, offsets, signed = _for_rows_fixture(name)
    secs, desc = rowcodec.encode_child(plane, offsets, signed, try_dict=name != "dict_off")
    return plane, offsets, b"".join(secs), desc


class TestRowcodecBytePin:
    """The for_rows byte format, pinned by hash on seeded fixtures: any
    kernel rewrite must keep every section and descriptor byte-identical."""

    def test_fixtures_hit_every_format_branch(self):
        def shape(name):
            _, _, _, d = _pin_encode(name)
            return d["pw"], sorted(
                (b["code"], b["plane"]["byte_width"], b["plane"]["n"] == d["n"])
                for b in d["buckets"]
            )

        assert shape("widths_u64") == (8, [(1, 1, False), (2, 2, False), (3, 4, False), (4, 8, False)])
        assert (5, 1, False) in shape("dict_w1")[1]
        assert (5, 2, False) in shape("dict_w2")[1]
        assert shape("dict_all") == (4, [(5, 1, True)])
        assert all(c != 5 for c, _, _ in shape("dict_off")[1])
        assert shape("single_w1") == (2, [(1, 1, True)])
        assert [shape(n)[0] for n in ("i8", "i32", "i64")] == [1, 4, 8]
        assert {c for c, _, _ in shape("i64")[1]} == {1, 2, 3, 4}
        assert (5, 1, False) in shape("dict_high")[1]
        plane, offsets, _ = _for_rows_fixture("dict_high")
        assert (1 << 20) - 5000 < int(plane.max()) < 1 << 20
        lengths = np.diff(_for_rows_fixture("long_rows")[1])
        assert (lengths > 3 * 4096).sum() > 10 and len(shape("long_rows")[1]) == 3
        lengths = np.diff(_for_rows_fixture("edge_empties")[1])
        assert set(lengths.tolist()) == {0, 64} and lengths[-1] == 0
        assert {c for c, _, _ in shape("edge_empties")[1]} == {1, 2}

    @pytest.mark.parametrize("name", sorted(_PIN_FIXTURES))
    def test_bytes_and_descriptor_pinned(self, name):
        _check_pinned(name)

    @pytest.mark.parametrize("name", sorted(_PIN_FIXTURES))
    def test_decode_and_stats_roundtrip(self, name):
        _check_roundtrip(name)

    @pytest.mark.parametrize("block", [1, 3, 64, 4096])
    def test_pins_hold_at_every_block_size(self, block, monkeypatch):
        """Blocks end on row boundaries, so the block size never shows in
        the bytes: every pin and round trip holds at any size, including
        blocks shorter than one row and rows spanning many blocks."""
        monkeypatch.setattr(rowcodec, "_BLOCK", block)
        for name in sorted(_PIN_FIXTURES):
            _check_pinned(name)
            _check_roundtrip(name)

    @pytest.mark.parametrize("block", [1, 3, 64, 4096, 65536])
    def test_pins_hold_on_two_threads(self, block, monkeypatch, two_cpus):
        """In a 2-CPU task the helper thread fills the bucket streams of
        the second half of the blocks, from each bucket's token count in
        the first half's rows: one block (nothing for the helper), odd
        block counts and the dict bucket all give the pinned bytes."""
        monkeypatch.setattr(rowcodec, "_BLOCK", block)
        for name in sorted(_PIN_FIXTURES):
            two_cpus(lambda: _check_pinned(name))


def _check_pinned(name):
    _, _, blob, desc = _pin_encode(name)
    got = (
        hashlib.sha256(blob).hexdigest(),
        hashlib.sha256(json.dumps(desc, sort_keys=True).encode()).hexdigest(),
    )
    assert got == _PIN_SHA[name], name


def _check_roundtrip(name):
    plane, offsets, blob, desc = _pin_encode(name)
    lengths = np.diff(offsets)
    np.testing.assert_array_equal(rowcodec.decode_child(blob, desc, lengths), plane)
    res = rowcodec.stats_child(blob, desc, lengths)
    if res is None:  # the caller then falls back to a full decode
        assert _PIN_FIXTURES[name][1]  # only signed planes may wrap
        return
    ne = lengths > 0
    v = plane.astype(np.int64)
    starts = offsets[:-1][ne]
    for got, fn, empty in zip(
        res,
        (np.add, np.minimum, np.maximum),
        (0, np.iinfo(np.int64).max, np.iinfo(np.int64).min),
    ):
        want = np.full(len(lengths), empty, dtype=np.int64)
        want[ne] = fn.reduceat(v, starts)
        np.testing.assert_array_equal(got, want)


def _detect_dict_reference(plane, bases, ranges, codes, offsets):
    """The two-pass detector before the row probes, kept as the oracle:
    candidates by a full lexsort, then a LUT lookup and a per-row coverage
    reduce over every token of every block."""
    n, rows = len(plane), len(codes)
    if n == 0 or rows == 0 or plane.dtype.itemsize > 4:
        return None, 0
    gmax = int(np.max(bases.astype(np.uint64) + ranges.astype(np.uint64)))
    if gmax >= rowcodec._DICT_MAX_PLANE:
        return None, 0
    counts = np.bincount(plane.astype(np.int64), minlength=gmax + 1)
    nz = np.flatnonzero(counts >= rowcodec._DICT_MIN_REPEATS)
    if len(nz) < 2:
        return None, 0
    if len(nz) > rowcodec._DICT_MAX_CARD:
        order = np.lexsort((nz, -counts[nz]))[: rowcodec._DICT_MAX_CARD]
        cand = np.sort(nz[order])
    else:
        cand = nz
    lut = np.zeros(gmax + 1, dtype=bool)
    lut[cand] = True
    lengths = np.diff(offsets)
    wide = np.array([0, 0, 1, 1, 1, 0], dtype=bool)[codes]
    eligible = np.zeros(rows, dtype=bool)
    used = np.zeros(gmax + 1, dtype=bool)
    for r0, r1, t0, t1 in rowcodec._blocks(offsets):
        ne = lengths[r0:r1] > 0
        if not ne.any():
            continue
        fl = lut[plane[t0:t1]]
        el = eligible[r0:r1]
        el[ne] = np.minimum.reduceat(fl, offsets[r0:r1][ne] - t0) & wide[r0:r1][ne]
        if el.any():
            used[plane[t0:t1][np.repeat(el, lengths[r0:r1])]] = True
    hot = np.flatnonzero(used)
    if not eligible.any() or not (2 <= len(hot) <= rowcodec._DICT_MAX_CARD):
        return None, 0
    codes[eligible] = rowcodec.DICT_CODE
    return hot, 1 if len(hot) <= 256 else 2


def _detector_inputs(plane, offsets, signed):
    """(bases, ranges, width codes) as encode_child hands them over."""
    pw = plane.dtype.itemsize
    view = plane.view(intcodec._SIGNED_OF_WIDTH[pw]) if signed else plane
    bases, ranges = rowcodec.row_ranges(view, offsets)
    bases, ranges = bases.view(plane.dtype), ranges.view(plane.dtype)
    return bases, ranges, np.searchsorted(rowcodec._CODE_BOUNDS, ranges).astype(np.uint8)


def _rows_plane(pieces, dt=np.uint32):
    vals = np.concatenate([np.asarray(p, dtype=np.int64) for p in pieces]).astype(dt)
    offsets = np.zeros(len(pieces) + 1, dtype=np.int64)
    np.cumsum([len(p) for p in pieces], out=offsets[1:])
    return vals.view(np.dtype(f"u{vals.itemsize}")), offsets


def _detector_plane(name):
    """Seeded (plane, offsets, signed) for the detector equivalence cases."""
    rng = np.random.default_rng(sum(map(ord, name)))
    alphabet = np.sort(rng.choice(50_000, size=40, replace=False))
    pick = lambda k: alphabet[rng.integers(0, len(alphabet), size=k)]  # noqa: E731
    if name == "probe_pass_mid_fail":
        # every row passes the probes at 0, 16, 32, 48; a third of them
        # hide one value seen once (never a candidate) between probes
        pieces = [pick(64) for _ in range(300)]
        for i, row in enumerate(pieces[::3]):
            row[7 + 8 * (i % 5)] = 60_000 + i
        return (*_rows_plane(pieces), False)
    if name == "empties_and_singles":
        pieces = []
        for k in rng.choice(["e", "1", "a", "x"], size=500):
            size = {"e": 0, "1": 1, "a": int(rng.integers(2, 40)), "x": int(rng.integers(2, 40))}[k]
            pieces.append(rng.integers(0, 50_000, size=size) if k == "x" else pick(size))
        return (*_rows_plane(pieces), False)
    if name == "no_wide_rows":
        pieces = [int(rng.integers(0, 40_000)) + pick(int(rng.integers(0, 30))) % 200
                  for _ in range(400)]
        return (*_rows_plane(pieces), False)
    if name == "one_alphabet":
        pieces = [pick(int(rng.integers(0, 100))) for _ in range(400)]
        return (*_rows_plane(pieces), False)
    if name == "ties_at_cutoff":
        # 6,000 values repeated 4-6 times: the 4096th count is shared by
        # values on both sides of the cut, so the tie rule picks the table
        vals = np.repeat(np.arange(6000) * 8, rng.integers(4, 7, size=6000))
        rng.shuffle(vals)
        return (*_rows_plane(np.split(vals, np.arange(3, len(vals), 3))), False)
    if name == "gmax_near_bound":
        top = rowcodec._DICT_MAX_PLANE - 1
        alphabet = np.append(rng.choice(np.arange(top - 5000, top), size=39, replace=False), top)
        pieces = [alphabet[rng.integers(0, 40, size=int(rng.integers(0, 60)))] for _ in range(400)]
        pieces += [rng.integers(60_000, 1 << 19, size=20) for _ in range(50)]
        return (*_rows_plane(pieces), False)
    if name == "signed_nonneg_i32":
        pieces = [pick(int(rng.integers(0, 60))) for _ in range(300)]
        pieces += [rng.integers(60_000, 1 << 19, size=20) for _ in range(50)]
        return (*_rows_plane(pieces, np.int32), True)
    if name == "signed_negative_i32":
        pieces = [pick(int(rng.integers(0, 60))) - 30_000 for _ in range(300)]
        return (*_rows_plane(pieces, np.int32), True)
    if name == "signed_i16":
        pieces = [pick(int(rng.integers(0, 60))) // 2 for _ in range(300)]
        return (*_rows_plane(pieces, np.int16), True)
    return _for_rows_fixture(name)


_DETECTOR_PLANES = [
    "probe_pass_mid_fail", "empties_and_singles", "no_wide_rows", "one_alphabet",
    "ties_at_cutoff", "gmax_near_bound", "signed_nonneg_i32", "signed_negative_i32",
    "signed_i16",
] + sorted(_PIN_FIXTURES)


def _both_detectors(name):
    plane, offsets, signed = _detector_plane(name)
    bases, ranges, codes = _detector_inputs(plane, offsets, signed)
    got_codes, want_codes = codes.copy(), codes.copy()
    got = rowcodec._detect_dict(plane, bases, ranges, got_codes, offsets)
    want = _detect_dict_reference(plane, bases, ranges, want_codes, offsets)
    return got, got_codes, want, want_codes


class TestDetectDictEquivalence:
    """The probing detector finds the same (table, code width, codes) as
    the full two-pass check on every plane shape, at any block size."""

    @pytest.mark.parametrize("block", [1, 3, 64, 4096, rowcodec._BLOCK])
    @pytest.mark.parametrize("name", _DETECTOR_PLANES)
    def test_matches_reference(self, name, block, monkeypatch):
        monkeypatch.setattr(rowcodec, "_BLOCK", block)
        (hot, w), codes, (want_hot, want_w), want_codes = _both_detectors(name)
        assert w == want_w
        assert (hot is None) == (want_hot is None)
        if hot is not None:
            np.testing.assert_array_equal(hot, want_hot)
        np.testing.assert_array_equal(codes, want_codes)

    def test_planes_reach_their_cases(self):
        """Each hand-built plane exercises what its name says."""
        found = {}
        for name in _DETECTOR_PLANES[:9]:
            (hot, w), codes, _, _ = _both_detectors(name)
            found[name] = (hot, w, int((codes == rowcodec.DICT_CODE).sum()))
        assert found["probe_pass_mid_fail"][2] == 200  # the 100 planted rows fail
        assert found["empties_and_singles"][1] == 1
        assert found["no_wide_rows"][0] is None
        assert found["one_alphabet"][1] == 1
        assert found["ties_at_cutoff"][1] == 2
        assert found["gmax_near_bound"][0][-1] == rowcodec._DICT_MAX_PLANE - 1
        assert found["signed_nonneg_i32"][1] == 1
        assert found["signed_negative_i32"][0] is None
        assert found["signed_i16"][1] == 1
        # the tie straddles the cut: more values share the 4096th count
        # than the slots left for them
        plane, _, _ = _detector_plane("ties_at_cutoff")
        counts = np.bincount(plane)
        c = np.sort(counts[counts >= rowcodec._DICT_MIN_REPEATS])[::-1]
        t = c[rowcodec._DICT_MAX_CARD - 1]
        assert (c == t).sum() > rowcodec._DICT_MAX_CARD - (c > t).sum() > 0

    def test_all_eligible_gather_is_block_sized(self):
        """When every row qualifies the survivors are the whole plane; they
        are gathered block by block, so the detector's traced peak grows by
        under 2 bytes per added token (one whole-plane int64 index adds 8)."""
        import tracemalloc

        rng = np.random.default_rng(5)
        alphabet = np.sort(rng.choice(50_000, size=64, replace=False)).astype(np.uint32)
        peaks, toks = [], []
        for rows in (8_000, 32_000):
            plane = alphabet[rng.integers(0, 64, size=rows * 64)]
            offsets = np.arange(rows + 1, dtype=np.int64) * 64
            bases, ranges, codes = _detector_inputs(plane, offsets, False)
            tracemalloc.start()
            try:
                hot, _ = rowcodec._detect_dict(plane, bases, ranges, codes, offsets)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert len(hot) == 64 and (codes == rowcodec.DICT_CODE).all()
            toks.append(len(plane))
        assert peaks[1] - peaks[0] < 2 * (toks[1] - toks[0])
