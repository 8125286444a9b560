"""Multimodal columns: image/audio/video as opaque `binary` payloads with
typed metadata; decode / feature-extract / resize / frame-sample as
actor-pool map_batches stages.

IMAGE decode/resize are REAL: codecs/imagecodec.py is a dependency-free
PNG (zlib IDAT) + PPM/PGM codec, codecs/jpegcodec.py a dependency-free
baseline JPEG (SOF0 Huffman + float64 IDCT), and codecs/gifcodec.py a
complete GIF 87a/89a (LZW, interlace, transparency, animation) — the
same dependency-free discipline as the reference's own codecs
(band_encoder.cpp:205-331, band_decoder.cpp:85-154) — so
`ImageDecoder`/`ImageResizer` work on real PNG/JPEG/GIF/WEBP(VP8L)/PPM
payloads with no imaging library installed (codecs/webpcodec.py covers
the full VP8L spec: huffman groups, LZ77+cache, meta-huffman, all four
transforms). AUDIO decode is REAL for WAV (RIFF/PCM,
codecs/audiocodec.py -> `AudioFeaturizer`); VIDEO frame decode is REAL
for MJPEG-AVI (codecs/videocodec.py) and animated GIF.
VP8 LOSSY webp, compressed audio (mp3/ogg) and inter-frame video remain
stubs: those stages
fall back to NotImplementedError unless constructed with ``fake=True`` — a
clearly-marked deterministic fake (features derived from a stable hash
of the payload bytes) that keeps the Ray-side plumbing — schema,
byte-budgeted batch sizing, actor signature, output layout — real and
tested for the formats a container without libav cannot parse.

Batch sizing note (SURVEY.md §7 hard-part 2): payloads are large binaries;
stages size batches by BYTES (suggest_batch_size), not rows, mirroring the
engine's byte-budgeted encode partitions.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from ..codecs import (
    audiocodec,
    gifcodec,
    imagecodec,
    jpegcodec,
    syswebp,
    videocodec,
    webpcodec,
)
from ..state import fsio

MEDIA_SCHEMA = pa.schema(
    [
        pa.field("media_id", pa.string()),
        pa.field("payload", pa.binary()),
        pa.field("mime", pa.string()),
        pa.field("width", pa.int32()),
        pa.field("height", pa.int32()),
        pa.field("n_frames", pa.int32()),
    ]
)

DEFAULT_BATCH_BYTES = 64 * 1024 * 1024


def suggest_batch_size(avg_payload_bytes: int, budget: int = DEFAULT_BATCH_BYTES) -> int:
    """Rows per batch so a batch stays within the byte budget."""
    return max(1, budget // max(avg_payload_bytes, 1))


def _stable_bytes_hash(data: bytes) -> np.ndarray:
    """32 deterministic uint8 features from the payload bytes."""
    return np.frombuffer(hashlib.sha256(data).digest(), dtype=np.uint8)


class ImageDecoder:
    """payload -> (decoded shape, pixel feature vector). REAL for
    PNG/JPEG/GIF/WEBP-VP8L/PPM/PGM (codecs/, no external libraries) and
    for lossy-VP8 webp where the host has a system libwebp
    (codecs/syswebp.py); exotic formats (TIFF, ...) need an imaging
    library and raise unless ``fake=True``. Features: per-strip mean
    intensity over feature_dim contiguous strips of the flattened pixel
    array, scaled to [0, 1] — strip of index i is (i * D) // L, exactly
    replicable in SQL."""

    def __init__(self, fake: bool = False, feature_dim: int = 32):
        self.fake = fake
        self.feature_dim = feature_dim

    def _decode_payload(self, data: bytes) -> np.ndarray:
        if imagecodec.sniff(data) is not None:
            try:
                flat = imagecodec.decode(data).reshape(-1).astype(np.float64)
            except NotImplementedError:
                # sniffed but undecodable on this host (lossy VP8 without
                # system libwebp): honor the fake contract, else re-raise
                if not self.fake:
                    raise
                h = _stable_bytes_hash(data)
                return (
                    np.resize(h, self.feature_dim).astype(np.float32) / 255.0
                )
            d = self.feature_dim
            ids = (np.arange(len(flat)) * d) // max(len(flat), 1)
            sums = np.bincount(ids, weights=flat, minlength=d)
            counts = np.maximum(np.bincount(ids, minlength=d), 1)
            return (sums / counts / 255.0).astype(np.float32)
        if not self.fake:
            raise NotImplementedError(
                "non-PNG/JPEG/PPM image decode (webp, ...) requires an "
                "imaging library (PIL/opencv) not installed in this "
                "container; construct with fake=True for the "
                "deterministic test double"
            )
        h = _stable_bytes_hash(data)
        return np.resize(h, self.feature_dim).astype(np.float32) / 255.0

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        feats = [self._decode_payload(p or b"") for p in payloads]
        flat = np.concatenate(feats) if feats else np.zeros(0, dtype=np.float32)
        offsets = np.arange(0, (len(feats) + 1) * self.feature_dim, self.feature_dim, dtype=np.int32)
        col = pa.ListArray.from_arrays(pa.array(offsets), pa.array(flat, type=pa.float32()))
        return batch.drop_columns(["payload"]).append_column("features", col)


class ImageResizer:
    """payload -> resized payload. REAL for PNG/JPEG/PPM/PGM: decode,
    nearest-neighbor resize (pure index arithmetic), re-encode in the
    source format. Other formats raise unless ``fake=True`` (deterministic
    fake: truncated bytes proportional to the target area)."""

    def __init__(self, target_w: int, target_h: int, fake: bool = False):
        self.target_w = target_w
        self.target_h = target_h
        self.fake = fake

    def _fake_resize(self, p: bytes, w, h) -> bytes:
        # deterministic fake: truncated bytes proportional to the target
        # area; NULL source dims (nullable int32 columns) count as 0
        area = int(w or 0) * int(h or 0)
        scale = (self.target_w * self.target_h) / max(area, 1)
        return p[: max(1, int(len(p) * min(scale, 1.0)))]

    def _resize_payload(self, p: bytes, w: int, h: int) -> bytes:
        kind = imagecodec.sniff(p)
        if kind is not None:
            if kind == "gif":
                frames = gifcodec.gif_frames(p)
                if len(frames) > 1:
                    # resize EVERY frame — a single-frame re-encode would
                    # silently drop the animation's tail
                    resized = [
                        imagecodec.resize_nearest(
                            f["rgb"], self.target_w, self.target_h
                        )
                        for f in frames
                    ]
                    return gifcodec.gif_encode_frames(
                        resized, delays_cs=[f["delay_cs"] for f in frames]
                    )
            try:
                img = imagecodec.decode(p)
            except NotImplementedError:
                # sniffed but undecodable here (lossy VP8 without system
                # libwebp): honor the fake contract, else re-raise — the
                # ImageDecoder rule
                if not self.fake:
                    raise
                return self._fake_resize(p, w, h)
            resized = imagecodec.resize_nearest(img, self.target_w, self.target_h)
            if kind == "png":
                return imagecodec.png_encode(resized)
            if kind == "jpeg":
                return jpegcodec.jpeg_encode(resized)
            if kind == "gif":
                # nearest-neighbor keeps the palette <= 256 by construction
                return gifcodec.gif_encode(resized)
            if kind == "webp":
                if webpcodec.sniff_webp(p) == "vp8" and syswebp.available():
                    # lossy source stays lossy (system codec, reference's
                    # quality-85 default)
                    return syswebp.encode_lossy(resized)
                return webpcodec.webp_encode(resized)
            return imagecodec.ppm_encode(resized)
        if not self.fake:
            raise NotImplementedError(
                "non-PNG/JPEG/PPM resize requires an imaging library; use fake=True"
            )
        return self._fake_resize(p, w, h)

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        widths = batch.column("width").to_pylist()
        heights = batch.column("height").to_pylist()
        out = [
            self._resize_payload(p or b"", w, h)
            for p, w, h in zip(payloads, widths, heights)
        ]
        t = batch.set_column(batch.schema.get_field_index("payload"), "payload", pa.array(out, type=pa.binary()))
        t = t.set_column(t.schema.get_field_index("width"), "width", pa.array([self.target_w] * len(out), type=pa.int32()))
        return t.set_column(t.schema.get_field_index("height"), "height", pa.array([self.target_h] * len(out), type=pa.int32()))


class AudioFeaturizer:
    """audio payload -> integer sample features. REAL for WAV (RIFF/PCM,
    codecs/audiocodec.py — no audio library); other formats (mp3/ogg)
    raise unless ``fake=True``. Features are integer-exact and
    SQL-replicable: n_samples, sample_rate, amp_l1 = sum|s|, and the
    order-pinning amp_checksum = sum((i+1) * s) over the (first-channel)
    sample stream."""

    def __init__(self, fake: bool = False):
        self.fake = fake

    def _features(self, data: bytes) -> tuple[int, int, int, int]:
        if audiocodec.sniff(data):
            s, rate = audiocodec.wav_decode(data)
            if s.ndim == 2:
                s = s[:, 0]
            s = s.astype(np.int64)
            n = len(s)
            return (
                n,
                rate,
                int(np.abs(s).sum()),
                int((s * (np.arange(n, dtype=np.int64) + 1)).sum()),
            )
        if not self.fake:
            raise NotImplementedError(
                "non-WAV audio decode (mp3/ogg/aac) requires an audio "
                "library not installed in this container; construct with "
                "fake=True for the deterministic test double"
            )
        h = _stable_bytes_hash(data).astype(np.int64)
        return len(data), 0, int(h.sum()), int((h * (np.arange(32) + 1)).sum())

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats = [
            self._features(p or b"") for p in batch.column("payload").to_pylist()
        ]
        cols = list(zip(*feats)) if feats else ([], [], [], [])
        return (
            batch.drop_columns(["payload"])
            .append_column("n_samples", pa.array(cols[0], pa.int64()))
            .append_column("sample_rate", pa.array(cols[1], pa.int64()))
            .append_column("amp_l1", pa.array(cols[2], pa.int64()))
            .append_column("amp_checksum", pa.array(cols[3], pa.int64()))
        )


class AudioVad:
    """audio payload -> integer voice-activity segmentation. REAL for WAV
    (RIFF/PCM, codecs/audiocodec.py); other formats raise unless
    ``fake=True`` (the AudioFeaturizer discipline). A frame of `frame`
    samples is ACTIVE iff sum(|s|) >= threshold * frame_len (an integer
    mean-|amplitude| gate that stays fair for the partial last frame);
    segments are maximal runs of active frames. Outputs are
    integer-exact and SQL-replicable:

    - n_frames      ceil(n_samples / frame)
    - n_active      active frame count
    - n_segments    maximal active runs
    - vad_checksum  sum over segments of ((start_frame+1)*1048573 + len)
                    — pins every segment boundary, not just the counts.
    """

    def __init__(self, frame: int = 256, threshold: int = 16_384, fake: bool = False):
        if frame < 1:
            raise ValueError(f"frame must be >= 1, got {frame}")
        self.frame = frame
        self.threshold = int(threshold)
        self.fake = fake

    def _vad(self, data: bytes) -> tuple[int, int, int, int]:
        if audiocodec.sniff(data):
            s, _rate = audiocodec.wav_decode(data)
            if s.ndim == 2:
                s = s[:, 0]
            a = np.abs(s.astype(np.int64))
        elif self.fake:
            a = np.abs(_stable_bytes_hash(data).astype(np.int64))
        else:
            raise NotImplementedError(
                "non-WAV audio decode (mp3/ogg/aac) requires an audio "
                "library not installed in this container; construct with "
                "fake=True for the deterministic test double"
            )
        n = len(a)
        if n == 0:
            return 0, 0, 0, 0
        starts = np.arange(0, n, self.frame, dtype=np.int64)
        energy = np.add.reduceat(a, starts)
        flen = np.minimum(starts + self.frame, n) - starts
        active = energy >= self.threshold * flen
        seg_start = active & ~np.concatenate(([False], active[:-1]))
        s0 = np.flatnonzero(seg_start)
        if len(s0):
            # segment end = first inactive frame after the start, else EOF
            inact = np.flatnonzero(~active)
            if len(inact):
                pos = np.searchsorted(inact, s0)
                ends = np.where(
                    pos < len(inact),
                    inact[np.minimum(pos, len(inact) - 1)],
                    len(active),
                )
            else:
                ends = np.full(len(s0), len(active), dtype=np.int64)
            seg_len = ends - s0
            checksum = int(((s0 + 1) * 1048573 + seg_len).sum())
        else:
            checksum = 0
        return len(starts), int(active.sum()), len(s0), checksum

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats = [self._vad(p or b"") for p in batch.column("payload").to_pylist()]
        cols = list(zip(*feats)) if feats else ([], [], [], [])
        return (
            batch.drop_columns(["payload"])
            .append_column("n_frames", pa.array(cols[0], pa.int64()))
            .append_column("n_active", pa.array(cols[1], pa.int64()))
            .append_column("n_segments", pa.array(cols[2], pa.int64()))
            .append_column("vad_checksum", pa.array(cols[3], pa.int64()))
        )


def synthesize_wav_media_table(rows: int, rate: int = 16_000) -> pa.Table:
    """Deterministic REAL WAV corpus: 16-bit mono PCM whose sample i of
    row k is the pure-integer formula

        s(k, i) = ((k*7919 + i*i*31 + i*991) % 65536) - 32768

    with n_samples = 500 + (k % 300). A SQL oracle recomputes the same
    stream from (audio_key, n_samples) via generate_series, so the
    decoder's RIFF parse is the thing under value-check (the
    jpeg/png `pixels`-column pattern, with the formula replacing the
    persisted plane)."""
    ids, payloads, keys, ns = [], [], [], []
    for k in range(rows):
        n = 500 + (k % 300)
        i = np.arange(n, dtype=np.int64)
        s = (k * 7919 + i * i * 31 + i * 991) % 65536 - 32768
        ids.append(f"wav-{k:08d}")
        payloads.append(audiocodec.wav_encode(s, rate))
        keys.append(k)
        ns.append(n)
    return pa.table(
        {
            "media_id": pa.array(ids),
            "payload": pa.array(payloads, type=pa.binary()),
            "mime": pa.array(["audio/wav"] * rows),
            "audio_key": pa.array(keys, pa.int64()),
            "n_samples": pa.array(ns, pa.int64()),
        }
    )


def synthesize_mjpeg_media_table(rows: int, seed: int = 44, side: int = 16) -> pa.Table:
    """Deterministic REAL MJPEG-AVI corpus: each row is an AVI whose
    frames are baseline-JPEG grayscale images; `frame_sums` persists the
    mathematically-forced decode's pixel sum per frame (the jpeg `pixels`
    pattern at video granularity), so a SQL oracle value-checks container
    walk + per-frame JPEG decode end to end."""
    rng = np.random.default_rng(seed)
    ids, payloads, sums, nframes = [], [], [], []
    for i in range(rows):
        n = int(rng.integers(3, 12))
        frames, fsums = [], []
        for _ in range(n):
            img = rng.integers(0, 256, size=(side, side), dtype=np.uint8)
            blob, exp = jpegcodec.jpeg_encode(img, 85, return_expected=True)
            frames.append(blob)
            fsums.append(int(exp.astype(np.int64).sum()))
        ids.append(f"avi-{i:08d}")
        payloads.append(videocodec.avi_encode_mjpeg(frames, side, side))
        sums.append(fsums)
        nframes.append(n)
    return pa.table(
        {
            "media_id": pa.array(ids),
            "payload": pa.array(payloads, type=pa.binary()),
            "mime": pa.array(["video/x-msvideo"] * rows),
            "n_frames": pa.array(nframes, pa.int32()),
            "frame_sums": pa.array(sums, type=pa.list_(pa.int64())),
        }
    )


def synthesize_gif_anim_table(rows: int, seed: int = 45, side: int = 16) -> pa.Table:
    """Deterministic ANIMATED-GIF corpus: each row is a multi-frame GIF
    (full-frame, disposal 1 draw-over), with `frame_sums` persisting each
    composited frame's expected RGB pixel sum computed straight from the
    source palette/index arrays — independent of the LZW/container parse
    the sampler exercises."""
    rng = np.random.default_rng(seed)
    ids, payloads, sums, nframes = [], [], [], []
    for i in range(rows):
        n = int(rng.integers(3, 12))
        ncol = int(rng.integers(2, 32))
        pal = rng.integers(0, 256, size=(ncol, 3), dtype=np.uint8)
        frames, fsums = [], []
        for _ in range(n):
            img = pal[rng.integers(0, ncol, size=(side, side))]
            frames.append(img)
            fsums.append(int(img.astype(np.int64).sum()))
        ids.append(f"agif-{i:08d}")
        payloads.append(gifcodec.gif_encode_frames(frames, delays_cs=[4] * n))
        sums.append(fsums)
        nframes.append(n)
    return pa.table(
        {
            "media_id": pa.array(ids),
            "payload": pa.array(payloads, type=pa.binary()),
            "mime": pa.array(["image/gif"] * rows),
            "n_frames": pa.array(nframes, pa.int32()),
            "frame_sums": pa.array(sums, type=pa.list_(pa.int64())),
        }
    )


def synthesize_webp_anim_table(rows: int, seed: int = 48, side: int = 16) -> pa.Table:
    """Deterministic ANIMATED-WebP corpus: each row is a multi-frame
    VP8X/ANMF stream whose later frames carry only their dirty rect
    (real inter-frame deltas), with `frame_sums` persisting each source
    frame's expected RGB pixel sum — VP8L is lossless and the frames
    replace in place, so composited canvas i must equal source frame i
    exactly, independent of the container/entropy parse under test."""
    rng = np.random.default_rng(seed)
    ids, payloads, sums, nframes = [], [], [], []
    for i in range(rows):
        n = int(rng.integers(3, 10))
        ncol = int(rng.integers(2, 24))
        pal = rng.integers(0, 256, size=(ncol, 3), dtype=np.uint8)
        frames, fsums = [], []
        cur = pal[rng.integers(0, ncol, size=(side, side))]
        for f in range(n):
            if f and f % 2 == 1:
                # delta frame: mutate a small random patch only (small
                # dirty rect through the even-align + offset paths)
                cur = cur.copy()
                y = int(rng.integers(0, side - 4))
                x = int(rng.integers(0, side - 4))
                cur[y : y + 4, x : x + 4] = pal[
                    rng.integers(0, ncol, size=(4, 4))
                ]
            elif f:
                cur = pal[rng.integers(0, ncol, size=(side, side))]
            frames.append(cur)
            fsums.append(int(cur.astype(np.int64).sum()))
        ids.append(f"awebp-{i:08d}")
        payloads.append(webpcodec.webp_encode_frames(frames, durations_ms=[40] * n))
        sums.append(fsums)
        nframes.append(n)
    return pa.table(
        {
            "media_id": pa.array(ids),
            "payload": pa.array(payloads, type=pa.binary()),
            "mime": pa.array(["image/webp"] * rows),
            "n_frames": pa.array(nframes, pa.int32()),
            "frame_sums": pa.array(sums, type=pa.list_(pa.int64())),
        }
    )


def persist_webp_anim_table(rows: int, path: str, seed: int = 48) -> str:
    return _persist_once(path, lambda: synthesize_webp_anim_table(rows, seed))


def synthesize_webp_media_table(rows: int, seed: int = 46, max_side: int = 32) -> pa.Table:
    """Deterministic REAL WebP-VP8L corpus cycling every decode path the
    spec has: literal-only, subtract-green + color cache + LZ77 runs,
    meta-huffman, all 14 predictor modes, color transform, and
    color-indexing with sub-byte packing. `pixels` persists the source
    image — VP8L is lossless, so decode(payload) must reproduce it
    bit-for-bit through whichever transform stack the row used."""
    rng = np.random.default_rng(seed)
    ids, payloads, pixels, widths, heights, mimes = [], [], [], [], [], []
    for i in range(rows):
        w = int(rng.integers(4, max_side + 1))
        h = int(rng.integers(4, max_side + 1))
        variant = i % 6
        if variant in (4, 5):  # low-color for cache/palette variants
            ncol = int(rng.integers(2, 17))
            pal = rng.integers(0, 256, size=(ncol, 3), dtype=np.uint8)
            img = pal[rng.integers(0, ncol, size=(h, w))]
        else:
            img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        if variant == 0:
            payloads.append(webpcodec.webp_encode(img))
        elif variant == 1:
            payloads.append(
                webpcodec.webp_encode(img, subtract_green=True, meta_bits=2)
            )
        elif variant == 2:
            payloads.append(
                webpcodec.webp_encode_transformed(
                    img, predictor_mode=(i // 6) % 14, tile_bits=3
                )
            )
        elif variant == 3:
            payloads.append(
                webpcodec.webp_encode_transformed(
                    img, color_deltas=(16, -16, 8), tile_bits=3
                )
            )
        elif variant == 4:
            payloads.append(
                webpcodec.webp_encode(img, cache_bits=5, use_lz77=True)
            )
        else:
            payloads.append(webpcodec.webp_encode_transformed(img, palette=True))
        ids.append(f"webp-{i:08d}")
        pixels.append(img.reshape(-1).astype(np.int32))
        widths.append(w)
        heights.append(h)
        mimes.append("image/webp")
    return pa.table(
        {
            "media_id": pa.array(ids),
            "payload": pa.array(payloads, type=pa.binary()),
            "mime": pa.array(mimes),
            "width": pa.array(widths, type=pa.int32()),
            "height": pa.array(heights, type=pa.int32()),
            "pixels": pa.array([p.tolist() for p in pixels], type=pa.list_(pa.int32())),
        }
    )


def _persist_once(path: str, build) -> str:
    """Write-once fixture publish (state/fsio.py): both the Ray pipeline
    and the SQL oracle read the SAME rows from disk. One helper for all
    nine persisted media tables — a concurrency/naming fix must not need
    nine synchronized edits."""
    if not fsio.exists(path):
        fsio.publish_table(build(), path)
    return path


def persist_webp_media_table(rows: int, path: str, seed: int = 46) -> str:
    return _persist_once(path, lambda: synthesize_webp_media_table(rows, seed))


def synthesize_webp_lossy_media_table(
    rows: int, seed: int = 47, max_side: int = 40
) -> pa.Table:
    """Deterministic lossy-VP8 WEBP corpus via the system libwebp encoder
    (codecs/syswebp.py), cycling quality levels and image families
    (gradients, block mosaics, low-frequency waves, quantized noise).

    The `pixels` column persists the DECODED ground truth — libwebp's own
    reconstruction, captured at fixture-build time. Lossy decode has no
    independent closed form, so the driver oracle pins the distributed
    decode plumbing (actor batches, schema, strip math) byte-for-byte
    against the reference decoder's output rather than re-deriving pixel
    values; bitstream conformance of the pure-Python codecs is covered
    separately in tests/test_webpcodec.py. Raises RuntimeError where no
    system libwebp exists (the honest-stub environments)."""
    if not syswebp.available():
        raise RuntimeError("lossy webp fixtures need a system libwebp")
    rng = np.random.default_rng(seed)
    qualities = [30.0, 50.0, 75.0, 85.0, 95.0]
    ids, payloads, pixels, widths, heights, mimes = [], [], [], [], [], []
    for i in range(rows):
        w = int(rng.integers(8, max_side + 1))
        h = int(rng.integers(8, max_side + 1))
        y, x = np.mgrid[0:h, 0:w]
        variant = i % 4
        if variant == 0:  # smooth gradient
            a, b = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            img = np.stack(
                [(x * a) % 256, (y * b) % 256, (x * a + y * b) % 256], -1
            ).astype(np.uint8)
        elif variant == 1:  # block mosaic (macroblock-aligned energy)
            img = np.kron(
                rng.integers(0, 256, (max(h // 8, 1), max(w // 8, 1), 3)),
                np.ones((8, 8, 1)),
            )[:h, :w].astype(np.uint8)
        elif variant == 2:  # low-frequency wave
            img = (
                (128 + 80 * np.sin(x / 7.0) * np.cos(y / 5.0))[:, :, None]
                .repeat(3, 2)
                .astype(np.uint8)
            )
        else:  # quantized noise (worst case for the DCT)
            img = (rng.integers(0, 8, (h, w, 3)) * 36).astype(np.uint8)
        payload = syswebp.encode_lossy(img, quality=qualities[i % len(qualities)])
        decoded = syswebp.decode_rgba(payload)
        if (decoded[:, :, 3] == 255).all():  # mirror webp_decode's RGB drop
            decoded = decoded[:, :, :3]
        ids.append(f"webpv8-{i:08d}")
        payloads.append(payload)
        pixels.append(decoded.reshape(-1).astype(np.int32))
        heights.append(decoded.shape[0])
        widths.append(decoded.shape[1])
        mimes.append("image/webp")
    return pa.table(
        {
            "media_id": pa.array(ids),
            "payload": pa.array(payloads, type=pa.binary()),
            "mime": pa.array(mimes),
            "width": pa.array(widths, type=pa.int32()),
            "height": pa.array(heights, type=pa.int32()),
            "pixels": pa.array(
                [p.tolist() for p in pixels], type=pa.list_(pa.int32())
            ),
        }
    )


def persist_webp_lossy_media_table(rows: int, path: str, seed: int = 47) -> str:
    return _persist_once(path, lambda: synthesize_webp_lossy_media_table(rows, seed))


def persist_gif_anim_table(rows: int, path: str, seed: int = 45) -> str:
    return _persist_once(path, lambda: synthesize_gif_anim_table(rows, seed))


def persist_mjpeg_media_table(rows: int, path: str, seed: int = 44) -> str:
    """Write (once) the MJPEG-AVI corpus so both the Ray pipeline and the
    SQL oracle read the SAME rows from disk."""
    return _persist_once(path, lambda: synthesize_mjpeg_media_table(rows, seed))


def persist_wav_media_table(rows: int, path: str) -> str:
    """Write (once) the WAV corpus so both the Ray pipeline and the SQL
    oracle read the SAME rows from disk."""
    return _persist_once(path, lambda: synthesize_wav_media_table(rows))


class VideoFrameFeatures:
    """Motion-image payload -> every k-th frame's integer feature row
    (flat_map shape: one input row -> ceil(n_frames/k) output rows).
    REAL for three containers, dispatched by magic bytes:
    MJPEG-AVI (codecs/videocodec.py walks the RIFF 'movi' list,
    codecs/jpegcodec.py decodes each sampled frame), ANIMATED GIF
    (codecs/gifcodec.py composites every frame honoring disposal), and
    ANIMATED WebP (codecs/webpcodec.py composites VP8L dirty-rect
    frames — a real inter-frame delta format, dependency-free).
    Feature: frame_pixel_sum (sum of the frame's decoded/composited
    uint8 pixels), integer-exact and SQL-replicable against a persisted
    expected column. Inter-frame codecs (H.264/...) raise from the
    codec."""

    def __init__(self, every_k: int = 2):
        self.every_k = every_k

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, fidx, fsum = [], [], []
        for mid, payload in zip(
            batch.column("media_id").to_pylist(),
            batch.column("payload").to_pylist(),
        ):
            payload = payload or b""
            if gifcodec.sniff_gif(payload):
                comp = gifcodec.gif_frames(payload)
                for f in range(0, len(comp), self.every_k):
                    ids.append(mid)
                    fidx.append(f)
                    fsum.append(int(comp[f]["rgb"].astype(np.int64).sum()))
                continue
            if webpcodec.sniff_webp(payload) == "vp8x":
                comp = webpcodec.webp_frames(payload)
                for f in range(0, len(comp), self.every_k):
                    ids.append(mid)
                    fidx.append(f)
                    fsum.append(int(comp[f].astype(np.int64).sum()))
                continue
            frames = videocodec.avi_frames(payload)
            for f in range(0, len(frames), self.every_k):
                px = videocodec.decode_frame(frames[f])
                ids.append(mid)
                fidx.append(f)
                fsum.append(int(px.astype(np.int64).sum()))
        return pa.table(
            {
                "media_id": pa.array(ids, pa.string()),
                "frame_index": pa.array(fidx, pa.int32()),
                "frame_pixel_sum": pa.array(fsum, pa.int64()),
            }
        )


class FrameSampler:
    """video payload -> every k-th frame's feature row (flat_map shape:
    one input row -> n_frames/k output rows). STUB slicing on byte ranges
    for containers the engine can't parse; MJPEG AVI has the REAL
    `VideoFrameFeatures` stage instead."""

    def __init__(self, every_k: int = 10, fake: bool = False):
        self.every_k = every_k
        self.fake = fake

    def __call__(self, batch: pa.Table) -> pa.Table:
        if not self.fake:
            raise NotImplementedError(
                "generic frame sampling requires a video library; MJPEG "
                "AVI is supported for real via VideoFrameFeatures, other "
                "containers need fake=True"
            )
        rows = []
        for r in batch.to_pylist():
            n = max(int(r.get("n_frames") or 0), 0)
            payload = r.get("payload") or b""
            frame_sz = max(1, len(payload) // max(n, 1))
            for f in range(0, n, self.every_k):
                chunk = payload[f * frame_sz : (f + 1) * frame_sz]
                rows.append(
                    {
                        "media_id": r["media_id"],
                        "frame_index": f,
                        "frame_hash": int.from_bytes(hashlib.sha256(chunk).digest()[:8], "little") >> 1,
                    }
                )
        return pa.Table.from_pylist(
            rows,
            schema=pa.schema(
                [("media_id", pa.string()), ("frame_index", pa.int32()), ("frame_hash", pa.int64())]
            ),
        )


def synthesize_media_table(rows: int, seed: int = 42, payload_bytes: int = 4096) -> pa.Table:
    """Deterministic fake media corpus for plumbing tests (no external data).

    Payload bytes are drawn from the printable-ASCII band on purpose: the
    pipeline treats them as opaque ``binary`` either way, but an
    ASCII-valued blob is also a valid UTF-8 string, which lets a SQL
    oracle recompute the deterministic fake-decode hashes
    (``sha256(decode(payload))`` in DuckDB == ``hashlib.sha256(bytes)``)
    and value-check the multimodal plumbing end to end."""
    rng = np.random.default_rng(seed)
    payloads = [
        rng.integers(32, 127, size=payload_bytes, dtype=np.uint8).tobytes() for _ in range(rows)
    ]
    return pa.table(
        {
            "media_id": pa.array([f"m-{i:08d}" for i in range(rows)]),
            "payload": pa.array(payloads, type=pa.binary()),
            "mime": pa.array(["image/fake"] * rows),
            "width": pa.array(rng.integers(64, 1024, size=rows).astype(np.int32)),
            "height": pa.array(rng.integers(64, 1024, size=rows).astype(np.int32)),
            "n_frames": pa.array(rng.integers(1, 100, size=rows).astype(np.int32)),
        }
    )


def persist_media_table(rows: int, path: str, seed: int = 42, payload_bytes: int = 4096) -> str:
    """Write (once) the synthesized media corpus to Parquet so both the Ray
    pipeline and a SQL oracle read the SAME rows from disk."""
    return _persist_once(path, lambda: synthesize_media_table(rows, seed, payload_bytes))


def synthesize_png_media_table(rows: int, seed: int = 42, max_side: int = 48) -> pa.Table:
    """Deterministic REAL-format image corpus (no external data): 8-bit
    grayscale PNGs (random sizes/pixels; alternating scanline filter 0/2
    to exercise both vectorized decode paths) with every 5th row a binary
    PGM instead. The flattened pixel values ride along as an INDEPENDENT
    list<int32> column so a SQL oracle can value-check the real decode
    end to end (decode(payload) must reproduce `pixels` exactly)."""
    rng = np.random.default_rng(seed)
    ids, payloads, pixels, widths, heights, mimes = [], [], [], [], [], []
    for i in range(rows):
        w = int(rng.integers(8, max_side + 1))
        h = int(rng.integers(8, max_side + 1))
        img = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
        if i % 5 == 4:
            payloads.append(imagecodec.ppm_encode(img))
            mimes.append("image/x-portable-graymap")
        else:
            payloads.append(imagecodec.png_encode(img, filter_type=(i % 2) * 2))
            mimes.append("image/png")
        ids.append(f"img-{i:08d}")
        pixels.append(img.reshape(-1).astype(np.int32))
        widths.append(w)
        heights.append(h)
    return pa.table(
        {
            "media_id": pa.array(ids),
            "payload": pa.array(payloads, type=pa.binary()),
            "mime": pa.array(mimes),
            "width": pa.array(widths, type=pa.int32()),
            "height": pa.array(heights, type=pa.int32()),
            "pixels": pa.array([p.tolist() for p in pixels], type=pa.list_(pa.int32())),
        }
    )


def synthesize_jpeg_media_table(rows: int, seed: int = 43, max_side: int = 40) -> pa.Table:
    """Deterministic REAL baseline-JPEG corpus (no external data): a mix
    of grayscale, RGB 4:4:4 and RGB 4:2:0 images at varying qualities.
    The `pixels` column carries the MATHEMATICALLY FORCED decode of the
    exact coefficients the encoder wrote (dequantize -> IDCT -> upsample
    -> JFIF color convert) — what any correct baseline decoder must
    output — so a SQL oracle over `pixels` value-checks the decoder's
    independent parse of the bitstream (Huffman, unstuffing, zigzag, DC
    prediction, MCU interleave) end to end."""
    rng = np.random.default_rng(seed)
    ids, payloads, pixels, widths, heights, mimes = [], [], [], [], [], []
    for i in range(rows):
        w = int(rng.integers(8, max_side + 1))
        h = int(rng.integers(8, max_side + 1))
        quality = int(rng.integers(60, 96))
        if i % 3 == 0:
            img = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
            blob, exp = jpegcodec.jpeg_encode(img, quality, return_expected=True)
        else:
            img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
            blob, exp = jpegcodec.jpeg_encode(
                img, quality, subsample=(i % 3 == 2), return_expected=True
            )
        ids.append(f"jpg-{i:08d}")
        payloads.append(blob)
        pixels.append(exp.reshape(-1).astype(np.int32))
        widths.append(w)
        heights.append(h)
        mimes.append("image/jpeg")
    return pa.table(
        {
            "media_id": pa.array(ids),
            "payload": pa.array(payloads, type=pa.binary()),
            "mime": pa.array(mimes),
            "width": pa.array(widths, type=pa.int32()),
            "height": pa.array(heights, type=pa.int32()),
            "pixels": pa.array([p.tolist() for p in pixels], type=pa.list_(pa.int32())),
        }
    )


def persist_jpeg_media_table(rows: int, path: str, seed: int = 43) -> str:
    """Write (once) the real-JPEG corpus so both the Ray pipeline and the
    SQL oracle read the SAME rows from disk."""
    return _persist_once(path, lambda: synthesize_jpeg_media_table(rows, seed))


def synthesize_progressive_jpeg_media_table(
    rows: int, seed: int = 47, max_side: int = 40
) -> pa.Table:
    """Deterministic PROGRESSIVE-JPEG corpus (SOF2 spectral-selection +
    successive-approximation scans, with every 4th row a MULTI-SCAN
    sequential SOF0 stream — the two layouts the baseline-only decoder
    previously refused). Payloads carry the SAME quantized coefficients
    a baseline encode of the image would, so `pixels` (the forced decode
    of those coefficients) value-checks the full Annex G scan machinery:
    DC/AC first + refinement, EOB runs, per-component non-interleaved
    block grids."""
    rng = np.random.default_rng(seed)
    ids, payloads, pixels, widths, heights, mimes = [], [], [], [], [], []
    for i in range(rows):
        w = int(rng.integers(8, max_side + 1))
        h = int(rng.integers(8, max_side + 1))
        quality = int(rng.integers(60, 96))
        if i % 6 == 5:
            # sparse image: long EOB runs through the eobrun decode paths
            img = np.zeros((h, w), dtype=np.uint8)
            img[rng.integers(0, h), rng.integers(0, w)] = 255
        elif i % 3 == 0:
            img = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
        else:
            img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        enc = (
            jpegcodec.jpeg_encode_multiscan
            if i % 4 == 3
            else jpegcodec.jpeg_encode_progressive
        )
        blob, exp = enc(
            img, quality, subsample=(img.ndim == 3 and i % 3 == 2),
            return_expected=True,
        )
        ids.append(f"pjp-{i:08d}")
        payloads.append(blob)
        pixels.append(exp.reshape(-1).astype(np.int32))
        widths.append(w)
        heights.append(h)
        mimes.append("image/jpeg")
    return pa.table(
        {
            "media_id": pa.array(ids),
            "payload": pa.array(payloads, type=pa.binary()),
            "mime": pa.array(mimes),
            "width": pa.array(widths, type=pa.int32()),
            "height": pa.array(heights, type=pa.int32()),
            "pixels": pa.array([p.tolist() for p in pixels], type=pa.list_(pa.int32())),
        }
    )


def persist_progressive_jpeg_media_table(rows: int, path: str, seed: int = 47) -> str:
    return _persist_once(
        path, lambda: synthesize_progressive_jpeg_media_table(rows, seed)
    )


def synthesize_gif_media_table(rows: int, seed: int = 44, max_side: int = 40) -> pa.Table:
    """Deterministic REAL-GIF corpus (no external data): palette images
    mixing plain, interlaced, transparent and ANIMATED (first-frame
    oracle) streams — the four decode paths codecs/gifcodec.py owns. The
    `pixels` column carries the expected composited first frame computed
    directly from the palette/index arrays with plain numpy gathers —
    independent of the LZW/container parse under test."""
    rng = np.random.default_rng(seed)
    ids, payloads, pixels, widths, heights, mimes = [], [], [], [], [], []
    for i in range(rows):
        w = int(rng.integers(8, max_side + 1))
        h = int(rng.integers(8, max_side + 1))
        ncol = int(rng.integers(2, 64))
        pal = rng.integers(0, 256, size=(ncol, 3), dtype=np.uint8)
        idx = rng.integers(0, ncol, size=(h, w))
        img = pal[idx]
        expected = img
        if i % 4 == 3:
            # animated: first frame is the oracle row (decode() = frame 0)
            img2 = pal[rng.integers(0, ncol, size=(h, w))]
            payloads.append(gifcodec.gif_encode_frames([img, img2], delays_cs=[5, 5]))
        elif i % 4 == 2:
            # transparency: pixels of the chosen FILE-palette index show
            # the background (= file palette entry 0 = the first pixel's
            # color). The expected composite is computed here with plain
            # numpy rank arithmetic — independent of the decoder.
            flat = img.reshape(-1, 3)
            key = (
                flat[:, 0].astype(np.uint32) << 16
                | flat[:, 1].astype(np.uint32) << 8
                | flat[:, 2].astype(np.uint32)
            )
            uniq, first_pos, inv = np.unique(
                key, return_index=True, return_inverse=True
            )
            rank = np.empty(len(uniq), dtype=np.int64)
            rank[np.argsort(first_pos)] = np.arange(len(uniq))
            fidx = rank[inv].reshape(h, w)
            ti = int(fidx.max())
            expected = img.copy()
            expected[fidx == ti] = flat[0]
            payloads.append(gifcodec.gif_encode(img, transparent_index=ti))
        else:
            payloads.append(gifcodec.gif_encode(img, interlace=(i % 4 == 1)))
        ids.append(f"gif-{i:08d}")
        pixels.append(expected.reshape(-1).astype(np.int32))
        widths.append(w)
        heights.append(h)
        mimes.append("image/gif")
    return pa.table(
        {
            "media_id": pa.array(ids),
            "payload": pa.array(payloads, type=pa.binary()),
            "mime": pa.array(mimes),
            "width": pa.array(widths, type=pa.int32()),
            "height": pa.array(heights, type=pa.int32()),
            "pixels": pa.array([p.tolist() for p in pixels], type=pa.list_(pa.int32())),
        }
    )


def persist_gif_media_table(rows: int, path: str, seed: int = 44) -> str:
    return _persist_once(path, lambda: synthesize_gif_media_table(rows, seed))


def persist_png_media_table(rows: int, path: str, seed: int = 42) -> str:
    """Write (once) the real-format image corpus so both the Ray pipeline
    and the SQL oracle read the SAME rows from disk."""
    return _persist_once(path, lambda: synthesize_png_media_table(rows, seed))


def strip_sums_batch(batch: pa.Table, feature_dim: int = 16) -> pa.Table:
    """REAL image decode -> long-form integer strip sums: one row per
    (media_id, strip), strip of flat pixel index i = (i*D)//L — exactly
    replicable in SQL over the independent `pixels` column, which makes
    the PNG/PPM decode itself the thing under test."""
    ids = batch.column("media_id").to_pylist()
    payloads = batch.column("payload").to_pylist()
    d = feature_dim
    out_ids, out_strip, out_sum = [], [], []
    for mid, p in zip(ids, payloads):
        flat = imagecodec.decode(p or b"").reshape(-1).astype(np.int64)
        sids = (np.arange(len(flat)) * d) // max(len(flat), 1)
        sums = np.bincount(sids, weights=flat, minlength=d).astype(np.int64)
        out_ids.extend([mid] * d)
        out_strip.extend(range(d))
        out_sum.extend(sums.tolist())
    return pa.table(
        {
            "media_id": pa.array(out_ids, pa.string()),
            "strip": pa.array(out_strip, pa.int32()),
            "strip_sum": pa.array(out_sum, pa.int64()),
        }
    )


def feature_sums_batch(batch: pa.Table) -> pa.Table:
    """Scalarize fake-decode feature vectors for a SQL oracle: features are
    digest_byte/255 as float32, so rint(f*255) recovers the exact digest
    bytes (relative error <= 255 * 2^-24 << 0.5)."""
    f = batch.column("features").combine_chunks()
    n = batch.num_rows
    arr = np.rint(f.flatten().to_numpy(zero_copy_only=False).astype(np.float64) * 255.0)
    m = arr.astype(np.int64).reshape(n, -1) if n else np.zeros((0, 1), np.int64)
    return pa.table(
        {
            "media_id": batch.column("media_id"),
            "feat_sum": pa.array(m.sum(axis=1), type=pa.int64()),
            "feat_first": pa.array(m[:, 0], type=pa.int64()),
        }
    )
