"""Dataset ingestion: IDX image files and a synthetic stand-in generator.

Both can return their rows in any requested order, such as the client
order of ``fedsim.client_order``: each row is written straight into its
place in the one result array, so no reordered copy is made.
"""

from __future__ import annotations

import gzip
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataFormatError

IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049

# Standard file names inside a dataset directory (optionally .gz).
TRAIN_IMAGES = "train-images-idx3-ubyte"
TRAIN_LABELS = "train-labels-idx1-ubyte"
TEST_IMAGES = "t10k-images-idx3-ubyte"
TEST_LABELS = "t10k-labels-idx1-ubyte"


def _open_maybe_gz(path: Path):
    gz = path.with_name(path.name + ".gz")
    if path.exists():
        return open(path, "rb")
    if gz.exists():
        return gzip.open(gz, "rb")
    raise DataFormatError(f"missing dataset file {path} (or {gz.name})")


# Pixel bytes read at a time, in whole rows (at least one). The loader
# then holds the kept float32 images plus one chunk, or two when it picks
# kept rows out of a chunk it read, not the raw bytes and two float
# copies of every image.
_INGEST_CHUNK = 1 << 20


def _read_exact(fh, count: int, what: str, done: int = 0, total: int = 0) -> bytes:
    """``count`` bytes of ``fh``. When they continue a ``total``-byte
    section of which ``done`` bytes were read, a truncation reports the
    section's byte counts. Errors name the file read, the gzip file for
    a gzip stream, which may also end early or not inflate."""
    try:
        data = fh.read(count)
    except (EOFError, zlib.error, gzip.BadGzipFile) as e:
        raise DataFormatError(f"{fh.name}: corrupt or truncated gzip data while "
                              f"reading {what}: {e}") from e
    if len(data) != count:
        raise DataFormatError(f"{fh.name}: truncated file while reading {what} "
                              f"({done + len(data)} of {total or count} bytes)")
    return data


def _room(fh, header: int) -> int:
    """The bytes after its ``header`` that ``fh`` can hold: the rest of a
    plain file, or what its compressed bytes can inflate to for a gzip
    one (deflate inflates a byte to 1032 at most)."""
    size = os.fstat(fh.fileno()).st_size
    return size * 1032 if isinstance(fh, gzip.GzipFile) else size - header


def _kept(keep, arg, n: int):
    """The rows ``keep(arg)`` asks for, in the order asked: every row of
    ``n`` when ``keep`` or its result is None."""
    rows = None if keep is None else keep(arg)
    return np.arange(n) if rows is None else rows


def _sorted_rows(rows, n: int):
    """(sorted, order) of ``rows``, the rows of ``n`` to return in the order
    to return them: ``sorted`` is ``rows`` in ascending order, and its row
    i is returned as row ``order[i]``. Raises ValueError unless the rows
    are distinct and in range."""
    rows = np.asarray(rows, dtype=np.int64)
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    if rows.size and (rows[0] < 0 or rows[-1] >= n or np.any(np.diff(rows) == 0)):
        raise ValueError(f"rows to keep of {n} must be distinct and in range")
    return rows, order


# A gap of at most this many bytes between two kept rows in one chunk of
# the file is read with them and dropped: a read call of its own costs
# more (about 2 us on a 2-vCPU x86 VM, the time to copy some 13 KB).
_READ_GAP = 1 << 12


def _place(raw, out, dest, done: int) -> int:
    """Write uint8 rows ``raw``, kept rows ``done`` on in file order, into
    float32 ``out``: kept row i goes to row ``dest[i]``. The values are
    exact; the loader divides by 255 once every row is placed. Returns the
    kept row after them."""
    stop = done + len(raw)
    out[dest[done:stop]] = raw
    return stop


def _read_kept_rows(fh, kept, out, dest, step, path, n) -> None:
    """Place rows ``kept`` (sorted) of the ``n`` in uncompressed ``fh``,
    whose pixel section starts at its position, into ``out`` at ``dest``.
    Each run of kept rows (with the short gaps between them, within one
    ``step``-row chunk of the file) is one read at its offset, into a
    buffer of at most ``step`` rows that is placed whenever the next read
    does not fit."""
    pixels, base, size = out.shape[1], fh.tell(), kept.size
    if not size:
        return
    new = np.r_[True, (np.diff(kept) - 1) * pixels > _READ_GAP]
    new[1:] |= np.diff(kept // step) != 0
    starts = np.flatnonzero(new)
    stops = np.r_[starts[1:], size]
    spans = kept[stops - 1] + 1 - kept[starts]  # file rows a read takes
    cap = max(min(step, size), int(spans.max()))
    buf = np.empty((cap, pixels), dtype=np.uint8)
    view, fd = memoryview(buf.reshape(-1)), fh.fileno()
    filled = done = 0  # rows in the buffer, rows placed
    for start, stop, span, row in zip(starts.tolist(), stops.tolist(), spans.tolist(),
                                      kept[starts].tolist()):
        if filled + span > cap:
            done, filled = _place(buf[:filled], out, dest, done), 0
        got = os.preadv(fd, [view[filled * pixels:(filled + span) * pixels]],
                        base + row * pixels)
        if got != span * pixels:
            raise DataFormatError(f"{path}: truncated file while reading pixel data "
                                  f"({row * pixels + got} of {n * pixels} bytes)")
        if span != stop - start:  # gap rows were read: keep only this read's kept rows
            buf[filled:filled + stop - start] = buf[filled + kept[start:stop] - row]
        filled += stop - start
    _place(buf[:filled], out, dest, done)


def load_idx_images(path, keep=None) -> np.ndarray:
    """Big-endian IDX3 images as float32 in [0, 1], shape (n, rows, cols, 1).

    ``keep`` (optional) maps the header's image count n to the distinct
    rows to return, in the order to return them, or to None for all of
    them in file order, the rows ``np.arange(n)``. The result is one
    float32 array with the bits of ``uint8.astype(float32) / 255``, filled
    about ``_INGEST_CHUNK`` bytes of whole rows at a time, each row
    written straight to its place; besides it the load holds one chunk of
    pixel bytes, and a copy of the kept rows picked out of it from a gzip
    file, or when rows between them were read. An uncompressed file, already checked by its
    size, has only its kept rows read, in file order, and the gaps of at
    most ``_READ_GAP`` bytes between them, so a load of every row reads
    one chunk a call; a gzip file is read to the end of its pixel section.
    """
    path = Path(path)
    with _open_maybe_gz(path) as fh:
        magic, n, rows, cols = struct.unpack(">IIII", _read_exact(fh, 16, "header"))
        if magic != IDX_IMAGE_MAGIC:
            raise DataFormatError(f"{path}: bad image magic {magic} "
                                  f"(expected {IDX_IMAGE_MAGIC})")
        room = _room(fh, 16)
        if n * rows * cols > room:
            raise DataFormatError(f"{path}: header declares {n}x{rows}x{cols} pixels: "
                                  f"truncated file ({room} of {n * rows * cols} bytes)")
        # Kept row i, in file order, is returned as row dest[i].
        kept, dest = _sorted_rows(_kept(keep, n, n), n)
        pixels = rows * cols
        images = np.empty((kept.size, rows, cols, 1), dtype=np.float32)
        out = images.reshape(kept.size, pixels)
        step = max(1, _INGEST_CHUNK // max(1, pixels))  # images a chunk
        if not isinstance(fh, gzip.GzipFile):
            _read_kept_rows(fh, kept, out, dest, step, path, n)
        else:
            for start in range(0, n, step):
                stop = min(start + step, n)
                raw = np.frombuffer(_read_exact(fh, (stop - start) * pixels, "pixel data",
                                                start * pixels, n * pixels),
                                    dtype=np.uint8).reshape(stop - start, pixels)
                lo, hi = np.searchsorted(kept, (start, stop))
                _place(raw[kept[lo:hi] - start], out, dest, lo)
                del raw  # before the next chunk is read
    np.divide(out, np.float32(255), out=out)
    return images


def load_idx_labels(path) -> np.ndarray:
    """Big-endian IDX1 labels as int64. A header that declares more labels
    than the file can hold is rejected before they are read."""
    path = Path(path)
    with _open_maybe_gz(path) as fh:
        magic, n = struct.unpack(">II", _read_exact(fh, 8, "header"))
        if magic != IDX_LABEL_MAGIC:
            raise DataFormatError(f"{path}: bad label magic {magic} "
                                  f"(expected {IDX_LABEL_MAGIC})")
        room = _room(fh, 8)
        if n > room:
            raise DataFormatError(f"{path}: header declares {n} labels: "
                                  f"truncated file ({room} of {n} bytes)")
        raw = _read_exact(fh, n, "label data")
    return np.frombuffer(raw, dtype=np.uint8).astype(np.int64)


def _load_idx_split(directory: Path, images: str, labels: str, split: str, keep=None):
    """(x, y) of one split; ``keep`` maps the split's labels to the rows to
    return, as in ``load_idx_images``, called once the image count matches
    the label count."""
    y = load_idx_labels(directory / labels)
    kept = None

    def rows(n):
        nonlocal kept
        if n != y.shape[0]:
            raise DataFormatError(f"{directory}: {n} {split} images vs {y.shape[0]} labels")
        kept = _kept(keep, y, n)
        return kept

    x = load_idx_images(directory / images, rows)
    return x, y[kept]


def load_idx_dataset(directory, keep_train=None):
    """Load the four standard IDX files from ``directory``.

    Returns ((train_x, train_y), (test_x, test_y)); raises
    DataFormatError on missing/corrupt files or image/label count
    mismatches. ``keep_train`` (optional) maps the training labels, which
    load first, to the distinct training rows to return, in the order to
    return them, or to None for all in file order; only those images are
    converted, each straight into its place.
    """
    directory = Path(directory)
    return (_load_idx_split(directory, TRAIN_IMAGES, TRAIN_LABELS, "train", keep_train),
            _load_idx_split(directory, TEST_IMAGES, TEST_LABELS, "test"))


def save_idx_dataset(directory, train, test) -> None:
    """Write (x, y) pairs as the four standard IDX files (uncompressed)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for (x, y), img_name, lab_name in (
            (train, TRAIN_IMAGES, TRAIN_LABELS),
            (test, TEST_IMAGES, TEST_LABELS)):
        x8 = np.clip(np.asarray(x) * 255.0, 0, 255).round().astype(np.uint8)
        n, rows, cols = x8.shape[0], x8.shape[1], x8.shape[2]
        with open(directory / img_name, "wb") as fh:
            fh.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, rows, cols))
            fh.write(x8.tobytes())
        with open(directory / lab_name, "wb") as fh:
            fh.write(struct.pack(">II", IDX_LABEL_MAGIC, n))
            fh.write(np.asarray(y, dtype=np.uint8).tobytes())


# Noise elements ``make_synthetic`` draws at a time. It then holds the
# float32 result plus one chunk's float64 draw, not a float64 draw twice
# the result's size and two float32 copies. ``Generator.normal`` draws
# element by element, so the chunks give the stream of one whole draw.
_SYNTHETIC_CHUNK = 1 << 18


def make_synthetic(classes: int, dims: tuple[int, int, int], per_class: int,
                   rng: np.random.Generator, sigma: float = 0.1,
                   separation: float = 6.0, keep=None):
    """Gaussian class-blob images, linearly separable by construction.

    Each class brightens its own block of pixels; block amplitude is set
    so any two class means sit ``separation * sigma`` apart, then
    isotropic noise of scale ``sigma`` is added. Returns (samples,
    labels) with samples float32 of shape (classes * per_class, *dims).
    Class means depend only on (classes, dims, sigma, separation), so
    independently generated train/test splits share them.

    ``keep`` (optional) maps the labels, which are drawn first, to the
    distinct rows to return, in the order to return them, or to None for
    all in drawn order, the rows ``np.arange(n)``. Every row is drawn
    either way, so the kept rows have the same bits.

    Rows are built in chunks of about ``_SYNTHETIC_CHUNK`` elements (at
    least one row), each in a float32 block of one chunk, and written from
    it to their places in one float32 result, with the bits of one
    whole-array draw; the peak is about the result plus one chunk.
    """
    if classes < 2:
        raise ConfigError("synthetic dataset needs at least 2 classes")
    if per_class < 1:
        raise ConfigError("synthetic dataset needs per_class >= 1")
    if sigma < 0:
        raise ConfigError(f"synthetic sigma must be >= 0, got {sigma}")
    flat = int(np.prod(dims))
    if classes > flat:
        raise ConfigError(f"{classes} classes do not fit {flat} pixels")
    block = flat // classes
    # || mean_i - mean_j || = amplitude * sqrt(2 * block) for i != j.
    amplitude = separation * sigma / np.sqrt(2 * block)
    base = 0.35
    means = np.full((classes, flat), base, dtype=np.float32)
    for c in range(classes):
        means[c, c * block:(c + 1) * block] += amplitude

    n = classes * per_class
    labels = np.repeat(np.arange(classes, dtype=np.int64), per_class)
    labels = labels[rng.permutation(n)]
    kept = _kept(keep, labels, n)
    dest = np.full(n, -1)  # the row of the result each drawn row goes to; -1 drops it
    drawn, order = _sorted_rows(kept, n)
    dest[drawn] = order
    samples = np.empty((drawn.size,) + tuple(dims), dtype=np.float32)
    rows = samples.reshape(drawn.size, flat)
    step = max(1, _SYNTHETIC_CHUNK // flat)
    block = np.empty((min(step, n), flat), dtype=np.float32)
    for start in range(0, n, step):
        out = block[:min(step, n - start)]
        out[...] = rng.normal(0.0, sigma, size=out.shape)
        out += means[labels[start:start + step]]
        np.clip(out, 0.0, 1.0, out=out)
        at = dest[start:start + step]
        hit = at >= 0
        rows[at[hit]] = out[hit]
    return samples, labels[kept]
