"""IDX parsing and synthetic dataset tests."""

import gzip
import json
import os
import shutil
import struct
import tracemalloc

import numpy as np
import pytest

from fedgrow import cli, datasets, fedsim, nn
from fedgrow.errors import ConfigError, DataFormatError
from fedgrow.rng import stream


@pytest.fixture
def idx_dir(tmp_path):
    train = datasets.make_synthetic(4, (28, 28, 1), 25, stream(0, 1))
    test = datasets.make_synthetic(4, (28, 28, 1), 10, stream(0, 2))
    datasets.save_idx_dataset(tmp_path, train, test)
    return tmp_path


def test_idx_round_trip(idx_dir):
    (train_x, train_y), (test_x, test_y) = datasets.load_idx_dataset(idx_dir)
    assert train_x.shape == (100, 28, 28, 1)
    assert test_x.shape == (40, 28, 28, 1)
    assert train_x.dtype == np.float32
    assert train_y.dtype == np.int64
    assert 0.0 <= train_x.min() and train_x.max() <= 1.0
    # quantization to bytes is the only loss
    orig = datasets.make_synthetic(4, (28, 28, 1), 25, stream(0, 1))[0]
    assert np.abs(train_x - orig).max() <= 0.5 / 255 + 1e-6


def test_full_byte_scales_to_one(tmp_path):
    x = np.ones((2, 4, 4, 1), dtype=np.float32)
    y = np.array([0, 1])
    datasets.save_idx_dataset(tmp_path, (x, y), (x, y))
    (train_x, _), _ = datasets.load_idx_dataset(tmp_path)
    assert train_x.max() == 1.0  # pixel byte 255 -> exactly 1.0


def test_gzip_variant_loads(idx_dir, tmp_path):
    for name in (datasets.TRAIN_IMAGES, datasets.TRAIN_LABELS,
                 datasets.TEST_IMAGES, datasets.TEST_LABELS):
        src = idx_dir / name
        with open(src, "rb") as fh, gzip.open(tmp_path / (name + ".gz"), "wb") as gz:
            shutil.copyfileobj(fh, gz)
    (train_x, train_y), _ = datasets.load_idx_dataset(tmp_path)
    assert train_x.shape == (100, 28, 28, 1)


def test_bad_magic_rejected(idx_dir):
    path = idx_dir / datasets.TRAIN_IMAGES
    data = bytearray(path.read_bytes())
    data[:4] = struct.pack(">I", 1234)
    path.write_bytes(bytes(data))
    with pytest.raises(DataFormatError, match="magic"):
        datasets.load_idx_dataset(idx_dir)


def test_truncated_file_rejected(idx_dir):
    path = idx_dir / datasets.TRAIN_IMAGES
    path.write_bytes(path.read_bytes()[:-100])
    with pytest.raises(DataFormatError, match="truncated"):
        datasets.load_idx_dataset(idx_dir)


def test_count_mismatch_rejected(idx_dir):
    # rewrite the label file with one label too few
    labels = datasets.load_idx_labels(idx_dir / datasets.TRAIN_LABELS)[:-1]
    with open(idx_dir / datasets.TRAIN_LABELS, "wb") as fh:
        fh.write(struct.pack(">II", datasets.IDX_LABEL_MAGIC, len(labels)))
        fh.write(labels.astype(np.uint8).tobytes())
    with pytest.raises(DataFormatError, match="images vs"):
        datasets.load_idx_dataset(idx_dir)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(DataFormatError, match="missing"):
        datasets.load_idx_dataset(tmp_path)


def test_synthetic_deterministic():
    a = datasets.make_synthetic(5, (28, 28, 1), 10, stream(3, 1))
    b = datasets.make_synthetic(5, (28, 28, 1), 10, stream(3, 1))
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_synthetic_validation():
    with pytest.raises(ConfigError):
        datasets.make_synthetic(1, (28, 28, 1), 10, stream(0, 0))
    with pytest.raises(ConfigError):
        datasets.make_synthetic(3, (28, 28, 1), 0, stream(0, 0))
    with pytest.raises(ConfigError, match="sigma must be >= 0, got -0.1"):
        datasets.make_synthetic(3, (28, 28, 1), 10, stream(0, 0), sigma=-0.1)


def _whole_draw_synthetic(classes, dims, per_class, rng, sigma, separation):
    """``make_synthetic`` as one whole-array draw: the reference bits."""
    flat = int(np.prod(dims))
    block = flat // classes
    means = np.full((classes, flat), 0.35, dtype=np.float32)
    for c in range(classes):
        means[c, c * block:(c + 1) * block] += separation * sigma / np.sqrt(2 * block)
    n = classes * per_class
    labels = np.repeat(np.arange(classes), per_class)
    labels = labels[rng.permutation(n)]
    noise = rng.normal(0.0, sigma, size=(n, flat)).astype(np.float32)
    samples = np.clip(means[labels] + noise, 0.0, 1.0)
    return samples.reshape((n,) + tuple(dims)).astype(np.float32), labels.astype(np.int64)


@pytest.mark.parametrize("chunk, classes, dims, per_class", [
    (None, 10, (32, 32, 3), 100),  # fd-cifar10's shape, 85 rows a chunk
    (32, 3, (8, 8, 1), 5),         # an image larger than one chunk: a row a chunk
    (4 * 64, 3, (8, 8, 1), 3),     # 9 rows: one past two 4-row chunks
    (None, 7, (28, 28, 1), 1),     # one sample per class
], ids=["cifar10-shape", "row-over-chunk", "one-past-chunks", "one-per-class"])
def test_synthetic_chunks_have_the_bits_of_one_whole_draw(monkeypatch, chunk, classes,
                                                          dims, per_class):
    if chunk is not None:
        monkeypatch.setattr(datasets, "_SYNTHETIC_CHUNK", chunk)
    x, y = datasets.make_synthetic(classes, dims, per_class, stream(4, 1), 0.3, 5.0)
    ref_x, ref_y = _whole_draw_synthetic(classes, dims, per_class, stream(4, 1), 0.3, 5.0)
    assert x.dtype == np.float32 and y.dtype == np.int64
    assert x.flags.c_contiguous and x.flags.owndata and x.shape == ref_x.shape
    assert x.tobytes() == ref_x.tobytes() and y.tobytes() == ref_y.tobytes()


@pytest.mark.parametrize("chunk, rows", [
    (None, [17, 3, 29, 0, 11]),     # a few rows of one chunk, unsorted
    (4 * 64, list(range(29, -1, -1))),  # every row, reversed, over 4-row chunks
    (4 * 64, [5, 28, 6, 12, 1, 2]),  # rows of several chunks, none from some
], ids=["few-rows", "every-row-reversed", "across-chunks"])
def test_synthetic_keeps_rows_in_the_requested_order(monkeypatch, chunk, rows):
    if chunk is not None:
        monkeypatch.setattr(datasets, "_SYNTHETIC_CHUNK", chunk)
    whole_x, whole_y = datasets.make_synthetic(3, (8, 8, 1), 10, stream(4, 1), 0.3, 5.0)
    seen = []
    x, y = datasets.make_synthetic(3, (8, 8, 1), 10, stream(4, 1), 0.3, 5.0,
                                   lambda labels: seen.append(labels.copy()) or rows)
    assert len(seen) == 1 and seen[0].tobytes() == whole_y.tobytes()
    assert x.flags.c_contiguous and x.flags.owndata
    assert x.tobytes() == whole_x[rows].tobytes() and y.tobytes() == whole_y[rows].tobytes()


def test_synthetic_kept_rows_hold_about_the_result_plus_one_chunk():
    rows = stream(6, 8).permutation(1000)[:500]
    tracemalloc.start()
    try:
        x, y = datasets.make_synthetic(10, (32, 32, 3), 100, stream(6, 7),
                                       keep=lambda labels: rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A chunk's float64 draw beside the float32 block it is built in:
    # 12 bytes an element.
    assert x.shape == (500, 32, 32, 3)
    assert peak < 1.25 * (x.nbytes + y.nbytes) + 12 * datasets._SYNTHETIC_CHUNK


def test_synthetic_splits_share_class_means():
    train_x, train_y = datasets.make_synthetic(3, (8, 8, 1), 400, stream(1, 1))
    test_x, test_y = datasets.make_synthetic(3, (8, 8, 1), 400, stream(2, 2))
    for c in range(3):
        mu_train = train_x[train_y == c].mean(axis=0)
        mu_test = test_x[test_y == c].mean(axis=0)
        assert np.abs(mu_train - mu_test).max() < 0.05


def test_one_layer_model_separates_six_sigma_blobs():
    # Linear separability oracle: a bare dense+softmax model reaches 99%
    # training accuracy within 200 SGD steps.
    x, y = datasets.make_synthetic(2, (28, 28, 1), 200, stream(0, 1))
    arch = nn.ModelArch((28, 28, 1), (nn.flatten(), nn.dense(784, 2), nn.softmax()))
    params = nn.init_params(arch, stream(0, 2))
    cfg = nn.TrainConfig(learning_rate=1.0, batch_size=10)
    r = stream(0, 3)
    for _ in range(200):
        idx = r.integers(0, x.shape[0], 10)
        params, _ = nn.backward_and_step(arch, params, x[idx], y[idx], cfg, r)
    assert fedsim.evaluate(arch, params, x, y) >= 0.99


def _write_idx_images(path, pixels):
    n, rows, cols = pixels.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", datasets.IDX_IMAGE_MAGIC, n, rows, cols))
        fh.write(pixels.astype(np.uint8).tobytes())


@pytest.mark.parametrize("gz", [False, True])
def test_every_byte_loads_to_the_whole_array_formula_across_chunks(tmp_path, monkeypatch, gz):
    monkeypatch.setattr(datasets, "_INGEST_CHUNK", 100)
    pixels = stream(5, 5).permutation(np.tile(np.arange(256), 5)).reshape(20, 8, 8)
    path = tmp_path / "images"
    _write_idx_images(path, pixels)
    if gz:
        with open(path, "rb") as fh, gzip.open(tmp_path / "images.gz", "wb") as out:
            shutil.copyfileobj(fh, out)
        path.unlink()
    images = datasets.load_idx_images(path)
    expect = pixels.astype(np.uint8).astype(np.float32).reshape(20, 8, 8, 1) / 255.0
    assert images.dtype == expect.dtype and images.shape == expect.shape
    assert images.tobytes() == expect.tobytes()


def test_truncation_in_a_later_chunk_reports_the_whole_pixel_section(tmp_path, monkeypatch):
    monkeypatch.setattr(datasets, "_INGEST_CHUNK", 100)
    path = tmp_path / "images"
    _write_idx_images(path, np.zeros((4, 16, 16), dtype=np.uint8))
    path.write_bytes(path.read_bytes()[:16 + 550])
    with pytest.raises(DataFormatError, match=r"truncated .*\(550 of 1024 bytes\)"):
        datasets.load_idx_images(path)


# A header declaring 0xFFFFFFFF images of 255x255 pixels, about 1016 TiB
# of float32, followed by no pixel data.
_HUGE_HEADER = struct.pack(">IIII", datasets.IDX_IMAGE_MAGIC, 0xFFFFFFFF, 255, 255)


@pytest.mark.parametrize("gz", [False, True])
def test_a_header_larger_than_its_file_is_rejected_before_allocating(tmp_path, gz):
    path = tmp_path / "images"
    if gz:
        with gzip.open(tmp_path / "images.gz", "wb") as out:
            out.write(_HUGE_HEADER)
    else:
        path.write_bytes(_HUGE_HEADER)
    with pytest.raises(DataFormatError, match="declares 4294967295x255x255 pixels"):
        datasets.load_idx_images(path)


def test_cli_reports_a_header_larger_than_its_file(idx_dir, tmp_path, capsys):
    (idx_dir / datasets.TRAIN_IMAGES).write_bytes(_HUGE_HEADER)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dataset": "mnist", "data_dir": str(idx_dir)}))
    out = tmp_path / "never-written"
    assert cli.main(["run", "--config", str(config), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "4294967295x255x255" in err
    assert not out.exists()


@pytest.mark.parametrize("gz", [False, True])
def test_a_label_header_larger_than_its_file_is_rejected_before_reading(
        tmp_path, monkeypatch, gz):
    # 58 bytes: a header declaring 0xFFFFFFFF labels, then 50 of them. No
    # read may ask for more bytes than the file can hold.
    data = struct.pack(">II", datasets.IDX_LABEL_MAGIC, 0xFFFFFFFF) + bytes(50)
    path = tmp_path / "labels"
    if gz:
        with gzip.open(tmp_path / "labels.gz", "wb") as out:
            out.write(data)
        room = (tmp_path / "labels.gz").stat().st_size * 1032
    else:
        path.write_bytes(data)
        room = 50
    read_exact = datasets._read_exact

    def bounded_read_exact(fh, count, *args):
        assert count <= room, f"asked for {count} bytes of {room}"
        return read_exact(fh, count, *args)

    monkeypatch.setattr(datasets, "_read_exact", bounded_read_exact)
    with pytest.raises(DataFormatError, match=f"{path}: header declares 4294967295 labels"):
        datasets.load_idx_labels(path)


def test_image_ingest_holds_about_one_float_copy(tmp_path):
    path = tmp_path / "images"
    _write_idx_images(path, stream(6, 6).integers(0, 256, (3000, 28, 28)))
    tracemalloc.start()
    try:
        images = datasets.load_idx_images(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * images.nbytes + datasets._INGEST_CHUNK


def test_a_full_image_ingest_holds_the_result_plus_one_chunk(tmp_path, monkeypatch):
    # 2000 images of 784 bytes are three chunks: each is dropped before
    # the next one is read.
    monkeypatch.setattr(datasets, "_INGEST_CHUNK", 1 << 19)
    pixels = stream(6, 8).integers(0, 256, (2000, 28, 28)).astype(np.uint8)
    path = tmp_path / "images"
    _write_idx_images(path, pixels)
    tracemalloc.start()
    try:
        images = datasets.load_idx_images(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = pixels.astype(np.float32) / np.float32(255)
    assert images.tobytes() == want.tobytes()
    assert peak < images.nbytes + 1.25 * datasets._INGEST_CHUNK


def test_synthetic_generator_holds_about_one_result_plus_one_chunk():
    tracemalloc.start()
    try:
        x, y = datasets.make_synthetic(10, (32, 32, 3), 100, stream(6, 7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A chunk is drawn in float64: 8 bytes an element.
    assert peak < 1.25 * (x.nbytes + y.nbytes) + 8 * datasets._SYNTHETIC_CHUNK


def _gzip_in_place(path):
    with open(path, "rb") as fh, gzip.open(path.with_name(path.name + ".gz"), "wb") as out:
        shutil.copyfileobj(fh, out)
    path.unlink()


@pytest.mark.parametrize("name", [datasets.TRAIN_IMAGES, datasets.TRAIN_LABELS])
def test_a_cut_gzip_file_is_a_data_format_error(idx_dir, tmp_path, capsys, name):
    for each in (datasets.TRAIN_IMAGES, datasets.TRAIN_LABELS,
                 datasets.TEST_IMAGES, datasets.TEST_LABELS):
        _gzip_in_place(idx_dir / each)
    cut = idx_dir / (name + ".gz")
    data = cut.read_bytes()
    cut.write_bytes(data[:len(data) * 2 // 3])
    with pytest.raises(DataFormatError, match=f"{cut}: corrupt or truncated gzip data"):
        datasets.load_idx_dataset(idx_dir)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dataset": "mnist", "data_dir": str(idx_dir)}))
    out = tmp_path / "never-written"
    assert cli.main(["run", "--config", str(config), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def _count_reads(monkeypatch) -> list[int]:
    """The byte counts the image loader asks of its file, one a read call,
    in order; filled as it reads."""
    sizes = []
    read_exact, preadv = datasets._read_exact, os.preadv

    def counted_read_exact(fh, count, *args):
        sizes.append(count)
        return read_exact(fh, count, *args)

    def counted_preadv(fd, buffers, offset):
        sizes.append(sum(len(b) for b in buffers))
        return preadv(fd, buffers, offset)

    monkeypatch.setattr(datasets, "_read_exact", counted_read_exact)
    monkeypatch.setattr(os, "preadv", counted_preadv)
    return sizes


# 20 rows of 64 bytes; a 200-byte chunk reads 3 whole rows, a 50-byte one 1.
@pytest.mark.parametrize("rows", [[0, 19], [7], list(range(20)), [2, 3, 5, 6, 8, 9, 17],
                                  [1, 5, 11, 18], [*range(2, 9), *range(12, 20)],
                                  [18, 5, 11, 1], list(range(19, -1, -1)),
                                  [9, 2, 17, 3, 8, 6, 5]],
                         ids=["first-and-last", "one-row", "every-row", "chunk-edges",
                              "sparse", "long-runs", "unsorted-sparse", "every-row-reversed",
                              "unsorted-chunk-edges"])
@pytest.mark.parametrize("chunk", [200, 50])
@pytest.mark.parametrize("gz", [False, True])
def test_kept_rows_load_to_the_whole_array_formula(tmp_path, monkeypatch, rows, chunk, gz):
    monkeypatch.setattr(datasets, "_INGEST_CHUNK", chunk)
    pixels = stream(5, 5).permutation(np.tile(np.arange(256), 5)).reshape(20, 8, 8)
    path = tmp_path / "images"
    _write_idx_images(path, pixels)
    if gz:
        _gzip_in_place(path)
    counts = []
    images = datasets.load_idx_images(path, lambda n: counts.append(n) or np.array(rows))
    whole = pixels.astype(np.uint8).astype(np.float32).reshape(20, 8, 8, 1) / 255.0
    expect = whole[np.array(rows)]
    assert counts == [20]
    assert images.dtype == expect.dtype and images.shape == expect.shape
    assert images.flags.c_contiguous and images.tobytes() == expect.tobytes()
    if not gz:
        # With no gap worth reading, the header and the kept rows are all
        # that is read of an uncompressed file.
        monkeypatch.setattr(datasets, "_READ_GAP", 0)
        sizes = _count_reads(monkeypatch)
        assert datasets.load_idx_images(path, lambda n: rows).tobytes() == expect.tobytes()
        assert sizes[0] == 16 and sum(sizes) == 16 + 64 * len(rows)


@pytest.mark.parametrize("keep", [None, lambda n: None], ids=["no-keep", "keep-gives-none"])
def test_a_load_of_every_row_reads_one_chunk_a_call(tmp_path, monkeypatch, keep):
    # 20 rows of 64 bytes; a 200-byte chunk holds 3 rows.
    monkeypatch.setattr(datasets, "_INGEST_CHUNK", 200)
    pixels = stream(5, 9).integers(0, 256, (20, 8, 8))
    path = tmp_path / "images"
    _write_idx_images(path, pixels)
    sizes = _count_reads(monkeypatch)
    plain = datasets.load_idx_images(path, keep)
    assert sizes == [16] + [3 * 64] * 6 + [2 * 64]
    _gzip_in_place(path)
    assert datasets.load_idx_images(path, keep).tobytes() == plain.tobytes()


def test_a_kept_load_reads_short_gaps_and_skips_long_ones(tmp_path, monkeypatch):
    # Rows of 784 bytes: a gap of 2 rows (1568 bytes) is read with its
    # neighbours, gaps of 15 and 17 rows are skipped.
    pixels = stream(5, 7).integers(0, 256, (40, 28, 28))
    path = tmp_path / "images"
    _write_idx_images(path, pixels)
    rows = [0, 1, 4, 20, 21, 39]
    sizes = _count_reads(monkeypatch)
    images = datasets.load_idx_images(path, lambda n: rows)
    assert sizes == [16, 5 * 784, 2 * 784, 784]
    want = pixels[rows].astype(np.uint8).astype(np.float32).reshape(6, 28, 28, 1) / 255.0
    assert images.tobytes() == want.tobytes()


def test_keeping_no_rows_converts_every_image(tmp_path):
    pixels = stream(5, 6).integers(0, 256, (9, 4, 4))
    _write_idx_images(tmp_path / "images", pixels)
    whole = datasets.load_idx_images(tmp_path / "images")
    assert datasets.load_idx_images(tmp_path / "images", lambda n: None).tobytes() == \
        whole.tobytes()
    assert datasets.load_idx_images(tmp_path / "images", lambda n: []).shape == (0, 4, 4, 1)


@pytest.mark.parametrize("keep", [None, lambda n: [1]])
def test_images_of_no_pixels_load_empty(tmp_path, keep):
    (tmp_path / "images").write_bytes(struct.pack(">IIII", datasets.IDX_IMAGE_MAGIC, 3, 0, 5))
    images = datasets.load_idx_images(tmp_path / "images", keep)
    assert images.shape == (3 if keep is None else 1, 0, 5, 1)


# Rows to keep of 9 that both sources reject. Rows may come in any order;
# [4, 2, 4] repeats a row that is not next to its repeat.
_BAD_ROWS_OF_9 = [[3, 3], [4, 2, 4], [-1], [9]]


@pytest.mark.parametrize("rows", _BAD_ROWS_OF_9)
def test_rows_to_keep_must_be_sorted_distinct_and_in_range(tmp_path, rows):
    _write_idx_images(tmp_path / "images", np.zeros((9, 4, 4)))
    with pytest.raises(ValueError, match="distinct and in range"):
        datasets.load_idx_images(tmp_path / "images", lambda n: rows)


@pytest.mark.parametrize("rows", _BAD_ROWS_OF_9)
def test_synthetic_rows_to_keep_must_be_distinct_and_in_range(rows):
    with pytest.raises(ValueError, match="distinct and in range"):
        datasets.make_synthetic(3, (4, 4, 1), 3, stream(0, 1), keep=lambda labels: rows)


def test_the_dataset_keeps_the_labels_of_its_kept_images(idx_dir):
    (all_x, all_y), (all_tx, all_ty) = datasets.load_idx_dataset(idx_dir)
    rows = np.array([50, 0, 99, 14, 13])
    (train_x, train_y), (test_x, test_y) = datasets.load_idx_dataset(
        idx_dir, keep_train=lambda labels: rows if labels.size == 100 else None)
    assert train_x.tobytes() == all_x[rows].tobytes()
    assert train_y.dtype == np.int64 and train_y.tobytes() == all_y[rows].tobytes()
    assert test_x.tobytes() == all_tx.tobytes() and test_y.tobytes() == all_ty.tobytes()


def test_kept_image_ingest_holds_the_kept_rows_plus_one_chunk(tmp_path):
    path = tmp_path / "images"
    _write_idx_images(path, stream(6, 6).integers(0, 256, (3000, 28, 28)))
    rows = np.sort(stream(6, 7).choice(3000, size=1000, replace=False))
    tracemalloc.start()
    try:
        images = datasets.load_idx_images(path, lambda n: rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert images.shape == (1000, 28, 28, 1)
    assert peak < 1.25 * images.nbytes + datasets._INGEST_CHUNK


@pytest.mark.parametrize("gz", [False, True])
def test_client_ordered_ingest_holds_the_kept_rows_plus_one_chunk(tmp_path, gz):
    # The rows a run keeps come in client order, unsorted; each is
    # written straight to its place, with no staging copy.
    path = tmp_path / "images"
    pixels = stream(6, 6).integers(0, 256, (3000, 28, 28)).astype(np.uint8)
    _write_idx_images(path, pixels)
    if gz:
        _gzip_in_place(path)
    rows = stream(6, 7).choice(3000, size=1000, replace=False)
    tracemalloc.start()
    try:
        images = datasets.load_idx_images(path, lambda n: rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = pixels[rows].astype(np.float32).reshape(1000, 28, 28, 1) / np.float32(255)
    assert images.tobytes() == want.tobytes()
    assert peak < 1.25 * images.nbytes + datasets._INGEST_CHUNK


@pytest.mark.parametrize("gz", [False, True])
def test_a_truncated_tail_after_the_last_kept_row_is_rejected(tmp_path, monkeypatch, gz):
    monkeypatch.setattr(datasets, "_INGEST_CHUNK", 100)
    path = tmp_path / "images"
    _write_idx_images(path, np.zeros((4, 16, 16), dtype=np.uint8))
    path.write_bytes(path.read_bytes()[:16 + 900])
    if gz:
        _gzip_in_place(path)
    with pytest.raises(DataFormatError, match=r"truncated .*\(900 of 1024 bytes\)"):
        datasets.load_idx_images(path, lambda n: [0, 1])


@pytest.mark.parametrize("gz", [False, True])
def test_a_header_larger_than_its_file_is_rejected_with_rows_kept(tmp_path, gz):
    path = tmp_path / "images"
    with (gzip.open(tmp_path / "images.gz", "wb") if gz else open(path, "wb")) as out:
        out.write(_HUGE_HEADER)
    with pytest.raises(DataFormatError, match="declares 4294967295x255x255 pixels"):
        datasets.load_idx_images(path, lambda n: [0])


def test_an_image_label_count_mismatch_is_rejected_before_any_row_is_picked(idx_dir):
    labels = datasets.load_idx_labels(idx_dir / datasets.TRAIN_LABELS)[:-1]
    with open(idx_dir / datasets.TRAIN_LABELS, "wb") as fh:
        fh.write(struct.pack(">II", datasets.IDX_LABEL_MAGIC, len(labels)))
        fh.write(labels.astype(np.uint8).tobytes())
    picked = []
    with pytest.raises(DataFormatError, match="100 train images vs 99 labels"):
        datasets.load_idx_dataset(idx_dir, keep_train=lambda labels: picked.append(labels)
                                  or np.arange(0, labels.size, 2))
    assert picked == []
