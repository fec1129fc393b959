import gzip
import hashlib
import struct
from dataclasses import replace

import numpy as np
import pytest

from evoarch import data
from evoarch.data import (
    BadMagic,
    CountMismatch,
    DataError,
    LabelOutOfRange,
    TruncatedFile,
    global_contrast_normalize,
    load_cifar10,
    load_dataset,
    load_mnist,
    pad_and_random_crop,
    resolve_data_dir,
    split_sha256,
    split_train_val,
)
from helpers import (
    build_cifar_dir,
    build_mnist_dir,
    spoil_file,
    write_cifar_batch,
    write_idx_images,
    write_idx_labels,
)


class FixedOffsets:
    """rng stub giving every image of a batch the same (row, column) crop offset."""

    def __init__(self, oy, ox):
        self.offset = (oy, ox)

    def integers(self, lo, hi, size):
        assert size[1] == 2
        return np.tile(self.offset, (size[0], 1))


# ------------------------------------------------------------------- mnist

def test_load_mnist_synthetic(tmp_path):
    build_mnist_dir(tmp_path, n_train=20, n_test=5)
    x, y = load_mnist(tmp_path / "train-images-idx3-ubyte",
                      tmp_path / "train-labels-idx1-ubyte")
    assert x.shape == (20, 1, 28, 28)
    assert x.dtype == np.float32
    assert 0.0 <= x.min() and x.max() <= 1.0
    assert y.shape == (20,)
    assert y.max() < 10


def test_load_mnist_gzip(tmp_path):
    build_mnist_dir(tmp_path, n_train=4, n_test=2)
    for name in ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"):
        raw = (tmp_path / name).read_bytes()
        with gzip.open(tmp_path / (name + ".gz"), "wb") as fh:
            fh.write(raw)
    x, y = load_mnist(tmp_path / "train-images-idx3-ubyte.gz",
                      tmp_path / "train-labels-idx1-ubyte.gz")
    x2, y2 = load_mnist(tmp_path / "train-images-idx3-ubyte",
                        tmp_path / "train-labels-idx1-ubyte")
    assert np.array_equal(x, x2)
    assert np.array_equal(y, y2)


def test_load_mnist_pixel_fidelity(tmp_path):
    img = np.zeros((1, 28, 28), np.uint8)
    img[0, 3, 7] = 255
    img[0, 0, 0] = 128
    write_idx_images(tmp_path / "imgs", img)
    write_idx_labels(tmp_path / "labs", [5])
    x, y = load_mnist(tmp_path / "imgs", tmp_path / "labs")
    assert x[0, 0, 3, 7] == 1.0
    assert x[0, 0, 0, 0] == np.float32(128 / 255)
    assert y[0] == 5


def test_mnist_bad_magic(tmp_path):
    with open(tmp_path / "imgs", "wb") as fh:
        fh.write(struct.pack(">iiii", 0x00000802, 1, 28, 28))
        fh.write(bytes(28 * 28))
    write_idx_labels(tmp_path / "labs", [0])
    with pytest.raises(BadMagic):
        load_mnist(tmp_path / "imgs", tmp_path / "labs")


def test_mnist_truncated(tmp_path):
    build_mnist_dir(tmp_path, n_train=4, n_test=2)
    path = tmp_path / "train-images-idx3-ubyte"
    path.write_bytes(path.read_bytes()[:-100])
    with pytest.raises(TruncatedFile):
        load_mnist(path, tmp_path / "train-labels-idx1-ubyte")


@pytest.mark.parametrize("kind,head", [("images", 16), ("labels", 8)])
def test_mnist_shorter_than_its_header(tmp_path, kind, head):
    write_idx_images(tmp_path / "images", np.zeros((1, 28, 28), np.uint8))
    write_idx_labels(tmp_path / "labels", [0])
    path = tmp_path / kind
    path.write_bytes(path.read_bytes()[:6])
    with pytest.raises(TruncatedFile) as err:
        load_mnist(tmp_path / "images", tmp_path / "labels")
    assert str(err.value) == f"{path}: header needs {head} bytes, file has 6"


def test_mnist_count_mismatch(tmp_path):
    rng = np.random.default_rng(0)
    write_idx_images(tmp_path / "imgs", rng.integers(0, 256, (5, 28, 28), dtype=np.uint8))
    write_idx_labels(tmp_path / "labs", rng.integers(0, 10, 4))
    with pytest.raises(CountMismatch):
        load_mnist(tmp_path / "imgs", tmp_path / "labs")


@pytest.mark.parametrize("label", [10, 200])
def test_mnist_label_out_of_range(tmp_path, label):
    build_mnist_dir(tmp_path, n_train=8, n_test=2)
    labels = tmp_path / "train-labels-idx1-ubyte"
    write_idx_labels(labels, [1, 2, 3, 4, 5, label, 6, 7])
    with pytest.raises(LabelOutOfRange) as err:
        load_mnist(tmp_path / "train-images-idx3-ubyte", labels)
    assert str(err.value) == f"{labels}: record 5 has label {label}"


@pytest.mark.parametrize("kind,sizes", [("images", (-1, 28, 28)), ("images", (1, -28, 28)),
                                        ("images", (1, 28, -28)), ("labels", (-1,))])
def test_mnist_negative_header_sizes(tmp_path, kind, sizes):
    write_idx_images(tmp_path / "images", np.zeros((1, 28, 28), np.uint8))
    write_idx_labels(tmp_path / "labels", [0])
    path = tmp_path / kind
    raw = path.read_bytes()
    magic = raw[:4]
    path.write_bytes(magic + struct.pack(f">{len(sizes)}i", *sizes) + raw[4 + 4 * len(sizes):])
    with pytest.raises(DataError) as err:
        load_mnist(tmp_path / "images", tmp_path / "labels")
    assert str(err.value).startswith(f"{path}: ") and str(sizes) in str(err.value)


@pytest.mark.parametrize("fault", ["not-gzip", "truncated-gzip", "corrupt-gzip", "directory"])
def test_unreadable_dataset_file_is_a_data_error(tmp_path, fault):
    build_mnist_dir(tmp_path, n_train=20, n_test=5)
    path = spoil_file(tmp_path / "train-images-idx3-ubyte", fault)
    with pytest.raises(DataError) as err:
        load_dataset("mnist", str(tmp_path))
    assert str(err.value).startswith(f"{path}: cannot read: ")
    assert "\n" not in str(err.value)


# ----------------------------------------------------------------- cifar10

def test_load_cifar_synthetic(tmp_path):
    build_cifar_dir(tmp_path, per_batch=6, n_test=4)
    d = tmp_path / "cifar-10-batches-bin"
    x, y = load_cifar10([d / f"data_batch_{i}.bin" for i in range(1, 6)])
    assert x.shape == (30, 3, 32, 32)
    assert x.dtype == np.float32
    assert y.shape == (30,)


def test_cifar_channel_major_layout(tmp_path):
    img = np.zeros((1, 3, 32, 32), np.uint8)
    img[0, 2, 0, 0] = 255  # first blue pixel
    write_cifar_batch(tmp_path / "b.bin", img, [7])
    x, y = load_cifar10([tmp_path / "b.bin"])
    assert x[0, 2, 0, 0] == 1.0
    assert x[0, 0, 0, 0] == 0.0
    assert y[0] == 7


def test_cifar_truncated(tmp_path):
    with open(tmp_path / "b.bin", "wb") as fh:
        fh.write(bytes(3072 * 2))  # records are 3073 bytes
    with pytest.raises(TruncatedFile):
        load_cifar10([tmp_path / "b.bin"])


def test_cifar_label_out_of_range(tmp_path):
    img = np.zeros((1, 3, 32, 32), np.uint8)
    write_cifar_batch(tmp_path / "b.bin", img, [12])
    with pytest.raises(LabelOutOfRange):
        load_cifar10([tmp_path / "b.bin"])


# --------------------------------------------------------------------- gcn

def test_gcn_zero_mean_unit_std():
    rng = np.random.default_rng(1)
    x = rng.uniform(size=(10, 3, 8, 8)).astype(np.float32)
    out = global_contrast_normalize(x)
    means = out.mean(axis=(1, 2, 3))
    stds = out.std(axis=(1, 2, 3))
    assert np.abs(means).max() < 1e-6
    assert np.abs(stds - 1).max() < 1e-4


def test_gcn_constant_image_becomes_zero():
    x = np.full((2, 1, 4, 4), 0.7, np.float32)
    assert not global_contrast_normalize(x).any()


def test_gcn_idempotent():
    rng = np.random.default_rng(2)
    x = rng.uniform(size=(5, 3, 8, 8)).astype(np.float32)
    once = global_contrast_normalize(x)
    twice = global_contrast_normalize(once)
    assert np.abs(twice - once).max() < 1e-4


# -------------------------------------------------------------------- crop

def test_crop_center_offset_is_identity():
    rng = np.random.default_rng(3)
    batch = rng.uniform(size=(2, 3, 32, 32)).astype(np.float32)
    out = pad_and_random_crop(batch, 4, FixedOffsets(4, 4))
    assert np.array_equal(out, batch)


def test_crop_top_left_zero_margins():
    batch = np.ones((2, 1, 8, 8), np.float32)
    out = pad_and_random_crop(batch, 4, FixedOffsets(0, 0))
    assert out.shape == (2, 1, 8, 8)
    assert not out[:, :, :4, :].any()
    assert not out[:, :, :, :4].any()
    assert (out[:, :, 4:, 4:] == 1).all()


def test_crop_preserves_shape():
    rng = np.random.default_rng(4)
    batch = rng.uniform(size=(5, 3, 17, 9)).astype(np.float32)
    for _ in range(20):
        out = pad_and_random_crop(batch, 4, rng)
        assert out.shape == batch.shape and out.dtype == batch.dtype


# ------------------------------------------------------------------- split

def test_split_arithmetic():
    rng = np.random.default_rng(5)
    x = rng.uniform(size=(600, 1, 4, 4)).astype(np.float32)
    y = rng.integers(0, 10, 600)
    split = split_train_val(x, y, seed=0)
    assert len(split.train_x) == 540
    assert len(split.val_x) == 60


def test_split_deterministic_and_disjoint():
    # encode each sample's original index in its first pixel
    n = 200
    x = np.zeros((n, 1, 2, 2), np.float32)
    x[:, 0, 0, 0] = np.arange(n)
    y = np.arange(n) % 10
    a = split_train_val(x, y, seed=7)
    b = split_train_val(x, y, seed=7)
    assert np.array_equal(a.train_x, b.train_x)
    assert np.array_equal(a.val_x, b.val_x)
    train_ids = set(a.train_x[:, 0, 0, 0].astype(int))
    val_ids = set(a.val_x[:, 0, 0, 0].astype(int))
    assert not train_ids & val_ids
    assert train_ids | val_ids == set(range(n))


def test_split_subset_truncates_before_shuffle():
    n = 100
    x = np.zeros((n, 1, 2, 2), np.float32)
    x[:, 0, 0, 0] = np.arange(n)
    y = np.arange(n) % 10
    split = split_train_val(x, y, seed=3, subset_n=50)
    used = set(split.train_x[:, 0, 0, 0].astype(int)) | set(split.val_x[:, 0, 0, 0].astype(int))
    assert used == set(range(50))
    assert len(split.train_x) == 45
    assert len(split.val_x) == 5


@pytest.mark.parametrize("subset_n", [0, -5])
def test_split_refuses_a_subset_below_one(subset_n):
    x, y = np.zeros((64, 1, 2, 2), np.float32), np.arange(64) % 10
    with pytest.raises(ValueError, match=f"subset_n must be positive, got {subset_n}"):
        split_train_val(x, y, subset_n=subset_n)


@pytest.mark.parametrize("subset_n", [2.5, True, "8"])
def test_split_refuses_a_subset_that_is_not_an_integer(subset_n):
    x, y = np.zeros((64, 1, 2, 2), np.float32), np.arange(64) % 10
    with pytest.raises(ValueError, match=f"^subset_n must be an integer, got {subset_n!r}$"):
        split_train_val(x, y, subset_n=subset_n)


def test_split_refuses_images_and_labels_of_different_counts():
    x, y = np.zeros((10, 1, 2, 2), np.float32), np.arange(5)
    with pytest.raises(ValueError, match="^10 images but 5 labels$"):
        split_train_val(x, y)


# ----------------------------------------------------------- load_dataset

def test_load_dataset_mnist(tmp_path):
    build_mnist_dir(tmp_path, n_train=40, n_test=10)
    split = load_dataset("mnist", str(tmp_path))
    assert split.input_shape == (1, 28, 28)
    assert len(split.train_x) == 36
    assert len(split.val_x) == 4
    assert len(split.test_x) == 10
    assert split.preprocessing == "scale"
    assert split.augment == "none"
    assert not hasattr(split, "seed")


def test_load_dataset_cifar(tmp_path):
    build_cifar_dir(tmp_path, per_batch=8, n_test=8)
    split = load_dataset("cifar10", str(tmp_path))
    assert split.input_shape == (3, 32, 32)
    assert len(split.train_x) == 36
    assert len(split.val_x) == 4
    assert split.preprocessing == "gcn"
    assert split.augment == "pad_crop4"
    means = split.train_x.mean(axis=(1, 2, 3))
    assert np.abs(means).max() < 1e-5


def test_load_dataset_cifar_subset_normalizes_kept_records(tmp_path, monkeypatch):
    build_cifar_dir(tmp_path, per_batch=8, n_test=8)
    raw_x, raw_y = load_cifar10(
        [tmp_path / "cifar-10-batches-bin" / f"data_batch_{i}.bin" for i in range(1, 6)]
    )
    want = split_train_val(global_contrast_normalize(raw_x[:20]), raw_y[:20], seed=3)
    normalized = []

    def spy(images):
        normalized.append(len(images))
        return global_contrast_normalize(images)

    monkeypatch.setattr(data, "global_contrast_normalize", spy)
    split = load_dataset("cifar10", str(tmp_path), subset_n=20, seed=3)
    for name in ("train_x", "train_y", "val_x", "val_y"):
        assert np.array_equal(getattr(split, name), getattr(want, name)), name
    # the 20 records kept for the train/validation split, then the 8 test records
    assert normalized == [20, 8]


@pytest.mark.parametrize("name, build", [("mnist", build_mnist_dir), ("cifar10", build_cifar_dir)])
def test_load_dataset_refuses_a_subset_below_one(tmp_path, name, build):
    build(tmp_path)
    for subset_n in (0, -5):
        with pytest.raises(ValueError, match="subset_n must be positive"):
            load_dataset(name, str(tmp_path), subset_n=subset_n)


@pytest.mark.parametrize("subset_n", [2.5, True])
@pytest.mark.parametrize("name, build", [("mnist", build_mnist_dir), ("cifar10", build_cifar_dir)])
def test_load_dataset_refuses_a_subset_that_is_not_an_integer(tmp_path, name, build, subset_n):
    build(tmp_path)
    with pytest.raises(ValueError, match="subset_n must be an integer"):
        load_dataset(name, str(tmp_path), subset_n=subset_n)


def test_load_dataset_outputs_pinned(tmp_path):
    """sha256 over every array (bytes, dtype, shape) and the provenance fields
    of MNIST and CIFAR splits, each with and without a subset."""
    dirs = {"mnist": build_mnist_dir(tmp_path / "mnist"), "cifar10": build_cifar_dir(tmp_path / "cifar")}
    h = hashlib.sha256()
    for name, root in dirs.items():
        for subset_n in (None, 30):
            split = load_dataset(name, str(root), subset_n=subset_n, seed=3)
            for field in ("train_x", "train_y", "val_x", "val_y", "test_x", "test_y"):
                arr = getattr(split, field)
                h.update(f"{name} {subset_n} {field} {arr.dtype} {arr.shape}".encode())
                h.update(arr.tobytes())
            h.update(f"{split.preprocessing} {split.augment} {split.num_classes}".encode())
    assert h.hexdigest() == "003c2dd8b085034e2fc04213e6c939b5e16ab3063f9a6db8b102e30294a77f03"


def test_load_dataset_records_its_source(tmp_path):
    root = str(build_mnist_dir(tmp_path / "mnist"))
    assert load_dataset("mnist", root, subset_n=30, seed=3).source == {"dataset": "mnist", "subset_n": 30, "seed": 3}
    assert load_dataset("mnist", root).source == {"dataset": "mnist", "subset_n": None, "seed": 0}
    rng = np.random.default_rng(0)
    assert split_train_val(rng.normal(size=(20, 1, 4, 4)), rng.integers(0, 10, 20)).source is None


SPLIT_EDITS = {
    "train-x-value": lambda s: replace(s, train_x=s.train_x + 1),
    "train-y-value": lambda s: replace(s, train_y=(s.train_y + 1) % 10),
    "val-x-dtype": lambda s: replace(s, val_x=s.val_x.astype(np.float64)),
    "val-y-shape": lambda s: replace(s, val_y=s.val_y[:, None]),
    "preprocessing": lambda s: replace(s, preprocessing="gcn"),
    "augment": lambda s: replace(s, augment="pad_crop4"),
    "num-classes": lambda s: replace(s, num_classes=12),
}


@pytest.mark.parametrize("edit", SPLIT_EDITS.values(), ids=SPLIT_EDITS)
def test_split_sha256_covers_what_training_reads(tmp_path, edit):
    split = load_dataset("mnist", str(build_mnist_dir(tmp_path / "mnist")), subset_n=30)
    digest = split_sha256(split)
    assert split_sha256(replace(split, test_x=None, test_y=None, source=None)) == digest
    assert split_sha256(edit(split)) != digest


def test_load_dataset_missing_file(tmp_path):
    with pytest.raises(DataError):
        load_dataset("mnist", str(tmp_path))


def test_load_dataset_unknown_name(tmp_path):
    with pytest.raises(ValueError):
        load_dataset("svhn", str(tmp_path))


def test_resolve_data_dir(tmp_path, monkeypatch):
    monkeypatch.delenv("EVOARCH_DATA_DIR", raising=False)
    with pytest.raises(DataError):
        resolve_data_dir()
    monkeypatch.setenv("EVOARCH_DATA_DIR", str(tmp_path))
    assert resolve_data_dir() == str(tmp_path)
