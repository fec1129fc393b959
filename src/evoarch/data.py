"""Dataset loading and preprocessing.

Parses the canonical MNIST IDX files and CIFAR-10 binary batches from
local disk (no downloading here; fetch the files yourself and point
EVOARCH_DATA_DIR at them).  Preprocessing covers
per-image global contrast normalization and the pad-then-random-crop
augmentation used on CIFAR training batches.
"""

from __future__ import annotations

import gzip
import math
import os
import struct
import zlib
from dataclasses import dataclass, replace

import numpy as np

from evoarch.genome import _is_int

MNIST_IMAGE_MAGIC = 0x00000803
MNIST_LABEL_MAGIC = 0x00000801
CIFAR_RECORD_BYTES = 3073  # 1 label byte + 3 * 32 * 32 pixels
NUM_CLASSES = 10  # both datasets label their records 0-9
VAL_FRACTION = 0.1  # share of the training records held out for validation

MNIST_FILES = {  # (images, labels) of each part
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}
CIFAR_DIR = "cifar-10-batches-bin"
CIFAR_TRAIN_FILES = tuple(f"data_batch_{i}.bin" for i in range(1, 6))
CIFAR_TEST_FILE = "test_batch.bin"

DATA_DIR_ENV = "EVOARCH_DATA_DIR"


class DataError(Exception):
    """Base class for dataset parsing problems."""


class BadMagic(DataError):
    """File does not start with the expected magic number."""


class TruncatedFile(DataError):
    """File ends before the declared payload."""


class CountMismatch(DataError):
    """Image and label files disagree on the record count."""


class LabelOutOfRange(DataError):
    """A class label falls outside the valid range."""


@dataclass
class DatasetSplit:
    """Train/validation (and optional test) tensors plus provenance."""

    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray
    test_x: np.ndarray | None = None
    test_y: np.ndarray | None = None
    num_classes: int = NUM_CLASSES
    preprocessing: str = "scale"
    augment: str = "none"

    @property
    def input_shape(self):
        return tuple(self.train_x.shape[1:])


def _read_bytes(path):
    try:
        if str(path).endswith(".gz"):
            with gzip.open(path, "rb") as fh:
                return fh.read()
        with open(path, "rb") as fh:
            return fh.read()
    except (OSError, EOFError, zlib.error) as err:
        raise DataError(f"{path}: cannot read: {getattr(err, 'strerror', None) or err}") from err


def _read_idx(path, magic, ndim):
    """The uint8 payload of an IDX file, in the shape its header declares."""
    raw = _read_bytes(path)
    head = 4 + 4 * ndim
    if len(raw) < head:
        raise TruncatedFile(f"{path}: header needs {head} bytes, file has {len(raw)}")
    found, *sizes = struct.unpack(f">{1 + ndim}i", raw[:head])
    if found != magic:
        raise BadMagic(f"{path}: magic {found:#010x}, expected {magic:#010x}")
    sizes = tuple(sizes)
    if min(sizes) < 0:
        raise DataError(f"{path}: header sizes {sizes} must not be negative")
    need = head + math.prod(sizes)
    if len(raw) < need:
        raise TruncatedFile(f"{path}: header sizes {sizes} need {need} bytes, got {len(raw)}")
    return np.frombuffer(raw, dtype=np.uint8, count=need - head, offset=head).reshape(sizes)


def _check_labels(labels, path):
    bad = np.flatnonzero(labels >= NUM_CLASSES)
    if bad.size:
        raise LabelOutOfRange(f"{path}: record {bad[0]} has label {labels[bad[0]]}")


def load_mnist(image_path, label_path):
    """(images, labels) from an IDX pair: float32 in [0, 1], shape (n, 1, r, c)."""
    images = _read_idx(image_path, MNIST_IMAGE_MAGIC, 3)
    labels = _read_idx(label_path, MNIST_LABEL_MAGIC, 1)
    if len(images) != len(labels):
        raise CountMismatch(f"{image_path} has {len(images)} images but {label_path} has {len(labels)} labels")
    _check_labels(labels, label_path)
    return images[:, None].astype(np.float32) / 255.0, labels.astype(np.int64)


def load_cifar10(batch_paths):
    """(images, labels) from binary batches: float32 in [0, 1], (n, 3, 32, 32)."""
    all_images, all_labels = [], []
    for path in batch_paths:
        raw = _read_bytes(path)
        if len(raw) == 0 or len(raw) % CIFAR_RECORD_BYTES != 0:
            raise TruncatedFile(f"{path}: size {len(raw)} is not a multiple of {CIFAR_RECORD_BYTES}")
        records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
        _check_labels(records[:, 0], path)
        all_images.append(records[:, 1:].reshape(-1, 3, 32, 32))
        all_labels.append(records[:, 0])
    images = np.concatenate(all_images)
    labels = np.concatenate(all_labels)
    return images.astype(np.float32) / 255.0, labels.astype(np.int64)


def global_contrast_normalize(images):
    """Per image: subtract its mean, divide by max(its std, 1e-8)."""
    flat = images.reshape(len(images), -1)
    mean = flat.mean(axis=1, keepdims=True)
    std = flat.std(axis=1, keepdims=True)
    out = (flat - mean) / np.maximum(std, 1e-8)
    return out.reshape(images.shape).astype(np.float32)


def pad_and_random_crop(x, pad, rng):
    """Zero-pad each image of an (n, c, h, w) batch, then crop back at random.

    One (n, 2) draw gives every image its own (row, column) offset.
    """
    n, _, h, w = x.shape
    padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.empty_like(x)
    offs = rng.integers(0, 2 * pad + 1, size=(n, 2))
    for s in range(n):
        oy, ox = offs[s]
        out[s] = padded[s, :, oy : oy + h, ox : ox + w]
    return out


def _check_subset_n(subset_n):
    if subset_n is None:
        return
    if not _is_int(subset_n):
        raise ValueError(f"subset_n must be an integer, got {subset_n!r}")
    if subset_n < 1:
        raise ValueError(f"subset_n must be positive, got {subset_n}")


def split_train_val(images, labels, seed=0, subset_n=None):
    """Seeded shuffle split; the last VAL_FRACTION becomes validation.

    subset_n truncates the data (in file order) before shuffling, so small
    desk-scale experiments stay nested inside larger ones; it must be a
    positive integer or None.
    """
    _check_subset_n(subset_n)
    images, labels = images[:subset_n], labels[:subset_n]
    n = len(images)
    n_val = int(round(n * VAL_FRACTION))
    if n_val < 1:
        raise ValueError(f"cannot carve {n_val} validation samples out of {n}")
    perm = np.random.default_rng(seed).permutation(n)
    train_idx, val_idx = perm[: n - n_val], perm[n - n_val :]
    return DatasetSplit(images[train_idx], labels[train_idx], images[val_idx], labels[val_idx])


def resolve_data_dir():
    """The dataset directory named by the EVOARCH_DATA_DIR environment variable."""
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        return env
    raise DataError(f"no data directory: set {DATA_DIR_ENV}")


def _find(data_dir, name):
    for candidate in (os.path.join(data_dir, name), os.path.join(data_dir, name + ".gz")):
        if os.path.exists(candidate):
            return candidate
    raise DataError(f"missing dataset file {name} (or {name}.gz) under {data_dir}")


def load_dataset(name, data_dir, subset_n=None, seed=0):
    """Assemble a ready-to-train split for "mnist" or "cifar10".

    MNIST stays at plain [0, 1] scaling; CIFAR-10 gets per-image contrast
    normalization and pad-4 random-crop augmentation on the train side.
    VAL_FRACTION of the training records becomes the validation set.
    subset_n is as for split_train_val, and is refused before any file is read.
    """
    _check_subset_n(subset_n)
    if name == "mnist":
        train_x, train_y = load_mnist(*(_find(data_dir, f) for f in MNIST_FILES["train"]))
        test_x, test_y = load_mnist(*(_find(data_dir, f) for f in MNIST_FILES["test"]))
        preprocessing, augment = "scale", "none"
    elif name == "cifar10":
        base = os.path.join(data_dir, CIFAR_DIR)
        root = base if os.path.isdir(base) else data_dir
        train_x, train_y = load_cifar10([_find(root, f) for f in CIFAR_TRAIN_FILES])
        test_x, test_y = load_cifar10([_find(root, CIFAR_TEST_FILE)])
        # GCN is per image, so normalizing only the records kept changes no value
        train_x = global_contrast_normalize(train_x[:subset_n])
        test_x = global_contrast_normalize(test_x)
        preprocessing, augment = "gcn", "pad_crop4"
    else:
        raise ValueError(f"unknown dataset {name!r}")
    split = split_train_val(train_x, train_y, seed=seed, subset_n=subset_n)
    return replace(split, test_x=test_x, test_y=test_y, preprocessing=preprocessing, augment=augment)
