"""Seeded synthetic datasets in the canonical on-disk formats.

MNIST is written as the four IDX files, CIFAR-10 as the five binary
training batches plus the test batch, so the workloads read them through
``evoarch.data.load_dataset`` exactly as they would read the real files.
Pixels and labels are uniform random draws: the benchmark measures work,
not what a network can learn.
"""

from __future__ import annotations

import os
import struct

import numpy as np

MNIST_IMAGE_MAGIC = 0x00000803
MNIST_LABEL_MAGIC = 0x00000801
CIFAR_BATCHES = tuple(f"data_batch_{i}.bin" for i in range(1, 6)) + ("test_batch.bin",)


def _write(path, payload):
    with open(path, "wb") as fh:
        fh.write(payload)
    return len(payload)


def write_mnist(out_dir, seed, n_train, n_test, side=28):
    """IDX image/label pairs for train and t10k; returns bytes written."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 28)))
    written = 0
    for prefix, n in (("train", n_train), ("t10k", n_test)):
        images = rng.integers(0, 256, size=(n, side, side), dtype=np.uint8)
        labels = rng.integers(0, 10, size=n, dtype=np.uint8)
        written += _write(
            os.path.join(out_dir, f"{prefix}-images-idx3-ubyte"),
            struct.pack(">iiii", MNIST_IMAGE_MAGIC, n, side, side) + images.tobytes(),
        )
        written += _write(
            os.path.join(out_dir, f"{prefix}-labels-idx1-ubyte"),
            struct.pack(">ii", MNIST_LABEL_MAGIC, n) + labels.tobytes(),
        )
    return written


def write_cifar10(out_dir, seed, per_batch):
    """Six binary batches of per_batch records (label byte + 3x32x32 pixels)."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 32)))
    written = 0
    for name in CIFAR_BATCHES:
        records = np.empty((per_batch, 3073), dtype=np.uint8)
        records[:, 0] = rng.integers(0, 10, size=per_batch, dtype=np.uint8)
        records[:, 1:] = rng.integers(0, 256, size=(per_batch, 3072), dtype=np.uint8)
        written += _write(os.path.join(out_dir, name), records.tobytes())
    return written
