"""Shared helpers for the test suite: random genome generation, an
independent selection oracle and synthetic dataset fixtures small enough
to build in-memory."""

import gzip
import struct
from itertools import zip_longest

import numpy as np

from evoarch.genome import Individual, canonical_node_sequence, new_seed_genome, parameter_count
from evoarch.mutation import ExhaustedRetries, MutationWeights, mutate_until_valid


def random_genome(rng, steps=None, input_shape=(3, 16, 16), num_classes=10):
    """A valid genome built by mutating a random seed a few times."""
    kind = "global_pool" if rng.integers(2) == 0 else "fully_connected"
    g = new_seed_genome(kind, input_shape, num_classes)
    weights = MutationWeights.early() if rng.integers(2) == 0 else MutationWeights.late()
    n = int(rng.integers(0, 7)) if steps is None else steps
    for _ in range(n):
        try:
            g = mutate_until_valid(g, weights, rng)
        except ExhaustedRetries:
            break
    return g


def make_individual(genome, ind_id, fitness, born_generation=0, parent_id=None):
    return Individual(id=ind_id, genome=genome, fitness=fitness,
                      born_generation=born_generation, parent_id=parent_id)


def random_population(rng, size, input_shape=(3, 16, 16)):
    """Distinct-id individuals with random genomes and random fitness."""
    pop = []
    for i in range(size):
        g = random_genome(rng, input_shape=input_shape)
        pop.append(make_individual(g, i, float(rng.random())))
    return pop


# ------------------------------------------------------ selection oracle

def oracle_distance(a, b):
    """Blank-padded positionwise mismatch count, recomputed from scratch."""
    sa = canonical_node_sequence(a)
    sb = canonical_node_sequence(b)
    return sum(x != y for x, y in zip_longest(sa, sb))


def oracle_select(population, k, d):
    """Independent restatement of the survivor rule: sort by (fitness
    desc, params, id), greedily keep candidates whose distance to every
    kept one strictly exceeds d, then fill up to k in rank order."""
    ranked = sorted(population, key=lambda i: (-i.fitness, parameter_count(i.genome), i.id))
    kept = []
    for ind in ranked:
        if len(kept) == k:
            break
        if all(oracle_distance(ind.genome, o.genome) > d for o in kept):
            kept.append(ind)
    ids = {i.id for i in kept}
    for ind in ranked:
        if len(ids) == k:
            break
        ids.add(ind.id)
    return [ind.id for ind in ranked if ind.id in ids]


# ---------------------------------------------------------------- datasets

def write_idx_images(path, images):
    """images: uint8 array (n, h, w)."""
    n, h, w = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">iiii", 0x00000803, n, h, w))
        fh.write(images.tobytes())


def write_idx_labels(path, labels):
    with open(path, "wb") as fh:
        fh.write(struct.pack(">ii", 0x00000801, len(labels)))
        fh.write(np.asarray(labels, dtype=np.uint8).tobytes())


def write_cifar_batch(path, images, labels):
    """images: uint8 array (n, 3, 32, 32); one 3073-byte record per image."""
    with open(path, "wb") as fh:
        for img, lab in zip(images, labels):
            fh.write(bytes([int(lab)]))
            fh.write(img.tobytes())


def build_mnist_dir(root, n_train=64, n_test=16, seed=0):
    """Write a tiny but format-canonical MNIST directory."""
    rng = np.random.default_rng(seed)
    root.mkdir(parents=True, exist_ok=True)
    tr = rng.integers(0, 256, size=(n_train, 28, 28), dtype=np.uint8)
    te = rng.integers(0, 256, size=(n_test, 28, 28), dtype=np.uint8)
    write_idx_images(root / "train-images-idx3-ubyte", tr)
    write_idx_labels(root / "train-labels-idx1-ubyte", rng.integers(0, 10, n_train))
    write_idx_images(root / "t10k-images-idx3-ubyte", te)
    write_idx_labels(root / "t10k-labels-idx1-ubyte", rng.integers(0, 10, n_test))
    return root


def build_cifar_dir(root, per_batch=8, n_test=8, seed=0):
    """Write a tiny but format-canonical CIFAR-10 binary directory."""
    rng = np.random.default_rng(seed)
    d = root / "cifar-10-batches-bin"
    d.mkdir(parents=True, exist_ok=True)
    for i in range(1, 6):
        imgs = rng.integers(0, 256, size=(per_batch, 3, 32, 32), dtype=np.uint8)
        write_cifar_batch(d / f"data_batch_{i}.bin", imgs, rng.integers(0, 10, per_batch))
    imgs = rng.integers(0, 256, size=(n_test, 3, 32, 32), dtype=np.uint8)
    write_cifar_batch(d / "test_batch.bin", imgs, rng.integers(0, 10, n_test))
    return root


def spoil_file(path, fault):
    """Replace a dataset file with an unreadable stand-in; returns the path
    the loader finds instead: a .gz that is not gzip ("not-gzip"), a gzip cut
    short ("truncated-gzip"), a gzip whose first deflate block has the
    reserved type ("corrupt-gzip"), or a directory ("directory")."""
    raw = path.read_bytes()
    path.unlink()
    if fault == "directory":
        path.mkdir()
        return path
    packed = gzip.compress(raw)
    body = {
        "not-gzip": raw,
        "truncated-gzip": packed[: len(packed) // 2],
        "corrupt-gzip": packed[:10] + bytes([0x07]) + packed[11:],
    }[fault]
    spoiled = path.with_name(path.name + ".gz")
    spoiled.write_bytes(body)
    return spoiled
