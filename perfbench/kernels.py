"""Per-operation trainer timings at fixed shapes, and the sgemm reference.

Each op is a single-kind genome ``input -> op -> globalpool -> head`` (fc
feeds the head directly) run through the public ``trainer.forward`` and
``trainer.loss_and_grads``.  The head and globalpool are the same tiny
cost for every op.  Conv rates are computed from the convolution's
multiply-adds, not counted: forward plus the two backward GEMMs is three
times the forward count.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

BATCH = 32
SHAPE = (16, 16, 16)  # channels, height, width of the op's input
CLASSES = 10
REPS = 5
SGEMM_N = 512
SGEMM_REPS = 15

# name -> (conv filter, conv stride) for the conv ops
CONV_OPS = {"conv1x1": (1, 1), "conv3x3": (3, 1), "conv5x5": (5, 1), "conv3x3_s2": (3, 2)}
OPS = tuple(CONV_OPS) + ("maxpool", "fc", "skip", "concat")


def sgemm_gflops():
    """Median float32 GEMM rate of this process's BLAS, in GFLOP/s."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((SGEMM_N, SGEMM_N), dtype=np.float32)
    b = rng.standard_normal((SGEMM_N, SGEMM_N), dtype=np.float32)
    a @ b
    times = []
    for _ in range(SGEMM_REPS):
        t = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t)
    return 2 * SGEMM_N**3 / statistics.median(times) / 1e9


def op_genome(op):
    """input -> op -> globalpool -> head; fc feeds the head directly."""
    from evoarch.genome import CONCAT, GLOBALPOOL, HEAD, INPUT, SKIP, Genome, Node, conv_node, fc_node, maxpool_node

    if op in CONV_OPS:
        node, preds = conv_node(SHAPE[0], *CONV_OPS[op]), (0,)
    elif op == "maxpool":
        node, preds = maxpool_node(2, 2), (0,)
    elif op in ("skip", "concat"):
        node, preds = Node(SKIP if op == "skip" else CONCAT, {}), (0, 0)
    elif op == "fc":
        node, preds = fc_node(128), (0,)
    else:
        raise ValueError(f"unknown op {op!r}")
    nodes = {0: Node(INPUT, {}), 1: node}
    edges = {0: (), 1: preds}
    if op != "fc":
        nodes[2], edges[2] = Node(GLOBALPOOL, {}), (1,)
    head = len(nodes)
    nodes[head], edges[head] = Node(HEAD, {"classes": CLASSES}), (head - 1,)
    return Genome(SHAPE, CLASSES, nodes, edges)


def conv_flops(op):
    """Forward multiply-add FLOPs of the op's convolution at BATCH."""
    f, s = CONV_OPS[op]
    c, h, w = SHAPE
    oh = (h + 2 * (f // 2) - f) // s + 1
    ow = (w + 2 * (f // 2) - f) // s + 1
    return 2 * BATCH * c * oh * ow * c * f * f


def _median_ms(fn):
    fn()
    times = []
    for _ in range(REPS):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times) * 1e3


def op_metrics(peak_gflops):
    """trainer.op.<op>.fwd_ms / .fwdbwd_ms, plus conv .gflops / .peak_frac."""
    from evoarch import trainer
    from evoarch.genome import validate

    out = {}
    rng = np.random.default_rng(0)
    x = rng.standard_normal((BATCH,) + SHAPE).astype(np.float32)
    labels = rng.integers(0, CLASSES, size=BATCH)
    for op in OPS:
        genome = op_genome(op)
        validate(genome)
        model = trainer.init_model(genome, np.random.default_rng(1))
        fwd = _median_ms(lambda: trainer.forward(model, genome, x, mode="train"))
        fwdbwd = _median_ms(lambda: trainer.loss_and_grads(model, genome, x, labels))
        out[f"trainer.op.{op}.fwd_ms"] = fwd
        out[f"trainer.op.{op}.fwdbwd_ms"] = fwdbwd
        if op in CONV_OPS:
            gflops = 3 * conv_flops(op) / (fwdbwd / 1e3) / 1e9
            out[f"trainer.op.{op}.gflops"] = gflops
            out[f"trainer.op.{op}.peak_frac"] = gflops / peak_gflops
    return out
