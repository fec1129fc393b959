"""Dense-tensor CNN training straight from a genome, in numpy.

Every conv node runs convolution, batch normalization and ReLU; fully
connected nodes (and the head) are plain affine maps; dropout uses
inverted scaling so evaluation is a no-op.  Gradients are reverse-mode
through the DAG with multi-consumer outputs accumulating their
consumers' gradients, in train mode only (the mode of every training
step).  Float32 trains search runs; float64 verifies finite differences.
Activations are NCHW; convolutions run one sample at a time, lowered by
filter rows, so their buffers stay in cache and belong to one call part
(fitness worker threads train side by side).  Half of each conv forward
and every weight gradient are lent: _lend runs each on a helper thread if
the training is then the only one in a process with several CPUs and a
one-thread BLAS, else on the calling thread, by the same operations in the
same order, so results are bit for bit the same either way.  In train mode
batchnorm and ReLU work in place on the conv output; in eval mode
batchnorm is folded into the conv's weights and bias, by the running
statistics that each train-mode forward updates in place.  An activation is
released once its last consumer has read it, and backward drops each node's
arrays at their last use.  Training updates its one model in place.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import glob
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from evoarch.data import pad_and_random_crop
from evoarch.genome import (
    CONCAT,
    CONV,
    DROPOUT,
    FC,
    GLOBALPOOL,
    HEAD,
    INPUT,
    MAXPOOL,
    SEED_KINDS,
    SKIP,
    Genome,
    Node,
    _is_int,
    chain_genome,
    conv_node,
    dropout_node,
    fc_node,
    maxpool_node,
    new_seed_genome,
    param_shapes,
    successors,
    topological_order,
)

STAGE_LRS = (1e-1, 1e-3, 1e-5)  # the paper's learning rate at the start of each stage
BN_EPS = 1e-5
BN_RUNNING_KEEP = 0.9  # running <- 0.9 * running + 0.1 * batch
MOMENTUM = 0.9
WEIGHT_DECAY = 5e-4  # not applied to batchnorm gamma and beta
ACCURACY_BATCH = 256  # samples per eval-mode forward in accuracy
FD_STEP = 1e-4  # central-difference step of the gradient checks
FD_ATOL = 1e-8  # float64 rounding noise of fd numerators, around 1e-10 here
SUITE_COMPOSITES = 20  # random composite genomes in gradient_check_suite
SUITE_BATCH = 3
SUITE_MAX_PER_TENSOR = 32


class DivergedTraining(Exception):
    """Loss went non-finite during training."""


@dataclass(frozen=True)
class TrainPlan:
    """Budget, batch size and seed of one training run.

    The learning rate decays as STAGE_LRS[stage] * (1 + gamma * t_local)
    ** -alpha within each of three stages.  The second and third stages
    begin, and the local clock resets, at the derived boundaries
    (max_iters // 2, 3 * max_iters // 4): a 50/25/25 split like the
    paper's 10k/5k/5k.
    Momentum and weight decay are the module constants MOMENTUM and
    WEIGHT_DECAY.  Each field must be an integer (not a bool): max_iters
    and seed non-negative, batch_size positive.
    """

    gamma: ClassVar[float] = 0.001
    alpha: ClassVar[float] = 0.75

    max_iters: int = 600
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        for name in ("max_iters", "batch_size", "seed"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be non-negative, got {self.max_iters}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    @property
    def boundaries(self):
        return self.max_iters // 2, 3 * self.max_iters // 4

    @classmethod
    def desk_scale(cls, max_iters=600, **overrides):
        return cls(max_iters, **overrides)


def lr_at(t, plan):
    """Learning rate at iteration t under the three-stage inverse decay."""
    if not 0 <= t < plan.max_iters:
        raise ValueError(f"iteration {t} outside [0, {plan.max_iters})")
    b1, b2 = plan.boundaries
    if t < b1:
        stage, start = 0, 0
    elif t < b2:
        stage, start = 1, b1
    else:
        stage, start = 2, b2
    return STAGE_LRS[stage] * (1.0 + plan.gamma * (t - start)) ** (-plan.alpha)


@dataclass
class ModelState:
    """Weights, batchnorm running stats and momentum buffers per node id.

    Built once, by init_model; training updates these arrays in place.
    """

    params: dict
    buffers: dict
    velocity: dict
    dtype: object = np.float32


def init_model(genome, rng, dtype=np.float32):
    """Tensors in the genome.param_shapes layout, with zero momentum.

    W is He-normal over its fan-in prod(shape[1:]), gamma is ones and every
    other parameter zeros; each node with a gamma also gets batchnorm
    running stats (mean 0, var 1).  W is drawn in ascending node id, so a
    given rng state always yields bitwise identical weights.
    """
    params, buffers = {}, {}
    for i, group in param_shapes(genome).items():
        params[i] = {
            name: rng.normal(0.0, np.sqrt(2.0 / np.prod(shape[1:])), shape).astype(dtype) if name == "W"
            else (np.ones if name == "gamma" else np.zeros)(shape, dtype)
            for name, shape in group.items()
        }
        if "gamma" in group:
            buffers[i] = {"mean": np.zeros(group["gamma"], dtype), "var": np.ones(group["gamma"], dtype)}
    velocity = {i: {k: np.zeros_like(v) for k, v in group.items()} for i, group in params.items()}
    return ModelState(params, buffers, velocity, dtype)


# ---------------------------------------------------------------------------
# the helper thread: a lone training lends it work while a second CPU would
# otherwise idle; its work never lends work itself


@functools.cache
def _openblas(call, restype, *argtypes):
    """OpenBLAS's openblas_<call> in numpy's bundled library, or None if there is none."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in (f"scipy_openblas_{call}64_", f"openblas_{call}64_", f"openblas_{call}"):
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype, fn.argtypes = restype, argtypes
                return fn
    return None


def _blas_threads():
    """Threads numpy's BLAS runs each call on, or None if it does not say."""
    query = _openblas("get_num_threads", ctypes.c_int)
    return None if query is None else query()


def set_blas_threads(n):
    """Has numpy's BLAS run each call on n threads, where it can be told to."""
    setter = _openblas("set_num_threads", None, ctypes.c_int)
    if setter is not None:
        setter(n)


_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _new_helper():
    global _HELPER
    _HELPER = ThreadPoolExecutor(1, thread_name_prefix="evoarch-helper")


_new_helper()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_helper)  # a forked child has no helper thread
_trainings = 0  # trainings running in this process
_trainings_lock = threading.Lock()


@contextmanager
def _counted_training():
    """Counts a training as running in this process while it lasts."""
    global _trainings
    with _trainings_lock:
        _trainings += 1
    try:
        yield
    finally:
        with _trainings_lock:
            _trainings -= 1


def _spare_cpu():
    """True while this process runs one training, may use several CPUs, and runs BLAS on one thread.

    A multithreaded BLAS already spreads the caller's GEMMs over the CPUs,
    and a second caller of it slowed a lone eval-genome run down.
    """
    return _trainings == 1 and _CPUS > 1 and _blas_threads() == 1


def _lend(fn, *args):
    """Future of fn(*args), on the helper if _spare_cpu() holds at this call, else already run here.

    The helper runs fn under the caller's context, and so its numpy error state.
    """
    if _spare_cpu():
        return _HELPER.submit(contextvars.copy_context().run, fn, *args)
    done = Future()
    done.set_result(fn(*args))
    return done


# ---------------------------------------------------------------------------
# convolution kernels, one sample at a time, lowered by filter rows as in MEC
# (Cho & Brand, arXiv 1706.06873): the output, dW and dx each take one GEMM
# per filter row, on a unit-stride column window of one gather of the
# sample's row phases and column shifts (about f times less copying than all
# f*f taps); dx is the stride-1 correlation of the stride-dilated dz with the
# transposed, flipped filter rows


def _row_taps(buf, f, stride):
    """Gather view, gather target and filter-row views of a (c, stride*hq, w) buffer.

    After ``gathered[...] = window`` copies the buffer's contents,
    ``rows[di]`` is the (c*f, oh*ow) matrix holding buf[ci, stride*y + di,
    stride*x + dj] at row ci*f + dj, column y*ow + x, with oh = hq -
    (f-1)//stride and ow = (w-f)//stride + 1.  Row phases from f on are
    never read, so they are not gathered.
    """
    c, height, w = buf.shape
    hq, phases = height // stride, min(stride, f)
    window = sliding_window_view(buf.reshape(c, hq, stride, w)[:, :, :phases], f, axis=3)[:, :, :, ::stride]
    window = window.transpose(2, 0, 4, 1, 3)  # (phase, c, dj, y, x)
    gathered = np.empty(window.shape, buf.dtype)
    oh, ow = hq - (f - 1) // stride, window.shape[-1]
    flat = gathered.reshape(phases, c * f, hq * ow)
    rows = [flat[di % stride, :, di // stride * ow :][:, : oh * ow] for di in range(f)]
    return window, gathered, rows


def _sample_rows(x, f, stride, pad):
    """Each sample's filter-row taps in turn, gathered into one buffer."""
    n, c, h, w = x.shape
    hq = (h + 2 * pad - f) // stride + 1 + (f - 1) // stride
    xp = np.zeros((c, stride * hq, w + 2 * pad), x.dtype)
    inner = xp[:, pad : pad + h, pad : pad + w]  # rows past the last window are cropped
    window, gathered, rows = _row_taps(xp, f, stride)
    for s in range(n):
        inner[...] = x[s, :, : inner.shape[1]]
        gathered[...] = window
        yield rows


def _row_gemms(W_rows, rows, out, tmp):
    """out = sum over filter rows di of W_rows[di] @ rows[di]."""
    np.matmul(W_rows[0], rows[0], out=out)
    for Wr, T in zip(W_rows[1:], rows[1:]):
        out += np.matmul(Wr, T, out=tmp)


def _conv_samples(x, W_rows, b, stride, pad, out):
    """out[s] = the conv of x[s] as (cout, oh*ow), sample after sample."""
    tmp = np.empty(out.shape[1:], x.dtype)
    for o, rows in zip(out, _sample_rows(x, len(W_rows), stride, pad)):
        _row_gemms(W_rows, rows, o, tmp)
        o += b[:, None]


def _conv_forward(x, W, b, stride, pad):
    """Conv output; samples [n//2, n) are lent."""
    (n, _, h, w), (cout, cin, f, _) = x.shape, W.shape
    oh, ow = (h + 2 * pad - f) // stride + 1, (w + 2 * pad - f) // stride + 1
    out = np.empty((n, cout, oh, ow), x.dtype)
    W_rows = W.transpose(2, 0, 1, 3).reshape(f, cout, cin * f)
    flat, half = out.reshape(n, cout, -1), n // 2
    lent = _lend(_conv_samples, x[half:], W_rows, b, stride, pad, flat[half:])
    _conv_samples(x[:half], W_rows, b, stride, pad, flat[:half])
    lent.result()
    return out


def _conv_dW(x, f, stride, pad, dz):
    """Weight gradient of an f x f conv, summed over the samples in order."""
    n, cin, cout = len(x), x.shape[1], dz.shape[1]
    dW_rows, tmp = np.zeros((f, cin * f, cout), x.dtype), np.empty((cin * f, cout), x.dtype)
    for dzs, rows in zip(dz.reshape(n, cout, -1), _sample_rows(x, f, stride, pad)):
        for dWr, T in zip(dW_rows, rows):
            dWr += np.matmul(T, dzs.T, out=tmp)
    return dW_rows.reshape(f, cin, f, cout).transpose(3, 1, 0, 2)


def _conv_dx(W, stride, pad, dz, size):
    """Input gradient of a conv whose input has spatial size (h, w)."""
    (n, cout, oh, ow), (_, cin, f, _), (h, w) = dz.shape, W.shape, size
    # dz[s], stride-dilated, sits f-1 rows and columns into g; from row and column
    # pad on, g is dz[s] padded by f-1-pad (cropped if negative), whose taps give dx[s]
    g = np.zeros((cout, h + 2 * pad + f - 1, w + 2 * pad + f - 1), dz.dtype)
    spots = g[:, f - 1 :: stride, f - 1 :: stride][:, :oh, :ow]
    window, gathered, rows = _row_taps(g[:, pad : pad + h + f - 1, pad : pad + w + f - 1], f, 1)
    W_rows = W[:, :, ::-1, ::-1].transpose(2, 1, 0, 3).reshape(f, cin, cout * f)
    tmp = np.empty((cin, h * w), dz.dtype)
    dx = np.empty((n, cin, h, w), dz.dtype)
    for dzs, dxs in zip(dz, dx.reshape(n, cin, -1)):
        spots[...] = dzs
        gathered[...] = window
        _row_gemms(W_rows, rows, dxs, tmp)
    return dx


def _pool_forward(x, kernel, stride, mode):
    """Window maxima, and in train mode the first argmax of each window's k*k taps.

    With neither NaN nor -0.0 in x, equal taps have equal bits, so k*k
    strided maxima give np.argmax's values whichever tap np.maximum keeps on
    a tie, and a later tap takes the argmax only if strictly greater.  Other
    inputs go through np.argmax itself.
    """
    bits = x.view(f"i{x.itemsize}")  # -0.0 is the least integer of its width
    if np.isnan(x.min()) or bits.min() == np.iinfo(bits.dtype).min:
        win = sliding_window_view(x, (kernel, kernel), axis=(2, 3))[:, :, ::stride, ::stride]
        flat = win.reshape(*win.shape[:4], kernel * kernel)
        am = flat.argmax(axis=-1)
        return np.take_along_axis(flat, am[..., None], axis=-1)[..., 0], am if mode == "train" else None
    n, c, h, w = x.shape
    oh, ow = (h - kernel) // stride + 1, (w - kernel) // stride + 1
    taps = [
        x[:, :, di : di + stride * (oh - 1) + 1 : stride, dj : dj + stride * (ow - 1) + 1 : stride]
        for di in range(kernel)
        for dj in range(kernel)
    ]
    out = taps[0].copy()
    am = np.zeros(out.shape, np.intp) if mode == "train" else None
    for j, t in enumerate(taps[1:], 1):
        if am is not None:
            np.copyto(am, j, where=t > out)
        np.maximum(out, t, out=out)
    return out, am


def _pool_backward(x, kernel, stride, am, dout):
    n, c, h, w = x.shape
    oh, ow = dout.shape[2:]
    dx = np.zeros_like(x)
    for j in range(kernel * kernel):
        di, dj = divmod(j, kernel)
        contrib = dout * (am == j)
        dx[:, :, di : di + stride * oh : stride, dj : dj + stride * ow : stride] += contrib
    return dx


# ---------------------------------------------------------------------------
# whole-graph forward and backward


def _forward_pass(model, genome, x, mode, dropout_rng):
    """Head logits plus per-node caches.

    A train-mode pass normalizes each conv by its batch statistics and folds
    them into the running ones in model.buffers; an eval-mode pass reads
    those.  Each activation is dropped once its last consumer has read it.
    """
    acts = {}
    caches = {}
    readers = {i: len(s) for i, s in successors(genome).items()}
    x = np.ascontiguousarray(x, model.dtype)
    for i in topological_order(genome):
        node = genome.nodes[i]
        ins = [acts[p] for p in genome.preds[i]]
        for j in genome.preds[i]:
            readers[j] -= 1
            if not readers[j]:
                del acts[j]
        if node.kind == INPUT:
            acts[i] = x
        elif node.kind == CONV:
            p = model.params[i]
            stride, pad = node.params["stride"], node.params["pad"]
            if mode == "train":
                # batchnorm and ReLU in place: z becomes xhat
                z = _conv_forward(ins[0], p["W"], p["b"], stride, pad)
                mu = z.mean(axis=(0, 2, 3))
                z -= mu[:, None, None]
                var = np.einsum("nchw,nchw->c", z, z) / (z.size // len(mu))
                bn = model.buffers[i]
                for running, batch in ((bn["mean"], mu), (bn["var"], var)):
                    running *= BN_RUNNING_KEEP
                    running += (1 - BN_RUNNING_KEEP) * batch
                invstd = 1.0 / np.sqrt(var + BN_EPS)
                z *= invstd[:, None, None]
                out = z * p["gamma"][:, None, None]
                acts[i] = np.maximum(np.add(out, p["beta"][:, None, None], out=out), 0.0, out=out)
                caches[i] = (ins[0], z, invstd, out)
            else:
                # eval batchnorm is a per-channel affine map, folded into W and b
                bn = model.buffers[i]
                a = p["gamma"] / np.sqrt(bn["var"] + BN_EPS)
                b = (p["b"] - bn["mean"]) * a + p["beta"]
                z = _conv_forward(ins[0], p["W"] * a[:, None, None, None], b, stride, pad)
                acts[i] = np.maximum(z, 0.0, out=z)
        elif node.kind == MAXPOOL:
            out, am = _pool_forward(ins[0], node.params["kernel"], node.params["stride"], mode)
            acts[i] = out
            caches[i] = (ins[0], am)
        elif node.kind == SKIP:
            acts[i] = ins[0] + ins[1]
        elif node.kind == CONCAT:
            acts[i] = np.concatenate(ins, axis=1)
            caches[i] = ins[0].shape[1]
        elif node.kind == GLOBALPOOL:
            acts[i] = ins[0].mean(axis=(2, 3), keepdims=True)
            caches[i] = ins[0].shape
        elif node.kind in (FC, HEAD):
            flat = ins[0].reshape(ins[0].shape[0], -1)
            p = model.params[i]
            acts[i] = flat @ p["W"].T + p["b"]
            caches[i] = (flat, ins[0].shape)
        elif node.kind == DROPOUT:
            if mode == "train":
                keep = 1.0 - node.params["ratio"]
                mask = (dropout_rng.random(ins[0].shape) < keep).astype(model.dtype) / keep
                acts[i] = ins[0] * mask
                caches[i] = mask
            else:
                acts[i] = ins[0]
                caches[i] = None
        else:
            raise ValueError(f"node {i}: no forward rule for {node.kind!r}")
    return acts[genome.head_id()], caches


def forward(model, genome, x, mode="eval"):
    """Head logits for a batch; mode picks batchnorm/dropout behaviour.

    Train mode folds batch statistics into the running ones that eval mode
    reads, and draws dropout masks from seed 0 as loss_and_grads does by default.
    """
    return _forward_pass(model, genome, x, mode, np.random.default_rng(0))[0]


def softmax_cross_entropy(logits, labels):
    """Mean cross entropy and the logits gradient."""
    m = logits.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
    n = logits.shape[0]
    loss = (lse - logits[np.arange(n), labels]).mean()
    probs = np.exp(logits - lse[:, None])
    probs[np.arange(n), labels] -= 1.0
    return loss, probs / n


def _backward_pass(model, genome, caches, dlogits):
    """Parameter gradients of a train-mode forward pass, popping each node's cache as it goes.

    Every weight gradient is lent; they are collected once the pass is over.
    """
    douts = {genome.head_id(): dlogits}
    grads = {}
    for i in reversed(topological_order(genome)):
        # handed over unbound, so a node's arrays go at their last use in _node_backward
        _node_backward(model, genome, i, caches.pop(i, None), douts.pop(i, None), douts, grads)
    for g in grads.values():
        g["W"] = g["W"].result()
    return grads


def _node_backward(model, genome, i, cache, dout, douts, grads):
    """Node i's parameter gradients into grads, its input gradients into douts."""
    node, preds = genome.nodes[i], genome.preds[i]
    if dout is None or node.kind == INPUT:
        return
    if node.kind == CONV:
        # dz = gamma*invstd*(dy - sum(dy)/m - xhat*sum(dy*xhat)/m), in place; uses up xhat
        x_in, xhat, invstd, out = cache
        dz = dout * (out > 0)
        del cache, dout, out  # the ReLU mask was their last use
        p = model.params[i]
        dbeta = dz.sum(axis=(0, 2, 3))
        dgamma = np.einsum("nchw,nchw->c", dz, xhat)
        m = dz.size // dz.shape[1]
        xhat *= (dgamma / m)[:, None, None]
        dz -= xhat
        del xhat
        dz -= (dbeta / m)[:, None, None]
        dz *= (p["gamma"] * invstd)[:, None, None]
        stride, pad = node.params["stride"], node.params["pad"]
        dW = _lend(_conv_dW, x_in, p["W"].shape[2], stride, pad, dz)
        grads[i] = {"W": dW, "b": dz.sum(axis=(0, 2, 3)), "gamma": dgamma, "beta": dbeta}
        if genome.nodes[preds[0]].kind != INPUT:
            _accumulate(douts, preds[0], _conv_dx(p["W"], stride, pad, dz, x_in.shape[2:]))
    elif node.kind == MAXPOOL:
        x_in, am = cache
        _accumulate(douts, preds[0], _pool_backward(x_in, node.params["kernel"], node.params["stride"], am, dout))
    elif node.kind == SKIP:
        for q in preds:
            _accumulate(douts, q, dout)
    elif node.kind == CONCAT:
        _accumulate(douts, preds[0], dout[:, :cache])
        _accumulate(douts, preds[1], dout[:, cache:])
    elif node.kind == GLOBALPOOL:
        _accumulate(douts, preds[0], np.broadcast_to(dout / (cache[2] * cache[3]), cache).copy())
    elif node.kind in (FC, HEAD):
        flat, in_shape = cache
        grads[i] = {"W": _lend(np.matmul, dout.T, flat), "b": dout.sum(axis=0)}
        _accumulate(douts, preds[0], (dout @ model.params[i]["W"]).reshape(in_shape))
    elif node.kind == DROPOUT:
        _accumulate(douts, preds[0], dout if cache is None else dout * cache)


def _accumulate(douts, node_id, grad):
    douts[node_id] = douts[node_id] + grad if node_id in douts else grad


def loss_and_grads(model, genome, x, labels, dropout_rng=None):
    """Mean softmax cross entropy and gradients in the genome.param_shapes layout.

    Train mode is the only mode with gradients: batchnorm normalizes by the
    batch's statistics and folds them into the running ones, and dropout
    draws its masks from dropout_rng, or from seed 0 without one.
    """
    rng = np.random.default_rng(0) if dropout_rng is None else dropout_rng
    logits, caches = _forward_pass(model, genome, x, "train", rng)
    loss, dlogits = softmax_cross_entropy(logits, labels)
    return loss, _backward_pass(model, genome, caches, dlogits)


def sgd_step(model, grads, lr):
    """One momentum step on model.params and model.velocity, in place.

    Weight decay, skipping batchnorm scale and shift, is added into grads.
    """
    for i, group in model.params.items():
        for name, w in group.items():
            g, v = grads[i][name], model.velocity[i][name]
            if name not in ("gamma", "beta"):
                g += WEIGHT_DECAY * w
            v *= MOMENTUM
            v += g
            w -= lr * v


def accuracy(model, genome, x, labels):
    """Fraction of correct argmax predictions, evaluated in eval mode."""
    hits = 0
    for s in range(0, len(x), ACCURACY_BATCH):
        logits = _forward_pass(model, genome, x[s : s + ACCURACY_BATCH], "eval", None)[0]
        hits += int((logits.argmax(axis=1) == labels[s : s + ACCURACY_BATCH]).sum())
    return hits / len(x)


def _minibatches(split, batch_size, shuffle_rng, aug_rng):
    """Endless (x, y) batches: each epoch is a fresh shuffle_rng permutation cut
    into full batches (its remainder is skipped); pad_crop4 batches draw their
    crops from aug_rng in turn."""
    n = len(split.train_x)
    bs = min(batch_size, n)
    while True:
        perm = shuffle_rng.permutation(n)
        for start in range(0, n - bs + 1, bs):
            idx = perm[start : start + bs]
            bx = split.train_x[idx]
            if split.augment == "pad_crop4":
                bx = pad_and_random_crop(bx, 4, aug_rng)
            yield bx, split.train_y[idx]


@_counted_training()
def train(genome, split, plan):
    """Float32 SGD over shuffled minibatch epochs; returns (model, val accuracy).

    Each step's forward folds its batch statistics into the running ones,
    which the accuracy pass reads.  Raises ValueError unless the split holds
    training and validation records of the genome's input shape and classes,
    and DivergedTraining as soon as the minibatch loss goes non-finite.  Conv
    forwards and weight gradients are lent, so once its peers finish a
    training gets the helper thread at its next lend.
    """
    n_train, n_val = len(split.train_x), len(split.val_x)
    if (genome.input_shape, genome.num_classes) != (split.input_shape, split.num_classes) or not n_train or not n_val:
        raise ValueError(
            f"genome takes {genome.input_shape} with {genome.num_classes} classes, split holds {n_train} "
            f"training and {n_val} validation records of {split.input_shape} with {split.num_classes} classes"
        )
    seeds = np.random.SeedSequence(plan.seed).spawn(4)
    init_rng, shuffle_rng, dropout_rng, aug_rng = map(np.random.default_rng, seeds)
    model = init_model(genome, init_rng)
    batches = _minibatches(split, plan.batch_size, shuffle_rng, aug_rng)
    # overflow on the way to a non-finite loss is the divergence path,
    # detected and raised below, so the fp warnings are suppressed
    with np.errstate(over="ignore", invalid="ignore"):
        for t, (bx, by) in zip(range(plan.max_iters), batches):
            loss, grads = loss_and_grads(model, genome, bx, by, dropout_rng)
            if not np.isfinite(loss):
                raise DivergedTraining(f"non-finite loss at iteration {t}")
            sgd_step(model, grads, lr_at(t, plan))
        return model, accuracy(model, genome, split.val_x, split.val_y)


# ---------------------------------------------------------------------------
# finite-difference verification


def relative_error(a, f):
    """|a - f| scaled by magnitude; differences below FD_ATOL count as zero."""
    d = abs(a - f)
    if d <= FD_ATOL:
        return 0.0
    return d / max(abs(a), abs(f), FD_ATOL)


def gradient_check(model, genome, x, labels, max_per_tensor, rng):
    """Max relative error between loss_and_grads and central differences.

    Both run train mode, the only mode with gradients, over every tensor of
    the genome.param_shapes layout: every element of a tensor with at most
    max_per_tensor of them, else max_per_tensor positions drawn from rng.
    """
    _, grads = loss_and_grads(model, genome, x, labels)

    def loss_at(flat, pos, value):
        flat[pos] = value
        return softmax_cross_entropy(forward(model, genome, x, "train"), labels)[0]

    worst = 0.0
    for i in sorted(model.params):
        for name in sorted(model.params[i]):
            w = model.params[i][name]
            flat = w.reshape(-1)
            positions = range(flat.size)
            if flat.size > max_per_tensor:
                positions = sorted(rng.choice(flat.size, size=max_per_tensor, replace=False))
            for pos in positions:
                orig = flat[pos]
                lp, lm, lp_half, lm_half = [
                    loss_at(flat, pos, orig + d) for d in (FD_STEP, -FD_STEP, FD_STEP / 2, -FD_STEP / 2)
                ]
                flat[pos] = orig
                fd = (lp - lm) / (2 * FD_STEP)
                fd_half = (lp_half - lm_half) / FD_STEP
                # two central differences agree only on a locally smooth
                # stretch; disagreement means the step straddles a ReLU
                # kink or pooling tie, where fd does not estimate the
                # derivative at all (a wrong analytic gradient cannot
                # cause it, so skipping never hides a bug)
                if abs(fd - fd_half) > 1e-6 * max(1.0, abs(fd), abs(fd_half)):
                    continue
                worst = max(worst, relative_error(grads[i][name].reshape(-1)[pos], fd_half))
    return worst


def smoothness_margin(model, genome, x):
    """Distance of the batch from the nearest ReLU kink or pooling tie in train mode."""
    _, caches = _forward_pass(model, genome, x, "train", np.random.default_rng(0))
    margin = np.inf
    for i, cache in caches.items():
        kind = genome.nodes[i].kind
        if kind == CONV:
            _, xhat, invstd, out = cache
            p = model.params[i]
            pre = p["gamma"][:, None, None] * xhat + p["beta"][:, None, None]
            margin = min(margin, float(np.abs(pre).min()))
        elif kind == MAXPOOL:
            x_in, am = cache
            node = genome.nodes[i]
            k = node.params["kernel"]
            win = sliding_window_view(x_in, (k, k), axis=(2, 3))[:, :, :: node.params["stride"], :: node.params["stride"]]
            flat = win.reshape(win.shape[:4] + (k * k,))
            top2 = np.partition(flat, -2, axis=-1)[..., -2:]
            # windows whose max is 0 are all ReLU-dead inputs; their tie is
            # stable under small perturbations and not a kink
            gaps = (top2[..., 1] - top2[..., 0])[top2[..., 1] > 0]
            if gaps.size:
                margin = min(margin, float(gaps.min()))
    return margin


def _join_genome(kind, channels_b, input_shape, num_classes):
    """Two conv branches merged by a skip or concat node."""
    convs = [conv_node(3, 3, 1, 1), conv_node(channels_b, 3, 1, 1)]
    g = chain_genome([*convs, Node(kind), Node(GLOBALPOOL)], input_shape, num_classes)
    return Genome(input_shape, num_classes, g.nodes, {**g.preds, 3: (1, 2)})


def _single_kind_cases():
    shape, num_classes = (2, 6, 6), 4
    gp = Node(GLOBALPOOL, {})
    return [
        ("globalpool_head", new_seed_genome("global_pool", shape, num_classes)),
        ("fc_head", new_seed_genome("fully_connected", shape, num_classes)),
        ("conv", chain_genome([conv_node(4, 3, 1, 1), gp], shape, num_classes)),
        ("conv_stride2_filter5", chain_genome([conv_node(3, 5, 2, 2), gp], shape, num_classes)),
        ("conv_1x1", chain_genome([conv_node(5, 1, 1, 0), gp], shape, num_classes)),
        ("maxpool", chain_genome([conv_node(3, 3, 1, 1), maxpool_node(2, 2), gp], shape, num_classes)),
        ("fc_stack", chain_genome([fc_node(9), fc_node(7)], shape, num_classes)),
        ("dropout", chain_genome([fc_node(8), dropout_node(0.5)], shape, num_classes)),
        ("skip", _join_genome(SKIP, 3, shape, num_classes)),
        ("concat", _join_genome(CONCAT, 4, shape, num_classes)),
    ]


def _composite_cases(seed):
    # imported here so the trainer stays usable without the search stack
    from evoarch.mutation import ExhaustedRetries, MutationWeights, mutate_until_valid

    shape = (3, 8, 8)
    cases = []
    weights = MutationWeights.early()
    for i in range(SUITE_COMPOSITES):
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        genome = new_seed_genome(SEED_KINDS[i % 2], shape, 4)
        steps = int(rng.integers(1, 6 + 1))  # 1 to 6 mutations
        for _ in range(steps):
            try:
                genome = mutate_until_valid(genome, weights, rng)
            except ExhaustedRetries:
                break
        cases.append((f"composite_{i:02d}", genome))
    return cases


def gradient_check_suite(seed=0):
    """Finite-difference audit over single-kind genomes and random composites.

    Returns a list of (name, max_relative_error) pairs, float64 end to
    end, from batches of SUITE_BATCH samples and at most
    SUITE_MAX_PER_TENSOR positions per tensor.  Input batches sitting too
    close to a ReLU kink or a pooling tie are redrawn, since central
    differences are meaningless across them.
    """
    results = []
    cases = _single_kind_cases() + _composite_cases(seed)
    for pos, (name, genome) in enumerate(cases):
        streams = np.random.SeedSequence((seed, pos, 7)).spawn(3)
        model = init_model(genome, np.random.default_rng(streams[0]), dtype=np.float64)
        data_rng = np.random.default_rng(streams[1])
        labels = data_rng.integers(0, genome.num_classes, size=SUITE_BATCH)
        x = best_margin = None
        for _ in range(40):
            cand = data_rng.normal(size=(SUITE_BATCH,) + genome.input_shape)
            margin = smoothness_margin(model, genome, cand)
            if best_margin is None or margin > best_margin:
                x, best_margin = cand, margin
            if margin > 10 * FD_STEP:
                break
        err = gradient_check(model, genome, x, labels, SUITE_MAX_PER_TENSOR, np.random.default_rng(streams[2]))
        results.append((name, err))
    return results
