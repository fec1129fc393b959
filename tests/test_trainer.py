import hashlib
import math
import re
import sys
import threading
import warnings
import weakref
from collections import Counter
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from evoarch.data import DatasetSplit, load_dataset
from evoarch.genome import (
    CONCAT,
    GLOBALPOOL,
    HEAD,
    INPUT,
    SKIP,
    Genome,
    Node,
    chain_genome,
    conv_node,
    dropout_node,
    fc_node,
    maxpool_node,
    new_seed_genome,
    parameter_count,
)
from evoarch import trainer as trainer_module
from evoarch.trainer import (
    BN_EPS,
    MOMENTUM,
    WEIGHT_DECAY,
    DivergedTraining,
    TrainPlan,
    _backward_pass,
    _conv_dW,
    _conv_dx,
    _conv_forward,
    _forward_pass,
    _minibatches,
    _pool_forward,
    accuracy,
    forward,
    gradient_check,
    init_model,
    loss_and_grads,
    lr_at,
    relative_error,
    sgd_step,
    softmax_cross_entropy,
    train,
)
from helpers import build_cifar_dir, random_genome


def chain(middle, input_shape=(3, 8, 8), num_classes=10):
    return chain_genome(middle, input_shape, num_classes)


def synthetic_split(n_train=256, n_val=512, shape=(1, 8, 8), classes=10, seed=0):
    rng = np.random.default_rng(seed)
    return DatasetSplit(
        train_x=rng.normal(size=(n_train, *shape)).astype(np.float32),
        train_y=rng.integers(0, classes, n_train),
        val_x=rng.normal(size=(n_val, *shape)).astype(np.float32),
        val_y=rng.integers(0, classes, n_val),
        num_classes=classes,
    )


# ---------------------------------------------------------------- schedule

def mp_lr(t, plan):
    """Arbitrary-precision restatement of the three-stage decay."""
    b1, b2 = plan.boundaries
    stage, start = (0, 0) if t < b1 else (1, b1) if t < b2 else (2, b2)
    eta0 = mpmath.mpf(repr(trainer_module.STAGE_LRS[stage]))
    g = mpmath.mpf(repr(plan.gamma))
    a = mpmath.mpf(repr(plan.alpha))
    return eta0 * (1 + g * (t - start)) ** (-a)


def test_lr_starts_at_tenth():
    assert lr_at(0, TrainPlan(20000, batch_size=128)) == 0.1


def test_lr_thousand_iterations():
    # 0.1 * 2^(-0.75) at t=1000 with gamma 0.001
    got = lr_at(1000, TrainPlan(20000, batch_size=128))
    assert math.isclose(got, 0.1 * 2 ** -0.75, rel_tol=1e-12)
    assert math.isclose(got, 0.0594603557501, rel_tol=1e-10)


def test_lr_matches_arbitrary_precision():
    mpmath.mp.dps = 50
    for plan in (TrainPlan(20000, batch_size=128), TrainPlan.desk_scale(600)):
        for t in range(0, plan.max_iters, 97):
            assert math.isclose(lr_at(t, plan), float(mp_lr(t, plan)), rel_tol=1e-12)


def test_lr_stage_starts_exact():
    plan = TrainPlan(20000, batch_size=128)
    assert lr_at(10000, plan) == 1e-3
    assert lr_at(15000, plan) == 1e-5
    desk = TrainPlan.desk_scale(600)
    assert lr_at(300, desk) == 1e-3
    assert lr_at(450, desk) == 1e-5


def test_lr_non_increasing_within_stages():
    plan = TrainPlan.desk_scale(600)
    rates = [lr_at(t, plan) for t in range(plan.max_iters)]
    for a, b in zip(rates, rates[1:]):
        if b > a:  # increases allowed only at stage boundaries
            assert rates.index(b) in plan.boundaries
    assert all(b <= a for a, b in zip(rates[:299], rates[1:300]))


def test_lr_out_of_range():
    plan = TrainPlan.desk_scale(600)
    with pytest.raises(ValueError):
        lr_at(600, plan)
    with pytest.raises(ValueError):
        lr_at(-1, plan)


def test_lr_schedule_pinned():
    """sha256 over every learning rate of desk-scale plans and the paper plan."""
    plans = [TrainPlan.desk_scale(n) for n in (0, 1, 7, 10, 600, 20000)] + [TrainPlan(20000, batch_size=128)]
    h = hashlib.sha256()
    for plan in plans:
        h.update(repr([plan.max_iters] + [lr_at(t, plan) for t in range(plan.max_iters)]).encode())
    assert h.hexdigest() == "75e41de701075cb209cdc0ed800480c14486f1ca0fac3396563984ea4bbff082"


def test_desk_scale_preserves_stage_proportions():
    plan = TrainPlan.desk_scale(600)
    assert plan.boundaries == (300, 450)
    assert TrainPlan.desk_scale(200).boundaries == (100, 150)


def test_plan_derives_its_schedule():
    assert TrainPlan(max_iters=30).boundaries == (15, 22)
    for knob in ("boundaries", "gamma", "alpha", "momentum", "weight_decay"):
        with pytest.raises(TypeError):
            TrainPlan(**{knob: 1})
    with pytest.raises(ValueError, match="max_iters"):
        TrainPlan(max_iters=-1)
    for size in (0, -8):
        with pytest.raises(ValueError, match="batch_size must be positive"):
            TrainPlan(batch_size=size)


NOT_SIZES = [("max_iters", 2.5, "an integer"), ("max_iters", True, "an integer"), ("batch_size", 2.5, "an integer"),
             ("batch_size", True, "an integer"), ("seed", 1.5, "an integer"), ("seed", -1, "non-negative")]


@pytest.mark.parametrize("field, value, message", NOT_SIZES)
def test_plan_refuses_a_size_that_is_not_a_count(field, value, message):
    with pytest.raises(ValueError, match=f"^{field} must be {message}, got {value!r}$"):
        TrainPlan(**{field: value})


# -------------------------------------------------------------------- init

def test_init_deterministic():
    g = chain([conv_node(8), Node(GLOBALPOOL)])
    a = init_model(g, np.random.default_rng(3))
    b = init_model(g, np.random.default_rng(3))
    for i in a.params:
        for name in a.params[i]:
            assert np.array_equal(a.params[i][name], b.params[i][name])


def test_init_he_standard_deviation():
    g = chain([conv_node(64)], input_shape=(64, 8, 8))
    model = init_model(g, np.random.default_rng(4))
    w = model.params[1]["W"]
    assert w.shape == (64, 64, 3, 3)
    assert abs(w.std() / np.sqrt(2 / 576) - 1) < 0.05


def test_init_biases_and_batchnorm():
    g = chain([conv_node(8), Node(GLOBALPOOL)])
    model = init_model(g, np.random.default_rng(5))
    assert not model.params[1]["b"].any()
    assert (model.params[1]["gamma"] == 1).all()
    assert not model.params[1]["beta"].any()
    assert not model.buffers[1]["mean"].any()
    assert (model.buffers[1]["var"] == 1).all()
    assert not model.velocity[1]["W"].any()


def test_init_weights_and_parameter_counts_pinned():
    # weights come from one rng in ascending node id, W then b, gamma, beta
    h = hashlib.sha256()
    for seed in range(60):
        g = random_genome(np.random.default_rng(seed))
        h.update(str(parameter_count(g)).encode())
        for dtype in (np.float32, np.float64):
            model = init_model(g, np.random.default_rng(seed), dtype)
            for store in (model.params, model.buffers):
                for i in sorted(store):
                    for name in sorted(store[i]):
                        a = store[i][name]
                        h.update(f"{i}/{name}/{a.dtype}/{a.shape}".encode())
                        h.update(a.tobytes())
    assert h.hexdigest() == "a687cd50ee89042cdd7a76de27ab332b88d49e2af05cddf5d0834b7a614503ed"


def test_parameter_count_is_the_size_of_the_initialized_model():
    for seed in range(60):
        g = random_genome(np.random.default_rng(seed))
        model = init_model(g, np.random.default_rng(seed))
        assert parameter_count(g) == sum(w.size for group in model.params.values() for w in group.values())


def test_init_seed_genome_allocates_head_only():
    model = init_model(new_seed_genome("global_pool"), np.random.default_rng(6))
    assert list(model.params) == [2]
    assert set(model.params[2]) == {"W", "b"}


# ----------------------------------------------------------------- forward

def test_zero_input_gives_uniform_softmax():
    g = new_seed_genome("global_pool")
    model = init_model(g, np.random.default_rng(7))
    x = np.zeros((4, 3, 32, 32), np.float32)
    logits = forward(model, g, x, mode="eval")
    assert not logits.any()
    loss, _ = loss_and_grads(model, g, x, np.zeros(4, np.int64))
    assert math.isclose(loss, math.log(10), rel_tol=1e-6)


def test_eval_mode_is_repeatable():
    g = chain([conv_node(8), maxpool_node(), Node(GLOBALPOOL)], (3, 16, 16))
    model = init_model(g, np.random.default_rng(8))
    x = np.random.default_rng(9).normal(size=(5, 3, 16, 16)).astype(np.float32)
    a = forward(model, g, x, mode="eval")
    b = forward(model, g, x, mode="eval")
    assert np.array_equal(a, b)


def test_eval_forward_matches_unfolded_batchnorm():
    # a stride-2 conv whose output feeds both a second conv and the skip
    # join after it; every batchnorm tensor and bias is non-trivial
    nodes = {0: Node(INPUT), 1: conv_node(4, 3, 2, 1), 2: conv_node(4, 5, 1, 2), 3: Node(SKIP),
             4: Node(GLOBALPOOL), 5: Node(HEAD, {"classes": 3})}
    preds = {0: (), 1: (0,), 2: (1,), 3: (1, 2), 4: (3,), 5: (4,)}
    g = Genome((3, 9, 9), 3, nodes, preds)
    model = init_model(g, np.random.default_rng(30), np.float64)
    rng = np.random.default_rng(31)
    for i in (1, 2):
        model.params[i].update(b=rng.normal(size=4), gamma=rng.uniform(0.5, 2.0, 4), beta=rng.normal(size=4))
        model.buffers[i] = {"mean": rng.normal(size=4), "var": rng.uniform(0.2, 3.0, 4)}
    x = rng.normal(size=(3, 3, 9, 9))

    def conv_bn_relu(i, x_in):
        p, bn, q = model.params[i], model.buffers[i], g.nodes[i].params
        z = _conv_forward(x_in, p["W"], p["b"], q["stride"], q["pad"])
        xhat = (z - bn["mean"][:, None, None]) / np.sqrt(bn["var"] + BN_EPS)[:, None, None]
        return np.maximum(p["gamma"][:, None, None] * xhat + p["beta"][:, None, None], 0.0)

    a1 = conv_bn_relu(1, x)
    pooled = (a1 + conv_bn_relu(2, a1)).mean(axis=(2, 3))
    want = pooled @ model.params[5]["W"].T + model.params[5]["b"]
    np.testing.assert_allclose(forward(model, g, x, mode="eval"), want, rtol=1e-12, atol=1e-12)


def test_skip_is_elementwise_sum():
    # skip(input, input) = 2x, and the shared linear head makes the
    # doubling visible in the logits
    plain = new_seed_genome("global_pool", (3, 8, 8), 10)
    nodes = {0: Node(INPUT), 1: Node(SKIP), 2: Node(GLOBALPOOL),
             3: Node(HEAD, {"classes": 10})}
    preds = {0: (), 1: (0, 0), 2: (1,), 3: (2,)}
    doubled = Genome((3, 8, 8), 10, nodes, preds)
    m_plain = init_model(plain, np.random.default_rng(10), np.float64)
    m_doubled = init_model(doubled, np.random.default_rng(10), np.float64)
    m_doubled.params[3] = {k: v.copy() for k, v in m_plain.params[2].items()}
    x = np.random.default_rng(11).normal(size=(3, 3, 8, 8))
    a = forward(m_plain, plain, x, mode="eval")
    b = forward(m_doubled, doubled, x, mode="eval")
    assert np.allclose(b, 2 * a, rtol=1e-12)


def test_dropout_active_only_in_train_mode():
    g = chain([fc_node(64), dropout_node(0.5)], (1, 8, 8))
    model = init_model(g, np.random.default_rng(12))
    x = np.random.default_rng(13).normal(size=(4, 1, 8, 8)).astype(np.float32)

    def logits(mode, dropout_seed):
        return trainer_module._forward_pass(model, g, x, mode, np.random.default_rng(dropout_seed))[0]

    assert np.array_equal(forward(model, g, x, mode="eval"), logits("eval", 99))
    assert not np.array_equal(logits("train", 0), logits("train", 1))
    t = forward(model, g, x, mode="train")
    assert np.array_equal(t, forward(model, g, x, mode="train"))
    assert np.array_equal(t, logits("train", 0))


def test_forward_rejects_wrong_shape():
    g = new_seed_genome("global_pool")
    model = init_model(g, np.random.default_rng(14))
    with pytest.raises(Exception):
        forward(model, g, np.zeros((2, 1, 28, 28), np.float32))


# -------------------------------------------------------------------- loss

def test_softmax_known_value():
    loss, _ = softmax_cross_entropy(np.zeros((3, 2)), np.array([0, 1, 0]))
    assert math.isclose(loss, math.log(2), rel_tol=1e-12)


def test_softmax_probabilities_sum_to_one():
    rng = np.random.default_rng(15)
    logits = rng.normal(scale=5, size=(32, 10))
    labels = rng.integers(0, 10, 32)
    _, dlogits = softmax_cross_entropy(logits, labels)
    probs = dlogits * len(labels)
    probs[np.arange(len(labels)), labels] += 1.0
    assert np.abs(probs.sum(axis=1) - 1).max() < 1e-12
    assert (probs >= 0).all()


def test_duplicated_batch_keeps_mean_loss():
    g = chain([conv_node(8), Node(GLOBALPOOL)], (3, 8, 8))
    model = init_model(g, np.random.default_rng(16), np.float64)
    rng = np.random.default_rng(17)
    x = rng.normal(size=(6, 3, 8, 8))
    y = rng.integers(0, 10, 6)
    l1, _ = loss_and_grads(model, g, x, y)
    l2, _ = loss_and_grads(model, g, np.concatenate([x, x]), np.concatenate([y, y]))
    assert math.isclose(l1, l2, rel_tol=1e-9)


def test_a_train_mode_pass_folds_its_batch_statistics_into_the_running_ones():
    g = chain([conv_node(4), Node(GLOBALPOOL)], (3, 8, 8))
    model = init_model(g, np.random.default_rng(18), np.float64)
    rng = np.random.default_rng(19)
    x = rng.normal(size=(5, 3, 8, 8))
    p = model.params[1]
    z = direct_conv(x, p["W"], p["b"], 1, 1, np.zeros((5, 4, 8, 8)))[0]
    loss_and_grads(model, g, x, rng.integers(0, 10, 5))
    bn = model.buffers[1]
    np.testing.assert_allclose(bn["mean"], 0.1 * z.mean(axis=(0, 2, 3)), rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(bn["var"], 0.9 + 0.1 * z.var(axis=(0, 2, 3)), rtol=1e-12)


# ------------------------------------------------------------ convolution

def direct_conv(x, W, b, stride, pad, dz):
    """Output and (dW, db, dx) straight from the definition, one window at a time."""
    n, cin, h, w = x.shape
    cout, _, f, _ = W.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh, ow = (h + 2 * pad - f) // stride + 1, (w + 2 * pad - f) // stride + 1
    out = np.zeros((n, cout, oh, ow))
    dW = np.zeros(W.shape)
    dxp = np.zeros(xp.shape)
    for s in range(n):
        for i in range(oh):
            for j in range(ow):
                rows = slice(i * stride, i * stride + f)
                cols = slice(j * stride, j * stride + f)
                window = xp[s, :, rows, cols]
                for o in range(cout):
                    out[s, o, i, j] = b[o] + (W[o] * window).sum()
                    dW[o] += dz[s, o, i, j] * window
                    dxp[s, :, rows, cols] += dz[s, o, i, j] * W[o]
    return out, dW, dz.sum(axis=(0, 2, 3)), dxp[:, :, pad : pad + h, pad : pad + w]


def check_conv_against_definition(rng, x, cout, f, stride, pad):
    W = rng.normal(size=(cout, x.shape[1], f, f))
    b = rng.normal(size=cout)
    out = _conv_forward(x, W, b, stride, pad)
    dz = rng.normal(size=out.shape)
    want_out, want_dW, _, want_dx = direct_conv(x, W, b, stride, pad, dz)
    assert out.shape == want_out.shape
    np.testing.assert_allclose(out, want_out, rtol=1e-12, atol=1e-12)
    got_grads = _conv_dW(x, f, stride, pad, dz), _conv_dx(W, stride, pad, dz, x.shape[2:])
    for got, want in zip(got_grads, (want_dW, want_dx)):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("cin", [1, 3])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("f", [1, 3, 5])
def test_conv_matches_direct_definition(f, stride, cin):
    rng = np.random.default_rng(f * 10 + stride * 3 + cin)
    # on 8x8, side + 2 * pad - f is odd, so stride-2 windows stop one row
    # and column short of the padded input's end
    for side in ((9, 7), (8, 8)):
        check_conv_against_definition(rng, rng.normal(size=(2, cin, *side)), 4, f, stride, f // 2)


# edges of the filter-row index arithmetic: row phases past the filter
# (stride above f), windows stopping short of the padded end (at stride 3
# and pad 0 the gathered rows end before the input's last rows), padding
# so wide that whole filter rows read only zeros, and more input than
# output channels
@pytest.mark.parametrize("cin,cout,f,stride,pad,side", [
    (3, 4, 3, 3, 1, (10, 8)),
    (3, 4, 3, 3, 0, (8, 7)),
    (2, 3, 1, 3, 0, (7, 8)),
    (2, 3, 5, 3, 2, (11, 9)),
    (3, 4, 3, 1, 0, (7, 9)),
    (3, 4, 3, 2, 0, (8, 7)),
    (2, 3, 1, 1, 1, (5, 6)),
    (2, 3, 1, 2, 1, (6, 5)),
    (2, 3, 3, 1, 3, (4, 5)),
    (2, 3, 3, 2, 3, (5, 4)),
    (6, 2, 3, 1, 1, (6, 6)),
    (6, 2, 5, 2, 2, (9, 9)),
    (3, 4, 3, 1, 1, (3, 12)),
    (3, 4, 5, 2, 2, (13, 4)),
], ids=["stride3", "stride3_pad0", "stride3_f1", "stride3_f5", "pad0", "pad0_stride2", "f1_pad1", "f1_pad1_stride2",
        "f3_pad3", "f3_pad3_stride2", "cin_above_cout", "cin_above_cout_f5_stride2", "wide", "tall_stride2"])
def test_conv_edges_match_direct_definition(cin, cout, f, stride, pad, side):
    rng = np.random.default_rng(cin * 1000 + cout * 100 + f * 10 + stride + pad)
    check_conv_against_definition(rng, rng.normal(size=(2, cin, *side)), cout, f, stride, pad)


def pool_oracle(x, k, s):
    """Window maxima and the first argmax of each window's k*k taps, one window at a time."""
    n, c, h, w = x.shape
    shape = (n, c, (h - k) // s + 1, (w - k) // s + 1)
    out, am = np.empty(shape, x.dtype), np.empty(shape, np.intp)
    for a, ch, i, j in np.ndindex(*shape):
        window = x[a, ch, i * s : i * s + k, j * s : j * s + k].reshape(-1)
        am[a, ch, i, j] = window.argmax()
        out[a, ch, i, j] = window[am[a, ch, i, j]]
    return out, am


# overlapping windows (k=3 at s=1 and s=2) and odd sides
@pytest.mark.parametrize("k,s,side", [(2, 2, (8, 8)), (2, 2, (7, 9)), (3, 1, (7, 6)), (3, 2, (9, 7)), (3, 2, (8, 8)),
                                      (2, 1, (5, 5))])
@pytest.mark.parametrize("extra", ["none", "-0.0", "nan"])
def test_pool_forward_matches_window_argmax(k, s, side, extra):
    rng = np.random.default_rng(k * 10 + s + side[0])
    # five distinct values, so most windows hold ties; then signed zeros or NaNs
    x = rng.integers(-2, 3, size=(2, 3, *side)).astype(np.float32)
    if extra == "-0.0":
        x[(x == 0) & (rng.random(x.shape) < 0.5)] = -0.0
    elif extra == "nan":
        x[rng.random(x.shape) < 0.1] = np.nan
    want_out, want_am = pool_oracle(x, k, s)
    out, am = _pool_forward(x, k, s, "train")
    assert out.tobytes() == want_out.tobytes()
    assert am.tobytes() == want_am.tobytes()
    out, am = _pool_forward(x, k, s, "eval")
    assert am is None
    assert out.tobytes() == want_out.tobytes()


# --------------------------------------------------------------- gradients

def grad_case(middle, shape=(3, 6, 6), classes=4, seed=0):
    g = chain(middle, shape, classes)
    model = init_model(g, np.random.default_rng(seed), np.float64)
    rng = np.random.default_rng(seed + 100)
    x = rng.normal(size=(3, *shape))
    y = rng.integers(0, classes, 3)
    return model, g, x, y


@pytest.mark.parametrize("name,middle", [
    ("conv", [conv_node(4), Node(GLOBALPOOL)]),
    ("conv_stride2", [conv_node(4, 5, 2, 2), Node(GLOBALPOOL)]),
    ("maxpool", [conv_node(4), maxpool_node(), Node(GLOBALPOOL)]),
    ("fc", [fc_node(16)]),
    ("dropout", [fc_node(16), dropout_node(0.5)]),
])
def test_gradient_matches_finite_difference(name, middle):
    model, g, x, y = grad_case(middle)
    err = gradient_check(model, g, x, y, max_per_tensor=16,
                         rng=np.random.default_rng(1))
    assert err <= 1e-4, f"{name}: {err:.3e}"


def test_backward_frees_every_cache():
    cases = [chain([conv_node(4), maxpool_node(), fc_node(6), dropout_node(0.5)], (3, 8, 8), 4)]
    for join in (SKIP, CONCAT):
        nodes = {0: Node(INPUT), 1: conv_node(4), 2: conv_node(4), 3: Node(join),
                 4: Node(GLOBALPOOL), 5: Node(HEAD, {"classes": 4})}
        cases.append(Genome((3, 8, 8), 4, nodes, {0: (), 1: (0,), 2: (1,), 3: (1, 2), 4: (3,), 5: (4,)}))
    for g in cases:
        model = init_model(g, np.random.default_rng(20))
        x = np.random.default_rng(21).normal(size=(2, 3, 8, 8))
        logits, caches = _forward_pass(model, g, x, "train", np.random.default_rng(0))
        assert caches
        _, dlogits = softmax_cross_entropy(logits, np.array([0, 1]))
        _backward_pass(model, g, caches, dlogits)
        assert caches == {}


def test_backward_drops_a_nodes_arrays_at_their_last_use(monkeypatch):
    g = chain([conv_node(4), conv_node(4), Node(GLOBALPOOL)])
    model = init_model(g, np.random.default_rng(26))
    x = np.random.default_rng(27).normal(size=(4, 3, 8, 8)).astype(np.float32)
    logits, caches = _forward_pass(model, g, x, "train", np.random.default_rng(0))
    _, dlogits = softmax_cross_entropy(logits, np.arange(4))
    refs = [weakref.ref(a) for a in caches[2][1::2]]  # node 2's xhat and ReLU output
    alive, conv_dW = [], trainer_module._conv_dW

    def spy(x_in, f, stride, pad, dz):
        alive.append([r() is not None for r in refs])
        refs.append(weakref.ref(dz))
        return conv_dW(x_in, f, stride, pad, dz)

    monkeypatch.setattr(trainer_module, "_conv_dW", spy)
    _backward_pass(model, g, caches, dlogits)
    # both are gone by node 2's dW, and node 2's dz by node 1's
    assert alive == [[False, False], [False, False, False]]


def test_gradient_through_joins():
    for join in (SKIP, "concat"):
        nodes = {0: Node(INPUT), 1: conv_node(4), 2: conv_node(4),
                 3: Node(join), 4: Node(GLOBALPOOL), 5: Node(HEAD, {"classes": 4})}
        preds = {0: (), 1: (0,), 2: (1,), 3: (1, 2), 4: (3,), 5: (4,)}
        g = Genome((3, 6, 6), 4, nodes, preds)
        model = init_model(g, np.random.default_rng(18), np.float64)
        rng = np.random.default_rng(19)
        x = rng.normal(size=(3, 3, 6, 6))
        y = rng.integers(0, 4, 3)
        err = gradient_check(model, g, x, y, max_per_tensor=16,
                             rng=np.random.default_rng(2))
        assert err <= 1e-4


def test_relative_error_scales():
    assert relative_error(1.0, 1.0) == 0.0
    assert relative_error(0.0, 5e-9) == 0.0          # below atol
    assert relative_error(1.0, 2.0) == 0.5
    assert relative_error(-1.0, 1.0) == 2.0


# --------------------------------------------------------------------- sgd

def zero_grads(model):
    return {i: {k: np.zeros_like(v) for k, v in grp.items()}
            for i, grp in model.params.items()}


def test_sgd_scalar_oracle():
    g = new_seed_genome("fully_connected", (1, 4, 4), 10)
    model = init_model(g, np.random.default_rng(20), np.float64)
    model.params[1]["W"][0, 0] = 1.0
    grads = zero_grads(model)
    grads[1]["W"][0, 0] = 1.0
    assert sgd_step(model, grads, 0.1) is None
    assert math.isclose(model.velocity[1]["W"][0, 0], 1.0005, rel_tol=1e-12)
    assert math.isclose(model.params[1]["W"][0, 0], 0.89995, rel_tol=1e-12)


def test_sgd_zero_grads_decay_closed_form():
    g = new_seed_genome("global_pool")
    model = init_model(g, np.random.default_rng(22), np.float64)
    w0 = model.params[2]["W"].copy()
    lr = 0.1
    sgd_step(model, zero_grads(model), lr)
    sgd_step(model, zero_grads(model), lr)
    v1 = WEIGHT_DECAY * w0
    w1 = w0 - lr * v1
    v2 = MOMENTUM * v1 + WEIGHT_DECAY * w1
    w2 = w1 - lr * v2
    assert np.allclose(model.params[2]["W"], w2, rtol=1e-12)


def test_sgd_weight_decay_skips_batchnorm():
    g = chain([conv_node(8), Node(GLOBALPOOL)])
    model = init_model(g, np.random.default_rng(23), np.float64)
    before = {k: v.copy() for k, v in model.params[1].items()}
    sgd_step(model, zero_grads(model), 0.5)
    assert np.array_equal(model.params[1]["gamma"], before["gamma"])
    assert np.array_equal(model.params[1]["beta"], before["beta"])
    assert not np.array_equal(model.params[1]["W"], before["W"])


def test_sgd_in_place_matches_out_of_place_update():
    # float32, bit for bit: v = MOMENTUM * v + (g + WEIGHT_DECAY * w); w = w - lr * v
    g = chain([conv_node(4), fc_node(6)], (2, 6, 6), 5)
    model = init_model(g, np.random.default_rng(24))
    params = {i: {k: v.copy() for k, v in grp.items()} for i, grp in model.params.items()}
    velocity = {i: {k: v.copy() for k, v in grp.items()} for i, grp in model.velocity.items()}
    rng, plan = np.random.default_rng(25), TrainPlan(max_iters=3)
    for t in range(3):
        grads = {i: {k: rng.normal(size=v.shape).astype(np.float32) for k, v in grp.items()}
                 for i, grp in params.items()}
        lr = lr_at(t, plan)
        for i, grp in params.items():
            for name, w in grp.items():
                step = grads[i][name] if name in ("gamma", "beta") else grads[i][name] + WEIGHT_DECAY * w
                velocity[i][name] = MOMENTUM * velocity[i][name] + step
                grp[name] = w - lr * velocity[i][name]
        sgd_step(model, grads, lr)
    for i, grp in params.items():
        for name, w in grp.items():
            assert model.params[i][name].dtype == np.float32
            assert model.params[i][name].tobytes() == w.tobytes()
            assert model.velocity[i][name].tobytes() == velocity[i][name].tobytes()


# ------------------------------------------------------------------- train

def test_untrained_accuracy_is_chance():
    g = new_seed_genome("fully_connected", (1, 8, 8), 10)
    split = synthetic_split(n_val=1000)
    plan = TrainPlan(max_iters=0)
    _, acc = train(g, split, plan)
    assert abs(acc - 0.1) < 0.03


@pytest.mark.parametrize("augment", ["none", "pad_crop4"])
def test_minibatches_cut_successive_permutations_into_full_batches(augment):
    x = np.random.default_rng(22).normal(size=(10, 2, 5, 5)).astype(np.float32)
    split = DatasetSplit(train_x=x, train_y=np.arange(10) * 3, val_x=x[:2], val_y=np.zeros(2, np.int64),
                         augment=augment)
    batches = _minibatches(split, 4, np.random.default_rng(23), np.random.default_rng(24))
    shuffle_rng, aug_rng = np.random.default_rng(23), np.random.default_rng(24)
    padded = np.pad(x, ((0, 0), (0, 0), (4, 4), (4, 4)))
    for _ in range(3):
        perm = shuffle_rng.permutation(10)
        for idx in (perm[:4], perm[4:8]):  # each epoch's last 2 records are skipped
            want = x[idx]
            if augment == "pad_crop4":  # one offset array per batch, in batch order
                offsets = aug_rng.integers(0, 9, size=(4, 2))
                want = np.stack([padded[r, :, dy : dy + 5, dx : dx + 5] for r, (dy, dx) in zip(idx, offsets)])
            bx, by = next(batches)
            assert bx.tobytes() == want.tobytes()
            assert by.tolist() == (idx * 3).tolist()


MISFITS = {
    "classes": ((1, 8, 8), 2, 16, 8, "genome takes (1, 8, 8) with 2 classes, split holds 16 training and 8 "
                "validation records of (1, 8, 8) with 10 classes"),
    "shape": ((3, 32, 32), 10, 16, 8, "genome takes (3, 32, 32) with 10 classes, split holds 16 training and 8 "
              "validation records of (1, 8, 8) with 10 classes"),
    "no-training-records": ((1, 8, 8), 10, 0, 8, "split holds 0 training and 8 validation records"),
    "no-validation-records": ((1, 8, 8), 10, 16, 0, "split holds 16 training and 0 validation records"),
}


@pytest.mark.parametrize("shape, classes, n_train, n_val, message", MISFITS.values(), ids=MISFITS)
def test_train_refuses_a_genome_that_does_not_fit_its_split(shape, classes, n_train, n_val, message):
    genome = new_seed_genome("fully_connected", shape, classes)
    with pytest.raises(ValueError, match=re.escape(message)):
        train(genome, synthetic_split(n_train=n_train, n_val=n_val), TrainPlan(max_iters=3))


BAD_LABELS = {
    "training-above": ("train_y", np.full(16, 7), "training labels run from 7 to 7, outside [0, 2)"),
    "training-negative": ("train_y", np.r_[np.zeros(15, np.int64), -1], "training labels run from -1 to 0, outside"),
    "validation-above": ("val_y", np.full(8, 5), "validation labels run from 5 to 5, outside [0, 2)"),
    "training-count": ("train_y", np.zeros(8, np.int64), "training part holds 16 records but labels of shape (8,)"),
    "validation-count": ("val_y", np.zeros(4, np.int64), "validation part holds 8 records but labels of shape (4,)"),
    "training-floats": ("train_y", np.zeros(16), "training labels are float64, not integers"),
}


@pytest.mark.parametrize("field, labels, message", BAD_LABELS.values(), ids=BAD_LABELS)
def test_train_refuses_labels_it_cannot_train_on(field, labels, message):
    split = replace(synthetic_split(n_train=16, n_val=8, classes=2), **{field: labels})
    with pytest.raises(ValueError, match=re.escape(message)):
        train(new_seed_genome("fully_connected", (1, 8, 8), 2), split, TrainPlan(max_iters=3, batch_size=4))


def test_train_deterministic():
    g = chain([conv_node(4), Node(GLOBALPOOL)], (1, 8, 8))
    split = synthetic_split(n_train=128, n_val=64)
    plan = TrainPlan(max_iters=30, seed=5)
    m1, a1 = train(g, split, plan)
    m2, a2 = train(g, split, plan)
    assert a1 == a2
    for i in m1.params:
        for name in m1.params[i]:
            assert np.array_equal(m1.params[i][name], m2.params[i][name])


def test_train_augments_cifar_batches_deterministically(tmp_path):
    split = load_dataset("cifar10", build_cifar_dir(tmp_path))
    assert split.augment == "pad_crop4"
    g = chain([conv_node(4), Node(GLOBALPOOL)], (3, 32, 32))
    plan = TrainPlan(max_iters=3, batch_size=8, seed=2)
    runs = [train(g, s, plan)[0] for s in (split, split, replace(split, augment="none"))]
    a, b, plain = ([w.tobytes() for i in sorted(m.params) for _, w in sorted(m.params[i].items())] for m in runs)
    assert a == b
    assert a != plain


def test_concurrent_training_matches_serial():
    # fitness workers train in threads: no kernel may share a buffer
    nodes = {0: Node(INPUT), 1: conv_node(4, 5, 1, 2), 2: conv_node(4, 3, 1, 1), 3: Node(SKIP),
             4: conv_node(6, 3, 2, 1), 5: Node(GLOBALPOOL), 6: Node(HEAD, {"classes": 10})}
    preds = {0: (), 1: (0,), 2: (1,), 3: (1, 2), 4: (3,), 5: (4,), 6: (5,)}
    g = Genome((1, 8, 8), 10, nodes, preds)
    split = synthetic_split(n_train=96, n_val=32)
    plan = TrainPlan(max_iters=8, batch_size=16, seed=7)
    want, _ = train(g, split, plan)
    models = [None] * 4

    def work(k):
        models[k] = train(g, split, plan)[0]

    threads = [threading.Thread(target=work, args=(k,)) for k in range(len(models))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for model in models:
        for store in ("params", "buffers"):
            mine, ref = getattr(model, store), getattr(want, store)
            for i in ref:
                for name in ref[i]:
                    assert mine[i][name].tobytes() == ref[i][name].tobytes(), (store, i, name)


def helper_genome():
    """A conv fed by the input, a 5x5 and a stride-2 conv, a skip, a concat and a pool."""
    nodes = {0: Node(INPUT), 1: conv_node(4, 3, 1, 1), 2: conv_node(4, 5, 1, 2), 3: Node(SKIP),
             4: conv_node(6, 3, 2, 1), 5: conv_node(3, 3, 1, 1), 6: Node(CONCAT), 7: maxpool_node(2, 2),
             8: Node(GLOBALPOOL), 9: Node(HEAD, {"classes": 10})}
    preds = {0: (), 1: (0,), 2: (1,), 3: (1, 2), 4: (3,), 5: (4,), 6: (4, 5), 7: (6,), 8: (7,), 9: (8,)}
    return Genome((3, 9, 9), 10, nodes, preds)


def assert_same_bytes(got, want):
    assert got.keys() == want.keys()
    for i in want:
        for name in want[i]:
            assert np.asarray(got[i][name]).tobytes() == np.asarray(want[i][name]).tobytes(), (i, name)


@pytest.fixture
def helper_calls(monkeypatch):
    """Names of the functions lent to the helper thread, in order."""
    calls, pool = [], trainer_module._HELPER

    class Counting:
        def submit(self, run, fn, *args):
            calls.append(fn.__name__)
            return pool.submit(run, fn, *args)

    monkeypatch.setattr(trainer_module, "_HELPER", Counting())
    return calls


# batch 1 leaves the calling thread an empty half
@pytest.mark.parametrize("batch", [1, 5, 16])
def test_helper_is_bit_identical(batch, monkeypatch, helper_calls):
    g = helper_genome()
    model = init_model(g, np.random.default_rng(40))
    rng = np.random.default_rng(41)
    x = rng.normal(size=(batch, 3, 9, 9)).astype(np.float32)
    y = rng.integers(0, 10, batch)

    loss, grads = loss_and_grads(model, g, x, y)
    serial = forward(model, g, x, mode="eval")
    assert helper_calls == []
    monkeypatch.setattr(trainer_module, "_spare_cpu", lambda: True)
    assert forward(model, g, x, mode="eval").tobytes() == serial.tobytes()
    loss_lent, grads_lent = loss_and_grads(model, g, x, y)
    assert np.asarray(loss_lent).tobytes() == np.asarray(loss).tobytes()
    assert_same_bytes(grads_lent, grads)
    # the four convs' eval forward, train forward and dW, and the head's dW
    assert Counter(helper_calls) == {"_conv_samples": 4 + 4, "_conv_dW": 4, "matmul": 1}

    split = synthetic_split(n_train=48, n_val=20, shape=(3, 9, 9))
    plan = TrainPlan(max_iters=4, batch_size=batch, seed=8)
    runs = []
    for spare in (False, True):
        helper_calls.clear()
        monkeypatch.setattr(trainer_module, "_spare_cpu", lambda: spare)
        runs.append(train(g, split, plan))
        assert len(helper_calls) == (4 * (4 + 4 + 1) + 4 if spare else 0)
    (want, want_acc), (got, got_acc) = runs
    assert got_acc == want_acc
    assert_same_bytes(got.params, want.params)
    assert_same_bytes(got.buffers, want.buffers)


def test_helper_goes_to_a_lone_training_on_several_cpus_with_one_blas_thread(monkeypatch, helper_calls):
    monkeypatch.setattr(trainer_module, "_CPUS", 4)
    monkeypatch.setattr(trainer_module, "_blas_threads", lambda: 1)
    g = chain([conv_node(4), Node(GLOBALPOOL)], (1, 8, 8))
    train(g, synthetic_split(n_train=32, n_val=8), TrainPlan(max_iters=1, batch_size=16))
    assert helper_calls
    monkeypatch.setattr(trainer_module, "_trainings", 1)
    assert trainer_module._spare_cpu()
    # a second training, one CPU, a multithreaded BLAS or none that says
    for name, value in [("_trainings", 2), ("_CPUS", 1), ("_blas_threads", lambda: 2), ("_blas_threads", lambda: None)]:
        with monkeypatch.context() as m:
            m.setattr(trainer_module, name, value)
            assert not trainer_module._spare_cpu(), (name, value)


def test_a_training_left_alone_lends_from_its_next_lend(monkeypatch, helper_calls):
    # a peer training runs until this one's first conv forward is done
    monkeypatch.setattr(trainer_module, "_CPUS", 4)
    monkeypatch.setattr(trainer_module, "_blas_threads", lambda: 1)
    monkeypatch.setattr(trainer_module, "_trainings", 1)
    conv_forward, peer = trainer_module._conv_forward, []

    def conv_then_peer_ends(*args):
        out = conv_forward(*args)
        if not peer:
            peer.append("ended")
            with trainer_module._trainings_lock:
                trainer_module._trainings -= 1
        return out

    monkeypatch.setattr(trainer_module, "_conv_forward", conv_then_peer_ends)
    g = chain([conv_node(4), conv_node(4), Node(GLOBALPOOL)], (1, 8, 8))
    train(g, synthetic_split(n_train=32, n_val=8), TrainPlan(max_iters=1, batch_size=16))
    # the second conv forward and every weight gradient of the one iteration, then the accuracy pass
    assert helper_calls == ["_conv_samples", "matmul", "_conv_dW", "_conv_dW", "_conv_samples", "_conv_samples"]
    assert trainer_module._trainings == 0


def test_helper_runs_under_the_callers_error_state(monkeypatch):
    # train ignores the overflow on the way to a non-finite loss, on the helper too
    monkeypatch.setattr(trainer_module, "_spare_cpu", lambda: True)
    monkeypatch.setattr(trainer_module, "STAGE_LRS", (1e12,) * 3)
    g = chain([conv_node(4), Node(GLOBALPOOL)], (1, 8, 8))
    split = synthetic_split(n_train=128, n_val=64)
    plan = TrainPlan(max_iters=50)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergedTraining):
            train(g, split, plan)
    assert trainer_module._trainings == 0


def test_running_trainings_count_returns_to_zero():
    # more trainings than cores on threads switching every microsecond: a
    # lost update of the running count would leave it off zero
    g = chain([conv_node(4), Node(GLOBALPOOL)], (1, 8, 8))
    split = synthetic_split(n_train=64, n_val=16)
    plan = TrainPlan(max_iters=3, batch_size=16, seed=3)
    threads = [threading.Thread(target=train, args=(g, split, plan)) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert trainer_module._trainings == 0


def test_train_learns_separable_data():
    # class = sign of the mean pixel; a linear head should get this
    rng = np.random.default_rng(24)
    x = rng.normal(size=(512, 1, 4, 4)).astype(np.float32)
    y = (x.mean(axis=(1, 2, 3)) > 0).astype(np.int64)
    split = DatasetSplit(train_x=x[:384], train_y=y[:384],
                         val_x=x[384:], val_y=y[384:], num_classes=2)
    g = new_seed_genome("fully_connected", (1, 4, 4), 2)
    plan = TrainPlan(max_iters=200, seed=6)
    _, acc = train(g, split, plan)
    assert acc >= 0.9


def test_train_divergence_reported(monkeypatch):
    monkeypatch.setattr(trainer_module, "STAGE_LRS", (1e12, 1e12, 1e12))
    g = new_seed_genome("fully_connected", (1, 8, 8), 10)
    split = synthetic_split(n_train=128, n_val=64)
    plan = TrainPlan(max_iters=50)
    with pytest.raises(DivergedTraining):
        with np.errstate(all="ignore"):
            train(g, split, plan)


def test_accuracy_zero_logits_predict_class_zero():
    g = new_seed_genome("global_pool")
    model = init_model(g, np.random.default_rng(25))
    x = np.zeros((6, 3, 32, 32), np.float32)
    labels = np.array([0, 0, 1, 2, 0, 3])
    assert accuracy(model, g, x, labels) == pytest.approx(3 / 6)
