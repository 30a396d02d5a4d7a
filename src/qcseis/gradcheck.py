"""Finite-difference verification for every registered autograd op.

Each check builds a scalar objective sum(w * op(inputs)) with fixed random
weights, runs the recorded backward pass at the dtype under test, and
compares against a central finite difference evaluated in float64 at the
same base points. The FD path never touches the backward rules, so it
stays an independent oracle; evaluating it in double precision keeps the
oracle's own noise far below the tolerance even when the op under test
runs in single precision.

Kinked ops (prelu, absval, clamp, maxpool ties) get inputs nudged away
from their kinks so the finite difference is well defined.
"""
from __future__ import annotations

import numpy as np

from . import autograd as ag


def numeric_gradients(fn, arrays, h):
    """Central finite differences of a scalar fn over a list of arrays."""
    grads = []
    for base in arrays:
        g = np.zeros_like(base, dtype=np.float64)
        flat = base.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            fp = fn(arrays)
            flat[j] = orig - h
            fm = fn(arrays)
            flat[j] = orig
            gflat[j] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def check_op(build, shapes, dtype=np.float32, h=None, seed=0, prepare=None):
    """Max normalized deviation |analytic - fd| / (|analytic| + 1e-6).

    `build(tensors)` returns the op output; gradients are checked for
    every input. `prepare(arrays)` may adjust the random inputs (e.g. to
    avoid kinks) before they are frozen as the base point.
    """
    if h is None:
        h = 1e-3 if dtype == np.float32 else 1e-5
    rng = np.random.default_rng(seed)
    arrays = [rng.uniform(-1.0, 1.0, s).astype(dtype) for s in shapes]
    if prepare is not None:
        arrays = [a.astype(dtype) for a in prepare(arrays)]
    base64 = [a.astype(np.float64) for a in arrays]

    probe_out = build([ag.Tensor(a.copy(), dtype=dtype) for a in arrays])
    w = (rng.uniform(0.5, 1.5, probe_out.shape)
         * np.sign(rng.uniform(-1.0, 1.0, probe_out.shape))).astype(np.float64)

    def objective(arrs):
        with ag.no_grad():
            out = build([ag.Tensor(a, dtype=np.float64) for a in arrs])
        return float(np.sum(out.data * w))

    inputs = [ag.Tensor(a.copy(), requires_grad=True, dtype=dtype) for a in arrays]
    out = build(inputs)
    root = ag.tsum(ag.mul(out, ag.Tensor(w, dtype=dtype)))
    ag.backward(root)

    fd = numeric_gradients(objective, base64, h)
    worst = 0.0
    for t, g_num in zip(inputs, fd):
        g_ana = np.zeros(t.shape, dtype=np.float64) if t.grad is None else t.grad.astype(np.float64)
        err = np.abs(g_ana - g_num) / (np.abs(g_ana) + 1e-6)
        worst = max(worst, float(err.max()))
    return worst


def _away_from_zero(margin):
    def prepare(arrays):
        out = list(arrays)
        x = out[0]
        out[0] = np.where(x >= 0, x + margin, x - margin)
        return out

    return prepare


def _snap_first(step, offset):
    def prepare(arrays):
        out = list(arrays)
        out[0] = np.round(out[0] / step) * step + offset
        return out

    return prepare


def op_check_cases(dtype=np.float32):
    """Named gradient-check cases covering the registered op set.

    Yields (name, runner); each runner sweeps >= 5 shapes and returns the
    worst normalized error.
    """
    f = dtype

    def many(build, shape_sets, args=None, prepare=None):
        """Runner over the shape sets, set k with seed k; `args[k]` is build's second argument."""
        def run():
            worst = 0.0
            for k, shapes in enumerate(shape_sets):
                op = build if args is None else (lambda t, _a=args[k]: build(t, _a))
                worst = max(worst, check_op(op, shapes, dtype=f, seed=k, prepare=prepare))
            return worst

        return run

    conv_shapes = [[(1, 1, 5, 5), (1, 1, 3, 3), (1,)], [(2, 3, 8, 8), (4, 3, 3, 3), (4,)],
                   [(1, 2, 7, 7), (3, 2, 3, 3), (3,)], [(2, 1, 6, 6), (2, 1, 1, 1), (2,)],
                   [(1, 4, 4, 4), (2, 4, 3, 3), (2,)]]
    yield "conv2d", many(lambda t, a: ag.conv2d(t[0], t[1], t[2], *a), conv_shapes,
                         [(1, 1), (1, 1), (2, 1), (1, 0), (1, 1)])  # (stride, padding)

    lin_shapes = [[(2, 3), (4, 3), (4,)], [(1, 5), (1, 5), (1,)], [(3, 2), (2, 2), (2,)],
                  [(4, 6), (3, 6), (3,)], [(2, 8), (8, 8), (8,)]]
    yield "linear", many(lambda t: ag.linear(t[0], t[1], t[2]), lin_shapes)

    prelu_shapes = [[(2, 3, 4, 4), (3,)], [(1, 1, 5, 5), (1,)], [(3, 2, 2, 6), (2,)],
                    [(2, 4, 3, 3), (4,)], [(1, 2, 8, 4), (2,)]]
    yield "prelu", many(lambda t: ag.prelu(t[0], t[1]), prelu_shapes,
                        prepare=_away_from_zero(0.1))

    bn_shapes = [[(4, 2, 3, 3), (2,), (2,)], [(2, 1, 4, 4), (1,), (1,)], [(3, 3, 2, 2), (3,), (3,)],
                 [(8, 2, 2, 2), (2,), (2,)], [(2, 4, 5, 5), (4,), (4,)]]

    def bn_train(t):
        c = t[0].shape[1]
        rm = np.zeros(c, dtype=t[0].dtype)
        rv = np.ones(c, dtype=t[0].dtype)
        return ag.batchnorm2d(t[0], t[1], t[2], rm, rv, training=True)

    def bn_eval(t):
        c = t[0].shape[1]
        rm = np.linspace(-0.2, 0.3, c).astype(t[0].dtype)
        rv = np.linspace(0.5, 1.5, c).astype(t[0].dtype)
        return ag.batchnorm2d(t[0], t[1], t[2], rm, rv, training=False)

    yield "batchnorm2d_train", many(bn_train, bn_shapes)
    yield "batchnorm2d_eval", many(bn_eval, bn_shapes)

    ps_shapes = [[(1, 4, 2, 2)], [(2, 4, 3, 3)], [(1, 8, 2, 4)], [(2, 16, 2, 2)], [(1, 9, 2, 2)]]
    yield "pixel_shuffle", many(lambda t, r: ag.pixel_shuffle(t[0], r), ps_shapes, [2, 2, 2, 2, 3])

    split_shapes = [[(1, 4, 2, 2)], [(2, 3, 3, 3)], [(1, 6, 2, 4)], [(2, 2, 5, 5)], [(3, 8, 2, 2)]]
    yield "split_concat", many(
        lambda t: ag.concat_channels(*ag.split_channels(t[0], max(1, t[0].shape[1] // 2))),
        split_shapes,
    )

    flat_shapes = [[(2, 3, 2, 2)], [(1, 4, 1, 3)], [(2, 1, 5, 2)], [(3, 2, 2, 2)], [(1, 1, 4, 4)]]
    yield "flatten", many(lambda t: ag.flatten(t[0]), flat_shapes)

    un_shapes = [[(2, 12)], [(1, 6)], [(3, 4)], [(2, 20)], [(1, 9)]]
    yield "sigmoid", many(lambda t: ag.sigmoid(t[0]), un_shapes)
    bin_shapes = [[s[0], s[0]] for s in un_shapes]
    yield "add", many(lambda t: ag.add(t[0], t[1]), bin_shapes)
    yield "sub", many(lambda t: ag.sub(t[0], t[1]), bin_shapes)
    yield "mul", many(lambda t: ag.mul(t[0], t[1]), bin_shapes)
    yield "div", many(lambda t: ag.div(t[0], ag.add_scalar(ag.mul(t[1], t[1]), 0.5)), bin_shapes)
    yield "neg", many(lambda t: ag.neg(t[0]), un_shapes)
    yield "scale", many(lambda t: ag.scale(t[0], 2.5), un_shapes)
    yield "add_scalar", many(lambda t: ag.add_scalar(t[0], -0.7), un_shapes)
    yield "absval", many(lambda t: ag.absval(t[0]), un_shapes, prepare=_away_from_zero(0.1))
    yield "log", many(lambda t: ag.log(ag.add_scalar(ag.mul(t[0], t[0]), 0.5)), un_shapes)
    yield "sqrt", many(lambda t: ag.sqrt(ag.add_scalar(ag.mul(t[0], t[0]), 0.5)), un_shapes)
    # snapped base points keep every element at least 0.016 away from the clamp kinks
    yield "clamp", many(lambda t: ag.clamp(ag.scale(t[0], 0.3), -0.2, 0.2), un_shapes,
                        prepare=_snap_first(0.1, 0.05))
    yield "sum", many(lambda t: ag.tsum(t[0]), un_shapes)
    yield "mean", many(lambda t: ag.tmean(t[0]), un_shapes)
    yield "sum_axis", many(lambda t: ag.sum_axis(t[0], 1),
                           [[(2, 5)], [(3, 4)], [(1, 7)], [(4, 2)], [(2, 9)]])
    yield "mean_axis", many(
        lambda t: ag.mean_axis(t[0], 1),
        [[(1, 3, 2, 2)], [(2, 4, 2, 3)], [(1, 2, 3, 3)], [(2, 5, 2, 2)], [(3, 2, 4, 1)]],
    )
    pool_shapes = [[(1, 1, 4, 4)], [(2, 2, 4, 6)], [(1, 3, 6, 2)], [(2, 1, 8, 8)], [(1, 2, 2, 4)]]
    yield "maxpool2d", many(lambda t: ag.maxpool2d(t[0], 2), pool_shapes)
    yield "avgpool2d", many(lambda t: ag.avgpool2d(t[0], 2), pool_shapes)

    up_shapes = [[(1, 1, 3, 2)], [(2, 2, 2, 3)], [(1, 2, 2, 2)], [(2, 1, 2, 4)], [(1, 1, 3, 3)]]
    yield "nearest_upsample", many(lambda t, fc: ag.nearest_upsample(t[0], fc), up_shapes,
                                   [(1, 2), (2, 2), (1, 4), (3, 1), (2, 4)])
