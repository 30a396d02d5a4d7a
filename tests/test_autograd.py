"""Autograd engine tests: hand examples, FD checks, backward semantics."""
import itertools
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from qcseis import autograd as ag
from qcseis import gradcheck
from qcseis import models as mdl
from qcseis import qlayer


def t32(data, grad=False):
    return ag.Tensor(np.asarray(data, dtype=np.float32), requires_grad=grad)


class TestConv2d:
    def test_box_sum(self):
        x = t32(np.ones((1, 1, 3, 3)))
        w = t32(np.ones((1, 1, 3, 3)))
        b = t32(np.zeros(1))
        out = ag.conv2d(x, w, b, stride=1, padding=1).data[0, 0]
        assert out[1, 1] == 9.0
        assert out[0, 0] == out[0, 2] == out[2, 0] == out[2, 2] == 4.0

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = t32(rng.normal(size=(2, 1, 5, 5)))
        w = np.zeros((1, 1, 3, 3), dtype=np.float32)
        w[0, 0, 1, 1] = 1.0
        out = ag.conv2d(x, t32(w), t32(np.zeros(1)), stride=1, padding=1)
        assert np.array_equal(out.data, x.data)

    def test_even_kernel_rejected(self):
        with pytest.raises(ag.ShapeError):
            ag.conv2d(t32(np.ones((1, 1, 4, 4))), t32(np.ones((1, 1, 2, 2))), t32(np.zeros(1)))

    def test_strided_output_dims(self):
        out = ag.conv2d(t32(np.ones((1, 1, 32, 32))), t32(np.ones((3, 1, 3, 3))),
                        t32(np.zeros(3)), stride=2, padding=1)
        assert out.shape == (1, 3, 16, 16)


# The unblocked helpers as they were before cache blocking: the oracle the
# blocked ones must match bit for bit.
def reference_im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int):
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    b, c, h, w = x.shape
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x, (b, c, ho, wo, kh, kw), (s0, s1, s2 * stride, s3 * stride, s2, s3)
    )
    cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5)).reshape(b, ho * wo, c * kh * kw)
    return cols, ho, wo


def reference_col2im(dcols: np.ndarray, x_shape, kh: int, kw: int, stride: int, padding: int, ho: int, wo: int):
    b, c, h, w = x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    dxp = np.zeros((b, c, hp, wp), dtype=dcols.dtype)
    dwin = dcols.reshape(b, ho, wo, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i : i + ho * stride : stride, j : j + wo * stride : stride] += dwin[..., i, j]
    if padding:
        return dxp[:, :, padding : padding + h, padding : padding + w]
    return dxp


def reference_conv2d(x, weight, bias, stride: int = 1, padding: int = 0):
    """conv2d as it was when its rule saved the column matrix, on the
    unblocked helpers: one full column matrix, one stacked matmul.

    Takes tensors, returns the output array and the backward rule.
    """
    b, cin, h, w = x.shape
    cout, cin_w, kh, kw = weight.shape
    cols, ho, wo = reference_im2col(x.data, kh, kw, stride, padding)
    wmat = weight.data.reshape(cout, -1)
    out = cols @ wmat.T
    out += bias.data
    out = out.transpose(0, 2, 1).reshape(b, cout, ho, wo)
    x_shape, w_shape = x.shape, weight.shape

    def bwd(g):
        gmat = g.reshape(b, cout, ho * wo).transpose(0, 2, 1)
        dw = np.tensordot(gmat, cols, axes=([0, 1], [0, 1])).reshape(w_shape)
        db = g.sum(axis=(0, 2, 3))
        dcols = np.matmul(gmat, wmat, out=cols)
        dx = reference_col2im(dcols, x_shape, kh, kw, stride, padding, ho, wo)
        return dx, dw, db

    return out, bwd


def im2col_conv2d(x, weight, bias, stride: int = 1, padding: int = 0):
    """conv2d as it was before its backward went one kernel tap at a time:
    every backward rebuilds the full column matrix, takes dw from one
    tensordot over it and dx from one per-item GEMM and _col2im. Verbatim
    but for the input checks and the column matrix, which came from a
    per-thread buffer and is an array of the call here."""
    b, cin, h, w = x.shape
    cout, _, kh, kw = weight.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    xd = x.data
    wmat = weight.data.reshape(cout, -1)
    size = ho * wo * wmat.shape[1]  # column-matrix elements per batch item
    runs = ag._runs(b)
    items = min(max(m - n for n, m in runs), max(1, ag._BLOCK_BYTES // (size * xd.itemsize)))
    p = padding
    hp, wp = h + 2 * p, w + 2 * p

    def on_chunks(cols_at, use=None):
        padded = np.zeros((len(runs), items, hp, wp, cin), dtype=xd.dtype)

        def run(lane, n, m):
            xn = padded[lane]
            for k in range(n, m, items):
                j = min(m, k + items)
                xn[: j - k, p : p + h, p : p + w] = xd[k:j].transpose(0, 2, 3, 1)
                cols = ag._im2col(xn[: j - k], kh, kw, stride, cols_at(lane, k, j))
                if use is not None:
                    use(k, j, cols)

        ag._on_lanes(run, [(lane, n, m) for lane, (n, m) in enumerate(runs)])

    out = np.empty((b, ho * wo, cout), dtype=xd.dtype)
    chunks = np.empty((len(runs), items * size), dtype=xd.dtype)

    def product(k, j, cols):
        np.matmul(cols, wmat.T, out=out[k:j])
        out[k:j] += bias.data

    on_chunks(lambda lane, k, j: chunks[lane, : (j - k) * size], product)
    del chunks
    out = out.transpose(0, 2, 1).reshape(b, cout, ho, wo)
    w_shape = weight.shape

    def bwd(g):
        cols = np.empty(b * size, xd.dtype).reshape(b, ho * wo, -1)
        on_chunks(lambda lane, k, j: cols[k:j])
        gmat = g.reshape(b, cout, ho * wo).transpose(0, 2, 1)
        dw = np.tensordot(gmat, cols, axes=([0, 1], [0, 1])).reshape(w_shape)
        db = g.sum(axis=(0, 2, 3))
        dxn = np.zeros((b, hp, wp, cin), dtype=xd.dtype)

        def dx_run(n, m):
            ag._col2im(np.matmul(gmat[n:m], wmat, out=cols[n:m]), dxn[n:m], kh, kw, stride)

        ag._on_lanes(dx_run, runs)
        return dxn[:, p : p + h, p : p + w].transpose(0, 3, 1, 2), dw, db

    return ag._result(out, (x, weight, bias), bwd)


def bits(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    return a.view({4: np.uint32, 8: np.uint64}[a.itemsize])


def assert_same_bits(new, ref):
    assert new.shape == ref.shape and new.dtype == ref.dtype
    assert np.array_equal(bits(new), bits(ref))


def span(a: np.ndarray) -> tuple:
    """(address, byte count) of an array's memory."""
    return a.__array_interface__["data"][0], a.nbytes


def padded_nhwc(x: np.ndarray, padding: int) -> np.ndarray:
    """[B, C, H, W] zero-padded on each side, as the [B, Hp, Wp, C] items _im2col reads."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    return np.ascontiguousarray(xp.transpose(0, 2, 3, 1))


def cropped_nchw(dxn: np.ndarray, padding: int) -> np.ndarray:
    """A padded NHWC gradient from _col2im cropped back to [B, C, H, W]."""
    return dxn[:, padding : dxn.shape[1] - padding, padding : dxn.shape[2] - padding].transpose(0, 3, 1, 2)


class TestConvHelpers:
    """Blocked im2col/col2im against the unblocked reference, bit for bit."""

    @pytest.mark.parametrize("block_bytes", [1, 3000, 20000, 256 * 1024])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_matches_reference(self, monkeypatch, block_bytes, dtype, stride):
        # 1 byte gives one row per block, 3000 and 20000 runs of a few rows or
        # a few whole items, 256 KiB (like the default) one block for the
        # whole batch
        monkeypatch.setattr(ag, "_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(stride)
        for padding in (0, 1, 2):
            for k in (1, 3, 5):
                x = rng.normal(size=(3, 2, 9, 11)).astype(dtype)
                ref_cols, ho, wo = reference_im2col(x, k, k, stride, padding)
                cols = ag._im2col(padded_nhwc(x, padding), k, k, stride, np.empty(ref_cols.size, dtype))
                assert cols.flags.c_contiguous
                assert_same_bits(cols, ref_cols)
                dcols = rng.normal(size=cols.shape).astype(dtype)
                dcols[rng.random(cols.shape) < 0.3] = -0.0
                dxn = np.zeros_like(padded_nhwc(x, padding))
                ag._col2im(dcols, dxn, k, k, stride)
                assert_same_bits(cropped_nchw(dxn, padding),
                                 reference_col2im(dcols, x.shape, k, k, stride, padding, ho, wo))

    def test_negative_zero_taps_sum_to_positive_zero(self):
        dcols = np.full((1, 9, 9), -0.0, dtype=np.float32)
        dxn = np.zeros((1, 5, 5, 1), dtype=np.float32)
        ag._col2im(dcols, dxn, 3, 3, 1)
        assert not np.signbit(cropped_nchw(dxn, 1)).any()


def default_conv_shapes(batch: int) -> list:
    """(x shape, weight shape, stride, padding) of every conv in the default models."""
    seen = []
    record = ag.conv2d

    def recording(x, weight, bias, stride=1, padding=0):
        key = ((batch,) + x.shape[1:], weight.shape, stride, padding)
        if key not in seen:
            seen.append(key)
        return record(x, weight, bias, stride, padding)

    ag.conv2d = recording
    try:
        x = ag.Tensor(np.zeros((2, 1, 64, 64), dtype=np.float32))
        with ag.no_grad():
            for model in (mdl.Generator(mdl.GeneratorConfig()),
                          mdl.Discriminator(mdl.DiscriminatorConfig()),
                          mdl.UNet(mdl.UNetConfig())):
                model(x)
    finally:
        ag.conv2d = record
    return seen


def conv_inputs(rng, x_shape, w_shape, dtype):
    x = ag.Tensor(rng.normal(size=x_shape).astype(dtype), requires_grad=True)
    w = ag.Tensor((rng.normal(size=w_shape) * 0.1).astype(dtype), requires_grad=True)
    b = ag.Tensor(rng.normal(size=w_shape[0]).astype(dtype), requires_grad=True)
    return x, w, b


def assert_conv_matches_reference(x, w, b, stride, padding, rng):
    """Forward, dx, dw and db of conv2d equal reference_conv2d's bit for bit."""
    out = ag.conv2d(x, w, b, stride, padding)
    g = rng.normal(size=out.shape).astype(out.dtype)
    grads = out._backward(g)
    ref, ref_bwd = reference_conv2d(x, w, b, stride, padding)
    assert_same_bits(out.data, ref)
    for new, old in zip(grads, ref_bwd(g)):
        assert_same_bits(new, old)


class TestConvAtModelShapes:
    """conv2d forward, dx, dw and db at the default models' shapes equal the
    reference conv bit for bit."""

    SHAPES = default_conv_shapes(batch=16)

    @pytest.mark.parametrize("x_shape, w_shape, stride, padding", SHAPES,
                             ids=[f"{x}-{w}-s{s}" for x, w, s, _ in SHAPES])
    def test_bitwise(self, x_shape, w_shape, stride, padding):
        rng = np.random.default_rng(sum(x_shape) + sum(w_shape))
        x, w, b = conv_inputs(rng, x_shape, w_shape, np.float32)
        assert_conv_matches_reference(x, w, b, stride, padding, rng)

    def test_shapes_cover_the_models(self):
        assert len(self.SHAPES) >= 15
        assert any(s == 2 for _, _, s, _ in self.SHAPES)
        assert any(w[2] == 1 for _, w, _, _ in self.SHAPES)
        assert any(w[0] == 1 for _, w, _, _ in self.SHAPES)
        assert max(x[1] for x, _, _, _ in self.SHAPES) >= 256


class TestConvAtOddShapes:
    """conv2d against the reference conv on odd 9x11 maps in float64, with
    forward chunks of one, two (the last one short) and all five items."""

    @pytest.mark.parametrize("items", [1, 2, 5])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_bitwise(self, monkeypatch, items, stride):
        rng = np.random.default_rng(stride)
        for padding in (0, 1, 2):
            for k in (1, 3, 5):
                ho = (9 + 2 * padding - k) // stride + 1
                wo = (11 + 2 * padding - k) // stride + 1
                # a block of `items` float64 column matrices of one item each
                monkeypatch.setattr(ag, "_BLOCK_BYTES", items * ho * wo * 2 * k * k * 8)
                x, w, b = conv_inputs(rng, (5, 2, 9, 11), (3, 2, k, k), np.float64)
                assert_conv_matches_reference(x, w, b, stride, padding, rng)


def takes_taps(x_shape, w_shape, stride, padding) -> bool:
    """Whether conv2d's backward goes one kernel tap at a time at these shapes."""
    ho = (x_shape[2] + 2 * padding - w_shape[2]) // stride + 1
    wo = (x_shape[3] + 2 * padding - w_shape[3]) // stride + 1
    return ag._by_taps(x_shape[0], x_shape[1], w_shape[0], ho * wo)


class TestTapRule:
    """The convs whose backward goes one kernel tap at a time are picked by a
    fact about this OpenBLAS build (_by_taps), so it is pinned here: which
    default convs it picks, and that default-scale steps, which take it
    where smoke-scale runs hardly do, keep the im2col conv's bits."""

    # (input shape, weight shape) of the 17 default convs at batch 16 that
    # take the tap rule; the other six (Cin = 1, and the discriminator's two
    # smallest maps) keep im2col
    TAPS = [((16, 24, 32, 32), (24, 24, 3, 3)), ((16, 28, 32, 32), (32, 28, 1, 1)),
            ((16, 32, 32, 32), (4, 32, 3, 3)), ((16, 24, 16, 16), (24, 24, 3, 3)),
            ((16, 28, 16, 16), (32, 28, 1, 1)), ((16, 32, 64, 64), (32, 32, 3, 3)),
            ((16, 32, 32, 32), (64, 32, 3, 3)), ((16, 64, 32, 32), (64, 64, 3, 3)),
            ((16, 64, 16, 16), (128, 64, 3, 3)), ((16, 128, 16, 16), (128, 128, 3, 3)),
            ((16, 128, 8, 8), (256, 128, 3, 3)), ((16, 256, 8, 8), (256, 256, 3, 3)),
            ((16, 196, 8, 8), (256, 196, 1, 1)), ((16, 256, 16, 16), (128, 256, 3, 3)),
            ((16, 128, 32, 32), (64, 128, 3, 3)), ((16, 64, 64, 64), (32, 64, 3, 3)),
            ((16, 32, 64, 64), (1, 32, 3, 3))]

    def test_default_shapes_taking_the_tap_rule(self):
        shapes = TestConvAtModelShapes.SHAPES
        assert len(shapes) == 23
        assert [(x, w) for x, w, s, p in shapes if takes_taps(x, w, s, p)] == self.TAPS

    @pytest.mark.parametrize("make", [lambda: mdl.UNet(mdl.UNetConfig(), init_seed=3),
                                      lambda: mdl.Generator(mdl.GeneratorConfig(), init_seed=3)],
                             ids=["unet", "generator"])
    def test_default_step_matches_the_im2col_conv(self, monkeypatch, make):
        # one forward, L1 loss and backward at batch 16 on 2 lanes: the
        # output and every parameter gradient, against the same step on
        # im2col_conv2d
        monkeypatch.setattr(ag, "_LANES", 2)
        rng = np.random.default_rng(21)
        x, target = rng.normal(size=(2, 16, 1, 64, 64)).astype(np.float32)
        tap_calls = []
        tap_backward = ag._tap_backward

        def counting_tap_backward(*args):
            tap_calls.append(args[0].shape)
            return tap_backward(*args)

        def step():
            model = make()
            out = model(t32(x))
            ag.backward(ag.tmean(ag.absval(ag.sub(out, t32(target)))))
            return [out.data] + [p.grad for p in model.trainable_parameters()]

        monkeypatch.setattr(ag, "_tap_backward", counting_tap_backward)
        by_taps = step()
        assert tap_calls
        monkeypatch.setattr(ag, "conv2d", im2col_conv2d)
        for new, old in zip(by_taps, step(), strict=True):
            assert_same_bits(new, old)


class TestConvLanes:
    """conv2d runs its forward through _on_items: a batch whose columns
    exceed one block splits into a run of chunks of whole items per lane, a
    smaller one runs on the calling thread alone. The im2col backward runs on
    the calling thread alone. The lane count changes no bit, and a failing
    lane is raised in the caller."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_lane_count_changes_nothing(self, monkeypatch, dtype):
        # every model shape at batch 1 and 3 (fewer items than lanes, and
        # uneven runs), and in float32 also at the models' batch of 16
        for x_shape, w_shape, stride, padding in TestConvAtModelShapes.SHAPES:
            for batch in (1, 3, 16) if dtype == np.float32 else (1, 3):
                rng = np.random.default_rng(sum(x_shape) + sum(w_shape) + batch)
                x, w, b = conv_inputs(rng, (batch,) + x_shape[1:], w_shape, dtype)
                ref, ref_bwd = reference_conv2d(x, w, b, stride, padding)
                g = rng.normal(size=ref.shape).astype(dtype)
                ref_grads = ref_bwd(g)
                for lanes in (1, 2, 3, 17):
                    monkeypatch.setattr(ag, "_LANES", lanes)
                    out = ag.conv2d(x, w, b, stride, padding)
                    assert_same_bits(out.data, ref)
                    for new, old in zip(out._backward(g), ref_grads):
                        assert_same_bits(new, old)

    def test_im2col_backward_stays_on_the_calling_thread(self, monkeypatch):
        # the Generator's output conv: its 2.25 MiB of columns at batch 16
        # split its forward over 2 lanes, but its backward is one whole-batch
        # _im2col and one _col2im in the caller, with no lane split
        monkeypatch.setattr(ag, "_LANES", 2)
        x_shape, w_shape = (16, 1, 64, 64), (1, 1, 3, 3)
        assert (x_shape, w_shape, 1, 1) in TestConvAtModelShapes.SHAPES
        assert not takes_taps(x_shape, w_shape, 1, 1)
        assert ag._chunk(16, 64 * 64 * 9 * 4) == (2, 7)
        rng = np.random.default_rng(7)
        x, w, b = conv_inputs(rng, x_shape, w_shape, np.float32)
        out = ag.conv2d(x, w, b, 1, 1)
        g = rng.normal(size=out.shape).astype(np.float32)
        calls = []

        def recording(name):
            fn = getattr(ag, name)

            def call(*args):
                calls.append((name, threading.get_ident()))
                return fn(*args)

            monkeypatch.setattr(ag, name, call)

        for name in ("_im2col", "_col2im", "_on_items", "_on_lanes"):
            recording(name)
        grads = out._backward(g)
        caller = threading.get_ident()
        assert calls == [("_im2col", caller), ("_col2im", caller)]
        for new, old in zip(grads, reference_conv2d(x, w, b, 1, 1)[1](g)):
            assert_same_bits(new, old)

    def test_no_grad_forward(self, monkeypatch):
        monkeypatch.setattr(ag, "_LANES", 3)
        rng = np.random.default_rng(4)
        x, w, b = conv_inputs(rng, (5, 8, 16, 16), (6, 8, 3, 3), np.float32)
        with ag.no_grad():
            out = ag.conv2d(x, w, b, 1, 1)
        assert not out.requires_grad
        assert_same_bits(out.data, reference_conv2d(x, w, b, 1, 1)[0])

    @pytest.mark.parametrize("failing", [0, 2], ids=["caller", "qcseis-conv-lane-2"])
    def test_failing_lane_is_raised_after_every_lane_ran(self, monkeypatch, failing):
        # 6 items of 324 KiB of columns on 3 lanes: more than one block, so
        # the batch splits into runs of 2 items, each built in one chunk (3
        # items fit a block), so each lane makes one _im2col call; run 0 is
        # the caller's
        monkeypatch.setattr(ag, "_LANES", 3)
        finished = []
        im2col = ag._im2col

        def failing_im2col(xn, *args):
            # the run is told by its first item, read from the padded scratch
            lane = int(np.flatnonzero(x.data[:, 0, 0, 0] == xn[0, 1, 1, 0])[0]) // 2
            if lane == failing:
                raise RuntimeError("lane failed")
            time.sleep(0.05)
            finished.append(lane)
            return im2col(xn, *args)

        rng = np.random.default_rng(5)
        x, w, b = conv_inputs(rng, (6, 4, 48, 48), (5, 4, 3, 3), np.float32)
        assert ag._chunk(6, 48 * 48 * 4 * 9 * 4) == (3, 3)
        monkeypatch.setattr(ag, "_im2col", failing_im2col)
        with pytest.raises(RuntimeError, match="lane failed"):
            ag.conv2d(x, w, b, 1, 1)
        assert len(finished) == 2  # the other two lanes ran to the end before the error surfaced
        monkeypatch.setattr(ag, "_im2col", im2col)
        assert_conv_matches_reference(x, w, b, 1, 1, rng)

    def test_interrupt_while_waiting_waits_for_every_lane(self, monkeypatch):
        # the caller's run returns at once and the worker lanes' runs take
        # 0.3 s; SIGALRM raises in the caller at 0.1 and 0.2 s, while it waits,
        # so a wait that gave up on each interrupted lane would end too soon
        monkeypatch.setattr(ag, "_LANES", 3)
        finished, alarms = [], []

        class Alarm(Exception):
            pass

        def run(lane):
            if lane:
                time.sleep(0.3)
            finished.append(lane)

        def on_alarm(signum, frame):
            alarms.append(signum)
            if len(alarms) <= 2:
                raise Alarm

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, 0.1, 0.1)
        try:
            with pytest.raises(Alarm):
                ag._on_lanes(run, [(0,), (1,), (2,)])
            seen = sorted(finished)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert seen == [0, 1, 2]  # the interrupt surfaced only once every lane had finished

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_gets_a_fresh_pool(self, monkeypatch):
        monkeypatch.setattr(ag, "_LANES", 3)
        rng = np.random.default_rng(6)
        x, w, b = conv_inputs(rng, (6, 4, 48, 48), (5, 4, 3, 3), np.float32)
        g = rng.normal(size=(6, 5, 48, 48)).astype(np.float32)
        out = ag.conv2d(x, w, b, 1, 1)  # its columns exceed one block, so it splits and the pool has started
        assert ag._POOL is not None
        ref = [bits(a) for a in (out.data, *out._backward(g))]
        pid = os.fork()
        if pid == 0:  # the child: the parent's lane threads do not exist here
            code = 1
            try:
                out = ag.conv2d(x, w, b, 1, 1)
                code = int(not all(np.array_equal(bits(a), r) for a, r in zip((out.data, *out._backward(g)), ref)))
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's conv did not finish in 60 s")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_import_starts_no_thread_and_no_new_module(self):
        # the standard-library modules the package imports, loaded first, so
        # that whatever they pull in on this Python is not counted
        stdlib = ("__future__", "argparse", "contextlib", "csv", "dataclasses", "functools", "json",
                  "logging", "os", "pathlib", "struct", "sys", "threading", "time")
        code = (f"import {', '.join(stdlib)}, numpy\n"
                "before = set(sys.modules)\n"
                "import qcseis.cli\n"
                "print(threading.active_count(), *sorted(set(sys.modules) - before))")
        src = str(Path(ag.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=src))
        assert done.returncode == 0, done.stderr
        threads, *new = done.stdout.split()
        assert threads == "1"
        assert [m for m in new if m.split(".")[0] != "qcseis"] == []


class TestOnItems:
    """_on_items, the one split of every per-item pass: chunks of whole
    items of about a block each, a contiguous run of chunks per lane in
    order with lane 0 the calling thread, or a single call on the caller
    when the batch fits in one block."""

    @pytest.mark.parametrize("lanes", [1, 2, 3, 17])
    @pytest.mark.parametrize("b", [1, 3, 16, 17])
    @pytest.mark.parametrize("step", [1, 3, "b", "more"])
    def test_chunks_cover_the_batch(self, monkeypatch, lanes, b, step):
        monkeypatch.setattr(ag, "_LANES", lanes)
        step = {"b": b, "more": b + 5}.get(step, step)
        item_bytes = ag._BLOCK_BYTES // step
        assert max(1, ag._BLOCK_BYTES // item_bytes) == step
        calls, caller = [], threading.get_ident()
        ag._on_items(lambda lane, k, j: calls.append((lane, k, j, threading.get_ident())), b, item_bytes)
        if step >= b:
            assert calls == [(0, 0, b, caller)]
            return
        by_lane = {}
        for lane, k, j, ident in calls:
            by_lane.setdefault(lane, []).append((k, j, ident))
        assert sorted(by_lane) == list(range(min(lanes, b)))
        # lane after lane, each lane's chunks in the order it ran them: one
        # contiguous cover of the batch, so every item comes once
        chunks = [(k, j) for lane in sorted(by_lane) for k, j, _ in by_lane[lane]]
        assert [k for k, _ in chunks] == [0] + [j for _, j in chunks[:-1]]
        assert chunks[-1][1] == b
        assert all(0 < j - k <= step for k, j in chunks)
        # a lane cuts a chunk short only at the end of its run
        for lane, run in by_lane.items():
            assert all(j - k == step for k, j, _ in run[:-1])
            assert len({ident for _, _, ident in run}) == 1
            assert (run[0][2] == caller) == (lane == 0)

    @pytest.mark.parametrize("failing", [0, 2], ids=["caller", "lane-2"])
    def test_failing_chunk_is_raised_after_every_lane_ran(self, monkeypatch, failing):
        # 6 items of a block each on 3 lanes: runs of two one-item chunks;
        # run 0 is the caller's
        monkeypatch.setattr(ag, "_LANES", 3)
        finished = []

        def fn(lane, k, j):
            if lane == failing:
                raise RuntimeError("chunk failed")
            time.sleep(0.05)
            finished.append(k)

        with pytest.raises(RuntimeError, match="chunk failed"):
            ag._on_items(fn, 6, ag._BLOCK_BYTES)
        # the other two lanes ran both their chunks before the error surfaced
        assert sorted(finished) == [k for k in range(6) if k // 2 != failing]

    def test_small_unit_starts_no_thread(self):
        # a conv -> batch norm -> PReLU unit, forward and backward: one whose
        # batch fits one block runs on the calling thread alone; one whose
        # conv columns exceed a block starts the lanes
        code = ("import threading\n"
                "import numpy as np\n"
                "from qcseis import autograd as ag\n"
                "ag._LANES = 2\n"
                "def unit(b, cin, c, size):\n"
                "    rng = np.random.default_rng(b)\n"
                "    t = lambda *shape: ag.Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)\n"
                "    x, w, bias, gamma, beta, alpha = t(b, cin, size, size), t(c, cin, 3, 3), t(c), t(c), t(c), t(c)\n"
                "    out = ag.batchnorm2d(ag.conv2d(x, w, bias, 1, 1), gamma, beta, np.zeros(c, np.float32),\n"
                "                         np.ones(c, np.float32), training=True)\n"
                "    ag.backward(ag.tsum(ag.prelu(out, alpha)))\n"
                "    assert x.grad is not None and w.grad is not None\n"
                "unit(4, 3, 16, 12)\n"
                "print(threading.active_count(), ag._POOL is None)\n"
                "unit(8, 16, 16, 32)\n"
                "print(threading.active_count(), ag._POOL is not None)\n")
        src = str(Path(ag.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=src))
        assert done.returncode == 0, done.stderr
        small, large = done.stdout.splitlines()
        assert small == "1 True"
        assert large == "2 True"


class TestQuantumLanes:
    """The quantum layer cuts its windows into chunks on a fixed grid from
    window 0, the last chunk taking the remainder, and each lane takes a
    run of whole chunks; the lane count changes no bit, the default chunks
    give the bits of one whole-array chunk, and a failing chunk is raised in
    the caller."""

    CFG = qlayer.QuantumLayerConfig(seed=7, input_scale=0.9)

    def inputs(self, shape):
        rng = np.random.default_rng(sum(shape))
        x = rng.normal(size=shape)
        upstream = rng.normal(size=(shape[0], self.CFG.n_circuits) + shape[2:])
        return x, upstream, qlayer.unfold(x, self.CFG) * self.CFG.input_scale

    def outputs(self, x, upstream, rows):
        circuits = self.CFG.make_circuits()
        return (qlayer.quantum_forward(x, circuits, self.CFG),
                qlayer.quantum_input_grad(upstream, x.shape, rows, circuits, self.CFG))

    # 7920, 7425 and 60 windows, where an even split per lane would move
    # GEMM tails (the last two are not multiples of 8), and the GAN's
    # largest and smallest calls
    @pytest.mark.parametrize("shape", [(5, 3, 33, 61), (5, 3, 33, 57), (3, 2, 5, 7), (16, 8, 32, 32),
                                       (16, 8, 4, 4)], ids=str)
    def test_lane_count_changes_nothing(self, monkeypatch, shape):
        x, upstream, rows = self.inputs(shape)
        # chunks of 2048 (the default), 1024 and 64 windows: all leave a
        # ragged last chunk on some of the shapes
        for block in (1 << 20, 1 << 19, 1):
            monkeypatch.setattr(ag, "_BLOCK_BYTES", block)
            monkeypatch.setattr(ag, "_LANES", 1)
            ref = self.outputs(x, upstream, rows)
            for lanes in (2, 3, 17):
                monkeypatch.setattr(ag, "_LANES", lanes)
                for new, old in zip(self.outputs(x, upstream, rows), ref):
                    assert_same_bits(new, old)

    # 4101 windows: two chunks of 2048 and a remainder of 5, which on its
    # own would take another GEMM kernel than the whole array's last 5 columns
    @pytest.mark.parametrize("shape", [(1, 3, 1367, 4), (5, 3, 33, 57), (16, 8, 32, 32)], ids=str)
    def test_default_chunks_match_one_chunk(self, monkeypatch, shape):
        x, upstream, rows = self.inputs(shape)
        monkeypatch.setattr(ag, "_LANES", 2)
        chunked = self.outputs(x, upstream, rows)
        monkeypatch.setattr(ag, "_BLOCK_BYTES", 1 << 40)
        for new, old in zip(chunked, self.outputs(x, upstream, rows)):
            assert_same_bits(new, old)

    @pytest.mark.parametrize("failing", [0, 2], ids=["caller", "lane-2"])
    def test_failing_chunk_is_raised_after_every_lane_ran(self, monkeypatch, failing):
        # 384 windows in chunks of 64 on 3 lanes: runs of two chunks, each
        # encoded once; run 0 is the caller's
        monkeypatch.setattr(ag, "_LANES", 3)
        monkeypatch.setattr(ag, "_BLOCK_BYTES", 1)
        cfg = qlayer.QuantumLayerConfig(seed=7)
        circuits = cfg.make_circuits()
        x = np.random.default_rng(9).normal(size=(2, 3, 4, 64))
        rows = qlayer.unfold(x, cfg)
        finished = []
        encode = qlayer._encode_rows

        def failing_encode(chunk):
            # the run is told by the chunk's first window
            lane = int(np.flatnonzero((rows == chunk[0]).all(axis=1))[0]) // 128
            if lane == failing:
                raise RuntimeError("chunk failed")
            time.sleep(0.05)
            finished.append(lane)
            return encode(chunk)

        monkeypatch.setattr(qlayer, "_encode_rows", failing_encode)
        with pytest.raises(RuntimeError, match="chunk failed"):
            qlayer.quantum_forward(x, circuits, cfg)
        # the other two lanes ran both their chunks before the error surfaced
        assert sorted(finished) == sorted(2 * [lane for lane in range(3) if lane != failing])
        monkeypatch.setattr(qlayer, "_encode_rows", encode)
        out = qlayer.quantum_forward(x, circuits, cfg)
        monkeypatch.setattr(ag, "_LANES", 1)
        assert_same_bits(out, qlayer.quantum_forward(x, circuits, cfg))


def whole_prelu(x, alpha):
    """prelu as it was before its passes ran on the lanes: whole-batch
    expressions, verbatim."""
    ag._same_dtype(x, alpha)
    if x.ndim != 4:
        raise ag.ShapeError("prelu expects a 4-d input")
    if alpha.shape != (x.shape[1],):
        raise ag.ShapeError(f"alpha shape {alpha.shape} does not match {x.shape[1]} channels")
    a = alpha.data[None, :, None, None]
    xd = x.data
    out = np.where(xd >= 0, xd, a * xd)

    def bwd(g):
        dx = g * np.where(xd > 0, xd.dtype.type(1), a)
        da = (g * xd * (xd < 0)).sum(axis=(0, 2, 3))
        return dx, da

    return ag._result(out, (x, alpha), bwd)


def whole_batchnorm2d(x, gamma, beta, running_mean, running_var, training):
    """batchnorm2d as it was before its passes ran on the lanes, verbatim."""
    ag._same_dtype(x, gamma, beta)
    if x.ndim != 4:
        raise ag.ShapeError("batchnorm2d expects a 4-d input")
    b, c, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ag.ShapeError("batchnorm2d gamma/beta must be per-channel vectors")
    xd = x.data
    if training:
        if b < 2:
            raise ag.DegenerateBatchError("batchnorm2d needs batch size >= 2 in training mode")
        mu = xd.mean(axis=(0, 2, 3))
        var = xd.var(axis=(0, 2, 3))
        running_mean *= 1.0 - ag._BN_MOMENTUM
        running_mean += ag._BN_MOMENTUM * mu.astype(running_mean.dtype)
        running_var *= 1.0 - ag._BN_MOMENTUM
        running_var += ag._BN_MOMENTUM * var.astype(running_var.dtype)
    else:
        mu = running_mean.astype(xd.dtype)
        var = running_var.astype(xd.dtype)

    inv = 1.0 / np.sqrt(var + xd.dtype.type(ag._BN_EPS))
    xhat = (xd - mu[None, :, None, None]) * inv[None, :, None, None]
    out = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]

    def bwd(g):
        dbeta = g.sum(axis=(0, 2, 3))
        dgamma = (g * xhat).sum(axis=(0, 2, 3))
        dxhat = g * gamma.data[None, :, None, None]
        if training:
            m = b * h * w
            sum_dxhat = dxhat.sum(axis=(0, 2, 3))[None, :, None, None]
            sum_dxhat_xhat = (dxhat * xhat).sum(axis=(0, 2, 3))[None, :, None, None]
            dx = (inv[None, :, None, None] / m) * (m * dxhat - sum_dxhat - xhat * sum_dxhat_xhat)
        else:
            dx = dxhat * inv[None, :, None, None]
        return dx, dgamma, dbeta

    return ag._result(out, (x, gamma, beta), bwd)


def whole_maxpool2d(x, k=2):
    """maxpool2d as it was before its passes ran on the lanes, verbatim."""
    b, c, h, w = x.shape
    if h % k or w % k:
        raise ag.ShapeError(f"maxpool2d needs spatial dims divisible by {k}, got {h}x{w}")
    ho, wo = h // k, w // k
    windows = x.data.reshape(b, c, ho, k, wo, k).transpose(0, 1, 2, 4, 3, 5).reshape(b, c, ho, wo, k * k)
    idx = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]

    def bwd(g):
        dwin = np.zeros((b, c, ho, wo, k * k), dtype=g.dtype)
        np.put_along_axis(dwin, idx[..., None], g[..., None], axis=-1)
        dx = dwin.reshape(b, c, ho, wo, k, k).transpose(0, 1, 2, 4, 3, 5).reshape(b, c, h, w)
        return (np.ascontiguousarray(dx),)

    return ag._result(out, (x,), bwd)


def whole_nearest_upsample(x, factors):
    """nearest_upsample as it was before its backward ran on the lanes, verbatim."""
    fh, fw = factors
    if fh < 1 or fw < 1:
        raise ag.ShapeError("upsample factors must be >= 1")
    b, c, h, w = x.shape
    out = x.data
    if fh > 1:
        out = np.repeat(out, fh, axis=2)
    if fw > 1:
        out = np.repeat(out, fw, axis=3)

    def bwd(g):
        dx = g.reshape(b, c, h, fh, w, fw).sum(axis=(3, 5))
        return (dx,)

    return ag._result(out, (x,), bwd)


# each op that runs its per-item passes on the lanes, and its whole-batch copy
WHOLE_OPS = {"batchnorm2d": whole_batchnorm2d, "prelu": whole_prelu, "maxpool2d": whole_maxpool2d,
             "nearest_upsample": whole_nearest_upsample}
ITEM_OPS = tuple(WHOLE_OPS)


def default_item_op_shapes() -> dict:
    """For each of ITEM_OPS, the (per-item input shape, upsample factors or
    None) pairs it sees in the default models, and whether every input was
    C-ordered."""
    seen = {name: [] for name in ITEM_OPS}
    layouts = set()
    originals = {name: getattr(ag, name) for name in ITEM_OPS}

    def recording(name):
        def op(x, *args, **kwargs):
            key = (x.shape[1:], args[0] if name == "nearest_upsample" else None)
            if key not in seen[name]:
                seen[name].append(key)
            layouts.add(x.data.flags.c_contiguous)
            return originals[name](x, *args, **kwargs)

        return op

    try:
        for name in ITEM_OPS:
            setattr(ag, name, recording(name))
        x = ag.Tensor(np.zeros((2, 1, 64, 64), dtype=np.float32))
        with ag.no_grad():
            for model in (mdl.Generator(mdl.GeneratorConfig()),
                          mdl.Discriminator(mdl.DiscriminatorConfig()),
                          mdl.UNet(mdl.UNetConfig())):
                model(x)
    finally:
        for name, op in originals.items():
            setattr(ag, name, op)
    return seen, layouts


def item_op_run(op, x, params, g, whole=False):
    """Output, gradients and running buffers of one forward and backward of
    `op` (batch norm as batchnorm2d_train or batchnorm2d_eval), by the ag op
    or, if `whole`, by its whole-batch copy, as arrays."""
    name = op.removesuffix("_train").removesuffix("_eval")
    fn = WHOLE_OPS[name] if whole else getattr(ag, name)
    buffers = []
    if name == "batchnorm2d":
        c = x.shape[1]
        buffers = [np.linspace(-0.2, 0.3, c).astype(np.float32), np.linspace(0.5, 1.5, c).astype(np.float32)]
        out = fn(x, *params, *buffers, training=op == "batchnorm2d_train")
    else:
        out = fn(x, *params)
    grad = np.zeros_like(out.data)  # laid out as backward lays out the output's gradient
    grad[...] = g[tuple(slice(n) for n in grad.shape)]
    return [out.data, *out._backward(grad), *buffers]


class TestItemOpsOnLanes:
    """batchnorm2d, prelu, maxpool2d and nearest_upsample run their per-item
    passes on the lanes in chunks of whole items. At every shape the
    default models give them, at batches 1, 3 and 16, in C order and
    NHWC-strided, with -0.0 and NaN in the output gradient, the output,
    every gradient and the running buffers equal the whole-batch copies'
    in values and strides, at 1, 2, 3 and 17 lanes; at batches 1 and 3 also
    with chunks of one item."""

    SHAPES, LAYOUTS = default_item_op_shapes()

    def test_shapes_cover_the_models(self):
        assert [len(self.SHAPES[name]) for name in ITEM_OPS] == [8, 9, 3, 3]
        assert self.LAYOUTS == {False}  # every input is a conv, batch norm or PReLU output, NHWC-strided
        assert {f for _, f in self.SHAPES["nearest_upsample"]} == {(2, 2)}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", ["batchnorm2d_train", "batchnorm2d_eval", "prelu", "maxpool2d",
                                    "nearest_upsample"])
    def test_lane_count_and_chunks_change_nothing(self, monkeypatch, op, dtype):
        block = ag._BLOCK_BYTES
        for item_shape, factors in self.SHAPES[op.removesuffix("_train").removesuffix("_eval")]:
            c = item_shape[0]
            for batch in (1, 3, 16) if dtype == np.float32 else (1, 3):
                if op == "batchnorm2d_train" and batch == 1:
                    continue  # rejected, as TestBatchNorm checks
                rng = np.random.default_rng(sum(item_shape) + batch)
                data = rng.normal(size=(batch,) + item_shape).astype(dtype)
                data.reshape(-1)[::11] = -0.0
                data.reshape(-1)[5::13] = 0.0
                g = rng.normal(size=(batch, c, 2 * item_shape[1], 2 * item_shape[2])).astype(dtype)
                g.reshape(-1)[::7] = -0.0
                g.reshape(-1)[3::2999] = np.nan
                if op == "nearest_upsample":
                    params = [factors]
                elif op == "prelu":
                    params = [ag.Tensor((rng.normal(size=c) * 0.3).astype(dtype), requires_grad=True)]
                elif op.startswith("batchnorm2d"):
                    params = [ag.Tensor((1 + rng.normal(size=c) * 0.1).astype(dtype), requires_grad=True),
                              ag.Tensor((rng.normal(size=c) * 0.1).astype(dtype), requires_grad=True)]
                else:
                    params = []
                for layout in ("c", "nhwc"):
                    x = data if layout == "c" else data.transpose(0, 2, 3, 1).copy().transpose(0, 3, 1, 2)
                    x = ag.Tensor(x, requires_grad=True)
                    ref = item_op_run(op, x, params, g, whole=True)
                    for lanes, block_bytes in itertools.product(
                            (1, 2, 3, 17), (block, 1) if batch < 16 else (block,)):
                        monkeypatch.setattr(ag, "_LANES", lanes)
                        monkeypatch.setattr(ag, "_BLOCK_BYTES", block_bytes)  # 1: a chunk per item
                        for new, old in zip(item_op_run(op, x, params, g), ref, strict=True):
                            assert new.strides == old.strides, (op, item_shape, batch, layout, lanes)
                            assert_same_bits(new, old)

    @pytest.mark.parametrize("factors", [(1, 1), (1, 2), (3, 1), (2, 4)])
    def test_upsample_gradient_at_other_factors(self, monkeypatch, factors):
        # at (1, 1) the output is the input itself, so the gradient and the
        # sum keep an NHWC input's layout
        monkeypatch.setattr(ag, "_BLOCK_BYTES", 1)
        rng = np.random.default_rng(9)
        data = rng.normal(size=(5, 6, 4, 3)).astype(np.float32)
        g = rng.normal(size=(5, 6, 12, 12)).astype(np.float32)
        g.reshape(-1)[::5] = -0.0
        for layout in ("c", "nhwc"):
            x = data if layout == "c" else data.transpose(0, 2, 3, 1).copy().transpose(0, 3, 1, 2)
            x = ag.Tensor(x, requires_grad=True)
            ref = item_op_run("nearest_upsample", x, [factors], g, whole=True)
            for lanes in (1, 2, 3):
                monkeypatch.setattr(ag, "_LANES", lanes)
                for new, old in zip(item_op_run("nearest_upsample", x, [factors], g), ref, strict=True):
                    assert new.strides == old.strides, (factors, layout, lanes)
                    assert_same_bits(new, old)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["c", "nhwc"])
    def test_training_variance_is_np_var(self, monkeypatch, dtype, layout):
        # with momentum 1 the running variance becomes the batch variance
        # itself, which batchnorm2d takes from the mean it has just taken
        monkeypatch.setattr(ag, "_BN_MOMENTUM", 1.0)
        rng = np.random.default_rng(8)
        for shape in ((16, 32, 64, 64), (3, 24, 4, 4), (2, 5, 7, 3)):
            x = (rng.normal(size=shape) * 3 + 1).astype(dtype)
            if layout == "nhwc":
                x = x.transpose(0, 2, 3, 1).copy().transpose(0, 3, 1, 2)
            c = shape[1]
            running_mean, running_var = np.zeros(c, dtype), np.zeros(c, dtype)
            ag.batchnorm2d(ag.Tensor(x), ag.Tensor(np.ones(c, dtype)), ag.Tensor(np.zeros(c, dtype)),
                           running_mean, running_var, training=True)
            assert_same_bits(running_mean, x.mean(axis=(0, 2, 3)))
            assert_same_bits(running_var, np.var(x, axis=(0, 2, 3)))


class TestPrelu:
    def test_positive_passthrough(self):
        x = t32(np.full((1, 1, 1, 1), 2.0))
        out = ag.prelu(x, t32([0.25]))
        assert out.data[0, 0, 0, 0] == 2.0

    def test_negative_scaled(self):
        x = t32(np.full((1, 1, 1, 1), -2.0))
        out = ag.prelu(x, t32([0.25]))
        assert out.data[0, 0, 0, 0] == -0.5


class TestBatchNorm:
    def test_constant_channel_gives_beta(self):
        x = t32(np.full((4, 2, 3, 3), 1.7))
        gamma, beta = t32(np.ones(2)), t32(np.array([0.3, -0.4]))
        out = ag.batchnorm2d(x, gamma, beta, np.zeros(2, np.float32), np.ones(2, np.float32),
                             training=True)
        assert np.allclose(out.data[:, 0], 0.3, atol=1e-4)
        assert np.allclose(out.data[:, 1], -0.4, atol=1e-4)

    def test_standardized_input_passthrough(self):
        rng = np.random.default_rng(1)
        raw = rng.normal(size=(8, 3, 6, 6)).astype(np.float32)
        raw -= raw.mean(axis=(0, 2, 3), keepdims=True)
        raw /= raw.std(axis=(0, 2, 3), keepdims=True)
        out = ag.batchnorm2d(t32(raw), t32(np.ones(3)), t32(np.zeros(3)),
                             np.zeros(3, np.float32), np.ones(3, np.float32),
                             training=True)
        assert np.max(np.abs(out.data - raw)) < 1e-4

    def test_batch_of_one_rejected(self):
        with pytest.raises(ag.DegenerateBatchError):
            ag.batchnorm2d(t32(np.ones((1, 2, 3, 3))), t32(np.ones(2)), t32(np.zeros(2)),
                           np.zeros(2, np.float32), np.ones(2, np.float32), training=True)

    def test_running_stats_update(self):
        rm = np.zeros(1, np.float32)
        rv = np.ones(1, np.float32)
        x = t32(np.full((4, 1, 2, 2), 2.0))
        ag.batchnorm2d(x, t32(np.ones(1)), t32(np.zeros(1)), rm, rv, training=True)
        assert abs(rm[0] - 0.2) < 1e-6  # momentum 0.1 toward the batch mean of 2
        ag.batchnorm2d(x, t32(np.ones(1)), t32(np.zeros(1)), rm, rv, training=False)
        assert abs(rm[0] - 0.2) < 1e-6  # eval mode leaves buffers alone


class TestPixelShuffle:
    def test_r1_identity(self):
        x = t32(np.arange(12).reshape(1, 3, 2, 2))
        assert np.array_equal(ag.pixel_shuffle(x, 1).data, x.data)

    def test_index_map(self):
        x = t32(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1, 1))
        out = ag.pixel_shuffle(x, 2).data[0, 0]
        assert np.array_equal(out, [[1, 2], [3, 4]])

    def test_index_map_exhaustive(self):
        r, c, h, w = 2, 2, 3, 2
        x = np.arange(c * r * r * h * w, dtype=np.float32).reshape(1, c * r * r, h, w)
        out = ag.pixel_shuffle(t32(x), r).data
        for ch in range(c):
            for i in range(h * r):
                for j in range(w * r):
                    src = x[0, ch * r * r + (i % r) * r + (j % r), i // r, j // r]
                    assert out[0, ch, i, j] == src

    def test_roundtrip_bit_exact(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 8, 3, 4)).astype(np.float32)
        shuffled = ag.pixel_shuffle(t32(x, grad=True), 2)
        ag.backward(ag.tsum(ag.mul(shuffled, shuffled)))
        # the adjoint is the inverse rearrangement: check with a known gradient
        assert shuffled.shape == (2, 2, 6, 8)

    def test_indivisible_channels(self):
        with pytest.raises(ag.ShapeError):
            ag.pixel_shuffle(t32(np.ones((1, 3, 2, 2))), 2)


class TestSplitConcat:
    def test_split_halves(self):
        x = t32(np.arange(16).reshape(1, 4, 2, 2))
        a, b = ag.split_channels(x, 2)
        assert a.shape == (1, 2, 2, 2) and b.shape == (1, 2, 2, 2)

    def test_roundtrip_bit_exact(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 5, 3, 3)).astype(np.float32)
        a, b = ag.split_channels(t32(x), 2)
        back = ag.concat_channels(a, b)
        assert np.array_equal(back.data, x)

    def test_gradient_routing(self):
        x = t32(np.ones((1, 4, 2, 2)), grad=True)
        a, b = ag.split_channels(x, 1)
        ag.backward(ag.tsum(ag.concat_channels(a, b)))
        assert np.array_equal(x.grad, np.ones((1, 4, 2, 2)))

    def test_spatial_mismatch(self):
        with pytest.raises(ag.ShapeError):
            ag.concat_channels(t32(np.ones((1, 1, 2, 2))), t32(np.ones((1, 1, 3, 2))))


class TestSimpleOps:
    def test_sigmoid_zero(self):
        assert ag.sigmoid(t32([0.0])).data[0] == 0.5

    def test_linear_identity(self):
        x = t32(np.arange(6, dtype=np.float32).reshape(2, 3))
        out = ag.linear(x, t32(np.eye(3)), t32(np.zeros(3)))
        assert np.array_equal(out.data, x.data)

    def test_upsample_repeats_columns(self):
        x = t32(np.arange(4, dtype=np.float32).reshape(1, 1, 1, 4))
        out = ag.nearest_upsample(x, (1, 4))
        assert np.array_equal(out.data[0, 0, 0], np.repeat(np.arange(4), 4))

    def test_upsample_adjoint_is_sum_pool(self):
        x = t32(np.ones((1, 1, 2, 3)), grad=True)
        out = ag.nearest_upsample(x, (1, 4))
        ag.backward(ag.tsum(out))
        assert np.array_equal(x.grad, np.full((1, 1, 2, 3), 4.0))

    def test_clamp_bounds(self):
        out = ag.clamp(t32([-2.0, 0.0, 2.0]), -1.0, 1.0)
        assert np.array_equal(out.data, [-1, 0, 1])

    def test_shape_mismatch(self):
        with pytest.raises(ag.ShapeError):
            ag.add(t32(np.ones(3)), t32(np.ones(4)))


class TestBackward:
    def test_linear_scaling(self):
        x = t32(np.ones((3, 2)), grad=True)
        ag.backward(ag.tsum(ag.scale(x, 2.0)))
        assert np.array_equal(x.grad, np.full((3, 2), 2.0))

    def test_square(self):
        x = t32(np.full(4, 3.0), grad=True)
        ag.backward(ag.tsum(ag.mul(x, x)))
        assert np.array_equal(x.grad, np.full(4, 6.0))

    def test_accumulation_without_zero_grad(self):
        x = t32(np.ones(2), grad=True)
        ag.backward(ag.tsum(ag.scale(x, 3.0)))
        ag.backward(ag.tsum(ag.scale(x, 3.0)))
        assert np.array_equal(x.grad, np.full(2, 6.0))

    def test_second_backward_through_graph_raises(self):
        x = t32(np.ones(2), grad=True)
        z = ag.tsum(ag.scale(x, 3.0))
        ag.backward(z)
        with pytest.raises(RuntimeError, match="already differentiated"):
            ag.backward(z)
        assert np.array_equal(x.grad, np.full(2, 3.0))

    def test_root_sharing_a_differentiated_subgraph_raises(self):
        x, y = t32(np.ones(2), grad=True), t32(np.full(2, 5.0), grad=True)
        shared = ag.scale(x, 2.0)
        ag.backward(ag.tsum(shared))
        with pytest.raises(RuntimeError, match="already differentiated"):
            ag.backward(ag.tsum(ag.mul(shared, y)))
        assert np.array_equal(x.grad, np.full(2, 2.0))
        assert y.grad is None  # raised before any rule ran: no partial gradient

    def test_backward_consumes_graph_and_keeps_leaf_grads(self):
        x = t32(np.ones(2), grad=True)
        inner = ag.scale(x, 3.0)
        root = ag.tsum(ag.mul(inner, inner))
        ag.backward(root)
        for node in (inner, root):
            assert node.grad is None and node._parents == ()
        assert np.array_equal(x.grad, np.full(2, 18.0))

    def test_non_scalar_root_rejected(self):
        x = t32(np.ones(3), grad=True)
        with pytest.raises(ag.ShapeError):
            ag.backward(ag.neg(x))

    def test_linearity(self):
        rng = np.random.default_rng(4)
        base = rng.normal(size=5).astype(np.float32)

        def grad_of(fn):
            x = t32(base, grad=True)
            ag.backward(fn(x))
            return x.grad.copy()

        f = lambda x: ag.tsum(ag.mul(x, x))
        g = lambda x: ag.tsum(ag.sigmoid(x))
        combined = grad_of(lambda x: ag.add(ag.scale(f(x), 2.0), ag.scale(g(x), -3.0)))
        separate = 2.0 * grad_of(f) - 3.0 * grad_of(g)
        assert np.max(np.abs(combined - separate)) < 1e-6

    def test_no_grad_blocks_recording(self):
        x = t32(np.ones(3), grad=True)
        with ag.no_grad():
            out = ag.scale(x, 2.0)
        assert out._backward is None and not out.requires_grad

    def test_detach_cuts_graph(self):
        x = t32(np.ones(3), grad=True)
        y = ag.scale(x, 2.0).detach()
        assert not y.requires_grad

    def test_reduction_determinism(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=257).astype(np.float32)
        values = {float(ag.tsum(t32(x)).data) for _ in range(5)}
        assert len(values) == 1


def conv_block_inputs(seed, b=4, cin=3, c=16, size=12):
    """Input, weights and output weighting of conv -> batchnorm -> prelu -> conv,
    as in the models' blocks."""
    rng = np.random.default_rng(seed)
    x = t32(rng.normal(size=(b, cin, size, size)), grad=True)
    params = {
        "w1": t32(rng.normal(size=(c, cin, 3, 3)) * 0.2, grad=True),
        "b1": t32(rng.normal(size=c) * 0.1, grad=True),
        "gamma": t32(1.0 + rng.normal(size=c) * 0.1, grad=True),
        "beta": t32(rng.normal(size=c) * 0.1, grad=True),
        "alpha": t32(np.full(c, 0.25), grad=True),
        "w2": t32(rng.normal(size=(c, c, 3, 3)) * 0.1, grad=True),
        "b2": t32(rng.normal(size=c) * 0.1, grad=True),
    }
    return x, params, t32(rng.normal(size=(b, c, size, size)))


def conv_block(x, p, weights):
    """Tensors of conv -> batchnorm -> prelu -> conv -> weighted sum, in creation order."""
    c = p["b1"].shape[0]
    out = ag.conv2d(x, p["w1"], p["b1"], 1, 1)
    norm = ag.batchnorm2d(out, p["gamma"], p["beta"], np.zeros(c, np.float32), np.ones(c, np.float32), True)
    act = ag.prelu(norm, p["alpha"])
    out2 = ag.conv2d(act, p["w2"], p["b2"], 1, 1)
    weighted = ag.mul(out2, weights)
    return [out, norm, act, out2, weighted, ag.tsum(weighted)]


class TestGraphHoldsNoActivation:
    """A graph keeps an op's output data only when a backward rule saved it."""

    def setup_method(self):
        self.x, self.params, self.weights = conv_block_inputs(11)

    def grads(self):
        grads = {name: p.grad for name, p in self.params.items()}
        grads["x"] = self.x.grad
        for t in (self.x, *self.params.values()):
            t.zero_grad()
        return grads

    def test_unsaved_outputs_die_before_backward(self, monkeypatch):
        made = []
        im2col = ag._im2col

        def recording_im2col(*args):
            cols = im2col(*args)
            made.append(weakref.ref(cols.base))  # the array that owns the columns' memory
            return cols

        monkeypatch.setattr(ag, "_im2col", recording_im2col)
        out, norm, act, out2, weighted, root = conv_block(self.x, self.params, self.weights)
        # batchnorm saves its normalized input, not the conv output it reads;
        # conv saves its input (the prelu output), and no column matrix
        dead = [weakref.ref(out.data), weakref.ref(out.data.base), *made]
        kept = weakref.ref(act.data)
        del out, norm, act, out2, weighted
        assert len(made) >= 2
        assert [ref() is None for ref in dead] == [True] * len(dead)
        assert kept() is not None
        assert root.requires_grad and root._backward is not None  # graph alive, not differentiated
        ag.backward(root)
        assert kept() is None  # the rule that saved it has run
        released = self.grads()

        tensors = conv_block(self.x, self.params, self.weights)
        ag.backward(tensors[-1])
        held = self.grads()
        for name in held:
            assert_same_bits(released[name], held[name])

    def test_conv_backward_reuses_its_column_matrix(self, monkeypatch):
        # both convs of the block are small enough to keep im2col's backward;
        # at the default block each conv's forward is one chunk, at 1 byte it
        # is one item per chunk, on 2 lanes; the backward is the same at both
        made, events = [], []
        im2col, col2im = ag._im2col, ag._col2im

        def recording_im2col(*args):
            cols = im2col(*args)
            made.append(cols)
            events.append(("im2col", span(cols)))
            return cols

        def recording_col2im(dcols, *args):
            events.append(("col2im", span(dcols)))
            return col2im(dcols, *args)

        monkeypatch.setattr(ag, "_LANES", 2)
        monkeypatch.setattr(ag, "_im2col", recording_im2col)
        monkeypatch.setattr(ag, "_col2im", recording_col2im)
        for block_bytes in (ag._BLOCK_BYTES, 1):
            monkeypatch.setattr(ag, "_BLOCK_BYTES", block_bytes)
            root = conv_block(self.x, self.params, self.weights)[-1]
            forward = made[:]
            assert len(forward) >= 2
            assert [kind for kind, _ in events] == ["im2col"] * len(forward)  # the forward sums no dx
            made.clear()
            events.clear()
            ag.backward(root)
            # each conv, the second one first, rebuilds the whole batch's
            # columns in one _im2col into an array of its own, then writes the
            # column gradient over exactly that array in one _col2im
            assert [kind for kind, _ in events] == ["im2col", "col2im"] * 2
            owners = []
            for (_, built), (_, given), cols, cin in zip(events[::2], events[1::2], made, (16, 3), strict=True):
                assert not takes_taps((4, cin, 12, 12), (16, cin, 3, 3), 1, 1)
                item = 12 * 12 * cin * 9 * 4  # column bytes per batch item
                assert built == given == span(cols.base) == (span(cols)[0], 4 * item)
                assert not any(np.shares_memory(cols, f) for f in forward)
                owners.append(weakref.ref(cols.base))
            del cols
            made.clear()
            events.clear()
            assert [ref() is None for ref in owners] == [True, True]  # freed when its backward returned

    def test_unet_forward_keeps_a_third_of_the_old_bytes(self):
        # Bytes a default UNet forward at batch 2 keeps alive through its
        # graph, under tracemalloc: 130661121 when conv saved its column
        # matrices, 29173594 now that it saves its input.
        model = mdl.UNet(mdl.UNetConfig(), init_seed=0)
        x = t32(np.random.default_rng(0).normal(size=(2, 1, 64, 64)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = model(x)
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert kept < 130661121 / 3


class TestConvScratch:
    """Conv backward's scratch arrays: small on the tap rule, and gone when it returns."""

    # column matrices of 0.3 to 5 MB, so that each thread's copies and GEMMs
    # release the GIL while the other thread runs; each dtype has convs on
    # both backward rules, and as many as the other, for the barrier
    CASES = {
        np.float32: [((8, 16, 32, 32), (16, 16, 3, 3), 1, 1), ((6, 12, 33, 31), (8, 12, 3, 3), 2, 1),
                     ((8, 32, 16, 16), (24, 32, 1, 1), 1, 0), ((6, 8, 24, 24), (12, 8, 3, 3), 1, 1)],
        np.float64: [((4, 16, 32, 32), (8, 16, 3, 3), 1, 1), ((3, 6, 25, 27), (5, 6, 5, 5), 1, 2),
                     ((5, 20, 19, 17), (6, 20, 3, 3), 3, 0), ((4, 16, 32, 32), (16, 16, 3, 3), 1, 1)],
    }

    # a conv unit (conv -> batch norm -> PReLU) per dtype, whose batch norm
    # and PReLU tensors are over 1 MiB, so that they split over the lanes too
    UNITS = {np.float32: ((8, 16, 32, 32), (48, 16, 3, 3)), np.float64: ((6, 16, 32, 32), (24, 16, 3, 3))}

    @classmethod
    def run(cls, dtype, cases, rounds, barrier=None):
        """Bytes of every forward output and gradient, round after round,
        and of the conv unit's output, leaf gradients and running buffers."""
        results = []
        for r in range(rounds):
            for i, (x_shape, w_shape, stride, padding) in enumerate(cases):
                rng = np.random.default_rng(100 * r + i)
                x, w, b = conv_inputs(rng, x_shape, w_shape, dtype)
                out = ag.conv2d(x, w, b, stride, padding)
                g = rng.normal(size=out.shape).astype(dtype)
                if barrier is not None:
                    barrier.wait()
                results.append([bits(a).tobytes() for a in (out.data, *out._backward(g))])
            rng = np.random.default_rng(100 * r + len(cases))
            x_shape, w_shape = cls.UNITS[dtype]
            x, w, b = conv_inputs(rng, x_shape, w_shape, dtype)
            c = w_shape[0]
            gamma, beta, alpha = (ag.Tensor(rng.normal(size=c).astype(dtype), requires_grad=True) for _ in range(3))
            buffers = np.zeros(c, dtype), np.ones(c, dtype)
            weights = ag.Tensor(rng.normal(size=(x_shape[0], c) + x_shape[2:]).astype(dtype))
            if barrier is not None:
                barrier.wait()
            out = ag.prelu(ag.batchnorm2d(ag.conv2d(x, w, b, 1, 1), gamma, beta, *buffers, training=True), alpha)
            ag.backward(ag.tsum(ag.mul(out, weights)))
            results.append([bits(a).tobytes() for a in (out.data, *(t.grad for t in (x, w, b, gamma, beta, alpha)),
                                                          *buffers)])
        return results

    def test_cases_take_both_rules(self):
        for cases in self.CASES.values():
            assert sorted({takes_taps(*case) for case in cases}) == [False, True]

    @pytest.mark.parametrize("x_shape, w_shape", [((8, 32, 32, 32), (32, 32, 3, 3)),
                                                  ((16, 3, 32, 32), (32, 3, 3, 3))], ids=["taps", "im2col"])
    def test_no_scratch_survives_backward_in_any_thread(self, monkeypatch, x_shape, w_shape):
        # the backward runs at 2 lanes (the tap rule's dw and dx on both, the
        # im2col rule's on the calling thread alone) in a thread that lives
        # on after it; once the output and gradients are dropped, the traced
        # memory is back to where it was before the forward
        monkeypatch.setattr(ag, "_LANES", 2)
        x, w, b = conv_inputs(np.random.default_rng(0), x_shape, w_shape, np.float32)
        g = np.ones((x_shape[0], w_shape[0]) + x_shape[2:], np.float32)
        ag.conv2d(x, w, b, 1, 1)._backward(g)  # starts the lanes before tracing
        assert takes_taps(x_shape, w_shape, 1, 1) == (x_shape[1] == 32)
        differentiated, release = threading.Event(), threading.Event()
        held = {}

        def differentiate():
            ag.conv2d(x, w, b, 1, 1)._backward(g)
            differentiated.set()
            release.wait(timeout=60)

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ag.conv2d(x, w, b, 1, 1)._backward(g)
            held["caller"] = tracemalloc.get_traced_memory()[0] - base
            thread = threading.Thread(target=differentiate)
            thread.start()
            assert differentiated.wait(timeout=60)
            held["thread"] = tracemalloc.get_traced_memory()[0] - base
        finally:
            release.set()
            tracemalloc.stop()
        thread.join(timeout=60)
        assert not thread.is_alive()
        # a tap's rows alone are 1 MiB; thread bookkeeping stays far below that
        assert max(held.values()) < 64 * 1024, held

    def test_tap_backward_allocates_no_column_matrix(self, monkeypatch):
        # on 2 lanes, with the output gradient laid out as backward gives it
        # (NHWC): the padded input, which becomes the padded dx, and a tap's
        # rows per lane, about a third of the 9 MiB column matrix that
        # im2col builds
        monkeypatch.setattr(ag, "_LANES", 2)
        x_shape, w_shape = (8, 32, 32, 32), (32, 32, 3, 3)
        column_bytes = 8 * 32 * 32 * 32 * 9 * 4
        x, w, b = conv_inputs(np.random.default_rng(1), x_shape, w_shape, np.float32)
        out = ag.conv2d(x, w, b, 1, 1)
        g = np.zeros_like(out.data)
        g[...] = np.random.default_rng(2).normal(size=out.shape)
        tracemalloc.start()
        try:
            out._backward(g)
            taps_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            im2col_conv2d(x, w, b, 1, 1)._backward(g)
            im2col_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert im2col_peak > column_bytes  # the tracing sees a column matrix where one is built
        assert taps_peak < column_bytes / 2

    def test_tap_scratch_stays_under_the_column_matrix_at_nine_lanes(self, monkeypatch):
        # one tap's rows per lane at up to _TAP_LANES lanes, however many
        # CPUs: at 9 lanes, one per tap, the scratch alone would be as large
        # as the 9 MiB column matrix
        monkeypatch.setattr(ag, "_LANES", 9)
        x_shape, w_shape = (8, 32, 32, 32), (32, 32, 3, 3)
        column_bytes = 8 * 32 * 32 * 32 * 9 * 4
        x, w, b = conv_inputs(np.random.default_rng(3), x_shape, w_shape, np.float32)
        out = ag.conv2d(x, w, b, 1, 1)
        g = np.zeros_like(out.data)
        g[...] = np.random.default_rng(4).normal(size=out.shape)
        tracemalloc.start()
        try:
            grads = out._backward(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ag._TAP_LANES == 3
        assert peak < column_bytes * 2 / 3
        for new, old in zip(grads, reference_conv2d(x, w, b, 1, 1)[1](g)):
            assert_same_bits(new, old)

    def test_two_threads_match_one(self, monkeypatch):
        monkeypatch.setattr(ag, "_LANES", max(3, ag._LANES))  # both callers split their batches
        rounds = 4
        alone = {dtype: self.run(dtype, cases, rounds) for dtype, cases in self.CASES.items()}
        barrier = threading.Barrier(2, timeout=60)
        together, errors = {}, []

        def worker(dtype):
            try:
                together[dtype] = self.run(dtype, self.CASES[dtype], rounds, barrier)
            except Exception as exc:  # reported below, in the test's thread
                barrier.abort()
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(dtype,)) for dtype in self.CASES]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often between numpy calls
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert together == alone


def old_way_backward(tensors) -> dict:
    """Leaf gradients by the engine as it was when the graph's nodes were the
    output tensors: every gradient starts as np.zeros_like of the node's data.

    `tensors` is a chain in creation order (each used once), so reverse
    creation order is the order the engine runs the rules in.
    """
    root = tensors[-1]
    data_of = {id(t._node): t.data for t in tensors}
    grads = {id(root._node): np.ones_like(root.data)}
    leaves = {}
    for t in reversed(tensors):
        g = grads.pop(id(t._node))
        for parent, pg in zip(t._parents, t._backward(g)):
            if pg is None or not parent.requires_grad:
                continue
            if id(parent) in data_of:
                acc = grads.setdefault(id(parent), np.zeros_like(data_of[id(parent)]))
            else:
                acc = leaves.setdefault(id(parent), np.zeros(parent.shape, parent.dtype))
            acc += pg
    return leaves


class TestGradientMemoryOrder:
    """Non-leaf gradients keep their data's memory order, as np.zeros_like does."""

    @staticmethod
    def build():
        x, params, weights = conv_block_inputs(12)
        return x, params, conv_block(x, params, weights)

    @pytest.mark.parametrize("make", [
        lambda a: a,
        lambda a: np.asfortranarray(a),
        lambda a: a.transpose(0, 2, 3, 1),
        lambda a: a.transpose(0, 2, 3, 1).copy().transpose(0, 3, 1, 2),
        lambda a: a[:, ::-1, :, ::2],
        lambda a: a[:, :1],
        lambda a: np.broadcast_to(a[:1], a.shape),
        lambda a: a[0, 0, 0, 0],
    ], ids=["c", "fortran", "transposed", "nhwc", "reversed-step", "one-channel", "broadcast", "scalar"])
    def test_node_zeros_lay_out_like_zeros_like(self, make):
        data = make(np.arange(2 * 3 * 4 * 5, dtype=np.float32).reshape(2, 3, 4, 5))
        zeros = ag.Tensor(data)._node.zeros()
        like = np.zeros_like(data)
        assert (zeros.shape, zeros.dtype, zeros.strides) == (like.shape, like.dtype, like.strides)

    def test_conv_output_gradient_has_zeros_like_strides(self):
        _, _, tensors = self.build()
        out = tensors[0]
        assert not out.data.flags.c_contiguous  # conv outputs are NHWC-strided views
        expected = np.zeros_like(out.data).strides
        seen, rule = [], out._backward

        def recording_rule(g):
            seen.append(g.strides)
            return rule(g)

        out._backward = recording_rule
        ag.backward(tensors[-1])
        assert seen == [expected]

    def test_gradients_match_the_tensor_graph_engine(self):
        x, params, tensors = self.build()
        ag.backward(tensors[-1])
        new = [x.grad, *(p.grad for p in params.values())]

        x, params, tensors = self.build()
        leaves = old_way_backward(tensors)
        old = [leaves[id(t._node)] for t in (x, *params.values())]
        for a, b in zip(new, old):
            assert_same_bits(a, b)


class TestGradientChecks:
    """Every registered op against the double-precision FD oracle."""

    @pytest.mark.parametrize("name", [n for n, _ in gradcheck.op_check_cases()])
    def test_float32(self, name):
        runs = dict(gradcheck.op_check_cases(np.float32))
        assert runs[name]() < 1e-3

    @pytest.mark.parametrize("name", [n for n, _ in gradcheck.op_check_cases()])
    def test_float64(self, name):
        runs = dict(gradcheck.op_check_cases(np.float64))
        assert runs[name]() < 1e-7
