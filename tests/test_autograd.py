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


def bits(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    return a.view({4: np.uint32, 8: np.uint64}[a.itemsize])


def assert_same_bits(new, ref):
    assert new.shape == ref.shape and new.dtype == ref.dtype
    assert np.array_equal(bits(new), bits(ref))


def span(a: np.ndarray) -> tuple:
    """(address, byte count) of an array's memory."""
    return a.__array_interface__["data"][0], a.nbytes


def tiling(spans) -> tuple:
    """(start, end) of memory that the spans tile end to end, each byte once."""
    spans = sorted(spans)
    assert all(s0 + n0 == s1 for (s0, n0), (s1, _) in zip(spans, spans[1:]))
    return spans[0][0], spans[-1][0] + spans[-1][1]


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


class TestConvLanes:
    """conv2d splits each batch into runs of items, one per lane; the lane
    count changes no bit, and a failing lane is raised in the caller."""

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
        # 6 items on 3 lanes: runs of 2 items, each built in one chunk, so
        # each lane makes one _im2col call; run 0 is the caller's
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
        x, w, b = conv_inputs(rng, (6, 4, 12, 12), (5, 4, 3, 3), np.float32)
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

    def test_every_run_has_its_own_lane_after_the_lane_count_grows(self, monkeypatch):
        # a pool made at 2 lanes has one worker; at 4 lanes the 4 runs meet at
        # a barrier, which only a pool grown to 3 workers lets them reach
        monkeypatch.setattr(ag, "_POOL", (None, 0))
        monkeypatch.setattr(ag, "_LANES", 2)
        ag._on_lanes(lambda: None, [(), ()])
        monkeypatch.setattr(ag, "_LANES", 4)
        barrier = threading.Barrier(4, timeout=10)
        try:
            ag._on_lanes(barrier.wait, [()] * 4)
        finally:
            ag._POOL[0].shutdown()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_gets_a_fresh_pool(self, monkeypatch):
        monkeypatch.setattr(ag, "_LANES", 3)
        rng = np.random.default_rng(6)
        x, w, b = conv_inputs(rng, (6, 4, 12, 12), (5, 4, 3, 3), np.float32)
        g = rng.normal(size=(6, 5, 12, 12)).astype(np.float32)
        out = ag.conv2d(x, w, b, 1, 1)  # splits, so the pool has started
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
        root = conv_block(self.x, self.params, self.weights)[-1]
        forward = made[:]
        assert len(forward) >= 2
        assert [kind for kind, _ in events] == ["im2col"] * len(forward)  # the forward sums no dx
        made.clear()
        events.clear()
        ag.backward(root)
        rebuilt = made
        assert all(np.shares_memory(cols, ag._COLUMNS.buf) for cols in rebuilt)
        assert not any(np.shares_memory(cols, ag._COLUMNS.buf) for cols in forward)
        # each conv, the second one first, rebuilds its columns a chunk at a
        # time and then sums its dx on 2 lanes, writing the column gradient
        # over the rebuilt columns: both cover its column matrix exactly once
        groups = [(kind, [s for _, s in group]) for kind, group in itertools.groupby(events, lambda e: e[0])]
        assert [kind for kind, _ in groups] == ["im2col", "col2im"] * 2
        start = span(ag._COLUMNS.buf)[0]
        for (_, built), (_, given), cin in zip(groups[::2], groups[1::2], (16, 3)):
            assert len(given) == 2
            assert tiling(built) == tiling(given) == (start, start + 4 * 12 * 12 * cin * 9 * 4)

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


class TestColumnBuffer:
    """Conv backward's per-thread column buffer."""

    # column matrices of 0.3 to 5 MB, so that each thread's copies and GEMMs
    # release the GIL while the other thread runs
    CASES = {
        np.float32: [((8, 16, 32, 32), (16, 16, 3, 3), 1, 1), ((6, 12, 33, 31), (8, 12, 3, 3), 2, 1),
                     ((8, 32, 16, 16), (24, 32, 1, 1), 1, 0)],
        np.float64: [((4, 16, 32, 32), (8, 16, 3, 3), 1, 1), ((3, 6, 25, 27), (5, 6, 5, 5), 1, 2),
                     ((5, 20, 19, 17), (6, 20, 3, 3), 3, 0)],
    }

    @staticmethod
    def run(dtype, cases, rounds, barrier=None):
        """Bytes of every forward output and gradient, round after round."""
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
        return results

    def test_forward_never_creates_the_buffer(self):
        seen = {}

        def forward_only():
            x, w, b = conv_inputs(np.random.default_rng(0), (2, 3, 8, 8), (4, 3, 3, 3), np.float32)
            ag.conv2d(x, w, b, 1, 1)
            with ag.no_grad():
                ag.conv2d(x, w, b, 1, 1)
            seen["forward"] = getattr(ag._COLUMNS, "buf", None)
            ag.conv2d(x, w, b, 1, 1)._backward(np.ones((2, 4, 8, 8), np.float32))
            seen["backward"] = ag._COLUMNS.buf.nbytes

        thread = threading.Thread(target=forward_only)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert seen == {"forward": None, "backward": 2 * 64 * 27 * 4}

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

    def test_float64_after_larger_float32_reuses_the_buffer(self):
        done = {}

        def in_fresh_thread():
            rng = np.random.default_rng(3)
            x, w, b = conv_inputs(rng, (4, 6, 16, 16), (8, 6, 3, 3), np.float32)
            assert_conv_matches_reference(x, w, b, 1, 1, rng)
            buf = ag._COLUMNS.buf
            x, w, b = conv_inputs(rng, (3, 5, 11, 9), (4, 5, 3, 3), np.float64)
            assert 3 * 99 * 45 * 8 < buf.nbytes == 4 * 256 * 54 * 4
            assert_conv_matches_reference(x, w, b, 1, 1, rng)
            done["same buffer"] = ag._COLUMNS.buf is buf

        thread = threading.Thread(target=in_fresh_thread)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert done == {"same buffer": True}


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
