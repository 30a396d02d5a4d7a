"""Reverse-mode automatic differentiation over dense numpy tensors.

A deliberately closed operator set: exactly the kernels the networks in
this package need, each with a hand-written backward rule that is
finite-difference checked (see gradcheck). There is no general
broadcasting engine; shapes must line up the way each op defines them.
Network tensors are float32 by default, but every kernel also runs in
float64 (used by tests and at the quantum-layer boundary). Reductions go
through numpy's fixed pairwise order, so results are bit-identical across
runs and worker counts. Convolution is im2col plus GEMM (Chellapilla, Puri
& Simard 2006); col2im sums each input element's kernel taps in a fixed
(i, j) order from zero. Ops use more than one core through the worker
threads (lanes) of a standard thread pool, made once by the first call
that splits; the calling thread is lane 0. _on_items is the one
dispatcher of every chunked pass: a contiguous run of chunks (about
_BLOCK_BYTES each) per lane, or one call on the calling thread when the
work fits in one chunk. Conv's forward and its tap rule's dx, and the
elementwise and per-item passes of batch norm, PReLU, max-pool and the
upsample backward hand it a batch's whole items, each writing into
full-size arrays the calling thread allocates. The quantum layer
(qlayer._on_window_chunks) hands it chunks of windows cut on a fixed grid
from window 0, because an even split of the windows per lane would move
GEMM tails. Only the tap rule's dw (_tap_backward) splits otherwise: kernel
taps, not items, over at most _TAP_LANES lanes, because each tap's GEMM
spans the whole batch. In every op only whole-batch reductions span items
(conv's dw and db; batch norm's mean, variance and the sums behind dγ, dβ
and dx; PReLU's dα): each is one call in the calling thread over an array
with the values and memory order it has on one lane, so the lane count
never changes a bit.
The graph is made of small nodes, one per recorded tensor, that hold no
output data: only what each rule saves is kept, so an activation no rule
reads is freed during the forward pass as soon as Python drops it. The
backward pass consumes the graph it differentiates, as PyTorch does
(Paszke et al. 2017): once a node's rule has run, the node drops its
gradient and the rule, and with the rule the arrays it saved, so a second
backward through the same graph raises. Conv's rule saves its input, not
its column matrix (recomputed rather than stored, as in Chen et al. 2016).
The forward builds columns a chunk of whole items at a time, each lane in
its own padded scratch, and multiplies each chunk into the output. Backward
builds the whole batch's padded input once, on the calling thread, and
takes one of two rules, chosen by the conv's sizes (_by_taps), each giving
the bits of the full column matrix's GEMMs and turning the padded input
into the padded dx. Most convs of the default models go one kernel tap at
a time with no column matrix (_tap_backward), on the lanes: dw from one
whole-batch GEMM per tap over the tap's rows of the padded input, dx from
each tap's product added into its shifted window. The rest, whose column
matrices are small, run as whole-batch calls on the calling thread: one
_im2col into an array of the call, dw from one GEMM over it, and one
_col2im of the column gradient written over it. No scratch array outlives
the call. Each gradient keeps the memory order of its data (conv outputs
are NHWC-strided), since the rules' reductions follow that order. Leaf
gradients still accumulate across separate graphs.
"""
from __future__ import annotations

import os
import threading

import numpy as np

__all__ = [
    "Tensor",
    "Parameter",
    "ShapeError",
    "DegenerateBatchError",
    "no_grad",
    "backward",
    "tensor",
    "conv2d",
    "linear",
    "prelu",
    "batchnorm2d",
    "pixel_shuffle",
    "split_channels",
    "concat_channels",
    "flatten",
    "sigmoid",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "scale",
    "add_scalar",
    "absval",
    "log",
    "sqrt",
    "clamp",
    "tsum",
    "tmean",
    "sum_axis",
    "mean_axis",
    "maxpool2d",
    "avgpool2d",
    "nearest_upsample",
]


class ShapeError(ValueError):
    """Tensor shapes are incompatible with the requested operation."""


class DegenerateBatchError(ValueError):
    """Batch statistics were requested on a batch too small to provide them."""


class _GradMode:
    enabled = True


class no_grad:
    """Context manager that disables graph recording."""

    def __enter__(self):
        self._prev = _GradMode.enabled
        _GradMode.enabled = False
        return self

    def __exit__(self, *exc):
        _GradMode.enabled = self._prev
        return False


class _Node:
    """Graph record of one tensor: what backward needs, never the tensor's data.

    A recorded op's output holds its node, and the node holds its parents'
    nodes, so the graph keeps an activation alive only if a rule saved it.
    """

    __slots__ = ("grad", "requires_grad", "parents", "rule", "shape", "dtype", "axes")

    def __init__(self, data: np.ndarray, requires_grad: bool):
        self.grad = None
        self.requires_grad = requires_grad
        self.parents = ()
        self.rule = None
        self.shape = data.shape
        self.dtype = data.dtype
        # axes from outermost to innermost in memory, the layout np.zeros_like(data)
        # gives; None for C order. Rules reduce over the gradient in its memory order.
        self.axes = None if data.flags.c_contiguous else tuple(
            sorted(range(data.ndim), key=lambda i: -abs(data.strides[i])))

    def zeros(self) -> np.ndarray:
        """A zero gradient laid out as np.zeros_like(data) would be."""
        if self.axes is None:
            return np.zeros(self.shape, self.dtype)
        outer_first = np.zeros([self.shape[i] for i in self.axes], self.dtype)
        return outer_first.transpose(np.argsort(self.axes))


class Tensor:
    """Dense n-d float array with an optional backward-graph record."""

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self._node = _Node(arr, bool(requires_grad))

    @property
    def grad(self):
        return self._node.grad

    @grad.setter
    def grad(self, value):
        self._node.grad = value

    @property
    def requires_grad(self) -> bool:
        return self._node.requires_grad

    @property
    def _parents(self):
        return self._node.parents

    @property
    def _backward(self):
        return self._node.rule

    @_backward.setter
    def _backward(self, rule):
        self._node.rule = rule

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    @property
    def ndim(self):
        return self.data.ndim

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype}, grad={'set' if self.grad is not None else 'none'})"


class Parameter(Tensor):
    """Named tensor owned by a model; trainable when it requires grad, else a buffer."""

    __slots__ = ("name",)

    def __init__(self, data, name: str = "", trainable: bool = True, dtype=np.float32):
        super().__init__(data, requires_grad=trainable, dtype=dtype)
        self.name = name

    @property
    def trainable(self) -> bool:
        return self.requires_grad

    @property
    def tensor(self) -> "Parameter":
        """The parameter itself; the acceptance tests read `p.tensor.data`."""
        return self

    def __repr__(self):
        kind = "param" if self.trainable else "buffer"
        return f"Parameter({self.name!r}, {kind}, shape={tuple(self.shape)})"


def tensor(data, requires_grad: bool = False, dtype=np.float32) -> Tensor:
    return Tensor(data, requires_grad=requires_grad, dtype=dtype)


def _result(data, parents, backward_fn) -> Tensor:
    out = Tensor(data)
    if _GradMode.enabled and any(p.requires_grad for p in parents):
        node = out._node
        node.requires_grad = True
        node.parents = tuple(p._node for p in parents)
        node.rule = backward_fn
    return out


def _same_dtype(*tensors: Tensor):
    dt = tensors[0].data.dtype
    for t in tensors[1:]:
        if t.data.dtype != dt:
            raise ShapeError(f"mixed tensor dtypes: {dt} vs {t.data.dtype}")
    return dt


def _spent(grad):
    """Rule of a node whose backward has run: its saved arrays are gone."""
    raise RuntimeError("this graph was already differentiated; run the forward pass again")


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(leaf) into .grad of every reachable leaf.

    The graph is made of nodes that hold no output data, only what each
    rule saved, so an activation that no rule reads is freed in the
    forward pass as soon as Python drops it. The graph is consumed on the
    way: once a node's rule has run, the node drops its gradient, its
    parents and its rule (with the arrays the rule saved), so memory
    falls as backward walks from the root to the inputs. Each node's
    gradient is allocated in the memory order of its data, as
    np.zeros_like would, because the rules' reductions follow that order.
    Leaves (parameters and inputs) keep their .grad, and repeated calls on
    separate graphs keep accumulating into it without zero_grad. A second
    backward through a node already differentiated raises RuntimeError
    before any gradient is touched. The root must be a scalar (single
    element) attached to a recorded graph.
    """
    if root.data.size != 1:
        raise ShapeError(f"backward requires a scalar root, got shape {root.shape}")
    if not root.requires_grad:
        raise ValueError("backward root is not connected to any recorded graph")

    start = root._node
    topo = []
    visited = {start}
    stack = [(start, iter(start.parents))]
    while stack:
        node, parents = stack[-1]
        nxt = next(parents, None)
        if nxt is None:
            if node.rule is _spent:
                _spent(None)
            topo.append(node)
            stack.pop()
        elif nxt not in visited:
            visited.add(nxt)
            stack.append((nxt, iter(nxt.parents)))

    start.grad = np.ones_like(root.data)
    while topo:
        node = topo.pop()
        if node.rule is None:
            continue
        if node.grad is not None:
            for parent, g in zip(node.parents, node.rule(node.grad)):
                if g is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    parent.grad = parent.zeros()
                parent.grad += g
            g = None  # the last gradient is summed in; free it before the next rule
        node.grad = None
        node.parents = ()
        node.rule = _spent


# ---------------------------------------------------------------------------
# convolution


# Bytes of one chunk of _on_items (for conv's forward, of column matrix), and
# of column matrix per block of _im2col. Each block is
# touched once per kernel tap, so it has to stay in a per-core L2 cache
# together with its input rows, a further 1/(kh*kw) of its size; then every
# cache line of the column matrix goes to memory once rather than once per
# tap. 1 MiB fits the 4 MiB L2 per core of the 2-core Xeon the package is
# benchmarked on (1.25-2 MiB on other current x86 cores) and is large enough
# that the conv lanes scale: each block copy is a numpy call that takes the
# GIL, and at 256 KiB the 64-channel 64x64 im2col makes about 9k of them, so
# two lanes spend their time handing the GIL back and forth. On that Xeon
# (batch 16, float32) that im2col took 68 ms on one lane and 76 ms on two at
# 256 KiB, 63 ms and 36 ms at 1 MiB. The quantum layer sizes its window chunks
# by it too (qlayer._on_window_chunks), and hands _on_items one chunk per item.
_BLOCK_BYTES = 1024 * 1024


def _im2col(xn: np.ndarray, kh: int, kw: int, stride: int, out: np.ndarray) -> np.ndarray:
    """Padded NHWC items [B, Hp, Wp, C] -> windows as rows: [B, Ho·Wo, C·kh·kw],
    (c, i, j) order, written into `out`, a flat or contiguous array of xn's
    dtype and the columns' size. Columns over _BLOCK_BYTES (the im2col
    backward's whole batch, or a forward chunk of one large item) are built
    one item and a run of rows at a time, so that each block stays in cache
    while every tap writes into it."""
    b, hp, wp, c = xn.shape
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    cols = out.reshape(b, ho, wo, c, kh, kw)
    wend = (wo - 1) * stride + 1
    rows = max(1, _BLOCK_BYTES // max(1, wo * c * kh * kw * xn.itemsize))  # column rows per block
    blocks = [(slice(None), 0, ho)] if rows >= b * ho else [
        (slice(n, n + 1), r0, min(ho, r0 + rows)) for n in range(b) for r0 in range(0, ho, rows)]
    for n, r0, r1 in blocks:
        for i in range(kh):
            src = xn[n, r0 * stride + i : (r1 - 1) * stride + i + 1 : stride]
            for j in range(kw):
                cols[n, r0:r1, :, :, i, j] = src[:, :, j : j + wend : stride]
    return cols.reshape(b, ho * wo, c * kh * kw)


def _col2im(dcols: np.ndarray, dxn: np.ndarray, kh: int, kw: int, stride: int) -> None:
    """Adjoint of _im2col: adds dcols into the padded NHWC gradient dxn
    [B, Hp, Wp, C], summing each element's taps in (i, j) order from what dxn
    holds. Unblocked, in one call over the whole batch: conv keeps it only
    for convs whose column matrices are small."""
    b, hp, wp, c = dxn.shape
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    dwin = dcols.reshape(b, ho, wo, c, kh, kw)
    hend, wend = (ho - 1) * stride + 1, (wo - 1) * stride + 1
    for i in range(kh):
        for j in range(kw):
            dxn[:, i : i + hend : stride, j : j + wend : stride] += dwin[..., i, j]


# CPUs this process may run on, read once: _on_items splits its chunks into
# this many runs at most, one per lane, as conv's tap rule does its kernel
# taps, so the pool made at the first split never needs more workers.
_LANES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

_POOL = None  # the worker lanes' executor, made once by the first call that splits; the caller is lane 0
_POOL_LOCK = threading.Lock()  # one caller uses the lanes at a time


def _reset_pool():
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()  # a forked child has none of the parent's threads


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_pool)


def _runs(b: int, most: int | None = None) -> list:
    """Contiguous (n, m) runs of b items, one per lane (at most `most` of
    them), as even as possible."""
    k = max(1, min(_LANES, b, most or b))
    return [(i * b // k, (i + 1) * b // k) for i in range(k)]


def _on_lanes(fn, calls) -> None:
    """fn(*args) for every args in calls, each on its own lane: the first on
    the calling thread, the rest on worker lanes (_runs caps calls at _LANES).
    Returns once every call has run, raising the first error in call order."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None and len(calls) > 1:
            # imported here, so that importing qcseis loads no new module
            from concurrent.futures import ThreadPoolExecutor

            _POOL = ThreadPoolExecutor(max(_LANES, len(calls)) - 1, thread_name_prefix="qcseis-lane")
        lanes = [_POOL.submit(fn, *args) for args in calls[1:]]
        try:
            fn(*calls[0])
        finally:
            # the lanes write into the caller's arrays: wait for every one of
            # them, also when the caller's own call or an interrupt raised
            interrupt = None
            for lane in lanes:
                while True:
                    try:
                        lane.exception()
                        break
                    except BaseException as exc:  # raised once every lane is done
                        interrupt = exc
            if interrupt is not None:
                raise interrupt
    for lane in lanes:
        lane.result()


def _chunk(b: int, item_bytes: int) -> tuple:
    """(lanes, items) of _on_items over b items of item_bytes each: how many
    lanes it runs on, and the most items it hands fn at once."""
    items = min(b, max(1, _BLOCK_BYTES // max(1, item_bytes)))
    return 1 if items == b else len(_runs(b)), items


def _on_items(fn, b: int, item_bytes: int) -> None:
    """fn(lane, k, j) for chunks k..j of whole items that cover a batch of b
    items once: the one split of every per-item pass on the lanes. Each
    chunk holds about _BLOCK_BYTES of item_bytes-sized items, at least one
    (_chunk), and each lane takes a contiguous run of chunks (_runs) in
    order, lane 0 on the calling thread. A batch that fits in one chunk is
    one fn(0, 0, b) on the calling thread, where a lane dispatch would cost
    more than it saves.
    Arrays the lanes write belong in the caller: one a worker lane
    allocated would come from that thread's own malloc arena."""
    step = _chunk(b, item_bytes)[1]
    if step == b:
        fn(0, 0, b)
        return

    def run(lane, n, m):
        for k in range(n, m, step):
            fn(lane, k, min(m, k + step))

    _on_lanes(run, [(lane, n, m) for lane, (n, m) in enumerate(_runs(b))])


# The most lanes conv backward's tap rule spreads its kernel taps over. Each
# keeps one tap's rows of the padded input, so this bounds the scratch
# whatever the CPU count; three lanes take the nine taps of a 3x3 kernel in
# even runs.
_TAP_LANES = 3


def _by_taps(b: int, cin: int, cout: int, positions: int) -> bool:
    """Whether conv backward takes the per-tap rule (_tap_backward) for these
    sizes: it gives im2col's bits exactly where this holds.

    On OpenBLAS (0.3.31, AVX-512 kernels) whole groups of 8 GEMM columns
    come out the same in any GEMM, while the last N mod 8 take a kernel
    chosen by the GEMM's size: a small-matrix path when M·N·K is below about
    10⁶. A tap's dw GEMM has N = Cin where im2col's has 9·Cin, the same width
    mod 8, and the same K = B·Ho·Wo in the same order, so it keeps the bits
    when Cin fills at least one group of 8 and M·N·K = Cout·Cin·B·Ho·Wo keeps
    it off the small-matrix path. This is a fact about that build, not a
    setting: the tests pin which convs of the default models it picks.
    """
    return cin >= 8 and cout * cin * b * positions > 1_000_000


def _tap_backward(xn, wd, gmat, ho: int, wo: int, stride: int):
    """(dw, padded NHWC dx) of a conv from its padded NHWC input xn
    [B, Hp, Wp, Cin], one kernel tap (i, j) at a time, with no column matrix
    (the backward half of kn2row: Vasudevan, Anderson & Gregg 2017).

    dw[:, :, i, j] is the GEMM of the output gradient with the tap's rows of
    xn, the rows im2col gives that tap in the same order. Each tap's GEMM
    spans the whole batch, so dw splits taps, not items: they run over at
    most _TAP_LANES lanes. xn is then zeroed and becomes dx: per chunk of
    whole items (_on_items), each tap's product with W[:, :, i, j] is added
    into the tap's shifted window, taps in (i, j) order from zero as _col2im
    sums them. gmat is the [B, Ho·Wo, Cout] output gradient.
    """
    b, _, _, cin = xn.shape
    cout, _, kh, kw = wd.shape
    hend, wend = (ho - 1) * stride + 1, (wo - 1) * stride + 1
    taps = [(i, j) for i in range(kh) for j in range(kw)]
    tap_runs = _runs(len(taps), _TAP_LANES)
    # every array the lanes write is allocated in the calling thread: one a
    # worker lane allocated would come from its own malloc arena
    scratch = np.empty((len(tap_runs), b * ho * wo, cin), dtype=xn.dtype)  # one tap's rows per lane
    dwt = np.empty((kh, kw, cout, cin), dtype=xn.dtype)
    # the left operand np.tensordot would make for every tap, made once
    gt = gmat.transpose(2, 0, 1).reshape(cout, b * ho * wo)

    def dw_run(lane, t0, t1):
        rows = scratch[lane]
        for i, j in taps[t0:t1]:
            rows.reshape(b, ho, wo, cin)[...] = xn[:, i : i + hend : stride, j : j + wend : stride]
            np.dot(gt, rows, out=dwt[i, j])

    _on_lanes(dw_run, [(lane, t0, t1) for lane, (t0, t1) in enumerate(tap_runs)])
    dxn = xn
    dxn[...] = 0
    wt = np.ascontiguousarray(wd.transpose(2, 3, 0, 1))  # [kh, kw, Cout, Cin]: each tap's matrix in C order
    products = scratch[0].reshape(b, ho * wo, cin)

    def dx_chunk(lane, n, m):
        for i, j in taps:
            np.matmul(gmat[n:m], wt[i, j], out=products[n:m])
            dxn[n:m, i : i + hend : stride, j : j + wend : stride] += products[n:m].reshape(m - n, ho, wo, cin)

    # a chunk's padded gradient, products and output gradient, which every tap
    # reads again, stay in cache together
    _on_items(dx_chunk, b, dxn[:1].nbytes + ho * wo * (cin + cout) * xn.itemsize)
    return dwt.transpose(2, 3, 0, 1), dxn


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of [B, Cin, H, W] with [Cout, Cin, kh, kw] kernels.

    The forward runs in chunks of whole items (_on_items): it builds each
    chunk's columns, about _BLOCK_BYTES of them, and multiplies them into
    the output, so a conv whose whole batch of columns fits in one block
    runs its forward on the calling thread alone. The rule saves x.
    Backward builds the whole batch's padded NHWC input once, on the calling
    thread. It goes one kernel tap at a time (_tap_backward) where _by_taps
    says that keeps im2col's bits; elsewhere it runs as whole-batch calls
    on the calling thread: one _im2col into an array of its own, dw from one
    GEMM over it, then the column gradient from one matmul written over it
    and one _col2im into the zeroed padded input. Each matmul makes the
    per-item GEMM calls that one stacked matmul over the full column matrix
    would, and only the dw and db reductions span items, as whole-batch
    calls, so neither the lane count, the chunking nor the rule changes a
    bit.
    """
    _same_dtype(x, weight, bias)
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError("conv2d expects a 4-d input and a 4-d weight")
    b, cin, h, w = x.shape
    cout, cin_w, kh, kw = weight.shape
    if cin != cin_w:
        raise ShapeError(f"input has {cin} channels but weight expects {cin_w}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError("conv2d kernels must have odd spatial dims")
    if bias.shape != (cout,):
        raise ShapeError(f"bias shape {bias.shape} does not match {cout} output channels")
    if h + 2 * padding < kh or w + 2 * padding < kw:
        raise ShapeError(
            f"conv2d output is empty for input {h}x{w}, "
            f"kernel {kh}x{kw}, stride {stride}, padding {padding}"
        )
    # output dims follow floor semantics: (H + 2p - k) // stride + 1
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    xd = x.data
    wmat = weight.data.reshape(cout, -1)
    size = ho * wo * wmat.shape[1]  # column-matrix elements per batch item
    item = size * xd.itemsize
    lanes, items = _chunk(b, item)
    p = padding
    hp, wp = h + 2 * p, w + 2 * p

    out = np.empty((b, ho * wo, cout), dtype=xd.dtype)
    chunks = np.empty((lanes, items * size), dtype=xd.dtype)
    # allocated after out and chunks, an order that keeps unet_lfe's peak RSS
    # 15 MiB lower by heap placement alone; the padding stays zero across chunks
    padded = np.zeros((lanes, items, hp, wp, cin), dtype=xd.dtype)

    def product(lane, k, j):
        xn = padded[lane, : j - k]
        xn[:, p : p + h, p : p + w] = xd[k:j].transpose(0, 2, 3, 1)
        np.matmul(_im2col(xn, kh, kw, stride, chunks[lane, : (j - k) * size]), wmat.T, out=out[k:j])
        out[k:j] += bias.data

    _on_items(product, b, item)
    del chunks, padded
    out = out.transpose(0, 2, 1).reshape(b, cout, ho, wo)
    w_shape = weight.shape

    def bwd(g):
        gmat = g.reshape(b, cout, ho * wo).transpose(0, 2, 1)
        db = g.sum(axis=(0, 2, 3))
        xn = np.zeros((b, hp, wp, cin), dtype=xd.dtype)
        xn[:, p : p + h, p : p + w] = xd.transpose(0, 2, 3, 1)
        if _by_taps(b, cin, cout, ho * wo):
            dw, dxn = _tap_backward(xn, weight.data, gmat, ho, wo, stride)
        else:
            cols = _im2col(xn, kh, kw, stride, np.empty(b * size, dtype=xd.dtype))
            dw = np.tensordot(gmat, cols, axes=([0, 1], [0, 1])).reshape(w_shape)
            dxn = xn
            dxn[...] = 0
            _col2im(np.matmul(gmat, wmat, out=cols), dxn, kh, kw, stride)
        return dxn[:, p : p + h, p : p + w].transpose(0, 3, 1, 2), dw, db

    return _result(out, (x, weight, bias), bwd)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """[B, F] @ [Fout, F].T + [Fout]."""
    _same_dtype(x, weight, bias)
    if x.ndim != 2 or weight.ndim != 2:
        raise ShapeError("linear expects 2-d input and weight")
    if x.shape[1] != weight.shape[1]:
        raise ShapeError(f"linear input width {x.shape[1]} != weight width {weight.shape[1]}")
    if bias.shape != (weight.shape[0],):
        raise ShapeError("linear bias shape mismatch")
    out = x.data @ weight.data.T + bias.data

    def bwd(g):
        return g @ weight.data, g.T @ x.data, g.sum(axis=0)

    return _result(out, (x, weight, bias), bwd)


# ---------------------------------------------------------------------------
# activations and normalization


def prelu(x: Tensor, alpha: Tensor) -> Tensor:
    """Per-channel leaky rectifier on [B, C, H, W]; slope alpha where x < 0.

    The derivative at x == 0 is taken as alpha. The select, dx and the
    g·x·(x < 0) products run on the lanes in chunks of whole items
    (_on_items); dα is one whole-batch sum over those products.
    """
    _same_dtype(x, alpha)
    if x.ndim != 4:
        raise ShapeError("prelu expects a 4-d input")
    if alpha.shape != (x.shape[1],):
        raise ShapeError(f"alpha shape {alpha.shape} does not match {x.shape[1]} channels")
    a = alpha.data[None, :, None, None]
    xd = x.data
    b, item = xd.shape[0], xd[:1].nbytes
    out = np.empty_like(xd)

    def select(_, k, j):
        np.multiply(a, xd[k:j], out=out[k:j])
        out[k:j] = np.where(xd[k:j] >= 0, xd[k:j], out[k:j])

    _on_items(select, b, item)
    one = xd.dtype.type(1)

    def bwd(g):
        dx = np.empty_like(g)
        neg = np.empty_like(g)

        def chunk(_, k, j):
            gk, xk = g[k:j], xd[k:j]
            np.less(xk, 0, out=dx[k:j])  # x < 0 as 1 or 0, in dx until dx is made
            np.multiply(gk, xk, out=neg[k:j])
            np.multiply(neg[k:j], dx[k:j], out=neg[k:j])
            np.multiply(gk, np.where(xk > 0, one, a), out=dx[k:j])

        _on_items(chunk, b, item)
        return dx, neg.sum(axis=(0, 2, 3))

    return _result(out, (x, alpha), bwd)


def sigmoid(x: Tensor) -> Tensor:
    xd = x.data
    out = np.empty_like(xd)
    pos = xd >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    ex = np.exp(xd[~pos])
    out[~pos] = ex / (1.0 + ex)

    def bwd(g):
        return (g * out * (1.0 - out),)

    return _result(out, (x,), bwd)


_BN_MOMENTUM = 0.1  # weight of each batch's statistics in the running buffers
_BN_EPS = 1e-5  # added to the variance


def batchnorm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
) -> Tensor:
    """Per-channel batch normalization on [B, C, H, W].

    Training mode normalizes by batch statistics and folds them into the
    running buffers in place; eval mode reads the buffers. Every
    elementwise pass (x − μ and its square, x̂ and γ·x̂ + β; g·x̂, g·γ,
    dx̂·x̂ and dx) runs on the lanes in chunks of whole items (_on_items),
    into full-size arrays allocated here. The sums across items (μ, the
    variance, dβ, dγ and the two in dx) are whole-batch calls over those
    arrays, so neither the lane count nor the chunking changes a bit.
    """
    _same_dtype(x, gamma, beta)
    if x.ndim != 4:
        raise ShapeError("batchnorm2d expects a 4-d input")
    b, c, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError("batchnorm2d gamma/beta must be per-channel vectors")
    if training and b < 2:
        raise DegenerateBatchError("batchnorm2d needs batch size >= 2 in training mode")
    xd = x.data
    item = xd[:1].nbytes
    xhat = np.empty_like(xd)  # x − μ, then x̂
    out = np.empty_like(xd)  # (x − μ)², then γ·x̂ + β
    if training:
        mu = xd.mean(axis=(0, 2, 3))

        def centre(_, k, j):
            np.subtract(xd[k:j], mu[None, :, None, None], out=xhat[k:j])
            np.multiply(xhat[k:j], xhat[k:j], out=out[k:j])

        _on_items(centre, b, item)
        # the rest of np.var (numpy._core._methods._var), on the mean just taken
        var = out.sum(axis=(0, 2, 3))
        np.true_divide(var, np.intp(b * h * w), out=var, casting="unsafe")
        running_mean *= 1.0 - _BN_MOMENTUM
        running_mean += _BN_MOMENTUM * mu.astype(running_mean.dtype)
        running_var *= 1.0 - _BN_MOMENTUM
        running_var += _BN_MOMENTUM * var.astype(running_var.dtype)
    else:
        mu = running_mean.astype(xd.dtype)
        var = running_var.astype(xd.dtype)

    inv = 1.0 / np.sqrt(var + xd.dtype.type(_BN_EPS))
    inv4 = inv[None, :, None, None]

    def affine(_, k, j):
        if not training:
            np.subtract(xd[k:j], mu[None, :, None, None], out=xhat[k:j])
        np.multiply(xhat[k:j], inv4, out=xhat[k:j])
        np.multiply(gamma.data[None, :, None, None], xhat[k:j], out=out[k:j])
        np.add(out[k:j], beta.data[None, :, None, None], out=out[k:j])

    _on_items(affine, b, item)

    def bwd(g):
        dbeta = g.sum(axis=(0, 2, 3))
        prod = np.empty_like(g)  # g·x̂, then dx̂·x̂, then scratch
        dx = np.empty_like(g)  # dx̂, then dx
        gamma4 = gamma.data[None, :, None, None]

        def products(_, k, j):
            np.multiply(g[k:j], xhat[k:j], out=prod[k:j])
            np.multiply(g[k:j], gamma4, out=dx[k:j])
            if not training:
                np.multiply(dx[k:j], inv4, out=dx[k:j])

        _on_items(products, b, item)
        dgamma = prod.sum(axis=(0, 2, 3))
        if training:
            m = b * h * w
            _on_items(lambda _, k, j: np.multiply(dx[k:j], xhat[k:j], out=prod[k:j]), b, item)
            sum_dxhat = dx.sum(axis=(0, 2, 3))[None, :, None, None]
            sum_dxhat_xhat = prod.sum(axis=(0, 2, 3))[None, :, None, None]
            scale = inv4 / m

            def finish(_, k, j):  # (inv / m)·(m·dx̂ − Σdx̂ − x̂·Σdx̂x̂)
                d = dx[k:j]
                np.multiply(m, d, out=d)
                np.subtract(d, sum_dxhat, out=d)
                np.multiply(xhat[k:j], sum_dxhat_xhat, out=prod[k:j])
                np.subtract(d, prod[k:j], out=d)
                np.multiply(scale, d, out=d)

            _on_items(finish, b, item)
        return dx, dgamma, dbeta

    return _result(out, (x, gamma, beta), bwd)


# ---------------------------------------------------------------------------
# shape rearrangement


def pixel_shuffle(x: Tensor, r: int) -> Tensor:
    """Rearrange [B, C*r*r, H, W] into [B, C, H*r, W*r] (sub-pixel layout)."""
    b, crr, h, w = x.shape
    if crr % (r * r):
        raise ShapeError(f"{crr} channels are not divisible by r^2 = {r * r}")
    c = crr // (r * r)
    out = x.data.reshape(b, c, r, r, h, w).transpose(0, 1, 4, 2, 5, 3).reshape(b, c, h * r, w * r)

    def bwd(g):
        dx = g.reshape(b, c, h, r, w, r).transpose(0, 1, 3, 5, 2, 4).reshape(b, crr, h, w)
        return (np.ascontiguousarray(dx),)

    return _result(np.ascontiguousarray(out), (x,), bwd)


def split_channels(x: Tensor, at: int) -> tuple[Tensor, Tensor]:
    """Split [B, C, H, W] into [B, at, ...] and [B, C-at, ...]."""
    if x.ndim != 4:
        raise ShapeError("split_channels expects a 4-d input")
    c = x.shape[1]
    if not 0 < at < c:
        raise ShapeError(f"split point {at} must be inside (0, {c})")
    shape, dtype = x.shape, x.dtype

    def part(channels: slice) -> Tensor:
        def bwd(g):
            dx = np.zeros(shape, dtype)
            dx[:, channels] = g
            return (dx,)

        return _result(x.data[:, channels].copy(), (x,), bwd)

    return part(slice(None, at)), part(slice(at, None))


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate two [B, *, H, W] maps along the channel axis."""
    _same_dtype(a, b)
    if a.ndim != 4 or b.ndim != 4:
        raise ShapeError("concat_channels expects 4-d inputs")
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ShapeError(f"concat_channels spatial/batch mismatch: {a.shape} vs {b.shape}")
    ca = a.shape[1]
    out = np.concatenate([a.data, b.data], axis=1)

    def bwd(g):
        return g[:, :ca].copy(), g[:, ca:].copy()

    return _result(out, (a, b), bwd)


def flatten(x: Tensor) -> Tensor:
    """Collapse all non-batch axes: [B, ...] -> [B, F]."""
    shape = x.shape
    out = x.data.reshape(shape[0], -1)

    def bwd(g):
        return (g.reshape(shape),)

    return _result(out, (x,), bwd)


# ---------------------------------------------------------------------------
# elementwise arithmetic


def _binary(a: Tensor, b: Tensor):
    _same_dtype(a, b)
    if a.shape != b.shape:
        raise ShapeError(f"elementwise op on mismatched shapes {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary(a, b)
    return _result(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _binary(a, b)
    return _result(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary(a, b)
    return _result(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def div(a: Tensor, b: Tensor) -> Tensor:
    _binary(a, b)
    out = a.data / b.data

    def bwd(g):
        return g / b.data, -g * a.data / (b.data * b.data)

    return _result(out, (a, b), bwd)


def neg(x: Tensor) -> Tensor:
    return _result(-x.data, (x,), lambda g: (-g,))


def scale(x: Tensor, c: float) -> Tensor:
    c = x.data.dtype.type(c)
    return _result(x.data * c, (x,), lambda g: (g * c,))


def add_scalar(x: Tensor, c: float) -> Tensor:
    return _result(x.data + x.data.dtype.type(c), (x,), lambda g: (g,))


def absval(x: Tensor) -> Tensor:
    xd = x.data
    return _result(np.abs(xd), (x,), lambda g: (g * np.sign(xd),))


def log(x: Tensor) -> Tensor:
    return _result(np.log(x.data), (x,), lambda g: (g / x.data,))


def sqrt(x: Tensor) -> Tensor:
    out = np.sqrt(x.data)

    def bwd(g):
        return (g / (2.0 * out),)

    return _result(out, (x,), bwd)


def clamp(x: Tensor, lo: float | None = None, hi: float | None = None) -> Tensor:
    """Clip to [lo, hi]; gradient passes only where lo <= x <= hi."""
    if lo is None and hi is None:
        raise ValueError("clamp needs at least one bound")
    xd = x.data
    out = np.clip(xd, lo, hi)
    mask = np.ones_like(xd)
    if lo is not None:
        mask *= xd >= lo
    if hi is not None:
        mask *= xd <= hi

    def bwd(g):
        return (g * mask,)

    return _result(out, (x,), bwd)


# ---------------------------------------------------------------------------
# reductions and resampling


def tsum(x: Tensor) -> Tensor:
    shape, dtype = x.shape, x.dtype
    out = np.asarray(x.data.sum(), dtype=dtype)

    def bwd(g):
        return (np.full(shape, g, dtype),)

    return _result(out, (x,), bwd)


def tmean(x: Tensor) -> Tensor:
    shape, dtype = x.shape, x.dtype
    out = np.asarray(x.data.mean(), dtype=dtype)
    n = dtype.type(x.data.size)

    def bwd(g):
        return (np.full(shape, g / n, dtype),)

    return _result(out, (x,), bwd)


def sum_axis(x: Tensor, axis: int) -> Tensor:
    n = x.shape[axis]
    out = x.data.sum(axis=axis)

    def bwd(g):
        return (np.repeat(np.expand_dims(g, axis), n, axis=axis),)

    return _result(out, (x,), bwd)


def mean_axis(x: Tensor, axis: int) -> Tensor:
    """Mean along one axis, keeping that axis with size 1."""
    n = x.shape[axis]
    out = x.data.mean(axis=axis, keepdims=True)
    inv = x.data.dtype.type(1.0 / n)

    def bwd(g):
        return (np.repeat(g, n, axis=axis) * inv,)

    return _result(out, (x,), bwd)


def maxpool2d(x: Tensor, k: int = 2) -> Tensor:
    """Non-overlapping k x k max pooling; gradient routes to the first argmax.

    The window argmax and gather, and the backward scatter, run on the
    lanes in chunks of whole items (_on_items).
    """
    b, c, h, w = x.shape
    if h % k or w % k:
        raise ShapeError(f"maxpool2d needs spatial dims divisible by {k}, got {h}x{w}")
    ho, wo = h // k, w // k
    xd = x.data
    item = xd[:1].nbytes
    idx = np.empty((b, c, ho, wo), dtype=np.intp)
    out = np.empty((b, c, ho, wo), dtype=xd.dtype)

    def pool(_, i, j):
        n = j - i
        windows = xd[i:j].reshape(n, c, ho, k, wo, k).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, ho, wo, k * k)
        np.argmax(windows, axis=-1, out=idx[i:j])
        out[i:j] = np.take_along_axis(windows, idx[i:j, ..., None], axis=-1)[..., 0]

    _on_items(pool, b, item)

    def bwd(g):
        dx = np.empty((b, c, h, w), dtype=g.dtype)

        def scatter(_, i, j):
            n = j - i
            dwin = np.zeros((n, c, ho, wo, k * k), dtype=g.dtype)
            np.put_along_axis(dwin, idx[i:j, ..., None], g[i:j, ..., None], axis=-1)
            dx[i:j].reshape(n, c, ho, k, wo, k)[...] = dwin.reshape(n, c, ho, wo, k, k).transpose(0, 1, 2, 4, 3, 5)

        _on_items(scatter, b, item)
        return (dx,)

    return _result(out, (x,), bwd)


def avgpool2d(x: Tensor, k: int = 2) -> Tensor:
    """Non-overlapping k x k average pooling."""
    b, c, h, w = x.shape
    if h % k or w % k:
        raise ShapeError(f"avgpool2d needs spatial dims divisible by {k}, got {h}x{w}")
    ho, wo = h // k, w // k
    out = x.data.reshape(b, c, ho, k, wo, k).mean(axis=(3, 5))
    inv = x.data.dtype.type(1.0 / (k * k))

    def bwd(g):
        dx = np.repeat(np.repeat(g, k, axis=2), k, axis=3) * inv
        return (dx,)

    return _result(out, (x,), bwd)


def nearest_upsample(x: Tensor, factors: tuple[int, int]) -> Tensor:
    """Repeat each element factors[0] times along H and factors[1] along W.

    The adjoint sums each factor-sized block back to its source element, on
    the lanes in chunks of whole items (_on_items).
    """
    fh, fw = factors
    if fh < 1 or fw < 1:
        raise ShapeError("upsample factors must be >= 1")
    b, c, h, w = x.shape
    out = x.data
    if fh > 1:
        out = np.repeat(out, fh, axis=2)
    if fw > 1:
        out = np.repeat(out, fw, axis=3)

    def bwd(g):
        dx = np.empty_like(g[:, :, ::fh, ::fw])  # laid out as the sum would allocate it
        _on_items(lambda _, i, j: g[i:j].reshape(j - i, c, h, fh, w, fw).sum(axis=(3, 5), out=dx[i:j]),
                  b, g[:1].nbytes)
        return (dx,)

    return _result(out, (x,), bwd)
