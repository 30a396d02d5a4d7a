"""Reverse-mode automatic differentiation over dense numpy tensors.

A deliberately closed operator set: exactly the kernels the networks in
this package need, each with a hand-written backward rule that is
finite-difference checked (see gradcheck). There is no general
broadcasting engine; shapes must line up the way each op defines them.
Network tensors are float32 by default, but every kernel also runs in
float64 (used by tests and at the quantum-layer boundary). Reductions go
through numpy's fixed pairwise order, so results are bit-identical across
runs and worker counts. Convolution is im2col plus GEMM (Chellapilla, Puri
& Simard 2006); its im2col/col2im copies run in cache-sized blocks, and
col2im sums each input element's kernel taps in a fixed (i, j) order from
zero whatever the blocking, so the blocking never changes a bit. Conv is
also the one op that uses more than one core: it splits each batch into
contiguous runs of items, one per CPU the process may use, and runs them
on persistent worker threads (lanes) that start with the first conv that
splits. Each item's im2col, GEMM and col2im are the calls they would be
on one lane, and the only sums across items (dw, db) are single calls in
the calling thread, so the lane count never changes a bit either.
The graph is made of small nodes, one per recorded tensor, that hold no
output data: only what each rule saves is kept, so an activation no rule
reads is freed during the forward pass as soon as Python drops it. The
backward pass consumes the graph it differentiates, as PyTorch does
(Paszke et al. 2017): once a node's rule has run, the node drops its
gradient and the rule, and with the rule the arrays it saved, so a second
backward through the same graph raises. Conv's rule saves its input, not
its column matrix (recomputed rather than stored, as in Chen et al. 2016):
each lane's forward builds the columns for a cache block's worth of whole
batch items at a time, and backward rebuilds them, each lane its own
items, in a buffer of the calling thread that lives as long as that thread
and is the size of the largest column matrix it has differentiated, then
writes the column gradient over them. Forward-only runs never create the
buffer. The GEMMs are the per-item calls they always were, so neither the
chunking nor the recomputation changes a bit. Each gradient keeps the
memory order of its data (conv outputs are NHWC-strided), since the rules'
reductions follow that order. Leaf gradients still accumulate across
separate graphs.
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


class Parameter:
    """Named, optionally trainable tensor owned by a model."""

    __slots__ = ("tensor", "name", "trainable")

    def __init__(self, data, name: str = "", trainable: bool = True, dtype=np.float32):
        self.tensor = Tensor(np.asarray(data), requires_grad=trainable, dtype=dtype)
        self.name = name
        self.trainable = bool(trainable)

    @property
    def data(self):
        return self.tensor.data

    @property
    def grad(self):
        return self.tensor.grad

    def zero_grad(self) -> None:
        self.tensor.zero_grad()

    def __repr__(self):
        kind = "param" if self.trainable else "buffer"
        return f"Parameter({self.name!r}, {kind}, shape={tuple(self.tensor.shape)})"


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


# Bytes of column matrix handled per block by _im2col/_col2im, and per
# forward chunk. Each block is touched once per kernel tap, so it has to stay
# in a per-core L2 cache together with its input rows, a further 1/(kh*kw) of
# its size; then every cache line of the column matrix goes to memory once
# rather than once per tap. 1 MiB fits the 4 MiB L2 per core of the 2-core
# Xeon the package is benchmarked on (1.25-2 MiB on other current x86 cores)
# and is large enough that the conv lanes scale: each block copy is a numpy
# call that takes the GIL, and at 256 KiB the 64-channel 64x64 im2col makes
# about 9k of them, so two lanes spend their time handing the GIL back and
# forth. On that Xeon (batch 16, float32) that im2col took 68 ms on one lane
# and 76 ms on two at 256 KiB, 63 ms and 36 ms at 1 MiB; its col2im 85 and
# 101 ms, then 65 and 42 ms.
_BLOCK_BYTES = 1024 * 1024


def _blocks(b: int, rows: int, row_bytes: int):
    """(items, r0, r1) blocks of about _BLOCK_BYTES: one item and a run of
    rows, or whole items when one fits."""
    per_block = max(1, _BLOCK_BYTES // max(1, row_bytes))
    if per_block >= rows:
        step = per_block // rows
        for n in range(0, b, step):
            yield slice(n, n + step), 0, rows
        return
    for n in range(b):
        for r0 in range(0, rows, per_block):
            yield slice(n, n + 1), r0, min(rows, r0 + per_block)


def _padded(x: np.ndarray, padding: int) -> np.ndarray:
    """x [B, C, H, W] zero-padded on each side, as a [B, C, Hp, Wp] view of
    NHWC memory: the layout _im2col reads its windows from."""
    b, c, h, w = x.shape
    p = padding
    xn = np.zeros((b, h + 2 * p, w + 2 * p, c), dtype=x.dtype)
    xn[:, p : p + h, p : p + w] = x.transpose(0, 2, 3, 1)
    return xn.transpose(0, 3, 1, 2)


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int, out=None):
    """[B, C, H, W] -> windows as rows: [B, Ho·Wo, C·kh·kw], (c, i, j) order.

    With padding 0, x is read in place, so an input from _padded costs no
    copy. `out`, when given, is a flat or contiguous array of x's dtype and
    the columns' size that takes them.
    """
    b, c, hp, wp = x.shape
    if padding:
        x = _padded(x, padding)
        hp, wp = hp + 2 * padding, wp + 2 * padding
    xn = x.transpose(0, 2, 3, 1)
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    shape = (b, ho, wo, c, kh, kw)
    cols = np.empty(shape, dtype=x.dtype) if out is None else out.reshape(shape)
    wend = (wo - 1) * stride + 1
    for n, r0, r1 in _blocks(b, ho, wo * c * kh * kw * x.itemsize):
        for i in range(kh):
            src = xn[n, r0 * stride + i : (r1 - 1) * stride + i + 1 : stride]
            for j in range(kw):
                cols[n, r0:r1, :, :, i, j] = src[:, :, j : j + wend : stride]
    return cols.reshape(b, ho * wo, c * kh * kw), ho, wo


def _col2im(dcols: np.ndarray, x_shape, kh: int, kw: int, stride: int, padding: int, ho: int, wo: int,
            out=None):
    """Adjoint of _im2col: sums each input element's taps in (i, j) order.

    `out`, when given, is the zeroed padded NHWC gradient [B, Hp, Wp, C] to
    sum into.
    """
    b, c, h, w = x_shape
    p = padding
    hp, wp = h + 2 * p, w + 2 * p
    dxn = np.zeros((b, hp, wp, c), dtype=dcols.dtype) if out is None else out
    dwin = dcols.reshape(b, ho, wo, c, kh, kw)
    wend = (wo - 1) * stride + 1
    # blocks run over padded input rows (each takes about 1/stride of a dcols
    # row), so every element receives all its taps inside one block, in the
    # same order as an unblocked loop
    for n, y0, y1 in _blocks(b, hp, wo * c * kh * kw * dcols.itemsize // stride):
        for i in range(kh):
            # output rows oy whose tap i lands in [y0, y1): y0 <= oy*stride + i < y1
            lo = max(0, -((i - y0) // stride))
            hi = min(ho, -((i - y1) // stride))
            if lo >= hi:
                continue
            dst = dxn[n, lo * stride + i : (hi - 1) * stride + i + 1 : stride]
            for j in range(kw):
                dst[:, :, j : j + wend : stride] += dwin[n, lo:hi, :, :, i, j]
    return dxn[:, p : p + h, p : p + w].transpose(0, 3, 1, 2)


# Conv backward rebuilds its column matrix here rather than keeping it from
# the forward: one byte buffer per thread, grown to the largest column matrix
# the thread has differentiated and reused by every later conv backward.
_COLUMNS = threading.local()


def _column_buffer(size: int, dtype) -> np.ndarray:
    """The calling thread's column buffer as `size` elements of `dtype`."""
    nbytes = size * np.dtype(dtype).itemsize
    if getattr(_COLUMNS, "buf", None) is None or _COLUMNS.buf.nbytes < nbytes:
        _COLUMNS.buf = None  # free the smaller buffer before allocating its successor
        _COLUMNS.buf = np.empty(nbytes, np.uint8)
    return _COLUMNS.buf[:nbytes].view(dtype)


# CPUs this process may run on, read once: conv splits each batch into this
# many runs of items at most, one per lane.
_LANES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


class _Lane:
    """A persistent worker thread that runs one posted call at a time."""

    def __init__(self, number: int):
        self.go = threading.Semaphore(0)
        self.done = threading.Semaphore(0)
        self.call = self.error = None
        threading.Thread(target=self._serve, name=f"qcseis-conv-lane-{number}", daemon=True).start()

    def _serve(self):
        while True:
            self.go.acquire()
            try:
                fn, args = self.call
                fn(*args)
            except BaseException as exc:  # raised again in the calling thread
                self.error = exc
            finally:
                fn = args = self.call = None  # hold none of the call's arrays while idle
            self.done.release()


_POOL: list = []  # worker lanes, started by the first conv that splits; the caller is lane 0
_POOL_LOCK = threading.Lock()  # one conv uses the lanes at a time


def _reset_pool():
    global _POOL_LOCK
    _POOL.clear()  # a forked child has none of the parent's threads
    _POOL_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_pool)


def _runs(b: int) -> list:
    """Contiguous (n, m) runs of a batch's items, one per lane, as even as possible."""
    k = max(1, min(_LANES, b))
    return [(i * b // k, (i + 1) * b // k) for i in range(k)]


def _on_lanes(fn, calls) -> None:
    """fn(*args) for every args in calls, each on its own lane: the first on
    the calling thread, the rest on worker lanes. Returns once every call has
    run, raising the first error in call order."""
    with _POOL_LOCK:
        while len(_POOL) < len(calls) - 1:
            _POOL.append(_Lane(len(_POOL) + 1))
        lanes = _POOL[: len(calls) - 1]
        for lane, args in zip(lanes, calls[1:]):
            lane.call = (fn, args)
            lane.go.release()
        try:
            fn(*calls[0])
        finally:
            # the lanes write into the caller's arrays: wait for every one of
            # them, also when the caller's own call or an interrupt raised
            errors, interrupt = [], None
            for lane in lanes:
                while True:
                    try:
                        lane.done.acquire()
                        break
                    except BaseException as exc:  # raised once every lane is done
                        interrupt = exc
                errors.append(lane.error)
                lane.error = None
            if interrupt is not None:
                raise interrupt
    for error in errors:
        if error is not None:
            raise error


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of [B, Cin, H, W] with [Cout, Cin, kh, kw] kernels.

    Forward and backward split the batch into one run of items per lane
    (_runs). The rule saves x; backward rebuilds its columns in the thread's
    column buffer. Each matmul makes the per-item GEMM calls that one stacked
    matmul over the full column matrix would, and only the dw and db
    reductions span items, as single calls, so the lane count never changes
    a bit.
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
    runs = _runs(b)
    items = min(max(m - n for n, m in runs), max(1, _BLOCK_BYTES // (size * xd.itemsize)))
    p = padding
    out = np.empty((b, ho * wo, cout), dtype=xd.dtype)
    # Each lane's scratch, a chunk of columns and the padded NHWC items it is
    # built from, is allocated here in the calling thread: arrays a worker
    # lane allocated would come from its own malloc arena. The padding
    # borders stay zero from chunk to chunk.
    chunks = np.empty((len(runs), items * size), dtype=xd.dtype)
    padded = np.zeros((len(runs), items, h + 2 * p, w + 2 * p, cin), dtype=xd.dtype)

    def forward(n, m, chunk, xn):
        for k in range(n, m, items):
            j = min(m, k + items)
            xn[: j - k, p : p + h, p : p + w] = xd[k:j].transpose(0, 2, 3, 1)
            cols = _im2col(xn[: j - k].transpose(0, 3, 1, 2), kh, kw, stride, 0, chunk[: (j - k) * size])[0]
            np.matmul(cols, wmat.T, out=out[k:j])
            out[k:j] += bias.data

    _on_lanes(forward, [(n, m, chunks[i], padded[i]) for i, (n, m) in enumerate(runs)])
    del chunks, padded
    out = out.transpose(0, 2, 1).reshape(b, cout, ho, wo)
    w_shape = weight.shape

    def bwd(g):
        xpad = _padded(xd, p)
        cols = _column_buffer(b * size, xd.dtype).reshape(b, ho * wo, -1)
        _on_lanes(lambda n, m: _im2col(xpad[n:m], kh, kw, stride, 0, cols[n:m]), runs)
        del xpad
        gmat = g.reshape(b, cout, ho * wo).transpose(0, 2, 1)
        dw = np.tensordot(gmat, cols, axes=([0, 1], [0, 1])).reshape(w_shape)
        db = g.sum(axis=(0, 2, 3))
        dxn = np.zeros((b, h + 2 * p, w + 2 * p, cin), dtype=xd.dtype)

        def dx_run(n, m):
            dcols = np.matmul(gmat[n:m], wmat, out=cols[n:m])
            _col2im(dcols, (m - n, cin, h, w), kh, kw, stride, p, ho, wo, dxn[n:m])

        _on_lanes(dx_run, runs)
        dx = dxn[:, p : p + h, p : p + w].transpose(0, 3, 1, 2)
        return dx, dw, db

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

    The derivative at x == 0 is taken as alpha.
    """
    _same_dtype(x, alpha)
    if x.ndim != 4:
        raise ShapeError("prelu expects a 4-d input")
    if alpha.shape != (x.shape[1],):
        raise ShapeError(f"alpha shape {alpha.shape} does not match {x.shape[1]} channels")
    a = alpha.data[None, :, None, None]
    xd = x.data
    out = np.where(xd >= 0, xd, a * xd)

    def bwd(g):
        dx = g * np.where(xd > 0, xd.dtype.type(1), a)
        da = (g * xd * (xd < 0)).sum(axis=(0, 2, 3))
        return dx, da

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


def batchnorm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Per-channel batch normalization on [B, C, H, W].

    Training mode normalizes by batch statistics and folds them into the
    running buffers in place; eval mode reads the buffers.
    """
    _same_dtype(x, gamma, beta)
    if x.ndim != 4:
        raise ShapeError("batchnorm2d expects a 4-d input")
    b, c, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError("batchnorm2d gamma/beta must be per-channel vectors")
    xd = x.data
    if training:
        if b < 2:
            raise DegenerateBatchError("batchnorm2d needs batch size >= 2 in training mode")
        mu = xd.mean(axis=(0, 2, 3))
        var = xd.var(axis=(0, 2, 3))
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu.astype(running_mean.dtype)
        running_var *= 1.0 - momentum
        running_var += momentum * var.astype(running_var.dtype)
    else:
        mu = running_mean.astype(xd.dtype)
        var = running_var.astype(xd.dtype)

    inv = 1.0 / np.sqrt(var + xd.dtype.type(eps))
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

    def bwd_first(g):
        dx = np.zeros(shape, dtype)
        dx[:, :at] = g
        return (dx,)

    def bwd_second(g):
        dx = np.zeros(shape, dtype)
        dx[:, at:] = g
        return (dx,)

    first = _result(x.data[:, :at].copy(), (x,), bwd_first)
    second = _result(x.data[:, at:].copy(), (x,), bwd_second)
    return first, second


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
    """Non-overlapping k x k max pooling; gradient routes to the first argmax."""
    b, c, h, w = x.shape
    if h % k or w % k:
        raise ShapeError(f"maxpool2d needs spatial dims divisible by {k}, got {h}x{w}")
    ho, wo = h // k, w // k
    windows = x.data.reshape(b, c, ho, k, wo, k).transpose(0, 1, 2, 4, 3, 5).reshape(b, c, ho, wo, k * k)
    idx = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]

    def bwd(g):
        dwin = np.zeros((b, c, ho, wo, k * k), dtype=g.dtype)
        np.put_along_axis(dwin, idx[..., None], g[..., None], axis=-1)
        dx = dwin.reshape(b, c, ho, wo, k, k).transpose(0, 1, 2, 4, 3, 5).reshape(b, c, h, w)
        return (np.ascontiguousarray(dx),)

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

    The adjoint sums each factor-sized block back to its source element.
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
        dx = g.reshape(b, c, h, fh, w, fw).sum(axis=(3, 5))
        return (dx,)

    return _result(out, (x,), bwd)
