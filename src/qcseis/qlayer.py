"""Quantum feature layer: windowed encoding, circuit evolution, measurement.

The trace axis of a [B, C, T, S] map is unfolded into non-overlapping
windows of n_qubits samples, each window is angle-encoded, evolved through
every fixed random circuit, and measured; per-circuit expectations become
output channels.

Circuits are frozen and the encoding gives a real product state a(x), so
each expectation is the exact quadratic form E_k(x) = a(x)^T H_k a(x) with
H_k = M_k diag(z) M_k^T, where row r of M_k is basis state r evolved by
circuit k (run through qsim, which holds the only gate kernels) and z is
the Pauli-Z sign pattern of qubit 0. A layer's K matrices are cached once,
stacked; each window chunk (a fixed grid on autograd._on_items's lanes)
multiplies them with its amplitudes, [2^n, windows], in one GEMM. Since
da/dx_j = a(x + pi e_j) / 2 and H_k is symmetric,
dE_k/dx_j = (H_k a) . a(x + pi e_j); for a product state a(x + pi e_j) is
a(x) with the halves where qubit j is 0 and 1 swapped and the first
negated, so the input gradient needs no parameter shifts and no
re-encoding. qsim remains the scalar single-state reference (including
the parameter-shift rule) that this implementation is tested against.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import autograd as ag
from . import qsim
from .qsim import MAX_QUBITS, RandomCircuit

__all__ = [
    "QuantumLayerConfig",
    "unfold",
    "quantum_forward",
    "quantum_input_grad",
    "quantum_conv",
    "set_workers",
    "get_workers",
]

_WORKERS = 1


def set_workers(n: int) -> None:
    """Record a worker count, kept for callers; it selects nothing. The
    layer's window chunks run on autograd's lanes, one per usable CPU."""
    global _WORKERS
    _WORKERS = max(1, int(n))


def get_workers() -> int:
    return _WORKERS


@dataclass(frozen=True)
class QuantumLayerConfig:
    """Shape and circuit parameters of one quantum feature layer.

    The trace axis is cut into non-overlapping windows of `n_qubits`
    samples, so each window feeds exactly one register.
    """

    n_qubits: int = 4
    n_circuits: int = 4
    depth: int = 2
    seed: int = 0
    input_scale: float = 1.0

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}]")
        if self.n_circuits < 1:
            raise ValueError("n_circuits must be >= 1")
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        if not np.isfinite(self.input_scale):
            raise ValueError("input_scale must be finite")

    @property
    def stride(self) -> int:
        """Step between consecutive windows on the trace axis: `n_qubits`."""
        return self.n_qubits

    def make_circuits(self) -> list[RandomCircuit]:
        return [RandomCircuit.generate(self.seed, i, self.depth, self.n_qubits)
                for i in range(self.n_circuits)]


def unfold(arr: np.ndarray, cfg: QuantumLayerConfig) -> np.ndarray:
    """Window the trace axis of [B, C, T, S] into rows of n_qubits samples.

    Rows are ordered lexicographically in (b, c, t, window); when S is not
    a multiple of n_qubits the trace axis is replicate-padded on the
    right to the next multiple.
    """
    if arr.ndim != 4:
        raise ag.ShapeError(f"unfold expects a 4-d input, got shape {arr.shape}")
    b, c, t, s = arr.shape
    k = cfg.n_qubits
    if s < k:
        raise ag.ShapeError(f"trace axis ({s}) is shorter than the window ({k})")
    pad = (-s) % k
    if pad:
        arr = np.pad(arr, ((0, 0), (0, 0), (0, 0), (0, pad)), mode="edge")
    s_out = arr.shape[3] // k
    return arr.reshape(b * c * t * s_out, k)


# ---------------------------------------------------------------------------
# closed-form expectations


def _encode_rows(rows: np.ndarray) -> np.ndarray:
    """Product-state amplitudes [2^n, m] of every row of encoding angles; qubit q is bit q."""
    half = 0.5 * np.ascontiguousarray(rows.T)  # row per qubit, so each write reads contiguously
    c, s = np.cos(half), np.sin(half)
    amps = np.ones((1, rows.shape[0]))
    for qubit in range(rows.shape[1] - 1, -1, -1):
        nxt = np.empty((2 * amps.shape[0], amps.shape[1]))
        nxt[0::2] = amps * c[qubit]
        nxt[1::2] = amps * s[qubit]
        amps = nxt
    return amps


@lru_cache(maxsize=32)
def _observables(layer: tuple) -> np.ndarray:
    """Every circuit's symmetric H, with <Z_0> = a^T H a for every real input
    amplitude row a, stacked read-only into one [K * 2^n, 2^n] matrix.

    Keyed by each circuit's (n_qubits, angle bytes), not its identity: layers
    rebuild their circuits from angle buffers on every call, and restoring a
    checkpoint replaces those buffers. A layer's forward and input gradient
    share the array. The bound holds every layer of a GAN pair of up to 15
    blocks each, plus a UNet's.
    """
    blocks = []
    for n_qubits, angles_bytes in layer:
        circuit = RandomCircuit(np.frombuffer(angles_bytes, dtype=np.float64).reshape(-1, n_qubits))
        states = [qsim.QuantumState(n_qubits, row) for row in np.eye(2 ** n_qubits)]
        evolved = np.stack([qsim.run_circuit(state, circuit).amplitudes for state in states])
        z = np.array([qsim.expect(state, qsim.Observable(0)) for state in states])
        blocks.append(((evolved * z) @ evolved.conj().T).real)
    h = np.concatenate(blocks)
    h.setflags(write=False)
    return h


# ---------------------------------------------------------------------------
# layer forward / backward


def _check_circuits(circuits, cfg: QuantumLayerConfig):
    if len(circuits) != cfg.n_circuits:
        raise ValueError(f"expected {cfg.n_circuits} circuits, got {len(circuits)}")
    for circuit in circuits:
        if circuit.n_qubits != cfg.n_qubits:
            raise ValueError(
                f"circuit acts on {circuit.n_qubits} qubits but the layer is "
                f"configured for {cfg.n_qubits}"
            )


def _on_window_chunks(m: int, window_bytes: int, fn) -> None:
    """fn(r0, r1) for every chunk [r0, r1) of m windows, each chunk one
    item of autograd._on_items, so a lane runs a contiguous run of them.

    A chunk holds as many windows as keep their projected amplitudes,
    `window_bytes` each, within autograd's cache block, rounded down to a
    multiple of 64 and at least 64: 2048 for the default layer. Chunks start
    at multiples of that from window 0 and the last takes the remainder, so
    the grid, and every bit, is the same at any lane count; past OpenBLAS's
    small-matrix limit (3 or more qubits at the default block) it also gives
    the bits of one whole-array GEMM. OpenBLAS computes whole groups of 8
    columns the same in any GEMM, but a GEMM's last N mod 8 columns take a
    kernel that depends on its size: GEMV for one column, a small-matrix
    path below about 10^6 / (M·K) columns (976 windows for the default
    layer). Chunks of a multiple of 64 put the last chunk's tail where the
    whole array's is, and a last chunk at least a chunk long runs it on the
    same kernel. Splitting the windows themselves per lane, as _on_items
    splits items, would move the tail.
    """
    step = max(64, ag._BLOCK_BYTES // window_bytes // 64 * 64)
    chunks = max(1, m // step)

    def chunk(lane, i, _):
        fn(i * step, m if i == chunks - 1 else (i + 1) * step)

    ag._on_items(chunk, chunks, ag._BLOCK_BYTES)


def quantum_forward(x: np.ndarray, circuits, cfg: QuantumLayerConfig,
                    workers: int | None = None) -> np.ndarray:
    """Quantum feature map of a [B, C, T, S] array: one channel per circuit.

    Expectations are averaged over input channels, then repeated along the
    trace axis (and cropped) so the output [B, K, T, S] is spatially
    aligned with the input for channel-wise concatenation. The windows run
    in cache-sized chunks of a fixed grid on the lanes (_on_window_chunks),
    each encoded, projected and contracted on its own; the lane count
    changes no bit. `workers` is accepted for callers and selects nothing.
    """
    arr = x.astype(np.float64, copy=False)
    _check_circuits(circuits, cfg)
    b, c, t, s = arr.shape
    rows = unfold(arr, cfg) * cfg.input_scale
    h = _observables(tuple((circ.n_qubits, circ.angles.tobytes()) for circ in circuits))
    k, m = len(circuits), rows.shape[0]
    y = np.empty((k, m))

    def chunk(r0, r1):
        amps = _encode_rows(rows[r0:r1])
        projected = (h @ amps).reshape(k, *amps.shape)
        y[:, r0:r1] = np.einsum("kdm,dm->km", projected, amps)

    _on_window_chunks(m, h.shape[0] * h.itemsize, chunk)
    s_out = m // (b * c * t)
    fmap = y.reshape(k, b, c, t, s_out).mean(axis=2)
    fmap = np.repeat(fmap, cfg.stride, axis=-1)[..., :s]
    return fmap.transpose(1, 0, 2, 3)


def quantum_input_grad(upstream: np.ndarray, x_shape: tuple, rows: np.ndarray, circuits,
                       cfg: QuantumLayerConfig) -> np.ndarray:
    """Input gradient of quantum_forward in closed form, in the forward's
    window chunks on the lanes.

    `rows` must be the scaled window matrix of the forward's input.
    """
    b, c, t, s = x_shape
    k = len(circuits)
    m = rows.shape[0]
    s_out = m // (b * c * t)
    padded = s_out * cfg.stride

    up = np.zeros((b, k, t, padded))
    up[..., :s] = upstream
    per_window = up.reshape(b, k, t, s_out, cfg.stride).sum(axis=-1)
    # channel-mean adjoint: every input channel sees the same coefficient / C
    coef = np.repeat(per_window[:, None] / c, c, axis=1)  # [B, C, K, T, S']
    coef_flat = coef.transpose(2, 0, 1, 3, 4).reshape(k, m)
    h = _observables(tuple((circ.n_qubits, circ.angles.tobytes()) for circ in circuits))
    dim = h.shape[1]
    grad_rows = np.empty_like(rows)

    def chunk(r0, r1):
        amps = _encode_rows(rows[r0:r1])
        w = r1 - r0
        # upstream-weighted sum of every circuit's H_k a, one GEMM since each H_k is symmetric
        weighted = h.T @ (coef_flat[:, None, r0:r1] * amps).reshape(k * dim, w)
        # a(x + pi e_j) is a(x) with qubit j's halves swapped and the bit-0 half negated
        for j in range(rows.shape[1]):
            a = amps.reshape(-1, 2, 2 ** j, w)
            hw = weighted.reshape(-1, 2, 2 ** j, w)
            grad_rows[r0:r1, j] = (np.einsum("hlm,hlm->m", hw[:, 1], a[:, 0])
                                   - np.einsum("hlm,hlm->m", hw[:, 0], a[:, 1]))

    _on_window_chunks(m, h.shape[0] * h.itemsize, chunk)
    grad_rows *= cfg.input_scale

    grad_pad = grad_rows.reshape(b, c, t, padded)
    grad = grad_pad[..., :s].copy()
    if padded > s:
        grad[..., s - 1] += grad_pad[..., s:].sum(axis=-1)
    return grad


def quantum_conv(x: ag.Tensor, circuits, cfg: QuantumLayerConfig) -> ag.Tensor:
    """Autograd-integrated quantum feature layer on a [B, C, T, S] tensor."""
    data = x.data
    out = quantum_forward(data, circuits, cfg).astype(data.dtype)
    shape, dtype = x.shape, x.dtype

    def bwd(g):
        # the rule saves the input; the windows are unfolded only when a backward runs
        rows = unfold(data.astype(np.float64, copy=False), cfg) * cfg.input_scale
        gin = quantum_input_grad(g.astype(np.float64), shape, rows, circuits, cfg)
        return (gin.astype(dtype),)

    return ag._result(out, (x,), bwd)

