"""Quantum feature layer: windowed encoding, circuit evolution, measurement.

The trace axis of a [B, C, T, S] map is unfolded into non-overlapping
windows of n_qubits samples, each window is angle-encoded, evolved through
every fixed random circuit, and measured; per-circuit expectations become
output channels.

Circuits are frozen and the encoding gives a real product state a(x), so
each expectation is the exact quadratic form E_k(x) = a(x)^T H_k a(x) with
H_k = M_k diag(z) M_k^T, where row r of M_k is basis state r evolved by
circuit k (run through qsim, which holds the only gate kernels) and z is
the Pauli-Z sign pattern of qubit 0. H_k is cached by circuit content, and
the K matrices are stacked so a call multiplies them with the amplitudes,
held amplitude-major as [2^n, windows], in one GEMM. Since
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
    """Record a worker count; kept for callers, the layer starts no threads."""
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


def _as_array(x) -> np.ndarray:
    return x.data if isinstance(x, ag.Tensor) else np.asarray(x)


def unfold(x, cfg: QuantumLayerConfig) -> np.ndarray:
    """Window the trace axis of [B, C, T, S] into rows of n_qubits samples.

    Rows are ordered lexicographically in (b, c, t, window); when S is not
    a multiple of n_qubits the trace axis is replicate-padded on the
    right to the next multiple.
    """
    arr = _as_array(x)
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


@lru_cache(maxsize=128)
def _observable(n_qubits: int, angles_bytes: bytes, layout: tuple) -> np.ndarray:
    """Symmetric H with <Z_0> = a^T H a for every real input amplitude row a.

    Keyed by the circuit's content, not its identity: layers rebuild their
    circuits from angle buffers on every call, and restoring a checkpoint
    replaces those buffers. The bound holds every circuit of a GAN pair.
    """
    angles = np.frombuffer(angles_bytes, dtype=np.float64).reshape(len(layout), n_qubits)
    circuit = RandomCircuit(index=0, depth=len(layout), n_qubits=n_qubits, seed=0,
                            angles=angles, entangler_layout=layout)
    obs = qsim.Observable(0)
    basis = np.eye(2 ** n_qubits)
    states = [qsim.QuantumState(n_qubits, row) for row in basis]
    evolved = np.stack([qsim.run_circuit(state, circuit).amplitudes for state in states])
    z = np.array([qsim.expect(state, obs) for state in states])
    h = ((evolved * z) @ evolved.conj().T).real
    h.setflags(write=False)
    return h


def _observables(circuits) -> np.ndarray:
    """Every circuit's H stacked into one [K * 2^n, 2^n] matrix."""
    return np.concatenate([_observable(c.n_qubits, c.angles.tobytes(), c.entangler_layout)
                           for c in circuits])


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


def quantum_forward(x, circuits, cfg: QuantumLayerConfig, workers: int | None = None) -> np.ndarray:
    """Quantum feature map of [B, C, T, S]: one channel per circuit.

    Expectations are averaged over input channels, then repeated along the
    trace axis (and cropped) so the output [B, K, T, S] is spatially
    aligned with the input for channel-wise concatenation. `workers` is
    accepted for callers and selects nothing.
    """
    arr = _as_array(x).astype(np.float64, copy=False)
    _check_circuits(circuits, cfg)
    b, c, t, s = arr.shape
    rows = unfold(arr, cfg) * cfg.input_scale
    amps = _encode_rows(rows)
    projected = (_observables(circuits) @ amps).reshape(len(circuits), *amps.shape)
    y = np.einsum("kdm,dm->km", projected, amps)
    s_out = rows.shape[0] // (b * c * t)
    fmap = y.reshape(len(circuits), b, c, t, s_out).mean(axis=2)
    fmap = np.repeat(fmap, cfg.stride, axis=-1)[..., :s]
    return fmap.transpose(1, 0, 2, 3)


def quantum_input_grad(upstream: np.ndarray, x_shape: tuple, rows: np.ndarray, circuits,
                       cfg: QuantumLayerConfig) -> np.ndarray:
    """Input gradient of quantum_forward in closed form.

    `rows` must be the scaled window matrix saved from the forward pass.
    """
    b, c, t, s = x_shape
    k = len(circuits)
    s_out = rows.shape[0] // (b * c * t)
    padded = s_out * cfg.stride

    up = np.zeros((b, k, t, padded))
    up[..., :s] = upstream
    per_window = up.reshape(b, k, t, s_out, cfg.stride).sum(axis=-1)
    # channel-mean adjoint: every input channel sees the same coefficient / C
    coef = np.repeat(per_window[:, None] / c, c, axis=1)  # [B, C, K, T, S']
    coef_flat = coef.transpose(2, 0, 1, 3, 4).reshape(k, rows.shape[0])

    amps = _encode_rows(rows)
    dim, m = amps.shape
    # upstream-weighted sum of every circuit's H_k a, one GEMM since each H_k is symmetric
    weighted = _observables(circuits).T @ (coef_flat[:, None, :] * amps).reshape(k * dim, m)
    # a(x + pi e_j) is a(x) with qubit j's halves swapped and the bit-0 half negated
    grad_rows = np.empty_like(rows)
    for j in range(rows.shape[1]):
        a = amps.reshape(-1, 2, 2 ** j, m)
        w = weighted.reshape(-1, 2, 2 ** j, m)
        grad_rows[:, j] = (np.einsum("hlm,hlm->m", w[:, 1], a[:, 0])
                           - np.einsum("hlm,hlm->m", w[:, 0], a[:, 1]))
    grad_rows *= cfg.input_scale

    grad_pad = grad_rows.reshape(b, c, t, padded)
    grad = grad_pad[..., :s].copy()
    if padded > s:
        grad[..., s - 1] += grad_pad[..., s:].sum(axis=-1)
    return grad


def quantum_conv(x: ag.Tensor, circuits, cfg: QuantumLayerConfig) -> ag.Tensor:
    """Autograd-integrated quantum feature layer on a [B, C, T, S] tensor."""
    arr = x.data.astype(np.float64, copy=False)
    rows = unfold(arr, cfg) * cfg.input_scale
    out = quantum_forward(arr, circuits, cfg).astype(x.data.dtype)
    shape, dtype = x.shape, x.dtype

    def bwd(g):
        gin = quantum_input_grad(g.astype(np.float64), shape, rows, circuits, cfg)
        return (gin.astype(dtype),)

    return ag._result(out, (x,), bwd)

