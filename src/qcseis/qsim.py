"""Exact state-vector simulation of small qubit registers.

Dense complex amplitude vectors with pure-function gate application: every
operation returns a new state, inputs are never mutated. Qubit index 0 is
the least significant bit of the basis-state integer, so basis index k
holds qubit q in bit (k >> q) & 1. All simulator math runs in double
precision regardless of what the surrounding network code uses.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 12

_TWO_PI = 2.0 * np.pi

__all__ = [
    "MAX_QUBITS",
    "QuantumState",
    "RandomCircuit",
    "Observable",
    "zero_state",
    "apply_ry",
    "apply_cnot",
    "encode",
    "run_circuit",
    "expect",
    "grad_expect_wrt_encoding",
]


def _ry_entries(theta: float) -> tuple[float, float]:
    """Cosine/sine pair of the y-rotation matrix [[c, -s], [s, c]]."""
    half = 0.5 * float(theta)
    return float(np.cos(half)), float(np.sin(half))


def _check_qubit(n_qubits: int, qubit: int) -> None:
    if not 0 <= qubit < n_qubits:
        raise IndexError(f"qubit {qubit} out of range for a {n_qubits}-qubit register")


@dataclass(frozen=True)
class QuantumState:
    """Normalized n-qubit register: a vector of 2**n_qubits complex amplitudes."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128, copy=True)
        if amps.shape != (2 ** self.n_qubits,):
            raise ValueError(
                f"amplitude vector of length {amps.size} does not match "
                f"{self.n_qubits} qubits (expected {2 ** self.n_qubits})"
            )
        norm_sq = float(np.sum(amps.real ** 2 + amps.imag ** 2))
        if abs(norm_sq - 1.0) > 1e-12:
            raise ValueError(f"state is not normalized: sum |a|^2 = {norm_sq!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.amplitudes.real ** 2 + self.amplitudes.imag ** 2)))


def _circuit_angle(seed: int, index: int, layer: int, qubit: int) -> float:
    """One fixed rotation angle from a counter-based stream keyed by position.

    Philox is keyed by (seed, packed position), so every angle is a pure
    function of its coordinates: no draw-order coupling between circuits.
    """
    lane = (int(index) << 42) | (int(layer) << 21) | int(qubit)
    key = np.array(
        [np.uint64(int(seed) & 0xFFFF_FFFF_FFFF_FFFF), np.uint64(lane & 0xFFFF_FFFF_FFFF_FFFF)],
        dtype=np.uint64,
    )
    return float(np.random.Generator(np.random.Philox(key=key)).uniform(0.0, _TWO_PI))


@dataclass(frozen=True, eq=False)
class RandomCircuit:
    """Fixed, non-trainable gate program.

    Each layer applies one y-rotation per qubit (angles frozen at
    construction) followed by a chain of CNOTs restricted to adjacent
    qubits. Identical (seed, index, depth, n_qubits) always reproduce
    identical angles.
    """

    index: int
    depth: int
    n_qubits: int
    seed: int
    angles: np.ndarray
    entangler_layout: tuple

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("circuit depth must be non-negative")
        angles = np.array(self.angles, dtype=np.float64, copy=True).reshape(self.depth, self.n_qubits)
        if not np.all(np.isfinite(angles)):
            raise ValueError("circuit angles must be finite")
        angles.setflags(write=False)
        object.__setattr__(self, "angles", angles)
        layout = tuple(tuple((int(a), int(b)) for a, b in layer) for layer in self.entangler_layout)
        if len(layout) != self.depth:
            raise ValueError("entangler layout must have one entry per layer")
        for layer in layout:
            for a, b in layer:
                _check_qubit(self.n_qubits, a)
                _check_qubit(self.n_qubits, b)
                if abs(a - b) != 1:
                    raise ValueError(f"entangler pair ({a}, {b}) is not adjacent")
        object.__setattr__(self, "entangler_layout", layout)

    @classmethod
    def generate(cls, seed: int, index: int, depth: int, n_qubits: int) -> "RandomCircuit":
        """Build the circuit whose angles are keyed by (seed, index, layer, qubit)."""
        angles = np.zeros((depth, n_qubits))
        for layer in range(depth):
            for qubit in range(n_qubits):
                angles[layer, qubit] = _circuit_angle(seed, index, layer, qubit)
        return cls(index=index, depth=depth, n_qubits=n_qubits, seed=seed,
                   angles=angles, entangler_layout=cls.chain_layout(depth, n_qubits))

    @classmethod
    def chain_layout(cls, depth: int, n_qubits: int) -> tuple:
        return tuple(tuple((q, q + 1) for q in range(n_qubits - 1)) for _ in range(depth))


@dataclass(frozen=True)
class Observable:
    """Single-qubit Pauli-Z measurement: +1 on bit 0, -1 on bit 1."""

    target_qubit: int = 0

    def __post_init__(self):
        if self.target_qubit < 0:
            raise IndexError(f"target qubit {self.target_qubit} is negative")


def zero_state(n_qubits: int) -> QuantumState:
    """All-qubits-|0> register."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
    amps = np.zeros(2 ** n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return QuantumState(n_qubits, amps)


def apply_ry(state: QuantumState, qubit: int, theta: float) -> QuantumState:
    """Rotate one qubit about the Bloch y-axis by angle theta (radians)."""
    n = state.n_qubits
    _check_qubit(n, qubit)
    if not np.isfinite(theta):
        raise ValueError("rotation angle must be finite")
    c, s = _ry_entries(theta)
    a = state.amplitudes.reshape((2,) * n)
    axis = n - 1 - qubit
    a0 = np.take(a, 0, axis=axis)
    a1 = np.take(a, 1, axis=axis)
    out = np.stack([c * a0 - s * a1, s * a0 + c * a1], axis=axis).reshape(-1)
    return QuantumState(n, out)


def apply_cnot(state: QuantumState, control: int, target: int) -> QuantumState:
    """Flip the target qubit on every basis state whose control qubit is 1."""
    n = state.n_qubits
    _check_qubit(n, control)
    _check_qubit(n, target)
    if control == target:
        raise ValueError("invalid gate: control and target must differ")
    k = np.arange(2 ** n)
    swap_from = k[(((k >> control) & 1) == 1) & (((k >> target) & 1) == 0)]
    swap_to = swap_from | (1 << target)
    out = np.array(state.amplitudes)
    out[swap_from] = state.amplitudes[swap_to]
    out[swap_to] = state.amplitudes[swap_from]
    return QuantumState(n, out)


def encode(x) -> QuantumState:
    """Angle-encode a real feature vector: Ry(x[j]) on qubit j of |0...0>.

    The result is a product state whose basis-b amplitude is the product
    over qubits of cos(x[j]/2) (bit 0) or sin(x[j]/2) (bit 1).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"encoding input must be a vector, got shape {x.shape}")
    if not 1 <= x.size <= MAX_QUBITS:
        raise ValueError(f"encoding length must be in [1, {MAX_QUBITS}], got {x.size}")
    if not np.all(np.isfinite(x)):
        raise ValueError("encoding input must be finite")
    state = zero_state(x.size)
    for qubit, theta in enumerate(x):
        state = apply_ry(state, qubit, float(theta))
    return state


def run_circuit(state: QuantumState, circuit: RandomCircuit) -> QuantumState:
    """Evolve a state through every layer of a fixed circuit."""
    if circuit.n_qubits != state.n_qubits:
        raise ValueError(
            f"circuit acts on {circuit.n_qubits} qubits but the state has {state.n_qubits}"
        )
    for layer in range(circuit.depth):
        for qubit in range(circuit.n_qubits):
            state = apply_ry(state, qubit, float(circuit.angles[layer, qubit]))
        for control, target in circuit.entangler_layout[layer]:
            state = apply_cnot(state, control, target)
    return state


def expect(state: QuantumState, obs: Observable) -> float:
    """Pauli-Z expectation on the observable's target qubit, in [-1, 1]."""
    _check_qubit(state.n_qubits, obs.target_qubit)
    k = np.arange(2 ** state.n_qubits)
    signs = 1.0 - 2.0 * ((k >> obs.target_qubit) & 1)
    probs = state.amplitudes.real ** 2 + state.amplitudes.imag ** 2
    return float(np.sum(signs * probs))


def _pipeline_value(x: np.ndarray, circuit: RandomCircuit, obs: Observable) -> float:
    return expect(run_circuit(encode(x), circuit), obs)


def grad_expect_wrt_encoding(x, circuit: RandomCircuit, obs: Observable) -> np.ndarray:
    """Gradient of expect(run_circuit(encode(x))) with respect to x.

    Uses the parameter-shift identity, exact for y-rotations:
    d<O>/dx_j = (E(x_j + pi/2) - E(x_j - pi/2)) / 2.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size != circuit.n_qubits:
        raise ValueError(f"input length {x.size} does not match {circuit.n_qubits} qubits")
    if not np.all(np.isfinite(x)):
        raise ValueError("encoding input must be finite")
    grad = np.zeros(x.size)
    for j in range(x.size):
        plus = x.copy()
        plus[j] += 0.5 * np.pi
        minus = x.copy()
        minus[j] -= 0.5 * np.pi
        grad[j] = 0.5 * (_pipeline_value(plus, circuit, obs) - _pipeline_value(minus, circuit, obs))
    return grad
