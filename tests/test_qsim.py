"""Simulator tests against dense-matrix oracles and analytic identities."""
import numpy as np
import pytest

from qcseis import qsim
from qcseis.qsim import Observable, QuantumState, RandomCircuit

RY = lambda t: np.array([[np.cos(t / 2), -np.sin(t / 2)], [np.sin(t / 2), np.cos(t / 2)]])


def dense_single_qubit(gate: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """Kronecker embedding with qubit 0 as the least significant bit."""
    return np.kron(np.kron(np.eye(2 ** (n - 1 - qubit)), gate), np.eye(2 ** qubit))


def dense_cnot(control: int, target: int, n: int) -> np.ndarray:
    dim = 2 ** n
    mat = np.zeros((dim, dim))
    for k in range(dim):
        if (k >> control) & 1:
            mat[k ^ (1 << target), k] = 1.0
        else:
            mat[k, k] = 1.0
    return mat


def dense_circuit_unitary(circuit: RandomCircuit) -> np.ndarray:
    """Each layer: Ry(angle) on every qubit, then CNOT q -> q + 1 for q = 0 .. n - 2."""
    depth, n = circuit.angles.shape
    unitary = np.eye(2 ** n)
    for layer in range(depth):
        for q in range(n):
            unitary = dense_single_qubit(RY(circuit.angles[layer, q]), q, n) @ unitary
        for q in range(n - 1):
            unitary = dense_cnot(q, q + 1, n) @ unitary
    return unitary


def random_state(rng, n):
    vec = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return QuantumState(n, vec / np.linalg.norm(vec))


class TestZeroState:
    def test_one_qubit(self):
        assert np.array_equal(qsim.zero_state(1).amplitudes, [1, 0])

    def test_two_qubits(self):
        assert np.array_equal(qsim.zero_state(2).amplitudes, [1, 0, 0, 0])

    def test_four_qubits(self):
        state = qsim.zero_state(4)
        expected = np.zeros(16)
        expected[0] = 1
        assert np.array_equal(state.amplitudes, expected)

    @pytest.mark.parametrize("n", [0, -1, 13])
    def test_size_limit(self, n):
        with pytest.raises(ValueError):
            qsim.zero_state(n)


class TestApplyRy:
    def test_zero_angle_is_identity(self):
        out = qsim.apply_ry(qsim.zero_state(1), 0, 0.0)
        assert np.array_equal(out.amplitudes, [1, 0])

    def test_pi_flips(self):
        out = qsim.apply_ry(qsim.zero_state(1), 0, np.pi)
        assert abs(out.amplitudes[1] - 1) < 1e-15 and abs(out.amplitudes[0]) < 1e-15

    def test_half_pi_superposition(self):
        out = qsim.apply_ry(qsim.zero_state(1), 0, np.pi / 2)
        assert np.allclose(out.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)

    def test_matches_dense_matrix(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            q = int(rng.integers(n))
            theta = float(rng.uniform(-7, 7))
            state = random_state(rng, n)
            out = qsim.apply_ry(state, q, theta)
            expected = dense_single_qubit(RY(theta), q, n) @ state.amplitudes
            assert np.allclose(out.amplitudes, expected, atol=1e-12)

    def test_real_stays_real(self):
        out = qsim.apply_ry(qsim.encode([0.4, 0.2]), 1, 1.3)
        assert np.all(out.amplitudes.imag == 0)

    def test_out_of_range_qubit(self):
        with pytest.raises(IndexError):
            qsim.apply_ry(qsim.zero_state(2), 2, 0.1)


class TestApplyCnot:
    def test_truth_table(self):
        # |10> in the examples' ket order lists qubit 0 first: q0=1, q1=0
        amps = np.zeros(4)
        amps[1] = 1
        out = qsim.apply_cnot(QuantumState(2, amps), 0, 1)
        assert abs(out.amplitudes[3] - 1) < 1e-15

    def test_control_unset(self):
        out = qsim.apply_cnot(qsim.zero_state(2), 0, 1)
        assert np.array_equal(out.amplitudes, [1, 0, 0, 0])

    def test_entangles_superposition(self):
        amps = np.zeros(4)
        amps[0] = amps[1] = 1 / np.sqrt(2)
        out = qsim.apply_cnot(QuantumState(2, amps), 0, 1)
        expected = np.zeros(4)
        expected[0] = expected[3] = 1 / np.sqrt(2)
        assert np.allclose(out.amplitudes, expected, atol=1e-15)

    def test_matches_dense_permutation(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            c = int(rng.integers(n - 1))
            t = c + 1 if rng.random() < 0.5 else c
            c, t = (c, c + 1) if t == c else (c + 1, c)
            state = random_state(rng, n)
            out = qsim.apply_cnot(state, c, t)
            assert np.allclose(out.amplitudes, dense_cnot(c, t, n) @ state.amplitudes, atol=1e-14)

    def test_control_equals_target(self):
        with pytest.raises(ValueError):
            qsim.apply_cnot(qsim.zero_state(2), 1, 1)


class TestEncode:
    def test_zeros(self):
        out = qsim.encode([0, 0, 0, 0])
        assert abs(out.amplitudes[0] - 1) < 1e-15

    def test_pi_flips_qubit_zero(self):
        out = qsim.encode([np.pi, 0, 0, 0])
        assert abs(out.amplitudes[1] - 1) < 1e-14

    def test_uniform_on_two_qubits(self):
        out = qsim.encode([np.pi / 2, np.pi / 2, 0, 0])
        expected = np.zeros(16)
        expected[:4] = 0.5
        assert np.allclose(out.amplitudes, expected, atol=1e-15)

    def test_kronecker_product_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.uniform(-np.pi, np.pi, 4)
            out = qsim.encode(x)
            expected = np.array([1.0])
            for theta in x:  # each kron factor becomes the new most significant bit
                expected = np.kron([np.cos(theta / 2), np.sin(theta / 2)], expected)
            assert np.allclose(out.amplitudes, expected, atol=1e-14)

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            qsim.encode(np.zeros((2, 2)))

    def test_non_finite(self):
        with pytest.raises(ValueError):
            qsim.encode([np.nan, 0, 0, 0])


class TestRunCircuit:
    def test_depth_zero_identity(self):
        circuit = RandomCircuit.generate(seed=0, index=0, depth=0, n_qubits=4)
        state = qsim.encode([0.3, -0.2, 0.9, 0.1])
        out = qsim.run_circuit(state, circuit)
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_zero_angles_full_chain_on_ground_state(self):
        circuit = RandomCircuit(np.zeros((1, 4)))
        out = qsim.run_circuit(qsim.zero_state(4), circuit)
        assert abs(out.amplitudes[0] - 1) < 1e-14

    def test_dense_unitary_oracle(self):
        rng = np.random.default_rng(42)
        for trial in range(30):
            circuit = RandomCircuit.generate(seed=int(rng.integers(1 << 30)), index=trial,
                                             depth=2, n_qubits=4)
            state = qsim.encode(rng.uniform(-1, 1, 4))
            out = qsim.run_circuit(state, circuit)
            expected = dense_circuit_unitary(circuit) @ state.amplitudes
            assert np.max(np.abs(out.amplitudes - expected)) < 1e-10

    def test_qubit_mismatch(self):
        circuit = RandomCircuit.generate(seed=0, index=0, depth=1, n_qubits=3)
        with pytest.raises(ValueError):
            qsim.run_circuit(qsim.zero_state(4), circuit)


class TestExpect:
    def test_ground_state(self):
        assert qsim.expect(qsim.zero_state(4), Observable(0)) == 1.0

    def test_flipped(self):
        assert abs(qsim.expect(qsim.encode([np.pi, 0, 0, 0]), Observable(0)) + 1.0) < 1e-14

    @pytest.mark.parametrize("theta", [0.1, 0.7, 2.0])
    def test_analytic_cosine(self, theta):
        value = qsim.expect(qsim.encode([theta, 0, 0, 0]), Observable(0))
        assert abs(value - np.cos(theta)) < 1e-12

    def test_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            state = random_state(rng, 4)
            for q in range(4):
                assert abs(qsim.expect(state, Observable(q))) <= 1 + 1e-12


class TestGradExpect:
    def test_stationary_point(self):
        circuit = RandomCircuit.generate(seed=0, index=0, depth=0, n_qubits=4)
        grad = qsim.grad_expect_wrt_encoding([0, 0, 0, 0], circuit, Observable(0))
        assert np.allclose(grad, 0, atol=1e-14)

    def test_analytic_negative_sine(self):
        circuit = RandomCircuit.generate(seed=0, index=0, depth=0, n_qubits=4)
        grad = qsim.grad_expect_wrt_encoding([np.pi / 2, 0, 0, 0], circuit, Observable(0))
        assert np.allclose(grad, [-1, 0, 0, 0], atol=1e-12)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(21)
        obs = Observable(0)
        h = 1e-4
        for trial in range(25):
            circuit = RandomCircuit.generate(seed=int(rng.integers(1 << 30)), index=trial,
                                             depth=2, n_qubits=4)
            x = rng.uniform(-np.pi, np.pi, 4)
            grad = qsim.grad_expect_wrt_encoding(x, circuit, obs)
            for j in range(4):
                xp, xm = x.copy(), x.copy()
                xp[j] += h
                xm[j] -= h
                fd = (qsim.expect(qsim.run_circuit(qsim.encode(xp), circuit), obs)
                      - qsim.expect(qsim.run_circuit(qsim.encode(xm), circuit), obs)) / (2 * h)
                assert abs(grad[j] - fd) < 1e-6


class TestInvariants:
    def test_norm_preservation_over_sequences(self):
        rng = np.random.default_rng(5)
        state = random_state(rng, 4)
        for _ in range(200):
            if rng.random() < 0.6:
                state = qsim.apply_ry(state, int(rng.integers(4)), float(rng.uniform(-6, 6)))
            else:
                c = int(rng.integers(3))
                state = qsim.apply_cnot(state, c, c + 1)
            assert abs(state.norm() - 1.0) < 1e-12

    def test_unitarity_preserves_inner_products(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            u, v = random_state(rng, 4), random_state(rng, 4)
            theta = float(rng.uniform(-6, 6))
            q = int(rng.integers(4))
            before = np.vdot(u.amplitudes, v.amplitudes)
            after = np.vdot(qsim.apply_ry(u, q, theta).amplitudes,
                            qsim.apply_ry(v, q, theta).amplitudes)
            assert abs(after - before) < 1e-10

    def test_encoding_state_periodicity_4pi(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            x = rng.uniform(-np.pi, np.pi, 4)
            j = int(rng.integers(4))
            shifted = x.copy()
            shifted[j] += 4 * np.pi
            a = qsim.encode(x).amplitudes
            b = qsim.encode(shifted).amplitudes
            assert np.max(np.abs(a - b)) < 1e-10

    def test_expectation_periodicity_2pi(self):
        rng = np.random.default_rng(13)
        obs = Observable(0)
        circuit = RandomCircuit.generate(seed=4, index=0, depth=2, n_qubits=4)
        for _ in range(10):
            x = rng.uniform(-np.pi, np.pi, 4)
            j = int(rng.integers(4))
            shifted = x.copy()
            shifted[j] += 2 * np.pi
            a = qsim.expect(qsim.run_circuit(qsim.encode(x), circuit), obs)
            b = qsim.expect(qsim.run_circuit(qsim.encode(shifted), circuit), obs)
            assert abs(a - b) < 1e-10

    def test_circuit_determinism(self):
        a = RandomCircuit.generate(seed=123, index=2, depth=2, n_qubits=4)
        b = RandomCircuit.generate(seed=123, index=2, depth=2, n_qubits=4)
        assert np.array_equal(a.angles, b.angles)
        c = RandomCircuit.generate(seed=123, index=3, depth=2, n_qubits=4)
        assert not np.array_equal(a.angles, c.angles)

    def test_angles_must_be_a_matrix(self):
        for angles in (np.zeros(4), np.zeros((1, 2, 2)), 0.0):
            with pytest.raises(ValueError, match=r"\[depth, n_qubits\] matrix"):
                RandomCircuit(angles)

    def test_angles_frozen(self):
        circuit = RandomCircuit.generate(seed=1, index=0, depth=2, n_qubits=4)
        with pytest.raises(ValueError):
            circuit.angles[0, 0] = 1.0

    def test_states_are_immutable(self):
        state = qsim.zero_state(2)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0
