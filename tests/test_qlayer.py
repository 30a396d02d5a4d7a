"""Quantum layer tests: unfolding, scalar-loop oracle, parameter-shift backward."""
import numpy as np
import pytest

from qcseis import autograd as ag
from qcseis import qlayer, qsim
from qcseis.models import QuantumConv
from qcseis.qlayer import QuantumLayerConfig
from qcseis.qsim import Observable
from qcseis.trainer import Checkpoint, load_model_state


def scalar_loop_forward(x, circuits, cfg):
    """Per-window reference path built on the single-state simulator."""
    obs = Observable(0)
    rows = qlayer.unfold(x, cfg) * cfg.input_scale
    values = np.empty((len(circuits), rows.shape[0]))
    for r, row in enumerate(rows):
        for i, circuit in enumerate(circuits):
            values[i, r] = qsim.expect(qsim.run_circuit(qsim.encode(row), circuit), obs)
    b, c, t, s = x.shape
    fmap = values.reshape(len(circuits), b, c, t, -1).mean(axis=2)
    return np.repeat(fmap, cfg.stride, axis=-1)[..., :s].transpose(1, 0, 2, 3)


def scalar_input_grad(upstream, x, circuits, cfg):
    """Input gradient of sum(upstream * forward) by parameter shift through qsim."""
    obs = Observable(0)
    b, c, t, s = x.shape
    rows = qlayer.unfold(x, cfg) * cfg.input_scale
    # unfolding the flat indices gives each window entry's position in x;
    # padded entries repeat the last trace, so their gradients fold onto it
    index = qlayer.unfold(np.arange(x.size, dtype=np.float64).reshape(x.shape), cfg).astype(np.int64)
    n_windows = rows.shape[0] // (b * c * t)
    grad = np.zeros(x.size)
    for r, row in enumerate(rows):
        bi, _, ti, wi = np.unravel_index(r, (b, c, t, n_windows))
        coef = upstream[bi, :, ti, wi * cfg.stride:(wi + 1) * cfg.stride].sum(axis=-1)
        for k, circuit in enumerate(circuits):
            shift = qsim.grad_expect_wrt_encoding(row, circuit, obs)
            np.add.at(grad, index[r], coef[k] * shift * cfg.input_scale / c)
    return grad.reshape(x.shape)


class TestConfig:
    def test_window_stride_tied_to_qubits(self):
        cfg = QuantumLayerConfig(n_qubits=4)
        assert cfg.stride == 4


class TestUnfold:
    def test_row_bookkeeping(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 2, 8)
        rows = qlayer.unfold(x, QuantumLayerConfig())
        assert rows.shape == (4, 4)
        assert np.array_equal(rows[0], [0, 1, 2, 3])
        assert np.array_equal(rows[1], [4, 5, 6, 7])
        assert np.array_equal(rows[2], [8, 9, 10, 11])

    def test_replicate_padding(self):
        x = np.arange(10, dtype=float).reshape(1, 1, 1, 10)
        rows = qlayer.unfold(x, QuantumLayerConfig())
        assert rows.shape == (3, 4)
        assert np.array_equal(rows[2], [8, 9, 9, 9])

    def test_constant_input_constant_rows(self):
        rows = qlayer.unfold(np.full((2, 3, 4, 8), 1.5), QuantumLayerConfig())
        assert np.all(rows == 1.5)

    def test_too_few_traces(self):
        with pytest.raises(ag.ShapeError):
            qlayer.unfold(np.ones((1, 1, 4, 3)), QuantumLayerConfig())


@pytest.mark.parametrize("n_qubits", range(1, 7))
def test_encoding_matches_qsim(n_qubits):
    # qubit q of qsim's state is bit q of the amplitude index
    rows = np.random.default_rng(n_qubits).uniform(-np.pi, np.pi, size=(5, n_qubits))
    amps = qlayer._encode_rows(rows)
    assert amps.shape == (2 ** n_qubits, 5)
    for i, row in enumerate(rows):
        assert np.max(np.abs(amps[:, i] - qsim.encode(row).amplitudes)) < 1e-14


class TestQuantumForward:
    def test_zero_input_depth_zero_gives_ones(self):
        cfg = QuantumLayerConfig(depth=0)
        out = qlayer.quantum_forward(np.zeros((1, 2, 3, 8)), cfg.make_circuits(), cfg)
        assert np.allclose(out, 1.0, atol=1e-14)

    def test_flipped_window_gives_minus_one(self):
        cfg = QuantumLayerConfig(depth=0)
        x = np.zeros((1, 1, 1, 8))
        x[0, 0, 0, 0] = np.pi
        out = qlayer.quantum_forward(x, cfg.make_circuits(), cfg)
        assert np.allclose(out[0, :, 0, :4], -1.0, atol=1e-12)
        assert np.allclose(out[0, :, 0, 4:], 1.0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(1, 1, 2, 8), (1, 2, 4, 8), (2, 3, 4, 10), (2, 4, 16, 32)])
    def test_scalar_loop_oracle(self, shape):
        cfg = QuantumLayerConfig(seed=5, input_scale=0.9)
        circuits = cfg.make_circuits()
        x = np.random.default_rng(hash(shape) % (1 << 30)).normal(size=shape)
        fast = qlayer.quantum_forward(x, circuits, cfg)
        assert np.max(np.abs(fast - scalar_loop_forward(x, circuits, cfg))) < 1e-6

    def test_output_range(self):
        cfg = QuantumLayerConfig(seed=2)
        x = np.random.default_rng(1).normal(size=(2, 3, 4, 12)) * 3
        out = qlayer.quantum_forward(x, cfg.make_circuits(), cfg)
        assert np.all(np.abs(out) <= 1 + 1e-12)

    def test_batch_permutation_equivariance(self):
        cfg = QuantumLayerConfig(seed=3)
        circuits = cfg.make_circuits()
        x = np.random.default_rng(2).normal(size=(4, 2, 3, 8))
        perm = np.array([2, 0, 3, 1])
        out = qlayer.quantum_forward(x, circuits, cfg)
        out_perm = qlayer.quantum_forward(x[perm], circuits, cfg)
        assert np.array_equal(out[perm], out_perm)

    @pytest.mark.parametrize("workers", [2, 8])
    def test_worker_count_bit_identity(self, workers):
        cfg = QuantumLayerConfig(seed=7)
        circuits = cfg.make_circuits()
        x = np.random.default_rng(3).normal(size=(2, 4, 16, 32))
        base = qlayer.quantum_forward(x, circuits, cfg, workers=1)
        assert np.array_equal(base, qlayer.quantum_forward(x, circuits, cfg, workers=workers))

    def test_output_follows_replaced_angle_buffers(self):
        # load_model_state swaps in new angle arrays while the layer keeps its
        # seed, so a cache keyed by circuit object or seed would go stale
        cfg = QuantumLayerConfig(seed=8)
        layer = QuantumConv(cfg)
        donor = QuantumConv(QuantumLayerConfig(seed=9))
        x = np.random.default_rng(4).normal(size=(1, 2, 2, 8))
        before = layer(ag.Tensor(x, dtype=np.float64)).data
        entries = {f"q.{name}": p.tensor.data for name, p in donor.named_parameters()}
        load_model_state(layer, Checkpoint(version=1, config={}, entries=entries), "q")
        after = layer(ag.Tensor(x, dtype=np.float64)).data
        want = scalar_loop_forward(x, donor.circuits(), cfg)
        assert np.max(np.abs(after - want)) < 1e-6
        assert np.max(np.abs(before - want)) > 1e-3

    def test_qubit_mismatch(self):
        cfg = QuantumLayerConfig(n_qubits=4)
        bad = [qsim.RandomCircuit.generate(0, i, 2, 3) for i in range(4)]
        with pytest.raises(ValueError):
            qlayer.quantum_forward(np.zeros((1, 1, 2, 8)), bad, cfg)


class TestQuantumBackward:
    def test_zero_upstream_zero_grad(self):
        cfg = QuantumLayerConfig(seed=1)
        circuits = cfg.make_circuits()
        x = ag.Tensor(np.random.default_rng(0).normal(size=(1, 1, 2, 8)),
                      requires_grad=True, dtype=np.float64)
        out = qlayer.quantum_conv(x, circuits, cfg)
        ag.backward(ag.tsum(ag.scale(out, 0.0)))
        assert np.array_equal(x.grad, np.zeros_like(x.data))

    def test_single_window_analytic(self):
        # depth-0 circuit, upstream ones: d<Z_0>/dx_0 = -sin(x_0), others 0
        cfg = QuantumLayerConfig(depth=0)
        circuits = cfg.make_circuits()
        x_val = np.array([0.7, 0.2, -0.4, 1.1]).reshape(1, 1, 1, 4)
        x = ag.Tensor(x_val, requires_grad=True, dtype=np.float64)
        out = qlayer.quantum_conv(x, circuits, cfg)
        ag.backward(ag.tmean(out))
        # mean over K=4 channels and 4 repeated positions; each output element
        # sees the same window, so the chain collapses to -sin(x_0)
        assert abs(x.grad[0, 0, 0, 0] + np.sin(0.7)) < 1e-10
        assert np.allclose(x.grad[0, 0, 0, 1:], 0, atol=1e-12)

    def test_finite_difference_oracle(self):
        cfg = QuantumLayerConfig(seed=11, input_scale=0.8)
        circuits = cfg.make_circuits()
        rng = np.random.default_rng(5)
        x_val = rng.normal(size=(2, 2, 2, 10))
        w = rng.normal(size=(2, 4, 2, 10))
        x = ag.Tensor(x_val, requires_grad=True, dtype=np.float64)
        out = qlayer.quantum_conv(x, circuits, cfg)
        ag.backward(ag.tsum(ag.mul(out, ag.Tensor(w, dtype=np.float64))))
        h = 1e-4
        fd = np.zeros_like(x_val)
        it = np.nditer(x_val, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            xp, xm = x_val.copy(), x_val.copy()
            xp[idx] += h
            xm[idx] -= h
            fp = float((qlayer.quantum_forward(xp, circuits, cfg) * w).sum())
            fm = float((qlayer.quantum_forward(xm, circuits, cfg) * w).sum())
            fd[idx] = (fp - fm) / (2 * h)
        assert np.max(np.abs(x.grad - fd)) < 1e-4

    @pytest.mark.parametrize("n_qubits", [1, 2, 3, 5, 6, 8])
    @pytest.mark.parametrize("depth", [0, 1, 3, 8])
    def test_other_qubit_counts_match_qsim(self, n_qubits, depth):
        cfg = QuantumLayerConfig(n_qubits=n_qubits, n_circuits=3, depth=depth, seed=21, input_scale=0.7)
        circuits = cfg.make_circuits()
        rng = np.random.default_rng(10 * n_qubits + depth)
        # 19 traces: the last window of every qubit count but 1 is replicate-padded.
        # <Z_0> after d chain layers depends on qubits 0..d-1 only, so depth 8 is
        # what gives the half-swap gradient nonzero work at bits 4 and up
        x = rng.normal(size=(2, 2, 2, 19))
        upstream = rng.normal(size=(2, cfg.n_circuits, 2, 19))
        forward = qlayer.quantum_forward(x, circuits, cfg)
        assert np.max(np.abs(forward - scalar_loop_forward(x, circuits, cfg))) < 1e-6
        rows = qlayer.unfold(x, cfg) * cfg.input_scale
        grad = qlayer.quantum_input_grad(upstream, x.shape, rows, circuits, cfg)
        assert np.max(np.abs(grad - scalar_input_grad(upstream, x, circuits, cfg))) < 1e-6


def test_conv_calls_module_functions_once(monkeypatch):
    # quantum_conv must reach both functions through qlayer's globals, where the
    # bench tracer and bench/checks replace them; a bypass would read as zero there
    calls = {"quantum_forward": 0, "quantum_input_grad": 0}
    for name in calls:
        original = getattr(qlayer, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(qlayer, name, counted)
    cfg = QuantumLayerConfig(seed=6)
    x = ag.Tensor(np.random.default_rng(8).normal(size=(2, 2, 3, 8)), requires_grad=True, dtype=np.float64)
    ag.backward(ag.tmean(qlayer.quantum_conv(x, cfg.make_circuits(), cfg)))
    assert calls == {"quantum_forward": 1, "quantum_input_grad": 1}
