"""Built-in verification suite behind the `selftest` command.

Each check is named once, in `_checks`, and independent: simulator
norm/unitarity/analytic identities, parameter-shift gradients against
finite differences, the full autograd gradient-check registry,
scalar-loop equivalence of the quantum layer, metric hand values, and the
PSNR convention comparison. A check returns (passed, detail).
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import gradcheck, objectives, qlayer, qsim
from .qsim import Observable, RandomCircuit


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _random_state(rng: np.random.Generator, n_qubits: int) -> qsim.QuantumState:
    vec = rng.normal(size=2 ** n_qubits) + 1j * rng.normal(size=2 ** n_qubits)
    vec /= np.linalg.norm(vec)
    return qsim.QuantumState(n_qubits, vec)


def _random_gate(rng: np.random.Generator, n_qubits: int):
    if rng.random() < 0.6:
        qubit = int(rng.integers(n_qubits))
        theta = float(rng.uniform(-2 * np.pi, 2 * np.pi))
        return lambda s: qsim.apply_ry(s, qubit, theta)
    control = int(rng.integers(n_qubits - 1))
    if rng.random() < 0.5:
        return lambda s: qsim.apply_cnot(s, control, control + 1)
    return lambda s: qsim.apply_cnot(s, control + 1, control)


def check_qsim_norm():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        state = _random_state(rng, 4)
        out = _random_gate(rng, 4)(state)
        worst = max(worst, abs(out.norm() - 1.0))
    return worst < 1e-12, f"max |norm - 1| = {worst:.3e}"


def check_qsim_unitarity():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(300):
        u = _random_state(rng, 4)
        v = _random_state(rng, 4)
        gate = _random_gate(rng, 4)
        before = np.vdot(u.amplitudes, v.amplitudes)
        after = np.vdot(gate(u).amplitudes, gate(v).amplitudes)
        worst = max(worst, abs(after - before))
    return worst < 1e-10, f"max inner-product drift = {worst:.3e}"


def check_qsim_analytic_expectation():
    obs = Observable(0)
    worst = 0.0
    for theta in np.linspace(-2 * np.pi, 2 * np.pi, 100):
        value = qsim.expect(qsim.encode([theta, 0.0, 0.0, 0.0]), obs)
        worst = max(worst, abs(value - np.cos(theta)))
    return worst < 1e-12, f"max |<Z> - cos| = {worst:.3e}"


def check_parameter_shift():
    rng = np.random.default_rng(5150)
    obs = Observable(0)
    h = 1e-4
    worst = 0.0
    for trial in range(100):
        circuit = RandomCircuit.generate(seed=int(rng.integers(1 << 30)), index=trial % 4,
                                         depth=2, n_qubits=4)
        x = rng.uniform(-np.pi, np.pi, 4)
        analytic = qsim.grad_expect_wrt_encoding(x, circuit, obs)
        for j in range(4):
            plus, minus = x.copy(), x.copy()
            plus[j] += h
            minus[j] -= h
            fd = (qsim.expect(qsim.run_circuit(qsim.encode(plus), circuit), obs)
                  - qsim.expect(qsim.run_circuit(qsim.encode(minus), circuit), obs)) / (2 * h)
            worst = max(worst, abs(analytic[j] - fd))
    return worst < 1e-6, f"max |shift - fd| = {worst:.3e}"


def _grad_check(run):
    worst = run()
    return worst < 1e-3, f"worst rel err = {worst:.3e}"


def check_qlayer_oracle():
    cfg = qlayer.QuantumLayerConfig(seed=9)
    circuits = cfg.make_circuits()
    obs = Observable(0)
    rng = np.random.default_rng(31)
    worst = 0.0
    for shape in ((1, 1, 2, 8), (1, 2, 4, 10), (2, 4, 16, 32)):
        x = rng.normal(size=shape)
        fast = qlayer.quantum_forward(x, circuits, cfg)
        rows = qlayer.unfold(x, cfg) * cfg.input_scale
        ref = np.empty((len(circuits), rows.shape[0]))
        for r, row in enumerate(rows):
            for i, circuit in enumerate(circuits):
                ref[i, r] = qsim.expect(qsim.run_circuit(qsim.encode(row), circuit), obs)
        b, c, t, s = shape
        fmap = ref.reshape(len(circuits), b, c, t, -1).mean(axis=2)
        fmap = np.repeat(fmap, cfg.stride, axis=-1)[..., :s].transpose(1, 0, 2, 3)
        worst = max(worst, float(np.abs(fast - fmap).max()))
    return worst < 1e-6, f"max |vectorized - scalar loop| = {worst:.3e}"


def check_metric_hand_values():
    from . import autograd as ag
    from .objectives import LossWeights, loss_complementarity, loss_discriminator, loss_generator

    failures = []

    def expect_close(label, got, want, tol=1e-4):
        if abs(got - want) > tol:
            failures.append(f"{label}: got {got:.6f}, want {want:.6f}")

    ones = np.ones((2, 1, 2, 2), dtype=np.float32)
    pred = ag.tensor(ones * 0.01)
    target = ag.tensor(np.zeros_like(ones))
    score = ag.tensor(np.full((2, 1), 0.5, dtype=np.float32))
    lg = loss_generator(pred, target, score, LossWeights(reconstruction=100.0))
    expect_close("generator loss", lg.item(), np.log(2.0) + 1.0)

    ld = loss_discriminator(ag.tensor(np.full((2, 1), 0.5)), ag.tensor(np.full((2, 1), 0.5)))
    expect_close("discriminator loss at 0.5/0.5", ld.item(), 2.0 * np.log(2.0))
    ld2 = loss_discriminator(ag.tensor(np.full((2, 1), 0.9)), ag.tensor(np.full((2, 1), 0.1)))
    expect_close("discriminator loss at 0.9/0.1", ld2.item(), -2.0 * np.log(0.9))

    a = ag.tensor(np.array([1.0, 0.0], dtype=np.float32).reshape(1, 1, 1, 2))
    b = ag.tensor(np.array([1.0, 1.0], dtype=np.float32).reshape(1, 1, 1, 2))
    expect_close("complementarity 1/sqrt2", loss_complementarity([(a, b)]).item(), 1.0 / np.sqrt(2.0))

    y = np.array([0.0, 0.0])
    y_hat = np.array([0.0, 1.0])
    expect_close("mae", objectives.mae(y, y_hat), 0.5)
    expect_close("rmse", objectives.rmse(y, y_hat), np.sqrt(0.5))
    ref = np.array([1.0, -1.0, 0.5, -0.5])
    expect_close("psnr 40 dB", objectives.psnr(ref, ref + 0.01), 40.0, tol=1e-3)
    wave = np.sin(np.linspace(0, 7, 64)).reshape(8, 8)
    expect_close("ssim identity", objectives.ssim(wave, wave), 1.0, tol=1e-12)

    detail = "; ".join(failures) if failures else "all hand values within 1e-4"
    return not failures, detail


def check_psnr_convention():
    reported_rmse, reported_psnr = 0.0101, 42.0782
    max_amp = 10.0 ** (reported_psnr / 20.0) * reported_rmse
    max_lit = 10.0 ** (reported_psnr / 10.0) * reported_rmse
    ok = 1.23 <= max_amp <= 1.34 and max_lit > 10.0
    detail = (
        f"20*log10 reading -> MAX = {max_amp:.4f} (plausible amplitude); "
        f"literal 10*log10 reading -> MAX = {max_lit:.2f} (impossible for MAX <= 10)"
    )
    return ok, detail


def _checks():
    """(name, check) for every check, in run order."""
    yield "qsim_norm_preservation", check_qsim_norm
    yield "qsim_unitarity", check_qsim_unitarity
    yield "qsim_analytic_expectation", check_qsim_analytic_expectation
    yield "parameter_shift_vs_finite_difference", check_parameter_shift
    for name, run in gradcheck.op_check_cases():
        yield f"grad_{name}", partial(_grad_check, run)
    yield "qlayer_oracle_equivalence", check_qlayer_oracle
    yield "metric_hand_values", check_metric_hand_values
    yield "psnr_convention", check_psnr_convention


def run_selftest() -> list[CheckResult]:
    """Every check's result, then the run time; a check that raises is a named failure, not a crash."""
    started = time.perf_counter()
    results = []
    for name, check in _checks():
        try:
            passed, detail = check()
        except Exception as exc:  # noqa: BLE001 - the whole point is to report it
            passed, detail = False, f"raised {exc!r}"
        results.append(CheckResult(name, passed, detail))
    elapsed = time.perf_counter() - started
    results.append(CheckResult("selftest_runtime", True, f"{elapsed:.1f} s"))
    return results
