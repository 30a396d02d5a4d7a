"""Tests of the benchmark's own code.

Run from the repository root: python3 -m pytest -q bench
"""
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from qcseis import autograd as ag  # noqa: E402
from qcseis import cli, models, objectives, qlayer, seisdata, trainer  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
OWNERS = (ag, cli, models, objectives.EvalReport, qlayer, seisdata, trainer, trainer.Adam,
          models.Generator, models.Discriminator, models.UNet)


def snapshot():
    return {(owner, name): value for owner in OWNERS for name, value in vars(owner).items()}


def test_tracer_restores_every_original():
    before = snapshot()
    with Tracer():
        during = snapshot()
        assert ag.conv2d is not before[ag, "conv2d"]
        assert qlayer.quantum_forward is not before[qlayer, "quantum_forward"]
    after = snapshot()
    assert during.keys() == before.keys()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_restores_after_an_error():
    before = snapshot()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    after = snapshot()
    assert all(after[k] is before[k] for k in before)


def test_tracer_refuses_double_install():
    tracer = Tracer()
    with tracer:
        with pytest.raises(RuntimeError):
            tracer.install()


def test_grad_useful_ratio_counts_dx_for_input_without_grad_as_wasted():
    rng = np.random.default_rng(0)
    x = ag.tensor(rng.normal(size=(2, 3, 5, 5)))  # raw data: needs no gradient
    w = ag.tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
    b = ag.tensor(np.zeros(4), requires_grad=True)
    with Tracer() as tracer:
        tracer.phase = "step"
        y = ag.conv2d(x, w, b, padding=1)
        ag.backward(ag.tmean(y))
    metrics = workloads.layer_metrics(tracer, 1, ("step",))
    # tmean returns dy (useful); conv returns dx (wasted), dw and db (useful)
    total = y.size + x.size + w.size + b.size
    assert metrics["autograd.grad_elems"] == total
    assert metrics["autograd.grad_useful_ratio"] == (total - x.size) / total
    assert metrics["autograd.conv2d.calls"] == 1
    assert metrics["autograd.conv2d.bwd_ms"] > 0
    assert metrics["autograd.backward_engine_ms"] >= 0


def test_quantum_layer_is_traced_and_matches_qsim():
    cfg = qlayer.QuantumLayerConfig(seed=3)
    layer = models.QuantumConv(cfg)
    x = ag.tensor(np.random.default_rng(1).normal(size=(2, 2, 3, 10)), requires_grad=True)
    with Tracer() as tracer:
        tracer.phase = "step"
        ag.backward(ag.tmean(layer(x)))
    metrics = workloads.layer_metrics(tracer, 1, ("step",))
    assert metrics["qlayer.calls"] == 1
    assert metrics["qlayer.windows"] == 2 * 2 * 3 * 3  # 10 traces pad to 3 windows
    assert metrics["qlayer.input_grad_ms"] > 0
    calls = checks.capture_quantum_inputs(layer, x.data[:, 0])
    assert checks.qsim_window_errors(calls, 32, seed=0)[0] < checks.QSIM_TOLERANCE
    assert checks.qsim_input_grad_errors(calls, 2, 8, seed=0)[0] < checks.QSIM_TOLERANCE


def test_input_grad_check_catches_a_wrong_gradient(monkeypatch):
    cfg = qlayer.QuantumLayerConfig(seed=3)
    layer = models.QuantumConv(cfg)
    calls = checks.capture_quantum_inputs(layer, np.random.default_rng(4).normal(size=(2, 3, 12)))
    original = qlayer.quantum_input_grad
    monkeypatch.setattr(qlayer, "quantum_input_grad", lambda *a, **k: 1.01 * original(*a, **k))
    assert checks.qsim_input_grad_errors(calls, 2, 8, seed=0)[0] > checks.QSIM_TOLERANCE


def test_report_failures_flags_a_changed_row(tmp_path):
    rng = np.random.default_rng(2)
    targets = rng.normal(size=(3, 16, 16))
    preds = targets + 0.1 * rng.normal(size=targets.shape)
    expected = objectives.evaluate_pairs(targets, preds)
    spectra = tmp_path / "spectra"
    spectra.mkdir()
    for i in range(3):
        (spectra / f"amp_spectrum_{i:03d}.csv").write_text("")
        (spectra / f"fk_pred_{i:03d}.csv").write_text("")
    report = tmp_path / "report.csv"
    expected.to_csv(report)
    assert checks.report_failures(report, spectra, expected) == 0
    lines = report.read_text().splitlines()
    lines[2] = lines[2].replace(",", ",9", 1)
    report.write_text("\n".join(lines) + "\n")
    assert checks.report_failures(report, spectra, expected) == 1
    expected.to_csv(report)
    (spectra / "fk_pred_001.csv").unlink()
    assert checks.report_failures(report, spectra, expected) == 1


def test_names_are_well_formed():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert set(w["name"] for w in spec["workloads"]) == set(workloads.DEFINITIONS)
