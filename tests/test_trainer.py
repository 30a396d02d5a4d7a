"""Trainer tests: Adam oracle, checkpoints, determinism, resume, graph lifetime."""
import gc
import hashlib
import os
import subprocess
import sys
import textwrap
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from qcseis import autograd as ag
from qcseis import models as mdl
from qcseis import seisdata as sd
from qcseis import trainer
from qcseis.autograd import Parameter
from qcseis.objectives import LossWeights
from qcseis.trainer import Adam, Checkpoint, TrainConfig


def scalar_adam_reference(theta, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Plain-float reference of the update recurrence."""
    m = v = 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
        out.append(theta)
    return out


class TestAdam:
    def test_zero_gradient_no_change(self):
        p = Parameter(np.array([1.0, 2.0]), name="w")
        opt = Adam([p], lr=0.1)
        p.tensor.grad = np.zeros(2, dtype=np.float32)
        opt.step()
        assert np.array_equal(p.data, [1.0, 2.0])

    def test_first_step_magnitude(self):
        p = Parameter(np.array([0.0]), name="w")
        opt = Adam([p], lr=0.1)
        p.tensor.grad = np.ones(1, dtype=np.float32)
        opt.step()
        assert abs(p.data[0] + 0.1) < 1e-6  # bias correction makes the first step ~= lr

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(0)
        grads = rng.normal(size=10)
        p = Parameter(np.array([0.5]), name="w", dtype=np.float64)
        opt = Adam([p], lr=0.05)
        reference = scalar_adam_reference(0.5, grads, 0.05)
        for g, want in zip(grads, reference):
            p.tensor.grad = np.array([g])
            opt.step()
            assert abs(p.data[0] - want) < 1e-7

    def test_non_finite_gradient_skips_step(self):
        p = Parameter(np.array([1.0]), name="w")
        opt = Adam([p], lr=0.1)
        p.tensor.grad = np.array([np.nan], dtype=np.float32)
        assert not opt.step()
        assert opt.skipped == 1 and opt.step_count == 0
        assert p.data[0] == 1.0


class TestClipping:
    def test_norm_reduced(self):
        p = Parameter(np.zeros(4), name="w")
        p.tensor.grad = np.full(4, 10.0, dtype=np.float32)
        norm = trainer.clip_global_norm([p], 5.0)
        assert abs(norm - 20.0) < 1e-5
        assert abs(np.sqrt(np.sum(p.grad ** 2)) - 5.0) < 1e-5

    def test_small_gradients_untouched(self):
        p = Parameter(np.zeros(4), name="w")
        p.tensor.grad = np.full(4, 0.1, dtype=np.float32)
        trainer.clip_global_norm([p], 5.0)
        assert np.allclose(p.grad, 0.1)


@pytest.fixture(scope="module")
def interp_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("interp")
    spec = sd.DegradationSpec(task="interpolation_random", seed=3)
    sd.build_dataset(spec, 24, (32, 32), root)
    return sd.load_split(root, "train"), sd.load_split(root, "val")


@pytest.fixture(scope="module")
def lfe_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("lfe")
    spec = sd.DegradationSpec(task="lfe", seed=4)
    sd.build_dataset(spec, 20, (32, 32), root, dt=0.016, f0_range=(7.0, 7.0))
    return sd.load_split(root, "train"), sd.load_split(root, "val")


def small_models(seed=1):
    gcfg = mdl.GeneratorConfig(blocks=2, base_channels=8, patch_height=32, patch_width=32)
    dcfg = mdl.DiscriminatorConfig(blocks=2, base_channels=8, patch_height=32, patch_width=32)
    return mdl.Generator(gcfg, init_seed=seed), mdl.Discriminator(dcfg, init_seed=seed + 1)


def param_digest(model):
    h = hashlib.sha256()
    for name, p in model.named_parameters():
        h.update(name.encode())
        h.update(p.tensor.data.tobytes())
    return h.hexdigest()


class TestTrainGan:
    def test_history_schema_and_determinism(self, interp_data, tmp_path):
        train, val = interp_data
        cfg = TrainConfig(epochs=2, batch_size=8, lr=1e-4, seed=7, checkpoint_every=1)
        histories = []
        for run in ("a", "b"):
            gen, disc = small_models()
            histories.append(
                trainer.train_gan(gen, disc, train, val, cfg, tmp_path / run)
            )
        assert histories[0] == histories[1]
        csv_a = (tmp_path / "a" / "history.csv").read_bytes()
        csv_b = (tmp_path / "b" / "history.csv").read_bytes()
        assert csv_a == csv_b
        header = csv_a.decode().splitlines()[0]
        assert header == ",".join(trainer.HISTORY_COLUMNS)

    def test_loss_com_in_unit_interval(self, interp_data, tmp_path):
        train, val = interp_data
        gen, disc = small_models(seed=5)
        cfg = TrainConfig(epochs=1, batch_size=8, lr=1e-4, seed=1, checkpoint_every=1)
        history = trainer.train_gan(gen, disc, train, val, cfg, tmp_path / "c")
        train_rows = [r for r in history if r[1] == "train"]
        for row in train_rows:
            assert 0.0 <= float(row[6]) <= 1.0

    def test_five_step_parameter_hashes_repeat(self, interp_data, tmp_path):
        train, val = interp_data
        cfg = TrainConfig(epochs=1, batch_size=8, lr=1e-4, seed=2, checkpoint_every=1)
        digests = []
        for run in ("a", "b"):
            hashes = []

            def hook(step, models):
                if step <= 5:
                    hashes.append((param_digest(models["generator"]),
                                   param_digest(models["discriminator"])))

            gen, disc = small_models(seed=3)
            trainer.train_gan(gen, disc, train, val, cfg, tmp_path / f"h{run}", step_hook=hook)
            digests.append(hashes)
        assert digests[0] == digests[1]

    def test_wrong_task_rejected(self, lfe_data, tmp_path):
        train, val = lfe_data
        gen, disc = small_models()
        cfg = TrainConfig(epochs=1, batch_size=8)
        with pytest.raises(ValueError):
            trainer.train_gan(gen, disc, train, val, cfg, tmp_path / "x")


class TestTrainUnet:
    def test_runs_and_logs(self, lfe_data, tmp_path):
        train, val = lfe_data
        model = mdl.UNet(mdl.UNetConfig(base_channels=4, patch_height=32, patch_width=32),
                         init_seed=2)
        cfg = TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=1, checkpoint_every=1)
        history = trainer.train_unet(model, train, val, cfg, tmp_path / "u")
        assert len(history) == 4
        assert all(np.isfinite(float(r[2])) for r in history)

    def test_zero_com_weight_removes_term(self, lfe_data, tmp_path):
        train, val = lfe_data
        base = dict(epochs=1, batch_size=8, lr=1e-3, seed=1, checkpoint_every=1)
        totals = {}
        for label, lam in (("off", 0.0), ("tiny", 1e-12)):
            cfg = TrainConfig(weights=LossWeights(complementarity=lam), **base)
            model = mdl.UNet(mdl.UNetConfig(base_channels=4, patch_height=32, patch_width=32),
                             init_seed=2)
            history = trainer.train_unet(model, train, val, cfg, tmp_path / f"u_{label}")
            row = [r for r in history if r[1] == "train"][0]
            totals[label] = (float(row[4]), float(row[6]))
        # the com term still gets logged, but a zero weight drops it from the total:
        # the logged total at weight 0 is the bare supervised objective
        l1_only, com_off = totals["off"]
        l1_tiny, com_tiny = totals["tiny"]
        assert abs(l1_only - l1_tiny) < 1e-9
        assert com_off > 0 and com_tiny > 0

    def test_classical_twin_same_config(self, lfe_data, tmp_path):
        train, val = lfe_data
        model = mdl.UNet(mdl.UNetConfig(base_channels=4, quantum=False,
                                        patch_height=32, patch_width=32), init_seed=2)
        cfg = TrainConfig(epochs=1, batch_size=8, lr=1e-3, seed=1, checkpoint_every=1)
        history = trainer.train_unet(model, train, val, cfg, tmp_path / "ct")
        assert [r for r in history if r[1] == "train"][0][6] == repr(0.0)


class TestCheckpoints:
    def test_probe_batch_roundtrip(self, interp_data, tmp_path):
        train, val = interp_data
        gen, disc = small_models(seed=9)
        cfg = TrainConfig(epochs=1, batch_size=8, lr=1e-4, seed=4, checkpoint_every=1)
        trainer.train_gan(gen, disc, train, val, cfg, tmp_path / "ck")
        ckpt = trainer.load_checkpoint(tmp_path / "ck" / "last.qckp")
        gen2 = mdl.build_model(ckpt.config["arch"]["generator"], init_seed=123)
        trainer.load_model_state(gen2, ckpt, "generator")
        probe = ag.Tensor(train.degraded[:2][:, None])
        gen.eval()
        gen2.eval()
        with ag.no_grad():
            assert np.array_equal(gen(probe).data, gen2(probe).data)

    def test_truncated_file_named_error(self, interp_data, tmp_path):
        train, val = interp_data
        gen, disc = small_models(seed=9)
        cfg = TrainConfig(epochs=1, batch_size=8, lr=1e-4, seed=4, checkpoint_every=1)
        trainer.train_gan(gen, disc, train, val, cfg, tmp_path / "tr")
        path = tmp_path / "tr" / "last.qckp"
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(trainer.CheckpointError, match="truncated"):
            trainer.load_checkpoint(path)

    def test_every_truncation_is_a_checkpoint_error(self, tmp_path):
        gen = mdl.Generator(mdl.GeneratorConfig(blocks=1, base_channels=2, quantum=False,
                                                patch_height=8, patch_width=8))
        path = tmp_path / "small.qckp"
        trainer.save_checkpoint(path, "denoise", {"generator": gen}, {}, TrainConfig(), {"epoch": 1})
        raw = path.read_bytes()
        cut = tmp_path / "cut.qckp"
        for end in range(len(raw)):  # the file is small enough to cut at every offset
            cut.write_bytes(raw[:end])
            with pytest.raises(trainer.CheckpointError):
                trainer.load_checkpoint(cut)

    def test_failed_save_keeps_previous_file(self, tmp_path):
        gen, disc = small_models(seed=9)
        roles = {"generator": gen, "discriminator": disc}
        path = tmp_path / "last.qckp"
        trainer.save_checkpoint(path, "denoise", roles, {}, TrainConfig(), {"epoch": 1})
        before = path.read_bytes()
        # the last entry cannot be cast to <f8, so the save fails after writing the others
        list(disc.named_parameters())[-1][1].tensor.data = np.array(["not a number"])
        with pytest.raises(ValueError):
            trainer.save_checkpoint(path, "denoise", roles, {}, TrainConfig(), {"epoch": 2})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["last.qckp"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.qckp"
        path.write_bytes(b"XXXX" + b"\0" * 32)
        with pytest.raises(trainer.CheckpointError, match="magic"):
            trainer.load_checkpoint(path)

    def test_quantum_checkpoint_refuses_classical_twin(self, interp_data, tmp_path):
        train, val = interp_data
        gen, disc = small_models(seed=9)
        cfg = TrainConfig(epochs=1, batch_size=8, lr=1e-4, seed=4, checkpoint_every=1)
        trainer.train_gan(gen, disc, train, val, cfg, tmp_path / "qq")
        ckpt = trainer.load_checkpoint(tmp_path / "qq" / "last.qckp")
        twin_cfg = mdl.GeneratorConfig(blocks=2, base_channels=8, quantum=False,
                                       patch_height=32, patch_width=32)
        twin = mdl.Generator(twin_cfg, init_seed=0)
        disc_twin = mdl.Discriminator(
            mdl.DiscriminatorConfig(blocks=2, base_channels=8, quantum=False,
                                    patch_height=32, patch_width=32), init_seed=1)
        with pytest.raises(trainer.CheckpointError):
            ckpt.require_arch({"generator": twin.arch_config(),
                               "discriminator": disc_twin.arch_config()})
        with pytest.raises(trainer.CheckpointError):
            trainer.load_model_state(twin, ckpt, "generator")

    def test_arch_mismatch_names_roles_and_fields(self):
        unet = mdl.UNet(mdl.UNetConfig(base_channels=4), init_seed=0).arch_config()
        gen = mdl.Generator(mdl.GeneratorConfig(blocks=2, base_channels=8), init_seed=0).arch_config()
        twin = mdl.Generator(mdl.GeneratorConfig(blocks=2, base_channels=8, quantum=False),
                             init_seed=0).arch_config()
        ckpt = Checkpoint(version=1, config={"arch": {"model": unet, "generator": gen}}, entries={})
        with pytest.raises(trainer.CheckpointError) as info:
            ckpt.require_arch({"generator": twin, "discriminator": gen})
        assert str(info.value).endswith(
            ": discriminator: requested only; generator.quantum: stored true, requested false; model: stored only")
        ckpt.require_arch({"model": unet, "generator": gen})

    def test_circuits_restore_from_angles_not_reseeding(self, interp_data, tmp_path):
        train, val = interp_data
        gen, disc = small_models(seed=9)
        cfg = TrainConfig(epochs=1, batch_size=8, lr=1e-4, seed=4, checkpoint_every=1)
        trainer.train_gan(gen, disc, train, val, cfg, tmp_path / "ang")
        ckpt = trainer.load_checkpoint(tmp_path / "ang" / "last.qckp")
        gen2 = mdl.build_model(ckpt.config["arch"]["generator"], init_seed=0)
        trainer.load_model_state(gen2, ckpt, "generator")
        # tamper with the stored angles: circuits must track the buffers
        original = gen2.blocks[0].qconv._params["circuit0_angles"].tensor.data.copy()
        gen2.blocks[0].qconv._params["circuit0_angles"].tensor.data = original + 0.3
        circuits = gen2.blocks[0].qconv.circuits()
        assert np.allclose(circuits[0].angles, original + 0.3)


class TestResume:
    def test_resume_matches_unresumed(self, interp_data, tmp_path):
        train, val = interp_data
        cfg_full = TrainConfig(epochs=4, batch_size=8, lr=1e-4, seed=6, checkpoint_every=2)

        gen_a, disc_a = small_models(seed=11)
        trainer.train_gan(gen_a, disc_a, train, val, cfg_full, tmp_path / "full")

        cfg_half = TrainConfig(epochs=2, batch_size=8, lr=1e-4, seed=6, checkpoint_every=2)
        gen_b, disc_b = small_models(seed=11)
        trainer.train_gan(gen_b, disc_b, train, val, cfg_half, tmp_path / "half")
        ckpt = trainer.load_checkpoint(tmp_path / "half" / "last.qckp")

        gen_c, disc_c = small_models(seed=999)  # weights come from the checkpoint
        trainer.train_gan(gen_c, disc_c, train, val, cfg_full, tmp_path / "resumed",
                          resume=ckpt)
        assert param_digest(gen_a) == param_digest(gen_c)
        assert param_digest(disc_a) == param_digest(disc_c)
        full_csv = (tmp_path / "full" / "history.csv").read_bytes()
        resumed_csv = (tmp_path / "resumed" / "history.csv").read_bytes()
        assert full_csv == resumed_csv

    def test_optimizer_state_roundtrip(self, tmp_path):
        p = Parameter(np.array([1.0, -2.0]), name="w")
        opt = Adam([p], lr=0.01)
        for _ in range(3):
            p.tensor.grad = np.array([0.5, -0.25], dtype=np.float32)
            opt.step()
        entries = dict(trainer._optimizer_entries("model", opt))
        ckpt = Checkpoint(version=1, config={}, entries=entries)
        opt2 = Adam([p], lr=0.01)
        trainer._load_adam_state(opt2, ckpt, "model")
        assert opt2.step_count == 3
        assert np.array_equal(opt2.m[0], opt.m[0])
        assert np.array_equal(opt2.v[0], opt.v[0])


BLAS_RUN = textwrap.dedent("""
    import hashlib, os, sys
    from qcseis import models as mdl, seisdata as sd, trainer

    root = sys.argv[1]
    sd.build_dataset(sd.DegradationSpec(task="interpolation_random", seed=3), 24, (32, 32), root)
    gen = mdl.Generator(mdl.GeneratorConfig(blocks=2, base_channels=8, patch_height=32, patch_width=32), init_seed=1)
    disc = mdl.Discriminator(mdl.DiscriminatorConfig(blocks=2, base_channels=8, patch_height=32, patch_width=32), init_seed=2)
    cfg = trainer.TrainConfig(epochs=1, batch_size=8, lr=1e-4, seed=7, checkpoint_every=1)
    trainer.train_gan(gen, disc, sd.load_split(root, "train"), sd.load_split(root, "val"), cfg, os.path.join(root, "out"))
    h = hashlib.sha256()
    for model in (gen, disc):
        for name, p in model.named_parameters():
            h.update(name.encode())
            h.update(p.tensor.data.tobytes())
    threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else -1
    print(h.hexdigest(), threads)
""")


def test_blas_thread_count_keeps_parameters_bit_identical(tmp_path):
    """Smoke-scale GAN training gives the same parameters with one and two BLAS threads."""
    src = str(Path(trainer.__file__).resolve().parents[1])
    results = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", BLAS_RUN, str(tmp_path / threads)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digest, seen = proc.stdout.split()[-2:]
        if seen != "-1":  # where the OS lists threads, BLAS started the requested pool
            assert int(seen) >= int(threads)
        results[threads] = digest
    assert results["1"] == results["2"]


def surviving_arrays(monkeypatch, module, name, train_fn) -> list:
    """Per step: how many outputs of `module.name` are still alive at step_hook."""
    refs, survivors = [], []
    original = getattr(module, name)

    def tracked(*args, **kwargs):
        out = original(*args, **kwargs)
        refs.append(weakref.ref(out.data))  # Tensor has __slots__ and takes no weakref
        return out

    def hook(step, models):
        gc.collect()
        survivors.append(sum(ref() is not None for ref in refs))

    monkeypatch.setattr(module, name, tracked)
    train_fn(hook)
    assert refs
    return survivors


class TestGraphLifetime:
    """A step's autograd graph is gone by the time the loop reaches step_hook.

    The complementarity losses are reachable only from the step's graph;
    the quantum outputs also from the (classical, quantum) pairs the
    models keep, so those tests fail if a step leaves the pairs behind.
    """

    @staticmethod
    def gan_run(interp_data, tmp_path):
        gen, disc = small_models()
        cfg = TrainConfig(epochs=1, batch_size=8, lr=1e-4, seed=1, checkpoint_every=1)
        return lambda hook: trainer.train_gan(gen, disc, *interp_data, cfg, tmp_path, step_hook=hook)

    @staticmethod
    def unet_run(lfe_data, tmp_path):
        model = mdl.UNet(mdl.UNetConfig(base_channels=4, patch_height=32, patch_width=32), init_seed=2)
        cfg = TrainConfig(epochs=1, batch_size=8, lr=1e-3, seed=1, checkpoint_every=1)
        return lambda hook: trainer.train_unet(model, *lfe_data, cfg, tmp_path, step_hook=hook)

    def test_gan_step_graph_freed(self, interp_data, tmp_path, monkeypatch):
        survivors = surviving_arrays(monkeypatch, trainer, "loss_complementarity",
                                     self.gan_run(interp_data, tmp_path))
        assert survivors == [0] * len(survivors)

    def test_unet_step_graph_freed(self, lfe_data, tmp_path, monkeypatch):
        survivors = surviving_arrays(monkeypatch, trainer, "loss_complementarity",
                                     self.unet_run(lfe_data, tmp_path))
        assert survivors == [0] * len(survivors)

    def test_gan_pairs_released(self, interp_data, tmp_path, monkeypatch):
        survivors = surviving_arrays(monkeypatch, mdl, "quantum_conv", self.gan_run(interp_data, tmp_path))
        assert survivors == [0] * len(survivors)

    def test_unet_pairs_released(self, lfe_data, tmp_path, monkeypatch):
        survivors = surviving_arrays(monkeypatch, mdl, "quantum_conv", self.unet_run(lfe_data, tmp_path))
        assert survivors == [0] * len(survivors)


def checked_backward_run(monkeypatch, train_fn) -> list:
    """Run train_fn with every ag.backward checked before and after it runs.

    Conv keeps no column matrix from forward to backward: every array that
    owns columns `_im2col` built outside backward must be dead (without a gc
    pass) when backward starts, and backward must rebuild the columns of
    each conv in the graph, a chunk of items per `_im2col` call, in the
    column buffer of the thread that runs backward, the chunks covering the
    conv's column matrix exactly once. Once backward returns, no node of the
    graph may still hold a gradient or a rule (with the arrays it saved).
    Returns the number of convs differentiated per backward call.
    """
    made, rebuilt, checked, buffers = [], [], [], []
    im2col, column_buffer, backward = ag._im2col, ag._column_buffer, ag.backward
    in_backward = threading.Event()

    def span(a):
        return a.__array_interface__["data"][0], a.nbytes

    def recording_column_buffer(size, dtype):
        buf = column_buffer(size, dtype)
        assert np.shares_memory(buf, ag._COLUMNS.buf)  # the calling thread's buffer
        buffers.append(buf)
        return buf

    def recording_im2col(*args):
        cols = im2col(*args)
        if in_backward.is_set():
            assert np.shares_memory(cols, buffers[-1])
            rebuilt.append((len(buffers) - 1, span(cols)))
        else:
            made.append(weakref.ref(cols.base))
        return cols

    def checking_backward(root):
        nodes, stack, seen = [], [root._node], {root._node}
        while stack:
            node = stack.pop()
            if node.rule is not None:
                nodes.append(node)
            for parent in node.parents:
                if parent not in seen:
                    seen.add(parent)
                    stack.append(parent)
        convs = [node.shape[0] for node in nodes if node.rule.__qualname__ == "conv2d.<locals>.bwd"]
        assert [ref() is None for ref in made] == [True] * len(made)
        made.clear()
        in_backward.set()
        try:
            backward(root)
        finally:
            in_backward.clear()
        assert len(buffers) == len(convs)
        for i, buf in enumerate(buffers):
            chunks = sorted(s for k, s in rebuilt if k == i)
            assert all(s0 + n0 == s1 for (s0, n0), (s1, _) in zip(chunks, chunks[1:]))
            assert (chunks[0][0], sum(n for _, n in chunks)) == span(buf)
        rebuilt.clear()
        buffers.clear()
        assert [node.grad is None for node in nodes] == [True] * len(nodes)
        assert [node.rule is ag._spent for node in nodes] == [True] * len(nodes)
        checked.append(len(convs))

    monkeypatch.setattr(ag, "_LANES", 2)
    monkeypatch.setattr(ag, "_im2col", recording_im2col)
    monkeypatch.setattr(ag, "_column_buffer", recording_column_buffer)
    monkeypatch.setattr(ag, "backward", checking_backward)
    train_fn(None)
    return checked


class TestBackwardFreesGraph:
    """Backward frees a graph's saved arrays and gradients inside the step, not after it."""

    def test_gan(self, interp_data, tmp_path, monkeypatch):
        checked = checked_backward_run(monkeypatch, TestGraphLifetime.gan_run(interp_data, tmp_path))
        assert len(checked) % 2 == 0 and min(checked) > 0  # backward(l_d), backward(total) per step

    def test_unet(self, lfe_data, tmp_path, monkeypatch):
        checked = checked_backward_run(monkeypatch, TestGraphLifetime.unet_run(lfe_data, tmp_path))
        assert checked and min(checked) > 0


class TestDivergenceGuard:
    def test_aborts_after_three_bad_steps(self):
        guard = trainer._DivergenceGuard()
        guard.observe(1.0)
        guard.observe(float("nan"))
        guard.observe(float("inf"))
        with pytest.raises(trainer.TrainingDivergedError):
            guard.observe(float("nan"))

    def test_streak_resets(self):
        guard = trainer._DivergenceGuard()
        guard.observe(float("nan"))
        guard.observe(float("nan"))
        guard.observe(1.0)
        guard.observe(float("nan"))
        guard.observe(float("nan"))
        guard.observe(1.0)
