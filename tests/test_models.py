"""Model assembly tests: shape contracts, twins, gradient flow, pairs."""
import dataclasses
import functools
import hashlib
import itertools

import numpy as np
import pytest

from qcseis import autograd as ag
from qcseis import models as mdl


def make_input(shape, seed=0):
    return ag.Tensor(np.random.default_rng(seed).normal(size=shape).astype(np.float32))


def small_gen_cfg(quantum=True, blocks=2):
    return mdl.GeneratorConfig(blocks=blocks, base_channels=16, quantum=quantum,
                               patch_height=32, patch_width=32)


def small_disc_cfg(quantum=True, blocks=2):
    return mdl.DiscriminatorConfig(blocks=blocks, base_channels=16, quantum=quantum,
                                   patch_height=32, patch_width=32)


def small_unet_cfg(quantum=True):
    return mdl.UNetConfig(base_channels=8, quantum=quantum, patch_height=32, patch_width=32)


class TestGenerator:
    def test_output_shape_matches_input(self):
        gen = mdl.Generator(small_gen_cfg(), init_seed=0)
        out = gen(make_input((2, 1, 32, 32)))
        assert out.shape == (2, 1, 32, 32)

    def test_classical_twin_same_contract(self):
        gen = mdl.Generator(small_gen_cfg(quantum=False), init_seed=0)
        out = gen(make_input((2, 1, 32, 32)))
        assert out.shape == (2, 1, 32, 32)
        assert gen.complementarity_pairs == []

    def test_finite_outputs(self):
        gen = mdl.Generator(small_gen_cfg(), init_seed=3)
        out = gen(make_input((2, 1, 32, 32), seed=5))
        assert np.all(np.isfinite(out.data))

    def test_odd_dims_rejected(self):
        gen = mdl.Generator(small_gen_cfg(), init_seed=0)
        with pytest.raises(ag.ShapeError):
            gen(make_input((1, 1, 31, 32)))

    def test_block_residual_identity(self):
        # the classical sub-path feeds an exact additive skip
        gen = mdl.Generator(small_gen_cfg(blocks=1), init_seed=1)
        gen.eval()
        block = gen.blocks[0]
        x = make_input((2, 16, 8, 8), seed=7)
        block(x)
        classical, _ = ag.split_channels(x, block.classical_channels)
        expected = ag.add(classical, block.unit3(block.unit2(block.unit1(classical))))
        assert np.array_equal(block.pair[0].data, expected.data)

    def test_twin_determinism(self):
        cfg = small_gen_cfg(quantum=False)
        x = make_input((2, 1, 32, 32), seed=9)
        outs = []
        for _ in range(2):
            gen = mdl.Generator(cfg, init_seed=12)
            gen.eval()
            with ag.no_grad():
                outs.append(gen(x).data.copy())
        assert np.array_equal(outs[0], outs[1])


class TestDiscriminator:
    def test_output_in_unit_interval(self):
        disc = mdl.Discriminator(small_disc_cfg(), init_seed=2)
        out = disc(make_input((3, 1, 32, 32), seed=1))
        assert out.shape == (3, 1)
        assert np.all(out.data > 0) and np.all(out.data < 1)

    def test_batch_permutation_equivariance(self):
        disc = mdl.Discriminator(small_disc_cfg(), init_seed=2)
        disc.eval()
        x = np.random.default_rng(4).normal(size=(4, 1, 32, 32)).astype(np.float32)
        perm = np.array([3, 1, 0, 2])
        with ag.no_grad():
            base = disc(ag.Tensor(x)).data
            shuffled = disc(ag.Tensor(x[perm])).data
        assert np.array_equal(base[perm], shuffled)

    def test_gradient_reaches_earliest_conv(self):
        disc = mdl.Discriminator(small_disc_cfg(), init_seed=2)
        out = disc(make_input((2, 1, 32, 32), seed=3))
        ag.backward(ag.tmean(out))
        assert disc.stem.weight.grad is not None
        assert np.abs(disc.stem.weight.grad).max() > 0

    def test_wrong_patch_dims_rejected(self):
        disc = mdl.Discriminator(small_disc_cfg(), init_seed=0)
        with pytest.raises(ag.ShapeError):
            disc(make_input((1, 1, 16, 16)))


class TestUNet:
    def test_shape_preserved(self):
        unet = mdl.UNet(mdl.UNetConfig(base_channels=8, patch_height=64, patch_width=64), init_seed=0)
        unet.eval()
        out = unet(make_input((1, 1, 64, 64)))
        assert out.shape == (1, 1, 64, 64)

    def test_classical_twin_runs(self):
        q = mdl.UNet(small_unet_cfg(), init_seed=1)
        c = mdl.UNet(small_unet_cfg(quantum=False), init_seed=1)
        x = make_input((2, 1, 32, 32))
        assert q(x).shape == c(x).shape == (2, 1, 32, 32)
        assert len(q.complementarity_pairs) == 1
        assert c.complementarity_pairs == []
        assert mdl.count_trainable_parameters(q) <= mdl.count_trainable_parameters(c)

    def test_finite_outputs_and_gradients_at_all_depths(self):
        unet = mdl.UNet(small_unet_cfg(), init_seed=4)
        x = make_input((2, 1, 32, 32), seed=6)
        out = unet(x)
        assert np.all(np.isfinite(out.data))
        ag.backward(ag.tmean(ag.absval(out)))
        for p in unet.trainable_parameters():
            assert p.grad is not None and np.all(np.isfinite(p.grad)), p.name

    def test_indivisible_dims_rejected(self):
        unet = mdl.UNet(small_unet_cfg(), init_seed=0)
        with pytest.raises(ag.ShapeError):
            unet(make_input((1, 1, 36, 36)))


class TestInputCheck:
    @pytest.mark.parametrize("family, cls, cfg", [
        ("generator", mdl.Generator, small_gen_cfg),
        ("discriminator", mdl.Discriminator, small_disc_cfg),
        ("unet", mdl.UNet, small_unet_cfg),
    ], ids=["generator", "discriminator", "unet"])
    @pytest.mark.parametrize("shape", [(2, 2, 32, 32), (2, 32, 32)], ids=["two_channels", "three_dims"])
    def test_rejects_input_not_b1ts(self, family, cls, cfg, shape):
        net = cls(cfg(), init_seed=0)
        with pytest.raises(ag.ShapeError, match=rf"^{family} expects \[B, 1, T, S\]"):
            net(make_input(shape))


# The patch checks as each family wrote them before `_Network._check_patch`, copied with `self.cfg`
# read as `cfg` and `x.shape` as `t, s`: the reference the one rule must agree with.
def reference_generator_forward(cfg, t, s):
    if t % 2 or s % 2:
        raise ag.ShapeError(f"generator needs even patch dims, got {t}x{s}")
    if cfg.quantum and s // 2 < cfg.n_qubits:
        raise ag.ShapeError(f"trace axis {s} too short for the quantum window after the stem")


def reference_unet_forward(cfg, t, s):
    if t % 8 or s % 8:
        raise ag.ShapeError(f"unet needs patch dims divisible by 8, got {t}x{s}")
    if cfg.quantum and s // 8 < cfg.n_qubits:
        raise ag.ShapeError(f"trace axis {s} too short for the quantum window at the bottleneck")


def reference_discriminator_init(cfg, t, s):
    t, s = cfg.patch_height, cfg.patch_width
    if t % 2 or s % 2:
        raise ValueError(f"patch dims must be even, got {t}x{s}")
    h, w = t // 2, s // 2
    for _ in range(cfg.blocks - 1):
        if h % 2 or w % 2:
            raise ValueError(f"patch {t}x{s} cannot be pooled {cfg.blocks - 1} times after the stem")
        h, w = h // 2, w // 2
    if cfg.quantum and w < cfg.n_qubits:
        raise ValueError(f"final trace axis {w} too short for the quantum window")


def reference_discriminator_forward(cfg, t, s):
    if t != cfg.patch_height or s != cfg.patch_width:
        raise ag.ShapeError(
            f"discriminator configured for {cfg.patch_height}x{cfg.patch_width} "
            f"patches, got {t}x{s}"
        )


def reference_accepts(check, cfg, t, s) -> bool:
    try:
        check(cfg, t, s)
    except ValueError:
        return False
    return True


PATCH_DIMS = range(8, 97, 4)
# family: (class, config class, reference for the configured patch, reference at call).
# The generator and the UNet checked only their inputs, and their layers cannot run a
# configured patch those checks reject, so that check is their reference for both.
PATCH_RULES = {
    "generator": (mdl.Generator, mdl.GeneratorConfig, reference_generator_forward, reference_generator_forward),
    "discriminator": (mdl.Discriminator, mdl.DiscriminatorConfig,
                      reference_discriminator_init, reference_discriminator_forward),
    "unet": (mdl.UNet, mdl.UNetConfig, reference_unet_forward, reference_unet_forward),
}


def tiny_cfg(cfg_cls, blocks, n_qubits, quantum, t, s):
    """A cheap network config of the sweep: the patch rule reads no width or circuit count."""
    extra = {} if cfg_cls is mdl.UNetConfig else {"blocks": blocks}
    return cfg_cls(base_channels=2, n_circuits=1, circuit_depth=1, n_qubits=n_qubits, quantum=quantum,
                   patch_height=t, patch_width=s, **extra)


def sweep_settings(family):
    """(blocks, n_qubits, quantum) of the sweep; the UNet has no blocks."""
    blocks = [1] if family == "unet" else range(1, 5)
    return itertools.product(blocks, range(1, 7), (True, False))


class TestPatchRule:
    """One `_check_patch` accepts and rejects every patch exactly as the per-family checks it replaced."""

    @pytest.mark.parametrize("family", PATCH_RULES)
    def test_constructor_accepts_what_the_reference_accepts(self, family):
        cls, cfg_cls, reference, _ = PATCH_RULES[family]
        wrong = []
        for (blocks, n_qubits, quantum), t, s in itertools.product(sweep_settings(family), PATCH_DIMS, PATCH_DIMS):
            cfg = tiny_cfg(cfg_cls, blocks, n_qubits, quantum, t, s)
            try:
                cls(cfg)
                built = True
            except ag.ShapeError:
                built = False
            if built != reference_accepts(reference, cfg, t, s):
                wrong.append((blocks, n_qubits, quantum, t, s, built))
        assert wrong == []

    @pytest.mark.parametrize("family", PATCH_RULES)
    def test_call_rejects_what_the_reference_rejects(self, family):
        cls, cfg_cls, _, reference = PATCH_RULES[family]
        inputs = {(t, s): ag.Tensor(np.zeros((1, 1, t, s), np.float32))
                  for t, s in itertools.product(PATCH_DIMS, PATCH_DIMS)}
        wrong = []
        for blocks, n_qubits, quantum in sweep_settings(family):
            # 64x96 fits every setting of the sweep, and only a non-square patch tells t from s
            cfg = tiny_cfg(cfg_cls, blocks, n_qubits, quantum, 64, 96)
            net = cls(cfg)
            net.forward = lambda x: x  # the checks run before forward; this skips the layers
            for (t, s), x in inputs.items():
                try:
                    ran = net(x) is x
                except ag.ShapeError:
                    ran = False
                if ran != reference_accepts(reference, cfg, t, s):
                    wrong.append((blocks, n_qubits, quantum, t, s, ran))
        assert wrong == []


class TestComplementarityPairs:
    def test_one_pair_per_block(self):
        # the network owns the pairs of its last forward: none stays on a block
        for net in (mdl.Generator(small_gen_cfg(blocks=2), init_seed=0),
                    mdl.Discriminator(small_disc_cfg(blocks=2), init_seed=0)):
            net(make_input((2, 1, 32, 32)))
            assert all(block.pair is None for block in net.blocks)
            assert len(net.complementarity_pairs) == 2
            net.release_pairs()
            with pytest.raises(RuntimeError):
                net.complementarity_pairs

    def test_pairs_before_forward_rejected(self):
        gen = mdl.Generator(small_gen_cfg(), init_seed=0)
        with pytest.raises(RuntimeError):
            gen.complementarity_pairs

    def test_pair_spatial_dims_match(self):
        gen = mdl.Generator(small_gen_cfg(), init_seed=0)
        gen(make_input((2, 1, 32, 32)))
        for classical, quantum in gen.complementarity_pairs:
            assert classical.shape[0] == quantum.shape[0]
            assert classical.shape[2:] == quantum.shape[2:]


class TestFusionSite:
    @pytest.mark.parametrize("model_cls, make_cfg", [
        (mdl.Generator, small_gen_cfg),
        (mdl.Discriminator, small_disc_cfg),
        (mdl.UNet, small_unet_cfg),
    ], ids=["generator", "discriminator", "unet"])
    @pytest.mark.parametrize("quantum", [True, False], ids=["quantum", "twin"])
    def test_out_of_range_qubits_rejected(self, model_cls, make_cfg, quantum):
        """A classical twin checks its quantum settings as its quantum build does."""
        with pytest.raises(ValueError, match="n_qubits must be in"):
            model_cls(dataclasses.replace(make_cfg(quantum), n_qubits=0))

    def test_one_channel_leaves_no_partition(self):
        cfg = mdl.DiscriminatorConfig(blocks=2, base_channels=1, patch_height=32, patch_width=32)
        with pytest.raises(ValueError, match=r"quantum partition 0 must be inside \(0, 1\)"):
            mdl.Discriminator(cfg)
        # the twin routes its one channel through the classical path
        assert mdl.Discriminator(dataclasses.replace(cfg, quantum=False)).blocks[0].classical_channels == 1


class TestParameterBookkeeping:
    # (entry count, sha256 over each entry's name, dtype and bytes), recorded before the GAN
    # networks shared a trunk; construction runs no BLAS, so these hold on every machine
    DEFAULT_BUILDS = [
        (mdl.Generator, mdl.GeneratorConfig, 0,
         115, "00102c9952a55338cd4c87d60c5e379e3cf1af0563ea09cbe79a8e6a9f343bf9"),
        (mdl.Discriminator, mdl.DiscriminatorConfig, 1,
         111, "f9dbc44f84aa974d08fd4ef9d11e375d78a1440baf4ff4f3981e0d6013c2a854"),
        (mdl.UNet, mdl.UNetConfig, 0,
         112, "80e79506e9fa066e19e662fc577d33735b38b88f3075e148ea23cf930453a455"),
        # the classical twins, recorded before both families built their fusion sites from one definition
        (mdl.Generator, functools.partial(mdl.GeneratorConfig, quantum=False), 0,
         99, "52db8e041c6ed3460383a96ee9631c5ff802a8e608400bf4d4bd9627dd86219a"),
        (mdl.Discriminator, functools.partial(mdl.DiscriminatorConfig, quantum=False), 1,
         95, "afbaabb7759dfbfb46ed3abe2964e0f735ca41c0df3eab73db153dd74a369903"),
        (mdl.UNet, functools.partial(mdl.UNetConfig, quantum=False), 0,
         108, "c215a12c49b6189d21d9e970966a0d5248b4ae6f0f687c735ad4a1e85d935e63"),
    ]
    BUILD_IDS = ["generator", "discriminator", "unet", "generator-twin", "discriminator-twin", "unet-twin"]

    @pytest.mark.parametrize("model_cls, cfg_cls, init_seed, count, digest", DEFAULT_BUILDS, ids=BUILD_IDS)
    def test_default_construction_pinned(self, model_cls, cfg_cls, init_seed, count, digest):
        """Entry names and initial values: a reordered rng draw or a renamed checkpoint entry fails."""
        entries = list(model_cls(cfg_cls(), init_seed=init_seed).named_parameters())
        h = hashlib.sha256()
        for name, p in entries:
            h.update(name.encode())
            h.update(str(p.data.dtype).encode())
            h.update(p.data.tobytes())
        assert (len(entries), h.hexdigest()) == (count, digest)

    @pytest.mark.parametrize("model_cls, cfg_cls", [build[:2] for build in DEFAULT_BUILDS], ids=BUILD_IDS)
    def test_parameters_are_tensors(self, model_cls, cfg_cls):
        """A parameter is its own tensor, and `trainable` is its `requires_grad`, stored once."""
        entries = list(model_cls(cfg_cls()).named_parameters())
        for name, p in entries:
            assert isinstance(p, ag.Tensor), name
            assert p.tensor is p, name
            assert p.trainable == p.requires_grad, name
        assert {p.trainable for _, p in entries} == {True, False}  # weights and buffers alike

    def test_conv2d_takes_parameters(self):
        conv = mdl.Conv2d(2, 3, 3, np.random.default_rng(0), padding=1)
        x = make_input((2, 2, 5, 5))
        out = ag.conv2d(x, conv.weight, conv.bias, 1, 1)
        assert np.array_equal(out.data, conv(x).data)
        ag.backward(ag.tsum(out))
        assert conv.weight.grad.shape == conv.weight.shape and conv.bias.grad.shape == conv.bias.shape

    def test_names_unique(self):
        gen = mdl.Generator(small_gen_cfg(), init_seed=0)
        names = [name for name, _ in gen.named_parameters()]
        assert len(names) == len(set(names))

    def test_quantum_at_most_classical_plus_five_percent(self):
        for cfg_q, cfg_c in (
            (small_gen_cfg(True), small_gen_cfg(False)),
            (small_disc_cfg(True), small_disc_cfg(False)),
            (small_unet_cfg(True), small_unet_cfg(False)),
        ):
            model_cls = {mdl.GeneratorConfig: mdl.Generator,
                         mdl.DiscriminatorConfig: mdl.Discriminator,
                         mdl.UNetConfig: mdl.UNet}[type(cfg_q)]
            nq = mdl.count_trainable_parameters(model_cls(cfg_q, init_seed=0))
            nc = mdl.count_trainable_parameters(model_cls(cfg_c, init_seed=0))
            assert nq <= nc * 1.05

    def test_every_trainable_parameter_gets_gradient(self):
        from qcseis.objectives import LossWeights, loss_complementarity, loss_generator

        gen = mdl.Generator(small_gen_cfg(), init_seed=8)
        disc = mdl.Discriminator(small_disc_cfg(), init_seed=9)
        x = make_input((2, 1, 32, 32), seed=10)
        target = make_input((2, 1, 32, 32), seed=11)
        pred = gen(x)
        score = disc(pred)
        total = ag.add(
            loss_generator(pred, target, score, LossWeights()),
            loss_complementarity(gen.complementarity_pairs),
        )
        gen.zero_grad()
        ag.backward(total)
        for p in gen.trainable_parameters():
            assert p.grad is not None and np.abs(p.grad).max() > 0, p.name

        from qcseis.objectives import loss_discriminator

        d_real = disc(target)
        d_pairs = disc.complementarity_pairs
        d_fake = disc(pred.detach())
        d_total = ag.add(loss_discriminator(d_real, d_fake),
                         loss_complementarity(d_pairs))
        disc.zero_grad()
        ag.backward(d_total)
        for p in disc.trainable_parameters():
            assert p.grad is not None and np.abs(p.grad).max() > 0, p.name

    @pytest.mark.parametrize("model_cls, make_cfg", [
        (mdl.Generator, small_gen_cfg),
        (mdl.Discriminator, small_disc_cfg),
        (mdl.UNet, small_unet_cfg),
    ], ids=["generator", "discriminator", "unet"])
    def test_build_model_roundtrip(self, model_cls, make_cfg):
        model = model_cls(make_cfg(), init_seed=0)
        rebuilt = mdl.build_model(model.arch_config(), init_seed=0)
        assert type(rebuilt) is model_cls
        assert rebuilt.arch_config() == model.arch_config()
        x = make_input((2, 1, 32, 32))
        model.eval()
        rebuilt.eval()
        with ag.no_grad():
            assert np.array_equal(model(x).data, rebuilt(x).data)

    def test_build_model_unknown_family(self):
        arch = mdl.Generator(small_gen_cfg(), init_seed=0).arch_config()
        with pytest.raises(ValueError, match="unknown model family"):
            mdl.build_model({**arch, "family": "qcgan"})
