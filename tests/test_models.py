"""Model assembly tests: shape contracts, twins, gradient flow, pairs."""
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


class TestComplementarityPairs:
    def test_one_pair_per_block(self):
        gen = mdl.Generator(small_gen_cfg(blocks=2), init_seed=0)
        gen(make_input((2, 1, 32, 32)))
        pairs = gen.complementarity_pairs
        assert len(pairs) == 2

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


class TestParameterBookkeeping:
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
