"""Network assemblies: dual-pathway GAN generator/discriminator and UNet.

Every architecture comes in a quantum-on and a quantum-off (classical
twin) variant, and every family builds its fusion sites from one
definition: `_quantum_site` sizes a site and builds its quantum layer,
checking the site's quantum settings in either variant, and `_fuse` runs
it. In the quantum variant a site splits its input channels, runs its
classical path (the GAN block's residual conv units, the identity at the
UNet bottleneck) next to the quantum feature layer, and concatenates the
two; the classical twin routes the whole map through the classical path
instead. Each forward pass keeps its pre-concatenation feature pairs on
the network, for the complementarity loss.

The three families share one design, declared once: `NetConfig` holds
the settings and defaults they have in common (width, quantum split,
circuits, patch size), and `_Network` owns the config, the kept pairs,
the architecture dict that checkpoints record and the input checks. Its
`_check_patch` is the one patch rule, run when a network is built and on
each input: dims divisible by the family's `scale` (how far below the
patch its deepest quantum layer sits), `n_qubits` traces left at that
scale, and the configured patch for the discriminator, whose head the
patch sizes. The generator and the discriminator also share one trunk,
`_DualPath`: the strided stem and the stack of dual-path blocks, run by
one method that collects the blocks' pairs. Each family adds only its
own fields, its other layers and its forward pass. `arch_signature` is
the part of that dict a checkpoint is checked on: the fields the family
reads.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import autograd as ag
from .autograd import Parameter, Tensor
from .qlayer import QuantumLayerConfig, quantum_conv
from .qsim import RandomCircuit

__all__ = [
    "Module",
    "ModuleList",
    "Conv2d",
    "BatchNorm2d",
    "PReLU",
    "Linear",
    "QuantumConv",
    "HybridResidualBlock",
    "NetConfig",
    "GeneratorConfig",
    "DiscriminatorConfig",
    "UNetConfig",
    "Generator",
    "Discriminator",
    "UNet",
    "count_trainable_parameters",
    "arch_signature",
    "build_model",
]


class Module:
    """Minimal layer container: tracks parameters, children, and mode."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, key, value):
        if isinstance(value, Parameter):
            self._params[key] = value
        elif isinstance(value, Module):
            self._modules[key] = value
        object.__setattr__(self, key, value)

    def named_parameters(self, prefix: str = ""):
        for key, p in self._params.items():
            name = f"{prefix}{key}"
            p.name = name
            yield name, p
        for key, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{key}.")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def trainable_parameters(self):
        return [p for _, p in self.named_parameters() if p.trainable]

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def train(self, mode: bool = True):
        object.__setattr__(self, "training", mode)
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self):
        return self.train(False)

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    def __init__(self, modules):
        super().__init__()
        self._items = list(modules)
        for i, m in enumerate(self._items):
            self._modules[str(i)] = m

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, i):
        return self._items[i]


_PRELU_INIT = 0.25  # every PReLU's starting slope
# rectifier-gain fan-in bound (He-style uniform, slope matching the PReLU init)
_PRELU_GAIN_SQ = 2.0 / (1.0 + _PRELU_INIT ** 2)


class Conv2d(Module):
    def __init__(self, cin, cout, k, rng, stride=1, padding=0, dtype=np.float32):
        super().__init__()
        bound = np.sqrt(3.0 * _PRELU_GAIN_SQ / (cin * k * k))
        self.weight = Parameter(rng.uniform(-bound, bound, (cout, cin, k, k)), dtype=dtype)
        self.bias = Parameter(np.zeros(cout), dtype=dtype)
        self.stride = stride
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return ag.conv2d(x, self.weight, self.bias, self.stride, self.padding)


class BatchNorm2d(Module):
    def __init__(self, channels, dtype=np.float32):
        super().__init__()
        self.gamma = Parameter(np.ones(channels), dtype=dtype)
        self.beta = Parameter(np.zeros(channels), dtype=dtype)
        self.running_mean = Parameter(np.zeros(channels), trainable=False, dtype=dtype)
        self.running_var = Parameter(np.ones(channels), trainable=False, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return ag.batchnorm2d(x, self.gamma, self.beta, self.running_mean.data, self.running_var.data,
                              training=self.training)


class PReLU(Module):
    def __init__(self, channels, dtype=np.float32):
        super().__init__()
        self.alpha = Parameter(np.full(channels, _PRELU_INIT), dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return ag.prelu(x, self.alpha)


class Linear(Module):
    def __init__(self, fin, fout, rng, dtype=np.float32):
        super().__init__()
        bound = 1.0 / np.sqrt(fin)
        self.weight = Parameter(rng.uniform(-bound, bound, (fout, fin)), dtype=dtype)
        self.bias = Parameter(np.zeros(fout), dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return ag.linear(x, self.weight, self.bias)


class QuantumConv(Module):
    """Quantum feature layer wrapper; circuit angles live in buffers.

    Circuits are rebuilt from the angle buffers on every forward, so a
    restored checkpoint never depends on the angle PRNG.
    """

    def __init__(self, cfg: QuantumLayerConfig):
        super().__init__()
        self.cfg = cfg
        for i, circuit in enumerate(cfg.make_circuits()):
            setattr(self, f"circuit{i}_angles", Parameter(circuit.angles, trainable=False, dtype=np.float64))

    def circuits(self):
        return [RandomCircuit(self._params[f"circuit{i}_angles"].data) for i in range(self.cfg.n_circuits)]

    def forward(self, x: Tensor) -> Tensor:
        return quantum_conv(x, self.circuits(), self.cfg)


class ConvUnit(Module):
    """conv 3x3 (stride 1, padding 1) + batch norm + PReLU."""

    def __init__(self, cin, cout, rng, dtype=np.float32):
        super().__init__()
        self.conv = Conv2d(cin, cout, 3, rng, stride=1, padding=1, dtype=dtype)
        self.bn = BatchNorm2d(cout, dtype=dtype)
        self.act = PReLU(cout, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return self.act(self.bn(self.conv(x)))


def _quantum_site(cfg, channels: int, site_seed: int):
    """(classical channels, quantum layer or None, concatenated width) of a fusion site over `channels`.

    The site's quantum settings are checked for the classical twin too, so
    a twin rejects what its quantum build rejects.
    """
    qcfg = QuantumLayerConfig(n_qubits=cfg.n_qubits, n_circuits=cfg.n_circuits, depth=cfg.circuit_depth,
                              seed=site_seed, input_scale=cfg.input_scale)
    if not cfg.quantum:
        return channels, None, channels
    q = min(max(int(round(channels * cfg.quantum_fraction)), 1), channels - 1)
    if not 0 < q < channels:
        raise ValueError(f"quantum partition {q} must be inside (0, {channels})")
    return channels - q, QuantumConv(qcfg), channels - q + cfg.n_circuits


def _fuse(x: Tensor, classical_channels: int, qconv, classical):
    """(fused map, (classical, quantum) pair or None) of one fusion site.

    The first `classical_channels` channels go through `classical`, the
    rest through `qconv`, and the two maps are concatenated; with no
    quantum layer the whole map goes through `classical`.
    """
    if qconv is None:
        return classical(x), None
    xc, xq = ag.split_channels(x, classical_channels)
    q = qconv(xq)
    r = classical(xc)
    return ag.concat_channels(r, q), (r, q)


class HybridResidualBlock(Module):
    """A fusion site whose classical path is three conv units with an additive skip.

    The concatenated map is optionally fused back to the block width by a
    1x1 conv. The pre-concatenation pair is kept on `self.pair` until the
    network that runs the block collects it.
    """

    def __init__(self, cfg, site_seed: int, rng, fuse=True, dtype=np.float32):
        super().__init__()
        channels = cfg.base_channels
        self.classical_channels, self.qconv, concat_channels = _quantum_site(cfg, channels, site_seed)
        self.unit1 = ConvUnit(self.classical_channels, self.classical_channels, rng, dtype=dtype)
        self.unit2 = ConvUnit(self.classical_channels, self.classical_channels, rng, dtype=dtype)
        self.unit3 = ConvUnit(self.classical_channels, self.classical_channels, rng, dtype=dtype)
        self.out_channels = channels if fuse else concat_channels
        self.fuse = Conv2d(concat_channels, channels, 1, rng, dtype=dtype) if fuse else None
        self.pair = None

    def _residual(self, xc: Tensor) -> Tensor:
        return ag.add(xc, self.unit3(self.unit2(self.unit1(xc))))

    def forward(self, x: Tensor) -> Tensor:
        out, self.pair = _fuse(x, self.classical_channels, self.qconv, self._residual)
        return self.fuse(out) if self.fuse is not None else out


@dataclass
class NetConfig:
    """Settings every network family shares; the dataset sets the patch size."""

    base_channels: int = 32
    quantum_fraction: float = 0.25
    quantum: bool = True
    n_qubits: int = 4
    n_circuits: int = 4
    circuit_depth: int = 2
    circuit_seed: int = 7
    input_scale: float = 1.0
    patch_height: int = 64
    patch_width: int = 64

    def __post_init__(self):
        if self.base_channels < 1:
            raise ValueError("need at least one base channel")
        if not 0.0 < self.quantum_fraction < 1.0:
            raise ValueError(f"quantum_fraction must be inside (0, 1), got {self.quantum_fraction}")


@dataclass
class GeneratorConfig(NetConfig):
    blocks: int = 4

    def __post_init__(self):
        super().__post_init__()
        if self.blocks < 1 or self.base_channels < 2:
            raise ValueError("need at least one block and two base channels")


@dataclass
class DiscriminatorConfig(NetConfig):
    blocks: int = 4

    def __post_init__(self):
        super().__post_init__()
        if self.blocks < 1:
            raise ValueError("need at least one block")


@dataclass
class UNetConfig(NetConfig):
    """The UNet reads only the shared settings."""


class _Network(Module):
    """Shell every family shares: its config, kept pairs, arch dict and patch checks."""

    family: str  # the name checkpoints record
    config_type: type
    scale: int  # how many times smaller than the patch the deepest quantum layer's map is
    unread = ()  # config fields the layers never read, so checkpoints are not checked on them
    retired = {}  # fields older checkpoints record, each with the one value it could take

    def __init__(self, cfg: NetConfig):
        super().__init__()
        self.cfg = cfg
        self._pairs = None
        self._check_patch(cfg.patch_height, cfg.patch_width)

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim != 4 or x.shape[1] != 1:
            raise ag.ShapeError(f"{self.family} expects [B, 1, T, S], got {x.shape}")
        self._check_patch(*x.shape[2:])
        return self.forward(x)

    def _check_patch(self, t: int, s: int) -> None:
        """Raise ShapeError unless the layers can run a t x s patch (see the module docstring)."""
        cfg, k = self.cfg, self.scale
        if t % k or s % k:
            raise ag.ShapeError(f"{self.family} needs patch dims divisible by {k}, got {t}x{s}")
        if cfg.quantum and s // k < cfg.n_qubits:
            raise ag.ShapeError(f"{self.family} trace axis {s} too short for the quantum window at 1/{k}")
        if "patch_height" not in self.unread and (t, s) != (cfg.patch_height, cfg.patch_width):
            raise ag.ShapeError(f"{self.family} is built for {cfg.patch_height}x{cfg.patch_width}, got {t}x{s}")

    def release_pairs(self):
        """Forget the complementarity pairs of the last forward, and the graph they reach."""
        self._pairs = None

    @property
    def complementarity_pairs(self):
        if self._pairs is None:
            raise RuntimeError("complementarity pairs requested with no forward pass kept")
        return list(self._pairs)

    def arch_config(self) -> dict:
        return {"family": self.family, "config": asdict(self.cfg)}


class _DualPath(_Network):
    """Trunk the GAN networks share: a strided stem, then a stack of dual-path blocks.

    Block l draws its circuits from seed `circuit_seed + seed_offset + l`.
    Each forward moves every block's pair into the network's own list.
    """

    def __init__(self, cfg, rng, dtype, seed_offset: int, fuse_last: bool):
        super().__init__(cfg)
        c0 = cfg.base_channels
        self.stem = Conv2d(1, c0, 3, rng, stride=2, padding=1, dtype=dtype)
        self.stem_act = PReLU(c0, dtype=dtype)
        self.blocks = ModuleList(
            [HybridResidualBlock(cfg, cfg.circuit_seed + seed_offset + l, rng,
                                 fuse=fuse_last or l < cfg.blocks - 1, dtype=dtype)
             for l in range(cfg.blocks)]
        )

    def _trunk(self, x: Tensor, pool: bool):
        """(stem output, block-stack output); `pool` halves the map before every block but the first."""
        x0 = self.stem_act(self.stem(x))
        h = x0
        self._pairs = []
        for l, block in enumerate(self.blocks):
            if pool and l:
                h = ag.avgpool2d(h, 2)
            h = block(h)
            if block.pair is not None:
                self._pairs.append(block.pair)
                block.pair = None
        return x0, h


class Generator(_DualPath):
    """Restoration network: strided stem, dual-path blocks, sub-pixel upsample."""

    family = "generator"
    config_type = GeneratorConfig
    scale = 2
    unread = ("patch_height", "patch_width")
    retired = {"upsample_factor": 2}

    def __init__(self, cfg: GeneratorConfig, init_seed: int = 0, dtype=np.float32):
        rng = np.random.default_rng(init_seed)
        super().__init__(cfg, rng, dtype, seed_offset=0, fuse_last=True)
        # one channel per 2x2 sub-pixel
        self.up_conv = Conv2d(cfg.base_channels, 4, 3, rng, padding=1, dtype=dtype)
        self.out_conv = Conv2d(1, 1, 3, rng, padding=1, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        x0, h = self._trunk(x, pool=False)
        up = ag.pixel_shuffle(self.up_conv(ag.add(x0, h)), 2)
        return self.out_conv(up)


class Discriminator(_DualPath):
    """Real/fake scorer: dual-path blocks with pooling, then flatten + fc + sigmoid.

    The last block skips the 1x1 fusion so the concatenated classical and
    quantum maps feed the fully connected head directly.
    """

    family = "discriminator"
    config_type = DiscriminatorConfig
    scale = property(lambda self: 2 ** self.cfg.blocks)  # the stem and each pool halve the map

    def __init__(self, cfg: DiscriminatorConfig, init_seed: int = 0, dtype=np.float32):
        rng = np.random.default_rng(init_seed)
        super().__init__(cfg, rng, dtype, seed_offset=1000, fuse_last=False)
        self.feature_dim = self.blocks[-1].out_channels * cfg.patch_height * cfg.patch_width // self.scale**2
        self.head = Linear(self.feature_dim, 1, rng, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        _, h = self._trunk(x, pool=True)
        return ag.sigmoid(self.head(ag.flatten(h)))


class DoubleConv(Module):
    def __init__(self, cin, cout, rng, dtype=np.float32):
        super().__init__()
        self.unit1 = ConvUnit(cin, cout, rng, dtype=dtype)
        self.unit2 = ConvUnit(cout, cout, rng, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return self.unit2(self.unit1(x))


class UNet(_Network):
    """3-level encoder/decoder with skip connections and a quantum bottleneck.

    The bottleneck is a fusion site whose classical path is the identity:
    its quantum partition goes through the quantum layer and is
    concatenated back, then a 1x1 conv fuses the map. The quantum-off flag
    yields the classical UNet.
    """

    family = "unet"
    config_type = UNetConfig
    scale = 8
    unread = ("patch_height", "patch_width")
    retired = {"levels": 3}

    def __init__(self, cfg: UNetConfig, init_seed: int = 0, dtype=np.float32):
        super().__init__(cfg)
        rng = np.random.default_rng(init_seed)
        c0 = cfg.base_channels
        cb = 8 * c0
        self.enc1 = DoubleConv(1, c0, rng, dtype=dtype)
        self.enc2 = DoubleConv(c0, 2 * c0, rng, dtype=dtype)
        self.enc3 = DoubleConv(2 * c0, 4 * c0, rng, dtype=dtype)
        self.bottleneck = DoubleConv(4 * c0, cb, rng, dtype=dtype)
        self.classical_channels, self.qconv, fuse_in = _quantum_site(cfg, cb, cfg.circuit_seed + 2000)
        self.fuse = Conv2d(fuse_in, cb, 1, rng, dtype=dtype)
        self.up3 = Conv2d(cb, 4 * c0, 3, rng, padding=1, dtype=dtype)
        self.dec3 = DoubleConv(8 * c0, 4 * c0, rng, dtype=dtype)
        self.up2 = Conv2d(4 * c0, 2 * c0, 3, rng, padding=1, dtype=dtype)
        self.dec2 = DoubleConv(4 * c0, 2 * c0, rng, dtype=dtype)
        self.up1 = Conv2d(2 * c0, c0, 3, rng, padding=1, dtype=dtype)
        self.dec1 = DoubleConv(2 * c0, c0, rng, dtype=dtype)
        self.out_conv = Conv2d(c0, 1, 3, rng, padding=1, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        e1 = self.enc1(x)
        e2 = self.enc2(ag.maxpool2d(e1, 2))
        e3 = self.enc3(ag.maxpool2d(e2, 2))
        b, pair = _fuse(self.bottleneck(ag.maxpool2d(e3, 2)), self.classical_channels, self.qconv, lambda bc: bc)
        b = self.fuse(b)
        d3 = self.dec3(ag.concat_channels(self.up3(ag.nearest_upsample(b, (2, 2))), e3))
        d2 = self.dec2(ag.concat_channels(self.up2(ag.nearest_upsample(d3, (2, 2))), e2))
        d1 = self.dec1(ag.concat_channels(self.up1(ag.nearest_upsample(d2, (2, 2))), e1))
        self._pairs = [] if pair is None else [pair]
        return self.out_conv(d1)


def count_trainable_parameters(model: Module) -> int:
    return sum(p.size for p in model.trainable_parameters())


_FAMILIES = {cls.family: cls for cls in (Generator, Discriminator, UNet)}


def _resolve(arch: dict):
    """(family class, config fields) of an arch dict, with its retired fields checked and dropped."""
    family = arch.get("family")
    if family not in _FAMILIES:
        raise ValueError(f"unknown model family {family!r}")
    cls = _FAMILIES[family]
    config = dict(arch["config"])
    for key, value in cls.retired.items():
        if config.pop(key, value) != value:
            raise ValueError(f"{family} {key} can only be {value}, got {arch['config'][key]!r}")
    return cls, config


def arch_signature(arch: dict) -> dict:
    """What a checkpoint's arch dict must match: the family and the config fields it reads."""
    cls, config = _resolve(arch)
    return {"family": cls.family, "config": {k: v for k, v in config.items() if k not in cls.unread}}


def build_model(arch: dict, init_seed: int = 0):
    """Instantiate a model from its architecture dict (see arch_config)."""
    cls, config = _resolve(arch)
    return cls(cls.config_type(**config), init_seed=init_seed)
